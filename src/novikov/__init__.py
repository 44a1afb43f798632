"""Exact-arithmetic Novikov algebras, bimodules, operator identities and
Yang-Baxter residual checking over Q and small prime fields.

The exports below are resolved on first access (PEP 562), so ``import
novikov`` loads no submodule and a command loads only what it uses.  Names
are looked up in their home module on every access, never cached here, so a
function replaced there (and restored) is what the package hands out.
"""

from importlib import import_module

_HOMES = {
    "algebra": (
        "Algebra BimodNov Bimodule abnova_residual bimodule_residual dual_bimodule dual_context "
        "novikov_residual regular regular_bimodule semidirect star star_algebra"
    ),
    "fields": "Field GF PrimeField QQ Rationals",
    "linalg": "Matrix kernel_basis",
    "operators": (
        "LinMap MassParams balanced_residual bimodule_hom_residual circ_t diamond_product "
        "equivalent_residual ext_o_residual invariant_residual pm_products rota_baxter_residual star_product"
    ),
    "postnov": (
        "CommTrialgebra PostNov associated lr_bimodule post_from_nybe post_from_o post_from_rb "
        "post_from_trialgebra post_on_image post_residual"
    ),
    "tensors": "Tensor2 Tensor3 flip tensor3_combine",
    "ybe": "BilForm RTensor bilform_invariance enybe_residual invariance_residual nybe_residual o_nybe_residual",
    "lift": "circ_delta delta_r double generalized_o_residual gnybe_residuals lift_map",
    "properties": "PROPERTY_IDS run_property",
    "solver": "SearchSpec enumerate_search",
}
# each exported name -> the submodule that defines it
_EXPORTS = {name: home for home, names in _HOMES.items() for name in names.split()}
__all__ = list(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name: str):
    # AttributeError (not KeyError) lets ``from novikov import solver`` fall
    # back to importing the submodule
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_EXPORTS[name]}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
