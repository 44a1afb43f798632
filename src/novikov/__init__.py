"""Exact-arithmetic Novikov algebras, bimodules, operator identities and
Yang-Baxter residual checking over Q and small prime fields."""

from .algebra import (
    Algebra,
    BimodNov,
    Bimodule,
    abnova_residual,
    bimodule_residual,
    dual_bimodule,
    dual_context,
    novikov_residual,
    regular,
    regular_bimodule,
    semidirect,
    star,
    star_algebra,
)
from .fields import Field, GF, PrimeField, QQ, Rationals
from .linalg import Matrix, kernel_basis
from .operators import (
    LinMap,
    MassParams,
    balanced_residual,
    bimodule_hom_residual,
    circ_t,
    diamond_product,
    equivalent_residual,
    ext_o_residual,
    invariant_residual,
    pm_products,
    rota_baxter_residual,
    star_product,
)
from .postnov import (
    CommTrialgebra,
    PostNov,
    associated,
    lr_bimodule,
    post_from_nybe,
    post_from_o,
    post_from_rb,
    post_from_trialgebra,
    post_on_image,
    post_residual,
)
from .tensors import Tensor2, Tensor3, flip, tensor3_combine
from .ybe import (
    BilForm,
    RTensor,
    bilform_invariance,
    enybe_residual,
    invariance_residual,
    nybe_residual,
    o_nybe_residual,
)
from .lift import circ_delta, delta_r, double, generalized_o_residual, gnybe_residuals, lift_map
from .properties import PROPERTY_IDS, run_property
from .solver import SearchSpec, enumerate_search, random_instance

__version__ = "0.1.0"
