"""The paper's bijections between solution sets, as exact set equalities over
every dim-2 Novikov algebra of F_3.

Both sides of each equality are enumerated by ``enumerate_search``, whose
verdicts come from the object-path residuals; the mod-p kernels are not
used.  Solutions are row-major matrix coefficients, so shifting by c·id
adds c to the diagonal.
"""

import pytest

from novikov.fields import GF
from novikov.operators import LinMap
from novikov.solver import SearchSpec, enumerate_search, enumerated_dim2

F3 = GF(3)
P, N = 3, 2
DIAGONAL = {i * N + i for i in range(N)}


def _shifted(solutions, c: int) -> set:
    """Each solution map T as T + c·id."""
    return {tuple((v + c * (k in DIAGONAL)) % P for k, v in enumerate(sol)) for sol in solutions}


def _solutions(alg, kind: str, **masses) -> list:
    return enumerate_search(SearchSpec(kind, F3, N, algebra=alg, **masses)).solutions


@pytest.fixture(scope="module")
def rota_baxter():
    """Per dim-2 F_3 table, its Rota-Baxter solution set of each weight."""
    return [(alg, {w: _solutions(alg, "rota-baxter", weight=w) for w in range(P)}) for alg in enumerated_dim2(F3)]


def test_ext_o_with_identity_beta_is_shifted_rota_baxter(rota_baxter):
    # T solves the extended operator equation with beta = id and masses
    # (lambda, -1 + s·lambda, 0) exactly when T + s·id is a Rota-Baxter
    # operator of weight lambda - 2s (acceptance 3's statement)
    beta = LinMap.identity(F3, N)
    mismatches = solutions = 0
    for alg, by_weight in rota_baxter:
        for lam in range(P):
            for s in (1, -1):
                ext_o = _solutions(alg, "ext-o-operator", weight=lam, kappa=(-1 + s * lam) % P, mu=0, beta=beta)
                shifted = _shifted(by_weight[(lam - 2 * s) % P], -s)
                solutions += len(ext_o)
                mismatches += len(shifted.symmetric_difference(ext_o))
    assert len(rota_baxter) == 177
    assert (solutions, mismatches) == (6438, 0)


def test_rota_baxter_weight_minus_two_shifts_to_weight_two(rota_baxter):
    # P has weight lambda exactly when P + lambda·id has weight -lambda
    # (P-BAXTER's shift, at lambda = -2)
    mismatches = solutions = 0
    for _alg, by_weight in rota_baxter:
        shifted = _shifted(by_weight[-2 % P], -2)
        solutions += len(by_weight[2])
        mismatches += len(shifted.symmetric_difference(by_weight[2]))
    assert (solutions, mismatches) == (1185, 0)
