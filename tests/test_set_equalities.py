"""The paper's bijections between solution sets, as exact set equalities over
every dim-2 Novikov algebra of F_3 (and of F_2, for the tensor form), and
what the compatible post-Novikov structure of each invertible Rota-Baxter
solution sums to.

Each side is enumerated by ``enumerate_search``, whose verdicts come from the
object-path residuals, or checked point by point on the object path; the
mod-p kernels are not used.  Solutions are row-major matrix coefficients, so
shifting by c·id adds c to the diagonal.
"""

from itertools import product

import pytest

from novikov.fields import GF
from novikov.linalg import Matrix, rank
from novikov.operators import LinMap
from novikov.postnov import associated, compatible_from_rb
from novikov.solver import SearchSpec, enumerate_search, enumerated_dim2
from novikov.tensors import Tensor2
from novikov.ybe import o_nybe_residual

F3 = GF(3)
P, N = 3, 2
DIAGONAL = {i * N + i for i in range(N)}


def _shifted(solutions, c: int) -> set:
    """Each solution map T as T + c·id."""
    return {tuple((v + c * (k in DIAGONAL)) % P for k, v in enumerate(sol)) for sol in solutions}


def _solutions(alg, kind: str, field=F3, **masses) -> list:
    return enumerate_search(SearchSpec(kind, field, N, algebra=alg, **masses)).solutions


def _rota_baxter(field) -> list:
    """Per dim-2 table over ``field``, its Rota-Baxter solution set of each weight."""
    return [
        (alg, {w: _solutions(alg, "rota-baxter", field, weight=w) for w in range(field.p)})
        for alg in enumerated_dim2(field)
    ]


@pytest.fixture(scope="module")
def rota_baxter():
    """Per dim-2 F_3 table, its Rota-Baxter solution set of each weight."""
    return _rota_baxter(F3)


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


@pytest.mark.parametrize("p, count", [(2, 78), (3, 864)], ids=["F2", "F3"])
def test_compatible_structure_recovers_the_product(rota_baxter, p, count):
    # pushed forward along an invertible Rota-Baxter operator T, the
    # structure T induces sums back to the original product
    f = GF(p)
    invertible = 0
    for alg, by_weight in rota_baxter if p == P else _rota_baxter(f):
        for w, sols in by_weight.items():
            for sol in sols:
                t = LinMap(Matrix(f, N, N, sol))
                if rank(t.mat) == N:
                    invertible += 1
                    assert associated(compatible_from_rb(alg, t, w)).mul == alg.mul
    assert invertible == count


@pytest.mark.parametrize("p, count", [(2, 232), (3, 849)], ids=["F2", "F3"])
def test_operator_form_solutions_are_the_nybe_solutions(p, count):
    # the tensor-form theorem: r solves the NYBE exactly when its hat solves
    # the operator form; the (table, r) pairs whose concrete operator-form
    # residual vanishes are the searched NYBE solutions on the same tables
    f = GF(p)
    operator, searched = set(), set()
    for t, alg in enumerate(enumerated_dim2(f)):
        for cells in product(range(p), repeat=N * N):
            if o_nybe_residual(alg, Tensor2(f, (cells[:N], cells[N:]))).is_zero:
                operator.add((t, cells))
        searched.update((t, sol) for sol in enumerate_search(SearchSpec("nybe-solution", f, N, algebra=alg)).solutions)
    assert len(operator) == count
    assert operator == searched
