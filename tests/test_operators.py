from fractions import Fraction

import pytest

from novikov.algebra import Algebra, abnova_residual, dual_context, novikov_residual, regular
from novikov.errors import NoHalf
from novikov.fields import GF, QQ
from novikov.fixtures import example_algebra
from novikov.linalg import Matrix
from novikov.operators import (
    LinMap,
    MassParams,
    balanced_residual,
    baxter_residual,
    circ_t,
    diamond_product,
    equivalent_residual,
    ext_o_equation_residual,
    ext_o_residual,
    invariant_residual,
    pm_contexts,
    pm_products,
    rota_baxter_residual,
    star_product,
)


def test_beta_is_balanced(a2_regular, beta2):
    assert balanced_residual(a2_regular, beta2).is_zero


def test_zero_map_balanced(a2_regular):
    assert balanced_residual(a2_regular, LinMap.zero(QQ, 2, 2)).is_zero


def test_swap_map_not_balanced(a2_regular):
    swap = LinMap(Matrix.from_rows(QQ, [(0, 1), (1, 0)]))
    assert not balanced_residual(a2_regular, swap).is_zero


def test_invariance_scaling(a2_regular, beta2):
    for kappa in (0, 1, -2, 5):
        assert invariant_residual(a2_regular, beta2, kappa).is_zero
    # mass zero is vacuous for any map; the swap map fails at mass 1
    # (e2∘swap(e2) = e2 but swap(e2∘e2) = 0)
    swap = LinMap(Matrix.from_rows(QQ, [(0, 1), (1, 0)]))
    assert invariant_residual(a2_regular, swap, 0).is_zero
    assert not invariant_residual(a2_regular, swap, 1).is_zero


def test_equivalent_masses(a2_regular):
    ident = LinMap.identity(QQ, 2)
    assert equivalent_residual(a2_regular, ident, 1).is_zero
    assert equivalent_residual(a2_regular, ident, 0).is_zero
    # trivial module product: every term vanishes
    from novikov.algebra import regular_bimodule

    triv = regular_bimodule(example_algebra(QQ)).trivial()
    any_map = LinMap(Matrix.from_rows(QQ, [(1, 2), (3, 4)]))
    assert equivalent_residual(triv, any_map, 1).is_zero


def test_paper_extended_operator(a2_regular, t2, beta2):
    rep = ext_o_residual(a2_regular, t2, beta2, MassParams(1, -2, 0))
    assert rep.is_zero
    # without the extension the same weight fails
    assert not ext_o_residual(a2_regular, t2, None, MassParams(1, 0, 0)).is_zero
    # the residual equals the extension defect: check the equation-only mode
    assert not ext_o_equation_residual(a2_regular, t2, None, MassParams(1, 0, 0)).is_zero


def test_identity_is_rota_baxter_weight_minus_one():
    for field in (QQ, GF(5), GF(7)):
        alg = example_algebra(field)
        assert rota_baxter_residual(alg, LinMap.identity(field, 2), -1).is_zero
        assert not rota_baxter_residual(alg, LinMap.identity(field, 2), 1).is_zero


def test_circ_t_values(a2, t2):
    ct = circ_t(a2, t2, 1)
    assert ct.mul[0][0] == (-3, 8)
    assert ct.mul[0][1] == (0, 0)
    assert ct.mul[1][0] == (0, 0)
    assert ct.mul[1][1] == (0, 0)
    assert novikov_residual(ct).is_zero
    # T = 0 gives the weight-scaled product
    z = LinMap.zero(QQ, 2, 2)
    assert circ_t(a2, z, 3).mul == Algebra(QQ, 2, tuple(
        tuple(tuple(3 * c for c in cell) for cell in row) for row in a2.mul)).mul


def test_pm_products_values(a2_regular, beta2):
    plus, minus = pm_products(a2_regular, beta2, 1)
    assert plus[0][0] == (-1, -6)  # e1 - 2(e1+3e2)
    assert minus[0][0] == (3, 6)  # e1 + 2(e1+3e2)
    assert plus[0][1] == (0, -1) and plus[1][0] == (0, -1)  # e2 - 2e2
    assert minus[0][1] == (0, 3) and minus[1][0] == (0, 3)
    assert plus[1][1] == (0, 0) and minus[1][1] == (0, 0)
    # beta = 0 degenerates to the scaled product
    p0, m0 = pm_products(a2_regular, LinMap.zero(QQ, 2, 2), 1)
    assert p0 == m0 == a2_regular.mul


def test_pm_contexts_are_module_algebras(a2_regular, beta2):
    ctx_p, ctx_m = pm_contexts(a2_regular, beta2, 1)
    assert abnova_residual(ctx_p).is_zero
    assert abnova_residual(ctx_m).is_zero


def test_char_two_rejections():
    alg = example_algebra(GF(2))
    reg = regular(alg)
    beta = LinMap.identity(GF(2), 2)
    with pytest.raises(NoHalf):
        pm_products(reg, beta, 1)
    with pytest.raises(NoHalf):
        diamond_product(reg, beta, beta, 1)


def test_star_product_matches_circ_t(a2, a2_regular, t2):
    grid, closure = star_product(a2_regular, t2, 1)
    assert closure.is_zero
    assert grid == circ_t(a2, t2, 1).mul
    assert novikov_residual(Algebra(QQ, 2, grid)).is_zero


def test_star_product_trivial():
    alg = example_algebra(QQ)
    reg = regular(alg)
    grid, closure = star_product(reg, LinMap.zero(QQ, 2, 2), 0)
    assert closure.is_zero
    assert all(all(c == 0 for c in cell) for row in grid for cell in row)


def test_star_product_values(a2, a2_regular, t2):
    # on A: e1*e1 = T(e1)∘e1 + e1∘T(e1) + e1∘e1 = 2(-2e1 + 4e2) + e1
    grid, _ = star_product(a2_regular, t2, 1)
    assert grid[0][0] == (-3, 8)
    # on the dual context l = -(L+R)^T, r = R^T: with T(e1*) = (-2, 4),
    # l(T(e1*)) = [[4, -8], [0, 4]] and r(T(e1*)) = [[-2, 4], [0, -2]], so
    # e1* * e1* = (4, 0) + (-2, 0); the module product is trivial
    grid, closure = star_product(dual_context(a2), t2, 1)
    assert grid == (((2, 0), (-8, 4)), ((4, -2), (-1, 0)))
    assert [(fail.indices, fail.value) for fail in closure.failures] == [
        ((0, 0, 1), (-16, 16)),
        ((0, 1, 0), (16, -16)),
        ((0, 1, 0), (-16, -8)),
        ((0, 1, 1), (56, -32)),
        ((1, 0, 0), (16, 8)),
        ((1, 0, 1), (-28, 16)),
        ((1, 0, 1), (-56, 32)),
        ((1, 1, 0), (28, -16)),
    ]


def test_diamond_values_with_distinct_deltas(a2, t2, beta2):
    # e2* ⋄ e1* = l(T(e2*))e1* + r(beta(e1*))e2* = (0, 0) + column 1 of
    # r(e1* + 3e2*) = [[1, 3], [0, 1]]
    grid, alpha, beta = diamond_product(dual_context(a2), t2, beta2, 1)
    assert grid == (((5, 0), (-8, 4)), ((3, 1), (-1, 0)))
    assert alpha.mat.row_list() == [(Fraction(-1, 2), 0), (Fraction(7, 2), 1)]
    assert beta.mat.row_list() == [(Fraction(-3, 2), 0), (Fraction(1, 2), 0)]


def test_diamond_recovers_parts(a2_regular, t2, beta2):
    grid, alpha, beta = diamond_product(a2_regular, t2 + beta2, t2 - beta2, 1)
    assert alpha.mat == t2.mat
    assert beta.mat == beta2.mat
    # beta balanced: diamond coincides with the symmetrized-product grid
    star_grid, _ = star_product(a2_regular, t2, 1)
    assert grid == star_grid


def test_diamond_with_equal_deltas(a2_regular, t2):
    grid, alpha, beta = diamond_product(a2_regular, t2, t2, 1)
    assert beta.is_zero() and alpha.mat == t2.mat
    star_grid, _ = star_product(a2_regular, t2, 1)
    assert grid == star_grid


def test_baxter_residual():
    alg = example_algebra(QQ)
    # id: id∘id - id(x∘y + x∘y) + x∘y = xy - 2xy + xy = 0: id is Baxter
    assert baxter_residual(alg, LinMap.identity(QQ, 2)).is_zero
    assert not baxter_residual(alg, LinMap.zero(QQ, 2, 2)).is_zero


def test_ext_o_full_report_flags(a2_regular, t2):
    # a beta that is not balanced must poison the full verdict
    swap = LinMap(Matrix.from_rows(QQ, [(0, 1), (1, 0)]))
    rep = ext_o_residual(a2_regular, t2, swap, MassParams(1, -2, 0))
    assert not rep.is_zero
    assert any(fail.identity == "balanced" for fail in rep.failures)
