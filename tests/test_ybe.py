import random

import pytest
from conftest import tensor2_from_pairs

from novikov.algebra import Algebra
from novikov.errors import BetaNotSelfAdjoint, DegenerateForm, NoHalf
from novikov.fields import GF, QQ
from novikov.fixtures import example_algebra
from novikov.linalg import Matrix
from novikov.operators import LinMap
from novikov.solver import invariant_symmetric_basis
from novikov.tensors import Tensor2, flip
from novikov.ybe import (
    BilForm,
    RTensor,
    adjoint_residual,
    bilform_invariance,
    dual_pm_products,
    enybe_residual,
    hat_matrices,
    invariance_residual,
    nybe_residual,
    o_nybe_residual,
    quad_transport,
    skew_nybe_operator_residual,
    tensor_of_map,
)


def test_hat_single_term():
    r = Tensor2.basis(QQ, 2, 0, 1)  # e1⊗e2
    hat, hat_t = hat_matrices(r)
    assert hat.col(0) == (0, 1) and hat.col(1) == (0, 0)
    assert hat_t.col(1) == (1, 0) and hat_t.col(0) == (0, 0)


def test_hat_of_flip_is_transpose_partner():
    rng = random.Random(2)
    for _ in range(20):
        r = Tensor2(QQ, tuple(tuple(rng.randrange(-4, 5) for _ in range(3)) for _ in range(3)))
        assert hat_matrices(flip(r))[0] == hat_matrices(r)[1]
    # tensor_of_map inverts the identification
    r = Tensor2(QQ, ((1, 2), (3, 4)))
    assert tensor_of_map(hat_matrices(r)[0]) == r


def test_rtensor_parts(a2):
    r = Tensor2(QQ, ((1, 2), (0, 1)))
    rt = RTensor.build(a2, r)
    assert rt.r_minus + rt.r_plus == r
    assert flip(rt.r_minus) == -rt.r_minus
    assert flip(rt.r_plus) == rt.r_plus
    assert rt.alpha.mat + rt.beta.mat == rt.hat
    with pytest.raises(NoHalf):
        RTensor.build(example_algebra(GF(2)), Tensor2.zeros(GF(2), 2))


def test_invariance_examples(a2):
    assert invariance_residual(a2, Tensor2.zeros(QQ, 2)).is_zero
    triv = Algebra.zero(QQ, 2)
    sym = tensor2_from_pairs(QQ, 2, [(0, 0, 1), (0, 1, 2), (1, 0, 2), (1, 1, 3)])
    assert invariance_residual(triv, sym).is_zero
    # e2⊗e2 on the worked algebra is not invariant and the three
    # characterizations agree on that (the call cross-checks internally)
    assert not invariance_residual(a2, Tensor2.basis(QQ, 2, 1, 1)).is_zero


def test_invariant_space_members_annihilate(a2_f3):
    for s in invariant_symmetric_basis(a2_f3):
        assert invariance_residual(a2_f3, s).is_zero


def test_nybe_examples(a2):
    assert nybe_residual(a2, Tensor2.zeros(QQ, 2)).is_zero()
    assert nybe_residual(a2, Tensor2.basis(QQ, 2, 1, 1)).is_zero()
    skew = tensor2_from_pairs(QQ, 2, [(0, 1, 1), (1, 0, -1)])
    t = nybe_residual(a2, skew)
    expected = {(0, 1, 1): 2, (1, 0, 1): -4, (1, 1, 0): 2}
    for i in range(2):
        for j in range(2):
            for k in range(2):
                assert t[i, j, k] == expected.get((i, j, k), 0)


def test_enybe_examples(a2):
    r = Tensor2.basis(QQ, 2, 0, 0)
    assert enybe_residual(a2, r, 1).is_zero()
    assert not enybe_residual(a2, r, 0).is_zero()
    skew = tensor2_from_pairs(QQ, 2, [(0, 1, 1), (1, 0, -1)])
    for eps in (0, 1, 7):
        assert enybe_residual(a2, skew, eps) == nybe_residual(a2, skew)


def test_o_nybe_matches_tensor(a2):
    assert o_nybe_residual(a2, Tensor2.zeros(QQ, 2)).is_zero
    assert o_nybe_residual(a2, Tensor2.basis(QQ, 2, 1, 1)).is_zero
    skew = tensor2_from_pairs(QQ, 2, [(0, 1, 1), (1, 0, -1)])
    assert not o_nybe_residual(a2, skew).is_zero


def test_dual_pm_products(a2):
    skew = tensor2_from_pairs(QQ, 2, [(0, 1, 1), (1, 0, -1)])
    rt = RTensor.build(a2, skew)
    plus, minus = dual_pm_products(a2, rt)  # beta = 0: both zero
    assert all(all(c == 0 for c in cell) for row in plus for cell in row)
    assert all(all(c == 0 for c in cell) for row in minus for cell in row)
    # plus = -minus in general, on an invariant-symmetric instance over F3
    f3 = GF(3)
    a2m = example_algebra(f3)
    s = invariant_symmetric_basis(a2m)[0]
    rt3 = RTensor.build(a2m, s)
    p3, m3 = dual_pm_products(a2m, rt3)
    for i in range(2):
        for j in range(2):
            assert f3.reduce([-c for c in p3[i][j]]) == m3[i][j]


def test_dual_pm_products_values_with_nonzero_beta():
    # s = e1⊗e2 + e2⊗e1 over F3, beta = [[0, 1], [1, 0]]: a* ·+ b* = -2 l(beta(a*))b*
    # with l(e2) = -(L+R)(e2)^T = [[0, -2], [0, 0]], so e1* ·+ e2* = -2(-2, 0) = (1, 0)
    f3 = GF(3)
    a2m = example_algebra(f3)
    rt = RTensor.build(a2m, invariant_symmetric_basis(a2m)[0])
    assert rt.beta.mat.row_list() == [(0, 1), (1, 0)]
    plus, minus = dual_pm_products(a2m, rt)
    assert plus == (((0, 0), (1, 0)), ((1, 0), (0, 1)))
    assert minus == (((0, 0), (2, 0)), ((2, 0), (0, 2)))


def test_o_nybe_failure_values(a2):
    # r = e1⊗e2 - e2⊗e1: hat(e2*) = -e1, hat_t(e2*) = e1, so at (e2*, e2*)
    # hat(e2*)∘hat(e2*) - hat(l(-e1)e2* - r(e1)e2*) = e1 - hat((0, 2) - (0, 1)) = e1 + e1
    skew = tensor2_from_pairs(QQ, 2, [(0, 1, 1), (1, 0, -1)])
    rep = o_nybe_residual(a2, skew)
    assert [(fail.identity, fail.indices, fail.value) for fail in rep.failures] == [
        ("o-nybe", (0, 1), (0, 2)),
        ("o-nybe", (1, 0), (0, -4)),
        ("o-nybe", (1, 1), (2, 0)),
    ]


def test_bilform_examples(a2):
    ident = BilForm(QQ, ((1, 0), (0, 1)))
    triv = Algebra.zero(QQ, 2)
    rep, quad = bilform_invariance(triv, ident)
    assert rep.is_zero and quad
    rep2, quad2 = bilform_invariance(a2, ident)
    assert not rep2.is_zero and not quad2
    zero = BilForm(QQ, ((0, 0), (0, 0)))
    rep3, quad3 = bilform_invariance(a2, zero)
    assert rep3.is_zero and not quad3  # invariant but degenerate


def test_adjoint_examples():
    b = BilForm(QQ, ((1, 0), (0, 1)))
    ident = LinMap.identity(QQ, 2)
    assert adjoint_residual(b, ident, +1).is_zero
    assert not adjoint_residual(b, ident, -1).is_zero
    diag_b = BilForm(QQ, ((2, 0), (0, 3)))
    diag_t = LinMap(Matrix.from_rows(QQ, [(5, 0), (0, 7)]))
    assert adjoint_residual(diag_b, diag_t, +1).is_zero


def test_quad_transport_trivial_algebra():
    triv = Algebra.zero(QQ, 2)
    b = BilForm(QQ, ((1, 0), (0, 1)))
    z = LinMap.zero(QQ, 2, 2)
    qt = quad_transport(triv, b, z, z)
    assert qt.delta_plus.is_zero() and qt.delta_minus.is_zero()
    assert nybe_residual(triv, qt.delta_plus).is_zero()
    skew_t = LinMap(Matrix.from_rows(QQ, [(0, 1), (-1, 0)]))
    qt2 = quad_transport(triv, b, skew_t, z)
    assert qt2.delta_plus.is_skew()
    assert nybe_residual(triv, qt2.delta_plus).is_zero()


def test_quad_transport_rejections(a2):
    degenerate = BilForm(QQ, ((1, 0), (0, 0)))
    z = LinMap.zero(QQ, 2, 2)
    with pytest.raises(DegenerateForm):
        quad_transport(Algebra.zero(QQ, 2), degenerate, z, z)
    ident_form = BilForm(QQ, ((1, 0), (0, 1)))
    with pytest.raises(DegenerateForm):
        # identity form is not invariant on the worked algebra
        quad_transport(a2, ident_form, z, z)
    swap = LinMap(Matrix.from_rows(QQ, [(0, 1), (-1, 0)]))
    with pytest.raises(BetaNotSelfAdjoint):
        quad_transport(Algebra.zero(QQ, 2), ident_form, z, swap)


def test_skew_operator_form(a2):
    skew = tensor2_from_pairs(QQ, 2, [(0, 1, 1), (1, 0, -1)])
    assert nybe_residual(a2, skew).is_zero() == skew_nybe_operator_residual(a2, skew).is_zero
    zero = Tensor2.zeros(QQ, 2)
    assert skew_nybe_operator_residual(a2, zero).is_zero
