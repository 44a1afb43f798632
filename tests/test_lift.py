import itertools
import random

import pytest
from conftest import tensor2_from_pairs

from novikov.algebra import (
    Algebra,
    Bimodule,
    bimodule_residual,
    novikov_residual,
    regular_bimodule,
)
from novikov.errors import DimMismatch, NotABimodule
from novikov.fields import GF, QQ
from novikov.fixtures import example_algebra
from novikov.lift import (
    b_alpha,
    bialgebra_extra_residuals,
    circ_delta,
    circ_delta_algebra,
    circ_delta_pairing,
    delta_r,
    double,
    generalized_o_residual,
    gnybe_flag,
    gnybe_residuals,
    lift_map,
)
from novikov.linalg import Matrix
from novikov.operators import LinMap
from novikov.solver import enumerated_dim2
from novikov.tensors import Tensor2


def test_double_of_regular(a2):
    d = double(a2, regular_bimodule(a2))
    assert d.dim == 4
    assert novikov_residual(d.algebra).is_zero
    # the base block of the product is the original table
    for i in range(2):
        for j in range(2):
            assert d.algebra.mul[i][j][:2] == a2.mul[i][j]


def test_double_trivial():
    triv = Algebra.zero(QQ, 2)
    z = Matrix.zeros(QQ, 3, 3)
    b = Bimodule(triv, 3, (z, z), (z, z))
    d = double(triv, b)
    assert d.dim == 5
    assert novikov_residual(d.algebra).is_zero


def _line_bimodules(alg) -> list:
    """Every bimodule of ``alg`` on a one-dimensional module."""
    f = alg.field
    found = []
    for acts in itertools.product(range(f.p), repeat=2 * alg.dim):
        mats = [Matrix(f, 1, 1, (c,)) for c in acts]
        b = Bimodule(alg, 1, tuple(mats[: alg.dim]), tuple(mats[alg.dim :]))
        if bimodule_residual(b).is_zero:
            found.append(b)
    return found


def test_double_of_a_bimodule_is_novikov():
    # the dual of a bimodule is a bimodule (P-DUAL), so each double over a
    # Novikov algebra is Novikov: on every dim-2 table over F_2 and F_3 with
    # its regular bimodule, and over F_2 with each of the 118 bimodules on a
    # line (over F_3 there are 729, which would cost 3 s)
    bimodules = 0
    for p in (2, 3):
        for alg in enumerated_dim2(GF(p)):
            for b in (regular_bimodule(alg), *(_line_bimodules(alg) if p == 2 else ())):
                bimodules += 1
                assert novikov_residual(double(alg, b).algebra).is_zero
    assert bimodules == 52 + 118 + 177


def test_double_needs_a_novikov_base():
    # e2∘e1 = e2 is not Novikov; the zero bimodule on a line over it passes
    # the bimodule identities, yet A sits in its double as a subalgebra
    alg = Algebra.from_flat(QQ, 2, (0, 0, 0, 0, 0, 1, 0, 0))
    z = Matrix.zeros(QQ, 1, 1)
    b = Bimodule(alg, 1, (z, z), (z, z))
    assert bimodule_residual(b).is_zero
    assert not novikov_residual(double(alg, b, validate=False).algebra).is_zero
    with pytest.raises(NotABimodule, match="double product failed the Novikov identities"):
        double(alg, b)


def test_double_rejects_invalid(a2):
    reg = regular_bimodule(a2)
    z = Matrix.zeros(QQ, 2, 2)
    bad = Bimodule(a2, 2, reg.l_mats, (z, z))
    with pytest.raises(NotABimodule):
        double(a2, bad)


def test_lift_map_blocks(a2, t2):
    d = double(a2, regular_bimodule(a2))
    lifted = lift_map(d, t2)
    n = 2
    # top-right block carries the map, bottom-left of the odd part its negative transpose
    for i in range(n):
        for k in range(n):
            assert lifted.mat[i, n + k] == t2.mat[i, k]
            assert lifted.mat[n + i, k] == 0
            assert lifted.mat[i, k] == 0
    minus_hat = lifted.tensor_minus
    # the skew and symmetric combinations have the advertised symmetry
    from novikov.tensors import flip

    assert flip(minus_hat) == -minus_hat
    assert flip(lifted.tensor_plus) == lifted.tensor_plus
    # zero map lifts to zero
    z = lift_map(d, LinMap.zero(QQ, 2, 2))
    assert z.tensor.is_zero()
    with pytest.raises(DimMismatch):
        lift_map(d, LinMap.zero(QQ, 3, 2))


def test_gnybe_frozen_hand_values(a2):
    r = Tensor2.basis(QQ, 2, 0, 0)  # e1⊗e1
    first, second = gnybe_residuals(a2, r)
    assert first[0].is_zero()
    expected6 = {(1, 0, 0): 2, (0, 1, 0): -2}
    for i in range(2):
        for j in range(2):
            for k in range(2):
                assert first[1][i, j, k] == expected6.get((i, j, k), 0)
    assert second[0].is_zero()
    expected7 = {(0, 0, 1): -4, (0, 1, 0): 4}
    for i in range(2):
        for j in range(2):
            for k in range(2):
                assert second[1][i, j, k] == expected7.get((i, j, k), 0)


def test_gnybe_zero_tensor(a2):
    assert gnybe_flag(a2, Tensor2.zeros(QQ, 2))


def test_gnybe_agrees_with_dual_product_on_randoms():
    rng = random.Random(19)
    f5 = GF(5)
    alg = example_algebra(f5)
    for _ in range(120):
        r = Tensor2(f5, tuple(tuple(rng.randrange(5) for _ in range(2)) for _ in range(2)))
        assert gnybe_flag(alg, r) == novikov_residual(circ_delta_algebra(alg, r)).is_zero


def test_delta_r_values(a2):
    r = Tensor2.basis(QQ, 2, 1, 1)
    d1 = delta_r(a2, r, a2.basis_vec(0))
    assert d1 == Tensor2.basis(QQ, 2, 1, 1).scale(3)  # 3·e2⊗e2
    assert delta_r(a2, r, a2.basis_vec(1)).is_zero()
    assert delta_r(a2, Tensor2.zeros(QQ, 2), a2.basis_vec(0)).is_zero()


def test_circ_delta_values(a2):
    r = Tensor2.basis(QQ, 2, 1, 1)
    grid = circ_delta(a2, r)  # cross-validates against the pairing inside
    assert grid[1][1] == (3, 0)
    assert grid[0][0] == (0, 0)
    assert grid == circ_delta_pairing(a2, r)
    assert all(all(c == 0 for c in cell) for row in circ_delta(a2, Tensor2.zeros(QQ, 2)) for cell in row)


def test_bialgebra_extra(a2):
    skew = tensor2_from_pairs(QQ, 2, [(0, 1, 1), (1, 0, -1)])
    assert bialgebra_extra_residuals(a2, skew).is_zero
    assert bialgebra_extra_residuals(a2, Tensor2.zeros(QQ, 2)).is_zero
    # symmetric tensor generally fails
    assert not bialgebra_extra_residuals(a2, Tensor2.basis(QQ, 2, 1, 1)).is_zero


def test_b_alpha_values(a2, t2):
    reg = regular_bimodule(a2)
    grid = b_alpha(reg, t2)
    assert grid[0][0] == (-4, -8)
    z = b_alpha(reg, LinMap.zero(QQ, 2, 2))
    assert all(all(c == 0 for c in cell) for row in z for cell in row)
    # a weight-0 operator (the zero map) has an identically zero obstruction
    assert generalized_o_residual(reg, LinMap.zero(QQ, 2, 2)).is_zero


def test_generalized_o_equivalence_f2():
    f2 = GF(2)
    alg = example_algebra(f2)
    bim = regular_bimodule(alg)
    d = double(alg, bim, validate=False)
    for idx in range(16):
        bits = tuple((idx >> s) & 1 for s in range(4))
        alpha = LinMap(Matrix(f2, 2, 2, bits))
        lhs = generalized_o_residual(bim, alpha).is_zero
        lifted = lift_map(d, alpha)
        assert lhs == gnybe_flag(d.algebra, lifted.tensor_minus)


def test_rota_baxter_lift_formula_correction():
    """The proof-correct lifted pair solves the plain tensor equation for
    every Rota-Baxter instance; the naive sign-flipped placement of the
    identity tensor does not (regression for the corrected transcription)."""
    from novikov.fields import GF
    from novikov.solver import SearchSpec, enumerate_search, enumerated_dim2
    from novikov.ybe import nybe_residual

    field = GF(5)
    lam = field.coerce(1)
    literal_failures = 0
    examined = 0
    for alg in enumerated_dim2(field)[:40]:
        sols = enumerate_search(SearchSpec("rota-baxter", field, 2, algebra=alg, weight=lam)).solutions
        bim = regular_bimodule(alg)
        d = double(alg, bim, validate=False)
        ident = LinMap.identity(field, 2)
        qi = lift_map(d, ident)
        for s in sols:
            t = LinMap(Matrix(field, 2, 2, s))
            examined += 1
            gamma = t.scale(field.mul(field.coerce(2), field.inv(lam))) + ident
            pg = lift_map(d, gamma)
            assert nybe_residual(d.algebra, pg.tensor_minus + qi.tensor_plus).is_zero()
            assert nybe_residual(d.algebra, pg.tensor_minus - qi.tensor_plus).is_zero()
            tt = lift_map(d, t)
            literal = tt.tensor_minus.scale(field.coerce(2)) - (qi.tensor + qi.tensor)
            if not nybe_residual(d.algebra, literal).is_zero():
                literal_failures += 1
    assert examined > 100
    assert literal_failures > 0  # the naive placement is genuinely different
