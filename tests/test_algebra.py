import random
from fractions import Fraction
from itertools import chain

import pytest

from novikov.algebra import (
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
)
from novikov.errors import DimMismatch, NotABimodule, NotNovikov
from novikov.fields import GF, QQ, PolyRing
from novikov.linalg import Matrix
from novikov.solver import SearchSpec, reverify, trunc_poly_algebra


def test_example_algebra_is_novikov(a2):
    assert novikov_residual(a2).is_zero


def test_zero_product_is_novikov():
    assert novikov_residual(Algebra.zero(QQ, 3)).is_zero


def test_non_novikov_table():
    bad = Algebra.from_table(QQ, {(0, 0): (0, 1), (0, 1): (1, 0)}, 2)
    rep = novikov_residual(bad)
    assert not rep.is_zero
    assert rep.witness() is not None


def test_star_values(a2):
    grid = star(a2)
    assert grid[0][0] == (2, 0)  # e1⋆e1 = 2e1
    assert grid[0][1] == (0, 2)  # e1⋆e2 = 2e2
    for i in range(2):
        for j in range(2):
            assert grid[i][j] == grid[j][i]


def test_lr_matrices(a2):
    left, right, lstar = a2.left_mul(a2.basis_vec(0)), a2.right_mul(a2.basis_vec(0)), a2.star_mul(a2.basis_vec(0))
    assert left == Matrix.identity(QQ, 2)
    assert lstar == left + right
    left2 = a2.left_mul(a2.basis_vec(1))
    assert left2.col(0) == (0, 1) and left2.col(1) == (0, 0)  # e1↦e2, e2↦0
    z, zr, zs = a2.left_mul((0, 0)), a2.right_mul((0, 0)), a2.star_mul((0, 0))
    assert z.is_zero() and zr.is_zero() and zs.is_zero()
    # linearity in the algebra argument
    assert a2.left_mul((1, 1)) == left + left2


def test_regular_bimodule_valid(a2):
    assert bimodule_residual(regular_bimodule(a2)).is_zero


def test_zero_actions_bimodule(a2):
    z = Matrix.zeros(QQ, 3, 3)
    b = Bimodule(a2, 3, (z, z), (z, z))
    assert bimodule_residual(b).is_zero


def test_regular_l_with_zero_r_fails(a2):
    reg = regular_bimodule(a2)
    z = Matrix.zeros(QQ, 2, 2)
    b = Bimodule(a2, 2, reg.l_mats, (z, z))
    rep = bimodule_residual(b)
    assert not rep.is_zero
    assert any(f.identity == "l-of-product" for f in rep.failures)


def test_abnova_regular_and_trivial(a2, a2_regular):
    assert abnova_residual(a2_regular).is_zero
    assert abnova_residual(regular_bimodule(a2).trivial()).is_zero


def test_abnova_opposite_product_fails():
    # needs a non-commutative base: the worked example is commutative, so
    # its opposite product is itself (the truncated polynomial algebra is not)
    alg = trunc_poly_algebra(QQ, 3)
    reg = regular_bimodule(alg)
    opposite = tuple(tuple(alg.mul[j][i] for j in range(3)) for i in range(3))
    cand = BimodNov(alg, 3, reg.l_mats, reg.r_mats, opposite)
    assert not abnova_residual(cand).is_zero


def test_abnova_preconditions(a2):
    # the merged report opens with the failures of the bimodule identities,
    # then those of the module product's Novikov identities
    z = Matrix.zeros(QQ, 2, 2)
    bad_actions = BimodNov(a2, 2, regular_bimodule(a2).l_mats, (z, z), a2.mul)
    base = bimodule_residual(bad_actions).failures
    assert base and abnova_residual(bad_actions).failures[: len(base)] == base
    bad_product = Algebra.from_table(QQ, {(0, 0): (0, 1), (0, 1): (1, 0)}, 2)
    cand = BimodNov(a2, 2, regular_bimodule(a2).l_mats, regular_bimodule(a2).r_mats, bad_product.mul)
    assert bimodule_residual(cand).is_zero
    mod_nov = novikov_residual(bad_product).failures
    assert mod_nov and abnova_residual(cand).failures[: len(mod_nov)] == mod_nov


def test_dual_bimodule_values(a2):
    db = dual_bimodule(regular_bimodule(a2))
    # l'(e1) = -(L(e1)+R(e1))^T = -2*identity
    assert db.l_mats[0] == Matrix.identity(QQ, 2).scale(-2)
    assert bimodule_residual(db).is_zero
    z = Matrix.zeros(QQ, 2, 2)
    zero_dual = dual_bimodule(Bimodule(a2, 2, (z, z), (z, z)))
    assert all(m.is_zero() for m in zero_dual.l_mats + zero_dual.r_mats)


def test_double_dual_restores(a2):
    b = regular_bimodule(a2)
    dd = dual_bimodule(dual_bimodule(b))
    for m1, m2 in zip(dd.l_mats + dd.r_mats, b.l_mats + b.r_mats):
        assert m1 == m2


def test_dual_requires_valid(a2):
    z = Matrix.zeros(QQ, 2, 2)
    bad = Bimodule(a2, 2, regular_bimodule(a2).l_mats, (z, z))
    with pytest.raises(NotABimodule):
        dual_bimodule(bad)


def test_semidirect_embeds_algebra(a2, a2_regular):
    sd = semidirect(a2_regular)
    assert sd.dim == 4
    # A-block of the product equals the original product
    for i in range(2):
        for j in range(2):
            assert sd.mul[i][j][:2] == a2.mul[i][j]
            assert sd.mul[i][j][2:] == (0, 0)
    assert novikov_residual(sd).is_zero


def test_semidirect_trivial_module_pads(a2):
    z = Matrix.zeros(QQ, 1, 1)
    b = BimodNov(a2, 1, (z, z), (z, z), (((0,),),))
    sd = semidirect(b)
    assert sd.dim == 3
    assert novikov_residual(sd).is_zero
    for i in range(2):
        for j in range(2):
            assert sd.mul[i][j][:2] == a2.mul[i][j]


def test_regular_requires_novikov():
    bad = Algebra.from_table(QQ, {(0, 0): (0, 1), (0, 1): (1, 0)}, 2)
    with pytest.raises(NotNovikov):
        regular(bad)


def test_trunc_poly_regular_valid():
    alg = trunc_poly_algebra(QQ, 3)
    assert novikov_residual(alg).is_zero
    assert abnova_residual(regular(alg)).is_zero


def test_dual_context_is_valid(a2):
    ctx = dual_context(a2)
    assert bimodule_residual(ctx).is_zero


def _flat_tables():
    """(field, n, coefficients) at dimensions 0-4: raw ints over F_p, ints,
    fractions and "p/q" strings over Q, and unknowns over a polynomial ring."""
    rng = random.Random(23)
    ring = PolyRing(3)
    for n in range(5):
        k = n**3
        for p in (2, 3, 5, 7):
            yield pytest.param(GF(p), n, [rng.randrange(-20, 20) for _ in range(k)], id=f"F{p}-dim{n}")
        yield pytest.param(QQ, n, [rng.randrange(-9, 10) for _ in range(k)], id=f"Q-ints-dim{n}")
        fractions = [Fraction(rng.randrange(-9, 10), rng.randrange(1, 4)) for _ in range(k)]
        yield pytest.param(QQ, n, fractions, id=f"Q-fractions-dim{n}")
        strings = [f"{rng.randrange(-9, 10)}/{rng.randrange(1, 4)}" for _ in range(k)]
        yield pytest.param(QQ, n, strings, id=f"Q-strings-dim{n}")
        yield pytest.param(ring, n, ring.variables(k), id=f"polyring-dim{n}")


@pytest.mark.parametrize("field, n, coeffs", _flat_tables())
def test_from_flat_equals_the_nested_grid(field, n, coeffs):
    nested = Algebra(field, n, [[coeffs[(i * n + j) * n : (i * n + j + 1) * n] for j in range(n)] for i in range(n)])
    alg = Algebra.from_flat(field, n, coeffs)
    assert alg.mul == nested.mul and alg == nested  # nested tuples on both sides: a list never equals a tuple
    if not isinstance(field, PolyRing):  # a Poly is unhashable
        assert hash(alg) == hash(nested)
    cells = tuple(chain.from_iterable(chain.from_iterable(nested.mul)))
    for table in (alg, nested):
        # over Q, Fraction(2, 2) == 1, so compare the scalar types too
        assert [(type(c), c) for c in table.flat()] == [(type(c), c) for c in cells]


@pytest.mark.parametrize("k", (0, 7, 9))
def test_a_flat_table_of_the_wrong_length_is_refused(k):
    with pytest.raises(DimMismatch):
        Algebra.from_flat(GF(5), 2, (1,) * k)
    with pytest.raises(DimMismatch):
        reverify(SearchSpec("novikov-algebra", GF(5), 2), (1,) * k)
