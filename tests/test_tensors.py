import random

import pytest
from hypothesis import given, settings, strategies as st
from conftest import tensor2_from_pairs

from novikov.errors import BadContraction, DimMismatch, FieldMismatch
from novikov.fields import GF, QQ
from novikov.tensors import CONTRACTION_KINDS, Tensor2, Tensor3, flip, tensor3_combine


def test_flip_simple_tensor():
    r = Tensor2.basis(QQ, 2, 0, 1)  # e1⊗e2
    assert flip(r) == Tensor2.basis(QQ, 2, 1, 0)


def test_dimension_zero_tensors_have_empty_grids():
    for field in (QQ, GF(3)):
        for zero in (Tensor2(field, ()), Tensor3(field, ())):
            assert zero.dim == 0 and zero.is_zero()
            for result in (zero + zero, zero - zero, zero.scale(2), -zero):
                assert result == zero and result.grid == ()
        assert flip(Tensor2(field, ())).grid == ()
        assert tensor2_from_pairs(field, 0, []).grid == ()


def test_flip_fixes_symmetric():
    r = tensor2_from_pairs(QQ, 2, [(0, 1, 1), (1, 0, 1), (0, 0, 2)])
    assert flip(r) == r


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(-5, 5), min_size=9, max_size=9))
def test_flip_involution(entries):
    r = Tensor2(QQ, tuple(tuple(entries[3 * i + j] for j in range(3)) for i in range(3)))
    assert flip(flip(r)) == r


def test_annihilating_contraction(a2):
    r = Tensor2.basis(QQ, 2, 1, 1)
    assert tensor3_combine(a2, r, r, "13o23").is_zero()


def test_single_term_contraction(a2):
    r = Tensor2.basis(QQ, 2, 0, 0)
    t = tensor3_combine(a2, r, r, "13o23")
    assert t[0, 0, 0] == 1 and sum(1 for i in range(2) for j in range(2) for k in range(2) if t[i, j, k] != 0) == 1


def test_star_contraction_doubles(a2):
    r = Tensor2.basis(QQ, 2, 0, 0)
    t = tensor3_combine(a2, r, r, "12s23")
    assert t[0, 0, 0] == 2


def test_bad_contraction(a2):
    r = Tensor2.zeros(QQ, 2)
    with pytest.raises(BadContraction):
        tensor3_combine(a2, r, r, "11o22")


def test_dim_mismatch(a2):
    with pytest.raises(DimMismatch):
        tensor3_combine(a2, Tensor2.zeros(QQ, 3), Tensor2.zeros(QQ, 3), "13o23")
    with pytest.raises(DimMismatch, match="Tensor2 grid must be square"):
        Tensor2(QQ, ((1, 2), (3,)))
    with pytest.raises(DimMismatch, match="Tensor3 grid must be cubical"):
        Tensor3(QQ, (((1, 0), (0, 0)), ((0, 0),)))
    r, r3 = Tensor2.zeros(QQ, 2), Tensor2.zeros(QQ, 3)
    with pytest.raises(FieldMismatch, match="QQ vs GF"):
        r + Tensor2.zeros(GF(3), 2)
    with pytest.raises(DimMismatch, match="2 vs 3"):
        r - r3
    with pytest.raises(DimMismatch):
        r + Tensor3.zeros(QQ, 2)  # same dimension, other order


def test_combine_bilinear(a2):
    rng = random.Random(3)

    def rand():
        return Tensor2(QQ, tuple(tuple(rng.randrange(-3, 4) for _ in range(2)) for _ in range(2)))

    for kind in CONTRACTION_KINDS:
        r1, r2, s = rand(), rand(), rand()
        left = tensor3_combine(a2, r1 + r2, s, kind)
        split = tensor3_combine(a2, r1, s, kind) + tensor3_combine(a2, r2, s, kind)
        assert left == split
        right = tensor3_combine(a2, s, r1 + r2, kind)
        split2 = tensor3_combine(a2, s, r1, kind) + tensor3_combine(a2, s, r2, kind)
        assert right == split2


def test_slot_operations():
    f = GF(5)
    t = Tensor2.basis(f, 2, 0, 1)
    from novikov.linalg import Matrix

    swap = Matrix.from_rows(f, [(0, 1), (1, 0)])
    assert t.apply_slot(0, swap) == Tensor2.basis(f, 2, 1, 1)
    assert t.apply_slot(1, swap) == Tensor2.basis(f, 2, 0, 0)
    with pytest.raises(DimMismatch, match="Tensor2 has slots 0 and 1"):
        t.apply_slot(2, swap)
    with pytest.raises(DimMismatch, match="Tensor3 has slots 0, 1 and 2"):
        Tensor3.zeros(f, 2).apply_slot(-1, swap)
    with pytest.raises(FieldMismatch, match="map over QQ, tensor over GF"):
        t.apply_slot(0, Matrix.identity(QQ, 2))
    with pytest.raises(DimMismatch, match="3x3 map on a dimension-2 slot"):
        t.apply_slot(0, Matrix.identity(f, 3))
