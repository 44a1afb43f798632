import random

import pytest
from hypothesis import given, settings, strategies as st

from novikov.errors import DimMismatch, SingularT
from novikov.fields import GF, QQ
from novikov.linalg import Matrix, inverse, kernel_basis, rank, rref, solve_right


def test_identity_has_trivial_kernel():
    assert kernel_basis(Matrix.identity(QQ, 2)) == []


def test_rank_one_kernel_over_f2():
    m = Matrix.from_rows(GF(2), [(1, 1), (1, 1)])
    basis = kernel_basis(m)
    assert len(basis) == 1
    assert basis[0] == (1, 1)


def test_random_rank2_3x3_kernel_annihilates():
    rng = random.Random(5)
    # build a rank-2 matrix as a product of 3x2 and 2x3
    a = Matrix(QQ, 3, 2, tuple(rng.randrange(-3, 4) for _ in range(6)))
    b = Matrix(QQ, 2, 3, tuple(rng.randrange(-3, 4) for _ in range(6)))
    m = a @ b
    assert rank(m) == 2
    basis = kernel_basis(m)
    assert len(basis) == 1
    image = m.apply(basis[0])
    assert all(c == 0 for c in image)


def test_rref_pivots_normalized():
    m = Matrix.from_rows(QQ, [(2, 4), (1, 3)])
    red, pivots = rref(m)
    assert pivots == [0, 1]
    assert red.row(0) == (1, 0) and red.row(1) == (0, 1)


def test_inverse_and_solve():
    m = Matrix.from_rows(QQ, [(1, 2), (3, 4)])
    minv = inverse(m)
    assert (m @ minv - Matrix.identity(QQ, 2)).is_zero()
    x = solve_right(m, (5, 6))
    assert m.apply(x) == (QQ.coerce(5), QQ.coerce(6))
    with pytest.raises(SingularT):
        inverse(Matrix.from_rows(QQ, [(1, 2), (2, 4)]))


def test_shape_checks():
    with pytest.raises(DimMismatch):
        Matrix(QQ, 2, 2, (1, 2, 3))
    with pytest.raises(DimMismatch):
        Matrix.identity(QQ, 2) @ Matrix.identity(QQ, 3)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-4, 4), min_size=12, max_size=12))
def test_kernel_vectors_annihilate(entries):
    m = Matrix(GF(5), 3, 4, tuple(entries))
    for v in kernel_basis(m):
        assert all(c == 0 for c in m.apply(v))
    assert rank(m) + len(kernel_basis(m)) == 4
