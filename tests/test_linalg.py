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


# ---------------------------------------------------------------------------
# rref and kernel_basis against row reduction that reduces after every
# scalar operation, the way the per-scalar field methods computed it


def _reference_rref(m: Matrix) -> tuple[list, list]:
    f = m.field

    def reduced(x):
        return f.reduce((x,))[0]

    rows = [list(m.row(i)) for i in range(m.rows)]
    pivots = []
    pr = 0
    for pc in range(m.cols):
        pivot_row = None
        for i in range(pr, m.rows):
            if reduced(rows[i][pc]):
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[pr], rows[pivot_row] = rows[pivot_row], rows[pr]
        inv = f.inv(rows[pr][pc])
        rows[pr] = [reduced(inv * c) for c in rows[pr]]
        for i in range(m.rows):
            if i != pr and reduced(rows[i][pc]):
                factor = rows[i][pc]
                rows[i] = [reduced(a - reduced(factor * b)) for a, b in zip(rows[i], rows[pr])]
        pivots.append(pc)
        pr += 1
        if pr == m.rows:
            break
    return [c for row in rows for c in row], pivots


def _reference_kernel(m: Matrix) -> list:
    f = m.field
    flat, pivots = _reference_rref(m)
    basis = []
    for free in range(m.cols):
        if free in pivots:
            continue
        coords = [f.zero()] * m.cols
        coords[free] = f.one()
        for r, pc in enumerate(pivots):
            coords[pc] = f.reduce((-flat[r * m.cols + free],))[0]
        basis.append(tuple(coords))
    return basis


def _typed(values) -> list:
    return [(type(c), c) for c in values]


@st.composite
def _matrices(draw):
    """Matrices over Q, F_2, F_3 and F_5 of 0..6 rows and columns (so zero
    rows, zero columns, wide and tall shapes), with whole rows and columns
    set to zero often."""
    field = draw(st.sampled_from((QQ, GF(2), GF(3), GF(5))))
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    if field == QQ:
        scalar = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    else:
        scalar = st.integers(0, field.p - 1)
    zero_rows = draw(st.sets(st.integers(0, max(rows - 1, 0)), max_size=rows))
    zero_cols = draw(st.sets(st.integers(0, max(cols - 1, 0)), max_size=cols))
    entries = tuple(
        0 if i in zero_rows or j in zero_cols else draw(scalar) for i in range(rows) for j in range(cols)
    )
    return Matrix(field, rows, cols, entries)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_matrices())
def test_rref_and_kernel_match_per_operation_reduction(m):
    red, pivots = rref(m)
    flat, ref_pivots = _reference_rref(m)
    assert (red.rows, red.cols) == (m.rows, m.cols)
    assert pivots == ref_pivots
    assert _typed(red.entries) == _typed(flat)
    kernel = kernel_basis(m)
    assert [_typed(v) for v in kernel] == [_typed(v) for v in _reference_kernel(m)]
    assert len(kernel) == m.cols - len(pivots)
