"""Dense exact vectors, matrices, reduced echelon form and kernels."""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import Iterable, Optional, Sequence

from .errors import DimMismatch, FieldMismatch, SingularT
from .fields import Field


def _zeros(field: Field, n: int) -> tuple:
    z = field.zero()
    return (z,) * n


def vadd(field: Field, u: Sequence, v: Sequence) -> tuple:
    return field.reduce([a + b for a, b in zip(u, v)])


def vsub(field: Field, u: Sequence, v: Sequence) -> tuple:
    return field.reduce([a - b for a, b in zip(u, v)])


def unit_vector(field: Field, n: int, i: int) -> tuple:
    """The i-th standard basis vector of field^n."""
    one, zero = field.one(), field.zero()
    return tuple(one if k == i else zero for k in range(n))


@dataclass(frozen=True)
class Matrix:
    """Dense exact matrix; column j is the image of the j-th domain basis
    vector."""

    field: Field
    rows: int
    cols: int
    entries: tuple  # row-major, length rows*cols

    def __post_init__(self):
        if len(self.entries) != self.rows * self.cols:
            raise DimMismatch("entry count does not match shape")
        object.__setattr__(self, "entries", tuple(self.field.coerce(c) for c in self.entries))

    @classmethod
    def _canonical(cls, field: Field, rows: int, cols: int, entries: tuple) -> "Matrix":
        """Wrap a row-major tuple that is already canonical for ``field`` and
        ``rows * cols`` long: the result of field operations on the entries
        of canonical matrices.  Skips the shape check and ``coerce``; only the
        arithmetic in this module may call it."""
        m = object.__new__(cls)
        m.__dict__.update(field=field, rows=rows, cols=cols, entries=entries)
        return m

    @classmethod
    def from_rows(cls, field: Field, rows: Iterable[Sequence]) -> "Matrix":
        rows = [tuple(r) for r in rows]
        nr = len(rows)
        nc = len(rows[0]) if rows else 0
        if any(len(r) != nc for r in rows):
            raise DimMismatch("ragged rows")
        flat = tuple(c for r in rows for c in r)
        return cls(field, nr, nc, flat)

    @classmethod
    def from_cols(cls, field: Field, cols: Iterable[Sequence]) -> "Matrix":
        cols = [tuple(c) for c in cols]
        if not cols:
            return cls(field, 0, 0, ())
        nr = len(cols[0])
        rows = [[col[i] for col in cols] for i in range(nr)]
        return cls.from_rows(field, rows)

    @classmethod
    def zeros(cls, field: Field, rows: int, cols: int) -> "Matrix":
        return cls(field, rows, cols, _zeros(field, rows * cols))

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        one, zero = field.one(), field.zero()
        flat = tuple(one if i == j else zero for i in range(n) for j in range(n))
        return cls(field, n, n, flat)

    def __getitem__(self, ij) -> object:
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def col(self, j: int) -> tuple:
        if not 0 <= j < self.cols:
            raise IndexError(f"column {j} of a {self.rows}x{self.cols} matrix")
        return self.entries[j :: self.cols]

    def row_list(self) -> list[tuple]:
        return [self.row(i) for i in range(self.rows)]

    def is_zero(self) -> bool:
        return not any(self.entries)

    def _like(self, flat: list) -> "Matrix":
        """This shape, with ``flat`` reduced as the entries."""
        return Matrix._canonical(self.field, self.rows, self.cols, self.field.reduce(flat))

    def __add__(self, other: "Matrix") -> "Matrix":
        self._compat(other)
        return self._like([a + b for a, b in zip(self.entries, other.entries)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._compat(other)
        return self._like([a - b for a, b in zip(self.entries, other.entries)])

    def __neg__(self) -> "Matrix":
        return self._like([-a for a in self.entries])

    def scale(self, c) -> "Matrix":
        c = self.field.coerce(c)
        return self._like([c * a for a in self.entries])

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.field != other.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")
        if self.cols != other.rows:
            raise DimMismatch(f"{self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        f = self.field
        z = f.zero()
        rows = self.row_list()
        cols = [other.col(j) for j in range(other.cols)]
        flat = [sum(map(mul, ri, cj), z) for ri in rows for cj in cols]
        return Matrix._canonical(f, self.rows, other.cols, f.reduce(flat))

    def apply(self, coords: Sequence) -> tuple:
        """Matrix times coordinate tuple, skipping zero coordinates."""
        if len(coords) != self.cols:
            raise DimMismatch(f"matrix has {self.cols} columns, vector has {len(coords)}")
        f = self.field
        out = [f.zero()] * self.rows
        for k, c in enumerate(coords):
            if c:
                out = [o + x * c if x else o for o, x in zip(out, self.col(k))]
        return f.reduce(out)

    def transpose(self) -> "Matrix":
        flat = tuple(self.entries[i * self.cols + j] for j in range(self.cols) for i in range(self.rows))
        return Matrix._canonical(self.field, self.cols, self.rows, flat)

    def _compat(self, other: "Matrix"):
        if self.field != other.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimMismatch("shape mismatch")


def combine_mats(field: Field, mats: Sequence, coeffs: Sequence, mdim: int) -> Matrix:
    """Σ coeffs[i]·mats[i] over mdim x mdim matrices, in one flat pass."""
    acc = [field.zero()] * (mdim * mdim)
    for i, c in enumerate(coeffs):
        if c:
            c = field.coerce(c)
            acc = [x + c * y if y else x for x, y in zip(acc, mats[i].entries)]
    return Matrix._canonical(field, mdim, mdim, field.reduce(acc))


def rref(m: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form with leftmost pivots normalized to 1.  Each
    row operation is one pass of ``*`` and ``-`` reduced once; ``inv`` is
    the only division."""
    f = m.field
    rows = [m.row(i) for i in range(m.rows)]
    pivots: list[int] = []
    pr = 0
    for pc in range(m.cols):
        pivot_row = next((i for i in range(pr, m.rows) if rows[i][pc]), None)
        if pivot_row is None:
            continue
        rows[pr], rows[pivot_row] = rows[pivot_row], rows[pr]
        inv = f.inv(rows[pr][pc])
        prow = rows[pr] = f.reduce([inv * c for c in rows[pr]])
        for i, row in enumerate(rows):
            factor = row[pc]
            if i != pr and factor:
                rows[i] = f.reduce([a - factor * b for a, b in zip(row, prow)])
        pivots.append(pc)
        pr += 1
        if pr == m.rows:
            break
    return Matrix._canonical(f, m.rows, m.cols, tuple(c for row in rows for c in row)), pivots


def kernel_basis(m: Matrix) -> list[tuple]:
    """Deterministic basis of the null space via reduced echelon form, as
    coordinate tuples."""
    f = m.field
    red, pivots = rref(m)
    pivot_set = set(pivots)
    basis = []
    for free in range(m.cols):
        if free in pivot_set:
            continue
        coords = list(unit_vector(f, m.cols, free))
        for pc, c in zip(pivots, f.reduce([-red[r, free] for r in range(len(pivots))])):
            coords[pc] = c
        basis.append(tuple(coords))
    return basis


def rank(m: Matrix) -> int:
    return len(rref(m)[1])


def inverse(m: Matrix) -> Matrix:
    """Exact inverse; raises SingularT if the matrix is not invertible."""
    if m.rows != m.cols:
        raise DimMismatch("only square matrices invert")
    f = m.field
    n = m.rows
    aug = Matrix.from_rows(
        f, [list(m.row(i)) + list(Matrix.identity(f, n).row(i)) for i in range(n)]
    )
    red, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise SingularT("matrix is singular")
    rows = [red.row(i)[n:] for i in range(n)]
    return Matrix.from_rows(f, rows)


def solve_right(m: Matrix, target: Sequence) -> Optional[tuple]:
    """One solution x of m @ x = target, or None if inconsistent."""
    f = m.field
    aug = Matrix.from_rows(f, [list(m.row(i)) + [target[i]] for i in range(m.rows)])
    red, pivots = rref(aug)
    if m.cols in pivots:
        return None
    x = [f.zero()] * m.cols
    for r, pc in enumerate(pivots):
        x[pc] = red[r, m.cols]
    return tuple(x)
