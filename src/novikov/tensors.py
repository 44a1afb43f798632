"""Elements of A⊗A and A⊗A⊗A as dense coefficient grids, plus the
seven slot contractions used by the tensor Yang-Baxter machinery."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import BadContraction, DimMismatch, FieldMismatch
from .fields import Field


@dataclass(frozen=True)
class Tensor2:
    """Sum a_{ij} e_i⊗e_j stored as grid[i][j]."""

    field: Field
    grid: tuple  # tuple of rows, each a tuple of scalars

    def __post_init__(self):
        n = len(self.grid)
        rows = []
        for row in self.grid:
            if len(row) != n:
                raise DimMismatch("Tensor2 grid must be square")
            rows.append(tuple(self.field.coerce(c) for c in row))
        object.__setattr__(self, "grid", tuple(rows))

    @classmethod
    def _canonical(cls, field: Field, grid: tuple) -> "Tensor2":
        """Wrap a square grid of tuples already canonical for ``field``: the
        result of field operations on canonical tensors and matrices.  Skips
        the shape check and ``coerce``; only the arithmetic in this module
        may call it."""
        t = object.__new__(cls)
        t.__dict__.update(field=field, grid=grid)
        return t

    @classmethod
    def zeros(cls, field: Field, n: int) -> "Tensor2":
        z = field.zero()
        return cls(field, tuple((z,) * n for _ in range(n)))

    @classmethod
    def basis(cls, field: Field, n: int, i: int, j: int, coeff=1) -> "Tensor2":
        """coeff * e_i⊗e_j."""
        grid = [[field.zero()] * n for _ in range(n)]
        grid[i][j] = field.coerce(coeff)
        return cls(field, tuple(tuple(r) for r in grid))

    @property
    def dim(self) -> int:
        return len(self.grid)

    def __getitem__(self, ij):
        i, j = ij
        return self.grid[i][j]

    def row_of(self, i: int) -> tuple:
        return self.grid[i]

    def col_of(self, j: int) -> tuple:
        return tuple(self.grid[i][j] for i in range(self.dim))

    def is_zero(self) -> bool:
        f = self.field
        return all(f.is_zero(c) for row in self.grid for c in row)

    def __add__(self, other: "Tensor2") -> "Tensor2":
        self._compat(other)
        f = self.field
        grid = tuple(tuple(f.add(a, b) for a, b in zip(r1, r2)) for r1, r2 in zip(self.grid, other.grid))
        return Tensor2._canonical(f, grid)

    def __sub__(self, other: "Tensor2") -> "Tensor2":
        self._compat(other)
        f = self.field
        grid = tuple(tuple(f.sub(a, b) for a, b in zip(r1, r2)) for r1, r2 in zip(self.grid, other.grid))
        return Tensor2._canonical(f, grid)

    def __neg__(self) -> "Tensor2":
        f = self.field
        return Tensor2._canonical(f, tuple(tuple(f.neg(a) for a in row) for row in self.grid))

    def scale(self, c) -> "Tensor2":
        f = self.field
        c = f.coerce(c)
        return Tensor2._canonical(f, tuple(tuple(f.mul(c, a) for a in row) for row in self.grid))

    def is_symmetric(self) -> bool:
        n = self.dim
        f = self.field
        return all(f.is_zero(f.sub(self.grid[i][j], self.grid[j][i])) for i in range(n) for j in range(i + 1, n))

    def is_skew(self) -> bool:
        n = self.dim
        f = self.field
        if any(not f.is_zero(f.add(self.grid[i][i], self.grid[i][i])) for i in range(n)):
            return False
        return all(
            f.is_zero(f.add(self.grid[i][j], self.grid[j][i])) for i in range(n) for j in range(i + 1, n)
        )

    def apply_slot(self, slot: int, mat) -> "Tensor2":
        """Apply a linear map (square Matrix) to one tensor slot (0 or 1)."""
        _check_slot_map(self, mat)
        n = self.dim
        f = self.field
        out = [[f.zero()] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                c = self.grid[i][j]
                if f.is_zero(c):
                    continue
                if slot == 0:
                    img = mat.col(i)
                    for k in range(n):
                        out[k][j] = f.add(out[k][j], f.mul(c, img[k]))
                elif slot == 1:
                    img = mat.col(j)
                    for k in range(n):
                        out[i][k] = f.add(out[i][k], f.mul(c, img[k]))
                else:
                    raise DimMismatch("Tensor2 has slots 0 and 1")
        return Tensor2._canonical(f, tuple(tuple(r) for r in out))

    def _compat(self, other: "Tensor2"):
        if self.field != other.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")
        if self.dim != other.dim:
            raise DimMismatch(f"{self.dim} vs {other.dim}")


def _check_slot_map(t, mat) -> None:
    """A slot map must be square over the tensor's field and dimension, so
    that ``apply_slot``'s output is canonical."""
    if mat.field != t.field:
        raise FieldMismatch(f"map over {mat.field}, tensor over {t.field}")
    if (mat.rows, mat.cols) != (t.dim, t.dim):
        raise DimMismatch(f"{mat.rows}x{mat.cols} map on a dimension-{t.dim} slot")


def flip(r: Tensor2) -> Tensor2:
    """The flip a⊗b -> b⊗a: transpose of the coefficient grid."""
    n = r.dim
    return Tensor2._canonical(r.field, tuple(tuple(r.grid[j][i] for j in range(n)) for i in range(n)))


@dataclass(frozen=True)
class Tensor3:
    """Sum a_{ijk} e_i⊗e_j⊗e_k stored as grid[i][j][k]."""

    field: Field
    grid: tuple

    def __post_init__(self):
        n = len(self.grid)
        planes = []
        for plane in self.grid:
            if len(plane) != n:
                raise DimMismatch("Tensor3 grid must be cubical")
            rows = []
            for row in plane:
                if len(row) != n:
                    raise DimMismatch("Tensor3 grid must be cubical")
                rows.append(tuple(self.field.coerce(c) for c in row))
            planes.append(tuple(rows))
        object.__setattr__(self, "grid", tuple(planes))

    @classmethod
    def _canonical(cls, field: Field, grid: tuple) -> "Tensor3":
        """Wrap a cubical grid of tuples already canonical for ``field``, as
        ``Tensor2._canonical`` does."""
        t = object.__new__(cls)
        t.__dict__.update(field=field, grid=grid)
        return t

    @classmethod
    def zeros(cls, field: Field, n: int) -> "Tensor3":
        z = field.zero()
        return cls(field, tuple(tuple((z,) * n for _ in range(n)) for _ in range(n)))

    @property
    def dim(self) -> int:
        return len(self.grid)

    def __getitem__(self, ijk):
        i, j, k = ijk
        return self.grid[i][j][k]

    def is_zero(self) -> bool:
        f = self.field
        return all(f.is_zero(c) for plane in self.grid for row in plane for c in row)

    def __add__(self, other: "Tensor3") -> "Tensor3":
        self._compat(other)
        f = self.field
        return Tensor3._canonical(
            f,
            tuple(
                tuple(tuple(f.add(a, b) for a, b in zip(r1, r2)) for r1, r2 in zip(p1, p2))
                for p1, p2 in zip(self.grid, other.grid)
            ),
        )

    def __sub__(self, other: "Tensor3") -> "Tensor3":
        self._compat(other)
        f = self.field
        return Tensor3._canonical(
            f,
            tuple(
                tuple(tuple(f.sub(a, b) for a, b in zip(r1, r2)) for r1, r2 in zip(p1, p2))
                for p1, p2 in zip(self.grid, other.grid)
            ),
        )

    def __neg__(self) -> "Tensor3":
        f = self.field
        return Tensor3._canonical(f, tuple(tuple(tuple(f.neg(a) for a in row) for row in plane) for plane in self.grid))

    def scale(self, c) -> "Tensor3":
        f = self.field
        c = f.coerce(c)
        grid = tuple(tuple(tuple(f.mul(c, a) for a in row) for row in plane) for plane in self.grid)
        return Tensor3._canonical(f, grid)

    def swap_slots(self, a: int, b: int) -> "Tensor3":
        """Exchange two of the three tensor slots."""
        n = self.dim
        f = self.field
        out = [[[f.zero()] * n for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    idx = [i, j, k]
                    idx[a], idx[b] = idx[b], idx[a]
                    out[idx[0]][idx[1]][idx[2]] = self.grid[i][j][k]
        return Tensor3._canonical(f, tuple(tuple(tuple(r) for r in p) for p in out))

    def apply_slot(self, slot: int, mat) -> "Tensor3":
        """Apply a linear map (square Matrix on A) to one slot (0, 1 or 2)."""
        _check_slot_map(self, mat)
        n = self.dim
        f = self.field
        out = [[[f.zero()] * n for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    c = self.grid[i][j][k]
                    if f.is_zero(c):
                        continue
                    src = (i, j, k)[slot]
                    img = mat.col(src)
                    for t in range(n):
                        ct = f.mul(c, img[t])
                        if slot == 0:
                            out[t][j][k] = f.add(out[t][j][k], ct)
                        elif slot == 1:
                            out[i][t][k] = f.add(out[i][t][k], ct)
                        else:
                            out[i][j][t] = f.add(out[i][j][t], ct)
        return Tensor3._canonical(f, tuple(tuple(tuple(r) for r in p) for p in out))

    def _compat(self, other: "Tensor3"):
        if self.field != other.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")
        if self.dim != other.dim:
            raise DimMismatch(f"{self.dim} vs {other.dim}")


# Contraction kinds: r is summed as x⊗y (indices a,b), s as x'⊗y' (indices c,d).
# Each entry maps the kind to (product-args, star?, slot of the product,
# source index landing in the other two slots in order).
_CONTRACTIONS = {
    "12o13": (("a", "c"), False, 0, ("b", "d")),
    "12o23": (("b", "c"), False, 1, ("a", "d")),
    "13o23": (("b", "d"), False, 2, ("a", "c")),
    "13o12": (("a", "c"), False, 0, ("d", "b")),
    "23o13": (("b", "d"), False, 2, ("c", "a")),
    "12s23": (("b", "c"), True, 1, ("a", "d")),
    "13s23": (("b", "d"), True, 2, ("a", "c")),
}

CONTRACTION_KINDS = tuple(sorted(_CONTRACTIONS))


def tensor3_combine(alg, r: Tensor2, s: Tensor2, kind: str) -> Tensor3:
    """Contract two 2-tensors into A⊗A⊗A using one of the seven named patterns.

    ``alg`` supplies the bilinear products: ``alg.basis_product(i, j)`` for ∘
    and ``alg.basis_star(i, j)`` for ⋆, both returning coordinate tuples.
    """
    if kind not in _CONTRACTIONS:
        raise BadContraction(f"unknown contraction kind {kind!r}")
    if r.field != s.field or r.field != alg.field:
        raise FieldMismatch("contraction operands over different fields")
    n = alg.dim
    if r.dim != n or s.dim != n:
        raise DimMismatch("tensor dimension does not match the algebra")
    (p1, p2), star, prod_slot, (o1, o2) = _CONTRACTIONS[kind]
    f = alg.field
    out = [[[f.zero()] * n for _ in range(n)] for _ in range(n)]
    for a in range(n):
        for b in range(n):
            cr = r.grid[a][b]
            if f.is_zero(cr):
                continue
            for c in range(n):
                for d in range(n):
                    cs = s.grid[c][d]
                    if f.is_zero(cs):
                        continue
                    coeff = f.mul(cr, cs)
                    src = {"a": a, "b": b, "c": c, "d": d}
                    prod = (
                        alg.basis_star(src[p1], src[p2])
                        if star
                        else alg.basis_product(src[p1], src[p2])
                    )
                    i1, i2 = src[o1], src[o2]
                    for t in range(n):
                        pt = prod[t]
                        if f.is_zero(pt):
                            continue
                        val = f.mul(coeff, pt)
                        if prod_slot == 0:
                            out[t][i1][i2] = f.add(out[t][i1][i2], val)
                        elif prod_slot == 1:
                            out[i1][t][i2] = f.add(out[i1][t][i2], val)
                        else:
                            out[i1][i2][t] = f.add(out[i1][i2][t], val)
    return Tensor3._canonical(f, tuple(tuple(tuple(row) for row in plane) for plane in out))


def tensor2_from_pairs(field: Field, n: int, pairs: Sequence[tuple[int, int, object]]) -> Tensor2:
    """Build Σ c·e_i⊗e_j from (i, j, c) triples."""
    grid = [[field.zero()] * n for _ in range(n)]
    for i, j, c in pairs:
        grid[i][j] = field.add(grid[i][j], field.coerce(c))
    return Tensor2(field, tuple(tuple(r) for r in grid))
