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

    def is_zero(self) -> bool:
        return not any(c for row in self.grid for c in row)

    def flat(self) -> list:
        """The coefficients in row-major order."""
        return [c for row in self.grid for c in row]

    @classmethod
    def _from_flat(cls, field: Field, n: int, flat: list) -> "Tensor2":
        """Reduce a row-major list that ``+``, ``-`` and ``*`` made from
        canonical scalars, and nest it as an n x n grid."""
        vals = field.reduce(flat)
        return cls._canonical(field, tuple(vals[i * n : i * n + n] for i in range(n)))

    def __add__(self, other: "Tensor2") -> "Tensor2":
        self._compat(other)
        return Tensor2._from_flat(self.field, self.dim, [a + b for a, b in zip(self.flat(), other.flat())])

    def __sub__(self, other: "Tensor2") -> "Tensor2":
        self._compat(other)
        return Tensor2._from_flat(self.field, self.dim, [a - b for a, b in zip(self.flat(), other.flat())])

    def __neg__(self) -> "Tensor2":
        return Tensor2._from_flat(self.field, self.dim, [-a for a in self.flat()])

    def scale(self, c) -> "Tensor2":
        c = self.field.coerce(c)
        return Tensor2._from_flat(self.field, self.dim, [c * a for a in self.flat()])

    def is_symmetric(self) -> bool:
        g, n = self.grid, self.dim
        return not any(self.field.reduce([g[i][j] - g[j][i] for i in range(n) for j in range(i + 1, n)]))

    def is_skew(self) -> bool:
        g, n = self.grid, self.dim
        return not any(self.field.reduce([g[i][j] + g[j][i] for i in range(n) for j in range(i, n)]))

    def apply_slot(self, slot: int, mat) -> "Tensor2":
        """Apply a linear map (square Matrix) to one tensor slot (0 or 1)."""
        if slot not in (0, 1):
            raise DimMismatch("Tensor2 has slots 0 and 1")
        _check_slot_map(self, mat)
        n = self.dim
        return Tensor2._from_flat(self.field, n, _apply_slot(self.field, self.flat(), n, n ** (1 - slot), mat))

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


def _apply_slot(field: Field, flat: list, n: int, stride: int, mat) -> list:
    """The map applied to the slot whose index has ``stride`` in the
    row-major ``flat``: each nonzero coefficient moves along the column of
    its index in that slot.  Unreduced."""
    cols = [mat.col(i) for i in range(n)]
    out = [field.zero()] * len(flat)
    for idx, c in enumerate(flat):
        if c:
            src = idx // stride % n
            at = idx - src * stride
            for x in cols[src]:
                if x:
                    out[at] += c * x
                at += stride
    return out


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
        return not any(c for plane in self.grid for row in plane for c in row)

    def flat(self) -> list:
        """The coefficients in row-major order."""
        return [c for plane in self.grid for row in plane for c in row]

    @classmethod
    def _from_flat(cls, field: Field, n: int, flat: list) -> "Tensor3":
        """Reduce a row-major list as ``Tensor2._from_flat`` does, and nest
        it as an n x n x n grid."""
        vals = field.reduce(flat)
        rows = [vals[i * n : i * n + n] for i in range(n * n)]
        return cls._canonical(field, tuple(tuple(rows[i * n : i * n + n]) for i in range(n)))

    def __add__(self, other: "Tensor3") -> "Tensor3":
        self._compat(other)
        return Tensor3._from_flat(self.field, self.dim, [a + b for a, b in zip(self.flat(), other.flat())])

    def __sub__(self, other: "Tensor3") -> "Tensor3":
        self._compat(other)
        return Tensor3._from_flat(self.field, self.dim, [a - b for a, b in zip(self.flat(), other.flat())])

    def __neg__(self) -> "Tensor3":
        return Tensor3._from_flat(self.field, self.dim, [-a for a in self.flat()])

    def scale(self, c) -> "Tensor3":
        c = self.field.coerce(c)
        return Tensor3._from_flat(self.field, self.dim, [c * a for a in self.flat()])

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
        if slot not in (0, 1, 2):
            raise DimMismatch("Tensor3 has slots 0, 1 and 2")
        _check_slot_map(self, mat)
        n = self.dim
        return Tensor3._from_flat(self.field, n, _apply_slot(self.field, self.flat(), n, n ** (2 - slot), mat))

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


def _plan(spec) -> tuple:
    """(leg of r in the product, leg of s in the product, star?, product
    slot, slot of r's other leg, slot of s's other leg).  Every kind takes
    the product of one leg of r with one leg of s."""
    (p1, p2), star, prod_slot, outs = spec
    r_leg, s_leg = "ab".index(p1), "cd".index(p2)
    slot_of = dict(zip(outs, (q for q in range(3) if q != prod_slot)))
    return r_leg, s_leg, star, prod_slot, slot_of["ba"[r_leg]], slot_of["dc"[s_leg]]


_PLANS = {kind: _plan(spec) for kind, spec in _CONTRACTIONS.items()}


def tensor3_sum(alg, terms) -> Tensor3:
    """Σ c·contract(r, s, kind) over the (c, r, s, kind) terms, added into one
    unreduced buffer and reduced once; an empty sum is the zero tensor.

    ``alg.sparse_products`` supplies the bilinear products as the nonzero
    coordinates of each e_i∘e_j and e_i⋆e_j.  Each pair of nonzero terms
    of r and s whose basis product is nonzero adds its coefficient times
    that product.
    """
    f, n = alg.field, alg.dim
    circ, star = alg.sparse_products
    out = [f.zero()] * (n * n * n)
    for c, r, s, kind in terms:
        if kind not in _PLANS:
            raise BadContraction(f"unknown contraction kind {kind!r}")
        if r.field != s.field or r.field != f:
            raise FieldMismatch("contraction operands over different fields")
        if r.dim != n or s.dim != n:
            raise DimMismatch("tensor dimension does not match the algebra")
        c = f.coerce(c)
        if not c:
            continue
        r_leg, s_leg, is_star, prod_slot, r_slot, s_slot = _PLANS[kind]
        table = star if is_star else circ
        # row-major strides of A⊗A⊗A
        st, r_st, s_st = n ** (2 - prod_slot), n ** (2 - r_slot), n ** (2 - s_slot)
        # nonzero terms of r as (their row of the table, offset, coefficient),
        # of s as (their column of that row, offset, coefficient)
        rs = [
            (table[(a, b)[r_leg]], (b, a)[r_leg] * r_st, x if c == 1 else c * x)
            for a, row in enumerate(r.grid)
            for b, x in enumerate(row)
            if x
        ]
        ss = [((i, j)[s_leg], (j, i)[s_leg] * s_st, y) for i, row in enumerate(s.grid) for j, y in enumerate(row) if y]
        for prods, r_off, cr in rs:
            for j, s_off, cs in ss:
                prod = prods[j]
                if prod:
                    coeff = cr * cs
                    base = r_off + s_off
                    for t, x in prod:
                        out[base + t * st] += coeff * x
    return Tensor3._from_flat(f, n, out)


def tensor3_combine(alg, r: Tensor2, s: Tensor2, kind: str) -> Tensor3:
    """Contract two 2-tensors into A⊗A⊗A using one of the seven named
    patterns: the one-term ``tensor3_sum``."""
    return tensor3_sum(alg, ((1, r, s, kind),))


def tensor2_from_pairs(field: Field, n: int, pairs: Sequence[tuple[int, int, object]]) -> Tensor2:
    """Build Σ c·e_i⊗e_j from (i, j, c) triples."""
    grid = [[field.zero()] * n for _ in range(n)]
    for i, j, c in pairs:
        grid[i][j] += field.coerce(c)
    return Tensor2._from_flat(field, n, [c for row in grid for c in row])
