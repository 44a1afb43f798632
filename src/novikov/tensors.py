"""Elements of A⊗A and A⊗A⊗A as dense coefficient grids, plus the
seven slot contractions used by the tensor Yang-Baxter machinery."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import ClassVar

from .errors import BadContraction, DimMismatch, FieldMismatch
from .fields import Field


@dataclass(frozen=True)
class Dense:
    """A dense coefficient grid over a field: ``order`` nested levels of n
    entries each, the coefficient of e_i⊗e_j(⊗e_k) at grid[i][j](...).
    Storage, validation and arithmetic of every tensor type live here;
    arithmetic returns the receiver's own type."""

    order: ClassVar[int]
    field: Field
    grid: tuple  # nested tuples of scalars

    def __post_init__(self):
        n = len(self.grid)

        def coerced(grid, depth: int) -> tuple:
            out = []
            for sub in grid:
                if len(sub) != n:
                    shape = "square" if self.order == 2 else "cubical"
                    raise DimMismatch(f"{type(self).__name__} grid must be {shape}")
                out.append(tuple(self.field.coerce(c) for c in sub) if depth == 1 else coerced(sub, depth - 1))
            return tuple(out)

        object.__setattr__(self, "grid", coerced(self.grid, self.order - 1))

    @classmethod
    def _canonical(cls, field: Field, grid: tuple):
        """Wrap a grid of tuples already canonical for ``field``: the result
        of field operations on canonical tensors and matrices.  Skips the
        shape check and ``coerce``; only the arithmetic in this module may
        call it."""
        t = object.__new__(cls)
        t.__dict__.update(field=field, grid=grid)
        return t

    @classmethod
    def _from_flat(cls, field: Field, n: int, flat: list):
        """Reduce a row-major list that ``+``, ``-`` and ``*`` made from
        canonical scalars, and nest it ``order`` deep in blocks of n."""
        grid = field.reduce(flat)
        for k in range(cls.order - 1, 0, -1):
            grid = tuple([grid[i * n : i * n + n] for i in range(n**k)])
        return cls._canonical(field, grid)

    @classmethod
    def zeros(cls, field: Field, n: int):
        return cls._from_flat(field, n, [field.zero()] * n**cls.order)

    @property
    def dim(self) -> int:
        return len(self.grid)

    def __getitem__(self, idx):
        c = self.grid
        for i in idx:
            c = c[i]
        return c

    def _entries(self):
        """An iterator over the coefficients in row-major order."""
        it = self.grid
        for _ in range(self.order - 1):
            it = chain.from_iterable(it)
        return it

    def flat(self) -> list:
        """The coefficients in row-major order."""
        return list(self._entries())

    def is_zero(self) -> bool:
        return not any(self._entries())

    def __add__(self, other):
        self._compat(other)
        return type(self)._from_flat(self.field, self.dim, [a + b for a, b in zip(self._entries(), other._entries())])

    def __sub__(self, other):
        self._compat(other)
        return type(self)._from_flat(self.field, self.dim, [a - b for a, b in zip(self._entries(), other._entries())])

    def __neg__(self):
        return type(self)._from_flat(self.field, self.dim, [-a for a in self._entries()])

    def scale(self, c):
        c = self.field.coerce(c)
        return type(self)._from_flat(self.field, self.dim, [c * a for a in self._entries()])

    def apply_slot(self, slot: int, mat):
        """Apply a linear map (square Matrix on A) to one slot: each nonzero
        coefficient moves along the column of its index in that slot."""
        order, f, n = self.order, self.field, self.dim
        if slot not in range(order):
            slots = ", ".join(map(str, range(order - 1)))
            raise DimMismatch(f"{type(self).__name__} has slots {slots} and {order - 1}")
        # a square map over the tensor's field keeps the output canonical
        if mat.field != f:
            raise FieldMismatch(f"map over {mat.field}, tensor over {f}")
        if (mat.rows, mat.cols) != (n, n):
            raise DimMismatch(f"{mat.rows}x{mat.cols} map on a dimension-{n} slot")
        stride = n ** (order - 1 - slot)
        cols = [mat.col(i) for i in range(n)]
        flat = self.flat()
        out = [f.zero()] * len(flat)
        for idx, c in enumerate(flat):
            if c:
                src = idx // stride % n
                at = idx - src * stride
                for x in cols[src]:
                    if x:
                        out[at] += c * x
                    at += stride
        return type(self)._from_flat(f, n, out)

    def check_on(self, alg) -> None:
        """Raise unless the tensor lives on ``alg``: over its field and of
        its dimension."""
        if self.field != alg.field:
            raise FieldMismatch("tensor and algebra over different fields")
        if self.dim != alg.dim:
            raise DimMismatch("tensor dimension does not match the algebra")

    def _compat(self, other) -> None:
        if self.field != other.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")
        if self.dim != other.dim or self.order != other.order:
            raise DimMismatch(f"{self.dim} vs {other.dim}")


@dataclass(frozen=True)
class Tensor2(Dense):
    """Sum a_{ij} e_i⊗e_j stored as grid[i][j]."""

    order = 2

    @classmethod
    def basis(cls, field: Field, n: int, i: int, j: int) -> "Tensor2":
        """e_i⊗e_j."""
        grid = [[field.zero()] * n for _ in range(n)]
        grid[i][j] = field.one()
        return cls(field, tuple(tuple(r) for r in grid))

    def is_symmetric(self) -> bool:
        g, n = self.grid, self.dim
        return not any(self.field.reduce([g[i][j] - g[j][i] for i in range(n) for j in range(i + 1, n)]))

    def is_skew(self) -> bool:
        g, n = self.grid, self.dim
        return not any(self.field.reduce([g[i][j] + g[j][i] for i in range(n) for j in range(i, n)]))


def flip(r: Tensor2) -> Tensor2:
    """The flip a⊗b -> b⊗a: transpose of the coefficient grid."""
    n = r.dim
    return Tensor2._canonical(r.field, tuple(tuple(r.grid[j][i] for j in range(n)) for i in range(n)))


@dataclass(frozen=True)
class Tensor3(Dense):
    """Sum a_{ijk} e_i⊗e_j⊗e_k stored as grid[i][j][k]."""

    order = 3

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
        r.check_on(alg)
        s.check_on(alg)
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

