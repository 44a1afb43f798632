"""Novikov algebras by structure constants, their bimodules, bimodule
Novikov algebras, and the canonical constructions (star, regular actions,
dual bimodule, semidirect product)."""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import chain
from typing import Optional, Sequence

from .errors import DimMismatch, FieldMismatch, NotABimodule, NotNovikov
from .fields import Field
from .linalg import Matrix, combine_mats, unit_vector, vadd, vsub
from .residual import Residual, ResidualCollector

Grid = tuple  # grid[i][j] = coordinate tuple of e_i * e_j


def coerce_grid(field: Field, grid, dim: int) -> Grid:
    """Canonicalize a dim x dim bilinear product grid and validate its shape."""
    if len(grid) != dim:
        raise DimMismatch("grid has wrong number of rows")
    rows = []
    for row in grid:
        if len(row) != dim:
            raise DimMismatch("grid has wrong number of columns")
        cells = []
        for cell in row:
            if len(cell) != dim:
                raise DimMismatch("grid cell has wrong length")
            cells.append(tuple(map(field.coerce, cell)))
        rows.append(tuple(cells))
    return tuple(rows)


def zero_grid(field: Field, dim: int) -> Grid:
    z = (field.zero(),) * dim
    return tuple((z,) * dim for _ in range(dim))


def grid_product(field: Field, grid: Grid, u: Sequence, v: Sequence) -> tuple:
    """Bilinear extension of a product grid to coordinate tuples."""
    dim_out = len(grid[0][0]) if grid and grid[0] else 0
    out = [field.zero()] * dim_out
    for i, cu in enumerate(u):
        if not cu:
            continue
        row = grid[i]
        for j, cv in enumerate(v):
            if cv:
                c = cu * cv
                out = [o + c * x if x else o for o, x in zip(out, row[j])]
    return field.reduce(out)


@dataclass(frozen=True)
class Algebra:
    """Bilinear product on k^dim given by mul[i][j] = coordinates of e_i∘e_j.

    Construction never validates the Novikov identities; candidates whose
    failure is the interesting output are first-class values.  Use
    ``novikov_residual`` to check.
    """

    field: Field
    dim: int
    mul: Grid
    labels: Optional[tuple] = None

    def __post_init__(self):
        object.__setattr__(self, "mul", coerce_grid(self.field, self.mul, self.dim))

    @classmethod
    def zero(cls, field: Field, dim: int) -> "Algebra":
        return cls(field, dim, zero_grid(field, dim))

    @classmethod
    def from_flat(cls, field: Field, dim: int, coeffs: Sequence) -> "Algebra":
        """Build from the flat table, coordinate t of e_i∘e_j at (i·dim + j)·dim
        + t: the length is checked once, each coefficient coerced once, and
        the cells are slices of the coerced table, which ``flat()`` returns."""
        if len(coeffs) != dim**3:
            raise DimMismatch(f"a dimension-{dim} table has {dim**3} coefficients, got {len(coeffs)}")
        flat = tuple(map(field.coerce, coeffs))
        nn = dim * dim
        # row i starts at i·dim²; ``nn or 1`` because a dimension-0 table has no rows
        mul = tuple([tuple([flat[c : c + dim] for c in range(r, r + nn, dim)]) for r in range(0, nn * dim, nn or 1)])
        alg = object.__new__(cls)
        alg.__dict__.update(field=field, dim=dim, mul=mul, labels=None, _flat=flat)
        return alg

    @classmethod
    def from_table(cls, field: Field, table: dict, dim: int) -> "Algebra":
        """Build from a sparse {(i, j): coords} table, zero elsewhere."""
        grid = [[list((field.zero(),) * dim) for _ in range(dim)] for _ in range(dim)]
        for (i, j), coords in table.items():
            grid[i][j] = [field.coerce(c) for c in coords]
        return cls(field, dim, tuple(tuple(tuple(c) for c in row) for row in grid))

    def flat(self) -> tuple:
        """The coefficients in row-major order: coordinate t of e_i∘e_j at
        (i·dim + j)·dim + t."""
        return self._flat

    def basis_star(self, i: int, j: int) -> tuple:
        f = self.field
        return vadd(f, self.mul[i][j], self.mul[j][i])

    def product(self, u: Sequence, v: Sequence) -> tuple:
        return grid_product(self.field, self.mul, u, v)

    def basis_vec(self, i: int) -> tuple:
        return unit_vector(self.field, self.dim, i)

    def left_mul(self, a: Sequence) -> Matrix:
        """L(a): b -> a∘b."""
        return self._regular_bimodule.l_of(a)

    def right_mul(self, a: Sequence) -> Matrix:
        """R(a): b -> b∘a."""
        return self._regular_bimodule.r_of(a)

    def star_mul(self, a: Sequence) -> Matrix:
        return self.left_mul(a) + self.right_mul(a)

    # The instance is frozen, so these caches cannot go stale; they are not
    # fields, so equality, hashing and repr ignore them.
    @cached_property
    def _flat(self) -> tuple:
        return tuple(chain.from_iterable(chain.from_iterable(self.mul)))

    @cached_property
    def _regular_bimodule(self) -> "Bimodule":
        """L(e_i) and R(e_i), read off the product grid on both sides."""
        return Bimodule.from_grids(self, self.mul, self.mul)

    @cached_property
    def _regular_context(self) -> "BimodNov":
        return self._regular_bimodule.with_product(self.mul)

    @cached_property
    def _dual_context(self) -> "BimodNov":
        return dual_bimodule(self._regular_bimodule, validate=False).trivial()

    @cached_property
    def sparse_products(self) -> tuple:
        """(circ, star): circ[i][j] lists the nonzero (coordinate, value)
        pairs of e_i∘e_j, star[i][j] those of e_i⋆e_j.  The tensor
        contractions read it; the operator route reads the action matrices."""
        n = self.dim

        def nonzero(cell):
            return tuple((t, x) for t, x in enumerate(cell) if x)

        circ = tuple(tuple(nonzero(self.mul[i][j]) for j in range(n)) for i in range(n))
        star = tuple(tuple(nonzero(self.basis_star(i, j)) for j in range(n)) for i in range(n))
        return circ, star


def star(alg: Algebra) -> Grid:
    """The symmetrized product grid s[i][j] = mul[i][j] + mul[j][i]."""
    n = alg.dim
    return tuple(tuple(alg.basis_star(i, j) for j in range(n)) for i in range(n))


def star_algebra(alg: Algebra) -> Algebra:
    return Algebra(alg.field, alg.dim, star(alg))


def _novikov_plan(n: int) -> tuple:
    """The index plan of ``novikov_residual`` at dimension n >= 2:
    (left, right), the picks of the products for one first index a;
    (p, q, r, s), the picks of the identity coordinates; and the (identity,
    (i, j, k)) name of each run of n coordinates, in report order.

    For each a, ``src`` is row a of the flat table (coordinate t of e_a∘e_b
    at b·n + t) followed by the whole flat table (coordinate t of e_a∘e_b at
    n² + (a·n + b)·n + t).  ``left(src)`` and ``right(src)`` list, for each
    (b, c, x) and then each t, the factors of coordinate x of (e_a∘e_b)∘e_c,
    then those of e_a∘(e_b∘e_c).  The sums of n consecutive products are
    these coordinates, stored in ``vals`` at 2n³·a + (b·n + c)·n + x, and n³
    further on; n zeros follow them.  Each identity coordinate is then
    p + q - (r + s), the four picked from ``vals``:
      left-symmetry        (i∘j)∘k + j∘(i∘k) - (i∘(j∘k) + (j∘i)∘k),  i != j
      right-commutativity  (i∘j)∘k + 0       - ((i∘k)∘j + 0),        j != k
    That is 12n⁴ - 8n³ indices, drawn from one shared list of ints."""
    nn, n3 = n * n, n**3
    ints = list(range(2 * n3 * n + n))  # one int object per index, shared by every pick
    span = range(n)

    # for each (b, c, x), then each t: the factors of (e_a∘e_b)∘e_c, then of e_a∘(e_b∘e_c)
    left = [ints[b * n + t] for b in span for c in span for x in span for t in span]
    left += [ints[nn + (b * n + c) * n + t] for b in span for c in span for x in span for t in span]
    right = [ints[nn + (t * n + c) * n + x] for b in span for c in span for x in span for t in span]
    right += [ints[t * n + x] for b in span for c in span for x in span for t in span]

    def sums(which, a, b, c):  # where the n sums of (e_a∘e_b)∘e_c (which = 0) or e_a∘(e_b∘e_c) (1) start
        return (2 * a + which) * n3 + (b * n + c) * n

    zero = 2 * n3 * n  # where n zeros start
    blocks, starts = [], []
    for i in span:
        for j in span:
            for k in span:
                if i != j:
                    blocks.append(("left-symmetry", (i, j, k)))
                    starts.append((sums(0, i, j, k), sums(1, j, i, k), sums(1, i, j, k), sums(0, j, i, k)))
                if j != k:
                    blocks.append(("right-commutativity", (i, j, k)))
                    starts.append((sums(0, i, j, k), zero, sums(0, i, k, j), zero))
    picks = tuple(operator.itemgetter(*[ints[at + x] for at in column for x in span]) for column in zip(*starts))
    return (operator.itemgetter(*left), operator.itemgetter(*right)), picks, tuple(blocks)


# plans up to this dimension are kept for the life of the process (together
# about 1.2 MiB, n = 8 alone 0.6 MiB); a larger one is built per call, which
# costs less than evaluating one table at that dimension
_KEPT_PLAN_DIM = 8
_kept_plan = cache(_novikov_plan)

# the report of every table that satisfies both identities; a report is immutable
_HOLDS = Residual("novikov")


def novikov_residual(alg: Algebra) -> Residual:
    """Left-symmetry, (a∘b)∘c - a∘(b∘c) = (b∘a)∘c - b∘(a∘c), and
    right-commutativity, (a∘b)∘c = (a∘c)∘b, on the basis triples (i, j, k)
    where they can fail: left-symmetry at i = j and right-commutativity at
    j = k are x - x in any ring, so they are skipped.  Failures come in
    (i, j, k) order, left-symmetry first at each triple.

    Evaluated through the per-dimension plan of ``_novikov_plan``: for each
    first index a, one pass of products over picks of the flat table; then
    every identity coordinate in one pass over four picks of those sums,
    reduced at once.  Only ``+``, ``-``, ``*`` and one ``reduce``, so it
    runs over any field and over ``PolyRing``.  Every table that satisfies
    both identities gets the same empty report."""
    f, n = alg.field, alg.dim
    if n < 2:  # no triple has i != j or j != k
        return _HOLDS
    (left, right), (p, q, r, s), blocks = (_kept_plan if n <= _KEPT_PLAN_DIM else _novikov_plan)(n)
    flat = alg.flat()
    nn = n * n
    vals = []
    for at in range(0, nn * n, nn):  # row a starts at a·n²
        src = flat[at : at + nn] + flat
        products = map(operator.mul, left(src), right(src))
        vals += map(sum, zip(*[products] * n))  # sums of n consecutive products
    vals += [f.zero()] * n
    values = f.reduce(map(operator.sub, map(operator.add, p(vals), q(vals)), map(operator.add, r(vals), s(vals))))
    if not any(values):
        return _HOLDS
    col = ResidualCollector(f, "novikov")
    for b, (identity, indices) in enumerate(blocks):
        col.record(identity, indices, values[b * n : (b + 1) * n])
    return col.done()


@dataclass(frozen=True)
class Bimodule:
    """Linear actions l, r of an algebra on a module, stored as matrices of
    the basis actions: l_mats[i] is the action of e_i, extended linearly."""

    alg: Algebra
    mdim: int
    l_mats: tuple  # dim matrices, each mdim x mdim
    r_mats: tuple

    def __post_init__(self):
        if len(self.l_mats) != self.alg.dim or len(self.r_mats) != self.alg.dim:
            raise DimMismatch("one action matrix per algebra basis element")
        for m in (*self.l_mats, *self.r_mats):
            if m.field != self.alg.field:
                raise FieldMismatch("action matrices over the wrong field")
            if m.rows != self.mdim or m.cols != self.mdim:
                raise DimMismatch("action matrices must be mdim x mdim")

    @property
    def field(self) -> Field:
        return self.alg.field

    # The instance is frozen, so these caches cannot go stale; they are not
    # fields, so equality, hashing and repr ignore them.
    @cached_property
    def l_cols(self) -> tuple:
        """Column v of l(e_i) at l_cols[i][v]."""
        return tuple(tuple(lm.col(v) for v in range(self.mdim)) for lm in self.l_mats)

    @cached_property
    def r_cols(self) -> tuple:
        """Column v of r(e_i) at r_cols[i][v]."""
        return tuple(tuple(rm.col(v) for v in range(self.mdim)) for rm in self.r_mats)

    @classmethod
    def from_grids(cls, alg: Algebra, left: Grid, right: Grid) -> "Bimodule":
        """The actions read off two product grids, algebra basis times module
        basis and back: column j of l(e_i) is left[i][j], column j of r(e_i)
        is right[j][i]."""
        f, n, m = alg.field, alg.dim, len(right)
        l_mats = tuple(Matrix.from_cols(f, [left[i][j] for j in range(m)]) for i in range(n))
        r_mats = tuple(Matrix.from_cols(f, [right[j][i] for j in range(m)]) for i in range(n))
        return cls(alg, m, l_mats, r_mats)

    def l_of(self, a: Sequence) -> Matrix:
        return combine_mats(self.field, self.l_mats, a, self.mdim)

    def r_of(self, a: Sequence) -> Matrix:
        return combine_mats(self.field, self.r_mats, a, self.mdim)

    def module_basis(self, i: int) -> tuple:
        return unit_vector(self.field, self.mdim, i)

    def with_product(self, mul: Grid) -> "BimodNov":
        return BimodNov(self.alg, self.mdim, self.l_mats, self.r_mats, mul)

    def trivial(self) -> "BimodNov":
        return self.with_product(zero_grid(self.field, self.mdim))


@dataclass(frozen=True)
class BimodNov(Bimodule):
    """A bimodule whose module space carries its own bilinear product."""

    mul: Grid = None  # set in __post_init__; pass a grid or use Bimodule.trivial()

    def __post_init__(self):
        super().__post_init__()
        mul = self.mul if self.mul is not None else zero_grid(self.field, self.mdim)
        object.__setattr__(self, "mul", coerce_grid(self.field, mul, self.mdim))

    def module_product(self, u: Sequence, v: Sequence) -> tuple:
        return grid_product(self.field, self.mul, u, v)

    def module_algebra(self) -> Algebra:
        return Algebra(self.field, self.mdim, self.mul)


def bimodule_residual(b: Bimodule) -> Residual:
    """The four bimodule identities evaluated on basis pairs times module basis."""
    f = b.field
    n = b.alg.dim
    col = ResidualCollector(f, "bimodule")
    lm = b.l_mats
    rm = b.r_mats
    for i in range(n):
        for j in range(n):
            lij = b.l_of(b.alg.mul[i][j])
            lji = b.l_of(b.alg.mul[j][i])
            rij = b.r_of(b.alg.mul[i][j])
            # l(a∘b-b∘a) = l(a)l(b) - l(b)l(a)
            m1 = (lij - lji) - (lm[i] @ lm[j] - lm[j] @ lm[i])
            # l(a)r(b) - r(b)l(a) = r(a∘b) - r(b)r(a)
            m2 = (lm[i] @ rm[j] - rm[j] @ lm[i]) - (rij - rm[j] @ rm[i])
            # l(a∘b) = r(b)l(a)
            m3 = lij - rm[j] @ lm[i]
            # r(a)r(b) = r(b)r(a)
            m4 = rm[i] @ rm[j] - rm[j] @ rm[i]
            for name, m in (("l-commutator", m1), ("mixed", m2), ("l-of-product", m3), ("r-commute", m4)):
                if not m.is_zero():
                    for v in range(b.mdim):
                        cv = m.col(v)
                        col.record(name, (i, j, v), cv)
    return col.done()


def abnova_residual(b: BimodNov) -> Residual:
    """The four compatibility identities between the actions and the module
    product, merged with the bimodule identities and module Novikov-ness into
    one report."""
    f = b.field
    base = bimodule_residual(b)
    mod_nov = novikov_residual(b.module_algebra())
    col = ResidualCollector(f, "abnova")
    n = b.alg.dim
    m = b.mdim
    mb = [b.module_basis(i) for i in range(m)]
    for a in range(n):
        la = b.l_mats[a]
        ra = b.r_mats[a]
        for v in range(m):
            lav = la.col(v)
            rav = ra.col(v)
            for w in range(m):
                law = la.col(w)
                raw_ = ra.col(w)
                vw = b.mul[v][w]
                wv = b.mul[w][v]
                # (l(a)v)·w - l(a)(v·w) = (r(a)v)·w - v·(l(a)w)
                terms = zip(
                    b.module_product(lav, mb[w]),
                    la.apply(vw),
                    b.module_product(rav, mb[w]),
                    b.module_product(mb[v], law),
                )
                col.record("action-vs-product", (a, v, w), f.reduce([p - q - r + s for p, q, r, s in terms]))
                # r(a)(v·w) - v·(r(a)w) = r(a)(w·v) - w·(r(a)v)
                terms = zip(
                    ra.apply(vw),
                    b.module_product(mb[v], raw_),
                    ra.apply(wv),
                    b.module_product(mb[w], rav),
                )
                col.record("right-action-symmetry", (a, v, w), f.reduce([p - q - r + s for p, q, r, s in terms]))
                # (l(a)v)·w = (l(a)w)·v
                e3 = vsub(f, b.module_product(lav, mb[w]), b.module_product(law, mb[v]))
                col.record("left-action-commutes", (a, v, w), e3)
                # r(a)(v·w) = (r(a)v)·w
                e4 = vsub(f, ra.apply(vw), b.module_product(rav, mb[w]))
                col.record("right-action-product", (a, v, w), e4)
    return Residual("abnova", base.failures + mod_nov.failures + col.done().failures)


def regular(alg: Algebra, validate: bool = True) -> BimodNov:
    """The regular bimodule Novikov algebra (A, ∘, L, R), built once per
    algebra; ``validate`` checks the Novikov identities on every call."""
    if validate and not novikov_residual(alg).is_zero:
        raise NotNovikov("base algebra fails the Novikov identities")
    return alg._regular_context


def regular_bimodule(alg: Algebra) -> Bimodule:
    """(A, L, R), built once per algebra."""
    return alg._regular_bimodule


def dual_bimodule(b: Bimodule, validate: bool = True) -> Bimodule:
    """The dual bimodule on V*: l' = -(l+r)^T, r' = +r^T, dual basis in primal order."""
    if validate and not bimodule_residual(b).is_zero:
        raise NotABimodule("dual construction needs a valid bimodule")
    l_mats = tuple(-(lm + rm).transpose() for lm, rm in zip(b.l_mats, b.r_mats))
    r_mats = tuple(rm.transpose() for rm in b.r_mats)
    return Bimodule(b.alg, b.mdim, l_mats, r_mats)


def dual_context(alg: Algebra) -> BimodNov:
    """(A*, L_star-dual, -R-dual) with the trivial module product, built once
    per algebra."""
    return alg._dual_context


def semidirect(b: BimodNov) -> Algebra:
    """Product on A⊕M: (a+u)•(b+v) = a∘b + l(a)v + r(b)u + u·v, A-basis first."""
    f = b.field
    n = b.alg.dim
    m = b.mdim
    dim = n + m
    z_a = (f.zero(),) * n
    z_m = (f.zero(),) * m
    grid = []
    for i in range(dim):
        row = []
        for j in range(dim):
            if i < n and j < n:
                a_part = b.alg.mul[i][j]
                m_part = z_m
            elif i < n:
                a_part = z_a
                m_part = b.l_mats[i].col(j - n)
            elif j < n:
                a_part = z_a
                m_part = b.r_mats[j].col(i - n)
            else:
                a_part = z_a
                m_part = b.mul[i - n][j - n]
            row.append(a_part + m_part)
        grid.append(tuple(row))
    return Algebra(f, dim, tuple(grid))
