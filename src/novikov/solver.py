"""Exhaustive search over small prime fields, linear solution spaces and
instance families: the oracle behind the property sweeps.

Every search kind is one depth-first search whose constraints are the kind's
object-path residual, evaluated once over a polynomial ring in the unknowns;
the linear spaces come from the same residuals, probed on unit inputs (exact
for a linear residual).  No identity is written here a second time.  The
ring (``fields.PolyRing``) keeps the scalar contract of every other field,
``+``, ``-``, ``*``, truthiness and one ``reduce`` per output, so the
residuals run on it unchanged; it needs only ``coerce``, ``reduce``, ``inv``
(which raises) and ``variables``."""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Iterator, Optional, Sequence

from .algebra import Algebra, BimodNov, novikov_residual, regular
from .errors import NovikovError, SpaceTooLarge
from .fields import Field, PolyRing, PrimeField
from .linalg import Matrix, kernel_basis
from .operators import (
    LinMap,
    MassParams,
    balanced_residual,
    bimodule_hom_residual,
    equivalent_residual,
    ext_o_equation_residual,
    rota_baxter_residual,
)
from .residual import Residual, ResidualCollector
from .tensors import Tensor2, Tensor3
from .ybe import enybe_residual, invariance_residual, invariant_form_residual, nybe_residual, BilForm

# each search kind, with the context fields of ``SearchSpec`` that its
# residual (``_residual_coords``) reads
SEARCH_INPUTS = {
    "novikov-algebra": (),
    "nybe-solution": ("algebra",),
    "enybe-solution": ("algebra", "epsilon"),
    "ext-o-operator": ("algebra", "weight", "kappa", "mu", "beta"),
    "rota-baxter": ("algebra", "weight"),
    "invariant-symmetric-tensor": ("algebra",),
    "quadratic-form": ("algebra",),
}
SEARCH_KINDS = tuple(SEARCH_INPUTS)

ALLOWED_PRIMES = (2, 3, 5, 7)
BOUND_EXPONENT = 32
CANDIDATE_BOUND = 2**BOUND_EXPONENT


@dataclass(frozen=True)
class SearchSpec:
    """What to enumerate: a target kind, the field and dimensions, and the
    fixed context (algebra table, maps, masses) the kind needs."""

    kind: str
    field: Field
    dim: int
    algebra: Optional[Algebra] = None
    weight: object = 0
    kappa: object = 0
    mu: object = 0
    epsilon: object = 0
    beta: Optional[LinMap] = None
    shard_index: int = 0
    shard_count: int = 1

    def __post_init__(self):
        if self.kind not in SEARCH_KINDS:
            raise NovikovError(f"unknown search kind {self.kind!r}")
        if not isinstance(self.field, PrimeField) or self.field.p not in ALLOWED_PRIMES:
            raise NovikovError("searches run over F_p with p in {2, 3, 5, 7}")
        if self.dim < 1:
            raise NovikovError(f"dimension must be at least 1, got {self.dim}")
        if not (0 <= self.shard_index < self.shard_count):
            raise NovikovError("bad shard layout")
        if "algebra" in SEARCH_INPUTS[self.kind]:
            if self.algebra is None:
                raise NovikovError(f"search kind {self.kind!r} needs a context algebra")
            if self.algebra.dim != self.dim or self.algebra.field != self.field:
                raise NovikovError("context algebra does not match the search spec")
        beta = self.beta
        if beta is not None and (beta.field, beta.dim, beta.mdim) != (self.field, self.dim, self.dim):
            raise NovikovError(f"beta must be a {self.dim}x{self.dim} map over {self.field}")

    @property
    def p(self) -> int:
        return self.field.p

    def coeff_count(self) -> int:
        n = self.dim
        if self.kind == "novikov-algebra":
            return n * n * n
        if self.kind in ("nybe-solution", "enybe-solution", "rota-baxter", "ext-o-operator"):
            return n * n
        if self.kind in ("invariant-symmetric-tensor", "quadratic-form"):
            return n * (n + 1) // 2
        raise NovikovError(self.kind)

    def candidate_total(self) -> int:
        return self.p ** self.coeff_count()

    def context_hash(self) -> str:
        payload = {
            "kind": self.kind,
            "p": self.p,
            "dim": self.dim,
            "algebra": _alg_flat(self.algebra) if self.algebra is not None else None,
            "weight": str(self.weight),
            "kappa": str(self.kappa),
            "mu": str(self.mu),
            "epsilon": str(self.epsilon),
            "beta": list(self.beta.mat.entries) if self.beta is not None else None,
        }
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


@dataclass
class SearchResult:
    spec: SearchSpec
    solutions: list
    candidate_count: int
    check_hash: str

    def to_jsonl(self) -> str:
        lines = []
        ctx = self.spec.context_hash()
        for sol in self.solutions:
            lines.append(
                json.dumps(
                    {"kind": self.spec.kind, "coeffs": list(sol), "context": ctx},
                    sort_keys=True,
                )
            )
        return "\n".join(lines) + ("\n" if lines else "")


def _alg_flat(alg: Algebra) -> list:
    n = alg.dim
    return [int(alg.mul[i][j][k]) for i in range(n) for j in range(n) for k in range(n)]


def _sym_grid(coeffs: Sequence, n: int) -> tuple:
    """Upper-triangle coefficients to a nested symmetric n x n grid."""
    grid = [[0] * n for _ in range(n)]
    upper = iter(coeffs)
    for i in range(n):
        for j in range(i, n):
            grid[i][j] = grid[j][i] = next(upper)
    return tuple(map(tuple, grid))


def enumerate_search(spec: SearchSpec, jobs: int = 1) -> SearchResult:
    """Every solution of the spec, in lexicographic coefficient order.

    The coefficient space is searched depth first (see ``_search``).  A shard
    keeps the candidates whose lexicographic index is ``shard_index`` modulo
    ``shard_count``; ``candidate_count`` is the size of that share of the
    space.  With ``jobs`` > 1 an unsharded search is split into that many
    shards, each searched in its own worker process, and the shards are
    merged back.
    """
    # p >= 2, so an exponent past the bound's is too large before p^k is
    # computed (or printed: 2^970299 has 292,089 digits)
    k = spec.coeff_count()
    if k > BOUND_EXPONENT or spec.p**k > CANDIDATE_BOUND:
        raise SpaceTooLarge(f"{spec.p}^{k} candidates exceed the 2^{BOUND_EXPONENT} bound")
    total = spec.candidate_total()
    if jobs > 1 and spec.shard_count == 1:
        import multiprocessing  # imported here: it adds ~10% to every cold start

        shards = [replace(spec, shard_index=i, shard_count=jobs) for i in range(jobs)]
        with multiprocessing.get_context("spawn").Pool(jobs) as pool:
            parts = pool.map(enumerate_search, shards)
        # lexicographic coefficient order equals candidate-index order
        solutions = sorted(sol for part in parts for sol in part.solutions)
        count = sum(part.candidate_count for part in parts)
    else:
        solutions = _search(spec)
        count = len(range(spec.shard_index, total, spec.shard_count))
    blob = json.dumps([list(s) for s in solutions]).encode()
    h = hashlib.sha256(blob).hexdigest()
    return SearchResult(spec, solutions, count, h)


# ---------------------------------------------------------------------------
# constraint-propagating search, its constraints derived from the residuals


def _tensor_residual(identity: str, t: Tensor3) -> Residual:
    """A tensor-valued residual as a report: one failure per nonzero row t[i][j]."""
    col = ResidualCollector(t.field, identity)
    for i, plane in enumerate(t.grid):
        for j, row in enumerate(plane):
            col.record(identity, (i, j), row)
    return col.done()


def _nonzero_coords(report: Residual) -> Iterator[tuple]:
    """(key, value) for each nonzero coordinate of a report, keyed by
    (identity, indices, coordinate); a coordinate not reported is zero.
    Reported values are reduced, so truthiness is the zero test."""
    for fail in report.failures:
        for k, c in enumerate(fail.value):
            if c:
                yield (fail.identity, fail.indices, k), c


def _residual_coords(spec: SearchSpec, ring: Optional[PolyRing] = None) -> Callable[[Sequence], dict]:
    """The object-path residual of the spec's kind, as a function from a
    flat candidate to its nonzero residual coordinates.  ``reverify`` runs it
    on the spec's context; the search lifts the context into ``ring``."""
    f, alg, beta = spec.field, spec.algebra, spec.beta
    if ring is not None:  # lift the context into the ring
        f = ring
        alg = alg and Algebra(ring, alg.dim, alg.mul)
        beta = beta and LinMap(Matrix(ring, beta.dim, beta.mdim, beta.mat.entries))
    kind = spec.kind
    if kind == "novikov-algebra":
        residual = novikov_residual
    elif kind == "nybe-solution":
        residual = lambda r: _tensor_residual("nybe", nybe_residual(alg, r))
    elif kind == "enybe-solution":
        residual = lambda r: _tensor_residual("enybe", enybe_residual(alg, r, spec.epsilon))
    elif kind == "rota-baxter":
        residual = lambda t: rota_baxter_residual(alg, t, spec.weight)
    elif kind == "ext-o-operator":
        ctx = regular(alg, validate=False)
        params = MassParams(spec.weight, spec.kappa, spec.mu)
        residual = lambda t: ext_o_equation_residual(ctx, t, beta, params)
    elif kind == "invariant-symmetric-tensor":
        residual = lambda s: invariance_residual(alg, s)
    elif kind == "quadratic-form":
        residual = lambda form: invariant_form_residual(alg, form)
    else:
        raise NovikovError(kind)
    return lambda coeffs: dict(_nonzero_coords(residual(solution_to_object(spec, coeffs, f))))


def _constraint_levels(polys, k: int, p: int) -> list[list]:
    """Each distinct constraint polynomial (up to a scalar), filed under the
    unknown it ends with, as it is checked in ``_search``: after x_0..x_{d-1}
    are assigned it reads A + B x_d + C x_d^2, with A and B polynomials in
    the assigned unknowns.  A is kept as terms (u, v, c) and B as terms
    (u, c), where the index k stands for the constant 1; C selects the table
    of root masks [B][A] -> bitmask of the roots x_d.  Higher degrees raise."""
    roots = [
        [[sum(1 << x for x in range(p) if (a + b * x + cc * x * x) % p == 0) for a in range(p)] for b in range(p)]
        for cc in range(p)
    ]
    levels = [[] for _ in range(k)]
    seen = set()
    for poly in polys:
        monos = sorted(poly)
        scale = pow(poly[monos[0]], p - 2, p)
        norm = tuple((mono, poly[mono] * scale % p) for mono in monos)
        if norm in seen:
            continue
        seen.add(norm)
        d = max((u for mono in monos for u in mono), default=0)
        a_terms, b_terms, square = [], [], 0
        for mono, c in norm:
            if len(mono) > 2:
                raise AssertionError(f"the residual is not of degree <= 2 in its unknowns: monomial {mono}")
            others = [u for u in mono if u != d]
            power = len(mono) - len(others)  # the degree in x_d
            others += [k] * (2 - power - len(others))
            if power == 0:
                a_terms.append((*others, c))
            elif power == 1:
                b_terms.append((*others, c))
            else:
                square = c
        levels[d].append((tuple(a_terms), tuple(b_terms), roots[square]))
    return levels


def _search(spec: SearchSpec) -> list[tuple]:
    """Depth-first search over the coefficients in index order, each tried
    0..p-1 in ascending order, so solutions come out lexicographically.

    The constraints are the residual's coordinates as polynomials of degree
    <= 2, from one evaluation over ``PolyRing``; each is checked at the depth
    where its last unknown is assigned, which gives the allowed values of
    that unknown as a bitmask.  Finished candidates are filtered by shard
    and, for quadratic forms, by nondegeneracy.
    """
    p, k = spec.p, spec.coeff_count()
    ring = PolyRing(p)
    levels = _constraint_levels(_residual_coords(spec, ring)(ring.variables(k)).values(), k, p)
    values = [tuple(v for v in range(p) if mask >> v & 1) for mask in range(1 << p)]
    full = (1 << p) - 1
    last = k - 1
    shard_index, shard_count = spec.shard_index, spec.shard_count
    if spec.kind == "quadratic-form":
        keep = lambda coeffs: BilForm(spec.field, _sym_grid(coeffs, spec.dim)).is_nondegenerate()
    else:
        keep = lambda coeffs: True
    x = [0] * k + [1]  # x[k] = 1 carries the constant and linear terms
    out = []

    def visit(d: int, idx: int) -> None:
        mask = full
        for a_terms, b_terms, table in levels[d]:
            a = 0
            for u, v, c in a_terms:
                a += c * x[u] * x[v]
            b = 0
            for u, c in b_terms:
                b += c * x[u]
            mask &= table[b % p][a % p]
            if not mask:
                return
        for val in values[mask]:
            x[d] = val
            if d < last:
                visit(d + 1, idx * p + val)
            elif (idx * p + val) % shard_count == shard_index:
                coeffs = tuple(x[:k])
                if keep(coeffs):
                    out.append(coeffs)

    visit(0, 0)
    return out


def solution_to_object(spec: SearchSpec, coeffs: Sequence, field: Optional[Field] = None):
    """Interpret a flat solution vector back into a domain object over ``field`` (default: the spec's)."""
    f = spec.field if field is None else field
    n = spec.dim
    if spec.kind == "novikov-algebra":
        grid = tuple(
            tuple(tuple(coeffs[(i * n + j) * n + k] for k in range(n)) for j in range(n))
            for i in range(n)
        )
        return Algebra(f, n, grid)
    if spec.kind in ("nybe-solution", "enybe-solution"):
        return Tensor2(f, tuple(tuple(coeffs[i * n + j] for j in range(n)) for i in range(n)))
    if spec.kind in ("rota-baxter", "ext-o-operator"):
        return LinMap(Matrix(f, n, n, tuple(coeffs)))
    if spec.kind in ("invariant-symmetric-tensor", "quadratic-form"):
        grid = _sym_grid(coeffs, n)
        if spec.kind == "quadratic-form":
            return BilForm(f, grid)
        return Tensor2(f, grid)
    raise NovikovError(spec.kind)


def reverify(spec: SearchSpec, coeffs: Sequence) -> bool:
    """Re-check one solution through the generic object-path residual ops
    (the independent route; never the kernels)."""
    if _residual_coords(spec)(coeffs):
        return False
    return spec.kind != "quadratic-form" or solution_to_object(spec, coeffs).is_nondegenerate()


# ---------------------------------------------------------------------------
# instance families


def trunc_poly_algebra(field: Field, n: int) -> Algebra:
    """Truncated polynomial Novikov algebra on basis 1, x, ..., x^{n-1} with
    the degree-preserving derivation: x^i ∘ x^j = j * x^{i+j} (truncated)."""
    table = {}
    for i in range(n):
        for j in range(1, n):
            if i + j < n:
                v = [0] * n
                v[i + j] = j
                table[(i, j)] = tuple(v)
    return Algebra.from_table(field, table, n)


_ENUM_CACHE: dict[int, list] = {}


def enumerated_dim2(field: PrimeField) -> list[Algebra]:
    """All dim-2 Novikov algebras over F_p, lexicographic, cached."""
    if field.p not in _ENUM_CACHE:
        spec = SearchSpec("novikov-algebra", field, 2)
        res = enumerate_search(spec)
        _ENUM_CACHE[field.p] = [solution_to_object(spec, s) for s in res.solutions]
    return _ENUM_CACHE[field.p]


def random_matrix(field: Field, rows: int, cols: int, rng: random.Random) -> Matrix:
    return Matrix(field, rows, cols, tuple(field.sample(rng) for _ in range(rows * cols)))


# ---------------------------------------------------------------------------
# linear solution spaces, derived from the residuals by probing unit inputs


def residual_space(field: Field, units: Sequence, *residuals: Callable[[object], Residual]) -> list[tuple]:
    """Basis, as coordinate vectors over ``units``, of the inputs on which
    every residual (each linear in its input) vanishes.

    Each unit is probed once.  Every nonzero coordinate of a reported failure,
    keyed by (residual, identity, indices, coordinate), is one entry of the
    constraint matrix; a coordinate no probe reports is zero.  The reduced
    echelon form depends only on the row space and the unit order, so the
    basis does not depend on the order in which failures are reported.
    """
    rows: dict = {}
    for col, unit in enumerate(units):
        for which, residual in enumerate(residuals):
            for key, c in _nonzero_coords(residual(unit)):
                rows.setdefault((which, *key), [field.zero()] * len(units))[col] = c
    mat = Matrix.from_rows(field, rows.values()) if rows else Matrix.zeros(field, 1, len(units))
    return kernel_basis(mat)


def map_space(field: Field, rows: int, cols: int, *residuals) -> list[LinMap]:
    """Basis of the rows x cols maps on which every residual vanishes; the
    unknowns are the matrix entries in row-major order."""
    k = rows * cols
    units = [LinMap(Matrix(field, rows, cols, tuple(int(t == s) for t in range(k)))) for s in range(k)]
    return [LinMap(Matrix(field, rows, cols, c)) for c in residual_space(field, units, *residuals)]


def _symmetric_space(field: Field, n: int, make, *residuals) -> list:
    """Basis of the symmetric objects ``make(field, grid)`` on which every
    residual vanishes; the unknowns are the upper-triangle entries (i <= j)."""
    k = n * (n + 1) // 2
    units = [make(field, _sym_grid(tuple(int(t == s) for t in range(k)), n)) for s in range(k)]
    return [make(field, _sym_grid(c, n)) for c in residual_space(field, units, *residuals)]


def balanced_hom_basis(ctx: BimodNov) -> list[LinMap]:
    """Basis of balanced module homomorphisms M -> A."""
    return map_space(
        ctx.field, ctx.alg.dim, ctx.mdim, partial(balanced_residual, ctx), partial(bimodule_hom_residual, ctx)
    )


def hom_map_basis(ctx: BimodNov) -> list[LinMap]:
    """Basis of module homomorphisms M -> A (no balance condition)."""
    return map_space(ctx.field, ctx.alg.dim, ctx.mdim, partial(bimodule_hom_residual, ctx))


def balanced_hom_equivalent_basis(ctx: BimodNov) -> list[LinMap]:
    """Basis of maps that are balanced homomorphisms and satisfy the
    (unscaled) equivalence identities."""
    return map_space(
        ctx.field,
        ctx.alg.dim,
        ctx.mdim,
        partial(balanced_residual, ctx),
        partial(bimodule_hom_residual, ctx),
        lambda beta: equivalent_residual(ctx, beta, 1),
    )


def invariant_symmetric_basis(alg: Algebra) -> list[Tensor2]:
    """Basis of invariant symmetric 2-tensors."""
    return _symmetric_space(alg.field, alg.dim, Tensor2, lambda s: invariance_residual(alg, s))


def invariant_form_basis(alg: Algebra) -> list[BilForm]:
    """Basis of invariant symmetric bilinear forms."""
    return _symmetric_space(alg.field, alg.dim, BilForm, partial(invariant_form_residual, alg))


def linear_combination(basis: list, coeffs: Sequence):
    """sum c_k * b_k over a nonempty basis."""
    acc = None
    for b, c in zip(basis, coeffs):
        term = b.scale(c)
        acc = term if acc is None else acc + term
    return acc


def sample_from_basis(basis: list, rng: random.Random, field: Field):
    """Seeded random combination of basis elements (None for empty bases)."""
    if not basis:
        return None
    return linear_combination(basis, [field.sample(rng) for _ in basis])
