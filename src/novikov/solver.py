"""Exhaustive search over small prime fields, linear solution spaces and
instance families: the oracle behind the property sweeps.

Every search kind is one depth-first search whose constraints are the kind's
object-path residual, evaluated once per (kind, n, p) over a polynomial ring
whose unknowns are the search's and the context's (its table, beta and
scalars), and specialised to each search's context; the linear spaces come
from the same residuals, probed on unit inputs (exact for a linear
residual).  No identity is written here a second time.  The ring
(``fields.PolyRing``) keeps the scalar contract of every other field, ``+``,
``-``, ``*``, truthiness and one ``reduce`` per output, so the residuals run
on it unchanged; it needs only ``coerce``, ``reduce``, ``inv`` (which
raises) and ``variables``.  P-TENSOR-OP decides its routes from the same
systems (``properties.tensor_op_verdicts``)."""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from functools import cache, partial
from math import lcm
from operator import mul
from typing import Callable, Iterator, Optional, Sequence

from .algebra import Algebra, BimodNov, novikov_residual, regular
from .errors import DimMismatch, NovikovError, SpaceTooLarge
from .fields import Field, Poly, PolyRing, PrimeField
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
from .residual import Residual, grid_residual
from .tensors import Tensor2, Tensor3
from .ybe import enybe_residual, invariance_residual, invariant_form_residual, nybe_residual, BilForm

# ---------------------------------------------------------------------------
# the search kinds: one row each, with the decoder and residual it names


def _sym_grid(coeffs: Sequence, n: int) -> tuple:
    """Upper-triangle coefficients to a nested symmetric n x n grid."""
    grid = [[0] * n for _ in range(n)]
    upper = iter(coeffs)
    for i in range(n):
        for j in range(i, n):
            grid[i][j] = grid[j][i] = next(upper)
    return tuple(map(tuple, grid))


def _tensor_residual(identity: str, t: Tensor3) -> Residual:
    """A tensor-valued residual as a report over the tensor's own field:
    one failure per nonzero row t[i][j]."""
    return grid_residual(t.field, identity, t.grid)


def _tensor(f: Field, n: int, coeffs: Sequence) -> Tensor2:
    return Tensor2(f, tuple(tuple(coeffs[i * n + j] for j in range(n)) for i in range(n)))


def _map(f: Field, n: int, coeffs: Sequence) -> LinMap:
    return LinMap(Matrix(f, n, n, tuple(coeffs)))


def _ext_o_residual(t: LinMap, alg: Algebra, weight, kappa, mu, beta: Optional[LinMap]) -> Residual:
    return ext_o_equation_residual(regular(alg, validate=False), t, beta, MassParams(weight, kappa, mu))


@dataclass(frozen=True)
class _Kind:
    """One search kind.  The search's unknowns are the flat coefficients
    ``decode(field, n, coeffs)`` reads; ``residual(obj, *values)`` is the
    kind's object-path residual, given the values of its context inputs in
    ``inputs`` order: the spec's own (``reverify``), or unknowns of a
    polynomial ring (``_system``).  A solution is a zero of the residual
    that ``leaf``, if given, accepts."""

    solve: str  # the name ``nova solve`` takes besides the kind's own
    inputs: tuple  # the context fields of ``SearchSpec`` the residual reads
    count: Callable[[int], int]  # the number of unknowns at dimension n
    decode: Callable[[Field, int, Sequence], object]
    residual: Callable[..., Residual]
    leaf: Optional[Callable[[object], bool]] = None


_square = lambda n: n * n
_upper = lambda n: n * (n + 1) // 2

# each search kind by the name a spec and its JSONL lines carry
SEARCH_KINDS = {
    "novikov-algebra": _Kind("novikov", (), lambda n: n**3, Algebra.from_flat, lambda a: novikov_residual(a)),
    "nybe-solution": _Kind(
        "nybe",
        ("algebra",),
        _square,
        _tensor,
        lambda r, alg: _tensor_residual("nybe", nybe_residual(alg, r)),
    ),
    "enybe-solution": _Kind(
        "enybe",
        ("algebra", "epsilon"),
        _square,
        _tensor,
        lambda r, alg, epsilon: _tensor_residual("enybe", enybe_residual(alg, r, epsilon)),
    ),
    "ext-o-operator": _Kind("ext-o", ("algebra", "weight", "kappa", "mu", "beta"), _square, _map, _ext_o_residual),
    "rota-baxter": _Kind(
        "rota-baxter",
        ("algebra", "weight"),
        _square,
        _map,
        lambda t, alg, weight: rota_baxter_residual(alg, t, weight),
    ),
    "invariant-symmetric-tensor": _Kind(
        "invariant-symmetric",
        ("algebra",),
        _upper,
        lambda f, n, coeffs: Tensor2(f, _sym_grid(coeffs, n)),
        lambda s, alg: invariance_residual(alg, s),
    ),
    "quadratic-form": _Kind(
        "quadratic-form",
        ("algebra",),
        _upper,
        lambda f, n, coeffs: BilForm(f, _sym_grid(coeffs, n)),
        lambda form, alg: invariant_form_residual(alg, form),
        lambda form: form.is_nondegenerate(),
    ),
}

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
        row = SEARCH_KINDS.get(self.kind)
        if row is None:
            raise NovikovError(f"unknown search kind {self.kind!r}")
        if not isinstance(self.field, PrimeField) or self.field.p not in ALLOWED_PRIMES:
            raise NovikovError("searches run over F_p with p in {2, 3, 5, 7}")
        if self.dim < 1:
            raise NovikovError(f"dimension must be at least 1, got {self.dim}")
        if not (0 <= self.shard_index < self.shard_count):
            raise NovikovError("bad shard layout")
        # one canonical value per scalar (-1 and 2 are one weight over F_3),
        # so the context id, the constraints and ``reverify`` agree
        for name in ("weight", "kappa", "mu", "epsilon"):
            object.__setattr__(self, name, self.field.coerce(getattr(self, name)))
        if "algebra" in row.inputs:
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
        return SEARCH_KINDS[self.kind].count(self.dim)

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

    @property
    def check_hash(self) -> str:
        """The sha256 of the solutions as one JSON list, computed when read."""
        return hashlib.sha256(json.dumps([list(s) for s in self.solutions]).encode()).hexdigest()

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
    return list(map(int, alg.flat()))


def enumerate_search(spec: SearchSpec) -> SearchResult:
    """Every solution of the spec, in lexicographic coefficient order.

    The coefficient space is searched depth first, in an order derived from
    its constraints, and the solutions are sorted (see ``_search``).  A shard
    keeps the candidates whose lexicographic index is ``shard_index`` modulo
    ``shard_count``; ``candidate_count`` is the size of that share of the
    space.
    """
    # p >= 2, so an exponent past the bound's is too large before p^k is
    # computed (or printed: 2^970299 has 292,089 digits)
    k = spec.coeff_count()
    if k > BOUND_EXPONENT or spec.p**k > CANDIDATE_BOUND:
        raise SpaceTooLarge(f"{spec.p}^{k} candidates exceed the 2^{BOUND_EXPONENT} bound")
    count = len(range(spec.shard_index, spec.candidate_total(), spec.shard_count))
    return SearchResult(spec, _search(spec), count)


# ---------------------------------------------------------------------------
# constraint-propagating search, its constraints derived from the residuals


def _nonzero_coords(report: Residual) -> Iterator[tuple]:
    """(key, value) for each nonzero coordinate of a report, keyed by
    (identity, indices, coordinate); a coordinate not reported is zero.
    Reported values are reduced, so truthiness is the zero test."""
    for fail in report.failures:
        for k, c in enumerate(fail.value):
            if c:
                yield (fail.identity, fail.indices, k), c


@cache
def _system(row: _Kind, n: int, p: int) -> tuple[tuple, tuple]:
    """The row's residual, evaluated once over ``PolyRing(p)``.  The k search
    unknowns are x_0..x_{k-1}; every context input the row reads follows as
    unknowns, in ``inputs`` order: the table in ``Algebra.flat`` order, beta
    row-major, a scalar one unknown (``_specialise`` lists a context's values
    in the same order).

    Returns (keys, filed): the keys of the residual's nonzero coordinates,
    in report order, and the terms (key index, monomial in the search
    unknowns, coefficient) filed by parameter monomial, the monomial in the
    context unknowns (renumbered from 0) they multiply.  Parameter monomials
    are grouped by their first unknown (None for the constant monomial), as
    (first, ((rest of the monomial, terms), ...)), so a context skips each
    group whose first unknown is zero at once."""
    ring = PolyRing(p)
    k = at = row.count(n)
    inputs = []
    for name in row.inputs:
        size = n**3 if name == "algebra" else n * n if name == "beta" else 1
        unknowns = [Poly({(u,): 1}) for u in range(at, at + size)]
        at += size
        if name == "algebra":
            inputs.append(Algebra.from_flat(ring, n, unknowns))
        elif name == "beta":
            inputs.append(_map(ring, n, unknowns))
        else:
            inputs.append(unknowns[0])
    coords = dict(_nonzero_coords(row.residual(row.decode(ring, n, ring.variables(k)), *inputs)))
    filed: dict = {}  # first unknown -> rest of the parameter monomial -> terms
    for i, poly in enumerate(coords.values()):
        for mono, c in poly.items():
            split = sum(u < k for u in mono)  # a monomial is sorted: search unknowns first
            params = [u - k for u in mono[split:]] or [None]
            filed.setdefault(params[0], {}).setdefault(tuple(params[1:]), []).append((i, mono[:split], c))
    groups = (
        (first, tuple((rest, tuple(terms)) for rest, terms in group.items())) for first, group in filed.items()
    )
    return tuple(coords), tuple(groups)


def _specialise(row: _Kind, field: PrimeField, n: int, *values) -> dict:
    """The row's constraints at one context, given as the values of its
    inputs in ``inputs`` order (as ``row.residual`` takes them, scalars
    canonical in F_p; a beta of None is zeros): {(identity, indices,
    coordinate): nonzero polynomial in the search unknowns} in report
    order, from the row's cached ``_system``.

    Substituting the context is a ring homomorphism onto F_p[x], and the
    residuals branch only to skip terms that are zero as polynomials, which
    every substitution keeps zero, so these are the polynomials of the
    residual evaluated on the context itself lifted into the ring.  A
    parameter monomial that vanishes at the context is skipped."""
    p = field.p
    context = []
    for name, given in zip(row.inputs, values):
        if name == "algebra":
            context += given.flat()
        elif name == "beta":
            context += given.mat.entries if given is not None else (0,) * n * n
        else:
            context.append(given)
    keys, filed = _system(row, n, p)
    sums = [Poly() for _ in keys]
    for first, group in filed:
        head = 1 if first is None else context[first]
        if not head:
            continue
        for rest, terms in group:
            value = head
            for u in rest:
                value *= context[u]
            if value % p:
                for i, m, c in terms:
                    poly = sums[i]
                    poly[m] = (poly.get(m, 0) + value * c) % p
    out = {}
    for key, poly in zip(keys, sums):
        if 0 in poly.values():  # terms that cancelled mod p
            poly = Poly({m: c for m, c in poly.items() if c})
        if poly:
            out[key] = poly
    return out


def _constraints(spec: SearchSpec) -> dict:
    """The search's constraints: its kind's system for (n, p), built on
    first use and cached, specialised to the spec's context."""
    row = SEARCH_KINDS[spec.kind]
    return _specialise(row, spec.field, spec.dim, *(getattr(spec, name) for name in row.inputs))


def _variable_order(polys, k: int) -> list[int]:
    """The unknowns in the order ``_search`` assigns them, derived from its
    constraints by the fail-first rule (Haralick & Elliott, Artificial
    Intelligence 14 (1980) 263-313): next is the unknown that completes the
    most constraints, then the one with the largest sum of 1/(unknowns still
    open) over its open constraints, then the lowest index.  Each polynomial
    is one constraint, repeats included.

    Both counts live in one integer score per unknown, updated after each
    pick: ``done`` per constraint it completes plus ``scale // n`` per open
    constraint with n unknowns open.  ``scale`` is the lcm of 1..(largest
    constraint size), so every such term is exact, and ``done`` exceeds any
    sum of them, so scores compare as (completes, sum) pairs."""
    supports = [s for s in ({u for mono in poly for u in mono} for poly in polys) if s]  # the open unknowns
    scale = lcm(*range(1, max(map(len, supports), default=1) + 1))
    done = scale * len(supports) + 1
    holding = [[] for _ in range(k)]  # the constraints of each unknown
    score = [0] * k
    for c, support in enumerate(supports):
        gain = scale // len(support) + (len(support) == 1) * done
        for u in support:
            holding[u].append(c)
            score[u] += gain
    left, order = list(range(k)), []
    while left:
        pick = max(left, key=score.__getitem__)  # the first maximum: the lowest index
        left.remove(pick)
        order.append(pick)
        for c in holding[pick]:
            support = supports[c]
            support.remove(pick)
            n = len(support)
            if n:
                step = scale // n - scale // (n + 1) + (n == 1) * done
                for u in support:
                    score[u] += step
    return order


@cache
def _root_tables(p: int) -> tuple:
    """(roots, values) over F_p: roots[C][B][A] is the bitmask of the x with
    A + B x + C x^2 = 0, values[mask] the ascending values in a mask."""
    roots = tuple(
        tuple(tuple(sum(1 << x for x in range(p) if (a + b * x + c * x * x) % p == 0) for a in range(p)) for b in range(p))
        for c in range(p)
    )
    values = tuple(tuple(v for v in range(p) if mask >> v & 1) for mask in range(1 << p))
    return roots, values


def _constraint_levels(polys, k: int, p: int, pos: Sequence[int]) -> list[list]:
    """Each distinct constraint polynomial (up to a scalar), filed under the
    position ``pos[y]`` in the search order of its last unknown x_y, as it is
    checked in ``_search``: once the unknowns before x_y are assigned it
    reads A + B x_y + C x_y^2, with A and B polynomials in the assigned
    unknowns.  A is kept as terms (u, v, c) and B as terms (u, c), where the
    index k stands for the constant 1; C selects the table of root masks
    [B][A] -> bitmask of the roots x_y.  Higher degrees raise."""
    roots = _root_tables(p)[0]
    levels = [[] for _ in range(k)]
    seen = set()
    for poly in polys:
        monos = sorted(poly)
        scale = pow(poly[monos[0]], p - 2, p)
        norm = tuple((mono, poly[mono] * scale % p) for mono in monos)
        if norm in seen:
            continue
        seen.add(norm)
        y = max((u for mono in monos for u in mono), key=pos.__getitem__, default=0)
        a_terms, b_terms, square = [], [], 0
        for mono, c in norm:
            if len(mono) > 2:
                raise AssertionError(f"the residual is not of degree <= 2 in its unknowns: monomial {mono}")
            others = [u for u in mono if u != y]
            power = len(mono) - len(others)  # the degree in x_y
            others += [k] * (2 - power - len(others))
            if power == 0:
                a_terms.append((*others, c))
            elif power == 1:
                b_terms.append((*others, c))
            else:
                square = c
        levels[pos[y]].append((tuple(a_terms), tuple(b_terms), roots[square]))
    return levels


def _search(spec: SearchSpec) -> list[tuple]:
    """Every solution, in lexicographic coefficient order, by a depth-first
    search that assigns the coefficients in the order ``_variable_order``
    derives from the constraints, each tried 0..p-1 in ascending order.

    The constraints are the residual's coordinates as polynomials of degree
    <= 2: one evaluation over ``PolyRing`` per (kind, n, p), specialised to
    the context (``_constraints``); each is checked at the depth where its last
    unknown is assigned, which gives the allowed values of that unknown as a
    bitmask.  Finished candidates are filtered by the shard of their
    lexicographic index (when there is more than one shard) and by the
    kind's leaf test, and sorted at the end.
    """
    p, k = spec.p, spec.coeff_count()
    polys = list(_constraints(spec).values())
    order = _variable_order(polys, k)
    pos = [0] * k  # pos[u]: the depth at which x_u is assigned
    for d, u in enumerate(order):
        pos[u] = d
    levels = _constraint_levels(polys, k, p, pos)
    values = _root_tables(p)[1]
    full = (1 << p) - 1
    last = k - 1
    shard_index, shard_count = spec.shard_index, spec.shard_count
    row = SEARCH_KINDS[spec.kind]
    place = [p ** (last - u) for u in range(k)]  # the lexicographic index of x[:k] is sum(place[u] * x[u])
    x = [0] * k + [1]  # x[k] = 1 carries the constant and linear terms
    out = []

    def visit(d: int) -> None:
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
        y = order[d]
        for val in values[mask]:
            x[y] = val
            if d < last:
                visit(d + 1)
            elif shard_count == 1 or sum(map(mul, place, x)) % shard_count == shard_index:
                coeffs = tuple(x[:k])
                if row.leaf is None or row.leaf(row.decode(spec.field, spec.dim, coeffs)):
                    out.append(coeffs)

    visit(0)
    out.sort()
    return out


def solution_to_object(spec: SearchSpec, coeffs: Sequence):
    """Interpret a flat solution vector back into a domain object over the
    spec's field; a vector of the wrong length raises ``DimMismatch``."""
    row = SEARCH_KINDS[spec.kind]
    count = row.count(spec.dim)
    if len(coeffs) != count:
        raise DimMismatch(f"a dimension-{spec.dim} {spec.kind} has {count} coefficients, got {len(coeffs)}")
    return row.decode(spec.field, spec.dim, coeffs)


def reverify(spec: SearchSpec, coeffs: Sequence) -> bool:
    """Re-check one solution through the generic object-path residual ops
    (the independent route; never the kernels, nor the constraint system)."""
    row = SEARCH_KINDS[spec.kind]
    obj = solution_to_object(spec, coeffs)
    return row.residual(obj, *(getattr(spec, name) for name in row.inputs)).is_zero and (row.leaf is None or row.leaf(obj))


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


@cache
def enumerated_dim2(field: PrimeField) -> list[Algebra]:
    """All dim-2 Novikov algebras over F_p, lexicographic, cached."""
    spec = SearchSpec("novikov-algebra", field, 2)
    return [solution_to_object(spec, s) for s in enumerate_search(spec).solutions]


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
