"""Brute-force enumeration over small prime fields and seeded random
instance generation: the independent oracle behind the property sweeps."""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Iterator, Optional, Sequence

from . import _kernels as kernels
from .algebra import Algebra, BimodNov, novikov_residual, regular
from .errors import NovikovError, SpaceTooLarge
from .fields import Field, GF, PrimeField, QQ
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
from .residual import Residual
from .tensors import Tensor2
from .ybe import enybe_residual, invariance_residual, nybe_residual, bilform_invariance, BilForm

SEARCH_KINDS = (
    "novikov-algebra",
    "nybe-solution",
    "enybe-solution",
    "ext-o-operator",
    "rota-baxter",
    "invariant-symmetric-tensor",
    "quadratic-form",
)

ALLOWED_PRIMES = (2, 3, 5, 7)
CANDIDATE_BOUND = 2**32


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
        if self.kind != "novikov-algebra":
            if self.algebra is None:
                raise NovikovError(f"search kind {self.kind!r} needs a context algebra")
            if self.algebra.dim != self.dim or self.algebra.field != self.field:
                raise NovikovError("context algebra does not match the search spec")

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
    elapsed_ms: int
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


def _digits(idx: int, count: int, p: int) -> tuple:
    out = [0] * count
    for m in range(count - 1, -1, -1):
        out[m] = idx % p
        idx //= p
    return tuple(out)


def _candidates(spec: SearchSpec) -> Iterator[tuple[int, tuple]]:
    total = spec.candidate_total()
    count = spec.coeff_count()
    p = spec.p
    for idx in range(total):
        if idx % spec.shard_count != spec.shard_index:
            continue
        yield idx, _digits(idx, count, p)


def _sym_unpack(coeffs: tuple, n: int) -> tuple:
    """Upper-triangle coefficients to a flat symmetric n*n grid."""
    grid = [0] * (n * n)
    t = 0
    for i in range(n):
        for j in range(i, n):
            grid[i * n + j] = coeffs[t]
            grid[j * n + i] = coeffs[t]
            t += 1
    return tuple(grid)


def _sym_grid(coeffs: Sequence, n: int) -> tuple:
    """Upper-triangle coefficients to a nested symmetric n x n grid."""
    flat = _sym_unpack(coeffs, n)
    return tuple(flat[i * n : (i + 1) * n] for i in range(n))


def _accepts(spec: SearchSpec):
    """Returns the kernel-backed predicate for one flat candidate."""
    p = spec.p
    n = spec.dim
    if spec.kind == "novikov-algebra":
        return lambda c: kernels.novikov_ok(c, n, p)
    mul = tuple(_alg_flat(spec.algebra))
    if spec.kind == "nybe-solution":
        return lambda c: kernels.nybe_ok(mul, n, p, c)
    if spec.kind == "enybe-solution":
        eps = spec.field.coerce(spec.epsilon)
        return lambda c: kernels.enybe_ok(mul, n, p, c, eps)
    if spec.kind == "rota-baxter":
        lam = spec.field.coerce(spec.weight)
        return lambda c: kernels.rb_ok(mul, n, p, c, lam)
    if spec.kind == "ext-o-operator":
        lam = spec.field.coerce(spec.weight)
        kap = spec.field.coerce(spec.kappa)
        m = spec.field.coerce(spec.mu)
        beta_flat = tuple(int(x) for x in spec.beta.mat.entries) if spec.beta is not None else None
        return lambda c: kernels.ext_o_regular_ok(mul, n, p, c, beta_flat, lam, kap, m)
    if spec.kind == "invariant-symmetric-tensor":
        return lambda c: kernels.invariant_symmetric_ok(mul, n, p, _sym_unpack(c, n))
    if spec.kind == "quadratic-form":
        def accept(c):
            grid = _sym_unpack(c, n)
            if not kernels.bilform_invariant_ok(mul, n, p, grid):
                return False
            form = BilForm(spec.field, tuple(tuple(grid[i * n + j] for j in range(n)) for i in range(n)))
            return form.is_nondegenerate()

        return accept
    raise NovikovError(spec.kind)


def enumerate_search(spec: SearchSpec, jobs: int = 1) -> SearchResult:
    """Exhaustive lexicographic scan of the coefficient space.

    With ``jobs`` > 1 an unsharded scan is split into that many shards, each
    scanned in its own worker process, and the shards are merged back.
    """
    total = spec.candidate_total()
    if total > CANDIDATE_BOUND:
        raise SpaceTooLarge(f"{total} candidates exceed the {CANDIDATE_BOUND} bound")
    t0 = time.perf_counter()
    if spec.kind == "novikov-algebra" and spec.dim == 2 and spec.shard_count == 1:
        solutions = [tuple(s) for s in kernels.enumerate_novikov_dim2(spec.p)]
        count = total
    elif jobs > 1 and spec.shard_count == 1:
        import multiprocessing  # imported here: it adds ~10% to every cold start

        shards = [replace(spec, shard_index=i, shard_count=jobs) for i in range(jobs)]
        with multiprocessing.get_context("spawn").Pool(jobs) as pool:
            parts = pool.map(enumerate_search, shards)
        # lexicographic coefficient order equals candidate-index order
        solutions = sorted(sol for part in parts for sol in part.solutions)
        count = sum(part.candidate_count for part in parts)
    else:
        accept = _accepts(spec)
        solutions = []
        count = 0
        for _idx, cand in _candidates(spec):
            count += 1
            if accept(cand):
                solutions.append(cand)
    elapsed = int((time.perf_counter() - t0) * 1000)
    blob = json.dumps([list(s) for s in solutions]).encode()
    h = hashlib.sha256(blob).hexdigest()
    return SearchResult(spec, solutions, count, elapsed, h)


def solution_to_object(spec: SearchSpec, coeffs: Sequence):
    """Interpret a flat solution vector back into a domain object."""
    f = spec.field
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
    obj = solution_to_object(spec, coeffs)
    if spec.kind == "novikov-algebra":
        return novikov_residual(obj).is_zero
    alg = spec.algebra
    if spec.kind == "nybe-solution":
        return nybe_residual(alg, obj).is_zero()
    if spec.kind == "enybe-solution":
        return enybe_residual(alg, obj, spec.epsilon).is_zero()
    if spec.kind == "rota-baxter":
        return rota_baxter_residual(alg, obj, spec.weight).is_zero
    if spec.kind == "ext-o-operator":
        ctx = regular(alg, validate=False)
        params = MassParams(spec.weight, spec.kappa, spec.mu)
        return ext_o_equation_residual(ctx, obj, spec.beta, params).is_zero
    if spec.kind == "invariant-symmetric-tensor":
        return invariance_residual(alg, obj, cross_check=False).is_zero
    if spec.kind == "quadratic-form":
        rep, quad = bilform_invariance(alg, obj)
        return rep.is_zero and quad
    raise NovikovError(spec.kind)


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


def random_instance(seed: int, family: str, field: Field = QQ, n: int = 2, shape=None):
    """Reproducible instance generation.

    Families: ``trunc-poly-novikov`` (always a Novikov algebra),
    ``enumerated-dim2`` (indexes into the exhaustive list by seed),
    ``random-maps-over-Fp`` (a seeded matrix of the requested shape).
    """
    rng = random.Random(seed)
    if family == "trunc-poly-novikov":
        return trunc_poly_algebra(field, n)
    if family == "enumerated-dim2":
        algs = enumerated_dim2(field)
        return algs[seed % len(algs)]
    if family == "random-maps-over-Fp":
        rows, cols = shape if shape is not None else (n, n)
        return random_matrix(field, rows, cols, rng)
    raise NovikovError(f"unknown family {family!r}")


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
            for fail in residual(unit).failures:
                for k, c in enumerate(fail.value):
                    if not field.is_zero(c):
                        key = (which, fail.identity, fail.indices, k)
                        rows.setdefault(key, [field.zero()] * len(units))[col] = c
    mat = Matrix.from_rows(field, rows.values()) if rows else Matrix.zeros(field, 1, len(units))
    return [vec.coords for vec in kernel_basis(mat)]


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
    return _symmetric_space(alg.field, alg.dim, Tensor2, lambda s: invariance_residual(alg, s, cross_check=False))


def invariant_form_basis(alg: Algebra) -> list[BilForm]:
    """Basis of invariant symmetric bilinear forms."""
    return _symmetric_space(alg.field, alg.dim, BilForm, lambda form: bilform_invariance(alg, form)[0])


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


def golden_counts() -> dict:
    """Pinned enumeration counts; NOVA_GOLDEN_DIR overrides the location."""
    import os

    base = os.environ.get("NOVA_GOLDEN_DIR")
    if base is None:
        base = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))), "goldens")
        if not os.path.isdir(base):
            base = os.path.join(os.getcwd(), "goldens")
    path = os.path.join(base, "counts.json")
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
