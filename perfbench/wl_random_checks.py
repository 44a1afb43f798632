"""Workload ``random-checks``: seeded random points fed straight to the
``_kernels`` predicates, one batch per predicate, every call timed.

Why: this is per-call kernel cost with no search order to exploit, so a
kernel change shows here and a search-engine change should not.

Tables are random bilinear products (dim 2 over F5, dim 3 over F3), not
Novikov tables: each predicate is a plain identity check, and the
hkappa / shifted Rota-Baxter equivalence holds for any product.  Zero maps,
tensors and forms satisfy every identity, so each batch also times the
full evaluation and not only early rejection.

Checks: every verdict equals the batch's first verdict stream; zero points
are accepted; every eighth point agrees with the object-path residual; the
hkappa and shifted rb_ok verdicts agree pairwise; the stream hash matches a
pin when the seed has one; and, when the compiled kernels import, pure and
compiled verdicts agree on every point.
"""

from __future__ import annotations

import importlib
import random
import statistics
import time
from array import array

from harness import Op, Outcome, sha

from novikov import _kernels as kernels
from novikov.algebra import Algebra, novikov_residual, regular
from novikov.fields import GF
from novikov.linalg import Matrix
from novikov.operators import LinMap, MassParams, ext_o_equation_residual, rota_baxter_residual
from novikov.tensors import Tensor2
from novikov.ybe import (
    BilForm,
    bilform_invariance,
    enybe_residual,
    invariance_residual,
    nybe_residual,
    o_nybe_residual,
)

PREDICATES = (
    "novikov_ok",
    "nybe_ok",
    "o_nybe_ok",
    "enybe_ok",
    "ext_o_regular_ok",
    "rb_ok",
    "hkappa_ok",
    "invariant_symmetric_ok",
    "bilform_invariant_ok",
)
# (p, dim, number of random tables)
FAMILIES = ((5, 2, 240), (3, 3, 120))
ORACLE_EVERY = 8
# Per-call times are kept for the first executions of each batch only, so
# memory does not grow with the number of passes that fit in a run.
KEPT_EXECUTIONS = 21


def _rand(rng, p, k):
    return tuple(rng.randrange(p) for _ in range(k))


def _symmetric(rng, p, n):
    grid = [0] * (n * n)
    for i in range(n):
        for j in range(i, n):
            grid[i * n + j] = grid[j * n + i] = rng.randrange(p)
    return tuple(grid)


def make_points(seed: int, families=FAMILIES) -> dict:
    """Seeded points per predicate: lists of (args, tag) where tag is
    "zero" for points that satisfy the identity, ("pair", k) for the k-th
    hkappa / shifted-rb pair, or None."""
    rng = random.Random(seed)
    points = {name: [] for name in PREDICATES}
    pair = 0
    for p, n, count in families:
        nn = n * n
        zero = (0,) * nn
        ident = tuple(1 if i == j else 0 for i in range(n) for j in range(n))
        for _ in range(count):
            mul = _rand(rng, p, nn * n)
            points["novikov_ok"].append(((mul, n, p), None))
            for name in ("nybe_ok", "o_nybe_ok"):
                points[name].append(((mul, n, p, _rand(rng, p, nn)), None))
                points[name].append(((mul, n, p, zero), "zero"))
            eps = rng.randrange(1, p)
            points["enybe_ok"].append(((mul, n, p, _rand(rng, p, nn), eps), None))
            points["enybe_ok"].append(((mul, n, p, zero, eps), "zero"))
            lam, kappa, mu = _rand(rng, p, 3)
            points["ext_o_regular_ok"].append(
                ((mul, n, p, _rand(rng, p, nn), _rand(rng, p, nn), lam, kappa, mu), None))
            points["ext_o_regular_ok"].append(((mul, n, p, zero, zero, lam, kappa, mu), "zero"))
            points["rb_ok"].append(((mul, n, p, zero, rng.randrange(p)), "zero"))
            t = _rand(rng, p, nn)
            for lam in (0, 1, 2):
                for sign in (1, -1):
                    hk = (-1 + sign * lam) % p
                    shifted = tuple((a + sign * b) % p for a, b in zip(t, ident))
                    points["hkappa_ok"].append(((mul, n, p, t, lam, hk), ("pair", pair)))
                    points["rb_ok"].append(((mul, n, p, shifted, (lam - 2 * sign) % p), ("pair", pair)))
                    pair += 1
            for name in ("invariant_symmetric_ok", "bilform_invariant_ok"):
                points[name].append(((mul, n, p, _symmetric(rng, p, n)), None))
                points[name].append(((mul, n, p, zero), "zero"))
    return points


def _algebra(mul, n, p) -> Algebra:
    grid = tuple(tuple(tuple(mul[(i * n + j) * n + k] for k in range(n)) for j in range(n)) for i in range(n))
    return Algebra(GF(p), n, grid)


def _tensor(f, flat, n):
    return tuple(tuple(flat[i * n + j] for j in range(n)) for i in range(n))


def oracle(name: str, args) -> bool:
    """The same verdict from the object-path residuals."""
    mul, n, p = args[:3]
    f = GF(p)
    alg = _algebra(mul, n, p)
    if name == "novikov_ok":
        return novikov_residual(alg).is_zero
    if name == "nybe_ok":
        return nybe_residual(alg, Tensor2(f, _tensor(f, args[3], n))).is_zero()
    if name == "o_nybe_ok":
        return o_nybe_residual(alg, Tensor2(f, _tensor(f, args[3], n))).is_zero
    if name == "enybe_ok":
        return enybe_residual(alg, Tensor2(f, _tensor(f, args[3], n)), args[4]).is_zero()
    if name == "rb_ok":
        return rota_baxter_residual(alg, LinMap(Matrix(f, n, n, args[3])), args[4]).is_zero
    ctx = regular(alg, validate=False)
    if name == "ext_o_regular_ok":
        t, beta, lam, kappa, mu = args[3:]
        return ext_o_equation_residual(
            ctx, LinMap(Matrix(f, n, n, t)), LinMap(Matrix(f, n, n, beta)), MassParams(lam, kappa, mu)).is_zero
    if name == "hkappa_ok":
        t, lam, hk = args[3:]
        return ext_o_equation_residual(
            ctx, LinMap(Matrix(f, n, n, t)), LinMap.identity(f, n), MassParams(lam, hk, 0)).is_zero
    if name == "invariant_symmetric_ok":
        return invariance_residual(alg, Tensor2(f, _tensor(f, args[3], n)), cross_check=False).is_zero
    if name == "bilform_invariant_ok":
        return bilform_invariance(alg, BilForm(f, _tensor(f, args[3], n)))[0].is_zero
    raise ValueError(name)


class RandomChecks:
    name = "random-checks"
    max_passes = 1000

    def __init__(self, root: str, seed: int, pins: dict, goldens: dict, families=FAMILIES):
        self.seed = seed
        self.pin = pins.get("random-checks/verdicts", {}).get(str(seed))
        self.points = make_points(seed, families)
        self.ops = [Op(name, self._batch(name)) for name in PREDICATES]
        self.reference = {}
        self.call_s = {name: [] for name in PREDICATES}

    def _batch(self, name):
        points = self.points[name]

        def run():
            # Looked up on every execution so that a traced run sees the wrapper.
            fn = getattr(kernels, name)
            clock = time.perf_counter_ns
            verdicts = []
            times = array("q")
            for args, _tag in points:
                t0 = clock()
                v = fn(*args)
                times.append(clock() - t0)
                verdicts.append(v)
            return verdicts, times

        return run

    def check(self, op: Op, out, scale: float = 1.0) -> Outcome:
        verdicts, times = out
        if len(self.call_s[op.name]) < KEPT_EXECUTIONS:
            self.call_s[op.name].append(array("d", (t * scale / 1e9 for t in times)))
        points = self.points[op.name]
        outcome = Outcome(attempted=len(verdicts))
        ref = self.reference.get(op.name)
        if ref is None:
            self.reference[op.name] = ref = verdicts
            bad = sum(1 for k in range(0, len(points), ORACLE_EVERY)
                      if bool(verdicts[k]) != oracle(op.name, points[k][0]))
            if bad:
                outcome.fail(f"{op.name}: {bad} verdicts disagree with the object path", bad)
        else:
            bad = sum(1 for a, b in zip(verdicts, ref) if bool(a) != bool(b))
            if bad:
                outcome.fail(f"{op.name}: {bad} verdicts changed between executions", bad)
        rejected = sum(1 for v, (_a, tag) in zip(verdicts, points) if tag == "zero" and not v)
        if rejected:
            outcome.fail(f"{op.name}: {rejected} points satisfying the identity were rejected", rejected)
        return outcome

    def stream_hash(self) -> str:
        return sha({name: [bool(v) for v in self.reference[name]] for name in PREDICATES})

    def finish(self) -> list:
        outcomes = []
        rb = {tag[1]: v for v, (_a, tag) in zip(self.reference["rb_ok"], self.points["rb_ok"])
              if isinstance(tag, tuple)}
        hk = [(tag[1], v) for v, (_a, tag) in zip(self.reference["hkappa_ok"], self.points["hkappa_ok"])]
        pairs = Outcome(attempted=len(hk))
        bad = sum(1 for k, v in hk if bool(v) != bool(rb[k]))
        if bad:
            pairs.fail(f"hkappa_ok and shifted rb_ok disagree on {bad} pairs", bad)
        outcomes.append(pairs)
        if self.pin is not None:
            pinned = Outcome()
            if self.stream_hash() != self.pin:
                pinned.fail(f"verdict stream hash differs from the pin for seed {self.seed}")
            outcomes.append(pinned)
        self.differential = self._differential()
        if isinstance(self.differential, Outcome):
            outcomes.append(self.differential)
        return outcomes

    def _differential(self):
        """Pure against compiled verdicts on every point, when the compiled
        kernels import; otherwise the reason they were skipped."""
        try:
            fast = importlib.import_module("novikov._kernels._fast")
        except ImportError as exc:
            return f"skipped: compiled kernels not importable ({exc})"
        pure = kernels.pure
        outcome = Outcome(attempted=0)
        for name in PREDICATES:
            for args, _tag in self.points[name]:
                outcome.attempted += 1
                if bool(getattr(pure, name)(*args)) != bool(getattr(fast, name)(*args)):
                    outcome.fail(f"{name}: pure and compiled verdicts differ on {args}")
        outcome.attempted += 1
        if pure.enumerate_novikov_dim2(3) != [tuple(t) for t in fast.enumerate_novikov_dim2(3)]:
            outcome.fail("enumerate_novikov_dim2(3): pure and compiled lists differ")
        return outcome

    def latency_samples(self, samples) -> list:
        """Per point, the median of its kept (scaled) call times."""
        return [statistics.median(column) for name in PREDICATES for column in zip(*self.call_s[name])]
