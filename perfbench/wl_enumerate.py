"""Workload ``enumerate``: exhaustive searches through
``solver.enumerate_search``, every solution re-checked with ``reverify``.

Why: almost all of the time is ``_kernels`` predicates and the solver's
candidate loop, with little object-path work, so a search-engine change
shows here and an object-path change should not.

The six context searches run over ``trunc_poly_algebra(GF(3), 3)`` in a
basis rescaled by seeded nonzero scalars.  Rescaling maps candidates to
candidates and keeps every residual coordinate's zero pattern, so each
seed does the same work (a permutation of the basis would not: it moves
where the kernels exit early), while the solution counts are invariant
and the solutions, mapped back to the original basis, hash to the same
pinned value for every seed.
"""

from __future__ import annotations

import random

from harness import Op, Outcome, op_medians, sha

from novikov import solver
from novikov.algebra import Algebra
from novikov.fields import GF
from novikov.linalg import Matrix
from novikov.operators import LinMap

P = 3
N = 3
# beta = multiplication by x on the basis 1, x, x^2: column j is beta(e_j).
SHIFT = (0, 0, 0, 1, 0, 0, 0, 1, 0)
CONTEXT_SEARCHES = (
    ("nybe", "nybe-solution", {}),
    ("enybe", "enybe-solution", {"epsilon": 1}),
    ("rota-baxter", "rota-baxter", {"weight": -1}),
    ("ext-o", "ext-o-operator", {"weight": 1, "kappa": 1, "mu": 0}),
    ("invariant-symmetric-tensor", "invariant-symmetric-tensor", {}),
    ("quadratic-form", "quadratic-form", {}),
)


class Rescaling:
    """The basis change e'_i = d_i e_i of F_p^n and its action on tables,
    maps, tensors and forms, all as flat coefficient tuples."""

    def __init__(self, rng: random.Random, n: int, p: int):
        self.n, self.p = n, p
        self.d = [rng.randrange(1, p) for _ in range(n)]

    def _inv(self, x: int) -> int:
        return pow(x, self.p - 2, self.p)

    def table(self, mul) -> tuple:
        n, p, d = self.n, self.p, self.d
        return tuple(d[i] * d[j] * self._inv(d[k]) * mul[(i * n + j) * n + k] % p
                     for i in range(n) for j in range(n) for k in range(n))

    def map_to(self, t) -> tuple:
        n, p, d = self.n, self.p, self.d
        return tuple(d[j] * self._inv(d[i]) * t[i * n + j] % p for i in range(n) for j in range(n))

    def map_back(self, t) -> tuple:
        n, p, d = self.n, self.p, self.d
        return tuple(d[i] * self._inv(d[j]) * t[i * n + j] % p for i in range(n) for j in range(n))

    def tensor_back(self, r) -> tuple:
        n, p, d = self.n, self.p, self.d
        return tuple(d[i] * d[j] * r[i * n + j] % p for i in range(n) for j in range(n))

    def form_back(self, b) -> tuple:
        n, p, d = self.n, self.p, self.d
        return tuple(self._inv(d[i] * d[j] % p) * b[i * n + j] % p for i in range(n) for j in range(n))


def _flat(alg: Algebra) -> tuple:
    n = alg.dim
    return tuple(int(alg.mul[i][j][k]) for i in range(n) for j in range(n) for k in range(n))


def _algebra(field, mul) -> Algebra:
    n = round(len(mul) ** (1 / 3))
    return Algebra(field, n, tuple(
        tuple(tuple(mul[(i * n + j) * n + k] for k in range(n)) for j in range(n)) for i in range(n)))


def _sym(upper, n: int) -> tuple:
    """Upper-triangle coefficients (the search's layout) to a flat symmetric grid."""
    grid = [0] * (n * n)
    it = iter(upper)
    for i in range(n):
        for j in range(i, n):
            grid[i * n + j] = grid[j * n + i] = next(it)
    return tuple(grid)


def _upper(grid, n: int) -> tuple:
    return tuple(grid[i * n + j] for i in range(n) for j in range(i, n))


class Enumerate:
    name = "enumerate"
    max_passes = 1000

    def __init__(self, root: str, seed: int, pins: dict, goldens: dict):
        self.pins = pins
        self.golden_dim2 = goldens["novikov-algebra/dim2/F5"]
        f5, f3 = GF(5), GF(P)
        self.basis = Rescaling(random.Random(seed), N, P)
        base = solver.trunc_poly_algebra(f3, N)
        alg = _algebra(f3, self.basis.table(_flat(base)))
        beta = LinMap(Matrix(f3, N, N, self.basis.map_to(SHIFT)))
        self.specs = {
            "novikov-algebra/dim2/F5": solver.SearchSpec("novikov-algebra", f5, 2),
            "novikov-algebra/dim2/F5/shard0of2": solver.SearchSpec(
                "novikov-algebra", f5, 2, shard_index=0, shard_count=2),
            "novikov-algebra/dim2/F5/shard1of2": solver.SearchSpec(
                "novikov-algebra", f5, 2, shard_index=1, shard_count=2),
        }
        for label, kind, params in CONTEXT_SEARCHES:
            extra = {k: f3.coerce(v) for k, v in params.items()}
            if kind == "ext-o-operator":
                extra["beta"] = beta
            self.specs[f"{label}/trunc3/F3"] = solver.SearchSpec(kind, f3, N, algebra=alg, **extra)
        self.ops = [Op(name, self._search(spec)) for name, spec in self.specs.items()]
        self.last = {}

    @staticmethod
    def _search(spec):
        def run():
            res = solver.enumerate_search(spec)
            return res, all(solver.reverify(spec, c) for c in res.solutions)

        return run

    def canonical(self, spec, solutions) -> list:
        """Solutions in the original basis of the context, sorted."""
        if spec.kind == "novikov-algebra":
            return [list(s) for s in solutions]
        back = {
            "nybe-solution": self.basis.tensor_back,
            "enybe-solution": self.basis.tensor_back,
            "rota-baxter": self.basis.map_back,
            "ext-o-operator": self.basis.map_back,
            "invariant-symmetric-tensor": lambda c: _upper(self.basis.tensor_back(_sym(c, N)), N),
            "quadratic-form": lambda c: _upper(self.basis.form_back(_sym(c, N)), N),
        }[spec.kind]
        return sorted(list(back(c)) for c in solutions)

    def check(self, op: Op, out, scale: float = 1.0) -> Outcome:
        res, reverified = out
        spec = self.specs[op.name]
        self.last[op.name] = res
        pin = self.pins[op.name]
        reasons = []
        expected_candidates = len(range(spec.shard_index, spec.candidate_total(), spec.shard_count))
        if res.candidate_count != expected_candidates:
            reasons.append(f"{op.name}: {res.candidate_count} candidates, expected {expected_candidates}")
        if len(res.solutions) != pin["count"]:
            reasons.append(f"{op.name}: {len(res.solutions)} solutions, pinned {pin['count']}")
        if op.name == "novikov-algebra/dim2/F5" and len(res.solutions) != self.golden_dim2:
            reasons.append(f"{op.name}: {len(res.solutions)} solutions, golden {self.golden_dim2}")
        if sha(self.canonical(spec, res.solutions)) != pin["hash"]:
            reasons.append(f"{op.name}: solution hash differs from the pin")
        if not reverified:
            reasons.append(f"{op.name}: a solution failed reverify")
        return Outcome(1, 1 if reasons else 0, reasons)

    def finish(self) -> list:
        """The union of the two shards equals the unsharded stream."""
        whole = self.last["novikov-algebra/dim2/F5"].solutions
        union = sorted(self.last["novikov-algebra/dim2/F5/shard0of2"].solutions
                       + self.last["novikov-algebra/dim2/F5/shard1of2"].solutions)
        outcome = Outcome()
        if sha([list(s) for s in union]) != sha([list(s) for s in whole]):
            outcome.fail("shard union differs from the unsharded search")
        return [outcome]

    def latency_samples(self, samples) -> list:
        return op_medians(samples.times)
