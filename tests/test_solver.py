import dataclasses
import itertools
import json
import random
from dataclasses import replace
from fractions import Fraction
from math import prod

import pytest
from conftest import commuting_novikov_tables, golden_counts

from novikov import solver
from novikov._kernels import pure
from novikov.algebra import Algebra, dual_context, novikov_residual, regular
from novikov.errors import DimMismatch, NovikovError, SpaceTooLarge
from novikov.fields import GF, QQ, Poly, PolyRing
from novikov.fixtures import example_algebra
from novikov.linalg import Matrix
from novikov.operators import LinMap, balanced_residual, bimodule_hom_residual, equivalent_residual
from novikov.residual import Failure, Residual
from novikov.solver import (
    SEARCH_KINDS,
    SearchSpec,
    _constraints,
    _nonzero_coords,
    _variable_order,
    balanced_hom_basis,
    balanced_hom_equivalent_basis,
    enumerate_search,
    enumerated_dim2,
    hom_map_basis,
    invariant_form_basis,
    invariant_symmetric_basis,
    reverify,
    sample_from_basis,
    solution_to_object,
    trunc_poly_algebra,
)
from novikov.tensors import Tensor2
from novikov.ybe import BilForm, bilform_invariance, invariance_residual


# the kinds whose residual reads a context algebra
CONTEXT_KINDS = [kind for kind, row in SEARCH_KINDS.items() if "algebra" in row.inputs]


def _golden_spec(key: str) -> SearchSpec:
    """'kind/context/Fp[/name=value...]': context 'dimN' (no algebra) or 'a2'."""
    kind, context, field_name, *params = key.split("/")
    field = GF(int(field_name[1:]))
    scalars = {name: int(value) for name, value in (param.split("=") for param in params)}
    if context == "a2":
        return SearchSpec(kind, field, 2, algebra=example_algebra(field), **scalars)
    return SearchSpec(kind, field, int(context.removeprefix("dim")), **scalars)


def test_goldens_match_enumeration():
    counts = golden_counts()
    for key, count in counts.items():
        assert len(enumerate_search(_golden_spec(key)).solutions) == count, key


def test_solutions_reverify_object_path():
    spec = SearchSpec("novikov-algebra", GF(3), 2)
    res = enumerate_search(spec)
    assert all(reverify(spec, s) for s in res.solutions)


@pytest.mark.parametrize("kind", SEARCH_KINDS)
def test_a_flat_vector_of_the_wrong_length_is_rejected(a2_f3, kind):
    # every kind reads exactly count(n) coefficients: a shorter or longer
    # vector is a dimension mismatch, not a wrong verdict or a traceback
    spec = SearchSpec(kind, GF(3), 2, algebra=a2_f3 if "algebra" in SEARCH_KINDS[kind].inputs else None)
    k = spec.coeff_count()
    solution_to_object(spec, (0,) * k)
    for coeffs in ((1,) * (k - 1), (0,) * (k + 1)):
        with pytest.raises(DimMismatch, match=f"has {k} coefficients, got {len(coeffs)}"):
            reverify(spec, coeffs)


def test_deterministic_and_sharded():
    spec = SearchSpec("novikov-algebra", GF(2), 2)
    r1 = enumerate_search(spec)
    r2 = enumerate_search(spec)
    assert r1.solutions == r2.solutions and r1.check_hash == r2.check_hash
    merged = []
    for i in range(4):
        shard = SearchSpec("novikov-algebra", GF(2), 2, shard_index=i, shard_count=4)
        merged.extend(enumerate_search(shard).solutions)
    assert sorted(merged) == r1.solutions


def test_nybe_search_contains_known_solution(a2_f3):
    spec = SearchSpec("nybe-solution", GF(3), 2, algebra=a2_f3)
    res = enumerate_search(spec)
    assert (0, 0, 0, 1) in res.solutions  # e2⊗e2
    assert all(reverify(spec, s) for s in res.solutions)
    assert len(res.solutions) == golden_counts()["nybe-solution/a2/F3"]


def test_rota_baxter_search_contains_identity(a2_f3):
    spec = SearchSpec("rota-baxter", GF(3), 2, algebra=a2_f3, weight=-1)
    res = enumerate_search(spec)
    assert (1, 0, 0, 1) in res.solutions
    assert all(reverify(spec, s) for s in res.solutions)


def test_one_context_has_one_id(a2_f3):
    # -1 and 2 are one weight over F_3, and 1/2 is 2 there too
    specs = [SearchSpec("rota-baxter", GF(3), 2, algebra=a2_f3, weight=w) for w in (-1, 2, Fraction(1, 2), "5")]
    assert {spec.weight for spec in specs} == {2}
    assert len({spec.context_hash() for spec in specs}) == 1
    with pytest.raises(NovikovError, match="denominator divisible by 3"):
        SearchSpec("rota-baxter", GF(3), 2, algebra=a2_f3, weight=Fraction(1, 3))


def test_search_guards():
    with pytest.raises(NovikovError):
        SearchSpec("novikov-algebra", GF(11), 2)
    with pytest.raises(NovikovError):
        SearchSpec("unknown-kind", GF(3), 2)
    with pytest.raises(SpaceTooLarge):
        enumerate_search(SearchSpec("novikov-algebra", GF(7), 3))  # 7^27 candidates


def _unknowns(obj) -> set:
    """The u of every unknown x_u in the polynomials an object holds."""
    if isinstance(obj, Poly):
        return {u for mono in obj for u in mono}
    if isinstance(obj, (tuple, list)):
        return set().union(*map(_unknowns, obj))
    if dataclasses.is_dataclass(obj):
        return set().union(*(_unknowns(getattr(obj, f.name)) for f in dataclasses.fields(obj)))
    return set()


@pytest.mark.parametrize("kind", SEARCH_KINDS)
def test_every_search_kind_row_is_self_consistent(kind):
    """A row's decoder reads exactly its unknown count of coefficients at
    every dimension, its inputs are spec fields, and every name ``nova
    solve`` takes names one kind."""
    row = SEARCH_KINDS[kind]
    ring = PolyRing(3)
    for n in (1, 2, 3):
        k = row.count(n)
        assert _unknowns(row.decode(ring, n, ring.variables(k))) == set(range(k)), n
    assert set(row.inputs) <= {f.name for f in dataclasses.fields(SearchSpec)}
    names = [name for other, r in SEARCH_KINDS.items() for name in {other, r.solve}]
    assert names.count(row.solve) == 1 and names.count(kind) == 1


@pytest.mark.parametrize(
    "beta",
    [LinMap.identity(QQ, 2), LinMap.identity(GF(3), 3), LinMap.zero(GF(3), 2, 1)],
    ids=["over-q", "3x3", "2x1"],
)
def test_spec_rejects_a_beta_of_another_field_or_shape(a2_f3, beta):
    with pytest.raises(NovikovError, match="beta must be a 2x2 map over GF"):
        SearchSpec("ext-o-operator", GF(3), 2, algebra=a2_f3, beta=beta)


def test_jsonl_round_trip(a2_f3):
    spec = SearchSpec("nybe-solution", GF(3), 2, algebra=a2_f3)
    res = enumerate_search(spec)
    lines = [json.loads(line) for line in res.to_jsonl().splitlines()]
    assert len(lines) == len(res.solutions)
    assert all(line["kind"] == "nybe-solution" for line in lines)
    assert [tuple(line["coeffs"]) for line in lines] == res.solutions


def test_enumerated_lexicographic_indexing():
    algs = enumerated_dim2(GF(2))
    flat = [tuple(int(x) for row in alg.mul for cell in row for x in cell) for alg in algs]
    assert flat == sorted(set(flat))
    assert all(novikov_residual(alg).is_zero for alg in algs)
    assert len(algs) == golden_counts()["novikov-algebra/dim2/F2"]


def test_balanced_hom_space_members_verify(a2):
    import random as _random

    reg = regular(a2)
    basis = balanced_hom_basis(reg)
    assert basis  # identity and the worked extension live here
    rng = _random.Random(4)
    for _ in range(5):
        beta = sample_from_basis(basis, rng, QQ)
        assert balanced_residual(reg, beta).is_zero
        assert bimodule_hom_residual(reg, beta).is_zero
    for beta in balanced_hom_equivalent_basis(reg):
        assert equivalent_residual(reg, beta, 1).is_zero


def test_invariant_spaces_verify(a2_f3):
    for s in invariant_symmetric_basis(a2_f3):
        assert invariance_residual(a2_f3, s).is_zero
    tp = trunc_poly_algebra(QQ, 3)
    for form in invariant_form_basis(tp):
        rep, _ = bilform_invariance(tp, form)
        assert rep.is_zero


def test_invariant_space_size_matches_bruteforce(a2_f3):
    # the linear solve and the exhaustive scan must agree exactly
    basis = invariant_symmetric_basis(a2_f3)
    spec = SearchSpec("invariant-symmetric-tensor", GF(3), 2, algebra=a2_f3)
    res = enumerate_search(spec)
    assert 3 ** len(basis) == len(res.solutions)


def _all_maps(ctx):
    f, n, m = ctx.field, ctx.alg.dim, ctx.mdim
    for coeffs in itertools.product(range(f.p), repeat=n * m):
        yield LinMap(Matrix(f, n, m, coeffs))


def _all_symmetric(alg, make):
    n = alg.dim
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    for coeffs in itertools.product(range(alg.field.p), repeat=len(pairs)):
        grid = [[0] * n for _ in range(n)]
        for (i, j), c in zip(pairs, coeffs):
            grid[i][j] = grid[j][i] = c
        yield make(alg.field, tuple(tuple(row) for row in grid))


MAP_SPACES = {
    "hom": (hom_map_basis, (bimodule_hom_residual,)),
    "balanced-hom": (balanced_hom_basis, (balanced_residual, bimodule_hom_residual)),
    "balanced-hom-equivalent": (
        balanced_hom_equivalent_basis,
        (balanced_residual, bimodule_hom_residual, lambda ctx, beta: equivalent_residual(ctx, beta, 1)),
    ),
}


def _space_cases(space, alg):
    """(basis, every candidate object, object-path predicate) per context."""
    if space == "invariant-symmetric":
        yield invariant_symmetric_basis(alg), _all_symmetric(alg, Tensor2), lambda s: invariance_residual(alg, s).is_zero
    elif space == "invariant-form":
        yield invariant_form_basis(alg), _all_symmetric(alg, BilForm), lambda b: bilform_invariance(alg, b)[0].is_zero
    else:
        basis_fn, residuals = MAP_SPACES[space]
        for ctx in (regular(alg, validate=False), dual_context(alg)):
            yield basis_fn(ctx), _all_maps(ctx), lambda beta, ctx=ctx: all(r(ctx, beta).is_zero for r in residuals)


@pytest.mark.parametrize("space", ["invariant-symmetric", "invariant-form", *MAP_SPACES])
@pytest.mark.parametrize("p", [2, 3])
def test_linear_space_sizes_match_bruteforce(p, space):
    # completeness, not just membership: the span of the basis holds every
    # object on which the object-path residuals vanish, and nothing else
    algs = enumerated_dim2(GF(p))
    if p != 2:
        algs = random.Random(5).sample(algs, 4)
    for alg in algs:
        for basis, candidates, holds in _space_cases(space, alg):
            assert sum(map(holds, candidates)) == p ** len(basis), (space, alg.mul)


# ---------------------------------------------------------------------------
# the search against a brute-force scan with the hand-written pure kernels


def _pure_accepts(spec: SearchSpec):
    """The scan's predicate for one flat candidate (dim 2)."""
    f, n, p = spec.field, spec.dim, spec.p
    if spec.kind == "novikov-algebra":
        return lambda c: pure.novikov_ok(c, n, p)
    alg = spec.algebra
    mul = tuple(int(alg.mul[i][j][k]) for i in range(n) for j in range(n) for k in range(n))
    beta = tuple(int(c) for c in spec.beta.mat.entries) if spec.beta is not None else None
    lam, kappa, mu, eps = (f.coerce(c) for c in (spec.weight, spec.kappa, spec.mu, spec.epsilon))

    def sym(c):  # upper triangle (b00, b01, b11) to the symmetric grid
        return (c[0], c[1], c[1], c[2])

    return {
        "nybe-solution": lambda c: pure.nybe_ok(mul, n, p, c),
        "enybe-solution": lambda c: pure.enybe_ok(mul, n, p, c, eps),
        "rota-baxter": lambda c: pure.rb_ok(mul, n, p, c, lam),
        "ext-o-operator": lambda c: pure.ext_o_regular_ok(mul, n, p, c, beta, lam, kappa, mu),
        "invariant-symmetric-tensor": lambda c: pure.invariant_symmetric_ok(mul, n, p, sym(c)),
        "quadratic-form": lambda c: pure.bilform_invariant_ok(mul, n, p, sym(c)) and (c[0] * c[2] - c[1] * c[1]) % p != 0,
    }[spec.kind]


def _scan(spec: SearchSpec) -> list:
    accepts = _pure_accepts(spec)
    candidates = itertools.product(range(spec.p), repeat=spec.coeff_count())  # lexicographic = index order
    return [c for idx, c in enumerate(candidates) if idx % spec.shard_count == spec.shard_index and accepts(c)]


def _differential_specs(kind: str, p: int):
    """The kind over F_p, dim 2, on a2, three enumerated contexts and the
    zero algebra (on which every context kind's residual vanishes
    identically), every scalar parameter and beta nonzero, unsharded and in
    2 and 3 shards."""
    f = GF(p)
    rng = random.Random(100 * p + list(SEARCH_KINDS).index(kind))
    if kind not in CONTEXT_KINDS:
        contexts = [{}]
    else:
        algebras = [example_algebra(f), *rng.sample(enumerated_dim2(f), 3), Algebra.zero(f, 2)]
        contexts = [{"algebra": alg} for alg in algebras]
    for context in contexts:
        scalars = {name: rng.randrange(1, p) for name in ("weight", "kappa", "mu", "epsilon")}
        beta = Matrix(f, 2, 2, (rng.randrange(1, p), rng.randrange(p), rng.randrange(p), rng.randrange(p)))
        for shards in (1, 2, 3):
            for i in range(shards):
                yield SearchSpec(kind, f, 2, beta=LinMap(beta), shard_index=i, shard_count=shards, **scalars, **context)


@pytest.mark.parametrize("kind", SEARCH_KINDS)
@pytest.mark.parametrize("p", [2, 3])
def test_search_matches_pure_scan(p, kind):
    for spec in _differential_specs(kind, p):
        res = enumerate_search(spec)
        assert res.solutions == _scan(spec), spec
        assert res.candidate_count == len(range(spec.shard_index, spec.candidate_total(), spec.shard_count))


def _order_specs():
    """(spec, shard counts): novikov-algebra dim 2 over F_2, F_3 and F_5 in
    1, 2 and 3 shards, and every context kind on a2 over F_3, every scalar
    parameter and beta nonzero, in 1 and 2 shards."""
    for p in (2, 3, 5):
        yield SearchSpec("novikov-algebra", GF(p), 2), (1, 2, 3)
    f = GF(3)
    beta = LinMap(Matrix(f, 2, 2, (1, 1, 0, 2)))
    for kind in CONTEXT_KINDS:
        yield SearchSpec(kind, f, 2, algebra=example_algebra(f), weight=1, kappa=1, mu=2, epsilon=1, beta=beta), (1, 2)


def _derived_order(spec: SearchSpec) -> list:
    return _variable_order(list(_constraints(spec).values()), spec.coeff_count())


@pytest.mark.parametrize(
    "spec",
    [*(spec for spec, _ in _order_specs()), SearchSpec("novikov-algebra", GF(2), 3)],
    ids=lambda spec: f"{spec.kind}-dim{spec.dim}-F{spec.p}",
)
def test_the_derived_order_is_a_permutation_of_the_unknowns(spec):
    k = spec.coeff_count()
    order = _derived_order(spec)
    assert sorted(order) == list(range(k))
    if spec.kind == "novikov-algebra":  # the index-order comparison below walks another tree
        assert order != list(range(k))


def test_the_variable_order_changes_nothing_but_speed(monkeypatch):
    shards = [
        replace(spec, shard_index=i, shard_count=count)
        for spec, counts in _order_specs()
        for count in counts
        for i in range(count)
    ]
    derived = [enumerate_search(spec) for spec in shards]
    monkeypatch.setattr("novikov.solver._variable_order", lambda polys, k: list(range(k)))
    for spec, res in zip(shards, derived):
        plain = enumerate_search(spec)
        assert plain.solutions == res.solutions, spec
        assert (plain.candidate_count, plain.check_hash) == (res.candidate_count, res.check_hash), spec


def test_novikov_dim2_f5_search_matches_the_kernel_scan(novikov_dim2_f5):
    assert enumerate_search(SearchSpec("novikov-algebra", GF(5), 2)).solutions == novikov_dim2_f5


def _symbolic_specs():
    """Every context kind on a2 over F_2 and F_3, every scalar parameter and
    beta nonzero, and novikov-algebra dim 2 over F_2."""
    yield SearchSpec("novikov-algebra", GF(2), 2)
    for p in (2, 3):
        f = GF(p)
        beta = LinMap(Matrix(f, 2, 2, (1, 1, 0, p - 1)))
        for kind in CONTEXT_KINDS:
            yield SearchSpec(kind, f, 2, algebra=example_algebra(f), weight=1, kappa=1, mu=p - 1, epsilon=1, beta=beta)


@pytest.mark.parametrize("spec", _symbolic_specs(), ids=lambda spec: f"{spec.kind}-F{spec.p}")
def test_symbolic_residual_equals_the_residual_at_every_point(spec):
    """The search's constraint polynomials, evaluated at every point of
    F_p^k, are the object-path residual's coordinates there, and the search
    keeps exactly the points that reverify."""
    p, k = spec.p, spec.coeff_count()
    polys = _constraints(spec)
    assert polys and all(all(0 < c < p for c in poly.values()) for poly in polys.values())
    points = list(itertools.product(range(p), repeat=k))
    row = SEARCH_KINDS[spec.kind]
    for x in points:
        values = {key: sum(c * prod(x[u] for u in mono) for mono, c in poly.items()) % p for key, poly in polys.items()}
        residual = row.residual(solution_to_object(spec, x), *(getattr(spec, name) for name in row.inputs))
        assert {key: v for key, v in values.items() if v} == dict(_nonzero_coords(residual)), x
    assert enumerate_search(spec).solutions == [x for x in points if reverify(spec, x)]


@pytest.fixture
def fresh_systems():
    """No constraint system built before the test, and none it built left
    behind for later tests."""
    clear = solver._system.cache_clear  # taken before a test replaces ``_system``
    clear()
    yield
    clear()


@pytest.mark.parametrize(
    "cubic",
    [lambda m: m[0][0][0] * m[0][1][1] * m[1][1][0], lambda m: m[1][1][0] * m[1][1][0] * m[1][1][0]],
    ids=["x0*x3*x6", "x6^3"],
)
def test_search_evaluates_its_residual_once_and_rejects_a_cubic(monkeypatch, fresh_systems, cubic):
    calls = []

    def counted(alg):
        calls.append(alg.field)
        return novikov_residual(alg)

    monkeypatch.setattr("novikov.solver.novikov_residual", counted)
    for _ in range(2):  # the second search specialises the system the first built
        assert len(enumerate_search(SearchSpec("novikov-algebra", GF(3), 2)).solutions) == 177
    assert calls == [PolyRing(3)]

    def cubic_residual(alg):  # one coordinate of degree 3 in the structure constants
        value = alg.field.reduce((cubic(alg.mul),))
        return Residual("cubic", (Failure("cubic", (), value),) if any(value) else ())

    solver._system.cache_clear()
    monkeypatch.setattr("novikov.solver.novikov_residual", cubic_residual)
    with pytest.raises(AssertionError, match="degree"):
        enumerate_search(SearchSpec("novikov-algebra", GF(3), 2))


def test_a_sweep_evaluates_each_kind_once_and_reverify_reads_no_system(monkeypatch, fresh_systems):
    """A sweep over every dim-2 table over F_3, for each context kind,
    evaluates each kind's residual over ``PolyRing`` once, and a second
    sweep not at all.  ``reverify``, with ``_system`` made to raise,
    evaluates over F_3 and accepts exactly the solutions found."""
    calls = []

    def counted(kind, residual):
        def inner(obj, *values):
            calls.append((kind, obj.field))
            return residual(obj, *values)

        return inner

    for kind in CONTEXT_KINDS:
        row = SEARCH_KINDS[kind]
        monkeypatch.setitem(SEARCH_KINDS, kind, replace(row, residual=counted(kind, row.residual)))
    f = GF(3)
    specs = [
        SearchSpec(kind, f, 2, algebra=alg, weight=1, kappa=1, mu=2, epsilon=1)
        for kind in CONTEXT_KINDS
        for alg in enumerated_dim2(f)
    ]
    found = [enumerate_search(spec).solutions for spec in specs]
    assert len(specs) == 6 * 177 and calls == [(kind, PolyRing(3)) for kind in CONTEXT_KINDS]
    assert [enumerate_search(spec).solutions for spec in specs] == found and len(calls) == 6
    calls.clear()

    def unreachable(*args):
        raise AssertionError("reverify read the constraint system")

    monkeypatch.setattr("novikov.solver._system", unreachable)
    for spec, solutions in zip(specs, found):
        k = spec.coeff_count()
        candidates = itertools.product(range(3), repeat=k) if spec.kind == "nybe-solution" else solutions
        assert [x for x in candidates if reverify(spec, x)] == solutions, spec
    assert {field for _, field in calls} == {f}


def _lifted_constraints(spec: SearchSpec) -> dict:
    """The oracle: the kind's residual over ``PolyRing(p)`` on the spec's
    own context lifted into the ring, its unknowns the search's alone."""
    row, ring, n = SEARCH_KINDS[spec.kind], PolyRing(spec.p), spec.dim
    lifted = []
    for name in row.inputs:
        value = getattr(spec, name)
        if name == "algebra":
            value = Algebra(ring, n, value.mul)
        elif name == "beta" and value is not None:
            value = LinMap(Matrix(ring, n, n, value.mat.entries))
        lifted.append(value)
    return dict(_nonzero_coords(row.residual(row.decode(ring, n, ring.variables(spec.coeff_count())), *lifted)))


def _rescaled_trunc3() -> Algebra:
    """trunc_poly_algebra(F_3, 3) in the basis e'_i = d_i e_i, d = (2, 1, 2),
    as the ``enumerate`` benchmark rescales it."""
    f, d = GF(3), (2, 1, 2)
    base = trunc_poly_algebra(f, 3).flat()
    # d_t is its own inverse in F_3
    table = [d[i] * d[j] * d[t] * base[(i * 3 + j) * 3 + t] for i in range(3) for j in range(3) for t in range(3)]
    return Algebra.from_flat(f, 3, table)


def _oracle_specs(group: str, dim3_f2_tables) -> list:
    """The specs of one group of ``test_specialised_constraints_equal_the_per_context_lifting``."""
    rng = random.Random(29)
    if group == "dim2-F3-every-table":  # beta None, and beta nonzero for ext-o
        f = GF(3)
        beta = LinMap(Matrix(f, 2, 2, (1, 1, 0, 2)))
        return [SearchSpec("novikov-algebra", f, 2)] + [
            SearchSpec(kind, f, 2, algebra=alg, weight=1, kappa=1, mu=2, epsilon=1, beta=b)
            for kind in CONTEXT_KINDS
            for b in ([None, beta] if kind == "ext-o-operator" else [None])
            for alg in enumerated_dim2(f)
        ]
    if group == "trunc3-rescaled-F3":  # the enumerate benchmark's six searches
        f, alg = GF(3), _rescaled_trunc3()
        shift = LinMap(Matrix(f, 3, 3, (0, 0, 0, 2, 0, 0, 0, 2, 0)))  # multiplication by x, rescaled
        scalars = {
            "enybe-solution": {"epsilon": 1},
            "rota-baxter": {"weight": -1},
            "ext-o-operator": {"weight": 1, "kappa": 1, "mu": 0, "beta": shift},
        }
        return [SearchSpec(kind, f, 3, algebra=alg, **scalars.get(kind, {})) for kind in CONTEXT_KINDS]
    if group == "dim3-F2-tables":
        f = GF(2)
        algebras = [Algebra.from_flat(f, 3, table) for table in dim3_f2_tables[::997]]
        specs = [SearchSpec(kind, f, 3, algebra=alg, weight=1, epsilon=1) for kind in CONTEXT_KINDS for alg in algebras]
        return [SearchSpec("novikov-algebra", f, 3), *specs]
    if group == "dim1":
        specs = [SearchSpec("novikov-algebra", GF(5), 1)]
        for kind in CONTEXT_KINDS:
            f = GF(rng.choice((2, 3, 5, 7)))
            alg = Algebra.from_flat(f, 1, [rng.randrange(1, f.p)])
            scalars = {name: rng.randrange(f.p) for name in ("weight", "kappa", "mu", "epsilon")}
            specs.append(SearchSpec(kind, f, 1, algebra=alg, **scalars))
        return specs
    # ext-o with beta None, zero and nonzero, the masses all zero and all
    # nonzero, and masses given as a fraction, a string and a negative int
    f = GF(5)
    specs = [
        SearchSpec("ext-o-operator", f, 2, algebra=example_algebra(f), weight=Fraction(1, 2), kappa="2/3", mu=-1, beta=b)
        for b in (None, LinMap(Matrix(f, 2, 2, (1, 1, 0, 2))))
    ]
    for alg in [example_algebra(f), *rng.sample(enumerated_dim2(f), 3)]:
        beta = LinMap(Matrix(f, 2, 2, tuple(rng.randrange(1, 5) for _ in range(4))))
        for b in (None, LinMap.zero(f, 2, 2), beta):
            for masses in ((0, 0, 0), tuple(rng.randrange(1, 5) for _ in range(3))):
                weight, kappa, mu = masses
                specs.append(SearchSpec("ext-o-operator", f, 2, algebra=alg, beta=b, weight=weight, kappa=kappa, mu=mu))
    return specs


@pytest.mark.parametrize(
    "group", ["dim2-F3-every-table", "trunc3-rescaled-F3", "dim3-F2-tables", "dim1", "ext-o-masses-and-beta"]
)
def test_specialised_constraints_equal_the_per_context_lifting(fresh_systems, novikov_dim3_f2, group):
    """Each search's constraints, its kind's system for (n, p) specialised to
    its context, have the keys, order and polynomials of the residual
    evaluated on that context lifted into the ring."""
    specs = _oracle_specs(group, novikov_dim3_f2[1])
    assert specs
    for spec in specs:
        assert list(_constraints(spec).items()) == list(_lifted_constraints(spec).items()), spec


@pytest.mark.parametrize("field, dim", [(GF(3), 3), (GF(5), 2)], ids=["dimension", "field"])
def test_a_context_of_another_dimension_or_field_is_refused(a2_f3, field, dim):
    with pytest.raises(NovikovError, match="context algebra does not match the search spec"):
        SearchSpec("nybe-solution", field, dim, algebra=a2_f3)


def _mat_mul(a, b):
    return tuple(tuple(sum(a[i][t] * b[t][j] for t in range(3)) % 2 for j in range(3)) for i in range(3))


def _change_basis(table, g, g_inv):
    """Structure constants in the basis f_a = sum_i g[i][a] e_i."""
    n = 3
    mul = [[[table[(i * n + j) * n + k] for k in range(n)] for j in range(n)] for i in range(n)]
    return tuple(
        sum(g[i][a] * g[j][b] * mul[i][j][k] * g_inv[c][k] for i in range(n) for j in range(n) for k in range(n)) % 2
        for a in range(n)
        for b in range(n)
        for c in range(n)
    )


def test_commuting_tuple_oracle_matches_the_search(novikov_dim3_f2):
    """The commuting-tuple oracle (no search, no polarization) gives the
    golden Novikov counts and the search's very tables."""
    counts = golden_counts()
    for p, right_commutative in ((2, 88), (3, 945)):
        rc, tables = commuting_novikov_tables(2, p)
        assert rc == right_commutative and len(tables) == counts[f"novikov-algebra/dim2/F{p}"]
        assert tables == enumerate_search(SearchSpec("novikov-algebra", GF(p), 2)).solutions
    rc, tables = novikov_dim3_f2
    assert rc == 75776 and len(tables) == counts["novikov-algebra/dim3/F2"] == 3984


def test_novikov_dim3_f2_reverify_and_gl3_closure(novikov_dim3_f2):
    spec = SearchSpec("novikov-algebra", GF(2), 3)
    solutions = enumerate_search(spec).solutions
    assert len(solutions) == golden_counts()["novikov-algebra/dim3/F2"]
    assert solutions == novikov_dim3_f2[1]
    assert all(reverify(spec, s) for s in solutions)
    transvection = ((1, 1, 0), (0, 1, 0), (0, 0, 1))
    cycle = ((0, 0, 1), (1, 0, 0), (0, 1, 0))
    group, frontier = {transvection, cycle}, [transvection, cycle]
    while frontier:
        frontier = [h for h in {_mat_mul(g, t) for g in frontier for t in (transvection, cycle)} if h not in group]
        group.update(frontier)
    assert len(group) == 168  # the two generators span GL_3(F_2)
    identity = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    found = set(solutions)
    for g in (transvection, cycle):
        g_inv = next(h for h in group if _mat_mul(g, h) == identity)
        assert all(_change_basis(s, g, g_inv) in found for s in solutions)
