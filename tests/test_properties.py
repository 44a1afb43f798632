"""Every named property must pass with genuine (non-vacuous) coverage."""

import json
from dataclasses import replace
from itertools import islice, product
from types import SimpleNamespace

import pytest
from conftest import REPO

from novikov import properties, solver
from novikov.algebra import (
    Algebra,
    Bimodule,
    abnova_residual,
    bimodule_residual,
    novikov_residual,
    regular_bimodule,
    semidirect,
)
from novikov.cli import main
from novikov.fields import GF, QQ, PolyRing
from novikov.fixtures import example_algebra
from novikov.lift import double, generalized_o_residual, gnybe_flag, lift_map
from novikov.linalg import Matrix
from novikov.operators import LinMap
from novikov.properties import PROPERTY_IDS, PropertyRun, run_property
from novikov.residual import Failure, Residual, ResidualCollector
from novikov.solver import SEARCH_KINDS, SearchSpec, enumerate_search, enumerated_dim2, reverify, trunc_poly_algebra
from novikov.tensors import Tensor2
from novikov.ybe import nybe_residual, o_nybe_residual

# properties whose default run must also exercise hypothesis-satisfying
# instances (all of them, by design)
EXPECT_HITS = set(PROPERTY_IDS)


@pytest.mark.parametrize("prop_id", PROPERTY_IDS)
def test_property_passes(prop_id):
    res = run_property(prop_id, trials=12, seed=3)
    assert res.passed, res.failures[:3]
    assert res.checked > 0
    if prop_id in EXPECT_HITS:
        assert res.hypothesis_hits > 0, "vacuous run"


def test_counts_match_the_benchmark_pins():
    # the properties workload's pins: every (checked, hypothesis_hits) at
    # trials 1, seed 7, over QQ and F_3, so a refactor that moves a count
    # fails here before the benchmark sees it
    pins = json.loads((REPO / "perfbench" / "pins.json").read_text(encoding="utf-8"))
    got, want = {}, {}
    for name, field in (("QQ", QQ), ("F3", GF(3))):
        for prop_id in PROPERTY_IDS:
            key = f"{prop_id}/{name}/seed7"
            res = run_property(prop_id, trials=1, seed=7, field=field)
            assert res.passed, (key, res.failures[:1])
            got[key], want[key] = [res.checked, res.hypothesis_hits], pins[key]
    assert got == want


def test_seeds_are_reproducible():
    a = run_property("P-COR-BAX", trials=8, seed=11, field=GF(5))
    b = run_property("P-COR-BAX", trials=8, seed=11, field=GF(5))
    assert (a.checked, a.hypothesis_hits) == (b.checked, b.hypothesis_hits)


def test_alternate_fields():
    for prop_id, field in (
        ("P-TENSOR-OP", GF(3)),
        ("P-COR-BAX", GF(7)),
        ("P-ENYBE-EXT", GF(5)),
        ("P-GNYBE-PROD", GF(5)),
        ("P-SKEW", GF(7)),
    ):
        res = run_property(prop_id, trials=6, seed=5, field=field)
        assert res.passed, (prop_id, res.failures[:2])


def test_unknown_property():
    from novikov.errors import NovikovError

    with pytest.raises(NovikovError):
        run_property("P-NOPE")


def test_property_run_books():
    run = PropertyRun("P-TEST")
    run.equivalent(True, True, "unused")
    run.equivalent(False, True, "split", at=1)
    assert run.expect(True, "unused", hit=True)
    assert not run.expect(False, "false", at=2)
    run.count(checks=2)
    run.count(hits=1)
    assert (run.checked, run.hypothesis_hits) == (6, 3)
    assert run.failures == [{"what": "split", "at": "1"}, {"what": "false", "at": "2"}]


def test_record_zero_tests_by_truthiness_alone():
    class NoScalarTests:
        def is_zero(self, c):
            raise AssertionError("record tested a scalar through the field")

    col = ResidualCollector(NoScalarTests(), "check")
    col.record("identity", (0,), (0, 0))
    col.record("identity", (1,), (0, 2))
    assert [fail.indices for fail in col.done().failures] == [(1,)]


def test_residuals_are_recorded_reduced(monkeypatch):
    """record's truthiness test needs reduced scalars: every residual of the
    properties pass and of one search of each kind (its symbolic residual
    and its reverify) hands them over reduced."""
    record = ResidualCollector.record

    def checked(self, identity, indices, value):
        assert tuple(value) == self.field.reduce(value), (self.check, identity, value)
        record(self, identity, indices, value)

    monkeypatch.setattr(ResidualCollector, "record", checked)
    for field in (QQ, GF(3)):
        for prop_id in PROPERTY_IDS:
            run_property(prop_id, trials=1, field=field)
    f = GF(3)
    beta = LinMap(Matrix(f, 2, 2, (1, 1, 0, 2)))
    for kind in SEARCH_KINDS:
        spec = SearchSpec(kind, f, 2, algebra=example_algebra(f), weight=1, kappa=1, mu=2, epsilon=1, beta=beta)
        res = enumerate_search(spec)
        assert all(reverify(spec, s) for s in res.solutions[:20])


def _tensor_op_verdicts(alg, cells) -> tuple:
    n = alg.dim
    r = Tensor2(alg.field, tuple(tuple(cells[i * n:i * n + n]) for i in range(n)))
    return nybe_residual(alg, r).is_zero(), o_nybe_residual(alg, r).is_zero


def _goper_verdicts(alg, cells) -> tuple:
    alpha, bim = LinMap(Matrix(alg.field, alg.dim, alg.dim, cells)), regular_bimodule(alg)
    d = double(alg, bim, validate=False)
    return generalized_o_residual(bim, alpha).is_zero, gnybe_flag(d.algebra, lift_map(d, alpha).tensor_minus)


def _line(alg, cells) -> Bimodule:
    n, ones = alg.dim, [Matrix(alg.field, 1, 1, (c,)) for c in cells]
    return Bimodule(alg, 1, tuple(ones[:n]), tuple(ones[n:2 * n]))


def _semi_verdicts(alg, cells) -> tuple:
    b = _line(alg, cells).with_product((((cells[-1],),),))
    return abnova_residual(b).is_zero, novikov_residual(semidirect(b)).is_zero


def _dual_verdicts(alg, cells) -> tuple:
    return (bimodule_residual(_line(alg, cells)).is_zero,)


def _lifted(row, alg) -> list:
    """The row's nonzero coordinates on the table itself, lifted into
    ``PolyRing(p)`` with the search's coefficients unknown."""
    ring, n = PolyRing(alg.field.p), alg.dim
    obj = row.decode(ring, n, ring.variables(row.count(n)))
    return [c for _, c in solver._nonzero_coords(row.residual(obj, Algebra(ring, n, alg.mul)))]


_F2 = lambda: enumerated_dim2(GF(2))


@pytest.mark.parametrize(
    "routes, verdicts, algebras, stride, counts",
    [
        ("_TENSOR_OP_ROUTES", _tensor_op_verdicts, _F2, 1, (832, 232)),
        ("_TENSOR_OP_ROUTES", _tensor_op_verdicts, lambda: enumerated_dim2(GF(3))[::11], 1, (1377, 145)),
        ("_TENSOR_OP_ROUTES", _tensor_op_verdicts, lambda: [trunc_poly_algebra(GF(2), 3)], 1, (512, 18)),
        ("_TENSOR_OP_ROUTES", _tensor_op_verdicts, lambda: enumerated_dim2(GF(5))[::120], 1, (7500, 720)),
        ("_TENSOR_OP_ROUTES", _tensor_op_verdicts, lambda: [trunc_poly_algebra(GF(3), 3)], 29, (679, 2)),
        ("_GOPER_ROUTES", _goper_verdicts, lambda: _F2()[4::8], 1, (96, 32)),
        ("_GOPER_ROUTES", _goper_verdicts, lambda: [trunc_poly_algebra(GF(2), 3)], 7, (74, 6)),
        ("_SEMI_ROUTES", _semi_verdicts, lambda: _F2()[::4], 1, (416, 51)),
        ("_LINE_BIMODULE", _dual_verdicts, lambda: _F2()[::4], 1, (208, 32)),
    ],
    ids=[
        "F2-every-table", "F3-every-11th-table", "F2-trunc3", "F5-every-120th-table", "F3-trunc3-every-29th-point",
        "goper-F2-every-8th-table", "goper-F2-trunc3-every-7th-point", "semi-F2-every-4th-table",
        "dual-F2-every-4th-table",
    ],
)
def test_specialised_tensor_op_verdicts_are_the_concrete_verdicts(routes, verdicts, algebras, stride, counts):
    """Each exhaustive equivalence is decided as the searched solution sets
    of its rows (P-TENSOR-OP, P-GOPER, P-SEMI; P-DUAL's one row), each row's
    system evaluated once per (n, p) and specialised to the table: the
    specialised coordinates must be the table's own symbolic evaluation, two
    routes must search the same set, and on every point (every
    ``stride``-th) membership in the searched sets must be the object path's
    verdicts, as the per-candidate loops read them."""
    routes = getattr(properties, routes)
    routes = routes if isinstance(routes, tuple) else (routes,)
    instances = solutions = 0
    for alg in algebras():
        f, n = alg.field, alg.dim
        for row in routes:
            assert list(solver._specialise(row, f, n, alg).values()) == _lifted(row, alg), alg
        searched = [set(solver._search(row, f, n, alg, shard=(0, 1))) for row in routes]
        assert searched[0] == searched[-1], alg  # two routes, one set (one row: trivially)
        for cells in islice(product(range(f.p), repeat=routes[0].count(n)), 0, None, stride):
            got = tuple(cells in found for found in searched)
            assert got == verdicts(alg, cells), (alg, cells)
            instances += 1
            solutions += got[0]
    assert (instances, solutions) == counts


def test_tensor_op_evaluates_each_route_symbolically_once_per_dimension_and_prime(monkeypatch):
    """A P-TENSOR-OP run over F_3 evaluates each route over ``PolyRing``
    once, for all 177 tables, and a second run reuses that evaluation; the
    tensor route is the nybe-solution search's, the operator route
    ``properties``' own."""
    symbolic = []
    for module, name in ((solver, "nybe_residual"), (properties, "o_nybe_residual")):
        route = getattr(module, name)

        def counted(alg, r, name=name, route=route):
            if isinstance(alg.field, PolyRing):
                symbolic.append(name)
            return route(alg, r)

        monkeypatch.setattr(module, name, counted)
    solver._system.cache_clear()
    first = run_property("P-TENSOR-OP", trials=1, seed=7, field=GF(3))
    assert sorted(symbolic) == ["nybe_residual", "o_nybe_residual"]
    second = run_property("P-TENSOR-OP", trials=1, seed=7, field=GF(3))
    assert len(symbolic) == 2
    assert [first.checked, first.hypothesis_hits] == [second.checked, second.hypothesis_hits] == [14338, 849]


def test_goper_evaluates_each_route_symbolically_once(monkeypatch):
    """Two P-GOPER runs over F_2 evaluate each of its routes over
    ``PolyRing`` once, for all 52 tables."""
    symbolic = []
    for name in ("generalized_o_residual", "gnybe_residuals"):
        route = getattr(properties, name)

        def counted(alg_or_ctx, t, name=name, route=route):
            if isinstance(alg_or_ctx.field, PolyRing):
                symbolic.append(name)
            return route(alg_or_ctx, t)

        monkeypatch.setattr(properties, name, counted)
    solver._system.cache_clear()
    runs = [run_property("P-GOPER", trials=0, seed=1) for _ in range(2)]
    assert sorted(symbolic) == ["generalized_o_residual", "gnybe_residuals"]
    assert [[run.checked, run.hypothesis_hits] for run in runs] == [[832, 292]] * 2


def test_a_split_invariance_lemma_is_a_failure_record_not_a_traceback(monkeypatch, capsys):
    """P-LEM-R compares the three invariance characterizations itself: with
    the balanced verdict negated, ``nova prop P-LEM-R`` reports the
    counterexample and exits 1."""
    balanced = properties.balanced_residual
    monkeypatch.setattr(properties, "balanced_residual", lambda ctx, m: SimpleNamespace(is_zero=not balanced(ctx, m).is_zero))
    assert main(["prop", "P-LEM-R"]) == 1
    report = json.loads(capsys.readouterr().out.splitlines()[0])
    assert (report["passed"], report["checked"], report["hypothesis_hits"]) == (False, 51, 13)
    assert report["failures"][0]["what"] == "invariance characterizations disagree"
    assert report["failures"][0]["balanced"] == "False" and report["failures"][0]["hom"] == "True"


def test_a_split_tensor_op_verdict_carries_its_algebra_and_tensor(monkeypatch):
    """With the operator route also asking r[0][0]·(1 - r[0][1]) = 0, the two
    searched sets split on every NYBE solution whose first row is (1, 0): the
    run's books and failure records are those of ``run.equivalent`` on every
    candidate, in coefficient order."""

    def split(r, alg):
        honest = o_nybe_residual(alg, r)
        extra = alg.field.reduce((r.grid[0][0] * (1 - r.grid[0][1]),))
        return Residual(honest.check, honest.failures + ((Failure("split", (), extra),) if any(extra) else ()))

    tensor, operator = properties._TENSOR_OP_ROUTES
    monkeypatch.setattr(properties, "_TENSOR_OP_ROUTES", (tensor, replace(operator, residual=split)))
    f = GF(2)
    got = run_property("P-TENSOR-OP", trials=0, field=f)
    want = PropertyRun("P-TENSOR-OP")
    for alg in enumerated_dim2(f):
        for cells in product(range(2), repeat=4):
            r = Tensor2(f, (cells[:2], cells[2:]))
            want.equivalent(nybe_residual(alg, r).is_zero(), split(r, alg).is_zero,
                            "tensor and operator verdicts disagree", algebra=alg, r=r)
    assert got.failures and all(fail["r"]["tensor"][0] == ["1", "0"] for fail in got.failures)
    assert (got.checked, got.hypothesis_hits, got.failures) == (want.checked, want.hypothesis_hits, want.failures)
    assert set(got.failures[0]) == {"what", "algebra", "r"}
