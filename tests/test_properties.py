"""Every named property must pass with genuine (non-vacuous) coverage."""

import pytest

from novikov.fields import GF, QQ
from novikov.fixtures import example_algebra
from novikov.linalg import Matrix
from novikov.operators import LinMap
from novikov.properties import PROPERTY_IDS, PropertyRun, run_property
from novikov.residual import ResidualCollector
from novikov.solver import SEARCH_KINDS, SearchSpec, enumerate_search, reverify

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
