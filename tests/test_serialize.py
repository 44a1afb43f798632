import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from novikov import cli
from novikov.algebra import BimodNov, regular, regular_bimodule
from novikov.errors import DocumentError
from novikov.fields import GF, QQ
from novikov.fixtures import example_algebra, example_t
from novikov.operators import LinMap
from novikov.postnov import post_from_rb
from novikov.serialize import (
    KINDS,
    bundle_document,
    bundle_to_trialgebra,
    dumps,
    from_document,
    loads,
    to_document,
)
from novikov.tensors import Tensor2
from novikov.ybe import BilForm


def roundtrip(obj):
    return from_document(loads(dumps(to_document(obj))))


def test_algebra_roundtrip():
    for field in (QQ, GF(5)):
        alg = example_algebra(field)
        back = roundtrip(alg)
        assert back.mul == alg.mul and back.field == field


def test_linmap_roundtrip():
    t = example_t(QQ)
    assert roundtrip(t).mat == t.mat


def test_tensor_and_form_roundtrip():
    r = Tensor2(QQ, (("1/2", 0), (3, "-2")))
    assert roundtrip(r) == r
    assert to_document(r)["kind"] == "tensor2"
    b = BilForm(GF(7), ((1, 2), (2, 3)))
    assert roundtrip(b).grid == b.grid
    # a form is a 2-tensor, but is written and read back as a form
    assert to_document(b)["kind"] == "bilform"
    assert roundtrip(b) == b and type(roundtrip(b)) is BilForm


def test_bimodule_roundtrips(a2):
    b = regular_bimodule(a2)
    back = roundtrip(b)
    assert back.l_mats == b.l_mats and back.r_mats == b.r_mats
    ctx = regular(a2)
    back2 = roundtrip(ctx)
    assert isinstance(back2, BimodNov)
    assert back2.mul == ctx.mul


def test_postnov_roundtrip(a2):
    p = post_from_rb(a2, LinMap.identity(QQ, 2), -1)
    back = roundtrip(p)
    assert back.circ == p.circ and back.tri_l == p.tri_l and back.tri_r == p.tri_r


def test_bundle_and_trialgebra(fixture_path):
    from novikov.serialize import load_path

    parts = from_document(load_path(fixture_path("trialgebra.json")))
    tri = bundle_to_trialgebra(parts)
    assert tri.dim == 2
    bad = dict(parts)
    del bad["derivation"]
    with pytest.raises(DocumentError):
        bundle_to_trialgebra(bad)


def test_rational_scalars_as_strings():
    doc = to_document(Tensor2(QQ, (("1/3", 0), (0, 0))))
    payload = json.dumps(doc)
    assert "1/3" in payload
    # integer shorthand accepted on input
    doc["payload"]["entries"][0][0] = 2
    assert from_document(doc)[0, 0] == QQ.coerce(2)


def test_document_errors():
    with pytest.raises(DocumentError):
        from_document({"format": 99, "kind": "algebra", "field": {"kind": "rational"}, "payload": {}})
    with pytest.raises(DocumentError):
        from_document({"format": 1, "kind": "nope", "field": {"kind": "rational"}, "payload": {}})
    with pytest.raises(DocumentError):
        from_document({"format": 1, "kind": "algebra", "field": {"kind": "rational"}, "payload": {"dim": 2, "mul": []}})
    with pytest.raises(DocumentError):
        loads("not json")
    with pytest.raises(DocumentError):
        bundle_document(
            {
                "a": to_document(example_algebra(QQ)),
                "b": to_document(example_algebra(GF(3))),
            }
        )
    # a given field binds every member, and is the field of an empty bundle
    with pytest.raises(DocumentError):
        bundle_document({"a": to_document(example_algebra(GF(3)))}, QQ)
    with pytest.raises(DocumentError):
        bundle_document({})
    assert bundle_document({}, GF(3))["field"] == GF(3).to_json()


def test_prime_scalars_reduced():
    doc = to_document(example_algebra(GF(5)))
    doc["payload"]["mul"][0][0][0] = -1
    back = from_document(doc)
    assert back.mul[0][0][0] == 4


# Loader fuzz: random JSON values, about half of them in a plausible envelope
# whose payload is either random or carries every key a payload kind reads.
_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
_KEYS = st.text(max_size=6) | st.sampled_from(
    ("dim", "mul", "labels", "algebra", "mdim", "l", "r", "rows", "cols", "entries", "circ", "tri_l", "tri_r", "documents")
)
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_KEYS, inner, max_size=4),
    max_leaves=20,
)


def _cube(n: int, depth: int):
    """An n×…×n nested list (depth levels) of small integers."""
    if depth == 0:
        return st.integers(-2, 2)
    return st.lists(_cube(n, depth - 1), min_size=n, max_size=n)


# the right dim most of the time, so that some documents decode and reach the
# residual check
_SHAPED = st.sampled_from((2, 1, 3, 0)).flatmap(
    lambda n: st.fixed_dictionaries(
        {"dim": st.sampled_from((n, n, n, n + 1, str(n), None)), "rows": st.just(n), "cols": st.just(n)}
        | {key: _cube(n, 3) for key in ("mul", "circ", "tri_l", "tri_r")}
        | {"entries": _cube(n, 2)}
    )
)
_FIELDS = st.sampled_from(({"kind": "rational"}, *({"kind": "prime", "p": p} for p in (2, 3, 5, 7))))
_ENVELOPE = st.fixed_dictionaries(
    {"format": st.just(1), "kind": st.sampled_from(KINDS), "field": _FIELDS, "payload": _JSON | _SHAPED}
)


# too_slow is a timing check: suppressed so that the derandomized run does not
# depend on the host's speed
def _algebra_doc(field: dict, dim, mul) -> dict:
    return {"format": 1, "kind": "algebra", "field": field, "payload": {"dim": dim, "mul": mul}}


@settings(max_examples=200, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(doc=_JSON | _ENVELOPE)
# one document for each exception class the payload decoder must map
@example(doc=_algebra_doc({"kind": "rational"}, 2, [[[0]]]))  # DimMismatch
@example(doc=_algebra_doc({"kind": "rational"}, 1, [[["1/0"]]]))  # ZeroDivisionError
@example(doc=_algebra_doc({"kind": "rational"}, 1, [[[None]]]))  # NovikovError
@example(doc=_algebra_doc({"kind": "prime", "p": 3}, 1, [[["x"]]]))  # ValueError
@example(doc=_algebra_doc({"kind": "rational"}, float("inf"), []))  # OverflowError
@example(doc=_algebra_doc({"kind": "prime", "p": [3]}, 1, [[[0]]]))  # TypeError in the field
# scalars outside the one grammar (an integer or p/q) and JSON booleans
@example(doc=_algebra_doc({"kind": "rational"}, 1, [[["1e30"]]]))
@example(doc=_algebra_doc({"kind": "rational"}, 1, [[["1_0"]]]))
@example(doc=_algebra_doc({"kind": "rational"}, 1, [[["0.5"]]]))
@example(doc=_algebra_doc({"kind": "rational"}, 1, [[[True]]]))
@example(doc=_algebra_doc({"kind": "prime", "p": 3}, 1, [[["1_0"]]]))
@example(doc=_algebra_doc({"kind": "prime", "p": 3}, 1, [[[False]]]))
@example(doc=_algebra_doc({"kind": "prime", "p": 3}, 1, [[[" -1/2 "]]]))  # decodes: 1 in F_3
def test_loader_fuzz_decodes_or_rejects(tmp_path_factory, doc):
    """Every JSON value decodes or raises DocumentError, and ``nova verify
    algebra`` on it exits 0, 1 or 2, with 2 and one stderr line for every
    document the loader rejects."""
    try:
        from_document(doc)
        rejected = False
    except DocumentError:
        rejected = True
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["verify", "algebra", str(path)])
    assert code in (0, 1, 2)
    if rejected:
        assert code == 2
    if code == 2:
        assert out.getvalue() == ""
        assert len(err.getvalue().splitlines()) == 1 and err.getvalue().startswith("input error: ")
