import hashlib
import json
import os
import pathlib
import shlex
import shutil
import subprocess
import sys

import pytest

from novikov.algebra import Algebra, Bimodule, dual_bimodule, regular, regular_bimodule, star_algebra
from novikov import cli
from novikov.cli import main
from novikov.fields import GF, QQ
from novikov.fixtures import example_algebra
from novikov.linalg import Matrix
from novikov.operators import LinMap
from novikov.serialize import dumps, from_document, loads, to_document


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_algebra_ok(capsys, fixture_path):
    code, out, err = run(capsys, "verify", "algebra", fixture_path("a2.json"))
    assert code == 0
    rep = json.loads(out)
    assert rep["flag"] is True and rep["witness"] is None
    assert "ok" in err


def test_verify_algebra_failure(capsys, tmp_path):
    doc = {
        "format": 1,
        "kind": "algebra",
        "field": {"kind": "rational"},
        "payload": {"dim": 2, "mul": [[["0", "1"], ["1", "0"]], [["0", "0"], ["0", "0"]]]},
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", "algebra", str(path))
    assert code == 1
    rep = json.loads(out)
    assert rep["flag"] is False and rep["witness"] is not None


def test_verify_input_error(capsys, tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("garbage")
    code, _, err = run(capsys, "verify", "algebra", str(path))
    assert code == 2
    assert "input error" in err
    code2, _, _ = run(capsys, "verify", "algebra", str(tmp_path / "missing.json"))
    assert code2 == 2


def test_check_paper_extended_operator(capsys, fixture_path):
    code, out, _ = run(
        capsys,
        "check",
        "ext-o",
        "--weight", "1",
        "--kappa", "-2",
        "--mu", "0",
        fixture_path("a2.json"),
        "regular",
        fixture_path("t2.json"),
        fixture_path("beta2.json"),
    )
    assert code == 0
    assert json.loads(out)["flag"] is True


def test_check_nybe_exit_codes(capsys, fixture_path):
    code, out, _ = run(capsys, "check", "nybe", fixture_path("a2.json"), fixture_path("r_e2e2.json"))
    assert code == 0
    code, out, _ = run(
        capsys, "check", "nybe", fixture_path("a2.json"), fixture_path("r_skew.json"), "--verbose"
    )
    assert code == 1
    witness = json.loads(out)["witness"]
    got = {tuple(w["slot"]): w["value"] for w in witness}
    assert got == {(0, 1, 1): "2", (1, 0, 1): "-4", (1, 1, 0): "2"}


def test_check_kind_dispatch(capsys, fixture_path, tmp_path):
    form = tmp_path / "identity-form"
    form.write_text(json.dumps(_rational("bilform", {"dim": 2, "entries": _identity(2)})))
    for kind, extra, files, expect in (
        ("balanced", [], ["a2.json", "regular", "beta2.json"], 0),
        ("invariant", ["--kappa", "1"], ["a2.json", "regular", "beta2.json"], 0),
        ("equivalent", ["--mu", "1"], ["a2.json", "regular", "beta2.json"], 0),
        ("rota-baxter", ["--weight", "-1"], ["a2.json", "id2.json"], 0),
        ("baxter", [], ["a2.json", "id2.json"], 0),
        ("o-nybe", [], ["a2.json", "r_e2e2.json"], 0),
        ("invariance", [], ["a2.json", "r_e2e2.json"], 1),
        ("gnybe", [], ["a2.json", "r_e2e2.json"], 0),
        ("bialgebra-extra", [], ["a2.json", "r_skew.json"], 0),
        # the worked algebra is commutative associative, so the identity map
        # is a generalized operator on it; t2 is not
        ("generalized-o", [], ["a2.json", "regular", "id2.json"], 0),
        ("generalized-o", [], ["a2.json", "regular", "t2.json"], 1),
        # the identity map is self-adjoint for the identity form, not skew
        ("adjoint", [], [str(form), "id2.json"], 0),
        ("adjoint", ["--sign", "minus"], [str(form), "id2.json"], 1),
    ):
        argv = ["check", kind, *extra]
        for f in files:
            argv.append(fixture_path(f) if f.endswith(".json") else f)
        code = main(argv)
        capsys.readouterr()
        assert code == expect, (kind, code)


def test_derive_circ_t_values(capsys, fixture_path, tmp_path):
    out_path = tmp_path / "ct.json"
    code, out, _ = run(
        capsys,
        "derive", "circ-t", "--weight", "1",
        fixture_path("a2.json"), fixture_path("t2.json"),
        "--out", str(out_path),
    )
    assert code == 0
    alg = from_document(loads(out_path.read_text()))
    assert alg.mul[0][0] == (QQ.coerce(-3), QQ.coerce(8))
    for ij in ((0, 1), (1, 0), (1, 1)):
        assert all(c == 0 for c in alg.mul[ij[0]][ij[1]])
    # stdout carries the same document
    assert from_document(loads(out)).mul == alg.mul


def test_derive_circ_pm_values(capsys, fixture_path):
    code, out, _ = run(
        capsys, "derive", "circ-pm", "--weight", "1",
        fixture_path("a2.json"), fixture_path("beta2.json"),
    )
    assert code == 0
    bundle = from_document(loads(out))
    plus, minus = bundle["plus"], bundle["minus"]
    assert plus.mul[0][0] == (QQ.coerce(-1), QQ.coerce(-6))
    assert minus.mul[0][0] == (QQ.coerce(3), QQ.coerce(6))
    assert plus.mul[0][1] == (QQ.coerce(0), QQ.coerce(-1))
    assert plus.mul[1][0] == (QQ.coerce(0), QQ.coerce(-1))
    assert all(c == 0 for c in plus.mul[1][1])


def test_derive_semidirect(capsys, fixture_path):
    code, out, _ = run(capsys, "derive", "semidirect", fixture_path("a2.json"), "regular")
    assert code == 0
    alg = from_document(loads(out))
    assert alg.dim == 4


def test_derive_post_from_rb_and_verify(capsys, fixture_path, tmp_path):
    out_path = tmp_path / "post.json"
    code, _, _ = run(
        capsys, "derive", "post-from-rb", "--weight", "-1",
        fixture_path("a2.json"), fixture_path("id2.json"), "--out", str(out_path),
    )
    assert code == 0
    code2, out2, _ = run(capsys, "verify", "postnov", str(out_path))
    assert code2 == 0 and json.loads(out2)["flag"] is True


# e2∘e1 = e2 is not Novikov, and the zero bimodule on a line over it is a
# bimodule: its double holds the base as a subalgebra, so it is not Novikov
_NOT_NOVIKOV_ALG = Algebra.from_flat(QQ, 2, (0, 0, 0, 0, 0, 1, 0, 0))
_NOT_NOVIKOV = to_document(_NOT_NOVIKOV_ALG)
_ZERO_LINE = to_document(Bimodule(_NOT_NOVIKOV_ALG, 1, (Matrix.zeros(QQ, 1, 1),) * 2, (Matrix.zeros(QQ, 1, 1),) * 2))
_ZERO_LINE_MAP = to_document(LinMap(Matrix.zeros(QQ, 2, 1)))


@pytest.mark.parametrize(
    "argv, says",
    [
        # t2 is not Rota-Baxter of weight 1
        (
            ["post-from-rb", "--weight", "1", "a2.json", "t2.json"],
            "T fails the Rota-Baxter identity at this weight",
        ),
        (
            ["star-product", "a2.json", "regular", "t2.json", "--weight", "0"],
            "closure identities fail; the product is not Novikov",
        ),
        (["post-from-nybe", "a2.json", "r_skew.json"], "tensor does not solve the Yang-Baxter equation"),
        # a valid bimodule over a base that is not Novikov
        (["double", _NOT_NOVIKOV, _ZERO_LINE], "double product failed the Novikov identities"),
        (["lift-map", _NOT_NOVIKOV, _ZERO_LINE, _ZERO_LINE_MAP], "double product failed the Novikov identities"),
    ],
    ids=[
        "post-from-rb-not-rota-baxter",
        "star-product-not-closed",
        "post-from-nybe-not-a-solution",
        "double-base-not-novikov",
        "lift-map-base-not-novikov",
    ],
)
def test_derive_precondition_failure(capsys, fixture_path, tmp_path, argv, says):
    # the inputs are well formed but fail the construction's hypothesis; a
    # dict argument is a document, written to a file first
    paths = []
    for n, arg in enumerate(argv):
        if isinstance(arg, dict):
            path = tmp_path / f"doc{n}.json"
            path.write_text(json.dumps(arg))
            arg = str(path)
        elif arg.endswith(".json"):
            arg = fixture_path(arg)
        paths.append(arg)
    code, out, err = run(capsys, "derive", *paths)
    assert (code, out, err) == (1, "", f"precondition failed: {says}\n")


def test_prop_command(capsys):
    code, out, _ = run(capsys, "prop", "P-CIRC-DELTA", "--trials", "5", "--seed", "1")
    assert code == 0
    rep = json.loads(out)
    assert rep["passed"] is True and rep["checked"] > 0
    code2, _, _ = run(capsys, "prop", "NOT-A-PROP")
    assert code2 == 2


def test_solve_counts_and_stream(capsys, fixture_path):
    code, out, _ = run(capsys, "solve", "novikov", "--dim", "2", "--field", "F2", "--count-only")
    assert code == 0
    assert json.loads(out)["count"] == 52
    code, out, _ = run(capsys, "solve", "rota-baxter", fixture_path("a2_f3.json"), "--field", "F3", "--weight", "-1")
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert {"coeffs": [1, 0, 0, 1], "context": lines[0]["context"], "kind": "rota-baxter"} in lines


# the first 16 hex digits of the sha256 of stdout, and its line count
_PINNED_SOLVES = [
    (["novikov", "--dim", "2", "--field", "F3"], "d2bc18793277b344", 177),
    (["nybe", "a2_f3.json", "--field", "F3"], "95691e62fe060229", 7),
    (["enybe", "a2_f3.json", "--field", "F3", "--epsilon", "1"], "9a21aa79b2a06258", 11),
    (["ext-o", "a2_f3.json", "--field", "F3", "--weight", "1", "--beta", "B"], "c1e50cf124285d1b", 4),
    (["rota-baxter", "a2_f3.json", "--field", "F3", "--weight", "-1"], "5a28653445b512cd", 4),
    (["invariant-symmetric", "a2_f3.json", "--field", "F3"], "f2cc0554c7e63289", 9),
    (["quadratic-form", "a2_f3.json", "--field", "F3"], "ebc3dc20af737263", 6),
    # a kind's full name is taken too
    (["novikov-algebra", "--dim", "2", "--field", "F3"], "d2bc18793277b344", 177),
    (["invariant-symmetric-tensor", "a2_f3.json", "--field", "F3"], "f2cc0554c7e63289", 9),
]


@pytest.mark.parametrize("argv, digest, lines", _PINNED_SOLVES, ids=[argv[0] for argv, _, _ in _PINNED_SOLVES])
def test_solve_stdout_matches_its_pinned_bytes(capsys, fixture_path, tmp_path, argv, digest, lines):
    """The full JSONL stream of every kind, its ``context`` hashes included;
    B is the F_3 map with rows (1, 1) and (0, 2)."""
    beta = tmp_path / "b.json"
    beta.write_text(dumps(to_document(LinMap(Matrix(GF(3), 2, 2, (1, 1, 0, 2))))), encoding="utf-8")
    paths = [fixture_path(a) if a.endswith(".json") else str(beta) if a == "B" else a for a in argv]
    code, out, _ = run(capsys, "solve", *paths)
    assert code == 0
    assert (hashlib.sha256(out.encode()).hexdigest()[:16], len(out.splitlines())) == (digest, lines)


def test_solve_shard_flag(capsys):
    full_code, full_out, _ = run(capsys, "solve", "novikov", "--dim", "2", "--field", "F2")
    parts = []
    for i in range(2):
        _, out, _ = run(capsys, "solve", "novikov", "--dim", "2", "--field", "F2", "--shard", f"{i}/2")
        parts.extend(out.splitlines())
    assert sorted(parts) == sorted(full_out.splitlines())


def test_verify_bilform_bundle(capsys, tmp_path):
    from novikov.algebra import Algebra
    from novikov.serialize import bundle_document, dumps, to_document
    from novikov.ybe import BilForm

    triv = Algebra.zero(QQ, 2)
    form = BilForm(QQ, ((1, 0), (0, 1)))
    doc = bundle_document({"algebra": to_document(triv), "form": to_document(form)})
    path = tmp_path / "qf.json"
    path.write_text(dumps(doc))
    code, out, _ = run(capsys, "verify", "bilform", str(path))
    assert code == 0
    rep = json.loads(out)
    assert rep["flag"] is True and rep["quadratic"] is True


def test_derive_remaining_constructions(capsys, fixture_path, tmp_path):
    """Drive every remaining construction once and validate outputs."""
    a2 = fixture_path("a2.json")
    # star
    code, out, _ = run(capsys, "derive", "star", a2)
    assert code == 0 and from_document(loads(out)).mul[0][0] == (QQ.coerce(2), QQ.coerce(0))
    # dual-bimodule of the regular bimodule (algebra shorthand)
    code, out, _ = run(capsys, "derive", "dual-bimodule", a2)
    assert code == 0
    db = from_document(loads(out))
    assert db.l_mats[0].entries == (QQ.coerce(-2), QQ.coerce(0), QQ.coerce(0), QQ.coerce(-2))
    # double
    code, out, _ = run(capsys, "derive", "double", a2, "regular")
    assert code == 0 and from_document(loads(out)).dim == 4
    # star-product with the worked operator
    code, out, _ = run(capsys, "derive", "star-product", "--weight", "1", a2, "regular", fixture_path("t2.json"))
    assert code == 0 and from_document(loads(out)).mul[0][0] == (QQ.coerce(-3), QQ.coerce(8))
    # diamond-product bundle
    code, out, _ = run(
        capsys, "derive", "diamond-product", "--weight", "1",
        a2, "regular", fixture_path("t2.json"), fixture_path("t2.json"),
    )
    assert code == 0
    bundle = from_document(loads(out))
    assert bundle["antisymmetrizer"].is_zero()
    # post-from-o with the identity at weight -1
    code, out, _ = run(capsys, "derive", "post-from-o", "--weight", "-1", a2, "regular", fixture_path("id2.json"))
    assert code == 0
    # post-on-image of the identity
    code, out, _ = run(capsys, "derive", "post-on-image", "--weight", "-1", a2, "regular", fixture_path("id2.json"))
    assert code == 0 and loads(out)["pivot_columns"] == [0, 1]
    # post-from-trialgebra
    code, out, _ = run(capsys, "derive", "post-from-trialgebra", fixture_path("trialgebra.json"))
    assert code == 0
    # post-from-nybe on the zero tensor
    import json as _json

    zero_r = {
        "format": 1, "kind": "tensor2", "field": {"kind": "rational"},
        "payload": {"dim": 2, "entries": [["0", "0"], ["0", "0"]]},
    }
    zp = tmp_path / "zero_r.json"
    zp.write_text(_json.dumps(zero_r))
    code, out, _ = run(capsys, "derive", "post-from-nybe", a2, str(zp))
    assert code == 0 and "dual" in from_document(loads(out))
    # post-from-nybe rejects the non-invariant symmetric tensor with exit 1
    code, _, err = run(capsys, "derive", "post-from-nybe", a2, fixture_path("r_e2e2.json"))
    assert code == 1
    # dual-pm needs an invariant symmetric part: the skew fixture works
    code, out, _ = run(capsys, "derive", "dual-pm", a2, fixture_path("r_skew.json"))
    assert code == 0
    # circ-delta and delta-r
    code, out, _ = run(capsys, "derive", "circ-delta", a2, fixture_path("r_e2e2.json"))
    assert code == 0 and from_document(loads(out)).mul[1][1] == (QQ.coerce(3), QQ.coerce(0))
    code, out, _ = run(capsys, "derive", "delta-r", a2, fixture_path("r_e2e2.json"))
    assert code == 0
    deltas = from_document(loads(out))
    assert deltas["e0"][1, 1] == QQ.coerce(3)
    # lift-map block shape
    code, out, _ = run(capsys, "derive", "lift-map", a2, "regular", fixture_path("t2.json"))
    assert code == 0
    lifted = from_document(loads(out))
    assert lifted["map"].mat.rows == 4
    # quad-transport on the trivial algebra with the identity form
    from novikov.algebra import Algebra
    from novikov.serialize import bundle_document, dumps as sdumps, to_document
    from novikov.ybe import BilForm

    triv = tmp_path / "triv.json"
    triv.write_text(sdumps(to_document(Algebra.zero(QQ, 2))))
    form = tmp_path / "form.json"
    form.write_text(sdumps(to_document(BilForm(QQ, ((1, 0), (0, 1))))))
    zmap = tmp_path / "zmap.json"
    from novikov.operators import LinMap

    zmap.write_text(sdumps(to_document(LinMap.zero(QQ, 2, 2))))
    code, out, _ = run(capsys, "derive", "quad-transport", str(triv), str(form), str(zmap), str(zmap))
    assert code == 0
    qt = from_document(loads(out))
    assert qt["delta_plus"].is_zero()


def test_solve_jobs_pool(capsys, fixture_path, monkeypatch):
    monkeypatch.setattr(cli, "_processors", lambda: 2)  # the pool runs on a one-processor host too
    _, seq, _ = run(capsys, "solve", "nybe", fixture_path("a2_f3.json"), "--field", "F3")
    _, par, _ = run(capsys, "solve", "nybe", fixture_path("a2_f3.json"), "--field", "F3", "--jobs", "2")
    assert seq == par
    counts = [
        json.loads(run(capsys, "solve", "nybe", fixture_path("a2_f3.json"), "--field", "F3", "--count-only", *jobs)[1])
        for jobs in ([], ["--jobs", "2"])
    ]
    assert counts[0] == counts[1] and counts[0]["count"] > 0


def _document(kind: str, p: int) -> dict:
    """A 2x2 identity map or a one-dimensional zero algebra over field.p = p."""
    payload = {"rows": 2, "cols": 2, "entries": [[1, 0], [0, 1]]} if kind == "linmap" else {"dim": 1, "mul": [[[0]]]}
    return {"format": 1, "kind": kind, "field": {"kind": "prime", "p": p}, "payload": payload}


def _rational(kind: str, payload: dict) -> dict:
    return {"format": 1, "kind": kind, "field": {"kind": "rational"}, "payload": payload}


# a dimension-0 algebra and tensor over Q, and a dimension-0 tensor over F_3
_ALG0 = _rational("algebra", {"dim": 0, "mul": []})
_TENSOR0 = _rational("tensor2", {"dim": 0, "entries": []})
_TENSOR0_F3 = {**_TENSOR0, "field": {"kind": "prime", "p": 3}}


def _identity(n: int) -> list:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _map(n: int) -> dict:
    """The n x n identity map over Q."""
    return _rational("linmap", {"rows": n, "cols": n, "entries": _identity(n)})


def _map_shaped(**shape) -> dict:
    """The 2x2 identity map over Q with its "rows" or "cols" replaced."""
    doc = _map(2)
    doc["payload"].update(shape)
    return doc


# the 2x2 zero map over Q, and the truncated polynomial algebra on 1, x, x^2
# over Q (x^i∘x^j = j x^{i+j})
_ZERO2 = _rational("linmap", {"rows": 2, "cols": 2, "entries": [[0, 0], [0, 0]]})
_TRUNC3 = _rational(
    "algebra",
    {"dim": 3, "mul": [[[0, 0, 0], [0, 1, 0], [0, 0, 2]], [[0, 0, 0], [0, 0, 1], [0, 0, 0]], [[0, 0, 0]] * 3]},
)


def _bilform_bundle(n: int) -> dict:
    """The 2-dim worked algebra bundled with the n x n identity form."""
    a2 = {"dim": 2, "mul": [[[1, 0], [0, 1]], [[0, 1], [0, 0]]]}
    form = {"dim": n, "entries": _identity(n)}
    return _rational("doc-bundle", {"documents": {"algebra": _rational("algebra", a2), "form": _rational("bilform", form)}})


def _a2_with(field: dict, coefficient) -> dict:
    """The worked 2-dim algebra with e1∘e1's first coordinate replaced."""
    mul = [[[coefficient, 0], [0, 1]], [[0, 1], [0, 0]]]
    return {"format": 1, "kind": "algebra", "field": field, "payload": {"dim": 2, "mul": mul}}


_Q, _F3 = {"kind": "rational"}, {"kind": "prime", "p": 3}

# the bundled trialgebra's products over F_3 with the derivation diag(1, 5) over Q
_TRI_PRODUCT = {"dim": 2, "mul": [[[0, 1], [0, 0]], [[0, 0], [0, 0]]]}
_MIXED_TRIALGEBRA = _rational(
    "doc-bundle",
    {
        "documents": {
            "dot": {**_rational("algebra", _TRI_PRODUCT), "field": _F3},
            "circ": {**_rational("algebra", _TRI_PRODUCT), "field": _F3},
            "derivation": _rational("linmap", {"rows": 2, "cols": 2, "entries": [[1, 0], [0, 5]]}),
        }
    },
)


def _trialgebra_with(**members) -> dict:
    """The bundled trialgebra's products and the derivation diag(1, 5), all
    over Q, with the given members replaced."""
    product = _rational("algebra", _TRI_PRODUCT)
    derivation = _rational("linmap", {"rows": 2, "cols": 2, "entries": [[1, 0], [0, 5]]})
    documents = {"dot": product, "circ": product, "derivation": derivation, **members}
    return _rational("doc-bundle", {"documents": documents})


def _a2_mul(mul) -> dict:
    """The worked 2-dim algebra over Q with its product grid replaced."""
    doc = _a2_with(_Q, 1)
    doc["payload"]["mul"] = mul
    return doc


def _a2_regular_with(**payload) -> dict:
    """The regular bimodule of the worked 2-dim algebra over Q with entries
    of its payload replaced."""
    doc = to_document(regular_bimodule(example_algebra(QQ)))
    doc["payload"].update(payload)
    return doc


# the dual bimodule of the worked algebra's star algebra: a bimodule over
# another algebra of the same field and dimension
_STAR_DUAL = to_document(dual_bimodule(regular_bimodule(star_algebra(example_algebra(QQ)))))


def _a2_sized(dim) -> dict:
    """The worked 2-dim algebra over Q with its "dim" replaced."""
    doc = _a2_with(_Q, 1)
    doc["payload"]["dim"] = dim
    return doc


def _bimodule_mdim(mdim) -> dict:
    """The regular bimodule of the zero algebra on Q^1 with its "mdim" replaced."""
    doc = to_document(regular_bimodule(Algebra.zero(QQ, 1)))
    doc["payload"]["mdim"] = mdim
    return doc


def _a2_labelled(labels) -> dict:
    """The worked 2-dim algebra over Q with the given basis labels."""
    doc = _a2_with(_Q, 1)
    doc["payload"]["labels"] = labels
    return doc


def _zero_context(module: bool = False) -> dict:
    """The regular context of the zero algebra on Q^2 as a document: the
    bimodnov, or with ``module`` the bimodule."""
    zero = Algebra.zero(QQ, 2)
    return to_document(regular_bimodule(zero) if module else regular(zero))


TMP_DIR = object()
_CORES = cli._processors()  # the most jobs a search accepts


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["check", "ext-o", "--weight", "1/0", "a2.json", "regular", "t2.json", "beta2.json"], id="zero-denominator"),
        pytest.param(["solve", "novikov", "--field", "F2", "--shard", "a/2"], id="shard-not-a-number"),
        pytest.param(["solve", "novikov", "--field", "F2", "--shard", "3/2"], id="shard-out-of-range"),
        pytest.param(["solve", "novikov", "--field", "F11"], id="field-not-searchable"),
        pytest.param(["solve", "novikov", "--dim", "2", "--field", "F" + "9" * 4301], id="field-digits-too-many"),
        pytest.param(["prop", "P-SEMI", "--field", "F" + "9" * 4301], id="prop-field-digits-too-many"),
        pytest.param(["solve", "novikov", "--dim", "2", "--field", "F²"], id="field-superscript-digit"),
        pytest.param(["solve", "novikov", "--field", "F2", "--dim", "0"], id="dim-zero"),
        pytest.param(["solve", "nybe", "--field", "F3"], id="missing-context"),
        pytest.param(["solve", "foo", "--field", "F3"], id="solve-unknown-kind"),
        pytest.param(["prop", "P-SEMI", "--trials", "-5"], id="negative-trials"),
        pytest.param(["prop", "P-SEMI", "--dims", "9,9"], id="unknown-option"),
        pytest.param(["derive", "circ-t", "a2.json", "t2.json", "beta2.json"], id="surplus-derive-input"),
        pytest.param(["check", "nybe", "a2.json", "r_e2e2.json", "t2.json"], id="surplus-check-input"),
        pytest.param([], id="no-command"),
        pytest.param(["check", "rota-baxter", "--weight", "1/3", "a2_f3.json", _document("linmap", 3)], id="scalar-not-in-field"),
        pytest.param(["solve", "ext-o", "a2_f3.json", "--field", "F3", "--weight", "1/3"], id="solve-scalar-not-in-field"),
        pytest.param(["prop", "P-NOPE"], id="prop-unknown-id"),
        pytest.param(["verify", "algebra", _document("algebra", 4)], id="field-p-4"),
        pytest.param(["verify", "algebra", _document("algebra", 9)], id="field-p-9"),
        pytest.param(["verify", "algebra", _a2_with({"kind": "prime", "p": 3.9}, 1)], id="field-p-float"),
        pytest.param(["verify", "algebra", _a2_with({"kind": "complex"}, 1)], id="field-kind-unknown"),
        pytest.param(["verify", "algebra", _a2_sized(2.7)], id="dim-float"),
        pytest.param(["verify", "algebra", _a2_sized("2")], id="dim-string"),
        pytest.param(["verify", "bimodule", _bimodule_mdim(True)], id="mdim-bool"),
        pytest.param(["check", "rota-baxter", "a2.json", _map_shaped(rows=2.0)], id="rows-float"),
        pytest.param(["check", "rota-baxter", "a2.json", _map_shaped(cols=True)], id="cols-bool"),
        pytest.param(["check", "nybe", "a2.json", _rational("tensor2", {"dim": 2.0, "entries": _identity(2)})], id="tensor-dim-float"),
        pytest.param(["verify", "bilform", _bilform_bundle(1)], id="form-smaller-than-algebra"),
        pytest.param(["verify", "bilform", _bilform_bundle(3)], id="form-larger-than-algebra"),
        pytest.param(["check", "rota-baxter", "a2.json", _document("linmap", 3)], id="map-over-other-field"),
        pytest.param(["check", "rota-baxter", "a2.json", _map(3)], id="rota-baxter-map-3x3"),
        pytest.param(["check", "ext-o", "a2.json", "regular", _map(3), "beta2.json"], id="ext-o-map-3x3"),
        pytest.param(
            ["check", "ext-o", "a2_f3.json", "regular", _document("linmap", 3), _ZERO2], id="ext-o-zero-beta-other-field"
        ),
        pytest.param(["check", "ext-o", _TRUNC3, "regular", _map(3), _ZERO2], id="ext-o-zero-beta-2x2-on-dim-3"),
        pytest.param(["derive", "circ-t", "a2.json", _map(3)], id="circ-t-map-3x3"),
        pytest.param(
            [
                "derive", "lift-map", "a2_f3.json", "regular",
                _rational("linmap", {"rows": 2, "cols": 2, "entries": [["1/2", 0], [0, 1]]}),
            ],
            id="lift-map-gamma-over-other-field",
        ),
        pytest.param(["verify", "trialgebra", _MIXED_TRIALGEBRA], id="trialgebra-members-over-other-fields"),
        pytest.param(
            ["derive", "post-from-trialgebra", _MIXED_TRIALGEBRA], id="post-from-trialgebra-members-over-other-fields"
        ),
        pytest.param(["check", "nybe", "a2.json", _rational("tensor2", {"dim": 3, "entries": _identity(3)})], id="tensor-dim-3"),
        pytest.param(["check", "nybe", "a2.json", _TENSOR0], id="nybe-tensor-dim-0"),
        pytest.param(["check", "enybe", "--epsilon", "1", "a2.json", _TENSOR0], id="enybe-tensor-dim-0"),
        pytest.param(["check", "gnybe", "a2.json", _TENSOR0], id="gnybe-tensor-dim-0"),
        pytest.param(["check", "gnybe", "a2_f3.json", _TENSOR0], id="gnybe-tensor-dim-0-other-field"),
        pytest.param(["check", "bialgebra-extra", "a2.json", _TENSOR0], id="bialgebra-extra-tensor-dim-0"),
        pytest.param(["derive", "dual-pm", "a2.json", _TENSOR0], id="dual-pm-tensor-dim-0"),
        pytest.param(["derive", "post-from-nybe", "a2.json", _TENSOR0], id="post-from-nybe-tensor-dim-0"),
        pytest.param(["check", "invariance", _ALG0, "r_skew.json"], id="invariance-algebra-dim-0"),
        pytest.param(["check", "invariance", _ALG0, _TENSOR0_F3], id="invariance-algebra-dim-0-other-field"),
        pytest.param(["check", "bialgebra-extra", _ALG0, "r_skew.json"], id="bialgebra-extra-algebra-dim-0"),
        pytest.param(["check", "bialgebra-extra", _ALG0, _TENSOR0_F3], id="bialgebra-extra-algebra-dim-0-other-field"),
        pytest.param(["derive", "delta-r", _ALG0, "r_skew.json"], id="delta-r-algebra-dim-0"),
        pytest.param(["derive", "delta-r", _ALG0, _TENSOR0_F3], id="delta-r-algebra-dim-0-other-field"),
        pytest.param(
            ["check", "nybe", "a2.json", _rational("tensor2", {"dim": 3, "entries": _identity(2)})],
            id="tensor-dim-disagrees-with-entries",
        ),
        pytest.param(
            ["check", "adjoint", _rational("bilform", {"dim": 3, "entries": _identity(2)}), "t2.json"],
            id="form-dim-disagrees-with-entries",
        ),
        pytest.param(["verify", "algebra", b"[" * 100000 + b"]" * 100000], id="json-nested-too-deeply"),
        pytest.param(["verify", "algebra", b"\xff\xfe{\x00"], id="file-not-utf8"),
        pytest.param(["verify", "algebra", b'{"kind": "algebra", "mul": ' + b"9" * 4301 + b"}"], id="json-integer-too-long"),
        pytest.param(["verify", "algebra", _a2_with(_Q, "1e30")], id="scalar-exponent"),
        pytest.param(["verify", "algebra", _a2_with(_Q, "1_0")], id="scalar-digit-separator"),
        pytest.param(["verify", "algebra", _a2_with(_Q, "0.5")], id="scalar-decimal-point"),
        pytest.param(["verify", "algebra", _a2_with(_F3, "1_0")], id="scalar-digit-separator-f3"),
        pytest.param(["verify", "algebra", _a2_with(_Q, True)], id="scalar-boolean"),
        pytest.param(["verify", "algebra", _a2_with(_F3, True)], id="scalar-boolean-f3"),
        pytest.param(["verify", "algebra", _a2_labelled(["x"])], id="labels-too-few"),
        pytest.param(["verify", "algebra", _a2_labelled([{"x": 1}, [2]])], id="labels-not-strings"),
        pytest.param(["check", "rota-baxter", "--weight", "1e3000000", "a2.json", "t2.json"], id="weight-exponent"),
        pytest.param(["check", "rota-baxter", "--weight", "0.5", "a2.json", "t2.json"], id="weight-decimal-point"),
        pytest.param(["solve", "novikov", "--dim", "99", "--field", "F2", "--count-only"], id="space-exponent-too-large"),
        pytest.param(["solve", "novikov", "--dim", "1000", "--field", "F3", "--count-only"], id="space-exponent-huge"),
        pytest.param(["solve", "novikov", "--dim", "2", "--field", "F2", "--jobs", "0"], id="jobs-zero"),
        pytest.param(["solve", "novikov", "--dim", "2", "--field", "F2", "--jobs", "-3"], id="jobs-negative"),
        pytest.param(["solve", "novikov", "--dim", "2", "--field", "F2", "--jobs", "2", "--shard", "0/2"], id="jobs-with-shard"),
        pytest.param(
            ["solve", "novikov", "--dim", "2", "--field", "F5", "--jobs", str(_CORES + 1)],
            id="jobs-above-the-processor-count",
        ),
        pytest.param(["solve", "novikov", "--dim", "2", "--field", "F2", "--count-only", "--out", "sols.jsonl"], id="out-with-count-only"),
        pytest.param(
            ["solve", "novikov", "--dim", "2", "--field", "F2", "--count-only", "--out", "no/such/dir/sols.jsonl"],
            id="out-with-count-only-missing-dir",
        ),
        pytest.param(["check", "o-op", "a2.json", _zero_context(), "t2.json"], id="o-op-context-over-other-algebra"),
        pytest.param(
            ["check", "balanced", "a2.json", _zero_context(module=True), "beta2.json"],
            id="balanced-context-over-other-algebra",
        ),
        pytest.param(
            ["check", "generalized-o", "a2.json", _zero_context(module=True), "t2.json"],
            id="generalized-o-context-over-other-algebra",
        ),
        pytest.param(
            ["derive", "star-product", "a2.json", _zero_context(), "t2.json"], id="star-product-context-over-other-algebra"
        ),
        pytest.param(["derive", "semidirect", "a2.json", _zero_context()], id="semidirect-context-over-other-algebra"),
        pytest.param(["solve", "ext-o", "a2_f3.json", "--field", "F3", "--beta", "beta2.json"], id="solve-beta-over-q"),
        pytest.param(
            ["solve", "ext-o", "a2_f3.json", "--field", "F3", "--beta", "beta2.json", "--count-only"],
            id="solve-beta-over-q-count-only",
        ),
        pytest.param(["solve", "novikov", "a2_f3.json", "--field", "F3", "--count-only"], id="solve-novikov-with-context"),
        pytest.param(["solve", "novikov", "--field", "F2", "--weight", "1"], id="solve-novikov-with-weight"),
        pytest.param(
            ["solve", "rota-baxter", "a2_f3.json", "--field", "F3", "--beta", _document("linmap", 3)],
            id="solve-rota-baxter-with-beta",
        ),
        pytest.param(
            ["solve", "nybe", "a2_f3.json", "--field", "F3", "--epsilon", "1", "--mu", "2"], id="solve-nybe-with-scalars"
        ),
        pytest.param(
            ["check", "nybe", "a2.json", "r_e2e2.json", "--kappa", "5", "--equation-only", "--sign", "minus"],
            id="check-nybe-with-unread-options",
        ),
        pytest.param(
            ["derive", "star", "a2.json", "--weight", "7", "--sign", "minus", "--compatible"],
            id="derive-star-with-unread-options",
        ),
        pytest.param(["check", "ext-o", "--kappa", "9", "--mu", "4", "a2.json", "regular", "id2.json"], id="ext-o-without-beta"),
        pytest.param(
            ["derive", "circ-pm", "--weight", "1", "a2.json", "beta2.json", "--compatible"], id="circ-pm-with-compatible"
        ),
        pytest.param(["derive", "semidirect", _zero_context()], id="semidirect-one-document"),
        pytest.param(["check", "adjoint", "a2.json", "t2.json"], id="adjoint-form-is-an-algebra"),
        pytest.param(["verify", "algebra", _rational("postnov", {"dim": 1})], id="malformed-document-of-another-kind"),
        pytest.param(
            ["derive", "circ-t", "--weight", "1", "a2.json", "t2.json", "--out", TMP_DIR], id="derive-out-a-directory"
        ),
        pytest.param(["solve", "nybe", "a2_f3.json", "--field", "F3", "--out", TMP_DIR], id="solve-out-a-directory"),
        pytest.param(["verify", "algebra", _a2_mul([[[1, 0], [0, 1]], [[0, 1]]])], id="algebra-row-too-short"),
        pytest.param(["verify", "algebra", _a2_mul([[[1, 0], [0, 1]], [[0, 1], [0]]])], id="algebra-cell-too-short"),
        pytest.param(["derive", "double", "a2.json", _STAR_DUAL], id="double-bimodule-over-another-algebra"),
        pytest.param(["verify", "bimodule", _a2_regular_with(l=[_map(2)["payload"]])], id="bimodule-one-left-action"),
        pytest.param(["verify", "bimodule", _a2_regular_with(mdim=3)], id="bimodule-actions-not-mdim-square"),
        pytest.param(
            ["verify", "bilform", _rational("doc-bundle", {"documents": {"algebra": _rational("algebra", _TRI_PRODUCT)}})],
            id="bilform-bundle-without-form",
        ),
        pytest.param(["check", "rota-baxter", "a2.json", _rational("linmap", {"rows": 2})], id="map-without-entries"),
        pytest.param(["check", "rota-baxter", "a2.json", _map_shaped(rows=3)], id="map-rows-disagree-with-entries"),
        pytest.param(
            ["check", "rota-baxter", "a2.json", _rational("linmap", {"entries": [[1, 0], [0]]})], id="map-rows-ragged"
        ),
        pytest.param(["check", "nybe", "a2.json", _rational("tensor2", {"entries": [[1, 0], [0]]})], id="tensor-ragged"),
        pytest.param(
            ["verify", "algebra", {k: v for k, v in _a2_with(_Q, 1).items() if k != "payload"}],
            id="document-without-payload",
        ),
        pytest.param(["verify", "trialgebra", _trialgebra_with(dot=_map(2))], id="trialgebra-dot-not-an-algebra"),
        pytest.param(
            ["verify", "trialgebra", _trialgebra_with(derivation=_rational("algebra", _TRI_PRODUCT))],
            id="trialgebra-derivation-not-a-map",
        ),
        pytest.param(["verify", "trialgebra", _trialgebra_with(derivation=_map(3))], id="trialgebra-derivation-3x3"),
    ],
)
def test_input_errors_exit_2_with_one_line(capsys, fixture_path, tmp_path, request, monkeypatch, argv):
    # a dict argument is a document and a bytes argument a file's raw
    # contents, written to a file first; TMP_DIR is a directory.  No input
    # error may start a worker process.
    def no_pool(*args):
        raise AssertionError("an input error reached the process pool")

    monkeypatch.setattr("multiprocessing.get_context", no_pool)
    paths = []
    for n, arg in enumerate(argv):
        if arg is TMP_DIR:
            arg = str(tmp_path)
        elif isinstance(arg, dict):
            arg = json.dumps(arg).encode()
        if isinstance(arg, bytes):
            path = tmp_path / f"doc{n}.json"
            path.write_bytes(arg)
            arg = str(path)
        elif arg.endswith(".json"):
            arg = fixture_path(arg)
        paths.append(arg)
    code, out, err = run(capsys, *paths)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("input error: ")
    assert "<class" not in err
    assert _SAYS.get(request.node.callspec.id, "") in err


# the message of a case, where it is pinned: an input names the document
# kind it wants, and an unread option is named
_SAYS = {
    "adjoint-form-is-an-algebra": "form: expected a document of kind bilform, got algebra",
    "malformed-document-of-another-kind": "algebra: expected a document of kind algebra, got postnov",
    "check-nybe-with-unread-options": "check nybe reads no --kappa, --equation-only, --sign",
    "derive-out-a-directory": "cannot write ",
    "solve-out-a-directory": "cannot write ",
    "solve-unknown-kind": (
        "unknown search kind 'foo': nova solve takes "
        "novikov, nybe, enybe, ext-o, rota-baxter, invariant-symmetric, quadratic-form"
    ),
    "scalar-not-in-field": "--weight 1/3 has no value in GF(3): denominator divisible by 3",
    "solve-scalar-not-in-field": "--weight 1/3 has no value in GF(3): denominator divisible by 3",
    "prop-unknown-id": (
        "unknown property id 'P-NOPE': nova prop takes "
        "P-SEMI, P-DUAL, P-EXT-STAR, P-DELTA-PM, P-R-PM, P-COR-BAX, P-BAXTER, P-CONS, P-ASSOC, "
        "P-LRBIMOD, P-COMPAT, P-HOM, P-TRI, P-TENSOR-OP, P-ENYBE-EXT, P-COR-ENYBE, P-SKEW, P-LEM-R, "
        "P-QN, P-DUAL-EXO, P-LIFT-BAL, P-LIFT-EXT, P-COR-GN, P-CIRC-DELTA, P-GNYBE-PROD, P-GNYBE-EXT, "
        "P-GOPER, P-GOPER-COR"
    ),
    "enybe-tensor-dim-0": "tensor dimension does not match the algebra",
    "gnybe-tensor-dim-0": "tensor dimension does not match the algebra",
    "gnybe-tensor-dim-0-other-field": "tensor and algebra over different fields",
    "bialgebra-extra-tensor-dim-0": "tensor dimension does not match the algebra",
    "invariance-algebra-dim-0": "tensor dimension does not match the algebra",
    "invariance-algebra-dim-0-other-field": "tensor and algebra over different fields",
    "bialgebra-extra-algebra-dim-0": "tensor dimension does not match the algebra",
    "bialgebra-extra-algebra-dim-0-other-field": "tensor and algebra over different fields",
    "delta-r-algebra-dim-0": "tensor dimension does not match the algebra",
    "delta-r-algebra-dim-0-other-field": "tensor and algebra over different fields",
    "tensor-dim-disagrees-with-entries": "tensor2 dimension disagrees with its entries",
    "form-dim-disagrees-with-entries": "bilform dimension disagrees with its entries",
    "form-smaller-than-algebra": "tensor dimension does not match the algebra",
    "form-larger-than-algebra": "tensor dimension does not match the algebra",
    "ext-o-zero-beta-other-field": "map is over QQ, context over GF(3)",
    "ext-o-zero-beta-2x2-on-dim-3": "map is 2x2, context wants 3x3",
    "lift-map-gamma-over-other-field": "map is over QQ, algebra over GF(3)",
    "trialgebra-members-over-other-fields": "trialgebra bundle members live over different fields",
    "post-from-trialgebra-members-over-other-fields": "trialgebra bundle members live over different fields",
    "json-integer-too-long": "invalid JSON: an integer literal has too many digits",
    "field-digits-too-many": "--field: unknown field name 'F999",
    "prop-field-digits-too-many": "--field: unknown field name 'F999",
    "field-superscript-digit": "--field: unknown field name 'F²'",
    "labels-too-few": "algebra labels must be 2 strings, one per basis vector",
    "labels-not-strings": "algebra labels must be 2 strings, one per basis vector",
    "field-p-float": "field modulus must be an integer, got 3.9",
    "field-kind-unknown": "bad field {'kind': 'complex'}: unknown field descriptor {'kind': 'complex'}",
    "dim-float": "dim must be an integer, got 2.7",
    "dim-string": "dim must be an integer, got '2'",
    "mdim-bool": "mdim must be an integer, got True",
    "rows-float": "rows must be an integer, got 2.0",
    "cols-bool": "cols must be an integer, got True",
    "tensor-dim-float": "dim must be an integer, got 2.0",
    "jobs-above-the-processor-count": f"--jobs must be at most {_CORES}, the processors this process may run on, got {_CORES + 1}",
    "algebra-row-too-short": "bad algebra payload: grid has wrong number of columns",
    "algebra-cell-too-short": "bad algebra payload: grid cell has wrong length",
    "double-bimodule-over-another-algebra": "bimodule is not over the given algebra",
    "bimodule-one-left-action": "bad bimodule payload: one action matrix per algebra basis element",
    "bimodule-actions-not-mdim-square": "bad bimodule payload: action matrices must be mdim x mdim",
    "bilform-bundle-without-form": (
        "a bilform bundle holds an algebra document 'algebra' and a bilform document 'form'"
    ),
    "map-without-entries": "bad matrix payload: 'entries'",
    "map-rows-disagree-with-entries": "matrix shape disagrees with its entries",
    "map-rows-ragged": "bad linmap payload: ragged rows",
    "tensor-ragged": "bad tensor2 payload: Tensor2 grid must be square",
    "document-without-payload": "missing envelope key 'payload'",
    "trialgebra-dot-not-an-algebra": "trialgebra bundle needs algebra members for both products",
    "trialgebra-derivation-not-a-map": "trialgebra bundle needs a linmap derivation",
    "trialgebra-derivation-3x3": "trialgebra bundle dimensions disagree",
}


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "nybe"],
        ["check", "enybe", "--epsilon", "1"],
        ["check", "gnybe"],
        ["check", "bialgebra-extra"],
        ["derive", "dual-pm"],
        ["derive", "post-from-nybe"],
        ["derive", "delta-r"],
    ],
    ids=lambda argv: "-".join(argv[:2]),
)
def test_dimension_zero_inputs_get_an_ordinary_verdict(capsys, tmp_path, argv):
    paths = []
    for name, doc in (("algebra.json", _ALG0), ("tensor.json", _TENSOR0)):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        paths.append(str(path))
    code, out, _ = run(capsys, *argv, *paths)
    assert code == 0
    report = json.loads(out)
    if argv[0] == "check":
        assert report["flag"] is True
    else:
        assert report["kind"] == "doc-bundle" and report["field"] == _ALG0["field"]


def test_solve_more_kinds(capsys, fixture_path):
    code, out, _ = run(
        capsys, "solve", "invariant-symmetric", fixture_path("a2_f3.json"), "--field", "F3", "--count-only"
    )
    assert code == 0 and json.loads(out)["count"] == 9
    code, out, _ = run(
        capsys, "solve", "enybe", fixture_path("a2_f3.json"), "--field", "F3", "--epsilon", "1", "--count-only"
    )
    assert code == 0 and json.loads(out)["count"] > 0
    # space-too-large guard
    code, _, err = run(capsys, "solve", "novikov", "--dim", "3", "--field", "F7")
    assert code == 2


@pytest.mark.parametrize("prop_id", ["P-ENYBE-EXT", "P-QN", "P-DUAL-EXO", "P-COR-GN"])
def test_prop_needing_a_quarter_fails_its_precondition_over_f2(capsys, prop_id):
    # epsilon = (kappa + 1)/4 has no value in characteristic 2
    code, out, err = run(capsys, "prop", prop_id, "--field", "F2")
    assert code == 1
    assert out == ""
    assert err.splitlines() == ["precondition failed: 1/2 does not exist in GF(2)"]


REPO = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "golden, argv",
    [
        ("golden_circ_t.json", ["derive", "circ-t", "--weight", "1", "a2.json", "t2.json"]),
        ("golden_semidirect.json", ["derive", "semidirect", "a2.json", "regular"]),
    ],
)
def test_derive_stdout_matches_its_golden_bytes(capsys, fixture_path, golden, argv):
    code, out, _ = run(capsys, *(fixture_path(a) if a.endswith(".json") else a for a in argv))
    assert code == 0
    assert out.encode() == pathlib.Path(fixture_path(golden)).read_bytes()


def test_closed_stdout_ends_without_a_traceback(fixture_path, tmp_path):
    out_path = tmp_path / "x.json"
    argv = ["derive", "circ-t", "--weight", "1", fixture_path("a2.json"), fixture_path("t2.json"), "--out", str(out_path)]
    read_end, write_end = os.pipe()
    os.close(read_end)  # closed before the child writes
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "novikov.cli", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONPATH": str(REPO / "src")},
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert out_path.exists()
    assert "Traceback" not in proc.stderr


def _readme_cli_lines() -> list:
    """The argv of each command in the README's CLI block, continuations joined."""
    text = (REPO / "README.md").read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True) for line in block.replace("\\\n", " ").splitlines()]


def test_readme_cli_block_runs(capsys, tmp_path, monkeypatch):
    # prop and solve lines are left out: they are slow
    shutil.copytree(REPO / "fixtures", tmp_path / "fixtures")
    monkeypatch.chdir(tmp_path)
    argvs = [words[1:] for words in _readme_cli_lines() if words[:1] == ["nova"] and words[1] in ("verify", "check", "derive")]
    assert len(argvs) >= 10
    for argv in argvs:
        code = main(argv)
        assert code == 0, (argv, capsys.readouterr().err)
