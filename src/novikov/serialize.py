"""Versioned JSON documents for every domain object the CLI touches.

Envelope: {"format": 1, "kind": ..., "field": {...}, "payload": {...}}.
Rational scalars serialize as strings ("3/4", integers allowed as input
shorthand); prime-field scalars as integers reduced into [0, p).

Every document is over an algebra or a matrix, so this module imports
``algebra`` and ``linalg`` up front.  The other classes are imported only
where they are needed: each kind has one decoder, which imports its class
when it first runs, and ``to_document`` finds an object's encoder by the
name of its class.  Decoding an algebra loads no ``operators``,
``tensors``, ``postnov`` or ``ybe``.
"""

from __future__ import annotations

import json
from functools import partial
from typing import Optional

from .algebra import Algebra, BimodNov, Bimodule
from .errors import DocumentError, NovikovError
from .fields import Field, field_from_json
from .linalg import Matrix

FORMAT_VERSION = 1


def _enc_vec(field: Field, v) -> list:
    return [field.scalar_to_json(c) for c in v]


def _enc_grid(field: Field, grid) -> list:
    return [[_enc_vec(field, cell) for cell in row] for row in grid]


def _dec_vec(field: Field, v) -> tuple:
    return tuple(field.scalar_from_json(c) for c in v)


def _dec_grid(field: Field, grid) -> tuple:
    return tuple(tuple(_dec_vec(field, cell) for cell in row) for row in grid)


def _enc_matrix(field: Field, m: Matrix) -> dict:
    return {
        "rows": m.rows,
        "cols": m.cols,
        "entries": [_enc_vec(field, m.row(i)) for i in range(m.rows)],
    }


def _dec_matrix(field: Field, obj) -> Matrix:
    try:
        rows = [_dec_vec(field, r) for r in obj["entries"]]
        m = Matrix.from_rows(field, rows)
    except (KeyError, TypeError, IndexError) as exc:
        raise DocumentError(f"bad matrix payload: {exc}") from exc
    if any(key in obj and _dec_int(obj, key) != size for key, size in (("rows", m.rows), ("cols", m.cols))):
        raise DocumentError("matrix shape disagrees with its entries")
    return m


# ---------------------------------------------------------------------------
# encoders: an object to its document


def _document(kind: str, field: Field, payload: dict) -> dict:
    return {"format": FORMAT_VERSION, "kind": kind, "field": field.to_json(), "payload": payload}


def _enc_algebra(alg) -> dict:
    payload = {"dim": alg.dim, "mul": _enc_grid(alg.field, alg.mul)}
    if alg.labels:
        payload["labels"] = list(alg.labels)
    return _document("algebra", alg.field, payload)


def _bimodule_payload(bim) -> dict:
    return {
        "algebra": _enc_algebra(bim.alg)["payload"],
        "mdim": bim.mdim,
        "l": [_enc_matrix(bim.field, m) for m in bim.l_mats],
        "r": [_enc_matrix(bim.field, m) for m in bim.r_mats],
    }


def _enc_bimodule(bim) -> dict:
    return _document("bimodule", bim.field, _bimodule_payload(bim))


def _enc_bimodnov(bim) -> dict:
    return _document("bimodnov", bim.field, {**_bimodule_payload(bim), "mul": _enc_grid(bim.field, bim.mul)})


def _enc_tensor2(kind: str, t) -> dict:
    return _document(kind, t.field, {"dim": t.dim, "entries": [_enc_vec(t.field, row) for row in t.grid]})


def _enc_postnov(p) -> dict:
    grids = {key: _enc_grid(p.field, getattr(p, key)) for key in ("circ", "tri_l", "tri_r")}
    return _document("postnov", p.field, {"dim": p.dim, **grids})


def _enc_trialgebra(tri) -> dict:
    # trialgebras ship as a bundle of standard kinds
    f = tri.field
    return bundle_document(
        {
            "dot": _enc_algebra(Algebra(f, tri.dim, tri.dot)),
            "circ": _enc_algebra(Algebra(f, tri.dim, tri.circ)),
            "derivation": to_document(tri.deriv),
        }
    )


# By the module and name of the object's class, so that encoding imports no
# class; the nearest class in the MRO wins (a BilForm is a Tensor2).
_ENCODERS = {
    "novikov.algebra.Algebra": _enc_algebra,
    "novikov.algebra.Bimodule": _enc_bimodule,
    "novikov.algebra.BimodNov": _enc_bimodnov,
    "novikov.linalg.Matrix": lambda m: _document("linmap", m.field, _enc_matrix(m.field, m)),
    "novikov.operators.LinMap": lambda t: _document("linmap", t.field, _enc_matrix(t.field, t.mat)),
    "novikov.tensors.Tensor2": partial(_enc_tensor2, "tensor2"),
    "novikov.ybe.BilForm": partial(_enc_tensor2, "bilform"),
    "novikov.postnov.PostNov": _enc_postnov,
    "novikov.postnov.CommTrialgebra": _enc_trialgebra,
    "builtins.dict": lambda parts: bundle_document({k: to_document(v) for k, v in parts.items()}),
}


def to_document(obj) -> dict:
    """Wrap a domain object in its JSON document; a dict of objects becomes
    a bundle."""
    for cls in type(obj).__mro__:
        encode = _ENCODERS.get(f"{cls.__module__}.{cls.__qualname__}")
        if encode is not None:
            return encode(obj)
    raise DocumentError(f"cannot serialize {type(obj).__name__}")


def bundle_document(docs: dict, field: Optional[Field] = None) -> dict:
    """Named documents over one field; ``field``, when given, is that field
    also for an empty bundle."""
    fields = [d["field"] for d in docs.values()] + ([field.to_json()] if field is not None else [])
    if len({json.dumps(f, sort_keys=True) for f in fields}) != 1:
        raise DocumentError("bundle members live over different fields")
    return {
        "format": FORMAT_VERSION,
        "kind": "doc-bundle",
        "field": fields[0],
        "payload": {"documents": docs},
    }


# ---------------------------------------------------------------------------
# decoders: a payload to its object


def _dec_int(payload, key: str) -> int:
    """The JSON integer ``payload[key]``: a float, string or bool is an error."""
    value = payload[key]
    if type(value) is not int:
        raise DocumentError(f"{key} must be an integer, got {value!r}")
    return value


def _dec_algebra(field: Field, payload) -> Algebra:
    dim = _dec_int(payload, "dim")
    labels = None
    if "labels" in payload:
        labels = payload["labels"]
        if not (isinstance(labels, list) and len(labels) == dim and all(isinstance(s, str) for s in labels)):
            raise DocumentError(f"algebra labels must be {dim} strings, one per basis vector")
        labels = tuple(labels)
    return Algebra(field, dim, _dec_grid(field, payload["mul"]), labels)


def _bimodule_parts(field: Field, payload) -> tuple:
    alg = _dec_algebra(field, payload["algebra"])
    mdim = _dec_int(payload, "mdim")
    l_mats = tuple(_dec_matrix(field, m) for m in payload["l"])
    r_mats = tuple(_dec_matrix(field, m) for m in payload["r"])
    return alg, mdim, l_mats, r_mats


def _dec_bimodule(field: Field, payload) -> Bimodule:
    return Bimodule(*_bimodule_parts(field, payload))


def _dec_bimodnov(field: Field, payload) -> BimodNov:
    return BimodNov(*_bimodule_parts(field, payload), _dec_grid(field, payload["mul"]))


def _dec_linmap(field: Field, payload):
    from .operators import LinMap

    return LinMap(_dec_matrix(field, payload))


def _dec_tensor(kind: str, cls, field: Field, payload):
    t = cls(field, tuple(_dec_vec(field, row) for row in payload["entries"]))
    if "dim" in payload and _dec_int(payload, "dim") != t.dim:
        raise DocumentError(f"{kind} dimension disagrees with its entries")
    return t


def _dec_tensor2(field: Field, payload):
    from .tensors import Tensor2

    return _dec_tensor("tensor2", Tensor2, field, payload)


def _dec_bilform(field: Field, payload):
    from .ybe import BilForm

    return _dec_tensor("bilform", BilForm, field, payload)


def _dec_postnov(field: Field, payload):
    from .postnov import PostNov

    grids = (_dec_grid(field, payload[key]) for key in ("circ", "tri_l", "tri_r"))
    return PostNov(field, _dec_int(payload, "dim"), *grids)


def _dec_bundle(field: Field, payload) -> dict:
    return {name: from_document(sub) for name, sub in payload["documents"].items()}


_DECODERS = {
    "algebra": _dec_algebra,
    "bimodule": _dec_bimodule,
    "bimodnov": _dec_bimodnov,
    "linmap": _dec_linmap,
    "tensor2": _dec_tensor2,
    "postnov": _dec_postnov,
    "bilform": _dec_bilform,
    "doc-bundle": _dec_bundle,
}

KINDS = tuple(_DECODERS)


def from_document(doc: dict):
    """Parse one document back into its domain object."""
    if not isinstance(doc, dict):
        raise DocumentError("document must be a JSON object")
    if doc.get("format") != FORMAT_VERSION:
        raise DocumentError(f"unsupported format {doc.get('format')!r}")
    kind = doc.get("kind")
    if kind not in KINDS:
        raise DocumentError(f"unknown kind {kind!r}")
    try:
        field_doc = doc["field"]
        payload = doc["payload"]
    except KeyError as exc:
        raise DocumentError(f"missing envelope key {exc}") from exc
    try:
        field = field_from_json(field_doc)
    except (NovikovError, AttributeError, KeyError, TypeError, ValueError) as exc:  # e.g. "p": 4
        raise DocumentError(f"bad field {field_doc!r}: {exc}") from exc
    try:
        return _DECODERS[kind](field, payload)
    except DocumentError:
        raise
    except Exception as exc:
        raise DocumentError(f"bad {kind} payload: {exc}") from exc


def bundle_to_trialgebra(parts: dict):
    """Assemble a trialgebra from a parsed bundle with dot/circ/derivation."""
    from .operators import LinMap
    from .postnov import CommTrialgebra

    try:
        dot = parts["dot"]
        circ = parts["circ"]
        deriv = parts["derivation"]
    except KeyError as exc:
        raise DocumentError(f"trialgebra bundle missing {exc}") from exc
    if not isinstance(dot, Algebra) or not isinstance(circ, Algebra):
        raise DocumentError("trialgebra bundle needs algebra members for both products")
    mat = deriv.mat if isinstance(deriv, LinMap) else deriv
    if not isinstance(mat, Matrix):
        raise DocumentError("trialgebra bundle needs a linmap derivation")
    if not dot.field == circ.field == mat.field:
        raise DocumentError("trialgebra bundle members live over different fields")
    if dot.dim != circ.dim or mat.rows != dot.dim or mat.cols != dot.dim:
        raise DocumentError("trialgebra bundle dimensions disagree")
    return CommTrialgebra(dot.field, dot.dim, dot.mul, circ.mul, mat)


def dumps(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def loads(text: str) -> dict:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise DocumentError("invalid JSON: nested too deeply") from exc
    except ValueError as exc:  # the only other error json raises: an int past the interpreter's digit limit
        raise DocumentError("invalid JSON: an integer literal has too many digits") from exc


def load_path(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return loads(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc
