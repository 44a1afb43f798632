"""Versioned JSON documents for every domain object the CLI touches.

Envelope: {"format": 1, "kind": ..., "field": {...}, "payload": {...}}.
Rational scalars serialize as strings ("3/4", integers allowed as input
shorthand); prime-field scalars as integers reduced into [0, p).
"""

from __future__ import annotations

import json
from typing import Optional

from .algebra import Algebra, BimodNov, Bimodule
from .errors import DocumentError, NovikovError
from .fields import Field, field_from_json
from .linalg import Matrix
from .operators import LinMap
from .postnov import CommTrialgebra, PostNov
from .tensors import Tensor2
from .ybe import BilForm

FORMAT_VERSION = 1

KINDS = (
    "algebra",
    "bimodule",
    "bimodnov",
    "linmap",
    "tensor2",
    "postnov",
    "bilform",
    "doc-bundle",
)


def _enc_scalar(field: Field, c):
    return field.scalar_to_json(c)


def _enc_vec(field: Field, v) -> list:
    return [_enc_scalar(field, c) for c in v]


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
    if m.rows != obj.get("rows", m.rows) or m.cols != obj.get("cols", m.cols):
        raise DocumentError("matrix shape disagrees with its entries")
    return m


def to_document(obj) -> dict:
    """Wrap a domain object in its JSON document."""
    if isinstance(obj, Algebra):
        kind = "algebra"
        field = obj.field
        payload = {"dim": obj.dim, "mul": _enc_grid(field, obj.mul)}
        if obj.labels:
            payload["labels"] = list(obj.labels)
    elif isinstance(obj, BimodNov):
        kind = "bimodnov"
        field = obj.field
        payload = {
            "algebra": to_document(obj.alg)["payload"],
            "mdim": obj.mdim,
            "l": [_enc_matrix(field, m) for m in obj.l_mats],
            "r": [_enc_matrix(field, m) for m in obj.r_mats],
            "mul": _enc_grid(field, obj.mul),
        }
    elif isinstance(obj, Bimodule):
        kind = "bimodule"
        field = obj.field
        payload = {
            "algebra": to_document(obj.alg)["payload"],
            "mdim": obj.mdim,
            "l": [_enc_matrix(field, m) for m in obj.l_mats],
            "r": [_enc_matrix(field, m) for m in obj.r_mats],
        }
    elif isinstance(obj, LinMap):
        kind = "linmap"
        field = obj.field
        payload = _enc_matrix(field, obj.mat)
    elif isinstance(obj, Matrix):
        kind = "linmap"
        field = obj.field
        payload = _enc_matrix(field, obj)
    elif isinstance(obj, Tensor2):  # a BilForm is a Tensor2
        kind = "bilform" if isinstance(obj, BilForm) else "tensor2"
        field = obj.field
        payload = {"dim": obj.dim, "entries": [_enc_vec(field, row) for row in obj.grid]}
    elif isinstance(obj, PostNov):
        kind = "postnov"
        field = obj.field
        payload = {
            "dim": obj.dim,
            "circ": _enc_grid(field, obj.circ),
            "tri_l": _enc_grid(field, obj.tri_l),
            "tri_r": _enc_grid(field, obj.tri_r),
        }
    elif isinstance(obj, CommTrialgebra):
        # trialgebras ship as a bundle of standard kinds
        field = obj.field
        return bundle_document(
            {
                "dot": to_document(Algebra(field, obj.dim, obj.dot)),
                "circ": to_document(Algebra(field, obj.dim, obj.circ)),
                "derivation": to_document(obj.deriv),
            }
        )
    elif isinstance(obj, dict):
        return bundle_document({k: to_document(v) for k, v in obj.items()})
    else:
        raise DocumentError(f"cannot serialize {type(obj).__name__}")
    return {"format": FORMAT_VERSION, "kind": kind, "field": field.to_json(), "payload": payload}


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
        return _decode_payload(kind, field, payload)
    except DocumentError:
        raise
    except Exception as exc:
        raise DocumentError(f"bad {kind} payload: {exc}") from exc


def _decode_payload(kind: str, field: Field, payload):
    if kind == "algebra":
        dim = int(payload["dim"])
        labels = tuple(payload["labels"]) if "labels" in payload else None
        return Algebra(field, dim, _dec_grid(field, payload["mul"]), labels)
    if kind in ("bimodule", "bimodnov"):
        alg = _decode_payload("algebra", field, payload["algebra"])
        mdim = int(payload["mdim"])
        l_mats = tuple(_dec_matrix(field, m) for m in payload["l"])
        r_mats = tuple(_dec_matrix(field, m) for m in payload["r"])
        if kind == "bimodule":
            return Bimodule(alg, mdim, l_mats, r_mats)
        return BimodNov(alg, mdim, l_mats, r_mats, _dec_grid(field, payload["mul"]))
    if kind == "linmap":
        return LinMap(_dec_matrix(field, payload))
    if kind in ("tensor2", "bilform"):
        cls = BilForm if kind == "bilform" else Tensor2
        t = cls(field, tuple(_dec_vec(field, row) for row in payload["entries"]))
        if t.dim != payload.get("dim", t.dim):
            raise DocumentError(f"{kind} dimension disagrees with its entries")
        return t
    if kind == "postnov":
        dim = int(payload["dim"])
        return PostNov(
            field,
            dim,
            _dec_grid(field, payload["circ"]),
            _dec_grid(field, payload["tri_l"]),
            _dec_grid(field, payload["tri_r"]),
        )
    if kind == "doc-bundle":
        return {name: from_document(sub) for name, sub in payload["documents"].items()}
    raise DocumentError(kind)


def bundle_to_trialgebra(parts: dict) -> CommTrialgebra:
    """Assemble a trialgebra from a parsed bundle with dot/circ/derivation."""
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


def load_path(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return loads(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc
