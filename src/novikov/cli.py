"""Command-line front end.

Exit codes: 0 = verified / property passed, 1 = residual nonzero or
counterexample found (or a precondition failed during derive), 2 = input
error.  Machine-readable JSON goes to stdout, human text to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from typing import Optional

from .algebra import (
    Algebra,
    BimodNov,
    Bimodule,
    abnova_residual,
    bimodule_residual,
    dual_bimodule,
    dual_context,
    novikov_residual,
    regular,
    regular_bimodule,
    semidirect,
    star_algebra,
)
from .errors import DimMismatch, DocumentError, FieldMismatch, NovikovError, SpaceTooLarge
from .fields import Field, field_by_name, parse_scalar
from .lift import (
    bialgebra_extra_residuals,
    circ_delta_algebra,
    delta_r,
    double,
    generalized_o_residual,
    gnybe_residuals,
    lift_map,
)
from .operators import (
    LinMap,
    MassParams,
    balanced_residual,
    baxter_residual,
    circ_t,
    diamond_product,
    equivalent_residual,
    ext_o_equation_residual,
    ext_o_residual,
    invariant_residual,
    pm_products,
    rota_baxter_residual,
    star_product,
)
from .postnov import (
    PostNov,
    compatible_from_rb,
    post_from_nybe,
    post_from_o,
    post_from_rb,
    post_from_trialgebra,
    post_on_image,
    post_residual,
    derivation_residual,
    trialgebra_residual,
)
from .properties import PROPERTY_IDS, run_property
from .residual import Residual
from .serialize import (
    bundle_document,
    bundle_to_trialgebra,
    dumps,
    from_document,
    load_path,
    to_document,
)
from .solver import SEARCH_INPUTS, SearchSpec, enumerate_search
from .tensors import Tensor2
from .ybe import (
    BilForm,
    RTensor,
    adjoint_residual,
    bilform_invariance,
    dual_pm_products,
    enybe_residual,
    invariance_residual,
    nybe_residual,
    o_nybe_residual,
    quad_transport,
)

VERIFY_KINDS = ("algebra", "bimodule", "bimodnov", "postnov", "trialgebra", "bilform")

CHECK_KINDS = (
    "ext-o",
    "o-op",
    "rota-baxter",
    "baxter",
    "balanced",
    "invariant",
    "equivalent",
    "nybe",
    "enybe",
    "o-nybe",
    "gnybe",
    "invariance",
    "adjoint",
    "generalized-o",
    "bialgebra-extra",
)


def _human(msg: str) -> None:
    print(msg, file=sys.stderr)


def _report(check: str, flag: bool, witness, t0: float) -> dict:
    return {
        "check": check,
        "flag": flag,
        "residual_norm_zero": flag,
        "witness": witness,
        "elapsed_ms": int((time.perf_counter() - t0) * 1000),
    }


def _residual_witness(rep: Residual, fld: Field, verbose: bool):
    if rep.is_zero:
        return None
    if verbose:
        return [f.to_json(fld) for f in rep.failures]
    return rep.witness().to_json(fld)


def _emit(report: dict, flag: bool) -> int:
    print(json.dumps(report, sort_keys=True))
    _human(f"{report['check']}: {'ok' if flag else 'FAILED'}")
    return 0 if flag else 1


def _load_object(path: str):
    return from_document(load_path(path))


def _expect(obj, types, what: str):
    if not isinstance(obj, types):
        raise DocumentError(f"{what}: expected {types}, got {type(obj).__name__}")
    return obj


class _Inputs:
    """The positional input files of a command, consumed in order."""

    def __init__(self, paths):
        self._paths = list(paths)

    def __bool__(self) -> bool:
        return bool(self._paths)

    def take(self, what: str) -> str:
        if not self._paths:
            raise DocumentError(f"missing input file for {what}")
        return self._paths.pop(0)

    def algebra(self, args) -> Algebra:
        """The next input as an algebra.  The scalar options must exist in its
        field (1/3 has no value in F_3): one that does not is an input error."""
        alg = _expect(_load_object(self.take("algebra")), Algebra, "algebra")
        for name in ("weight", "kappa", "mu", "epsilon"):
            value = getattr(args, name, 0)
            try:
                alg.field.coerce(value)
            except NovikovError as exc:
                raise DocumentError(f"--{name} {value} has no value in {alg.field}: {exc}") from exc
        return alg

    def done(self) -> None:
        """Surplus inputs are an input error, never silently ignored."""
        if self._paths:
            raise DocumentError(f"unexpected extra input(s): {' '.join(self._paths)}")


def _context_from(alg: Algebra, spec: str) -> BimodNov:
    """A context token: 'regular', 'dual', or a path to a module document
    over ``alg`` (the same field, dimension and product)."""
    if spec == "regular":
        return regular(alg, validate=False)
    if spec == "dual":
        return dual_context(alg, validate=False)
    obj = _load_object(spec)
    if not isinstance(obj, (BimodNov, Bimodule)):
        raise DocumentError(f"{spec}: not a module context document")
    if (obj.alg.field, obj.alg.dim, obj.alg.mul) != (alg.field, alg.dim, alg.mul):
        raise DocumentError(f"{spec}: the context is over another algebra than the one given")
    return obj if isinstance(obj, BimodNov) else obj.trivial()


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    t0 = time.perf_counter()
    obj = _load_object(args.input)
    kind = args.kind
    if kind == "algebra":
        alg = _expect(obj, Algebra, args.input)
        rep = novikov_residual(alg)
        fld = alg.field
    elif kind == "bimodule":
        b = _expect(obj, Bimodule, args.input)
        rep = bimodule_residual(b)
        fld = b.field
    elif kind == "bimodnov":
        b = _expect(obj, BimodNov, args.input)
        rep = abnova_residual(b, require_pre=False)
        fld = b.field
    elif kind == "postnov":
        p = _expect(obj, PostNov, args.input)
        rep = post_residual(p)
        fld = p.field
    elif kind == "trialgebra":
        parts = _expect(obj, dict, args.input)
        tri = bundle_to_trialgebra(parts)
        rep = trialgebra_residual(tri).merged_with(derivation_residual(tri), "trialgebra")
        fld = tri.field
    elif kind == "bilform":
        parts = _expect(obj, dict, args.input)
        alg = _expect(parts.get("algebra"), Algebra, "bundle member 'algebra'")
        form = _expect(parts.get("form"), BilForm, "bundle member 'form'")
        rep, quadratic = bilform_invariance(alg, form)
        fld = alg.field
        report = _report("bilform", rep.is_zero, _residual_witness(rep, fld, args.verbose), t0)
        report["quadratic"] = quadratic
        return _emit(report, rep.is_zero)
    else:
        raise DocumentError(f"unknown verify kind {kind!r}")
    report = _report(kind, rep.is_zero, _residual_witness(rep, fld, args.verbose), t0)
    return _emit(report, rep.is_zero)


# ---------------------------------------------------------------------------
# check


def cmd_check(args) -> int:
    inputs = _Inputs(args.files)
    report, flag = _check(args, inputs)
    inputs.done()
    return _emit(report, flag)


def _check(args, inputs: _Inputs) -> tuple[dict, bool]:
    t0 = time.perf_counter()
    kind = args.kind
    take = inputs.take
    if kind in ("ext-o", "o-op"):
        alg = inputs.algebra(args)
        ctx = _context_from(alg, take("context"))
        alpha = _expect(_load_object(take("alpha")), LinMap, "alpha")
        beta = None
        if kind == "ext-o" and inputs:
            beta = _expect(_load_object(take("beta")), LinMap, "beta")
        params = MassParams(args.weight, args.kappa, args.mu, args.epsilon)
        residual = ext_o_equation_residual if args.equation_only else ext_o_residual
        rep = residual(ctx, alpha, beta, params)
        return _report(kind, rep.is_zero, _residual_witness(rep, alg.field, args.verbose), t0), rep.is_zero
    if kind in ("rota-baxter", "baxter"):
        alg = inputs.algebra(args)
        t = _expect(_load_object(take("t")), LinMap, "t")
        rep = (
            rota_baxter_residual(alg, t, args.weight)
            if kind == "rota-baxter"
            else baxter_residual(alg, t)
        )
        return _report(kind, rep.is_zero, _residual_witness(rep, alg.field, args.verbose), t0), rep.is_zero
    if kind in ("balanced", "invariant", "equivalent"):
        alg = inputs.algebra(args)
        ctx = _context_from(alg, take("context"))
        beta = _expect(_load_object(take("beta")), LinMap, "beta")
        if kind == "balanced":
            rep = balanced_residual(ctx, beta)
        elif kind == "invariant":
            rep = invariant_residual(ctx, beta, args.kappa)
        else:
            rep = equivalent_residual(ctx, beta, args.mu)
        return _report(kind, rep.is_zero, _residual_witness(rep, alg.field, args.verbose), t0), rep.is_zero
    if kind in ("nybe", "enybe", "o-nybe", "gnybe", "bialgebra-extra", "invariance"):
        alg = inputs.algebra(args)
        r = _expect(_load_object(take("tensor")), Tensor2, "tensor")
        fld = alg.field
        if kind in ("nybe", "enybe"):
            t3 = nybe_residual(alg, r) if kind == "nybe" else enybe_residual(alg, r, args.epsilon)
            flag = t3.is_zero()
            witness = None if flag else _tensor3_entries(t3, args.verbose)
        elif kind == "o-nybe":
            rep = o_nybe_residual(alg, r)
            flag = rep.is_zero
            witness = _residual_witness(rep, fld, args.verbose)
        elif kind == "gnybe":
            first, second = gnybe_residuals(alg, r)
            flag = all(t.is_zero() for t in first) and all(t.is_zero() for t in second)
            witness = None
            if not flag:
                for name, fam in (("first-family", first), ("second-family", second)):
                    for s, t3 in enumerate(fam):
                        if not t3.is_zero():
                            witness = {"family": name, "basis": s, "entries": _tensor3_entries(t3, args.verbose)}
                            break
                    if witness:
                        break
        elif kind == "bialgebra-extra":
            rep = bialgebra_extra_residuals(alg, r)
            flag = rep.is_zero
            witness = _residual_witness(rep, fld, args.verbose)
        else:
            rep = invariance_residual(alg, r)
            flag = rep.is_zero
            witness = _residual_witness(rep, fld, args.verbose)
        return _report(kind, flag, witness, t0), flag
    if kind == "adjoint":
        form = _expect(_load_object(take("form")), BilForm, "form")
        t = _expect(_load_object(take("t")), LinMap, "t")
        sign = 1 if args.sign != "minus" else -1
        rep = adjoint_residual(form, t, sign)
        return _report(kind, rep.is_zero, _residual_witness(rep, form.field, args.verbose), t0), rep.is_zero
    if kind == "generalized-o":
        alg = inputs.algebra(args)
        ctx = _context_from(alg, take("context"))
        alpha = _expect(_load_object(take("alpha")), LinMap, "alpha")
        rep = generalized_o_residual(ctx, alpha)
        return _report(kind, rep.is_zero, _residual_witness(rep, alg.field, args.verbose), t0), rep.is_zero
    raise DocumentError(f"unknown check kind {kind!r}")


def _tensor3_entries(t3, verbose: bool):
    fld = t3.field
    out = []
    n = t3.dim
    for i in range(n):
        for j in range(n):
            for k in range(n):
                c = t3[i, j, k]
                if not fld.is_zero(c):
                    out.append({"slot": [i, j, k], "value": fld.scalar_to_json(c)})
                    if not verbose and len(out) >= 1:
                        return out
    return out


# ---------------------------------------------------------------------------
# derive


def cmd_derive(args) -> int:
    inputs = _Inputs(args.inputs)
    take = inputs.take
    name = args.construction
    if name == "star":
        alg = inputs.algebra(args)
        doc = to_document(star_algebra(alg))
    elif name == "dual-bimodule":
        obj = _load_object(take("bimodule"))
        if isinstance(obj, Algebra):
            obj = regular_bimodule(obj)
        doc = to_document(dual_bimodule(_expect(obj, Bimodule, "bimodule")))
    elif name == "semidirect":
        alg_or_ctx = _load_object(take("context"))
        if isinstance(alg_or_ctx, Algebra):
            ctx = _context_from(alg_or_ctx, take("context token"))
        else:
            ctx = _expect(alg_or_ctx, BimodNov, "context")
        doc = to_document(semidirect(ctx))
    elif name == "double":
        alg = inputs.algebra(args)
        tok = take("bimodule")
        bim = regular_bimodule(alg) if tok == "regular" else _expect(_load_object(tok), Bimodule, "bimodule")
        doc = to_document(double(alg, bim).algebra)
    elif name == "circ-t":
        alg = inputs.algebra(args)
        t = _expect(_load_object(take("t")), LinMap, "t")
        doc = to_document(circ_t(alg, t, args.weight))
    elif name == "circ-pm":
        alg = inputs.algebra(args)
        beta = _expect(_load_object(take("beta")), LinMap, "beta")
        plus, minus = pm_products(regular(alg, validate=False), beta, args.weight)
        f = alg.field
        docs = {
            "plus": to_document(Algebra(f, alg.dim, plus)),
            "minus": to_document(Algebra(f, alg.dim, minus)),
        }
        if args.sign == "plus":
            doc = docs["plus"]
        elif args.sign == "minus":
            doc = docs["minus"]
        else:
            doc = bundle_document(docs)
    elif name == "star-product":
        alg = inputs.algebra(args)
        ctx = _context_from(alg, take("context"))
        alpha = _expect(_load_object(take("alpha")), LinMap, "alpha")
        grid, closure = star_product(ctx, alpha, args.weight)
        if not closure.is_zero:
            raise NovikovError("closure identities fail; the product is not Novikov")
        doc = to_document(Algebra(alg.field, ctx.mdim, grid))
    elif name == "diamond-product":
        alg = inputs.algebra(args)
        ctx = _context_from(alg, take("context"))
        dplus = _expect(_load_object(take("delta-plus")), LinMap, "delta-plus")
        dminus = _expect(_load_object(take("delta-minus")), LinMap, "delta-minus")
        grid, alpha, beta = diamond_product(ctx, dplus, dminus, args.weight)
        doc = bundle_document(
            {
                "product": to_document(Algebra(alg.field, ctx.mdim, grid)),
                "symmetrizer": to_document(alpha),
                "antisymmetrizer": to_document(beta),
            }
        )
    elif name == "post-from-o":
        alg = inputs.algebra(args)
        ctx = _context_from(alg, take("context"))
        alpha = _expect(_load_object(take("alpha")), LinMap, "alpha")
        doc = to_document(post_from_o(ctx, alpha, args.weight))
    elif name == "post-from-rb":
        alg = inputs.algebra(args)
        t = _expect(_load_object(take("t")), LinMap, "t")
        if args.compatible:
            doc = to_document(compatible_from_rb(alg, t, args.weight))
        else:
            doc = to_document(post_from_rb(alg, t, args.weight))
    elif name == "post-from-trialgebra":
        tri = bundle_to_trialgebra(_expect(_load_object(take("trialgebra")), dict, "trialgebra"))
        doc = to_document(post_from_trialgebra(tri))
    elif name == "post-from-nybe":
        alg = inputs.algebra(args)
        r = _expect(_load_object(take("tensor")), Tensor2, "tensor")
        dual_post, compat = post_from_nybe(alg, r)
        docs = {"dual": to_document(dual_post)}
        if compat is not None:
            docs["compatible"] = to_document(compat)
        doc = bundle_document(docs)
    elif name == "post-on-image":
        alg = inputs.algebra(args)
        ctx = _context_from(alg, take("context"))
        alpha = _expect(_load_object(take("alpha")), LinMap, "alpha")
        image = post_on_image(ctx, alpha, args.weight)
        doc = to_document(image.post)
        doc["pivot_columns"] = list(image.pivot_cols)
    elif name == "dual-pm":
        alg = inputs.algebra(args)
        r = _expect(_load_object(take("tensor")), Tensor2, "tensor")
        rt = RTensor.build(alg, r)
        plus, minus = dual_pm_products(alg, rt)
        doc = bundle_document(
            {
                "plus": to_document(Algebra(alg.field, alg.dim, plus)),
                "minus": to_document(Algebra(alg.field, alg.dim, minus)),
            }
        )
    elif name == "circ-delta":
        alg = inputs.algebra(args)
        r = _expect(_load_object(take("tensor")), Tensor2, "tensor")
        doc = to_document(circ_delta_algebra(alg, r))
    elif name == "delta-r":
        alg = inputs.algebra(args)
        r = _expect(_load_object(take("tensor")), Tensor2, "tensor")
        docs = {
            f"e{s}": to_document(delta_r(alg, r, alg.basis_vec(s))) for s in range(alg.dim)
        }
        doc = bundle_document(docs)
    elif name == "lift-map":
        alg = inputs.algebra(args)
        tok = take("bimodule")
        bim = regular_bimodule(alg) if tok == "regular" else _expect(_load_object(tok), Bimodule, "bimodule")
        gamma = _expect(_load_object(take("gamma")), LinMap, "gamma")
        lifted = lift_map(double(alg, bim), gamma)
        doc = bundle_document(
            {
                "map": to_document(LinMap(lifted.mat)),
                "tensor": to_document(lifted.tensor),
                "tensor_minus": to_document(lifted.tensor_minus),
                "tensor_plus": to_document(lifted.tensor_plus),
            }
        )
    elif name == "quad-transport":
        alg = inputs.algebra(args)
        form = _expect(_load_object(take("form")), BilForm, "form")
        t = _expect(_load_object(take("t")), LinMap, "t")
        beta = _expect(_load_object(take("beta")), LinMap, "beta")
        qt = quad_transport(alg, form, t, beta)
        doc = bundle_document(
            {
                "p_t": to_document(qt.p_t),
                "p_beta": to_document(qt.p_beta),
                "delta_plus": to_document(qt.delta_plus),
                "delta_minus": to_document(qt.delta_minus),
            }
        )
    else:
        raise DocumentError(f"unknown construction {name!r}")
    inputs.done()

    text = dumps(doc)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        _human(f"wrote {args.out}")
    sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# prop / solve


def cmd_prop(args) -> int:
    if args.property not in PROPERTY_IDS:
        raise DocumentError(f"unknown property id {args.property!r}")
    if args.trials is not None and args.trials < 0:
        raise DocumentError(f"--trials must be at least 0, got {args.trials}")
    fld = _field(args.field) if args.field else None
    res = run_property(args.property, trials=args.trials, seed=args.seed, field=fld)
    print(json.dumps(res.to_json(), sort_keys=True))
    _human(
        f"{args.property}: {'pass' if res.passed else 'FAIL'} "
        f"({res.checked} checks, {res.hypothesis_hits} hypothesis hits, {res.elapsed_ms} ms)"
    )
    return 0 if res.passed else 1


_SOLVE_KINDS = {
    "novikov": "novikov-algebra",
    "nybe": "nybe-solution",
    "enybe": "enybe-solution",
    "ext-o": "ext-o-operator",
    "rota-baxter": "rota-baxter",
    "invariant-symmetric": "invariant-symmetric-tensor",
    "quadratic-form": "quadratic-form",
}


def cmd_solve(args) -> int:
    # an option the search would ignore is an input error, not a no-op
    if args.jobs < 1:
        raise DocumentError(f"--jobs must be at least 1, got {args.jobs}")
    if args.jobs > 1 and args.shard:
        raise DocumentError("--jobs splits an unsharded search and cannot be combined with --shard")
    if args.out and args.count_only:
        raise DocumentError("--count-only writes no solutions, so it cannot be combined with --out")
    kind = _SOLVE_KINDS.get(args.kind, args.kind)
    given = {"algebra": args.context, "beta": args.beta}
    given.update((name, getattr(args, name)) for name in ("weight", "kappa", "mu", "epsilon"))
    reads = SEARCH_INPUTS.get(kind, given)  # an unknown kind is SearchSpec's error
    unread = [name for name, value in given.items() if value is not None and name not in reads]
    if unread:
        labels = ("a context algebra" if name == "algebra" else f"--{name}" for name in unread)
        raise DocumentError(f"a {kind} search reads no {', '.join(labels)}")
    alg = _expect(_load_object(args.context), Algebra, "context algebra") if args.context else None
    beta = _expect(_load_object(args.beta), LinMap, "beta") if args.beta else None
    dim = args.dim if args.dim is not None else (alg.dim if alg is not None else 2)
    shard_index, shard_count = 0, 1
    if args.shard:
        try:
            shard_index, shard_count = map(int, args.shard.split("/"))
        except ValueError as exc:
            raise DocumentError(f"--shard wants i/k, got {args.shard!r}") from exc
    fld = _field(args.field)
    try:
        spec = SearchSpec(
            kind,
            fld,
            dim,
            algebra=alg,
            weight=fld.coerce(args.weight or 0),
            kappa=fld.coerce(args.kappa or 0),
            mu=fld.coerce(args.mu or 0),
            epsilon=fld.coerce(args.epsilon or 0),
            beta=beta,
            shard_index=shard_index,
            shard_count=shard_count,
        )
    except NovikovError as exc:
        raise DocumentError(f"bad search: {exc}") from exc
    res = enumerate_search(spec, jobs=args.jobs)
    if args.count_only:
        print(json.dumps({"kind": kind, "count": len(res.solutions), "hash": res.check_hash}, sort_keys=True))
        _human(f"{kind}: {len(res.solutions)} solutions out of {res.candidate_count} candidates")
        return 0
    text = res.to_jsonl()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        _human(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    _human(f"{kind}: {len(res.solutions)} solutions")
    return 0


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Usage errors are input errors: one line on stderr and exit 2."""

    def error(self, message):
        raise DocumentError(f"{self.prog}: {message}")


def _scalar(text: str) -> Fraction:
    """A scalar option: an integer or a fraction a/b, read exactly."""
    try:
        return parse_scalar(text)
    except (NovikovError, ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def _field(name: str) -> Field:
    try:
        return field_by_name(name)
    except NovikovError as exc:
        raise DocumentError(f"--field: {exc}") from exc


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and the parser of each command."""
    ap = _Parser(prog="nova", description="Exact checks for Novikov-algebra operator identities")
    sub = ap.add_subparsers(dest="command", required=True)
    commands = {}

    def command(name: str, fn, summary: str) -> argparse.ArgumentParser:
        commands[name] = sub.add_parser(name, help=summary)
        commands[name].set_defaults(fn=fn)
        return commands[name]

    p_verify = command("verify", cmd_verify, "verify the defining identities of an object")
    p_verify.add_argument("kind", choices=VERIFY_KINDS)
    p_verify.add_argument("input")
    p_verify.add_argument("--verbose", action="store_true")

    p_check = command("check", cmd_check, "check an operator / tensor identity")
    p_check.add_argument("kind", choices=CHECK_KINDS)
    p_check.add_argument("files", nargs="*")
    p_check.add_argument("--weight", type=_scalar, default=0)
    p_check.add_argument("--kappa", type=_scalar, default=0)
    p_check.add_argument("--mu", type=_scalar, default=0)
    p_check.add_argument("--epsilon", type=_scalar, default=0)
    p_check.add_argument("--sign", choices=("plus", "minus"), default="plus")
    p_check.add_argument("--equation-only", action="store_true")
    p_check.add_argument("--verbose", action="store_true")

    p_derive = command("derive", cmd_derive, "derive a construction and emit its document")
    p_derive.add_argument("construction")
    p_derive.add_argument("inputs", nargs="*")
    p_derive.add_argument("--weight", type=_scalar, default=0)
    p_derive.add_argument("--sign", choices=("plus", "minus", "both"), default="both")
    p_derive.add_argument("--compatible", action="store_true")
    p_derive.add_argument("--out")

    p_prop = command("prop", cmd_prop, "run a named property check")
    p_prop.add_argument("property")
    p_prop.add_argument("--trials", type=int, default=None)
    p_prop.add_argument("--seed", type=int, default=7)
    p_prop.add_argument("--field", default=None)

    p_solve = command("solve", cmd_solve, "exhaustive search over a small prime field")
    p_solve.add_argument("kind")
    p_solve.add_argument("context", nargs="?")
    p_solve.add_argument("--dim", type=int, default=None)
    p_solve.add_argument("--field", required=True)
    p_solve.add_argument("--weight", type=_scalar)
    p_solve.add_argument("--kappa", type=_scalar)
    p_solve.add_argument("--mu", type=_scalar)
    p_solve.add_argument("--epsilon", type=_scalar)
    p_solve.add_argument("--beta")
    p_solve.add_argument("--count-only", action="store_true")
    p_solve.add_argument("--shard")
    p_solve.add_argument("--jobs", type=int, default=1)
    p_solve.add_argument("--out")

    return ap, commands


def main(argv: Optional[list] = None) -> int:
    ap, commands = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        if not argv or argv[0] not in commands:
            ap.parse_args(argv)  # --help, or the error for a missing or unknown command
            ap.error("the command must come first")
        # options may come before, between or after the positionals
        args = commands[argv[0]].parse_intermixed_args(argv[1:])
        return args.fn(args)
    except (DocumentError, SpaceTooLarge, DimMismatch, FieldMismatch) as exc:
        _human(f"input error: {exc}")
        return 2
    except NovikovError as exc:
        _human(f"precondition failed: {exc}")
        return 1
    except FileNotFoundError as exc:
        _human(f"input error: {exc}")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
