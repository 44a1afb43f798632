"""Command-line front end.

Exit codes: 0 = verified / property passed, 1 = residual nonzero or
counterexample found (or a precondition failed during derive), 2 = input
error.  Machine-readable JSON goes to stdout, human text to stderr.

Each ``verify``, ``check`` and ``derive`` kind is one row of its command's
table (``VERIFY``, ``CHECK``, ``DERIVE``): its input slots in order, the
options it reads and the function it calls, named by module and attribute.
``_call`` runs every row: it rejects every given option the kind never
reads, loads and type-checks the slots, imports the function's module and
hands it the loaded inputs and the read options.  So a cold command loads
only the modules its row calls (and ``serialize`` only the classes of the
documents it reads); ``--help`` reads only slots and options, so it loads
no row's module.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction
from functools import partial
from importlib import import_module
from typing import Callable, Optional

from .algebra import Algebra, BimodNov, dual_context, regular, regular_bimodule
from .errors import DimMismatch, DocumentError, FieldMismatch, NovikovError, SpaceTooLarge
from .fields import Field, field_by_name, parse_scalar
from .residual import Residual
from .serialize import KINDS, bundle_document, bundle_to_trialgebra, dumps, from_document, load_path, to_document


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


def _tensor3_entries(t3, verbose: bool):
    fld = t3.field
    out = []
    n = t3.dim
    for i in range(n):
        for j in range(n):
            for k in range(n):
                c = t3[i, j, k]
                if c:
                    out.append({"slot": [i, j, k], "value": fld.scalar_to_json(c)})
                    if not verbose and len(out) >= 1:
                        return out
    return out


def _verdict(result, fld: Field, verbose: bool) -> tuple[bool, object]:
    """The flag and witness of a residual, a 3-tensor, or named families of
    3-tensors (the first nonzero member is the witness)."""
    if isinstance(result, Residual):
        return result.is_zero, _residual_witness(result, fld, verbose)
    if isinstance(result, dict):
        for name, family in result.items():
            for s, t3 in enumerate(family):
                if not t3.is_zero():
                    return False, {"family": name, "basis": s, "entries": _tensor3_entries(t3, verbose)}
        return True, None
    flag = result.is_zero()
    return flag, None if flag else _tensor3_entries(result, verbose)


def _emit(report: dict, flag: bool) -> int:
    print(json.dumps(report, sort_keys=True))
    _human(f"{report['check']}: {'ok' if flag else 'FAILED'}")
    return 0 if flag else 1


# ---------------------------------------------------------------------------
# input slots


class _Doc:
    """An input slot: the path of a document of one of ``kinds`` (decoded,
    then passed through ``convert``), or one of the slot's ``tokens``, each
    built from the algebra given first."""

    tokens: dict = {}

    def __init__(self, *kinds: str, convert: Optional[Callable] = None):
        self.kinds = kinds
        self.convert = convert

    def __str__(self) -> str:
        return "|".join((*self.tokens, *self.kinds))

    def load(self, name: str, token: str, alg: Optional[Algebra]):
        if token in self.tokens:
            return self.tokens[token](alg)
        doc = load_path(token)
        kind = doc.get("kind") if isinstance(doc, dict) else None
        if kind in KINDS and kind not in self.kinds:  # before decoding imports its class
            wanted = " or ".join(self.kinds)
            raise DocumentError(f"{name}: expected a document of kind {wanted}, got {kind}")
        obj = from_document(doc)
        return self.convert(obj) if self.convert else obj


class _Bimodule(_Doc):
    """``regular`` (the algebra acting on itself) or a bimodule document."""

    tokens = {"regular": regular_bimodule}


class _Context(_Doc):
    """``regular``, ``dual`` (the dual actions on A* with the trivial
    product), or a module document over the given algebra: the same field,
    dimension and product."""

    tokens = {"regular": partial(regular, validate=False), "dual": dual_context}

    def load(self, name: str, token: str, alg: Optional[Algebra]):
        obj = super().load(name, token, alg)
        if (obj.alg.field, obj.alg.dim, obj.alg.mul) != (alg.field, alg.dim, alg.mul):
            raise DocumentError(f"{token}: the context is over another algebra than the one given")
        return obj if isinstance(obj, BimodNov) else obj.trivial()


class _FormOn:
    """A bilform bundle: an algebra and a bilinear form on it."""

    def __init__(self, parts: dict):
        from .ybe import BilForm

        self.algebra, self.form = parts.get("algebra"), parts.get("form")
        if not (isinstance(self.algebra, Algebra) and isinstance(self.form, BilForm)):
            raise DocumentError("a bilform bundle holds an algebra document 'algebra' and a bilform document 'form'")
        self.field = self.algebra.field


ALGEBRA, MAP, TENSOR, FORM = _Doc("algebra"), _Doc("linmap"), _Doc("tensor2"), _Doc("bilform")
MODULE = _Doc("bimodule", "bimodnov")
BIMODULE = _Bimodule("bimodule", "bimodnov")
CONTEXT = _Context("bimodule", "bimodnov")
TRIALGEBRA = _Doc("doc-bundle", convert=bundle_to_trialgebra)
# an algebra document stands for its regular bimodule
MODULE_OR_ALGEBRA = _Doc(
    "bimodule", "bimodnov", "algebra", convert=lambda b: regular_bimodule(b) if isinstance(b, Algebra) else b
)


# ---------------------------------------------------------------------------
# the tables


class Kind:
    """One row of a command's table: ``Kind(ref, *options, **slots)`` reads
    the named options (argparse dests) and the input slots in the order
    given, and calls ``fn(*loaded inputs, **read options)``.  A context
    carries the algebra given before it, so ``fn`` gets the context in the
    algebra's place.

    ``ref`` names ``fn``: ``"module.name"`` for a function of
    ``novikov.module``, imported only when the row runs, or a bare name for
    an adapter below, which imports what it calls in its body."""

    def __init__(self, ref: str, *options: str, **slots: _Doc):
        self.ref = ref
        self.options = options
        self.slots = tuple((name.replace("_", "-"), slot) for name, slot in slots.items())

    def resolve(self) -> Callable:
        home, _, name = self.ref.rpartition(".")
        return getattr(import_module(f".{home}", __package__), name) if home else globals()[name]


def _bundle(**objs) -> dict:
    return bundle_document({name: to_document(obj) for name, obj in objs.items()})


def _trialgebra(tri):
    from .postnov import derivation_residual, trialgebra_residual

    return Residual("trialgebra", trialgebra_residual(tri).failures + derivation_residual(tri).failures)


def _bilform(pair: _FormOn):
    from .ybe import bilform_invariance

    rep, quadratic = bilform_invariance(pair.algebra, pair.form)
    return rep, {"quadratic": quadratic}


def _ext_o(ctx, alpha, beta, weight, kappa, mu, equation_only):
    from .operators import MassParams, ext_o_equation_residual, ext_o_residual

    residual = ext_o_equation_residual if equation_only else ext_o_residual
    return residual(ctx, alpha, beta, MassParams(weight, kappa, mu))


def _gnybe(alg, r) -> dict:
    from .lift import gnybe_residuals

    return dict(zip(("first-family", "second-family"), gnybe_residuals(alg, r)))


def _adjoint(form, t, sign):
    from .ybe import adjoint_residual

    return adjoint_residual(form, t, -1 if sign == "minus" else 1)


def _double(alg, bim):
    from .lift import double

    return double(alg, bim).algebra


def _circ_pm(alg, beta, weight, sign):
    from .operators import pm_products

    grids = zip(("plus", "minus"), pm_products(regular(alg, validate=False), beta, weight))
    pair = {name: Algebra(alg.field, alg.dim, grid) for name, grid in grids}
    return pair[sign] if sign in pair else _bundle(**pair)


def _star_product(ctx, alpha, weight):
    from .operators import star_product

    grid, closure = star_product(ctx, alpha, weight)
    if not closure.is_zero:
        raise NovikovError("closure identities fail; the product is not Novikov")
    return Algebra(ctx.field, ctx.mdim, grid)


def _diamond_product(ctx, delta_plus, delta_minus, weight):
    from .operators import diamond_product

    grid, alpha, beta = diamond_product(ctx, delta_plus, delta_minus, weight)
    return _bundle(product=Algebra(ctx.field, ctx.mdim, grid), symmetrizer=alpha, antisymmetrizer=beta)


def _post_from_rb(alg, t, weight, compatible):
    from .postnov import compatible_from_rb, post_from_rb

    return (compatible_from_rb if compatible else post_from_rb)(alg, t, weight)


def _post_from_nybe(alg, r):
    from .postnov import post_from_nybe

    dual_post, compat = post_from_nybe(alg, r)
    return _bundle(dual=dual_post) if compat is None else _bundle(dual=dual_post, compatible=compat)


def _post_on_image(ctx, alpha, weight):
    from .postnov import post_on_image

    image = post_on_image(ctx, alpha, weight)
    return {**to_document(image.post), "pivot_columns": list(image.pivot_cols)}


def _dual_pm(alg, r):
    from .ybe import RTensor, dual_pm_products

    plus, minus = dual_pm_products(alg, RTensor.build(alg, r))
    return _bundle(plus=Algebra(alg.field, alg.dim, plus), minus=Algebra(alg.field, alg.dim, minus))


def _delta_r(alg, r):
    from .lift import delta_r

    r.check_on(alg)  # also on a dimension-0 algebra, where no delta_r runs
    deltas = {f"e{s}": to_document(delta_r(alg, r, alg.basis_vec(s))) for s in range(alg.dim)}
    return bundle_document(deltas, alg.field)


def _lift_map(alg, bim, gamma):
    from .lift import double, lift_map
    from .operators import LinMap

    lifted = lift_map(double(alg, bim), gamma)
    return _bundle(
        map=LinMap(lifted.mat), tensor=lifted.tensor, tensor_minus=lifted.tensor_minus, tensor_plus=lifted.tensor_plus
    )


def _quad_transport(alg, form, t, beta):
    from .ybe import quad_transport

    qt = quad_transport(alg, form, t, beta)
    return _bundle(p_t=qt.p_t, p_beta=qt.p_beta, delta_plus=qt.delta_plus, delta_minus=qt.delta_minus)


# A verify or check function returns a Residual, a 3-tensor, or named
# families of 3-tensors, optionally paired with extra report fields.
VERIFY = {
    "algebra": Kind("algebra.novikov_residual", algebra=ALGEBRA),
    "bimodule": Kind("algebra.bimodule_residual", bimodule=MODULE),
    "bimodnov": Kind("algebra.abnova_residual", bimodnov=_Doc("bimodnov")),
    "postnov": Kind("postnov.post_residual", postnov=_Doc("postnov")),
    "trialgebra": Kind("_trialgebra", trialgebra=TRIALGEBRA),
    "bilform": Kind("_bilform", bundle=_Doc("doc-bundle", convert=_FormOn)),
}

CHECK = {
    "ext-o": Kind(
        "_ext_o", "weight", "kappa", "mu", "equation_only", algebra=ALGEBRA, context=CONTEXT, alpha=MAP, beta=MAP
    ),
    "o-op": Kind("operators.o_operator_residual", "weight", algebra=ALGEBRA, context=CONTEXT, alpha=MAP),
    "rota-baxter": Kind("operators.rota_baxter_residual", "weight", algebra=ALGEBRA, t=MAP),
    "baxter": Kind("operators.baxter_residual", algebra=ALGEBRA, t=MAP),
    "balanced": Kind("operators.balanced_residual", algebra=ALGEBRA, context=CONTEXT, beta=MAP),
    "invariant": Kind("operators.invariant_residual", "kappa", algebra=ALGEBRA, context=CONTEXT, beta=MAP),
    "equivalent": Kind("operators.equivalent_residual", "mu", algebra=ALGEBRA, context=CONTEXT, beta=MAP),
    "nybe": Kind("ybe.nybe_residual", algebra=ALGEBRA, tensor=TENSOR),
    "enybe": Kind("ybe.enybe_residual", "epsilon", algebra=ALGEBRA, tensor=TENSOR),
    "o-nybe": Kind("ybe.o_nybe_residual", algebra=ALGEBRA, tensor=TENSOR),
    "gnybe": Kind("_gnybe", algebra=ALGEBRA, tensor=TENSOR),
    "invariance": Kind("ybe.invariance_residual", algebra=ALGEBRA, tensor=TENSOR),
    "adjoint": Kind("_adjoint", "sign", form=FORM, t=MAP),
    "generalized-o": Kind("lift.generalized_o_residual", algebra=ALGEBRA, context=CONTEXT, alpha=MAP),
    "bialgebra-extra": Kind("lift.bialgebra_extra_residuals", algebra=ALGEBRA, tensor=TENSOR),
}

# A derive function returns an object or a finished document.
DERIVE = {
    "star": Kind("algebra.star_algebra", algebra=ALGEBRA),
    "dual-bimodule": Kind("algebra.dual_bimodule", bimodule=MODULE_OR_ALGEBRA),
    "semidirect": Kind("algebra.semidirect", algebra=ALGEBRA, context=CONTEXT),
    "double": Kind("_double", algebra=ALGEBRA, bimodule=BIMODULE),
    "circ-t": Kind("operators.circ_t", "weight", algebra=ALGEBRA, t=MAP),
    "circ-pm": Kind("_circ_pm", "weight", "sign", algebra=ALGEBRA, beta=MAP),
    "star-product": Kind("_star_product", "weight", algebra=ALGEBRA, context=CONTEXT, alpha=MAP),
    "diamond-product": Kind(
        "_diamond_product", "weight", algebra=ALGEBRA, context=CONTEXT, delta_plus=MAP, delta_minus=MAP
    ),
    "post-from-o": Kind("postnov.post_from_o", "weight", algebra=ALGEBRA, context=CONTEXT, alpha=MAP),
    "post-from-rb": Kind("_post_from_rb", "weight", "compatible", algebra=ALGEBRA, t=MAP),
    "post-from-trialgebra": Kind("postnov.post_from_trialgebra", trialgebra=TRIALGEBRA),
    "post-from-nybe": Kind("_post_from_nybe", algebra=ALGEBRA, tensor=TENSOR),
    "post-on-image": Kind("_post_on_image", "weight", algebra=ALGEBRA, context=CONTEXT, alpha=MAP),
    "dual-pm": Kind("_dual_pm", algebra=ALGEBRA, tensor=TENSOR),
    "circ-delta": Kind("lift.circ_delta_algebra", algebra=ALGEBRA, tensor=TENSOR),
    "delta-r": Kind("_delta_r", algebra=ALGEBRA, tensor=TENSOR),
    "lift-map": Kind("_lift_map", algebra=ALGEBRA, bimodule=BIMODULE, gamma=MAP),
    "quad-transport": Kind("_quad_transport", algebra=ALGEBRA, form=FORM, t=MAP, beta=MAP),
}

TABLES = {"verify": VERIFY, "check": CHECK, "derive": DERIVE}

_SCALARS = ("weight", "kappa", "mu", "epsilon")


# ---------------------------------------------------------------------------
# the driver


def _reject_unread(args, what: str, reads, offered) -> None:
    """A given option (or context) that ``what`` never reads is an input
    error, not a no-op; ``offered`` names all the command has, by dest."""
    unread = []
    for name in dict.fromkeys(offered):
        value = getattr(args, name)
        if name not in reads and value is not None and value is not False:
            unread.append("context algebra" if name == "algebra" else "--" + name.replace("_", "-"))
    if unread:
        raise DocumentError(f"{what} reads no {', '.join(unread)}")


def _call(args) -> tuple:
    """The result of ``args.kind``'s function on its loaded inputs and read
    options, with the field of its first input.  A read scalar must exist in
    that field (1/3 has no value in F_3) and is 0 when not given."""
    table = TABLES[args.command]
    row = table[args.kind]
    _reject_unread(args, f"{args.command} {args.kind}", row.options, (n for r in table.values() for n in r.options))
    paths = args.files
    if len(paths) < len(row.slots):
        raise DocumentError(f"missing input file for {row.slots[len(paths)][0]}")
    if len(paths) > len(row.slots):
        raise DocumentError(f"unexpected extra input(s): {' '.join(paths[len(row.slots):])}")
    loaded = []
    for (name, slot), path in zip(row.slots, paths):
        loaded.append(slot.load(name, path, loaded[0] if loaded else None))
    fld = loaded[0].field
    if any(isinstance(slot, _Context) for _, slot in row.slots):
        del loaded[0]  # the context carries the algebra
    options = {}
    for name in row.options:
        value = getattr(args, name)
        if name in _SCALARS and value is None:
            value = 0
        elif name in _SCALARS:
            try:
                fld.coerce(value)
            except NovikovError as exc:
                raise DocumentError(f"--{name} {value} has no value in {fld}: {exc}") from exc
        options[name] = value
    return row.resolve()(*loaded, **options), fld


def cmd_check(args) -> int:
    """``verify`` and ``check``: one report on the kind's residual."""
    t0 = time.perf_counter()
    result, fld = _call(args)
    result, extra = result if isinstance(result, tuple) else (result, {})
    flag, witness = _verdict(result, fld, args.verbose)
    return _emit({**_report(args.kind, flag, witness, t0), **extra}, flag)


def _write_out(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise DocumentError(f"cannot write {path}: {exc}") from exc
    _human(f"wrote {path}")


def cmd_derive(args) -> int:
    result, _ = _call(args)
    text = dumps(result if isinstance(result, dict) else to_document(result))
    if args.out:
        _write_out(args.out, text)
    sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# prop / solve


def cmd_prop(args) -> int:
    from .properties import PROPERTY_IDS, run_property  # imported here: only ``prop`` runs them

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
    from .solver import SEARCH_INPUTS, SearchSpec, enumerate_search  # imported here: only ``solve`` searches

    # an option the search would ignore is an input error, not a no-op
    if args.jobs < 1:
        raise DocumentError(f"--jobs must be at least 1, got {args.jobs}")
    if args.jobs > 1 and args.shard:
        raise DocumentError("--jobs splits an unsharded search and cannot be combined with --shard")
    if args.out and args.count_only:
        raise DocumentError("--count-only writes no solutions, so it cannot be combined with --out")
    kind = _SOLVE_KINDS.get(args.kind, args.kind)
    if kind in SEARCH_INPUTS:  # an unknown kind is SearchSpec's error
        offered = (name for reads in SEARCH_INPUTS.values() for name in reads)
        _reject_unread(args, f"a {kind} search", SEARCH_INPUTS[kind], offered)
    alg = ALGEBRA.load("context algebra", args.algebra, None) if args.algebra else None
    beta = MAP.load("beta", args.beta, None) if args.beta else None
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
        _write_out(args.out, text)
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


def _epilog(table: dict) -> str:
    """Each kind's inputs in order (name:type where the two differ) and the
    options it reads, from its row."""
    width = max(map(len, table)) + 2
    lines = ["each kind's inputs, in order, and the options it reads:"]
    for kind, row in table.items():
        slots = " ".join(name if name == str(slot) else f"{name}:{slot}" for name, slot in row.slots)
        reads = "".join(f" [--{name.replace('_', '-')}]" for name in row.options)
        lines.append(f"  {kind:<{width}}{slots}{reads}")
    lines.append("\nA given option that the kind never reads is an input error.")
    return "\n".join(lines)


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and the parser of each command."""
    ap = _Parser(prog="nova", description="Exact checks for Novikov-algebra operator identities")
    sub = ap.add_subparsers(dest="command", required=True)
    commands = {}

    def command(name: str, fn, summary: str, table: Optional[dict] = None) -> argparse.ArgumentParser:
        if table is None:
            commands[name] = sub.add_parser(name, help=summary)
        else:
            commands[name] = sub.add_parser(
                name, help=summary, epilog=_epilog(table), formatter_class=argparse.RawDescriptionHelpFormatter
            )
            commands[name].add_argument("kind", choices=table, metavar="kind")
        commands[name].set_defaults(fn=fn, command=name)
        return commands[name]

    p_verify = command("verify", cmd_check, "verify the defining identities of an object", VERIFY)
    p_verify.add_argument("files", nargs=1, metavar="input")
    p_verify.add_argument("--verbose", action="store_true")

    p_check = command("check", cmd_check, "check an operator / tensor identity", CHECK)
    p_check.add_argument("files", nargs="*")
    p_check.add_argument("--weight", type=_scalar)
    p_check.add_argument("--kappa", type=_scalar)
    p_check.add_argument("--mu", type=_scalar)
    p_check.add_argument("--epsilon", type=_scalar)
    p_check.add_argument("--sign", choices=("plus", "minus"))
    p_check.add_argument("--equation-only", action="store_true")
    p_check.add_argument("--verbose", action="store_true")

    p_derive = command("derive", cmd_derive, "derive a construction and emit its document", DERIVE)
    p_derive.add_argument("files", nargs="*", metavar="inputs")
    p_derive.add_argument("--weight", type=_scalar)
    p_derive.add_argument("--sign", choices=("plus", "minus", "both"))
    p_derive.add_argument("--compatible", action="store_true")
    p_derive.add_argument("--out")

    p_prop = command("prop", cmd_prop, "run a named property check")
    p_prop.add_argument("property")
    p_prop.add_argument("--trials", type=int, default=None)
    p_prop.add_argument("--seed", type=int, default=7)
    p_prop.add_argument("--field", default=None)

    p_solve = command("solve", cmd_solve, "exhaustive search over a small prime field")
    p_solve.add_argument("kind")
    p_solve.add_argument("algebra", nargs="?", metavar="context")
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
        code = args.fn(args)
        sys.stdout.flush()  # so a closed stdout shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # stdout closed early (``| head``): the Python docs' recipe, no traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (DocumentError, SpaceTooLarge, DimMismatch, FieldMismatch) as exc:
        _human(f"input error: {exc}")
        return 2
    except NovikovError as exc:
        _human(f"precondition failed: {exc}")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
