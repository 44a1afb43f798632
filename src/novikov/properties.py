"""Named machine-checkable properties, one per theorem-level statement.

Every property runs on (a) the bundled worked example, (b) enumerated
instances from the solver, and (c) seeded random instances, and reports
the serialized counterexample on failure.  Equivalence properties check
both directions by comparing exact boolean verdicts.  All counting goes
through ``PropertyRun``'s methods.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field as dc_field
from itertools import product
from typing import Callable, Optional, Sequence

from .algebra import (
    Algebra,
    BimodNov,
    Bimodule,
    abnova_residual,
    bimodule_residual,
    dual_bimodule,
    dual_context,
    grids_equal,
    novikov_residual,
    regular,
    regular_bimodule,
    semidirect,
)
from .errors import NovikovError
from .fields import Field, GF, PolyRing, PrimeField, QQ
from .fixtures import example_algebra, example_beta, example_t
from .linalg import Matrix, inverse
from .operators import (
    LinMap,
    MassParams,
    balanced_residual,
    baxter_residual,
    bimodule_hom_residual,
    circ_t,
    equivalent_residual,
    ext_o_equation_residual,
    ext_o_residual,
    hom_residual,
    is_balanced_hom,
    o_operator_residual,
    pm_contexts,
    rota_baxter_residual,
    star_product,
)
from .postnov import (
    CommTrialgebra,
    PostNov,
    associated,
    derivation_residual,
    lr_bimodule,
    post_from_o,
    post_from_rb,
    post_from_trialgebra,
    post_residual,
    trialgebra_residual,
)
from .lift import (
    circ_delta,
    circ_delta_algebra,
    circ_delta_pairing,
    closure_residual,
    double,
    generalized_o_residual,
    gnybe_flag,
    lift_map,
)
from .residual import Residual
from .solver import (
    balanced_hom_basis,
    balanced_hom_equivalent_basis,
    enumerated_dim2,
    hom_map_basis,
    invariant_form_basis,
    invariant_symmetric_basis,
    linear_combination,
    map_space,
    random_matrix,
    residual_space,
    sample_from_basis,
    trunc_poly_algebra,
)
from .tensors import Tensor2
from .ybe import (
    RTensor,
    adjoint_residual,
    dual_pm_products,
    enybe_residual,
    hat_matrices,
    invariance_residual,
    nybe_residual,
    o_nybe_residual,
    quad_transport,
    skew_nybe_operator_residual,
)

PROPERTY_IDS = (
    "P-SEMI",
    "P-DUAL",
    "P-EXT-STAR",
    "P-DELTA-PM",
    "P-R-PM",
    "P-COR-BAX",
    "P-BAXTER",
    "P-CONS",
    "P-ASSOC",
    "P-LRBIMOD",
    "P-COMPAT",
    "P-HOM",
    "P-TRI",
    "P-TENSOR-OP",
    "P-ENYBE-EXT",
    "P-COR-ENYBE",
    "P-SKEW",
    "P-LEM-R",
    "P-QN",
    "P-DUAL-EXO",
    "P-LIFT-BAL",
    "P-LIFT-EXT",
    "P-COR-GN",
    "P-CIRC-DELTA",
    "P-GNYBE-PROD",
    "P-GNYBE-EXT",
    "P-GOPER",
    "P-GOPER-COR",
)


@dataclass
class PropertyRun:
    """The books of one property run.  ``checked`` counts the instances
    tested and ``hypothesis_hits`` those whose hypothesis held, so a run
    with checks but no hits was vacuous; only these methods count."""

    prop_id: str
    checked: int = 0
    hypothesis_hits: int = 0
    failures: list = dc_field(default_factory=list)
    elapsed_ms: int = 0

    @property
    def passed(self) -> bool:
        return not self.failures

    def count(self, checks: int = 0, hits: int = 0) -> None:
        """The bare counter, for checks and hits that do not come in pairs."""
        self.checked += checks
        self.hypothesis_hits += hits

    def expect(self, ok: bool, description: str, hit: bool = False, **context) -> bool:
        """One check, a hypothesis hit when ``hit``, and a failure unless
        ``ok``; returns ``ok``."""
        self.count(1, hit)
        if not ok:
            self.fail(description, **context)
        return ok

    def equivalent(self, lhs: bool, rhs: bool, description: str, **context) -> None:
        """One check that the hypothesis ``lhs`` and ``rhs`` agree, a hit
        when ``lhs`` holds."""
        self.expect(lhs == rhs, description, hit=lhs, **context)

    def fail(self, description: str, **context) -> None:
        entry = {"what": description}
        entry.update({k: _tidy(v) for k, v in context.items()})
        self.failures.append(entry)

    def to_json(self) -> dict:
        return {
            "property": self.prop_id,
            "passed": self.passed,
            "checked": self.checked,
            "hypothesis_hits": self.hypothesis_hits,
            "failures": self.failures[:10],
            "elapsed_ms": self.elapsed_ms,
        }


def _tidy(v):
    if isinstance(v, Algebra):
        return {"algebra": [[list(map(str, c)) for c in row] for row in v.mul]}
    if isinstance(v, LinMap):
        return {"map": [list(map(str, v.mat.row(i))) for i in range(v.mat.rows)]}
    if isinstance(v, Matrix):
        return {"matrix": [list(map(str, v.row(i))) for i in range(v.rows)]}
    if isinstance(v, Tensor2):
        return {"tensor": [list(map(str, row)) for row in v.grid]}
    if isinstance(v, (tuple, list)):
        return [_tidy(x) for x in v]
    return str(v)


@dataclass(frozen=True)
class Options:
    trials: int = 25
    seed: int = 7
    field: Optional[Field] = None

    def fld(self, default: Field) -> Field:
        return self.field if self.field is not None else default


_REGISTRY: dict[str, Callable] = {}


def _register(prop_id: str):
    def deco(fn):
        _REGISTRY[prop_id] = fn
        return fn

    return deco


def run_property(prop_id: str, trials: Optional[int] = None, seed: int = 7,
                 field: Optional[Field] = None) -> PropertyRun:
    if prop_id not in _REGISTRY:
        raise NovikovError(f"unknown property id {prop_id!r}")
    opts = Options(trials=25 if trials is None else trials, seed=seed, field=field)
    run = PropertyRun(prop_id)
    t0 = time.perf_counter()
    _REGISTRY[prop_id](run, opts)
    run.elapsed_ms = int((time.perf_counter() - t0) * 1000)
    return run


# ---------------------------------------------------------------------------
# shared instance pools


def _algebra_pool(field: Field, rng: random.Random, count: int) -> list[Algebra]:
    """Novikov algebras to exercise: worked example, truncated-polynomial
    family, and (over prime fields) seeded picks from the exhaustive list."""
    pool = [example_algebra(field), trunc_poly_algebra(field, 2), trunc_poly_algebra(field, 3)]
    if isinstance(field, PrimeField) and field.p <= 7:
        algs = enumerated_dim2(field)
        for _ in range(count):
            pool.append(algs[rng.randrange(len(algs))])
    return pool[: max(count, 3)]


def _enumerated_pool(field: Field, limit: Optional[int] = None) -> list[Algebra]:
    if not isinstance(field, PrimeField):
        return [example_algebra(field)]
    algs = enumerated_dim2(field)
    return algs if limit is None else algs[:limit]


def _skew_tensor(field: Field, n: int, rng: random.Random) -> Tensor2:
    grid = [[field.zero()] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            c = field.sample(rng)
            grid[i][j] = c
            grid[j][i] = -c
    return Tensor2(field, tuple(tuple(r) for r in grid))


def _random_tensor(field: Field, n: int, rng: random.Random) -> Tensor2:
    return Tensor2(field, tuple(tuple(field.sample(rng) for _ in range(n)) for _ in range(n)))


def _invariant_plus_skew(alg: Algebra, rng: random.Random) -> Tensor2:
    """Random tensor whose symmetric part is invariant (hypothesis builder)."""
    sym = sample_from_basis(invariant_symmetric_basis(alg), rng, alg.field)
    skew = _skew_tensor(alg.field, alg.dim, rng)
    return skew if sym is None else skew + sym


def _field_elements(field: Field, rng: random.Random, count: int) -> list:
    if isinstance(field, PrimeField):
        return [field.coerce(k) for k in range(min(field.p, count + 2))]
    vals = [field.coerce(0), field.coerce(1), field.coerce(-1), field.coerce(2)]
    while len(vals) < count:
        vals.append(field.sample(rng))
    return vals[:count]


def _epsilon(field: Field) -> Callable:
    """kappa -> (kappa + 1)/4: the mass epsilon of the extended tensor
    equation that matches the extension equation of mass (0, kappa, 0).
    Raises NoHalf in characteristic 2, where 1/4 does not exist."""
    half = field.half()
    return lambda kappa: field.reduce(((kappa + 1) * half * half,))[0]


def _one_by_one(field: Field, *scalars) -> tuple:
    """The 1 x 1 action matrices with these entries."""
    return tuple(Matrix(field, 1, 1, (c,)) for c in scalars)


# ---------------------------------------------------------------------------
# section-2 properties


@_register("P-SEMI")
def _p_semi(run: PropertyRun, opts: Options) -> None:
    field = opts.fld(GF(2))
    rng = random.Random(opts.seed)
    # worked example: the regular context must pass both sides
    reg = regular(example_algebra(QQ))
    both = abnova_residual(reg).is_zero and novikov_residual(semidirect(reg)).is_zero
    run.expect(both, "regular worked example failed", algebra=example_algebra(QQ))
    if isinstance(field, PrimeField) and field.p == 2:
        for alg in _enumerated_pool(field):
            for l1, l2, r1, r2, c in product(range(field.p), repeat=5):
                b = BimodNov(alg, 1, _one_by_one(field, l1, l2), _one_by_one(field, r1, r2), (((c,),),))
                run.equivalent(
                    abnova_residual(b).is_zero,
                    novikov_residual(semidirect(b)).is_zero,
                    "module residual and semidirect verdicts disagree",
                    algebra=alg,
                    actions=(l1, l2, r1, r2, c),
                )
    # seeded random contexts over the requested field
    for _ in range(opts.trials):
        alg = rng.choice(_algebra_pool(field, rng, 4))
        mdim = rng.choice((1, 2))
        b = BimodNov(
            alg,
            mdim,
            tuple(random_matrix(field, mdim, mdim, rng) for _ in range(alg.dim)),
            tuple(random_matrix(field, mdim, mdim, rng) for _ in range(alg.dim)),
            tuple(
                tuple(tuple(field.sample(rng) for _ in range(mdim)) for _ in range(mdim))
                for _ in range(mdim)
            ),
        )
        run.equivalent(
            abnova_residual(b).is_zero,
            novikov_residual(semidirect(b)).is_zero,
            "random context disagreement",
            algebra=alg,
            mdim=mdim,
        )


@_register("P-DUAL")
def _p_dual(run: PropertyRun, opts: Options) -> None:
    field = opts.fld(GF(2))
    rng = random.Random(opts.seed)
    pool = []
    for alg in _algebra_pool(field, rng, 4) + [example_algebra(QQ), trunc_poly_algebra(QQ, 3)]:
        pool.append(regular_bimodule(alg))
        pool.append(dual_bimodule(regular_bimodule(alg), validate=False))
    if isinstance(field, PrimeField) and field.p == 2:
        # exhaustive mdim-1 action pairs over every enumerated algebra
        for alg in _enumerated_pool(field):
            for l1, l2, r1, r2 in product(range(2), repeat=4):
                b = Bimodule(alg, 1, _one_by_one(field, l1, l2), _one_by_one(field, r1, r2))
                if bimodule_residual(b).is_zero:
                    pool.append(b)
    for b in pool:
        if bimodule_residual(b).is_zero:
            run.expect(
                bimodule_residual(dual_bimodule(b)).is_zero,
                "dual of a valid bimodule failed",
                hit=True,
                algebra=b.alg,
                mdim=b.mdim,
            )


def _guaranteed_ext_instance(ctx: BimodNov, field: Field, lam, kappa):
    """alpha = beta = id with mu = -1 - lam - kappa is always extended."""
    n = ctx.alg.dim
    ident = LinMap.identity(field, n)
    mu = field.reduce((-1 - lam - kappa,))[0]
    return ident, ident, MassParams(lam, kappa, mu)


@_register("P-EXT-STAR")
def _p_ext_star(run: PropertyRun, opts: Options) -> None:
    field = opts.fld(GF(5))
    rng = random.Random(opts.seed)

    def check(ctx, alpha, beta, params, tag):
        extended = ext_o_residual(ctx, alpha, beta, params).is_zero
        run.count(checks=1, hits=extended)
        if not extended:
            return
        grid, closure = star_product(ctx, alpha, params.weight)
        if not closure.is_zero:
            run.fail(f"closure identities failed ({tag})", algebra=ctx.alg, alpha=alpha)
        if not novikov_residual(Algebra(ctx.field, ctx.mdim, grid)).is_zero:
            run.fail(f"star product not Novikov ({tag})", algebra=ctx.alg, alpha=alpha)

    # worked example over Q and over the requested field
    for f in (QQ, field):
        reg = regular(example_algebra(f))
        check(reg, example_t(f), example_beta(f), MassParams(1, -2, 0), "worked example")
    for alg in _algebra_pool(field, rng, 3 + opts.trials // 5):
        reg = regular(alg)
        lam = field.sample(rng)
        kappa = field.sample(rng)
        a, b, params = _guaranteed_ext_instance(reg, field, lam, kappa)
        check(reg, a, b, params, "identity family")
        basis = balanced_hom_equivalent_basis(reg)
        for _ in range(max(1, opts.trials // 5)):
            beta = sample_from_basis(basis, rng, field)
            alpha = LinMap(random_matrix(field, alg.dim, alg.dim, rng))
            params = MassParams(field.sample(rng), field.sample(rng), field.sample(rng))
            check(reg, alpha, beta, params, "random")


@_register("P-DELTA-PM")
def _p_delta_pm(run: PropertyRun, opts: Options) -> None:
    field = opts.fld(GF(5))
    rng = random.Random(opts.seed)
    for alg in _algebra_pool(field, rng, 3):
        reg = regular(alg)
        homs = hom_map_basis(reg)
        for case in range(max(3, opts.trials // 3)):
            beta = sample_from_basis(homs, rng, field)
            if beta is None or not bimodule_hom_residual(reg, beta).is_zero:
                continue
            # first case: alpha = beta, where the minus-branch always holds
            alpha = beta if case == 0 else LinMap(random_matrix(field, alg.dim, alg.dim, rng))
            lam = field.sample(rng)
            grid, _ = star_product(reg, alpha, lam)
            star_alg = Algebra(field, alg.dim, grid)
            for sign in (1, -1):
                eq = ext_o_equation_residual(reg, alpha, beta, MassParams(lam, -1, sign * lam)).is_zero
                delta = alpha + beta.scale(sign)
                run.equivalent(
                    eq,
                    hom_residual(star_alg, alg, delta).is_zero,
                    "extension equation vs multiplicativity mismatch",
                    algebra=alg,
                    alpha=alpha,
                    beta=beta,
                    sign=sign,
                    weight=lam,
                )


@_register("P-R-PM")
def _p_r_pm(run: PropertyRun, opts: Options) -> None:
    field = opts.fld(GF(5))
    rng = random.Random(opts.seed)
    for alg in _algebra_pool(field, rng, 3):
        reg = regular(alg)
        basis = balanced_hom_equivalent_basis(reg)
        for _ in range(max(2, opts.trials // 3)):
            beta = sample_from_basis(basis, rng, field)
            if beta is None:
                continue
            lam = field.sample(rng)
            # hypothesis: balanced homomorphism, equivalent of the weight
            if not (
                is_balanced_hom(reg, beta)
                and equivalent_residual(reg, beta, lam).is_zero
            ):
                continue
            run.count(hits=1)
            ctx_p, ctx_m = pm_contexts(reg, beta, lam)
            for tag, ctx in (("plus", ctx_p), ("minus", ctx_m)):
                run.expect(
                    abnova_residual(ctx).is_zero,
                    f"twisted context not a module algebra ({tag})",
                    algebra=alg,
                    beta=beta,
                )
            alpha = LinMap(random_matrix(field, alg.dim, alg.dim, rng))
            for sign, ctx in ((1, ctx_p), (-1, ctx_m)):
                eq = ext_o_equation_residual(reg, alpha, beta, MassParams(lam, -1, sign * lam)).is_zero
                delta = alpha + beta.scale(sign)
                run.expect(
                    eq == o_operator_residual(ctx, delta, 1).is_zero,
                    "mass (-1, ±weight) vs weight-1 operator mismatch",
                    algebra=alg,
                    alpha=alpha,
                    beta=beta,
                    sign=sign,
                )


@_register("P-COR-BAX")
def _p_cor_bax(run: PropertyRun, opts: Options) -> None:
    field = opts.fld(GF(5))
    rng = random.Random(opts.seed)
    lams = _field_elements(field, rng, 3)
    ident = LinMap.identity(field, 2)
    for alg in _enumerated_pool(field, limit=None if opts.trials >= 200 else 40):
        for _ in range(max(4, opts.trials // 4)):
            t = LinMap(random_matrix(field, 2, 2, rng))
            for lam in lams:
                for sign in (1, -1):
                    hk = sign * lam - 1  # -1 ± lam
                    eq = ext_o_equation_residual(
                        regular(alg, validate=False), t, ident, MassParams(lam, hk, 0)
                    ).is_zero
                    w = lam - 2 * sign
                    run.equivalent(
                        eq,
                        rota_baxter_residual(alg, t + ident.scale(sign), w).is_zero,
                        "combined-mass identity vs shifted Rota-Baxter mismatch",
                        algebra=alg,
                        t=t,
                        weight=lam,
                        sign=sign,
                    )


@_register("P-BAXTER")
def _p_baxter(run: PropertyRun, opts: Options) -> None:
    field = opts.fld(GF(5))
    rng = random.Random(opts.seed)
    ident = LinMap.identity(field, 2)
    half = field.half()
    for alg in _enumerated_pool(field, limit=25):
        for _ in range(max(4, opts.trials // 4)):
            t = LinMap(random_matrix(field, 2, 2, rng))
            bax = baxter_residual(alg, t).is_zero
            for sign in (1, -1):
                rb = rota_baxter_residual(alg, t + ident.scale(sign), field.coerce(-2 * sign)).is_zero
                run.expect(bax == rb, "Baxter identity vs shifted Rota-Baxter mismatch", algebra=alg, t=t)
            if bax:
                run.count(hits=1)
                for sign in (1, -1):
                    s = (t + ident.scale(sign)).scale(-sign * half)  # (T ± id)/(∓2)
                    ok = post_residual(post_from_rb(alg, s, 1)).is_zero
                    run.expect(ok, "Baxter-derived triple not post-Novikov", algebra=alg, t=t)


@_register("P-CONS")
def _p_cons(run: PropertyRun, opts: Options) -> None:
    field = opts.fld(GF(5))
    rng = random.Random(opts.seed)
    for alg in _algebra_pool(field, rng, 3):
        reg = regular(alg)
        basis = balanced_hom_basis(reg)
        lam = field.sample(rng)
        # identity family: T = beta = id with kappa = -1 - lam
        kap = field.reduce((-1 - lam,))[0]
        cand = [(LinMap.identity(field, alg.dim), LinMap.identity(field, alg.dim), lam, kap)]
        for _ in range(max(2, opts.trials // 4)):
            beta = sample_from_basis(basis, rng, field)
            if beta is None:
                continue
            cand.append(
                (LinMap(random_matrix(field, alg.dim, alg.dim, rng)), beta, field.sample(rng), field.sample(rng))
            )
        for t, beta, lam2, kap2 in cand:
            if not is_balanced_hom(reg, beta):
                continue
            eq = ext_o_equation_residual(reg, t, beta, MassParams(lam2, kap2, 0)).is_zero
            run.count(checks=1, hits=eq)
            if eq and not novikov_residual(circ_t(alg, t, lam2)).is_zero:
                run.fail("induced product not Novikov", algebra=alg, t=t, weight=lam2, kappa=kap2)


# ---------------------------------------------------------------------------
# post-Novikov properties


def _postnov_pool(field: Field, rng: random.Random, trials: int) -> list[PostNov]:
    """Valid post-Novikov instances from the operator and trialgebra routes."""
    out = []
    for alg in _algebra_pool(field, rng, 3):
        ident = LinMap.identity(field, alg.dim)
        out.append(post_from_rb(alg, ident, -1))
        out.append(post_from_rb(alg, LinMap.zero(field, alg.dim, alg.dim), field.sample(rng)))
        # seeded random Rota-Baxter candidates of random weight
        for _ in range(max(2, trials // 6)):
            t = LinMap(random_matrix(field, alg.dim, alg.dim, rng))
            w = field.sample(rng)
            if rota_baxter_residual(alg, t, w).is_zero:
                out.append(post_from_rb(alg, t, w))
    out.append(post_from_trialgebra(_trialgebra_fixture(field)))
    return out


def _trialgebra_fixture(field: Field) -> CommTrialgebra:
    """Maximal ideal of the truncated polynomial ring with its Euler
    derivation: basis (x, x^2), x·x = x^2, derivation x->x, x^2->2x^2."""
    z = field.zero()
    one = field.one()
    dot = (((z, one), (z, z)), ((z, z), (z, z)))
    deriv = Matrix.from_cols(field, [(one, z), (z, field.coerce(2))])
    return CommTrialgebra(field, 2, dot, dot, deriv)


@_register("P-ASSOC")
def _p_assoc(run: PropertyRun, opts: Options) -> None:
    field = opts.fld(GF(5))
    rng = random.Random(opts.seed)
    for p in _postnov_pool(field, rng, opts.trials):
        if post_residual(p).is_zero:
            run.expect(
                novikov_residual(associated(p)).is_zero,
                "sum product of a valid triple is not Novikov",
                hit=True,
                dim=p.dim,
            )


@_register("P-LRBIMOD")
def _p_lrbimod(run: PropertyRun, opts: Options) -> None:
    field = opts.fld(GF(5))
    rng = random.Random(opts.seed)
    for p in _postnov_pool(field, rng, opts.trials):
        if post_residual(p).is_zero:
            run.expect(
                abnova_residual(lr_bimodule(p)).is_zero,
                "left/right actions of a valid triple fail the module identities",
                hit=True,
                dim=p.dim,
            )


@_register("P-COMPAT")
def _p_compat(run: PropertyRun, opts: Options) -> None:
    field = opts.fld(GF(5))
    rng = random.Random(opts.seed)
    for p in _postnov_pool(field, rng, opts.trials):
        if not post_residual(p).is_zero:
            continue
        ctx = lr_bimodule(p)
        ident = LinMap.identity(field, p.dim)
        if not run.expect(
            o_operator_residual(ctx, ident, 1).is_zero,
            "identity is not a weight-1 operator on the associated context",
            hit=True,
            dim=p.dim,
        ):
            continue
        back = post_from_o(ctx, ident, 1, validate=False)
        if not (
            grids_equal(field, back.circ, p.circ)
            and grids_equal(field, back.tri_l, p.tri_l)
            and grids_equal(field, back.tri_r, p.tri_r)
        ):
            run.fail("round trip through the operator construction changed the products", dim=p.dim)


@_register("P-HOM")
def _p_hom(run: PropertyRun, opts: Options) -> None:
    field = opts.fld(GF(5))
    rng = random.Random(opts.seed)
    for alg in _algebra_pool(field, rng, 4):
        reg = regular(alg)
        cands = [(LinMap.identity(field, alg.dim), field.coerce(-1))]
        for _ in range(max(2, opts.trials // 4)):
            cands.append((LinMap(random_matrix(field, alg.dim, alg.dim, rng)), field.sample(rng)))
        for alpha, lam in cands:
            if o_operator_residual(reg, alpha, lam).is_zero:
                p = post_from_o(reg, alpha, lam, validate=False)
                run.expect(
                    hom_residual(associated(p), alg, alpha).is_zero,
                    "operator is not multiplicative for the sum product",
                    hit=True,
                    algebra=alg,
                    alpha=alpha,
                )


@_register("P-TRI")
def _p_tri(run: PropertyRun, opts: Options) -> None:
    field = opts.fld(QQ)

    def construct(tri, rejected, invalid, **context):
        """One check of tri, a hit when it is a trialgebra with derivation;
        its construction must then be a post-Novikov triple."""
        ok = trialgebra_residual(tri).is_zero and derivation_residual(tri).is_zero
        if run.expect(ok, rejected, hit=ok, **context) and not post_residual(post_from_trialgebra(tri)).is_zero:
            run.fail(invalid, **context)

    for f in dict.fromkeys((field, QQ)):  # in this order, without repeats
        construct(
            _trialgebra_fixture(f),
            "fixture is not a trialgebra with derivation",
            "trialgebra construction gave an invalid triple",
        )
    # one-dimensional cases: axioms force circ ∈ {0, -dot} and c*m = 0
    for c, m, s in (
        (QQ.coerce(3), QQ.zero(), QQ.zero()),
        (QQ.zero(), QQ.coerce(2), QQ.coerce(-2)),
        (QQ.coerce(1), QQ.zero(), QQ.zero()),
    ):
        construct(
            CommTrialgebra(QQ, 1, (((m,),),), (((s,),),), Matrix(QQ, 1, 1, (c,))),
            "one-dimensional case rejected",
            "one-dimensional construction invalid",
            c=c,
            m=m,
            s=s,
        )
    # the zero derivation always yields the zero triple
    tri0 = CommTrialgebra(QQ, 2, _trialgebra_fixture(QQ).dot, _trialgebra_fixture(QQ).dot, Matrix.zeros(QQ, 2, 2))
    run.expect(post_residual(post_from_trialgebra(tri0)).is_zero, "zero derivation should give the zero triple")


# ---------------------------------------------------------------------------
# tensor-form properties


def tensor_op_verdicts(alg: Algebra) -> Callable[[Sequence], tuple[bool, bool]]:
    """P-TENSOR-OP's two verdicts on a table over F_p, ``nybe_residual`` is
    zero and ``o_nybe_residual`` is zero, as a function of r's coefficients
    in row-major order.  Each route runs once, over ``PolyRing(p)`` on the
    tensor of unknowns; a point's verdict is whether every nonzero coordinate
    vanishes there.  Evaluating at a point is a ring homomorphism, and the
    routes branch only to skip terms that are zero as polynomials, which are
    zero at every point, so these are the concrete routes' verdicts."""
    p, n = alg.field.p, alg.dim
    ring = PolyRing(p)
    x = ring.variables(n * n)
    lifted = Algebra(ring, n, alg.mul)
    r = Tensor2(ring, tuple(tuple(x[i * n:i * n + n]) for i in range(n)))
    tensor = [c for c in nybe_residual(lifted, r).flat() if c]
    operator = [c for fail in o_nybe_residual(lifted, r).failures for c in fail.value if c]

    def verdicts(point: Sequence) -> tuple[bool, bool]:
        return not any(c.at(point) % p for c in tensor), not any(c.at(point) % p for c in operator)

    return verdicts


@_register("P-TENSOR-OP")
def _p_tensor_op(run: PropertyRun, opts: Options) -> None:
    field = opts.fld(GF(2))
    rng = random.Random(opts.seed)
    if isinstance(field, PrimeField) and field.p <= 3:
        for alg in _enumerated_pool(field):
            verdicts = tensor_op_verdicts(alg)
            for digits in product(range(field.p), repeat=4):
                cells = digits[::-1]  # the first cell varies fastest
                run.equivalent(
                    *verdicts(cells),
                    "tensor and operator verdicts disagree",
                    algebra=alg,
                    r=Tensor2(field, (cells[:2], cells[2:])),
                )
    for _ in range(opts.trials):
        alg = rng.choice([example_algebra(QQ), trunc_poly_algebra(QQ, 2), trunc_poly_algebra(QQ, 3)])
        r = _random_tensor(QQ, alg.dim, rng)
        run.equivalent(
            nybe_residual(alg, r).is_zero(),
            o_nybe_residual(alg, r).is_zero,
            "rational instance disagreement",
            algebra=alg,
            r=r,
        )


@_register("P-ENYBE-EXT")
def _p_enybe_ext(run: PropertyRun, opts: Options) -> None:
    field = opts.fld(GF(3))
    rng = random.Random(opts.seed)
    eps = _epsilon(field)
    kappas = _field_elements(field, rng, 4)
    for alg in _algebra_pool(field, rng, 4):
        ctx = dual_context(alg)
        for _ in range(max(3, opts.trials // 4)):
            r = _invariant_plus_skew(alg, rng)
            rt = RTensor.build(alg, r)
            if not invariance_residual(alg, rt.r_plus).is_zero:
                continue
            for kap in kappas:
                run.equivalent(
                    enybe_residual(alg, r, eps(kap)).is_zero(),
                    ext_o_equation_residual(ctx, rt.alpha, rt.beta, MassParams(0, kap, 0)).is_zero,
                    "mass-shifted tensor equation vs extension equation mismatch",
                    algebra=alg,
                    r=r,
                    kappa=kap,
                )


@_register("P-COR-ENYBE")
def _p_cor_enybe(run: PropertyRun, opts: Options) -> None:
    field = opts.fld(GF(3))
    rng = random.Random(opts.seed)
    for alg in _algebra_pool(field, rng, 4):
        ctx0 = dual_context(alg)
        for _ in range(max(3, opts.trials // 3)):
            r = _invariant_plus_skew(alg, rng)
            rt = RTensor.build(alg, r)
            if not invariance_residual(alg, rt.r_plus).is_zero:
                continue
            s1 = nybe_residual(alg, r).is_zero()
            plus_grid, minus_grid = dual_pm_products(alg, rt)
            hat_map = LinMap(rt.hat)
            hat_t_neg = LinMap(-rt.hat_t)
            s2 = (
                o_operator_residual(ctx0.with_product(plus_grid), hat_map, 1).is_zero
                and o_operator_residual(ctx0.with_product(minus_grid), hat_t_neg, 1).is_zero
            )
            s3 = ext_o_equation_residual(ctx0, rt.alpha, rt.beta, MassParams(0, -1, 0)).is_zero
            star_grid = tuple(
                tuple(field.reduce([-c for c in cell]) for cell in row)
                for row in circ_delta(alg, r)
            )
            star_alg = Algebra(field, alg.dim, star_grid)
            s4 = (
                hom_residual(star_alg, alg, hat_map).is_zero
                and hom_residual(star_alg, alg, hat_t_neg).is_zero
            )
            verdicts = (s1, s2, s3, s4)
            run.expect(
                len(set(verdicts)) == 1,
                "four equivalent statements disagree",
                hit=True,
                algebra=alg,
                r=r,
                verdicts=verdicts,
            )


@_register("P-SKEW")
def _p_skew(run: PropertyRun, opts: Options) -> None:
    field = opts.fld(GF(3))
    rng = random.Random(opts.seed)
    for alg in _algebra_pool(field, rng, 4) + [example_algebra(QQ)]:
        for _ in range(max(3, opts.trials // 3)):
            r = _skew_tensor(alg.field, alg.dim, rng)
            run.equivalent(
                nybe_residual(alg, r).is_zero(),
                skew_nybe_operator_residual(alg, r).is_zero,
                "skew tensor operator form mismatch",
                algebra=alg,
                r=r,
            )


@_register("P-LEM-R")
def _p_lem_r(run: PropertyRun, opts: Options) -> None:
    field = opts.fld(GF(3))
    rng = random.Random(opts.seed)
    for alg in _algebra_pool(field, rng, 4):
        f = alg.field
        n = alg.dim
        samples = list(invariant_symmetric_basis(alg))
        for _ in range(max(3, opts.trials // 2)):
            grid = [[f.zero()] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    c = f.sample(rng)
                    grid[i][j] = c
                    grid[j][i] = c
            samples.append(Tensor2(f, tuple(tuple(row) for row in grid)))
        ctx = dual_context(alg)
        for s in samples:
            # s symmetric: invariant exactly when its hat is balanced, and
            # exactly when the hat is a module homomorphism
            invariant = invariance_residual(alg, s).is_zero
            shat = LinMap(hat_matrices(s)[0])
            balanced = balanced_residual(ctx, shat).is_zero
            hom = bimodule_hom_residual(ctx, shat).is_zero
            run.expect(
                invariant == balanced == hom,
                "invariance characterizations disagree",
                hit=invariant,
                algebra=alg,
                s=s,
                balanced=balanced,
                hom=hom,
            )


@_register("P-QN")
def _p_qn(run: PropertyRun, opts: Options) -> None:
    field = opts.fld(GF(5))
    rng = random.Random(opts.seed)
    eps = _epsilon(field)
    kappas = _field_elements(field, rng, 4)
    for alg, form in _quadratic_pool(field, rng, 6):
        reg = regular(alg, validate=False)
        phi = form.phi()
        for _ in range(max(2, opts.trials // 4)):
            r = _invariant_plus_skew(alg, rng)
            rt = RTensor.build(alg, r)
            if not invariance_residual(alg, rt.r_plus).is_zero:
                continue
            run.count(hits=1)
            abar = LinMap(rt.alpha.mat @ phi)
            bbar = LinMap(rt.beta.mat @ phi)
            for kap in kappas:
                lhs = enybe_residual(alg, r, eps(kap)).is_zero()
                rhs = ext_o_equation_residual(reg, abar, bbar, MassParams(0, kap, 0)).is_zero
                run.expect(lhs == rhs, "quadratic transport mismatch", algebra=alg, r=r, kappa=kap)
            if rt.r.is_skew():
                lhs = nybe_residual(alg, r).is_zero()
                rhs = rota_baxter_residual(alg, abar, 0).is_zero
                run.expect(lhs == rhs, "skew special case mismatch", algebra=alg, r=r)


def _quadratic_pool(field: Field, rng: random.Random, count: int):
    """(algebra, nondegenerate invariant form) pairs, worked out of the
    linear form space by seeded sampling."""
    out = []
    pool = [Algebra.zero(field, 2), trunc_poly_algebra(field, 2)] + _algebra_pool(field, rng, 8)
    for alg in pool:
        basis = invariant_form_basis(alg)
        if not basis:
            continue
        for _ in range(24):
            form = sample_from_basis(basis, rng, field)
            if form.is_nondegenerate():
                out.append((alg, form))
                break
        if len(out) >= count:
            break
    return out


@_register("P-DUAL-EXO")
def _p_dual_exo(run: PropertyRun, opts: Options) -> None:
    field = opts.fld(GF(5))
    rng = random.Random(opts.seed)
    eps = _epsilon(field)
    kappas = _field_elements(field, rng, 3)
    for alg, form in _quadratic_pool(field, rng, 4):
        n = alg.dim
        reg = regular(alg, validate=False)
        ctx_dual = dual_context(alg)
        phi = form.phi()
        phi_inv = inverse(phi)
        homs = balanced_hom_basis(reg)
        selfadj_coords = residual_space(field, homs, lambda x: adjoint_residual(form, x, +1))
        selfadj_homs = [b for b in (linear_combination(homs, c) for c in selfadj_coords) if not b.is_zero()]
        skewadj = map_space(field, n, n, lambda x: adjoint_residual(form, x, -1))
        for _ in range(max(2, opts.trials // 4)):
            beta = sample_from_basis(selfadj_homs, rng, field)
            if beta is None or not adjoint_residual(form, beta, +1).is_zero:
                continue
            if not is_balanced_hom(reg, beta):
                continue
            run.count(hits=1)
            qt = quad_transport(alg, form, LinMap.zero(field, n, n), beta)
            t_any = LinMap(random_matrix(field, n, n, rng))
            for kap in kappas:
                lhs = ext_o_equation_residual(reg, t_any, beta, MassParams(0, kap, 0)).is_zero
                p_t = LinMap(t_any.mat @ phi_inv)
                rhs = ext_o_equation_residual(
                    ctx_dual, p_t, qt.p_beta, MassParams(0, kap, 0)
                ).is_zero
                run.expect(lhs == rhs, "transport direction (i) mismatch", algebra=alg, t=t_any, kappa=kap)
            t_skew = sample_from_basis(skewadj, rng, field)
            if t_skew is None:
                continue
            qt2 = quad_transport(alg, form, t_skew, beta)
            for kap in kappas:
                ext_ok = ext_o_equation_residual(reg, t_skew, beta, MassParams(0, kap, 0)).is_zero
                run.count(hits=ext_ok)
                for tens in (qt2.delta_plus, qt2.delta_minus):
                    run.expect(
                        enybe_residual(alg, tens, eps(kap)).is_zero() == ext_ok,
                        "transport direction (ii) mismatch",
                        algebra=alg,
                        kappa=kap,
                    )


# ---------------------------------------------------------------------------
# lift properties


def _bimodule_pool(field: Field, rng: random.Random, count: int) -> list[Bimodule]:
    out = []
    for alg in _algebra_pool(field, rng, count):
        out.append(regular_bimodule(alg))
        out.append(dual_bimodule(regular_bimodule(alg), validate=False))
    return out[:count]


def _lifted_hat(d, gamma: LinMap, sign: int) -> LinMap:
    """The hat of gamma's lift to the double d: of its ``tensor_plus`` when
    sign is +1, of its ``tensor_minus`` when sign is -1."""
    lifted = lift_map(d, gamma)
    return LinMap(hat_matrices(lifted.tensor_plus if sign == 1 else lifted.tensor_minus)[0])


@_register("P-LIFT-BAL")
def _p_lift_bal(run: PropertyRun, opts: Options) -> None:
    field = opts.fld(GF(3))
    rng = random.Random(opts.seed)
    for bim in _bimodule_pool(field, rng, 4):
        alg = bim.alg
        d = double(alg, bim, validate=False)
        ctx_v = bim.trivial()
        ctx_hat = dual_context(d.algebra)
        cands = [sample_from_basis(balanced_hom_basis(ctx_v), rng, field)]
        for _ in range(max(2, opts.trials // 4)):
            cands.append(LinMap(random_matrix(field, alg.dim, bim.mdim, rng)))
        for beta in cands:
            if beta is None:
                continue
            run.equivalent(
                is_balanced_hom(ctx_v, beta),
                is_balanced_hom(ctx_hat, _lifted_hat(d, beta, +1)),
                "lifted balance verdict mismatch",
                algebra=alg,
                beta=beta,
            )


@_register("P-LIFT-EXT")
def _p_lift_ext(run: PropertyRun, opts: Options) -> None:
    field = opts.fld(GF(3))
    rng = random.Random(opts.seed)
    kappas = _field_elements(field, rng, 3)
    for bim in _bimodule_pool(field, rng, 3):
        alg = bim.alg
        d = double(alg, bim, validate=False)
        ctx_v = bim.trivial()
        ctx_hat = dual_context(d.algebra)
        betas = [sample_from_basis(balanced_hom_basis(ctx_v), rng, field) for _ in range(3)]
        for beta in betas:
            if beta is None or not is_balanced_hom(ctx_v, beta):
                continue
            q_plus = _lifted_hat(d, beta, +1)
            for case in range(max(3, opts.trials // 4)):
                # alpha = beta satisfies the mass (-1, 0) equation outright
                alpha = beta if case == 0 else LinMap(random_matrix(field, alg.dim, bim.mdim, rng))
                p_minus = _lifted_hat(d, alpha, -1)
                for kap in kappas:
                    run.equivalent(
                        ext_o_equation_residual(ctx_v, alpha, beta, MassParams(0, kap, 0)).is_zero,
                        ext_o_equation_residual(ctx_hat, p_minus, q_plus, MassParams(0, kap, 0)).is_zero,
                        "lifted extension equation mismatch",
                        algebra=alg,
                        alpha=alpha,
                        beta=beta,
                        kappa=kap,
                    )


@_register("P-COR-GN")
def _p_cor_gn(run: PropertyRun, opts: Options) -> None:
    field = opts.fld(GF(3))
    rng = random.Random(opts.seed)
    eps = _epsilon(field)
    for bim in _bimodule_pool(field, rng, 3):
        alg = bim.alg
        d = double(alg, bim, validate=False)
        ctx_v = bim.trivial()
        betas = [sample_from_basis(balanced_hom_basis(ctx_v), rng, field) for _ in range(2)]
        for beta in betas:
            if beta is None or not is_balanced_hom(ctx_v, beta):
                continue
            q = lift_map(d, beta)
            cands = [beta] + [
                LinMap(random_matrix(field, alg.dim, bim.mdim, rng))
                for _ in range(max(2, opts.trials // 6))
            ]
            for alpha in cands:
                p = lift_map(d, alpha)
                for kap in _field_elements(field, rng, 2):
                    lhs = ext_o_equation_residual(ctx_v, alpha, beta, MassParams(0, kap, 0)).is_zero
                    run.count(checks=1, hits=lhs)
                    for sign in (1, -1):
                        tens = p.tensor_minus + q.tensor_plus.scale(sign)
                        if lhs != enybe_residual(d.algebra, tens, eps(kap)).is_zero():
                            run.fail(
                                "lifted mass-shifted solution mismatch",
                                algebra=alg,
                                alpha=alpha,
                                kappa=kap,
                                sign=sign,
                            )
                # (b): weight-0 operator iff skew lift solves the plain equation
                lhs_b = o_operator_residual(ctx_v, alpha, 0).is_zero
                rhs_b = nybe_residual(d.algebra, p.tensor_minus).is_zero()
                run.expect(lhs_b == rhs_b, "weight-0 operator vs skew lift mismatch", algebra=alg, alpha=alpha)
                # (c): mass (-1, 0) iff both shifted lifts solve the plain equation
                lhs_c = ext_o_equation_residual(ctx_v, alpha, beta, MassParams(0, -1, 0)).is_zero
                both = (
                    nybe_residual(d.algebra, p.tensor_minus + q.tensor_plus).is_zero()
                    and nybe_residual(d.algebra, p.tensor_minus - q.tensor_plus).is_zero()
                )
                run.expect(
                    lhs_c == both, "mass (-1,0) vs plain lifted solutions mismatch", algebra=alg, alpha=alpha
                )
    # (d): the Rota-Baxter reformulation in the double over the regular module
    for alg in _algebra_pool(field, rng, 2):
        bim = regular_bimodule(alg)
        d = double(alg, bim, validate=False)
        ident = LinMap.identity(field, alg.dim)
        for _ in range(max(3, opts.trials // 3)):
            t = LinMap(random_matrix(field, alg.dim, alg.dim, rng))
            lam = field.sample(rng)
            if not lam:
                continue
            gamma = t.scale(2 * field.inv(lam)) + ident
            pg = lift_map(d, gamma)
            qi = lift_map(d, ident)
            x_plus = pg.tensor_minus + qi.tensor_plus
            x_minus = pg.tensor_minus - qi.tensor_plus
            lhs = rota_baxter_residual(alg, t, lam).is_zero
            rhs_plus = nybe_residual(d.algebra, x_plus).is_zero()
            rhs_minus = nybe_residual(d.algebra, x_minus).is_zero()
            run.count(checks=1, hits=lhs)
            if rhs_plus != rhs_minus:
                run.fail("the two shifted lifts disagree", algebra=alg, t=t, weight=lam)
            if lhs != (rhs_plus and rhs_minus):
                run.fail("Rota-Baxter vs lifted pair mismatch", algebra=alg, t=t, weight=lam)


@_register("P-CIRC-DELTA")
def _p_circ_delta(run: PropertyRun, opts: Options) -> None:
    field = opts.fld(GF(5))
    rng = random.Random(opts.seed)
    # worked value: on the example algebra with r = e2⊗e2 the dual square of
    # the second dual vector is 3 times the first dual vector
    alg = example_algebra(QQ)
    r = Tensor2.basis(QQ, 2, 1, 1)
    grid = circ_delta(alg, r)
    worked = tuple(grid[1][1]) == (QQ.coerce(3), QQ.coerce(0))
    run.expect(worked, "worked dual-product value wrong", got=grid[1][1])
    for a in _algebra_pool(field, rng, 4) + [alg]:
        for _ in range(max(3, opts.trials // 3)):
            rr = _random_tensor(a.field, a.dim, rng)
            closed = circ_delta(a, rr)
            paired = circ_delta_pairing(a, rr)
            agree = grids_equal(a.field, closed, paired)
            run.expect(agree, "closed form and pairing disagree", hit=True, algebra=a, r=rr)


@_register("P-GNYBE-PROD")
def _p_gnybe_prod(run: PropertyRun, opts: Options) -> None:
    field = opts.fld(GF(3))
    rng = random.Random(opts.seed)
    for alg in _algebra_pool(field, rng, 4) + [example_algebra(QQ)]:
        f = alg.field
        samples = [_skew_tensor(f, alg.dim, rng) for _ in range(max(3, opts.trials // 3))]
        if isinstance(f, PrimeField) and alg.dim == 2:
            samples = [Tensor2(f, ((0, c), (-c, 0))) for c in range(f.p)]
        for r in samples:
            run.equivalent(
                gnybe_flag(alg, r),
                novikov_residual(circ_delta_algebra(alg, r)).is_zero,
                "generalized residuals vs dual product verdicts disagree",
                algebra=alg,
                r=r,
            )


@_register("P-GNYBE-EXT")
def _p_gnybe_ext(run: PropertyRun, opts: Options) -> None:
    field = opts.fld(GF(3))
    rng = random.Random(opts.seed)
    kappas = _field_elements(field, rng, 3)
    for alg in _algebra_pool(field, rng, 4):
        ctx = dual_context(alg)
        for _ in range(max(3, opts.trials // 3)):
            r = _invariant_plus_skew(alg, rng)
            rt = RTensor.build(alg, r)
            if not invariance_residual(alg, rt.r_plus).is_zero:
                continue
            # the extension equation for some mass, or (the corollary route)
            # the extended tensor equation for some epsilon
            if any(
                ext_o_equation_residual(ctx, rt.alpha, rt.beta, MassParams(0, kap, 0)).is_zero for kap in kappas
            ) or any(enybe_residual(alg, r, e).is_zero() for e in kappas):
                run.expect(
                    gnybe_flag(alg, r),
                    "hypothesis-satisfying tensor fails the generalized equations",
                    hit=True,
                    algebra=alg,
                    r=r,
                )


@_register("P-GOPER")
def _p_goper(run: PropertyRun, opts: Options) -> None:
    field = opts.fld(GF(2))
    rng = random.Random(opts.seed)
    if isinstance(field, PrimeField) and field.p == 2:
        # exhaustive: all 16 maps on the dim-2 algebras, the first entry varying fastest
        every = [LinMap(Matrix(field, 2, 2, bits[::-1])) for bits in product((0, 1), repeat=4)]
        cases = ((alg, every) for alg in _enumerated_pool(field))
    else:
        draws = max(4, opts.trials // 3)
        cases = (
            (alg, [LinMap(random_matrix(field, alg.dim, alg.dim, rng)) for _ in range(draws)])
            for alg in _algebra_pool(field, rng, 3)
        )
    for alg, alphas in cases:
        bim = regular_bimodule(alg)
        d = double(alg, bim, validate=False)
        for alpha in alphas:
            run.equivalent(
                generalized_o_residual(bim, alpha).is_zero,
                gnybe_flag(d.algebra, lift_map(d, alpha).tensor_minus),
                "generalized operator vs lifted verdict mismatch",
                algebra=alg,
                alpha=alpha,
            )


def cor_a_residual(ctx: BimodNov, alpha: LinMap, weight) -> Residual:
    """The six weight-scaled module-product identities of the final
    corollary: the closure families of B(u,v) = weight·alpha(u·v)."""
    f = ctx.field
    lam = f.coerce(weight)
    m = ctx.mdim
    b = tuple(tuple(f.reduce([lam * c for c in alpha(ctx.mul[u][v])]) for v in range(m)) for u in range(m))
    return closure_residual(ctx, b)


@_register("P-GOPER-COR")
def _p_goper_cor(run: PropertyRun, opts: Options) -> None:
    field = opts.fld(GF(3))
    rng = random.Random(opts.seed)
    for alg in _algebra_pool(field, rng, 3):
        reg = regular(alg, validate=False)
        if not novikov_residual(alg).is_zero:
            continue
        d = double(alg, regular_bimodule(alg), validate=False)
        cases = [
            _guaranteed_ext_instance(reg, field, lam, field.sample(rng)) for lam in _field_elements(field, rng, 3)
        ]
        ident = LinMap.identity(field, alg.dim)
        cases.append((ident, None, MassParams(field.coerce(-1), 0, 0)))  # weight -1 operator
        cases.append((LinMap.zero(field, alg.dim, alg.dim), None, MassParams(0, 0, 0)))
        for alpha, beta, params in cases:
            if not ext_o_residual(reg, alpha, beta, params).is_zero:
                continue
            lhs = gnybe_flag(d.algebra, lift_map(d, alpha).tensor_minus)
            run.expect(
                lhs == cor_a_residual(reg, alpha, params.weight).is_zero,
                "lifted verdict vs weight-scaled identities mismatch",
                hit=True,
                algebra=alg,
                alpha=alpha,
                weight=params.weight,
            )
            if not field.coerce(params.weight) and not lhs:
                run.fail("weight-0 extended operator must lift to a solution", algebra=alg, alpha=alpha)
