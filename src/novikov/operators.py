"""Linear maps from a module into the algebra and the predicates attached to
them: balanced, invariant, equivalent, the weighted operator identity and its
extension, plus every product those maps induce."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .algebra import Algebra, BimodNov, Grid, regular
from .errors import DimMismatch, FieldMismatch, NoHalf
from .fields import Field
from .linalg import Matrix, vsub
from .residual import Residual, ResidualCollector, grid_residual


@dataclass(frozen=True)
class LinMap:
    """A linear map M -> A, columns = images of the module basis."""

    mat: Matrix

    @classmethod
    def zero(cls, field: Field, dim: int, mdim: int) -> "LinMap":
        return cls(Matrix.zeros(field, dim, mdim))

    @classmethod
    def identity(cls, field: Field, dim: int) -> "LinMap":
        return cls(Matrix.identity(field, dim))

    @property
    def field(self) -> Field:
        return self.mat.field

    @property
    def dim(self) -> int:
        return self.mat.rows

    @property
    def mdim(self) -> int:
        return self.mat.cols

    def __call__(self, u: Sequence) -> tuple:
        return self.mat.apply(u)

    def __add__(self, other: "LinMap") -> "LinMap":
        return LinMap(self.mat + other.mat)

    def __sub__(self, other: "LinMap") -> "LinMap":
        return LinMap(self.mat - other.mat)

    def __neg__(self) -> "LinMap":
        return LinMap(-self.mat)

    def scale(self, c) -> "LinMap":
        return LinMap(self.mat.scale(c))

    def is_zero(self) -> bool:
        return self.mat.is_zero()


@dataclass(frozen=True)
class MassParams:
    """The (weight, kappa, mu) masses of the extended operator equation."""

    weight: object = 0
    kappa: object = 0
    mu: object = 0

    def coerced(self, field: Field) -> "MassParams":
        return MassParams(field.coerce(self.weight), field.coerce(self.kappa), field.coerce(self.mu))


def _check_ctx_map(ctx: BimodNov, m: LinMap) -> None:
    if m.field != ctx.field:
        raise FieldMismatch(f"map is over {m.field}, context over {ctx.field}")
    if m.mat.rows != ctx.alg.dim or m.mat.cols != ctx.mdim:
        raise DimMismatch(
            f"map is {m.mat.rows}x{m.mat.cols}, context wants {ctx.alg.dim}x{ctx.mdim}"
        )


def balanced_residual(ctx: BimodNov, beta: LinMap) -> Residual:
    """l(beta(u))v - r(beta(v))u on module basis pairs: the product beta
    and -beta induce on M, which vanishes exactly when beta is balanced."""
    return grid_residual(ctx.field, "balanced", induced_product(ctx, beta, -beta, 0))


def invariant_residual(ctx: BimodNov, beta: LinMap, kappa) -> Residual:
    """kappa-scaled invariance; identically zero when kappa = 0."""
    _check_ctx_map(ctx, beta)
    f = ctx.field
    kappa = f.coerce(kappa)
    col = ResidualCollector(f, "invariant")
    if not kappa:
        return col.done()
    rep = bimodule_hom_residual(ctx, beta)
    scaled = tuple(
        type(fail)(fail.identity, fail.indices, f.reduce([kappa * c for c in fail.value]))
        for fail in rep.failures
    )
    return Residual("invariant", scaled)


def bimodule_hom_residual(ctx: BimodNov, beta: LinMap) -> Residual:
    """beta(l(x)u) = x∘beta(u) and beta(r(x)u) = beta(u)∘x on basis pairs."""
    _check_ctx_map(ctx, beta)
    f = ctx.field
    n = ctx.alg.dim
    m = ctx.mdim
    col = ResidualCollector(f, "bimodule-hom")
    imgs = [beta(ctx.module_basis(u)) for u in range(m)]
    for x in range(n):
        ex = ctx.alg.basis_vec(x)
        lx = ctx.l_mats[x]
        rx = ctx.r_mats[x]
        for u in range(m):
            bu = imgs[u]
            left = vsub(f, ctx.alg.product(ex, bu), beta(lx.col(u)))
            col.record("hom-left", (x, u), left)
            right = vsub(f, ctx.alg.product(bu, ex), beta(rx.col(u)))
            col.record("hom-right", (x, u), right)
    return col.done()


def is_balanced_hom(ctx: BimodNov, beta: LinMap) -> bool:
    return balanced_residual(ctx, beta).is_zero and bimodule_hom_residual(ctx, beta).is_zero


def equivalent_residual(ctx: BimodNov, beta: LinMap, mu) -> Residual:
    """mu-scaled equivalence identities on module basis triples."""
    _check_ctx_map(ctx, beta)
    f = ctx.field
    mu = f.coerce(mu)
    col = ResidualCollector(f, "equivalent")
    if not mu:
        return col.done()
    m = ctx.mdim
    mb = [ctx.module_basis(i) for i in range(m)]
    imgs = [beta(mb[i]) for i in range(m)]
    l_imgs = [ctx.l_of(img) for img in imgs]
    r_imgs = [ctx.r_of(img) for img in imgs]
    rb = [[ctx.r_of(beta(ctx.mul[v][w])) for w in range(m)] for v in range(m)]
    for u in range(m):
        for v in range(m):
            uv = ctx.mul[u][v]
            lb_uv = ctx.l_of(beta(uv))
            lu_v = l_imgs[u].col(v)
            for w in range(m):
                # l(beta(u·v))w = (l(beta(u))v)·w
                e1 = zip(lb_uv.col(w), ctx.module_product(lu_v, mb[w]))
                col.record("equiv-left", (u, v, w), f.reduce([mu * (x - y) for x, y in e1]))
                # r(beta(v·w))u = u·(r(beta(w))v)
                rw_v = r_imgs[w].col(v)
                e2 = zip(rb[v][w].col(u), ctx.module_product(mb[u], rw_v))
                col.record("equiv-right", (u, v, w), f.reduce([mu * (x - y) for x, y in e2]))
    return col.done()


def induced_product(ctx: BimodNov, left: LinMap, right: LinMap, weight) -> Grid:
    """u⋄v = l(left(u))v + r(right(v))u + weight·u·v on module basis pairs.

    With left = right = alpha this is the product a weight-lambda operator
    induces on M; the star, diamond, ± and shifted products and the dual
    product of a tensor are all instances.  Each cell is one pass over the
    action-matrix columns, which the context keeps, reduced once."""
    _check_ctx_map(ctx, left)
    _check_ctx_map(ctx, right)
    f = ctx.field
    weight = f.coerce(weight)
    m = ctx.mdim
    z = f.zero()
    l_cols, r_cols = ctx.l_cols, ctx.r_cols
    # the nonzero coordinates of left(u) and right(v)
    lefts = [[(i, c) for i, c in enumerate(left.mat.col(u)) if c] for u in range(m)]
    rights = [[(i, c) for i, c in enumerate(right.mat.col(v)) if c] for v in range(m)]

    def cell(u, v):
        out = [z] * m
        for i, c in lefts[u]:  # l(left(u))v
            out = [o + c * x if x else o for o, x in zip(out, l_cols[i][v])]
        for i, c in rights[v]:  # r(right(v))u
            out = [o + c * x if x else o for o, x in zip(out, r_cols[i][u])]
        if weight:
            out = [o + weight * x if x else o for o, x in zip(out, ctx.mul[u][v])]
        return f.reduce(out)

    return tuple(tuple(cell(u, v) for v in range(m)) for u in range(m))


def equation_grid(ctx: BimodNov, alpha: LinMap, product: Grid) -> Grid:
    """alpha(u)∘alpha(v) - alpha(u⋄v) on module basis pairs, for a product ⋄
    on M given by its grid: the operator equation's value when ⋄ is the
    induced product.  Each cell is one pass, reduced once."""
    f = ctx.field
    m = ctx.mdim
    mul = ctx.alg.mul
    z = f.zero()
    cols = [alpha.mat.col(u) for u in range(m)]
    imgs = [[(i, c) for i, c in enumerate(col) if c] for col in cols]

    def cell(u, v):
        out = [z] * alpha.dim
        for i, cu in imgs[u]:  # alpha(u)∘alpha(v)
            row = mul[i]
            for j, cv in imgs[v]:
                c = cu * cv
                out = [o + c * x if x else o for o, x in zip(out, row[j])]
        for k, c in enumerate(product[u][v]):  # - alpha(u⋄v)
            if c:
                out = [o - c * x if x else o for o, x in zip(out, cols[k])]
        return f.reduce(out)

    return tuple(tuple(cell(u, v) for v in range(m)) for u in range(m))


def ext_o_equation_residual(ctx: BimodNov, alpha: LinMap, beta: Optional[LinMap], params: MassParams) -> Residual:
    """Residual of the extended operator equation alone, on module basis pairs:

    alpha(u)∘alpha(v) - alpha(l(alpha(u))v + r(alpha(v))u + weight·u·v)
        - kappa·beta(u)∘beta(v) - mu·beta(u·v)
    """
    f = ctx.field
    p = params.coerced(f)
    m = ctx.mdim
    col = ResidualCollector(f, "ext-o-equation")
    eq = equation_grid(ctx, alpha, induced_product(ctx, alpha, alpha, p.weight))
    if beta is not None:
        _check_ctx_map(ctx, beta)
    extended = beta is not None and not beta.is_zero()
    if extended:
        b_imgs = [beta.mat.col(u) for u in range(m)]
    for u in range(m):
        for v in range(m):
            val = eq[u][v]
            if extended:
                terms = zip(val, ctx.alg.product(b_imgs[u], b_imgs[v]), beta(ctx.mul[u][v]))
                val = f.reduce([x - p.kappa * y - p.mu * z for x, y, z in terms])
            col.record("ext-o", (u, v), val)
    return col.done()


def ext_o_residual(ctx: BimodNov, alpha: LinMap, beta: Optional[LinMap], params: MassParams) -> Residual:
    """Extended-operator verdict: the equation residual, then the balanced,
    invariant and equivalent side conditions on a nonzero beta."""
    p = params.coerced(ctx.field)
    failures = ext_o_equation_residual(ctx, alpha, beta, p).failures
    if beta is not None and not beta.is_zero():
        failures += balanced_residual(ctx, beta).failures
        failures += invariant_residual(ctx, beta, p.kappa).failures
        failures += equivalent_residual(ctx, beta, p.mu).failures
    return Residual("ext-o", failures)


def o_operator_residual(ctx: BimodNov, alpha: LinMap, weight) -> Residual:
    """Weight-lambda operator identity (extension-free)."""
    return ext_o_equation_residual(ctx, alpha, None, MassParams(weight=weight))


def rota_baxter_residual(alg: Algebra, t: LinMap, weight) -> Residual:
    """Rota-Baxter identity of the given weight on the regular context."""
    return o_operator_residual(regular(alg, validate=False), t, weight)


def star_product(ctx: BimodNov, alpha: LinMap, weight) -> tuple[Grid, Residual]:
    """u*v = l(alpha(u))v + r(alpha(v))u + weight·u·v, with the two closure
    identities whose vanishing makes the product Novikov: the module-product
    closure families of the defect alpha(u*v) - alpha(u)∘alpha(v)."""
    from .lift import module_closure  # lift builds on this module

    f = ctx.field
    grid = induced_product(ctx, alpha, alpha, weight)
    defect = tuple(tuple(f.reduce([-c for c in cell]) for cell in row) for row in equation_grid(ctx, alpha, grid))
    col = ResidualCollector(f, "star-closure")
    module_closure(ctx, defect, col)
    return grid, col.done()


def diamond_product(
    ctx: BimodNov, delta_plus: LinMap, delta_minus: LinMap, weight
) -> tuple[Grid, LinMap, LinMap]:
    """u⋄v = l(δ+(u))v + r(δ-(v))u + weight·u·v plus the recovered
    symmetrizer/antisymmetrizer pair ((δ+ + δ-)/2, (δ+ - δ-)/2)."""
    _check_ctx_map(ctx, delta_plus)
    _check_ctx_map(ctx, delta_minus)
    half = ctx.field.half()  # raises NoHalf over F_2
    grid = induced_product(ctx, delta_plus, delta_minus, weight)
    alpha = (delta_plus + delta_minus).scale(half)
    beta = (delta_plus - delta_minus).scale(half)
    return grid, alpha, beta


def pm_products(ctx: BimodNov, beta: LinMap, weight) -> tuple[Grid, Grid]:
    """The two twisted products u ·± v = weight·u·v ∓ 2 l(beta(u))v."""
    _check_ctx_map(ctx, beta)
    f = ctx.field
    if f.char == 2:
        raise NoHalf("the ± products degenerate in characteristic 2")
    zero = LinMap.zero(f, ctx.alg.dim, ctx.mdim)
    return (
        induced_product(ctx, beta.scale(-2), zero, weight),
        induced_product(ctx, beta.scale(2), zero, weight),
    )


def pm_contexts(ctx: BimodNov, beta: LinMap, weight) -> tuple[BimodNov, BimodNov]:
    """The ± products packaged with the ambient actions as module contexts."""
    plus, minus = pm_products(ctx, beta, weight)
    return ctx.with_product(plus), ctx.with_product(minus)


def circ_t(alg: Algebra, t: LinMap, weight) -> Algebra:
    """The candidate product x∘_T y = T(x)∘y + x∘T(y) + weight·x∘y: the
    product T induces on the regular context."""
    return Algebra(alg.field, alg.dim, induced_product(regular(alg, validate=False), t, t, weight))


def baxter_residual(alg: Algebra, t: LinMap) -> Residual:
    """T(x)∘T(y) - T(T(x)∘y + x∘T(y)) + x∘y on basis pairs."""
    reg = regular(alg, validate=False)
    return ext_o_equation_residual(
        reg, t, LinMap.identity(alg.field, alg.dim), MassParams(weight=0, kappa=-1, mu=0)
    )


def hom_residual(src: Algebra, dst: Algebra, phi: LinMap) -> Residual:
    """phi(x·y) - phi(x)∘phi(y) on basis pairs (algebra homomorphism check)."""
    f = src.field
    col = ResidualCollector(f, "algebra-hom")
    n = src.dim
    for i in range(n):
        pi = phi(src.basis_vec(i))
        for j in range(n):
            val = vsub(f, phi(src.mul[i][j]), dst.product(pi, phi(src.basis_vec(j))))
            col.record("hom", (i, j), val)
    return col.done()
