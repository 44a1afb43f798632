"""Post-Novikov algebras, commutative dendriform trialgebras with a
derivation, and every construction producing post-Novikov structures."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .algebra import (
    Algebra,
    BimodNov,
    Bimodule,
    Grid,
    coerce_grid,
    dual_context,
    grid_product,
    novikov_residual,
    regular,
    zero_grid,
)
from .errors import (
    KernelNotIdeal,
    NotDerivation,
    NotNYBESolution,
    NotOOperator,
    NotRotaBaxter,
    NotTrialgebra,
    SingularT,
)
from .fields import Field
from .linalg import Matrix, column_space_pivots, inverse, kernel_basis, solve_right, unit_vector, vadd, vsub
from .operators import LinMap, induced_product, o_operator_residual, rota_baxter_residual
from .residual import Residual, ResidualCollector


@dataclass(frozen=True)
class PostNov:
    """Three bilinear products on one space: the base product ``circ``,
    a left product ``tri_l`` (x ◁ y) and a right product ``tri_r`` (x ▷ y)."""

    field: Field
    dim: int
    circ: Grid
    tri_l: Grid
    tri_r: Grid

    def __post_init__(self):
        for name in ("circ", "tri_l", "tri_r"):
            object.__setattr__(self, name, coerce_grid(self.field, getattr(self, name), self.dim))

    @classmethod
    def zero(cls, field: Field, dim: int) -> "PostNov":
        z = zero_grid(field, dim)
        return cls(field, dim, z, z, z)

    def circ_prod(self, a: Sequence, b: Sequence) -> tuple:
        return grid_product(self.field, self.circ, a, b)

    def left_prod(self, a: Sequence, b: Sequence) -> tuple:
        """a ◁ b."""
        return grid_product(self.field, self.tri_l, a, b)

    def right_prod(self, a: Sequence, b: Sequence) -> tuple:
        """a ▷ b."""
        return grid_product(self.field, self.tri_r, a, b)

    def sum_grid(self) -> Grid:
        f = self.field
        n = self.dim
        return tuple(
            tuple(
                vadd(f, vadd(f, self.tri_r[i][j], self.tri_l[i][j]), self.circ[i][j])
                for j in range(n)
            )
            for i in range(n)
        )

    def base_algebra(self) -> Algebra:
        return Algebra(self.field, self.dim, self.circ)


def associated(p: PostNov) -> Algebra:
    """The sum product a ▷ b + a ◁ b + a ∘ b."""
    return Algebra(p.field, p.dim, p.sum_grid())


def post_residual(p: PostNov) -> Residual:
    """All eight compatibility identities plus Novikov-ness of the base product."""
    f = p.field
    n = p.dim
    col = ResidualCollector(f, "post-novikov")
    base = novikov_residual(p.base_algebra())
    ssum = p.sum_grid()
    basis = [unit_vector(f, n, i) for i in range(n)]
    for a in range(n):
        for b in range(n):
            for c in range(n):
                ea, eb, ec = basis[a], basis[b], basis[c]
                ab_sum = ssum[a][b]
                # (a▷c)◁b = (a▷b+a◁b+a∘b)▷c
                e1 = vsub(
                    f,
                    p.left_prod(p.tri_r[a][c], eb),
                    p.right_prod(ab_sum, ec),
                )
                col.record("nd1", (a, b, c), e1)
                # a▷(c◁b) - (a▷c)◁b + (c◁a)◁b = c◁(a▷b+a◁b+a∘b)
                e2 = p.right_prod(ea, p.tri_l[c][b])
                e2 = vsub(f, e2, p.left_prod(p.tri_r[a][c], eb))
                e2 = vadd(f, e2, p.left_prod(p.tri_l[c][a], eb))
                e2 = vsub(f, e2, p.left_prod(ec, ab_sum))
                col.record("nd2", (a, b, c), e2)
                # (a⊛b)▷c - (b⊛a)▷c = a▷(b▷c) - b▷(a▷c)
                e3 = vsub(f, p.right_prod(ab_sum, ec), p.right_prod(ssum[b][a], ec))
                e3 = vsub(f, e3, p.right_prod(ea, p.tri_r[b][c]))
                e3 = vadd(f, e3, p.right_prod(eb, p.tri_r[a][c]))
                col.record("nd3", (a, b, c), e3)
                # (a◁b)◁c = (a◁c)◁b
                e4 = vsub(f, p.left_prod(p.tri_l[a][b], ec), p.left_prod(p.tri_l[a][c], eb))
                col.record("nd4", (a, b, c), e4)
                # (a▷b)∘c - a▷(b∘c) = (b◁a)∘c - b∘(a▷c)
                e5 = vsub(f, p.circ_prod(p.tri_r[a][b], ec), p.right_prod(ea, p.circ[b][c]))
                e5 = vsub(f, e5, p.circ_prod(p.tri_l[b][a], ec))
                e5 = vadd(f, e5, p.circ_prod(eb, p.tri_r[a][c]))
                col.record("post7", (a, b, c), e5)
                # (b∘c)◁a - b∘(c◁a) = (c∘b)◁a - c∘(b◁a)
                e6 = vsub(f, p.left_prod(p.circ[b][c], ea), p.circ_prod(eb, p.tri_l[c][a]))
                e6 = vsub(f, e6, p.left_prod(p.circ[c][b], ea))
                e6 = vadd(f, e6, p.circ_prod(ec, p.tri_l[b][a]))
                col.record("post8", (a, b, c), e6)
                # (a▷b)∘c = (a▷c)∘b
                e7 = vsub(f, p.circ_prod(p.tri_r[a][b], ec), p.circ_prod(p.tri_r[a][c], eb))
                col.record("post9", (a, b, c), e7)
                # (a∘b)◁c = (a◁c)∘b
                e8 = vsub(f, p.left_prod(p.circ[a][b], ec), p.circ_prod(p.tri_l[a][c], eb))
                col.record("post10", (a, b, c), e8)
    return Residual("post-novikov", base.failures + col.done().failures)


def lr_bimodule(p: PostNov) -> BimodNov:
    """(A, ∘, L_▷, R_◁) as a bimodule Novikov algebra over the associated
    algebra; ``p`` is not checked to be post-Novikov."""
    return Bimodule.from_grids(associated(p), p.tri_r, p.tri_l).with_product(p.circ)


@dataclass(frozen=True)
class CommTrialgebra:
    """A commutative associative product, a second product, and a derivation
    of both, packaged for the post-Novikov construction."""

    field: Field
    dim: int
    dot: Grid
    circ: Grid
    deriv: Matrix

    def __post_init__(self):
        object.__setattr__(self, "dot", coerce_grid(self.field, self.dot, self.dim))
        object.__setattr__(self, "circ", coerce_grid(self.field, self.circ, self.dim))

    def dot_prod(self, a, b) -> tuple:
        return grid_product(self.field, self.dot, a, b)

    def circ_prod(self, a, b) -> tuple:
        return grid_product(self.field, self.circ, a, b)


def trialgebra_residual(t: CommTrialgebra) -> Residual:
    """Commutativity/associativity of ·, the four compatibility identities,
    and the derivation laws for both products."""
    f = t.field
    n = t.dim
    col = ResidualCollector(f, "trialgebra")
    basis = [unit_vector(f, n, i) for i in range(n)]
    for a in range(n):
        for b in range(n):
            col.record("dot-commutative", (a, b), vsub(f, t.dot[a][b], t.dot[b][a]))
            for c in range(n):
                ea, eb, ec = basis[a], basis[b], basis[c]
                col.record(
                    "dot-associative",
                    (a, b, c),
                    vsub(f, t.dot_prod(t.dot[a][b], ec), t.dot_prod(ea, t.dot[b][c])),
                )
                # (a∘b)∘c = a∘(b∘c + c∘b + b·c)
                inner = vadd(f, vadd(f, t.circ[b][c], t.circ[c][b]), t.dot[b][c])
                col.record(
                    "tri-1", (a, b, c), vsub(f, t.circ_prod(t.circ[a][b], ec), t.circ_prod(ea, inner))
                )
                # (a∘b)∘c = (a∘c)∘b
                col.record(
                    "tri-2", (a, b, c), vsub(f, t.circ_prod(t.circ[a][b], ec), t.circ_prod(t.circ[a][c], eb))
                )
                # (a∘b)·c = a·(c∘b)
                col.record(
                    "tri-3", (a, b, c), vsub(f, t.dot_prod(t.circ[a][b], ec), t.dot_prod(ea, t.circ[c][b]))
                )
                # (a·b)∘c = (a∘c)·b
                col.record(
                    "tri-4", (a, b, c), vsub(f, t.circ_prod(t.dot[a][b], ec), t.dot_prod(t.circ[a][c], eb))
                )
    return col.done()


def derivation_residual(t: CommTrialgebra) -> Residual:
    f = t.field
    n = t.dim
    d = t.deriv
    col = ResidualCollector(f, "derivation")
    basis = [unit_vector(f, n, i) for i in range(n)]
    for a in range(n):
        da = d.col(a)
        for b in range(n):
            db = d.col(b)
            leib_dot = vsub(
                f,
                d.apply(t.dot[a][b]),
                vadd(f, t.dot_prod(da, basis[b]), t.dot_prod(basis[a], db)),
            )
            col.record("leibniz-dot", (a, b), leib_dot)
            leib_circ = vsub(
                f,
                d.apply(t.circ[a][b]),
                vadd(f, t.circ_prod(da, basis[b]), t.circ_prod(basis[a], db)),
            )
            col.record("leibniz-circ", (a, b), leib_circ)
    return col.done()


def post_from_trialgebra(t: CommTrialgebra) -> PostNov:
    """a*b = a·D(b), a◁b = a∘D(b), a▷b = D(b)∘a."""
    if not trialgebra_residual(t).is_zero:
        raise NotTrialgebra("products fail the trialgebra identities")
    if not derivation_residual(t).is_zero:
        raise NotDerivation("the map is not a derivation of both products")
    f = t.field
    n = t.dim
    basis = [unit_vector(f, n, i) for i in range(n)]
    dcols = [t.deriv.col(j) for j in range(n)]
    circ = tuple(tuple(t.dot_prod(basis[i], dcols[j]) for j in range(n)) for i in range(n))
    tri_l = tuple(tuple(t.circ_prod(basis[i], dcols[j]) for j in range(n)) for i in range(n))
    tri_r = tuple(tuple(t.circ_prod(dcols[j], basis[i]) for j in range(n)) for i in range(n))
    return PostNov(f, n, circ, tri_l, tri_r)


def post_from_o(ctx: BimodNov, alpha: LinMap, weight, validate: bool = True) -> PostNov:
    """Post-Novikov structure on the module of a weight-lambda operator: the
    three parts of the product alpha induces on M, base product
    weight·(module product), x◁y = r(alpha(y))x and x▷y = l(alpha(x))y."""
    f = ctx.field
    weight = f.coerce(weight)
    if validate and not o_operator_residual(ctx, alpha, weight).is_zero:
        raise NotOOperator("alpha is not an operator of this weight")
    zero = LinMap.zero(f, ctx.alg.dim, ctx.mdim)
    parts = ((zero, zero, weight), (zero, alpha, 0), (alpha, zero, 0))
    return PostNov(f, ctx.mdim, *(induced_product(ctx, left, right, w) for left, right, w in parts))


@dataclass(frozen=True)
class ImagePost:
    """Push-forward post-Novikov structure on the image of an operator."""

    post: PostNov
    pivot_cols: tuple


def post_on_image(ctx: BimodNov, alpha: LinMap, weight) -> ImagePost:
    """Induced structure on alpha(M), in the leftmost-pivot column basis.

    Requires alpha to be a weight-lambda operator whose kernel is an ideal of
    the module product.  The two make the structure well defined: for k in
    the kernel the operator identity gives alpha(l(alpha(u))k) =
    -weight·alpha(u·k) = 0, and likewise in the other slot, so every
    preimage choice gives the same products.
    """
    f = ctx.field
    weight = f.coerce(weight)
    if not o_operator_residual(ctx, alpha, weight).is_zero:
        raise NotOOperator("alpha is not an operator of this weight")
    # the kernel basis spans ker(alpha), so a product lies in its span
    # exactly when alpha sends it to zero
    ker = kernel_basis(alpha.mat)
    mb = [ctx.module_basis(i) for i in range(ctx.mdim)]
    for k in ker:
        for u in mb:
            for prod in (ctx.module_product(k, u), ctx.module_product(u, k)):
                if any(alpha(prod)):
                    raise KernelNotIdeal("kernel is not closed under the module product")

    pivots = tuple(column_space_pivots(alpha.mat))
    if not pivots:
        return ImagePost(PostNov.zero(f, 0), pivots)
    img_mat = Matrix.from_cols(f, [alpha.mat.col(j) for j in pivots])

    def image_coords(vec) -> tuple:  # alpha(vec) in the pivot basis, which spans the image
        return solve_right(img_mat, alpha(vec))

    # x ⋄ y on the image is alpha(u ⋄ v) for preimages u, v of x, y
    on_module = post_from_o(ctx, alpha, weight, validate=False)
    grids = _pushed(on_module, [ctx.module_basis(j) for j in pivots], image_coords)
    return ImagePost(PostNov(f, len(pivots), *grids), pivots)


def post_from_rb(alg: Algebra, t: LinMap, weight) -> PostNov:
    """x ⊙ y = weight·x∘y, x▷y = T(x)∘y, x◁y = x∘T(y) for a Rota-Baxter T:
    the operator construction on the regular context."""
    if not rota_baxter_residual(alg, t, weight).is_zero:
        raise NotRotaBaxter("T fails the Rota-Baxter identity at this weight")
    return post_from_o(regular(alg, validate=False), t, weight, validate=False)


def _pushed(p: PostNov, pre: Sequence, out) -> tuple[Grid, Grid, Grid]:
    """The three products of p at the vectors ``pre``, sent along ``out``:
    x ⋄' y = out(pre_x ⋄ pre_y) for x, y indexing ``pre``."""
    f, d = p.field, range(len(pre))
    return tuple(
        tuple(tuple(out(grid_product(f, grid, pre[i], pre[j])) for j in d) for i in d)
        for grid in (p.circ, p.tri_l, p.tri_r)
    )


def transport(p: PostNov, m: Matrix) -> PostNov:
    """The structure pushed forward along an invertible map m: each product
    becomes x ⋄' y = m(m^{-1}(x) ⋄ m^{-1}(y)).  Raises SingularT when m is
    singular."""
    m_inv = inverse(m)
    return PostNov(p.field, p.dim, *_pushed(p, [m_inv.col(i) for i in range(p.dim)], m.apply))


def compatible_from_rb(alg: Algebra, t: LinMap, weight) -> PostNov:
    """Invertible variant: the Rota-Baxter structure pushed forward along T,
    whose associated algebra is the original product.  Raises SingularT when
    T is singular."""
    return transport(post_from_rb(alg, t, weight), t.mat)


def post_from_nybe(alg: Algebra, r):
    """Post-Novikov structure on the dual space from a Yang-Baxter solution
    with invariant symmetric part; when the tensor map is invertible the
    compatible structure on A, its push-forward along the tensor map, is
    returned as well.

    Returns (PostNov on A*, PostNov on A or None).
    """
    from .ybe import RTensor, dual_pm_products, nybe_residual

    rt = RTensor.build(alg, r)
    if not nybe_residual(alg, r).is_zero():
        raise NotNYBESolution("tensor does not solve the Yang-Baxter equation")
    plus_grid, _ = dual_pm_products(alg, rt)  # refuses a symmetric part that is not invariant
    ctx_plus = dual_context(alg).with_product(plus_grid)
    dual_post = post_from_o(ctx_plus, LinMap(rt.hat), 1)
    try:
        compat = transport(dual_post, rt.hat)
    except SingularT:
        compat = None
    return dual_post, compat
