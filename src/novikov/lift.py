"""The double algebra on A ⊕ V*, the operator-to-tensor lift, the two
generalized Yang-Baxter residuals, the induced dual product, and
generalized operators."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .algebra import (
    Algebra,
    Bimodule,
    Grid,
    bimodule_residual,
    dual_bimodule,
    dual_context,
    grid_product,
    novikov_residual,
    semidirect,
)
from .errors import DimMismatch, FieldMismatch, NotABimodule
from .linalg import Matrix, vadd, vsub
from .operators import LinMap, equation_grid, induced_product
from .residual import Residual, ResidualCollector
from .tensors import Tensor2, Tensor3, flip, tensor3_sum


@dataclass(frozen=True)
class DoubleAlg:
    """Semidirect product of A with the dual bimodule on V*, basis A first."""

    base: Algebra
    bimodule: Bimodule
    algebra: Algebra  # product on A ⊕ V*

    @property
    def n(self) -> int:
        return self.base.dim

    @property
    def m(self) -> int:
        return self.bimodule.mdim

    @property
    def dim(self) -> int:
        return self.algebra.dim


def double(alg: Algebra, b: Bimodule, validate: bool = True) -> DoubleAlg:
    """A ⋉ V* built from the dual actions.  With ``validate`` A must be
    Novikov and b a bimodule; the dual of b is then one too (P-DUAL), so the
    product is Novikov (P-SEMI).  A is a subalgebra of the double, so a
    non-Novikov A is refused with the message of a non-Novikov double."""
    if b.alg is not alg and b.alg != alg:
        raise DimMismatch("bimodule is not over the given algebra")
    if validate and not bimodule_residual(b).is_zero:
        raise NotABimodule("double construction needs a valid bimodule")
    if validate and not novikov_residual(alg).is_zero:
        raise NotABimodule("double product failed the Novikov identities")
    dual = dual_bimodule(b, validate=False)
    return DoubleAlg(alg, b, semidirect(dual.trivial()))


@dataclass(frozen=True)
class LiftedMap:
    """A map V -> A pushed into the double: only the V -> A block survives."""

    source: LinMap
    mat: Matrix  # (n+m) x (n+m), the map on the double's dual space
    tensor: Tensor2  # its 2-tensor in the double
    tensor_minus: Tensor2  # tensor - flip(tensor)
    tensor_plus: Tensor2  # tensor + flip(tensor)


def lift_map(d: DoubleAlg, gamma: LinMap) -> LiftedMap:
    """Lift gamma: V -> A to the double.

    Dual basis order mirrors the primal one (A* block first, then V); the
    lifted matrix has gamma in the V -> A block and zeros elsewhere, and its
    tensor is the V*⊗A placement of gamma's tensor.
    """
    from .ybe import tensor_of_map

    n, m = d.n, d.m
    f = d.base.field
    if gamma.field != f:
        raise FieldMismatch(f"map is over {gamma.field}, algebra over {f}")
    if gamma.mat.rows != n or gamma.mat.cols != m:
        raise DimMismatch(f"expected a {n}x{m} map into the base algebra")
    z = (f.zero(),)
    mat = Matrix.from_rows(f, [z * n + gamma.mat.row(i) for i in range(n)] + [z * (n + m)] * m)
    tensor = tensor_of_map(mat)
    return LiftedMap(gamma, mat, tensor, tensor - flip(tensor), tensor + flip(tensor))


def gnybe_residuals(alg: Algebra, r: Tensor2) -> tuple[list[Tensor3], list[Tensor3]]:
    """The two generalized residual families, one 3-tensor per basis element.

    The first family mixes seven contractions with slot-wise products by the
    basis element; the second is the flip-corrected single bracket.  Both
    vanish exactly when the induced dual product is Novikov.
    """
    n = alg.dim
    tau_r = flip(r)
    sum_r = r + tau_r
    base_a = tensor3_sum(alg, [(1, tau_r, r, "12o13"), (1, r, r, "12o23"), (1, r, r, "13s23")])
    # r23∘r13 - r13∘r23 - (id - tau⊗id)(r13∘r12 + r12⋆r23)
    inner = tensor3_sum(alg, [(1, r, r, "13o12"), (1, r, r, "12s23")])
    base_b = tensor3_sum(alg, [(1, r, r, "23o13"), (-1, r, r, "13o23")])
    base_b = base_b - (inner - inner.swap_slots(0, 1))
    bracket7 = tensor3_sum(alg, [(1, r, tau_r, "13o23"), (-1, r, r, "12s23"), (-1, r, r, "13o12")])
    first, second = [], []
    for s in range(n):
        es = alg.basis_vec(s)
        left = alg.left_mul(es)
        lstar = alg.star_mul(es)
        t = base_a.apply_slot(0, left) - base_a.apply_slot(1, left)
        t = t + tensor3_sum(
            alg, [(1, sum_r.apply_slot(1, left), r, "12o23"), (-1, r.apply_slot(0, left), sum_r, "13o12")]
        )
        t = t + base_b.apply_slot(2, lstar)
        first.append(t)
        u = bracket7.apply_slot(2, lstar)
        second.append(u - u.swap_slots(1, 2))
    return first, second


def gnybe_flag(alg: Algebra, r: Tensor2) -> bool:
    first, second = gnybe_residuals(alg, r)
    return all(t.is_zero() for t in first) and all(t.is_zero() for t in second)


def delta_r(alg: Algebra, r: Tensor2, a: Sequence) -> Tensor2:
    """(L(a)⊗id + id⊗L_star(a))r."""
    r.check_on(alg)
    return r.apply_slot(0, alg.left_mul(a)) + r.apply_slot(1, alg.star_mul(a))


def circ_delta(alg: Algebra, r: Tensor2) -> Grid:
    """The induced product on the dual, in closed form:
    a* ∘ b* = -(Lstar*(hat(a*))b* + R*(hat_t(b*))a*), the product -hat and
    hat_t induce on the dual context.  P-CIRC-DELTA compares it with the
    pairing definition, ``circ_delta_pairing``."""
    from .ybe import hat_matrices

    hat, hat_t = hat_matrices(r)
    ctx = dual_context(alg)  # l = Lstar*, r = -R*
    return induced_product(ctx, LinMap(-hat), LinMap(hat_t), 0)


def circ_delta_pairing(alg: Algebra, r: Tensor2) -> Grid:
    """The dual product taken literally from the coproduct pairing."""
    f = alg.field
    n = alg.dim
    deltas = [delta_r(alg, r, alg.basis_vec(s)) for s in range(n)]
    grid = []
    for i in range(n):
        row = []
        for j in range(n):
            row.append(tuple(deltas[s][i, j] for s in range(n)))
        grid.append(tuple(row))
    return tuple(grid)


def circ_delta_algebra(alg: Algebra, r: Tensor2) -> Algebra:
    return Algebra(alg.field, alg.dim, circ_delta(alg, r))


def bialgebra_extra_residuals(alg: Algebra, r: Tensor2) -> Residual:
    """The two side equalities on (r + tau r), evaluated on basis pairs.
    Both vanish identically for skew r."""
    r.check_on(alg)
    f = alg.field
    n = alg.dim
    s = r + flip(r)
    col = ResidualCollector(f, "bialgebra-extra")
    for a in range(n):
        ea = alg.basis_vec(a)
        la = alg.left_mul(ea)
        ra = alg.right_mul(ea)
        lsa = alg.star_mul(ea)
        for b in range(n):
            eb = alg.basis_vec(b)
            lb = alg.left_mul(eb)
            rb = alg.right_mul(eb)
            lsb = alg.star_mul(eb)
            l_ba = alg.left_mul(alg.mul[b][a])
            # (id⊗(L(b∘a) + L(a)L(b)) + Lstar(a)⊗Lstar(b)) s
            t1 = s.apply_slot(1, l_ba + la @ lb) + s.apply_slot(0, lsa).apply_slot(1, lsb)
            for i in range(n):
                col.record("extra-1", (a, b, i), t1.grid[i])
            comm = la @ lb - lb @ la
            t2 = (
                -s.apply_slot(0, lsb).apply_slot(1, ra)
                + s.apply_slot(0, lsa).apply_slot(1, rb)
                + s.apply_slot(0, ra).apply_slot(1, lb)
                - s.apply_slot(0, rb).apply_slot(1, la)
                + s.apply_slot(1, comm)
                - s.apply_slot(0, comm)
            )
            for i in range(n):
                col.record("extra-2", (a, b, i), t2.grid[i])
    return col.done()


def b_alpha(ctx: Bimodule, alpha: LinMap) -> Grid:
    """The weight-0 obstruction grid B(u,v) = alpha(u)∘alpha(v)
    - alpha(l(alpha(u))v + r(alpha(v))u) on module basis pairs: the operator
    equation's value on the trivial module product."""
    triv = ctx.trivial()
    return equation_grid(triv, alpha, induced_product(triv, alpha, alpha, 0))


def module_closure(ctx: Bimodule, b: Grid, col: ResidualCollector) -> None:
    """Record the two module-product closure families of a bilinear
    B: M×M -> A (grid on module basis pairs) on basis triples:
    vcon-1: l(B(u,v))w = l(B(u,w))v,
    vcon-2: l(B(u,v))w - l(B(v,u))w = r(B(v,w))u - r(B(u,w))v."""
    f = ctx.field
    m = ctx.mdim
    lb = [[ctx.l_of(b[u][v]) for v in range(m)] for u in range(m)]
    rb = [[ctx.r_of(b[u][v]) for v in range(m)] for u in range(m)]
    for u in range(m):
        for v in range(m):
            for w in range(m):
                col.record("vcon-1", (u, v, w), vsub(f, lb[u][v].col(w), lb[u][w].col(v)))
                e2 = vsub(f, lb[u][v].col(w), lb[v][u].col(w))
                e2 = vsub(f, e2, rb[v][w].col(u))
                col.record("vcon-2", (u, v, w), vadd(f, e2, rb[u][w].col(v)))


def closure_residual(ctx: Bimodule, b: Grid) -> Residual:
    """The six closure families of a bilinear B: M×M -> A: the two
    module-product families, then con-3..6 on (x, u, w) for every algebra
    basis element x."""
    f = ctx.field
    m = ctx.mdim
    col = ResidualCollector(f, "generalized-o")
    module_closure(ctx, b, col)
    mb = [ctx.module_basis(i) for i in range(m)]

    def b_of(u_coords, v_coords) -> tuple:
        return grid_product(f, b, u_coords, v_coords)

    for x in range(ctx.alg.dim):
        ex = ctx.alg.basis_vec(x)
        lx = [ctx.l_mats[x].col(w) for w in range(m)]
        rx = [ctx.r_mats[x].col(w) for w in range(m)]
        # B with l(x) or r(x) of one basis vector in its left or right slot:
        # left_l[w][u] = B(l(x)w, u), right_l[u][w] = B(u, l(x)w),
        # left_r[u][w] = B(r(x)u, w), right_r[w][u] = B(w, r(x)u)
        left_l = [[b_of(lx[w], mb[u]) for u in range(m)] for w in range(m)]
        right_l = [[b_of(mb[u], lx[w]) for w in range(m)] for u in range(m)]
        left_r = [[b_of(rx[u], mb[w]) for w in range(m)] for u in range(m)]
        right_r = [[b_of(mb[w], rx[u]) for u in range(m)] for w in range(m)]
        for u in range(m):
            for w in range(m):
                xb = ctx.alg.product(ex, b[u][w])
                # x ⋆ B(u,w) = B(l(x)w, u) + B(u, l(x)w)
                e3 = vadd(f, xb, ctx.alg.product(b[u][w], ex))
                e3 = vsub(f, vsub(f, e3, left_l[w][u]), right_l[u][w])
                col.record("con-3", (x, u, w), e3)
                # B(l(x)w, v) = B(l(x)v, w)   (v := u here)
                col.record("con-4", (x, u, w), vsub(f, left_l[w][u], left_l[u][w]))
                # B(l(x)w, u) + B(u, l(x)w) = x∘B(u,w) + B(r(x)u, w)
                e5 = vsub(f, vsub(f, vadd(f, left_l[w][u], right_l[u][w]), xb), left_r[u][w])
                col.record("con-5", (x, u, w), e5)
                # B(r(x)u, v) + B(v, r(x)u) = B(r(x)v, u) + B(u, r(x)v)
                e6 = vsub(f, vsub(f, vadd(f, left_r[u][w], right_r[w][u]), left_r[w][u]), right_r[u][w])
                col.record("con-6", (x, u, w), e6)
    return col.done()


def generalized_o_residual(ctx: Bimodule, alpha: LinMap) -> Residual:
    """The six identity families whose joint vanishing makes the lifted
    tensor a skew solution of the generalized equations: the closure
    families of the obstruction grid."""
    return closure_residual(ctx, b_alpha(ctx, alpha))
