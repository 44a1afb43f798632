"""Tensor form of operators: hats and their transposes, symmetric and skew
parts, invariance, the Yang-Baxter residuals and their operator-form
equivalences, and quadratic (invariant-form) transport."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .algebra import Algebra, Grid, dual_context, regular_bimodule
from .errors import BetaNotSelfAdjoint, DegenerateForm, DimMismatch, NoHalf, SymPartNotInvariant
from .fields import Field
from .linalg import Matrix, inverse, rank
from .operators import LinMap, equation_grid, induced_product, o_operator_residual, pm_products
from .residual import Residual, ResidualCollector, grid_residual
from .tensors import Tensor2, Tensor3, flip, tensor3_sum


def hat_matrices(r: Tensor2) -> tuple[Matrix, Matrix]:
    """Matrices of r-hat and its transpose partner as maps A* -> A.

    Column i of the first is row i of the coefficient grid; the second is
    the hat of the flipped tensor, i.e. the plain grid read column-wise.
    """
    hat_t = Matrix.from_rows(r.field, r.grid)
    return hat_t.transpose(), hat_t


def tensor_of_map(m: Matrix) -> Tensor2:
    """Inverse of the hat identification: grid[i][j] = <m(e_i*), e_j*>."""
    n = m.rows
    if m.cols != n:
        raise DimMismatch("only square maps A*->A correspond to tensors in A⊗A")
    return Tensor2(m.field, tuple(tuple(m.col(i)) for i in range(n)))


@dataclass(frozen=True)
class RTensor:
    """A 2-tensor with its cached operator data: hat, hat-transpose, the
    halved symmetric/skew parts and their hats.  Needs 1/2, so construction
    rejects characteristic 2."""

    alg: Algebra
    r: Tensor2
    hat: Matrix
    hat_t: Matrix
    r_minus: Tensor2
    r_plus: Tensor2
    alpha: LinMap
    beta: LinMap

    @classmethod
    def build(cls, alg: Algebra, r: Tensor2) -> "RTensor":
        r.check_on(alg)
        f = alg.field
        if f.char == 2:
            raise NoHalf("symmetric/skew splitting needs 1/2")
        half = f.half()
        hat, hat_t = hat_matrices(r)
        tr = flip(r)
        r_minus = (r - tr).scale(half)
        r_plus = (r + tr).scale(half)
        alpha = LinMap((hat - hat_t).scale(half))
        beta = LinMap((hat + hat_t).scale(half))
        return cls(alg, r, hat, hat_t, r_minus, r_plus, alpha, beta)

    @property
    def field(self) -> Field:
        return self.alg.field


def invariance_residual(alg: Algebra, s: Tensor2, cross_check: bool = False) -> Residual:
    """(L(x)⊗id + id⊗L_star(x))s on every basis x.

    P-LEM-R compares this verdict with the operator characterizations of a
    symmetric s.  ``cross_check`` is ignored: the benchmark's random-checks
    oracle (``perfbench/wl_random_checks.py``) still passes it as False.
    """
    s.check_on(alg)
    f = alg.field
    n = alg.dim
    col = ResidualCollector(f, "invariance")
    reg = regular_bimodule(alg)
    for x in range(n):
        lx = reg.l_mats[x]
        moved = s.apply_slot(0, lx) + s.apply_slot(1, lx + reg.r_mats[x])  # L_star = L + R
        for i in range(n):
            col.record("invariance", (x, i), moved.grid[i])
    return col.done()


def _nybe_terms(r: Tensor2) -> list:
    return [(1, r, r, "13o23"), (1, r, r, "12s23"), (1, r, r, "13o12")]


def nybe_residual(alg: Algebra, r: Tensor2) -> Tensor3:
    """r13∘r23 + r12⋆r23 + r13∘r12."""
    return tensor3_sum(alg, _nybe_terms(r))


def enybe_residual(alg: Algebra, r: Tensor2, epsilon) -> Tensor3:
    """LHS - RHS of the mass-epsilon extended equation; reduces to the plain
    residual when epsilon = 0 or r is skew."""
    f = alg.field
    epsilon = f.coerce(epsilon)
    terms = _nybe_terms(r)
    if epsilon:
        s = r + flip(r)
        terms.append((-epsilon, s, s, "13o23"))
    return tensor3_sum(alg, terms)


def o_nybe_residual(alg: Algebra, r: Tensor2) -> Residual:
    """Operator form of the tensor equation, on dual basis pairs:

    hat(a*)∘hat(b*) - hat(Lstar*(hat(a*))b* - (-R)*(hat_t(b*))a*),
    the equation of hat for the product hat and -hat_t induce on the dual
    context.
    """
    hat, hat_t = hat_matrices(r)
    ctx = dual_context(alg)  # l = Lstar*, r = -R*
    alpha = LinMap(hat)
    eq = equation_grid(ctx, alpha, induced_product(ctx, alpha, LinMap(-hat_t), 0))
    return grid_residual(alg.field, "o-nybe", eq)


def dual_pm_products(alg: Algebra, rt: RTensor) -> tuple[Grid, Grid]:
    """The two dual products a* ∘± b* = ∓2 Lstar*(beta(a*))b*.

    Requires the symmetric part to be invariant.
    """
    if not invariance_residual(alg, rt.r_plus).is_zero:
        raise SymPartNotInvariant("symmetric part is not invariant")
    return pm_products(dual_context(alg), rt.beta, 0)


@dataclass(frozen=True)
class BilForm(Tensor2):
    """Symmetric bilinear form: a 2-tensor whose grid is the Gram matrix;
    phi is the induced map A -> A* whose matrix equals that grid."""

    def value(self, a: Sequence, b: Sequence) -> object:
        acc = self.field.zero()
        for ca, row in zip(a, self.grid):
            if ca:
                for cb, x in zip(b, row):
                    if cb and x:
                        acc += ca * cb * x
        return self.field.reduce((acc,))[0]

    def phi(self) -> Matrix:
        return Matrix.from_rows(self.field, self.grid)

    def is_nondegenerate(self) -> bool:
        return rank(self.phi()) == self.dim


def invariant_form_residual(alg: Algebra, form: BilForm) -> Residual:
    """Invariance B(a∘b, c) + B(b, a⋆c) on basis triples."""
    form.check_on(alg)
    f = alg.field
    n = alg.dim
    col = ResidualCollector(f, "bilform-invariance")
    basis = [alg.basis_vec(i) for i in range(n)]
    for a in range(n):
        for b in range(n):
            ab = alg.mul[a][b]
            for c in range(n):
                star_ac = alg.basis_star(a, c)
                val = form.value(ab, basis[c]) + form.value(basis[b], star_ac)
                col.record("invariant-form", (a, b, c), f.reduce((val,)))
    return col.done()


def bilform_invariance(alg: Algebra, form: BilForm) -> tuple[Residual, bool]:
    """The invariance residual plus the quadratic verdict (symmetric, nondegenerate, invariant)."""
    report = invariant_form_residual(alg, form)
    return report, report.is_zero and form.is_symmetric() and form.is_nondegenerate()


def adjoint_residual(form: BilForm, t: LinMap, sign: int) -> Residual:
    """B(T(a), b) -/+ B(a, T(b)) as the matrix identity phi·T = ±T^t·phi."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    phi = form.phi()
    lhs = phi @ t.mat
    rhs = t.mat.transpose() @ phi
    diff = lhs - rhs if sign == 1 else lhs + rhs
    col = ResidualCollector(form.field, "adjoint")
    for i in range(diff.rows):
        col.record("adjoint", (i,), diff.row(i))
    return col.done()


@dataclass(frozen=True)
class QuadTransport:
    """Operators moved across a nondegenerate invariant form, with the
    assembled 2-tensors of their combinations."""

    p_t: LinMap  # T∘phi^{-1} : A* -> A
    p_beta: LinMap  # beta∘phi^{-1} : A* -> A
    delta_plus: Tensor2
    delta_minus: Tensor2


def quad_transport(alg: Algebra, form: BilForm, t: LinMap, beta: LinMap) -> QuadTransport:
    """P_T = T·phi^{-1}, P_beta = beta·phi^{-1} and the tensors of P_T ± P_beta.

    Hypothesis failures raise; conclusion checks live in the property suite.
    """
    if not form.is_symmetric():
        raise DegenerateForm("form must be symmetric")
    if not form.is_nondegenerate():
        raise DegenerateForm("form must be nondegenerate")
    if not invariant_form_residual(alg, form).is_zero:
        raise DegenerateForm("form must be invariant")
    if not adjoint_residual(form, beta, +1).is_zero:
        raise BetaNotSelfAdjoint("extension map must be self-adjoint")
    phi_inv = inverse(form.phi())
    p_t = LinMap(t.mat @ phi_inv)
    p_beta = LinMap(beta.mat @ phi_inv)
    plus = tensor_of_map(p_t.mat + p_beta.mat)
    minus = tensor_of_map(p_t.mat - p_beta.mat)
    return QuadTransport(p_t, p_beta, plus, minus)


def skew_nybe_operator_residual(alg: Algebra, r: Tensor2) -> Residual:
    """For skew r: the weight-0 operator identity of the hat on the dual
    actions, equivalent to the tensor equation."""
    ctx = dual_context(alg)
    hat, _ = hat_matrices(r)
    return o_operator_residual(ctx, LinMap(hat), 0)
