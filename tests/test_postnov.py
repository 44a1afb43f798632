import hashlib
import itertools
import json

import pytest

from novikov.algebra import Algebra, abnova_residual, dual_context, grids_equal, regular
from novikov.errors import (
    KernelNotIdeal,
    NotDerivation,
    NovikovError,
    NotOOperator,
    NotRotaBaxter,
    NotTrialgebra,
    SymPartNotInvariant,
)
from novikov.fields import GF, QQ
from novikov.fixtures import example_algebra
from novikov.linalg import Matrix, column_space_pivots, kernel_basis, solve_right, vadd
from novikov.operators import LinMap, balanced_residual, hom_residual
from novikov.postnov import (
    CommTrialgebra,
    PostNov,
    _pushed,
    associated,
    compatible_from_rb,
    derivation_residual,
    lr_bimodule,
    post_from_nybe,
    post_from_o,
    post_from_rb,
    post_from_trialgebra,
    post_on_image,
    post_residual,
    trialgebra_residual,
    transport,
)
from novikov.serialize import to_document
from novikov.solver import SearchSpec, enumerate_search, enumerated_dim2
from novikov.tensors import Tensor2


def tri_fixture(field=QQ):
    z, one = field.zero(), field.one()
    dot = (((z, one), (z, z)), ((z, z), (z, z)))
    deriv = Matrix.from_cols(field, [(one, z), (z, field.coerce(2))])
    return CommTrialgebra(field, 2, dot, dot, deriv)


def test_zero_postnov_valid():
    assert post_residual(PostNov.zero(QQ, 3)).is_zero


def test_rb_zero_operator_valid(a2):
    p = post_from_rb(a2, LinMap.zero(QQ, 2, 2), 1)
    assert post_residual(p).is_zero
    assert all(all(c == 0 for c in cell) for row in p.tri_l for cell in row)


def test_all_products_equal_fails(a2):
    p = PostNov(QQ, 2, a2.mul, a2.mul, a2.mul)
    rep = post_residual(p)
    assert not rep.is_zero
    assert any(f.identity == "nd1" for f in rep.failures)


def test_associated_recovers_base(a2):
    p = post_from_rb(a2, LinMap.identity(QQ, 2), -1)
    # circ = -∘, both triangles = ∘, so the sum gives back ∘
    assert grids_equal(QQ, associated(p).mul, a2.mul)
    assert post_residual(p).is_zero


def test_lr_bimodule_valid(a2):
    p = post_from_rb(a2, LinMap.identity(QQ, 2), -1)
    ctx = lr_bimodule(p)
    assert abnova_residual(ctx).is_zero
    assert grids_equal(QQ, ctx.alg.mul, associated(p).mul)


def test_trialgebra_fixture_and_construction():
    tri = tri_fixture()
    assert trialgebra_residual(tri).is_zero
    assert derivation_residual(tri).is_zero
    p = post_from_trialgebra(tri)
    assert post_residual(p).is_zero


def test_trialgebra_rejections():
    tri = tri_fixture()
    # d/dx-style derivation candidate on the same products is not a
    # derivation here (it maps x to 1, which is outside the ideal)
    bad_deriv = CommTrialgebra(QQ, 2, tri.dot, tri.circ, Matrix.from_cols(QQ, [(0, 0), (1, 0)]))
    assert not derivation_residual(bad_deriv).is_zero
    with pytest.raises(NotDerivation):
        post_from_trialgebra(bad_deriv)
    bad_products = CommTrialgebra(
        QQ, 1, (((QQ.coerce(1),),),), (((QQ.coerce(1),),),), Matrix.zeros(QQ, 1, 1)
    )
    assert not trialgebra_residual(bad_products).is_zero
    with pytest.raises(NotTrialgebra):
        post_from_trialgebra(bad_products)


def test_zero_derivation_gives_zero_triple():
    tri = tri_fixture()
    tri0 = CommTrialgebra(QQ, 2, tri.dot, tri.circ, Matrix.zeros(QQ, 2, 2))
    p = post_from_trialgebra(tri0)
    assert post_residual(p).is_zero
    assert all(all(c == 0 for c in cell) for row in p.sum_grid() for cell in row)


def test_post_from_o_and_hom(a2, a2_regular):
    ident = LinMap.identity(QQ, 2)
    p = post_from_o(a2_regular, ident, -1)
    assert post_residual(p).is_zero
    assert hom_residual(associated(p), a2, ident).is_zero
    with pytest.raises(NotOOperator):
        post_from_o(a2_regular, ident, 1)


def test_post_from_o_zero_weight(a2_regular):
    p = post_from_o(a2_regular, LinMap.zero(QQ, 2, 2), 0)
    assert post_residual(p).is_zero


def test_post_from_rb_requires_identity(a2):
    with pytest.raises(NotRotaBaxter):
        post_from_rb(a2, LinMap.identity(QQ, 2), 5)


def test_compatible_from_rb(a2):
    p = compatible_from_rb(a2, LinMap.identity(QQ, 2), -1)
    assert grids_equal(QQ, associated(p).mul, a2.mul)
    assert post_residual(p).is_zero


def test_compatible_from_rb_values(a2):
    # T = 2 id is Rota-Baxter of weight -2; pushed forward along T the
    # products become -x∘y, x∘y and x∘y, which sum to the original product
    two = LinMap(Matrix.identity(QQ, 2).scale(2))
    p = compatible_from_rb(a2, two, -2)
    assert p.circ == (((-1, 0), (0, -1)), ((0, -1), (0, 0)))
    assert p.tri_l == a2.mul and p.tri_r == a2.mul


def test_post_from_nybe_compatible_values():
    # e2∘e2 = e1 over F3; r = e1⊗e1 + e1⊗e2 + 2e2⊗e1 solves the equation
    # with invariant symmetric part and invertible hat = [[1, 2], [1, 0]].
    # hat^{-1}(e2) = e1* + e2* and l(e2) = -(L+R)(e2)^T = [[0, 0], [1, 0]], so
    # e2 ▷ e2 = hat(l(e2)(e1* + e2*)) = hat(e2*) = 2e1
    f3 = GF(3)
    alg = Algebra.from_table(f3, {(1, 1): (1, 0)}, 2)
    dual_post, compat = post_from_nybe(alg, Tensor2(f3, ((1, 1), (2, 0))))
    zero = (((0, 0), (0, 0)), ((0, 0), (0, 0)))
    assert dual_post.circ == zero
    assert dual_post.tri_l == dual_post.tri_r == (((0, 1), (0, 0)), ((0, 0), (0, 0)))
    assert compat.circ == zero
    assert compat.tri_l == compat.tri_r == (((0, 0), (0, 0)), ((0, 0), (2, 0)))
    assert associated(compat).mul == alg.mul


def test_post_on_image_invertible_matches_pushforward(a2, a2_regular):
    ident = LinMap.identity(QQ, 2)
    image = post_on_image(a2_regular, ident, -1)
    direct = post_from_o(a2_regular, ident, -1)
    assert image.pivot_cols == (0, 1)
    assert grids_equal(QQ, image.post.circ, direct.circ)
    assert grids_equal(QQ, image.post.tri_l, direct.tri_l)
    assert grids_equal(QQ, image.post.tri_r, direct.tri_r)


def test_post_on_image_zero_map(a2_regular):
    image = post_on_image(a2_regular, LinMap.zero(QQ, 2, 2), 0)
    assert image.post.dim == 0


def test_post_on_image_rank_one_over_f3():
    # solver oracle: weight -1 endomorphisms on the example algebra mod 3;
    # diag(1, 0) has rank 1 and its kernel span{e2} is an ideal
    field = GF(3)
    alg = example_algebra(field)
    spec = SearchSpec("rota-baxter", field, 2, algebra=alg, weight=-1)
    sols = enumerate_search(spec).solutions
    assert (1, 0, 0, 0) in sols
    alpha = LinMap(Matrix(field, 2, 2, (1, 0, 0, 0)))
    ctx = regular(alg)
    image = post_on_image(ctx, alpha, -1)
    assert image.post.dim == 1
    assert post_residual(image.post).is_zero
    # rank-1 with non-ideal kernel must be rejected: diag(0, 1) kernel span{e1}
    other = LinMap(Matrix(field, 2, 2, (0, 0, 0, 1)))
    assert (0, 0, 0, 1) in sols
    with pytest.raises(KernelNotIdeal, match="kernel is not closed under the module product"):
        post_on_image(ctx, other, -1)


def test_post_from_nybe_rejects_noninvariant(a2):
    with pytest.raises(SymPartNotInvariant):
        post_from_nybe(a2, Tensor2.basis(QQ, 2, 1, 1))


def test_post_from_nybe_zero_tensor(a2):
    dual_post, compat = post_from_nybe(a2, Tensor2.zeros(QQ, 2))
    assert post_residual(dual_post).is_zero
    assert compat is None  # zero hat is singular


def test_post_from_nybe_skew_solution_from_solver():
    # find a nonzero skew solution with (trivially invariant) zero symmetric
    # part among the enumerated dim-2 algebras over F_3
    field = GF(3)
    from novikov.solver import enumerated_dim2
    from novikov.ybe import nybe_residual

    found = None
    for alg in enumerated_dim2(field):
        for c in (1, 2):
            r = Tensor2(field, ((0, c), (-c, 0)))
            if nybe_residual(alg, r).is_zero():
                found = (alg, r)
                break
        if found:
            break
    assert found is not None
    alg, r = found
    dual_post, _compat = post_from_nybe(alg, r)
    assert post_residual(dual_post).is_zero


def _outcome(call, *args) -> tuple:
    """A call's result (None when it refuses) and its outcome as plain JSON
    data: the result's document, or the refusal as [type, message]."""
    try:
        out = call(*args)
    except NovikovError as exc:
        return None, [type(exc).__name__, str(exc)]
    if hasattr(out, "failures"):
        return out, [fail.to_json(args[0].field) for fail in out.failures]
    if hasattr(out, "pivot_cols"):
        return out, [to_document(out.post), list(out.pivot_cols)]
    return out, to_document(out)


def _shifted_image(ctx, alpha, on_module) -> tuple:
    """The three products of alpha's image structure, pushed from the
    structure ``on_module`` on the pivot preimages shifted by the first
    kernel basis vector."""
    f = ctx.field
    pivots = column_space_pivots(alpha.mat)
    ker = kernel_basis(alpha.mat) or [(f.zero(),) * ctx.mdim]
    img_mat = Matrix.from_cols(f, [alpha.mat.col(j) for j in pivots])
    pre = [vadd(f, ctx.module_basis(j), ker[0]) for j in pivots]
    return _pushed(on_module, pre, lambda v: solve_right(img_mat, alpha(v)))


def _sweep(field, step: int = 1) -> tuple:
    """Every ``step``-th dim-2 Novikov table over ``field``, on its regular
    and dual contexts, with every 2x2 map and every weight: the sha256 of
    the outcomes of ``post_from_o``, ``post_on_image``, ``transport`` (of
    the unvalidated structure, along the map) and ``balanced_residual``,
    with the number of image structures and of image refusals.

    On the way it asserts two claims the constructions do not check at run
    time: alpha is a homomorphism from the associated algebra of each
    structure ``post_from_o`` accepts, and each structure ``post_on_image``
    accepts comes out the same from kernel-shifted preimages."""
    digest = hashlib.sha256()
    made = refused = 0
    maps = [LinMap(Matrix(field, 2, 2, e)) for e in itertools.product(range(field.p), repeat=4)]
    for alg in enumerated_dim2(field)[::step]:
        for ctx in (regular(alg, validate=False), dual_context(alg)):
            for alpha in maps:
                outcomes = [_outcome(balanced_residual, ctx, alpha)[1]]
                for weight in range(field.p):
                    post, post_out = _outcome(post_from_o, ctx, alpha, weight)
                    if post is not None:
                        assert hom_residual(associated(post), ctx.alg, alpha).is_zero
                    image, image_out = _outcome(post_on_image, ctx, alpha, weight)
                    if image is None:
                        refused += 1
                    else:
                        made += 1
                        assert (image.post.circ, image.post.tri_l, image.post.tri_r) == _shifted_image(ctx, alpha, post)
                    unchecked = post if post is not None else post_from_o(ctx, alpha, weight, validate=False)
                    moved = _outcome(transport, unchecked, alpha.mat)[1]
                    outcomes += [post_out, image_out, moved]
                digest.update(json.dumps(outcomes, sort_keys=True).encode())
    return digest.hexdigest()[:16], made, refused


@pytest.mark.parametrize(
    "p, step, pinned",
    [(2, 1, ("5fd841f4682f2d33", 808, 2520)), (3, 20, ("1588f4960f901a16", 732, 3642))],
    ids=["F2-every-table", "F3-every-20th-table"],
)
def test_induced_structures_match_their_pinned_hash(p, step, pinned):
    """post_from_o, post_on_image, transport and balanced_residual, which all
    read the product a map induces on the module: the outcomes hash as they
    did before those functions shared ``induced_product``.  Over F_2 a sign
    is invisible, so a slice of the F_3 tables rides along."""
    assert _sweep(GF(p), step) == pinned
