"""Arithmetic results are canonical by construction, the per-algebra action
caches equal freshly built contexts, and only the arithmetic modules may
skip coercion."""

import ast
import hashlib
import itertools
import pathlib
import random

from hypothesis import HealthCheck, given, settings, strategies as st

from novikov.algebra import Algebra, _combine_mats, dual_context, grid_product, regular_bimodule
from novikov.fields import GF, QQ
from novikov.linalg import Matrix
from novikov.solver import enumerated_dim2, trunc_poly_algebra
from novikov.tensors import CONTRACTION_KINDS, Tensor2, Tensor3, flip, tensor3_combine
from novikov.ybe import invariance_residual, o_nybe_residual

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "novikov"

FIELDS = (QQ, GF(2), GF(3), GF(5), GF(7))


def _raw(field):
    """Scalars as a caller might pass them: not reduced into [0, p) over F_p,
    ints or fractions over Q."""
    if field == QQ:
        return st.integers(-4, 4) | st.fractions(min_value=-3, max_value=3, max_denominator=4)
    return st.integers(-9, 9)


def _typed(entries) -> list:
    # Fraction(1) == 1, so compare types too: over Q an int entry is not canonical
    return [(type(c), c) for c in entries]


def _flat(obj) -> list:
    if isinstance(obj, Matrix):
        return list(obj.entries)
    if isinstance(obj, Tensor2):
        return [c for row in obj.grid for c in row]
    return [c for plane in obj.grid for row in plane for c in row]


def _recoerced(obj):
    """The same entries pushed through the public, coercing constructor."""
    if isinstance(obj, Matrix):
        return Matrix(obj.field, obj.rows, obj.cols, obj.entries)
    return type(obj)(obj.field, obj.grid)


def _assert_canonical(obj):
    again = _recoerced(obj)
    assert obj == again
    assert _typed(_flat(obj)) == _typed(_flat(again))
    if not isinstance(obj, Matrix):
        assert obj.grid == again.grid  # nested tuples, not lists


@st.composite
def _operands(draw):
    f = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 3))
    scalars = _raw(f)

    def mat(rows, cols):
        return Matrix(f, rows, cols, tuple(draw(st.lists(scalars, min_size=rows * cols, max_size=rows * cols))))

    def grid(depth):
        if depth == 0:
            return draw(scalars)
        return tuple(grid(depth - 1) for _ in range(n))

    alg = Algebra(f, n, tuple(tuple(tuple(grid(0) for _ in range(n)) for _ in range(n)) for _ in range(n)))
    return {
        "field": f,
        "scalar": draw(scalars),
        "A": mat(n, n),
        "B": mat(n, n),
        "C": mat(n, m),
        "R": Tensor2(f, grid(2)),
        "S": Tensor2(f, grid(2)),
        "T": Tensor3(f, grid(3)),
        "U": Tensor3(f, grid(3)),
        "alg": alg,
        "coeffs": tuple(draw(scalars) for _ in range(n)),
        "mats": tuple(mat(m, m) for _ in range(n)),
    }


@settings(max_examples=150, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(ops=_operands())
def test_arithmetic_results_are_canonical(ops):
    f, c = ops["field"], ops["scalar"]
    a, b, cm = ops["A"], ops["B"], ops["C"]
    r, s, t, u = ops["R"], ops["S"], ops["T"], ops["U"]
    results = [a + b, a - b, -a, a.scale(c), a @ cm, cm.transpose()]
    results += [r + s, r - s, -r, r.scale(c), flip(r), r.apply_slot(0, a), r.apply_slot(1, a)]
    results += [t + u, t - u, -t, t.scale(c), *(t.apply_slot(slot, a) for slot in range(3))]
    results += [t.swap_slots(x, y) for x, y in itertools.combinations(range(3), 2)]
    results += [tensor3_combine(ops["alg"], r, s, kind) for kind in CONTRACTION_KINDS]
    for res in results:
        _assert_canonical(res)
    # apply skips zero coordinates; the sum it leaves out is zero
    v = cm.col(0)
    expected = tuple(
        f.coerce(sum((a[i, k] * v[k] for k in range(a.cols)), f.zero())) for i in range(a.rows)
    )
    assert _typed(a.apply(v)) == _typed(expected)


@settings(max_examples=150, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(ops=_operands())
def test_combine_mats_matches_scale_and_add_fold(ops):
    f, mats, coeffs = ops["field"], ops["mats"], ops["coeffs"]
    mdim = mats[0].rows
    fold = Matrix.zeros(f, mdim, mdim)
    for i, c in enumerate(coeffs):
        if not f.is_zero(c):
            fold = fold + mats[i].scale(c)
    got = _combine_mats(f, mats, coeffs, mdim)
    assert got == fold and _typed(got.entries) == _typed(fold.entries)


# ---------------------------------------------------------------------------
# the action matrices cached on each algebra


def _pool() -> list:
    return [
        *enumerated_dim2(GF(2)),
        *random.Random(11).sample(enumerated_dim2(GF(3)), 4),
        trunc_poly_algebra(QQ, 3),
    ]


def _fresh_actions(alg):
    """L(e_i), R(e_i) and the dual actions -(L+R)^T, R^T, built entry by entry
    from the product grid as before the cache existed."""
    f, n = alg.field, alg.dim
    e = [alg.basis_vec(i) for i in range(n)]
    left = [Matrix.from_cols(f, [grid_product(f, alg.mul, e[i], e[j]) for j in range(n)]) for i in range(n)]
    right = [Matrix.from_cols(f, [grid_product(f, alg.mul, e[j], e[i]) for j in range(n)]) for i in range(n)]
    dual_l = [
        Matrix.from_rows(f, [[f.neg(f.add(lm[k, j], rm[k, j])) for k in range(n)] for j in range(n)])
        for lm, rm in zip(left, right)
    ]
    dual_r = [Matrix.from_rows(f, [[rm[k, j] for k in range(n)] for j in range(n)]) for rm in right]
    return left, right, dual_l, dual_r


def test_cached_contexts_match_fresh_ones():
    for alg in _pool():
        twin = Algebra(alg.field, alg.dim, alg.mul)
        assert twin == alg and twin is not alg
        left, right, dual_l, dual_r = _fresh_actions(twin)
        reg, ctx = regular_bimodule(alg), dual_context(alg, validate=False)
        assert regular_bimodule(twin) is not reg and dual_context(twin, validate=False) is not ctx
        assert regular_bimodule(alg) is reg and dual_context(alg, validate=False) is ctx
        assert reg.alg is alg and reg.mdim == alg.dim
        assert list(reg.l_mats) == left and list(reg.r_mats) == right
        assert ctx.alg is alg and ctx.mdim == alg.dim
        assert list(ctx.l_mats) == dual_l and list(ctx.r_mats) == dual_r
        assert ctx.mul == tuple(tuple((alg.field.zero(),) * alg.dim for _ in range(alg.dim)) for _ in range(alg.dim))
        for mat in (*reg.l_mats, *reg.r_mats, *ctx.l_mats, *ctx.r_mats):
            _assert_canonical(mat)


def _residual_stream() -> list:
    """o_nybe_residual and invariance_residual failure lists on seeded random
    and symmetrized tensors over the pool."""
    out = []
    for idx, alg in enumerate(_pool()):
        f, n = alg.field, alg.dim
        rng = random.Random(idx)
        for _ in range(3):
            r = Tensor2(f, tuple(tuple(f.sample(rng) for _ in range(n)) for _ in range(n)))
            sym = r + flip(r)
            out.append(o_nybe_residual(alg, r).failures)
            out.append(invariance_residual(alg, r).failures)
            out.append(invariance_residual(alg, sym).failures)
    return out


def test_residual_failures_match_the_uncached_code():
    stream = _residual_stream()
    assert len(stream) == 9 * len(_pool())
    assert sum(1 for fails in stream if fails) > len(stream) // 2
    # sha256 of repr(stream) from the code before the cache, which built the
    # dual context and L(e_x), R(e_x) through grid_product on every call
    digest = hashlib.sha256(repr(stream).encode()).hexdigest()
    assert digest == "0767c3de54df3a9f213778966a7af5c5c6eadc1de8e825aee04b4aaa9fa7c5ed"


# ---------------------------------------------------------------------------
# the coercing path


def _private_constructor_uses(tree) -> list:
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "_canonical":
            lines.append(node.lineno)
        elif isinstance(node, ast.Constant) and node.value == "_canonical":  # getattr(cls, "_canonical")
            lines.append(node.lineno)
    return lines


def test_only_arithmetic_modules_skip_coercion():
    """``Matrix._canonical``, ``Tensor2._canonical`` and ``Tensor3._canonical``
    trust their entries, so only the arithmetic that produces canonical
    entries (linalg, tensors) may call them; serialize, cli, properties and
    every other module construct through the coercing public path."""
    for cls in (Matrix, Tensor2, Tensor3):
        assert "_canonical" in vars(cls)
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) > 10
    defining = {"linalg.py", "tensors.py"}
    offenders = [
        f"{p.relative_to(SRC).as_posix()}:{line}"
        for p in modules
        if p.relative_to(SRC).as_posix() not in defining
        for line in _private_constructor_uses(ast.parse(p.read_text(), str(p)))
    ]
    assert offenders == []
    for name in defining:
        assert _private_constructor_uses(ast.parse((SRC / name).read_text()))
