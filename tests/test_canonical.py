"""Arithmetic results are canonical by construction, the native-operator
inner loops equal folds that reduce after every operation, the per-algebra
action and product-table caches equal freshly built ones, the one-pass induced
product and the summed contractions equal the code they replaced, and only
the arithmetic modules may skip coercion."""

import ast
import hashlib
import itertools
import pathlib
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from novikov import algebra, tensors
from novikov.algebra import Algebra, dual_context, grid_product, novikov_residual, regular, regular_bimodule, semidirect
from novikov.errors import BadContraction
from novikov.fields import GF, QQ, PolyRing
from novikov.lift import gnybe_residuals
from novikov.linalg import Matrix, combine_mats, vadd, vsub
from novikov.operators import LinMap, equation_grid, induced_product
from novikov.solver import enumerated_dim2, trunc_poly_algebra
from novikov.tensors import CONTRACTION_KINDS, Tensor2, Tensor3, flip, tensor3_combine, tensor3_sum
from novikov.ybe import BilForm, enybe_residual, invariance_residual, nybe_residual, o_nybe_residual

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "novikov"

FIELDS = (QQ, GF(2), GF(3), GF(5), GF(7))


def _raw(field):
    """Scalars as a caller might pass them: not reduced into [0, p) over F_p,
    ints or fractions over Q."""
    if field == QQ:
        return st.integers(-4, 4) | st.fractions(min_value=-3, max_value=3, max_denominator=4)
    return st.integers(-9, 9)


def _typed(entries) -> list:
    # Fraction(1) == 1, so compare types too: over Q a denominator-1 Fraction
    # is not canonical
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
    # a form adds and scales as its 2-tensor does, and stays a form
    p, q = BilForm(f, r.grid), BilForm(f, s.grid)
    for form, tensor in ((p + q, r + s), (p - q, r - s), (-p, -r), (p.scale(c), r.scale(c))):
        assert type(form) is BilForm and _typed(_flat(form)) == _typed(_flat(tensor))
        results.append(form)
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
        if not _is_zero(f, c):
            fold = fold + mats[i].scale(c)
    got = combine_mats(f, mats, coeffs, mdim)
    assert got == fold and _typed(got.entries) == _typed(fold.entries)


# ---------------------------------------------------------------------------
# the native-operator loops against folds that reduce after every operation


# Reference arithmetic that reduces after every operation, as the per-scalar
# field methods did; the code under test reduces once per output.
def _add(f, a, b):
    return f.reduce((a + b,))[0]


def _sub(f, a, b):
    return f.reduce((a - b,))[0]


def _mul(f, a, b):
    return f.reduce((a * b,))[0]


def _neg(f, a):
    return f.reduce((-a,))[0]


def _is_zero(f, a) -> bool:
    return not f.reduce((a,))[0]


def _fold_grid_product(f, grid, u, v) -> tuple:
    """Σ u_i v_j grid[i][j], reduced after every operation."""
    out = [f.zero()] * len(grid[0][0])
    for i, cu in enumerate(u):
        for j, cv in enumerate(v):
            c = _mul(f, f.coerce(cu), f.coerce(cv))
            for k, x in enumerate(grid[i][j]):
                out[k] = _add(f, out[k], _mul(f, c, f.coerce(x)))
    return tuple(out)


# where r = Σ x_a⊗y_b and s = Σ x'_c⊗y'_d put the product of two of their
# factors, written out from the leg notation: (product args, star?, output
# index with t for the product coordinate)
_LEGS = {
    "12o13": (lambda a, b, c, d: (a, c), False, lambda a, b, c, d, t: (t, b, d)),  # (x∘x')⊗y⊗y'
    "12o23": (lambda a, b, c, d: (b, c), False, lambda a, b, c, d, t: (a, t, d)),  # x⊗(y∘x')⊗y'
    "13o23": (lambda a, b, c, d: (b, d), False, lambda a, b, c, d, t: (a, c, t)),  # x⊗x'⊗(y∘y')
    "13o12": (lambda a, b, c, d: (a, c), False, lambda a, b, c, d, t: (t, d, b)),  # (x∘x')⊗y'⊗y
    "23o13": (lambda a, b, c, d: (b, d), False, lambda a, b, c, d, t: (c, a, t)),  # x'⊗x⊗(y∘y')
    "12s23": (lambda a, b, c, d: (b, c), True, lambda a, b, c, d, t: (a, t, d)),  # x⊗(y⋆x')⊗y'
    "13s23": (lambda a, b, c, d: (b, d), True, lambda a, b, c, d, t: (a, c, t)),  # x⊗x'⊗(y⋆y')
}


def _fold_combine(alg, r, s, kind) -> list:
    f, n, mul = alg.field, alg.dim, alg.mul
    args, star, where = _LEGS[kind]
    out = {}
    for a, b, c, d in itertools.product(range(n), repeat=4):
        coeff = _mul(f, r.grid[a][b], s.grid[c][d])
        x, y = args(a, b, c, d)
        prod = [_add(f, u, v) for u, v in zip(mul[x][y], mul[y][x])] if star else mul[x][y]
        for t in range(n):
            key = where(a, b, c, d, t)
            out[key] = _add(f, out.get(key, f.zero()), _mul(f, coeff, prod[t]))
    return [out.get((i, j, k), f.zero()) for i in range(n) for j in range(n) for k in range(n)]


def _fold_apply_slot(t, slot, mat) -> list:
    """The map on one slot, entry by entry: out[.., i, ..] = Σ_s mat[i, s]·t[.., s, ..]."""
    f, n = t.field, t.dim
    out = []
    for idx in itertools.product(range(n), repeat=2 if isinstance(t, Tensor2) else 3):
        acc = f.zero()
        for src in range(n):
            acc = _add(f, acc, _mul(f, mat[idx[slot], src], t[idx[:slot] + (src,) + idx[slot + 1 :]]))
        out.append(acc)
    return out


@st.composite
def _raw_operands(draw):
    """Coordinates not reduced into [0, p) over F_p (negative, or p and
    above), with zero vectors and zero tensors drawn often."""
    f = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(1, 3))
    scalars = st.integers(-12, 12) if f != QQ else _raw(f)

    def vec():
        return tuple(draw(st.lists(scalars, min_size=n, max_size=n))) if draw(st.booleans()) else (0,) * n

    grid = tuple(tuple(tuple(draw(scalars) for _ in range(n)) for _ in range(n)) for _ in range(n))
    mat = Matrix(f, n, n, tuple(draw(st.lists(scalars, min_size=n * n, max_size=n * n))))
    r = Tensor2(f, tuple(vec() for _ in range(n)))
    s = Tensor2(f, tuple(vec() for _ in range(n)))
    return f, n, grid, vec(), vec(), mat, r, s


@settings(max_examples=150, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(ops=_raw_operands())
def test_native_loops_match_field_method_folds(ops):
    f, n, grid, u, v, mat, r, s = ops
    t = Tensor3(f, grid)
    for tensor, slots in ((r, 2), (t, 3)):
        for slot in range(slots):
            assert _typed(_flat(tensor.apply_slot(slot, mat))) == _typed(_fold_apply_slot(tensor, slot, mat))
    assert _typed(grid_product(f, grid, u, v)) == _typed(_fold_grid_product(f, grid, u, v))
    fold = tuple(f.zero() for _ in range(n))
    for k, c in enumerate(u):
        fold = tuple(_add(f, o, _mul(f, mat[i, k], f.coerce(c))) for i, o in enumerate(fold))
    assert _typed(mat.apply(u)) == _typed(fold)
    alg = Algebra(f, n, grid)
    for kind in CONTRACTION_KINDS:
        got = tensor3_combine(alg, r, s, kind)
        assert _typed(_flat(got)) == _typed(_fold_combine(alg, r, s, kind))


def test_empty_sums_over_q_are_the_canonical_zero():
    zero2 = Tensor2.zeros(QQ, 2)
    a2 = Algebra(QQ, 2, (((1, 0), (0, 1)), ((0, 1), (0, 0))))
    results = [
        grid_product(QQ, a2.mul, (0, 0), (1, 1)),
        grid_product(QQ, a2.mul, (1, 0), (0, 0)),
        Matrix.identity(QQ, 2).apply((0, 0)),
        combine_mats(QQ, regular_bimodule(a2).l_mats, (0, 0), 2).entries,
        _flat(tensor3_combine(a2, zero2, Tensor2.basis(QQ, 2, 0, 1), "12s23")),
        _flat(zero2.apply_slot(1, Matrix.identity(QQ, 2))),
        (Matrix.zeros(QQ, 2, 0) @ Matrix.zeros(QQ, 0, 2)).entries,
    ]
    for values in results:
        assert values and all(type(c) is int and c == 0 for c in values)


def _fold_product(f, mul, u, v) -> tuple:
    """The bilinear product as it was computed before the native loops:
    a per-operation fold that skips zero scalars."""
    out = [f.zero()] * len(mul)
    for i, cu in enumerate(u):
        if _is_zero(f, cu):
            continue
        for j, cv in enumerate(v):
            if _is_zero(f, cv):
                continue
            c = _mul(f, cu, cv)
            for k, x in enumerate(mul[i][j]):
                if not _is_zero(f, x):
                    out[k] = _add(f, out[k], _mul(f, c, x))
    return tuple(out)


def _six_product_novikov_residual(alg):
    """The Novikov residual as it was written before the associator tables:
    six products per basis triple, each through the per-operation fold."""
    f, n, mul = alg.field, alg.dim, alg.mul
    failures = []
    basis = [alg.basis_vec(i) for i in range(n)]

    def record(identity, idx, value):
        if not all(_is_zero(f, c) for c in value):
            failures.append((identity, idx, value))

    for i in range(n):
        for j in range(n):
            ij, ji = mul[i][j], mul[j][i]
            for k in range(n):
                ek = basis[k]
                lhs = _fold_product(f, mul, ij, ek)
                lhs = tuple(_sub(f, x, y) for x, y in zip(lhs, _fold_product(f, mul, basis[i], mul[j][k])))
                lhs = tuple(_sub(f, x, y) for x, y in zip(lhs, _fold_product(f, mul, ji, ek)))
                lhs = tuple(_add(f, x, y) for x, y in zip(lhs, _fold_product(f, mul, basis[j], mul[i][k])))
                record("left-symmetry", (i, j, k), lhs)
                rc = tuple(
                    _sub(f, x, y) for x, y in zip(_fold_product(f, mul, ij, ek), _fold_product(f, mul, mul[i][k], basis[j]))
                )
                record("right-commutativity", (i, j, k), rc)
    return failures


def _novikov_pool(dim3_f2_tables) -> list:
    f2 = GF(2)
    every_f2_dim2 = [
        Algebra(f2, 2, tuple(tuple(tuple(bits[(i * 2 + j) * 2 : (i * 2 + j) * 2 + 2]) for j in range(2)) for i in range(2)))
        for bits in itertools.product(range(2), repeat=8)
    ]
    dim3 = [
        Algebra(f2, 3, tuple(tuple(tuple(t[(i * 3 + j) * 3 : (i * 3 + j) * 3 + 3]) for j in range(3)) for i in range(3)))
        for t in dim3_f2_tables
    ]
    rng = random.Random(5)
    seeded = []
    for f in (QQ, GF(2), GF(3), GF(5)):
        for n in (1, 2, 3, 4):
            for _ in range(6):
                seeded.append(Algebra(f, n, tuple(tuple(tuple(f.sample(rng) for _ in range(n)) for _ in range(n)) for _ in range(n))))
    semi = [
        semidirect(regular(alg))
        for alg in (*random.Random(6).sample(enumerated_dim2(GF(3)), 4), trunc_poly_algebra(QQ, 3))
    ]
    semi += [semidirect(dual_context(alg)) for alg in (trunc_poly_algebra(QQ, 3), *enumerated_dim2(GF(2))[:4])]
    # about one entry in three nonzero, and the whole row e_a∘e_* zero for
    # one a, at dimensions up to 5
    rng = random.Random(7)
    sparse = []
    for f in (QQ, GF(5)):
        for n in (2, 3, 4, 5):
            for a in (0, n - 1, n // 2):
                cells = [[f.sample(rng) if rng.randrange(3) == 0 else 0 for _ in range(n)] for _ in range(n * n)]
                cells[a * n : (a + 1) * n] = [[0] * n] * n
                sparse.append(Algebra(f, n, [cells[i * n : (i + 1) * n] for i in range(n)]))
    # dimension 0, and far past the dimensions any caller uses: the zero
    # table and the truncated polynomial algebra are Novikov, and one wrong
    # product is not
    f5 = GF(5)
    trunc = [list(row) for row in trunc_poly_algebra(f5, 12).mul]
    edge = [Algebra.zero(QQ, 0), Algebra.zero(f5, 12), Algebra(f5, 12, trunc)]
    trunc[3][4] = tuple(c + (t == 2) for t, c in enumerate(trunc[3][4]))  # x^3∘x^4 gains an x^2 term
    edge.append(Algebra(f5, 12, trunc))
    pool = every_f2_dim2 + [a for p in (3, 5) for a in enumerated_dim2(GF(p))] + dim3 + seeded + semi + sparse + edge
    return pool, seeded + sparse


def test_novikov_residual_matches_six_product_reference(novikov_dim3_f2):
    pool, seeded = _novikov_pool(novikov_dim3_f2[1])
    failing = 0
    for alg in pool:
        got = [(fail.identity, fail.indices, fail.value) for fail in novikov_residual(alg).failures]
        want = _six_product_novikov_residual(alg)
        assert got == want
        assert [_typed(value) for *_, value in got] == [_typed(value) for *_, value in want]
        failing += bool(want)
    # 256 - 52 of the dimension-2 tables over F_2 fail, and so do almost all
    # seeded tables of dimension 2-5 (dimension 1 is always Novikov)
    assert failing >= 204 + sum(alg.dim > 1 for alg in seeded) - 3


@pytest.mark.parametrize("p", (2, 3))
@pytest.mark.parametrize("n", (1, 2, 3))
def test_novikov_residual_matches_the_reference_on_the_generic_table(n, p):
    """On the table whose n^3 structure constants are unknowns, the residual
    equals the six-product reference polynomial for polynomial.  Evaluation
    at a point is a ring homomorphism onto F_p, so this covers every table of
    dimension n over F_p.  The reference evaluates every triple and reports
    none of the skipped diagonal ones; every other triple fails."""
    ring = PolyRing(p)
    x = ring.variables(n**3)  # x[(i * n + j) * n + k] is the e_k coordinate of e_i∘e_j
    alg = Algebra(ring, n, [[x[b : b + n] for b in range(a, a + n * n, n)] for a in range(0, n**3, n * n)])
    got = [(fail.identity, fail.indices, fail.value) for fail in novikov_residual(alg).failures]
    want = _six_product_novikov_residual(alg)
    assert got == want
    assert [_typed(value) for *_, value in got] == [_typed(value) for *_, value in want]
    diagonal = {("left-symmetry", (i, i, k)) for i in range(n) for k in range(n)}
    diagonal |= {("right-commutativity", (i, j, j)) for i in range(n) for j in range(n)}
    assert not {(identity, indices) for identity, indices, _ in want} & diagonal
    assert len(want) == 2 * n * n * (n - 1)


def test_the_residual_keeps_a_plan_per_dimension_up_to_8():
    """A dimension's first call keeps its plan; above dimension 8 none is
    kept.  Each plan picks 12n^4 - 8n^3 indices."""
    algebra._kept_plan.cache_clear()
    for n, kept in ((3, 1), (3, 1), (9, 1), (8, 2)):
        assert novikov_residual(Algebra.zero(GF(5), n)).is_zero
        assert algebra._kept_plan.cache_info().currsize == kept
    for n in (2, 3, 8, 9):
        (left, right), picks, _ = algebra._novikov_plan(n)
        indices = sum(len(getter.__reduce__()[1]) for getter in (left, right, *picks))  # an itemgetter's items
        assert indices == 12 * n**4 - 8 * n**3


def test_novikov_tables_share_one_empty_report():
    holds = novikov_residual(Algebra.zero(GF(5), 2))
    for alg in (trunc_poly_algebra(QQ, 3), Algebra.zero(QQ, 1), Algebra.zero(GF(2), 0), *enumerated_dim2(GF(3))[:5]):
        assert novikov_residual(alg) is holds
    bad = Algebra.from_table(QQ, {(0, 0): (0, 1), (0, 1): (1, 0)}, 2)
    got = [(fail.identity, fail.indices, fail.value) for fail in novikov_residual(bad).failures]
    assert got == _six_product_novikov_residual(bad) and got
    assert holds.failures == ()


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
        Matrix.from_rows(f, [[_neg(f, _add(f, lm[k, j], rm[k, j])) for k in range(n)] for j in range(n)])
        for lm, rm in zip(left, right)
    ]
    dual_r = [Matrix.from_rows(f, [[rm[k, j] for k in range(n)] for j in range(n)]) for rm in right]
    return left, right, dual_l, dual_r


def test_cached_contexts_match_fresh_ones():
    for alg in _pool():
        twin = Algebra(alg.field, alg.dim, alg.mul)
        assert twin == alg and twin is not alg
        left, right, dual_l, dual_r = _fresh_actions(twin)
        reg, ctx = regular_bimodule(alg), dual_context(alg)
        assert regular_bimodule(twin) is not reg and dual_context(twin) is not ctx
        assert regular_bimodule(alg) is reg and dual_context(alg) is ctx
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
    fields = [alg.field for alg in _pool() for _ in range(9)]
    assert len(stream) == len(fields)
    assert sum(1 for fails in stream if fails) > len(stream) // 2
    # sha256 of repr(stream) from the code before the cache, which built the
    # dual context and L(e_x), R(e_x) through grid_product on every call; that
    # code kept every Q scalar a Fraction, so the Q coordinates are mapped back
    as_fractions = [
        tuple(replace(fail, value=tuple(map(Fraction, fail.value))) for fail in fails) if f == QQ else fails
        for f, fails in zip(fields, stream)
    ]
    digest = hashlib.sha256(repr(as_fractions).encode()).hexdigest()
    assert digest == "0767c3de54df3a9f213778966a7af5c5c6eadc1de8e825aee04b4aaa9fa7c5ed"


# ---------------------------------------------------------------------------
# the one-pass induced product and the summed contractions against the code
# they replaced


def _ref_induced_product(ctx, left, right, weight):
    """``induced_product`` before the one-pass cells: the action matrices
    combined once per module basis vector, each cell added with ``vadd``."""
    f = ctx.field
    weight = f.coerce(weight)
    m = ctx.mdim
    l_imgs = [ctx.l_of(left.mat.col(u)) for u in range(m)]
    r_imgs = [ctx.r_of(right.mat.col(v)) for v in range(m)]
    return tuple(
        tuple(
            vadd(f, vadd(f, l_imgs[u].col(v), r_imgs[v].col(u)), tuple(_mul(f, weight, c) for c in ctx.mul[u][v]))
            for v in range(m)
        )
        for u in range(m)
    )


def _ref_equation_grid(ctx, alpha, product):
    """``equation_grid`` before the one-pass cells: a product, a map
    application and a subtraction, each reduced on its own."""
    f, m = ctx.field, ctx.mdim
    imgs = [alpha.mat.col(u) for u in range(m)]
    return tuple(
        tuple(vsub(f, ctx.alg.product(imgs[u], imgs[v]), alpha(product[u][v])) for v in range(m)) for u in range(m)
    )


def _ref_combine(alg, r, s, kind):
    """``tensor3_combine`` before the product tables: the basis products
    listed once per call through ``mul[i][j]`` / ``basis_star``."""
    (p1, p2), star, prod_slot, (o1, o2) = tensors._CONTRACTIONS[kind]
    p1, p2, o1, o2 = ("abcd".index(x) for x in (p1, p2, o1, o2))
    n, f = alg.dim, alg.field
    stride = (n * n, n, 1)
    st, s1, s2 = stride[prod_slot], *(stride[q] for q in range(3) if q != prod_slot)
    basis = alg.basis_star if star else lambda i, j: alg.mul[i][j]
    prods = {}
    rs = [(a, b, x) for a, row in enumerate(r.grid) for b, x in enumerate(row) if x]
    ss = [(c, d, x) for c, row in enumerate(s.grid) for d, x in enumerate(row) if x]
    out = [f.zero()] * (n * n * n)
    for a, b, cr in rs:
        for c, d, cs in ss:
            src = (a, b, c, d)
            pair = (src[p1], src[p2])
            prod = prods.get(pair)
            if prod is None:
                prod = prods[pair] = [(t * st, x) for t, x in enumerate(basis(*pair)) if x]
            coeff = cr * cs
            base = src[o1] * s1 + src[o2] * s2
            for off, x in prod:
                out[base + off] += coeff * x
    return Tensor3._from_flat(f, n, out)


def _ref_nybe(alg, r):
    return _ref_combine(alg, r, r, "13o23") + _ref_combine(alg, r, r, "12s23") + _ref_combine(alg, r, r, "13o12")


def _ref_enybe(alg, r, epsilon):
    epsilon = alg.field.coerce(epsilon)
    if _is_zero(alg.field, epsilon):
        return _ref_nybe(alg, r)
    s = r + flip(r)
    return _ref_nybe(alg, r) - _ref_combine(alg, s, s, "13o23").scale(epsilon)


def _ref_gnybe(alg, r):
    """``lift.gnybe_residuals`` written with one ``_ref_combine`` per
    contraction, as before ``tensor3_sum``."""
    n = alg.dim
    tau_r = flip(r)
    sum_r = r + tau_r
    base_a = _ref_combine(alg, tau_r, r, "12o13") + _ref_combine(alg, r, r, "12o23") + _ref_combine(alg, r, r, "13s23")
    inner = _ref_combine(alg, r, r, "13o12") + _ref_combine(alg, r, r, "12s23")
    base_b = _ref_combine(alg, r, r, "23o13") - _ref_combine(alg, r, r, "13o23")
    base_b = base_b - (inner - inner.swap_slots(0, 1))
    bracket7 = _ref_combine(alg, r, tau_r, "13o23") - _ref_combine(alg, r, r, "12s23")
    bracket7 = bracket7 - _ref_combine(alg, r, r, "13o12")
    first, second = [], []
    for s in range(n):
        es = alg.basis_vec(s)
        left = alg.left_mul(es)
        lstar = alg.star_mul(es)
        t = base_a.apply_slot(0, left) - base_a.apply_slot(1, left)
        t = t + _ref_combine(alg, sum_r.apply_slot(1, left), r, "12o23")
        t = t - _ref_combine(alg, r.apply_slot(0, left), sum_r, "13o12")
        first.append(t + base_b.apply_slot(2, lstar))
        u = bracket7.apply_slot(2, lstar)
        second.append(u - u.swap_slots(1, 2))
    return first, second


def _random_algebra(f, n, rng) -> Algebra:
    return Algebra(f, n, tuple(tuple(tuple(f.sample(rng) for _ in range(n)) for _ in range(n)) for _ in range(n)))


def _seeded_q_algebras() -> list:
    rng = random.Random(17)
    return [_random_algebra(QQ, n, rng) for n in (1, 2, 3) for _ in range(4)] + [trunc_poly_algebra(QQ, 3)]


def _context_pool() -> list:
    """The 52 dimension-2 tables over F_2, the 177 over F_3 and seeded Q
    algebras of dimension 1-3, each as its regular context, its dual context
    and the regular context of its semidirect product with itself."""
    algs = [*enumerated_dim2(GF(2)), *enumerated_dim2(GF(3)), *_seeded_q_algebras()]
    assert len(algs) == 52 + 177 + 13
    return [
        ctx
        for alg in algs
        for ctx in (
            regular(alg, validate=False),
            dual_context(alg),
            regular(semidirect(regular(alg, validate=False)), validate=False),
        )
    ]


def _typed_grid(grid) -> list:
    return [_typed(cell) for row in grid for cell in row]


def test_one_pass_induced_product_and_equation_grid_match_the_reference():
    weights_met = set()
    for idx, ctx in enumerate(_context_pool()):
        f, n, m = ctx.field, ctx.alg.dim, ctx.mdim
        rng = random.Random(idx)

        def linmap():
            return LinMap(Matrix(f, n, m, tuple(f.sample(rng) for _ in range(n * m))))

        left, right = linmap(), linmap()
        nonzero = f.sample(rng) or 1
        for weight in (0, nonzero):
            weights_met.add(bool(weight))
            for lhs, rhs in ((left, right), (left, left), (left, LinMap.zero(f, n, m))):
                got = induced_product(ctx, lhs, rhs, weight)
                want = _ref_induced_product(ctx, lhs, rhs, weight)
                assert _typed_grid(got) == _typed_grid(want)
                assert _typed_grid(equation_grid(ctx, lhs, got)) == _typed_grid(_ref_equation_grid(ctx, lhs, want))
    assert weights_met == {False, True}


def _tensor_pool() -> list:
    """(algebra, r, s) over the 52 F_2 and 177 F_3 dimension-2 tables and the
    seeded Q algebras, with seeded r and s, one of them often zero."""
    algs = [*enumerated_dim2(GF(2)), *enumerated_dim2(GF(3)), *_seeded_q_algebras()]
    rng = random.Random(23)
    out = []
    for alg in algs:
        f, n = alg.field, alg.dim

        def tensor():
            return Tensor2(f, tuple(tuple(f.sample(rng) for _ in range(n)) for _ in range(n)))

        out.append((alg, tensor(), tensor()))
        out.append((alg, tensor(), Tensor2.zeros(f, n) if rng.random() < 0.3 else tensor()))
    return out


def test_summed_contractions_match_the_per_call_reference():
    pool = _tensor_pool()
    for alg, r, s in pool:
        f = alg.field
        for kind in CONTRACTION_KINDS:
            assert _typed(_flat(tensor3_combine(alg, r, s, kind))) == _typed(_flat(_ref_combine(alg, r, s, kind)))
        # a coefficient 0 term adds nothing; the others are scaled
        c = f.coerce(2) if f.char != 2 else f.one()
        terms = [(c, r, s, "12o23"), (0, s, r, "13s23"), (-1, s, s, "23o13"), (1, r, r, "12s23")]
        want = _ref_combine(alg, r, s, "12o23").scale(c) - _ref_combine(alg, s, s, "23o13")
        want = want + _ref_combine(alg, r, r, "12s23")
        assert _typed(_flat(tensor3_sum(alg, terms))) == _typed(_flat(want))
        zero = _flat(tensor3_sum(alg, [(0, r, s, kind) for kind in CONTRACTION_KINDS]))
        assert _typed(zero) == _typed([f.zero()] * alg.dim**3)
        assert _typed(_flat(nybe_residual(alg, r))) == _typed(_flat(_ref_nybe(alg, r)))
        for epsilon in (0, 1, c):
            assert _typed(_flat(enybe_residual(alg, r, epsilon))) == _typed(_flat(_ref_enybe(alg, r, epsilon)))
    for alg, r, s in pool[::5]:
        got, want = gnybe_residuals(alg, r), _ref_gnybe(alg, r)
        assert [[_typed(_flat(t)) for t in family] for family in got] == [
            [_typed(_flat(t)) for t in family] for family in want
        ]


def test_empty_and_zero_tensor_sums():
    a3 = trunc_poly_algebra(QQ, 3)
    r = Tensor2(QQ, ((1, 2, 0), (0, 1, 3), (5, 0, 1)))
    for total in (tensor3_sum(a3, []), tensor3_sum(a3, [(0, r, r, "13o23")])):
        assert total.dim == 3 and all(type(c) is int and c == 0 for c in _flat(total))
    # every term is checked, also one whose coefficient is 0
    with pytest.raises(BadContraction):
        tensor3_sum(a3, [(1, r, r, "13o23"), (0, r, r, "11o22")])


@settings(max_examples=150, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(ops=_raw_operands())
def test_bilform_matches_field_method_folds(ops):
    f, n, grid, u, v, mat, r, s = ops
    form = BilForm(f, mat.row_list())
    fold = f.zero()
    for i, cu in enumerate(u):
        for j, cv in enumerate(v):
            fold = _add(f, fold, _mul(f, _mul(f, f.coerce(cu), f.coerce(cv)), form.grid[i][j]))
    assert _typed([form.value(u, v)]) == _typed([fold])
    want = all(_is_zero(f, _sub(f, form.grid[i][j], form.grid[j][i])) for i in range(n) for j in range(n))
    assert form.is_symmetric() == want
    sym = BilForm(f, [[_add(f, form.grid[i][j], form.grid[j][i]) for j in range(n)] for i in range(n)])
    assert sym.is_symmetric()


# ---------------------------------------------------------------------------
# the product tables cached on each algebra


def test_product_tables_live_on_their_own_algebra():
    """Each algebra keeps its own table, which equality, hashing and repr
    ignore: equal algebras contract alike, and every algebra of one field
    and dimension contracts with its own products."""
    pool = [*enumerated_dim2(GF(3)), *_seeded_q_algebras()]
    rng = random.Random(29)
    for alg in pool:
        f, n = alg.field, alg.dim
        twin = Algebra(f, n, alg.mul)
        r = Tensor2(f, tuple(tuple(f.sample(rng) for _ in range(n)) for _ in range(n)))
        s = Tensor2(f, tuple(tuple(f.sample(rng) for _ in range(n)) for _ in range(n)))
        got = [tensor3_combine(alg, r, s, kind) for kind in CONTRACTION_KINDS]
        assert "sparse_products" in vars(alg) and "sparse_products" not in vars(twin)
        assert twin == alg and hash(twin) == hash(alg) and repr(twin) == repr(alg)
        assert [tensor3_combine(twin, r, s, kind) for kind in CONTRACTION_KINDS] == got
        assert twin.sparse_products is not alg.sparse_products
        assert twin.sparse_products == alg.sparse_products
        assert got == [_ref_combine(alg, r, s, kind) for kind in CONTRACTION_KINDS]
        circ, star = alg.sparse_products
        for i in range(n):
            for j in range(n):
                assert circ[i][j] == tuple((t, x) for t, x in enumerate(alg.mul[i][j]) if x)
                assert star[i][j] == tuple((t, x) for t, x in enumerate(alg.basis_star(i, j)) if x)


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


def _imported_names(module: str) -> set:
    tree = ast.parse((SRC / module).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").lstrip("."))
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert imported  # the walk sees the module's imports
    return imported


def _imports_any(module: str, banned: set) -> set:
    return {name for name in _imported_names(module) if set(name.split(".")) & banned}


def test_tensor_contractions_stay_independent_of_the_operator_route():
    """``tensor3_combine`` is the oracle P-TENSOR-OP compares
    ``operators.induced_product`` against, so ``tensors`` imports nothing
    from ``operators``, ``lift`` or ``ybe``."""
    assert not _imports_any("tensors.py", {"operators", "lift", "ybe"})


def test_operator_route_stays_independent_of_the_tensor_contractions():
    """The other side of the same guard: ``operators`` and ``algebra``, the
    route P-TENSOR-OP checks, import nothing from ``tensors``, so they never
    read the contraction code."""
    for module in ("operators.py", "algebra.py"):
        assert not _imports_any(module, {"tensors"})


def test_tensor_types_share_one_dense_implementation():
    """Storage, validation and arithmetic are written once, on the base."""
    shared = ("__post_init__", "_canonical", "_from_flat", "zeros", "dim", "flat", "is_zero", "__add__", "__sub__")
    shared += ("__neg__", "scale", "apply_slot", "check_on", "_compat")
    for name in shared:
        assert name in vars(tensors.Dense)
        for cls in (Tensor2, Tensor3, BilForm):
            assert name not in vars(cls), (cls.__name__, name)
    assert (Tensor2.order, Tensor3.order, BilForm.order) == (2, 3, 2)


def test_only_arithmetic_modules_skip_coercion():
    """``Matrix._canonical`` and ``tensors.Dense._canonical`` trust their
    entries, so only the arithmetic that produces canonical entries (linalg,
    tensors) may call them; serialize, cli, properties and every other
    module construct through the coercing public path."""
    for cls in (Matrix, tensors.Dense):
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


def _per_scalar_calls(tree) -> list:
    """Lines calling an attribute ``sub``, ``neg``, ``mul`` or ``is_zero``
    with arguments: the per-scalar field arithmetic (``add`` is left out
    because sets have one; ``Matrix.is_zero()`` takes no arguments)."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in {"sub", "neg", "mul", "is_zero"}
        and (node.args or node.keywords)
    ]


def test_no_module_calls_per_scalar_field_arithmetic():
    """The object path has one scalar contract, ``+ - *``, truthiness of a
    reduced scalar and one ``reduce`` per output, so no module under
    ``src/novikov`` calls per-scalar field methods."""
    assert _per_scalar_calls(ast.parse("f.sub(a, b)\nf.neg(a)\nf.mul(a, b)\nf.is_zero(a)\nm.is_zero()")) == [1, 2, 3, 4]
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) > 10
    offenders = [
        f"{p.relative_to(SRC).as_posix()}:{line}"
        for p in modules
        for line in _per_scalar_calls(ast.parse(p.read_text(), str(p)))
    ]
    assert offenders == []
