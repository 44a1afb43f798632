import ast
import pathlib
import random
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from novikov.errors import FieldMismatch, NoHalf, NovikovError
from novikov.fields import GF, QQ, Poly, PolyRing, field_by_name, field_from_json, parse_scalar
from novikov.linalg import Matrix


def test_rational_coercion_lowest_terms():
    x = QQ.coerce("6/4")
    assert x == Fraction(3, 2)
    assert x.denominator == 2 and x.denominator > 0
    assert QQ.coerce(-3) == Fraction(-3)
    with pytest.raises(NovikovError, match="cannot coerce 0.5 into Q"):
        QQ.coerce(0.5)
    with pytest.raises(ZeroDivisionError, match="inverse of 0"):
        QQ.inv(0)


def _canonical_q(c) -> bool:
    """Over Q an integral scalar is a plain int, any other a Fraction with
    denominator > 1 (``Fraction`` keeps lowest terms itself)."""
    return type(c) is int or (type(c) is Fraction and c.denominator > 1)


_Q_RAW = st.integers(-30, 30) | st.booleans() | st.fractions(max_denominator=12).filter(lambda q: abs(q) < 40)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_Q_RAW, _Q_RAW, st.integers(0, 2**16))
def test_q_scalars_are_ints_exactly_when_integral(a, b, seed):
    x, y = QQ.coerce(a), QQ.coerce(b)
    drawn = QQ.sample(random.Random(seed))
    outputs = [x, y, QQ.coerce(str(x)), drawn, QQ.half(), QQ.zero(), QQ.one()]
    outputs += QQ.reduce((x + y, x - y, x * y, -x, x * x, y - y))
    if x:
        outputs.append(QQ.inv(x))
        assert QQ.inv(x) == 1 / Fraction(x)
    assert x == a and y == b and QQ.reduce((x + y, x - y, x * y)) == (a + b, a - b, a * b)
    assert all(_canonical_q(c) for c in outputs), outputs
    for c in outputs:
        back = QQ.scalar_from_json(QQ.scalar_to_json(c))
        assert type(back) is type(c) and back == c


def test_no_true_division_in_the_package():
    """With integral Q scalars plain ints, ``a / b`` would silently give a
    float; ``Rationals.inv`` divides through ``Fraction`` and is the only
    division, so the package has no ``/`` or ``/=`` at all."""
    found = []
    for path in sorted(pathlib.Path(__file__).resolve().parent.parent.joinpath("src", "novikov").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
                found.append(f"{path.name}:{node.lineno}")
    assert not found


def test_prime_field_canonical_range():
    f5 = GF(5)
    assert f5.coerce(-1) == 4
    assert f5.coerce(12) == 2
    assert f5.inv(2) == 3
    assert f5.coerce(Fraction(1, 2)) == 3
    with pytest.raises(NovikovError, match="cannot coerce None into F_5"):
        f5.coerce(None)
    with pytest.raises(ZeroDivisionError, match="inverse of 0"):
        f5.inv(10)


@pytest.mark.parametrize("text, value", [("7", 7), (" -3/4 ", Fraction(-3, 4)), ("+6/4", Fraction(3, 2)), ("0/5", 0)])
def test_scalar_grammar_accepts_integers_and_fractions(text, value):
    assert parse_scalar(text) == value
    assert QQ.coerce(text) == value
    assert GF(5).coerce(text) == GF(5).coerce(Fraction(value))


@pytest.mark.parametrize(
    "text", ["1e30", "1E3000000", "1_0", "0.5", ".5", "1/", "/2", "1 / 2", "1/-2", "", "inf", "nan", "٣"]
)
def test_scalar_grammar_rejects_everything_else(text):
    for field in (QQ, GF(3)):
        with pytest.raises(NovikovError):
            field.coerce(text)
        with pytest.raises(NovikovError):
            field.scalar_from_json(text)


def test_json_booleans_are_not_scalars():
    for field in (QQ, GF(3)):
        for value in (True, False):
            with pytest.raises(NovikovError):
                field.scalar_from_json(value)
    assert QQ.scalar_from_json(1) == 1 and GF(3).scalar_from_json(-1) == 2


def test_prime_validation():
    with pytest.raises(NovikovError):
        GF(4)
    with pytest.raises(NovikovError):
        GF(2**31 + 11)


def test_half():
    assert QQ.half() == Fraction(1, 2)
    assert GF(5).half() == 3
    with pytest.raises(NoHalf):
        GF(2).half()


def test_field_mismatch():
    assert QQ != GF(3)
    with pytest.raises(FieldMismatch):
        Matrix.zeros(QQ, 1, 1) + Matrix.zeros(GF(3), 1, 1)
    assert GF(7) == GF(7)


def test_field_names_and_json():
    assert field_by_name("Q") == QQ
    assert field_by_name("F5") == GF(5)
    assert field_from_json({"kind": "prime", "p": 3}) == GF(3)
    assert field_from_json(QQ.to_json()) == QQ
    with pytest.raises(NovikovError):
        field_by_name("Z")


@given(st.integers(-40, 40), st.integers(-40, 40))
def test_f7_matches_integer_arithmetic(a, b):
    f = GF(7)
    x, y = f.coerce(a), f.coerce(b)
    assert f.reduce((x + y, x * y, x - y, -x)) == ((a + b) % 7, (a * b) % 7, (a - b) % 7, -a % 7)
    assert f.add(x, y) == (a + b) % 7 and f.mul(x, y) == (a * b) % 7


@given(st.integers(1, 6))
def test_f7_inverse(a):
    f = GF(7)
    assert f.mul(a, f.inv(a)) == 1


def test_poly_ring_mixes_ints_and_polynomials():
    x, y = PolyRing(5).variables(2)
    assert 2 + x == x + 2 == Poly({(): 2, (0,): 1})
    assert x - 1 == -(1 - x) == Poly({(0,): 1, (): -1})
    assert 3 * x * y == y * x * 3 == Poly({(0, 1): 3})
    assert (x + y) * (x - y) == x * x - y * y == Poly({(0, 0): 1, (1, 1): -1})
    assert sum([x, y, -x], 0) == y and x - x == Poly() and not x - x and 0 * y == Poly()


@given(st.integers(-40, 40), st.integers(-40, 40), st.integers(-40, 40), st.integers(0, 6), st.integers(0, 6))
def test_poly_ring_evaluates_like_f7(a, b, c, u, v):
    ring = PolyRing(7)
    x, y = ring.variables(2)
    (poly,) = ring.reduce((a * x * x + (b - y) * (x + c) - c,))
    assert all(0 < coeff < 7 for coeff in poly.values())
    value = sum(coeff * (u ** mono.count(0)) * (v ** mono.count(1)) for mono, coeff in poly.items())
    assert value % 7 == (a * u * u + (b - v) * (u + c) - c) % 7


# polynomials in x_0, x_1, x_2 with small integer coefficients
_MONOMIALS = st.lists(st.integers(0, 2), max_size=3).map(lambda us: tuple(sorted(us)))
_POLYS = st.dictionaries(_MONOMIALS, st.integers(-20, 20).filter(bool), max_size=5).map(Poly)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.sampled_from([2, 3, 5]), _POLYS, _POLYS, st.lists(st.integers(0, 4), min_size=3, max_size=3))
def test_poly_evaluation_is_a_ring_homomorphism_onto_f_p(p, a, b, point):
    f, point = GF(p), [u % p for u in point]

    def at(poly):  # the value at x_u = point[u], unreduced
        return sum(c * prod(point[u] for u in mono) for mono, c in poly.items())

    va, vb = f.reduce((at(a), at(b)))
    values = f.reduce((at(a + b), at(a - b), at(a * b)))
    assert values == f.reduce((va + vb, va - vb, va * vb))


def _fold_mul(a, b):
    """``Poly.__mul__`` as it was: one ``Poly`` per term of ``b``, added on."""
    out = Poly()
    for n, d in (b.items() if isinstance(b, Poly) else [((), b)] if b else []):
        out += Poly({tuple(sorted(m + n)): c * d for m, c in a.items()})
    return out


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_POLYS, _POLYS | st.integers(-3, 3))
def test_poly_product_matches_the_per_term_fold(a, b):
    got = a * b
    assert type(got) is Poly and got == _fold_mul(a, b) == b * a
    # falsy exactly when zero: no zero coefficient is kept
    assert all(got.values()) and bool(got) == (bool(a) and bool(b))


def test_poly_ring_reduces_coefficients_mod_p():
    ring = PolyRing(3)
    x, y = ring.variables(2)
    assert ring.reduce((3 * x + 4, 6 * x * y - 3, 5)) == (Poly({(): 1}), Poly(), Poly({(): 2}))
    assert 3 * x and not ring.reduce((3 * x,))[0] and ring.reduce((x,))[0]
    assert ring.coerce(-1) == ring.coerce("2") == ring.reduce((ring.one() + ring.one(),))[0] == Poly({(): 2})
    assert ring.coerce(3) == ring.zero() == Poly() and ring.reduce((x * 3, y - y)) == (Poly(), Poly())
    assert ring.reduce((-x,))[0] == Poly({(0,): 2}) and ring.coerce(4 * x) == x


def test_poly_ring_has_no_inverses():
    ring = PolyRing(5)
    for a in (ring.one(), ring.variables(1)[0]):
        with pytest.raises(NovikovError):
            ring.inv(a)
    with pytest.raises(NovikovError):
        ring.half()
    with pytest.raises(NoHalf):
        PolyRing(2).half()


def test_poly_ring_matrices_refuse_base_field_operands():
    ring, f = PolyRing(3), GF(3)
    assert ring == PolyRing(3) != f and ring != PolyRing(5)
    symbolic = Matrix(ring, 2, 2, ring.variables(4))
    concrete = Matrix(f, 2, 2, (1, 0, 0, 1))
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a @ b):
        with pytest.raises(FieldMismatch):
            op(symbolic, concrete)
        with pytest.raises(FieldMismatch):
            op(concrete, symbolic)
    lifted = Matrix(ring, 2, 2, concrete.entries)
    assert symbolic @ lifted == symbolic and (symbolic - symbolic).is_zero()
