from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from novikov.errors import FieldMismatch, NoHalf, NovikovError
from novikov.fields import GF, QQ, check_same_field, field_by_name, field_from_json, parse_scalar


def test_rational_coercion_lowest_terms():
    x = QQ.coerce("6/4")
    assert x == Fraction(3, 2)
    assert x.denominator == 2 and x.denominator > 0
    assert QQ.coerce(-3) == Fraction(-3)


def test_prime_field_canonical_range():
    f5 = GF(5)
    assert f5.coerce(-1) == 4
    assert f5.coerce(12) == 2
    assert f5.inv(2) == 3
    assert f5.coerce(Fraction(1, 2)) == 3


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
    with pytest.raises(FieldMismatch):
        check_same_field(QQ, GF(3))
    assert check_same_field(GF(7), GF(7)) == GF(7)


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
    assert f.add(f.coerce(a), f.coerce(b)) == (a + b) % 7
    assert f.mul(f.coerce(a), f.coerce(b)) == (a * b) % 7
    assert f.sub(f.coerce(a), f.coerce(b)) == (a - b) % 7


@given(st.integers(1, 6))
def test_f7_inverse(a):
    f = GF(7)
    assert f.mul(a, f.inv(a)) == 1
