"""Exact scalar arithmetic: the rationals and prime fields F_p.

Scalars are plain Python values.  Over Q an integral scalar is an ``int``
and any other a ``fractions.Fraction`` in lowest terms with denominator
> 1, so arithmetic on integral scalars runs at ``int`` speed and builds no
``Fraction``; over F_p a scalar is an ``int`` in ``[0, p)``.  A ``Field``
object carries the canonicalization; containers (vectors, matrices,
tensors, algebras) keep a reference to their field and refuse to mix fields.

All scalar arithmetic of the object path (product grids, vector, matrix and
tensor arithmetic, tensor contractions, row reduction, the residuals) uses
only Python's own ``+``, ``-`` and ``*`` on canonical scalars, truthiness of
a reduced scalar as the zero test, and ``Field.reduce`` once on each
finished output; ``inv`` is the only division, and it divides through
``Fraction``, never with ``/`` (``int / int`` is a float).  An accumulator
starts at ``zero()``, which over Q is the ``int`` 0.  Over F_p one ``%`` of
the unreduced value is exactly what a reduction after every operation
gives; over Q ``reduce`` replaces a denominator-1 ``Fraction`` (say, 1/2 +
1/2) by its numerator, and an equal ``int`` and ``Fraction`` compare and
hash alike, so the two forms never disagree on a value.  ``PolyRing``, over
which the search evaluates each kind's residual once per (kind, dimension,
p), symbolically, with the context's table, beta and scalars unknowns too,
keeps the same contract: its scalars overload these operators and are falsy
exactly when zero (bare tuples, on which ``+`` concatenates, would not
qualify).  Each search substitutes its context's values into that system,
and P-TENSOR-OP, whose two routes are such systems, decides each tensor of
a table by ``Poly.at``, the unreduced value at the tensor's coefficients,
reduced mod p by the caller: substitution and evaluation at a point are
ring homomorphisms onto F_p.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import NoHalf, NovikovError

_PRIME_CACHE: dict[int, "PrimeField"] = {}

# The one scalar grammar for documents and options: an integer or p/q, with an
# optional sign and surrounding whitespace.  Decimal points, exponents and
# digit separators are rejected: "1e3000000" is nine bytes but a
# three-million-digit integer.
_SCALAR = re.compile(r"\s*([+-]?[0-9]+)(?:/([0-9]+))?\s*")


def parse_scalar(text: str) -> Fraction:
    """Read a scalar string exactly; raises NovikovError outside the grammar
    and ZeroDivisionError for a zero denominator."""
    m = _SCALAR.fullmatch(text)
    if m is None:
        raise NovikovError(f"not an integer or p/q: {text!r}")
    num, den = m.groups()
    return Fraction(int(num), int(den or 1))


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class Field:
    """Abstract field descriptor; scalars are plain values canonical for it.
    The arithmetic itself is Python's operators on its scalars.  A subclass
    supplies:

    - ``coerce(x)``: an int, string or exact value as a canonical scalar;
    - ``reduce(values)``: canonical scalars for values that ``+``, ``-`` and
      ``*`` made from canonical (or integer) scalars;
    - ``inv(a)``: the inverse, raising ZeroDivisionError on zero;
    - ``scalar_to_json(a)``, ``scalar_from_json(obj)`` and ``to_json()``:
      the document forms of a scalar and of the field;
    - ``sample(rng)``: a scalar drawn uniformly (F_p) or a small rational (Q).

    ``zero``, ``one`` and ``half`` follow from these.  ``PolyRing``, never a
    document's field, supplies only the first three."""

    char: int

    def zero(self):
        return self.coerce(0)

    def one(self):
        return self.coerce(1)

    # Kept only for the benchmark's per-scalar probe (``perfbench/layers.py``
    # ``field_probes``); library code uses the operators and ``reduce``.
    def add(self, a, b):
        return self.reduce((a + b,))[0]

    def mul(self, a, b):
        return self.reduce((a * b,))[0]

    def half(self):
        """Return 1/2, raising NoHalf in characteristic 2."""
        if self.char == 2:
            raise NoHalf(f"1/2 does not exist in {self}")
        return self.inv(self.coerce(2))


class Rationals(Field):
    """The field Q.  A scalar is an ``int`` when it is integral and otherwise
    a ``Fraction`` in lowest terms with denominator > 1.  ``coerce``,
    ``sample`` and ``inv`` return that form; ``reduce`` restores it on the
    results of ``+``, ``-`` and ``*``, where a ``Fraction`` operand can leave
    a ``Fraction`` with denominator 1."""

    char = 0

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return _canonical(Fraction(1, a))

    def coerce(self, x):
        if type(x) is int or (type(x) is Fraction and x.denominator != 1):
            return x  # already canonical, as most entries of a new container are
        if isinstance(x, str):
            x = parse_scalar(x)
        if isinstance(x, (int, Fraction)):
            return _canonical(x)
        raise NovikovError(f"cannot coerce {x!r} into Q")

    def reduce(self, values) -> tuple:
        # ``_canonical`` inlined: this runs on every output of every loop
        return tuple([x if type(x) is int or x.denominator != 1 else x.numerator for x in values])

    def scalar_to_json(self, a):
        if a.denominator == 1:
            return str(a.numerator)
        return f"{a.numerator}/{a.denominator}"

    def scalar_from_json(self, obj):
        if isinstance(obj, (int, str)) and not isinstance(obj, bool):
            return self.coerce(obj)
        raise NovikovError(f"bad rational scalar {obj!r}")

    def to_json(self) -> dict:
        return {"kind": "rational"}

    def sample(self, rng):
        num = rng.randrange(-6, 7)
        den = rng.randrange(1, 4)
        return _canonical(Fraction(num, den))

    def __repr__(self) -> str:
        return "QQ"

    def __eq__(self, other) -> bool:
        return isinstance(other, Rationals)

    def __hash__(self) -> int:
        return hash("QQ")


def _canonical(x):
    """The canonical Q scalar equal to an int or ``Fraction`` ``x``: its
    numerator (a plain ``int``, also for a bool) when the denominator is 1."""
    return x.numerator if x.denominator == 1 else x


class PrimeField(Field):
    """F_p for a prime p < 2**31; scalars are ints in [0, p)."""

    def __init__(self, p: int):
        if not (2 <= p < 2**31):
            raise NovikovError(f"prime field modulus out of range: {p}")
        if not _is_prime(p):
            raise NovikovError(f"{p} is not prime")
        self.p = p
        self.char = p

    def zero(self):
        return 0

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, self.p - 2, self.p)

    def coerce(self, x):
        if isinstance(x, int):
            return x % self.p
        if isinstance(x, str):
            x = parse_scalar(x)
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise NovikovError(f"denominator divisible by {self.p}")
            return (x.numerator * self.inv(x.denominator % self.p)) % self.p
        raise NovikovError(f"cannot coerce {x!r} into F_{self.p}")

    def reduce(self, values) -> tuple:
        p = self.p
        return tuple([x % p for x in values])

    def scalar_to_json(self, a):
        return int(a)

    def scalar_from_json(self, obj):
        if isinstance(obj, (int, str)) and not isinstance(obj, bool):
            return self.coerce(obj)
        raise NovikovError(f"bad prime-field scalar {obj!r}")

    def to_json(self) -> dict:
        return {"kind": "prime", "p": self.p}

    def sample(self, rng):
        return rng.randrange(self.p)

    def __repr__(self) -> str:
        return f"GF({self.p})"

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("GF", self.p))


class Poly(dict):
    """{monomial: coefficient} with integer coefficients, a monomial being
    the sorted tuple of its unknowns' indices; exact zeros are dropped, so a
    polynomial is falsy exactly when every coefficient is 0."""

    def __add__(self, other):
        out = Poly(self)
        for m, c in _terms(other).items():
            c += out.pop(m, 0)
            if c:
                out[m] = c
        return out

    __radd__ = __add__

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __neg__(self):
        return Poly({m: -c for m, c in self.items()})

    def __mul__(self, other):
        acc: dict = {}
        for n, d in _terms(other).items():
            for m, c in self.items():
                key = tuple(sorted(m + n))
                acc[key] = acc.get(key, 0) + c * d
        return Poly({m: c for m, c in acc.items() if c})

    __rmul__ = __mul__

    def at(self, point) -> int:
        """The value at x_u = ``point[u]``, unreduced: the caller reduces it."""
        total = 0
        for m, c in self.items():
            for u in m:
                c *= point[u]
            total += c
        return total


def _terms(x) -> dict:
    return x if isinstance(x, Poly) else {(): x} if x else {}


@dataclass(frozen=True)
class PolyRing(Field):
    """Polynomials over F_p, p = ``char``, in unknowns x_0, x_1, ...: scalars
    are ``Poly`` with coefficients in [1, p), no x^p = x reduction.  ``inv``
    raises, so a routine that divides or pivots fails loudly."""

    char: int

    def variables(self, k: int) -> list:
        return [Poly({(u,): 1}) for u in range(k)]

    def inv(self, a):
        raise NovikovError(f"{self} has no inverses")

    def coerce(self, x):
        return self.reduce((x if isinstance(x, Poly) else GF(self.char).coerce(x),))[0]

    def reduce(self, values) -> tuple:
        p = self.char
        return tuple([Poly({m: c % p for m, c in _terms(v).items() if c % p}) for v in values])


QQ = Rationals()


def GF(p: int) -> PrimeField:
    """The prime field F_p (cached)."""
    if p not in _PRIME_CACHE:
        _PRIME_CACHE[p] = PrimeField(p)
    return _PRIME_CACHE[p]


def field_from_json(obj: dict) -> Field:
    kind = obj.get("kind")
    if kind == "rational":
        return QQ
    if kind == "prime":
        p = obj["p"]
        if type(p) is not int:  # a JSON integer: no float, string or bool
            raise NovikovError(f"field modulus must be an integer, got {p!r}")
        return GF(p)
    raise NovikovError(f"unknown field descriptor {obj!r}")


def field_by_name(name: str) -> Field:
    """Resolve CLI-style field names: Q, F2, F3, F5, F7, ..."""
    name = name.strip().upper()
    if name in ("Q", "QQ"):
        return QQ
    if name.startswith("F") and name[1:].isdigit():
        try:
            p = int(name[1:])
        except ValueError:  # past the interpreter's digit limit, or a digit int() does not read
            pass
        else:
            return GF(p)
    raise NovikovError(f"unknown field name {name!r}")
