"""Bundled example objects: the two-dimensional algebra with
e1∘e1 = e1, e1∘e2 = e2∘e1 = e2, e2∘e2 = 0 and the operator pair that is
extended of weight 1 with mass (-2, 0) on it.  These are the canonical
smoke-test inputs; the CLI fixtures a2.json / t2.json / beta2.json are
serializations of them."""

from __future__ import annotations

from .algebra import Algebra
from .fields import Field, QQ
from .linalg import Matrix
from .operators import LinMap


def example_algebra(field: Field = QQ) -> Algebra:
    """dim-2: e1∘e1 = e1, e1∘e2 = e2∘e1 = e2, e2∘e2 = 0."""
    one = field.one()
    zero = field.zero()
    return Algebra.from_table(field, {(0, 0): (one, zero), (0, 1): (zero, one), (1, 0): (zero, one)}, 2)


def example_t(field: Field = QQ) -> LinMap:
    """T(e1) = -2e1 + 4e2, T(e2) = e2."""
    c = field.coerce
    return LinMap(Matrix.from_cols(field, [(c(-2), c(4)), (c(0), c(1))]))


def example_beta(field: Field = QQ) -> LinMap:
    """beta(e1) = e1 + 3e2, beta(e2) = e2; balanced and a module homomorphism."""
    c = field.coerce
    return LinMap(Matrix.from_cols(field, [(c(1), c(3)), (c(0), c(1))]))
