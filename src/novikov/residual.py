"""Residual reports: exact LHS-RHS values of identities on basis tuples."""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Optional


@dataclass(frozen=True)
class Failure:
    """One failing basis tuple of one identity."""

    identity: str
    indices: tuple
    value: tuple  # residual coordinates

    def to_json(self, fld) -> dict:
        return {
            "identity": self.identity,
            "indices": list(self.indices),
            "residual": [fld.scalar_to_json(c) for c in self.value],
        }


@dataclass(frozen=True)
class Residual:
    """Full residual report for a named check.

    ``failures`` lists every basis tuple where an identity did not vanish,
    so property-test counterexamples are directly debuggable.
    """

    check: str
    failures: tuple = dc_field(default_factory=tuple)

    @property
    def is_zero(self) -> bool:
        return not self.failures

    def witness(self) -> Optional[Failure]:
        return self.failures[0] if self.failures else None

    def __bool__(self) -> bool:  # truthy == identity holds
        return self.is_zero


class ResidualCollector:
    """Accumulates failing tuples while an identity is evaluated."""

    def __init__(self, fld, check: str):
        self.field = fld
        self.check = check
        self.failures: list[Failure] = []

    def record(self, identity: str, indices: tuple, value) -> None:
        """File ``value`` as a failure unless it is zero.  Its scalars must be
        reduced (canonical for the field), so truthiness is the zero test."""
        if any(value):
            self.failures.append(Failure(identity, indices, tuple(value)))

    def done(self) -> Residual:
        return Residual(self.check, tuple(self.failures))


def grid_residual(fld, identity: str, grid) -> Residual:
    """A grid of reduced values as the report ``identity``: one failure,
    keyed (i, j), per nonzero cell grid[i][j]."""
    col = ResidualCollector(fld, identity)
    for i, row in enumerate(grid):
        for j, cell in enumerate(row):
            col.record(identity, (i, j), cell)
    return col.done()
