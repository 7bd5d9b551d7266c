"""Semantic exception hierarchy for sjslab.

Public functions raise these instead of bare ValueError so callers can
distinguish modelling violations (absolute continuity, degenerate labels)
from plain misuse.
"""

from __future__ import annotations


class SjslabError(Exception):
    """Base class for all sjslab errors."""


class InvalidDistribution(SjslabError, ValueError):
    """A probability table violates its construction contract."""


class ZeroLabelMass(SjslabError):
    """A label carries zero probability where positive mass is required."""

    def __init__(self, label: int, where: str = "distribution"):
        self.label = label
        self.where = where
        super().__init__(f"label {label} has zero mass in {where}")


class AbsoluteContinuityViolated(SjslabError):
    """The target puts mass on an event that is null under the source."""

    def __init__(self, cell, label=None, mass: float = 0.0):
        self.cell = cell
        self.label = label
        self.mass = mass
        at = f"cell {cell}" if label is None else f"cell {cell}, label {label}"
        super().__init__(f"target mass {mass:.3g} on source-null event at {at}")


class DegenerateObjective(SjslabError):
    """The likelihood term vanishes on a positive-mass target cell."""


class InfeasibleRatios(SjslabError):
    """Shift ratios cannot be normalised (support has zero source mass)."""


class SchemaViolation(SjslabError, ValueError):
    """A dataset row does not match the declared schema."""

    def __init__(self, message: str, row: int | None = None, column: str | None = None):
        self.row = row
        self.column = column
        where = ""
        if row is not None:
            where += f" at row {row}"
        if column is not None:
            where += f", column {column!r}"
        super().__init__(message + where)


class EmptyDataset(SjslabError):
    """No rows available to estimate a distribution from."""
