"""Semantic exception hierarchy for sjslab.

Public functions raise these instead of bare ValueError so callers can
distinguish modelling violations (absolute continuity, degenerate labels)
from plain misuse.  Every value read from JSON (a config, ``--params``, a table
header, a fit, a partition description) is type-checked by one rule, ``_checked``.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np


@contextmanager
def naming_file(path):
    """Note ``path`` on an error raised while reading it; the CLI prints the note first.

    An :class:`OSError` names its file already and passes as it is.
    """
    try:
        yield
    except OSError:
        raise
    except Exception as exc:
        exc.__notes__ = [*getattr(exc, "__notes__", ()), str(path)]  # add_note, from 3.11 on
        raise


def _field(where: str, doc, key: str, kind, what: str):
    """``doc[key]``, checked by :func:`_checked`, or :class:`InvalidDistribution`
    ``{where} has no {key!r}`` when ``doc`` is not a JSON object or lacks ``key``."""
    if not isinstance(doc, dict) or key not in doc:
        raise InvalidDistribution(f"{where} has no {key!r}")
    return _checked(where, key, doc[key], kind, what)


def _checked(where: str, key: str, value, kind, what: str):
    """``value``, or :class:`InvalidDistribution` naming it unless it is of ``kind``.

    ``kind`` is read as :func:`_has_type` reads it, and ``what`` says it in
    words: ``params 'priors' must be a list of real numbers, got ['a']``.
    """
    if not _has_type(value, kind):
        raise InvalidDistribution(f"{where} {key!r} must be {what}, got {value!r:.60}")
    return value


def _has_type(value, kind) -> bool:
    """Is ``value`` of ``kind``: a type, or ``[kind]`` for a list of such values?

    The lists of a ``[[kind]]`` value, a table's rows, must have one length.
    A bool is no number here, though Python counts it as an int.
    """
    if isinstance(kind, list):
        return (isinstance(value, (list, tuple, np.ndarray))
                and all(_has_type(v, kind[0]) for v in value)
                and len({len(v) for v in value if isinstance(kind[0], list)}) <= 1)
    return isinstance(value, kind) and not isinstance(value, bool)


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
