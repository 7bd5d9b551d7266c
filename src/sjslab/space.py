"""Discrete feature spaces and partitions of their cells.

A :class:`FeatureSpace` enumerates the joint domain of a categorical
feature vector as a flat range of cell indices (mixed-radix encoding,
last feature varying fastest).  A :class:`FeaturePartition` is a total,
surjective map from feature cells to partition cells; it is the discrete
stand-in for a sub-information-set of the features.  The partition
generated by a subset of the features, the trivial partition and the
full (one cell per feature cell) partition are the common cases; any
cell map, ``FeaturePartition(space, cell_of)``, gives the partitions
induced by functions of the features (a norm, a bucketised score, a
classifier) as well.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import InvalidDistribution

MAX_CELLS = 10_000_000  # upper bound on the feature cells of a space


@dataclass(frozen=True)
class FeatureSpace:
    """Joint domain of named categorical features.

    Parameters
    ----------
    feature_names : sequence of str
        One identifier per feature; must be unique.
    cardinalities : sequence of int
        Domain size of each feature, every entry >= 1; their product is
        at most ``MAX_CELLS``.
    """

    feature_names: tuple
    cardinalities: tuple

    def __init__(self, feature_names: Sequence[str], cardinalities: Sequence[int]):
        names = tuple(str(n) for n in feature_names)
        cards = tuple(int(c) for c in cardinalities)
        if len(names) != len(cards):
            raise InvalidDistribution("feature_names and cardinalities must have equal length")
        if len(set(names)) != len(names):
            raise InvalidDistribution(f"duplicate feature names: {names}")
        if any(c < 1 for c in cards):
            raise InvalidDistribution(f"cardinalities must be >= 1, got {cards}")
        total = int(np.prod(cards, dtype=np.int64)) if cards else 1
        if total <= 0 or total > MAX_CELLS:
            raise InvalidDistribution(
                f"feature space has {total} cells, exceeding the cap of {MAX_CELLS}")
        object.__setattr__(self, "feature_names", names)
        object.__setattr__(self, "cardinalities", cards)

    @property
    def num_features(self) -> int:
        return len(self.feature_names)

    @property
    def num_cells(self) -> int:
        return int(np.prod(self.cardinalities, dtype=np.int64)) if self.cardinalities else 1

    def index_of(self, coords: Sequence[int]) -> int:
        """Flat cell index of one coordinate tuple."""
        return int(np.ravel_multi_index(tuple(int(c) for c in coords), self.cardinalities))

    def coords_of(self, index) -> np.ndarray:
        """Coordinate array (one column per feature) for flat cell indices."""
        arrays = np.unravel_index(np.asarray(index), self.cardinalities)
        return np.stack(arrays, axis=-1)

    def all_coords(self) -> np.ndarray:
        """(num_cells, num_features) array enumerating every cell."""
        return self.coords_of(np.arange(self.num_cells))

    def feature_index(self, name: str) -> int:
        try:
            return self.feature_names.index(name)
        except ValueError:
            raise KeyError(f"unknown feature {name!r}; have {self.feature_names}") from None


@dataclass(frozen=True, eq=False)
class FeaturePartition:
    """Partition of the feature cells of a :class:`FeatureSpace`.

    ``cell_of[x]`` is the partition cell of feature cell ``x``.  The map
    is total and surjective onto ``0..num_cells-1`` by construction.
    """

    space: FeatureSpace
    cell_of: np.ndarray = field(repr=False)
    num_cells: int
    feature_subset: tuple | None = None

    def __init__(self, space: FeatureSpace, cell_of: np.ndarray,
                 feature_subset: tuple | None = None):
        cell_of = np.asarray(cell_of, dtype=np.int64)
        if cell_of.shape != (space.num_cells,):
            raise InvalidDistribution(
                f"cell_of must have shape ({space.num_cells},), got {cell_of.shape}")
        if cell_of.size and cell_of.min() < 0:
            raise InvalidDistribution("partition cell indices must be non-negative")
        num = int(cell_of.max()) + 1 if cell_of.size else 0
        present = np.zeros(num, dtype=bool)
        present[cell_of] = True
        if not present.all():
            raise InvalidDistribution("partition cell indices must be surjective onto 0..k-1")
        cell_of.setflags(write=False)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "cell_of", cell_of)
        object.__setattr__(self, "num_cells", num)
        object.__setattr__(self, "feature_subset", feature_subset)

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_features(cls, space: FeatureSpace, names: Sequence[str]) -> "FeaturePartition":
        """Partition generated by a subset of the features.

        Two feature cells share a partition cell iff they agree on every
        feature in ``names``.  An empty subset gives the trivial partition.
        """
        names = tuple(names)
        if not names:
            return cls.trivial(space)
        idx = [space.feature_index(n) for n in names]
        coords = space.all_coords()
        dims = tuple(space.cardinalities[i] for i in idx)
        codes = np.ravel_multi_index(tuple(coords[:, i] for i in idx), dims)
        return cls(space, codes, feature_subset=names)

    @classmethod
    def trivial(cls, space: FeatureSpace) -> "FeaturePartition":
        """Single-cell partition (no feature information)."""
        return cls(space, np.zeros(space.num_cells, dtype=np.int64), feature_subset=())

    @classmethod
    def full(cls, space: FeatureSpace) -> "FeaturePartition":
        """Finest partition: one cell per feature cell."""
        return cls(space, np.arange(space.num_cells, dtype=np.int64),
                   feature_subset=tuple(space.feature_names))

    # -- algebra ---------------------------------------------------------

    def join(self, other: "FeaturePartition") -> "FeaturePartition":
        """Coarsest common refinement (the partition generated jointly)."""
        if other.space is not self.space and other.space != self.space:
            raise InvalidDistribution("cannot join partitions over different spaces")
        pair = self.cell_of * other.num_cells + other.cell_of
        _, codes = np.unique(pair, return_inverse=True)
        subset = None
        if self.feature_subset is not None and other.feature_subset is not None:
            subset = tuple(dict.fromkeys(self.feature_subset + other.feature_subset))
        return FeaturePartition(self.space, codes.astype(np.int64), feature_subset=subset)

    def refines(self, other: "FeaturePartition") -> bool:
        """True iff every cell of ``self`` lies inside one cell of ``other``."""
        if other.space is not self.space and other.space != self.space:
            return False
        first = np.full(self.num_cells, -1, dtype=np.int64)
        np.maximum.at(first, self.cell_of, other.cell_of)
        return bool(np.all(first[self.cell_of] == other.cell_of))

    def parent_cells(self, other: "FeaturePartition") -> np.ndarray:
        """For ``self`` refining ``other``: other-cell containing each self-cell."""
        if not self.refines(other):
            raise InvalidDistribution("partition does not refine the coarser one")
        parent = np.empty(self.num_cells, dtype=np.int64)
        parent[self.cell_of] = other.cell_of
        return parent

    def describe(self) -> dict:
        """JSON-friendly description (used in reports); :meth:`from_description` reads it."""
        if self.feature_subset is not None:
            return {"type": "features", "features": list(self.feature_subset)}
        return {"type": "custom", "cell_of": self.cell_of.tolist()}

    @classmethod
    def from_description(cls, space: FeatureSpace, doc) -> "FeaturePartition":
        """The partition :meth:`describe` wrote; raises naming a missing key."""
        def need(key):
            if not isinstance(doc, dict) or key not in doc:
                raise InvalidDistribution(f"partition has no {key!r}")
            return doc[key]

        if isinstance(doc, dict) and doc.get("type") == "features":
            return cls.from_features(space, need("features"))
        return cls(space, need("cell_of"))


def group(labels: np.ndarray, num_groups: int) -> tuple:
    """Group items by ``labels`` (in ``0..num_groups-1``) with one stable sort.

    Returns ``(order, bounds)``: group ``n`` is ``order[bounds[n]:bounds[n + 1]]``, ascending.
    """
    labels = np.asarray(labels, dtype=np.int64)
    order = np.argsort(labels, kind="stable")
    bounds = np.zeros(num_groups + 1, dtype=np.int64)
    np.cumsum(np.bincount(labels, minlength=num_groups), out=bounds[1:])
    return order, bounds


def stacks(labels: np.ndarray, num_groups: int) -> list:
    """The non-empty groups of :func:`group`, stacked by size.

    Returns one ``(groups, members)`` pair per distinct group size, where
    ``members[j]`` is group ``groups[j]`` (ascending), so ``values[members]``
    is a ``(len(groups), size, ...)`` array with no padding.
    """
    order, bounds = group(labels, num_groups)
    sizes = np.diff(bounds)
    out = []
    for size in np.unique(sizes[sizes > 0]):
        groups = np.nonzero(sizes == size)[0]
        out.append((groups, order[bounds[groups, None] + np.arange(size)]))
    return out


def group_sum(labels: np.ndarray, values: np.ndarray, num_groups: int) -> np.ndarray:
    """Sum the rows of 1-D or 2-D ``values`` per group, in row order (``np.bincount``)."""
    if values.ndim == 1:
        return np.bincount(labels, weights=values, minlength=num_groups)
    out = np.empty((num_groups, values.shape[1]))
    for j in range(values.shape[1]):
        out[:, j] = np.bincount(labels, weights=values[:, j], minlength=num_groups)
    return out


def aggregate(values: np.ndarray, partition: FeaturePartition) -> np.ndarray:
    """Sum a per-feature-cell table within each partition cell.

    ``values`` may be 1-D ``(num_feature_cells,)`` or 2-D
    ``(num_feature_cells, k)``; the result has the partition's cell count
    as its first dimension.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.shape[0] != partition.space.num_cells:
        raise InvalidDistribution(
            f"table has {values.shape[0]} rows, space has {partition.space.num_cells} cells")
    return group_sum(partition.cell_of, values, partition.num_cells)
