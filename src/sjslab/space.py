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

import math
import numbers
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import InvalidDistribution, _checked, _field

MAX_CELLS = 10_000_000  # upper bound on the feature cells of a space


@dataclass(frozen=True)
class FeatureSpace:
    """Joint domain of named categorical features.

    Parameters
    ----------
    feature_names : sequence of str
        One identifier per feature, at least one; must be unique.
    cardinalities : sequence of int
        Domain size of each feature, every entry >= 1; their product is
        at most ``MAX_CELLS``.
    """

    feature_names: tuple
    cardinalities: tuple

    def __init__(self, feature_names: Sequence[str], cardinalities: Sequence[int]):
        names = tuple(str(_checked(f"feature {j}", "name", n, str, "a string"))
                      for j, n in enumerate(feature_names))
        cards = tuple(int(_checked(f"feature {j}", "cardinality", c, numbers.Integral,
                                   "an integer")) for j, c in enumerate(cardinalities))
        if len(names) != len(cards):
            raise InvalidDistribution("feature_names and cardinalities must have equal length")
        if not names:
            raise InvalidDistribution("need at least one feature")
        if len(set(names)) != len(names):
            raise InvalidDistribution(f"duplicate feature names: {names}")
        if any(c < 1 for c in cards):
            raise InvalidDistribution(f"cardinalities must be >= 1, got {cards}")
        total = math.prod(cards)  # exact: an int64 product could wrap below the cap
        if total > MAX_CELLS:
            raise InvalidDistribution(
                f"feature space has {total} cells, exceeding the cap of {MAX_CELLS}")
        object.__setattr__(self, "feature_names", names)
        object.__setattr__(self, "cardinalities", cards)

    @property
    def num_features(self) -> int:
        return len(self.feature_names)

    @property
    def num_cells(self) -> int:
        return math.prod(self.cardinalities)

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
            raise InvalidDistribution(
                f"unknown feature {name!r}; have {list(self.feature_names)}") from None


@dataclass(frozen=True, eq=False)
class FeaturePartition:
    """Partition of the feature cells of a :class:`FeatureSpace`.

    ``cell_of[x]`` is the partition cell of feature cell ``x``.  The map
    is total and surjective onto ``0..num_cells-1`` by construction.
    ``cell_of`` is a read-only view of the partition's own copy of the
    map, which stays writeable and is handed only to ``np.take`` and
    ``np.bincount``: both copy a read-only index on every call.
    """

    space: FeatureSpace
    cell_of: np.ndarray = field(repr=False)
    num_cells: int
    feature_subset: tuple | None = None

    def __init__(self, space: FeatureSpace, cell_of: np.ndarray,
                 feature_subset: tuple | None = None):
        index = np.array(cell_of, dtype=np.int64)  # a copy no caller holds
        if index.shape != (space.num_cells,):
            raise InvalidDistribution(
                f"cell_of must have shape ({space.num_cells},), got {index.shape}")
        if index.size and index.min() < 0:
            raise InvalidDistribution("partition cell indices must be non-negative")
        num = int(index.max()) + 1 if index.size else 0
        present = np.zeros(num, dtype=bool)
        present[index] = True
        if not present.all():
            raise InvalidDistribution("partition cell indices must be surjective onto 0..k-1")
        cell_of = index.view()
        cell_of.setflags(write=False)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "cell_of", cell_of)
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "num_cells", num)
        object.__setattr__(self, "feature_subset", feature_subset)

    def __reduce__(self):
        # Through __init__, so that a copy has its own index and a read-only view of it.
        return FeaturePartition, (self.space, self._index, self.feature_subset)

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_features(cls, space: FeatureSpace, names: Sequence[str]) -> "FeaturePartition":
        """Partition generated by a subset of the features.

        Two feature cells share a partition cell iff they agree on every
        feature in ``names``.  An empty subset gives the trivial partition;
        an unknown or repeated name raises, naming it.
        """
        names = tuple(names)
        idx = [space.feature_index(n) for n in names]
        if len(set(idx)) < len(idx):
            repeated = next(n for k, n in enumerate(names) if idx[k] in idx[:k])
            raise InvalidDistribution(f"feature {repeated!r} is named twice in {list(names)}")
        # The codes of the named features' sub-space, as a grid with one axis per
        # feature in space order, broadcast over the rest: no per-cell coordinates.
        dims = [space.cardinalities[i] for i in idx]
        grid = np.arange(np.prod(dims, dtype=np.int64)).reshape(dims).transpose(np.argsort(idx))
        shape = [c if i in idx else 1 for i, c in enumerate(space.cardinalities)]
        codes = np.broadcast_to(grid.reshape(shape), space.cardinalities).ravel()
        return cls(space, codes, feature_subset=names)

    @classmethod
    def trivial(cls, space: FeatureSpace) -> "FeaturePartition":
        """Single-cell partition (no feature information)."""
        return cls.from_features(space, ())

    @classmethod
    def full(cls, space: FeatureSpace) -> "FeaturePartition":
        """Finest partition: one cell per feature cell."""
        return cls.from_features(space, space.feature_names)

    def broadcast(self, table: np.ndarray) -> np.ndarray:
        """The per-feature-cell table whose row ``x`` is row ``cell_of[x]`` of ``table``.

        ``np.take(..., axis=0)`` copies whole rows: on a 2-D table it is about
        three times as fast as ``table[cell_of]`` (1e5 rows, 3 columns).
        """
        return np.take(table, self._index, axis=0)

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
        return self._parents(other) is not None

    def parent_cells(self, other: "FeaturePartition") -> np.ndarray:
        """For ``self`` refining ``other``: other-cell containing each self-cell."""
        parent = self._parents(other)
        if parent is None:
            raise InvalidDistribution("partition does not refine the coarser one")
        return parent

    def _parents(self, other: "FeaturePartition") -> np.ndarray | None:
        """The refinement test: scatter one other-cell per self-cell, then every
        feature cell must read its own back.  None where ``self`` does not refine."""
        if other.space is not self.space and other.space != self.space:
            return None
        parent = np.empty(self.num_cells, dtype=np.int64)
        parent[self.cell_of] = other.cell_of
        return parent if np.array_equal(parent[self.cell_of], other.cell_of) else None

    def describe(self) -> dict:
        """JSON-friendly description (used in reports); :meth:`from_description` reads it."""
        if self.feature_subset is not None:
            return {"type": "features", "features": list(self.feature_subset)}
        return {"type": "custom", "cell_of": self.cell_of.tolist()}

    @classmethod
    def from_description(cls, space: FeatureSpace, doc) -> "FeaturePartition":
        """The partition :meth:`describe` wrote; raises naming a missing or mistyped key."""
        if isinstance(doc, dict) and doc.get("type") == "features":
            return cls.from_features(
                space, _field("partition", doc, "features", [str], "a list of feature names"))
        return cls(space, _field("partition", doc, "cell_of", [numbers.Integral],
                                 "a list of integers"))


def group(labels: np.ndarray, num_groups: int) -> tuple:
    """Group items by ``labels`` (in ``0..num_groups-1``) with one stable sort.

    Returns ``(order, bounds)``: group ``n`` is ``order[bounds[n]:bounds[n + 1]]``, ascending.
    The sort runs on the smallest unsigned type that holds every label: numpy
    radix-sorts 8- and 16-bit keys in linear time, where wider keys take timsort.
    """
    labels = np.asarray(labels, dtype=np.int64)
    order = np.argsort(labels.astype(np.min_scalar_type(max(num_groups - 1, 0))), kind="stable")
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
    return group_sum(partition._index, values, partition.num_cells)
