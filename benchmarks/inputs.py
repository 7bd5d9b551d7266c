"""Seeded inputs for the benchmark workloads, with their planted truth.

Everything here uses numpy and the standard library only: the benchmark
knows the answer each operation must produce without asking sjslab.
Tables are (feature cell, label) mass arrays over a mixed-radix feature
space with the last feature varying fastest, the layout sjslab uses.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

RANK_RTOL = 1e-10

# The same seed must give the same inputs, and the workloads must not share
# a random stream, so every generator derives its stream from (seed, tag).
_TAG = {"csv_report": 1, "table_study": 2, "wide_fit": 3, "fixed": 4}


def rng_for(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), _TAG[workload]])


def feature_names(d: int) -> list:
    return [f"X{j + 1}" for j in range(d)]


def coords(cards) -> np.ndarray:
    """(num_cells, d) coordinates of every feature cell, last feature fastest."""
    grids = np.indices(tuple(cards)).reshape(len(cards), -1)
    return grids.T.astype(np.int64)


def partition(cards, subset) -> tuple:
    """(cell_of, num_f_cells) of the partition generated by feature indices."""
    subset = sorted(subset)
    if not subset:
        return np.zeros(int(np.prod(cards)), dtype=np.int64), 1
    c = coords(cards)
    dims = tuple(cards[j] for j in subset)
    cell_of = np.ravel_multi_index(tuple(c[:, j] for j in subset), dims)
    return cell_of.astype(np.int64), int(np.prod(dims))


def cell_sums(table: np.ndarray, cell_of: np.ndarray, num: int) -> np.ndarray:
    """Sum the rows of a (cells, k) table within each partition cell."""
    out = np.zeros((num, table.shape[1]))
    np.add.at(out, cell_of, table)
    return out


def posterior(mass: np.ndarray) -> np.ndarray:
    """Label posterior per feature cell (every cell has positive mass here)."""
    return mass / mass.sum(axis=1, keepdims=True)


def class_matrices(mass: np.ndarray, cell_of: np.ndarray, num: int) -> np.ndarray:
    """Per-cell matrices M[n, i, j] = E[posterior_i | cell n, label j]."""
    post = posterior(mass)
    class_cell = cell_sums(mass, cell_of, num)  # (num, ell)
    ell = mass.shape[1]
    num_ij = np.stack([cell_sums(mass * post[:, [i]], cell_of, num) for i in range(ell)],
                      axis=1)  # (num, i, j)
    return num_ij / class_cell[:, None, :]


def identifiable(mass: np.ndarray, cell_of: np.ndarray, num: int) -> bool:
    """Every partition cell's conditional class matrix has full rank."""
    s = np.linalg.svd(class_matrices(mass, cell_of, num), compute_uv=False)
    ell = mass.shape[1]
    return bool(np.all(s[:, -1] > s[:, 0] * ell * RANK_RTOL))


def is_sjs(p: np.ndarray, q: np.ndarray, cell_of: np.ndarray, num: int,
           tol: float = 1e-9) -> bool:
    """Within-cell class conditionals of source and target agree on every cell."""
    p_f = cell_sums(p, cell_of, num)[cell_of]
    q_f = cell_sums(q, cell_of, num)[cell_of]
    return bool(np.max(np.abs(p / p_f - q / q_f)) <= tol)


def plant(p: np.ndarray, cell_of: np.ndarray, num: int, priors: np.ndarray,
          rng: np.random.Generator) -> np.ndarray:
    """Target table shifted from ``p`` on the partition only, with exact priors.

    Each label's per-cell ratios are rescaled so their expectation under
    the source class conditional is 1, which makes ``priors`` exact.
    """
    ratios = rng.uniform(0.25, 4.0, size=(num, p.shape[1]))
    source_priors = p.sum(axis=0)
    cond = cell_sums(p, cell_of, num) / source_priors
    ratios /= (cond * ratios).sum(axis=0)
    q = p * ratios[cell_of] * (priors / source_priors)
    return q / q.sum()


def random_source(rng: np.random.Generator, cards, ell: int) -> np.ndarray:
    mass = rng.uniform(0.05, 1.0, size=(int(np.prod(cards)), ell))
    return mass / mass.sum()


def table_doc(cards, mass: np.ndarray) -> dict:
    """sjslab's table JSON layout: rows ``[coord_1, ..., coord_d, label, p]``."""
    c = coords(cards)
    rows = [[*map(int, c[x]), i, float(mass[x, i])]
            for x in range(mass.shape[0]) for i in range(mass.shape[1])]
    return {"features": [{"name": n, "cardinality": int(k)}
                         for n, k in zip(feature_names(len(cards)), cards)],
            "num_labels": int(mass.shape[1]), "mass": rows}


def read_table(path) -> np.ndarray:
    """Mass array of a table JSON file, independent of sjslab's reader."""
    doc = json.loads(Path(path).read_text())
    cards = [f["cardinality"] for f in doc["features"]]
    rows = np.asarray(doc["mass"], dtype=np.float64)
    mass = np.zeros((int(np.prod(cards)), doc["num_labels"]))
    d = len(cards)
    cells = np.ravel_multi_index(tuple(rows[:, :d].astype(np.int64).T), cards)
    np.add.at(mass, (cells, rows[:, d].astype(np.int64)), rows[:, d + 1])
    return mass / mass.sum()


def read_posterior_csv(path, num_cells: int, ell: int) -> np.ndarray:
    """Posterior columns of a corrected-posterior CSV, checked for shape and order."""
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",")
    cols = [header.index(f"posterior_{i}") for i in range(ell)]
    defined = header.index("defined")
    if len(lines) - 1 != num_cells:
        raise AssertionError(f"{path}: {len(lines) - 1} rows, expected {num_cells}")
    out = np.empty((num_cells, ell))
    for x, line in enumerate(lines[1:]):
        fields = line.split(",")
        if fields[defined] != "1":
            raise AssertionError(f"{path}: cell {x} flagged undefined")
        out[x] = [float(fields[c]) for c in cols]
    return out


# -- csv_report -----------------------------------------------------------------

CSV_CARDS = [2] * 12
CSV_LABELS = 3
CSV_SHIFTED = 4


@dataclass
class CsvInstance:
    """Integer-count source and target samples with their exact answers."""

    shift_features: list
    source_counts: np.ndarray = field(repr=False)  # (cells, labels)
    target_counts: np.ndarray = field(repr=False)
    priors: np.ndarray = field(repr=False)
    posterior: np.ndarray = field(repr=False)


def csv_instance(seed: int) -> CsvInstance:
    """Counts c in {1,2,3} per (cell, label) and target counts c * r(f-cell, label).

    Both count multisets are fixed and only their placement is drawn, so
    every seed gives the same number of rows (24576 source, about 61k
    target) and the same amount of decoding work.
    """
    rng = rng_for("csv_report", seed)
    cards, ell = CSV_CARDS, CSV_LABELS
    num_cells = int(np.prod(cards))
    shifted = sorted(rng.choice(len(cards), size=CSV_SHIFTED, replace=False).tolist())
    cell_of, nf = partition(cards, shifted)
    c = rng.permutation(np.repeat(np.arange(1, 4), num_cells * ell // 3)).reshape(num_cells, ell)
    r = rng.permutation(np.repeat(np.arange(1, 5), nf * ell // 4)).reshape(nf, ell)
    t = c * r[cell_of]
    return CsvInstance([feature_names(len(cards))[j] for j in shifted], c, t,
                       t.sum(axis=0) / t.sum(), t / t.sum(axis=1, keepdims=True))


def _expand_rows(counts: np.ndarray, rng: np.random.Generator) -> tuple:
    """One (cell, label) pair per counted row, in shuffled order."""
    cells, labels = np.nonzero(counts)
    reps = counts[cells, labels]
    order = rng.permutation(int(reps.sum()))
    return np.repeat(cells, reps)[order], np.repeat(labels, reps)[order]


def _write_csv(path, header: list, columns: np.ndarray) -> None:
    lines = [",".join(header)]
    lines += [",".join(map(str, row)) for row in columns.tolist()]
    Path(path).write_text("\n".join(lines) + "\n")


def write_csv_inputs(inst: CsvInstance, seed: int, out: Path) -> dict:
    """Write the labelled source CSV, the feature-only target CSV and the config."""
    rng = rng_for("csv_report", seed + 1)
    names = feature_names(len(CSV_CARDS))
    all_coords = coords(CSV_CARDS)
    cells, labels = _expand_rows(inst.source_counts, rng)
    _write_csv(out / "source.csv", names + ["label"],
               np.column_stack([all_coords[cells], labels]))
    cells, _ = _expand_rows(inst.target_counts, rng)
    _write_csv(out / "target.csv", names, all_coords[cells])
    config = {"source_path": str(out / "source.csv"), "target_path": str(out / "target.csv"),
              "shift_features": inst.shift_features, "method": "sees-d",
              "output_dir": str(out / "report")}
    (out / "config.json").write_text(json.dumps(config, indent=2) + "\n")
    return config


# -- table_study ----------------------------------------------------------------

# Desk-scale shapes (cardinalities, labels, shifted features), fixed so that
# every seed does the same work: which features are shifted sets the number
# of f-cells, and with it the cost of every command.  The seed draws the
# tables and the priors.
DESK_SHAPES = [
    ([3, 3], 2, [0]),
    ([2, 4], 3, [0]),
    ([4, 4], 3, [1]),
    ([2, 3, 4], 2, [2]),
    ([3, 3, 3], 3, [0, 1]),
    ([2, 2, 4], 3, [2]),
    ([2, 3, 3, 4], 2, [1, 3]),
    ([3, 4, 4, 4], 3, [0, 3]),
]
LARGE_CARDS = [4] * 6
LARGE_LABELS = 3


@dataclass
class TableInstance:
    """A source table to plant on, with the shift the workload asks for."""

    name: str
    cards: list
    source: np.ndarray = field(repr=False)
    shifted: list  # feature indices
    priors: np.ndarray = field(repr=False)
    plant_seed: int
    search: bool

    @property
    def shift_names(self) -> list:
        return [feature_names(len(self.cards))[j] for j in self.shifted]

    @property
    def ell(self) -> int:
        return self.source.shape[1]


def _draw_instance(rng, name, cards, ell, shift, search) -> TableInstance:
    """``shift`` is the list of shifted features, or how many to draw."""
    while True:  # keep a draw only if every f-cell is identifiable
        source = random_source(rng, cards, ell)
        shifted = (sorted(shift) if isinstance(shift, list) else
                   sorted(rng.choice(len(cards), size=shift, replace=False).tolist()))
        cell_of, nf = partition(cards, shifted)
        if identifiable(source, cell_of, nf):
            break
    priors = rng.dirichlet(np.full(ell, 5.0))
    return TableInstance(name, list(cards), source, shifted, priors,
                         int(rng.integers(2 ** 31)), search)


def table_instances(seed: int) -> list:
    """One pass of table_study: the desk-scale draws, then two 4096-cell tables.

    The seed draws the desk-scale instances only.  The two 4096-cell
    instances are the same for every seed: they take most of a pass, and
    SEES-c's iteration count on them swings threefold from draw to draw,
    which would swamp the throughput.  The 1024-f-cell fit also stops
    unconverged, and a failure on fixed inputs keeps the failed share of
    every run the same.
    """
    rng = rng_for("table_study", seed)
    out = [_draw_instance(rng, f"desk{k}", cards, ell, shift, True)
           for k, (cards, ell, shift) in enumerate(DESK_SHAPES)]
    fixed = rng_for("fixed", 0)
    out.append(_draw_instance(fixed, "large256", LARGE_CARDS, LARGE_LABELS, 4, False))
    out.append(_draw_instance(fixed, "large1024", LARGE_CARDS, LARGE_LABELS, 5, False))
    return out


def write_table_inputs(instances: list, out: Path) -> None:
    for inst in instances:
        d = out / inst.name
        d.mkdir(parents=True, exist_ok=True)
        (d / "source.json").write_text(
            json.dumps(table_doc(inst.cards, inst.source), sort_keys=True, indent=2) + "\n")


# -- wide_fit ---------------------------------------------------------------------

WIDE_CARDS = [10] * 5
WIDE_LABELS = 3
WIDE_COARSE = [0, 1]      # 100 f-cells, where the shift is planted
WIDE_FINE = [0, 1, 2]     # 1000 f-cells, a superset the shift transmits to


@dataclass
class WideInstance:
    source: np.ndarray = field(repr=False)
    target: np.ndarray = field(repr=False)
    priors: np.ndarray = field(repr=False)
    posterior: np.ndarray = field(repr=False)


def wide_instance(seed: int) -> WideInstance:
    rng = rng_for("wide_fit", seed)
    source = random_source(rng, WIDE_CARDS, WIDE_LABELS)
    priors = rng.dirichlet(np.full(WIDE_LABELS, 5.0))
    cell_of, nf = partition(WIDE_CARDS, WIDE_COARSE)
    target = plant(source, cell_of, nf, priors, rng)
    return WideInstance(source, target, target.sum(axis=0), posterior(target))
