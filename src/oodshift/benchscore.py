"""Ranking-score arithmetic for benchmark accuracy tables.

Each algorithm earns -1/0/+1 per dataset depending on whether its mean
accuracy falls below, within, or above the reference algorithm's standard
error band; the ranking score is the sum across datasets. Band edges use
strict inequalities (a value exactly on the edge scores 0).
"""

import csv
import math
from dataclasses import dataclass
from importlib import resources


@dataclass(frozen=True)
class AccuracyTable:
    algorithms: tuple
    datasets: tuple
    cells: dict  # (algorithm, dataset) -> (mean, stderr), percents
    reference: str = "ERM"

    def __post_init__(self):
        if self.reference not in self.algorithms:
            raise ValueError(f"reference algorithm {self.reference!r} not in table")
        for (alg, ds), (mean, stderr) in self.cells.items():
            if not 0.0 <= mean <= 100.0:
                raise ValueError(f"mean out of [0, 100] at ({alg}, {ds}): {mean}")
            if not 0.0 <= stderr < math.inf:
                raise ValueError(f"stderr not finite and >= 0 at ({alg}, {ds}): {stderr}")
        for alg in self.algorithms:
            for ds in self.datasets:
                if (alg, ds) not in self.cells:
                    raise ValueError(f"missing cell ({alg}, {ds})")


def cell_score(mean_a, ref_mean, ref_stderr):
    """-1, 0, or +1 against the reference error band.

    Band edges count as inside; a small epsilon absorbs binary rounding of
    decimal table entries (e.g. 94.7 - 0.1 != 94.6 in floats).
    """
    eps = 1e-9
    if mean_a > ref_mean + ref_stderr + eps:
        return 1
    if mean_a < ref_mean - ref_stderr - eps:
        return -1
    return 0


def cell_scores(table):
    """Per-cell scores, keyed like table.cells."""
    out = {}
    for alg in table.algorithms:
        for ds in table.datasets:
            ref_mean, ref_stderr = table.cells[table.reference, ds]
            out[alg, ds] = cell_score(table.cells[alg, ds][0], ref_mean, ref_stderr)
    return out


def ranking_scores(table):
    """Sum of cell scores across datasets for every algorithm."""
    per_cell = cell_scores(table)
    return {
        alg: sum(per_cell[alg, ds] for ds in table.datasets)
        for alg in table.algorithms
    }


def load_accuracy_table(path_or_file, reference="ERM"):
    """Read an AccuracyTable CSV with columns algorithm,dataset,mean,stderr."""
    if hasattr(path_or_file, "read"):
        rows = list(csv.DictReader(path_or_file))
    else:
        with open(path_or_file, newline="") as fh:
            rows = list(csv.DictReader(fh))
    required = {"algorithm", "dataset", "mean", "stderr"}
    if not rows or not required.issubset(rows[0].keys()):
        raise ValueError("expected CSV columns algorithm,dataset,mean,stderr")
    algorithms, datasets, cells = [], [], {}
    for row in rows:
        alg, ds = row["algorithm"], row["dataset"]
        if alg not in algorithms:
            algorithms.append(alg)
        if ds not in datasets:
            datasets.append(ds)
        if (alg, ds) in cells:
            raise ValueError(f"repeated row ({alg}, {ds})")
        cells[alg, ds] = (float(row["mean"]), float(row["stderr"]))
    return AccuracyTable(
        algorithms=tuple(algorithms),
        datasets=tuple(datasets),
        cells=cells,
        reference=reference,
    )


def load_fixture(name):
    """Load one of the bundled benchmark tables:
    'diversity' (PACS/OfficeHome/TerraInc/Camelyon17) or
    'correlation' (ColoredMNIST/CelebA/NICO)."""
    fname = {"diversity": "table_diversity.csv", "correlation": "table_correlation.csv"}[
        name
    ]
    ref = resources.files("oodshift.fixtures").joinpath(fname)
    with ref.open(newline="") as fh:
        return load_accuracy_table(fh)
