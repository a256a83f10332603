"""Dataset container, seeded RNG, and CSV file I/O."""

import csv
from dataclasses import dataclass, field

import numpy as np


def Rng(seed):
    """Deterministic random source: a NumPy ``Generator`` on PCG64.

    The generator algorithm is fixed (PCG64) so that identical seeds yield
    identical draw sequences across releases. A single Rng must not be
    shared across concurrent tasks.
    """
    return np.random.Generator(np.random.PCG64(int(seed)))


@dataclass(frozen=True)
class LabeledDataset:
    """Rows of (feature vector, class label, environment id).

    Environment ids are 0 (training) or 1 (test). Features are float64,
    labels and envs are int64. Immutable after construction.
    """

    features: np.ndarray
    labels: np.ndarray
    envs: np.ndarray
    n_classes: int = field(default=0)

    def __post_init__(self):
        features = np.asarray(self.features, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        envs = np.asarray(self.envs, dtype=np.int64)
        if features.ndim != 2:
            raise ValueError("features must be a 2-D matrix")
        n = features.shape[0]
        if n < 1:
            raise ValueError("dataset must contain at least one row")
        if labels.shape != (n,) or envs.shape != (n,):
            raise ValueError("features, labels, envs must have equal row counts")
        n_classes = self.n_classes or int(labels.max()) + 1
        if labels.min() < 0 or labels.max() >= n_classes:
            raise ValueError("label out of range [0, n_classes)")
        if not np.isin(envs, (0, 1)).all():
            raise ValueError("env out of range {0, 1}")
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "envs", envs)
        object.__setattr__(self, "n_classes", n_classes)
        for arr in (features, labels, envs):
            arr.setflags(write=False)

    @property
    def n_rows(self):
        return self.features.shape[0]

    @property
    def n_dims(self):
        return self.features.shape[1]

    def subset(self, idx):
        return LabeledDataset(
            self.features[idx], self.labels[idx], self.envs[idx], self.n_classes
        )


class ParseError(ValueError):
    """Malformed dataset file."""


def load_csv(path):
    """Load a dataset from CSV with header ``env,label,x0,...,x{d-1}``.

    Every feature cell must parse as a finite float.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: no rows") from None
        header = [c.strip() for c in header]
        expected = ["env", "label"] + [f"x{i}" for i in range(len(header) - 2)]
        if header != expected:
            raise ParseError(f"{path}: line 1: malformed header {header!r}")
        d = len(header) - 2
        envs, labels, rows = [], [], []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != d + 2:
                raise ParseError(
                    f"{path}: line {lineno}: expected {d + 2} columns, got {len(row)}"
                )
            try:
                env = int(row[0])
                label = int(row[1])
                # NumPy parses each str cell with Python's float
                feats = np.array(row[2:], dtype=np.float64)
            except ValueError as exc:
                raise ParseError(f"{path}: line {lineno}: non-numeric cell ({exc})") from None
            finite = np.isfinite(feats)
            if not finite.all():
                col = int(np.argmin(finite))
                raise ParseError(
                    f"{path}: line {lineno}: non-finite cell x{col} ({row[2 + col]!r})"
                )
            if env not in (0, 1):
                raise ParseError(f"{path}: line {lineno}: env out of range: {env}")
            if label < 0:
                raise ParseError(f"{path}: line {lineno}: negative label: {label}")
            envs.append(env)
            labels.append(label)
            rows.append(feats)
    if not rows:
        raise ParseError(f"{path}: no rows")
    return LabeledDataset(np.stack(rows), np.array(labels), np.array(envs))


def save_csv(ds, path):
    """Write a dataset as CSV; floats carry 17 significant digits."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["env", "label"] + [f"x{i}" for i in range(ds.n_dims)])
        for env, label, feats in zip(ds.envs, ds.labels, ds.features):
            writer.writerow([int(env), int(label)] + [f"{v:.17g}" for v in feats])


def split_train_val(n, frac, rng):
    """Shuffle row indices 0..n-1 and split them into ceil(frac*n) training
    indices and the rest; the rest must not be empty."""
    if not 0.0 < frac < 1.0:
        raise ValueError("frac must lie in (0, 1)")
    n_train = int(np.ceil(frac * n))
    if n_train == n:
        raise ValueError(
            f"validation split is empty: {n} rows at training fraction {frac}"
        )
    perm = rng.permutation(n)
    return perm[:n_train], perm[n_train:]
