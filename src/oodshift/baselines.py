"""Baseline two-sample shift metrics: MMD, EMD, and a non-i.i.d. index.

These unidimensional metrics serve as comparison points for the
diversity/correlation decomposition; they conflate the two kinds of shift.
"""

import math

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from .data import Rng
from .datagen import gen_colored
from .estimator import _map, _mean_stderr, _run


_N_SUB = 512  # rows per environment that mmd and emd compare


def _paired_subsamples(F_tr, F_te, rng):
    """Both sets as float64 matrices of size = min(_N_SUB, rows of each) rows,
    drawn without replacement from F_tr first, then from F_te; a set of
    exactly size rows is kept whole, in order."""
    F_tr = np.asarray(F_tr, dtype=np.float64)
    F_te = np.asarray(F_te, dtype=np.float64)
    if F_tr.ndim != 2 or F_te.ndim != 2:
        raise ValueError("both sets must be 2-D (rows, features)")
    if F_tr.shape[0] == 0 or F_te.shape[0] == 0:
        raise ValueError("both sets must be nonempty")
    size = min(_N_SUB, F_tr.shape[0], F_te.shape[0])
    if F_tr.shape[0] > size:
        F_tr = F_tr[rng.choice(F_tr.shape[0], size=size, replace=False)]
    if F_te.shape[0] > size:
        F_te = F_te[rng.choice(F_te.shape[0], size=size, replace=False)]
    return F_tr, F_te


def mmd(F_tr, F_te, rng=None):
    """Square root of the unbiased quadratic-time MMD^2 with a Gaussian
    kernel; bandwidth is the median pairwise distance of the pooled
    subsample (median heuristic). Clamped at 0 before the root."""
    X, Y = _paired_subsamples(F_tr, F_te, rng or Rng(0))
    n = X.shape[0]
    if n < 2:
        raise ValueError("mmd needs at least 2 rows per set")

    pooled = np.concatenate([X, Y])
    # squared distances |a|^2 + |b|^2 - 2a.b from one Gram matrix, clipped at
    # 0; mirroring the upper triangle makes them exactly symmetric
    d2 = pooled @ pooled.T
    sq = d2.diagonal().copy()
    d2 *= -2.0
    d2 += np.add.outer(sq, sq)
    d2 = np.triu(np.maximum(d2, 0.0, out=d2), 1)
    d2 += d2.T
    sigma = np.median(np.sqrt(d2[np.triu(np.ones(d2.shape, dtype=bool), k=1)]))
    if sigma <= 0.0:
        sigma = 1.0

    gamma = 1.0 / (2.0 * sigma**2)
    kxx = np.exp(-gamma * d2[:n, :n])
    kyy = np.exp(-gamma * d2[n:, n:])
    kxy = np.exp(-gamma * d2[:n, n:])
    # paired unbiased estimator: all i != j terms, diagonals excluded; the
    # cross terms are added first, so swapping X and Y gives the same bits
    off = ~np.eye(n, dtype=bool)
    mmd2 = (kxx[off] + kyy[off] - (kxy[off] + kxy.T[off])).sum() / (n * (n - 1))
    return math.sqrt(max(0.0, mmd2))


def emd(F_tr, F_te, rng=None):
    """1-Wasserstein distance between equal-size subsamples via exact
    min-cost matching, normalized by sqrt(feature dimension)."""
    X, Y = _paired_subsamples(F_tr, F_te, rng or Rng(0))
    cost = cdist(X, Y)
    rows, cols = linear_sum_assignment(cost)
    total = cost[rows, cols].sum()
    return float(total / X.shape[0] / math.sqrt(X.shape[1]))


def ni(ds):
    """Class-conditional standardized first-moment shift index.

    For every class the per-dimension mean gap between environments is
    scaled by the pooled std and its Euclidean norm taken; NI averages
    over classes.
    """
    sigma = np.maximum(ds.features.std(axis=0), 1e-12)
    tr = ds.envs == 0
    vals = []
    for cls in range(ds.n_classes):
        m_tr = tr & (ds.labels == cls)
        m_te = ~tr & (ds.labels == cls)
        if not m_tr.any() or not m_te.any():
            raise ValueError(f"class {cls} missing in one environment")
        gap = (ds.features[m_tr].mean(axis=0) - ds.features[m_te].mean(axis=0)) / sigma
        vals.append(np.linalg.norm(gap))
    return float(np.mean(vals))


def compare_table(specs, mlp_cfg, est_cfg, base_seed):
    """One record per spec, keyed by the compare.csv columns: rho_te, the
    blue flag, then each baseline metric (EMD and MMD on subsamples of up
    to _N_SUB rows per environment) and each shift with its standard
    error over est_cfg.n_runs freshly generated datasets."""
    est_cfg.validate()

    def run(spec, seed):
        rng = Rng(seed)
        ds = gen_colored(spec, rng)
        tr = ds.envs == 0
        F_tr, F_te = ds.features[tr], ds.features[~tr]
        return (
            emd(F_tr, F_te, rng),
            mmd(F_tr, F_te, rng),
            ni(ds),
            *_run(ds, mlp_cfg, est_cfg, seed + 1)[0],
        )

    # the runs of one spec execute concurrently, the specs in sequence: two
    # specs at once would hold two fresh datasets and two sets of mmd matrices
    records = []
    for s_idx, spec in enumerate(specs):
        seeds = [base_seed + 100000 * s_idx + 1000 * r for r in range(est_cfg.n_runs)]
        runs = _map(lambda seed: run(spec, seed), seeds)
        mean, stderr = _mean_stderr(np.asarray(runs, dtype=np.float64))
        record = {"rho_te": spec.rho_te, "blue": int(spec.mu_te > 0)}
        for name, m, se in zip(("emd", "mmd", "ni", "d_div", "d_cor"), mean, stderr):
            record[name] = float(m)
            record[f"{name}_stderr"] = float(se)
        records.append(record)
    return records
