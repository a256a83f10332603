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
_BLOCK = 64  # rows per block of mmd's distance sums, columns per block of ni's std


def _pooled_subsamples(F_tr, F_te, rng):
    """Both sets as one float64 matrix, (size rows of F_tr, size rows of
    F_te) with size = min(_N_SUB, rows of each), and size. The rows are
    drawn without replacement from F_tr first, then from F_te; a set of
    exactly size rows is kept whole, in order."""
    F_tr = np.asarray(F_tr, dtype=np.float64)
    F_te = np.asarray(F_te, dtype=np.float64)
    if F_tr.ndim != 2 or F_te.ndim != 2:
        raise ValueError("both sets must be 2-D (rows, features)")
    if F_tr.shape[1] != F_te.shape[1]:
        raise ValueError("both sets must have the same number of features")
    if F_tr.shape[0] == 0 or F_te.shape[0] == 0:
        raise ValueError("both sets must be nonempty")
    size = min(_N_SUB, F_tr.shape[0], F_te.shape[0])
    pooled = np.empty((2 * size, F_tr.shape[1]))
    for F, half in ((F_tr, pooled[:size]), (F_te, pooled[size:])):
        if F.shape[0] > size:
            # indices in range, so "clip" takes them as they are, with no buffer
            np.take(F, rng.choice(F.shape[0], size=size, replace=False), axis=0,
                    out=half, mode="clip")
        else:
            half[...] = F
    return pooled, size


def mmd(F_tr, F_te, rng=None):
    """Square root of the unbiased quadratic-time MMD^2 with a Gaussian
    kernel; bandwidth is the median pairwise distance of the pooled
    subsample (median heuristic). Clamped at 0 before the root."""
    pooled, n = _pooled_subsamples(F_tr, F_te, rng or Rng(0))
    if n < 2:
        raise ValueError("mmd needs at least 2 rows per set")

    # squared distances |a|^2 + |b|^2 - 2a.b from one Gram matrix, clipped at
    # 0, all in place; the Gram matrix is the one full-size array
    d2 = pooled @ pooled.T
    del pooled
    sq = d2.diagonal().copy()
    d2 *= -2.0
    for start in range(0, 2 * n, _BLOCK):
        d2[start : start + _BLOCK] += np.add.outer(sq[start : start + _BLOCK], sq)
    np.maximum(d2, 0.0, out=d2)
    # mirroring the upper triangle makes the distances exactly symmetric;
    # the median is taken over the upper triangle's distances
    upper = np.empty(n * (2 * n - 1))
    start = 0
    for i in range(2 * n):
        d2[i, :i] = d2[:i, i]
        upper[start : start + 2 * n - 1 - i] = d2[i, i + 1 :]
        start += 2 * n - 1 - i
    np.fill_diagonal(d2, 0.0)
    sigma = np.median(np.sqrt(upper, out=upper), overwrite_input=True)
    del upper
    if sigma <= 0.0:
        sigma = 1.0

    gamma = 1.0 / (2.0 * sigma**2)
    d2 *= -gamma
    k = np.exp(d2, out=d2)
    kxx, kyy, kxy = k[:n, :n], k[n:, n:], k[:n, n:]
    # paired unbiased estimator: all i != j terms, diagonals excluded; the
    # cross terms are added first, so swapping X and Y gives the same bits.
    # kyy's block, once added, holds the cross terms.
    kxx += kyy
    kxx -= np.add(kxy, kxy.T, out=kyy)
    mmd2 = kxx[~np.eye(n, dtype=bool)].sum() / (n * (n - 1))
    return math.sqrt(max(0.0, mmd2))


def emd(F_tr, F_te, rng=None):
    """1-Wasserstein distance between equal-size subsamples via exact
    min-cost matching, normalized by sqrt(feature dimension)."""
    pooled, n = _pooled_subsamples(F_tr, F_te, rng or Rng(0))
    cost = cdist(pooled[:n], pooled[n:])
    rows, cols = linear_sum_assignment(cost)
    total = cost[rows, cols].sum()
    return float(total / n / math.sqrt(pooled.shape[1]))


def ni(ds):
    """Class-conditional standardized first-moment shift index.

    For every class the per-dimension mean gap between environments is
    scaled by the pooled std and its Euclidean norm taken; NI averages
    over classes.
    """
    F = ds.features
    # a block of columns at a time, so no temporary is the size of F
    std = [F[:, start : start + _BLOCK].std(axis=0) for start in range(0, F.shape[1], _BLOCK)]
    sigma = np.maximum(np.concatenate(std), 1e-12)
    tr = ds.envs == 0
    vals = []
    for cls in range(ds.n_classes):
        m_tr = tr & (ds.labels == cls)
        m_te = ~tr & (ds.labels == cls)
        if not m_tr.any() or not m_te.any():
            raise ValueError(f"class {cls} missing in one environment")
        gap = (F[m_tr].mean(axis=0) - F[m_te].mean(axis=0)) / sigma
        vals.append(np.linalg.norm(gap))
    return float(np.mean(vals))


def _compare_tasks(specs, n_runs, base_seed):
    """Run r of spec s draws its dataset from seed base_seed + 100000*s +
    1000*r and runs the pipeline from that seed + 1."""
    return [((spec, seed), seed + 1)
            for s, spec in enumerate(specs) for r in range(n_runs)
            for seed in (base_seed + 100000 * s + 1000 * r,)]


def compare_table(specs, mlp_cfg, est_cfg, base_seed):
    """One record per spec, keyed by the compare.csv columns: rho_te, the
    blue flag, then each baseline metric (EMD and MMD on subsamples of up
    to _N_SUB rows per environment) and each shift with its standard
    error over est_cfg.n_runs freshly generated datasets. Every (spec, run)
    pair is one task of _map; a task holds one dataset and, at its peak,
    mmd's one distance matrix besides."""
    est_cfg.validate()

    def run(task):
        (spec, data_seed), seed = task
        rng = Rng(data_seed)
        ds = gen_colored(spec, rng)
        # gen_colored lays out env 0's rows first
        F_tr, F_te = ds.features[: spec.n_per_env], ds.features[spec.n_per_env :]
        return (
            emd(F_tr, F_te, rng),
            mmd(F_tr, F_te, rng),
            ni(ds),
            *_run(ds, mlp_cfg, est_cfg, seed)[0],
        )

    runs = _map(run, _compare_tasks(specs, est_cfg.n_runs, base_seed))
    records = []
    for spec, (mean, stderr) in zip(specs, _mean_stderr(runs, est_cfg.n_runs)):
        record = {"rho_te": spec.rho_te, "blue": int(spec.mu_te > 0)}
        for name, m, se in zip(("emd", "mmd", "ni", "d_div", "d_cor"), mean, stderr):
            record[name] = float(m)
            record[f"{name}_stderr"] = float(se)
        records.append(record)
    return records
