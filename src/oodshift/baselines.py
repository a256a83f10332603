"""Baseline two-sample shift metrics: MMD, EMD, and a non-i.i.d. index.

These unidimensional metrics serve as comparison points for the
diversity/correlation decomposition; they conflate the two kinds of shift.
"""

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from .data import Rng
from .datagen import gen_colored
from .estimator import estimate_pipeline


@dataclass(frozen=True)
class MetricReport:
    emd: float
    emd_stderr: float
    mmd: float
    mmd_stderr: float
    ni: float
    ni_stderr: float
    n_tr: int
    n_te: int


def _subsample(F, size, rng):
    F = np.atleast_2d(np.asarray(F, dtype=np.float64))
    if F.shape[0] <= size:
        return F
    return F[rng.choice(F.shape[0], size=size, replace=False)]


def mmd(F_tr, F_te, n_sub=2000, rng=None):
    """Square root of the unbiased quadratic-time MMD^2 with a Gaussian
    kernel; bandwidth is the median pairwise distance of the pooled
    subsample (median heuristic). Clamped at 0 before the root."""
    if n_sub < 2:
        raise ValueError("n_sub must be >= 2")
    rng = rng or Rng(0)
    F_tr = np.atleast_2d(np.asarray(F_tr, dtype=np.float64))
    F_te = np.atleast_2d(np.asarray(F_te, dtype=np.float64))
    if F_tr.shape[0] == 0 or F_te.shape[0] == 0:
        raise ValueError("both sets must be nonempty")
    size = min(n_sub, F_tr.shape[0], F_te.shape[0])
    X = _subsample(F_tr, size, rng)
    Y = _subsample(F_te, size, rng)
    n = min(X.shape[0], Y.shape[0])
    X, Y = X[:n], Y[:n]

    pooled = np.concatenate([X, Y])
    d2 = cdist(pooled, pooled, "sqeuclidean")
    sigma = np.median(np.sqrt(d2[np.triu(np.ones(d2.shape, dtype=bool), k=1)]))
    if sigma <= 0.0:
        sigma = 1.0

    gamma = 1.0 / (2.0 * sigma**2)
    kxx = np.exp(-gamma * d2[:n, :n])
    kyy = np.exp(-gamma * d2[n:, n:])
    kxy = np.exp(-gamma * d2[:n, n:])
    # paired unbiased estimator: all i != j terms, diagonals excluded
    off = ~np.eye(n, dtype=bool)
    mmd2 = (kxx[off] + kyy[off] - kxy[off] - kxy.T[off]).sum() / (n * (n - 1))
    return math.sqrt(max(0.0, mmd2))


def emd(F_tr, F_te, n_sub=512, rng=None):
    """1-Wasserstein distance between equal-size subsamples via exact
    min-cost matching, normalized by sqrt(feature dimension)."""
    if n_sub < 1:
        raise ValueError("n_sub must be >= 1")
    rng = rng or Rng(0)
    F_tr = np.atleast_2d(np.asarray(F_tr, dtype=np.float64))
    F_te = np.atleast_2d(np.asarray(F_te, dtype=np.float64))
    if F_tr.shape[0] == 0 or F_te.shape[0] == 0:
        raise ValueError("both sets must be nonempty")
    size = min(n_sub, F_tr.shape[0], F_te.shape[0], 512)
    X = _subsample(F_tr, size, rng)
    Y = _subsample(F_te, size, rng)
    n = min(X.shape[0], Y.shape[0])
    X, Y = X[:n], Y[:n]
    cost = cdist(X, Y)
    rows, cols = linear_sum_assignment(cost)
    total = cost[rows, cols].sum()
    return float(total / n / math.sqrt(X.shape[1]))


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


def compare_table(specs, mlp_cfg, est_cfg, base_seed, n_sub=512):
    """One row per spec: baseline metrics plus the shift decomposition,
    each averaged over est_cfg.n_runs freshly generated datasets."""
    rows = []
    for s_idx, spec in enumerate(specs):
        emds, mmds, nis = [], [], []
        shift_runs = []
        n_tr = n_te = 0
        for run in range(est_cfg.n_runs):
            seed = base_seed + 100000 * s_idx + 1000 * run
            rng = Rng(seed)
            ds = gen_colored(spec, rng)
            tr = ds.envs == 0
            F_tr, F_te = ds.features[tr], ds.features[~tr]
            n_tr, n_te = F_tr.shape[0], F_te.shape[0]
            emds.append(emd(F_tr, F_te, n_sub, rng))
            mmds.append(mmd(F_tr, F_te, n_sub, rng))
            nis.append(ni(ds))
            one = replace(est_cfg, n_runs=1)
            shift_runs.append(estimate_pipeline(ds, mlp_cfg, one, seed + 1).per_run[0])

        def agg(vals):
            vals = np.asarray(vals)
            se = vals.std(ddof=1) / math.sqrt(len(vals)) if len(vals) > 1 else 0.0
            return float(vals.mean()), float(se)

        emd_m, emd_se = agg(emds)
        mmd_m, mmd_se = agg(mmds)
        ni_m, ni_se = agg(nis)
        div_m, div_se = agg([r[0] for r in shift_runs])
        cor_m, cor_se = agg([r[1] for r in shift_runs])
        rows.append(
            {
                "spec": spec,
                "metrics": MetricReport(
                    emd=emd_m,
                    emd_stderr=emd_se,
                    mmd=mmd_m,
                    mmd_stderr=mmd_se,
                    ni=ni_m,
                    ni_stderr=ni_se,
                    n_tr=n_tr,
                    n_te=n_te,
                ),
                "d_div": div_m,
                "d_div_stderr": div_se,
                "d_cor": cor_m,
                "d_cor_stderr": cor_se,
            }
        )
    return rows
