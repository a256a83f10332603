"""Diversity and correlation shift: exact oracle and Monte Carlo estimator.

The oracle sums Definition-style formulas exactly over a discrete latent
spec. The estimator fits one KDE per environment over extracted features
and evaluates the same integrals by importance sampling from the mixture of
the two fits, splitting draws into a no-shared-support region (diversity)
and a shared-support region (correlation) by density thresholds. The label
conditionals come from each fit's class-y rows, so they sum to 1 and carry
the measured class priors.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .data import Rng
from .datagen import gen_colored
from .density import kde_fit, kde_logpdf, kde_sample
from .discriminator import extract, train

# a draw lies in the diversity region when p or q is below _EPS_DIV, and in
# the correlation region when both exceed _EPS_COR; _EPS_DIV < _EPS_COR keeps
# the regions disjoint
_EPS_DIV = 1e-12
_EPS_COR = 5e-4


@dataclass(frozen=True)
class EstimatorConfig:
    n_mc_samples: int = 10000  # importance sampling size
    n_runs: int = 5
    bandwidth_scale: float = 0.7

    def validate(self):
        if self.n_mc_samples < 1:
            raise ValueError("n_mc_samples must be >= 1")
        if self.n_runs < 1:
            raise ValueError("n_runs must be >= 1")
        if not self.bandwidth_scale > 0.0:
            raise ValueError("bandwidth_scale must be > 0")


@dataclass
class ShiftEstimate:
    d_div: float
    d_cor: float
    per_run: list  # [(d_div, d_cor), ...]
    stderr_div: float
    stderr_cor: float
    over_one_flag: bool
    diagnostics: dict = field(default_factory=dict)


def oracle_shift(spec):
    """Exact diversity/correlation shift of a discrete latent spec.

    Both values are provably in [0, 1]; the sums are clipped to that range
    to absorb float round-off (e.g. marginals that sum to 1 only within
    one ulp can push d_div to 1 + 2e-16).
    """
    p, q = spec.p_z, spec.q_z
    shared = p * q != 0.0
    d_div = 0.5 * np.abs(p[~shared] - q[~shared]).sum()
    cond_gap = np.abs(spec.p_y_given_z - spec.q_y_given_z).sum(axis=1)
    d_cor = 0.5 * (np.sqrt(p[shared] * q[shared]) * cond_gap[shared]).sum()
    return float(np.clip(d_div, 0.0, 1.0)), float(np.clip(d_cor, 0.0, 1.0))


def estimate(F_tr, F_te, labels_tr, labels_te, cfg, rng):
    """One importance-sampling run of the shift estimator.

    Returns (d_div, d_cor, diagnostics). Estimates are reported raw and may
    exceed 1.
    """
    cfg.validate()
    F_tr = np.asarray(F_tr, dtype=np.float64)
    F_te = np.asarray(F_te, dtype=np.float64)
    if F_tr.ndim != 2 or F_te.ndim != 2 or F_tr.shape[1] != F_te.shape[1]:
        raise ValueError("feature matrices must be 2-D and share one dimensionality")
    if F_tr.shape[0] < 2 or F_te.shape[0] < 2:
        raise ValueError("need at least 2 rows per environment")
    if not (np.isfinite(F_tr).all() and np.isfinite(F_te).all()):
        raise ValueError("features must be finite (no NaN or inf)")
    labels_tr = np.asarray(labels_tr, dtype=np.int64)
    labels_te = np.asarray(labels_te, dtype=np.int64)
    classes = np.union1d(labels_tr, labels_te)
    for cls in classes:
        if (labels_tr == cls).sum() < 2 or (labels_te == cls).sum() < 2:
            raise ValueError(f"class {cls} underpopulated in one environment")

    n_tr, n_te = F_tr.shape[0], F_te.shape[0]
    n = n_tr + n_te
    pooled = np.concatenate([F_tr, F_te])
    # a constant column's std is floored so that it standardizes to 0
    pooled_s = (pooled - pooled.mean(axis=0)) / np.maximum(pooled.std(axis=0), 1e-8)

    # shared unit kernel scale: the pool is standardized, and giving both
    # environment fits the same per-dim scale keeps their densities comparable
    p_hat = kde_fit(pooled_s[:n_tr], cfg.bandwidth_scale, std=1.0)
    q_hat = kde_fit(pooled_s[n_tr:], cfg.bandwidth_scale, std=1.0)

    # M draws from the mixture w = (n_tr p + n_te q) / n: a draw comes from
    # p when its uniform pooled index falls in env 0
    M = cfg.n_mc_samples
    m_p = int((rng.integers(0, n, M) < n_tr).sum())
    draws = np.concatenate(
        [kde_sample(fit, k, rng) for fit, k in ((p_hat, m_p), (q_hat, M - m_p)) if k]
    )

    # log p(z, y): the environment KDE summed over its class-y rows only,
    # with the environment's normalisation kept, so p(z) = sum_y p(z, y)
    log_py, log_qy = (
        np.stack([
            kde_logpdf(replace(fit, points=fit.points[labels == cls]), draws)
            for cls in classes
        ])
        for fit, labels in ((p_hat, labels_tr), (q_hat, labels_te))
    )
    log_p = np.logaddexp.reduce(log_py, axis=0)
    log_q = np.logaddexp.reduce(log_qy, axis=0)
    log_w = np.logaddexp(math.log(n_tr / n) + log_p, math.log(n_te / n) + log_q)
    p_vals = np.exp(log_p)
    q_vals = np.exp(log_q)

    div_mask = (p_vals < _EPS_DIV) | (q_vals < _EPS_DIV)
    d_div = float(
        np.abs(np.exp(log_p - log_w) - np.exp(log_q - log_w))[div_mask].sum() / (2.0 * M)
    )

    # both densities exceed _EPS_COR here, so every log below is finite
    cor_mask = (p_vals > _EPS_COR) & (q_vals > _EPS_COR)
    lp, lq = log_p[cor_mask], log_q[cor_mask]
    cond_gap = np.abs(np.exp(log_py[:, cor_mask] - lp) - np.exp(log_qy[:, cor_mask] - lq))
    overlap = np.exp(0.5 * (lp + lq) - log_w[cor_mask])  # sqrt(p q) / w
    d_cor = float((cond_gap.sum(axis=0) * overlap).sum() / (2.0 * M))

    diagnostics = {
        "frac_div_region": float(div_mask.mean()),
        "frac_cor_region": float(cor_mask.mean()),
    }
    return d_div, d_cor, diagnostics


def _mean_stderr(arr):
    """Column means and ddof=1 standard errors of the mean over the rows
    (runs) of a 2-D array; the standard error of a single run is 0."""
    n = arr.shape[0]
    if n > 1:
        stderr = arr.std(axis=0, ddof=1) / math.sqrt(n)
    else:
        stderr = np.zeros(arr.shape[1])
    return arr.mean(axis=0), stderr


def _aggregate(per_run, diagnostics):
    arr = np.asarray(per_run, dtype=np.float64)
    mean, stderr = _mean_stderr(arr)
    return ShiftEstimate(
        d_div=float(mean[0]),
        d_cor=float(mean[1]),
        per_run=[(float(a), float(b)) for a, b in arr],
        stderr_div=float(stderr[0]),
        stderr_cor=float(stderr[1]),
        over_one_flag=bool((arr > 1.0).any()),
        diagnostics=diagnostics,
    )


def _run(ds, mlp_cfg, est_cfg, seed):
    """One pipeline run: train the discriminator, extract features and run
    the estimator, all from Rng(seed). Returns ((d_div, d_cor),
    validation accuracy, estimator diagnostics)."""
    rng = Rng(seed)
    model = train(ds, mlp_cfg, rng)
    F = extract(model, ds.features)
    tr = ds.envs == 0
    d_div, d_cor, diag = estimate(F[tr], F[~tr], ds.labels[tr], ds.labels[~tr], est_cfg, rng)
    return (d_div, d_cor), model.val_accuracy, diag


def estimate_pipeline(ds, mlp_cfg, est_cfg, base_seed):
    """Full pipeline: run i trains, extracts and estimates from seed
    base_seed + i; aggregate mean and standard error over runs."""
    est_cfg.validate()
    runs = [_run(ds, mlp_cfg, est_cfg, base_seed + i) for i in range(est_cfg.n_runs)]
    per_run, val_accs, run_diags = zip(*runs)
    diagnostics = {
        "val_accuracy_per_run": list(val_accs),
        "frac_div_region_per_run": [d["frac_div_region"] for d in run_diags],
        "frac_cor_region_per_run": [d["frac_cor_region"] for d in run_diags],
    }
    return _aggregate(per_run, diagnostics)


def sweep(base_spec, axis1, values1, axis2, values2, mlp_cfg, est_cfg, base_seed):
    """Grid of pipeline estimates over two ColoredSpec fields.

    Cell i (row-major) generates its dataset from seed base_seed + 10000*i
    and runs the pipeline from that seed + 1. Returns one dict per cell.
    """
    records = []
    for i, (v1, v2) in enumerate((float(a), float(b)) for a in values1 for b in values2):
        spec = replace(base_spec, **{axis1: v1, axis2: v2})
        cell_seed = base_seed + 10000 * i
        ds = gen_colored(spec, Rng(cell_seed))
        result = estimate_pipeline(ds, mlp_cfg, est_cfg, cell_seed + 1)
        records.append({
            axis1: v1,
            axis2: v2,
            "d_div": result.d_div,
            "d_cor": result.d_cor,
            "stderr_div": result.stderr_div,
            "stderr_cor": result.stderr_cor,
        })
    return records
