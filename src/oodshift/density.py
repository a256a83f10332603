"""Gaussian kernel density estimation.

All density arithmetic is done in log space; bandwidths follow Scott's rule
per dimension with a small floor so duplicate points stay finite.
"""

from dataclasses import dataclass

import numpy as np

_BANDWIDTH_FLOOR = 1e-6
_LOG_2PI = np.log(2.0 * np.pi)
_CHUNK = 256


@dataclass(frozen=True)
class KdeModel:
    points: np.ndarray  # (k, m)
    bandwidth: np.ndarray  # (m,)
    log_norm_const: float  # -log k - sum_j log(h_j * sqrt(2 pi))


def kde_fit(F):
    """Fit a product-Gaussian KDE; h_j = sigma_j * k^(-1/(m+4)), with
    sigma_j the per-dimension std of F (Scott's rule)."""
    F = np.asarray(F, dtype=np.float64)
    if F.ndim == 1:
        F = F[:, None]
    k, m = F.shape
    if k < 2:
        raise ValueError("need at least 2 rows to fit a KDE")
    h = F.std(axis=0) * k ** (-1.0 / (m + 4))
    h = np.maximum(h, _BANDWIDTH_FLOOR)
    log_norm = -np.log(k) - np.sum(np.log(h) + 0.5 * _LOG_2PI)
    return KdeModel(points=F, bandwidth=h, log_norm_const=float(log_norm))


def kde_logpdf(model, Z):
    """Log-density at query points (log-sum-exp over kernel centers), scored
    _CHUNK queries at a time."""
    # imported on first use, so the commands that score no KDE skip scipy
    from scipy.special import logsumexp

    Z = np.asarray(Z, dtype=np.float64)
    single = Z.ndim == 1
    if single:
        Z = Z[None, :]
    if Z.shape[1] != model.points.shape[1]:
        raise ValueError(f"query dim {Z.shape[1]} != model dim {model.points.shape[1]}")
    scaled_pts = model.points / model.bandwidth
    pts_sq = np.sum(scaled_pts**2, axis=1)
    out = np.empty(Z.shape[0])
    for start in range(0, Z.shape[0], _CHUNK):
        zs = Z[start : start + _CHUNK] / model.bandwidth
        d2 = np.sum(zs**2, axis=1)[:, None] - 2.0 * zs @ scaled_pts.T + pts_sq
        np.maximum(d2, 0.0, out=d2)
        out[start : start + _CHUNK] = logsumexp(-0.5 * d2, axis=1)
    out += model.log_norm_const
    return out[0] if single else out


def kde_pdf(model, Z):
    return np.exp(kde_logpdf(model, Z))


def kde_sample(model, n, rng):
    """Exact sampler for the KDE mixture: fit point + bandwidth noise."""
    if n < 1:
        raise ValueError("n must be >= 1")
    idx = rng.integers(0, model.points.shape[0], n)
    noise = rng.normal(0.0, 1.0, (n, model.points.shape[1])) * model.bandwidth
    return model.points[idx] + noise
