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


def kde_fit(F, bandwidth_scale=1.0, std=None):
    """Fit a product-Gaussian KDE; h_j = scale * sigma_j * k^(-1/(m+4)).

    sigma_j defaults to the per-dimension std of F (Scott's rule). Passing
    `std` overrides it, which lets several related fits (e.g. the two
    environment halves of one standardized pool) share a common kernel
    scale so their densities stay directly comparable.
    """
    F = np.asarray(F, dtype=np.float64)
    if F.ndim == 1:
        F = F[:, None]
    k, m = F.shape
    if k < 2:
        raise ValueError("need at least 2 rows to fit a KDE")
    sigma = F.std(axis=0) if std is None else np.broadcast_to(
        np.asarray(std, dtype=np.float64), (m,)
    )
    h = sigma * k ** (-1.0 / (m + 4))
    h = np.maximum(h * bandwidth_scale, _BANDWIDTH_FLOOR)
    log_norm = -np.log(k) - np.sum(np.log(h) + 0.5 * _LOG_2PI)
    return KdeModel(points=F, bandwidth=h, log_norm_const=float(log_norm))


def kde_logpdf(model, Z):
    """Log-density at query points (log-sum-exp over kernel centers).

    Each chunk of _CHUNK queries is scored in one preallocated (_CHUNK, k) buffer,
    so the per-call working set is a single kernel block.
    """
    Z = np.asarray(Z, dtype=np.float64)
    single = Z.ndim == 1
    if single:
        Z = Z[None, :]
    if Z.shape[1] != model.points.shape[1]:
        raise ValueError(f"query dim {Z.shape[1]} != model dim {model.points.shape[1]}")
    scaled_pts = model.points / model.bandwidth
    pts_sq = np.sum(scaled_pts**2, axis=1)
    out = np.empty(Z.shape[0])
    rows = min(_CHUNK, Z.shape[0])
    buf = np.empty((rows, scaled_pts.shape[0]))
    is_max = np.empty(buf.shape, dtype=bool)
    for start in range(0, Z.shape[0], _CHUNK):
        zs = Z[start : start + _CHUNK] / model.bandwidth
        a, top = buf[: zs.shape[0]], is_max[: zs.shape[0]]
        # a = -0.5 * d2 with d2 = |z|^2 - 2 z.p + |p|^2, clamped at 0
        np.matmul(2.0 * zs, scaled_pts.T, out=a)
        np.subtract(np.sum(zs**2, axis=1)[:, None], a, out=a)
        a += pts_sq
        np.maximum(a, 0.0, out=a)
        a *= -0.5
        # scipy.special.logsumexp's arithmetic, in this order, so that the
        # output stays bit-identical to it: the m entries equal to the row
        # max leave the sum, which is then log1p(s / m) + log(m) + max; a
        # row whose distances all overflowed to inf gives -inf, as scipy's
        a_max = a.max(axis=1, keepdims=True)
        np.equal(a, a_max, out=top)
        m = np.count_nonzero(top, axis=1).astype(np.float64)
        np.copyto(a, -np.inf, where=top)
        with np.errstate(invalid="ignore"):
            a -= a_max
        np.exp(a, out=a)
        s = a.sum(axis=1)
        a_max = a_max[:, 0]
        lse = np.log1p(s / m) + np.log(m) + a_max
        lse[a_max == -np.inf] = -np.inf
        out[start : start + _CHUNK] = lse
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
