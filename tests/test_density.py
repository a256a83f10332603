"""Tests for the Gaussian KDE."""

import numpy as np
import pytest
from scipy.special import logsumexp

from oodshift import Rng, kde_fit, kde_logpdf, kde_pdf, kde_sample

INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)  # = N(0,1) density at 0


# ---------------------------------------------------------------------------
# kde_fit


def test_kde_scott_bandwidth_formula():
    F = Rng(3).normal(0.0, 2.0, (1000, 3))
    model = kde_fit(F)
    expected = F.std(axis=0) * 1000 ** (-1.0 / 7.0)
    assert np.allclose(model.bandwidth, expected, rtol=1e-12)


def test_kde_std_override_shares_scale():
    F1 = Rng(4).normal(0.0, 0.1, (200, 2))
    F2 = Rng(5).normal(0.0, 5.0, (200, 2))
    m1 = kde_fit(F1, std=1.0)
    m2 = kde_fit(F2, std=1.0)
    assert np.array_equal(m1.bandwidth, m2.bandwidth)


def test_kde_needs_two_rows():
    with pytest.raises(ValueError):
        kde_fit(np.zeros((1, 2)))


def test_kde_duplicate_points_finite():
    model = kde_fit(np.zeros((2, 1)))
    assert np.isfinite(kde_pdf(model, np.array([0.0])))


# ---------------------------------------------------------------------------
# kde_logpdf / kde_pdf


def test_kde_single_gaussian_exact():
    # one point at the origin with unit bandwidth is exactly N(0,1)
    from oodshift import KdeModel

    model = KdeModel(
        points=np.array([[0.0]]),
        bandwidth=np.array([1.0]),
        log_norm_const=float(np.log(INV_SQRT_2PI)),
    )
    assert kde_pdf(model, np.array([0.0])) == pytest.approx(INV_SQRT_2PI, abs=1e-12)
    assert kde_pdf(model, np.array([1.0])) == pytest.approx(
        INV_SQRT_2PI * np.exp(-0.5), abs=1e-12
    )


def test_kde_standard_normal_density_at_zero():
    sample = Rng(6).normal(0.0, 1.0, (10_000, 1))
    model = kde_fit(sample)
    assert kde_pdf(model, np.array([0.0])) == pytest.approx(INV_SQRT_2PI, abs=0.02)


def test_kde_symmetry():
    pts = np.array([[-2.0], [-1.0], [1.0], [2.0]])
    model = kde_fit(pts)
    for z in (0.3, 1.1, 2.7):
        assert kde_pdf(model, np.array([z])) == pytest.approx(
            kde_pdf(model, np.array([-z])), rel=1e-12
        )


def test_kde_positive_everywhere():
    model = kde_fit(Rng(7).normal(size=(50, 2)))
    q = Rng(8).uniform(-3, 3, (100, 2))
    assert (kde_pdf(model, q) > 0.0).all()


def test_kde_far_query_log_density():
    model = kde_fit(Rng(9).normal(size=(100, 1)))
    far = np.array([float(100 * model.bandwidth[0] + model.points.max())])
    # gradual underflow to 0 inside the log-sum-exp is expected and benign;
    # what must never happen is overflow or NaN
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        log_p = kde_logpdf(model, far)
    assert log_p < -1000.0
    assert np.isfinite(log_p)


def test_kde_dim_mismatch():
    model = kde_fit(np.zeros((5, 2)))
    with pytest.raises(ValueError):
        kde_logpdf(model, np.zeros((3, 3)))


def test_kde_chunking_consistent():
    # 700 queries span three chunks; scoring them split at row 7 moves
    # every chunk boundary
    model = kde_fit(Rng(10).normal(size=(300, 2)))
    q = Rng(11).normal(size=(700, 2))
    split = np.concatenate([kde_logpdf(model, q[:7]), kde_logpdf(model, q[7:])])
    assert np.allclose(kde_logpdf(model, q), split, atol=1e-12)


def _reference_logpdf(model, Z, chunk=256):
    # the chunked distance formula plus scipy's log-sum-exp, which
    # kde_logpdf reproduces bit for bit
    scaled_pts = model.points / model.bandwidth
    out = np.empty(Z.shape[0])
    for start in range(0, Z.shape[0], chunk):
        zs = Z[start : start + chunk] / model.bandwidth
        d2 = (
            np.sum(zs**2, axis=1)[:, None]
            - 2.0 * zs @ scaled_pts.T
            + np.sum(scaled_pts**2, axis=1)[None, :]
        )
        np.maximum(d2, 0.0, out=d2)
        out[start : start + chunk] = logsumexp(-0.5 * d2, axis=1)
    return out + model.log_norm_const


@pytest.mark.parametrize("dim", [1, 8])
@pytest.mark.parametrize("n_query", [1, 255, 256, 257])
def test_kde_logpdf_bit_identical_to_scipy_logsumexp(dim, n_query):
    r = Rng(20 + dim)
    pts = r.normal(size=(300, dim))
    pts[1] = pts[0]  # a duplicated centre: its queries tie at the row max
    model = kde_fit(pts)
    Z = r.normal(0.0, 2.0, (n_query, dim))
    Z[0] = pts[0]
    if n_query > 1:
        Z[-1] = pts.max(axis=0) + 100 * model.bandwidth  # far from every centre
    assert np.array_equal(kde_logpdf(model, Z), _reference_logpdf(model, Z))


def test_kde_logpdf_overflowing_query_is_minus_inf():
    # every squared distance overflows to inf, so the row max is -inf
    model = kde_fit(Rng(24).normal(size=(50, 2)))
    Z = np.full((3, 2), 1e200)
    with np.errstate(over="ignore"):
        log_p = kde_logpdf(model, Z)
        assert np.array_equal(log_p, _reference_logpdf(model, Z))
    assert (log_p == -np.inf).all()


# ---------------------------------------------------------------------------
# normalization (Monte Carlo)


def test_kde_normalization_1d():
    # E_{z~w}[p(z)/w(z)] = integral of p = 1 when w covers p's support
    r = Rng(12)
    p = kde_fit(r.normal(0.0, 1.0, (2000, 1)))
    w = kde_fit(r.normal(0.0, 1.5, (2000, 1)))
    draws = kde_sample(w, 20_000, r)
    ratio = np.exp(kde_logpdf(p, draws) - kde_logpdf(w, draws))
    assert ratio.mean() == pytest.approx(1.0, abs=0.01)


def test_kde_normalization_2d():
    r = Rng(13)
    p = kde_fit(r.normal(0.0, 1.0, (2000, 2)))
    w = kde_fit(r.normal(0.0, 1.5, (2000, 2)))
    draws = kde_sample(w, 20_000, r)
    ratio = np.exp(kde_logpdf(p, draws) - kde_logpdf(w, draws))
    assert ratio.mean() == pytest.approx(1.0, abs=0.01)


# ---------------------------------------------------------------------------
# kde_sample


def test_kde_sample_mean_matches_fit_mean():
    r = Rng(14)
    pts = r.normal(2.0, 1.0, (500, 2))
    model = kde_fit(pts)
    draws = kde_sample(model, 100_000, r)
    # mixture mean = mean of fit points; draws concentrate by CLT
    spread = np.sqrt(pts.var(axis=0) + model.bandwidth**2)
    assert (np.abs(draws.mean(axis=0) - pts.mean(axis=0))
            < 3 * spread / np.sqrt(100_000)).all()


def test_kde_sample_small_bandwidth_limit():
    pts = np.array([[0.0], [10.0], [20.0]])
    model = kde_fit(pts, bandwidth_scale=1e-30)  # floored at 1e-6
    draws = kde_sample(model, 1000, Rng(15))
    nearest = np.min(np.abs(draws - pts[:, 0][None, :]), axis=1)
    assert nearest.max() < 1e-4


def test_kde_sample_deterministic():
    model = kde_fit(Rng(16).normal(size=(100, 3)))
    a = kde_sample(model, 50, Rng(17))
    b = kde_sample(model, 50, Rng(17))
    assert np.array_equal(a, b)


def test_kde_sample_rejects_zero():
    model = kde_fit(np.zeros((3, 1)))
    with pytest.raises(ValueError):
        kde_sample(model, 0, Rng(0))
