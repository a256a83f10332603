"""Tests for the baseline shift metrics (MMD, EMD, NI)."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from oodshift import ColoredSpec, LabeledDataset, Rng, emd, gen_colored, mmd, ni
from oodshift import estimator
from oodshift.baselines import _N_SUB, compare_table
from oodshift import EstimatorConfig, MlpConfig


# ---------------------------------------------------------------------------
# metric axioms


def test_mmd_identity_is_exactly_zero():
    A = Rng(0).normal(size=(50, 3))
    assert mmd(A, A) == 0.0


def test_emd_identity_is_exactly_zero():
    A = Rng(1).normal(size=(50, 3))
    assert emd(A, A) == 0.0


def test_mmd_symmetry_exact():
    r = Rng(2)
    A, B = r.normal(size=(40, 2)), r.normal(1.0, 1.0, (40, 2))
    assert mmd(A, B) == mmd(B, A)


def test_emd_symmetry_exact():
    r = Rng(3)
    A, B = r.normal(size=(40, 2)), r.normal(1.0, 1.0, (40, 2))
    assert emd(A, B) == emd(B, A)


def test_emd_matches_brute_force_n6():
    # exact min-cost matching vs all 6! permutations
    for trial in range(100):
        r = Rng(5000 + trial)
        X = r.normal(0.0, 1.0, (6, 3))
        Y = r.normal(0.5, 1.0, (6, 3))
        cost = cdist(X, Y)
        brute = min(
            sum(cost[i, p[i]] for i in range(6))
            for p in itertools.permutations(range(6))
        )
        assert emd(X, Y) == pytest.approx(brute / 6 / math.sqrt(3), abs=1e-12)


def test_emd_triangle_inequality():
    for trial in range(1000):
        r = Rng(7000 + trial)
        A = r.normal(0.0, 1.0, (16, 2))
        B = r.normal(0.5, 1.2, (16, 2))
        C = r.normal(-0.5, 0.8, (16, 2))
        assert emd(A, C) <= emd(A, B) + emd(B, C) + 1e-12


def test_mmd_grows_with_shift():
    r = Rng(4)
    A = r.normal(0.0, 1.0, (400, 2))
    vals = [mmd(A, r.normal(mu, 1.0, (400, 2))) for mu in (0.0, 1.0, 3.0)]
    assert vals[0] < vals[1] < vals[2]


def test_emd_grows_with_shift():
    r = Rng(5)
    A = r.normal(0.0, 1.0, (100, 2))
    vals = [emd(A, A + mu) for mu in (0.0, 1.0, 3.0)]
    assert vals[0] < vals[1] < vals[2]


def test_subsampling_caps_input():
    r = Rng(6)
    A = r.normal(size=(700, 2))
    B = r.normal(0.3, 1.0, (650, 2))
    # must terminate quickly and give a sane value despite n > 512
    val = emd(A, B, rng=Rng(7))
    assert 0.0 < val < 2.0


def test_metric_input_validation():
    A = np.zeros((5, 2))
    for metric in (mmd, emd):
        with pytest.raises(ValueError, match="nonempty"):
            metric(np.zeros((0, 2)), A)
        # a 1-D array is neither one row nor one column
        with pytest.raises(ValueError, match="2-D"):
            metric(np.array([0.0, 1.0]), np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="2-D"):
            metric(A, A[:, 0])
        with pytest.raises(ValueError, match="same number of features"):
            metric(A, np.zeros((5, 3)))
    # the unbiased MMD^2 divides by n (n - 1)
    with pytest.raises(ValueError, match="at least 2 rows"):
        mmd(np.zeros((1, 2)), np.ones((1, 2)))
    with pytest.raises(ValueError, match="at least 2 rows"):
        mmd(A, np.ones((1, 2)))


def _reference_mmd(F_tr, F_te, rng):
    # the plain form: subsample copies, a concatenate, a fresh distance
    # matrix per step, an upper-triangle mask and one kernel block per pair
    X, Y = np.asarray(F_tr, dtype=np.float64), np.asarray(F_te, dtype=np.float64)
    size = min(_N_SUB, X.shape[0], Y.shape[0])
    if X.shape[0] > size:
        X = X[rng.choice(X.shape[0], size=size, replace=False)]
    if Y.shape[0] > size:
        Y = Y[rng.choice(Y.shape[0], size=size, replace=False)]
    n = size
    pooled = np.concatenate([X, Y])
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
    off = ~np.eye(n, dtype=bool)
    mmd2 = (kxx[off] + kyy[off] - (kxy[off] + kxy.T[off])).sum() / (n * (n - 1))
    return math.sqrt(max(0.0, mmd2))


@pytest.mark.parametrize("case", ["small", "subsampled", "one_feature", "duplicates"])
def test_mmd_matches_reference_bit_for_bit(case):
    r = Rng(11)
    if case == "small":  # n < _N_SUB: both sets kept whole
        A, B = r.normal(size=(60, 5)), r.normal(0.4, 1.0, (45, 5))
    elif case == "subsampled":  # n > _N_SUB in both sets
        A, B = r.normal(size=(700, 30)), r.normal(0.2, 1.0, (600, 30))
    elif case == "one_feature":
        A, B = r.normal(size=(600, 1)), r.normal(0.5, 1.0, (80, 1))
    else:  # repeated rows: zero distances, clipped round-off
        base = r.normal(size=(15, 4))
        A, B = np.repeat(base, 4, axis=0), np.tile(base[:6], (9, 1))
    for seed in range(3):
        assert mmd(A, B, Rng(seed)) == _reference_mmd(A, B, Rng(seed))


def test_mmd_peak_memory_within_two_distance_matrices():
    # two (800, 588) sets: a 1024 x 1024 float64 distance matrix is 8 MiB
    r = Rng(12)
    A, B = r.uniform(size=(800, 588)), r.uniform(size=(800, 588))
    tracemalloc.start()
    try:
        mmd(A, B, Rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * (2 * _N_SUB) ** 2 * 8


# ---------------------------------------------------------------------------
# NI


def _ni_dataset(scale=1.0, seed=8):
    r = Rng(seed)
    feats = np.concatenate([r.normal(0.0, 1.0, (200, 3)),
                            r.normal(0.7, 1.0, (200, 3))]) * scale
    labels = np.tile(np.repeat([0, 1], 100), 2)
    envs = np.repeat([0, 1], 200)
    return LabeledDataset(feats, labels, envs)


def test_ni_scale_invariance():
    base = ni(_ni_dataset(scale=1.0))
    for c in (1e-3, 7.0, 1e4):
        assert ni(_ni_dataset(scale=c)) == pytest.approx(base, abs=1e-9)


def test_ni_zero_for_identical_environments():
    r = Rng(9)
    feats = np.tile(r.normal(size=(200, 2)), (2, 1))
    labels = np.tile(r.integers(0, 2, 200), 2)
    envs = np.repeat([0, 1], 200)
    assert ni(LabeledDataset(feats, labels, envs)) == pytest.approx(0.0, abs=1e-12)


def test_ni_missing_class_raises():
    ds = _ni_dataset()
    sub = ds.subset(np.nonzero(~((ds.envs == 1) & (ds.labels == 1)))[0])
    with pytest.raises(ValueError, match="missing"):
        ni(sub)


# ---------------------------------------------------------------------------
# compare_table


def test_compare_table_rows_and_averaging():
    specs = [
        ColoredSpec(rho_tr=0.1, rho_te=0.9, n_per_env=60, image_side=4),
        ColoredSpec(rho_tr=0.1, rho_te=0.1, mu_tr=0.0, mu_te=1.0,
                    sigma_tr=0.1, sigma_te=0.1, n_per_env=60, image_side=4),
    ]
    mlp = MlpConfig(hidden_dims=(8,), iters=40, checkpoint_every=20)
    est = EstimatorConfig(n_runs=2, n_mc_samples=500)
    rows = compare_table(specs, mlp, est, base_seed=60)
    assert len(rows) == 2
    assert [(r["rho_te"], r["blue"]) for r in rows] == [(0.9, 0), (0.1, 1)]
    for row in rows:
        assert row["emd"] >= 0.0 and row["mmd"] >= 0.0 and row["ni"] >= 0.0
        assert row["d_div"] >= 0.0 and row["d_cor"] >= 0.0
    # the blue-disjoint row must dwarf the rho-only row on every raw metric
    assert rows[1]["emd"] > rows[0]["emd"]
    assert rows[1]["mmd"] > rows[0]["mmd"]
    # each row is the mean and ddof=1 stderr over runs seeded base + 1000 * run
    emds = []
    for run in range(2):
        rng = Rng(60 + 1000 * run)
        ds = gen_colored(specs[0], rng)
        emds.append(emd(ds.features[ds.envs == 0], ds.features[ds.envs == 1], rng))
    assert rows[0]["emd"] == np.mean(emds)
    assert rows[0]["emd_stderr"] == np.std(emds, ddof=1) / math.sqrt(2)


def test_compare_table_same_at_any_worker_count(monkeypatch):
    # one run per spec, so the pool gets one task per spec; each task runs on
    # one BLAS thread, so the worker count changes no bit of any record
    specs = [
        ColoredSpec(rho_tr=0.1, rho_te=rho, n_per_env=50, image_side=4)
        for rho in (0.9, 0.5, 0.1)
    ]
    mlp = MlpConfig(hidden_dims=(8,), iters=30, checkpoint_every=10)
    est = EstimatorConfig(n_runs=1, n_mc_samples=200)
    records = {}
    for workers in (1, 2):
        monkeypatch.setattr(estimator, "_n_workers", lambda n, w=workers: min(n, w))
        records[workers] = compare_table(specs, mlp, est, base_seed=70)
    assert records[1] == records[2]
    assert [r["rho_te"] for r in records[1]] == [0.9, 0.5, 0.1]
