"""Tests for the baseline shift metrics (MMD, EMD, NI)."""

import itertools
import math

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from oodshift import ColoredSpec, LabeledDataset, Rng, emd, gen_colored, mmd, ni
from oodshift.baselines import compare_table
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
    # the unbiased MMD^2 divides by n (n - 1)
    with pytest.raises(ValueError, match="at least 2 rows"):
        mmd(np.zeros((1, 2)), np.ones((1, 2)))
    with pytest.raises(ValueError, match="at least 2 rows"):
        mmd(A, np.ones((1, 2)))


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
    mlp = MlpConfig(in_dim=48, n_classes=2, hidden_dims=(8,), iters=40,
                    checkpoint_every=20)
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
