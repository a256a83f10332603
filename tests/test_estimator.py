"""Tests for the shift oracle and the kernel estimator."""

import dataclasses
import multiprocessing
import os
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oodshift import (
    ColoredSpec,
    EstimatorConfig,
    LatentSpec,
    MlpConfig,
    Rng,
    estimate,
    estimate_pipeline,
    gen_colored,
    gen_latent,
    latent_spec_a,
    latent_spec_tv,
    oracle_shift,
    random_latent_spec,
    sweep,
)
from oodshift import estimator
from oodshift.estimator import _BANDWIDTH_SCALE, _EPS


# ---------------------------------------------------------------------------
# config


def test_config_validation():
    with pytest.raises(ValueError):
        EstimatorConfig(n_mc_samples=0).validate()
    with pytest.raises(ValueError):
        EstimatorConfig(n_runs=0).validate()


def test_config_defaults():
    cfg = EstimatorConfig()
    assert cfg.n_mc_samples == 10_000
    assert cfg.n_runs == 5
    # the region threshold and the bandwidth are module constants, not
    # config fields
    assert {f.name for f in dataclasses.fields(cfg)} == {"n_mc_samples", "n_runs"}
    assert _EPS == 1e-2
    assert _BANDWIDTH_SCALE == 0.7


# ---------------------------------------------------------------------------
# oracle


def test_oracle_latent_a():
    assert oracle_shift(latent_spec_a()) == pytest.approx((0.5, 0.4), abs=1e-12)


def test_oracle_symmetry():
    r = Rng(21)
    for _ in range(300):
        spec = random_latent_spec(r, n_support=int(r.integers(2, 6)))
        swapped = LatentSpec(
            support=spec.support,
            p_z=spec.q_z,
            q_z=spec.p_z,
            p_y_given_z=spec.q_y_given_z,
            q_y_given_z=spec.p_y_given_z,
        )
        assert oracle_shift(spec) == pytest.approx(oracle_shift(swapped), abs=1e-12)


def test_oracle_bounds_random_specs():
    r = Rng(22)
    for _ in range(1000):
        dd, dc = oracle_shift(random_latent_spec(r, n_support=int(r.integers(2, 7))))
        assert 0.0 <= dd <= 1.0
        assert 0.0 <= dc <= 1.0


def test_oracle_identical_envs_zero():
    assert oracle_shift(latent_spec_tv(0.0)) == (0.0, 0.0)


def test_oracle_disjoint_support():
    spec = LatentSpec(
        support=np.array([0.0, 1.0]),
        p_z=np.array([1.0, 0.0]),
        q_z=np.array([0.0, 1.0]),
        p_y_given_z=np.full((2, 2), 0.5),
        q_y_given_z=np.full((2, 2), 0.5),
    )
    assert oracle_shift(spec) == (1.0, 0.0)


# ---------------------------------------------------------------------------
# estimate (raw features, no discriminator)


def _latent_features(seed=3, n=2000, noise=0.05, spec=None):
    ds = gen_latent(spec or latent_spec_a(), n, Rng(seed), noise_std=noise)
    tr = ds.envs == 0
    return ds.features[tr], ds.features[~tr], ds.labels[tr], ds.labels[~tr]


def test_estimate_latent_a_raw_features():
    F_tr, F_te, y_tr, y_te = _latent_features()
    cfg = EstimatorConfig(n_runs=1)
    d_div, d_cor, _ = estimate(F_tr, F_te, y_tr, y_te, cfg, Rng(4))
    assert d_div == pytest.approx(0.5, abs=0.1)
    assert d_cor == pytest.approx(0.4, abs=0.1)


def test_estimate_identical_environments_near_zero():
    r = Rng(5)
    F = r.normal(0.0, 1.0, (4000, 2))
    y = r.integers(0, 2, 4000)
    cfg = EstimatorConfig(n_runs=1)
    d_div, d_cor, _ = estimate(F[:2000], F[2000:], y[:2000], y[2000:], cfg, Rng(6))
    assert d_div < 0.05
    assert abs(d_cor) < 0.05


def test_estimate_identical_environments_unbiased_over_folds():
    # the cross-fitted gap has mean 0 where the true gap is 0, so d_cor
    # averages to 0 over fold draws rather than to a positive floor
    r = Rng(5)
    F = r.normal(0.0, 1.0, (4000, 2))
    y = r.integers(0, 2, 4000)
    cfg = EstimatorConfig(n_runs=1)
    d_cors = [estimate(F[:2000], F[2000:], y[:2000], y[2000:], cfg, Rng(s))[1] for s in range(20)]
    assert abs(np.mean(d_cors)) < 0.01


def test_estimate_deterministic():
    F_tr, F_te, y_tr, y_te = _latent_features()
    cfg = EstimatorConfig(n_runs=1)
    a = estimate(F_tr, F_te, y_tr, y_te, cfg, Rng(7))
    b = estimate(F_tr, F_te, y_tr, y_te, cfg, Rng(7))
    assert a[:2] == b[:2]


def test_estimate_nonnegative():
    F_tr, F_te, y_tr, y_te = _latent_features(seed=8)
    d_div, d_cor, _ = estimate(F_tr, F_te, y_tr, y_te, EstimatorConfig(n_runs=1), Rng(9))
    assert d_div >= 0.0 and d_cor >= 0.0


def test_estimate_rejects_dim_mismatch():
    with pytest.raises(ValueError, match="2-D"):
        estimate(np.zeros((10, 2)), np.zeros((10, 3)), np.zeros(10, int),
                 np.zeros(10, int), EstimatorConfig(n_runs=1), Rng(0))
    # 1-D vectors are not read as one row or one column
    with pytest.raises(ValueError, match="2-D"):
        estimate(np.zeros(10), np.zeros(10), np.zeros(10, int),
                 np.zeros(10, int), EstimatorConfig(n_runs=1), Rng(0))
    with pytest.raises(ValueError, match="at least 2 rows"):
        estimate(np.zeros((1, 2)), np.zeros((10, 2)), np.zeros(1, int),
                 np.zeros(10, int), EstimatorConfig(n_runs=1), Rng(0))


def test_estimate_rejects_underpopulated_class():
    F = np.random.default_rng(0).normal(size=(10, 1))
    y_tr = np.array([0] * 9 + [1])
    y_te = np.array([0] * 5 + [1] * 5)
    with pytest.raises(ValueError, match="underpopulated"):
        estimate(F, F, y_tr, y_te, EstimatorConfig(n_runs=1), Rng(0))


def test_estimate_skewed_class_prior():
    # class 0 has prior 0.8 in both environments; the class priors are
    # measured from the labels, so d_cor does not assume them uniform
    spec = LatentSpec(
        support=np.array([0.0, 1.0]),
        p_z=np.array([0.5, 0.5]),
        q_z=np.array([0.5, 0.5]),
        p_y_given_z=np.array([[0.9, 0.1], [0.7, 0.3]]),
        q_y_given_z=np.array([[0.7, 0.3], [0.9, 0.1]]),
    )
    assert oracle_shift(spec) == pytest.approx((0.0, 0.2), abs=1e-12)
    F_tr, F_te, y_tr, y_te = _latent_features(n=3000, spec=spec)
    cfg = EstimatorConfig(n_runs=1)
    d_div, d_cor, _ = estimate(F_tr, F_te, y_tr, y_te, cfg, Rng(4))
    assert d_div < 0.02
    assert d_cor == pytest.approx(0.2, abs=0.05)


_RELABEL_DATA = _latent_features(
    n=300, spec=random_latent_spec(Rng(14), n_support=3, n_classes=3)
)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(0, 50), min_size=3, max_size=3, unique=True))
def test_estimate_invariant_to_class_relabelling(new_labels):
    # any injective relabelling, gaps and reordering included, leaves both
    # estimates unchanged
    F_tr, F_te, y_tr, y_te = _RELABEL_DATA
    relabel = np.asarray(new_labels)
    cfg = EstimatorConfig(n_runs=1, n_mc_samples=500)
    base = estimate(F_tr, F_te, y_tr, y_te, cfg, Rng(15))[:2]
    moved = estimate(F_tr, F_te, relabel[y_tr], relabel[y_te], cfg, Rng(15))[:2]
    assert moved == pytest.approx(base, abs=1e-12)


def _latent_a_with_noise_column(n):
    F_tr, F_te, y_tr, y_te = _latent_features(n=n)
    noise = Rng(16).normal(size=(2 * n, 1))
    return np.hstack([F_tr, noise[:n]]), np.hstack([F_te, noise[n:]]), y_tr, y_te


_AFFINE_DATA = _latent_a_with_noise_column(300)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=2),
    st.lists(st.floats(-100.0, 100.0), min_size=2, max_size=2),
)
def test_estimate_invariant_to_affine_features(log10_scales, shifts):
    # the pool is standardized before any kernel is fitted, so one positive
    # scale and one shift per dimension, applied to both environments,
    # leave both estimates unchanged up to rounding
    F_tr, F_te, y_tr, y_te = _AFFINE_DATA
    scale, shift = 10.0 ** np.asarray(log10_scales), np.asarray(shifts)
    cfg = EstimatorConfig(n_runs=1, n_mc_samples=500)
    base = estimate(F_tr, F_te, y_tr, y_te, cfg, Rng(17))[:2]
    moved = estimate(F_tr * scale + shift, F_te * scale + shift, y_tr, y_te, cfg, Rng(17))[:2]
    assert moved == pytest.approx(base, abs=1e-9)


def test_estimate_constant_feature_column():
    # a column with one value in both environments carries no information;
    # its std is floored, so it standardizes to 0 whatever the value, and
    # a zero column must not collapse the estimate to (0, 0)
    F_tr, F_te, y_tr, y_te = _latent_features()
    cfg = EstimatorConfig(n_runs=1, n_mc_samples=4000)
    results = []
    for value in (0.0, 0.1, 7.3):
        pad_tr = np.full((F_tr.shape[0], 1), value)
        pad_te = np.full((F_te.shape[0], 1), value)
        F2_tr, F2_te = np.hstack([F_tr, pad_tr]), np.hstack([F_te, pad_te])
        results.append(estimate(F2_tr, F2_te, y_tr, y_te, cfg, Rng(1))[:2])
    assert results[0] == results[1] == results[2]
    assert results[0][1] == pytest.approx(0.4, abs=0.1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_estimate_rejects_non_finite_features(bad):
    F_tr, F_te, y_tr, y_te = _latent_features(n=200)
    cfg = EstimatorConfig(n_runs=1, n_mc_samples=100)
    F_bad = F_tr.copy()
    F_bad[7, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        estimate(F_bad, F_te, y_tr, y_te, cfg, Rng(0))
    with pytest.raises(ValueError, match="finite"):
        estimate(F_tr, F_bad, y_tr, y_te, cfg, Rng(0))


@pytest.mark.parametrize("M", [1, 2])
def test_estimate_few_mc_samples(M):
    # one or two evaluation points, which may all come from one environment
    F_tr, F_te, y_tr, y_te = _latent_features(n=200)
    for seed in range(8):
        cfg = EstimatorConfig(n_runs=1, n_mc_samples=M)
        d_div, d_cor, diag = estimate(F_tr, F_te, y_tr, y_te, cfg, Rng(seed))
        assert np.isfinite([d_div, d_cor]).all()
        assert d_div >= 0.0 and d_cor >= 0.0
        assert diag["frac_div_region"] + diag["frac_cor_region"] <= 1.0


def test_region_masks_mutually_exclusive():
    # every evaluation point is in exactly one region: there is no gap
    for seed, M in ((0, 100), (1, 10_000)):
        F_tr, F_te, y_tr, y_te = _latent_features(seed=seed, n=300)
        cfg = EstimatorConfig(n_runs=1, n_mc_samples=M)
        diag = estimate(F_tr, F_te, y_tr, y_te, cfg, Rng(seed))[2]
        assert 0.0 < diag["frac_div_region"] < 1.0
        assert diag["frac_div_region"] + diag["frac_cor_region"] == 1.0


def _reference_estimate(F_tr, F_te, y_tr, y_te, fold, at):
    # the README's formulas as loops over the evaluation points `at`, with
    # each point's own kernel left out
    Z = np.concatenate([F_tr, F_te])
    Z = (Z - Z.mean(axis=0)) / Z.std(axis=0)
    (n_tr, m), n = F_tr.shape, Z.shape[0]
    h = _BANDWIDTH_SCALE * n_tr ** (-1.0 / (m + 4))
    env = [0] * n_tr + [1] * (n - n_tr)
    y = list(y_tr) + list(y_te)
    classes = sorted(set(y))
    d_div = d_cor = 0.0
    for i in at:
        S = {(f, e, c): 0.0 for f in (0, 1) for e in (0, 1) for c in classes}
        for j in range(n):
            if j != i:
                S[fold[j], env[j], y[j]] += np.exp(-0.5 * np.sum((Z[i] - Z[j]) ** 2) / h**2)
        p = sum(S[f, 0, c] for f in (0, 1) for c in classes) / n_tr
        q = sum(S[f, 1, c] for f in (0, 1) for c in classes) / (n - n_tr)
        w = (n_tr * p + (n - n_tr) * q) / n
        if min(p, q) < 1e-2 * w:
            d_div += 0.5 * abs(p - q) / w
            continue
        gaps = [
            [S[f, 0, c] / sum(S[f, 0, k] for k in classes)
             - S[f, 1, c] / sum(S[f, 1, k] for k in classes) for c in classes]
            for f in (0, 1)
        ]
        cross = 0.5 * sum(
            np.sign(g0) * g1 + np.sign(g1) * g0 for g0, g1 in zip(*gaps)
        )
        d_cor += 0.5 * cross * np.sqrt(p * q) / w
    return d_div / len(at), d_cor / len(at)


@pytest.mark.parametrize("M", [30, 10_000])
def test_estimate_matches_reference_loops(monkeypatch, M):
    # blocks of 3 rows put many block boundaries in the one pass; M = 30
    # evaluates a seeded subset of the 55 pooled points
    monkeypatch.setattr(estimator, "_BLOCK", 3 * 55)
    r = Rng(18)
    F_tr = r.normal(0.0, 1.0, (30, 2))
    F_te = r.normal(0.7, 1.0, (25, 2))
    y_tr, y_te = r.integers(0, 2, 30), r.integers(0, 2, 25)
    F_te[:5] += 6.0  # a cluster only environment 1 has
    cfg = EstimatorConfig(n_runs=1, n_mc_samples=M)
    got = estimate(F_tr, F_te, y_tr, y_te, cfg, Rng(19))
    rng = Rng(19)
    fold = estimator._folds(np.concatenate([y_tr, 2 + y_te]), rng)
    at = range(55) if M >= 55 else rng.choice(55, M, replace=False)
    want = _reference_estimate(F_tr, F_te, y_tr, y_te, fold, at)
    assert got[0] > 0.0 and got[1] != 0.0
    assert got[:2] == pytest.approx(want, rel=1e-9, abs=1e-12)


def _whole_block_kernel_sums(Z, at, groups):
    # the kernel pass with every step on the whole block of rows, as it was
    # before the elementwise steps ran on sub-blocks
    n = Z.shape[0]
    sq = np.sum(Z**2, axis=1)
    S = np.empty((at.size, groups.shape[1]))
    rows = max(1, estimator._BLOCK // n)
    buf = np.empty((min(rows, at.size), n))
    for start in range(0, at.size, rows):
        i = at[start : start + rows]
        k = np.matmul(Z[i], Z.T, out=buf[: i.size])
        k *= -2.0
        k += sq
        k += sq[i, None]
        np.maximum(k, 0.0, out=k)
        k[np.arange(i.size), i] = np.inf
        k -= k.min(axis=1, keepdims=True)
        k *= -0.5
        np.exp(k, out=k)
        S[start : start + rows] = k @ groups
    return S


@pytest.mark.parametrize("n, m, n_at", [(8003, 1, 8003), (6001, 8, 5000), (1003, 3, 1003),
                                        (70, 2, 30)])
def test_kernel_sums_match_whole_block_steps_bit_for_bit(n, m, n_at):
    # pools that are not a multiple of 8 rows leave a short last sub-block in
    # every block, and a short last block
    r = Rng(n)
    Z = r.normal(0.0, 1.0, (n, m))
    at = np.arange(n) if n_at == n else r.choice(n, n_at, replace=False)
    groups = np.eye(8)[r.integers(0, 8, n)]
    # a matmul's last bits depend on the BLAS thread count, so both passes
    # run on one thread, as every run does
    with estimator._one_blas_thread():
        want = _whole_block_kernel_sums(Z, at, groups)
        got = estimator._kernel_sums(Z, at, groups)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "spec", [latent_spec_a(), random_latent_spec(Rng(14), 3, 3)], ids=["latent-a", "random"]
)
def test_estimate_symmetric_under_environment_swap(spec):
    # d_div does not depend on the folds, so swapping the environments moves
    # it only by rounding; d_cor does, through the seeded folds, so only its
    # mean over fold seeds must agree
    F_tr, F_te, y_tr, y_te = _latent_features(n=1500, spec=spec)
    cfg = EstimatorConfig(n_runs=1)
    ab = np.array([estimate(F_tr, F_te, y_tr, y_te, cfg, Rng(s))[:2] for s in range(20)])
    ba = np.array([estimate(F_te, F_tr, y_te, y_tr, cfg, Rng(s))[:2] for s in range(20)])
    np.testing.assert_allclose(ba[:, 0], ab[:, 0], rtol=0, atol=1e-12)
    assert abs(ba[:, 1].mean() - ab[:, 1].mean()) < 0.01


def test_folds_split_every_group():
    # each group of 2 or more rows gets both folds, in halves that differ by
    # at most one row, and the folds depend on group membership only
    groups = Rng(20).integers(0, 5, 101)
    fold = estimator._folds(groups, Rng(21))
    for g in range(5):
        counts = np.bincount(fold[groups == g], minlength=2)
        assert abs(counts[0] - counts[1]) <= 1 and counts.min() >= 1
    renamed = np.array([7, 3, 9, 0, 4])[groups]
    assert np.array_equal(estimator._folds(renamed, Rng(21)), fold)


def test_estimate_robust_to_isolated_and_tiny_inputs():
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        # one row far from all others: its kernel sums would underflow to 0
        F_tr, F_te, y_tr, y_te = _latent_features(n=200)
        F_tr[0] += 1e3
        result = estimate(F_tr, F_te, y_tr, y_te, EstimatorConfig(n_runs=1), Rng(0))
        assert np.isfinite(result[:2]).all()
        # one fold of environment 0 lies far away from environment 1: near
        # environment 1 that fold has no kernel mass to condition on
        F_tr = np.array([[0.0], [1e3], [0.5], [1e3 + 1.0]])
        y_tr = np.array([0, 0, 1, 1])
        F_te = Rng(1).normal(size=(1000, 1))
        y_te = np.arange(1000) % 2
        for seed in range(4):
            result = estimate(F_tr, F_te, y_tr, y_te, EstimatorConfig(n_runs=1), Rng(seed))
            assert np.isfinite(result[:2]).all()
        # the smallest input accepted: 2 rows per class and environment
        for seed in range(50):
            r = Rng(seed)
            for n_classes in (1, 2):
                y = np.repeat(np.arange(n_classes), 2)
                F = r.normal(size=(2, y.size, 2))
                d_div, d_cor, _ = estimate(F[0], F[1], y, y, EstimatorConfig(n_runs=1), r)
                assert np.isfinite([d_div, d_cor]).all()
    # disjoint clusters: all mass is diversity shift
    r = Rng(4)
    F_tr, F_te = r.normal(0.0, 1.0, (2, 200, 2))
    y = r.integers(0, 2, 200)
    d_div, d_cor, _ = estimate(F_tr, F_te + 100.0, y, y, EstimatorConfig(n_runs=1), Rng(5))
    assert d_div == pytest.approx(1.0, abs=1e-6)
    assert d_cor == 0.0


def test_mc_convergence_toward_oracle():
    # n_mc_samples caps the evaluation points: at or above the pooled row
    # count every point is used, and fewer points do not bring the estimate
    # closer to the oracle
    F_tr, F_te, y_tr, y_te = _latent_features(n=2000)
    n = 4000
    one_seed = {
        estimate(F_tr, F_te, y_tr, y_te, EstimatorConfig(n_mc_samples=M), Rng(100))[:2]
        for M in (n, 10_000, 100_000)
    }
    assert len(one_seed) == 1
    oracle = np.array([0.5, 0.4])
    errs = []
    for M in (n // 8, n):
        gaps = []
        for seed in range(10):
            cfg = EstimatorConfig(n_runs=1, n_mc_samples=M)
            dd, dc, _ = estimate(F_tr, F_te, y_tr, y_te, cfg, Rng(100 + seed))
            gaps.append(np.abs(np.array([dd, dc]) - oracle).sum())
        errs.append(np.mean(gaps))
    assert errs[1] <= errs[0]


# ---------------------------------------------------------------------------
# estimate_pipeline


def _pipeline_setup():
    ds = gen_latent(latent_spec_a(), 500, Rng(30), noise_std=0.05)
    mlp = MlpConfig(hidden_dims=(16,), iters=100, checkpoint_every=50)
    est = EstimatorConfig(n_runs=3, n_mc_samples=2000)
    return ds, mlp, est


def test_pipeline_aggregation_consistent():
    ds, mlp, est = _pipeline_setup()
    result = estimate_pipeline(ds, mlp, est, base_seed=40)
    arr = np.asarray(result.per_run)
    assert len(result.per_run) == est.n_runs
    assert result.d_div == pytest.approx(arr[:, 0].mean(), abs=1e-12)
    assert result.d_cor == pytest.approx(arr[:, 1].mean(), abs=1e-12)
    assert result.stderr_div == pytest.approx(
        arr[:, 0].std(ddof=1) / np.sqrt(len(arr)), abs=1e-12
    )
    assert (arr >= 0.0).all()
    assert result.over_one_flag == bool((arr > 1.0).any())
    assert len(result.diagnostics["val_accuracy_per_run"]) == est.n_runs


def test_pipeline_deterministic():
    ds, mlp, est = _pipeline_setup()
    a = estimate_pipeline(ds, mlp, est, base_seed=41)
    b = estimate_pipeline(ds, mlp, est, base_seed=41)
    assert a.per_run == b.per_run


def test_pipeline_requires_both_envs():
    ds, mlp, est = _pipeline_setup()
    sub = ds.subset(np.nonzero(ds.envs == 0)[0])
    with pytest.raises(ValueError):
        estimate_pipeline(sub, mlp, est, base_seed=42)


def test_pipeline_to_dict_round_trips_json():
    import json

    ds, mlp, est = _pipeline_setup()
    result = estimate_pipeline(ds, mlp, est, base_seed=43)
    doc = json.loads(json.dumps(dataclasses.asdict(result)))
    assert doc["d_div"] == result.d_div


# ---------------------------------------------------------------------------
# the run executor


def test_pipeline_same_at_any_worker_count(monkeypatch):
    # every run executes on one BLAS thread, so the worker count and the
    # order the runs finish in change no bit of the result
    ds, mlp, est = _pipeline_setup()
    per_run = {}
    for workers in (1, 2):
        monkeypatch.setattr(estimator, "_n_workers", lambda n, w=workers: min(n, w))
        per_run[workers] = estimate_pipeline(ds, mlp, est, base_seed=44).per_run
    with estimator._one_blas_thread():
        serial = [estimator._run(ds, mlp, est, 44 + i)[0] for i in range(est.n_runs)]
    assert per_run[1] == per_run[2] == serial


def test_run_estimator_draws_do_not_depend_on_training_length(monkeypatch):
    # a training that consumes more draws from the run's Rng leaves the
    # estimator's folds and evaluation subset, on a stream of their own, alone
    ds, mlp, est = _pipeline_setup()
    est = dataclasses.replace(est, n_mc_samples=300)
    before = estimator._run(ds, mlp, est, 44)[0]
    real_train = estimator.train

    def longer_train(ds, cfg, rng):
        model = real_train(ds, cfg, rng)
        rng.random(1000)
        return model

    monkeypatch.setattr(estimator, "train", longer_train)
    assert estimator._run(ds, mlp, est, 44)[0] == before


def test_map_keeps_item_order():
    def task(i):
        # later items finish first on a pool of two or more threads
        time.sleep(0.01 * (5 - i))
        return i

    assert estimator._map(task, range(5)) == list(range(5))


def _two_workers(monkeypatch):
    # a pool of two even on one core; without numpy's OpenBLAS _map runs
    # inline, where the tests that do not skip hold all the same
    monkeypatch.setattr(estimator, "_n_workers", lambda n: min(n, 2))


def test_map_runs_tasks_on_worker_processes(monkeypatch):
    if estimator._openblas() is None:
        pytest.skip("numpy's bundled OpenBLAS not found")
    _two_workers(monkeypatch)
    pids = estimator._map(lambda _: os.getpid(), range(4))
    assert os.getpid() not in pids


def test_map_reraises_a_task_error_with_its_type_and_message(monkeypatch):
    _two_workers(monkeypatch)

    def task(i):
        if i == 2:
            raise ValueError(f"task {i} failed")
        return i

    with pytest.raises(ValueError) as exc:
        estimator._map(task, range(4))
    assert type(exc.value) is ValueError and str(exc.value) == "task 2 failed"


def test_map_leaves_no_worker_processes(monkeypatch):
    _two_workers(monkeypatch)
    assert estimator._map(abs, [-1, -2, -3]) == [1, 2, 3]
    assert multiprocessing.active_children() == []
    with pytest.raises(ValueError):
        estimator._map(int, ["1", "x", "3"])
    assert multiprocessing.active_children() == []


def test_map_raises_when_a_worker_dies(monkeypatch):
    # a worker killed mid-task (say, out of memory) fails the call, with an
    # error the CLI maps to exit 1, rather than leaving it waiting
    if estimator._openblas() is None:
        pytest.skip("numpy's bundled OpenBLAS not found")
    _two_workers(monkeypatch)
    with pytest.raises(RuntimeError):
        estimator._map(lambda i: os._exit(1) if i == 1 else i, range(4))
    assert multiprocessing.active_children() == []


def _blas_threads():
    return estimator._openblas().scipy_openblas_get_num_threads64_()


@pytest.fixture
def blas_at_two():
    """numpy's OpenBLAS set to 2 threads, and its old count put back after."""
    lib = estimator._openblas()
    if lib is None:
        pytest.skip("numpy's bundled OpenBLAS not found")
    old = _blas_threads()
    lib.scipy_openblas_set_num_threads64_(2)
    yield
    lib.scipy_openblas_set_num_threads64_(old)


def test_blas_threads_capped_in_runs_and_restored(monkeypatch, blas_at_two):
    # runs execute in worker processes, so each returns the count it saw in
    # place of its validation accuracy
    real_run = estimator._run

    def reporting_run(*args):
        blas = _blas_threads()
        d, _, diag = real_run(*args)
        return d, blas, diag

    monkeypatch.setattr(estimator, "_run", reporting_run)
    ds, mlp, est = _pipeline_setup()
    result = estimate_pipeline(ds, mlp, est, base_seed=45)
    assert result.diagnostics["val_accuracy_per_run"] == [1] * est.n_runs
    assert _blas_threads() == 2


def test_blas_threads_restored_after_a_run_raises(monkeypatch, blas_at_two):
    real_run = estimator._run

    def failing_run(ds, mlp_cfg, est_cfg, seed):
        if seed == 47:
            raise ValueError("run 1 failed")
        return real_run(ds, mlp_cfg, est_cfg, seed)

    monkeypatch.setattr(estimator, "_run", failing_run)
    ds, mlp, est = _pipeline_setup()
    with pytest.raises(ValueError, match="run 1 failed"):
        estimate_pipeline(ds, mlp, est, base_seed=46)
    assert _blas_threads() == 2


def test_concurrent_callers_take_turns(blas_at_two):
    # two caller threads each run a pipeline; the shared BLAS setting must
    # hold for both, so each gets the result it gets alone
    ds, mlp, est = _pipeline_setup()
    alone = [estimate_pipeline(ds, mlp, est, base_seed=s).per_run for s in (48, 49)]
    # the callers overlap by chance, so a few rounds make an overlap likely
    for _ in range(3):
        got = {}

        def call(seed):
            got[seed] = estimate_pipeline(ds, mlp, est, base_seed=seed).per_run

        threads = [threading.Thread(target=call, args=(s,)) for s in (48, 49)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive()
        assert [got[48], got[49]] == alone
        assert _blas_threads() == 2


# ---------------------------------------------------------------------------
# sweep


def _sweep_setup():
    spec = ColoredSpec(rho_tr=0.1, rho_te=0.9, label_noise=0.0, n_per_env=60,
                       image_side=4)
    mlp = MlpConfig(hidden_dims=(8,), iters=40, checkpoint_every=20)
    est = EstimatorConfig(n_runs=1, n_mc_samples=500)
    return spec, mlp, est


def test_sweep_cell_count_and_axes():
    spec, mlp, est = _sweep_setup()
    grid = [0.2, 0.8]
    records = sweep(spec, "rho_tr", grid, "rho_te", grid, mlp, est, base_seed=50)
    assert len(records) == 4
    assert [(r["rho_tr"], r["rho_te"]) for r in records] == [
        (0.2, 0.2), (0.2, 0.8), (0.8, 0.2), (0.8, 0.8)
    ]
    for rec in records:
        # d_cor is unbiased at 0, so a cell near 0 can read below it
        assert rec["d_div"] >= 0.0 and np.isfinite(rec["d_cor"])


def test_sweep_cell_seed_scheme():
    # cell i generates from base + 10000*i and runs the pipeline from + 1;
    # any other executor of the cells must keep these records
    spec, mlp, est = _sweep_setup()
    est = dataclasses.replace(est, n_runs=2)
    grid = [0.1, 0.9]
    base = 51
    records = sweep(spec, "rho_tr", grid, "rho_te", grid, mlp, est, base_seed=base)
    cells = [(a, b) for a in grid for b in grid]
    assert len(records) == len(cells)
    for i, ((a, b), rec) in enumerate(zip(cells, records)):
        seed = base + 10000 * i
        ds = gen_colored(dataclasses.replace(spec, rho_tr=a, rho_te=b), Rng(seed))
        result = estimate_pipeline(ds, mlp, est, seed + 1)
        assert rec == {
            "rho_tr": a, "rho_te": b,
            "d_div": result.d_div, "d_cor": result.d_cor,
            "stderr_div": result.stderr_div, "stderr_cor": result.stderr_cor,
        }
