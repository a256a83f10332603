"""Tests for the shift oracle and the Monte Carlo estimator."""

import dataclasses

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
from oodshift.estimator import _EPS_COR, _EPS_DIV


# ---------------------------------------------------------------------------
# config


def test_config_validation():
    with pytest.raises(ValueError):
        EstimatorConfig(n_mc_samples=0).validate()
    with pytest.raises(ValueError):
        EstimatorConfig(n_runs=0).validate()
    for scale in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="bandwidth_scale"):
            EstimatorConfig(bandwidth_scale=scale).validate()


def test_config_defaults():
    cfg = EstimatorConfig()
    assert cfg.n_mc_samples == 10_000
    assert cfg.n_runs == 5
    assert cfg.bandwidth_scale == 0.7
    # the region thresholds are module constants, not config fields
    assert {f.name for f in dataclasses.fields(cfg)} == {
        "n_mc_samples", "n_runs", "bandwidth_scale"
    }
    assert (_EPS_DIV, _EPS_COR) == (1e-12, 5e-4)


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
    # the default bandwidth targets the 8-d extractor features; raw 1-d
    # input needs a slightly narrower kernel for the density thresholds
    # (tuned for that 8-d regime) to separate the disjoint atoms
    F_tr, F_te, y_tr, y_te = _latent_features()
    cfg = EstimatorConfig(n_runs=1, bandwidth_scale=0.5)
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
    # finite-sample KDE noise leaves a small positive floor on d_cor
    assert d_cor < 0.1


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
    cfg = EstimatorConfig(n_runs=1, bandwidth_scale=0.5)
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
    cfg = EstimatorConfig(n_runs=1, n_mc_samples=500, bandwidth_scale=0.5)
    base = estimate(F_tr, F_te, y_tr, y_te, cfg, Rng(17))[:2]
    moved = estimate(F_tr * scale + shift, F_te * scale + shift, y_tr, y_te, cfg, Rng(17))[:2]
    assert moved == pytest.approx(base, abs=1e-9)


def test_estimate_constant_feature_column():
    # a column with one value in both environments carries no information;
    # its std is floored, so it standardizes to 0 whatever the value, and
    # a zero column must not collapse the estimate to (0, 0)
    F_tr, F_te, y_tr, y_te = _latent_features()
    cfg = EstimatorConfig(n_runs=1, n_mc_samples=4000, bandwidth_scale=0.5)
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
    # a draw count of 0 from one environment's fit must not fail
    F_tr, F_te, y_tr, y_te = _latent_features(n=200)
    for seed in range(8):
        cfg = EstimatorConfig(n_runs=1, n_mc_samples=M)
        d_div, d_cor, diag = estimate(F_tr, F_te, y_tr, y_te, cfg, Rng(seed))
        assert np.isfinite([d_div, d_cor]).all()
        assert d_div >= 0.0 and d_cor >= 0.0
        assert diag["frac_div_region"] + diag["frac_cor_region"] <= 1.0


def test_region_masks_mutually_exclusive():
    # _EPS_DIV < _EPS_COR makes the regions disjoint for any density values
    assert 0.0 < _EPS_DIV < _EPS_COR
    r = np.random.default_rng(13)
    p = 10.0 ** r.uniform(-16, 2, 10_000)
    q = 10.0 ** r.uniform(-16, 2, 10_000)
    div_mask = (p < _EPS_DIV) | (q < _EPS_DIV)
    cor_mask = (p > _EPS_COR) & (q > _EPS_COR)
    assert not (div_mask & cor_mask).any()


def test_mc_convergence_toward_oracle():
    # |estimate - oracle| averaged over seeds shrinks as M grows
    F_tr, F_te, y_tr, y_te = _latent_features(n=2000)
    oracle = np.array([0.5, 0.4])
    errs = []
    for M in (1000, 10_000, 100_000):
        gaps = []
        for seed in range(10):
            cfg = EstimatorConfig(n_runs=1, n_mc_samples=M)
            dd, dc, _ = estimate(F_tr, F_te, y_tr, y_te, cfg, Rng(100 + seed))
            gaps.append(np.abs(np.array([dd, dc]) - oracle).sum())
        errs.append(np.mean(gaps))
    assert errs[0] > errs[1] > errs[2] or errs[2] < 0.02


# ---------------------------------------------------------------------------
# estimate_pipeline


def _pipeline_setup():
    ds = gen_latent(latent_spec_a(), 500, Rng(30), noise_std=0.05)
    mlp = MlpConfig(in_dim=1, n_classes=2, hidden_dims=(16,), iters=100,
                    checkpoint_every=50)
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
# sweep


def _sweep_setup():
    spec = ColoredSpec(rho_tr=0.1, rho_te=0.9, label_noise=0.0, n_per_env=60,
                       image_side=4)
    mlp = MlpConfig(in_dim=48, n_classes=2, hidden_dims=(8,), iters=40,
                    checkpoint_every=20)
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
        assert rec["d_div"] >= 0.0 and rec["d_cor"] >= 0.0


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
