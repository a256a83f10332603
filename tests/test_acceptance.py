"""Acceptance suite: one test per criterion, stated tolerances.

Pipeline criteria use the synthetic colored-digit data at n_per_env=2000
with MLP defaults, at most M=10000 evaluation points, and 5 runs.
"""

import itertools
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from oodshift import (
    ColoredSpec,
    EstimatorConfig,
    MlpConfig,
    Rng,
    emd,
    estimate_pipeline,
    gen_colored,
    gen_latent,
    grad_check,
    irm_colored_default,
    kde_fit,
    kde_logpdf,
    kde_pdf,
    kde_sample,
    latent_spec_a,
    latent_spec_tv,
    load_fixture,
    mmd,
    ni,
    oracle_shift,
    random_latent_spec,
    ranking_scores,
    sweep,
    train,
)
from oodshift.cli import main as cli_main
from oodshift.data import LabeledDataset


MLP_DEFAULTS = dict(hidden_dims=(256, 256), feature_dim=8, lr=0.0003,
                    iters=2000, batch_per_env=32)
EST_DEFAULTS = EstimatorConfig(n_mc_samples=10_000, n_runs=5)


# ---------------------------------------------------------------------------
# 1. Oracle bounds and symmetry


def test_criterion_01_oracle_bounds():
    r = Rng(123)
    for _ in range(10_000):
        spec = random_latent_spec(
            r, n_support=int(r.integers(2, 7)), n_classes=int(r.integers(2, 5))
        )
        d_div, d_cor = oracle_shift(spec)
        assert 0.0 <= d_div <= 1.0
        assert 0.0 <= d_cor <= 1.0
        swapped = type(spec)(
            support=spec.support, p_z=spec.q_z, q_z=spec.p_z,
            p_y_given_z=spec.q_y_given_z, q_y_given_z=spec.p_y_given_z,
        )
        assert oracle_shift(swapped) == pytest.approx((d_div, d_cor), abs=1e-12)


# ---------------------------------------------------------------------------
# 2. Oracle spot value


def _brute_force_shift(spec):
    # independent summation straight from the definitions, one atom at a time
    d_div = 0.0
    d_cor = 0.0
    for i in range(spec.support.shape[0]):
        p, q = spec.p_z[i], spec.q_z[i]
        if p * q == 0.0:
            d_div += 0.5 * abs(p - q)
        else:
            gap = sum(
                abs(spec.p_y_given_z[i, y] - spec.q_y_given_z[i, y])
                for y in range(spec.n_classes)
            )
            d_cor += 0.5 * math.sqrt(p * q) * gap
    return d_div, d_cor


def test_criterion_02_oracle_spot_value():
    spec = latent_spec_a()
    assert oracle_shift(spec) == pytest.approx((0.5, 0.4), abs=1e-12)
    assert _brute_force_shift(spec) == pytest.approx((0.5, 0.4), abs=1e-12)


# ---------------------------------------------------------------------------
# 3. Estimator vs oracle on LatentSpec A


def test_criterion_03_estimator_vs_oracle():
    ds = gen_latent(latent_spec_a(), 2000, Rng(3), noise_std=0.05)
    mlp = MlpConfig(**MLP_DEFAULTS)
    result = estimate_pipeline(ds, mlp, EST_DEFAULTS, base_seed=100)
    assert result.d_div == pytest.approx(0.5, abs=0.10)
    assert result.d_cor == pytest.approx(0.4, abs=0.10)


# ---------------------------------------------------------------------------
# 4. Correlation-shift trend over rho_te


def test_criterion_04_correlation_trend():
    mlp = MlpConfig(**MLP_DEFAULTS)
    d_cors, d_divs = [], []
    for rho_te in (0.9, 0.7, 0.5, 0.3, 0.1):
        spec = replace(irm_colored_default(), rho_te=rho_te)
        ds = gen_colored(spec, Rng(7))
        result = estimate_pipeline(ds, mlp, EST_DEFAULTS, base_seed=20)
        d_cors.append(result.d_cor)
        d_divs.append(result.d_div)
    assert all(a > b for a, b in zip(d_cors, d_cors[1:])), d_cors
    assert 0.40 <= d_cors[0] <= 0.85, d_cors[0]
    assert d_cors[-1] < 0.05, d_cors[-1]
    assert max(d_divs) < 0.02, d_divs


# ---------------------------------------------------------------------------
# 5. Diversity shift on the blue-channel variant


def test_criterion_05_blue_diversity():
    spec = replace(irm_colored_default(), rho_te=0.1, mu_tr=0.0, mu_te=1.0,
                   sigma_tr=0.1, sigma_te=0.1)
    ds = gen_colored(spec, Rng(7))
    mlp = MlpConfig(**MLP_DEFAULTS)
    result = estimate_pipeline(ds, mlp, EST_DEFAULTS, base_seed=30)
    assert result.d_div >= 0.8, result.d_div
    assert result.d_cor < 0.05, result.d_cor


# ---------------------------------------------------------------------------
# 6. Sweep diagonal


def test_criterion_06_sweep_diagonal():
    base = replace(irm_colored_default(), label_noise=0.0)
    grid = [0.1, 0.3, 0.5, 0.7, 0.9]
    mlp = MlpConfig(**MLP_DEFAULTS)
    est = replace(EST_DEFAULTS, n_runs=1)
    records = sweep(base, "rho_tr", grid, "rho_te", grid, mlp, est, base_seed=60)
    assert len(records) == 25
    diagonal = [r for r in records if r["rho_tr"] == r["rho_te"]]
    assert len(diagonal) == 5
    for cell in diagonal:
        assert cell["d_cor"] < 0.05, cell


# ---------------------------------------------------------------------------
# 7. Discriminator accuracy ceiling: acc <= (1 + TV(p, q)) / 2


def test_criterion_07_tv_ceiling():
    mlp = MlpConfig(**MLP_DEFAULTS)
    for tv in (0.0, 0.3, 0.7, 1.0):
        ds = gen_latent(latent_spec_tv(tv), 10_000, Rng(11), noise_std=0.05)
        model = train(ds, mlp, Rng(500))
        assert model.val_accuracy <= 0.5 * (1 + tv) + 0.03, (tv, model.val_accuracy)
        if tv == 0.0:
            assert 0.45 <= model.val_accuracy <= 0.55, model.val_accuracy


# ---------------------------------------------------------------------------
# 8. Gradient check on 10 random configs


def test_criterion_08_gradient_check():
    for seed in range(10):
        r = Rng(seed)
        in_dim, n_classes = int(r.integers(1, 7)), int(r.integers(2, 5))
        cfg = MlpConfig(
            hidden_dims=tuple(int(d) for d in r.integers(2, 10, int(r.integers(0, 3)))),
            feature_dim=int(r.integers(1, 6)),
            cls_hidden_dim=int(r.integers(0, 9)),
        )
        err = grad_check(cfg, in_dim, n_classes, r)
        assert err < 1e-4, (seed, cfg, err)


# ---------------------------------------------------------------------------
# 9. KDE correctness


def test_criterion_09_kde_correctness():
    r = Rng(6)
    model = kde_fit(r.normal(0.0, 1.0, (10_000, 1)))
    density_at_zero = float(kde_pdf(model, np.array([0.0])))
    assert density_at_zero == pytest.approx(0.3989, abs=0.02)
    # normalization by importance sampling from a wider proposal
    p = kde_fit(r.normal(0.0, 1.0, (2000, 1)))
    w = kde_fit(r.normal(0.0, 1.5, (2000, 1)))
    draws = kde_sample(w, 20_000, r)
    ratio = np.exp(kde_logpdf(p, draws) - kde_logpdf(w, draws))
    assert ratio.mean() == pytest.approx(1.0, abs=0.01)


# ---------------------------------------------------------------------------
# 10. Baseline axioms


def test_criterion_10_baseline_axioms():
    A = Rng(0).normal(size=(60, 3))
    assert mmd(A, A) == 0.0
    assert emd(A, A) == 0.0
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
    r = Rng(8)
    feats = np.concatenate([r.normal(0.0, 1.0, (200, 3)),
                            r.normal(0.7, 1.0, (200, 3))])
    labels = np.tile(np.repeat([0, 1], 100), 2)
    envs = np.repeat([0, 1], 200)
    base = ni(LabeledDataset(feats, labels, envs))
    for c in (1e-3, 7.0, 1e4):
        scaled = ni(LabeledDataset(feats * c, labels, envs))
        assert scaled == pytest.approx(base, abs=1e-9)


# ---------------------------------------------------------------------------
# 11. Ranking-score fixtures


def test_criterion_11_ranking_fixtures():
    diversity = ranking_scores(load_fixture("diversity"))
    correlation = ranking_scores(load_fixture("correlation"))
    assert diversity == {
        "RSC": 2, "MMD": 2, "SagNet": 1, "ERM": 0, "IGA": 0, "CORAL": 0,
        "IRM": -1, "VREx": -1, "GroupDRO": -1, "ERDG": -2, "DANN": -2,
        "MTL": -2, "Mixup": -2, "ANDMask": -2, "ARM": -3, "MLDG": -4,
    }
    assert correlation == {
        "VREx": 1, "GroupDRO": 1, "ERM": 0, "IRM": 0, "MTL": 0, "ERDG": 0,
        "ARM": 0, "MMD": -1, "RSC": -1, "IGA": -1, "CORAL": -1, "Mixup": -1,
        "MLDG": -1, "SagNet": -2, "ANDMask": -2, "DANN": -3,
    }


# ---------------------------------------------------------------------------
# 12. CLI determinism


def test_criterion_12_cli_determinism(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(
        {"mlp": {"hidden_dims": [32], "iters": 200, "checkpoint_every": 50}}
    ))
    outputs = []
    for name in ("a", "b"):
        out = tmp_path / name
        rc = cli_main([
            "estimate", "--preset", "latent-a", "--n-per-env", "300",
            "--runs", "2", "--mc-samples", "2000", "--seed", "17",
            "--config", str(cfg_path), "--out", str(out),
        ])
        assert rc == 0
        outputs.append((out / "result.json").read_bytes())
    assert outputs[0] == outputs[1]
