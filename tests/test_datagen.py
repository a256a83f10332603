"""Tests for the synthetic two-environment generators."""

import numpy as np
import pytest

from oodshift import (
    ColoredSpec,
    LatentSpec,
    Rng,
    gen_colored,
    gen_latent,
    irm_colored_default,
    latent_spec_a,
    latent_spec_tv,
    oracle_shift,
    random_latent_spec,
)


# ---------------------------------------------------------------------------
# ColoredSpec


def test_colored_spec_validate_ranges():
    with pytest.raises(ValueError, match="rho_tr"):
        ColoredSpec(rho_tr=1.5).validate()
    with pytest.raises(ValueError, match="sigma_te"):
        ColoredSpec(sigma_te=-0.1).validate()
    with pytest.raises(ValueError, match="n_per_env"):
        ColoredSpec(n_per_env=1).validate()


def test_irm_default_fields():
    spec = irm_colored_default()
    assert spec.rho_tr == 0.1
    assert spec.rho_te == 0.9
    assert spec.label_noise == 0.25
    assert spec.mu_tr == spec.mu_te == 0.0
    assert spec.sigma_tr == spec.sigma_te == 0.0


# ---------------------------------------------------------------------------
# gen_colored


def test_colored_shape_and_env_column():
    spec = ColoredSpec(n_per_env=40, image_side=8)
    ds = gen_colored(spec, Rng(0))
    assert ds.n_rows == 80
    assert ds.n_dims == 3 * 64
    assert (ds.envs[:40] == 0).all() and (ds.envs[40:] == 1).all()
    assert set(np.unique(ds.labels)) <= {0, 1}


def test_colored_agreement_frequencies():
    # with no label noise, color agrees with the label w.p. 1 - rho_e
    n = 4000
    spec = ColoredSpec(rho_tr=0.1, rho_te=0.9, label_noise=0.0, n_per_env=n)
    ds = gen_colored(spec, Rng(1))
    npix = spec.image_side**2
    red = ds.features[:, :npix].sum(axis=1) > 0  # red block active
    color = np.where(red, 0, 1)
    agree = (color == ds.labels).astype(float)
    sigma = np.sqrt(0.9 * 0.1 / n)
    assert abs(agree[ds.envs == 0].mean() - 0.9) < 3 * sigma
    assert abs(agree[ds.envs == 1].mean() - 0.1) < 3 * sigma


def test_colored_blue_variant_dominates_test_env():
    spec = ColoredSpec(
        rho_tr=0.1, rho_te=0.1, mu_tr=0.0, mu_te=1.0,
        sigma_tr=0.1, sigma_te=0.1, n_per_env=200,
    )
    ds = gen_colored(spec, Rng(2))
    npix = spec.image_side**2
    rg = ds.features[:, : 2 * npix]
    blue = ds.features[:, 2 * npix :]
    tr = ds.envs == 0
    # train: hardly any blue; test: red/green strongly attenuated
    assert blue[tr].mean() < 0.1 * blue[~tr].mean()
    assert rg[~tr].mean() < 0.2 * rg[tr].mean()


def test_colored_blue_intensity_truncated():
    spec = ColoredSpec(mu_tr=0.5, mu_te=0.5, sigma_tr=0.8, sigma_te=0.8, n_per_env=300)
    ds = gen_colored(spec, Rng(3))
    assert ds.features.min() >= 0.0
    assert ds.features.max() <= 1.0


def test_colored_no_label_shift():
    n = 5000
    spec = ColoredSpec(rho_tr=0.1, rho_te=0.9, n_per_env=n)
    ds = gen_colored(spec, Rng(4))
    tr = ds.envs == 0
    gap = abs(ds.labels[tr].mean() - ds.labels[~tr].mean())
    assert gap < 3 * np.sqrt(2 * 0.25 / n)


def test_colored_identical_spec_identical_distribution():
    n = 5000
    spec = ColoredSpec(rho_tr=0.3, rho_te=0.3, n_per_env=n)
    ds = gen_colored(spec, Rng(5))
    tr = ds.envs == 0
    gap = np.abs(ds.features[tr].mean(axis=0) - ds.features[~tr].mean(axis=0))
    # per-pixel means match within a loose CLT band
    assert gap.max() < 5 * ds.features.std() / np.sqrt(n)


def test_colored_deterministic():
    spec = ColoredSpec(n_per_env=30)
    a = gen_colored(spec, Rng(9))
    b = gen_colored(spec, Rng(9))
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)


def _reference_gen_colored(spec, rng):
    # the plain form: one image matrix per environment, then a concatenate
    npix = spec.image_side**2
    prototypes = rng.uniform(0.0, 1.0, (10, npix))
    features, labels, envs = [], [], []
    for env, rho, mu, sigma in [
        (0, spec.rho_tr, spec.mu_tr, spec.sigma_tr),
        (1, spec.rho_te, spec.mu_te, spec.sigma_te),
    ]:
        n = spec.n_per_env
        digits = rng.integers(0, 10, n)
        base = np.clip(prototypes[digits] + rng.normal(0.0, 0.1, (n, npix)), 0.0, 1.0)
        label = (digits >= 5).astype(np.int64)
        label = np.where(rng.uniform(size=n) < spec.label_noise, 1 - label, label)
        color = np.where(rng.uniform(size=n) < rho, 1 - label, label)
        if sigma == 0.0:
            b = np.full(n, float(mu))
        else:
            b, todo = np.empty(n), np.arange(n)
            while todo.size:
                draw = rng.normal(mu, sigma, todo.size)
                ok = (draw >= 0.0) & (draw <= 1.0)
                b[todo[ok]] = draw[ok]
                todo = todo[~ok]
        blue = base * b[:, None]
        active = np.maximum(0.0, base - blue)
        img = np.zeros((n, 3 * npix))
        red = color == 0
        img[red, :npix] = active[red]
        img[~red, npix : 2 * npix] = active[~red]
        img[:, 2 * npix :] = blue
        features.append(img)
        labels.append(label)
        envs.append(np.full(n, env))
    return np.concatenate(features), np.concatenate(labels), np.concatenate(envs)


@pytest.mark.parametrize("spec", [
    irm_colored_default(300),
    ColoredSpec(rho_tr=0.1, rho_te=0.1, mu_te=1.0, sigma_tr=0.1, sigma_te=0.1, n_per_env=200),
    ColoredSpec(mu_tr=0.3, mu_te=0.6, sigma_tr=0.5, sigma_te=0.2, n_per_env=41, image_side=5),
])
def test_colored_matches_reference_bit_for_bit(spec):
    for seed in range(3):
        ds = gen_colored(spec, Rng(seed))
        features, labels, envs = _reference_gen_colored(spec, Rng(seed))
        assert np.array_equal(ds.features, features)
        assert np.array_equal(np.signbit(ds.features), np.signbit(features))
        assert np.array_equal(ds.labels, labels) and np.array_equal(ds.envs, envs)


# ---------------------------------------------------------------------------
# LatentSpec


def test_latent_spec_rejects_unnormalized():
    with pytest.raises(ValueError, match="sum to 1"):
        LatentSpec(
            support=np.array([0.0, 1.0]),
            p_z=np.array([0.6, 0.6]),
            q_z=np.array([0.5, 0.5]),
            p_y_given_z=np.full((2, 2), 0.5),
            q_y_given_z=np.full((2, 2), 0.5),
        )


def test_latent_spec_rejects_label_shift():
    with pytest.raises(ValueError, match="label shift"):
        LatentSpec(
            support=np.array([0.0, 1.0]),
            p_z=np.array([0.5, 0.5]),
            q_z=np.array([0.5, 0.5]),
            p_y_given_z=np.array([[1.0, 0.0], [1.0, 0.0]]),
            q_y_given_z=np.array([[0.0, 1.0], [0.0, 1.0]]),
        )


def test_latent_spec_a_oracle():
    assert oracle_shift(latent_spec_a()) == pytest.approx((0.5, 0.4), abs=1e-12)


def test_latent_spec_tv_total_variation():
    for tv in (0.0, 0.3, 0.7, 1.0):
        spec = latent_spec_tv(tv)
        assert 0.5 * np.abs(spec.p_z - spec.q_z).sum() == pytest.approx(tv, abs=1e-12)


def test_latent_spec_tv_rejects_out_of_range():
    with pytest.raises(ValueError):
        latent_spec_tv(1.1)


def test_random_latent_spec_is_valid():
    # construction itself enforces all invariants; exercise many draws
    r = Rng(11)
    for _ in range(200):
        spec = random_latent_spec(
            r, n_support=int(r.integers(2, 7)), n_classes=int(r.integers(2, 5))
        )
        assert spec.p_z.sum() == pytest.approx(1.0, abs=1e-12)
        dd, dc = oracle_shift(spec)
        assert 0.0 <= dd <= 1.0 and 0.0 <= dc <= 1.0


# ---------------------------------------------------------------------------
# gen_latent


def test_gen_latent_rejects_zero_rows():
    with pytest.raises(ValueError):
        gen_latent(latent_spec_a(), 0, Rng(0))


def test_gen_latent_identity_case():
    spec = latent_spec_tv(0.0)
    ds = gen_latent(spec, 20_000, Rng(1))
    tr = ds.envs == 0
    # same marginal in both environments
    gap = abs((ds.features[tr] == 0.0).mean() - (ds.features[~tr] == 0.0).mean())
    assert gap < 3 * np.sqrt(0.5 / 20_000)


def test_gen_latent_matches_spec_frequencies():
    spec = latent_spec_a()
    n = 30_000
    ds = gen_latent(spec, n, Rng(2))
    tr = ds.envs == 0
    for z_idx, z in enumerate(spec.support[:, 0]):
        for env, marg, cond in ((0, spec.p_z, spec.p_y_given_z),
                                (1, spec.q_z, spec.q_y_given_z)):
            mask = (ds.envs == env) & (ds.features[:, 0] == z)
            p_cell = marg[z_idx]
            sigma = np.sqrt(p_cell * (1 - p_cell) / n)
            assert abs(mask.mean() * 2 - p_cell) < 3 * sigma + 1e-9
            if p_cell > 0:
                for y in range(2):
                    p_y = cond[z_idx, y]
                    frac = (ds.labels[mask] == y).mean()
                    s = np.sqrt(p_y * (1 - p_y) / max(mask.sum(), 1))
                    assert abs(frac - p_y) < 4 * s + 1e-9


def test_gen_latent_marginal_convergence():
    spec = latent_spec_a()
    ds = gen_latent(spec, 50_000, Rng(3))
    tr = ds.envs == 0
    for z_idx, z in enumerate(spec.support[:, 0]):
        emp = (ds.features[tr, 0] == z).mean()
        assert abs(emp - spec.p_z[z_idx]) < 0.01


def test_gen_latent_noise_applied():
    spec = latent_spec_a()
    ds = gen_latent(spec, 1000, Rng(4), noise_std=0.05)
    resid = ds.features[:, 0] - np.round(ds.features[:, 0])
    assert 0.03 < resid.std() < 0.07


def test_gen_latent_deterministic():
    a = gen_latent(latent_spec_a(), 100, Rng(6), noise_std=0.05)
    b = gen_latent(latent_spec_a(), 100, Rng(6), noise_std=0.05)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)
