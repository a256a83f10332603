"""Tests for the environment discriminator (MLP + Adam + backprop)."""

import numpy as np
import pytest

from oodshift import (
    ColoredSpec,
    LabeledDataset,
    MlpConfig,
    Rng,
    extract,
    gen_colored,
    gen_latent,
    grad_check,
    irm_colored_default,
    latent_spec_tv,
    split_train_val,
    train,
)
from oodshift import discriminator
from oodshift.discriminator import (
    _EXTRACT_BLOCK,
    _PATIENCE,
    _TRAIN_FRAC,
    ExtractorModel,
    _Adam,
    _accuracy,
    _bce_loss,
    _cell_indices,
    _forward_logit,
    _init_params,
    _sample_batch,
)


# ---------------------------------------------------------------------------
# Adam


def test_adam_matches_hand_trace():
    # minimize f(theta) = theta^2 from theta=1 with lr=0.1; the three
    # iterates below were computed by hand in 40-digit decimal arithmetic
    theta, grad = np.array([1.0]), np.zeros(1)
    opt = _Adam(theta, grad, lr=0.1)
    expected = [0.9000000005, 0.8004122286917921, 0.7015862729460295]
    for want in expected:
        grad[...] = 2.0 * theta
        opt.step()
        assert theta[0] == pytest.approx(want, abs=1e-12)


def test_adam_float32_flushes_subnormal_m():
    # the gradient is nonzero at step 1 only; m then decays by 0.9 a step
    # and, unflushed, passes through the float32 subnormals (below about
    # 1.2e-38) somewhere between steps 700 and 1000 for these magnitudes
    params = np.zeros(64, np.float32)
    grads = np.logspace(-6, 2, 64, dtype=np.float32)
    opt = _Adam(params, grads, lr=0.001)
    tiny = np.finfo(np.float32).tiny
    for t in range(1, 1001):
        opt.step()
        grads[...] = 0.0
        m = opt.m
        assert not np.any((m != 0.0) & (np.abs(m) < tiny)), f"subnormal m at step {t}"
    assert m.dtype == np.float32 and not np.any(m)
    assert np.all(np.isfinite(params))


# ---------------------------------------------------------------------------
# reference training: per-array float32 parameters, Adam state and
# gradients, with fresh arrays every step; train must reproduce it bit for bit.
# It stops at a checkpoint once the best accuracy is 1.0 or once the last 3
# checkpoints brought no gain.
# With mask=True the first layer trains only the rows of input columns that
# are nonzero in some row, as train does; mask=False trains every row


class _ReferenceAdam:
    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = params
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = 0

    def step(self, grads):
        self.t += 1
        b1t = 1.0 - self.beta1**self.t
        b2t = 1.0 - self.beta2**self.t
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            m *= np.abs(m) >= np.finfo(m.dtype).tiny
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + self.eps)


def _reference_backward(layers, caches, dout):
    grads = [None] * len(layers)
    delta = dout
    for i in reversed(range(len(layers))):
        a_in, z = caches[i]
        dz = delta if i == len(layers) - 1 else delta * (z > 0.0)
        grads[i] = [a_in.T @ dz, dz.sum(axis=0)]
        delta = dz @ layers[i][0].T
    return grads, delta


def _reference_glorot_stack(rng, dims):
    layers = []
    for fan_in, fan_out in zip(dims, dims[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        W = rng.uniform(-limit, limit, (fan_in, fan_out)).astype(np.float32)
        layers.append([W, np.zeros(fan_out, np.float32)])
    return layers


def _reference_train(ds, cfg, rng, mask=True):
    train_idx, val_idx = split_train_val(ds.n_rows, _TRAIN_FRAC, rng)
    train_ds, val_ds = ds.subset(train_idx), ds.subset(val_idx)
    cells = _cell_indices(train_ds.labels, train_ds.envs, ds.n_classes)
    lit = np.any(ds.features != 0.0, axis=0) if mask else np.ones(ds.n_dims, bool)
    eye = np.eye(ds.n_classes, dtype=np.float32)
    x_tr, y_tr = train_ds.features[:, lit].astype(np.float32), eye[train_ds.labels]
    e_tr = train_ds.envs.astype(np.float32)
    x_val, y_val = val_ds.features[:, lit], eye[val_ds.labels]
    e_val = val_ds.envs.astype(np.int64)

    g_full = _reference_glorot_stack(rng, [ds.n_dims, *cfg.hidden_dims, cfg.feature_dim])
    h_in = cfg.feature_dim + ds.n_classes
    h_dims = [h_in, cfg.cls_hidden_dim, 1] if cfg.cls_hidden_dim > 0 else [h_in, 1]
    h_layers = _reference_glorot_stack(rng, h_dims)
    g_layers = [[g_full[0][0][lit], g_full[0][1]], *g_full[1:]]
    params = [p for layer in g_layers + h_layers for p in layer]
    opt = _ReferenceAdam(params, cfg.lr)

    best_acc, best_t, best_params, loss_curve = -1.0, 0, None, []
    for t in range(1, cfg.iters + 1):
        idx = _sample_batch(cells, ds.n_classes, cfg.batch_per_env, rng)
        x, y, e = x_tr[idx], y_tr[idx], e_tr[idx]
        logits, (g_caches, h_caches) = _forward_logit(g_layers, h_layers, x, y)
        loss_curve.append(_bce_loss(logits, e))
        dlogit = ((1.0 / (1.0 + np.exp(-logits))) - e) / x.shape[0]
        h_grads, du = _reference_backward(h_layers, h_caches, dlogit[:, None])
        g_grads, _ = _reference_backward(g_layers, g_caches, du[:, : cfg.feature_dim])
        opt.step([g for layer in g_grads + h_grads for g in layer])
        if t % cfg.checkpoint_every == 0 or t == cfg.iters:
            acc = _accuracy(g_layers, h_layers, x_val, y_val, e_val)
            if acc > best_acc:
                best_acc, best_t, best_params = acc, t, [p.copy() for p in params]
            if best_acc == 1.0 or t - best_t >= 3 * cfg.checkpoint_every:
                break
    for p, saved in zip(params, best_params):
        p[...] = saved
    g_full[0][0][lit] = g_layers[0][0]
    return g_full, h_layers, best_acc, loss_curve


def _three_class_ds(n=600, dim=3, seed=30, env_shift=0.5):
    r = Rng(seed)
    labels = r.integers(0, 3, n)
    envs = np.arange(n) % 2
    features = r.normal(0.0, 1.0, (n, dim)) + labels[:, None] + env_shift * envs[:, None]
    return LabeledDataset(features, labels, envs, n_classes=3)


@pytest.mark.parametrize("case", ["colored-default", "colored-small", "linear-head",
                                  "three-classes", "in-dim-1"])
def test_train_bit_identical_to_reference(case):
    if case.startswith("colored"):
        ds = gen_colored(irm_colored_default(300), Rng(31))
    elif case == "three-classes":
        ds = _three_class_ds()
    else:
        ds = _latent_ds(0.7, n=600, seed=32)
    cfg = {
        # 588-256-256-8; the blue channel, a third of the inputs, is 0 in
        # every row and left out of training
        "colored-default": dict(iters=60, checkpoint_every=20),
        "colored-small": dict(hidden_dims=(16,), iters=200, checkpoint_every=25),
        "linear-head": dict(hidden_dims=(8,), cls_hidden_dim=0, iters=200,
                            checkpoint_every=25),
        "three-classes": dict(hidden_dims=(12, 6), iters=200, checkpoint_every=25),
        "in-dim-1": dict(hidden_dims=(32,), iters=200, checkpoint_every=25),
    }[case]
    cfg = MlpConfig(**cfg)
    model = train(ds, cfg, Rng(33))
    # the other cases have no all-zero column, so train must give the model
    # of the unmasked reference, as it did before columns were dropped
    mask = case.startswith("colored")
    g_ref, h_ref, acc_ref, curve_ref = _reference_train(ds, cfg, Rng(33), mask=mask)
    assert len(model.g_layers) == len(g_ref) and len(model.h_layers) == len(h_ref)
    for got, want in zip(model.g_layers + model.h_layers, g_ref + h_ref):
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    assert model.loss_curve == curve_ref
    assert model.val_accuracy == acc_ref


def _glorot_draws(ds, cfg, seed):
    # the full-width float32 stack train draws after its split
    rng = Rng(seed)
    split_train_val(ds.n_rows, _TRAIN_FRAC, rng)
    return _init_params(cfg, ds.n_dims, ds.n_classes, rng, np.float32)[1]


def test_train_unlit_rows_keep_glorot_draws():
    ds = gen_colored(irm_colored_default(300), Rng(31))
    cfg = MlpConfig(hidden_dims=(16,), iters=200, checkpoint_every=25)
    unlit = ~ds.features.any(axis=0)
    assert unlit.sum() == 196  # the blue channel
    W = train(ds, cfg, Rng(33)).g_layers[0][0]
    W0 = _glorot_draws(ds, cfg, 33)[0][0]
    assert np.array_equal(W[unlit], W0[unlit])
    assert not np.array_equal(W[~unlit], W0[~unlit])


def test_train_mask_close_to_unmasked_reference():
    # leaving the unlit columns out changes only BLAS round-off over the
    # shorter inner dimension; after 60 steps the weights agree to 2e-5
    # (8.1e-6 seen) and the checkpoint to the same validation accuracy
    ds = gen_colored(irm_colored_default(300), Rng(31))
    cfg = MlpConfig(iters=60, checkpoint_every=20)
    model = train(ds, cfg, Rng(33))
    g_ref, h_ref, acc_ref, _ = _reference_train(ds, cfg, Rng(33), mask=False)
    for got, want in zip(model.g_layers + model.h_layers, g_ref + h_ref):
        np.testing.assert_allclose(got[0], want[0], rtol=0, atol=2e-5)
        np.testing.assert_allclose(got[1], want[1], rtol=0, atol=2e-5)
    assert model.val_accuracy == acc_ref


def test_train_all_zero_features():
    n = 200
    ds = LabeledDataset(np.zeros((n, 5)), np.arange(n) % 2, (np.arange(n) // 2) % 2,
                        n_classes=2)
    cfg = MlpConfig(hidden_dims=(8,), iters=50, checkpoint_every=10)
    model = train(ds, cfg, Rng(36))
    assert np.array_equal(model.g_layers[0][0], _glorot_draws(ds, cfg, 36)[0][0])
    assert 0.0 <= model.val_accuracy <= 1.0
    assert extract(model, ds.features).shape == (n, cfg.feature_dim)


def test_train_float32_extract_and_grad_check_float64():
    # extract's forward pass in blocks of rows must equal the whole one
    ds = _latent_ds(0.7, n=1200)
    assert ds.n_rows > 2 * _EXTRACT_BLOCK
    cfg = MlpConfig(iters=20, hidden_dims=(8,))
    model = train(ds, cfg, Rng(34))
    for W, b in model.g_layers + model.h_layers:
        assert W.dtype == np.float32 and b.dtype == np.float32
    feats = extract(model, ds.features)
    assert feats.dtype == np.float64
    # float64 arithmetic on the float32 weights, not a float32 forward pass
    a = ds.features
    for i, (W, b) in enumerate(model.g_layers):
        a = a @ W.astype(np.float64) + b.astype(np.float64)
        a = np.maximum(a, 0.0) if i < len(model.g_layers) - 1 else a
    assert np.array_equal(feats, a)
    # a float32 central difference at step 1e-5 is off by far more than 1e-7
    linear = MlpConfig(hidden_dims=(), feature_dim=2, cls_hidden_dim=0)
    assert grad_check(linear, 3, 2, Rng(35)) < 1e-7


# ---------------------------------------------------------------------------
# grad_check


def test_grad_check_default_hyperparameters_small_dims():
    # default widths are too many parameters for a per-parameter FD sweep;
    # same architecture shape scaled down, default everything else
    # seed chosen away from ReLU kinks: a pre-activation within the FD step
    # of zero makes the central difference itself inaccurate
    cfg = MlpConfig(hidden_dims=(16, 16), feature_dim=8)
    assert grad_check(cfg, 4, 2, Rng(1)) < 1e-4


def test_grad_check_linear_network():
    cfg = MlpConfig(hidden_dims=(), feature_dim=2, cls_hidden_dim=0)
    assert grad_check(cfg, 3, 2, Rng(1)) < 1e-7


def test_grad_check_ten_random_configs():
    for seed in range(10):
        r = Rng(seed)
        in_dim, n_classes = int(r.integers(1, 7)), int(r.integers(2, 5))
        cfg = MlpConfig(
            hidden_dims=tuple(int(d) for d in r.integers(2, 10, int(r.integers(0, 3)))),
            feature_dim=int(r.integers(1, 6)),
            cls_hidden_dim=int(r.integers(0, 9)),
        )
        assert grad_check(cfg, in_dim, n_classes, r) < 1e-4, f"seed {seed}, cfg {cfg}"


# ---------------------------------------------------------------------------
# train


FAST = dict(hidden_dims=(32,), iters=300, checkpoint_every=50)


def _latent_ds(tv, n=2000, seed=0, noise_std=0.05):
    return gen_latent(latent_spec_tv(tv), n, Rng(seed), noise_std=noise_std)


def test_train_deterministic():
    ds = _latent_ds(0.7)
    cfg = MlpConfig(**FAST)
    m1 = train(ds, cfg, Rng(3))
    m2 = train(ds, cfg, Rng(3))
    for (w1, b1), (w2, b2) in zip(m1.g_layers + m1.h_layers, m2.g_layers + m2.h_layers):
        assert np.array_equal(w1, w2)
        assert np.array_equal(b1, b2)
    assert m1.val_accuracy == m2.val_accuracy


def test_train_identical_envs_accuracy_near_half():
    ds = _latent_ds(0.0, n=10_000)
    cfg = MlpConfig(**FAST)
    model = train(ds, cfg, Rng(4))
    assert 0.45 <= model.val_accuracy <= 0.55


def test_train_disjoint_envs_accuracy_high():
    spec = ColoredSpec(rho_tr=0.1, rho_te=0.1, mu_tr=0.0, mu_te=1.0,
                       sigma_tr=0.01, sigma_te=0.01, n_per_env=500)
    ds = gen_colored(spec, Rng(5))
    cfg = MlpConfig(**FAST)
    model = train(ds, cfg, Rng(5))
    assert model.val_accuracy >= 0.95


def _train_logging_checkpoints(monkeypatch, ds, cfg, seed):
    """train's model and the validation accuracy it read at each checkpoint."""
    accs = []

    def logged(*args):
        accs.append(_accuracy(*args))
        return accs[-1]

    monkeypatch.setattr(discriminator, "_accuracy", logged)
    return train(ds, cfg, Rng(seed)), accs


def test_train_stops_at_first_exact_checkpoint(monkeypatch):
    # no later checkpoint can beat 1.0, since only a strict gain is kept
    spec = ColoredSpec(rho_tr=0.1, rho_te=0.1, mu_tr=0.0, mu_te=1.0,
                       sigma_tr=0.01, sigma_te=0.01, n_per_env=500)
    cfg = MlpConfig(**FAST)
    model, accs = _train_logging_checkpoints(monkeypatch, gen_colored(spec, Rng(5)), cfg, 5)
    assert accs == [1.0] and model.val_accuracy == 1.0
    assert len(model.loss_curve) == cfg.checkpoint_every


def test_train_stops_after_patience_checkpoints_without_gain(monkeypatch):
    # a latent dataset has few distinct inputs, so its accuracy plateaus
    cfg = MlpConfig(**FAST)
    model, accs = _train_logging_checkpoints(monkeypatch, _latent_ds(0.7), cfg, 3)
    best = accs.index(max(accs))
    best_t = (best + 1) * cfg.checkpoint_every
    assert model.val_accuracy == accs[best] < 1.0
    assert _PATIENCE == 3
    assert len(model.loss_curve) == best_t + 3 * cfg.checkpoint_every < cfg.iters


def test_train_that_keeps_improving_runs_to_iters(monkeypatch):
    cfg = MlpConfig(hidden_dims=(16,), iters=400, checkpoint_every=25)
    ds = _three_class_ds(n=2000, env_shift=2.0)
    model, accs = _train_logging_checkpoints(monkeypatch, ds, cfg, 3)
    assert len(model.loss_curve) == cfg.iters and len(accs) == 16
    # the last checkpoint still gains, below the exact 1.0
    assert max(accs[:-1]) < accs[-1] == model.val_accuracy < 1.0


def test_train_loss_decreases():
    ds = _latent_ds(1.0)
    cfg = MlpConfig(**FAST)
    model = train(ds, cfg, Rng(6))
    curve = np.asarray(model.loss_curve)
    assert curve[-20:].mean() < curve[:20].mean()


def test_train_missing_cell_raises():
    ds = _latent_ds(0.3)
    ds = LabeledDataset(ds.features, ds.labels, ds.envs, n_classes=3)  # class 2 never appears
    cfg = MlpConfig(**FAST)
    with pytest.raises(ValueError, match="missing"):
        train(ds, cfg, Rng(7))


def test_train_rejects_single_env():
    ds = _latent_ds(0.3)
    sub = ds.subset(np.nonzero(ds.envs == 0)[0])
    cfg = MlpConfig(**FAST)
    with pytest.raises(ValueError, match="both environments"):
        train(sub, cfg, Rng(9))


def test_balanced_sampling_counts():
    # over 1000 batches the (env, class) draw counts stay within 3 sigma
    # of the uniform multinomial expectation
    ds = _latent_ds(0.3, n=400)
    cells = _cell_indices(ds.labels, ds.envs, 2)
    r = Rng(10)
    counts = {key: 0 for key in cells}
    batch_per_env, n_batches = 32, 1000
    for _ in range(n_batches):
        idx = _sample_batch(cells, 2, batch_per_env, r)
        for key, pool in cells.items():
            counts[key] += np.isin(idx, pool).sum()
    total = 2 * batch_per_env * n_batches
    p = 1.0 / 4.0
    sigma = np.sqrt(total * p * (1 - p))
    for key, c in counts.items():
        assert abs(c - total * p) < 3 * sigma, (key, c)


# ---------------------------------------------------------------------------
# extract


def test_extract_zero_weights_gives_zeros():
    g = [[np.zeros((3, 4)), np.zeros(4)], [np.zeros((4, 2)), np.zeros(2)]]
    model = ExtractorModel(g_layers=g, h_layers=[], val_accuracy=0.5)
    out = extract(model, np.ones((5, 3)))
    assert out.shape == (5, 2)
    assert np.array_equal(out, np.zeros((5, 2)))


def test_extract_pure():
    ds = _latent_ds(0.7, n=50)
    cfg = MlpConfig(iters=10, hidden_dims=(8,))
    model = train(ds, cfg, Rng(11))
    x = ds.features.copy()
    a = extract(model, x)
    b = extract(model, x)
    assert np.array_equal(a, b)
    assert np.array_equal(x, ds.features)


def test_extract_empty_input():
    ds = _latent_ds(0.7, n=50)
    cfg = MlpConfig(iters=10, hidden_dims=(8,))
    model = train(ds, cfg, Rng(12))
    out = extract(model, np.empty((0, 1)))
    assert out.shape == (0, cfg.feature_dim)


def test_extract_dim_mismatch():
    ds = _latent_ds(0.7, n=50)
    cfg = MlpConfig(iters=10, hidden_dims=(8,))
    model = train(ds, cfg, Rng(13))
    with pytest.raises(ValueError):
        extract(model, np.zeros((4, 2)))


def test_config_validation():
    with pytest.raises(ValueError):
        MlpConfig(lr=0.0).validate()
    with pytest.raises(ValueError, match="checkpoint_every"):
        MlpConfig(checkpoint_every=0).validate()
    with pytest.raises(ValueError, match="hidden_dims"):
        MlpConfig(hidden_dims=(16, 0)).validate()
    with pytest.raises(ValueError, match="cls_hidden_dim"):
        MlpConfig(cls_hidden_dim=-2).validate()
