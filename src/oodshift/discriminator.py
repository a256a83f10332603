"""Environment discriminator: MLP feature extractor plus classifier head.

The extractor g maps inputs to an m-dimensional feature space; the head h
consumes the feature concatenated with a one-hot label and emits a logit
for the probability that the example came from the test environment. Both
are trained jointly with Adam on binary cross-entropy. All math is plain
NumPy with hand-derived backprop so gradients can be finite-difference
checked.
"""

from dataclasses import dataclass, field

import numpy as np

from .data import LabeledDataset, split_train_val


@dataclass(frozen=True)
class MlpConfig:
    in_dim: int
    n_classes: int
    hidden_dims: tuple = (256, 256)
    feature_dim: int = 8
    cls_hidden_dim: int = 64  # 0 = linear head
    lr: float = 0.0003
    iters: int = 2000
    batch_per_env: int = 32
    train_frac: float = 0.9
    checkpoint_every: int = 100

    def validate(self):
        if self.in_dim < 1 or self.n_classes < 1:
            raise ValueError("in_dim and n_classes must be >= 1")
        if self.feature_dim < 1 or self.iters < 1 or self.batch_per_env < 1:
            raise ValueError("feature_dim, iters, batch_per_env must be >= 1")
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if self.lr <= 0:
            raise ValueError("lr must be > 0")


@dataclass
class ExtractorModel:
    g_layers: list  # [(W, b), ...]
    h_layers: list
    in_dim: int
    n_classes: int
    feature_dim: int
    val_accuracy: float
    loss_curve: list = field(default_factory=list)


def _glorot(rng, fan_in, fan_out):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    W = rng.uniform(-limit, limit, (fan_in, fan_out))
    b = np.zeros(fan_out)
    return [W, b]


def _init_params(cfg, rng):
    g_dims = [cfg.in_dim, *cfg.hidden_dims, cfg.feature_dim]
    g_layers = [_glorot(rng, a, b) for a, b in zip(g_dims, g_dims[1:])]
    h_in = cfg.feature_dim + cfg.n_classes
    if cfg.cls_hidden_dim > 0:
        h_dims = [h_in, cfg.cls_hidden_dim, 1]
    else:
        h_dims = [h_in, 1]
    h_layers = [_glorot(rng, a, b) for a, b in zip(h_dims, h_dims[1:])]
    return g_layers, h_layers


def _mlp_forward(layers, x):
    """ReLU between layers, linear output. Returns output and caches."""
    caches = []
    a = x
    for i, (W, b) in enumerate(layers):
        z = a @ W + b
        caches.append((a, z))
        a = np.maximum(z, 0.0) if i < len(layers) - 1 else z
    return a, caches


def _mlp_backward(layers, caches, dout):
    """Backprop dout (grad w.r.t. the linear output) through the stack."""
    grads = [None] * len(layers)
    delta = dout
    for i in reversed(range(len(layers))):
        a_in, z = caches[i]
        dz = delta if i == len(layers) - 1 else delta * (z > 0.0)
        grads[i] = [a_in.T @ dz, dz.sum(axis=0)]
        delta = dz @ layers[i][0].T
    return grads, delta


def _forward_logit(g_layers, h_layers, x, y_onehot):
    f, g_caches = _mlp_forward(g_layers, x)
    u = np.concatenate([f, y_onehot], axis=1)
    s, h_caches = _mlp_forward(h_layers, u)
    return s[:, 0], (g_caches, h_caches)


def _bce_loss(logits, envs):
    # softplus(s) - e*s, numerically stable
    return float(np.mean(np.logaddexp(0.0, logits) - envs * logits))


def _loss_and_grads(g_layers, h_layers, x, y_onehot, envs):
    n = x.shape[0]
    logits, (g_caches, h_caches) = _forward_logit(g_layers, h_layers, x, y_onehot)
    loss = _bce_loss(logits, envs)
    dlogit = ((1.0 / (1.0 + np.exp(-logits))) - envs) / n
    h_grads, du = _mlp_backward(h_layers, h_caches, dlogit[:, None])
    m = g_layers[-1][0].shape[1]
    g_grads, _ = _mlp_backward(g_layers, g_caches, du[:, :m])
    return loss, g_grads, h_grads


class _Adam:
    """Standard Adam (beta1=0.9, beta2=0.999, eps=1e-8)."""

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
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + self.eps)


def _flatten(g_layers, h_layers):
    out = []
    for W, b in g_layers + h_layers:
        out.extend([W, b])
    return out


def _cell_indices(labels, envs, n_classes):
    cells = {}
    for env in (0, 1):
        for cls in range(n_classes):
            idx = np.nonzero((envs == env) & (labels == cls))[0]
            if idx.size == 0:
                raise ValueError(f"missing (env={env}, class={cls}) cell")
            cells[env, cls] = idx
    return cells


def _sample_batch(cells, n_classes, batch_per_env, rng):
    """Draw batch_per_env examples per environment, class-balanced within."""
    picked = []
    for env in (0, 1):
        classes = rng.integers(0, n_classes, batch_per_env)
        counts = np.bincount(classes, minlength=n_classes)
        for cls in range(n_classes):
            if counts[cls]:
                pool = cells[env, cls]
                picked.append(pool[rng.integers(0, pool.size, counts[cls])])
    return np.concatenate(picked)


def _accuracy(g_layers, h_layers, x, y_onehot, envs):
    logits, _ = _forward_logit(g_layers, h_layers, x, y_onehot)
    return float(np.mean((logits > 0.0).astype(np.int64) == envs))


def train(ds, cfg, rng):
    """Train the discriminator; returns the best validation checkpoint.

    A 90/10 train/validation split is drawn first; every cfg.checkpoint_every
    steps (and at the final step) validation environment accuracy is measured
    and the best-scoring parameters are kept.
    """
    cfg.validate()
    if ds.n_dims != cfg.in_dim:
        raise ValueError(f"dataset width {ds.n_dims} != cfg.in_dim {cfg.in_dim}")
    if not np.isin((0, 1), ds.envs).all():
        raise ValueError("dataset must contain both environments")

    train_ds, val_ds = split_train_val(ds, cfg.train_frac, rng)
    cells = _cell_indices(train_ds.labels, train_ds.envs, cfg.n_classes)
    eye = np.eye(cfg.n_classes)
    x_tr = train_ds.features
    y_tr = eye[train_ds.labels]
    e_tr = train_ds.envs.astype(np.float64)
    if val_ds is not None:
        x_val, y_val = val_ds.features, eye[val_ds.labels]
        e_val = val_ds.envs.astype(np.int64)

    g_layers, h_layers = _init_params(cfg, rng)
    opt = _Adam(_flatten(g_layers, h_layers), cfg.lr)

    best_acc = -1.0
    best_params = None
    loss_curve = []
    for t in range(1, cfg.iters + 1):
        idx = _sample_batch(cells, cfg.n_classes, cfg.batch_per_env, rng)
        loss, g_grads, h_grads = _loss_and_grads(
            g_layers, h_layers, x_tr[idx], y_tr[idx], e_tr[idx]
        )
        if not np.isfinite(loss):
            raise RuntimeError(f"non-finite loss at step {t}")
        loss_curve.append(loss)
        opt.step(_flatten(g_grads, h_grads))
        if val_ds is not None and (t % cfg.checkpoint_every == 0 or t == cfg.iters):
            acc = _accuracy(g_layers, h_layers, x_val, y_val, e_val)
            if acc > best_acc:
                best_acc = acc
                best_params = [p.copy() for p in _flatten(g_layers, h_layers)]

    if best_params is not None:
        for p, saved in zip(_flatten(g_layers, h_layers), best_params):
            p[...] = saved
    else:
        best_acc = float("nan")

    return ExtractorModel(
        g_layers=g_layers,
        h_layers=h_layers,
        in_dim=cfg.in_dim,
        n_classes=cfg.n_classes,
        feature_dim=cfg.feature_dim,
        val_accuracy=best_acc,
        loss_curve=loss_curve,
    )


def extract(model, data):
    """Apply the feature extractor to a dataset or raw feature matrix."""
    x = data.features if isinstance(data, LabeledDataset) else np.asarray(data)
    if x.ndim != 2 or (x.shape[0] and x.shape[1] != model.in_dim):
        raise ValueError(f"expected (n, {model.in_dim}) input, got {x.shape}")
    if x.shape[0] == 0:
        return np.empty((0, model.feature_dim))
    f, _ = _mlp_forward(model.g_layers, x)
    return f


def grad_check(cfg, rng, batch_size=8, step=1e-5):
    """Max relative error of analytic vs central finite-difference gradients.

    Checks every parameter of a freshly initialized network on one random
    batch. A zero batch returns 0 by convention.
    """
    cfg.validate()
    if batch_size == 0:
        return 0.0
    x = rng.normal(0.0, 1.0, (batch_size, cfg.in_dim))
    y = np.eye(cfg.n_classes)[rng.integers(0, cfg.n_classes, batch_size)]
    e = rng.integers(0, 2, batch_size).astype(np.float64)
    g_layers, h_layers = _init_params(cfg, rng)
    _, g_grads, h_grads = _loss_and_grads(g_layers, h_layers, x, y, e)

    max_err = 0.0
    analytic = _flatten(g_grads, h_grads)
    for p, grad in zip(_flatten(g_layers, h_layers), analytic):
        flat_p = p.reshape(-1)
        flat_g = grad.reshape(-1)
        for i in range(flat_p.size):
            orig = flat_p[i]
            flat_p[i] = orig + step
            lo_hi = _bce_loss(_forward_logit(g_layers, h_layers, x, y)[0], e)
            flat_p[i] = orig - step
            lo_lo = _bce_loss(_forward_logit(g_layers, h_layers, x, y)[0], e)
            flat_p[i] = orig
            numeric = (lo_hi - lo_lo) / (2.0 * step)
            err = abs(numeric - flat_g[i]) / max(1.0, abs(numeric) + abs(flat_g[i]))
            max_err = max(max_err, err)
    return max_err

