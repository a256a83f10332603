"""Environment discriminator: MLP feature extractor plus classifier head.

The extractor g maps inputs to an m-dimensional feature space; the head h
consumes the feature concatenated with a one-hot label and emits a logit
for the probability that the example came from the test environment. Both
are trained jointly with Adam on binary cross-entropy. All math is plain
NumPy with hand-derived backprop so gradients can be finite-difference
checked. Training runs in float32; `extract` and `grad_check` run in float64.
"""

from dataclasses import dataclass, field

import numpy as np

from .data import LabeledDataset, split_train_val


@dataclass(frozen=True)
class MlpConfig:
    in_dim: int
    n_classes: int
    hidden_dims: tuple[int, ...] = (256, 256)
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
        if any(d < 1 for d in self.hidden_dims) or self.cls_hidden_dim < 0:
            raise ValueError("hidden_dims must be >= 1 and cls_hidden_dim >= 0")
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if self.lr <= 0:
            raise ValueError("lr must be > 0")


@dataclass
class ExtractorModel:
    g_layers: list  # [(W, b), ...]
    h_layers: list
    val_accuracy: float
    loss_curve: list = field(default_factory=list)


def _flat_layers(cfg, dtype=np.float64):
    """A zeroed flat buffer and the [W, b] views of the g and h layers in it.

    Parameters and gradients share this layout, so Adam updates every layer
    in one elementwise pass over flat buffers.
    """
    g_dims = [cfg.in_dim, *cfg.hidden_dims, cfg.feature_dim]
    h_in = cfg.feature_dim + cfg.n_classes
    h_dims = [h_in, cfg.cls_hidden_dim, 1] if cfg.cls_hidden_dim > 0 else [h_in, 1]
    shapes = [list(zip(dims, dims[1:])) for dims in (g_dims, h_dims)]
    flat = np.zeros(sum((a + 1) * b for dims in shapes for a, b in dims), dtype)
    stacks, start = [], 0
    for dims in shapes:
        layers = []
        for fan_in, fan_out in dims:
            W = flat[start : start + fan_in * fan_out].reshape(fan_in, fan_out)
            start += fan_in * fan_out
            layers.append([W, flat[start : start + fan_out]])
            start += fan_out
        stacks.append(layers)
    return flat, *stacks


def _init_params(cfg, rng, dtype=np.float64):
    """Glorot-uniform weights and zero biases, laid out by _flat_layers."""
    flat, g_layers, h_layers = _flat_layers(cfg, dtype)
    for W, _ in g_layers + h_layers:
        limit = np.sqrt(6.0 / sum(W.shape))
        W[...] = rng.uniform(-limit, limit, W.shape)
    return flat, g_layers, h_layers


def _mlp_forward(layers, x):
    """ReLU between layers, linear output. Returns output and caches."""
    caches = []
    a = x
    for i, (W, b) in enumerate(layers):
        z = a @ W + b
        caches.append((a, z))
        a = np.maximum(z, 0.0) if i < len(layers) - 1 else z
    return a, caches


def _mlp_backward(layers, caches, dout, grads):
    """Backprop dout (grad w.r.t. the linear output) through the stack.

    Each layer's weight and bias gradient is written into its [gW, gb] view
    in `grads`. Returns the grad w.r.t. the first layer's pre-activation;
    carrying it on to the stack's input is left to a caller that needs it.
    """
    dz = dout
    for i in reversed(range(len(layers))):
        gW, gb = grads[i]
        np.matmul(caches[i][0].T, dz, out=gW)
        np.sum(dz, axis=0, out=gb)
        if i > 0:
            dz = (dz @ layers[i][0].T) * (caches[i - 1][1] > 0.0)
    return dz


def _forward_logit(g_layers, h_layers, x, y_onehot):
    f, g_caches = _mlp_forward(g_layers, x)
    u = np.concatenate([f, y_onehot], axis=1)
    s, h_caches = _mlp_forward(h_layers, u)
    return s[:, 0], (g_caches, h_caches)


def _bce_loss(logits, envs):
    # softplus(s) - e*s, numerically stable
    return float(np.mean(np.logaddexp(0.0, logits) - envs * logits))


def _loss_and_grads(g_layers, h_layers, x, y_onehot, envs, g_grads, h_grads):
    """BCE loss of one batch; writes every gradient into g_grads/h_grads."""
    n = x.shape[0]
    logits, (g_caches, h_caches) = _forward_logit(g_layers, h_layers, x, y_onehot)
    loss = _bce_loss(logits, envs)
    dlogit = ((1.0 / (1.0 + np.exp(-logits))) - envs) / n
    dz = _mlp_backward(h_layers, h_caches, dlogit[:, None], h_grads)
    du = dz @ h_layers[0][0].T
    m = g_layers[-1][0].shape[1]
    _mlp_backward(g_layers, g_caches, du[:, :m], g_grads)
    return loss


# elements per Adam block: 128 KiB in float32, so that a block and its
# scratch blocks stay in cache across the passes of one update
_ADAM_BLOCK = 32_768


class _Adam:
    """Standard Adam (beta1=0.9, beta2=0.999, eps=1e-8) over flat buffers.

    `step` reads `grads` and updates `params` in place, block by block
    through scratch blocks of its own, so a step allocates nothing. It
    rounds as m = b1*m + (1-b1)*g, v = b2*v + ((1-b2)*g)*g and
    p -= (lr*(m/b1t)) / (sqrt(v/b2t) + eps) do, one operation at a time,
    in the dtype of `params`.

    Subnormal entries of m are flushed to zero after each update. Where a
    gradient stays 0 (unlit pixels, dead units), m decays by b1 a step and
    turns subnormal after some 700 float32 steps; arithmetic on subnormals
    would then make every later step several times slower.
    """

    def __init__(self, params, grads, lr):
        self.lr = lr
        self.tiny = np.finfo(params.dtype).tiny
        m, v = np.zeros_like(params), np.zeros_like(params)
        n_max = min(_ADAM_BLOCK, params.size)
        s, r = np.empty((2, n_max), params.dtype)
        normal = np.empty(n_max, bool)
        self.blocks = []
        for start in range(0, params.size, _ADAM_BLOCK):
            blk = slice(start, start + _ADAM_BLOCK)
            n = params[blk].size
            self.blocks.append(
                (params[blk], grads[blk], m[blk], v[blk], s[:n], r[:n], normal[:n])
            )
        self.t = 0

    def step(self):
        self.t += 1
        b1, b2 = 0.9, 0.999
        b1t = 1.0 - b1**self.t
        b2t = 1.0 - b2**self.t
        for p, g, m, v, s, r, normal in self.blocks:
            m *= b1
            np.multiply(g, 1.0 - b1, out=s)
            m += s
            np.abs(m, out=r)
            np.greater_equal(r, self.tiny, out=normal)
            m *= normal
            v *= b2
            np.multiply(g, 1.0 - b2, out=s)
            s *= g
            v += s
            np.divide(m, b1t, out=s)
            s *= self.lr
            np.divide(v, b2t, out=r)
            np.sqrt(r, out=r)
            r += 1e-8
            s /= r
            p -= s


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
    and the best-scoring parameters are kept. Parameters, gradients, Adam's
    state and each batch are float32; validation runs on the float64 features.
    """
    cfg.validate()
    if ds.n_dims != cfg.in_dim:
        raise ValueError(f"dataset width {ds.n_dims} != cfg.in_dim {cfg.in_dim}")
    if not np.isin((0, 1), ds.envs).all():
        raise ValueError("dataset must contain both environments")

    train_ds, val_ds = split_train_val(ds, cfg.train_frac, rng)
    cells = _cell_indices(train_ds.labels, train_ds.envs, cfg.n_classes)
    eye = np.eye(cfg.n_classes, dtype=np.float32)
    x_tr = train_ds.features
    y_tr = eye[train_ds.labels]
    e_tr = train_ds.envs.astype(np.float32)
    x_val, y_val = val_ds.features, eye[val_ds.labels]
    e_val = val_ds.envs.astype(np.int64)

    params, g_layers, h_layers = _init_params(cfg, rng, np.float32)
    grads, g_grads, h_grads = _flat_layers(cfg, np.float32)
    opt = _Adam(params, grads, cfg.lr)

    best_acc = -1.0
    best_params = None
    loss_curve = []
    for t in range(1, cfg.iters + 1):
        idx = _sample_batch(cells, cfg.n_classes, cfg.batch_per_env, rng)
        # only the gathered batch is cast, so no float32 copy of x_tr is kept
        x = x_tr[idx].astype(np.float32)
        loss = _loss_and_grads(g_layers, h_layers, x, y_tr[idx], e_tr[idx], g_grads, h_grads)
        if not np.isfinite(loss):
            raise RuntimeError(f"non-finite loss at step {t}")
        loss_curve.append(loss)
        opt.step()
        if t % cfg.checkpoint_every == 0 or t == cfg.iters:
            acc = _accuracy(g_layers, h_layers, x_val, y_val, e_val)
            if acc > best_acc:
                best_acc = acc
                best_params = params.copy()

    params[...] = best_params

    return ExtractorModel(
        g_layers=g_layers,
        h_layers=h_layers,
        val_accuracy=best_acc,
        loss_curve=loss_curve,
    )


def extract(model, data):
    """Apply the feature extractor to a dataset or raw feature matrix."""
    x = data.features if isinstance(data, LabeledDataset) else np.asarray(data)
    in_dim = model.g_layers[0][0].shape[0]
    if x.ndim != 2 or x.shape[1] != in_dim:
        raise ValueError(f"expected (n, {in_dim}) input, got {x.shape}")
    f, _ = _mlp_forward(model.g_layers, x)
    return f


def grad_check(cfg, rng):
    """Max relative error of analytic vs central finite-difference gradients.

    Checks every parameter of a freshly initialized network on one random
    batch of 8 rows, with a finite-difference step of 1e-5.
    """
    cfg.validate()
    batch, step = 8, 1e-5
    x = rng.normal(0.0, 1.0, (batch, cfg.in_dim))
    y = np.eye(cfg.n_classes)[rng.integers(0, cfg.n_classes, batch)]
    e = rng.integers(0, 2, batch).astype(np.float64)
    params, g_layers, h_layers = _init_params(cfg, rng)
    grads, g_grads, h_grads = _flat_layers(cfg)
    _loss_and_grads(g_layers, h_layers, x, y, e, g_grads, h_grads)

    max_err = 0.0
    for i in range(params.size):
        orig = params[i]
        params[i] = orig + step
        lo_hi = _bce_loss(_forward_logit(g_layers, h_layers, x, y)[0], e)
        params[i] = orig - step
        lo_lo = _bce_loss(_forward_logit(g_layers, h_layers, x, y)[0], e)
        params[i] = orig
        numeric = (lo_hi - lo_lo) / (2.0 * step)
        err = abs(numeric - grads[i]) / max(1.0, abs(numeric) + abs(grads[i]))
        max_err = max(max_err, err)
    return max_err

