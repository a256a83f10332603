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

from .data import split_train_val

# the share of rows train fits on; the rest is its validation split
_TRAIN_FRAC = 0.9
# train stops after this many checkpoints in a row bring no gain
_PATIENCE = 3


@dataclass(frozen=True)
class MlpConfig:
    hidden_dims: tuple[int, ...] = (256, 256)
    feature_dim: int = 8
    cls_hidden_dim: int = 64  # 0 = linear head
    lr: float = 0.0003
    iters: int = 2000  # at most this many steps; train may stop earlier
    batch_per_env: int = 32
    checkpoint_every: int = 100

    def validate(self):
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


def _flat_layers(cfg, in_dim, n_classes, dtype=np.float64):
    """A zeroed flat buffer and the [W, b] views of the g and h layers in it.

    Parameters and gradients share this layout, so Adam updates every layer
    in one elementwise pass over flat buffers.
    """
    g_dims = [in_dim, *cfg.hidden_dims, cfg.feature_dim]
    h_in = cfg.feature_dim + n_classes
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


def _init_params(cfg, in_dim, n_classes, rng, dtype=np.float64):
    """Glorot-uniform weights and zero biases, laid out by _flat_layers."""
    flat, g_layers, h_layers = _flat_layers(cfg, in_dim, n_classes, dtype)
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


class _Adam:
    """Standard Adam (beta1=0.9, beta2=0.999, eps=1e-8) over flat buffers.

    `step` reads `grads` and updates `params` in place through full-size
    scratch buffers of its own, so a step allocates nothing. Each operation
    is one NumPy call over the whole buffer, so that concurrent trainings do
    not serialise on the GIL between many small calls. It rounds as
    m = b1*m + (1-b1)*g, v = b2*v + ((1-b2)*g)*g and
    p -= (lr*(m/b1t)) / (sqrt(v/b2t) + eps) do, one operation at a time,
    in the dtype of `params`.

    Subnormal entries of m are flushed to zero after each update. Where a
    gradient stays 0 (dead units, rarely lit inputs), m decays by b1 a step
    and turns subnormal after some 700 float32 steps; arithmetic on
    subnormals would then make every later step several times slower.
    """

    def __init__(self, params, grads, lr):
        self.lr, self.tiny, self.t = lr, np.finfo(params.dtype).tiny, 0
        self.m, v, s, r = np.zeros((4, *params.shape), params.dtype)
        self.bufs = (params, grads, self.m, v, s, r, np.empty(params.shape, bool))

    def step(self):
        self.t += 1
        b1, b2 = 0.9, 0.999
        b1t = 1.0 - b1**self.t
        b2t = 1.0 - b2**self.t
        p, g, m, v, s, r, normal = self.bufs
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


def _split_cells(ds, rng):
    """The split train draws first from rng: (training indices, validation
    indices, training indices of each (env, class) cell). Raises ValueError
    when an environment, the validation split or a cell is empty."""
    if not np.isin((0, 1), ds.envs).all():
        raise ValueError("dataset must contain both environments")
    train_idx, val_idx = split_train_val(ds.n_rows, _TRAIN_FRAC, rng)
    cells = _cell_indices(ds.labels[train_idx], ds.envs[train_idx], ds.n_classes)
    return train_idx, val_idx, cells


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

    A 90/10 train/validation split is drawn first (_split_cells); every
    cfg.checkpoint_every steps (and at step cfg.iters) validation environment
    accuracy is measured and the parameters of the first best-scoring
    checkpoint are kept. Training stops at a checkpoint once the best accuracy
    is 1.0, which no later checkpoint can beat, or once _PATIENCE checkpoints
    in a row have brought no gain; cfg.iters is a cap. Parameters,
    gradients, Adam's state and each batch are float32; validation runs on the
    float64 features. The input width and class count are the dataset's.
    Input columns that are 0 in every row are left out: their first-layer
    weights would get a zero gradient, so they keep their initial draws.
    """
    cfg.validate()
    train_idx, val_idx, cells = _split_cells(ds, rng)
    n_classes = ds.n_classes
    eye = np.eye(n_classes, dtype=np.float32)
    lit = ds.features.any(axis=0)
    cols = np.flatnonzero(lit)
    x_val, y_val = ds.features[val_idx][:, cols], eye[ds.labels[val_idx]]
    e_val = ds.envs[val_idx]

    # the full-width stack is drawn and returned; the trained copy drops the
    # unlit columns' rows of the first W, which leads the flat layout
    full, full_g, full_h = _init_params(cfg, ds.n_dims, n_classes, rng, np.float32)
    keep = np.ones(full.size, bool)
    keep[: full_g[0][0].size] = np.repeat(lit, full_g[0][0].shape[1])
    params, g_layers, h_layers = _flat_layers(cfg, cols.size, n_classes, np.float32)
    params[...] = full[keep]
    grads, g_grads, h_grads = _flat_layers(cfg, cols.size, n_classes, np.float32)
    opt = _Adam(params, grads, cfg.lr)

    best_acc, best_t = -1.0, 0
    best_params = None
    loss_curve = []
    for t in range(1, cfg.iters + 1):
        # each batch is gathered from ds by row index and cast alone, so no
        # copy of the training split is kept
        idx = train_idx[_sample_batch(cells, n_classes, cfg.batch_per_env, rng)]
        x = ds.features[idx][:, cols].astype(np.float32)
        y, e = eye[ds.labels[idx]], ds.envs[idx].astype(np.float32)
        loss = _loss_and_grads(g_layers, h_layers, x, y, e, g_grads, h_grads)
        if not np.isfinite(loss):
            raise RuntimeError(f"non-finite loss at step {t}")
        loss_curve.append(loss)
        opt.step()
        if t % cfg.checkpoint_every == 0 or t == cfg.iters:
            acc = _accuracy(g_layers, h_layers, x_val, y_val, e_val)
            if acc > best_acc:
                best_acc, best_t = acc, t
                best_params = params.copy()
            if best_acc == 1.0 or t - best_t >= _PATIENCE * cfg.checkpoint_every:
                break

    full[keep] = best_params

    return ExtractorModel(
        g_layers=full_g,
        h_layers=full_h,
        val_accuracy=best_acc,
        loss_curve=loss_curve,
    )


# rows per block of extract's forward pass
_EXTRACT_BLOCK = 256


def extract(model, x):
    """Apply the feature extractor to an (n, in_dim) feature matrix."""
    x = np.asarray(x)
    in_dim = model.g_layers[0][0].shape[0]
    if x.ndim != 2 or x.shape[1] != in_dim:
        raise ValueError(f"expected (n, {in_dim}) input, got {x.shape}")
    layers = [(W.astype(np.float64), b.astype(np.float64)) for W, b in model.g_layers]
    out = np.empty((x.shape[0], layers[-1][0].shape[1]))
    # blocks of rows keep the working set to one block's activations
    for start in range(0, x.shape[0], _EXTRACT_BLOCK):
        block = slice(start, start + _EXTRACT_BLOCK)
        out[block] = _mlp_forward(layers, x[block])[0]
    return out


def grad_check(cfg, in_dim, n_classes, rng):
    """Max relative error of analytic vs central finite-difference gradients.

    Checks every parameter of a fresh network for in_dim inputs and n_classes
    labels on one random batch of 8 rows, with a finite-difference step of 1e-5.
    """
    cfg.validate()
    batch, step = 8, 1e-5
    x = rng.normal(0.0, 1.0, (batch, in_dim))
    y = np.eye(n_classes)[rng.integers(0, n_classes, batch)]
    e = rng.integers(0, 2, batch).astype(np.float64)
    params, g_layers, h_layers = _init_params(cfg, in_dim, n_classes, rng)
    grads, g_grads, h_grads = _flat_layers(cfg, in_dim, n_classes)
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

