"""Synthetic two-environment generators.

Two families are provided: the colored-digit datasets with controllable
color/label correlation and blue-intensity knobs, and explicit discrete
latent distributions whose true shift values are computable in closed form.
"""

from dataclasses import dataclass

import numpy as np

from .data import LabeledDataset


@dataclass(frozen=True)
class ColoredSpec:
    """Knobs of the colored-digit generator.

    rho_tr/rho_te are the per-environment probabilities that the red/green
    color *disagrees* with the (possibly noise-flipped) binary label, i.e.
    IRM's flip probability. mu/sigma control the truncated-Gaussian blue
    intensity added per image.
    """

    rho_tr: float = 0.1
    rho_te: float = 0.9
    mu_tr: float = 0.0
    mu_te: float = 0.0
    sigma_tr: float = 0.0
    sigma_te: float = 0.0
    label_noise: float = 0.25
    n_per_env: int = 2000
    image_side: int = 14

    def validate(self):
        for name in ("rho_tr", "rho_te", "mu_tr", "mu_te", "label_noise"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
        for name in ("sigma_tr", "sigma_te"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0")
        if self.n_per_env < 2:
            raise ValueError("n_per_env must be >= 2")
        if self.image_side < 1:
            raise ValueError("image_side must be >= 1")


def irm_colored_default(n_per_env=2000):
    """Canonical single-train-env configuration, which is ColoredSpec's
    defaults: flip probabilities rho_tr=0.1/rho_te=0.9, label_noise=0.25,
    and no blue channel (mu and sigma 0 in both environments)."""
    return ColoredSpec(n_per_env=n_per_env)


def _truncated_normal(mu, sigma, n, rng):
    """Rejection-sample Normal(mu, sigma) truncated to [0, 1]."""
    if sigma == 0.0:
        return np.full(n, float(mu))
    out = np.empty(n)
    todo = np.arange(n)
    while todo.size:
        draw = rng.normal(mu, sigma, todo.size)
        ok = (draw >= 0.0) & (draw <= 1.0)
        out[todo[ok]] = draw[ok]
        todo = todo[~ok]
    return out


def gen_colored(spec, rng):
    """Generate a two-environment colored-digit dataset.

    Each row is a flattened 3-channel image (red, green, blue blocks of
    image_side**2 pixels). The binary label is digit < 5 vs >= 5, flipped
    with probability label_noise; the active color channel agrees with the
    label with probability 1 - rho_e. Blue intensity b is drawn from a
    truncated Gaussian and painted onto the digit while the active channel
    is attenuated by the same amount. Fixed random class prototypes plus
    pixel noise stand in for the digits.
    """
    spec.validate()
    side = spec.image_side
    npix = side * side

    prototypes = rng.uniform(0.0, 1.0, (10, npix))

    # env 0 fills the first n rows and env 1 the rest, written in place
    n = spec.n_per_env
    features = np.zeros((2 * n, 3 * npix))
    labels = np.empty(2 * n, dtype=np.int64)
    env_params = [
        (spec.rho_tr, spec.mu_tr, spec.sigma_tr),
        (spec.rho_te, spec.mu_te, spec.sigma_te),
    ]
    for env, (rho, mu, sigma) in enumerate(env_params):
        rows = slice(env * n, (env + 1) * n)
        digits = rng.integers(0, 10, n)
        base = rng.normal(0.0, 0.1, (n, npix))
        base += prototypes[digits]
        np.clip(base, 0.0, 1.0, out=base)
        label = (digits >= 5).astype(np.int64)
        flip = rng.uniform(size=n) < spec.label_noise
        label = np.where(flip, 1 - label, label)
        disagree = rng.uniform(size=n) < rho
        color = np.where(disagree, 1 - label, label)  # 0 = red, 1 = green

        blue_intensity = _truncated_normal(mu, sigma, n, rng)
        blue = np.multiply(base, blue_intensity[:, None], out=features[rows, 2 * npix :])
        active = np.maximum(0.0, np.subtract(base, blue, out=base), out=base)
        np.copyto(features[rows, :npix], active, where=(color == 0)[:, None])
        np.copyto(features[rows, npix : 2 * npix], active, where=(color == 1)[:, None])
        labels[rows] = label

    return LabeledDataset(features, labels, np.repeat([0, 1], n), n_classes=2)


@dataclass(frozen=True)
class LatentSpec:
    """Explicit discrete two-environment distribution over latent points.

    support holds the latent coordinates (k,) or (k, dz); p_z/q_z are the
    environment marginals and p_y_given_z/q_y_given_z the conditional label
    tables. Construction enforces no label shift: both environments must
    induce the same class marginal.
    """

    support: np.ndarray
    p_z: np.ndarray
    q_z: np.ndarray
    p_y_given_z: np.ndarray
    q_y_given_z: np.ndarray

    def __post_init__(self):
        support = np.atleast_1d(np.asarray(self.support, dtype=np.float64))
        if support.ndim == 1:
            support = support[:, None]
        p_z = np.asarray(self.p_z, dtype=np.float64)
        q_z = np.asarray(self.q_z, dtype=np.float64)
        p_c = np.asarray(self.p_y_given_z, dtype=np.float64)
        q_c = np.asarray(self.q_y_given_z, dtype=np.float64)
        k = support.shape[0]
        if p_z.shape != (k,) or q_z.shape != (k,):
            raise ValueError("p_z/q_z must match support size")
        if p_c.shape[0] != k or q_c.shape != p_c.shape:
            raise ValueError("conditional tables must be (k, n_classes)")
        if (p_z < 0).any() or (q_z < 0).any() or (p_c < 0).any() or (q_c < 0).any():
            raise ValueError("probabilities must be non-negative")
        if abs(p_z.sum() - 1.0) > 1e-12 or abs(q_z.sum() - 1.0) > 1e-12:
            raise ValueError("p_z and q_z must sum to 1")
        if (np.abs(p_c.sum(axis=1) - 1.0) > 1e-12).any() or (
            np.abs(q_c.sum(axis=1) - 1.0) > 1e-12
        ).any():
            raise ValueError("conditional rows must sum to 1")
        p_marg = p_z @ p_c
        q_marg = q_z @ q_c
        if np.abs(p_marg - q_marg).max() > 1e-9:
            raise ValueError("class marginals differ across environments (label shift)")
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "p_z", p_z)
        object.__setattr__(self, "q_z", q_z)
        object.__setattr__(self, "p_y_given_z", p_c)
        object.__setattr__(self, "q_y_given_z", q_c)

    @property
    def n_classes(self):
        return self.p_y_given_z.shape[1]


def latent_spec_a():
    """Three-point reference spec with exact shifts (0.5, 0.4).

    Atom b appears only in the training environment and atom c only in the
    test environment; atom a is shared with opposing label conditionals.
    """
    return LatentSpec(
        support=np.array([0.0, 1.0, 2.0]),
        p_z=np.array([0.5, 0.5, 0.0]),
        q_z=np.array([0.5, 0.0, 0.5]),
        p_y_given_z=np.array([[0.9, 0.1], [0.1, 0.9], [0.5, 0.5]]),
        q_y_given_z=np.array([[0.1, 0.9], [0.5, 0.5], [0.9, 0.1]]),
    )


def latent_spec_tv(tv):
    """Two-atom spec with uniform conditionals and total variation exactly tv."""
    if not 0.0 <= tv <= 1.0:
        raise ValueError("tv must lie in [0, 1]")
    p_hi = (1.0 + tv) / 2.0
    uniform = np.array([[0.5, 0.5], [0.5, 0.5]])
    return LatentSpec(
        support=np.array([0.0, 1.0]),
        p_z=np.array([p_hi, 1.0 - p_hi]),
        q_z=np.array([1.0 - p_hi, p_hi]),
        p_y_given_z=uniform,
        q_y_given_z=uniform,
    )


def _ipf_joint(z_marg, y_marg, seed_matrix):
    """Scale a positive matrix to given row/column marginals (Sinkhorn/IPF)."""
    joint = seed_matrix.copy()
    active = z_marg > 0
    joint[~active] = 0.0
    for _ in range(2000):
        rows = joint.sum(axis=1)
        joint[active] *= (z_marg[active] / rows[active])[:, None]
        cols = joint.sum(axis=0)
        joint *= y_marg / cols
        rows = joint.sum(axis=1)
        if np.abs(rows - z_marg).max() < 1e-14:
            break
    return joint


def random_latent_spec(rng, n_support=4, n_classes=2):
    """Draw a random valid spec; each atom is zeroed with probability 0.3 per environment.

    The no-label-shift constraint is met by fitting both conditional tables
    to one shared class marginal via iterative proportional fitting.
    """
    k = n_support
    y_marg = rng.uniform(0.2, 1.0, n_classes)
    y_marg /= y_marg.sum()

    def marginal():
        z = rng.uniform(0.05, 1.0, k)
        dead = rng.uniform(size=k) < 0.3
        if dead.all():
            dead[rng.integers(0, k)] = False
        z[dead] = 0.0
        return z / z.sum()

    p_z, q_z = marginal(), marginal()

    def conditionals(z_marg):
        seed = rng.uniform(0.1, 1.0, (k, n_classes))
        joint = _ipf_joint(z_marg, y_marg, seed)
        cond = np.full((k, n_classes), 1.0 / n_classes)
        live = z_marg > 0
        cond[live] = joint[live] / z_marg[live, None]
        cond /= cond.sum(axis=1, keepdims=True)
        return cond

    return LatentSpec(
        support=np.arange(k, dtype=np.float64),
        p_z=p_z,
        q_z=q_z,
        p_y_given_z=conditionals(p_z),
        q_y_given_z=conditionals(q_z),
    )


def gen_latent(spec, n_per_env, rng, noise_std=0.0):
    """Sample a two-environment dataset from an explicit latent spec.

    Features are the latent coordinates themselves, optionally blurred by
    additive Gaussian observation noise.
    """
    if n_per_env < 1:
        raise ValueError("n_per_env must be >= 1")
    k = spec.support.shape[0]
    features, labels, envs = [], [], []
    for env, z_marg, cond in (
        (0, spec.p_z, spec.p_y_given_z),
        (1, spec.q_z, spec.q_y_given_z),
    ):
        idx = rng.choice(k, size=n_per_env, p=z_marg)
        cum = np.cumsum(cond[idx], axis=1)
        u = rng.uniform(size=(n_per_env, 1))
        y = (u > cum).sum(axis=1)
        x = spec.support[idx]
        if noise_std > 0.0:
            x = x + rng.normal(0.0, noise_std, x.shape)
        features.append(x)
        labels.append(y)
        envs.append(np.full(n_per_env, env, dtype=np.int64))
    return LabeledDataset(
        np.concatenate(features),
        np.concatenate(labels),
        np.concatenate(envs),
        n_classes=spec.n_classes,
    )
