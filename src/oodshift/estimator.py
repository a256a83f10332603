"""Diversity and correlation shift: exact oracle and kernel estimator.

The oracle sums Definition-style formulas exactly over a discrete latent
spec. The estimator evaluates the same integrals at the pooled extracted
features themselves, an exact sample of the mixture of the two
environments. One pass of leave-one-out Gaussian kernel sums, split by
(fold, environment, class), gives both environment densities and their
label conditionals at every point. A point whose smaller environment density
is a small fraction of the mixture density counts towards diversity, any
other point towards correlation, where the two folds' conditional gaps are
cross-fitted so that a zero gap reads 0 on average.

`estimate_pipeline`, `sweep` and `baselines.compare_table` each build one
flat list of (source, seed) tasks: a dataset, or the (spec, data_seed) pair
that draws it, and the seed of one run. `_check_tasks` checks such a list
without training; one call of the executor `_map` runs it, each task on one
BLAS thread, and the results are grouped n_runs at a time.
"""

import ctypes
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import cache
from pathlib import Path

import numpy as np

from .data import Rng
from .datagen import gen_colored
from .discriminator import _split_cells, extract, train

# a point lies in the diversity region when min(p, q) < _EPS * w, and in the
# correlation region otherwise; a ratio of densities, so it has no units
_EPS = 1e-2
# kernel entries per block of rows: 4 MiB of float64
_BLOCK = 1 << 19
# the kernel bandwidth, in pooled standard deviations, is this times n0^(-1/(m+4))
_BANDWIDTH_SCALE = 0.7


@dataclass(frozen=True)
class EstimatorConfig:
    n_mc_samples: int = 10000  # at most this many evaluation points
    n_runs: int = 5

    def validate(self):
        if self.n_mc_samples < 1:
            raise ValueError("n_mc_samples must be >= 1")
        if self.n_runs < 1:
            raise ValueError("n_runs must be >= 1")


@dataclass
class ShiftEstimate:
    d_div: float
    d_cor: float
    per_run: list  # [(d_div, d_cor), ...]
    stderr_div: float
    stderr_cor: float
    over_one_flag: bool
    diagnostics: dict = field(default_factory=dict)


def oracle_shift(spec):
    """Exact diversity/correlation shift of a discrete latent spec.

    Both values are provably in [0, 1]; the sums are clipped to that range
    to absorb float round-off (e.g. marginals that sum to 1 only within
    one ulp can push d_div to 1 + 2e-16).
    """
    p, q = spec.p_z, spec.q_z
    shared = p * q != 0.0
    d_div = 0.5 * np.abs(p[~shared] - q[~shared]).sum()
    cond_gap = np.abs(spec.p_y_given_z - spec.q_y_given_z).sum(axis=1)
    d_cor = 0.5 * (np.sqrt(p[shared] * q[shared]) * cond_gap[shared]).sum()
    return float(np.clip(d_div, 0.0, 1.0)), float(np.clip(d_cor, 0.0, 1.0))


def estimate(F_tr, F_te, labels_tr, labels_te, cfg, rng):
    """One run of the shift estimator over the pooled features.

    Returns (d_div, d_cor, diagnostics). Estimates are reported raw: they
    may exceed 1, and d_cor, unbiased at 0, may read below 0.
    """
    cfg.validate()
    F_tr = np.asarray(F_tr, dtype=np.float64)
    F_te = np.asarray(F_te, dtype=np.float64)
    if F_tr.ndim != 2 or F_te.ndim != 2 or F_tr.shape[1] != F_te.shape[1]:
        raise ValueError("feature matrices must be 2-D and share one dimensionality")
    if F_tr.shape[0] < 2 or F_te.shape[0] < 2:
        raise ValueError("need at least 2 rows per environment")
    if not (np.isfinite(F_tr).all() and np.isfinite(F_te).all()):
        raise ValueError("features must be finite (no NaN or inf)")
    labels_tr = np.asarray(labels_tr, dtype=np.int64)
    labels_te = np.asarray(labels_te, dtype=np.int64)
    classes = _classes(labels_tr, labels_te)

    n_tr, n_te = F_tr.shape[0], F_te.shape[0]
    n, m = n_tr + n_te, F_tr.shape[1]
    pooled = np.concatenate([F_tr, F_te])
    std = pooled.std(axis=0)
    # a constant column standardizes to exactly 0: round-off left in it would
    # reach the last bit of the expanded distance below
    Z = (pooled - pooled.mean(axis=0)) / np.maximum(std, 1e-8)
    Z[:, std < 1e-8] = 0.0
    # one bandwidth for every kernel sum, floored so no distance overflows
    Z /= max(_BANDWIDTH_SCALE * n_tr ** (-1.0 / (m + 4)), 1e-6)

    env = np.repeat([0, 1], [n_tr, n_te])
    y = np.searchsorted(classes, np.concatenate([labels_tr, labels_te]))
    C = classes.size
    fold = _folds(env * C + y, rng)
    groups = np.zeros((n, 2, 2, C))  # one-hot (fold, env, class) per point
    groups[np.arange(n), fold, env, y] = 1.0
    groups = groups.reshape(n, 4 * C)

    # the evaluation points: the pool is an exact sample of the mixture w
    M = cfg.n_mc_samples
    at = np.arange(n) if n <= M else rng.choice(n, M, replace=False)
    sq = np.sum(Z**2, axis=1)
    S = np.empty((at.size, 4 * C))
    rows = max(1, _BLOCK // n)
    buf = np.empty((min(rows, at.size), n))
    for start in range(0, at.size, rows):
        i = at[start : start + rows]
        k = np.matmul(Z[i], Z.T, out=buf[: i.size])
        k *= -2.0
        k += sq
        k += sq[i, None]
        np.maximum(k, 0.0, out=k)
        # leave the point itself out; shifting each row by its nearest
        # neighbour's distance changes no ratio used below and keeps an
        # isolated point's sums from underflowing to 0
        k[np.arange(i.size), i] = np.inf
        k -= k.min(axis=1, keepdims=True)
        k *= -0.5
        np.exp(k, out=k)
        S[start : start + rows] = k @ groups
    S = S.reshape(-1, 2, 2, C)

    # p, q and w at each evaluation point, up to one common factor per point
    env_mass = S.sum(axis=(1, 3))
    p = env_mass[:, 0] / n_tr
    q = env_mass[:, 1] / n_te
    w = env_mass.sum(axis=1) / n
    div = np.minimum(p, q) < _EPS * w
    d_div = float((0.5 * np.abs(p - q) / w)[div].sum() / at.size)

    # each fold's label conditionals; a fold with no kernel mass from one
    # environment gives no gap
    fold_env = S.sum(axis=3, keepdims=True)
    cond = np.divide(S, fold_env, out=np.zeros_like(S), where=fold_env > 0)
    gap = (cond[:, :, 0] - cond[:, :, 1]) * (fold_env > 0).all(axis=2)
    # cross-fitted |gap|: one fold's sign times the other fold's gap has mean
    # 0 where the true gap is 0, so d_cor has no floor there
    cross = 0.5 * (np.sign(gap[:, 0]) * gap[:, 1] + np.sign(gap[:, 1]) * gap[:, 0]).sum(axis=1)
    d_cor = float((0.5 * cross * np.sqrt(p * q) / w)[~div].sum() / at.size)

    frac_div = float(div.mean())
    diagnostics = {"frac_div_region": frac_div, "frac_cor_region": 1.0 - frac_div}
    return d_div, d_cor, diagnostics


def _classes(labels_tr, labels_te):
    """The classes of both environments; raises ValueError when one has
    fewer than 2 rows in an environment."""
    classes = np.union1d(labels_tr, labels_te)
    for cls in classes:
        if (labels_tr == cls).sum() < 2 or (labels_te == cls).sum() < 2:
            raise ValueError(f"class {cls} underpopulated in one environment")
    return classes


def _folds(groups, rng):
    """Fold 0 or 1 per point: one seeded permutation, folds alternating by
    rank within each group, so a group of 2 or more rows has both folds."""
    perm = rng.permutation(groups.size)
    order = perm[np.argsort(groups[perm], kind="stable")]
    ranked = groups[order]
    fold = np.empty(groups.size, dtype=np.int64)
    fold[order] = (np.arange(groups.size) - np.searchsorted(ranked, ranked)) % 2
    return fold


def _mean_stderr(rows, n_runs):
    """(column means, ddof=1 standard errors of the mean) of each consecutive
    group of n_runs rows (runs), in order; the standard error of a single
    run is 0."""
    arr = np.asarray(rows, dtype=np.float64)
    groups = [arr[start : start + n_runs] for start in range(0, len(arr), n_runs)]
    if n_runs == 1:
        return [(g.mean(axis=0), np.zeros(arr.shape[1])) for g in groups]
    return [(g.mean(axis=0), g.std(axis=0, ddof=1) / math.sqrt(n_runs)) for g in groups]


@cache
def _openblas():
    """numpy's bundled OpenBLAS, or None when it is not found."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        if hasattr(lib, "scipy_openblas_set_num_threads64_"):
            lib.scipy_openblas_set_num_threads64_.argtypes = [ctypes.c_int]
            lib.scipy_openblas_set_num_threads64_.restype = None
            lib.scipy_openblas_get_num_threads64_.argtypes = []
            lib.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
            return lib
    return None


@contextmanager
def _one_blas_thread():
    """Cap numpy's OpenBLAS at one thread for the block and restore the old
    count after it; yields False, leaving BLAS alone, without the library.
    The count is process-wide."""
    lib = _openblas()
    if lib is None:
        yield False
        return
    old = lib.scipy_openblas_get_num_threads64_()
    lib.scipy_openblas_set_num_threads64_(1)
    try:
        yield True
    finally:
        lib.scipy_openblas_set_num_threads64_(old)


def _n_workers(n_items):
    return min(n_items, len(os.sched_getaffinity(0)))


# the BLAS thread count is process-wide, so calls from different threads of
# the caller take turns
_map_lock = threading.Lock()


def _map(fn, items):
    """[fn(item) for item in items], run on a thread pool of one thread per
    core, each task on one BLAS thread, so the results do not depend on the
    core count; without the BLAS library it runs inline. A task must not call
    _map: the call would wait for the lock its caller holds."""
    with _map_lock, _one_blas_thread() as capped:
        workers = _n_workers(len(items)) if capped else 1
        if workers <= 1:
            return [fn(item) for item in items]
        # on the first task that raises, map cancels the tasks not yet started
        with ThreadPoolExecutor(workers) as pool:
            return list(pool.map(fn, items))


def _dataset(source):
    """A task's dataset: a LabeledDataset as given, or gen_colored's draw for (spec, data_seed)."""
    return gen_colored(source[0], Rng(source[1])) if isinstance(source, tuple) else source


def _run(ds, mlp_cfg, est_cfg, seed):
    """One pipeline run: train the discriminator from Rng(seed), extract
    features and run the estimator from Rng(seed).spawn(1)[0], a stream of
    its own, so that its draws do not depend on how long training ran.
    Returns ((d_div, d_cor), validation accuracy, estimator diagnostics)."""
    rng = Rng(seed)
    est_rng = rng.spawn(1)[0]
    model = train(ds, mlp_cfg, rng)
    F = extract(model, ds.features)
    tr = ds.envs == 0
    d_div, d_cor, diag = estimate(F[tr], F[~tr], ds.labels[tr], ds.labels[~tr], est_cfg, est_rng)
    return (d_div, d_cor), model.val_accuracy, diag


def _check_tasks(tasks):
    """Raise, without training, the ValueError that a (source, seed) task
    would raise for too few rows: an empty validation split or (env, class)
    cell in the split that Rng(seed) draws first, or a class with under 2
    rows in an environment. Consecutive tasks that share one source object
    share one dataset, made once; one dataset is held at a time."""

    def check():
        source = ds = None
        for task_source, seed in tasks:
            if task_source is not source:
                source, ds = task_source, None
                ds = _dataset(source)
            _split_cells(ds, Rng(seed))
            _classes(ds.labels[ds.envs == 0], ds.labels[ds.envs != 0])

    # run on a thread of its own, whose malloc arena the runs' threads reuse;
    # on the calling thread, the freed datasets added 10 MiB to compare's peak RSS
    with ThreadPoolExecutor(1) as pool:
        pool.submit(check).result()


def _pipeline_tasks(ds, n_runs, base_seed):
    """Run i of estimate_pipeline runs from seed base_seed + i."""
    return [(ds, base_seed + i) for i in range(n_runs)]


def _sweep_tasks(base_spec, axis1, values1, axis2, values2, n_runs, base_seed):
    """Cell i (row-major) draws its dataset from seed base_seed + 10000*i,
    and its run r runs from that seed + 1 + r; a cell's runs share one
    source object."""
    specs = [replace(base_spec, **{axis1: float(a), axis2: float(b)})
             for a in values1 for b in values2]
    sources = [(spec, base_seed + 10000 * i) for i, spec in enumerate(specs)]
    return [(source, source[1] + 1 + r) for source in sources for r in range(n_runs)]


def estimate_pipeline(ds, mlp_cfg, est_cfg, base_seed):
    """Full pipeline: run i trains, extracts and estimates from seed
    base_seed + i; aggregate mean and standard error over runs."""
    est_cfg.validate()
    runs = _map(lambda task: _run(_dataset(task[0]), mlp_cfg, est_cfg, task[1]),
                _pipeline_tasks(ds, est_cfg.n_runs, base_seed))
    per_run, val_accs, run_diags = zip(*runs)
    [(mean, stderr)] = _mean_stderr(per_run, est_cfg.n_runs)
    return ShiftEstimate(
        d_div=float(mean[0]),
        d_cor=float(mean[1]),
        per_run=[(float(a), float(b)) for a, b in per_run],
        stderr_div=float(stderr[0]),
        stderr_cor=float(stderr[1]),
        over_one_flag=bool((np.asarray(per_run) > 1.0).any()),
        diagnostics={
            "val_accuracy_per_run": list(val_accs),
            "frac_div_region_per_run": [d["frac_div_region"] for d in run_diags],
            "frac_cor_region_per_run": [d["frac_cor_region"] for d in run_diags],
        },
    )


def sweep(base_spec, axis1, values1, axis2, values2, mlp_cfg, est_cfg, base_seed):
    """Grid of pipeline estimates over two ColoredSpec fields.

    Cell i (row-major) generates its dataset from seed base_seed + 10000*i
    and runs its run r from that seed + 1 + r. Every (cell, run) pair is one
    task of _map. Returns one dict per cell.
    """
    est_cfg.validate()
    n_runs = est_cfg.n_runs
    tasks = _sweep_tasks(base_spec, axis1, values1, axis2, values2, n_runs, base_seed)
    runs = _map(lambda task: _run(_dataset(task[0]), mlp_cfg, est_cfg, task[1]), tasks)
    return [
        {axis1: getattr(spec, axis1), axis2: getattr(spec, axis2),
         "d_div": float(mean[0]), "d_cor": float(mean[1]),
         "stderr_div": float(stderr[0]), "stderr_cor": float(stderr[1])}
        for ((spec, _), _), (mean, stderr)
        in zip(tasks[::n_runs], _mean_stderr([run[0] for run in runs], n_runs))
    ]
