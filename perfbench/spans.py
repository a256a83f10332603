"""Spans around the calls into each oodshift layer, recorded from outside.

The tracer replaces public functions at the names their callers look up
(``oodshift.cli``, ``oodshift.estimator``, ``oodshift.baselines``) with
wrappers that record a span per call, and puts the originals back when it
is uninstalled. Spans stay in memory; ``layer_metrics`` folds them into the
per-layer figures. Nothing inside ``src/`` is changed.
"""

import importlib
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager


def _steps(args, kwargs):
    cfg = kwargs.get("cfg", args[1] if len(args) > 1 else None)
    return {"steps": int(cfg.iters)}


def _pairs(args, kwargs):
    model = kwargs.get("model", args[0])
    z = kwargs.get("Z", args[1] if len(args) > 1 else None)
    rows = 1 if getattr(z, "ndim", 2) == 1 else len(z)
    return {"pairs": rows * int(model.points.shape[0])}


def _file_bytes(args, kwargs):
    return {"bytes": os.path.getsize(kwargs.get("path", args[0]))}


# (module the caller looks the name up in, attribute, span name, counts)
TARGETS = [
    ("oodshift.cli", "load_csv", "data.load_csv", _file_bytes),
    ("oodshift.cli", "save_csv", "data.save_csv", None),
    ("oodshift.cli", "gen_colored", "datagen.gen_colored", None),
    ("oodshift.cli", "gen_latent", "datagen.gen_latent", None),
    ("oodshift.cli", "estimate_pipeline", "estimator.estimate_pipeline", None),
    ("oodshift.baselines", "compare_table", "baselines.compare_table", None),
    ("oodshift.baselines", "gen_colored", "datagen.gen_colored", None),
    ("oodshift.baselines", "estimate_pipeline", "estimator.estimate_pipeline", None),
    ("oodshift.baselines", "mmd", "baselines.mmd", None),
    ("oodshift.baselines", "emd", "baselines.emd", None),
    ("oodshift.baselines", "ni", "baselines.ni", None),
    ("oodshift.estimator", "train", "discriminator.train", _steps),
    ("oodshift.estimator", "extract", "discriminator.extract", None),
    ("oodshift.estimator", "estimate", "estimator.estimate", None),
    ("oodshift.estimator", "kde_fit", "density.kde_fit", None),
    ("oodshift.estimator", "kde_logpdf", "density.kde_logpdf", _pairs),
    ("oodshift.estimator", "kde_sample", "density.kde_sample", None),
]


class Span:
    __slots__ = ("sid", "name", "parent", "start", "end", "counts")

    def __init__(self, sid, name, parent, counts):
        self.sid, self.name, self.parent, self.counts = sid, name, parent, counts
        self.start = time.perf_counter()
        self.end = None

    def to_dict(self):
        return {
            "id": self.sid, "name": self.name, "parent": self.parent,
            "start": self.start, "end": self.end, "counts": self.counts,
        }


class Tracer:
    """Records spans; a span's parent is the innermost open span of its thread."""

    def __init__(self):
        self.spans = []
        self._local = threading.local()
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name, counts=None):
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            sp = Span(len(self.spans), name, stack[-1].sid if stack else None, counts or {})
            self.spans.append(sp)
        stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            stack.pop()

    def _wrap(self, fn, name, count):
        def wrapper(*args, **kwargs):
            with self.span(name, count(args, kwargs) if count else None):
                return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every target the program still has; restore them on exit.

        A name a later version of the program no longer defines is skipped,
        so its layer reports 0 rather than failing the run.
        """
        saved = []
        try:
            for mod_name, attr, name, count in TARGETS:
                mod = importlib.import_module(mod_name)
                if hasattr(mod, attr):
                    saved.append((mod, attr, getattr(mod, attr)))
                    setattr(mod, attr, self._wrap(getattr(mod, attr), name, count))
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)


def _covered(intervals):
    """Length of the union of (start, end) intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def span_totals(spans):
    """{span name: {"calls", "total_s", "self_s", summed counts...}}; a
    name never seen reads 0 for every key."""
    children = defaultdict(list)
    for sp in spans:
        if sp.parent is not None:
            children[sp.parent].append((sp.start, sp.end))
    out = defaultdict(lambda: defaultdict(int))
    for sp in spans:
        agg = out[sp.name]
        dur = sp.end - sp.start
        agg["calls"] += 1
        agg["total_s"] += dur
        agg["self_s"] += dur - _covered(children[sp.sid])
        for key, val in sp.counts.items():
            agg[key] += val
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans):
    """The per-layer figures of one traced scope, every name always present."""
    t = span_totals(spans)
    train_s, steps = t["discriminator.train"]["total_s"], t["discriminator.train"]["steps"]
    logpdf = t["density.kde_logpdf"]
    load = t["data.load_csv"]
    return {
        "discriminator.train_s": train_s,
        "discriminator.steps": steps,
        "discriminator.step_ms": 1e3 * _ratio(train_s, steps),
        "discriminator.extract_s": t["discriminator.extract"]["total_s"],
        "density.kde_logpdf_s": logpdf["total_s"],
        "density.kde_logpdf_calls": logpdf["calls"],
        "density.kde_pairs": logpdf["pairs"],
        "density.kde_ns_per_pair": 1e9 * _ratio(logpdf["total_s"], logpdf["pairs"]),
        "density.kde_sample_s": t["density.kde_sample"]["total_s"],
        "density.kde_fit_s": t["density.kde_fit"]["total_s"],
        "estimator.estimate_s": t["estimator.estimate"]["total_s"],
        "estimator.estimate_self_s": t["estimator.estimate"]["self_s"],
        "estimator.pipeline_self_s": t["estimator.estimate_pipeline"]["self_s"],
        "datagen.gen_colored_s": t["datagen.gen_colored"]["total_s"],
        "datagen.gen_latent_s": t["datagen.gen_latent"]["total_s"],
        "data.load_csv_s": load["total_s"],
        "data.load_csv_mb_per_s": _ratio(load["bytes"] / 1e6, load["total_s"]),
        "data.save_csv_s": t["data.save_csv"]["total_s"],
        "baselines.mmd_s": t["baselines.mmd"]["total_s"],
        "baselines.emd_s": t["baselines.emd"]["total_s"],
        "baselines.ni_s": t["baselines.ni"]["total_s"],
        "baselines.compare_self_s": t["baselines.compare_table"]["self_s"],
        "cli.self_s": t["cli.main"]["self_s"],
    }
