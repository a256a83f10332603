"""Benchmark harness for the oodshift CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cmnist-csv --seed 1 --seconds 12 --trace 0

One process runs one workload: it imports ``oodshift`` from ``src/``, builds
the workload's inputs, then calls ``oodshift.cli.main(argv)`` in-process for
whole operations until ``--seconds`` have passed, checking every operation's
output files. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import Tracer, layer_metrics  # noqa: E402
from workloads import SIZES, WORKLOADS, SetupError  # noqa: E402

SETUP_REPEATS = 3

# Times the import in a fresh interpreter, so every set-up repetition pays it.
_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import oodshift.cli; "
    "d = time.perf_counter() - t; print(oodshift.cli.__file__); print(d)"
)

PER_LAYER_UNITS = {
    "discriminator.train_s": "s",
    "discriminator.steps": "count",
    "discriminator.step_ms": "ms",
    "discriminator.extract_s": "s",
    "density.kde_logpdf_s": "s",
    "density.kde_logpdf_calls": "count",
    "density.kde_pairs": "count",
    "density.kde_ns_per_pair": "ns",
    "density.kde_sample_s": "s",
    "density.kde_fit_s": "s",
    "estimator.estimate_s": "s",
    "estimator.estimate_self_s": "s",
    "estimator.pipeline_self_s": "s",
    "datagen.gen_colored_s": "s",
    "datagen.gen_latent_s": "s",
    "data.load_csv_s": "s",
    "data.load_csv_mb_per_s": "MB/s",
    "data.save_csv_s": "s",
    "baselines.mmd_s": "s",
    "baselines.emd_s": "s",
    "baselines.ni_s": "s",
    "baselines.compare_self_s": "s",
    "cli.self_s": "s",
    "process.cpu_s": "s",
    "trace.overhead_s": "s",
}


class HarnessError(RuntimeError):
    """The benchmark cannot run here (no program source, bad set-up)."""


def import_program(root=ROOT):
    """Import ``oodshift.cli`` from the checkout's ``src/``, nowhere else."""
    src = root / "src"
    if not (src / "oodshift" / "cli.py").is_file():
        raise HarnessError(f"no program source at {src / 'oodshift'}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import oodshift.cli

    if not Path(oodshift.cli.__file__).resolve().is_relative_to(src.resolve()):
        raise HarnessError(f"oodshift imported from {oodshift.cli.__file__}, not {src}")
    return oodshift.cli


def import_seconds(root=ROOT):
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE], env=env, cwd=root,
        capture_output=True, text=True, timeout=120,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) != 2:
        raise HarnessError(f"import probe failed: {proc.stderr.strip()}")
    if not Path(lines[0]).resolve().is_relative_to((root / "src").resolve()):
        raise HarnessError(f"import probe loaded {lines[0]}")
    return float(lines[1])


@contextlib.contextmanager
def _traced(tracer):
    """Wrap the layers and open the ``cli.main`` span, when tracing."""
    if tracer is None:
        yield
        return
    with tracer.installed(), tracer.span("cli.main"):
        yield


def run_op(cli, wl, inputs, op_seed, out, size, tracer=None):
    """One timed oodshift command; returns (problems or None, wall_s, cpu_s).

    problems is None when the command itself failed (non-zero exit or an
    exception), else the list of failed output checks.
    """
    argv = wl.argv(inputs, op_seed, out, size)
    rc = None
    with contextlib.redirect_stdout(sys.stderr):
        cpu0, t0 = time.process_time(), time.perf_counter()
        try:
            with _traced(tracer):
                rc = cli.main(argv)
        except Exception:
            traceback.print_exc()
        wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
    if rc != 0:
        print(f"operation failed (exit {rc}): oodshift {' '.join(argv)}", file=sys.stderr)
        return None, wall, cpu
    try:
        problems = wl.check(out)
    except (OSError, ValueError, KeyError) as exc:
        problems = [f"unreadable output: {exc!r}"]
    for p in problems:
        print(f"check failed: {p} (oodshift {' '.join(argv)})", file=sys.stderr)
    return problems, wall, cpu


def run(workload, seed, seconds, trace, size=None, root=ROOT):
    """Run one workload and return the result object the harness prints."""
    cli = import_program(root)
    wl = WORKLOADS[workload]
    size = size or SIZES[workload]
    work = root / "perfbench" / "runs" / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = Tracer() if trace else None
    try:
        setup_times = []
        for rep in range(SETUP_REPEATS):
            t_import = import_seconds(root)
            # only the set-up whose inputs the operations use is traced
            traced = tracer if rep == SETUP_REPEATS - 1 else None
            with contextlib.redirect_stdout(sys.stderr), _traced(traced):
                t0 = time.perf_counter()
                inputs = wl.setup(cli.main, work, seed, size)
                setup_times.append(t_import + time.perf_counter() - t0)
        setup_spans = list(tracer.spans) if trace else []

        attempted = failed = 0
        correct = True
        walls, traced_ops = [], []
        start = time.perf_counter()
        while (
            attempted == 0
            or time.perf_counter() - start < seconds
            or (trace and (not traced_ops or not walls))
        ):
            # in a traced run every second operation is traced; the others
            # give the untraced time that the trace overhead is taken against
            traced = tracer if trace and attempted % 2 == 1 else None
            first = len(tracer.spans) if traced else 0
            out = work / f"op{attempted}"
            problems, wall, cpu = run_op(
                cli, wl, inputs, 1000 * seed + attempted, out, size, traced
            )
            attempted += 1
            if problems is None or problems:
                failed += 1
                correct = correct and problems is None
            if traced:
                traced_ops.append((wall, cpu, tracer.spans[first:]))
            else:
                walls.append(wall)
            shutil.rmtree(out, ignore_errors=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if trace:
        metrics = _per_layer(setup_spans, traced_ops, walls)
        _write_trace(root, workload, seed, setup_spans, traced_ops)
    else:
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MiB",
            },
        }
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def _per_layer(setup_spans, traced_ops, untraced_walls):
    """Median over traced operations of the layer figures of the traced
    set-up plus that operation."""
    rows = []
    for wall, cpu, spans in traced_ops:
        row = layer_metrics(setup_spans + spans)
        row["process.cpu_s"] = cpu
        rows.append(row)
    out = {
        name: {"value": statistics.median(r[name] for r in rows), "unit": unit}
        for name, unit in PER_LAYER_UNITS.items()
        if name != "trace.overhead_s"
    }
    overhead = statistics.median(w for w, _, _ in traced_ops) - statistics.median(untraced_walls)
    out["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return out


def _write_trace(root, workload, seed, setup_spans, traced_ops):
    path = root / "perfbench" / "traces" / f"{workload}-seed{seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {
        "setup": [s.to_dict() for s in setup_spans],
        "operations": [[s.to_dict() for s in spans] for _, _, spans in traced_ops],
    }
    path.write_text(json.dumps(doc))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (HarnessError, SetupError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
