"""Command-line front end for reproducible shift-quantification runs.

Every command is a pure function of (config file + flags + seed); the merged
effective config is echoed into the output directory and timestamps go only
to the log file, so reruns produce byte-identical results.

Exit codes: 0 success, 1 internal numeric failure, 2 user/config error.
"""

import argparse
import csv
import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import baselines, benchscore
from .data import ParseError, Rng, load_csv, save_csv
from .datagen import ColoredSpec, gen_colored, gen_latent, irm_colored_default, latent_spec_a
from .discriminator import MlpConfig
from .estimator import (
    EstimatorConfig, _check_tasks, _pipeline_tasks, _sweep_tasks, estimate_pipeline, sweep)


class UserError(ValueError):
    pass


_PRESETS = {
    "iid": lambda: ColoredSpec(rho_tr=0.1, rho_te=0.1),
    "irm-cmnist": irm_colored_default,
    "cmnist-blue": lambda: ColoredSpec(
        rho_tr=0.1, rho_te=0.1, mu_te=1.0, sigma_tr=0.1, sigma_te=0.1),
    "latent-a": latent_spec_a,
}
_LATENT_NOISE = 0.05  # the observation noise of the latent-a preset


def _preset(name_args):
    name, *extra = name_args
    if name == "cmnist-rho":
        if len(extra) != 2:
            raise UserError("preset cmnist-rho needs two values: --preset cmnist-rho A B")
        try:
            a, b = map(float, extra)
        except ValueError:
            raise UserError(f"preset cmnist-rho values must be numbers, got {extra}") from None
        return ColoredSpec(rho_tr=a, rho_te=b, label_noise=0.0)
    if name not in _PRESETS:
        raise UserError(f"unknown preset {name!r}")
    if extra:
        raise UserError(f"preset {name} takes no values, got {extra}")
    return _PRESETS[name]()


def _load_config(path):
    if path is None:
        return {}
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise UserError("config file must hold a JSON object")
    return doc


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


# the JSON values each config field annotation accepts, and how to name them;
# every field of ColoredSpec, MlpConfig and EstimatorConfig needs an entry
_JSON_TYPES = {
    int: (_is_int, "an integer"),
    float: (lambda v: _is_int(v) or isinstance(v, float), "a number"),
    tuple[int, ...]: (lambda v: isinstance(v, list) and all(map(_is_int, v)), "a list of integers"),
}

_SPEC_ONLY_COLORED = "config block 'spec' applies only to colored-digit presets"


def _merged(config, name, base, **flags):
    """`base` updated by the config file's `name` block, a JSON object of fields
    of `base` with values of their JSON type, then by each flag given (not None)."""
    block = config.get(name, {})
    if not isinstance(block, dict):
        raise UserError(f"config block {name!r} must be a JSON object")
    types = {f.name: f.type for f in dataclasses.fields(base)}
    fields = {}
    for key, value in block.items():
        if key not in types:
            raise UserError(f"config block {name!r} has unsupported key {key!r}")
        accepts, kind = _JSON_TYPES[types[key]]
        if not accepts(value):
            raise UserError(f"config block {name!r} key {key!r} must be {kind}, got {value!r}")
        fields[key] = tuple(value) if isinstance(value, list) else value
    fields.update((key, value) for key, value in flags.items() if value is not None)
    return dataclasses.replace(base, **fields)


def _spec(args, config):
    if args.preset:
        spec = _preset(args.preset)
    elif "spec" in config:
        spec = ColoredSpec()
    else:
        raise UserError("no dataset spec: pass --preset or a config with a 'spec' block")
    if isinstance(spec, ColoredSpec):
        return _merged(config, "spec", spec, n_per_env=args.n_per_env)
    if "spec" in config:
        _merged(config, "spec", ColoredSpec())  # names a bad key first
        raise UserError(_SPEC_ONLY_COLORED)
    return spec


def _run_configs(config, args, est_base=EstimatorConfig()):
    """The validated MlpConfig and EstimatorConfig of a command that runs the
    pipeline."""
    mlp_cfg = _merged(config, "mlp", MlpConfig(), iters=args.iters)
    est_cfg = _merged(
        config, "estimator", est_base, n_runs=args.runs, n_mc_samples=args.mc_samples
    )
    mlp_cfg.validate()
    est_cfg.validate()
    return mlp_cfg, est_cfg


def _prepare_out(args, extra):
    """The output directory, created, with the effective config echoed into
    its config.json; every command calls this only after its inputs are
    checked, so bad input leaves no directory behind."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    doc = {"command": args.command, "seed": args.seed, "preset": getattr(args, "preset", None),
           "config_file": args.config, **extra}
    (out / "config.json").write_text(json.dumps(doc, indent=2, sort_keys=True, default=str))
    return out


def _log(out, message):
    with open(out / "run.log", "a") as fh:
        fh.write(f"[{time.strftime('%Y-%m-%d %H:%M:%S')}] {message}\n")


def _spec_doc(spec):
    """A spec's fields as JSON values, arrays as nested lists."""
    return {f.name: np.asarray(getattr(spec, f.name)).tolist() for f in dataclasses.fields(spec)}


def _write_csv(path, records):
    """One row per record under a header of the first record's keys."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(records[0]))
        writer.writeheader()
        writer.writerows(records)


def _build_dataset(args, config):
    if getattr(args, "data", None):
        if "spec" in config:
            raise UserError(_SPEC_ONLY_COLORED)
        if args.n_per_env is not None:
            raise UserError("--n-per-env does not apply to --data: the CSV fixes the row count")
        return load_csv(args.data), {"data": args.data}
    spec = _spec(args, config)
    rng = Rng(args.seed)
    if isinstance(spec, ColoredSpec):
        return gen_colored(spec, rng), {"spec": _spec_doc(spec), "kind": "colored"}
    # the latent generator takes the colored one's default row count
    n_per_env = ColoredSpec.n_per_env if args.n_per_env is None else args.n_per_env
    ds = gen_latent(spec, n_per_env, rng, noise_std=_LATENT_NOISE)
    return ds, {"spec": _spec_doc(spec), "kind": "latent",
                "n_per_env": n_per_env, "noise_std": _LATENT_NOISE}


def cmd_generate(args):
    config = _load_config(args.config)
    ds, meta = _build_dataset(args, config)
    out = _prepare_out(args, meta)
    save_csv(ds, out / "data.csv")
    (out / "spec.json").write_text(
        json.dumps({"seed": args.seed, **meta}, indent=2, sort_keys=True)
    )
    _log(out, f"generate: wrote {ds.n_rows} rows to {out / 'data.csv'}")
    return 0


def cmd_estimate(args):
    config = _load_config(args.config)
    ds, meta = _build_dataset(args, config)
    mlp_cfg, est_cfg = _run_configs(config, args)
    _check_tasks(_pipeline_tasks(ds, est_cfg.n_runs, args.seed))
    out = _prepare_out(args, {
        **meta, "mlp": dataclasses.asdict(mlp_cfg), "estimator": dataclasses.asdict(est_cfg),
    })
    t0 = time.time()
    result = estimate_pipeline(ds, mlp_cfg, est_cfg, args.seed)
    _log(out, f"estimate: finished in {time.time() - t0:.1f}s")
    doc = {
        "seed": args.seed,
        "estimator": dataclasses.asdict(est_cfg),
        "result": dataclasses.asdict(result),
    }
    (out / "result.json").write_text(json.dumps(doc, indent=2, sort_keys=True))
    print(f"d_div = {result.d_div:.4f} +- {result.stderr_div:.4f}")
    print(f"d_cor = {result.d_cor:.4f} +- {result.stderr_cor:.4f}")
    return 0


def cmd_sweep(args):
    config = _load_config(args.config)
    spec = _spec(args, config)
    if not isinstance(spec, ColoredSpec):
        raise UserError("sweep requires a colored-digit spec")
    spec.validate()
    axis1, axis2 = {"rho": ("rho_tr", "rho_te"), "mu": ("mu_tr", "mu_te")}[args.axes]
    try:
        values = [float(v) for v in args.grid]
    except ValueError:
        raise UserError(f"--grid values must be numbers, got {args.grid}") from None
    for v in values:
        if not 0.0 <= v <= 1.0:
            raise UserError(f"--grid value out of [0, 1]: {v}")
    mlp_cfg, est_cfg = _run_configs(config, args, EstimatorConfig(n_runs=1))
    _check_tasks(_sweep_tasks(spec, axis1, values, axis2, values, est_cfg.n_runs, args.seed))
    out = _prepare_out(args, {
        "spec": _spec_doc(spec), "axes": args.axes, "grid": values,
        "mlp": dataclasses.asdict(mlp_cfg), "estimator": dataclasses.asdict(est_cfg),
    })
    t0 = time.time()
    records = sweep(spec, axis1, values, axis2, values, mlp_cfg, est_cfg, args.seed)
    _log(out, f"sweep: {len(records)} cells in {time.time() - t0:.1f}s")
    _write_csv(out / "sweep.csv", records)
    print(f"wrote {len(records)} cells to {out / 'sweep.csv'}")
    return 0


def cmd_compare(args):
    config = _load_config(args.config)
    if "spec" in config:
        raise UserError(_SPEC_ONLY_COLORED)
    irm = _merged(config, "spec", irm_colored_default(), n_per_env=args.n_per_env)
    specs = [dataclasses.replace(irm, rho_te=r) for r in (0.9, 0.7, 0.5, 0.3, 0.1)]
    specs.append(dataclasses.replace(_preset(["cmnist-blue"]), n_per_env=irm.n_per_env))
    mlp_cfg, est_cfg = _run_configs(config, args)
    _check_tasks(baselines._compare_tasks(specs, est_cfg.n_runs, args.seed))
    out = _prepare_out(args, {
        "n_per_env": irm.n_per_env,
        "mlp": dataclasses.asdict(mlp_cfg), "estimator": dataclasses.asdict(est_cfg),
    })
    t0 = time.time()
    rows = baselines.compare_table(specs, mlp_cfg, est_cfg, args.seed)
    _log(out, f"compare: {len(rows)} rows in {time.time() - t0:.1f}s")
    _write_csv(out / "compare.csv", rows)
    print(f"wrote {len(rows)} rows to {out / 'compare.csv'}")
    return 0


def cmd_score(args):
    if args.fixture:
        table = dataclasses.replace(benchscore.load_fixture(args.fixture), reference=args.ref)
    elif args.table:
        table = benchscore.load_accuracy_table(args.table, reference=args.ref)
    else:
        raise UserError("score needs --table or --fixture")
    per_cell = benchscore.cell_scores(table)
    totals = benchscore.ranking_scores(table)
    if args.json:
        print(json.dumps(
            {
                "ranking_scores": totals,
                "cells": {f"{a}/{d}": s for (a, d), s in per_cell.items()},
            },
            indent=2, sort_keys=True,
        ))
    else:
        arrows = {1: "^", 0: ".", -1: "v"}
        for alg in table.algorithms:
            marks = " ".join(arrows[per_cell[alg, ds]] for ds in table.datasets)
            print(f"{alg:10s} {marks}  score {totals[alg]:+d}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="oodshift",
        description="Quantify diversity and correlation shift between two environments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, pipeline=True):
        p.add_argument("--config", help="JSON config file (flags override it)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default="out")
        p.add_argument("--n-per-env", type=int, help="rows per environment")
        if pipeline:
            p.add_argument("--iters", type=int, help="discriminator steps")
            p.add_argument("--runs", type=int, help="pipeline repetitions")
            p.add_argument("--mc-samples", type=int)

    def preset(p):
        # compare builds its own six colored-digit datasets and takes none
        p.add_argument("--preset", nargs="+", metavar="NAME",
                       help="iid | irm-cmnist | cmnist-rho A B | cmnist-blue | latent-a")

    p_gen = sub.add_parser("generate", help="write a dataset CSV plus spec sidecar")
    common(p_gen, pipeline=False)
    preset(p_gen)
    p_gen.set_defaults(func=cmd_generate)

    p_est = sub.add_parser("estimate", help="run the full shift-estimation pipeline")
    common(p_est)
    source = p_est.add_mutually_exclusive_group()
    preset(source)
    source.add_argument("--data", help="existing dataset CSV instead of a preset")
    p_est.set_defaults(func=cmd_estimate)

    p_sweep = sub.add_parser("sweep", help="grid of estimates over color knobs")
    common(p_sweep)
    preset(p_sweep)
    p_sweep.add_argument("--axes", choices=("rho", "mu"), default="rho")
    p_sweep.add_argument("--grid", nargs="+", default=["0.1", "0.3", "0.5", "0.7", "0.9"])
    p_sweep.set_defaults(func=cmd_sweep)

    p_cmp = sub.add_parser("compare", help="baseline metrics vs the decomposition")
    common(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    p_score = sub.add_parser("score", help="ranking scores for an accuracy table")
    source = p_score.add_mutually_exclusive_group()
    source.add_argument("--table", help="CSV with algorithm,dataset,mean,stderr")
    source.add_argument("--fixture", choices=("diversity", "correlation"))
    p_score.add_argument("--ref", default="ERM")
    p_score.add_argument("--json", action="store_true")
    p_score.set_defaults(func=cmd_score)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UserError, ParseError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
