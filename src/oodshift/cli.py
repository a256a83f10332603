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
from .estimator import EstimatorConfig, estimate_pipeline, sweep


class UserError(ValueError):
    pass


def _preset(name_args, n_per_env):
    if not name_args:
        raise UserError("a --preset or --data input is required")
    name, *extra = name_args
    if name == "iid":
        return ColoredSpec(rho_tr=0.1, rho_te=0.1, n_per_env=n_per_env)
    if name == "irm-cmnist":
        return irm_colored_default(n_per_env)
    if name == "cmnist-rho":
        if len(extra) != 2:
            raise UserError("preset cmnist-rho needs two values: --preset cmnist-rho A B")
        a, b = float(extra[0]), float(extra[1])
        return ColoredSpec(rho_tr=a, rho_te=b, label_noise=0.0, n_per_env=n_per_env)
    if name == "cmnist-blue":
        return ColoredSpec(
            rho_tr=0.1, rho_te=0.1, mu_tr=0.0, mu_te=1.0,
            sigma_tr=0.1, sigma_te=0.1, n_per_env=n_per_env,
        )
    if name == "latent-a":
        return latent_spec_a()
    raise UserError(f"unknown preset {name!r}")


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


def _config_block(config, name, target, cli_set=()):
    """The config file's `name` block, checked to be a JSON object whose keys
    are fields of the dataclass `target`, other than those the CLI sets, and
    whose values have the JSON type of their field."""
    block = config.get(name, {})
    if not isinstance(block, dict):
        raise UserError(f"config block {name!r} must be a JSON object")
    types = {f.name: f.type for f in dataclasses.fields(target) if f.name not in cli_set}
    for key, value in block.items():
        if key not in types:
            raise UserError(f"config block {name!r} has unsupported key {key!r}")
        accepts, kind = _JSON_TYPES[types[key]]
        if not accepts(value):
            raise UserError(f"config block {name!r} key {key!r} must be {kind}, got {value!r}")
    return dict(block)


def _merged_spec(args, config):
    overrides = _config_block(config, "spec", ColoredSpec)
    if not args.preset:
        if "spec" not in config:
            raise UserError("no dataset spec: pass --preset or a config with a 'spec' block")
        return ColoredSpec(**overrides)
    spec = _preset(args.preset, args.n_per_env)
    if "spec" in config:
        if not isinstance(spec, ColoredSpec):
            raise UserError(_SPEC_ONLY_COLORED)
        spec = dataclasses.replace(spec, **overrides)
    return spec


def _mlp_config(in_dim, n_classes, config, args):
    fields = _config_block(config, "mlp", MlpConfig, ("in_dim", "n_classes"))
    if args.iters is not None:
        fields["iters"] = args.iters
    if "hidden_dims" in fields:
        fields["hidden_dims"] = tuple(fields["hidden_dims"])
    return MlpConfig(in_dim=in_dim, n_classes=n_classes, **fields)


def _est_config(config, args):
    fields = _config_block(config, "estimator", EstimatorConfig)
    if args.runs is not None:
        fields["n_runs"] = args.runs
    if args.mc_samples is not None:
        fields["n_mc_samples"] = args.mc_samples
    return EstimatorConfig(**fields)


def _prepare_out(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _echo_config(out, args, extra):
    doc = {
        "command": args.command,
        "seed": args.seed,
        "preset": getattr(args, "preset", None),
        "config_file": args.config,
        **extra,
    }
    (out / "config.json").write_text(json.dumps(doc, indent=2, sort_keys=True, default=str))


def _log(out, message):
    with open(out / "run.log", "a") as fh:
        fh.write(f"[{time.strftime('%Y-%m-%d %H:%M:%S')}] {message}\n")


def _build_dataset(args, config):
    if getattr(args, "data", None):
        if "spec" in config:
            raise UserError(_SPEC_ONLY_COLORED)
        return load_csv(args.data), {"data": args.data}
    spec = _merged_spec(args, config)
    rng = Rng(args.seed)
    if not isinstance(spec, ColoredSpec):
        ds = gen_latent(spec, args.n_per_env, rng, noise_std=args.latent_noise)
        return ds, {"spec": json.loads(spec.to_json()), "kind": "latent"}
    ds = gen_colored(spec, rng)
    return ds, {"spec": json.loads(spec.to_json()), "kind": "colored"}


def cmd_generate(args):
    config = _load_config(args.config)
    out = _prepare_out(args)
    ds, meta = _build_dataset(args, config)
    save_csv(ds, out / "data.csv")
    (out / "spec.json").write_text(
        json.dumps({"seed": args.seed, **meta}, indent=2, sort_keys=True)
    )
    _echo_config(out, args, meta)
    _log(out, f"generate: wrote {ds.n_rows} rows to {out / 'data.csv'}")
    return 0


def cmd_estimate(args):
    config = _load_config(args.config)
    out = _prepare_out(args)
    ds, meta = _build_dataset(args, config)
    mlp_cfg = _mlp_config(ds.n_dims, ds.n_classes, config, args)
    est_cfg = _est_config(config, args)
    _echo_config(
        out, args,
        {**meta, "mlp": dataclasses.asdict(mlp_cfg), "estimator": dataclasses.asdict(est_cfg)},
    )
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
    out = _prepare_out(args)
    spec = _merged_spec(args, config)
    if not isinstance(spec, ColoredSpec):
        raise UserError("sweep requires a colored-digit spec")
    axis1, axis2 = {
        "rho": ("rho_tr", "rho_te"),
        "mu": ("mu_tr", "mu_te"),
    }[args.axes]
    values = [float(v) for v in args.grid]
    for v in values:
        if not 0.0 <= v <= 1.0:
            raise UserError(f"grid value out of [0, 1]: {v}")
    mlp_cfg = _mlp_config(3 * spec.image_side**2, 2, config, args)
    est_cfg = _est_config(config, args)
    if args.runs is None and "n_runs" not in config.get("estimator", {}):
        est_cfg = dataclasses.replace(est_cfg, n_runs=1)
    _echo_config(out, args, {
        "spec": json.loads(spec.to_json()), "axes": args.axes, "grid": values,
        "mlp": dataclasses.asdict(mlp_cfg), "estimator": dataclasses.asdict(est_cfg),
    })
    t0 = time.time()
    records = sweep(spec, axis1, values, axis2, values, mlp_cfg, est_cfg, args.seed)
    _log(out, f"sweep: {len(records)} cells in {time.time() - t0:.1f}s")
    with open(out / "sweep.csv", "w", newline="") as fh:
        writer = csv.DictWriter(
            fh, fieldnames=[axis1, axis2, "d_div", "d_cor", "stderr_div", "stderr_cor"]
        )
        writer.writeheader()
        writer.writerows(records)
    print(f"wrote {len(records)} cells to {out / 'sweep.csv'}")
    return 0


def cmd_compare(args):
    config = _load_config(args.config)
    if "spec" in config:
        raise UserError(_SPEC_ONLY_COLORED)
    out = _prepare_out(args)
    irm = irm_colored_default(args.n_per_env)
    specs = [dataclasses.replace(irm, rho_te=r) for r in (0.9, 0.7, 0.5, 0.3, 0.1)]
    specs.append(_preset(["cmnist-blue"], args.n_per_env))
    mlp_cfg = _mlp_config(3 * specs[0].image_side**2, 2, config, args)
    est_cfg = _est_config(config, args)
    _echo_config(out, args, {
        "mlp": dataclasses.asdict(mlp_cfg), "estimator": dataclasses.asdict(est_cfg),
    })
    t0 = time.time()
    rows = baselines.compare_table(specs, mlp_cfg, est_cfg, args.seed)
    _log(out, f"compare: {len(rows)} rows in {time.time() - t0:.1f}s")
    with open(out / "compare.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=[
            "rho_te", "blue", "emd", "emd_stderr", "mmd", "mmd_stderr",
            "ni", "ni_stderr", "d_div", "d_div_stderr", "d_cor", "d_cor_stderr",
        ])
        writer.writeheader()
        writer.writerows(rows)
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

    def common(p):
        p.add_argument("--config", help="JSON config file (flags override it)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default="out")
        p.add_argument("--n-per-env", type=int, default=2000)
        p.add_argument("--iters", type=int, default=None, help="discriminator steps")
        p.add_argument("--runs", type=int, default=None, help="pipeline repetitions")
        p.add_argument("--mc-samples", type=int, default=None)

    def dataset(p):
        # compare builds its own six colored-digit datasets and takes neither
        p.add_argument("--preset", nargs="+", metavar="NAME",
                       help="iid | irm-cmnist | cmnist-rho A B | cmnist-blue | latent-a")
        p.add_argument("--latent-noise", type=float, default=0.05)

    p_gen = sub.add_parser("generate", help="write a dataset CSV plus spec sidecar")
    common(p_gen)
    dataset(p_gen)
    p_gen.set_defaults(func=cmd_generate)

    p_est = sub.add_parser("estimate", help="run the full shift-estimation pipeline")
    common(p_est)
    dataset(p_est)
    p_est.add_argument("--data", help="existing dataset CSV instead of a preset")
    p_est.set_defaults(func=cmd_estimate)

    p_sweep = sub.add_parser("sweep", help="grid of estimates over color knobs")
    common(p_sweep)
    dataset(p_sweep)
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
    except (UserError, ParseError, FileNotFoundError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
