"""Self-test of the benchmark harness at toy sizes; runs in seconds.

    python3 perfbench/selftest.py

It runs every workload's code path and output checks untraced and traced,
feeds the checks known-good and known-wrong outputs, shows that a wrong
result from the program is counted as a failed operation, and that the
harness refuses to run where there is no program source.
"""

import dataclasses
import json
import shutil
import subprocess
import sys

import run
import workloads
from workloads import WORKLOADS

TOY = {"n_per_env": 40, "runs": 2, "iters": 20, "mc_samples": 300}
SCRATCH = run.ROOT / "perfbench" / "runs" / "selftest"


def _fresh(name):
    path = SCRATCH / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def test_workloads_run_untraced():
    for name in WORKLOADS:
        res = run.run(name, seed=1, seconds=0, trace=False, size=TOY)
        assert res["attempted"] == 1, (name, res)
        # at toy sizes a check may fail, but the command itself must not
        assert res["failed"] == 0 or not res["correct"], (name, res)
        assert all(m["value"] > 0 for m in res["metrics"].values()), (name, res)


def test_metrics_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
    res = run.run("latent-kde", seed=1, seconds=0, trace=False, size=TOY)
    printed = {k: v["unit"] for k, v in res["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in spec["end_to_end"]}, printed


def test_workloads_run_traced():
    for name in WORKLOADS:
        res = run.run(name, seed=1, seconds=0, trace=True, size=TOY)
        assert res["attempted"] == 2, (name, res)
        m = {k: v["value"] for k, v in res["metrics"].items()}
        assert list(m) == list(run.PER_LAYER_UNITS), (name, sorted(m))
        assert m["cli.self_s"] >= 0.0 and m["estimator.pipeline_self_s"] >= 0.0, m
        assert m["density.kde_logpdf_calls"] > 0 and m["density.kde_pairs"] > 0, m
        datasets = 6 if name == "compare-cmnist" else 1
        assert m["discriminator.steps"] == datasets * TOY["runs"] * TOY["iters"], (name, m)
        baselines = [m[k] for k in m if k.startswith("baselines.")]
        assert all(baselines) == (name == "compare-cmnist"), (name, baselines)
        assert (m["data.save_csv_s"] > 0) == (name == "cmnist-csv"), (name, m)
        assert (m["data.load_csv_mb_per_s"] > 0) == (name == "cmnist-csv"), (name, m)
        assert (m["datagen.gen_latent_s"] > 0) == (name == "latent-kde"), (name, m)
        trace_file = run.ROOT / "perfbench" / "traces" / f"{name}-seed1.json"
        assert json.loads(trace_file.read_text())["operations"], trace_file


def test_truth_from_tables():
    from oodshift import Rng, oracle_shift, random_latent_spec

    div, cor = workloads.latent_a_truth()
    assert abs(div - 0.5) < 1e-12 and abs(cor - 0.4) < 1e-12, (div, cor)
    div, cor = workloads.colored_truth(0.1, 0.9, 0.25)
    assert div == 0.0 and abs(cor - 0.655) < 5e-4, (div, cor)
    lo, hi = workloads.CMNIST_COR_BAND
    assert lo <= cor <= hi
    for seed in range(5):
        spec = random_latent_spec(Rng(seed))
        ours = workloads.shift_from_tables(
            spec.p_z, spec.q_z, spec.p_y_given_z, spec.q_y_given_z
        )
        assert all(abs(a - b) < 1e-12 for a, b in zip(ours, oracle_shift(spec))), seed


def _write_result(out, d_div, d_cor):
    out.mkdir(parents=True, exist_ok=True)
    (out / "result.json").write_text(json.dumps({"result": {"d_div": d_div, "d_cor": d_cor}}))
    return out


def _write_compare(out, rows):
    out.mkdir(parents=True, exist_ok=True)
    cols = ["rho_te", "blue", "emd", "mmd", "ni", "d_div", "d_cor"]
    lines = [",".join(cols)] + [",".join(str(r[c]) for c in cols) for r in rows]
    (out / "compare.csv").write_text("\n".join(lines) + "\n")
    return out


def _compare_rows(**blue_overrides):
    rows = [
        {"rho_te": rho, "blue": 0, "emd": 0.1, "mmd": 0.05, "ni": 10.0,
         "d_div": 0.0, "d_cor": 0.6 * abs(rho - 0.1)}
        for rho in workloads.COMPARE_RHO_TES
    ]
    blue = {"rho_te": 0.1, "blue": 1, "emd": 0.4, "mmd": 0.6, "ni": 30.0,
            "d_div": 0.99, "d_cor": 0.0}
    return rows + [{**blue, **blue_overrides}]


def test_checks_accept_right_and_reject_wrong():
    base = _fresh("checks")
    assert workloads.check_latent(_write_result(base / "l-ok", 0.47, 0.37)) == []
    assert workloads.check_latent(_write_result(base / "l-bad", 0.30, 0.37))
    assert workloads.check_latent(_write_result(base / "l-nan", float("nan"), 0.4))
    assert workloads.check_cmnist(_write_result(base / "c-ok", 0.0, 0.52)) == []
    assert workloads.check_cmnist(_write_result(base / "c-div", 0.05, 0.52))
    assert workloads.check_cmnist(_write_result(base / "c-cor", 0.0, 0.30))
    assert workloads.check_compare(_write_compare(base / "k-ok", _compare_rows())) == []
    for bad in ({"mmd": 0.01}, {"emd": 0.05}, {"d_div": 0.5}, {"d_cor": 0.2},
                {"ni": -1.0}, {"mmd": float("inf")}):
        rows = _compare_rows(**bad)
        assert workloads.check_compare(_write_compare(base / "k-bad", rows)), bad
    flat = [dict(r, d_cor=0.3) if not r["blue"] else r for r in _compare_rows()]
    assert workloads.check_compare(_write_compare(base / "k-flat", flat))


def test_wrong_result_counts_as_failed():
    import oodshift.cli

    original = oodshift.cli.estimate_pipeline

    def off_by_one(*args, **kwargs):
        res = original(*args, **kwargs)
        return dataclasses.replace(res, d_div=res.d_div + 1.0)

    oodshift.cli.estimate_pipeline = off_by_one
    try:
        res = run.run("latent-kde", seed=1, seconds=0, trace=False, size=TOY)
    finally:
        oodshift.cli.estimate_pipeline = original
    assert res["attempted"] == 1 and res["failed"] == 1 and not res["correct"], res


def test_refuses_without_program_source():
    bare = _fresh("bare")
    shutil.copytree(
        run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("runs", "traces", "__pycache__")
    )
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "latent-kde", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == "", (proc.returncode, proc.stdout)


def main():
    run.import_program()
    run.SETUP_REPEATS = 1
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    try:
        for test in tests:
            test()
            print(f"ok {test.__name__}")
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    print(f"{len(tests)} passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
