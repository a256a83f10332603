"""Tests for the command-line interface."""

import argparse
import csv
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oodshift
from oodshift import ColoredSpec, EstimatorConfig, LatentSpec, MlpConfig, latent_spec_a, load_csv
from oodshift.cli import _JSON_TYPES, build_parser, main
from oodshift import estimator
from oodshift.estimator import _openblas

FAST_MLP = {"hidden_dims": [16], "iters": 100, "checkpoint_every": 50}


def _write_config(tmp_path, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


# ---------------------------------------------------------------------------
# generate


def test_generate_writes_loadable_csv(tmp_path):
    out = tmp_path / "out"
    rc = main([
        "generate", "--preset", "iid", "--n-per-env", "20",
        "--seed", "3", "--out", str(out),
    ])
    assert rc == 0
    ds = load_csv(out / "data.csv")
    assert ds.n_rows == 40
    assert (out / "config.json").exists()
    assert (out / "spec.json").exists()


def test_generate_latent_preset(tmp_path):
    out = tmp_path / "out"
    rc = main([
        "generate", "--preset", "latent-a", "--n-per-env", "30",
        "--seed", "4", "--out", str(out),
    ])
    assert rc == 0
    ds = load_csv(out / "data.csv")
    assert ds.n_rows == 60
    assert ds.n_dims == 1


def test_generate_spec_json_rebuilds_colored_spec(tmp_path):
    # the spec block of spec.json holds every field of the spec
    doc = {"spec": {"rho_tr": 0.2, "mu_te": 0.7, "sigma_te": 0.1}}
    out = tmp_path / "out"
    assert main(["generate", "--config", _write_config(tmp_path, doc), "--n-per-env", "50",
                 "--out", str(out)]) == 0
    spec = json.loads((out / "spec.json").read_text())["spec"]
    assert ColoredSpec(**spec) == ColoredSpec(rho_tr=0.2, mu_te=0.7, sigma_te=0.1, n_per_env=50)


def test_generate_spec_json_rebuilds_latent_spec(tmp_path):
    out = tmp_path / "out"
    assert main(["generate", "--preset", "latent-a", "--n-per-env", "20",
                 "--out", str(out)]) == 0
    doc = json.loads((out / "spec.json").read_text())["spec"]
    assert doc.keys() == {f.name for f in dataclasses.fields(LatentSpec)}
    back, want = LatentSpec(**doc), latent_spec_a()
    for name in doc:
        assert np.array_equal(getattr(back, name), getattr(want, name))


def test_generate_irm_cmnist_rerun_byte_identical(tmp_path):
    def run(name):
        out = tmp_path / name
        assert main(["generate", "--preset", "irm-cmnist", "--n-per-env", "50",
                     "--seed", "3", "--out", str(out)]) == 0
        return (out / "data.csv").read_bytes()

    assert run("run1") == run("run2")


# ---------------------------------------------------------------------------
# estimate


def _estimate(tmp_path, out_name, cfg_path, seed="11"):
    out = tmp_path / out_name
    rc = main([
        "estimate", "--preset", "latent-a", "--n-per-env", "200",
        "--runs", "2", "--mc-samples", "1000", "--seed", seed,
        "--config", cfg_path, "--out", str(out),
    ])
    assert rc == 0
    return out


def test_estimate_deterministic_byte_identical(tmp_path):
    cfg = _write_config(tmp_path, {"mlp": FAST_MLP})
    out1 = _estimate(tmp_path, "run1", cfg)
    out2 = _estimate(tmp_path, "run2", cfg)
    assert (out1 / "result.json").read_bytes() == (out2 / "result.json").read_bytes()
    assert (out1 / "config.json").read_bytes() == (out2 / "config.json").read_bytes()


def test_estimate_seed_changes_result(tmp_path):
    cfg = _write_config(tmp_path, {"mlp": FAST_MLP})
    out1 = _estimate(tmp_path, "run1", cfg, seed="11")
    out2 = _estimate(tmp_path, "run2", cfg, seed="12")
    assert (out1 / "result.json").read_bytes() != (out2 / "result.json").read_bytes()


def test_estimate_result_schema(tmp_path):
    cfg = _write_config(tmp_path, {"mlp": FAST_MLP})
    out = _estimate(tmp_path, "run", cfg)
    doc = json.loads((out / "result.json").read_text())
    res = doc["result"]
    assert {"d_div", "d_cor", "per_run", "stderr_div", "stderr_cor",
            "over_one_flag", "diagnostics"} <= res.keys()
    assert len(res["per_run"]) == 2
    assert res["d_div"] >= 0.0


def test_estimate_from_csv_data(tmp_path):
    gen_out = tmp_path / "gen"
    main(["generate", "--preset", "latent-a", "--n-per-env", "150",
          "--seed", "5", "--out", str(gen_out)])
    cfg = _write_config(tmp_path, {"mlp": FAST_MLP})
    out = tmp_path / "est"
    rc = main([
        "estimate", "--data", str(gen_out / "data.csv"), "--runs", "1",
        "--mc-samples", "500", "--seed", "6", "--config", cfg, "--out", str(out),
    ])
    assert rc == 0
    assert (out / "result.json").exists()


# ---------------------------------------------------------------------------
# sweep


def _sweep_grid_csv(tmp_path, axes, header):
    # the config's n_runs replaces sweep's default of one run per cell
    cfg = _write_config(tmp_path, {
        "mlp": {"hidden_dims": [8], "iters": 40, "checkpoint_every": 20},
        "estimator": {"n_mc_samples": 500, "n_runs": 2},
    })
    out = tmp_path / "out"
    rc = main([
        "sweep", "--preset", "cmnist-rho", "0.1", "0.9", "--axes", axes,
        "--grid", "0.2", "0.8", "--n-per-env", "60",
        "--seed", "7", "--config", cfg, "--out", str(out),
    ])
    assert rc == 0
    with open(out / "sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    assert list(rows[0].keys()) == [*header, "d_div", "d_cor", "stderr_div", "stderr_cor"]
    for row in rows:
        assert float(row["d_div"]) >= 0.0
    assert json.loads((out / "config.json").read_text())["estimator"]["n_runs"] == 2


def test_sweep_grid_csv(tmp_path):
    _sweep_grid_csv(tmp_path, "rho", ["rho_tr", "rho_te"])


def test_sweep_grid_csv_mu_axes(tmp_path):
    _sweep_grid_csv(tmp_path, "mu", ["mu_tr", "mu_te"])


# ---------------------------------------------------------------------------
# compare


def test_compare_csv_rows_and_rerun_identical(tmp_path):
    def run(name):
        out = tmp_path / name
        rc = main([
            "compare", "--n-per-env", "60", "--iters", "20", "--runs", "2",
            "--mc-samples", "200", "--seed", "3", "--out", str(out),
        ])
        assert rc == 0
        return out / "compare.csv"

    first = run("run1")
    with open(first, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [
        "rho_te", "blue", "emd", "emd_stderr", "mmd", "mmd_stderr",
        "ni", "ni_stderr", "d_div", "d_div_stderr", "d_cor", "d_cor_stderr",
    ]
    assert [row[1] for row in rows[1:]] == ["0"] * 5 + ["1"]
    assert first.read_bytes() == run("run2").read_bytes()


def test_compare_zero_runs_exit_2(tmp_path, capsys):
    rc = main(["compare", "--runs", "0", "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "n_runs" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# scipy is imported on first use, by emd and the kde_* functions only

_SCIPY_PROBE = """
import json, sys
import oodshift, oodshift.cli
for argv in json.loads(sys.argv[1]):
    assert oodshift.cli.main(argv) == 0, argv
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def _scipy_modules_after(*commands):
    """The scipy modules loaded once a fresh interpreter has imported the
    package and run commands through cli.main."""
    src = str(Path(oodshift.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, json.dumps(commands)],
                          env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_commands_but_compare_never_import_scipy(tmp_path):
    out = str(tmp_path)
    assert _scipy_modules_after(
        ["generate", "--preset", "irm-cmnist", "--n-per-env", "20", "--out", f"{out}/gen"],
        ["estimate", "--preset", "latent-a", "--n-per-env", "50", "--runs", "1",
         "--iters", "20", "--mc-samples", "100", "--out", f"{out}/est"],
        ["sweep", "--preset", "iid", "--grid", "0.5", "--n-per-env", "20", "--iters", "5",
         "--mc-samples", "50", "--out", f"{out}/sweep"],
        ["score", "--fixture", "diversity"],
    ) == []


def test_compare_imports_scipy(tmp_path):
    modules = _scipy_modules_after(
        ["compare", "--n-per-env", "30", "--runs", "1", "--iters", "5", "--mc-samples", "50",
         "--out", str(tmp_path / "cmp")],
    )
    assert {"scipy.optimize", "scipy.spatial"} <= set(modules)


# ---------------------------------------------------------------------------
# score


def test_score_fixture_json(tmp_path, capsys):
    rc = main(["score", "--fixture", "diversity", "--json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ranking_scores"]["RSC"] == 2
    assert doc["ranking_scores"]["MLDG"] == -4


def test_score_custom_table(tmp_path, capsys):
    table = tmp_path / "table.csv"
    table.write_text(
        "algorithm,dataset,mean,stderr\nERM,D1,80.0,0.5\nALG,D1,81.0,0.2\n"
    )
    rc = main(["score", "--table", str(table), "--json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ranking_scores"] == {"ERM": 0, "ALG": 1}


def test_score_fixture_ref(capsys):
    # --ref applies to a bundled fixture as it does to --table
    rc = main(["score", "--fixture", "diversity", "--ref", "IRM", "--json"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["ranking_scores"]["IRM"] == 0
    assert main(["score", "--fixture", "diversity", "--ref", "NOPE"]) == 2


def test_score_table_and_fixture_exclusive(tmp_path):
    table = tmp_path / "table.csv"
    table.write_text("algorithm,dataset,mean,stderr\nERM,D1,80.0,0.5\n")
    with pytest.raises(SystemExit) as exc:
        main(["score", "--table", str(table), "--fixture", "diversity"])
    assert exc.value.code == 2


def test_score_text_output(capsys):
    rc = main(["score", "--fixture", "correlation"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "DANN" in out and "-3" in out


# ---------------------------------------------------------------------------
# error handling / exit codes


def test_missing_data_file_exit_2(tmp_path, capsys):
    rc = main(["estimate", "--data", str(tmp_path / "nope.csv"),
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_unknown_preset_exit_2(tmp_path, capsys):
    rc = main(["generate", "--preset", "bogus", "--out", str(tmp_path / "out")])
    assert rc == 2


def test_preset_cmnist_rho_needs_two_values(tmp_path, capsys):
    rc = main(["generate", "--preset", "cmnist-rho", "0.1",
               "--out", str(tmp_path / "out")])
    assert rc == 2


def test_score_without_inputs_exit_2(capsys):
    rc = main(["score"])
    assert rc == 2


@pytest.mark.parametrize("rows", [
    "ERM,A,80,1\nERM,A,10,1\nX,A,85,1\n",
    "ERM,A,80,nan\nX,A,95,1\n",
], ids=["repeated-row", "nan-stderr"])
def test_score_bad_table_exit_2(tmp_path, capsys, rows):
    table = tmp_path / "table.csv"
    table.write_text("algorithm,dataset,mean,stderr\n" + rows)
    rc = main(["score", "--table", str(table)])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_malformed_csv_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("env,label,x0\n5,0,1.0\n")
    rc = main(["estimate", "--data", str(bad), "--out", str(tmp_path / "out")])
    assert rc == 2


def test_bad_grid_value_exit_2(tmp_path):
    rc = main(["sweep", "--preset", "iid", "--grid", "0.1", "1.5",
               "--out", str(tmp_path / "out")])
    assert rc == 2


def test_underpopulated_class_in_csv_exit_2(tmp_path, capsys):
    # 40 rows, 3 features; class 1 has a single row in env 0
    rows = ["env,label,x0,x1,x2"]
    for i in range(40):
        env, label = divmod(i, 20)
        label = int(i == 0) if env == 0 else label % 2
        rows.append(f"{env},{label},{i * 0.1:.1f},{(i * 7) % 5:.1f},{(i * 3) % 11:.1f}")
    data = tmp_path / "thin.csv"
    data.write_text("\n".join(rows) + "\n")
    rc = main(["estimate", "--data", str(data), "--iters", "10",
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "underpopulated" in capsys.readouterr().err


def test_empty_validation_split_in_concurrent_runs_exit_2(tmp_path, capsys):
    # both runs fail in the executor's worker threads; the BLAS thread
    # count the executor capped is restored
    if _openblas() is None:
        pytest.skip("numpy's bundled OpenBLAS not found")
    rows = ["env,label,x0"] + [f"{i // 4},{i % 2},{i * 0.5}" for i in range(8)]
    data = tmp_path / "tiny.csv"
    data.write_text("\n".join(rows) + "\n")
    before = _openblas().scipy_openblas_get_num_threads64_()
    rc = main(["estimate", "--data", str(data), "--iters", "5", "--runs", "2",
               "--mc-samples", "50", "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "validation split is empty" in capsys.readouterr().err
    assert _openblas().scipy_openblas_get_num_threads64_() == before


def test_empty_validation_split_exit_2(tmp_path, capsys):
    # 8 rows, 2 per (env, class) cell: a 0.9 training fraction takes all 8
    rows = ["env,label,x0"] + [f"{i // 4},{i % 2},{i * 0.5}" for i in range(8)]
    data = tmp_path / "tiny.csv"
    data.write_text("\n".join(rows) + "\n")
    rc = main(["estimate", "--data", str(data), "--iters", "5", "--runs", "1",
               "--mc-samples", "50", "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "validation split is empty" in capsys.readouterr().err
    # the runs' splits are checked before --out is created
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, message", [
    # 5 rows per environment: run 0's training split lacks (env 0, class 1)
    (["estimate", "--preset", "iid", "--n-per-env", "5", "--iters", "5", "--runs", "1"],
     "missing (env=0, class=1) cell"),
    # every command checks the datasets it generates itself before --out
    (["compare", "--n-per-env", "5", "--iters", "5", "--runs", "1", "--mc-samples", "50"],
     "missing (env=0, class=1) cell"),
    (["sweep", "--preset", "iid", "--n-per-env", "5", "--iters", "5", "--grid", "0.2"],
     "missing (env=0, class=1) cell"),
    # 10 rows per environment: cells 0 to 2 pass, and only the last of the 4
    # cells has a class with under 2 rows in an environment
    (["sweep", "--preset", "iid", "--n-per-env", "10", "--iters", "5", "--seed", "6",
      "--grid", "0.2", "0.8"], "class 0 underpopulated in one environment"),
], ids=["estimate", "compare", "sweep", "sweep-last-cell"])
def test_missing_cell_exit_2_before_out(tmp_path, capsys, argv, message):
    rc = main([*argv, "--out", str(tmp_path / "out")])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("n_rare, seed, runs, message", [
    # two (env 1, class 1) rows: run 0's split (seed 96) keeps one in
    # training, run 1's (seed 97) puts both in validation
    (2, 96, 2, "missing (env=1, class=1) cell"),
    # one such row, which run 0's split keeps in training; the estimator
    # needs 2 rows of each class in each environment
    (1, 0, 1, "class 1 underpopulated in one environment"),
])
def test_data_size_error_of_any_run_exit_2_before_out(tmp_path, capsys, n_rare, seed, runs,
                                                      message):
    labels = [0, 1] * 5 + [0] * (10 - n_rare) + [1] * n_rare
    rows = ["env,label,x0"] + [f"{i // 10},{y},{i * 0.5}" for i, y in enumerate(labels)]
    data = tmp_path / "rare.csv"
    data.write_text("\n".join(rows) + "\n")
    rc = main(["estimate", "--data", str(data), "--seed", str(seed), "--runs", str(runs),
               "--iters", "5", "--mc-samples", "50", "--out", str(tmp_path / "out")])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_sweep_generates_each_cell_once_in_the_check(tmp_path, monkeypatch):
    # 4 cells of 3 runs: the check makes each cell's dataset once, the tasks
    # once per run
    calls = []
    real_gen = estimator.gen_colored

    def counting_gen(*args):
        calls.append(args)
        return real_gen(*args)

    monkeypatch.setattr(estimator, "gen_colored", counting_gen)
    rc = main(["sweep", "--preset", "irm-cmnist", "--n-per-env", "150", "--iters", "60",
               "--grid", "0.2", "0.8", "--runs", "3", "--out", str(tmp_path / "out")])
    assert rc == 0
    assert len(calls) == 4 + 12


@pytest.mark.parametrize("command", ["estimate", "compare", "sweep"])
def test_no_command_takes_threads(tmp_path, command):
    # the run executor picks its own worker count; no flag sets it
    preset = [] if command == "compare" else ["--preset", "iid"]
    with pytest.raises(SystemExit) as exc:
        main([command, "--threads", "2", *preset, "--n-per-env", "50",
              "--iters", "5", "--out", str(tmp_path / "out")])
    assert exc.value.code == 2


@pytest.mark.parametrize("flag", [["--preset", "latent-a"], ["--latent-noise", "0.1"]])
def test_compare_rejects_dataset_flags(tmp_path, capsys, flag):
    # compare builds its own six colored-digit datasets
    with pytest.raises(SystemExit) as exc:
        main(["compare", *flag, "--n-per-env", "30", "--iters", "5", "--runs", "1",
              "--mc-samples", "100", "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_non_finite_csv_cell_exit_2(tmp_path, capsys):
    # one nan cell: at one step the pipeline used to miss it in training and
    # exit 0 with d_div = d_cor = 0; at more steps it exited 1 on the loss
    rows = ["env,label,x0,x1"]
    for i in range(200):
        rows.append(f"{i % 2},{(i // 2) % 2},{(i * 7) % 13 / 13:.4f},{(i * 5) % 11 / 11:.4f}")
    rows[57] = "0,0,nan,0.5"
    data = tmp_path / "nan.csv"
    data.write_text("\n".join(rows) + "\n")
    rc = main(["estimate", "--data", str(data), "--iters", "1", "--runs", "1",
               "--mc-samples", "100", "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == f"error: {data}: line 58: non-finite cell x0 ('nan')\n"
    assert not (tmp_path / "out" / "result.json").exists()


@pytest.mark.parametrize("doc, culprit", [
    ({"estimator": {"n_run": 2}}, "'n_run'"),
    ({"spec": {"rho": 0.3}}, "'rho'"),
    ({"mlp": [1]}, "'mlp'"),
    ({"mlp": {"in_dim": 5}}, "'in_dim'"),
    ({"estimator": {"resample_per_class": True}}, "'resample_per_class'"),
    ({"spec": {"use_real_mnist": True}}, "'use_real_mnist'"),
    ({"mlp": {"checkpoint_every": 0}}, "checkpoint_every"),
    ({"estimator": {"bandwidth_scale": -1}}, "bandwidth_scale"),
    ({"mlp": {"iters": "x"}}, "'mlp' key 'iters'"),
    ({"mlp": {"hidden_dims": 5}}, "'mlp' key 'hidden_dims'"),
    ({"mlp": {"hidden_dims": [-3]}}, "hidden_dims must be >= 1"),
    ({"estimator": {"eps_div": 1e-12}}, "'eps_div'"),
    ({"estimator": {"eps_cor": 5e-4}}, "'eps_cor'"),
    # the training fraction and the bandwidth scale are module constants
    ({"mlp": {"train_frac": 0.5}}, "'train_frac'"),
    ({"estimator": {"bandwidth_scale": 0.5}}, "'bandwidth_scale'"),
])
def test_bad_config_block_exit_2(tmp_path, capsys, doc, culprit):
    rc = main([
        "estimate", "--preset", "latent-a", "--n-per-env", "50", "--iters", "5",
        "--runs", "1", "--mc-samples", "100", "--config", _write_config(tmp_path, doc),
        "--out", str(tmp_path / "out"),
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert culprit in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("target", [ColoredSpec, MlpConfig, EstimatorConfig])
def test_every_config_field_has_a_json_type(target):
    # a field annotation without an entry would make its config key crash
    # with a KeyError instead of being checked
    for field in dataclasses.fields(target):
        assert field.type in _JSON_TYPES, (target.__name__, field.name, field.type)


@pytest.mark.parametrize("command", ["generate-latent", "estimate-data", "compare"])
def test_spec_block_without_colored_preset_exit_2(tmp_path, capsys, command):
    data = tmp_path / "gen" / "data.csv"
    assert main(["generate", "--preset", "latent-a", "--n-per-env", "20",
                 "--out", str(data.parent)]) == 0
    argv = {
        "generate-latent": ["generate", "--preset", "latent-a", "--n-per-env", "20"],
        "estimate-data": ["estimate", "--data", str(data), "--iters", "5"],
        "compare": ["compare", "--n-per-env", "20", "--iters", "5"],
    }[command]
    config = _write_config(tmp_path, {"spec": {"rho_te": 0.5}})
    rc = main([*argv, "--config", config, "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == "error: config block 'spec' applies only to colored-digit presets\n"
    assert not (tmp_path / "out" / "spec.json").exists()


# ---------------------------------------------------------------------------
# one merge rule: defaults, then the preset, then the config file, then flags


@pytest.mark.parametrize("preset, spec, flag, rows", [
    (["--preset", "irm-cmnist"], {"n_per_env": 30}, ["--n-per-env", "50"], 50),
    ([], {"rho_te": 0.5}, ["--n-per-env", "50"], 50),
    (["--preset", "irm-cmnist"], {"n_per_env": 30}, [], 30),
], ids=["flag-over-config", "flag-with-config-spec-alone", "config-without-flag"])
def test_n_per_env_precedence(tmp_path, preset, spec, flag, rows):
    out = tmp_path / "out"
    config = _write_config(tmp_path, {"spec": spec})
    assert main(["generate", *preset, *flag, "--config", config, "--out", str(out)]) == 0
    assert load_csv(out / "data.csv").n_rows == 2 * rows
    assert json.loads((out / "config.json").read_text())["spec"]["n_per_env"] == rows


def test_iters_flag_over_config(tmp_path):
    out = tmp_path / "out"
    config = _write_config(tmp_path, {"mlp": {"hidden_dims": [8], "iters": 9}})
    rc = main([
        "estimate", "--preset", "latent-a", "--n-per-env", "50", "--iters", "7",
        "--runs", "1", "--mc-samples", "100", "--config", config, "--out", str(out),
    ])
    assert rc == 0
    assert json.loads((out / "config.json").read_text())["mlp"]["iters"] == 7


@pytest.mark.parametrize("argv", [
    ["generate", "--preset", "iid", "--n-per-env", "20", "--iters", "5"],
    ["sweep", "--preset", "iid", "--latent-noise", "0.1", "--grid", "0.5",
     "--n-per-env", "20", "--iters", "2", "--mc-samples", "50"],
    ["estimate", "--data", "X", "--preset", "iid"],
], ids=["generate-iters", "sweep-latent-noise", "estimate-data-and-preset"])
def test_flag_the_command_does_not_read_exit_2(tmp_path, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(tmp_path / "out")])
    assert exc.value.code == 2


def _registered_flags(command):
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {opt for action in sub.choices[command]._actions for opt in action.option_strings}


# per flag: the values a run passes, and the config.json key that records them
_FLAG_RECORDS = {
    "--seed": (["9"], "seed", 9),
    "--n-per-env": (["60"], "n_per_env", 60),
    "--iters": (["6"], "iters", 6),
    "--runs": (["2"], "n_runs", 2),
    "--mc-samples": (["200"], "n_mc_samples", 200),
    "--axes": (["mu"], "axes", "mu"),
    "--grid": (["0.2", "0.6"], "grid", [0.2, 0.6]),
}


def _recorded(doc, key):
    found = [doc[key]] if key in doc else []
    for value in doc.values():
        if isinstance(value, dict):
            found += _recorded(value, key)
    return found


@pytest.mark.parametrize("command, preset", [
    ("generate", ["iid"]), ("generate", ["latent-a"]),
    ("estimate", ["cmnist-rho", "0.2", "0.7"]), ("estimate", ["latent-a"]),
    ("sweep", ["cmnist-blue"]), ("compare", None),
], ids=["generate-colored", "generate-latent", "estimate-colored", "estimate-latent",
        "sweep-colored", "compare"])
def test_config_json_records_every_flag(tmp_path, command, preset):
    # a non-default value for every flag the command registers; a flag that
    # is registered but never read has no entry here, or leaves no record
    flags = _registered_flags(command) - {"-h", "--help", "--out", "--config", "--data"}
    argv = [command]
    for flag in sorted(flags - {"--preset"}):
        argv += [flag, *_FLAG_RECORDS[flag][0]]
    if preset is not None:
        argv += ["--preset", *preset]
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 0
    doc = json.loads((out / "config.json").read_text())
    for flag in flags - {"--preset"}:
        _, key, value = _FLAG_RECORDS[flag]
        assert value in _recorded(doc, key), (flag, doc)
    assert doc["preset"] == preset


def test_estimate_data_rejects_n_per_env(tmp_path, capsys):
    data = tmp_path / "gen" / "data.csv"
    assert main(["generate", "--preset", "latent-a", "--n-per-env", "40",
                 "--out", str(data.parent)]) == 0
    capsys.readouterr()
    out = tmp_path / "out"
    rc = main(["estimate", "--data", str(data), "--n-per-env", "40", "--iters", "5",
               "--runs", "1", "--mc-samples", "100", "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: --n-per-env does not apply to --data")
    assert not (out / "result.json").exists()


@pytest.mark.parametrize("under_file", [False, True], ids=["file", "under-file"])
def test_out_not_a_directory_exit_2(tmp_path, capsys, under_file):
    afile = tmp_path / "afile"
    afile.write_text("")
    out = afile / "sub" if under_file else afile
    rc = main(["generate", "--preset", "iid", "--n-per-env", "20", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv, named", [
    (["generate", "--preset", "bogus"], "bogus"),
    (["estimate", "--preset", "bogus"], "bogus"),
    (["sweep", "--preset", "iid", "--grid", "x", "0.2"], "--grid"),
    (["sweep", "--preset", "iid", "--grid", "1.5"], "--grid"),
    (["compare", "--runs", "0"], "n_runs"),
], ids=["generate-preset", "estimate-preset", "sweep-grid-text", "sweep-grid-range",
        "compare-runs"])
def test_bad_input_creates_no_out(tmp_path, capsys, argv, named):
    out = tmp_path / "out"
    assert main([*argv, "--n-per-env", "20", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err, err
    assert not out.exists()


@pytest.mark.parametrize("preset", [
    ["irm-cmnist", "0.3"], ["latent-a", "7"], ["cmnist-rho", "x", "0.2"],
], ids=["irm-cmnist-extra", "latent-a-extra", "cmnist-rho-not-a-number"])
def test_preset_bad_values_exit_2(tmp_path, capsys, preset):
    rc = main(["generate", "--preset", *preset, "--n-per-env", "20",
               "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: preset ") and preset[0] in err
    assert not (tmp_path / "out" / "data.csv").exists()
