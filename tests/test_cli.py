"""Tests for the command-line interface."""

import csv
import dataclasses
import json

import pytest

from oodshift import ColoredSpec, EstimatorConfig, MlpConfig, load_csv
from oodshift.cli import _JSON_TYPES, main

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


def test_empty_validation_split_exit_2(tmp_path, capsys):
    # 8 rows, 2 per (env, class) cell: a 0.9 training fraction takes all 8
    rows = ["env,label,x0"] + [f"{i // 4},{i % 2},{i * 0.5}" for i in range(8)]
    data = tmp_path / "tiny.csv"
    data.write_text("\n".join(rows) + "\n")
    rc = main(["estimate", "--data", str(data), "--iters", "5", "--runs", "1",
               "--mc-samples", "50", "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "validation split is empty" in capsys.readouterr().err
    assert not (tmp_path / "out" / "result.json").exists()


@pytest.mark.parametrize("command", ["estimate", "compare", "sweep"])
def test_threads_only_on_sweep(tmp_path, command):
    # no command takes --threads: every run executes serially
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
