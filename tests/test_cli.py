"""End-to-end CLI coverage on tiny inputs (the whole module should finish
well under 30 seconds)."""

import json
import os
import pathlib
import subprocess
import sys
from dataclasses import asdict, fields

import numpy as np
import pytest

import leapts
import leapts.training as training
from leapts.cli import main
from leapts.model import ModelConfig
from leapts.training import TrainConfig


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def tiny_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "tiny3.csv"
    code = main(["gen", "--scenario", "3", "--out", str(path), "--seed", "7", "--steps", "600"])
    assert code == 0
    return path


@pytest.fixture(scope="module")
def tiny_ckpt(tmp_path_factory, tiny_csv):
    ckpt = tmp_path_factory.mktemp("ckpt") / "model.ckpt"
    code = main(
        [
            "train",
            "--data", str(tiny_csv),
            "--L", "24",
            "--P", "6",
            "--out", str(ckpt),
            "--epochs", "2",
            "--batch", "64",
            "--hidden", "8",
            "--seed", "0",
        ]
    )
    assert code == 0
    return ckpt


def test_gen_deterministic_files(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for p in (a, b):
        code, out, _ = run_cli(capsys, "gen", "--scenario", "3", "--seed", "7", "--steps", "200", "--out", str(p))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_scenario1_column_count(tmp_path, capsys):
    p = tmp_path / "s1.csv"
    code, out, _ = run_cli(capsys, "gen", "--scenario", "1", "--steps", "120", "--out", str(p))
    assert code == 0
    assert json.loads(out)["columns"] == 31
    assert p.read_text().splitlines()[0].count(",") == 30


def test_gen_hide_driver(tmp_path, capsys):
    p = tmp_path / "s2.csv"
    code, out, _ = run_cli(
        capsys, "gen", "--scenario", "2", "--steps", "120", "--hide-driver", "--out", str(p)
    )
    assert code == 0
    assert p.read_text().splitlines()[0] == "t,X,Y"


def test_gen_bad_scenario_usage_error(capsys):
    code, _, err = run_cli(capsys, "gen", "--scenario", "9", "--out", "/tmp/x.csv")
    assert code == 1


def test_unknown_flag_rejected(capsys):
    code, _, err = run_cli(capsys, "anchors", "--L", "96", "--P", "60", "--bogus", "1")
    assert code == 1


# -- light paths: the package namespace and commands that need no numpy -------


_PROBE = ("import sys; from leapts.cli import main; code = main(sys.argv[1:]); "
          "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'numpy')); "
          "sys.exit(code)")


@pytest.mark.parametrize(
    "argv, code",
    [(["anchors", "--L", "96", "--P", "60"], 0), (["--help"], 0),
     (["eval", "--ckpt", "m.ckpt"], 1),
     (["eval", "--ckpt", "m.ckpt", "--data", "d.csv", "--s", "4"], 2)],
    ids=["anchors", "help", "eval-usage-error", "eval-refused-flag"],
)
def test_light_commands_do_not_import_numpy(tmp_path, argv, code):
    """Parsing, help, usage errors, refused flags and `anchors` finish in a
    fresh interpreter without importing any numpy module."""
    src = pathlib.Path(leapts.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, *argv], cwd=tmp_path, capture_output=True, text=True,
        timeout=60, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == code and "Traceback" not in proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_every_exported_name_resolves_to_its_home_module():
    namespace = {}
    exec("from leapts import *", namespace)
    for name in leapts.__all__:
        value = getattr(leapts, name)
        assert namespace[name] is value
        if name != "__version__":
            home = sys.modules[value.__module__]
            assert home.__name__.startswith("leapts.") and getattr(home, name) is value
    assert namespace["__version__"] == "0.1.0"


def test_an_unknown_package_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="module 'leapts' has no attribute 'nope'"):
        leapts.nope  # noqa: B018


def test_anchors_output_format(capsys):
    code, out, err = run_cli(capsys, "anchors", "--L", "96", "--P", "60")
    assert code == 0
    assert out.strip() == "[1,24] [25,48] [49,60]"
    assert "resolved_config" in err

    code, out, _ = run_cli(capsys, "anchors", "--L", "96", "--P", "18")
    assert out.strip() == "degenerate: [1,18]"

    code, out, _ = run_cli(capsys, "anchors", "--L", "36", "--P", "36")
    assert out.strip() == "[1,9] [10,18] [19,36]"


def test_bounds_worked_instance(capsys):
    code, out, _ = run_cli(
        capsys, "bounds", "--lambda", "2", "--eps-a", "1", "--eps-p", "2", "--P", "4"
    )
    assert code == 0
    got = json.loads(out)
    assert (got["B_dir"], got["B_rec"], got["B_star"]) == (16.0, 15.0, 15.0)
    assert got["best_partition"] == [1, 1, 1, 1]


def test_bounds_rejects_invalid_exponent(capsys):
    code, _, err = run_cli(
        capsys, "bounds", "--lambda", "2", "--eps-a", "1", "--eps-p", "1.0", "--P", "4"
    )
    assert code == 2
    assert "superadditivity" in err


@pytest.mark.parametrize(
    "flag, value",
    [("--lambda", "abc"), ("--eps-a", "1,two"), ("--eps-p", "x"), ("--P", "4.5")],
    ids=["lambda", "eps-a", "eps-p", "P"],
)
def test_bounds_rejects_non_numeric_values(capsys, flag, value):
    argv = {"--lambda": "2", "--eps-a": "1", "--eps-p": "2", "--P": "4", flag: value}
    code, out, err = run_cli(capsys, "bounds", *(a for kv in argv.items() for a in kv))
    assert code == 2 and out == ""
    assert f"error: {flag} needs comma-separated" in err and repr(value) in err
    assert "Traceback" not in err


def test_splits_rejects_non_numeric_values(tiny_csv, capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "train", "--data", str(tiny_csv), "--L", "24", "--P", "6",
        "--out", str(tmp_path / "m.ckpt"), "--splits", "0.5,x,0.2",
    )
    assert code == 2
    assert "error: --splits needs comma-separated numbers, got '0.5,x,0.2'" in err
    assert not (tmp_path / "m.ckpt").exists()


@pytest.mark.parametrize(
    "flag, value",
    [("--eps-a", "nan"), ("--lambda", "nan"), ("--eps-p", "nan"), ("--lambda", "inf")],
    ids=["eps-a-nan", "lambda-nan", "eps-p-nan", "lambda-inf"],
)
def test_bounds_rejects_non_finite_values_without_hanging(flag, value):
    """Non-finite values exit 2. A NaN amplitude would stall the bound's
    partition walk forever, so the CLI runs in its own process under a
    timeout."""
    argv = {"--lambda": "1.1", "--eps-a": "1", "--eps-p": "1.5", "--P": "4", flag: value}
    src = pathlib.Path(leapts.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "leapts", "bounds", *(a for kv in argv.items() for a in kv)],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert "must be finite" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv, field",
    [
        (["train", "--delta", "nan"], "huber_delta"),
        (["train", "--lr", "inf"], "lr"),
        (["gen", "--scenario", "3", "--dt", "nan"], "dt"),
        (["train", "--splits", "0.5,0.6,-0.1"], "split fractions"),
        (["train", "--splits", "nan,0.5,0.5"], "split fractions"),
    ],
    ids=["delta-nan", "lr-inf", "dt-nan", "splits-negative", "splits-nan"],
)
def test_non_finite_settings_are_config_errors(tiny_csv, capsys, tmp_path, argv, field):
    """A non-finite float setting or a bad split fraction exits 2 naming
    it, before anything is written; it is not a numeric failure (3)."""
    out_path = tmp_path / "out"
    if argv[0] == "train":
        argv = [*argv, "--data", str(tiny_csv), "--L", "24", "--P", "6", "--epochs", "1"]
    code, out, err = run_cli(capsys, *argv, "--out", str(out_path))
    assert code == 2 and out == ""
    assert f"error: {field} must be" in err and "Traceback" not in err
    assert not out_path.exists()


def test_bounds_sweep_rows_satisfy_theorem(capsys):
    code, out, _ = run_cli(
        capsys,
        "bounds", "--lambda", "1.0,1.5,2.0", "--eps-a", "0.5,1", "--eps-p", "1.5,2", "--P", "3,5",
        "--sweep",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "lambda,a,p,P,B_dir,B_rec,B_star,best_partition"
    assert len(lines) == 1 + 2 * 2 * 2 * 3
    for line in lines[1:]:
        cells = line.split(",")
        b_dir, b_rec, b_star = float(cells[4]), float(cells[5]), float(cells[6])
        assert b_star <= min(b_dir, b_rec) + 1e-9


def test_train_missing_data_file(capsys, tmp_path):
    code, _, err = run_cli(
        capsys,
        "train", "--data", str(tmp_path / "nope.csv"), "--L", "8", "--P", "4",
        "--out", str(tmp_path / "m.ckpt"),
    )
    assert code == 2
    assert "nope.csv" in err


def test_train_eval_pipeline(tiny_csv, tiny_ckpt, capsys, tmp_path):
    code, out, _ = run_cli(capsys, "eval", "--ckpt", str(tiny_ckpt), "--data", str(tiny_csv))
    assert code == 0
    report = json.loads(out)["report"]
    assert np.isfinite(report["mse"]) and report["mse"] >= 0


def test_train_records_ablation_flag(tiny_csv, capsys, tmp_path):
    ckpt = tmp_path / "ns.ckpt"
    code, out, _ = run_cli(
        capsys,
        "train", "--data", str(tiny_csv), "--L", "24", "--P", "6", "--out", str(ckpt),
        "--epochs", "1", "--ablate", "no_sched", "--hidden", "8",
    )
    assert code == 0
    header = json.loads(ckpt.read_bytes().split(b"\n", 1)[0])
    assert header["ablation"] == "no_sched"
    assert header["magic"] == "LEAPTS1"


def test_tracing_a_no_sched_checkpoint_exits_2(tiny_csv, capsys, tmp_path):
    ckpt = tmp_path / "ns.ckpt"
    code, _, _ = run_cli(
        capsys,
        "train", "--data", str(tiny_csv), "--L", "24", "--P", "6", "--out", str(ckpt),
        "--epochs", "1", "--ablate", "no_sched", "--hidden", "8",
    )
    assert code == 0
    out_path = tmp_path / "t.jsonl"
    common = ("--ckpt", str(ckpt), "--data", str(tiny_csv))
    for argv in (("trace", *common, "--out", str(out_path)),
                 ("eval", *common, "--trace", str(out_path)),
                 ("eval", *common, "--full-metrics", "--trace", str(out_path))):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert "the no_sched variant has no scheduling branch" in err
        assert out == "" and not out_path.exists()


def test_eval_checkpoint_data_mismatch(tiny_ckpt, tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n" + "\n".join(f"{i},{i + 1}" for i in range(200)) + "\n")
    code, _, err = run_cli(capsys, "eval", "--ckpt", str(tiny_ckpt), "--data", str(bad))
    assert code == 2
    assert "variates" in err


def test_eval_override_fixed_semantics(tiny_csv, tiny_ckpt, capsys, tmp_path):
    trace_path = tmp_path / "t.jsonl"
    code, out, _ = run_cli(
        capsys, "eval", "--ckpt", str(tiny_ckpt), "--data", str(tiny_csv),
        "--override", "fixed:4",
    )
    assert code == 0
    assert np.isfinite(json.loads(out)["report"]["mae"])
    code, _, err = run_cli(
        capsys, "eval", "--ckpt", str(tiny_ckpt), "--data", str(tiny_csv),
        "--override", "fixed:99",
    )
    assert code == 2


@pytest.mark.parametrize("flag", [("--trace", "t.jsonl"), ("--full-metrics",)],
                         ids=["trace", "full-metrics"])
def test_eval_override_refuses_trace_and_full_metrics(tiny_csv, tiny_ckpt, capsys, tmp_path, flag):
    """An override run writes no trace and reports no full metrics, so
    asking for either with ``--override`` is a config error (exit 2)."""
    flag = (flag[0], *(str(tmp_path / f) for f in flag[1:]))
    code, out, err = run_cli(
        capsys, "eval", "--ckpt", str(tiny_ckpt), "--data", str(tiny_csv),
        "--override", "fixed:4", *flag,
    )
    assert code == 2
    assert f"--override cannot be combined with {flag[0]}" in err and "Traceback" not in err
    assert out == "" and not (tmp_path / "t.jsonl").exists()


@pytest.mark.parametrize(
    "given, needs",
    [(("--seed", "3"), "--override"), (("--s", "4"), "--full-metrics"),
     (("--smape-ref", "20"), "--full-metrics"), (("--mase-ref", "2"), "--full-metrics")],
    ids=["seed", "s", "smape-ref", "mase-ref"],
)
def test_eval_refuses_a_flag_without_the_flag_it_needs(tiny_csv, tiny_ckpt, capsys, given, needs):
    """``--seed`` is read only by an override run, and ``--s``,
    ``--smape-ref`` and ``--mase-ref`` only with full metrics; given alone,
    each is a config error (exit 2) naming the pair."""
    code, out, err = run_cli(
        capsys, "eval", "--ckpt", str(tiny_ckpt), "--data", str(tiny_csv), *given,
    )
    assert code == 2 and out == ""
    assert f"error: {given[0]} has no effect without {needs}" in err and "Traceback" not in err


def test_eval_trace_writes_schema_records(tiny_csv, tiny_ckpt, capsys, tmp_path):
    trace_path = tmp_path / "steps.jsonl"
    code, out, _ = run_cli(
        capsys, "eval", "--ckpt", str(tiny_ckpt), "--data", str(tiny_csv),
        "--trace", str(trace_path),
    )
    assert code == 0
    lines = trace_path.read_text().splitlines()
    assert lines
    rec = json.loads(lines[0])
    for key in ("schema", "window", "variate", "step", "category", "len_int",
                "cursor_before", "ctrl_ratio", "time_ratio"):
        assert key in rec
    assert rec["schema"] == "leapts-trace-v1"


def test_eval_full_metrics_with_owa(tiny_csv, tiny_ckpt, capsys):
    code, out, _ = run_cli(
        capsys, "eval", "--ckpt", str(tiny_ckpt), "--data", str(tiny_csv),
        "--full-metrics", "--s", "1", "--smape-ref", "20.0", "--mase-ref", "2.0",
    )
    assert code == 0
    report = json.loads(out)["report"]
    for key in ("smape", "mape", "mase", "owa"):
        assert report[key] is not None and np.isfinite(report[key])
    assert report["owa"] == pytest.approx(
        0.5 * (report["smape"] / 20.0 + report["mase"] / 2.0), rel=1e-9
    )


def test_trace_subcommand_summary(tiny_csv, tiny_ckpt, capsys, tmp_path):
    out_path = tmp_path / "trace.jsonl"
    code, out, _ = run_cli(
        capsys, "trace", "--ckpt", str(tiny_ckpt), "--data", str(tiny_csv),
        "--out", str(out_path), "--limit", "12",
    )
    assert code == 0
    summary = json.loads(out)
    assert "categories" in summary and "decomposition" in summary
    assert summary["decomposition"]["n_steps"] > 0
    assert out_path.exists()


@pytest.mark.parametrize("limit", ["-1", "0"])
def test_trace_rejects_limit_below_one(tiny_csv, tiny_ckpt, capsys, tmp_path, limit):
    out_path = tmp_path / "trace.jsonl"
    code, out, err = run_cli(
        capsys, "trace", "--ckpt", str(tiny_ckpt), "--data", str(tiny_csv),
        "--out", str(out_path), "--limit", limit,
    )
    assert code == 2
    assert f"--limit must be at least 1, got {limit}" in err
    assert out == "" and not out_path.exists()


def test_ablate_subcommand(tiny_csv, capsys, tmp_path):
    code, out, _ = run_cli(
        capsys,
        "ablate", "--data", str(tiny_csv), "--L", "24", "--P", "6",
        "--epochs", "1", "--hidden", "8", "--flag", "no_sched",
        "--out", str(tmp_path / "ckpts"),
    )
    assert code == 0
    result = json.loads(out)
    assert set(result["results"]) == {"none", "no_sched"}
    assert (tmp_path / "ckpts" / "no_sched.ckpt").exists()


def test_ablate_rejects_a_config_file_ablation(tiny_csv, capsys, tmp_path):
    """The full model of `ablate` has no ablation; a file that sets one
    would have been ignored."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"train": {"ablation": "no_high_level"}}))
    code, out, err = run_cli(
        capsys, "ablate", "--data", str(tiny_csv), "--L", "24", "--P", "6",
        "--config", str(cfg_path),
    )
    assert code == 2
    assert "no_high_level" in err and "Traceback" not in err and out == ""


def test_out_of_memory_exits_2_with_a_hint(tiny_csv, capsys, tmp_path, monkeypatch):
    def no_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(training, "train", no_memory)  # cmd_train imports it when it runs
    code, out, err = run_cli(
        capsys, "train", "--data", str(tiny_csv), "--L", "24", "--P", "6",
        "--out", str(tmp_path / "m.ckpt"),
    )
    assert code == 2
    assert err.splitlines()[-1].startswith("error: out of memory") and "--batch" in err
    assert out == "" and not (tmp_path / "m.ckpt").exists()


@pytest.mark.parametrize("which", ["data", "config"])
def test_non_utf8_input_exits_2(tiny_csv, tiny_ckpt, capsys, tmp_path, which):
    """One 0xff byte in the data CSV or the config file: exit 2 naming the
    file, no traceback."""
    bad = tmp_path / ("bad.csv" if which == "data" else "bad.json")
    text = tiny_csv.read_bytes() if which == "data" else b'{"model": {"hidden_dim": 8}}'
    bad.write_bytes(text[:20] + b"\xff" + text[21:])
    data, extra = (bad, []) if which == "data" else (tiny_csv, ["--config", str(bad)])
    code, _, err = run_cli(capsys, "train", "--data", str(data), "--L", "24", "--P", "6",
                           "--out", str(tmp_path / "m.ckpt"), "--epochs", "1", *extra)
    assert code == 2
    assert str(bad) in err and "Traceback" not in err
    if which == "data":
        code, _, err = run_cli(capsys, "eval", "--ckpt", str(tiny_ckpt), "--data", str(bad))
        assert code == 2
        assert str(bad) in err and "Traceback" not in err


def test_config_file_with_flag_override(tiny_csv, capsys, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"model": {"hidden_dim": 8}, "train": {"max_epochs": 1, "lr": 0.001}}))
    ckpt = tmp_path / "m.ckpt"
    code, out, _ = run_cli(
        capsys,
        "train", "--data", str(tiny_csv), "--L", "24", "--P", "6", "--out", str(ckpt),
        "--config", str(cfg_path), "--epochs", "2",
    )
    assert code == 0
    report = json.loads(out)["report"]
    assert len(report["epochs"]) == 2  # CLI flag overrides the file value
    header = json.loads(ckpt.read_bytes().split(b"\n", 1)[0])
    assert header["config"]["hidden_dim"] == 8


def test_config_file_unknown_key_rejected(tiny_csv, capsys, tmp_path):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"model": {"wat": 1}}))
    code, _, err = run_cli(
        capsys,
        "train", "--data", str(tiny_csv), "--L", "24", "--P", "6",
        "--out", str(tmp_path / "m.ckpt"), "--config", str(cfg_path),
    )
    assert code == 2
    assert "wat" in err


@pytest.mark.parametrize(
    "cfg, fragment",
    [
        ({"model": {"look_back": 4}}, "look_back"),
        ({"model": {"horizon": 4}}, "horizon"),
        ({"model": {"n_variates": 4}}, "n_variates"),
        ({"model": {"hidden_dim": "8"}}, "wrong type"),
        ({"model": {"enc_hidden": ["wide"]}}, "wrong type"),
        ({"train": {"lr": "fast"}}, "wrong type"),
        ({"model": 3}, "JSON object"),
        ({"model": {"control_dim": 0}}, "control_dim >= 1"),
        ({"model": {"hidden_dim": 8.5}}, "hidden_dim has the wrong type (8.5)"),
        ({"model": {"max_steps": 1.5}}, "max_steps has the wrong type (1.5)"),
        ({"model": {"enc_hidden": [2.7]}}, "enc_hidden has the wrong type ([2.7])"),
        ({"model": {"seed": True}}, "seed has the wrong type (True)"),
        ({"train": {"batch_size": 8.5}}, "batch_size has the wrong type (8.5)"),
        ({"train": {"stride": 1.5}}, "stride has the wrong type (1.5)"),
        ({"train": {"normalize": "no"}}, "normalize has the wrong type ('no')"),
        ({"model": {"mask_temp": float("inf")}}, "requires 0 < mask_temp < inf"),
        ({"train": {"lr": True}}, "lr has the wrong type (True)"),
    ],
    ids=["look_back", "horizon", "n_variates", "model_value_type", "encoder_width_type",
         "train_value_type", "section_not_object", "control_dim_zero", "width_float",
         "max_steps_float", "encoder_width_float", "seed_bool", "batch_size_float",
         "stride_float", "normalize_str", "mask_temp_infinity", "lr_bool"],
)
def test_config_file_rejected(tiny_csv, capsys, tmp_path, cfg, fragment):
    """Flags and the data set look_back, horizon and n_variates; a file
    that sets them, or gives a value of the wrong type, exits with 2."""
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(cfg))
    code, _, err = run_cli(
        capsys,
        "train", "--data", str(tiny_csv), "--L", "24", "--P", "6",
        "--out", str(tmp_path / "m.ckpt"), "--config", str(cfg_path),
    )
    assert code == 2
    assert fragment in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv, cfg, fragment",
    [
        (["--max-batches", "-1"], None, "max_batches_per_epoch must be >= 1, got -1"),
        (["--max-batches", "0"], None, "max_batches_per_epoch must be >= 1, got 0"),
        ([], {"train": {"gumbel_tau_end": -0.5}},
         "gumbel_tau_end must be positive and finite, got -0.5"),
    ],
    ids=["max_batches_negative", "max_batches_zero", "gumbel_tau_end_negative"],
)
def test_train_rejects_invalid_train_config(tiny_csv, capsys, tmp_path, argv, cfg, fragment):
    """An invalid training setting exits with 2 before training starts, and
    no checkpoint is written."""
    if cfg is not None:
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(cfg))
        argv = [*argv, "--config", str(cfg_path)]
    ckpt = tmp_path / "m.ckpt"
    code, out, err = run_cli(
        capsys,
        "train", "--data", str(tiny_csv), "--L", "24", "--P", "6", "--out", str(ckpt),
        "--epochs", "2", *argv,
    )
    assert code == 2
    assert fragment in err and "Traceback" not in err
    assert out == "" and not ckpt.exists()


@pytest.mark.parametrize("entry", ["gen", "train", "eval", "config_file"])
def test_negative_seed_exits_2(tiny_csv, tiny_ckpt, capsys, tmp_path, entry):
    """A negative seed is a config error (exit 2), not a traceback from the
    random generator, in every command that takes one and in a config file."""
    out = str(tmp_path / "out")
    train = ["train", "--data", str(tiny_csv), "--L", "24", "--P", "6", "--out", out,
             "--epochs", "1", "--max-batches", "1"]
    if entry == "config_file":
        cfg_path = tmp_path / "seed.json"
        cfg_path.write_text(json.dumps({"model": {"seed": -1}}))
    argv = {
        "gen": ["gen", "--scenario", "3", "--out", out, "--steps", "100", "--seed", "-1"],
        "train": [*train, "--seed", "-1"],
        "eval": ["eval", "--ckpt", str(tiny_ckpt), "--data", str(tiny_csv),
                 "--override", "monte_carlo:3", "--seed", "-1"],
        "config_file": [*train, "--config", str(tmp_path / "seed.json")],
    }[entry]
    code, stdout, err = run_cli(capsys, *argv)
    assert code == 2
    assert "seed" in err and ">= 0" in err and "Traceback" not in err
    assert stdout == "" and not (tmp_path / "out").exists()


def test_config_file_accepts_every_field_at_its_default(tiny_csv, capsys, tmp_path):
    flag_fields = {"look_back", "horizon", "n_variates"}
    model = {f.name: f.default for f in fields(ModelConfig) if f.name not in flag_fields}
    cfg = {"model": model, "train": asdict(TrainConfig())}
    cfg_path = tmp_path / "defaults.json"
    cfg_path.write_text(json.dumps(cfg))
    ckpt = tmp_path / "m.ckpt"
    code, _, _ = run_cli(
        capsys,
        "train", "--data", str(tiny_csv), "--L", "24", "--P", "6", "--out", str(ckpt),
        "--config", str(cfg_path), "--epochs", "1", "--max-batches", "1",
    )
    assert code == 0
    header = json.loads(ckpt.read_bytes().split(b"\n", 1)[0])
    assert header["config"]["enc_hidden"] == list(ModelConfig.enc_hidden)


def test_eval_rejects_malformed_checkpoint(tiny_csv, tiny_ckpt, capsys, tmp_path):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(tiny_ckpt.read_bytes() + b"extra")
    code, _, err = run_cli(capsys, "eval", "--ckpt", str(bad), "--data", str(tiny_csv))
    assert code == 2
    assert str(bad) in err and "Traceback" not in err


def test_eval_full_metrics_trace_forecasts_once(tiny_csv, tiny_ckpt, capsys, tmp_path, monkeypatch):
    batches = []
    predict = training.predict_batch

    def counting(model, inputs, **kw):
        batches.append(len(inputs))
        return predict(model, inputs, **kw)

    monkeypatch.setattr(training, "predict_batch", counting)
    both, alone = tmp_path / "both.jsonl", tmp_path / "alone.jsonl"
    code, _, _ = run_cli(
        capsys, "eval", "--ckpt", str(tiny_ckpt), "--data", str(tiny_csv),
        "--full-metrics", "--trace", str(both),
    )
    assert code == 0
    n_windows = len({json.loads(line)["window"] for line in both.read_text().splitlines()})
    assert sum(batches) == n_windows
    assert len(batches) == -(-n_windows // 256)
    monkeypatch.undo()
    code, _, _ = run_cli(
        capsys, "eval", "--ckpt", str(tiny_ckpt), "--data", str(tiny_csv), "--trace", str(alone),
    )
    assert code == 0
    assert both.read_bytes() == alone.read_bytes()
