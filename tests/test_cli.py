"""CLI verbs: diagnose, forecast, report roundtrip, bench recomputation."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import forecastlab
from forecastlab.cli import main
from forecastlab.datasets import make_synthetic_seasonal, write_csv

FAST_CFG = {
    "input_length": 128,
    "horizons": "24",
    "slices": 2,
    "seed": 3,
    "max_configs": 3,
}


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "series.csv"
    write_csv(path, make_synthetic_seasonal(n=360, period=12, seed=5))
    return path


def _forecast(csv_path, out_dir, config_path):
    return main([
        "forecast", "--input", str(csv_path), "--out", str(out_dir),
        "--config", str(config_path),
    ])


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory, csv_path):
    out = tmp_path_factory.mktemp("run") / "out"
    cfg = out.parent / "config.json"
    cfg.write_text(json.dumps(FAST_CFG), encoding="utf-8")
    assert _forecast(csv_path, out, cfg) == 0
    return out


def test_diagnose_writes_artifacts(tmp_path, csv_path, capsys):
    out = tmp_path / "diag"
    assert main(["diagnose", "--input", str(csv_path), "--out", str(out)]) == 0
    assert (out / "diagnostics.json").is_file()
    assert (out / "profile.json").is_file()
    assert (out / "overview.svg").is_file()
    printed = capsys.readouterr().out
    assert "quality" in printed
    payload = json.loads((out / "diagnostics.json").read_text())
    assert payload["source"] == "rules"
    assert "recommended_strategies" in payload["wire"]


def test_diagnose_gate_failure_exit_code(tmp_path, capsys):
    path = tmp_path / "holey.csv"
    rows = ["index,value"] + [
        f"{i}," if i % 3 == 0 else f"{i},{10.0 + 0.1 * i}" for i in range(120)
    ]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    assert main(["diagnose", "--input", str(path), "--out", str(tmp_path / "d")]) == 1
    assert "insufficient data quality" in capsys.readouterr().err


def test_forecast_run_layout_and_table(run_dir, capsys, csv_path):
    # re-run into a fresh directory to capture stdout
    out2 = run_dir.parent / "out2"
    cfg = run_dir.parent / "config.json"
    assert _forecast(csv_path, out2, cfg) == 0
    printed = capsys.readouterr().out
    assert "completed 2/2 slices" in printed
    assert "horizon" in printed and "Avg" in printed
    bundles = sorted(p.name for p in out2.iterdir() if p.is_dir())
    assert bundles == ["slice000_h024", "slice001_h024"]
    assert (out2 / "aggregate.csv").is_file()
    assert (out2 / "config.json").is_file()


def test_cli_flag_overrides_config_file(tmp_path, csv_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(FAST_CFG), encoding="utf-8")
    out = tmp_path / "out"
    rc = main([
        "forecast", "--input", str(csv_path), "--out", str(out),
        "--config", str(cfg), "--slices", "1",
    ])
    assert rc == 0
    assert "completed 1/1 slices" in capsys.readouterr().out


def test_llm_mode_requires_endpoint(tmp_path, csv_path):
    with pytest.raises(SystemExit) as err:
        main([
            "forecast", "--input", str(csv_path), "--out", str(tmp_path / "x"),
            "--advisor", "llm",
        ])
    assert err.value.code == 2


def test_report_roundtrip_byte_identical(run_dir):
    slice_dir = run_dir / "slice000_h024"
    original = (slice_dir / "report.md").read_bytes()
    assert main(["report", "--slice-dir", str(slice_dir)]) == 0
    assert (slice_dir / "report.md").read_bytes() == original


def test_report_missing_log_errors(tmp_path, capsys):
    assert main(["report", "--slice-dir", str(tmp_path)]) == 1
    assert "not found" in capsys.readouterr().err


def test_bench_matches_run_aggregate(run_dir, capsys):
    assert main(["bench", "--out", str(run_dir)]) == 0
    bench_out = capsys.readouterr().out
    agg = (run_dir / "aggregate.csv").read_text().strip().split("\n")
    # aggregate.csv rows: header, horizon 24, Avg
    h24 = agg[1].split(",")
    assert f"{float(h24[1]):.6g}" in bench_out
    assert f"{float(h24[2]):.6g}" in bench_out
    assert "Avg" in bench_out


def test_bench_empty_dir_errors(tmp_path, capsys):
    assert main(["bench", "--out", str(tmp_path)]) == 1
    assert "no slice metrics" in capsys.readouterr().err


def test_rerun_with_fewer_slices_leaves_only_its_bundles(tmp_path, csv_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(FAST_CFG), encoding="utf-8")
    out = tmp_path / "out"
    flags = ["forecast", "--input", str(csv_path), "--out", str(out), "--config", str(cfg)]
    assert main([*flags, "--slices", "6"]) == 0
    # directories that are not slice bundles are left alone
    (out / "notes").mkdir()
    (out / "slice_extra").mkdir()
    assert main([*flags, "--slices", "3"]) == 0
    dirs = sorted(p.name for p in out.iterdir() if p.is_dir())
    assert dirs == ["notes", "slice000_h024", "slice001_h024", "slice002_h024", "slice_extra"]
    capsys.readouterr()
    assert main(["bench", "--out", str(out)]) == 0
    rows = {line.split()[0]: line.split()[-1] for line in capsys.readouterr().out.splitlines()[1:]}
    assert rows == {"24": "3", "Avg": "3"}


def test_rules_forecast_imports_no_llm_dependencies(tmp_path, csv_path):
    # requests and jsonschema serve only the llm advisor; a rules run in a
    # fresh interpreter must not load them
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(FAST_CFG), encoding="utf-8")
    argv = ["forecast", "--input", str(csv_path), "--out", str(tmp_path / "out"), "--config", str(cfg)]
    code = (
        "import json, sys\n"
        "from forecastlab.cli import main\n"
        f"rc = main({argv!r})\n"
        "print(json.dumps([rc, 'requests' in sys.modules, 'jsonschema' in sys.modules]))\n"
    )
    src = str(Path(forecastlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=300, check=True
    )
    assert json.loads(done.stdout.strip().splitlines()[-1]) == [0, False, False]


def test_cli_import_leaves_out_network_and_email_modules():
    # xml.sax.saxutils would pull these in on every run
    code = (
        "import json, sys\n"
        "import forecastlab.cli\n"
        "names = ('urllib.request', 'http.client', 'email')\n"
        "print(json.dumps([m in sys.modules for m in names]))\n"
    )
    src = str(Path(forecastlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=300, check=True
    )
    assert json.loads(done.stdout.strip().splitlines()[-1]) == [False, False, False]


def _non_numeric_csv(tmp_path):
    path = tmp_path / "bad.csv"
    rows = ["index,value"] + [f"{i},{10.0 + i}" for i in range(200)]
    rows[50] = "49,abc"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return path


BAD_INPUTS = {
    "non_numeric_cell": ([], "could not convert string to float: 'abc'"),
    "missing_input": ([], "No such file or directory"),
    "infeasible_input_length": (
        ["--input-length", "100000"],
        "no horizon produced a feasible slice layout",
    ),
}


@pytest.mark.parametrize(
    "verb, case",
    [
        ("diagnose", "non_numeric_cell"),
        ("forecast", "non_numeric_cell"),
        ("diagnose", "missing_input"),
        ("forecast", "missing_input"),
        ("forecast", "infeasible_input_length"),
    ],
)
def test_bad_input_exits_with_one_line_error(tmp_path, csv_path, capsys, verb, case):
    source = {
        "non_numeric_cell": _non_numeric_csv(tmp_path),
        "missing_input": tmp_path / "absent.csv",
        "infeasible_input_length": csv_path,
    }[case]
    extra, message = BAD_INPUTS[case]
    rc = main([verb, "--input", str(source), "--out", str(tmp_path / "out"), *extra])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err
