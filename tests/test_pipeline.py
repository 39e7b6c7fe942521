"""Slice layout, determinism, replay, failure isolation, aggregation."""

import dataclasses
import filecmp
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from forecastlab import preprocess
from forecastlab.advisor import LLMConfig, rules_preprocess
from forecastlab.datasets import make_synthetic_seasonal
from forecastlab.pipeline import (
    PipelineConfig,
    SliceResult,
    aggregate_results,
    make_slices,
    replay_slice,
    run_pipeline,
)
from forecastlab.reporter import read_ndjson
from forecastlab.series import Series

SMALL = PipelineConfig(
    input_length=128,
    horizons=(24,),
    slice_count=2,
    seed=11,
    max_configs_per_model=3,
    n_candidates=3,
    top_k=3,
)


# ---------------------------------------------------------------------------
# slice layout
# ---------------------------------------------------------------------------


def test_make_slices_exact_fit_single_slice():
    starts, warnings = make_slices(512 + 96, 512, 96, 25)
    assert starts == [0]
    assert len(warnings) == 1 and "only 1 of 25" in warnings[0]


def test_make_slices_full_count_even_spacing():
    n = 512 + 96 + 24  # span 24, feasible exactly 25
    starts, warnings = make_slices(n, 512, 96, 25)
    assert starts == list(range(25))
    assert warnings == []


def test_make_slices_rounded_spacing():
    starts, _ = make_slices(1000, 512, 96, 25)
    span = 1000 - 608
    assert starts[0] == 0 and starts[-1] == span
    assert starts == [round(i * span / 24) for i in range(25)]
    assert all(b >= a for a, b in zip(starts, starts[1:]))


def test_make_slices_reduces_count():
    starts, warnings = make_slices(512 + 96 + 5, 512, 96, 25)
    assert starts == [0, 1, 2, 3, 4, 5]
    assert "only 6 of 25" in warnings[0]


def test_make_slices_too_short_raises():
    with pytest.raises(ValueError, match="cannot fit"):
        make_slices(100, 96, 24, 1)


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------


def test_pipeline_config_validation():
    with pytest.raises(ValueError):
        PipelineConfig(input_length=32)
    with pytest.raises(ValueError):
        PipelineConfig(horizons=())
    with pytest.raises(ValueError):
        PipelineConfig(horizons=(0,))
    with pytest.raises(ValueError):
        PipelineConfig(slice_count=0)
    with pytest.raises(ValueError):
        PipelineConfig(workers=0)
    with pytest.raises(ValueError):
        PipelineConfig(interval_level=100.0)
    with pytest.raises(ValueError):
        PipelineConfig(advisor_mode="oracle")
    cfg = PipelineConfig(advisor_mode="llm", llm=LLMConfig(endpoint="http://x/y"))
    assert cfg.to_dict()["llm"]["endpoint"] == "http://x/y"


# ---------------------------------------------------------------------------
# end-to-end runs
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def seasonal_series():
    return make_synthetic_seasonal(n=360, period=12, seed=5)


def test_run_pipeline_bundle_layout(tmp_path, seasonal_series):
    result = run_pipeline(seasonal_series, SMALL, out_dir=tmp_path / "out")
    assert all(r.status == "ok" for r in result.results)
    assert len(result.results) == 2
    for r in result.results:
        bundle = Path(r.bundle_dir)
        assert (bundle / "report.md").is_file()
        assert (bundle / "log.ndjson").is_file()
        assert (bundle / "metrics.csv").is_file()
        assert (bundle / "forecast.csv").is_file()
        assert (bundle / "plotdata.json").is_file()
        svgs = sorted(p.name for p in (bundle / "plots").glob("*.svg"))
        assert svgs == [
            "correlogram.svg",
            "decomposition.svg",
            "ensemble_forecast.svg",
            "overview.svg",
        ]
    assert (tmp_path / "out" / "aggregate.csv").is_file()
    assert (tmp_path / "out" / "config.json").is_file()


def test_run_pipeline_reruns_byte_identical(tmp_path, seasonal_series):
    run_pipeline(seasonal_series, SMALL, out_dir=tmp_path / "a")
    run_pipeline(seasonal_series, SMALL, out_dir=tmp_path / "b")
    comparison = filecmp.dircmp(tmp_path / "a", tmp_path / "b")

    def assert_identical(cmp):
        assert cmp.left_only == [] and cmp.right_only == []
        assert cmp.diff_files == [] and cmp.funny_files == []
        match, mismatch, errors = filecmp.cmpfiles(
            cmp.left, cmp.right, cmp.common_files, shallow=False
        )
        assert mismatch == [] and errors == []
        for sub in cmp.subdirs.values():
            assert_identical(sub)

    assert_identical(comparison)


def test_log_stage_order_and_leakage_discipline(tmp_path, seasonal_series):
    result = run_pipeline(seasonal_series, SMALL, out_dir=tmp_path / "out")
    events = read_ndjson(Path(result.results[0].bundle_dir) / "log.ndjson")
    stages = [e["stage"] for e in events]
    assert stages == [
        "run", "diagnose", "preprocess", "profile", "select",
        "backtest", "ensemble", "forecast", "score", "report",
    ]
    assert [e["seq"] for e in events] == list(range(1, 11))
    # the decision is sealed before anything computed from the test window
    assert stages.index("ensemble") < stages.index("score")
    # logical clock: timestamps advance one second per event from the epoch
    assert events[0]["ts"] == "2000-01-01T00:00:01+00:00"
    assert events[9]["ts"] == "2000-01-01T00:00:10+00:00"


def test_replay_matches_logged_forecast(tmp_path, seasonal_series):
    result = run_pipeline(seasonal_series, SMALL, out_dir=tmp_path / "out")
    for r in result.results:
        events = read_ndjson(Path(r.bundle_dir) / "log.ndjson")
        run = next(e for e in events if e["stage"] == "run")["decision"]
        window = seasonal_series.window(run["start"], run["start"] + run["input_length"])
        replayed = replay_slice(window, events)
        logged = np.asarray(
            next(e for e in events if e["stage"] == "forecast")["decision"]["point"]
        )
        assert np.array_equal(replayed, logged)


def test_failed_slice_is_isolated(tmp_path):
    # second slice's input window is constant: profiling cannot characterize
    # it, so that slice fails while the first still completes
    base = make_synthetic_seasonal(n=360, period=12, seed=5)
    vals = list(base.values)
    vals[208:] = [5.0] * (len(vals) - 208)  # slice 1 window is [208, 336)
    series = Series(tuple(vals))
    result = run_pipeline(series, SMALL, out_dir=tmp_path / "out")
    statuses = {r.slice_index: r.status for r in result.results}
    assert statuses[0] == "ok"
    assert statuses[1] == "failed"
    failed = next(r for r in result.results if r.status == "failed")
    assert failed.error
    assert any("slice 1" in w and "failed" in w for w in result.warnings)
    # aggregate rows only count the completed slice
    assert result.aggregate_rows[0]["n_slices"] == 1


def test_no_feasible_horizon_raises():
    series = make_synthetic_seasonal(n=150, seed=0)
    with pytest.raises(ValueError, match="no horizon"):
        run_pipeline(series, PipelineConfig(input_length=128, horizons=(999,), slice_count=1))


def test_run_without_out_dir_writes_nothing(tmp_path, seasonal_series):
    before = sorted(tmp_path.iterdir())
    result = run_pipeline(seasonal_series, SMALL, out_dir=None)
    assert sorted(tmp_path.iterdir()) == before
    assert result.out_dir is None
    assert all(r.bundle_dir is None for r in result.results)
    assert result.aggregate_rows


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


def test_aggregate_results_means_and_avg_row():
    results = [
        SliceResult(0, 24, 0, "ok", test_mae=1.0, test_mape=10.0),
        SliceResult(1, 24, 5, "ok", test_mae=3.0, test_mape=20.0),
        SliceResult(0, 48, 0, "ok", test_mae=5.0, test_mape=40.0),
        SliceResult(1, 48, 5, "failed", error="boom"),
    ]
    rows = aggregate_results(results)
    assert [row["horizon"] for row in rows] == [24, 48, "Avg"]
    assert rows[0] == {"horizon": 24, "mae": 2.0, "mape": 15.0, "n_slices": 2}
    assert rows[1] == {"horizon": 48, "mae": 5.0, "mape": 40.0, "n_slices": 1}
    assert rows[2]["mae"] == pytest.approx(3.5)
    assert rows[2]["mape"] == pytest.approx(27.5)
    assert rows[2]["n_slices"] == 3


def test_aggregate_results_all_failed_horizon():
    results = [
        SliceResult(0, 24, 0, "failed", error="x"),
        SliceResult(0, 48, 0, "ok", test_mae=2.0, test_mape=5.0),
    ]
    rows = aggregate_results(results)
    assert rows[0] == {"horizon": 24, "mae": None, "mape": None, "n_slices": 0}
    assert rows[-1]["horizon"] == "Avg"
    assert rows[-1]["mae"] == 2.0  # failed horizon excluded from the average


def test_aggregate_results_empty():
    assert aggregate_results([SliceResult(0, 24, 0, "failed", error="x")])[-1]["n_slices"] == 0
    assert aggregate_results([]) == []


# ---------------------------------------------------------------------------
# llm-mode pipeline against the stub server
# ---------------------------------------------------------------------------


def test_pipeline_llm_mode_with_stub(tmp_path, chat_server, seasonal_series):
    # enough malformed responses for every advisor call at any retry count:
    # each attempt falls back to rules, so the run must equal the rules run
    chat_server.responses.extend(["not-json"] * 24)
    config = PipelineConfig(
        input_length=128,
        horizons=(24,),
        slice_count=1,
        seed=11,
        max_configs_per_model=3,
        advisor_mode="llm",
        llm=LLMConfig(endpoint=chat_server.endpoint, max_attempts=2, timeout=5.0),
    )
    result = run_pipeline(seasonal_series, config, out_dir=tmp_path / "llm")
    assert result.results[0].status == "ok"
    events = read_ndjson(Path(result.results[0].bundle_dir) / "log.ndjson")
    sources = {e["stage"]: e["source"] for e in events}
    assert sources["diagnose"] == "llm_fallback"
    assert sources["select"] == "llm_fallback"
    assert sources["ensemble"] == "llm_fallback"
    diag = next(e for e in events if e["stage"] == "diagnose")["decision"]
    assert diag["raw_response"] == "not-json"

    rules_config = PipelineConfig(
        input_length=128, horizons=(24,), slice_count=1, seed=11, max_configs_per_model=3
    )
    rules = run_pipeline(seasonal_series, rules_config, out_dir=tmp_path / "rules")
    assert result.results[0].test_mae == rules.results[0].test_mae
    assert result.results[0].test_mape == rules.results[0].test_mape


def test_pipeline_llm_decision_is_adopted(tmp_path, chat_server, seasonal_series):
    wire = {
        "integration_strategy": "median",
        "weights": None,
        "selected_model": None,
        "reasoning": "stub advisor prefers the median",
        "confidence": "low",
    }
    # preprocess and selection responses are malformed (fall back to rules),
    # the ensemble response is valid and must be adopted
    chat_server.responses.extend(["x", "x", "y", "y", json.dumps(wire)])
    config = PipelineConfig(
        input_length=128,
        horizons=(24,),
        slice_count=1,
        seed=11,
        max_configs_per_model=3,
        advisor_mode="llm",
        llm=LLMConfig(endpoint=chat_server.endpoint, max_attempts=2, timeout=5.0),
    )
    result = run_pipeline(seasonal_series, config, out_dir=tmp_path / "llm")
    assert result.results[0].status == "ok"
    events = read_ndjson(Path(result.results[0].bundle_dir) / "log.ndjson")
    ens = next(e for e in events if e["stage"] == "ensemble")
    assert ens["source"] == "llm"
    assert ens["decision"]["integration_strategy"] == "median"
    assert ens["decision"]["reasoning"] == "stub advisor prefers the median"
    assert ens["decision"]["llm_payload"] == wire
    # replay re-executes the adopted decision, not the rules baseline
    run = next(e for e in events if e["stage"] == "run")["decision"]
    window = seasonal_series.window(run["start"], run["start"] + run["input_length"])
    logged = next(e for e in events if e["stage"] == "forecast")["decision"]["point"]
    assert np.array_equal(replay_slice(window, events), np.asarray(logged))


# ---------------------------------------------------------------------------
# one diagnose per slice
# ---------------------------------------------------------------------------


def _count_diagnose(monkeypatch) -> list:
    """Count preprocess.diagnose calls, rebinding it in every module that
    imported it by name."""
    calls = []
    original = preprocess.diagnose

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("forecastlab") and getattr(module, "diagnose", None) is original:
            monkeypatch.setattr(module, "diagnose", counting)
    return calls


def test_diagnose_runs_once_per_slice(tmp_path, chat_server, seasonal_series, monkeypatch):
    # first llm slice adopts a valid preprocess reply; every later reply is
    # malformed, so the second llm slice falls back to the rules
    chat_server.responses.append(
        json.dumps(rules_preprocess(seasonal_series.window(0, 128))[0])
    )
    chat_server.responses.extend(["not-json"] * 12)
    llm_config = dataclasses.replace(
        SMALL,
        advisor_mode="llm",
        llm=LLMConfig(endpoint=chat_server.endpoint, max_attempts=2, timeout=5.0),
    )
    calls = _count_diagnose(monkeypatch)
    for config, expected in ((SMALL, ["rules", "rules"]), (llm_config, ["llm", "llm_fallback"])):
        calls.clear()
        result = run_pipeline(seasonal_series, config, out_dir=tmp_path / config.advisor_mode)
        assert [r.status for r in result.results] == ["ok", "ok"]
        assert len(calls) == 2
        for r, source in zip(result.results, expected):
            events = read_ndjson(Path(r.bundle_dir) / "log.ndjson")
            assert next(e for e in events if e["stage"] == "diagnose")["source"] == source
