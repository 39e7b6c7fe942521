"""Interval math, workflow log discipline, report rendering, table writers."""

import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from forecastlab.ensemble import EnsembleDecision
from forecastlab.models import ModelSpec
from forecastlab.planner import BacktestRecord
from forecastlab.reporter import (
    REPORT_SECTIONS,
    Z_TABLE,
    WorkflowLog,
    build_intervals,
    context_from_events,
    metrics_rows,
    normal_quantile,
    plotdata_payload,
    read_ndjson,
    render_report,
    write_forecast_csv,
    write_metrics_csv,
    write_ndjson,
    z_for_level,
)
from forecastlab.svgplot import (
    Line,
    Panel,
    _band_path,
    _fmt,
    _path_segments,
    _Scale,
    forecast_figure,
    overview_figure,
    render_figure,
)

Z95 = 1.959963984540054


# ---------------------------------------------------------------------------
# normal quantiles and interval construction
# ---------------------------------------------------------------------------


def test_z_table_pinned_values():
    assert Z_TABLE[95.0] == Z95
    assert Z_TABLE[80.0] == pytest.approx(1.2815515655446004, abs=0)
    assert Z_TABLE[90.0] == pytest.approx(1.6448536269514722, abs=0)
    assert Z_TABLE[99.0] == pytest.approx(2.5758293035489004, abs=0)


def test_normal_quantile_matches_table_and_symmetry():
    for level, z in Z_TABLE.items():
        assert normal_quantile(0.5 + level / 200.0) == pytest.approx(z, abs=1e-7)
    assert normal_quantile(0.5) == pytest.approx(0.0, abs=1e-12)
    assert normal_quantile(0.25) == pytest.approx(-normal_quantile(0.75), abs=1e-9)
    # tail branch of the approximation
    assert normal_quantile(1e-6) == pytest.approx(-4.753424308822899, abs=1e-6)
    with pytest.raises(ValueError):
        normal_quantile(0.0)
    with pytest.raises(ValueError):
        normal_quantile(1.0)


def test_z_for_level_table_and_fallback():
    assert z_for_level(95.0) == Z95
    # non-tabled level goes through the rational approximation
    assert z_for_level(86.6) == pytest.approx(normal_quantile(0.933), abs=0)
    with pytest.raises(ValueError):
        z_for_level(0.0)
    with pytest.raises(ValueError):
        z_for_level(100.0)


def test_build_intervals_spread_only():
    # members {2, 4}: population variance 1.0, so the half-width is exactly z
    iv = build_intervals([[2.0], [4.0]], [3.0], residual_std=0.0, level=95.0)
    assert iv.lower[0] == pytest.approx(3.0 - Z95, abs=1e-12)
    assert iv.upper[0] == pytest.approx(3.0 + Z95, abs=1e-12)
    assert iv.point == (3.0,)
    assert iv.level == 95.0


def test_build_intervals_pools_residual_variance():
    iv = build_intervals([[5.0], [5.0]], [5.0], residual_std=2.0, level=95.0)
    assert iv.upper[0] - iv.point[0] == pytest.approx(Z95 * 2.0, abs=1e-12)
    both = build_intervals([[2.0], [4.0]], [3.0], residual_std=2.0, level=95.0)
    assert both.upper[0] - 3.0 == pytest.approx(Z95 * math.sqrt(1.0 + 4.0), abs=1e-12)


def test_build_intervals_shape_validation():
    with pytest.raises(ValueError):
        build_intervals([[1.0, 2.0]], [1.0], residual_std=0.0)
    with pytest.raises(ValueError):
        build_intervals([1.0, 2.0], [1.0], residual_std=0.0)


def test_interval_coverage_on_gaussian_noise():
    # future = point + N(0, sigma); with residual_std = sigma the nominal 95%
    # interval should cover well above the 85% floor across seeded trials
    rng = np.random.default_rng(7)
    sigma = 1.5
    hits = 0
    trials = 200
    for _ in range(trials):
        point = [10.0]
        iv = build_intervals([point], point, residual_std=sigma, level=95.0)
        actual = 10.0 + rng.normal(0.0, sigma)
        hits += int(iv.lower[0] <= actual <= iv.upper[0])
    assert hits / trials >= 0.85


# ---------------------------------------------------------------------------
# workflow log
# ---------------------------------------------------------------------------


def test_workflow_log_auto_sequence_and_shape():
    log = WorkflowLog(clock=lambda: "t")
    e1 = log.record("run", {"a": 1})
    e2 = log.record("diagnose", {"b": 2}, source="llm")
    assert (e1["seq"], e2["seq"]) == (1, 2)
    assert e1["v"] == 1 and e1["ts"] == "t"
    assert e1["source"] == "rules" and e2["source"] == "llm"
    assert log.events == [e1, e2]


def test_workflow_log_explicit_sequence_must_increase():
    log = WorkflowLog(clock=lambda: "t")
    log.record("run", {}, seq=5)
    log.record("diagnose", {})  # continues from 5
    assert log.events[-1]["seq"] == 6
    with pytest.raises(ValueError, match="sequence regression"):
        log.record("profile", {}, seq=3)
    with pytest.raises(ValueError, match="sequence regression"):
        log.record("profile", {}, seq=6)


def test_ndjson_roundtrip(tmp_path):
    log = WorkflowLog(clock=lambda: "2026-01-01T00:00:00+00:00")
    log.record("run", {"slice_label": "s0", "nested": {"x": [1, 2]}})
    log.record("diagnose", {"quality_score": 0.97})
    path = tmp_path / "log.ndjson"
    write_ndjson(log.events, path)
    lines = path.read_text(encoding="utf-8").strip().split("\n")
    assert len(lines) == 2
    for line in lines:
        json.loads(line)  # every line is standalone JSON
    assert read_ndjson(path) == log.events


# ---------------------------------------------------------------------------
# context reconstruction and report rendering
# ---------------------------------------------------------------------------


def _full_log() -> WorkflowLog:
    log = WorkflowLog(clock=lambda: "t0")
    log.record("run", {
        "slice_label": "slice00_h4", "input_length": 64, "horizon": 4,
        "advisor_mode": "rules", "seed": 0,
    })
    log.record("diagnose", {
        "quality_score": 0.95,
        "missing_indices": [3], "outlier_indices": [10, 11],
        "notes": ["drop substituted with interpolate"],
        "wire": {"recommended_strategies": {
            "missing_value_strategy": "interpolate",
            "outlier_detect_strategy": "iqr",
            "outlier_handle_strategy": "interpolate",
        }},
    })
    log.record("preprocess", {"applied": True})
    log.record("profile", {
        "trend": {"label": "increasing", "strength": 0.8},
        "seasonality": {"detected": True, "period": 12, "strength": 0.7},
        "stationarity": {"is_stationary": False, "statistic": -1.2, "critical_value": -2.86},
    })
    log.record("select", {
        "selected_models": [
            {"model": "exp_smoothing", "reason": "seasonal cycle detected"},
            {"model": "theta", "reason": "trending data"},
        ],
    }, source="llm")
    log.record("backtest", {
        "records": [
            {"model": "exp_smoothing", "status": "ok", "val_mae": 0.5},
            {"model": "theta", "status": "failed", "val_mae": None},
        ],
        "top": ["exp_smoothing"],
    })
    log.record("ensemble", {
        "integration_strategy": "weighted_average",
        "members": ["exp_smoothing", "theta"],
        "weights": {"exp_smoothing": 0.6, "theta": 0.4},
        "selected_model": None,
        "reasoning": "close validation scores",
        "confidence": "medium",
        "gap": 0.02,
        "disagreement": 0.1,
    })
    log.record("forecast", {
        "point": [10.0, 10.5, 11.0, 11.5],
        "lower": [9.0, 9.5, 10.0, 10.5],
        "upper": [11.0, 11.5, 12.0, 12.5],
        "level": 95.0,
    })
    log.record("score", {
        "rows": [
            {"model_id": "exp_smoothing", "params": "default", "val_mae": 0.5,
             "val_mape": 4.0, "test_mae": 0.6, "test_mape": 4.5},
            {"model_id": "ensemble", "params": "", "val_mae": 0.45,
             "val_mape": 3.8, "test_mae": 0.55, "test_mape": 4.2},
        ],
    })
    log.record("report", {"plots": [
        {"file": "overview.svg", "caption": "input window"},
        {"file": "forecast.svg", "caption": "ensemble forecast"},
    ]})
    return log


def test_context_from_events_rebuilds_stages():
    log = _full_log()
    ctx = context_from_events(log.events)
    assert ctx["run"]["horizon"] == 4
    assert ctx["quality"]["quality_score"] == 0.95
    assert [c["model"] for c in ctx["candidates"]] == ["exp_smoothing", "theta"]
    assert ctx["top"] == ["exp_smoothing"]
    assert ctx["forecast"]["level"] == 95.0
    assert len(ctx["metrics"]) == 2
    assert [p["file"] for p in ctx["plots"]] == ["overview.svg", "forecast.svg"]
    assert ctx["sources"] == {"preprocess": "rules", "selection": "llm", "ensemble": "rules"}
    assert ctx["events"] == log.events


def test_context_missing_stage_raises():
    log = _full_log()
    events = [e for e in log.events if e["stage"] != "profile"]
    with pytest.raises(ValueError, match="missing the 'profile' stage"):
        context_from_events(events)


def test_render_report_has_five_sections_in_order():
    report = render_report(context_from_events(_full_log().events))
    positions = [report.index(f"## {name}") for name in REPORT_SECTIONS]
    assert positions == sorted(positions)
    assert report.startswith("# Forecast report: slice00_h4")


def test_render_report_content_hooks():
    report = render_report(context_from_events(_full_log().events))
    assert "`weighted_average` strategy (confidence: medium)" in report
    assert "Member weights: `exp_smoothing`: 0.6, `theta`: 0.4." in report
    assert "| step | point | lower | upper |" in report
    assert "| `ensemble` |" in report
    assert "- `exp_smoothing`: seasonal cycle detected" in report
    assert "Leader score gap 0.02, member disagreement 0.1." in report
    assert "selection `llm`" in report
    assert "- `overview.svg`: input window" in report
    assert "| seq | stage | source | summary |" in report
    assert "log.ndjson" in report


def test_render_report_single_best_line():
    log = _full_log()
    ensemble_event = next(e for e in log.events if e["stage"] == "ensemble")
    ensemble_event["decision"].update(
        {"integration_strategy": "single_best", "selected_model": "exp_smoothing",
         "weights": None, "gap": 0.3}
    )
    report = render_report(context_from_events(log.events))
    assert "Single best model: `exp_smoothing` (leader gap 0.3)." in report
    assert "Selected model: `exp_smoothing`." in report
    assert "Member weights" not in report


def test_render_report_truncates_long_forecast_table():
    log = _full_log()
    forecast_event = next(e for e in log.events if e["stage"] == "forecast")
    forecast_event["decision"]["point"] = [float(i) for i in range(40)]
    forecast_event["decision"]["lower"] = [float(i) - 1 for i in range(40)]
    forecast_event["decision"]["upper"] = [float(i) + 1 for i in range(40)]
    report = render_report(context_from_events(log.events))
    assert "(first 12 of 40 steps; full forecast in forecast.csv)" in report


def test_report_roundtrips_from_disk(tmp_path):
    log = _full_log()
    path = tmp_path / "log.ndjson"
    write_ndjson(log.events, path)
    direct = render_report(context_from_events(log.events))
    replayed = render_report(context_from_events(read_ndjson(path)))
    assert replayed == direct



def test_report_weights_keep_member_order_after_roundtrip(tmp_path):
    # members not in alphabetical order: sort_keys in write_ndjson reorders
    # the weights dict, the members list keeps the run's order
    decision = EnsembleDecision(
        strategy="weighted_average", member_ids=("theta", "arima"), weights=(0.7, 0.3),
        selected_model=None, rationale="close scores", confidence="medium",
        gap=0.02, disagreement=0.1,
    )
    log = _full_log()
    ensemble_event = next(e for e in log.events if e["stage"] == "ensemble")
    ensemble_event["decision"] = {**decision.to_wire(), "members": list(decision.member_ids),
                                  "gap": decision.gap, "disagreement": decision.disagreement}
    path = tmp_path / "log.ndjson"
    write_ndjson(log.events, path)
    in_run = render_report(context_from_events(log.events))
    assert "Member weights: `theta`: 0.7, `arima`: 0.3." in in_run
    assert render_report(context_from_events(read_ndjson(path))) == in_run


# ---------------------------------------------------------------------------
# table writers and chart payloads
# ---------------------------------------------------------------------------


def _record(model_id, hp, mae, mape):
    return BacktestRecord(
        spec=ModelSpec(model_id, hp), status="ok",
        val_mae=mae, val_mape=mape, val_forecast=(1.0,),
    )


def test_metrics_rows_layout():
    top = [_record("arima", {"p": 1, "d": 0, "q": 0}, 0.5, 4.0),
           _record("theta", {}, 0.6, 4.4)]
    test_metrics = {"arima": {"mae": 0.7, "mape": 5.0}}
    ensemble_row = {"val_mae": 0.45, "val_mape": 3.9, "test_mae": 0.6, "test_mape": 4.6}
    rows = metrics_rows(top, test_metrics, ensemble_row)
    assert [r["model_id"] for r in rows] == ["arima", "theta", "ensemble"]
    assert rows[0]["params"] == "d=0;p=1;q=0"
    assert rows[1]["params"] == "default"
    assert rows[1]["test_mae"] is None  # no test metrics recorded for theta
    assert rows[2]["test_mape"] == 4.6


def test_write_metrics_csv(tmp_path):
    rows = [
        {"model_id": "arima", "params": "default", "val_mae": 0.5,
         "val_mape": 4.0, "test_mae": None, "test_mape": None},
        {"model_id": "ensemble", "params": "", "val_mae": 0.4,
         "val_mape": 3.5, "test_mae": 0.45, "test_mape": 3.8},
    ]
    path = tmp_path / "metrics.csv"
    write_metrics_csv(path, rows)
    with open(path, newline="") as fh:
        got = list(csv.DictReader(fh))
    assert got[0]["model_id"] == "arima" and got[0]["test_mae"] == ""
    assert got[1]["model_id"] == "ensemble" and float(got[1]["test_mae"]) == 0.45


def test_write_forecast_csv_exact_roundtrip(tmp_path):
    iv = build_intervals([[1.1, 2.2], [1.3, 2.0]], [1.2, 2.1], residual_std=0.37)
    path = tmp_path / "forecast.csv"
    write_forecast_csv(path, iv)
    with open(path, newline="") as fh:
        got = list(csv.DictReader(fh))
    assert [int(r["step"]) for r in got] == [1, 2]
    # repr-based serialization preserves every bit
    assert [float(r["point"]) for r in got] == list(iv.point)
    assert [float(r["lower"]) for r in got] == list(iv.lower)
    assert [float(r["upper"]) for r in got] == list(iv.upper)


def test_plotdata_payload_summary_stats():
    values = [float(v) for v in range(1, 101)]
    payload = plotdata_payload(values, {"acf": [1.0, 0.5]})
    assert payload["box"]["min"] == 1.0 and payload["box"]["max"] == 100.0
    assert payload["box"]["median"] == pytest.approx(50.5)
    assert sum(payload["histogram"]["counts"]) == 100
    assert len(payload["histogram"]["bin_edges"]) == 21
    assert payload["acf"] == [1.0, 0.5]


# ---------------------------------------------------------------------------
# svg figures (structure sanity, not pixel assertions)
# ---------------------------------------------------------------------------


def test_overview_figure_is_standalone_svg():
    rng = np.random.default_rng(0)
    svg = overview_figure([float(v) for v in rng.normal(0, 1, 128)])
    assert svg.startswith('<?xml version="1.0"')
    assert "<svg xmlns" in svg and svg.rstrip().endswith("</svg>")
    assert "rolling mean" in svg


def test_forecast_figure_members_and_band():
    history = [float(v) for v in range(32)]
    members = {"arima": [32.0, 33.0], "theta": [31.5, 32.5]}
    svg = forecast_figure(history, members, [31.75, 32.75],
                          lower=[30.0, 31.0], upper=[33.5, 34.5])
    assert "arima" in svg and "theta" in svg and "ensemble" in svg
    assert svg.count("<svg") == 1 and svg.count("</svg>") == 1


def test_forecast_figure_determinism():
    history = [float(v) for v in range(64)]
    members = {"a": [64.0, 65.0, 66.0]}
    one = forecast_figure(history, members, [64.0, 65.0, 66.0])
    two = forecast_figure(history, members, [64.0, 65.0, 66.0])
    assert one == two


def test_path_breaks_at_non_finite_points():
    # each point after a non-finite one starts a new segment with a move
    xs = np.arange(7.0)
    ys = np.array([1.0, np.nan, 2.0, 3.0, np.inf, np.nan, 4.0])
    d = _path_segments(xs, ys, _Scale(0.0, 6.0, 0.0, 60.0), _Scale(0.0, 4.0, 40.0, 0.0))
    assert d == "M0.00,30.00 M20.00,20.00 L30.00,10.00 M60.00,0.00"


def _per_point_path(xs, ys, sx, sy):
    """Reference path text: one _fmt call per coordinate."""
    ok = np.isfinite(xs) & np.isfinite(ys)
    idx = np.flatnonzero(ok)
    moves = np.diff(idx, prepend=-2) != 1
    px, py = sx(xs[ok]).tolist(), sy(ys[ok]).tolist()
    return " ".join(
        f"{'M' if move else 'L'}{_fmt(x)},{_fmt(y)}" for move, x, y in zip(moves.tolist(), px, py)
    )


def _per_point_band(xs, lower, upper, sx, sy):
    ok = np.isfinite(xs) & np.isfinite(lower) & np.isfinite(upper)
    if not ok.any():
        return ""
    px = sx(xs[ok]).tolist()
    upper_py, lower_py = sy(upper[ok]).tolist(), sy(lower[ok]).tolist()
    pts = [f"{_fmt(x)},{_fmt(u)}" for x, u in zip(px, upper_py)]
    pts += [f"{_fmt(x)},{_fmt(lo)}" for x, lo in zip(px[::-1], lower_py[::-1])]
    return f"M{' L'.join(pts)} Z"


# gaps, values that print as -0.00 on an identity scale, and wide magnitudes
PLOT_VALUE = st.one_of(
    st.floats(-1e300, 1e300),
    st.floats(-0.01, 0.01),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, -0.0049, -0.005]),
)
PLOT_SCALES = ((0.0, 1.0, 0.0, 1.0), (0.0, 6.0, 0.0, 60.0), (-3.0, 5.0, 40.0, 0.0))


@settings(max_examples=300, deadline=None)
@given(
    points=st.lists(st.tuples(PLOT_VALUE, PLOT_VALUE, PLOT_VALUE), max_size=30),
    x_scale=st.sampled_from(PLOT_SCALES),
    y_scale=st.sampled_from(PLOT_SCALES),
)
def test_path_text_matches_per_point_fmt(points, x_scale, y_scale):
    xs, lower, upper = (np.array([p[i] for p in points], dtype=float) for i in range(3))
    sx, sy = _Scale(*x_scale), _Scale(*y_scale)
    with np.errstate(over="ignore", invalid="ignore"):
        assert _path_segments(xs, upper, sx, sy) == _per_point_path(xs, upper, sx, sy)
        assert _band_path(xs, lower, upper, sx, sy) == _per_point_band(xs, lower, upper, sx, sy)


def test_labels_escape_markup_characters():
    svg = render_figure(
        [Panel(title="a&b <c>", lines=(Line('x&<>"y', (0.0, 1.0), (0.0, 1.0)),), x_label="<t>")]
    )
    assert '>a&amp;b &lt;c&gt;</text>' in svg
    assert 'data-label="x&amp;&lt;&gt;&quot;y"' in svg
    assert '>x&amp;&lt;&gt;"y</text>' in svg
    assert '>&lt;t&gt;</text>' in svg


def test_forecast_csv_is_what_csv_writer_writes(tmp_path):
    iv = build_intervals([[1.1, math.nan], [1.3, 2.0]], [1.2, math.inf], residual_std=0.37)
    path = tmp_path / "forecast.csv"
    write_forecast_csv(path, iv)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["step", "point", "lower", "upper"])
    for h, row in enumerate(zip(iv.point, iv.lower, iv.upper), start=1):
        writer.writerow([h, *map(repr, row)])
    assert path.read_bytes() == buf.getvalue().encode("utf-8")
