"""Report bundle assembly: intervals, workflow log, tables, and markdown.

The markdown report is always rendered from the NDJSON workflow log, so a
bundle can be regenerated later from the log alone and the log is a faithful
record of every decision the pipeline made.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

# Two-sided z multipliers for the common levels; anything else falls back
# to a rational approximation of the normal quantile function.
Z_TABLE = {
    80.0: 1.2815515655446004,
    90.0: 1.6448536269514722,
    95.0: 1.959963984540054,
    99.0: 2.5758293035489004,
}

REPORT_SECTIONS = (
    "Forecast",
    "Performance Summary",
    "Interpretability",
    "Visualizations",
    "Workflow Documentation",
)

MAX_FORECAST_TABLE_ROWS = 12


def normal_quantile(p: float) -> float:
    """Inverse standard normal CDF (rational approximation, ~1e-9 accurate)."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    a = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
         1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
    b = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
         6.680131188771972e+01, -1.328068155288572e+01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
         -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
    d = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
         3.754408661907416e+00)
    p_low, p_high = 0.02425, 1 - 0.02425
    if p < p_low:
        q = math.sqrt(-2 * math.log(p))
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1
        )
    if p > p_high:
        q = math.sqrt(-2 * math.log(1 - p))
        return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1
        )
    q = p - 0.5
    r = q * q
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / (
        ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1
    )


def z_for_level(level: float) -> float:
    """Two-sided z multiplier for a central coverage level in percent."""
    if not 0.0 < level < 100.0:
        raise ValueError("level must lie in (0, 100)")
    if level in Z_TABLE:
        return Z_TABLE[level]
    return normal_quantile(0.5 + level / 200.0)


@dataclass(frozen=True)
class IntervalForecast:
    point: tuple[float, ...]
    lower: tuple[float, ...]
    upper: tuple[float, ...]
    level: float
    residual_std: float


def build_intervals(
    member_forecasts: Sequence[Sequence[float]],
    point: Sequence[float],
    residual_std: float,
    level: float = 95.0,
) -> IntervalForecast:
    """Symmetric intervals around the combined forecast.

    Per-step uncertainty pools the population variance across member
    forecasts (ensemble spread) with the validation residual variance of
    the combined predictor.
    """
    members = np.asarray(member_forecasts, dtype=float)
    center = np.asarray(point, dtype=float)
    if members.ndim != 2 or members.shape[1] != center.size:
        raise ValueError("member forecasts must be (k, horizon) matching the point forecast")
    spread_var = members.var(axis=0)
    half = z_for_level(level) * np.sqrt(spread_var + residual_std**2)
    return IntervalForecast(
        point=tuple(float(v) for v in center),
        lower=tuple(float(v) for v in center - half),
        upper=tuple(float(v) for v in center + half),
        level=float(level),
        residual_std=float(residual_std),
    )


class WorkflowLog:
    """Append-only decision log with strictly increasing sequence numbers."""

    def __init__(self, clock: Callable[[], str] | None = None):
        self.events: list[dict] = []
        self._seq = 0
        self._clock = clock if clock is not None else (
            lambda: datetime.now(timezone.utc).isoformat()
        )

    def record(
        self, stage: str, decision: dict, source: str = "rules", seq: int | None = None
    ) -> dict:
        if seq is not None:
            if seq <= self._seq:
                raise ValueError(f"sequence regression: {seq} after {self._seq}")
            self._seq = seq
        else:
            self._seq += 1
        event = {
            "v": 1,
            "seq": self._seq,
            "stage": stage,
            "ts": self._clock(),
            "source": source,
            "decision": decision,
        }
        self.events.append(event)
        return event


def write_ndjson(events: Sequence[dict], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for event in events:
            fh.write(json.dumps(event, sort_keys=True) + "\n")


def read_ndjson(path: str | Path) -> list[dict]:
    events = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events


def _g(value) -> str:
    """Four-significant-figure rendering used by every report table."""
    if value is None:
        return "-"
    if isinstance(value, str):
        return value
    return f"{float(value):.4g}"


def _md_table(header: Sequence[str], rows: Sequence[Sequence[str]]) -> list[str]:
    out = ["| " + " | ".join(header) + " |", "|" + "|".join(" --- " for _ in header) + "|"]
    for row in rows:
        out.append("| " + " | ".join(row) + " |")
    return out


def context_from_events(events: Sequence[dict]) -> dict:
    """Rebuild the render context from a workflow log."""
    by_stage: dict[str, list[dict]] = {}
    for event in events:
        by_stage.setdefault(event["stage"], []).append(event)

    def one(stage: str) -> dict:
        if stage not in by_stage:
            raise ValueError(f"workflow log is missing the {stage!r} stage")
        return by_stage[stage][-1]

    run = one("run")["decision"]
    diagnose_event = one("diagnose")
    profile_event = one("profile")
    select_event = one("select")
    backtest_event = one("backtest")
    ensemble_event = one("ensemble")
    forecast_event = one("forecast")
    score_event = one("score")
    plots = by_stage.get("report", [{}])[-1].get("decision", {}).get("plots", [])
    return {
        "run": run,
        "quality": diagnose_event["decision"],
        "profile": profile_event["decision"],
        "candidates": select_event["decision"]["selected_models"],
        "records": backtest_event["decision"]["records"],
        "top": backtest_event["decision"]["top"],
        "ensemble": ensemble_event["decision"],
        "forecast": forecast_event["decision"],
        "metrics": score_event["decision"]["rows"],
        "plots": plots,
        "sources": {
            "preprocess": diagnose_event.get("source", "rules"),
            "selection": select_event.get("source", "rules"),
            "ensemble": ensemble_event.get("source", "rules"),
        },
        "events": list(events),
    }


def _event_summary(stage: str, source: str, decision: Mapping) -> str:
    if stage == "run":
        return (
            f"slice {decision.get('slice_label', '?')}: input {decision.get('input_length')}"
            f", horizon {decision.get('horizon')}, advisor {decision.get('advisor_mode')}"
        )
    if stage == "diagnose":
        strategies = decision.get("wire", {}).get("recommended_strategies", {})
        return (
            f"quality {_g(decision.get('quality_score'))}; "
            f"{len(decision.get('missing_indices', []))} missing, "
            f"{len(decision.get('outlier_indices', []))} outliers; "
            f"fill={strategies.get('missing_value_strategy', '?')}, "
            f"detect={strategies.get('outlier_detect_strategy', '?')}, "
            f"handle={strategies.get('outlier_handle_strategy', '?')}"
        )
    if stage == "profile":
        season = decision.get("seasonality", {})
        season_txt = (
            f"seasonal period {season.get('period')}" if season.get("detected") else "no seasonality"
        )
        stat = decision.get("stationarity", {})
        return (
            f"trend {decision.get('trend', {}).get('label', '?')}, {season_txt}, "
            f"{'stationary' if stat.get('is_stationary') else 'non-stationary'}"
        )
    if stage == "select":
        names = ", ".join(m.get("model", "?") for m in decision.get("selected_models", []))
        return f"candidate pool: {names}"
    if stage == "backtest":
        records = decision.get("records", [])
        failed = sum(1 for r in records if r.get("status") != "ok")
        return (
            f"{len(records)} configurations evaluated ({failed} failed); "
            f"top: {', '.join(decision.get('top', []))}"
        )
    if stage == "ensemble":
        return (
            f"{decision.get('integration_strategy', '?')} "
            f"(confidence {decision.get('confidence', '?')})"
        )
    if stage == "forecast":
        return (
            f"{len(decision.get('point', []))} steps with {_g(decision.get('level'))}% intervals"
        )
    if stage == "score":
        for row in decision.get("rows", []):
            if row.get("model_id") == "ensemble":
                return f"ensemble test MAE {_g(row.get('test_mae'))}, MAPE {_g(row.get('test_mape'))}"
        return "validation-only scoring"
    if stage == "report":
        return f"{len(decision.get('plots', []))} figures written"
    return f"{stage} ({source})"


def render_report(ctx: Mapping) -> str:
    """Render the five-section markdown report from a log-derived context."""
    run = ctx["run"]
    ensemble = ctx["ensemble"]
    forecast = ctx["forecast"]
    point = forecast["point"]
    lower = forecast.get("lower")
    upper = forecast.get("upper")

    lines: list[str] = [f"# Forecast report: {run.get('slice_label', 'series')}", ""]

    # -- Forecast -----------------------------------------------------------
    lines += ["## Forecast", ""]
    strategy = ensemble.get("integration_strategy", "?")
    members = ensemble.get("members", [])
    lines.append(
        f"Ensemble of {len(members)} model(s) over a {run.get('horizon')}-step horizon "
        f"using the `{strategy}` strategy (confidence: {ensemble.get('confidence', '?')})."
    )
    if ensemble.get("selected_model"):
        lines.append(f"Selected model: `{ensemble['selected_model']}`.")
    weights = ensemble.get("weights")
    if weights:
        # Member order: the log's sort_keys round trip reorders the dict.
        pairs = ", ".join(f"`{m}`: {_g(weights[m])}" for m in members)
        lines.append(f"Member weights: {pairs}.")
    arr = np.asarray(point, dtype=float)
    lines.append(
        f"Point forecast summary: mean {_g(arr.mean())}, min {_g(arr.min())}, "
        f"max {_g(arr.max())}; intervals at the {_g(forecast.get('level'))}% level."
    )
    lines.append("")
    n_rows = min(MAX_FORECAST_TABLE_ROWS, len(point))
    rows = []
    for h in range(n_rows):
        rows.append(
            [
                str(h + 1),
                _g(point[h]),
                _g(lower[h]) if lower else "-",
                _g(upper[h]) if upper else "-",
            ]
        )
    lines += _md_table(["step", "point", "lower", "upper"], rows)
    if len(point) > n_rows:
        lines.append("")
        lines.append(f"(first {n_rows} of {len(point)} steps; full forecast in forecast.csv)")
    lines.append("")

    # -- Performance Summary -------------------------------------------------
    lines += ["## Performance Summary", ""]
    perf_rows = []
    for row in ctx["metrics"]:
        perf_rows.append(
            [
                f"`{row['model_id']}`",
                row.get("params", "-") or "-",
                _g(row.get("val_mae")),
                _g(row.get("val_mape")),
                _g(row.get("test_mae")),
                _g(row.get("test_mape")),
            ]
        )
    lines += _md_table(
        ["model", "params", "val MAE", "val MAPE", "test MAE", "test MAPE"], perf_rows
    )
    lines.append("")

    # -- Interpretability -----------------------------------------------------
    lines += ["## Interpretability", ""]
    quality = ctx["quality"]
    strategies = quality.get("wire", {}).get("recommended_strategies", {})
    lines.append(
        f"Data quality score {_g(quality.get('quality_score'))}: "
        f"{len(quality.get('missing_indices', []))} missing value(s) filled with "
        f"`{strategies.get('missing_value_strategy', '?')}`, "
        f"{len(quality.get('outlier_indices', []))} outlier(s) found by "
        f"`{strategies.get('outlier_detect_strategy', '?')}` and repaired with "
        f"`{strategies.get('outlier_handle_strategy', '?')}`."
    )
    for note in quality.get("notes", []):
        lines.append(f"- note: {note}")
    profile = ctx["profile"]
    trend = profile.get("trend", {})
    season = profile.get("seasonality", {})
    stat = profile.get("stationarity", {})
    season_txt = (
        f"a repeating cycle of period {season.get('period')} "
        f"(strength {_g(season.get('strength'))})"
        if season.get("detected")
        else "no reliable seasonal cycle"
    )
    lines.append(
        f"The input shows a {trend.get('label', '?')} trend "
        f"(strength {_g(trend.get('strength'))}), {season_txt}, and is "
        f"{'stationary' if stat.get('is_stationary') else 'non-stationary'} "
        f"(test statistic {_g(stat.get('statistic'))} vs critical "
        f"{_g(stat.get('critical_value'))})."
    )
    lines.append("")
    lines.append("Candidate pool rationale:")
    for cand in ctx["candidates"]:
        lines.append(f"- `{cand.get('model')}`: {cand.get('reason')}")
    lines.append("")
    lines.append(f"Integration rationale: {ensemble.get('reasoning', '-')}")
    if ensemble.get("selected_model"):
        lines.append(
            f"Single best model: `{ensemble['selected_model']}` "
            f"(leader gap {_g(ensemble.get('gap'))})."
        )
    lines.append(
        f"Leader score gap {_g(ensemble.get('gap'))}, "
        f"member disagreement {_g(ensemble.get('disagreement'))}."
    )
    sources = ctx.get("sources", {})
    lines.append(
        f"Decision sources: preprocess `{sources.get('preprocess', 'rules')}`, "
        f"selection `{sources.get('selection', 'rules')}`, "
        f"ensemble `{sources.get('ensemble', 'rules')}`."
    )
    lines.append("")

    # -- Visualizations --------------------------------------------------------
    lines += ["## Visualizations", ""]
    if ctx["plots"]:
        for plot in ctx["plots"]:
            lines.append(f"- `{plot['file']}`: {plot.get('caption', '')}")
    else:
        lines.append("(no figures were produced)")
    lines.append("")

    # -- Workflow Documentation -------------------------------------------------
    lines += ["## Workflow Documentation", ""]
    flow_rows = []
    for event in ctx["events"]:
        flow_rows.append(
            [
                str(event["seq"]),
                event["stage"],
                event.get("source", "rules"),
                _event_summary(event["stage"], event.get("source", "rules"), event["decision"]),
            ]
        )
    lines += _md_table(["seq", "stage", "source", "summary"], flow_rows)
    lines.append("")
    lines.append("Replay: `forecastlab report --slice-dir <this directory>` rebuilds this")
    lines.append("report from `log.ndjson`; the log pins every decision made above.")
    lines.append("")
    return "\n".join(lines)


def metrics_rows(
    top_records: Sequence,
    test_metrics: Mapping[str, Mapping[str, float]],
    ensemble_row: Mapping[str, float],
) -> list[dict]:
    """Flatten ranked member records plus the ensemble into table rows."""
    rows: list[dict] = []
    for record in top_records:
        model_id = record.spec.model_id
        test = test_metrics.get(model_id, {})
        rows.append(
            {
                "model_id": model_id,
                "params": record.spec.params_label(),
                "val_mae": record.val_mae,
                "val_mape": record.val_mape,
                "test_mae": test.get("mae"),
                "test_mape": test.get("mape"),
            }
        )
    rows.append(
        {
            "model_id": "ensemble",
            "params": ensemble_row.get("params", ""),
            "val_mae": ensemble_row.get("val_mae"),
            "val_mape": ensemble_row.get("val_mape"),
            "test_mae": ensemble_row.get("test_mae"),
            "test_mape": ensemble_row.get("test_mape"),
        }
    )
    return rows


def write_metrics_csv(path: str | Path, rows: Sequence[Mapping]) -> None:
    columns = ["model_id", "params", "val_mae", "val_mape", "test_mae", "test_mape"]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: ("" if row.get(k) is None else row.get(k)) for k in columns})


def write_forecast_csv(path: str | Path, intervals: IntervalForecast) -> None:
    # csv.writer's rows and terminator; ints and float reprs need no quoting
    lines = ["step,point,lower,upper"]
    lines += [
        f"{h},{p!r},{lo!r},{hi!r}"
        for h, (p, lo, hi) in enumerate(
            zip(intervals.point, intervals.lower, intervals.upper), start=1
        )
    ]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\r\n".join(lines) + "\r\n")


def plotdata_payload(values: Sequence[float], profile_extras: Mapping) -> dict:
    """Numeric chart data (correlogram, decomposition, histogram, box)."""
    arr = np.asarray(values, dtype=float)
    counts, edges = np.histogram(arr, bins=20)
    q1, med, q3 = (float(v) for v in np.quantile(arr, [0.25, 0.5, 0.75]))
    payload = {
        "histogram": {"bin_edges": [float(e) for e in edges], "counts": [int(c) for c in counts]},
        "box": {
            "min": float(arr.min()),
            "q1": q1,
            "median": med,
            "q3": q3,
            "max": float(arr.max()),
        },
    }
    payload.update(profile_extras)
    return payload
