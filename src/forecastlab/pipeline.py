"""End-to-end forecasting pipeline over evenly spaced evaluation slices.

Leakage control is structural: planning (diagnose, profile, select,
backtest, ensemble decision) receives only the input window of a slice.
The test window is first touched after the ensemble decision has been
logged, and the workflow log ordering proves it.

All timestamps in the log come from a logical clock derived from the event
sequence, so identical runs produce byte-identical bundles.
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
import shutil
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import Sequence

import numpy as np

from .advisor import Advisor, InsufficientQualityError, LLMConfig
from .ensemble import EnsembleConfig, EnsembleDecision, combine, disagreement_index
from .models import ModelFailureError, ModelSpec, fit_forecast
from .planner import BacktestRecord, backtest_pool, build_pool, rank_top_models
from .preprocess import DetectionPolicy, RepairPolicy, diagnose
from .profiling import (
    DEFAULT_MAX_LAG,
    FALLBACK_SMOOTHING_PERIOD,
    acf_pacf,
    build_profile,
    decompose,
)
from .reporter import (
    IntervalForecast,
    REPORT_SECTIONS,
    WorkflowLog,
    build_intervals,
    context_from_events,
    metrics_rows,
    plotdata_payload,
    render_report,
    write_forecast_csv,
    write_metrics_csv,
    write_ndjson,
)
from .series import Series, ZScoreScaler, default_split_spec, mae, mape
from .svgplot import correlogram_figure, decomposition_figure, forecast_figure, overview_figure

MIN_INPUT_LENGTH = 64
SLICE_SEED_STRIDE = 7919
LOG_EPOCH = datetime(2000, 1, 1, tzinfo=timezone.utc)
# Slice bundle directory names, f"slice{index:03d}_h{horizon:03d}".
BUNDLE_NAME = re.compile(r"slice(\d{3,})_h(\d{3,})")


class PipelineError(RuntimeError):
    """A slice could not be completed."""


@dataclass(frozen=True)
class PipelineConfig:
    input_length: int = 512
    horizons: tuple[int, ...] = (96, 192, 336, 720)
    slice_count: int = 25
    seed: int = 0
    n_candidates: int = 3
    max_configs_per_model: int = 8
    top_k: int = 3
    workers: int = 1
    interval_level: float = 95.0
    advisor_mode: str = "rules"
    llm: LLMConfig | None = None
    ensemble: EnsembleConfig = field(default_factory=EnsembleConfig)
    column: str = "value"

    def __post_init__(self) -> None:
        if self.input_length < MIN_INPUT_LENGTH:
            raise ValueError(f"input_length must be at least {MIN_INPUT_LENGTH}")
        if not self.horizons or any(h < 1 for h in self.horizons):
            raise ValueError("every horizon must be at least 1")
        if self.slice_count < 1:
            raise ValueError("slice_count must be at least 1")
        if self.n_candidates < 1 or self.top_k < 1 or self.max_configs_per_model < 1:
            raise ValueError("pool sizes must be positive")
        if self.workers < 1:
            raise ValueError("workers must be positive")
        if not 0.0 < self.interval_level < 100.0:
            raise ValueError("interval_level must lie in (0, 100)")
        if self.advisor_mode not in ("rules", "llm"):
            raise ValueError("advisor_mode must be 'rules' or 'llm'")

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["ensemble"] = dataclasses.asdict(self.ensemble)
        if self.llm is not None:
            llm = dataclasses.asdict(self.llm)
            out["llm"] = llm
        return out


@dataclass(frozen=True)
class SliceResult:
    slice_index: int
    horizon: int
    start: int
    status: str  # ok | failed
    test_mae: float | None = None
    test_mape: float | None = None
    error: str | None = None
    bundle_dir: str | None = None


@dataclass
class PipelineResult:
    results: list[SliceResult]
    aggregate_rows: list[dict]
    warnings: list[str]
    out_dir: str | None


def logical_clock() -> WorkflowLog:
    """Log whose timestamps advance one second per event from a fixed epoch,
    keeping re-runs byte-identical."""
    counter = {"n": 0}

    def tick() -> str:
        counter["n"] += 1
        return (LOG_EPOCH + timedelta(seconds=counter["n"])).isoformat()

    return WorkflowLog(clock=tick)


def make_slices(
    n: int, input_length: int, horizon: int, slice_count: int
) -> tuple[list[int], list[str]]:
    """Evenly spaced slice start offsets, reducing the count when the series
    is too short to place them all."""
    span = n - (input_length + horizon)
    if span < 0:
        raise ValueError(
            f"series of length {n} cannot fit one slice of {input_length}+{horizon}"
        )
    warnings: list[str] = []
    feasible = min(slice_count, span + 1)
    if feasible < slice_count:
        warnings.append(
            f"horizon {horizon}: only {feasible} of {slice_count} slices fit; count reduced"
        )
    if feasible == 1:
        return [0], warnings
    starts = [round(i * span / (feasible - 1)) for i in range(feasible)]
    return starts, warnings


@dataclass
class _Plan:
    """Replay rebuilds only the first four fields, which forecast_from_plan
    reads; the rest describe the validation fit for the bundle."""

    cleaned: Series
    scaler: ZScoreScaler
    top: tuple[BacktestRecord, ...]
    decision: EnsembleDecision
    residual_std: float | None = None
    ensemble_val_mae: float | None = None
    ensemble_val_mape: float | None = None
    profile_period: int | None = None


def _masked_metrics(actual: Sequence[float | None], predicted: np.ndarray) -> tuple[float, float | None]:
    """MAE/MAPE over observed positions only; MAPE None when undefined."""
    pairs = [(a, float(p)) for a, p in zip(actual, predicted) if a is not None]
    if not pairs:
        raise PipelineError("test window contains no observed values")
    truth = np.asarray([a for a, _ in pairs], dtype=float)
    pred = np.asarray([p for _, p in pairs], dtype=float)
    out_mae = mae(truth, pred)
    try:
        out_mape = mape(truth, pred)
    except ValueError:
        out_mape = None
    return out_mae, out_mape


def plan_slice(
    input_window: Series,
    horizon: int,
    config: PipelineConfig,
    advisor: Advisor,
    slice_seed: int,
    log: WorkflowLog,
) -> _Plan:
    """Everything up to and including the frozen ensemble decision.

    Only the input window is available here, so no step of candidate
    selection, backtesting, or integration can observe the test horizon.
    The window is cleaned once, by the advisor's apply_strategies with the
    adopted strategies, and split by series.default_split_spec.
    """
    (diagnostics, cleaned, notes), pre = advisor.advise_preprocess(input_window)
    diag_payload = {**diagnostics.to_dict(), "wire": pre.payload, "notes": notes}
    if pre.source == "llm_fallback" and pre.raw_response is not None:
        diag_payload["raw_response"] = pre.raw_response
    log.record("diagnose", diag_payload, pre.source)
    log.record(
        "preprocess",
        {
            "filled": len(diagnostics.missing_indices),
            "repaired": len(diagnostics.outlier_indices),
            "detection": diag_payload["detection"],
            "repair": diag_payload["repair"],
            "notes": notes,
        },
        pre.source,
    )

    profile = build_profile(cleaned)
    log.record("profile", profile.to_dict())

    pool, selection = build_pool(advisor, profile, config.n_candidates)
    select_payload: dict = {"selected_models": [c.to_dict() for c in pool.candidates]}
    if selection.source == "llm_fallback" and selection.raw_response is not None:
        select_payload["raw_response"] = selection.raw_response
    log.record("select", select_payload, selection.source)

    spec = default_split_spec(len(cleaned), horizon)
    train_len, val_len = spec.train_len, spec.val_len
    train = cleaned.window(0, train_len)
    val = cleaned.window(train_len, len(cleaned))
    scaler = ZScoreScaler.fit(train.dense())

    records = backtest_pool(
        pool,
        train,
        val,
        scaler,
        max_configs_per_model=config.max_configs_per_model,
        seed=slice_seed,
        workers=config.workers,
    )
    top = rank_top_models(records, config.top_k)
    if not top:
        raise PipelineError("every candidate configuration failed on the validation window")
    log.record(
        "backtest",
        {
            "records": [r.to_dict() for r in records],
            "top": [r.spec.model_id for r in top],
            "train_len": train_len,
            "val_len": val_len,
        },
    )

    member_ids = [r.spec.model_id for r in top]
    val_forecasts = {r.spec.model_id: r.val_forecast for r in top}
    val_actual = val.dense()
    spread = disagreement_index(val_forecasts, val_actual)
    decision, ens_advice = advisor.advise_ensemble(
        member_ids,
        [r.val_mae for r in top],
        [r.val_mape for r in top],
        spread,
        val_forecasts,
        config.ensemble,
    )
    # The adopted decision is authoritative for replay; a successful LLM
    # payload is attached for provenance, a failed one as raw text.
    ens_payload = decision.to_wire()
    ens_payload.update(
        {
            "members": list(decision.member_ids),
            "strategy_internal": decision.strategy,
            "gap": decision.gap,
            "disagreement": decision.disagreement,
            "trim_fraction": decision.trim_fraction,
        }
    )
    if ens_advice.source == "llm":
        ens_payload["llm_payload"] = dict(ens_advice.payload)
    if ens_advice.source == "llm_fallback" and ens_advice.raw_response is not None:
        ens_payload["raw_response"] = ens_advice.raw_response
    log.record("ensemble", ens_payload, ens_advice.source)

    ensemble_val = combine(decision, val_forecasts)
    residual_std = float(np.std(np.asarray(val_actual, dtype=float) - ensemble_val))
    ens_val_mae, ens_val_mape = _masked_metrics(val_actual, ensemble_val)
    period = profile.seasonality.period if profile.seasonality.detected else None
    return _Plan(
        cleaned=cleaned,
        scaler=scaler,
        top=top,
        decision=decision,
        residual_std=residual_std,
        ensemble_val_mae=ens_val_mae,
        ensemble_val_mape=ens_val_mape,
        profile_period=period,
    )


def forecast_from_plan(plan: _Plan, horizon: int) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Refit the chosen configurations on the full input window and combine.

    Members are fit and pooled in scaled space; outputs are original-space.
    run_slice and replay_slice both forecast through here.
    """
    scaled_input = plan.cleaned.with_values(
        float(v) for v in plan.scaler.transform(plan.cleaned.dense())
    )
    members_scaled: dict[str, np.ndarray] = {}
    for record in plan.top:
        try:
            forecast = fit_forecast(record.spec, scaled_input, horizon)
        except ModelFailureError as exc:
            raise PipelineError(
                f"{record.spec.model_id} failed on the full input window: {exc}"
            ) from exc
        members_scaled[record.spec.model_id] = forecast.array()
    point = combine(plan.decision, members_scaled, plan.scaler)
    members_original = {
        mid: np.asarray(plan.scaler.inverse(arr), dtype=float)
        for mid, arr in members_scaled.items()
    }
    return members_original, np.asarray(point, dtype=float)


def _write_bundle(
    bundle_dir: Path,
    plan: _Plan,
    intervals: IntervalForecast,
    members_original: dict[str, np.ndarray],
    log: WorkflowLog,
) -> None:
    plots_dir = bundle_dir / "plots"
    plots_dir.mkdir(parents=True, exist_ok=True)
    values = plan.cleaned.dense()
    period = plan.profile_period if plan.profile_period is not None else FALLBACK_SMOOTHING_PERIOD
    dec = decompose(values, period)
    cor = acf_pacf(values, min(DEFAULT_MAX_LAG, len(values) // 2))
    figures = {
        "overview.svg": overview_figure(values),
        "decomposition.svg": decomposition_figure(dec),
        "correlogram.svg": correlogram_figure(cor),
        "ensemble_forecast.svg": forecast_figure(
            values, members_original, intervals.point, intervals.lower, intervals.upper
        ),
    }
    captions = {
        "overview.svg": "input window with rolling mean and one-std band (window 24)",
        "decomposition.svg": f"additive decomposition at period {period}",
        "correlogram.svg": "autocorrelation and partial autocorrelation with confidence band",
        "ensemble_forecast.svg": "history tail, member forecasts, ensemble, and interval band",
    }
    plot_entries = []
    for name, svg in figures.items():
        (plots_dir / name).write_text(svg, encoding="utf-8")
        plot_entries.append({"file": f"plots/{name}", "caption": captions[name]})
    log.record("report", {"plots": plot_entries, "sections": list(REPORT_SECTIONS)})

    write_ndjson(log.events, bundle_dir / "log.ndjson")
    ctx = context_from_events(log.events)
    (bundle_dir / "report.md").write_text(render_report(ctx), encoding="utf-8")
    write_metrics_csv(bundle_dir / "metrics.csv", ctx["metrics"])
    write_forecast_csv(bundle_dir / "forecast.csv", intervals)

    def _safe(seq: Sequence[float]) -> list[float | None]:
        return [v if math.isfinite(v) else None for v in seq]

    extras = {
        "correlogram": cor.to_dict(),
        "decomposition": {
            "period": dec.period,
            "trend": _safe(dec.trend),
            "seasonal": _safe(dec.seasonal),
            "residual": _safe(dec.residual),
        },
    }
    (bundle_dir / "plotdata.json").write_text(
        json.dumps(plotdata_payload(values, extras), sort_keys=True), encoding="utf-8"
    )


def run_slice(
    series: Series,
    start: int,
    slice_index: int,
    horizon: int,
    config: PipelineConfig,
    advisor: Advisor,
    out_dir: Path | None,
    label: str,
) -> SliceResult:
    """One slice end to end. The test window is read only after the ensemble
    decision event is in the log."""
    T = config.input_length
    input_window = series.window(start, start + T)
    slice_seed = config.seed + SLICE_SEED_STRIDE * slice_index + horizon
    log = logical_clock()
    log.record(
        "run",
        {
            "slice_label": label,
            "slice_index": slice_index,
            "start": start,
            "input_length": T,
            "horizon": horizon,
            "seed": slice_seed,
            "advisor_mode": config.advisor_mode,
            "n_candidates": config.n_candidates,
            "max_configs": config.max_configs_per_model,
            "top_k": config.top_k,
            "interval_level": config.interval_level,
            "workers": config.workers,
            "ensemble": dataclasses.asdict(config.ensemble),
        },
    )
    plan = plan_slice(input_window, horizon, config, advisor, slice_seed, log)

    # Decision is frozen and logged; only now is the test window visible.
    test_window = series.window(start + T, start + T + horizon)
    members_original, point = forecast_from_plan(plan, horizon)
    intervals = build_intervals(
        [members_original[mid] for mid in plan.decision.member_ids],
        point,
        plan.residual_std,
        config.interval_level,
    )
    log.record(
        "forecast",
        {
            "point": list(intervals.point),
            "lower": list(intervals.lower),
            "upper": list(intervals.upper),
            "level": intervals.level,
            "residual_std": intervals.residual_std,
        },
    )

    test_values = test_window.values
    test_metrics: dict[str, dict[str, float | None]] = {}
    for mid, forecast in members_original.items():
        m_mae, m_mape = _masked_metrics(test_values, forecast)
        test_metrics[mid] = {"mae": m_mae, "mape": m_mape}
    ens_mae, ens_mape = _masked_metrics(test_values, point)
    rows = metrics_rows(
        plan.top,
        test_metrics,
        {
            "params": plan.decision.strategy,
            "val_mae": plan.ensemble_val_mae,
            "val_mape": plan.ensemble_val_mape,
            "test_mae": ens_mae,
            "test_mape": ens_mape,
        },
    )
    log.record("score", {"rows": rows})

    bundle_dir_str: str | None = None
    if out_dir is not None:
        bundle_dir = out_dir / f"slice{slice_index:03d}_h{horizon:03d}"
        bundle_dir.mkdir(parents=True, exist_ok=True)
        _write_bundle(bundle_dir, plan, intervals, members_original, log)
        bundle_dir_str = str(bundle_dir)

    return SliceResult(
        slice_index=slice_index,
        horizon=horizon,
        start=start,
        status="ok",
        test_mae=ens_mae,
        test_mape=ens_mape,
        bundle_dir=bundle_dir_str,
    )


def aggregate_results(results: Sequence[SliceResult]) -> list[dict]:
    """Mean ensemble metrics per horizon plus an all-horizon average row.

    Only completed slices with defined metrics are included; each row
    carries its inclusion count.
    """
    horizons = sorted({r.horizon for r in results})
    rows: list[dict] = []
    for horizon in horizons:
        included = [
            r
            for r in results
            if r.horizon == horizon
            and r.status == "ok"
            and r.test_mae is not None
            and r.test_mape is not None
        ]
        if not included:
            rows.append({"horizon": horizon, "mae": None, "mape": None, "n_slices": 0})
            continue
        rows.append(
            {
                "horizon": horizon,
                "mae": float(np.mean([r.test_mae for r in included])),
                "mape": float(np.mean([r.test_mape for r in included])),
                "n_slices": len(included),
            }
        )
    usable = [row for row in rows if row["n_slices"] > 0]
    if usable:
        rows.append(
            {
                "horizon": "Avg",
                "mae": float(np.mean([row["mae"] for row in usable])),
                "mape": float(np.mean([row["mape"] for row in usable])),
                "n_slices": sum(row["n_slices"] for row in usable),
            }
        )
    return rows


def write_aggregate_csv(path: Path, rows: Sequence[dict]) -> None:
    import csv as _csv

    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = _csv.writer(fh)
        writer.writerow(["horizon", "mae", "mape", "n_slices"])
        for row in rows:
            writer.writerow(
                [
                    row["horizon"],
                    "" if row["mae"] is None else repr(row["mae"]),
                    "" if row["mape"] is None else repr(row["mape"]),
                    row["n_slices"],
                ]
            )


def run_pipeline(
    series: Series,
    config: PipelineConfig,
    out_dir: str | Path | None = None,
    advisor: Advisor | None = None,
    label: str = "series",
) -> PipelineResult:
    """Slice the series per horizon, run every slice, aggregate, and write
    the output tree. Per-slice failures are isolated and reported."""
    if advisor is None:
        advisor = Advisor(mode=config.advisor_mode, llm=config.llm)
    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)
        # Bundles of an earlier run into the same directory must not mix
        # with this run's; nothing else in the directory is touched.
        for old in out_path.iterdir():
            if old.is_dir() and BUNDLE_NAME.fullmatch(old.name):
                shutil.rmtree(old)

    warnings: list[str] = []
    results: list[SliceResult] = []
    n = len(series)
    any_planned = False
    for horizon in config.horizons:
        try:
            starts, horizon_warnings = make_slices(
                n, config.input_length, horizon, config.slice_count
            )
        except ValueError as exc:
            warnings.append(f"horizon {horizon}: {exc}")
            continue
        warnings.extend(horizon_warnings)
        any_planned = True
        for slice_index, start in enumerate(starts):
            slice_label = f"{label} slice {slice_index} (h={horizon})"
            try:
                result = run_slice(
                    series, start, slice_index, horizon, config, advisor, out_path, slice_label
                )
            except (PipelineError, InsufficientQualityError, ValueError) as exc:
                result = SliceResult(
                    slice_index=slice_index,
                    horizon=horizon,
                    start=start,
                    status="failed",
                    error=str(exc),
                )
                warnings.append(f"slice {slice_index} (h={horizon}) failed: {exc}")
            results.append(result)
    if not any_planned:
        raise ValueError("no horizon produced a feasible slice layout")

    rows = aggregate_results(results)
    if out_path is not None:
        write_aggregate_csv(out_path / "aggregate.csv", rows)
        config_payload = config.to_dict()
        (out_path / "config.json").write_text(
            json.dumps(config_payload, indent=2, sort_keys=True), encoding="utf-8"
        )
    return PipelineResult(
        results=results,
        aggregate_rows=rows,
        warnings=warnings,
        out_dir=str(out_path) if out_path is not None else None,
    )


def replay_slice(input_window: Series, events: Sequence[dict]) -> np.ndarray:
    """Re-execute a slice's logged decisions and return the point forecast.

    Every choice (policies, train length, backtest records, ensemble
    decision) is taken from the log into a plan, which forecast_from_plan
    refits and combines exactly as the run did, so the result matches the
    logged forecast bit-for-bit on the same input window.
    """
    ctx = context_from_events(events)
    run = ctx["run"]
    quality = ctx["quality"]
    detection = DetectionPolicy(**quality["detection"])
    repair = RepairPolicy(**quality["repair"])
    _, cleaned = diagnose(input_window, detection, repair)

    backtest = next((e["decision"] for e in events if e["stage"] == "backtest"), None)
    if backtest is None:
        raise ValueError("workflow log is missing the backtest stage")
    scaler = ZScoreScaler.fit(cleaned.window(0, backtest["train_len"]).dense())

    records = [
        BacktestRecord(
            spec=ModelSpec(entry["model"], dict(entry["hyperparameters"])),
            status=entry["status"],
            val_mae=entry["val_mae"],
            val_mape=entry["val_mape"],
        )
        for entry in ctx["records"]
    ]
    ens = ctx["ensemble"]
    members = tuple(ens["members"])
    weights = ens.get("weights")
    decision = EnsembleDecision(
        strategy=ens["strategy_internal"],
        member_ids=members,
        weights=None if not weights else tuple(float(weights[m]) for m in members),
        selected_model=ens.get("selected_model"),
        rationale=ens.get("reasoning", "replay"),
        confidence=ens.get("confidence", "medium"),
        gap=ens["gap"],
        disagreement=ens["disagreement"],
        trim_fraction=ens["trim_fraction"],
    )
    plan = _Plan(cleaned, scaler, rank_top_models(records, run["top_k"]), decision)
    return forecast_from_plan(plan, run["horizon"])[1]
