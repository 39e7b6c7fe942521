"""Command-line entry point: diagnose, forecast, report, and bench verbs."""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from .advisor import Advisor, DEFAULT_CREDENTIAL_ENV, InsufficientQualityError, LLMConfig
from .datasets import read_csv
from .ensemble import EnsembleConfig
from .pipeline import BUNDLE_NAME, PipelineConfig, SliceResult, aggregate_results, run_pipeline
from .profiling import build_profile
from .reporter import context_from_events, read_ndjson, render_report
from .svgplot import overview_figure

DEFAULTS = {
    "column": "value",
    "slices": 25,
    "input_length": 512,
    "horizons": "96,192,336,720",
    "seed": 0,
    "advisor": "rules",
    "workers": 1,
    "n_candidates": 3,
    "max_configs": 8,
    "top_k": 3,
    "interval_level": 95.0,
    "llm_endpoint": None,
    "llm_model": "advisor-default",
    "llm_credential_env": DEFAULT_CREDENTIAL_ENV,
}


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", required=True, help="input CSV path")
    parser.add_argument("--column", help=f"value column name (default {DEFAULTS['column']})")
    parser.add_argument("--advisor", choices=("rules", "llm"), help="decision backend")
    parser.add_argument("--llm-endpoint", help="chat-completion URL for --advisor llm")
    parser.add_argument("--llm-model", help="model name sent to the endpoint")
    parser.add_argument(
        "--llm-credential-env",
        help=f"env var holding the API key (default {DEFAULTS['llm_credential_env']})",
    )
    parser.add_argument("--config", help="JSON file with defaults for any flag")


def _load_file_config(path: str | None) -> dict:
    if not path:
        return {}
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(payload, dict):
        raise ValueError("--config must contain a JSON object")
    return payload


def _merged(args: argparse.Namespace, file_cfg: dict, key: str):
    flag_value = getattr(args, key, None)
    if flag_value is not None:
        return flag_value
    if key in file_cfg:
        return file_cfg[key]
    return DEFAULTS[key]


def _parse_horizons(raw) -> tuple[int, ...]:
    if isinstance(raw, (list, tuple)):
        return tuple(int(h) for h in raw)
    return tuple(int(part) for part in str(raw).split(",") if part.strip())


def _build_advisor_settings(
    args: argparse.Namespace, file_cfg: dict, parser: argparse.ArgumentParser
) -> tuple[str, LLMConfig | None]:
    mode = _merged(args, file_cfg, "advisor")
    llm = None
    if mode == "llm":
        endpoint = _merged(args, file_cfg, "llm_endpoint")
        if not endpoint:
            parser.error("--advisor llm requires --llm-endpoint (or 'llm_endpoint' in --config)")
        llm = LLMConfig(
            endpoint=endpoint,
            model=_merged(args, file_cfg, "llm_model"),
            credential_env=_merged(args, file_cfg, "llm_credential_env"),
        )
    return mode, llm


def _build_pipeline_config(
    args: argparse.Namespace, file_cfg: dict, parser: argparse.ArgumentParser
) -> PipelineConfig:
    mode, llm = _build_advisor_settings(args, file_cfg, parser)
    ensemble_cfg = file_cfg.get("ensemble", {})
    return PipelineConfig(
        input_length=int(_merged(args, file_cfg, "input_length")),
        horizons=_parse_horizons(_merged(args, file_cfg, "horizons")),
        slice_count=int(_merged(args, file_cfg, "slices")),
        seed=int(_merged(args, file_cfg, "seed")),
        n_candidates=int(_merged(args, file_cfg, "n_candidates")),
        max_configs_per_model=int(_merged(args, file_cfg, "max_configs")),
        top_k=int(_merged(args, file_cfg, "top_k")),
        workers=int(_merged(args, file_cfg, "workers")),
        interval_level=float(_merged(args, file_cfg, "interval_level")),
        advisor_mode=mode,
        llm=llm,
        ensemble=EnsembleConfig(**ensemble_cfg),
        column=str(_merged(args, file_cfg, "column")),
    )


def cmd_diagnose(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    file_cfg = _load_file_config(args.config)
    mode, llm = _build_advisor_settings(args, file_cfg, parser)
    column = str(_merged(args, file_cfg, "column"))
    series = read_csv(args.input, column)
    advisor = Advisor(mode=mode, llm=llm)
    try:
        (diagnostics, cleaned, notes), decision = advisor.advise_preprocess(series)
    except InsufficientQualityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    diag_payload = diagnostics.to_dict()
    diag_payload["wire"] = decision.payload
    diag_payload["notes"] = notes
    diag_payload["source"] = decision.source
    (out_dir / "diagnostics.json").write_text(
        json.dumps(diag_payload, indent=2, sort_keys=True), encoding="utf-8"
    )
    try:
        profile = build_profile(cleaned)
        (out_dir / "profile.json").write_text(
            json.dumps(profile.to_dict(), indent=2, sort_keys=True), encoding="utf-8"
        )
        profile_note = (
            f"trend {profile.trend.label}, "
            f"seasonal period {profile.seasonality.period if profile.seasonality.detected else 'none'}, "
            f"{'stationary' if profile.stationarity.is_stationary else 'non-stationary'}"
        )
    except ValueError as exc:
        profile_note = f"profile unavailable: {exc}"
    (out_dir / "overview.svg").write_text(overview_figure(cleaned.dense()), encoding="utf-8")
    print(
        f"quality {diagnostics.quality_score:.4g}: "
        f"{len(diagnostics.missing_indices)} missing, "
        f"{len(diagnostics.outlier_indices)} outliers ({decision.source})"
    )
    print(profile_note)
    print(f"wrote diagnostics.json, profile.json, overview.svg to {out_dir}")
    return 0


def _print_aggregate(rows: list[dict]) -> None:
    print(f"{'horizon':>8} {'mae':>14} {'mape':>14} {'slices':>7}")
    for row in rows:
        mae_txt = "-" if row["mae"] is None else f"{row['mae']:.6g}"
        mape_txt = "-" if row["mape"] is None else f"{row['mape']:.6g}"
        print(f"{str(row['horizon']):>8} {mae_txt:>14} {mape_txt:>14} {row['n_slices']:>7}")


def cmd_forecast(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    file_cfg = _load_file_config(args.config)
    config = _build_pipeline_config(args, file_cfg, parser)
    series = read_csv(args.input, config.column)
    result = run_pipeline(series, config, out_dir=args.out, label=Path(args.input).stem)
    for warning in result.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    ok = [r for r in result.results if r.status == "ok"]
    print(f"completed {len(ok)}/{len(result.results)} slices; output in {result.out_dir}")
    _print_aggregate(result.aggregate_rows)
    return 0 if ok else 1


def cmd_report(args: argparse.Namespace, _parser: argparse.ArgumentParser) -> int:
    slice_dir = Path(args.slice_dir)
    log_path = slice_dir / "log.ndjson"
    if not log_path.exists():
        print(f"error: {log_path} not found", file=sys.stderr)
        return 1
    events = read_ndjson(log_path)
    ctx = context_from_events(events)
    report_path = slice_dir / "report.md"
    report_path.write_text(render_report(ctx), encoding="utf-8")
    print(f"rebuilt {report_path} from {len(events)} logged events")
    return 0


def cmd_bench(args: argparse.Namespace, _parser: argparse.ArgumentParser) -> int:
    """Re-aggregate the ensemble rows of the bundles in --out. A forecast
    run clears earlier bundles first, so these are the last run's."""
    out_dir = Path(args.out)
    results: list[SliceResult] = []
    for metrics_path in sorted(out_dir.glob("*/metrics.csv")):
        name = BUNDLE_NAME.fullmatch(metrics_path.parent.name)
        if name is None:
            continue
        with open(metrics_path, encoding="utf-8", newline="") as fh:
            row = next((r for r in csv.DictReader(fh) if r["model_id"] == "ensemble"), None)
        if row is None:
            continue
        results.append(
            SliceResult(
                slice_index=int(name[1]),
                horizon=int(name[2]),
                start=0,  # not in metrics.csv; aggregation does not read it
                status="ok",
                test_mae=float(row["test_mae"]) if row["test_mae"] else None,
                test_mape=float(row["test_mape"]) if row["test_mape"] else None,
            )
        )
    if not results:
        print(f"error: no slice metrics found under {out_dir}", file=sys.stderr)
        return 1
    _print_aggregate(aggregate_results(results))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="forecastlab",
        description="Deterministic univariate forecasting pipeline with decision logging.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_diag = sub.add_parser("diagnose", help="quality pass and temporal profile only")
    _add_common_flags(p_diag)
    p_diag.add_argument("--out", required=True, help="output directory")

    p_fc = sub.add_parser("forecast", help="full sliced pipeline run")
    _add_common_flags(p_fc)
    p_fc.add_argument("--out", required=True, help="output directory")
    p_fc.add_argument("--slices", type=int, help=f"slice count (default {DEFAULTS['slices']})")
    p_fc.add_argument(
        "--input-length", type=int, dest="input_length",
        help=f"input window length (default {DEFAULTS['input_length']})",
    )
    p_fc.add_argument(
        "--horizons", help=f"comma-separated horizons (default {DEFAULTS['horizons']})"
    )
    p_fc.add_argument("--seed", type=int, help="base random seed")
    p_fc.add_argument("--workers", type=int, help="backtest worker threads")
    p_fc.add_argument("--n-candidates", type=int, dest="n_candidates", help="candidate pool size")
    p_fc.add_argument(
        "--max-configs", type=int, dest="max_configs", help="configs sampled per model"
    )
    p_fc.add_argument("--top-k", type=int, dest="top_k", help="ensemble member count")
    p_fc.add_argument(
        "--interval-level", type=float, dest="interval_level", help="interval coverage level"
    )

    p_rep = sub.add_parser("report", help="re-render report.md from a slice's log")
    p_rep.add_argument("--slice-dir", required=True, dest="slice_dir", help="slice bundle directory")

    p_bench = sub.add_parser("bench", help="recompute aggregate tables from slice metrics")
    p_bench.add_argument("--out", required=True, help="directory of a previous forecast run")

    args = parser.parse_args(argv)
    if args.verb == "report":
        return cmd_report(args, parser)
    if args.verb == "bench":
        return cmd_bench(args, parser)
    verb = cmd_diagnose if args.verb == "diagnose" else cmd_forecast
    try:
        return verb(args, parser)
    except (ValueError, OSError) as exc:
        # input the run cannot use: an unreadable file, a non-numeric cell,
        # a --config that is not a JSON object, or a slice layout that does
        # not fit the series
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
