"""In-memory span tracer for the traced forecast run.

``Tracer.install`` wraps every public function and public method of the
``forecastlab`` modules, rebinding each wrapper at every module that imported
the function by name, plus ``jsonschema.validate`` as the advisor calls it.
The program's source is not touched. Each call records a span (name, start,
end, parent); ``layer_metrics`` reduces the spans to the per-layer metrics and
``self_times`` to the time each span name spends outside its child spans.
"""

from __future__ import annotations

import functools
import inspect
import os
import statistics
import sys
import threading
import time
from collections import Counter, defaultdict
from typing import Callable

PACKAGE = "forecastlab"

FIT = "models.fit_forecast"
DETECT = ("preprocess.detect_outliers", "preprocess.detect_outliers_iqr",
          "preprocess.detect_outliers_zscore", "preprocess.detect_outliers_percentile")
REPAIR = ("preprocess.fill_missing", "preprocess.repair_outliers")
REPORTER_WRITES = ("reporter.write_ndjson", "reporter.write_metrics_csv", "reporter.write_forecast_csv")
FIGURES = ("svgplot.overview_figure", "svgplot.decomposition_figure",
           "svgplot.correlogram_figure", "svgplot.forecast_figure")
ADVISE = ("advisor.Advisor.advise_preprocess", "advisor.Advisor.advise_selection",
          "advisor.Advisor.advise_ensemble")


def _span_name(qualname: str, args: tuple) -> str:
    # Fits are named by model family, so their time can be split by it.
    if qualname == FIT and args:
        return f"{FIT}:{args[0].model_id}"
    return qualname


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: Counter = Counter()
        self._local = threading.local()

    # -- recording ---------------------------------------------------------

    def wrap(self, qualname: str, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            idx = len(tracer.names)
            tracer.names.append(_span_name(qualname, args))
            tracer.parents.append(stack[-1] if stack else -1)
            tracer.ends.append(0.0)
            stack.append(idx)
            tracer.starts.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.ends[idx] = time.perf_counter()
                stack.pop()
            tracer._observe(qualname, args, result)
            return result

        return traced

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _observe(self, qualname: str, args: tuple, result) -> None:
        """Counts taken from a call's arguments or result at the boundary."""
        if qualname == "planner.backtest_pool":
            self.counts["planner.configs"] += len(result)
            self.counts["planner.ok_configs"] += sum(r.status == "ok" for r in result)
        elif qualname in ADVISE:
            advice = result
            if qualname == ADVISE[2]:
                decision, advice = result
                self.counts[f"ensemble.{decision.strategy}"] += 1
            self.counts["advisor.fallbacks"] += advice.source == "llm_fallback"
        elif qualname in FIGURES:
            self.counts["svgplot.bytes"] += len(result.encode("utf-8"))
        elif qualname == "reporter.write_ndjson":
            self.counts["reporter.log_bytes"] += os.path.getsize(args[1])

    def install(self) -> None:
        """Wrap public functions and methods of every imported forecastlab module."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        wrappers: dict[int, Callable] = {}
        for module in modules:
            short = module.__name__[len(PACKAGE) + 1:] or PACKAGE
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = self.wrap(f"{short}.{name}", obj)
                elif inspect.isclass(obj):
                    for meth_name, meth in list(vars(obj).items()):
                        if not meth_name.startswith("_") and inspect.isfunction(meth):
                            setattr(obj, meth_name, self.wrap(f"{short}.{name}.{meth_name}", meth))
        # Rebind at every module that holds the function by name.
        for module in modules:
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and id(obj) in wrappers:
                    setattr(module, name, wrappers[id(obj)])
        import jsonschema

        jsonschema.validate = self.wrap("jsonschema.validate", jsonschema.validate)

    # -- reduction ---------------------------------------------------------

    def _by_name(self) -> dict[str, list[int]]:
        index: dict[str, list[int]] = defaultdict(list)
        for i, name in enumerate(self.names):
            index[name].append(i)
        return index

    def _has_ancestor(self, i: int, match: Callable[[str], bool]) -> bool:
        p = self.parents[i]
        while p >= 0:
            if match(self.names[p]):
                return True
            p = self.parents[p]
        return False

    def _total(self, index: dict[str, list[int]], match: Callable[[str], bool],
               outside: Callable[[str], bool] | None = None) -> float:
        """Time in spans whose name matches, counting nested matches once;
        spans under an ancestor matching ``outside`` are left out."""
        out = 0.0
        for name, spans in index.items():
            if not match(name):
                continue
            for i in spans:
                if self._has_ancestor(i, match):
                    continue
                if outside is not None and self._has_ancestor(i, outside):
                    continue
                out += self.ends[i] - self.starts[i]
        return out

    def self_times(self) -> dict[str, float]:
        own: dict[str, float] = defaultdict(float)
        for i, name in enumerate(self.names):
            duration = self.ends[i] - self.starts[i]
            own[name] += duration
            if self.parents[i] >= 0:
                own[self.names[self.parents[i]]] -= duration
        return dict(sorted(own.items(), key=lambda kv: -kv[1]))

    def layer_metrics(self, forecast_s: float) -> dict[str, float]:
        index = self._by_name()

        def named(*names: str) -> Callable[[str], bool]:
            return lambda n: n in names

        def total(match, outside=None) -> float:
            return self._total(index, match, outside)

        def ms(name: str) -> list[float]:
            return [1000.0 * (self.ends[i] - self.starts[i]) for i in index.get(name, ())]

        fits: dict[str, float] = defaultdict(float)
        fit_calls = 0
        for name, spans in index.items():
            if name.startswith(FIT + ":"):
                family = name.split(":", 1)[1]
                key = family if family in ("exp_smoothing", "arima", "theta") else "other"
                fits[key] += total(named(name))
                fit_calls += len(spans)
        slice_ms = ms("pipeline.run_slice")
        request_ms = ms("advisor.LLMClient.complete")
        return {
            "preprocess.diagnose_calls": len(index.get("preprocess.diagnose", ())),
            "preprocess.diagnose_s": total(named("preprocess.diagnose")),
            "preprocess.detect_s": total(named(*DETECT)),
            "preprocess.repair_s": total(named(*REPAIR)),
            "models.fit_calls": fit_calls,
            "models.fit_s": sum(fits.values()),
            "models.fit_s.exp_smoothing": fits.get("exp_smoothing", 0.0),
            "models.fit_s.arima": fits.get("arima", 0.0),
            "models.fit_s.theta": fits.get("theta", 0.0),
            "models.fit_s.other": fits.get("other", 0.0),
            "planner.backtest_s": total(named("planner.backtest_pool")),
            "planner.configs": self.counts["planner.configs"],
            "planner.ok_configs": self.counts["planner.ok_configs"],
            "pipeline.slice_ms_p50": statistics.median(slice_ms) if slice_ms else 0.0,
            "pipeline.slice_ms_p90": statistics.quantiles(slice_ms, n=10)[-1] if len(slice_ms) > 1 else 0.0,
            "pipeline.plan_s": total(named("pipeline.plan_slice")),
            "pipeline.refit_s": total(named("pipeline.forecast_from_plan")),
            "advisor.preprocess_s": total(named(ADVISE[0])),
            "advisor.selection_s": total(named(ADVISE[1])),
            "advisor.ensemble_s": total(named(ADVISE[2])),
            "advisor.requests": len(request_ms),
            "advisor.request_ms_p50": statistics.median(request_ms) if request_ms else 0.0,
            "advisor.schema_s": total(named("jsonschema.validate")),
            "advisor.fallbacks": self.counts["advisor.fallbacks"],
            "profiling.profile_s": total(named("profiling.build_profile")),
            "profiling.bundle_s": total(
                named("profiling.decompose", "profiling.acf_pacf"),
                outside=named("profiling.build_profile"),
            ),
            "svgplot.render_s": total(lambda n: n.startswith("svgplot.")),
            "svgplot.bytes": self.counts["svgplot.bytes"],
            "reporter.render_s": total(named("reporter.render_report")),
            "reporter.write_s": total(named(*REPORTER_WRITES)),
            "reporter.log_bytes": self.counts["reporter.log_bytes"],
            "series.window_s": total(named("series.Series.window")),
            "series.with_values_s": total(named("series.Series.with_values")),
            "ensemble.single_best": self.counts["ensemble.single_best"],
            "ensemble.weighted_average": self.counts["ensemble.weighted_average"],
            "ensemble.median": self.counts["ensemble.median"],
            "datasets.read_csv_s": total(named("datasets.read_csv")),
            "trace.forecast_s": forecast_s,
            "trace.spans": len(self.names),
        }
