"""Checks of one output tree against the benchmark's own computations.

Every slice bundle is one operation. A bundle that fails a check is named
with the check it failed; checks that are about the run as a whole (extra
bundles, the aggregate tables, beats-naive) are reported separately. The
expected values come from the generated inputs, never from a stored copy
of earlier output.
"""

from __future__ import annotations

import csv
import json
import math
import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from pathlib import Path

from workloads import Workload

REPORT_SECTIONS = ("Forecast", "Performance Summary", "Interpretability", "Visualizations",
                   "Workflow Documentation")
PLOTS = ("correlogram.svg", "decomposition.svg", "ensemble_forecast.svg", "overview.svg")
REL_TOL = 1e-9
BENCH_REL_TOL = 1e-5  # the bench verb prints six significant digits
BOUND_MARGIN = 2.0  # forecasts stay within the window's range widened by twice the range


class CheckFailed(Exception):
    def __init__(self, check: str, detail: str):
        super().__init__(f"{check}: {detail}")


@dataclass(frozen=True)
class Slot:
    name: str
    horizon: int
    start: int


@dataclass
class Verdict:
    slots: list[Slot]
    failures: dict[str, list[str]] = field(default_factory=dict)  # bundle -> failed checks
    run_failures: list[str] = field(default_factory=list)
    naive: dict[int, tuple[float, float]] = field(default_factory=dict)  # h -> (ensemble, naive) MAE

    @property
    def attempted(self) -> int:
        return len(self.slots)

    @property
    def failed(self) -> int:
        return len(self.failures)


def layout(n: int, input_length: int, horizons, slices: int) -> list[Slot]:
    """Start offsets round(i * span / (k - 1)), span = n - (input_length + h)."""
    slots = []
    for h in horizons:
        span = n - (input_length + h)
        for i in range(slices):
            start = round(i * span / (slices - 1))
            slots.append(Slot(f"slice{i:03d}_h{h:03d}", h, start))
    return slots


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _read_forecast(path: Path, horizon: int) -> list[float]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["step", "point", "lower", "upper"] or len(rows) != horizon + 1:
        raise CheckFailed("contents", f"{path.name} does not hold {horizon} forecast rows")
    points = []
    for step, row in enumerate(rows[1:], start=1):
        point, lower, upper = (float(v) for v in row[1:])
        if int(row[0]) != step or not all(map(math.isfinite, (point, lower, upper))):
            raise CheckFailed("contents", f"{path.name} row {step} is not finite")
        if not lower <= point <= upper:
            raise CheckFailed("contents", f"{path.name} row {step} has point outside its interval")
        points.append(point)
    return points


def _check_contents(bundle: Path) -> None:
    report = (bundle / "report.md").read_text(encoding="utf-8")
    headings = set(re.findall(r"^## (.+)$", report, flags=re.M))
    if not headings.issuperset(REPORT_SECTIONS):
        raise CheckFailed("contents", "report.md lacks a section heading")
    plots = sorted(p.name for p in (bundle / "plots").glob("*.svg"))
    if tuple(plots) != PLOTS:
        raise CheckFailed("contents", f"plots are {plots}")
    for name in PLOTS:
        try:
            root = ET.fromstring((bundle / "plots" / name).read_bytes())
        except ET.ParseError as exc:
            raise CheckFailed("contents", f"{name} is not XML: {exc}") from exc
        if not root.tag.endswith("svg"):
            raise CheckFailed("contents", f"{name} is not an SVG document")
    if not (bundle / "metrics.csv").is_file():
        raise CheckFailed("contents", "metrics.csv is missing")


def _check_log_order(bundle: Path) -> None:
    """Leakage: the ensemble decision is logged before the forecast and score."""
    lines = (bundle / "log.ndjson").read_text(encoding="utf-8").splitlines()
    events = [json.loads(line) for line in lines if line.strip()]
    seqs = [e["seq"] for e in events]
    if any(b <= a for a, b in zip(seqs, seqs[1:])):
        raise CheckFailed("log_order", "sequence numbers are not increasing")
    stages = [e["stage"] for e in events]
    for stage in ("ensemble", "forecast", "score"):
        if stages.count(stage) != 1:
            raise CheckFailed("log_order", f"{stages.count(stage)} {stage} events")
    if not stages.index("ensemble") < stages.index("forecast") < stages.index("score"):
        raise CheckFailed("log_order", "ensemble is not logged before forecast and score")


def _ensemble_metrics(bundle: Path) -> tuple[float, float]:
    with open(bundle / "metrics.csv", encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            if row["model_id"] == "ensemble":
                return float(row["test_mae"]), float(row["test_mape"])
    raise CheckFailed("contents", "metrics.csv has no ensemble row")


def own_errors(truth: list[float], points: list[float]) -> tuple[float, float]:
    """MAE and MAPE (percent, targets below 1e-8 in magnitude left out) over
    the observed test positions, given as (truth, point) pairs."""
    mae = math.fsum(abs(t - p) for t, p in zip(truth, points)) / len(truth)
    kept = [(t, p) for t, p in zip(truth, points) if abs(t) >= 1e-8]
    mape = 100.0 * math.fsum(abs((t - p) / t) for t, p in kept) / len(kept)
    return mae, mape


class _Slice:
    """Checks of one bundle; ``errors`` is set once its forecast is read."""

    def __init__(self, wl: Workload, slot: Slot, input_length: int):
        self.slot = slot
        lo, hi = slot.start + input_length, slot.start + input_length + slot.horizon
        window = [v for v, seen in zip(wl.values[slot.start:lo], wl.observed[slot.start:lo]) if seen]
        self.window_lo, self.window_hi, self.last_value = min(window), max(window), window[-1]
        # (step, true value) at the observed positions of the test window
        self.test = [(i - lo, wl.values[i]) for i in range(lo, hi) if wl.observed[i]]
        self.errors: tuple[float, float] | None = None

    def naive_mae(self) -> float:
        return math.fsum(abs(t - self.last_value) for _, t in self.test) / len(self.test)

    def run(self, bundle: Path, replayed, report_same: bool) -> list[str]:
        """Failed checks of the bundle; a missing bundle or unreadable
        forecast.csv stops the rest."""
        if not bundle.is_dir():
            raise CheckFailed("missing", "the program produced no bundle")
        points = _read_forecast(bundle / "forecast.csv", self.slot.horizon)
        self.errors = own_errors([t for _, t in self.test], [points[step] for step, _ in self.test])
        failed = []
        try:
            _check_contents(bundle)
        except CheckFailed as exc:
            failed.append(str(exc))
        if replayed is None or [v.hex() for v in replayed] != [v.hex() for v in points]:
            failed.append("replay: replay_slice does not reproduce forecast.csv bit for bit")
        if not report_same:
            failed.append("report: the report verb does not rebuild report.md byte for byte")
        try:
            _check_log_order(bundle)
        except CheckFailed as exc:
            failed.append(str(exc))
        logged_mae, logged_mape = _ensemble_metrics(bundle)
        if not (_close(logged_mae, self.errors[0], REL_TOL) and _close(logged_mape, self.errors[1], REL_TOL)):
            failed.append(f"metrics: metrics.csv has {logged_mae!r}/{logged_mape!r}, "
                          f"own computation {self.errors[0]!r}/{self.errors[1]!r}")
        reach = BOUND_MARGIN * (self.window_hi - self.window_lo)
        lo, hi = self.window_lo - reach, self.window_hi + reach
        worst = max(points, key=lambda p: max(lo - p, p - hi))
        if not lo <= worst <= hi:
            failed.append(f"bounded: point forecast {worst:.6g} outside [{lo:.6g}, {hi:.6g}]")
        return failed


def _aggregate_table(path: Path) -> dict[str, tuple[float, float, int]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return {row["horizon"]: (float(row["mae"]), float(row["mape"]), int(row["n_slices"]))
                for row in csv.DictReader(fh)}


def _bench_table(text: str) -> dict[str, tuple[float, float, int]]:
    rows = {}
    for line in text.splitlines()[1:]:
        horizon, mae, mape, n = line.split()
        rows[horizon] = (float(mae), float(mape), int(n))
    return rows


def _check_tables(out_dir: Path, bench_text: str, means: dict[str, tuple[float, float, int]]) -> list[str]:
    problems = []
    for label, table, rel in (
        ("aggregate", lambda: _aggregate_table(out_dir / "aggregate.csv"), REL_TOL),
        ("bench", lambda: _bench_table(bench_text), BENCH_REL_TOL),
    ):
        try:
            rows = table()
        except (OSError, KeyError, ValueError) as exc:
            problems.append(f"{label}: unreadable table ({exc})")
            continue
        if set(rows) != set(means) or any(
            rows[k][2] != means[k][2] or not _close(rows[k][0], means[k][0], rel)
            or not _close(rows[k][1], means[k][1], rel)
            for k in means
        ):
            problems.append(f"{label}: table {rows} differs from own per-horizon means {means}")
    return problems


def check_tree(wl: Workload, out_dir: Path, slots: list[Slot], input_length: int, audit: dict,
               reports_before: dict[str, str], reports_after: dict[str, str],
               beats_naive: bool) -> Verdict:
    verdict = Verdict(slots)
    expected = {slot.name for slot in slots}
    extra = sorted(p.name for p in out_dir.glob("slice*_h*") if p.name not in expected)
    if extra:
        verdict.run_failures.append(f"layout: bundles outside the layout: {extra}")

    per_horizon: dict[int, list[_Slice]] = {}
    for slot in slots:
        one = _Slice(wl, slot, input_length)
        per_horizon.setdefault(slot.horizon, []).append(one)
        report = f"{slot.name}/report.md"
        try:
            failed = one.run(out_dir / slot.name, audit["replay"].get(slot.name),
                             report in reports_before and reports_before[report] == reports_after.get(report))
        except CheckFailed as exc:
            failed = [str(exc)]
        except (OSError, KeyError, ValueError, IndexError) as exc:
            failed = [f"contents: {type(exc).__name__}: {exc}"]
        if failed:
            verdict.failures[slot.name] = failed

    means: dict[str, tuple[float, float, int]] = {}
    for h, group in per_horizon.items():
        scored = [one.errors for one in group if one.errors is not None]
        if scored:
            means[str(h)] = (math.fsum(e[0] for e in scored) / len(scored),
                             math.fsum(e[1] for e in scored) / len(scored), len(scored))
            verdict.naive[h] = (means[str(h)][0], math.fsum(one.naive_mae() for one in group) / len(group))
    if means:
        means["Avg"] = (math.fsum(m[0] for m in means.values()) / len(means),
                        math.fsum(m[1] for m in means.values()) / len(means),
                        sum(m[2] for m in means.values()))
    verdict.run_failures.extend(_check_tables(out_dir, audit.get("bench", ""), means))
    if beats_naive:
        for h, (ens, naive) in sorted(verdict.naive.items()):
            if not ens < naive:
                verdict.run_failures.append(f"beats_naive: h={h} ensemble MAE {ens:.4g} >= naive {naive:.4g}")
    return verdict
