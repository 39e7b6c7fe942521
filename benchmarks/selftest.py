"""Self-test of the benchmark's checks: break copies of one output tree, one
way per check, and show that each break is caught while the untouched copy
passes.

    python3 benchmarks/selftest.py

A small seasonal run (horizons 96 and 192, three slices each) is forecast
once; each case copies its tree, applies one break, audits and checks the
copy. Exits 0 when every case is flagged by the expected check.
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path
from typing import Callable

from checks import layout
from run import SRC, WORK, BenchmarkError, audit_and_check, forecast_flags, run_child
from workloads import INPUT_LENGTH, make_workload

HORIZONS = (96, 192)
SLICES = 3


def change_forecast_digit(out: Path) -> None:
    path = out / "slice001_h096" / "forecast.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    step, point, lower, upper = lines[5].split(",")
    digit = point[-2]
    point = point[:-2] + ("1" if digit != "1" else "2") + point[-1]
    lines[5] = ",".join((step, point, lower, upper))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def delete_svg(out: Path) -> None:
    (out / "slice000_h192" / "plots" / "correlogram.svg").unlink()


def add_stale_bundle(out: Path) -> None:
    shutil.copytree(out / "slice000_h096", out / "slice007_h096")


def edit_report(out: Path) -> None:
    with open(out / "slice002_h096" / "report.md", "a", encoding="utf-8") as fh:
        fh.write("\nEdited by hand.\n")


def swap_log_events(out: Path) -> None:
    path = out / "slice001_h192" / "log.ndjson"
    lines = path.read_text(encoding="utf-8").splitlines()
    ens = next(i for i, line in enumerate(lines) if '"stage": "ensemble"' in line)
    fc = next(i for i, line in enumerate(lines) if '"stage": "forecast"' in line)
    lines[ens], lines[fc] = lines[fc], lines[ens]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# case -> (break, check expected to flag it); None expects no failure at all
CASES: dict[str, tuple[Callable[[Path], None] | None, str | None]] = {
    "untouched": (None, None),
    "forecast digit changed": (change_forecast_digit, "replay"),
    "svg deleted": (delete_svg, "contents"),
    "stale extra bundle": (add_stale_bundle, "layout"),
    "report.md edited": (edit_report, "report"),
    "log events swapped": (swap_log_events, "log_order"),
}


def main() -> int:
    if not (SRC / "forecastlab" / "cli.py").is_file():
        print(f"error: no forecastlab source tree at {SRC}", file=sys.stderr)
        return 2
    work = WORK / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    wl = make_workload("seasonal_clean", 7)
    csv_path = work / "series.csv"
    wl.write_csv(csv_path)
    pristine = work / "pristine"
    horizons = ",".join(str(h) for h in HORIZONS)
    try:
        run_child("forecast", ["--", *forecast_flags(csv_path, pristine, None),
                               "--horizons", horizons, "--slices", str(SLICES)], work)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    slots = layout(len(wl.values), INPUT_LENGTH, HORIZONS, SLICES)

    ok = True
    for case, (breaker, expected) in CASES.items():
        case_dir = work / case.replace(" ", "_")
        shutil.copytree(pristine, case_dir / "out")
        if breaker is not None:
            breaker(case_dir / "out")
        verdict, _, _ = audit_and_check(wl, csv_path, case_dir / "out", case_dir, slots, beats_naive=True)
        found = [f"{name}: {check}" for name, checks in verdict.failures.items() for check in checks]
        found += verdict.run_failures
        if expected is None:
            passed = not found
        else:
            passed = any(f.split(": ", 2)[1] == expected if f.startswith("slice") else f.startswith(expected)
                         for f in found)
        ok &= passed
        print(f"{'PASS' if passed else 'FAIL'}  {case:<24} expected {expected or 'no failure'}")
        for line in found:
            print(f"        caught {line[:150]}")
    print("all breaks caught, untouched tree passes" if ok else "a check did not behave as expected")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
