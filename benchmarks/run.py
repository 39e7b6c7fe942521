"""forecastlab benchmark: run one workload end to end and print its metrics.

    python3 benchmarks/run.py --workload seasonal_clean --seed 7 --seconds 25 --trace 0
    python3 benchmarks/run.py --workload all --seed 7

Each round runs the ``forecast`` verb through ``forecastlab.cli.main`` in a
fresh interpreter on the workload's generated input, writing a fresh output
tree, then audits every bundle (``replay_slice`` and the ``report`` verb) in
another fresh interpreter, and checks the tree against the benchmark's own
computations. Rounds repeat until ``--seconds`` of forecast and audit time
have been measured (at least two rounds). Children run one at a time.
``forecast_s`` and ``audit_s`` add up, slice by slice, each slice's fastest
time across the rounds, and ``cpu_s`` is the fastest round's; these and
``setup_s`` are scaled to the speed of a fixed reference task timed in the
same run. Memory and output size are medians over the rounds.

With ``--trace 0`` the end-to-end metrics are printed; with ``--trace 1``
the forecast runs under the span tracer and the per-layer metrics are
printed. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. Human-readable detail
goes to standard error. The program is imported from ``src/`` of the
checkout this file sits in; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from checks import Verdict, check_tree, layout
from workloads import HORIZONS, INPUT_LENGTH, SLICES, WORKLOADS, StubEndpoint, Workload, make_workload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"

MIN_ROUNDS = 2  # determinism is checked between rounds
# The reference task is timed REFERENCE_SAMPLES times before every round.
# REFERENCE_S is its fastest time on an unloaded core of the 2-core sandbox
# the benchmark was sized on (Xeon, model 207); times are scaled by
# REFERENCE_S over the run's own fastest reference time.
REFERENCE_SAMPLES = 3
REFERENCE_S = 0.05
CHILD_TIMEOUT_S = 170.0
RSS_POLL_S = 0.25
MB = 1e6


def metric_units(kind: str) -> dict[str, str]:
    """Metric name -> unit, in the order ``BENCHMARK.json`` lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


class BenchmarkError(RuntimeError):
    pass


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("FORECASTLAB_API_KEY", None)
    # The stub endpoint is on localhost; no request may leave through a proxy.
    for key in ("http_proxy", "https_proxy", "all_proxy", "HTTP_PROXY", "HTTPS_PROXY", "ALL_PROXY"):
        env.pop(key, None)
    env["NO_PROXY"] = env["no_proxy"] = "127.0.0.1,localhost"
    return env


def _tree_rss_bytes(root_pid: int) -> int:
    """Resident memory summed over a process and all its descendants."""
    children: dict[int, list[int]] = {}
    for entry in os.scandir("/proc"):
        if entry.name.isdigit():
            try:
                stat = Path(f"/proc/{entry.name}/stat").read_text()
            except OSError:
                continue
            ppid = int(stat.rsplit(")", 1)[1].split()[1])
            children.setdefault(ppid, []).append(int(entry.name))
    total, stack = 0, [root_pid]
    while stack:
        pid = stack.pop()
        try:
            total += int(Path(f"/proc/{pid}/statm").read_text().split()[1]) * os.sysconf("SC_PAGE_SIZE")
        except (OSError, IndexError, ValueError):
            continue
        stack.extend(children.get(pid, ()))
    return total


def run_child(step: str, args: list[str], work: Path, sample_rss: bool = False) -> dict:
    """Run one child step to completion and return its JSON result."""
    result_path, log_path = work / f"{step}.json", work / f"{step}.log"
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "child.py"), step, str(SRC), str(result_path), *args]
    peak = 0
    with open(log_path, "w", encoding="utf-8") as log:
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, env=_child_env(), cwd=ROOT)
        deadline = time.monotonic() + CHILD_TIMEOUT_S
        try:
            while proc.poll() is None:
                if time.monotonic() > deadline:
                    raise BenchmarkError(f"{step} step ran longer than {CHILD_TIMEOUT_S:.0f} s")
                if sample_rss:
                    peak = max(peak, _tree_rss_bytes(proc.pid))
                time.sleep(RSS_POLL_S)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    if proc.returncode != 0:
        tail = log_path.read_text(encoding="utf-8").strip().splitlines()[-5:]
        raise BenchmarkError(f"{step} step exited with {proc.returncode}: " + " | ".join(tail))
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result["tree_rss_bytes"] = peak
    return result


def tree_digests(out_dir: Path) -> dict[str, str]:
    return {
        str(path.relative_to(out_dir)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out_dir.rglob("*"))
        if path.is_file()
    }


def tree_hash(digests: dict[str, str]) -> str:
    return hashlib.sha256(json.dumps(digests, sort_keys=True).encode()).hexdigest()


def forecast_segments(out_dir: Path, start_ns: int, end_ns: int) -> list[float]:
    """Split the forecast verb's wall time at the moments its bundles were
    completed (the newest modification time among each bundle's files): one
    segment per slice in a serial run, then the verb's closing work. The
    segments add up to the verb's wall time."""
    done = sorted(max(f.stat().st_mtime_ns for f in bundle.rglob("*") if f.is_file())
                  for bundle in out_dir.glob("slice*_h*") if bundle.is_dir())
    marks = [start_ns, *(min(max(t, start_ns), end_ns) for t in done), end_ns]
    return [(b - a) / 1e9 for a, b in zip(marks, marks[1:])]


def reference_s(x: np.ndarray) -> float:
    """Time a fixed task with the program's mix of work: a pure-Python loop
    and many small numpy calls. It never changes, so its fastest time across
    a run tracks only the speed the host gives the benchmark."""
    start = time.perf_counter()
    total = 0.0
    for i in range(340_000):
        total += i * 0.5
    for _ in range(950):
        np.quantile(x, (0.25, 0.75))
    return time.perf_counter() - start


def fastest_sum(rounds: list[list[float]]) -> float:
    """Sum over segments of each segment's fastest time across the rounds.
    The same work is repeated every round, so contention from the rest of
    the host that slows a segment in one round does not count."""
    return math.fsum(min(times) for times in zip(*rounds))


@dataclass
class Round:
    forecast: dict
    forecast_segments: list[float]
    audit: dict
    output_bytes: int
    digests: dict[str, str]
    verdict: Verdict


def forecast_flags(csv_path: Path, out_dir: Path, llm_url: str | None) -> list[str]:
    flags = ["--input", str(csv_path), "--out", str(out_dir)]
    if llm_url is not None:
        flags += ["--advisor", "llm", "--llm-endpoint", llm_url]
    return flags


def audit_and_check(wl: Workload, csv_path: Path, out_dir: Path, work: Path,
                    slots: list, beats_naive: bool) -> tuple[Verdict, dict, dict[str, str]]:
    """Audit an output tree in a fresh interpreter and check it; returns the
    verdict, the audit step's result and the tree's file digests from before
    the audit."""
    digests = tree_digests(out_dir)
    audit = run_child("audit", [str(csv_path), str(out_dir)], work)
    reports_after = {k: hashlib.sha256((out_dir / k).read_bytes()).hexdigest()
                     for k in digests if k.endswith("report.md")}
    verdict = check_tree(wl, out_dir, slots, INPUT_LENGTH, audit, digests, reports_after, beats_naive)
    if audit["bench_rc"] != 0:
        verdict.run_failures.append(f"bench: the bench verb exited with {audit['bench_rc']}")
    return verdict, audit, digests


def one_round(wl: Workload, csv_path: Path, work: Path, trace: bool, llm_url: str | None) -> Round:
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    out_dir = work / "out"
    trace_flag = ["--trace"] if trace else []
    fc = run_child("forecast", [*trace_flag, "--", *forecast_flags(csv_path, out_dir, llm_url),
                                "--slices", str(SLICES)], work, sample_rss=True)
    segments = forecast_segments(out_dir, fc["start_ns"], fc["end_ns"])
    output_bytes = sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file())
    slots = layout(len(wl.values), INPUT_LENGTH, HORIZONS, SLICES)
    verdict, audit, digests = audit_and_check(wl, csv_path, out_dir, work, slots,
                                              beats_naive=wl.name == "seasonal_clean")
    return Round(fc, segments, audit, output_bytes, digests, verdict)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = make_workload(name, seed)
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    csv_path = work / "series.csv"
    wl.write_csv(csv_path)

    rounds: list[Round] = []
    run_failures: list[str] = []
    reference: list[float] = []
    x = np.random.default_rng(0).normal(size=256)
    with StubEndpoint() if wl.llm else contextlib.nullcontext() as stub:
        llm_url = stub.url if stub is not None else None
        while (len(rounds) < MIN_ROUNDS
               or sum(r.forecast["forecast_s"] + r.audit["audit_s"] for r in rounds) < seconds):
            reference += [reference_s(x) for _ in range(REFERENCE_SAMPLES)]
            rounds.append(one_round(wl, csv_path, work / "round", trace, llm_url))
            if tree_hash(rounds[-1].digests) != tree_hash(rounds[0].digests):
                run_failures.append(f"determinism: round {len(rounds)} output tree differs from round 1")
    for r in rounds:
        run_failures += r.verdict.run_failures

    imports = [t for r in rounds for t in (r.forecast["import_s"], r.audit["import_s"])]
    if trace:
        units = metric_units("per_layer")
        metrics = {k: statistics.median(r.forecast["layers"][k] for r in rounds) for k in units}
        self_s = rounds[-1].forecast["self_s"]
        (work / "self_s.json").write_text(json.dumps(self_s, indent=1), encoding="utf-8")
    else:
        scale = REFERENCE_S / min(reference)
        metrics = {
            "setup_s": scale * statistics.median(imports),
            "forecast_s": scale * fastest_sum([r.forecast_segments for r in rounds]),
            "cpu_s": scale * min(r.forecast["cpu_s"] for r in rounds),
            "audit_s": scale * fastest_sum([r.audit["segments"] for r in rounds]),
            "peak_rss_mb": statistics.median(
                max(1024 * r.forecast["maxrss_kb"], r.forecast["tree_rss_bytes"]) / MB for r in rounds),
            "output_mb": statistics.median(r.output_bytes / MB for r in rounds),
        }
        units = metric_units("end_to_end")
        self_s = None

    summary = {
        "workload": name,
        "seed": wl.seed,
        "rounds": len(rounds),
        "correct": not run_failures,
        "attempted": sum(r.verdict.attempted for r in rounds),
        "failed": sum(r.verdict.failed for r in rounds),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "raw": {
            "fastest reference": min(reference),
            "median import": statistics.median(imports),
            "fastest-slice forecast": fastest_sum([r.forecast_segments for r in rounds]),
            "fastest-bundle audit": fastest_sum([r.audit["segments"] for r in rounds]),
            "median round forecast": statistics.median(r.forecast["forecast_s"] for r in rounds),
            "median round audit": statistics.median(r.audit["audit_s"] for r in rounds),
        },
    }
    (work / "rounds.json").write_text(json.dumps({
        "reference_s": reference,
        "rounds": [{"forecast_segments": r.forecast_segments, "audit_segments": r.audit["segments"],
                    **{k: r.forecast[k] for k in ("import_s", "forecast_s", "cpu_s")}} for r in rounds],
    }, indent=1), encoding="utf-8")
    _report(summary, rounds[-1].verdict, run_failures, self_s)
    return summary


def _report(summary: dict, verdict: Verdict, run_failures: list[str], self_s: dict | None) -> None:
    def say(line: str = "") -> None:
        print(line, file=sys.stderr)

    say(f"== {summary['workload']} (input seed {summary['seed']}, {summary['rounds']} rounds)")
    for key, m in summary["metrics"].items():
        say(f"  {key:<28} {m['value']:>14.6g} {m['unit']}")
    say("  unscaled: " + ", ".join(f"{k} {v:.4g} s" for k, v in summary["raw"].items()))
    say(f"  slices attempted {summary['attempted']}, failed {summary['failed']}")
    for bundle, checks in verdict.failures.items():
        for check in checks:
            say(f"  failed slice {bundle}: {check}")
    for h, (ens, naive) in sorted(verdict.naive.items()):
        say(f"  h={h}: mean ensemble MAE {ens:.4g}, last-value naive MAE {naive:.4g}")
    for problem in run_failures:
        say(f"  FAILED {problem}")
    if self_s:
        say("  self time by span (top 15):")
        for name, seconds in list(self_s.items())[:15]:
            say(f"    {name:<48} {seconds:9.3f} s")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=7, help="input seed of seasonal_clean")
    parser.add_argument("--seconds", type=float, default=25.0, help="forecast+audit time to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still stops the child it is waiting on (see run_child).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "forecastlab" / "cli.py").is_file():
        print(f"error: no forecastlab source tree at {SRC}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        summaries = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(summaries) == 1:
        metrics = summaries[0]["metrics"]
    else:
        metrics = {f"{s['workload']}.{k}": v for s in summaries for k, v in s["metrics"].items()}
    print(json.dumps({
        "correct": all(s["correct"] for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
