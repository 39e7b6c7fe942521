"""One measured step of the benchmark, in a fresh interpreter.

    python3 child.py forecast <src> <result.json> [--trace] -- <forecast flags>
    python3 child.py audit    <src> <result.json> <input.csv> <out_dir>

``src`` is the source tree the program must be imported from; the step
fails if ``forecastlab`` resolves anywhere else. Each step writes its
measurements as JSON to ``result.json``.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _import_cli(src: str):
    """Import ``forecastlab.cli`` and return it with the import time, the
    set-up every CLI invocation pays."""
    start = time.perf_counter()
    import forecastlab.cli as cli

    import_s = time.perf_counter() - start
    if not Path(cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"forecastlab was imported from {cli.__file__}, not from {src}")
    return cli, import_s


def step_forecast(src: str, argv: list[str], trace: bool) -> dict:
    cli, import_s = _import_cli(src)
    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    # The wall-clock ends bracket the bundle files' modification times.
    start_ns, cpu0, wall0 = time.time_ns(), _cpu_s(), time.perf_counter()
    rc = cli.main(["forecast", *argv])
    wall, cpu, end_ns = time.perf_counter() - wall0, _cpu_s() - cpu0, time.time_ns()
    maxrss_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    out = {"rc": rc, "import_s": import_s, "forecast_s": wall, "cpu_s": cpu, "maxrss_kb": maxrss_kb,
           "start_ns": start_ns, "end_ns": end_ns}
    if tracer is not None:
        out["layers"] = tracer.layer_metrics(wall)
        out["self_s"] = tracer.self_times()
    return out


def step_audit(src: str, input_csv: str, out_dir: str) -> dict:
    """Replay every bundle's forecast from its log and rebuild its report
    with the ``report`` verb, timing each bundle (the first segment is
    reading the input); the ``bench`` verb's table is captured after the
    timed part."""
    cli, import_s = _import_cli(src)
    from forecastlab.datasets import read_csv
    from forecastlab.pipeline import replay_slice
    from forecastlab.reporter import read_ndjson

    bundles = sorted(p for p in Path(out_dir).glob("slice*_h*") if p.is_dir())
    replayed: dict[str, list[float]] = {}
    marks = [time.perf_counter()]
    series = read_csv(input_csv)
    marks.append(time.perf_counter())
    with contextlib.redirect_stdout(io.StringIO()):
        for bundle in bundles:
            events = read_ndjson(bundle / "log.ndjson")
            run = next(e["decision"] for e in events if e["stage"] == "run")
            window = series.window(run["start"], run["start"] + run["input_length"])
            replayed[bundle.name] = [float(v) for v in replay_slice(window, events)]
            if cli.main(["report", "--slice-dir", str(bundle)]) != 0:
                raise SystemExit(f"report verb failed on {bundle}")
            marks.append(time.perf_counter())
    table = io.StringIO()
    with contextlib.redirect_stdout(table):
        bench_rc = cli.main(["bench", "--out", out_dir])
    return {"import_s": import_s, "audit_s": marks[-1] - marks[0],
            "segments": [b - a for a, b in zip(marks, marks[1:])],
            "replay": replayed, "bench_rc": bench_rc, "bench": table.getvalue()}


def main(argv: list[str]) -> int:
    step, src, result_path, *rest = argv
    if step == "forecast":
        trace = rest[0] == "--trace"
        result = step_forecast(src, rest[rest.index("--") + 1:], trace)
    elif step == "audit":
        result = step_audit(src, *rest)
    else:
        raise SystemExit(f"unknown step {step!r}")
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
