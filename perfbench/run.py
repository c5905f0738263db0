"""rpmdag benchmark runner.

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py                     # every workload, each in a fresh process

Run from the root of a source checkout; the package is imported from
src/. With --trace 0 one run sets the workload up several times (setup_s
is their median), then repeats a cycle on the same inputs for --seconds
and reports the end-to-end metrics over all repeats, timed by the speed
clock of speed.py. With --trace 1 it runs the cycle untraced, traced
and untraced again on the wall clock and reports per-layer metrics and
the tracing overhead.
Every cycle's outputs are checked. The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}. The exit code is 0
when every check passed or failed only by a known defect, 1 when a check
failed otherwise or a workload process crashed, 2 when there are no
sources to measure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# End-to-end metrics, reported by every workload: (name, unit).
END_TO_END = (
    ("ops_per_s", "1/s"),
    ("request_mean_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "rpmdag" / "__init__.py").is_file():
        print(f"perfbench: no rpmdag sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return _run_all(args)
    import workloads

    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, str(work))
        if args.trace:
            report = _traced_run(workload)
        else:
            report = _timed_run(workload, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    report["environment"] = _environment(args)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    for key, value in report["environment"].items():
        print(f"# {key}: {value}")
    for key, (value, unit) in report["detail"].items():
        print(f"{args.workload}.{key} = {value:.6g} {unit}")
    for error in report["errors"]:
        print(f"CHECK FAILED: {error}")
    print(json.dumps({key: report[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if report["correct"] else 1


def _parse(argv):
    parser = argparse.ArgumentParser(description="rpmdag benchmark")
    parser.add_argument("--workload", default="all", choices=("all", "ingest", "sim", "audit"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    return parser.parse_args(argv)


def _timed_run(workload, seconds: float) -> dict:
    """Set up several times, then repeat the cycle for about `seconds`."""
    import workloads
    from speed import SpeedClock
    from tracer import percentile

    with SpeedClock() as clock:
        workloads.perf = clock
        try:
            setups = []
            for _ in range(workload.setup_repeats):
                start = clock()
                workload.setup()
                setups.append(clock() - start)
            cycles = []
            probing_s, read = clock.probing_s, clock()
            start = time.perf_counter()
            # stop at the cycle boundary nearest to the target run length
            while not cycles or (time.perf_counter() - start) * (1 + 0.5 / len(cycles)) < seconds:
                cycles.append(workload.cycle())
            wall_s = time.perf_counter() - start
            probing_s, read = clock.probing_s - probing_s, clock() - read
        finally:
            workloads.perf = time.perf_counter
    requests = [s for c in cycles for s in c.requests]
    metrics = {
        "ops_per_s": sum(c.ops for c in cycles) / sum(c.timed_s for c in cycles),
        "request_mean_ms": sum(requests) / len(requests) * 1e3,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {}
    for phase in cycles[0].phases:
        seconds_total = sum(c.phases[phase][0] for c in cycles)
        items = sum(c.phases[phase][1] for c in cycles)
        detail[f"{phase}_per_s"] = (items / seconds_total, "1/s")
    for q in (50, 90, 95):
        detail[f"{workload.request}_p{q}_ms"] = (percentile(requests, q) * 1e3, "ms")
    detail["wall_s"] = (wall_s, "s")
    detail["clock_per_wall"] = (read / (wall_s - probing_s), "ratio")
    detail["probe_median_ms"] = (statistics.median(clock.probes) * 1e3, "ms")
    detail["requests"] = (len(requests), "count")
    detail["cycles"] = (len(cycles), "count")
    report = _summary(cycles)
    report["metrics"] = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}
    report["detail"] = detail
    report["setup_runs_s"] = setups
    report["cycles"] = [
        {"timed_s": c.timed_s, "ops": c.ops, "phases": c.phases, "requests_s": c.requests}
        for c in cycles
    ]
    return report


def _traced_run(workload) -> dict:
    from tracer import Tracer, metric_specs

    workload.setup()
    # untraced cycles on both sides of the traced one, so drift in host speed cancels
    before = workload.cycle()
    tracer = Tracer()
    traced = workload.cycle(tracer=tracer)
    after = workload.cycle()
    untraced_s = (before.timed_s + after.timed_s) / 2
    values = tracer.metrics()
    values["ledger.pool_left"] = traced.pool_left
    values["trace.untraced_s"] = untraced_s
    values["trace.traced_s"] = traced.timed_s
    values["trace.overhead_s"] = traced.timed_s - untraced_s
    spans = tracer.write_spans(OUT / f"spans-{workload.name}.tsv")
    report = _summary([before, traced, after])
    report["metrics"] = {name: {"value": values[name], "unit": unit} for name, unit, _ in metric_specs()}
    report["detail"] = {
        "spans": (spans, "count"),
        "overhead_share": (values["trace.overhead_s"] / untraced_s, "ratio"),
    }
    return report


def _summary(cycles) -> dict:
    attempted = sum(c.ops for c in cycles)
    failed = sum(c.failed for c in cycles)
    known = sum(c.known for c in cycles)
    errors = [e for c in cycles for e in c.errors]
    return {
        "correct": failed == known and not errors,
        "attempted": attempted,
        "failed": failed,
        "known_defect_failures": known,
        "errors": errors,
    }


def _environment(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "commit": _commit(),
        "source_sha256": _source_digest(),
    }


def _commit() -> str:
    """HEAD of the checkout when it is its own git work tree, else "none"."""
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "none"
    return lines[1]


def _source_digest() -> str:
    """sha256 over src/ file paths and contents, to identify the code measured."""
    h = hashlib.sha256()
    for path in sorted(p for p in SRC.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _run_all(args) -> int:
    """Each workload in a fresh process, so peak RSS and warm-up are its own.

    Exits 2 only when a child found no sources; a child that crashed, was
    killed or printed no result makes the run exit 1 with correct false.
    """
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in ("ingest", "sim", "audit"):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode == 2:
            return 2
        result = _last_json(proc.stdout)
        if proc.returncode not in (0, 1) or result is None:
            print(f"perfbench: {name} exited {proc.returncode} without a result", file=sys.stderr)
            combined["correct"] = False
            code = 1
            continue
        code = max(code, proc.returncode)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return code


def _last_json(stdout: str):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


if __name__ == "__main__":
    sys.exit(main())
