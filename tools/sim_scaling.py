"""Time netsim.run and trace its memory at doubling block counts.

    PYTHONHASHSEED=0 PYTHONPATH=src python3 tools/sim_scaling.py [--durations 1000,2000,4000] [--repeats 3]

Both modes run the same config (4 nodes, lambda 5, delay 1, k 3, seed 1);
at lambda 5 the durations 1000, 2000 and 4000 give about 5k, 10k and 20k
blocks. The untraced runs go round-robin: each of the --repeats rounds
runs every mode and duration once, so a slow spell of the host falls on
every size rather than on one. A run's seconds are the median of its
rounds, with the fastest and slowest beside it, and its peak is
tracemalloc's traced peak over one more run. Prints one JSON object: each
run's blocks, seconds, peak MB and peak KB per block, and for each mode
the ratio of each doubling. The peaks move by a few percent with the
hash seed, so PYTHONHASHSEED fixes it.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import time
import tracemalloc

from rpmdag.netsim import MODES, SimConfig, run


def config(mode: str, duration: float) -> SimConfig:
    return SimConfig(nodes=4, rate_lambda=5.0, delay_d=1.0, duration=duration, k=3,
                     seed=1, mode=mode)


def timed(cfg: SimConfig) -> tuple[float, int]:
    """One untraced run's seconds and block count."""
    gc.collect()
    start = time.perf_counter()
    metrics, _trace = run(cfg)
    seconds = time.perf_counter() - start  # before the trace is freed on return
    return seconds, metrics.blocks_created + 1


def peak_mb(cfg: SimConfig) -> float:
    gc.collect()
    tracemalloc.start()
    try:
        run(cfg)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--durations", default="1000,2000,4000")
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    cases = [(mode, float(d)) for mode in MODES for d in args.durations.split(",")]
    seconds: dict[tuple[str, float], list[float]] = {case: [] for case in cases}
    blocks = {}
    for _ in range(args.repeats):
        for case in cases:
            took, blocks[case] = timed(config(*case))
            seconds[case].append(took)
    runs = []
    for mode, duration in cases:
        n, took, peak = blocks[mode, duration], seconds[mode, duration], peak_mb(config(mode, duration))
        runs.append({"mode": mode, "duration": duration, "blocks": n,
                     "seconds": round(statistics.median(took), 4),
                     "seconds_min": round(min(took), 4), "seconds_max": round(max(took), 4),
                     "peak_mb": round(peak, 2), "kb_per_block": round(peak * 1000 / n, 3)})
    doublings = {}
    for mode in MODES:
        rows = [r for r in runs if r["mode"] == mode]
        doublings[mode] = [
            {"blocks": [a["blocks"], b["blocks"]],
             "seconds_ratio": round(b["seconds"] / a["seconds"], 2),
             "peak_ratio": round(b["peak_mb"] / a["peak_mb"], 2)}
            for a, b in zip(rows, rows[1:])
        ]
    print(json.dumps({"runs": runs, "doublings": doublings}, indent=1))


if __name__ == "__main__":
    main()
