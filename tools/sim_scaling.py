"""Time netsim.run and trace its memory at doubling block counts.

    PYTHONHASHSEED=0 PYTHONPATH=src python3 tools/sim_scaling.py [--durations 1000,2000,4000] [--repeats 3]

Both modes run the same config (4 nodes, lambda 5, delay 1, k 3, seed 1);
at lambda 5 the durations 1000, 2000 and 4000 give about 5k, 10k and 20k
blocks. For each mode and duration, the wall time is the best of
--repeats untraced runs, and the peak is tracemalloc's traced peak over
one more run. Prints one JSON object: each run's blocks, seconds and peak
MB, and for each mode the ratio of each doubling. The peaks move by a
few percent with the hash seed, so PYTHONHASHSEED fixes it.
"""

from __future__ import annotations

import argparse
import gc
import json
import time
import tracemalloc

from rpmdag.netsim import MODES, SimConfig, run


def measure(mode: str, duration: float, repeats: int) -> dict:
    config = SimConfig(nodes=4, rate_lambda=5.0, delay_d=1.0, duration=duration, k=3,
                       seed=1, mode=mode)
    seconds = []
    for _ in range(repeats):
        gc.collect()
        start = time.perf_counter()
        metrics, trace = run(config)
        seconds.append(time.perf_counter() - start)
        del trace  # no run's trace outlives it into the next one
    gc.collect()
    tracemalloc.start()
    try:
        run(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {"mode": mode, "duration": duration, "blocks": metrics.blocks_created + 1,
            "seconds": round(min(seconds), 4), "peak_mb": round(peak / 1e6, 2)}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--durations", default="1000,2000,4000")
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)
    durations = [float(d) for d in args.durations.split(",")]
    runs = [measure(mode, d, args.repeats) for mode in MODES for d in durations]
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
