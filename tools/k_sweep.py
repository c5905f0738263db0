"""Time the simulator and GHOSTDAG at several k on one network.

    PYTHONHASHSEED=0 PYTHONPATH=src python3 tools/k_sweep.py [--duration 500] [--repeats 3]

The network is fixed (4 nodes, lambda 20, delay 1, seed 3), so every k
sees the same DAG, about 10k blocks at the default duration. k runs over
3, 6, 18 and k_for_network(1.0, 20.0, 0.01), the k the protocol
prescribes for that network. For each k it times netsim.run, one
ghostdag_run over the run's final DAG with its coloring read, and
check_convergence, which replays and orders every node's view. The
rounds go round-robin over k, and each time is the median of the
--repeats rounds. Prints one JSON object: the derived k, and for each k
the block count, the three times, the blue share of the final DAG's
coloring and the convergence verdict.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import time

from rpmdag.dag import BlockDag
from rpmdag.ghostdag import GhostdagParams, ghostdag_run, k_for_network
from rpmdag.netsim import SimConfig, check_convergence, run

NODES, RATE, DELAY, SEED = 4, 20.0, 1.0, 3


def cycle(k: int, duration: float) -> dict:
    """One round at k: the three times, the block count, the blue share and
    the verdict."""
    cfg = SimConfig(nodes=NODES, rate_lambda=RATE, delay_d=DELAY, duration=duration, k=k, seed=SEED)
    gc.collect()
    start = time.perf_counter()
    _metrics, trace = run(cfg)
    ran = time.perf_counter()
    dag = BlockDag()
    for block in trace.blocks.values():  # creation order is topological
        dag.add(block)
    built = time.perf_counter()
    blue = ghostdag_run(dag, GhostdagParams(k)).coloring.blue
    ordered = time.perf_counter()
    converged = check_convergence(trace, k)
    checked = time.perf_counter()
    return {"blocks": len(dag), "run_s": ran - start, "ghostdag_s": ordered - built,
            "check_convergence_s": checked - ordered, "blue_share": round(len(blue) / len(dag), 4),
            "converged": converged}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--duration", type=float, default=500.0)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    derived = k_for_network(DELAY, RATE, 0.01)
    ks = [3, 6, 18, derived]
    rounds: dict[int, list[dict]] = {k: [] for k in ks}
    for _ in range(args.repeats):
        for k in ks:
            rounds[k].append(cycle(k, args.duration))
    rows = []
    for k in ks:
        first = rounds[k][0]
        row = {"k": k, "blocks": first["blocks"]}
        for name in ("run_s", "ghostdag_s", "check_convergence_s"):
            row[name] = round(statistics.median(r[name] for r in rounds[k]), 4)
        row.update(blue_share=first["blue_share"], converged=all(r["converged"] for r in rounds[k]))
        rows.append(row)
    print(json.dumps({"nodes": NODES, "rate_lambda": RATE, "delay_d": DELAY, "seed": SEED,
                      "duration": args.duration, "repeats": args.repeats, "derived_k": derived,
                      "runs": rows}, indent=1))


if __name__ == "__main__":
    main()
