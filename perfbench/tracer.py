"""Span tracer that wraps rpmdag's public functions from outside the package.

Each wrapped call records one span: the layer it belongs to, start, end,
the span that was open when it began (its parent) and the request it
serves (one pipeline batch or one EHR verify call; 0 outside a request).
Spans are kept in memory in flat arrays and written out when the run ends.
A layer's self time is the time of its spans minus the time of their child
spans, so time spent in a wrapped callee is charged to the callee.

Functions that other modules import by name (digest, canonical_json,
ghostdag_run, anchor) are wrapped in every module that imports them, so
each call site is seen.
"""

from __future__ import annotations

import functools
import time
from array import array
from contextlib import contextmanager

from rpmdag import acl, dag, ehr, ghostdag, hashing, ledger, netsim, pipeline

perf = time.perf_counter

# (layer name, places to wrap, whether a call starts a new request)
LAYERS = (
    ("hashing.digest", [(m, "digest") for m in (hashing, dag, ledger, ehr, acl, pipeline, netsim)], False),
    ("hashing.canonical_json", [(m, "canonical_json") for m in (hashing, ledger, pipeline)], False),
    ("dag.block_create", [(dag.Block, "create")], False),
    ("dag.add", [(dag.BlockDag, "add")], False),
    ("dag.topological_order", [(dag.BlockDag, "topological_order")], False),
    ("ghostdag.run", [(m, "ghostdag_run") for m in (ghostdag, ledger, netsim)], False),
    ("ledger.submit", [(ledger.Ledger, "submit")], False),
    ("ledger.seal", [(ledger.Ledger, "seal_block")], False),
    ("ledger.confirmed", [(ledger.Ledger, "confirmed")], False),
    ("ledger.save_text", [(ledger.Ledger, "save_text")], False),
    ("ledger.load_text", [(ledger.Ledger, "load_text")], False),
    ("ledger.inspect_jsonl", [(ledger, "inspect_jsonl")], False),
    ("ehr.open", [(ehr.EhrStore, "__init__")], False),
    ("ehr.store", [(ehr.EhrStore, "store")], False),
    ("ehr.read", [(ehr.EhrStore, "read")], False),
    ("ehr.anchor", [(ehr, "anchor"), (pipeline, "anchor")], False),
    ("ehr.verify", [(ehr, "verify")], True),
    ("ehr.audit", [(ehr, "audit")], False),
    ("ehr.read_gated", [(ehr, "read_gated")], False),
    ("acl.check_access", [(acl.AccessController, "check_access")], False),
    ("acl.rebuild_grants", [(acl, "rebuild_grants")], False),
    ("pipeline.run_demo", [(pipeline, "run_demo")], False),
    ("pipeline.simulate_device", [(pipeline, "simulate_device")], False),
    ("pipeline.aggregate", [(pipeline, "aggregate")], False),
    ("pipeline.evaluate", [(pipeline, "evaluate")], False),
    ("pipeline.ingest", [(pipeline.RpmPipeline, "ingest")], False),
    ("pipeline.process_batch", [(pipeline.RpmPipeline, "process_batch")], True),
    ("pipeline.dispatch_alert", [(pipeline.RpmPipeline, "dispatch_alert")], False),
    ("netsim.run", [(netsim, "run")], False),
    ("netsim.check_convergence", [(netsim, "check_convergence")], False),
)

# Work counted from a layer's return value: layer -> count of one result.
COUNTERS = {
    "ledger.confirmed": len,  # entries built
    "ledger.seal": lambda block: len(block.payload),  # txs sealed
    "ghostdag.run": lambda ordered: len(ordered.order),  # blocks ordered
    "acl.check_access": lambda allowed: 0 if allowed else 1,  # denials
}

# Per-call latency percentiles are reported for these layers.
LATENCY_LAYERS = ("ehr.anchor",)

# Workload-level figures the runner adds to the traced metrics.
RUN_METRICS = (
    ("ledger.pool_left", "count", "lower"),
    ("trace.untraced_s", "s", "lower"),
    ("trace.traced_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def metric_specs() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in output order."""
    specs = []
    for layer, _, _ in LAYERS:
        specs += [
            (f"{layer}.calls", "count", "lower"),
            (f"{layer}.self_s", "s", "lower"),
            (f"{layer}.failures", "count", "lower"),
        ]
    for layer in LATENCY_LAYERS:
        specs += [(f"{layer}.p50_us", "us", "lower"), (f"{layer}.p99_us", "us", "lower")]
    specs += [
        ("ledger.seal.txs_per_block", "count", "higher"),
        ("ledger.confirmed.entries", "count", "lower"),
        ("ghostdag.run.blocks", "count", "lower"),
        ("acl.check_access.denied", "count", "lower"),
    ]
    return specs + list(RUN_METRICS)


class Tracer:
    """Records spans while installed; computes per-layer metrics afterwards."""

    def __init__(self):
        self.layer = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request = array("i")
        self.failures = [0] * len(LAYERS)
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack: list[int] = []
        self._current_request = 0
        self._requests = 0

    @contextmanager
    def installed(self):
        """Wrap every layer's functions for the duration of the block."""
        saved = []
        try:
            for idx, (_, places, starts_request) in enumerate(LAYERS):
                for owner, attr in places:
                    original = vars(owner)[attr]
                    saved.append((owner, attr, original))
                    setattr(owner, attr, self._wrap(original, idx, starts_request))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def _wrap(self, original, idx: int, starts_request: bool):
        if isinstance(original, classmethod):
            return classmethod(self._wrap(original.__func__, idx, starts_request))
        layer = LAYERS[idx][0]
        count = COUNTERS.get(layer)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = len(self.start)
            self.layer.append(idx)
            self.parent.append(self._stack[-1] if self._stack else -1)
            outer_request = self._current_request
            if starts_request:
                self._requests += 1
                self._current_request = self._requests
            self.request.append(self._current_request)
            self.end.append(0.0)
            self._stack.append(span)
            self.start.append(perf())
            try:
                result = original(*args, **kwargs)
            except BaseException:
                self.failures[idx] += 1
                raise
            finally:
                self.end[span] = perf()
                self._stack.pop()
                self._current_request = outer_request
            if count is not None:
                self.counters[layer] += count(result)
            return result

        return traced

    def metrics(self) -> dict[str, float]:
        """Per-layer calls, self time and failures, plus counters."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = [0] * len(LAYERS)
        self_s = [0.0] * len(LAYERS)
        durations: dict[int, list[float]] = {
            i: [] for i, (name, _, _) in enumerate(LAYERS) if name in LATENCY_LAYERS
        }
        for i in range(n):
            idx = self.layer[i]
            total = self.end[i] - self.start[i]
            calls[idx] += 1
            self_s[idx] += total - child[i]
            if idx in durations:
                durations[idx].append(total)
        out: dict[str, float] = {}
        for idx, (layer, _, _) in enumerate(LAYERS):
            out[f"{layer}.calls"] = calls[idx]
            out[f"{layer}.self_s"] = self_s[idx]
            out[f"{layer}.failures"] = self.failures[idx]
        for idx, values in durations.items():
            layer = LAYERS[idx][0]
            out[f"{layer}.p50_us"] = percentile(values, 50) * 1e6
            out[f"{layer}.p99_us"] = percentile(values, 99) * 1e6
        by_name = {name: i for i, (name, _, _) in enumerate(LAYERS)}
        seals = calls[by_name["ledger.seal"]]
        confirms = calls[by_name["ledger.confirmed"]]
        out["ledger.seal.txs_per_block"] = self.counters["ledger.seal"] / seals if seals else 0
        out["ledger.confirmed.entries"] = (
            self.counters["ledger.confirmed"] / confirms if confirms else 0
        )
        out["ghostdag.run.blocks"] = self.counters["ghostdag.run"]
        out["acl.check_access.denied"] = self.counters["acl.check_access"]
        return out

    def write_spans(self, path) -> int:
        """Write every span as one tab-separated line; returns the count."""
        names = [name for name, _, _ in LAYERS]
        with open(path, "w") as fh:
            fh.write("span\tlayer\tstart_us\tend_us\tparent\trequest\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{names[self.layer[i]]}\t{self.start[i] * 1e6:.3f}\t"
                    f"{self.end[i] * 1e6:.3f}\t{self.parent[i]}\t{self.request[i]}\n"
                )
        return len(self.start)


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)
