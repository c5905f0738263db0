"""Fast self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Shows that every output check fails on a wrong answer, that a second seed
runs clean apart from the known ingest backlog, that the tracer restores
what it wraps, and that BENCHMARK.json lists exactly what run.py reports.
Run from the root of a source checkout.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import unittest
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from rpmdag import ehr, ledger, netsim, pipeline  # noqa: E402


class _Workdir(unittest.TestCase):
    def setUp(self):
        run.OUT.mkdir(exist_ok=True)
        self.workdir = tempfile.mkdtemp(prefix="selftest-", dir=run.OUT)

    def tearDown(self):
        shutil.rmtree(self.workdir)


class _FilteredLedger:
    """A ledger view whose confirmed stream lacks the entries drop() selects."""

    def __init__(self, inner, drop):
        self.pool = inner.pool
        self._entries = [e for e in inner.confirmed() if not drop(e)]

    def confirmed(self):
        return self._entries


class _SmallBlocks(pipeline.DualLedger):
    """Dual ledger with a 30-transaction private block cap, so a tiny demo
    overflows it the way the full-size ingest workload overflows 1,000."""

    @classmethod
    def create(cls, k, private_writers, public_writers):
        dual = super().create(k, private_writers, public_writers)
        dual.private.max_block_txs = 30
        return dual


@contextlib.contextmanager
def patched(owner, attr, value):
    original = vars(owner)[attr]
    setattr(owner, attr, value)
    try:
        yield
    finally:
        setattr(owner, attr, original)


class IngestCheck(_Workdir):
    def tiny(self, seed=2):
        return workloads.Ingest(seed, self.workdir, patients=2, readings=20)

    def test_two_seeds_run_clean_at_tiny_size(self):
        for seed in (1, 2):
            with self.subTest(seed=seed):
                cycle = self.tiny(seed).cycle()
                self.assertEqual((cycle.ops, cycle.failed, cycle.known, cycle.errors), (200, 0, 0, []))

    def demo(self):
        log = workloads.LedgerLog()
        with log.installed():
            result = pipeline.run_demo(2, patients=2, readings_per_device=20)
        return result, log

    def test_missing_anchor_is_an_unexplained_failure(self):
        result, log = self.demo()
        victim = next(e.tx for e in result.dual.private.confirmed() if e.tx.kind is ledger.TxKind.EHR_ANCHOR)
        wrong = SimpleNamespace(
            dual=SimpleNamespace(
                private=_FilteredLedger(result.dual.private, lambda e: e.tx is victim),
                public=result.dual.public,
            ),
            readings=result.readings, verdicts=result.verdicts, pipeline=result.pipeline,
        )
        self.assertEqual(workloads.check_ingest(wrong, log), (1, 0, []))

    def test_wrong_verdict_fails(self):
        result, log = self.demo()
        reading, verdict = result.verdicts[0]
        flipped = pipeline.ABNORMAL if verdict.status == pipeline.NORMAL else pipeline.NORMAL
        result.verdicts[0] = (reading, replace(verdict, status=flipped))
        failed, known, errors = workloads.check_ingest(result, log)
        self.assertEqual((failed, known), (1, 0))
        self.assertTrue(errors)  # the confirmed verdict now disagrees too

    def backlogged_cycle(self):
        with patched(pipeline, "DualLedger", _SmallBlocks):
            return self.tiny().cycle()

    def test_pooled_backlog_is_the_known_defect(self):
        cycle = self.backlogged_cycle()
        self.assertGreater(cycle.pool_left, 0)
        self.assertGreater(cycle.failed, 0)
        self.assertEqual(cycle.known, cycle.failed)
        self.assertEqual(cycle.errors, [])
        self.assertTrue(run._summary([cycle])["correct"])

    def assert_unexplained(self, cycle):
        self.assertGreater(cycle.failed, 0)
        self.assertEqual(cycle.known, 0)
        self.assertTrue(cycle.errors)
        self.assertFalse(run._summary([cycle])["correct"])  # the run exits 1

    def test_skipped_final_flush_is_not_the_known_defect(self):
        seal_all = ledger.DualLedger.seal_all
        calls = []

        def skip_last(dual, creator, now):
            calls.append(now)
            if len(calls) <= 10:  # the ten window seals; the final flush is skipped
                return seal_all(dual, creator, now)

        with patched(ledger.DualLedger, "seal_all", skip_last):
            self.assert_unexplained(self.backlogged_cycle())

    def test_short_seal_is_not_the_known_defect(self):
        seal_block = ledger.Ledger.seal_block

        def short_seal(led, creator, now):
            cap = led.max_block_txs
            led.max_block_txs = cap // 2
            try:
                return seal_block(led, creator, now)
            finally:
                led.max_block_txs = cap

        with patched(ledger.Ledger, "seal_block", short_seal):
            self.assert_unexplained(self.backlogged_cycle())

    def test_dropped_pool_is_not_the_known_defect(self):
        seal_block = ledger.Ledger.seal_block

        def dropping_seal(led, creator, now):
            block = seal_block(led, creator, now)
            del led.pool[:1]
            return block

        with patched(ledger.Ledger, "seal_block", dropping_seal):
            self.assert_unexplained(self.backlogged_cycle())


class SimCheck(_Workdir):
    def tiny(self, seed=2):
        return workloads.Sim(seed, self.workdir, duration=10.0)

    def test_two_seeds_run_clean_at_tiny_size(self):
        for seed in (1, 2):
            with self.subTest(seed=seed):
                cycle = self.tiny(seed).cycle()
                self.assertGreater(cycle.ops, 0)
                self.assertEqual((cycle.failed, cycle.errors), (0, []))

    def test_dropped_or_misordered_block_fails(self):
        config = netsim.SimConfig(nodes=4, rate_lambda=20.0, delay_d=1.0, duration=5.0, k=3, seed=3)
        metrics, trace = netsim.run(config)
        self.assertEqual(workloads.check_sim(trace, metrics, True), (0, []))
        final = netsim.BlockDag().add(trace.blocks[trace.genesis])
        created = [ev.block for ev in trace.events if ev.kind == "created"]
        for bid in created:
            final.add(trace.blocks[bid])
        order = final.topological_order()
        n = len(created)
        self.assertEqual(workloads._order_failures(final, order, created, True), 0)
        self.assertEqual(workloads._order_failures(final, order[:-1], created, True), n)
        self.assertEqual(workloads._order_failures(final, order[::-1], created, True), n)
        self.assertEqual(workloads._order_failures(final, order, created, False), n)


class AuditCheck(_Workdir):
    def setUp(self):
        super().setUp()
        self.audit = self.tiny(2)

    def tiny(self, seed):
        audit = workloads.Audit(seed, self.workdir, patients=6, readings=4)
        audit.setup()
        return audit

    def outputs(self):
        loaded = ledger.Ledger.load(os.path.join(self.audit.state, "private.ledger"))
        store = ehr.EhrStore(self.audit.state)
        try:
            results = ehr.audit(store, loaded)
            verified = [ehr.verify(rid, store, loaded) for rid in self.audit.sample]
        finally:
            store.close()
        allowed = {r[0]: r[1] in self.audit.granted for r in self.audit.records}
        return results, verified, allowed, ledger.inspect_jsonl(loaded)

    def test_two_seeds_run_clean_at_tiny_size(self):
        for seed in (1, 2):
            with self.subTest(seed=seed):
                audit = self.tiny(seed)
                cycle = audit.cycle()
                self.assertEqual(cycle.ops, 3 * len(audit.records))  # every record verified
                self.assertEqual((cycle.failed, cycle.errors), (0, []))
                self.assertGreater(len(audit.tampered), 0)
        self.assertEqual(self.audit.check(*self.outputs()), (0, []))

    def test_unflagged_tampered_record_fails(self):
        results, verified, allowed, text = self.outputs()
        victim = next(iter(self.audit.tampered))
        results = [replace(r, status=ehr.INTACT) if r.record_id == victim else r for r in results]
        self.assertEqual(self.audit.check(results, verified, allowed, text), (1, []))

    def test_wrong_verify_fails(self):
        results, verified, allowed, text = self.outputs()
        verified[0] = replace(verified[0], status=ehr.UNANCHORED)
        self.assertEqual(self.audit.check(results, verified, allowed, text), (1, []))

    def test_read_against_the_grants_fails(self):
        results, verified, allowed, text = self.outputs()
        denied = next(rid for rid, ok in allowed.items() if not ok)
        allowed[denied] = True
        self.assertEqual(self.audit.check(results, verified, allowed, text), (1, []))

    def test_short_inspect_is_an_error(self):
        results, verified, allowed, text = self.outputs()
        short = "".join(text.splitlines(keepends=True)[:-1])
        failed, errors = self.audit.check(results, verified, allowed, short)
        self.assertEqual(failed, 0)
        self.assertTrue(errors)


class Tracing(_Workdir):
    def test_counts_and_restores(self):
        before = {(id(o), a): vars(o)[a] for _, places, _ in tracer.LAYERS for o, a in places}
        t = tracer.Tracer()
        cycle = workloads.Ingest(2, self.workdir, patients=2, readings=20).cycle(tracer=t)
        after = {(id(o), a): vars(o)[a] for _, places, _ in tracer.LAYERS for o, a in places}
        self.assertEqual(before, after)
        m = t.metrics()
        self.assertEqual(m["ehr.anchor.calls"], cycle.ops)
        self.assertEqual(m["pipeline.process_batch.calls"], len(cycle.requests))
        self.assertEqual(m["pipeline.run_demo.calls"], 1)
        # self times add up to the time of the outermost spans
        roots = sum(t.end[i] - t.start[i] for i in range(len(t.start)) if t.parent[i] < 0)
        total = sum(m[f"{layer}.self_s"] for layer, _, _ in tracer.LAYERS)
        self.assertAlmostEqual(total, roots, delta=1e-6)
        self.assertEqual({name for name, _, _ in tracer.metric_specs()} - set(m),
                         {name for name, _, _ in tracer.RUN_METRICS})


class Clock(unittest.TestCase):
    def test_scales_by_probe_time_and_skips_probes(self):
        # each probe takes 4 ms and reports it: the host runs at REF / 4 ms
        def slow_probe():
            time.sleep(0.004)
            return 0.004

        previous = signal.getsignal(signal.SIGALRM)
        with patched(speed, "probe", slow_probe), speed.SpeedClock(interval=0.01) as clock:
            wall, start = time.perf_counter(), clock()
            probing = clock.probing_s
            while time.perf_counter() - wall < 0.3:
                pass
            read, wall = clock() - start, time.perf_counter() - wall
            probing = clock.probing_s - probing
        self.assertGreater(len(clock.probes), 10)
        self.assertGreater(probing, 0.04)
        self.assertAlmostEqual(read, (wall - probing) * speed.PROBE_REFERENCE_S / 0.004, delta=1e-3)
        self.assertEqual(signal.getsignal(signal.SIGALRM), previous)


class Contract(_Workdir):
    def test_benchmark_json_lists_what_run_reports(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]], list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
                         tracer.metric_specs())

    def test_crashed_workload_fails_the_combined_run(self):
        args = run._parse(["--seconds", "1"])
        ok = json.dumps({"correct": True, "attempted": 1, "failed": 0, "metrics": {}})
        for code, stdout, expected in ((-9, "", 1), (1, "Traceback\n", 1), (2, "", 2), (0, ok + "\n", 0)):
            with self.subTest(code=code), \
                    patched(run.subprocess, "run", lambda *a, **k: subprocess.CompletedProcess(a, code, stdout, "")), \
                    contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                self.assertEqual(run._run_all(args), expected)

    def test_fails_without_sources(self):
        bare = Path(self.workdir) / "bare"
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "sim", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
