"""The benchmark's workloads: set-up, one timed cycle, and output checks.

Every workload is a closed loop with one client in one thread: a cycle
issues the next call only after the previous one returned. A cycle calls
the same library functions that the matching CLI command calls, times its
phases and requests, then checks the outputs outside the timed region.
Every cycle of a run repeats the same inputs, drawn from the run's seed.
The runner repeats cycles and turns them into metrics.

- ingest: `rpm demo --state-dir` in-process (write path).
- sim: `sim run` in blockdag mode plus `check_convergence` (consensus).
- audit: `ehr audit`, `ehr verify`, gated reads and `ledger inspect` over
  state saved in set-up (read path).
"""

from __future__ import annotations

import json
import os
import random
import shutil
import tempfile
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

from rpmdag import acl, dag, ehr, ghostdag, ledger, netsim, pipeline
from rpmdag.errors import AccessDenied, NotAPermutation
from rpmdag.ledger import TxKind

# times every phase and request; run.py puts a speed.SpeedClock here for timed runs
perf = time.perf_counter

# run_demo's default duration is cut into 10 windows; both ledgers are
# sealed once per window and once more by the final flush.
DEMO_SEALS = 10 + 1
VERIFY_CALLS = 200  # audit: ehr.verify calls per cycle
TAMPER_SHARE = 0.01  # audit: share of records with a flipped content byte


@dataclass
class Cycle:
    """What one timed cycle did and what checking its outputs found."""

    phases: dict[str, tuple[float, int]]  # phase -> (wall seconds, items)
    requests: list[float]  # wall seconds per request
    ops: int  # operations attempted
    failed: int  # operations whose check failed
    known: int = 0  # failed operations explained by the known backlog defect
    errors: list[str] = field(default_factory=list)  # failed checks outside any operation
    pool_left: int = 0  # transactions still pooled on the ledgers afterwards

    @property
    def timed_s(self) -> float:
        return sum(seconds for seconds, _ in self.phases.values())


@contextmanager
def timed_calls(owner, attr: str, sink: list):
    """Append the wall time of every call to owner.attr to sink."""
    inner = getattr(owner, attr)

    def timed(*args, **kwargs):
        start = perf()
        try:
            return inner(*args, **kwargs)
        finally:
            sink.append(perf() - start)

    setattr(owner, attr, timed)
    try:
        yield
    finally:
        setattr(owner, attr, inner)


def _traced(tracer):
    return tracer.installed() if tracer is not None else nullcontext()


class LedgerLog:
    """Per ledger visibility: transactions accepted by submit, and for every
    seal the pool length before it, the transactions it took and the cap."""

    def __init__(self):
        self.submitted = dict.fromkeys((ledger.PRIVATE, ledger.PUBLIC), 0)
        self.seals = {ledger.PRIVATE: [], ledger.PUBLIC: []}

    @contextmanager
    def installed(self):
        submit, seal = vars(ledger.Ledger)["submit"], vars(ledger.Ledger)["seal_block"]

        def counted_submit(led, *args, **kwargs):
            receipt = submit(led, *args, **kwargs)
            self.submitted[led.visibility] += 1
            return receipt

        def logged_seal(led, *args, **kwargs):
            before = len(led.pool)
            block = seal(led, *args, **kwargs)
            self.seals[led.visibility].append((before, len(block.payload), led.max_block_txs))
            return block

        ledger.Ledger.submit, ledger.Ledger.seal_block = counted_submit, logged_seal
        try:
            yield self
        finally:
            ledger.Ledger.submit, ledger.Ledger.seal_block = submit, seal


class Ingest:
    """run_demo into a fresh state directory, then save both ledgers."""

    name = "ingest"
    request = "batch"  # one RpmPipeline.process_batch call
    setup_repeats = 9

    def __init__(self, seed: int, workdir: str, patients: int = 12, readings: int = 100):
        self.seed = seed
        self.workdir = workdir
        self.patients = patients
        self.readings = readings

    def setup(self):
        """Warm-up: a small demo saved to disk, so imports and caches are hot."""
        state = tempfile.mkdtemp(dir=self.workdir)
        try:
            _demo_to_disk(self.seed, 2, self.readings, state)
        finally:
            shutil.rmtree(state)

    def cycle(self, tracer=None) -> Cycle:
        state = tempfile.mkdtemp(dir=self.workdir)
        batch_s: list[float] = []
        log = LedgerLog()
        try:
            with _traced(tracer), log.installed(), \
                    timed_calls(pipeline.RpmPipeline, "process_batch", batch_s):
                start = perf()
                result = _demo_to_disk(self.seed, self.patients, self.readings, state)
                elapsed = perf() - start
        finally:
            shutil.rmtree(state)
        failed, known, errors = check_ingest(result, log)
        return Cycle(
            phases={"readings": (elapsed, len(result.readings))},
            requests=batch_s,
            ops=len(result.readings),
            failed=failed,
            known=known,
            errors=errors,
            pool_left=len(result.dual.private.pool) + len(result.dual.public.pool),
        )


def _demo_to_disk(seed: int, patients: int, readings: int, state: str):
    """What `rpm demo --state-dir` does, without the CLI layer."""
    result = pipeline.run_demo(seed, patients=patients, readings_per_device=readings, state_dir=state)
    result.dual.private.save(os.path.join(state, "private.ledger"))
    result.dual.public.save(os.path.join(state, "public.ledger"))
    result.store.close()
    return result


def check_ingest(result, log: LedgerLog) -> tuple[int, int, list[str]]:
    """Recompute confirmation per reading.

    A reading fails when its verdict disagrees with the demo profile's
    bounds, when its EHR anchor or rule-evaluation transaction is missing
    from the private confirmed stream, or when its alert (abnormal only)
    is missing from the public one. A failure is explained by the known
    backlog defect only when the verdict is right, every missing
    transaction still sits in a ledger's pool, and the sealing followed
    the defect's mechanism: each ledger sealed once per window plus one
    final flush, each seal took min(pool, max_block_txs) transactions,
    and the pool holds exactly what was submitted and not sealed. Any
    other way of leaving transactions pooled is an error. Returns
    (failed, explained failures, errors).
    """
    private, public = result.dual.private, result.dual.public
    errors = _sealing_errors(log, {ledger.PRIVATE: private, ledger.PUBLIC: public})
    anchors, evaluations, alerts = set(), {}, set()
    for entry in private.confirmed():
        if entry.tx.kind is TxKind.EHR_ANCHOR:
            anchors.add(entry.tx.body["record_id"])
        elif entry.tx.kind is TxKind.RULE_EVALUATION:
            evaluations[entry.tx.body["ehr_record_hash"]] = entry.tx.body["verdict"]
    for entry in public.confirmed():
        if entry.tx.kind is TxKind.ALERT_EVENT:
            alerts.add(entry.tx.body["ehr_record_hash"])
    pooled = {(tx.kind, tx.body.get("record_id") or tx.body.get("ehr_record_hash"))
              for tx in private.pool + public.pool}

    if len(result.verdicts) != len(result.readings):
        errors.append(f"{len(result.verdicts)} verdicts for {len(result.readings)} readings")
    failed = known = 0
    for reading, verdict in result.verdicts:
        profile = pipeline.DEMO_PROFILES[reading.vital]
        abnormal = reading.value < profile.low or reading.value > profile.high
        expected = pipeline.ABNORMAL if abnormal else pipeline.NORMAL
        record = result.pipeline.record_for(reading)
        missing = []
        if record.record_id not in anchors:
            missing.append((TxKind.EHR_ANCHOR, record.record_id))
        if evaluations.get(record.content_hash, verdict.status) != verdict.status:
            errors.append(f"confirmed verdict for {record.record_id[:12]} differs from the pipeline's")
        if record.content_hash not in evaluations:
            missing.append((TxKind.RULE_EVALUATION, record.content_hash))
        if abnormal and record.content_hash not in alerts:
            missing.append((TxKind.ALERT_EVENT, record.content_hash))
        if verdict.status != expected or missing:
            failed += 1
            if verdict.status == expected and all(key in pooled for key in missing):
                known += 1
    return failed, 0 if errors else known, errors


def _sealing_errors(log: LedgerLog, ledgers: dict) -> list[str]:
    errors = []
    for visibility, led in ledgers.items():
        seals = log.seals[visibility]
        if len(seals) != DEMO_SEALS:
            errors.append(f"{visibility} ledger sealed {len(seals)} times, not {DEMO_SEALS}")
        short = [i for i, (before, took, cap) in enumerate(seals) if took != min(before, cap)]
        if short:
            errors.append(f"{visibility} seals {short} took fewer txs than the pool and cap allow")
        unsealed = log.submitted[visibility] - sum(took for _, took, _ in seals)
        if len(led.pool) != unsealed:
            errors.append(f"{visibility} pool holds {len(led.pool)} txs, {unsealed} were left unsealed")
    return errors


class Sim:
    """netsim.run in blockdag mode, then check_convergence on its trace."""

    name = "sim"
    request = "order"  # one GHOSTDAG ordering of a node's view
    setup_repeats = 9

    def __init__(self, seed: int, workdir: str, duration: float = 500.0):
        self.seed = seed
        self.workdir = workdir
        self.config = dict(nodes=4, rate_lambda=20.0, delay_d=1.0, duration=duration, k=3, txs_per_block=10)

    def setup(self):
        """Warm-up: a short simulation and its convergence check."""
        config = netsim.SimConfig(seed=self.seed, **{**self.config, "duration": 50.0})
        _, trace = netsim.run(config)
        netsim.check_convergence(trace, config.k)

    def cycle(self, tracer=None) -> Cycle:
        config = netsim.SimConfig(seed=self.seed, **self.config)
        order_s: list[float] = []
        with _traced(tracer), timed_calls(netsim, "ghostdag_run", order_s):
            start = perf()
            metrics, trace = netsim.run(config)
            ran = perf()
            converged = netsim.check_convergence(trace, config.k)
            checked = perf()
        failed, errors = check_sim(trace, metrics, converged)
        return Cycle(
            phases={"blocks": (ran - start, metrics.blocks_created),
                    "converge_blocks": (checked - ran, metrics.blocks_created)},
            requests=order_s,
            ops=metrics.blocks_created,
            failed=failed,
            errors=errors,
        )


def check_sim(trace, metrics, converged: bool) -> tuple[int, list[str]]:
    """Every created block must appear in a GHOSTDAG order that is a linear
    extension of the final DAG, and all nodes must converge. Returns
    (failed blocks, errors)."""
    created = [ev.block for ev in trace.events if ev.kind == "created"]
    errors = []
    if len(created) != metrics.blocks_created:
        errors.append(f"{len(created)} created events for {metrics.blocks_created} blocks")
    final = dag.BlockDag().add(trace.blocks[trace.genesis])
    for bid in created:
        final.add(trace.blocks[bid])
    order = ghostdag.ghostdag_run(final, ghostdag.GhostdagParams(trace.config.k)).order
    return _order_failures(final, order, created, converged and metrics.converged), errors


def _order_failures(final, order, created, converged: bool) -> int:
    if not converged:
        return len(created)
    try:
        linear = final.is_linear_extension(order)
    except NotAPermutation:
        linear = False
    if not linear:
        return len(created)
    ordered = set(order)
    return sum(1 for bid in created if bid not in ordered)


class Audit:
    """Read path over a demo state saved, granted and tampered in set-up."""

    name = "audit"
    request = "verify"  # one ehr.verify call
    setup_repeats = 3

    def __init__(self, seed: int, workdir: str, patients: int = 100, readings: int = 8):
        self.seed = seed
        self.workdir = workdir
        self.patients = patients
        self.readings = readings
        self.state: str | None = None

    def setup(self):
        """Demo state on disk, ehr_read granted to a seeded half of the
        patients, content bytes flipped in a seeded share of records."""
        if self.state is not None:
            shutil.rmtree(self.state)
        self.state = tempfile.mkdtemp(dir=self.workdir)
        rng = random.Random(self.seed)
        result = pipeline.run_demo(
            self.seed, patients=self.patients, readings_per_device=self.readings, state_dir=self.state
        )
        controller, private = result.controller, result.dual.private
        self.provider = result.subscriber.entity
        self.patient_ids = list(result.patients)
        self.granted = set(rng.sample(self.patient_ids, len(self.patient_ids) // 2))
        for pid in sorted(self.granted):
            controller.register(pid, acl.Role.PATIENT, "bench")
            session = controller.authenticate(pid, "bench")
            controller.grant(session, self.provider, acl.Scope.EHR_READ)
        last = max(block.timestamp for block in private.dag.blocks.values())
        private.seal_block(controller.author, last + 1.0)
        if private.pool or result.dual.public.pool:
            raise RuntimeError("audit set-up left transactions pooled")
        private.save(os.path.join(self.state, "private.ledger"))
        result.dual.public.save(os.path.join(self.state, "public.ledger"))
        result.store.close()
        self.confirmed_count = len({tx.id for b in private.dag.blocks.values() for tx in b.payload})
        self.records = _log_records(os.path.join(self.state, ehr.LOG_NAME))
        chosen = rng.sample(range(len(self.records)), max(1, round(len(self.records) * TAMPER_SHARE)))
        self.tampered = set()
        with open(os.path.join(self.state, ehr.LOG_NAME), "r+b") as fh:
            for j in chosen:
                record_id, _, offset, length = self.records[j]
                pos = offset + rng.randrange(length)
                fh.seek(pos)
                byte = fh.read(1)[0]
                fh.seek(pos)
                fh.write(bytes([byte ^ 0x01]))
                self.tampered.add(record_id)
        # the records each cycle verifies, one call each
        self.sample = rng.sample([r[0] for r in self.records], min(VERIFY_CALLS, len(self.records)))

    def cycle(self, tracer=None) -> Cycle:
        verify_s: list[float] = []
        with _traced(tracer):
            start = perf()
            loaded = ledger.Ledger.load(os.path.join(self.state, "private.ledger"))
            store = ehr.EhrStore(self.state)
            try:
                results = ehr.audit(store, loaded)
                audited = perf()
                verified = []
                for record_id in self.sample:
                    t = perf()
                    verified.append(ehr.verify(record_id, store, loaded))
                    verify_s.append(perf() - t)
                verify_end = perf()
                controller, session = self._provider_session(loaded)
                gated_start = perf()
                allowed = {}
                for record_id in store.record_ids():
                    try:
                        ehr.read_gated(store, record_id, controller, session)
                        allowed[record_id] = True
                    except AccessDenied:
                        allowed[record_id] = False
                gated_end = perf()
                text = ledger.inspect_jsonl(loaded)
                inspected = perf()
            finally:
                store.close()
        failed, errors = self.check(results, verified, allowed, text)
        lines = text.count("\n")
        return Cycle(
            phases={
                "audit_records": (audited - start, len(results)),
                "verify": (verify_end - audited, len(verified)),
                "gated_reads": (gated_end - gated_start, len(allowed)),
                "inspect_entries": (inspected - gated_end, lines),
            },
            requests=verify_s,
            ops=2 * len(self.records) + len(self.sample),
            failed=failed,
            errors=errors,
            pool_left=len(loaded.pool),
        )

    def _provider_session(self, loaded):
        """The `acl check` path: register the roster, fold grants from the ledger."""
        controller = acl.AccessController(clock=acl.ManualClock(0.0))
        controller.register(self.provider, acl.Role.HEALTHCARE_PROVIDER, "bench")
        for pid in self.patient_ids:
            controller.register(pid, acl.Role.PATIENT, "bench")
        controller.load_grants(acl.rebuild_grants(loaded))
        return controller, controller.authenticate(self.provider, "bench")

    def check(self, results, verified, allowed, text) -> tuple[int, list[str]]:
        """Audit and verify must flag exactly the tampered records; a read
        must succeed exactly when its patient granted ehr_read."""
        errors = []
        patient_of = {r[0]: r[1] for r in self.records}

        def expected(record_id):
            return ehr.TAMPERED if record_id in self.tampered else ehr.INTACT

        status = {r.record_id: r.status for r in results}
        failed = sum(1 for record_id in patient_of if status.get(record_id) != expected(record_id))
        if set(status) - set(patient_of):
            errors.append("audit reported records the store does not hold")
        failed += sum(1 for v in verified if v.status != expected(v.record_id))
        failed += sum(1 for record_id in patient_of
                      if allowed.get(record_id) != (patient_of[record_id] in self.granted))
        lines = text.splitlines()
        if len(lines) != self.confirmed_count:
            errors.append(f"inspect listed {len(lines)} entries, {self.confirmed_count} are sealed")
        elif any(json.loads(line)["position"] != i for i, line in enumerate(lines)):
            errors.append("inspect positions are not 0..n-1")
        return failed, errors


def _log_records(path: str) -> list[tuple[str, str, int, int]]:
    """(record_id, patient, content offset, content length) per log record."""
    records = []
    with open(path, "rb") as fh:
        while True:
            header_line = fh.readline()
            if not header_line:
                break
            header = json.loads(header_line)
            offset = fh.tell()
            records.append((header["record_id"], header["patient"], offset, header["content_len"]))
            fh.seek(header["content_len"] + 1, os.SEEK_CUR)
    return records


WORKLOADS = {w.name: w for w in (Ingest, Sim, Audit)}
