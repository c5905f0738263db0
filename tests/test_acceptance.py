"""Acceptance gate: one test per shipped guarantee, one line per verdict.

Run with `pytest tests/test_acceptance.py -v` for the per-criterion
pass/fail listing. Budgets are wall-clock and asserted where a guarantee
carries one.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field

import pytest

from rpmdag.acl import AccessController, ManualClock, Role, Scope, rebuild_grants
from rpmdag.dag import BlockDag
from rpmdag.ehr import INTACT, TAMPERED, EhrStore, anchor, audit, verify
from rpmdag.fixtures import REFERENCE_K3_BLUE, reference_k3
from rpmdag.ghostdag import (
    GhostdagParams,
    ghostdag_run,
    is_k_cluster,
    k_for_network,
    max_k_cluster,
)
from rpmdag.ledger import PRIVATE, Ledger, TxKind
from rpmdag.netsim import (
    MODE_BLOCKDAG,
    MODE_LONGEST_CHAIN,
    SimConfig,
    check_convergence,
    compare_modes,
    run,
)
from rpmdag.pipeline import ABNORMAL, run_demo

from helpers import make_chain, random_dag, run_cli

SEED = 20240811


def report(n: int, message: str):
    print(f"criterion {n:02d} PASS: {message}")


# Shared corpora and runs (module-scoped so each is paid for once)


@dataclass
class ColoredDag:
    dag: BlockDag
    k: int
    blue: frozenset
    order: list


@dataclass
class Corpus:
    cases: list[ColoredDag] = field(default_factory=list)
    elapsed: float = 0.0


@pytest.fixture(scope="module")
def greedy_corpus() -> Corpus:
    corpus = Corpus()
    start = time.perf_counter()
    for i in range(500):
        rng = random.Random(SEED + i)
        dag, _ = random_dag(rng, rng.randint(1, 20))
        k = i % 5
        result = ghostdag_run(dag, GhostdagParams(k))
        corpus.cases.append(ColoredDag(dag, k, result.coloring.blue, result.order))
    corpus.elapsed = time.perf_counter() - start
    return corpus


@pytest.fixture(scope="module")
def oracle_corpus() -> Corpus:
    corpus = Corpus()
    start = time.perf_counter()
    for i in range(100):
        rng = random.Random(SEED + 10_000 + i)
        dag, _ = random_dag(rng, rng.randint(1, 12))
        k = i % 5
        result = ghostdag_run(dag, GhostdagParams(k))
        corpus.cases.append(ColoredDag(dag, k, result.coloring.blue, result.order))
    corpus.elapsed = time.perf_counter() - start
    return corpus


@dataclass
class SimRun:
    config: SimConfig
    metrics: object
    trace: object
    node_dags: list[BlockDag]
    node_orders: list[list]


@pytest.fixture(scope="module")
def convergence_run() -> SimRun:
    config = SimConfig(
        nodes=3,
        rate_lambda=2.0,
        delay_d=1.0,
        duration=500.0,
        k=k_for_network(1.0, 2.0, 0.01),
        txs_per_block=10,
        seed=11,
        mode=MODE_BLOCKDAG,
    )
    metrics, trace = run(config)
    node_dags = []
    node_orders = []
    for idx in range(config.nodes):
        dag = BlockDag().add(trace.blocks[trace.genesis])
        for ev in trace.events:
            if ev.node == idx:
                dag.add(trace.blocks[ev.block])
        node_dags.append(dag)
        node_orders.append(ghostdag_run(dag, GhostdagParams(config.k)).order)
    return SimRun(config, metrics, trace, node_dags, node_orders)


@dataclass
class SweepResult:
    rows: list
    elapsed: float


@pytest.fixture(scope="module")
def sweep_result() -> SweepResult:
    config = SimConfig(
        nodes=4,
        rate_lambda=0.2,
        delay_d=1.0,
        duration=2000.0,
        k=3,
        txs_per_block=10,
        seed=SEED,
        mode=MODE_BLOCKDAG,
    )
    start = time.perf_counter()
    rows = compare_modes(config, [0.2, 1.0, 5.0])
    return SweepResult(rows, time.perf_counter() - start)


@dataclass
class DemoRun:
    result: object
    elapsed: float


@pytest.fixture(scope="module")
def demo_run() -> DemoRun:
    start = time.perf_counter()
    result = run_demo(
        seed=SEED,
        patients=5,
        readings_per_device=40,
        duration=100.0,
        anomaly_probability=0.1,
    )
    return DemoRun(result, time.perf_counter() - start)


# Criteria


def test_criterion_01_reference_dag_exact_maximum():
    start = time.perf_counter()
    dag, names = reference_k3()
    cluster = max_k_cluster(dag, 3)
    tokens = {bid: tok for tok, bid in names.items()}
    assert {tokens[b] for b in cluster} == set(REFERENCE_K3_BLUE)
    for excluded in "EHK":
        anticone = dag.anticone(names[excluded])
        assert len(anticone & cluster) > 3
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, f"exact 3-cluster is ABCDFGIJ; E,H,K each exceed the bound ({elapsed:.2f}s)")


def test_criterion_02_greedy_blue_sets_are_k_clusters(greedy_corpus):
    start = time.perf_counter()
    for case in greedy_corpus.cases:
        assert is_k_cluster(case.dag, case.blue, case.k)
    elapsed = greedy_corpus.elapsed + (time.perf_counter() - start)
    assert elapsed < 10.0
    report(2, f"500/500 greedy blue sets pass the anticone bound ({elapsed:.2f}s)")


def test_criterion_03_oracle_dominates_greedy(oracle_corpus):
    start = time.perf_counter()
    for case in oracle_corpus.cases:
        assert len(case.blue) <= len(max_k_cluster(case.dag, case.k))
    for n in range(1, 13):
        dag, _ = make_chain(n)
        for k in range(5):
            coloring = ghostdag_run(dag, GhostdagParams(k)).coloring
            assert len(coloring.blue) == len(max_k_cluster(dag, k)) == n
    elapsed = oracle_corpus.elapsed + (time.perf_counter() - start)
    assert elapsed < 30.0
    report(3, f"100/100 greedy <= exact maximum; equality on chains ({elapsed:.2f}s)")


def test_criterion_04_orders_are_linear_extensions(
    greedy_corpus, oracle_corpus, convergence_run
):
    checked = 0
    for corpus in (greedy_corpus, oracle_corpus):
        for case in corpus.cases:
            assert case.dag.is_linear_extension(case.order)
            checked += 1
    for dag, order in zip(convergence_run.node_dags, convergence_run.node_orders):
        assert dag.is_linear_extension(order)
        checked += 1
    report(4, f"{checked} orders are linear extensions covering every block once")


def test_criterion_05_throughput_mechanism(sweep_result):
    rows = sweep_result.rows
    blockdag = [m.included_ratio for c, m in rows if c.mode == MODE_BLOCKDAG]
    longest = [m.included_ratio for c, m in rows if c.mode == MODE_LONGEST_CHAIN]
    assert blockdag == [1.0, 1.0, 1.0]
    assert longest[0] > longest[1] > longest[2]
    assert longest[2] < 0.5
    assert sweep_result.elapsed < 60.0
    report(
        5,
        "blockdag keeps ratio 1.0 at every rate; single-chain decays "
        f"{longest[0]:.3f} > {longest[1]:.3f} > {longest[2]:.3f} "
        f"({sweep_result.elapsed:.1f}s)",
    )


def test_criterion_06_nodes_converge(convergence_run):
    views = [frozenset(dag.blocks) for dag in convergence_run.node_dags]
    assert views[0] == views[1] == views[2]
    orders = convergence_run.node_orders
    assert orders[0] == orders[1] == orders[2]
    assert check_convergence(convergence_run.trace, convergence_run.config.k)
    report(6, f"3 nodes agree on {len(views[0])} blocks and one total order")


def test_criterion_07_reruns_are_byte_identical(tmp_path):
    dag_file = tmp_path / "reference.dag"
    from rpmdag.fixtures import reference_k3_text

    dag_file.write_text(reference_k3_text())
    commands = [
        ("color", "--dag", str(dag_file), "--k", "3"),
        ("oracle", "--dag", str(dag_file), "--k", "3"),
        ("sim", "run", "--nodes", "3", "--lambda", "2", "--delay", "1",
         "--duration", "60", "--seed", "11"),
        ("sim", "sweep", "--lambdas", "0.5,2", "--nodes", "3",
         "--duration", "60", "--seed", "7"),
        ("rpm", "demo", "--seed", "5", "--patients", "2",
         "--readings-per-device", "10", "--duration", "50"),
    ]
    for argv in commands:
        first = run_cli(*argv)
        second = run_cli(*argv)
        assert first[0] == second[0] == 0
        assert first[1] == second[1]
    # persisted state reruns byte-identical too
    states = []
    for name in ("a", "b"):
        state = tmp_path / name
        code, _, _ = run_cli(
            "rpm", "demo", "--seed", "5", "--patients", "2",
            "--readings-per-device", "10", "--duration", "50",
            "--state-dir", str(state),
        )
        assert code == 0
        states.append(state)
    for filename in ("private.ledger", "public.ledger", "ehr.log"):
        assert (states[0] / filename).read_bytes() == (states[1] / filename).read_bytes()
    report(7, f"{len(commands)} commands and all persisted state rerun byte-identical")


def test_criterion_08_end_to_end_monitoring(demo_run):
    result = demo_run.result
    counts = result.counts()
    assert counts["readings"] == 1000
    abnormal = [v for _, v in result.verdicts if v.status == ABNORMAL]

    public = result.dual.public
    confirmed = list(public.confirmed())
    # every public transaction is an alert, exactly one per abnormal verdict
    assert all(e.tx.kind is TxKind.ALERT_EVENT for e in confirmed)
    assert len(confirmed) == len(abnormal) == len(result.alerts)
    assert len({e.event_id for e in result.alerts}) == len(result.alerts)

    # confirmation lands within two sealed public blocks of submission
    by_hash = {e.tx.body["ehr_record_hash"]: e for e in confirmed}
    for event in result.alerts:
        entry = by_hash[event.ehr_record_hash]
        seal_number = len(public.dag.past(entry.block)) + 1
        submitted = result.alert_windows[event.event_id]
        assert submitted + 1 <= seal_number <= submitted + 2

    # no injected vital value survives into the serialized public ledger,
    # either raw or inside the decoded transaction payloads
    from rpmdag.ledger import inspect_jsonl

    text = public.save_text() + inspect_jsonl(public)
    for reading in result.readings:
        assert repr(reading.value) not in text
        assert str(reading.value) not in text

    assert demo_run.elapsed < 30.0
    report(
        8,
        f"1000 readings, {len(abnormal)} abnormal -> {len(confirmed)} public "
        f"alerts within 2 seals, zero value leaks ({demo_run.elapsed:.1f}s)",
    )


@pytest.fixture(scope="module")
def anchored_records(tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("tamper"))
    store = EhrStore(directory)
    ledger = Ledger(PRIVATE, 3, {"svc", "sealer"})
    rng = random.Random(SEED + 77)
    for i in range(50):
        content = f"reading {i} ".encode() + rng.randbytes(rng.randint(16, 48)).hex().encode()
        record = store.store(content, f"p-{i % 5:02d}", now=float(i))
        anchor(record, ledger, "svc", now=float(i))
    ledger.seal_block("sealer", 100.0)
    store.close()
    return directory, ledger


def _log_frames(path: str) -> list[tuple[str, int, int]]:
    # (record_id, content offset, content length) straight from the log bytes
    frames = []
    with open(path, "rb") as fh:
        while True:
            header_line = fh.readline()
            if not header_line:
                break
            header = json.loads(header_line)
            offset = fh.tell()
            frames.append((header["record_id"], offset, header["content_len"]))
            fh.seek(header["content_len"] + 1, 1)
    return frames


def test_criterion_09_single_byte_tampering_is_always_caught(anchored_records):
    import os

    directory, ledger = anchored_records
    log_path = os.path.join(directory, "ehr.log")
    frames = _log_frames(log_path)
    rng = random.Random(SEED + 78)
    caught = 0
    for trial in range(1000):
        record_id, offset, length = frames[rng.randrange(len(frames))]
        at = offset + rng.randrange(length)
        with open(log_path, "r+b") as fh:
            fh.seek(at)
            old = fh.read(1)
            new = bytes([(old[0] + rng.randrange(1, 256)) % 256])
            fh.seek(at)
            fh.write(new)
        try:
            # a fresh handle, as any auditor would open
            store = EhrStore(directory)
            assert verify(record_id, store, ledger).status == TAMPERED
            caught += 1
            if trial % 100 == 0:
                # an untouched record stays intact while another is tampered
                other = next(rid for rid, _, _ in frames if rid != record_id)
                assert verify(other, store, ledger).status == INTACT
            store.close()
        finally:
            with open(log_path, "r+b") as fh:
                fh.seek(at)
                fh.write(old)
    assert caught == 1000
    store = EhrStore(directory)
    results = audit(store, ledger)
    store.close()
    assert len(results) == 50 and all(r.status == INTACT for r in results)
    report(9, "1000/1000 single-byte mutations detected; restored records intact")


def test_criterion_10_revocation_round_trip():
    ledger = Ledger(PRIVATE, 3, {"acl-service", "sealer"})
    clock = ManualClock(0.0)
    controller = AccessController(clock=clock, ledger=ledger)
    controller.register("p-01", Role.PATIENT, "pw-p")
    controller.register("dr-01", Role.HEALTHCARE_PROVIDER, "pw-dr")
    patient = controller.authenticate("p-01", "pw-p")
    doctor = controller.authenticate("dr-01", "pw-dr")

    assert not controller.check_access(doctor, "p-01", Scope.EHR_READ)
    grant = controller.grant(patient, "dr-01", Scope.EHR_READ)
    assert controller.check_access(doctor, "p-01", Scope.EHR_READ)
    ledger.seal_block("sealer", 1.0)
    clock.now = 2.0
    controller.revoke(patient, grant.grant_id)
    assert not controller.check_access(doctor, "p-01", Scope.EHR_READ)
    ledger.seal_block("sealer", 3.0)

    assert rebuild_grants(ledger) == controller.grant_table()
    report(10, "grant allows, revoke denies, ledger fold rebuilds the table exactly")


def test_criterion_11_anticone_bound_for_network():
    # imported here, so that the other criteria still run where scipy is
    # not installed; this one then fails on the import
    from scipy.stats import poisson

    # a 2-delay window averaging one block caps concurrency at 4 blocks
    assert k_for_network(0.5, 1.0, 0.01) == 3

    rng = random.Random(SEED + 99)
    for _ in range(20):
        delay = rng.uniform(0.1, 3.0)
        rate = rng.uniform(0.1, 4.0)
        delta = rng.choice([0.05, 0.01, 0.001])
        k = k_for_network(delay, rate, delta)
        mu = 2.0 * delay * rate
        assert poisson.sf(k + 1, mu) < delta
        if k > 0:
            assert poisson.sf(k, mu) >= delta
    report(11, "k=3 caps the unit window at 4 blocks; 20 parameter triples match the tail oracle")
