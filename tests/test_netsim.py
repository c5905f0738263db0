from __future__ import annotations

import contextlib
import dataclasses
import gc
import hashlib
import itertools
import json
import pathlib
import random
import tracemalloc
import types

import pytest

from helpers import fold_tips, max_anticone, random_dag, walk_past
from rpmdag import dag as dag_module
from rpmdag import netsim
from rpmdag.dag import Block, BlockDag, genesis_block
from rpmdag.errors import InvalidConfig
from rpmdag.ghostdag import GhostdagParams, ghostdag_run
from rpmdag.netsim import (
    MODE_BLOCKDAG,
    MODE_LONGEST_CHAIN,
    MODES,
    SimConfig,
    SimEvent,
    SimTrace,
    StepLog,
    _tree_max_anticone,
    _Views,
    check_convergence,
    compare_modes,
    node_names,
    run,
    trace_lines,
)


def config(**overrides) -> SimConfig:
    base = dict(
        nodes=3, rate_lambda=1.0, delay_d=1.0, duration=100.0,
        k=3, txs_per_block=5, seed=7, mode=MODE_BLOCKDAG,
    )
    base.update(overrides)
    return SimConfig(**base)


def test_config_validation():
    for bad in (
        dict(nodes=0),
        dict(nodes=1.5),
        dict(nodes=True),
        dict(rate_lambda=0.0),
        dict(rate_lambda=-1.0),
        dict(rate_lambda=float("inf")),
        dict(rate_lambda=float("nan")),
        # a bool, a str, None and ints a float cannot hold
        dict(rate_lambda=True),
        dict(rate_lambda="5"),
        dict(rate_lambda=10**400),
        dict(delay_d=False),
        dict(delay_d="1"),
        dict(delay_d=-(10**400)),
        dict(duration=True),
        dict(duration=None),
        dict(duration=10**400),
        dict(duration=10**5000),  # too long for repr, so the message must not write it
        dict(delay_d=-0.1),
        dict(delay_d=float("inf")),
        dict(delay_d=float("nan")),
        dict(duration=0.0),
        dict(duration=float("inf")),
        dict(duration=float("nan")),
        dict(k=-1),
        dict(k=True),
        dict(k=False),
        dict(txs_per_block=-2),
        dict(txs_per_block=True),
        dict(mode="chain"),
    ):
        with pytest.raises(InvalidConfig):
            config(**bad)


def test_config_takes_ints_a_float_can_hold():
    cfg = config(rate_lambda=2, delay_d=0, duration=2**1023)
    assert (cfg.rate_lambda, cfg.delay_d, cfg.duration) == (2, 0, 2**1023)
    metrics, _ = run(config(rate_lambda=2, delay_d=1, duration=20))
    assert metrics == run(config(rate_lambda=2.0, delay_d=1.0, duration=20.0))[0]


def test_sim_event_is_an_immutable_named_tuple():
    event = SimEvent(1.0, 2, "received", b"\0" * 32)
    assert SimEvent._fields == ("time", "node", "kind", "block")
    assert event == SimEvent(time=1.0, node=2, kind="received", block=b"\0" * 32)
    assert (event.time, event.node, event.kind, event.block) == tuple(event)
    with pytest.raises(AttributeError):
        event.node = 3


class _EveryGapIsOne(random.Random):
    """Every gap between block creations is 1.0."""

    def expovariate(self, lambd):
        return 1.0


def test_a_delivery_due_at_a_creation_time_goes_first(monkeypatch):
    # with delay_d 1.0 every delivery falls due exactly at the next creation
    monkeypatch.setattr(netsim, "random", types.SimpleNamespace(Random=_EveryGapIsOne))
    metrics, trace = run(config(nodes=2, delay_d=1.0, duration=10.0))
    created = [ev for ev in trace.events if ev.kind == "created"]
    assert [ev.time for ev in created] == [float(t) for t in range(1, 11)]
    assert any(a.node != b.node for a, b in zip(created, created[1:]))
    # so every creator holds the block made just before, and the DAG is a chain
    previous = trace.genesis
    for ev in created:
        assert trace.blocks[ev.block].parents == (previous,)
        previous = ev.block
    assert metrics.max_observed_anticone == 0


def test_determinism_bit_identical():
    m1, t1 = run(config())
    m2, t2 = run(config())
    assert m1 == m2
    assert "".join(trace_lines(t1)) == "".join(trace_lines(t2))
    m3, _ = run(config(seed=8))
    assert m3 != m1


def test_single_node_no_delay_includes_everything():
    for mode in (MODE_BLOCKDAG, MODE_LONGEST_CHAIN):
        metrics, _ = run(config(nodes=1, delay_d=0.0, mode=mode, duration=200.0))
        assert metrics.included_ratio == 1.0
        assert metrics.converged


def test_blockdag_always_includes_everything():
    for seed in (1, 2, 3):
        metrics, _ = run(config(seed=seed, rate_lambda=4.0))
        assert metrics.included_ratio == 1.0
        assert metrics.blocks_in_order == metrics.blocks_created


def test_longest_chain_near_serial_regime():
    # almost no concurrency: nearly every block extends the chain
    metrics, _ = run(
        config(nodes=2, rate_lambda=0.01, delay_d=1.0, duration=10_000.0,
               seed=7, mode=MODE_LONGEST_CHAIN)
    )
    assert metrics.included_ratio >= 0.95


def test_longest_chain_congested_regime_discards():
    metrics, _ = run(config(rate_lambda=5.0, mode=MODE_LONGEST_CHAIN, duration=400.0))
    assert metrics.included_ratio < 1.0


def test_conservation_and_causality():
    metrics, trace = run(config(duration=150.0))
    created = [e for e in trace.events if e.kind == "created"]
    received = [e for e in trace.events if e.kind == "received"]
    assert metrics.blocks_created == len(created)
    # every creation is delivered to every other node exactly delay later
    assert len(received) == len(created) * (trace.config.nodes - 1)
    created_at = {e.block: e.time for e in created}
    for e in received:
        assert e.time == pytest.approx(created_at[e.block] + trace.config.delay_d)
    # at quiescence every node has taken every block
    for idx in range(trace.config.nodes):
        taken = [block.id for block in trace.events.received(idx)]
        assert sorted([trace.genesis, *taken]) == sorted(trace.blocks)
    times = [e.time for e in trace.events]
    assert times == sorted(times)


def test_effective_tps_zero_for_empty_blocks():
    metrics, _ = run(config(txs_per_block=0))
    assert metrics.effective_tps == 0.0


@pytest.mark.parametrize("mode", MODES)
def test_blocks_carry_no_payload_and_hash_once(monkeypatch, mode):
    # txs_per_block only scales effective_tps: no block carries a
    # transaction, and the only hashing is one id per block
    calls = []
    real = dag_module.digest

    def counting_digest(data):
        calls.append(data)
        return real(data)

    monkeypatch.setattr(dag_module, "digest", counting_digest)
    cfg = config(nodes=4, rate_lambda=5.0, duration=40.0, txs_per_block=7, mode=mode)
    metrics, trace = run(cfg)
    assert all(block.payload == () for block in trace.blocks.values())
    assert metrics.effective_tps == metrics.blocks_in_order * cfg.txs_per_block / cfg.duration
    assert metrics.blocks_created > 100
    assert len(calls) == metrics.blocks_created + 1


def test_metrics_json_shape():
    metrics, _ = run(config(duration=30.0))
    payload = dataclasses.asdict(metrics)
    assert list(payload) == [
        "blocks_created", "blocks_in_order", "included_ratio",
        "effective_tps", "max_observed_anticone", "converged",
    ]
    json.dumps(payload)


def test_compare_modes_rows():
    rows = compare_modes(config(duration=80.0), [0.5, 2.0])
    assert [(c.rate_lambda, c.mode) for c, _ in rows] == [
        (0.5, MODE_BLOCKDAG), (0.5, MODE_LONGEST_CHAIN),
        (2.0, MODE_BLOCKDAG), (2.0, MODE_LONGEST_CHAIN),
    ]
    for c, m in rows:
        if c.mode == MODE_BLOCKDAG:
            assert m.included_ratio == 1.0
        else:
            assert m.included_ratio <= 1.0


def test_convergence_replay():
    metrics, trace = run(config(duration=120.0))
    assert metrics.converged
    assert check_convergence(trace, trace.config.k)


def test_convergence_single_node():
    _, trace = run(config(nodes=1, duration=50.0))
    assert check_convergence(trace, 3)


def test_truncated_trace_fails_convergence():
    _, trace = run(config(duration=120.0))
    steps = trace.events
    last_delivery = max(i for i, kind in enumerate(steps.kinds) if kind == netsim._DELIVERED)
    truncated = dataclasses.replace(trace, events=steps_kept(steps, lambda i: i != last_delivery))
    assert not check_convergence(truncated, trace.config.k)
    # a block created by n0 and delivered to the other nodes: one that the
    # replays refuse, listing a parent twice or none, and one they take but
    # that the trace's blocks do not hold
    last = steps.blocks[-1]
    good = Block.create((last.id,), (), 130.0, "n0")
    for block in (Block.create((last.id, last.id), (), 130.0, "n0"), Block.create((), (), 130.0, "n0"), good):
        made = steps_kept(steps, lambda i: True)
        made.add(block, netsim._CREATED)
        made.add(block, netsim._DELIVERED)
        blocks = trace.blocks if block is good else {**trace.blocks, block.id: block}
        assert not check_convergence(dataclasses.replace(trace, events=made, blocks=blocks),
                                     trace.config.k), block.parents
    # the good block's log converges once the trace holds that block
    blocks = {**trace.blocks, good.id: good}
    assert check_convergence(dataclasses.replace(trace, events=made, blocks=blocks), trace.config.k)


@pytest.mark.parametrize("lost", ["every block", "the last block"])
def test_trace_that_lost_whole_blocks_fails_convergence(lost):
    # every node would agree on a smaller DAG than the run made
    _, trace = run(config(duration=120.0))
    steps = trace.events
    last = steps.blocks[-1].id
    if lost == "every block":
        kept = steps_kept(steps, lambda i: False)
    else:
        kept = steps_kept(steps, lambda i: steps.blocks[i].id != last)
    assert not check_convergence(dataclasses.replace(trace, events=kept), trace.config.k)


def test_trace_jsonl_format():
    _, trace = run(config(duration=40.0))
    lines = "".join(trace_lines(trace)).strip().splitlines()
    assert len(lines) == len(trace.events)
    first = json.loads(lines[0])
    assert set(first) == {"time", "node", "event", "block"}


def test_past_masks_and_max_anticone_match_definitions():
    # the shared bitmask builder against a walk over parents, and the
    # bitmask anticone maximum against BlockDag.anticone
    for seed in range(40):
        rng = random.Random(seed)
        dag, _ = random_dag(rng, rng.randint(1, 30))
        ids, index, past = dag.past_masks()
        assert ids == list(dag.blocks) and dag.is_linear_extension(ids)
        assert index == {bid: i for i, bid in enumerate(ids)}
        for i, bid in enumerate(ids):
            assert {ids[j] for j in range(len(ids)) if past[i] >> j & 1} == walk_past(dag, bid)
        expected = max(len(dag.anticone(b)) for b in dag.blocks)
        assert max_anticone(dag) == expected, f"seed {seed}"
    assert max_anticone(BlockDag()) == 0
    g = genesis_block()
    assert _tree_max_anticone({g.id: g}, {g.id: 0}) == 0


def node_view(trace: SimTrace, node: int) -> BlockDag:
    """A node's final view, rebuilt in the order it received blocks."""
    dag = BlockDag().add(trace.blocks[trace.genesis])
    for ev in trace.events:
        if ev.node == node:
            dag.add(trace.blocks[ev.block])
    return dag


@pytest.mark.parametrize(
    "rate, k, mode",
    [(5.0, 0, MODE_BLOCKDAG), (5.0, 3, MODE_BLOCKDAG), (20.0, 0, MODE_BLOCKDAG),
     (20.0, 3, MODE_BLOCKDAG), (20.0, 3, MODE_LONGEST_CHAIN)],
)
def test_max_anticone_matches_definition_on_sim_views(rate, k, mode):
    # longest-chain views keep stale forks unmerged, so their windows are wide
    metrics, trace = run(config(nodes=4, rate_lambda=rate, duration=200.0 / rate, k=k,
                                seed=int(rate) + k, mode=mode))
    dag = node_view(trace, 0)
    assert len(dag) > 150
    expected = max(len(dag.anticone(b)) for b in dag.blocks)
    assert max_anticone(dag) == metrics.max_observed_anticone == expected


def chain_heights(blocks) -> dict:
    """Each block's height in a tree whose blocks are in creation order."""
    heights = {}
    for bid, block in blocks.items():
        heights[bid] = 1 + max((heights[p] for p in block.parents), default=-1)
    return heights


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("nodes", [1, 2, 3, 4])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_max_observed_anticone_matches_brute_force_on_small_runs(mode, nodes, seed):
    # the run's own count (windows pushed to parents in blockdag mode, the
    # tree formula in longest_chain mode) against BlockDag.anticone
    metrics, trace = run(config(nodes=nodes, rate_lambda=5.0, delay_d=1.0, duration=15.0,
                                seed=seed, mode=mode))
    dag = node_view(trace, 0)
    assert metrics.max_observed_anticone == max(len(dag.anticone(b)) for b in dag.blocks)
    if mode == MODE_LONGEST_CHAIN:
        # a tree: n - height - subtree is the window count
        assert _tree_max_anticone(trace.blocks, chain_heights(trace.blocks)) == max_anticone(dag)


def test_tips_match_a_fold_on_every_node_replay():
    # each node's replay, as check_convergence builds it, after every add
    _, trace = run(config(nodes=4, rate_lambda=20.0, duration=10.0, seed=5))
    for idx in range(4):
        dag = BlockDag().add(trace.blocks[trace.genesis])
        tips = {trace.genesis}
        for block in trace.events.received(idx):
            dag.add(block)
            tips = fold_tips(tips, block)
            assert dag.tips == tips, idx
        assert len(dag) == len(trace.blocks)


def test_convergence_check_builds_no_child_lists(monkeypatch):
    # its per-node replays and the GHOSTDAG run over each read parents and
    # past windows only
    def refuse(self):
        raise AssertionError("child_indices called")

    monkeypatch.setattr(BlockDag, "child_indices", refuse)
    _, trace = run(config(nodes=4, rate_lambda=20.0, duration=10.0, seed=5))
    assert check_convergence(trace, trace.config.k)


@pytest.mark.parametrize("k", [0, 3])
def test_ghostdag_run_is_the_same_on_every_node_view(k):
    # the nodes receive concurrent blocks in different orders, so their
    # views hold the same DAG in different insertion orders
    _, trace = run(config(nodes=4, rate_lambda=20.0, duration=10.0, k=k, seed=5))
    views = [node_view(trace, idx) for idx in range(4)]
    assert len({tuple(view.blocks) for view in views}) > 1
    want = ghostdag_run(views[0], GhostdagParams(k))
    for view in views[1:]:
        assert ghostdag_run(view, GhostdagParams(k)) == want


def test_consensus_paths_never_sort_the_dag(monkeypatch):
    def refuse(self):
        raise AssertionError("topological_order called")

    monkeypatch.setattr(BlockDag, "topological_order", refuse)
    metrics, trace = run(config(nodes=4, rate_lambda=20.0, duration=10.0, seed=5))
    assert check_convergence(trace, trace.config.k) and metrics.max_observed_anticone > 0
    dag = node_view(trace, 1)
    assert max_anticone(dag) == max(len(dag.anticone(b)) for b in dag.blocks)


@contextlib.contextmanager
def traced_memory():
    """tracemalloc over the with block, after a full collection: that
    empties the free lists, so what is traced is the block's own memory,
    whatever ran before it in this process."""
    gc.collect()
    tracemalloc.start()
    try:
        yield
    finally:
        tracemalloc.stop()


def test_reachability_memory_is_linear_in_blocks():
    # Doubling the blocks should roughly double the peak memory of building
    # a view (add() keeps each block's window), coloring it and the
    # windowed anticone count. Full-width past masks made it grow about 3.7x.
    peaks = []
    for duration in (200.0, 400.0):
        _, trace = run(SimConfig(nodes=2, rate_lambda=20.0, delay_d=1.0, duration=duration,
                                 k=3, seed=3))
        with traced_memory():
            dag = node_view(trace, 0)
            ghostdag_run(dag, GhostdagParams(3))
            max_anticone(dag)
            peaks.append(tracemalloc.get_traced_memory()[1])
    assert peaks[1] / peaks[0] < 2.5, peaks


@pytest.mark.parametrize("mode", MODES)
def test_whole_run_memory_is_linear_in_blocks(mode):
    # Doubling the blocks should roughly double the peak memory of a whole
    # run. A longest_chain run's stale forks are never merged, so past
    # windows kept for its blocks would span back to the oldest of them.
    peaks = []
    for duration in (200.0, 400.0):
        cfg = SimConfig(nodes=2, rate_lambda=20.0, delay_d=1.0, duration=duration, k=3,
                        seed=3, mode=mode)
        with traced_memory():
            run(cfg)
            peaks.append(tracemalloc.get_traced_memory()[1])
    assert peaks[1] / peaks[0] < 2.5, peaks


@pytest.mark.parametrize("mode", MODES)
def test_trace_memory_per_block_does_not_grow_with_nodes(mode):
    # a delivery reaches every other node at once, so the trace keeps one
    # step for it, not one event per node it reaches. What the trace keeps
    # is what deleting it frees, which leaves out a first run's caches.
    per_block = []
    for nodes in (2, 8):
        cfg = SimConfig(nodes=nodes, rate_lambda=20.0, delay_d=1.0, duration=50.0, k=3,
                        seed=3, mode=mode)
        with traced_memory():
            _, trace = run(cfg)
            blocks = len(trace.blocks)
            kept = tracemalloc.get_traced_memory()[0]
            del trace
            per_block.append((kept - tracemalloc.get_traced_memory()[0]) / blocks)
    assert per_block[1] / per_block[0] < 1.3, per_block


@pytest.mark.parametrize("mode", MODES)
def test_whole_run_memory_per_block_does_not_grow_with_nodes(mode):
    # every node holds the delivered prefix, which the run keeps once, and
    # beside it only its own undelivered blocks: no node keeps a set of
    # every block it has received, which would add tens of bytes per block
    # for each node. What 8 nodes add is the blocks' parent tuples: a
    # blockdag block names about one parent per node with blocks in flight
    # (1.5 at 2 nodes, 4.5 at 8), about 27 bytes per block.
    run(SimConfig(nodes=2, rate_lambda=20.0, delay_d=1.0, duration=5.0, k=3, seed=3, mode=mode))
    per_block = []
    for nodes in (2, 8):
        cfg = SimConfig(nodes=nodes, rate_lambda=20.0, delay_d=1.0, duration=200.0, k=3,
                        seed=3, mode=mode)
        with traced_memory():
            _, trace = run(cfg)
            per_block.append(tracemalloc.get_traced_memory()[1] / len(trace.blocks))
    assert per_block[1] - per_block[0] < 32, per_block


@pytest.mark.parametrize("seed", range(16))
def test_every_node_receives_a_block_after_its_parents(seed):
    # the invariant that lets a node add each block as it arrives: with one
    # fixed delay no block ever reaches a node before one of its parents
    rng = random.Random(seed)
    rate = rng.choice([0.5, 5.0, 50.0])
    cfg = config(nodes=rng.randint(1, 7), rate_lambda=rate,
                 delay_d=rng.choice([0.0, 0.1, 1.0, 2.5]), duration=300.0 / rate,
                 seed=seed, mode=MODES[seed % 2])
    _, trace = run(cfg)
    views = [{trace.genesis} for _ in range(cfg.nodes)]
    for ev in trace.events:
        view = views[ev.node]
        assert ev.block not in view
        if ev.kind == "received":
            assert set(trace.blocks[ev.block].parents) <= view, (ev, cfg)
        view.add(ev.block)


@pytest.mark.parametrize("rate, delay, k", [(1.0, 1.0, 3), (20.0, 0.0, 0), (20.0, 2.5, 3)])
def test_blocks_in_order_is_the_ghostdag_order_of_a_blockdag_view(rate, delay, k):
    metrics, trace = run(config(nodes=4, rate_lambda=rate, delay_d=delay,
                                duration=200.0 / rate, k=k))
    order = ghostdag_run(node_view(trace, 0), GhostdagParams(k)).order
    assert metrics.blocks_in_order == len(order) - 1


def fresh_views(nodes: int = 3, mode: str = MODE_BLOCKDAG) -> tuple[_Views, Block]:
    g = genesis_block()
    return _Views(g, nodes, mode == MODE_LONGEST_CHAIN), g


def test_longest_chain_tie_keeps_first_received():
    for mode in MODES:
        views, g = fresh_views(mode=mode)
        first = Block.create((g.id,), (), 1.0, "n1")
        second = Block.create((g.id,), (), 1.0, "n2")
        views.take(1, first)
        views.take(2, second)
        views.deliver(1, first)
        views.deliver(2, second)
        assert views.parents(0) == (
            (first.id,) if mode == MODE_LONGEST_CHAIN else tuple(sorted((first.id, second.id)))
        )
        if mode == MODE_LONGEST_CHAIN:
            assert views.best_tips == [first.id, first.id, second.id]


def test_views_grow_one_delivered_prefix_in_creation_order():
    views, g = fresh_views(nodes=2)
    a = Block.create((g.id,), (), 1.0, "n0")
    b = Block.create((a.id,), (), 2.0, "n0")
    c = Block.create((a.id,), (), 2.0, "n1")
    views.take(0, a)
    assert (views.parents(0), views.parents(1)) == ((a.id,), (g.id,))
    views.take(0, b)
    assert views.parents(0) == (b.id,)
    views.deliver(0, a)
    assert (views.parents(0), views.parents(1)) == ((b.id,), (a.id,))
    views.take(1, c)
    views.deliver(0, b)
    assert (views.delivered, views.tips) == (3, {b.id})
    # node 1 mined c on a, before b reached it
    assert views.parents(0) == (b.id,) and views.parents(1) == tuple(sorted((b.id, c.id)))
    views.deliver(1, c)
    assert views.parents(0) == views.parents(1) == tuple(sorted((b.id, c.id)))
    assert views.named == [set(), set()] and not any(views.pending)


@pytest.mark.parametrize("mode", MODES)
def test_a_block_mined_on_a_parent_its_node_lacks_fails_convergence(monkeypatch, mode):
    # run mines only on parents its node holds and keeps no check of that;
    # mining also on another node's newest undelivered block makes blocks
    # whose creator lacks a parent, and that creator's replay refuses them
    parents = _Views.parents
    lacked = []

    def also_another_nodes_newest(self, idx):
        held = parents(self, idx)
        others = [queue[-1].id for other, queue in enumerate(self.pending) if other != idx and queue]
        if not others:
            return held
        lacked.append(others[0])
        return tuple(sorted((*held, others[0])))

    monkeypatch.setattr(_Views, "parents", also_another_nodes_newest)
    _, trace = run(config(nodes=4, rate_lambda=20.0, duration=10.0, seed=5, mode=mode))
    assert lacked
    assert not check_convergence(trace, trace.config.k)


@pytest.mark.parametrize("mode", MODES)
def test_run_adds_no_block_to_a_dag(monkeypatch, mode):
    added = []
    add = BlockDag.add

    def counting_add(self, block):
        added.append(block.id)
        return add(self, block)

    monkeypatch.setattr(BlockDag, "add", counting_add)
    metrics, trace = run(config(nodes=4, rate_lambda=20.0, duration=10.0, seed=5, mode=mode))
    assert added == [] and metrics.max_observed_anticone > 0
    # each created block once, in creation order
    created = [ev.block for ev in trace.events if ev.kind == "created"]
    assert len(created) == metrics.blocks_created
    assert list(trace.blocks) == [trace.genesis] + created


def final_dag(trace: SimTrace) -> BlockDag:
    """The run's whole DAG; creation order is topological."""
    dag = BlockDag()
    for block in trace.blocks.values():
        dag.add(block)
    return dag


def test_max_observed_anticone_matches_the_window_oracle_on_seeded_runs():
    # the count a blockdag run takes from its deliveries against the
    # windows of its final DAG
    rng = random.Random(37)
    for case in range(100):
        nodes = 1 if case % 10 == 0 else rng.randint(1, 8)
        rate = rng.choice([0.5, 2.0, 5.0, 20.0, 50.0])
        delay = 0.0 if case % 10 == 1 else rng.choice([0.1, 0.5, 1.0, 2.5])
        cfg = config(nodes=nodes, rate_lambda=rate, delay_d=delay,
                     duration=min(rng.uniform(5.0, 60.0), 300.0 / rate), seed=case)
        metrics, trace = run(cfg)
        assert metrics.max_observed_anticone == max_anticone(final_dag(trace)), cfg


def gaps_rng(gaps):
    """A random module whose Random draws every creation gap from gaps, in
    turn, and picks creators as a seeded Random does."""

    class Gaps(random.Random):
        def __init__(self, seed):
            super().__init__(seed)
            self.gaps = itertools.cycle(gaps)

        def expovariate(self, lambd):
            return next(self.gaps)

    return types.SimpleNamespace(Random=Gaps)


@pytest.mark.parametrize("gaps", [(1.0,), (0.5, 0.25, 0.25), (0.25, 0.125, 0.125, 0.5)])
@pytest.mark.parametrize("nodes", [2, 3, 5])
def test_max_observed_anticone_when_creations_land_on_deliveries(monkeypatch, gaps, nodes):
    # the gaps are exact in binary and sum to the delay, so from the first
    # delay on every creation falls at a delivery's due time; that delivery
    # goes first, and the count must agree with the DAG it leaves
    monkeypatch.setattr(netsim, "random", gaps_rng(gaps))
    metrics, trace = run(config(nodes=nodes, delay_d=1.0, duration=30.0, seed=nodes))
    due = {ev.time for ev in trace.events if ev.kind == "received"}
    landed = [ev for ev in trace.events if ev.kind == "created" and ev.time in due]
    assert len(landed) > 20
    assert metrics.max_observed_anticone == max_anticone(final_dag(trace))
    # a block due at a creation time is in that block's past, so an
    # anticone holds only the blocks made strictly within one delay of it
    assert metrics.max_observed_anticone <= 2 * (len(gaps) - 1)


@pytest.mark.parametrize(
    "nodes, rate, delay, mode",
    [(4, 20.0, 1.0, MODE_BLOCKDAG), (2, 30.0, 0.1, MODE_BLOCKDAG), (7, 5.0, 2.5, MODE_LONGEST_CHAIN)],
)
def test_max_observed_anticone_is_the_same_on_every_node_view(nodes, rate, delay, mode):
    # measured once on the shared DAG, it must hold for each node's own view
    metrics, trace = run(config(nodes=nodes, rate_lambda=rate, delay_d=delay,
                                duration=200.0 / rate, mode=mode))
    for idx in range(nodes):
        assert max_anticone(node_view(trace, idx)) == metrics.max_observed_anticone


@pytest.mark.parametrize("nodes", [1, 3, 8])
def test_step_log_for_another_node_count_fails_convergence(nodes):
    # the run's own steps, kept for more or fewer nodes than the config has
    _, trace = run(config(nodes=2, duration=40.0, seed=1))
    assert check_convergence(trace, trace.config.k)
    log = steps_kept(trace.events, lambda i: True, node_names(nodes))
    assert not check_convergence(dataclasses.replace(trace, events=log), trace.config.k)


@pytest.mark.parametrize("names", [["n0", "x"], ["n1", "n0"]])
def test_step_log_under_other_names_fails_convergence(names):
    # the run's own steps, kept for its node count under names other than
    # the ones run gives its nodes
    _, trace = run(config(nodes=2, duration=40.0, seed=1))
    log = steps_kept(trace.events, lambda i: True, names)
    assert not check_convergence(dataclasses.replace(trace, events=log), trace.config.k)


@pytest.mark.parametrize("names", [["n0"], ["n0", "n1", "n2"]])
def test_step_log_node_count_is_its_creator_count(names):
    # a 2-node run's steps kept under one name or three: the log has as
    # many nodes as names, so len() counts deliveries to that many and
    # each node it counts has a name to replay by
    _, trace = run(config(nodes=2, duration=40.0, seed=1))
    steps = trace.events
    log = steps_kept(steps, lambda i: True, names)
    assert log.nodes == len(names)
    created = steps.kinds.count(netsim._CREATED)
    assert len(log) == created + (len(steps.kinds) - created) * (len(names) - 1)
    assert all(log.received(idx) for idx in range(log.nodes))


def steps_kept(steps: StepLog, keep, names=None) -> StepLog:
    """A copy of a run's steps with those whose position keep takes, under
    names if given, else under the run's own."""
    kept = StepLog(steps.delay_d, steps.creators if names is None else names)
    for i, (block, kind) in enumerate(zip(steps.blocks, steps.kinds)):
        if keep(i):
            kept.add(block, kind)
    return kept


@pytest.mark.parametrize(
    "nodes, rate, delay, mode, seed",
    [(1, 5.0, 0.0, MODE_BLOCKDAG, 1), (2, 0.5, 2.5, MODE_LONGEST_CHAIN, 2),
     (4, 30.0, 1.0, MODE_BLOCKDAG, 1), (4, 30.0, 1.0, MODE_LONGEST_CHAIN, 2),
     (7, 5.0, 0.1, MODE_BLOCKDAG, 2), (7, 5.0, 2.5, MODE_LONGEST_CHAIN, 1)],
)
def test_step_log_streams_match_the_event_list(nodes, rate, delay, mode, seed):
    # check_convergence reads a run's StepLog per node without building
    # SimEvents; each node's stream must be its events, for the whole log
    # and for logs that lost steps, and only the whole log converges
    _, trace = run(grid_config(nodes, rate, delay, mode, seed))
    steps = trace.events
    n = len(steps.kinds)
    delivered = [i for i, kind in enumerate(steps.kinds) if kind == netsim._DELIVERED]
    logs = [steps_kept(steps, lambda i: True), steps_kept(steps, lambda i: i < n - 1),
            steps_kept(steps, lambda i: i != delivered[0]),
            steps_kept(steps, lambda i: i != delivered[-1]), steps_kept(steps, lambda i: False)]
    k = trace.config.k
    verdicts = []
    for log in logs:
        streams = [[block.id for block in log.received(idx)] for idx in range(nodes)]
        assert streams == [[ev.block for ev in log if ev.node == idx] for idx in range(nodes)]
        verdicts.append(check_convergence(dataclasses.replace(trace, events=log), k))
    # a run's last step is a delivery; a one-node run's deliveries reach no
    # node, so losing one changes nothing
    assert verdicts == [True, nodes == 1, nodes == 1, nodes == 1, False]


GRID_GOLDEN = pathlib.Path(__file__).parent / "data" / "netsim_grid.json"
GRID_STRUCTURE_GOLDEN = pathlib.Path(__file__).parent / "data" / "netsim_grid_structure.json"
GRID_DELAYS = (0.0, 0.1, 1.0, 2.5)


def grid_config(nodes: int, rate: float, delay: float, mode: str, seed: int) -> SimConfig:
    return SimConfig(nodes=nodes, rate_lambda=rate, delay_d=delay, duration=200.0 / rate,
                     k=3, txs_per_block=2, seed=seed, mode=mode)


def grid_verdicts(trace: SimTrace, k: int) -> bytes:
    """check_convergence on the trace and, on a run of more than one node,
    with its last delivery step dropped."""
    verdicts = [check_convergence(trace, k)]
    steps = trace.events
    delivered = [i for i, kind in enumerate(steps.kinds) if kind == netsim._DELIVERED]
    if steps.nodes > 1 and delivered:
        truncated = steps_kept(steps, lambda i: i != delivered[-1])
        verdicts.append(check_convergence(dataclasses.replace(trace, events=truncated), k))
    return bytes(verdicts)


def grid_digest(cfg: SimConfig) -> str:
    """sha256 prefix over a run's metrics JSON, JSON-lines trace, each
    node's final view and grid_verdicts. Every node ends holding every
    block, so each view is trace.blocks."""
    metrics, trace = run(cfg)
    h = hashlib.sha256(json.dumps(dataclasses.asdict(metrics), sort_keys=True).encode())
    h.update("".join(trace_lines(trace)).encode())
    view = b"".join(sorted(trace.blocks))
    for idx in range(cfg.nodes):
        h.update(b"view %d:" % idx + view)
    h.update(grid_verdicts(trace, cfg.k))
    return h.hexdigest()[:16]


def grid_structure_digest(cfg: SimConfig) -> str:
    """grid_digest without block ids: each block is named by its creation
    index (genesis 0, then the blocks in `created`-event order). It hashes
    the metrics JSON, every event, every view, every block's parents and
    grid_verdicts, so it pins the DAG's shape and timing but not what a
    block's id binds."""
    metrics, trace = run(cfg)
    created = [trace.genesis] + [ev.block for ev in trace.events if ev.kind == "created"]
    number = {bid: i for i, bid in enumerate(created)}
    h = hashlib.sha256(json.dumps(dataclasses.asdict(metrics), sort_keys=True).encode())
    for ev in trace.events:
        h.update(json.dumps(["event", ev.time, ev.node, ev.kind, number[ev.block]]).encode())
    view = sorted(number[b] for b in trace.blocks)
    for idx in range(cfg.nodes):
        h.update(json.dumps(["view", idx, view]).encode())
    for bid in created:
        parents = sorted(number[p] for p in trace.blocks[bid].parents)
        h.update(json.dumps(["parents", number[bid], parents]).encode())
    h.update(grid_verdicts(trace, cfg.k))
    return h.hexdigest()[:16]


def grid_key(nodes: int, rate: float, delay: float, mode: str, seed: int) -> str:
    return f"nodes={nodes} lambda={rate} d={delay} {mode} seed={seed}"


def grid_mismatches(golden_path: pathlib.Path, digest_of, nodes: int, rate: float) -> list[str]:
    golden = json.loads(golden_path.read_text())
    wrong = []
    for delay in GRID_DELAYS:
        for mode in MODES:
            for seed in (1, 2):
                key = grid_key(nodes, rate, delay, mode, seed)
                if digest_of(grid_config(nodes, rate, delay, mode, seed)) != golden[key]:
                    wrong.append(key)
    return wrong


@pytest.mark.parametrize("nodes", [1, 2, 4, 7])
@pytest.mark.parametrize("rate", [0.5, 5.0, 30.0])
def test_runs_match_the_recorded_grid(nodes, rate):
    # re-recorded when simulated blocks lost their filler transactions,
    # which changed every block id and nothing else
    assert grid_mismatches(GRID_GOLDEN, grid_digest, nodes, rate) == []


@pytest.mark.parametrize("nodes", [1, 2, 4, 7])
@pytest.mark.parametrize("rate", [0.5, 5.0, 30.0])
def test_runs_match_the_recorded_structure_grid(nodes, rate):
    # recorded while blocks still carried filler transactions, when the id
    # grid still matched the simulator that kept a BlockDag per node; the
    # shape, times, metrics and verdicts must not depend on what an id binds
    assert grid_mismatches(GRID_STRUCTURE_GOLDEN, grid_structure_digest, nodes, rate) == []


@pytest.mark.parametrize("nodes", [1, 2, 4, 7])
def test_converged_is_true_for_every_finished_blockdag_run(nodes):
    # a run ends only once every node holds every block, so the field
    # cannot tell a disagreeing run from an agreeing one; check_convergence
    # replays the steps and refuses the same run with its last delivery
    # lost (a run of more than one node)
    for rate in (0.5, 5.0, 30.0):
        for delay in GRID_DELAYS:
            for seed in (1, 2):
                metrics, trace = run(grid_config(nodes, rate, delay, MODE_BLOCKDAG, seed))
                assert metrics.converged is True
                assert grid_verdicts(trace, 3) == (b"\x01\x00" if nodes > 1 else b"\x01")
