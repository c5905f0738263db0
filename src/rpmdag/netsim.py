"""Discrete-event simulation of block creation and propagation.

One network-wide Poisson process creates blocks; each block is minted by a
uniformly chosen node on top of that node's current local view and reaches
every other node after a fixed delay (complete graph). Two consensus modes
are compared: blockdag (every tip becomes a parent, GHOSTDAG orders the
result) and longest_chain (single parent, first-received tie-breaking,
off-chain blocks are wasted).

Simulated blocks carry no payload. Consensus orders blocks by DAG
structure alone, so SimConfig.txs_per_block is just the per-block
transaction count that effective_tps multiplies by.

A block's parents, and so its past, are the same in every node's view;
nodes differ only in which blocks they have received. So a run keeps one
BlockDag, which takes each block when it is created, and each node keeps
just the set of ids it has received and its own tips.

Every block reaches every other node after the same delay, so deliveries
fall due in creation order: they wait in a FIFO, and a delivery due at a
creation time is handled before that creation.

The per-block work is kept to what some output reads. Events are named
tuples, and a block's height, worked out once when it is created, and
each node's best tip are tracked in longest_chain mode only, the one mode
whose parents and measure read them.

Runs are deterministic: identical (config, seed) reproduce the exact
trace, block ids, and metrics.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass, replace
from typing import NamedTuple

from .dag import Block, BlockDag, BlockId, genesis_block, join_windows
from .errors import DuplicateBlock, IncompleteTrace, InvalidConfig, MissingParent
from .ghostdag import GhostdagParams, ghostdag_run
# digest is unused here; it stays importable because perfbench's tracer wraps netsim.digest
from .hashing import digest, sorted_json

MODE_BLOCKDAG = "blockdag"
MODE_LONGEST_CHAIN = "longest_chain"
MODES = (MODE_BLOCKDAG, MODE_LONGEST_CHAIN)


@dataclass(frozen=True)
class SimConfig:
    nodes: int
    rate_lambda: float
    delay_d: float
    duration: float
    k: int
    txs_per_block: int = 0
    seed: int = 0
    mode: str = MODE_BLOCKDAG

    def __post_init__(self):
        # bool is an int subclass; GhostdagParams refuses it for k the same way
        if not isinstance(self.nodes, int) or isinstance(self.nodes, bool) or self.nodes < 1:
            raise InvalidConfig(f"nodes must be a positive integer, got {self.nodes!r}")
        if not (self.rate_lambda > 0 and math.isfinite(self.rate_lambda)):
            raise InvalidConfig(f"rate_lambda must be positive and finite, got {self.rate_lambda!r}")
        if not (self.delay_d >= 0 and math.isfinite(self.delay_d)):
            raise InvalidConfig(f"delay_d must be nonnegative and finite, got {self.delay_d!r}")
        if not (self.duration > 0 and math.isfinite(self.duration)):
            raise InvalidConfig(f"duration must be positive and finite, got {self.duration!r}")
        if not isinstance(self.k, int) or isinstance(self.k, bool) or self.k < 0:
            raise InvalidConfig(f"k must be a nonnegative integer, got {self.k!r}")
        txs = self.txs_per_block
        if not isinstance(txs, int) or isinstance(txs, bool) or txs < 0:
            raise InvalidConfig(f"txs_per_block must be a nonnegative integer, got {txs!r}")
        if self.mode not in MODES:
            raise InvalidConfig(f"mode must be one of {MODES}, got {self.mode!r}")


class SimEvent(NamedTuple):
    time: float
    node: int
    kind: str  # "created" | "received"
    block: BlockId


@dataclass
class SimTrace:
    config: SimConfig
    genesis: BlockId
    events: list[SimEvent]
    blocks: dict[BlockId, Block]
    views: dict[int, frozenset[BlockId]]
    completed: bool


@dataclass(frozen=True)
class SimMetrics:
    blocks_created: int
    blocks_in_order: int
    included_ratio: float
    effective_tps: float
    max_observed_anticone: int
    converged: bool


@dataclass
class _NodeState:
    """One node's view of the run's shared DAG.

    The blocks themselves live once in the run's BlockDag; a node keeps
    only the ids it has received, the tips among them, and its best tip.
    """

    idx: int
    seen: set[BlockId]
    tips: set[BlockId]
    heights: dict[BlockId, int]  # shared across nodes; height never differs
    best_tip: BlockId

    def mining_parents(self, mode: str) -> tuple[BlockId, ...]:
        if mode == MODE_LONGEST_CHAIN:
            return (self.best_tip,)
        return tuple(sorted(self.tips))

    def take(self, block: Block):
        """Take a block whose parents this node has received already, as
        a seen id and a tip.

        Deliveries leave a FIFO in creation order, and a delivery due at a
        creation time is handled before that creation. A parent is created
        before its child, so every block reaches a node after its parents.
        No child of it can have arrived before it, so it is a tip.
        """
        if block.id in self.seen:
            raise DuplicateBlock(f"node {self.idx} already has block {block.short_id()}")
        if not self.seen.issuperset(block.parents):
            raise MissingParent(f"node {self.idx} lacks a parent of block {block.short_id()}")
        self.seen.add(block.id)
        self.tips.difference_update(block.parents)
        self.tips.add(block.id)

    def receive(self, block: Block):
        """Take the block as take does, then record its height, worked out
        on its first receipt (its creator's), and move the best tip to it
        when it is higher. Only longest_chain mode reads either."""
        self.take(block)
        if block.id not in self.heights:
            parent_h = max((self.heights[p] for p in block.parents), default=-1)
            self.heights[block.id] = parent_h + 1
        # strictly longer replaces; ties keep the first-received chain
        if self.heights[block.id] > self.heights[self.best_tip]:
            self.best_tip = block.id


def run(config: SimConfig) -> tuple[SimMetrics, SimTrace]:
    """Simulate until quiescence (duration + delay) and measure."""
    rng = random.Random(config.seed)
    genesis = genesis_block()
    # creation order is topological: a creator holds every parent it names
    dag = BlockDag().add(genesis)
    heights = {genesis.id: 0}
    nodes = [
        _NodeState(i, {genesis.id}, {genesis.id}, heights, genesis.id)
        for i in range(config.nodes)
    ]
    events: list[SimEvent] = []
    # heights and the best tip pick longest_chain's parents and measure its
    # chain; blockdag mode reads neither, so its nodes only take blocks
    receive = _NodeState.receive if config.mode == MODE_LONGEST_CHAIN else _NodeState.take
    # (due time, creator, block): with one fixed delay, deliveries fall due
    # in creation order, so a FIFO holds them
    deliveries: deque[tuple[float, int, Block]] = deque()

    t = rng.expovariate(config.rate_lambda)
    while t <= config.duration or deliveries:
        if deliveries and (t > config.duration or deliveries[0][0] <= t):
            # a delivery due by the next creation time, a tie included, goes first
            due, creator, block = deliveries.popleft()
            for other in nodes:
                if other.idx != creator:
                    receive(other, block)
                    events.append(SimEvent(due, other.idx, "received", block.id))
            continue
        idx = rng.randrange(config.nodes)
        node = nodes[idx]
        block = Block.create(node.mining_parents(config.mode), (), t, f"n{idx}")
        dag.add(block)
        receive(node, block)
        events.append(SimEvent(t, idx, "created", block.id))
        # one entry reaches every other node at once, in node order; on a
        # one-node run it reaches none and draws nothing from rng
        deliveries.append((t + config.delay_d, idx, block))
        t += rng.expovariate(config.rate_lambda)

    # At quiescence every node has received every block, so the views share
    # one set. A node only receives blocks of the DAG, so a seen set as
    # large as the DAG holds all of it.
    everything = frozenset(dag.blocks)
    trace = SimTrace(
        config=config,
        genesis=genesis.id,
        events=events,
        blocks=dag.blocks,
        views={n.idx: everything if len(n.seen) == len(dag) else frozenset(n.seen) for n in nodes},
        completed=True,
    )
    metrics = _measure(trace, dag, nodes)
    return metrics, trace


def _measure(trace: SimTrace, dag: BlockDag, nodes: list[_NodeState]) -> SimMetrics:
    config = trace.config
    node = nodes[0]
    created = len(dag) - 1  # every block but genesis
    # At quiescence every node has received every block. The anticone
    # sizes are a property of the DAG, not of the order its blocks were
    # added in, so the shared DAG measures node 0's view.
    if len(node.seen) != len(dag):
        raise IncompleteTrace(f"node 0 holds {len(node.seen)} of the {len(dag)} blocks at quiescence")
    if config.mode == MODE_BLOCKDAG:
        # GHOSTDAG orders every block of the view
        in_order = created
    else:
        in_order = node.heights[node.best_tip]

    converged = len(set(trace.views.values())) == 1
    if config.mode == MODE_LONGEST_CHAIN:
        converged = converged and len({n.best_tip for n in nodes}) == 1

    return SimMetrics(
        blocks_created=created,
        blocks_in_order=in_order,
        included_ratio=(in_order / created) if created else 1.0,
        effective_tps=in_order * config.txs_per_block / config.duration,
        max_observed_anticone=_max_anticone(dag),
        converged=converged,
    )


def _max_anticone(dag: BlockDag) -> int:
    """Largest anticone over the final view, counted from reachability windows.

    A block's anticone is every block outside its past, its future and
    itself. The past windows are the ones the DAG keeps; the future windows
    come from the same join, run over children with the indices reversed.
    """
    low, win = dag.low, dag.win
    n = len(low)
    # future windows over the reversed order, where block i sits at n - 1 - i
    future_low: list[int] = []
    future_win: list[int] = []
    for children in reversed(dag.child_indices()):
        lo, w = join_windows([n - 1 - c for c in children], future_low, future_win)
        future_low.append(lo)
        future_win.append(w)
    sizes = (
        n - 1 - lo - w.bit_count() - future_lo - future_w.bit_count()
        for lo, w, future_lo, future_w in zip(low, win, reversed(future_low), reversed(future_win))
    )
    return max(sizes, default=0)


def compare_modes(config: SimConfig, lambda_sweep) -> list[tuple[SimConfig, SimMetrics]]:
    """Run both modes at each rate with identical seeds; one (config,
    metrics) pair per run."""
    # every config is validated before the first run starts
    configs = [replace(config, rate_lambda=lam, mode=mode) for lam in lambda_sweep for mode in MODES]
    return [(cfg, run(cfg)[0]) for cfg in configs]


def check_convergence(trace: SimTrace, k: int) -> bool:
    """Replay the trace per node and verify all views and orders agree.

    Works from the event log rather than the recorded views, so a
    truncated trace (missing deliveries) fails the check, and so does an
    event for a node the config does not have.
    """
    if not trace.completed:
        raise IncompleteTrace("trace does not cover a finished run")
    params = GhostdagParams(k)
    received: dict[int, list[BlockId]] = {idx: [] for idx in range(trace.config.nodes)}
    for ev in trace.events:
        bids = received.get(ev.node)
        if bids is None:
            return False
        bids.append(ev.block)
    # one replay at a time, each checked against the first node's
    first_blocks = first_order = None
    for bids in received.values():
        dag = BlockDag().add(trace.blocks[trace.genesis])
        for bid in bids:
            block = trace.blocks.get(bid)
            if block is None:
                return False
            try:
                dag.add(block)
            except (MissingParent, DuplicateBlock):
                return False
        if first_blocks is None:
            first_blocks = dag.blocks.keys()
        elif dag.blocks.keys() != first_blocks:
            return False
        order = ghostdag_run(dag, params).order
        if first_order is None:
            first_order = order
        elif order != first_order:
            return False
    return True


def trace_lines(trace: SimTrace):
    """One JSON object per event, in processing order, each line ending
    in a newline."""
    for ev in trace.events:
        yield sorted_json(
            {"time": ev.time, "node": ev.node, "event": ev.kind, "block": ev.block.hex()}
        ) + "\n"
