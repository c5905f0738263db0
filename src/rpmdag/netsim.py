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
nodes differ only in which blocks they have received. So a run keeps its
blocks once, each taken when it is created, and each node keeps just the
set of ids it has received and its own tips. A blockdag run keeps them in
one BlockDag, whose past windows GHOSTDAG reads. A longest_chain run's DAG
is a tree whose stale forks are never merged, so past windows would span
back to the oldest fork; it keeps its blocks in a plain dict instead, and
measures anticones from block heights and subtree sizes.

The largest anticone is counted in one walk from the last block to the
first, in either mode. Each block passes what it knows of its future (a
window over the reversed order, or a subtree size) to its parents and is
dropped, so the walk holds entries only for the blocks at its frontier:
memory grows with the DAG's width, not with its length.

Every block reaches every other node after the same delay, so deliveries
fall due in creation order: they wait in a FIFO, and a delivery due at a
creation time is handled before that creation.

The trace keeps each step once, as it happens: a creation, or a delivery
that reaches every other node at once, in node order. A step is its block
and a one-byte kind, and nothing per node; the per-node events, named
tuples, are made afresh each time the trace is read. A delivery's time is
its block's timestamp plus the delay, the same float the FIFO holds.

The per-block work is kept to what some output reads. A block's height,
worked out once when it is created, and each node's best tip are tracked
in longest_chain mode only, the one mode whose parents and measure read
them.

Runs are deterministic: identical (config, seed) reproduce the exact
trace, block ids, and metrics.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, replace
from typing import NamedTuple

from .dag import Block, BlockDag, BlockId, genesis_block
from .errors import DuplicateBlock, IncompleteTrace, InvalidConfig, MissingParent
from .ghostdag import GhostdagParams, ghostdag_run
# digest is unused here; it stays importable because perfbench's tracer wraps netsim.digest
from .hashing import digest, float_time, shown, sorted_json

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
        # times and rates take the float-time rule: not a bool, a str or an
        # int above the float range
        if not (float_time(self.rate_lambda) and self.rate_lambda > 0):
            raise InvalidConfig(f"rate_lambda must be positive and finite, got {shown(self.rate_lambda)}")
        if not (float_time(self.delay_d) and self.delay_d >= 0):
            raise InvalidConfig(f"delay_d must be nonnegative and finite, got {shown(self.delay_d)}")
        if not (float_time(self.duration) and self.duration > 0):
            raise InvalidConfig(f"duration must be positive and finite, got {shown(self.duration)}")
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


_CREATED, _DELIVERED = 0, 1


class StepLog:
    """A run's events, kept as its steps in the order they happened.

    A step is a block and a one-byte kind: the block's creation by its
    creator, or its delivery to every other node at once, in node order.
    Each iteration yields the same SimEvents in the same order, one per
    node a step reaches, and len() counts them.
    """

    __slots__ = ("blocks", "kinds", "nodes", "delay_d", "node_of")

    def __init__(self, nodes: int, delay_d: float, creators: list[str]):
        self.blocks: list[Block] = []
        self.kinds = bytearray()
        self.nodes = nodes
        self.delay_d = delay_d
        self.node_of = {name: idx for idx, name in enumerate(creators)}

    def add(self, block: Block, kind: int):
        self.blocks.append(block)
        self.kinds.append(kind)

    def __len__(self) -> int:
        created = self.kinds.count(_CREATED)
        return created + (len(self.kinds) - created) * (self.nodes - 1)

    def __iter__(self):
        nodes = range(self.nodes)
        # builds each SimEvent without the Python-level __new__ that calling
        # a NamedTuple runs
        new = tuple.__new__
        for block, kind in zip(self.blocks, self.kinds):
            creator = self.node_of[block.creator]
            if kind == _CREATED:
                yield new(SimEvent, (block.timestamp, creator, "created", block.id))
                continue
            due = block.timestamp + self.delay_d
            for idx in nodes:
                if idx != creator:
                    yield new(SimEvent, (due, idx, "received", block.id))


@dataclass
class SimTrace:
    config: SimConfig
    genesis: BlockId
    # a run's is a StepLog; a hand-built trace may pass a list
    events: StepLog | list[SimEvent]
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

    The blocks themselves live once in the run (its BlockDag, or in
    longest_chain mode a plain dict); a node keeps only the ids it has
    received, the tips among them, and its best tip.
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
    # creation order is topological: a creator holds every parent it names.
    # Only GHOSTDAG reads past windows, so a longest_chain run keeps none
    chain = config.mode == MODE_LONGEST_CHAIN
    dag = None if chain else BlockDag().add(genesis)
    blocks = {genesis.id: genesis} if chain else dag.blocks
    heights = {genesis.id: 0}
    nodes = [
        _NodeState(i, {genesis.id}, {genesis.id}, heights, genesis.id)
        for i in range(config.nodes)
    ]
    creators = [f"n{i}" for i in range(config.nodes)]
    steps = StepLog(config.nodes, config.delay_d, creators)
    # heights and the best tip pick longest_chain's parents and measure its
    # chain; blockdag mode reads neither, so its nodes only take blocks
    receive = _NodeState.receive if chain else _NodeState.take
    # (due time, creator, block): with one fixed delay, deliveries fall due
    # in creation order, so a FIFO holds them
    deliveries: deque[tuple[float, int, Block]] = deque()

    t = rng.expovariate(config.rate_lambda)
    while t <= config.duration or deliveries:
        if deliveries and (t > config.duration or deliveries[0][0] <= t):
            # a delivery due by the next creation time, a tie included, goes first
            _, creator, block = deliveries.popleft()
            for other in nodes:
                if other.idx != creator:
                    receive(other, block)
            steps.add(block, _DELIVERED)
            continue
        idx = rng.randrange(config.nodes)
        node = nodes[idx]
        block = Block.create(node.mining_parents(config.mode), (), t, creators[idx])
        # the creator refuses a duplicate or a missing parent before the
        # block is kept
        receive(node, block)
        if chain:
            blocks[block.id] = block
        else:
            dag.add(block)
        steps.add(block, _CREATED)
        # one entry reaches every other node at once, in node order; on a
        # one-node run it reaches none and draws nothing from rng
        deliveries.append((t + config.delay_d, idx, block))
        t += rng.expovariate(config.rate_lambda)

    # At quiescence every node has received every block, so the views share
    # one set. A node only receives blocks of the DAG, so a seen set as
    # large as the DAG holds all of it.
    everything = frozenset(blocks)
    trace = SimTrace(
        config=config,
        genesis=genesis.id,
        events=steps,
        blocks=blocks,
        views={n.idx: everything if len(n.seen) == len(blocks) else frozenset(n.seen) for n in nodes},
        completed=True,
    )
    metrics = _measure(trace, dag, nodes)
    return metrics, trace


def _measure(trace: SimTrace, dag: BlockDag | None, nodes: list[_NodeState]) -> SimMetrics:
    """The run's metrics. dag is a blockdag run's shared DAG, and None for
    a longest_chain run, whose tree is measured from trace.blocks."""
    config = trace.config
    node = nodes[0]
    n = len(trace.blocks)
    created = n - 1  # every block but genesis
    # At quiescence every node has received every block. The anticone
    # sizes are a property of the DAG, not of the order its blocks were
    # added in, so the shared blocks measure node 0's view.
    if len(node.seen) != n:
        raise IncompleteTrace(f"node 0 holds {len(node.seen)} of the {n} blocks at quiescence")
    converged = len(set(trace.views.values())) == 1
    if config.mode == MODE_BLOCKDAG:
        # GHOSTDAG orders every block of the view
        in_order = created
        largest = _max_anticone(dag)
    else:
        in_order = node.heights[node.best_tip]
        largest = _tree_max_anticone(trace.blocks, node.heights)
        converged = converged and len({other.best_tip for other in nodes}) == 1

    return SimMetrics(
        blocks_created=created,
        blocks_in_order=in_order,
        included_ratio=(in_order / created) if created else 1.0,
        effective_tps=in_order * config.txs_per_block / config.duration,
        max_observed_anticone=largest,
        converged=converged,
    )


def _max_anticone(dag: BlockDag) -> int:
    """Largest anticone over the final view, counted from reachability windows.

    A block's anticone is every block outside its past, its future and
    itself. The past windows are the ones the DAG keeps. The future windows
    are the same windows over the reversed order, where block i sits at
    n - 1 - i: the blocks are walked from last to first, and each one, once
    its window is read, joins itself and that window into a pending entry
    of each parent, as join_windows joins parents. A block's entry is
    complete when the walk reaches it, since all its children come later.
    Only blocks with a walked child and not yet walked themselves hold an
    entry, so the entries span the DAG's width, not its length.
    """
    low, win, parent_index = dag.low, dag.win, dag.parent_index
    n = len(low)
    pending: dict[int, tuple[int, int]] = {}
    largest = 0
    for i in range(n - 1, -1, -1):
        base, mask = pending.pop(i, (0, 0))
        # the trailing ones of the union, future blocks too, fold into the low
        ones = (mask ^ (mask + 1)).bit_length() - 1
        lo, w = base + ones, mask >> ones
        largest = max(largest, n - 1 - low[i] - win[i].bit_count() - lo - w.bit_count())
        bits = w | (1 << (n - 1 - i - lo))
        for p in parent_index[i]:
            base, mask = pending.get(p, (0, 0))
            if lo > base:
                pending[p] = (lo, (mask >> (lo - base)) | bits)
            else:
                pending[p] = (base, mask | (bits >> (base - lo)))
    return largest


def _tree_max_anticone(blocks: dict[BlockId, Block], heights: dict[BlockId, int]) -> int:
    """Largest anticone of a tree whose blocks are in creation order.

    In a tree a block's past is its height, and its future with itself is
    its subtree, so its anticone holds n - height - subtree blocks. The
    subtree sizes take one walk from the last block to the first: each
    block adds its own size to its parent's pending count, which is
    complete when the walk reaches the parent.
    """
    n = len(blocks)
    pending: dict[BlockId, int] = {}
    largest = 0
    for bid in reversed(blocks):
        subtree = pending.pop(bid, 0) + 1
        largest = max(largest, n - heights[bid] - subtree)
        for p in blocks[bid].parents:
            pending[p] = pending.get(p, 0) + subtree
    return largest


def compare_modes(config: SimConfig, lambda_sweep) -> list[tuple[SimConfig, SimMetrics]]:
    """Run both modes at each rate with identical seeds; one (config,
    metrics) pair per run."""
    # every config is validated before the first run starts
    configs = [replace(config, rate_lambda=lam, mode=mode) for lam in lambda_sweep for mode in MODES]
    return [(cfg, run(cfg)[0]) for cfg in configs]


def check_convergence(trace: SimTrace, k: int) -> bool:
    """Replay the trace per node and verify all views and orders agree.

    Works from the event log rather than the recorded views, so a
    truncated trace fails the check, whether it lost one delivery or
    every event of a block, and so does an event for a node the config
    does not have.
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
    # one replay at a time: each must hold every block of the run, and
    # order them as the first node's does
    first_order = None
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
        if dag.blocks.keys() != trace.blocks.keys():
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
