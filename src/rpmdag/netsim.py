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
blocks once, each taken when it is created, in a plain dict, and builds
no DAG: only check_convergence, which replays each node's blocks, and
GHOSTDAG over those replays read past windows.

Every block reaches every other node after the same delay, so deliveries
fall due in creation order: they wait in a FIFO, and a delivery due at a
creation time is handled before that creation. Each delivery reaches
every other node at once, so all nodes hold one delivered prefix of the
blocks in creation order, and each holds besides it only its own blocks
not delivered yet. The run keeps that prefix once, as a count and its
tips, and handles each delivery once, not once per node; a node keeps
only its undelivered blocks and the blocks they name, as few as the DAG
is wide, and no set of the blocks it has received.

A blockdag run counts each block's anticone from its deliveries. Every
tip becomes a parent, so a block's past is its creator's whole view at
creation: the delivered prefix and the creator's own undelivered blocks.
Another node's block is in its anticone exactly when one of the two was
in flight while the other was created, so the count is the other nodes'
blocks in flight at its creation plus those created before its delivery,
two reads of the FIFO's state, O(1) per step. That holds only while the
run has one fixed delay, one broadcast per block and every tip a parent;
a delivery withheld from some nodes, as a private-mining attacker's
would be, breaks it, and a run with one must count anticones from
windows again. A longest_chain run's block names one parent, so its
anticones come from block heights and subtree sizes instead, in one
walk from the last block to the first.

The trace keeps each step once, as it happens: a creation, or a delivery
that reaches every other node at once, in node order. A step is its block
and a one-byte kind, and nothing per node; the per-node events, named
tuples, are made afresh each time the trace is read. A delivery's time is
its block's timestamp plus the delay, the same float the FIFO holds. A
run ends only once every block has reached every node, so the trace keeps
no view per node: check_convergence replays each node's blocks straight
from the steps.

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
from .errors import (
    DuplicateBlock,
    FormatError,
    GenesisConflict,
    IncompleteTrace,
    InvalidConfig,
    MissingParent,
)
from .ghostdag import GhostdagParams, ghostdag_run
# digest is unused here; it stays importable because perfbench's tracer wraps netsim.digest
from .hashing import digest, float_time, integer, rng_seed, shown, sorted_json, whole_number

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
        for name, least in (("nodes", 1), ("k", 0), ("txs_per_block", 0)):
            value = getattr(self, name)
            if not whole_number(value, least):
                raise InvalidConfig(f"{name} must be an integer of at least {least}, got {shown(value)}")
        if not integer(self.seed):
            raise InvalidConfig(f"seed must be an integer, got {shown(self.seed)}")
        if not (float_time(self.rate_lambda) and self.rate_lambda > 0):
            raise InvalidConfig(f"rate_lambda must be positive and finite, got {shown(self.rate_lambda)}")
        if not (float_time(self.delay_d) and self.delay_d >= 0):
            raise InvalidConfig(f"delay_d must be nonnegative and finite, got {shown(self.delay_d)}")
        if not (float_time(self.duration) and self.duration > 0):
            raise InvalidConfig(f"duration must be positive and finite, got {shown(self.duration)}")
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
    node a step reaches, and len() counts them. received() lists one
    node's blocks straight from the steps, with no SimEvent built. Node
    idx is the one named creators[idx], so the names set the node count.
    """

    __slots__ = ("blocks", "kinds", "delay_d", "creators")

    def __init__(self, delay_d: float, creators: list[str]):
        self.blocks: list[Block] = []
        self.kinds = bytearray()
        self.delay_d = delay_d
        self.creators = creators

    @property
    def nodes(self) -> int:
        """One node per creator name."""
        return len(self.creators)

    def add(self, block: Block, kind: int):
        self.blocks.append(block)
        self.kinds.append(kind)

    def __len__(self) -> int:
        created = self.kinds.count(_CREATED)
        return created + (len(self.kinds) - created) * (self.nodes - 1)

    def __iter__(self):
        nodes = range(self.nodes)
        node_of = {name: idx for idx, name in enumerate(self.creators)}
        # builds each SimEvent without the Python-level __new__ that calling
        # a NamedTuple runs
        new = tuple.__new__
        for block, kind in zip(self.blocks, self.kinds):
            creator = node_of[block.creator]
            if kind == _CREATED:
                yield new(SimEvent, (block.timestamp, creator, "created", block.id))
                continue
            due = block.timestamp + self.delay_d
            for idx in nodes:
                if idx != creator:
                    yield new(SimEvent, (due, idx, "received", block.id))

    def received(self, idx: int) -> list[Block]:
        """The blocks node idx took, in the order it took them: the ones it
        created, and every other node's as they were delivered."""
        name = self.creators[idx]
        # a creation (0) of its own or a delivery (1) of another node's
        return [block for block, kind in zip(self.blocks, self.kinds)
                if (block.creator == name) != kind]


@dataclass
class SimTrace:
    config: SimConfig
    genesis: BlockId
    events: StepLog
    blocks: dict[BlockId, Block]


@dataclass(frozen=True)
class SimMetrics:
    """A finished run's metrics.

    A run finishes only once every block has reached every node, so in
    blockdag mode converged is True for every finished run and says
    nothing; in longest_chain mode it is whether every node ends on one
    best tip. check_convergence, which replays and orders each node's
    blocks, is the verdict on whether the nodes agree.
    """

    blocks_created: int
    blocks_in_order: int
    included_ratio: float
    effective_tps: float
    max_observed_anticone: int
    converged: bool


class _Views:
    """Every node's view of the run's DAG, kept as one delivered prefix.

    Deliveries leave one FIFO in creation order and reach every other node
    at once, so once the j-th block is delivered every node holds blocks
    0..j, and besides them only its own blocks created since. The prefix
    is kept once, as the count of delivered blocks and their tips. Each
    node keeps its own undelivered blocks, oldest first, and the blocks
    those name as parents; both are as wide as the DAG. A node's tips are
    the prefix's tips less the named ones, plus its newest undelivered
    block.

    The blocks themselves live once, in a plain dict beside their creation
    indices, and no DAG is built. Each mode tracks only what its parents
    and measure read: the tips, named blocks and largest anticone in
    blockdag mode, and heights and each node's best tip in longest_chain
    mode, whose stale leaves would stay tips for good.

    A blockdag block's past is its creator's whole view when it is made,
    so its anticone is the other nodes' blocks in flight then (early, kept
    in creation order until its delivery) plus the other nodes' blocks
    created before its delivery. That needs one fixed delay, one broadcast
    per block and every tip a parent.
    """

    def __init__(self, genesis: Block, nodes: int, chain: bool):
        self.chain = chain
        self.blocks = {genesis.id: genesis}
        self.index = {genesis.id: 0}
        self.heights = {genesis.id: 0}
        self.delivered = 1  # genesis, which every node starts with
        self.tips = {genesis.id}
        self.pending: list[deque[Block]] = [deque() for _ in range(nodes)]
        self.named: list[set[BlockId]] = [set() for _ in range(nodes)]
        self.best_tips = [genesis.id] * nodes
        self.early: deque[int] = deque()
        self.largest = 0  # genesis's anticone is empty

    def parents(self, idx: int) -> tuple[BlockId, ...]:
        """The parents node idx mines on: its best tip in longest_chain
        mode, else all its tips, in id order."""
        if self.chain:
            return (self.best_tips[idx],)
        tips = self.tips - self.named[idx]
        if self.pending[idx]:
            tips.add(self.pending[idx][-1].id)
        return tuple(sorted(tips))

    def take(self, idx: int, block: Block):
        """Keep a block node idx creates, once that node holds every parent
        it names: a delivered block, or an undelivered one of its own, which
        names the same creator."""
        index, delivered, blocks = self.index, self.delivered, self.blocks
        if block.id in index:
            raise DuplicateBlock(f"block {block.short_id()} was created already")
        for p in block.parents:
            at = index.get(p)
            if at is None or (at >= delivered and blocks[p].creator != block.creator):
                raise MissingParent(f"node {idx} lacks a parent of block {block.short_id()}")
        pending = self.pending[idx]
        if self.chain:
            height = max((self.heights[p] for p in block.parents), default=-1) + 1
            self.heights[block.id] = height
            # strictly longer replaces; ties keep the first-received chain
            if height > self.heights[self.best_tips[idx]]:
                self.best_tips[idx] = block.id
        else:
            # the other nodes' blocks in flight, none of them in its past
            self.early.append(len(index) - delivered - len(pending))
            self.named[idx].update(block.parents)
        index[block.id] = len(index)
        blocks[block.id] = block
        pending.append(block)

    def deliver(self, creator: int, block: Block):
        """Grow the prefix by the next block in creation order, which
        reaches every node but its creator at once.

        That block is its creator's oldest undelivered one. Its parents
        were created before it, so every node holds them already, and no
        delivered block names it, so it is a tip of the prefix.
        """
        at = self.index[block.id]
        if at < self.delivered:
            raise DuplicateBlock(f"every node already has block {block.short_id()}")
        if at > self.delivered:
            raise MissingParent(f"block {block.short_id()} would reach the nodes before "
                                f"block {self.delivered}, created earlier")
        self.delivered = at + 1
        pending = self.pending[creator]
        pending.popleft()
        if self.chain:
            height, best = self.heights[block.id], self.best_tips
            for other, tip in enumerate(best):
                if other != creator and height > self.heights[tip]:
                    best[other] = block.id
            return
        # the other nodes' blocks created since, none of them in its future;
        # its creator's are all still undelivered
        anticone = self.early.popleft() + len(self.index) - at - 1 - len(pending)
        if anticone > self.largest:
            self.largest = anticone
        # each parent was a tip of its creator's view, so no other of its
        # undelivered blocks names one
        self.named[creator].difference_update(block.parents)
        self.tips.difference_update(block.parents)
        self.tips.add(block.id)


def run(config: SimConfig) -> tuple[SimMetrics, SimTrace]:
    """Simulate until quiescence (duration + delay) and measure."""
    rng = random.Random(rng_seed(config.seed))
    genesis = genesis_block()
    views = _Views(genesis, config.nodes, config.mode == MODE_LONGEST_CHAIN)
    creators = [f"n{i}" for i in range(config.nodes)]
    steps = StepLog(config.delay_d, creators)
    # (due time, creator, block): with one fixed delay, deliveries fall due
    # in creation order, so a FIFO holds them
    deliveries: deque[tuple[float, int, Block]] = deque()
    # the per-step callables, looked up once per run
    parents, take, deliver, record = views.parents, views.take, views.deliver, steps.add
    create, draw, pick = Block.create, rng.expovariate, rng.randrange
    rate, duration, delay, nodes = config.rate_lambda, config.duration, config.delay_d, config.nodes

    t = draw(rate)
    while t <= duration or deliveries:
        if deliveries and (t > duration or deliveries[0][0] <= t):
            # a delivery due by the next creation time, a tie included, goes first
            _, creator, block = deliveries.popleft()
            deliver(creator, block)
            record(block, _DELIVERED)
            continue
        idx = pick(nodes)
        block = create(parents(idx), (), t, creators[idx])
        # the creator refuses a duplicate or a missing parent before the
        # block is kept
        take(idx, block)
        record(block, _CREATED)
        # one entry reaches every other node at once; on a one-node run it
        # reaches none and draws nothing from rng
        deliveries.append((t + delay, idx, block))
        t += draw(rate)

    trace = SimTrace(config=config, genesis=genesis.id, events=steps, blocks=views.blocks)
    metrics = _measure(trace, views)
    return metrics, trace


def _measure(trace: SimTrace, views: _Views) -> SimMetrics:
    """The run's metrics. A blockdag run's largest anticone was counted as
    its blocks were delivered, and a longest_chain run's tree is measured
    from trace.blocks."""
    config = trace.config
    n = len(trace.blocks)
    created = n - 1  # every block but genesis
    # At quiescence every node has received every block. The anticone
    # sizes are a property of the DAG, not of the order its blocks were
    # added in, so the shared blocks measure every node's view.
    if views.delivered != n:
        raise IncompleteTrace(f"{n - views.delivered} of the {n} blocks never reached every node")
    if config.mode == MODE_BLOCKDAG:
        # GHOSTDAG orders every block of the view, which every node holds
        in_order = created
        largest = views.largest
        converged = True
    else:
        in_order = views.heights[views.best_tips[0]]
        largest = _tree_max_anticone(trace.blocks, views.heights)
        converged = len(set(views.best_tips)) == 1

    return SimMetrics(
        blocks_created=created,
        blocks_in_order=in_order,
        included_ratio=(in_order / created) if created else 1.0,
        effective_tps=in_order * config.txs_per_block / config.duration,
        max_observed_anticone=largest,
        converged=converged,
    )


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

    Works from the step log, each node taking its own creations and every
    other node's deliveries, so a truncated trace fails the check, whether
    it lost one delivery or every step of a block, and so does a log kept
    for another node count, or a block a node's replay refuses.
    """
    steps, nodes = trace.events, trace.config.nodes
    if steps.nodes != nodes:
        return False
    params = GhostdagParams(k)
    # one replay at a time: each must hold every block of the run, and
    # order them as the first node's does
    first_order = None
    for idx in range(nodes):
        dag = BlockDag().add(trace.blocks[trace.genesis])
        try:
            for block in steps.received(idx):
                dag.add(block)
        except (MissingParent, DuplicateBlock, FormatError, GenesisConflict):
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
