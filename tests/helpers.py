"""Shared test utilities.

reference_color restates the greedy coloring rule with plain sets and
definitional anticone checks, deliberately sharing no code with the
engine, so the two can be compared on random DAGs. random_dag
builds seeded DAG topologies for property tests. CRAFTED_LEDGERS are
saved ledgers carrying a transaction that submit would refuse.
max_anticone is the simulator's earlier windowed anticone count, the
oracle for the count a run takes from its deliveries.
bitmask_ghostdag_run is the earlier GHOSTDAG engine, which kept one
full-width blue bitmask per block; it serves as a differential oracle
for the per-block engine in rpmdag.ghostdag.
"""

from __future__ import annotations

import base64
import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

from rpmdag.dag import Block, BlockDag, BlockId, genesis_block
from rpmdag.ghostdag import Coloring, GhostdagParams, OrderedDag
from rpmdag.hashing import canonical_json, sorted_json
from rpmdag.ledger import PRIVATE, PUBLIC, Ledger, Transaction, TxKind


def _pick_parent(parents, scores):
    return min(parents, key=lambda p: (-scores[p], p))


def _merge_view(dag, parents, past, k, views, scores):
    """Inherit the selected parent's blues, then admit mergeset members in
    ascending (score, id) order whenever the k-cluster property survives,
    checked definitionally over every member."""
    if not parents:
        return set()
    sp = _pick_parent(parents, scores)
    blue = set(views[sp])
    mergeset = past - dag.past(sp) - {sp}
    for c in sorted(mergeset, key=lambda b: (scores[b], b)):
        grown = blue | {c}
        if all(len(dag.anticone(x) & grown) <= k for x in grown):
            blue = grown
    return blue


def reference_color(dag: BlockDag, k: int):
    """Returns (global blue set, blue_score map, selected_parent map)."""
    views: dict = {}
    scores: dict = {}
    chosen: dict = {}
    for bid in dag.topological_order():
        parents = dag.blocks[bid].parents
        blue = _merge_view(dag, parents, dag.past(bid), k, views, scores) | {bid}
        views[bid] = blue
        scores[bid] = len(blue)
        if parents:
            chosen[bid] = _pick_parent(parents, scores)
    tips = sorted(dag.tips)
    virtual_past = set(dag.blocks)
    blue = _merge_view(dag, tips, virtual_past, k, views, scores)
    return blue, scores, chosen


def random_dag(rng, n: int, max_parents: int = 3,
               stale: float = 0.0) -> tuple[BlockDag, list[bytes]]:
    """Seeded DAG of n blocks; each new block picks 1..max_parents existing
    blocks as parents, so creation order is already topological. With
    stale > 0, each block past genesis is left out of every later pick with
    that chance: it stays a tip for good and holds every later window open.
    With stale 0 no extra number is drawn, so the DAG is the same as
    before that option."""
    dag = BlockDag()
    g = genesis_block()
    dag.add(g)
    ids = [g.id]
    live = [g.id]  # the blocks a later block may pick
    for i in range(1, n):
        count = rng.randint(1, min(max_parents, len(live)))
        parents = rng.sample(live, count)
        block = Block.create(parents, (), float(i), f"n{i}")
        dag.add(block)
        ids.append(block.id)
        if not (stale and rng.random() < stale):
            live.append(block.id)
    return dag, ids


def walk_past(dag: BlockDag, bid: bytes) -> set[bytes]:
    """bid's strict ancestors by a walk over the blocks' parents; it reads
    none of the windows the DAG's own queries read."""
    seen: set[bytes] = set()
    stack = list(dag.blocks[bid].parents)
    while stack:
        cur = stack.pop()
        if cur not in seen:
            seen.add(cur)
            stack.extend(dag.blocks[cur].parents)
    return seen


def fold_tips(tips: set[bytes], block: Block) -> set[bytes]:
    """The tips after block is added to a DAG whose tips were tips."""
    return (tips - set(block.parents)) | {block.id}


def make_chain(n: int) -> tuple[BlockDag, list[bytes]]:
    dag = BlockDag()
    g = genesis_block()
    dag.add(g)
    ids = [g.id]
    for i in range(1, n):
        block = Block.create((ids[-1],), (), float(i), f"n{i}")
        dag.add(block)
        ids.append(block.id)
    return dag, ids


def stale_side_block_dag(n: int) -> tuple[BlockDag, bytes]:
    """A chain of n blocks past genesis plus one side block off genesis that
    no later block merges, so it stays a tip and outside every later past.
    The side block is inserted right after genesis. Returns the DAG and the
    side block's id."""
    chain, ids = make_chain(n + 1)
    side = Block.create((ids[0],), (), 0.5, "side")
    dag = BlockDag().add(chain.blocks[ids[0]]).add(side)
    for bid in ids[1:]:
        dag.add(chain.blocks[bid])
    return dag, side.id


def reinsert_shuffled(dag: BlockDag, rng) -> BlockDag:
    """Rebuild the same blocks in a different valid insertion order."""
    pending = list(dag.blocks.values())
    rng.shuffle(pending)
    out = BlockDag()
    while pending:
        rest = []
        for block in pending:
            if all(p in out.blocks for p in block.parents):
                out.add(block)
            else:
                rest.append(block)
        assert len(rest) < len(pending), "shuffle made no progress"
        pending = rest
    return out


def max_anticone(dag: BlockDag) -> int:
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


def run_cli(*argv: str, env: dict | None = None):
    """Invoke the CLI in-process; returns (exit code, stdout, stderr)."""
    from rpmdag.cli import main

    out, err = io.StringIO(), io.StringIO()
    saved: dict = {}
    if env:
        for key, value in env.items():
            saved[key] = os.environ.get(key)
            os.environ[key] = value
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
    return code, out.getvalue(), err.getvalue()


def run_cli_process(*argv: str, timeout: float = 20):
    """Invoke the CLI in a child process, so a hang ends at the timeout
    instead of stalling the suite; returns (exit code, stdout, stderr)."""
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "rpmdag", *argv],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=timeout,
    )
    return proc.returncode, proc.stdout, proc.stderr


def crafted_ledger_text(visibility: str, tx: Transaction) -> str:
    """A saved ledger whose one sealed block carries tx. The block goes in
    by dag.add, so none of submit's checks see the transaction, and its
    payload chunk is written by json.dumps, which also writes the NaN
    that save_text refuses."""
    ledger = Ledger(visibility, 3, {"svc"})
    # the block id binds the tx id, which does not cover submitted_at
    stand_in = Transaction(tx.kind, tx.body, 0.0, tx.author)
    ledger.dag.add(Block.create([ledger.dag.genesis], (stand_in,), 1.0, "svc"))
    chunk = json.dumps(tx.to_wire(), sort_keys=True, separators=(",", ":")).encode()
    return ledger.save_text().replace(
        base64.b64encode(canonical_json(stand_in.to_wire())).decode(),
        base64.b64encode(chunk).decode(),
    )


# (case id, ledger visibility, transaction submit refuses, what the error names)
CRAFTED_LEDGERS = [
    ("anchor-without-record-id", PRIVATE,
     Transaction(TxKind.EHR_ANCHOR, {"content_hash": "c"}, 1.0, "svc"), "record_id"),
    ("anchor-on-public", PUBLIC,
     Transaction(TxKind.EHR_ANCHOR, {"record_id": "r", "content_hash": "c"}, 1.0, "svc"),
     "not accepted on the public ledger"),
    ("alert-outside-schema", PUBLIC,
     Transaction(TxKind.ALERT_EVENT, {"patient": "p-01", "heart_rate": 140}, 1.0, "svc"),
     "outside the schema"),
    ("alert-hash-with-newline", PUBLIC,
     Transaction(TxKind.ALERT_EVENT, {"patient": "p-01", "rule_id": "r-1", "occurred_at": 1.0,
                                      "ehr_record_hash": "ab" * 32 + "\n", "severity": "urgent"},
                 1.0, "svc"),
     "ehr_record_hash"),
    ("access-change-without-grantor", PRIVATE,
     Transaction(TxKind.ACCESS_CHANGE, {"action": "grant", "grant_id": "grant-0001"}, 1.0, "svc"),
     "grantor"),
    ("submitted-at-string", PRIVATE,
     Transaction(TxKind.EHR_ANCHOR, {"record_id": "r", "content_hash": "c"}, "x", "svc"),
     "submitted_at"),
    ("submitted-at-nan", PRIVATE,
     Transaction(TxKind.EHR_ANCHOR, {"record_id": "r", "content_hash": "c"}, math.nan, "svc"),
     "submitted_at"),
    # an int save could write, but a float cannot hold
    ("submitted-at-above-float-range", PRIVATE,
     Transaction(TxKind.EHR_ANCHOR, {"record_id": "r", "content_hash": "c"}, 10**400, "svc"),
     "'submitted_at' must be a finite number, got an int above the float range"),
    ("alert-occurred-at-above-float-range", PUBLIC,
     Transaction(TxKind.ALERT_EVENT, {"patient": "p-01", "rule_id": "r-1", "occurred_at": 10**400,
                                      "ehr_record_hash": "ab" * 32, "severity": "urgent"},
                 1.0, "svc"),
     "occurred_at must be a finite time a float can hold"),
]


class _BitmaskEngine:
    """Index-and-bitmask workspace for coloring and ordering.

    Reachability is kept as one Python int per block (bit i set when block
    i is a strict ancestor), which keeps the per-candidate k-cluster checks
    cheap even on simulation-sized DAGs.
    """

    def __init__(self, dag: BlockDag):
        self.dag = dag
        self.ids, self.index, self.past = dag.past_masks()
        self.score: list[int] = [0] * len(self.ids)
        self.blues: list[int] = [0] * len(self.ids)
        self.selected_parent: dict[BlockId, BlockId] = {}

    # Coloring

    def greedy(self, k: int) -> tuple[int, BlockId | None]:
        """Color every block, then the virtual block over the current tips.

        Returns the global blue mask and the selected tip.
        """
        for i, bid in enumerate(self.ids):
            parents = self.dag.blocks[bid].parents
            blues, sp = self._merge(parents, self.past[i], 1 << i, k)
            self.blues[i] = blues
            self.score[i] = blues.bit_count()
            if sp is not None:
                self.selected_parent[bid] = sp
        tips = sorted(self.dag.tips)
        if not tips:
            return 0, None
        virtual_past = 0
        for t in tips:
            j = self.index[t]
            virtual_past |= self.past[j] | (1 << j)
        blues, sp = self._merge(tips, virtual_past, 0, k)
        return blues, sp

    def _merge(self, parent_ids, past_mask: int, self_bit: int, k: int):
        if not parent_ids:
            return self_bit, None
        sp = min(parent_ids, key=lambda p: (-self.score[self.index[p]], p))
        spi = self.index[sp]
        blues = self.blues[spi]
        mergeset = past_mask & ~(self.past[spi] | (1 << spi))
        candidates = sorted(
            _bits(mergeset), key=lambda i: (self.score[i], self.ids[i])
        )
        for c in candidates:
            added = self._try_admit(c, blues, k)
            if added is not None:
                blues = added
        return blues | self_bit, sp

    def _try_admit(self, c: int, blues: int, k: int) -> int | None:
        """Admit candidate c iff the blue set stays a k-cluster."""
        cbit = 1 << c
        in_anticone = []
        m = blues & ~self.past[c]
        while m:
            low = m & -m
            m ^= low
            x = low.bit_length() - 1
            if self.past[x] & cbit:
                continue  # x is in c's future, not its anticone
            in_anticone.append(x)
            if len(in_anticone) > k:
                return None
        grown = blues | cbit
        for x in in_anticone:
            if self._anticone_blue_count(x, grown, k) > k:
                return None
        return grown

    def _anticone_blue_count(self, x: int, blues: int, k: int) -> int:
        xbit = 1 << x
        count = 0
        m = blues & ~self.past[x] & ~xbit
        while m:
            low = m & -m
            m ^= low
            y = low.bit_length() - 1
            if self.past[y] & xbit:
                continue
            count += 1
            if count > k:
                break
        return count

    # Ordering

    def order_blocks(self, blue_mask: int, selected_tip: BlockId | None) -> list[BlockId]:
        """Total order anchored on the selected-parent chain.

        Walking the chain from genesis upward, each chain block contributes
        the not-yet-ordered blue blocks of its past in ascending
        (blue score, id) order; emitting a block first pulls in its missing
        ancestors depth-first, which is where red blocks enter. Leftover
        blocks outside the selected tip's past follow under the same rule,
        blue before red.
        """
        n = len(self.ids)
        if n == 0:
            return []
        chain: list[BlockId] = []
        cur = selected_tip
        while cur is not None:
            chain.append(cur)
            cur = self.selected_parent.get(cur)
        chain.reverse()

        emitted = 0
        out: list[int] = []

        def sort_key(i: int):
            return (self.score[i], self.ids[i])

        def emit(i: int):
            nonlocal emitted
            stack = [(i, False)]
            while stack:
                node, expanded = stack.pop()
                if emitted & (1 << node):
                    continue
                if expanded:
                    emitted |= 1 << node
                    out.append(node)
                    continue
                stack.append((node, True))
                pending = [
                    self.index[p]
                    for p in self.dag.blocks[self.ids[node]].parents
                    if not emitted & (1 << self.index[p])
                ]
                # pushed in descending key order so the smallest pops first
                pending.sort(key=sort_key, reverse=True)
                stack.extend((j, False) for j in pending)

        for cid in chain:
            ci = self.index[cid]
            todo = (self.past[ci] | (1 << ci)) & blue_mask & ~emitted
            for x in sorted(_bits(todo), key=sort_key):
                emit(x)
        full = (1 << n) - 1
        for x in sorted(_bits(blue_mask & ~emitted), key=sort_key):
            emit(x)
        for x in sorted(_bits(full & ~emitted), key=sort_key):
            emit(x)
        return [self.ids[i] for i in out]


def _bits(mask: int):
    while mask:
        low = mask & -mask
        mask ^= low
        yield low.bit_length() - 1


def bitmask_ghostdag_run(dag: BlockDag, params: GhostdagParams) -> OrderedDag:
    """Color the DAG from the virtual block's view, then order it."""
    engine = _BitmaskEngine(dag)
    blue_mask, selected_tip = engine.greedy(params.k)
    blue = frozenset(engine.ids[i] for i in _bits(blue_mask))
    coloring = Coloring(
        blue=blue,
        red=frozenset(engine.ids) - blue,
        blue_score=dict(zip(engine.ids, engine.score)),
        selected_parent=engine.selected_parent,
    )
    order = engine.order_blocks(blue_mask, selected_tip)
    return OrderedDag(tuple(order), lambda: coloring)


def reference_inspect_line(position: int, entry) -> str:
    """A `ledger inspect` line as it was first spelt: sorted_json of the
    whole entry, with the transaction as to_wire gives it."""
    wire = {"position": position, "block": entry.block.hex(), "tx": entry.tx.to_wire()}
    return sorted_json(wire) + "\n"
