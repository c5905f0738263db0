"""Shared test utilities.

reference_color restates the greedy coloring rule with plain sets and
definitional anticone checks, deliberately sharing no code with the
bitmask engine, so the two can be compared on random DAGs. random_dag
builds seeded DAG topologies for property tests. CRAFTED_LEDGERS are
saved ledgers carrying a transaction that submit would refuse.
"""

from __future__ import annotations

import contextlib
import io
import os

from rpmdag.dag import Block, BlockDag, genesis_block
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


def random_dag(rng, n: int, max_parents: int = 3) -> tuple[BlockDag, list[bytes]]:
    """Seeded DAG of n blocks; each new block picks 1..max_parents existing
    blocks as parents, so creation order is already topological."""
    dag = BlockDag()
    g = genesis_block()
    dag.add(g)
    ids = [g.id]
    for i in range(1, n):
        count = rng.randint(1, min(max_parents, len(ids)))
        parents = rng.sample(ids, count)
        block = Block.create(parents, (), float(i), f"n{i}")
        dag.add(block)
        ids.append(block.id)
    return dag, ids


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


def crafted_ledger_text(visibility: str, tx: Transaction) -> str:
    """A saved ledger whose one sealed block carries tx. The block goes in
    by dag.add, so none of submit's checks see the transaction."""
    ledger = Ledger(visibility, 3, {"svc"})
    ledger.dag.add(Block.create([ledger.genesis_id], (tx,), 1.0, "svc"))
    return ledger.save_text()


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
]
