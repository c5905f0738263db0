from __future__ import annotations

import random

import pytest

from helpers import make_chain, random_dag, reinsert_shuffled, stale_side_block_dag
from rpmdag.dag import (
    Block,
    BlockDag,
    block_id,
    export_dag_dot,
    export_dag_text,
    genesis_block,
    parse_dag_text,
)
from rpmdag.errors import (
    DuplicateBlock,
    FormatError,
    GenesisConflict,
    MissingParent,
    NotAPermutation,
    UnknownBlock,
)


def diamond():
    """genesis <- a, b <- tip"""
    dag = BlockDag()
    g = genesis_block()
    dag.add(g)
    a = Block.create((g.id,), (), 1.0, "a")
    b = Block.create((g.id,), (), 1.0, "b")
    tip = Block.create((a.id, b.id), (), 2.0, "tip")
    dag.add(a).add(b).add(tip)
    return dag, g, a, b, tip


def test_block_id_ignores_parent_listing_order():
    g = genesis_block()
    h = Block.create((g.id,), (), 1.0, "x")
    assert block_id((g.id, h.id), (), 2.0, "c") == block_id((h.id, g.id), (), 2.0, "c")


def test_block_id_binds_every_field():
    g = genesis_block()
    base = block_id((g.id,), (), 1.0, "c")
    assert block_id((g.id,), (), 2.0, "c") != base
    assert block_id((g.id,), (), 1.0, "d") != base
    assert block_id((), (), 1.0, "c") != base


def test_genesis_properties():
    g = genesis_block()
    assert g.is_genesis
    assert g.parents == ()
    dag = BlockDag().add(g)
    assert dag.genesis == g.id
    assert dag.tips == {g.id}


def test_second_genesis_rejected():
    dag = BlockDag().add(genesis_block())
    with pytest.raises(GenesisConflict):
        dag.add(genesis_block(creator="other"))


def test_duplicate_block_rejected():
    g = genesis_block()
    dag = BlockDag().add(g)
    with pytest.raises(DuplicateBlock):
        dag.add(g)


def test_missing_parent_rejected():
    g = genesis_block()
    stranger = Block.create((g.id,), (), 1.0, "x")
    child = Block.create((stranger.id,), (), 2.0, "y")
    dag = BlockDag().add(g)
    with pytest.raises(MissingParent):
        dag.add(child)


def test_repeated_parent_rejected():
    g = genesis_block()
    dag = BlockDag().add(g)
    bad = Block(
        id=b"\x01" * 32, parents=(g.id, g.id), payload=(), timestamp=1.0, creator="x"
    )
    with pytest.raises(FormatError):
        dag.add(bad)


def test_diamond_partitions():
    dag, g, a, b, tip = diamond()
    assert dag.past(tip.id) == {g.id, a.id, b.id}
    assert dag.future(g.id) == {a.id, b.id, tip.id}
    assert dag.anticone(a.id) == {b.id}
    assert dag.anticone(b.id) == {a.id}
    assert dag.anticone(g.id) == set()
    assert dag.tips == {tip.id}


def test_unknown_block_queries_raise():
    dag, *_ = diamond()
    with pytest.raises(UnknownBlock):
        dag.past(b"\x00" * 32)
    with pytest.raises(UnknownBlock):
        dag.anticone(b"\x00" * 32)


def test_partition_and_anticone_symmetry_random():
    # past/future/anticone/self partition the dag; anticone is symmetric
    for seed in range(20):
        rng = random.Random(seed)
        dag, ids = random_dag(rng, rng.randint(2, 24))
        everything = set(dag.blocks)
        for bid in ids:
            past, future, anti = dag.past(bid), dag.future(bid), dag.anticone(bid)
            assert past | future | anti | {bid} == everything
            assert not past & future and not past & anti and not future & anti
        for _ in range(10):
            x, y = rng.sample(ids, 2) if len(ids) > 1 else (ids[0], ids[0])
            assert (x in dag.anticone(y)) == (y in dag.anticone(x))


def test_single_genesis_everywhere():
    for seed in range(10):
        dag, ids = random_dag(random.Random(seed), 15)
        roots = [bid for bid in ids if dag.blocks[bid].is_genesis]
        assert roots == [dag.genesis]


def test_topological_order_is_linear_extension():
    for seed in range(20):
        dag, _ = random_dag(random.Random(seed), 25)
        order = dag.topological_order()
        assert dag.is_linear_extension(order)


def assert_windows_match_past(dag: BlockDag, case) -> None:
    # past() walks parents and never reads the windows
    ids, index, low, win = list(dag.blocks), dag.index, dag.low, dag.win
    assert dag.is_linear_extension(ids)
    assert index == {bid: i for i, bid in enumerate(ids)}
    assert dag.parent_index == [tuple(index[p] for p in dag.blocks[bid].parents) for bid in ids]
    for i, bid in enumerate(ids):
        assert win[i] & 1 == 0 and win[i].bit_length() <= i - low[i]
        window = {ids[low[i] + j] for j in range(i - low[i]) if win[i] >> j & 1}
        assert set(ids[: low[i]]) | window == dag.past(bid), (case, i)


def test_past_windows_match_past():
    for seed in range(40):
        rng = random.Random(seed)
        dag, _ = random_dag(rng, rng.randint(1, 30), max_parents=1 + seed % 5)
        # windows follow insertion order, so a shuffled one must work too
        for view in (dag, reinsert_shuffled(dag, rng)):
            assert_windows_match_past(view, seed)


def dag_state(dag: BlockDag):
    return list(dag.blocks.items()), dag.tips, dag.genesis, dag.index, dag.low, dag.win, dag.parent_index


def test_refused_add_changes_nothing():
    for seed in range(40):
        rng = random.Random(seed)
        dag, ids = random_dag(rng, rng.randint(1, 30), max_parents=1 + seed % 4)
        stranger = Block.create((ids[0],), (), -1.0, "stranger")
        known = rng.choice(ids)
        refused = [
            (DuplicateBlock, dag.blocks[rng.choice(ids)]),
            (GenesisConflict, genesis_block(creator="other")),
            (MissingParent, Block.create((known, stranger.id), (), 0.5, "orphan")),
            (FormatError, Block(id=b"\x01" * 32, parents=(known, known), timestamp=0.5)),
        ]
        for error, block in refused:
            with pytest.raises(error):
                dag.add(block)
            rebuilt = BlockDag()
            for kept in dag.blocks.values():
                rebuilt.add(kept)
            assert dag_state(dag) == dag_state(rebuilt), (seed, error)
        parents = rng.sample(ids, rng.randint(1, min(3, len(ids))))
        dag.add(Block.create(parents, (), float(len(ids)), "next"))
        assert_windows_match_past(dag, seed)


def test_past_windows_span_the_dag_when_a_side_block_is_never_merged():
    dag, side = stale_side_block_dag(40)
    ids, index, low, win = list(dag.blocks), dag.index, dag.low, dag.win
    s = index[side]
    for i, bid in enumerate(ids):
        if bid == side:
            assert (low[i], win[i]) == (1, 0)
        elif i < s:
            # a chain block before the side block: everything earlier is past
            assert (low[i], win[i]) == (i, 0)
        else:
            # every block from the side block up is in the window, and all
            # but the side block are ancestors
            assert low[i] == s
            assert win[i] == (1 << (i - s)) - 2
    assert s < 3 and dag.tips == {side, ids[-1]}
    assert win[-1].bit_length() == len(ids) - 1 - s


def test_is_linear_extension_detects_violations():
    dag, ids = make_chain(5)
    order = list(ids)
    order[1], order[3] = order[3], order[1]
    assert not dag.is_linear_extension(order)


def test_is_linear_extension_requires_permutation():
    dag, ids = make_chain(4)
    with pytest.raises(NotAPermutation):
        dag.is_linear_extension(ids[:-1])
    with pytest.raises(NotAPermutation):
        dag.is_linear_extension(ids + [ids[0]])


def test_insertion_order_does_not_matter():
    for seed in range(10):
        rng = random.Random(seed)
        dag, ids = random_dag(rng, 20)
        other = reinsert_shuffled(dag, rng)
        assert set(other.blocks) == set(dag.blocks)
        assert other.tips == dag.tips
        assert other.genesis == dag.genesis
        probe = rng.choice(ids)
        assert other.past(probe) == dag.past(probe)
        assert other.anticone(probe) == dag.anticone(probe)


def test_parse_reference_fixture(reference_dag):
    dag, names = reference_dag
    assert len(dag.blocks) == 11
    assert dag.genesis == names["A"]
    assert dag.tips == {names[t] for t in ("H", "I", "J", "K")}
    assert dag.blocks[names["F"]].parents == (names["B"], names["C"])


def test_text_round_trip(reference_dag):
    dag, names = reference_dag
    text = export_dag_text(dag, names)
    again, names2 = parse_dag_text(text)
    assert names2 == names
    assert set(again.blocks) == set(dag.blocks)
    assert export_dag_text(again, names2) == text


def test_parse_accepts_comments_and_blanks():
    dag, names = parse_dag_text("# top\n\nroot:\nleaf: root  # trailing\n")
    assert set(names) == {"root", "leaf"}
    assert dag.tips == {names["leaf"]}


def test_parse_errors():
    with pytest.raises(FormatError):
        parse_dag_text("no colon here\n")
    with pytest.raises(FormatError):
        parse_dag_text("bad token!:\n")
    with pytest.raises(MissingParent):
        parse_dag_text("a:\nb: c\n")
    with pytest.raises(DuplicateBlock):
        parse_dag_text("a:\na:\n")


def test_dot_export(reference_dag):
    dag, names = reference_dag
    dot = export_dag_dot(dag, names)
    assert dot.startswith("digraph blockdag {")
    assert '"F" -> "B";' in dot
    assert '"A";' in dot
    assert dot.rstrip().endswith("}")


def test_export_without_names_uses_short_ids():
    dag, _ = make_chain(3)
    text = export_dag_text(dag)
    first = text.splitlines()[0]
    token = first.split(":")[0]
    assert token == dag.genesis.hex()[:12]
