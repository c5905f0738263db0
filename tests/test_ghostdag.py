from __future__ import annotations

import math
import random
import time

import pytest

import rpmdag.ghostdag
from helpers import (
    bitmask_ghostdag_run,
    make_chain,
    random_dag,
    reference_color,
    reinsert_shuffled,
    stale_side_block_dag,
)
from rpmdag.dag import Block, BlockDag, genesis_block
from rpmdag.errors import InvalidParameter, TooLarge, UnknownBlock
from rpmdag.fixtures import REFERENCE_K3_BLUE, REFERENCE_K3_K, REFERENCE_K3_RED
from rpmdag.ghostdag import (
    GhostdagParams,
    ghostdag_run,
    is_k_cluster,
    k_for_network,
    max_k_cluster,
)
from rpmdag.ledger import PRIVATE, Ledger
from rpmdag.netsim import SimConfig, check_convergence, run

# Blue scores of the reference DAG, frozen from a hand-checked run of the
# plain-set reference implementation.
REFERENCE_SCORES = {
    "A": 1, "B": 2, "C": 2, "D": 2, "E": 2, "F": 4,
    "G": 4, "H": 4, "I": 7, "J": 7, "K": 3,
}


def test_params_validation():
    GhostdagParams(0)
    GhostdagParams(18)
    for bad in (-1, 1.5, "3", True, None):
        with pytest.raises(InvalidParameter):
            GhostdagParams(bad)


def test_is_k_cluster_definitional(reference_dag):
    dag, names = reference_dag
    blue = {names[t] for t in REFERENCE_K3_BLUE}
    assert is_k_cluster(dag, blue, 3)
    assert not is_k_cluster(dag, set(dag.blocks), 3)
    assert is_k_cluster(dag, set(), 0)
    assert is_k_cluster(dag, {names["A"]}, 0)
    with pytest.raises(UnknownBlock):
        is_k_cluster(dag, {b"\x00" * 32}, 1)
    with pytest.raises(InvalidParameter):
        is_k_cluster(dag, blue, -1)


def test_reference_coloring(reference_dag):
    dag, names = reference_dag
    coloring = ghostdag_run(dag, GhostdagParams(REFERENCE_K3_K)).coloring
    assert coloring.blue == {names[t] for t in REFERENCE_K3_BLUE}
    assert coloring.red == {names[t] for t in REFERENCE_K3_RED}
    assert coloring.blue_score == {names[t]: s for t, s in REFERENCE_SCORES.items()}


def test_reference_oracle_matches_greedy(reference_dag):
    dag, names = reference_dag
    cluster = max_k_cluster(dag, REFERENCE_K3_K)
    assert cluster == {names[t] for t in REFERENCE_K3_BLUE}


def test_reference_reds_are_forced(reference_dag):
    # each red block sees more than k blues in its anticone, so no
    # coloring containing the blue set could also include it
    dag, names = reference_dag
    blue = {names[t] for t in REFERENCE_K3_BLUE}
    for token in REFERENCE_K3_RED:
        assert len(dag.anticone(names[token]) & blue) > REFERENCE_K3_K


def test_engine_matches_reference_implementation():
    # the engine and the plain-set restatement must agree exactly
    for seed in range(120):
        rng = random.Random(seed)
        dag, _ = random_dag(rng, rng.randint(1, 22))
        k = rng.randint(0, 4)
        coloring = ghostdag_run(dag, GhostdagParams(k)).coloring
        blue, scores, chosen = reference_color(dag, k)
        assert coloring.blue == blue, f"seed {seed} k {k}"
        assert coloring.blue_score == scores, f"seed {seed} k {k}"
        assert coloring.selected_parent == chosen, f"seed {seed} k {k}"


def assert_matches_bitmask_oracle(dag: BlockDag, k: int, case) -> None:
    got = ghostdag_run(dag, GhostdagParams(k))
    want = bitmask_ghostdag_run(dag, GhostdagParams(k))
    assert got.coloring.blue == want.coloring.blue, case
    assert got.coloring.red == want.coloring.red, case
    assert list(got.coloring.blue_score.items()) == list(want.coloring.blue_score.items()), case
    assert list(got.coloring.selected_parent.items()) == list(
        want.coloring.selected_parent.items()
    ), case
    assert got.order == want.order, case
    # the engine's coloring is built on this read; equality compares it too
    assert got == want, case


def test_engine_matches_bitmask_oracle_on_greedy_corpus():
    # the acceptance suite's 500-DAG greedy corpus (test_acceptance.SEED)
    for i in range(500):
        rng = random.Random(20240811 + i)
        dag, _ = random_dag(rng, rng.randint(1, 20))
        assert_matches_bitmask_oracle(dag, i % 5, i)


def test_engine_matches_bitmask_oracle_on_wide_dags():
    # up to 5 parents, redundant ones (an ancestor of another) included
    for seed in range(500):
        rng = random.Random(seed)
        dag, _ = random_dag(rng, rng.randint(1, 40), max_parents=1 + seed % 5)
        for k in range(6):
            assert_matches_bitmask_oracle(dag, k, (seed, k))


def test_engine_matches_bitmask_oracle_on_reference_dag(reference_dag):
    dag, _ = reference_dag
    for k in range(6):
        assert_matches_bitmask_oracle(dag, k, k)


def test_engine_matches_bitmask_oracle_when_a_side_block_is_never_merged():
    # every later window spans back to the side block
    dag, _ = stale_side_block_dag(60)
    for k in range(4):
        assert_matches_bitmask_oracle(dag, k, k)


@pytest.mark.parametrize(
    "rate, delay, duration, ks",
    [(20.0, 1.0, 100.0, (0, 3, 10, k_for_network(1.0, 20.0, 0.01))), (5.0, 1.0, 400.0, (3,)),
     (20.0, 2.0, 100.0, (3,)), (5.0, 2.0, 400.0, (3,)), (40.0, 1.0, 50.0, (0, 1, 3))],
)
def test_engine_matches_bitmask_oracle_on_sim_views(rate, delay, duration, ks):
    # a converged final view, and a node's view halfway, with tips in flight;
    # at rate 40 the k-deep filter empties most mergesets, and at k=3 most
    # blocks skip the mergeset scan; at the derived k (54) the k-deep chain
    # block sits far down, so the skip seldom fires
    config = SimConfig(nodes=4, rate_lambda=rate, delay_d=delay, duration=duration, k=ks[0],
                       seed=int(rate * 10 + delay))
    _, trace = run(config)
    final = BlockDag().add(trace.blocks[trace.genesis])
    for bid in trace.blocks:
        if bid != trace.genesis:
            final.add(trace.blocks[bid])
    own = [ev for ev in trace.events if ev.node == 1]
    partial = BlockDag().add(trace.blocks[trace.genesis])
    for ev in own[: len(own) // 2]:
        partial.add(trace.blocks[ev.block])
    assert len(final) > 1500
    for k in ks:
        assert_matches_bitmask_oracle(final, k, ("final", k))
        assert_matches_bitmask_oracle(partial, k, ("partial", k))


def sim_view(seed: int) -> BlockDag:
    """Node 1's view of a converged 4-node run, in the order it received
    its blocks."""
    _, trace = run(SimConfig(nodes=4, rate_lambda=20.0, delay_d=1.0, duration=20.0, k=3,
                             seed=seed))
    dag = BlockDag().add(trace.blocks[trace.genesis])
    for ev in trace.events:
        if ev.node == 1:
            dag.add(trace.blocks[ev.block])
    return dag


def test_run_joins_only_the_virtual_blocks_window(monkeypatch):
    # BlockDag.add keeps every block's window; a run must not rebuild them
    calls = []
    join = rpmdag.ghostdag.join_windows

    def counting_join(parents, low, win):
        calls.append(sorted(parents))
        return join(parents, low, win)

    dag = sim_view(5)
    monkeypatch.setattr(rpmdag.ghostdag, "join_windows", counting_join)
    ghostdag_run(dag, GhostdagParams(3))
    assert calls == [sorted(dag.index[t] for t in dag.tips)]


def test_run_on_a_dag_grown_after_an_earlier_run():
    # the ledger's seal, confirmed(), seal pattern: windows added after a
    # run must serve the next run as a fresh DAG's would
    full = sim_view(6)
    blocks = list(full.blocks.values())
    dag = BlockDag()
    for step, end in enumerate((1, 2, 40, len(blocks) // 2, len(blocks))):
        for block in blocks[len(dag):end]:
            dag.add(block)
        fresh = BlockDag()
        for block in blocks[:end]:
            fresh.add(block)
        for k in (0, 3):
            assert ghostdag_run(dag, GhostdagParams(k)) == ghostdag_run(fresh, GhostdagParams(k))
            assert_matches_bitmask_oracle(dag, k, (step, k))


def test_greedy_blue_is_k_cluster():
    for seed in range(80):
        rng = random.Random(seed)
        dag, _ = random_dag(rng, rng.randint(1, 20))
        k = rng.randint(0, 4)
        coloring = ghostdag_run(dag, GhostdagParams(k)).coloring
        assert is_k_cluster(dag, coloring.blue, k)


def test_greedy_never_beats_oracle():
    for seed in range(40):
        rng = random.Random(seed)
        dag, _ = random_dag(rng, rng.randint(1, 12))
        k = rng.randint(0, 3)
        greedy = ghostdag_run(dag, GhostdagParams(k)).coloring.blue
        exact = max_k_cluster(dag, k)
        assert len(greedy) <= len(exact)


def test_chain_is_all_blue_at_k0():
    dag, ids = make_chain(8)
    coloring = ghostdag_run(dag, GhostdagParams(0)).coloring
    assert coloring.blue == set(ids)
    assert coloring.red == set()
    assert max_k_cluster(dag, 0) == set(ids)
    assert [coloring.blue_score[b] for b in ids] == list(range(1, 9))


def test_diamond_tie_breaks_lexicographically():
    # two equal-score branches at k=0: only the smaller id stays blue
    dag = BlockDag()
    g = genesis_block()
    dag.add(g)
    a = Block.create((g.id,), (), 1.0, "a")
    b = Block.create((g.id,), (), 1.0, "b")
    tip = Block.create((a.id, b.id), (), 2.0, "tip")
    dag.add(a).add(b).add(tip)
    winner, loser = (a, b) if a.id < b.id else (b, a)
    coloring = ghostdag_run(dag, GhostdagParams(0)).coloring
    assert coloring.blue == {g.id, winner.id, tip.id}
    assert coloring.red == {loser.id}
    assert coloring.selected_parent[tip.id] == winner.id
    # at k=1 both branches fit
    assert ghostdag_run(dag, GhostdagParams(1)).coloring.blue == set(dag.blocks)


def test_blue_score_strictly_increases_along_selected_chain():
    for seed in range(40):
        rng = random.Random(seed)
        dag, _ = random_dag(rng, rng.randint(2, 25))
        coloring = ghostdag_run(dag, GhostdagParams(rng.randint(0, 4))).coloring
        for bid, sp in coloring.selected_parent.items():
            assert coloring.blue_score[bid] > coloring.blue_score[sp]


def test_oracle_size_is_monotone_in_k():
    # any k-cluster is also a (k+1)-cluster, so the exact maximum never
    # shrinks (the greedy result may: selected parents shift with k)
    for seed in range(30):
        rng = random.Random(seed)
        dag, _ = random_dag(rng, rng.randint(2, 12))
        sizes = [len(max_k_cluster(dag, k)) for k in range(4)]
        assert sizes == sorted(sizes)


def test_oracle_prefers_lexicographically_smallest_maximum():
    # two disjoint singleton options of equal size at k=0
    dag = BlockDag()
    g = genesis_block()
    dag.add(g)
    a = Block.create((g.id,), (), 1.0, "a")
    b = Block.create((g.id,), (), 1.0, "b")
    dag.add(a).add(b)
    cluster = max_k_cluster(dag, 0)
    assert cluster == {g.id, min(a.id, b.id)}


def test_oracle_refuses_large_dags():
    dag, _ = make_chain(21)
    with pytest.raises(TooLarge):
        max_k_cluster(dag, 1)


def test_oracle_empty_dag():
    assert max_k_cluster(BlockDag(), 2) == frozenset()


def test_order_is_linear_extension():
    for seed in range(60):
        rng = random.Random(seed)
        dag, _ = random_dag(rng, rng.randint(1, 22))
        ordered = ghostdag_run(dag, GhostdagParams(rng.randint(0, 4)))
        assert dag.is_linear_extension(ordered.order)
        assert ordered.order[0] == dag.genesis


def test_order_of_chain_is_the_chain():
    dag, ids = make_chain(9)
    ordered = ghostdag_run(dag, GhostdagParams(2))
    assert list(ordered.order) == ids


def test_order_contains_reds_after_covering_blues(reference_dag):
    dag, names = reference_dag
    ordered = ghostdag_run(dag, GhostdagParams(REFERENCE_K3_K))
    position = {bid: i for i, bid in enumerate(ordered.order)}
    # every red block appears after its whole blue past
    for token in REFERENCE_K3_RED:
        rid = names[token]
        for ancestor in dag.past(rid):
            assert position[ancestor] < position[rid]


def test_order_independent_of_insertion_order():
    # the engine indexes blocks by insertion order; every result must be
    # the same for any valid order (OrderedDag equality compares the order,
    # blue, red, blue_score and selected_parent)
    for seed in range(40):
        rng = random.Random(seed)
        dag, _ = random_dag(rng, rng.randint(1, 30), max_parents=1 + seed % 5)
        other = reinsert_shuffled(dag, rng)
        for k in range(5):
            assert ghostdag_run(other, GhostdagParams(k)) == ghostdag_run(dag, GhostdagParams(k)), (
                seed, k)


def test_order_position_lookup(reference_dag):
    dag, names = reference_dag
    ordered = ghostdag_run(dag, GhostdagParams(3))
    assert ordered.order.index(names["A"]) == 0
    assert {ordered.order.index(bid) for bid in dag.blocks} == set(range(len(dag.blocks)))


def test_empty_dag_orders_empty():
    ordered = ghostdag_run(BlockDag(), GhostdagParams(1))
    assert ordered.order == ()
    assert ordered.coloring.blue == frozenset()


def test_k_for_network_known_values():
    # small rate*delay windows need small k; the bound grows with both
    assert k_for_network(0.5, 1.0, 0.01) == 3
    assert k_for_network(1.0, 1.0, 0.01) > k_for_network(0.1, 1.0, 0.01)
    assert k_for_network(1.0, 2.0, 0.001) >= k_for_network(1.0, 2.0, 0.05)


def test_k_for_network_matches_poisson_tail():
    scipy_stats = pytest.importorskip("scipy.stats")
    rng = random.Random(404)
    for _ in range(25):
        delay = rng.uniform(0.05, 3.0)
        rate = rng.uniform(0.05, 6.0)
        delta = rng.choice([0.05, 0.01, 0.001])
        k = k_for_network(delay, rate, delta)
        mu = 2 * delay * rate
        # smallest k with P[N > k+1] < delta
        assert scipy_stats.poisson.sf(k + 1, mu) < delta
        if k > 0:
            assert scipy_stats.poisson.sf(k, mu) >= delta


def test_k_for_network_validation():
    for bad in ((0.0, 1.0, 0.01), (1.0, -2.0, 0.01), (1.0, 1.0, 0.0),
                (1.0, 1.0, 1.0), (math.inf, 1.0, 0.01), (1.0, math.nan, 0.01)):
        with pytest.raises(InvalidParameter):
            k_for_network(*bad)


def test_k_for_network_is_zero_when_the_window_underflows():
    # 2 * delay * rate underflows to 0.0, whose log the Poisson sum cannot take
    assert k_for_network(1e-200, 1e-200, 0.01) == 0
    assert k_for_network(1e-150, 1e-150, 0.01) == 0


def test_k_for_network_refuses_an_overflowing_window_at_once():
    # 2 * delay * rate is inf; summing its series would run ten million turns
    start = time.perf_counter()
    with pytest.raises(InvalidParameter, match="overflows"):
        k_for_network(1e200, 1e200, 0.01)
    assert time.perf_counter() - start < 1.0


def summed_k(delay: float, rate: float, delta: float) -> int | None:
    """k_for_network's Poisson sum alone, with no refusal before it: the
    smallest m - 1 whose tail 1 - P(X <= m) is below delta, or None when no
    m up to ten million reaches it."""
    mu = 2.0 * delay * rate
    cdf = 0.0
    for m in range(10_000_001):
        cdf += math.exp(-mu + m * math.log(mu) - math.lgamma(m + 1))
        if m >= 1 and 1.0 - cdf < delta:
            return m - 1
    return None


def test_k_for_network_is_the_plain_sum_on_a_seeded_grid():
    rng = random.Random(2028)
    for _ in range(200):
        delay, rate = 10 ** rng.uniform(-3, 1.5), 10 ** rng.uniform(-3, 1.5)
        delta = rng.choice((rng.uniform(1e-9, 0.999999), 10 ** rng.uniform(-12, -1)))
        assert k_for_network(delay, rate, delta) == summed_k(delay, rate, delta)


class _OverBudget(Exception):
    """Raised by the lgamma call past k_for_network's budget."""


def _lgamma_budget(monkeypatch, mu: float) -> list[float]:
    """Count k_for_network's lgamma calls, one per term it computes and
    one per bisection step, and raise _OverBudget past 50 * sqrt(mu) + 100:
    its sum starts where the terms stop underflowing, about 40 standard
    deviations below the mean, so no window sums from 0 or runs to the
    ten-million-term cap. The list holds each argument passed."""
    lgamma, calls = math.lgamma, []
    budget = 50 * math.sqrt(mu) + 100

    def counted(x):
        calls.append(x)
        if len(calls) > budget:
            raise _OverBudget
        return lgamma(x)

    monkeypatch.setattr(math, "lgamma", counted)
    return calls


# Windows (delay, rate, delta) whose sum returns at the edge of the
# ten-million-term cap, with the k it returns. The first four are, per
# delta, the largest integer mu = 2 * delay * rate with rate 1 whose sum
# returns, found by bisecting the sum itself; the sum refuses mu + 1.
RETURNED_AT_THE_CAP = {
    (4999599.5, 1.0, 0.4): 9_999_999,
    (4996322.5, 1.0, 0.01): 9_999_999,
    (5000000.0, 1.0, 0.5): 9_999_999,
    (5004888.0, 1.0, 0.999): 9_999_999,
    (5e6, 1.0, 0.99): 9_992_643,
    (5002500, 1.0, 0.999): 9_995_226,
}


@pytest.mark.parametrize("delay, rate, delta", list(RETURNED_AT_THE_CAP))
def test_k_for_network_sums_every_window_it_returns(monkeypatch, delay, rate, delta):
    # each returns its k within the budget; a sum from 0 would take about
    # 3 s and ten million lgamma calls
    calls = _lgamma_budget(monkeypatch, 2.0 * delay * rate)
    assert k_for_network(delay, rate, delta) == RETURNED_AT_THE_CAP[delay, rate, delta]
    assert calls


@pytest.mark.parametrize("delay, rate, delta", [
    (1e4, 1e4, 0.01), (1e4, 1e4, 1 - 1e-16), (5e6, 1.01, 0.5), (1e150, 1e150, 0.01),
])
def test_k_for_network_refuses_a_window_past_the_cap_before_summing(monkeypatch, delay, rate,
                                                                     delta):
    # mu = 2 * delay * rate is past the cap; every term up to the cap is 0.0
    # as a float when mu is past it by more than the bisection's reach, so
    # every lgamma call is one bisection step, about log2 of ten million, and
    # no term is summed; 5e6 * 1.01 sums the last few tens of thousands
    mu = 2.0 * delay * rate
    calls = _lgamma_budget(monkeypatch, mu)
    with pytest.raises(InvalidParameter, match="^window parameters do not converge$"):
        k_for_network(delay, rate, delta)
    if mu > 2e7:
        assert len(calls) < 30


@pytest.mark.parametrize("delay, rate, delta", [
    (5001000, 1.0, 0.4), (4999601.0, 1.0, 0.4), (4996342.0, 1.0, 0.01),
    (5000001.5, 1.0, 0.5), (5005064.5, 1.0, 0.999), (4999000, 1.0, 0.01), (5e6, 1.0, 0.01),
    (2499800, 2.0, 0.4),
])
def test_k_for_network_refuses_a_hopeless_window_near_the_cap_before_summing(monkeypatch, delay,
                                                                             rate, delta):
    # on the refused side of each delta's edge, which a sum from 0 took
    # about 3 s to refuse; the sum starts where its terms stop underflowing,
    # so it stays within the lgamma budget of 50 * sqrt(mu) + 100 calls
    _lgamma_budget(monkeypatch, 2.0 * delay * rate)
    with pytest.raises(InvalidParameter, match="^window parameters do not converge$"):
        k_for_network(delay, rate, delta)


@pytest.mark.parametrize("delay, rate, delta", [(0.5, 1.0, 1e-17), (1e3, 1e3, 1e-17)])
def test_k_for_network_refuses_a_stalled_sum_at_its_first_unchanged_term_past_the_mode(
        monkeypatch, delay, rate, delta):
    # the float sum stops just below 1, so 1 - cdf never drops below a delta
    # under 1e-16; the refusal comes at the first term past the mode that
    # leaves the sum unchanged, within 20 standard deviations of the mean
    # here, not at the cap of ten million terms
    mu = 2.0 * delay * rate
    calls = _lgamma_budget(monkeypatch, mu)
    with pytest.raises(InvalidParameter, match="^window parameters do not converge$"):
        k_for_network(delay, rate, delta)
    # lgamma(m + 1) for the last term m summed
    assert mu < calls[-1] - 1 <= mu + 20 * math.sqrt(mu) + 20


def test_convergence_and_confirmed_build_no_coloring(monkeypatch):
    # both read .order alone, so neither builds a Coloring
    def refuse(**fields):
        raise AssertionError("a Coloring was built")

    _, trace = run(SimConfig(nodes=4, rate_lambda=20.0, delay_d=1.0, duration=10.0, k=3, seed=5))
    ledger = Ledger(PRIVATE, 2, {"sealer"})
    for t in range(5):
        ledger.seal_block("sealer", float(t))
    monkeypatch.setattr(rpmdag.ghostdag, "Coloring", refuse)
    assert check_convergence(trace, 3)
    assert len(ledger.confirmed()) == 0
    ordered = ghostdag_run(ledger.dag, GhostdagParams(2))
    with pytest.raises(AssertionError, match="a Coloring was built"):
        ordered.coloring
    monkeypatch.undo()
    assert ordered.coloring.blue == set(ledger.dag.blocks)
