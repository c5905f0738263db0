"""GHOSTDAG consensus: greedy k-cluster coloring and a deterministic total order.

A k-cluster is a set of blocks in which every member has at most k other
members in its anticone. Finding the maximum k-cluster is NP hard, so the
protocol colors greedily, one block at a time: each block inherits its
selected parent's blue set and then admits blocks from its mergeset while
the k-cluster property holds. A brute-force oracle is provided for small
DAGs so the greedy result can be checked against the true maximum.

The engine follows Algorithm 1 of Sompolinsky, Wyborski and Zohar, "PHANTOM
GHOSTDAG: A Scalable Generalization of Nakamoto Consensus" (IACR ePrint
2018/104). No block holds its inherited blue set: each keeps its selected
parent, the blues its own merge admitted, its blue score and the blue
anticone sizes that merge changed. The k-cluster test walks the
selected-parent chain down to the candidate's past, so the work per block
depends on its mergeset and the blocks around it, not on the DAG's size.
Those questions only concern blocks near the chain, so reachability is
read from the past windows BlockDag.add keeps for every block, which are
as wide as the DAG and not as long, and memory grows linearly with the
number of blocks. A run builds no reachability of its own; it joins one
window only, the virtual block's.

A mergeset member can only be admitted when the chain block k steps below
the selected parent is in its past. Every mergeset member is a
non-selected parent or in one's past, so when no non-selected parent has
that chain block in its past, no member can: the block costs a few
reachability tests and one score update, and its mergeset is never built.
Otherwise the filter runs over the mergeset; it empties most of the rest,
and a block whose filtered mergeset is empty allocates nothing and never
enters the k-cluster test.

Everything is computed in insertion order, in one pass over the DAG:
BlockDag.add refuses a block before its parents, so that order is
topological and a block's parents and its whole past come before it.

The global coloring is the view of a virtual block whose parents are the
current tips; it runs through the same loop, one turn after the last
block. All tie-breaking is lexicographic on block ids, so results are
deterministic for a given DAG and k.

ghostdag_run returns the order at once, but builds the Coloring, a dict
and a set entry per block, only on the first read of .coloring: the
convergence check and the ledger's confirmed stream read the order alone.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass

from .dag import BlockDag, BlockId, join_windows
from .errors import InvalidParameter, TooLarge, UnknownBlock
from .hashing import float_time, shown, whole_number

ORACLE_CAP = 20


@dataclass(frozen=True)
class GhostdagParams:
    """Consensus parameters; k bounds the anticone size of blue blocks."""

    k: int

    def __post_init__(self):
        if not whole_number(self.k, 0):
            raise InvalidParameter(f"k must be a nonnegative integer, got {shown(self.k)}")


@dataclass(frozen=True)
class Coloring:
    """Blue/red partition plus per-block consensus data."""

    blue: frozenset[BlockId]
    red: frozenset[BlockId]
    blue_score: dict[BlockId, int]
    selected_parent: dict[BlockId, BlockId]


class OrderedDag:
    """A total order together with the coloring that induces it.

    The coloring is built by build on the first read of .coloring, because
    the convergence check and Ledger.confirmed read .order alone. Equality
    compares the order and the coloring.
    """

    def __init__(self, order: tuple[BlockId, ...], build: Callable[[], Coloring]):
        self.order = order
        self._build = build

    @functools.cached_property
    def coloring(self) -> Coloring:
        return self._build()

    def __eq__(self, other):
        if not isinstance(other, OrderedDag):
            return NotImplemented
        return self.order == other.order and self.coloring == other.coloring

    __hash__ = None  # the coloring holds dicts

    def __repr__(self) -> str:
        return f"OrderedDag(order={self.order!r}, coloring={self.coloring!r})"


def is_k_cluster(dag: BlockDag, blocks, k: int) -> bool:
    """Check the defining property directly: every member has at most k
    members of the set in its anticone."""
    GhostdagParams(k)  # validates k
    members = set(blocks)
    unknown = members - set(dag.blocks)
    if unknown:
        shown = ",".join(sorted(b.hex()[:12] for b in unknown))
        raise UnknownBlock(f"not in dag: {shown}")
    for b in members:
        if len(dag.anticone(b) & members) > k:
            return False
    return True


def max_k_cluster(dag: BlockDag, k: int) -> frozenset[BlockId]:
    """Exact maximum k-cluster by pruned exhaustive search.

    Exponential; refuses DAGs above ORACLE_CAP blocks. Among equal-size
    maxima the lexicographically smallest (by sorted id sequence) wins,
    which the include-first search order guarantees.
    """
    GhostdagParams(k)  # validates k
    n = len(dag.blocks)
    if n > ORACLE_CAP:
        raise TooLarge(f"{n} blocks exceeds the oracle cap of {ORACLE_CAP}")
    if n == 0:
        return frozenset()

    ids = sorted(dag.blocks)
    anticone_mask = []
    index = {bid: i for i, bid in enumerate(ids)}
    for bid in ids:
        mask = 0
        for other in dag.anticone(bid):
            mask |= 1 << index[other]
        anticone_mask.append(mask)

    counts = [0] * n
    best = {"mask": 0, "size": 0}

    def dfs(i: int, chosen: int, size: int):
        if size + (n - i) <= best["size"]:
            return
        if i == n:
            best["mask"], best["size"] = chosen, size
            return
        overlap = anticone_mask[i] & chosen
        ok = overlap.bit_count() <= k
        touched = []
        if ok:
            m = overlap
            while m:
                low = m & -m
                m ^= low
                j = low.bit_length() - 1
                if counts[j] + 1 > k:
                    ok = False
                    break
                counts[j] += 1
                touched.append(j)
        if ok:
            counts[i] = overlap.bit_count()
            dfs(i + 1, chosen | (1 << i), size + 1)
            counts[i] = 0
        for j in touched:
            counts[j] -= 1
        dfs(i + 1, chosen, size)

    dfs(0, 0, 0)
    mask = best["mask"]
    return frozenset(ids[i] for i in range(n) if mask & (1 << i))


class _Engine:
    """Per-block GHOSTDAG data, computed in insertion order.

    Each block keeps only what its own merge decided (Algorithm 1 of the
    GHOSTDAG paper cited above):

    - its selected parent, the parent of highest blue score (ties to the
      smaller id);
    - its mergeset blues: the block itself, then the mergeset members it
      admitted, in ascending (blue score, id) order;
    - its blue score, the selected parent's plus one plus the admitted count;
    - the blue anticone sizes it changed: each admitted block's count of
      blue blocks in its anticone, and the raised count of every older blue
      block in an admitted block's anticone.

    The block itself is implied, not stored: it is the first of its
    mergeset blues, and its own anticone size is 0 until a later block
    raises it. Most blocks admit nothing, so they share one empty tuple and
    one empty dict.

    A block's blue set is the union of the mergeset blues along its
    selected-parent chain, so it is never stored. The k-cluster test for a
    candidate walks that chain down from the selected parent and stops at
    the first chain block in the candidate's past; a blue block's current
    anticone size is the one recorded nearest on the chain. Blocks are
    indexed by insertion order, and the parent indices and past windows are
    the ones the DAG keeps (see BlockDag), read and never written: x is an
    ancestor of c when x < low[c] or bit x - low[c] of win[c] is set. The
    mergeset is the block's window minus the selected parent's, both
    rebased to the selected parent's low.

    greedy picks the selected parent and filters the mergeset inline, and
    calls _merge only for the members the k-deep filter leaves. Before it
    builds the mergeset it tests the non-selected parents: a member is one
    of them or in one's past, so a member with the k-deep chain block in
    its past puts that block in a non-selected parent's past too, and when
    none has it the block costs one score update. The virtual block is
    index len(ids), the last turn of the same loop, with the tips as its
    parents and their joined window as its past; the per-block lists hold
    one entry for it.
    """

    def __init__(self, dag: BlockDag):
        self.dag = dag
        self.ids = list(dag.blocks)
        self.index, self.parent_index = dag.index, dag.parent_index
        self.low, self.win = dag.low, dag.win
        n = len(self.ids) + 1  # the virtual block is the last
        self.score: list[int] = [0] * n
        self.parent: list[int] = [-1] * n  # selected parent index; -1 at genesis
        self.mergeset_blues: list[tuple[int, ...]] = [()] * n  # admitted only
        self.anticone_sizes: list[dict[int, int]] = [{}] * n

    # Coloring

    def greedy(self, k: int) -> tuple[tuple[int, ...], int]:
        """Color every block, then the virtual block over the current tips.

        Returns the virtual block's admitted blues and its selected parent,
        the selected tip (-1 on an empty DAG).
        """
        low, win, score, parent, ids = self.low, self.win, self.score, self.parent, self.ids
        tips = [self.index[t] for t in self.dag.tips]
        virtual = (tips, *join_windows(tips, low, win))
        blocks = itertools.chain(zip(self.parent_index, low, win), [virtual])
        candidates: list[int] = []  # one list, refilled for every merge
        for i, (parents, lo, w) in enumerate(blocks):
            if not parents:
                score[i] = 1
                continue
            sp = parents[0]
            if len(parents) > 1:
                best = score[sp]
                for p in parents:  # highest blue score, ties to the smaller id
                    s = score[p]
                    if s > best or (s == best and ids[p] < ids[sp]):
                        sp, best = p, s
            parent[i] = sp
            score[i] = score[sp] + 1
            if len(parents) == 1:
                continue  # a lone parent is the selected one and leaves nothing to merge
            # A candidate whose past misses the chain block k steps below sp
            # misses the k+1 chain blocks from sp down to there as well,
            # which are blue blocks in its anticone, so it cannot be
            # admitted. Below genesis deep is -1, under every low, so it is
            # in every block's past.
            deep = sp
            for _ in range(k):
                if deep == -1:
                    break
                deep = parent[deep]
            # Every mergeset member is a parent q other than sp or in q's
            # past, so a candidate puts deep in such a q's past too: with
            # no such q there is nothing to merge. (A loop, since any()
            # over a generator costs about a quarter more of greedy at k=3.)
            for q in parents:
                if q != sp and (deep < low[q] or (win[q] >> (deep - low[q])) & 1):
                    break
            else:
                continue
            # the mergeset: i's past minus sp's past and sp, rebased to sp's
            # low (sp's past lies inside i's, so lo >= base)
            base = low[sp]
            shift = lo - base
            fresh = ((w << shift) | ((1 << shift) - 1)) & ~(win[sp] | (1 << (sp - base)))
            if deep > base:
                # insertion order is topological, so no block inserted
                # before deep has it in its past
                fresh &= -1 << (deep - base)
            while fresh:
                bit = fresh & -fresh
                fresh ^= bit
                c = base + bit.bit_length() - 1
                if deep < low[c] or (win[c] >> (deep - low[c])) & 1:
                    candidates.append(c)
            if candidates:
                admitted, sizes = self._merge(sp, candidates, k)
                candidates.clear()
                if admitted:
                    score[i] += len(admitted)
                    self.mergeset_blues[i] = tuple(admitted)
                    self.anticone_sizes[i] = sizes
        return self.mergeset_blues[-1], parent[-1]

    def _merge(self, sp: int, candidates: list[int], k: int) -> tuple[list[int], dict[int, int]]:
        """Admit candidates in (blue score, id) order while the blue set
        stays a k-cluster; sorts candidates in place. Returns the admitted
        blocks and the anticone sizes this merge changed."""
        candidates.sort(key=lambda c: (self.score[c], self.ids[c]))
        admitted: list[int] = []
        sizes: dict[int, int] = {}
        for c in candidates:
            anticone = self._blue_anticone(c, sp, admitted, k)
            if anticone is None:
                continue
            raised = []
            for x in anticone:
                size = self._anticone_size(x, sp, sizes)
                if size >= k:
                    break
                raised.append(size + 1)
            else:
                sizes.update(zip(anticone, raised))
                sizes[c] = len(anticone)
                admitted.append(c)
        return admitted, sizes

    def _blue_anticone(self, c: int, sp: int, admitted: list[int], k: int) -> list[int] | None:
        """The blue blocks in c's anticone, or None when there are more than k.

        A blue block is never in c's future, so it is in the anticone
        exactly when it is not in c's past.
        """
        low, win = self.low[c], self.win[c]
        found = [x for x in admitted if x >= low and not (win >> (x - low)) & 1]
        j = sp
        while len(found) <= k:
            if j < low or (win >> (j - low)) & 1:
                return found
            found.append(j)
            for x in self.mergeset_blues[j]:
                if x >= low and not (win >> (x - low)) & 1:
                    found.append(x)
            j = self.parent[j]
        return None

    def _anticone_size(self, x: int, sp: int, sizes: dict[int, int]) -> int:
        """Blue anticone size of blue block x as of the merge in progress."""
        size = sizes.get(x)
        j = sp
        while size is None:
            size = 0 if j == x else self.anticone_sizes[j].get(x)
            j = self.parent[j]
        return size

    def coloring(self, chain: list[int], virtual_blues: tuple[int, ...]) -> Coloring:
        """The global coloring: blue is the mergeset blues along the chain
        from the selected tip down, and the virtual block's."""
        ids = self.ids
        blue = frozenset(
            [ids[x] for ci in chain for x in (ci, *self.mergeset_blues[ci])]
            + [ids[x] for x in virtual_blues]
        )
        return Coloring(
            blue=blue,
            red=frozenset(ids) - blue,
            blue_score=dict(zip(ids, self.score)),
            selected_parent={bid: ids[sp] for bid, sp in zip(ids, self.parent) if sp != -1},
        )

    # Ordering

    def chain(self, tip: int) -> list[int]:
        """The selected-parent chain from genesis up to tip."""
        out = []
        while tip != -1:
            out.append(tip)
            tip = self.parent[tip]
        out.reverse()
        return out

    def order_blocks(self, chain: list[int], virtual_blues: list[int]) -> list[BlockId]:
        """Total order anchored on the selected-parent chain.

        Walking the chain from genesis upward, each chain block contributes
        its mergeset blues in ascending (blue score, id) order, itself last;
        emitting a block first pulls in its missing ancestors depth-first,
        which is where red blocks enter. Once a chain block is done, exactly
        its past and itself have been emitted. The virtual block's blues
        follow, then every block left, under the same rule.
        """
        ids, parent_index, score = self.ids, self.parent_index, self.score
        n = len(ids)
        emitted = bytearray(n)
        out: list[int] = []

        def sort_key(i: int):
            return (score[i], ids[i])

        def emit(i: int):
            if emitted[i]:
                return
            # ~node marks a node whose parents are pushed above it
            stack = [i]
            while stack:
                node = stack.pop()
                if node >= 0:
                    if emitted[node]:
                        continue
                    # the pending list is built only when a parent is missing
                    parents = parent_index[node]
                    for j in parents:
                        if not emitted[j]:
                            pending = [p for p in parents if not emitted[p]]
                            if len(pending) > 1:
                                # pushed in descending key order so the smallest pops first
                                pending.sort(key=sort_key, reverse=True)
                            stack.append(~node)
                            stack += pending
                            break
                    else:
                        emitted[node] = 1
                        out.append(node)
                    continue
                # every block pushed above it has been emitted, its parents too
                node = ~node
                emitted[node] = 1
                out.append(node)

        for ci in chain:
            for x in self.mergeset_blues[ci]:
                emit(x)
            emit(ci)
        for x in virtual_blues:
            emit(x)
        for x in sorted((i for i in range(n) if not emitted[i]), key=sort_key):
            emit(x)
        return [ids[i] for i in out]


def ghostdag_run(dag: BlockDag, params: GhostdagParams) -> OrderedDag:
    """Color the DAG from the virtual block's view, then order it. The
    Coloring is built on the first read of .coloring."""
    engine = _Engine(dag)
    virtual_blues, selected_tip = engine.greedy(params.k)
    chain = engine.chain(selected_tip)
    order = tuple(engine.order_blocks(chain, virtual_blues))
    return OrderedDag(order, functools.partial(engine.coloring, chain, virtual_blues))


def k_for_network(delay: float, rate: float, delta: float) -> int:
    """Smallest k such that more than k+1 blocks in a 2*delay window is
    rarer than delta, for block creation as a Poisson process of the given
    rate. k+1 is then the high-probability cap on concurrent blocks.
    """
    for name, value in (("delay", delay), ("rate", rate)):
        if not (float_time(value) and value > 0):
            raise InvalidParameter(f"{name} must be positive and finite, got {shown(value)}")
    if not (float_time(delta) and 0 < delta < 1):
        raise InvalidParameter(f"delta must be in (0, 1), got {shown(delta)}")
    mu = 2.0 * delay * rate
    if mu == math.inf:
        raise InvalidParameter("2 * delay * rate overflows the float range")
    if mu == 0.0:
        # underflowed, and the log below would fail; every mu down to
        # about 2e-300 already gives 0
        return 0
    cap = 10_000_000  # the most terms summed
    log_mu = math.log(mu)

    def log_term(m: int) -> float:
        return -mu + m * log_mu - math.lgamma(m + 1)

    # the log-term rises up to the mode, and every term below exp(-800) is
    # 0.0 as a float, so the sum starts at the first that is not, found by
    # bisection, with cdf as it would be had it summed from 0
    lo, hi = 0, min(int(mu), cap + 1)
    while lo < hi:
        mid = (lo + hi) // 2
        if log_term(mid) < -800.0:
            lo = mid + 1
        else:
            hi = mid
    cdf = 0.0
    for m in range(lo, cap + 1):
        term = math.exp(log_term(m))
        stalled = cdf + term == cdf
        cdf += term
        if m >= 1 and 1.0 - cdf < delta:
            return m - 1
        # past the mode the terms only shrink, so once one leaves the sum
        # unchanged every later one does: the cap would be reached unmoved
        if stalled and m > mu:
            break
    raise InvalidParameter("window parameters do not converge")
