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

Everything is computed in insertion order, in one pass over the DAG:
BlockDag.add refuses a block before its parents, so that order is
topological and a block's parents and its whole past come before it.

The global coloring is the view of a virtual block whose parents are the
current tips. All tie-breaking is lexicographic on block ids, so results
are deterministic for a given DAG and k.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

from .dag import BlockDag, BlockId, join_windows
from .errors import InvalidParameter, TooLarge, UnknownBlock

ORACLE_CAP = 20


@dataclass(frozen=True)
class GhostdagParams:
    """Consensus parameters; k bounds the anticone size of blue blocks."""

    k: int

    def __post_init__(self):
        if not isinstance(self.k, int) or isinstance(self.k, bool) or self.k < 0:
            raise InvalidParameter(f"k must be a nonnegative integer, got {self.k!r}")


@dataclass(frozen=True)
class Coloring:
    """Blue/red partition plus per-block consensus data."""

    blue: frozenset[BlockId]
    red: frozenset[BlockId]
    blue_score: dict[BlockId, int]
    selected_parent: dict[BlockId, BlockId]
    k: int


@dataclass(frozen=True)
class OrderedDag:
    """A coloring together with the total order it induces."""

    order: tuple[BlockId, ...]
    coloring: Coloring

    def position(self, bid: BlockId) -> int:
        return self.order.index(bid)


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
    """

    def __init__(self, dag: BlockDag):
        self.dag = dag
        self.ids = list(dag.blocks)
        self.index, self.parent_index = dag.index, dag.parent_index
        self.low, self.win = dag.low, dag.win
        n = len(self.ids)
        self.score: list[int] = [0] * n
        self.parent: list[int] = [-1] * n  # selected parent index; -1 at genesis
        self.mergeset_blues: list[tuple[int, ...]] = [()] * n  # admitted only
        self.anticone_sizes: list[dict[int, int]] = [{}] * n

    # Coloring

    def greedy(self, k: int) -> tuple[list[int], int]:
        """Color every block, then the virtual block over the current tips.

        Returns the virtual block's admitted blues and the selected tip
        (-1 on an empty DAG).
        """
        low, win, score = self.low, self.win, self.score
        for i, parents in enumerate(self.parent_index):
            if not parents:
                score[i] = 1
                continue
            if len(parents) == 1:
                # a lone parent is the selected one and leaves nothing to merge
                self.parent[i] = parents[0]
                score[i] = score[parents[0]] + 1
                continue
            sp = self._select(parents)
            admitted, sizes = self._merge(sp, low[i], win[i], k)
            self.parent[i] = sp
            score[i] = score[sp] + 1 + len(admitted)
            if admitted:
                self.mergeset_blues[i] = tuple(admitted)
                self.anticone_sizes[i] = sizes
        if not self.dag.tips:
            return [], -1
        tips = [self.index[t] for t in self.dag.tips]
        virtual_low, virtual_win = join_windows(tips, low, win)
        sp = self._select(tips)
        admitted, _ = self._merge(sp, virtual_low, virtual_win, k)
        return admitted, sp

    def _select(self, parents: Sequence[int]) -> int:
        score, ids = self.score, self.ids
        return min(parents, key=lambda p: (-score[p], ids[p]))

    def _merge(self, sp: int, low: int, win: int, k: int) -> tuple[list[int], dict[int, int]]:
        """Admit mergeset members in (blue score, id) order while the blue
        set stays a k-cluster. The merging block's past is the window
        (low, win). Returns the admitted blocks and the anticone sizes this
        merge changed."""
        # sp's past lies inside the merging block's, so low >= base
        base = self.low[sp]
        shift = low - base
        past = (win << shift) | ((1 << shift) - 1)
        fresh = past & ~(self.win[sp] | (1 << (sp - base)))
        # A candidate whose past misses the chain block k steps below sp
        # misses the k+1 chain blocks from sp down to there as well, which
        # are blue blocks in its anticone, so it cannot be admitted.
        deep = sp
        for _ in range(k):
            if deep == -1:
                break
            deep = self.parent[deep]
        if deep > base:
            # insertion order is topological, so no block inserted before
            # deep has it in its past
            fresh &= -1 << (deep - base)
        candidates = []
        while fresh:
            bit = fresh & -fresh
            fresh ^= bit
            c = base + bit.bit_length() - 1
            if deep == -1 or deep < self.low[c] or (self.win[c] >> (deep - self.low[c])) & 1:
                candidates.append(c)
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
            stack = [(i, False)]
            while stack:
                node, expanded = stack.pop()
                if emitted[node]:
                    continue
                if not expanded:
                    pending = [j for j in parent_index[node] if not emitted[j]]
                    if pending:
                        # pushed in descending key order so the smallest pops first
                        pending.sort(key=sort_key, reverse=True)
                        stack.append((node, True))
                        stack.extend([(j, False) for j in pending])
                        continue
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
    """Color the DAG from the virtual block's view, then order it."""
    engine = _Engine(dag)
    virtual_blues, selected_tip = engine.greedy(params.k)
    chain = engine.chain(selected_tip)
    ids = engine.ids
    blue = frozenset(
        [ids[x] for ci in chain for x in (ci, *engine.mergeset_blues[ci])]
        + [ids[x] for x in virtual_blues]
    )
    coloring = Coloring(
        blue=blue,
        red=frozenset(ids) - blue,
        blue_score=dict(zip(ids, engine.score)),
        selected_parent={ids[i]: ids[sp] for i, sp in enumerate(engine.parent) if sp != -1},
        k=params.k,
    )
    order = engine.order_blocks(chain, virtual_blues)
    return OrderedDag(order=tuple(order), coloring=coloring)


def k_for_network(delay: float, rate: float, delta: float) -> int:
    """Smallest k such that more than k+1 blocks in a 2*delay window is
    rarer than delta, for block creation as a Poisson process of the given
    rate. k+1 is then the high-probability cap on concurrent blocks.
    """
    if not (delay > 0) or not math.isfinite(delay):
        raise InvalidParameter(f"delay must be positive, got {delay!r}")
    if not (rate > 0) or not math.isfinite(rate):
        raise InvalidParameter(f"rate must be positive, got {rate!r}")
    if not (0 < delta < 1):
        raise InvalidParameter(f"delta must be in (0, 1), got {delta!r}")
    mu = 2.0 * delay * rate
    log_mu = math.log(mu)
    cdf = 0.0
    m = 0
    while True:
        cdf += math.exp(-mu + m * log_mu - math.lgamma(m + 1))
        if m >= 1 and 1.0 - cdf < delta:
            return m - 1
        m += 1
        if m > 10_000_000:
            raise InvalidParameter("window parameters do not converge")
