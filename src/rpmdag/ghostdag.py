"""GHOSTDAG consensus: greedy k-cluster coloring and a deterministic total order.

A k-cluster is a set of blocks in which every member has at most k other
members in its anticone. Finding the maximum k-cluster is NP hard, so the
protocol colors greedily, one block at a time: each block inherits its
selected parent's blue set and then admits blocks from its mergeset while
the k-cluster property holds. A brute-force oracle is provided for small
DAGs so the greedy result can be checked against the true maximum.

The global coloring is the view of a virtual block whose parents are the
current tips. All tie-breaking is lexicographic on block ids, so results
are deterministic for a given DAG and k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .dag import BlockDag, BlockId
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
    if not isinstance(k, int) or isinstance(k, bool) or k < 0:
        raise InvalidParameter(f"k must be a nonnegative integer, got {k!r}")
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
    if not isinstance(k, int) or isinstance(k, bool) or k < 0:
        raise InvalidParameter(f"k must be a nonnegative integer, got {k!r}")
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


def ghostdag_run(dag: BlockDag, params: GhostdagParams) -> OrderedDag:
    """Color the DAG from the virtual block's view, then order it."""
    engine = _Engine(dag)
    blue_mask, selected_tip = engine.greedy(params.k)
    blue = frozenset(engine.ids[i] for i in _bits(blue_mask))
    coloring = Coloring(
        blue=blue,
        red=frozenset(engine.ids) - blue,
        blue_score=dict(zip(engine.ids, engine.score)),
        selected_parent=engine.selected_parent,
        k=params.k,
    )
    order = engine.order_blocks(blue_mask, selected_tip)
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
