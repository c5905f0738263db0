"""Block DAG data structures and reachability queries.

A block may reference several parents, so history forms a directed acyclic
graph rather than a chain. Relative to any block b the DAG partitions into
past(b) (reachable by following parents), future(b) (blocks that reach b),
the anticone (everything else), and b itself.

BlockDag keeps its blocks in insertion order, and add() refuses a block
whose parents are not there yet, so that order is always topological:
every block comes after its whole past. add() is the one place that
builds reachability: as it takes a block it records the block's
insertion index, its parents' indices and its past window, joined from
the parents' windows by join_windows, and nothing else. A window is a
low-water index below which every block is an ancestor, and a bitmask
over the blocks from there up. It spans the blocks still concurrent with
the block, so it stays as narrow as the DAG is wide rather than growing
with its length; only a block that is never merged holds every later
window open.

Every other reachability read comes from those windows: the tips, and
past, future and anticone. No tip set or child list is kept beside them.

BlockDag is a plain value container: reads are safe to share, mutation
requires exclusive access.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from .errors import (
    DuplicateBlock,
    FormatError,
    GenesisConflict,
    MissingParent,
    NotAPermutation,
    UnknownBlock,
)
from .hashing import digest, encode_f64, opaque_token, pack_u32

BlockId = bytes
NodeId = str

GENESIS_TIMESTAMP = 0.0


def block_id(parents, payload_ids, timestamp: float, creator: str) -> BlockId:
    """Digest of the canonical block serialization: the joined parents, the
    joined payload ids and the creator each as encode_bytes writes them,
    and the timestamp as encode_f64 does, spelt in one join.

    Parents are hashed in sorted order so that id assignment does not
    depend on the order a creator happened to list them in.
    """
    parents = b"".join(sorted(parents))
    payload = b"".join(payload_ids)
    name = creator.encode()
    return digest(b"".join((pack_u32(len(parents)), parents, pack_u32(len(payload)), payload,
                            encode_f64(timestamp), pack_u32(len(name)), name)))


@dataclass(frozen=True, slots=True)
class Block:
    """One block: identity, parent references, payload, and provenance.

    Payload items are opaque here; each must expose a 32-byte `.id` so the
    block digest can bind them. Slotted, so a block is one object with no
    per-instance __dict__ beside it.
    """

    id: BlockId
    parents: tuple[BlockId, ...]
    payload: tuple = ()
    timestamp: float = 0.0
    creator: NodeId = ""

    @classmethod
    def create(cls, parents, payload=(), timestamp: float = 0.0, creator: NodeId = "") -> "Block":
        parents = tuple(parents)
        payload = tuple(payload)
        bid = block_id(parents, [item.id for item in payload], timestamp, creator)
        return cls(bid, parents, payload, timestamp, creator)  # positional is faster

    def short_id(self) -> str:
        return self.id.hex()[:12]


def genesis_block(creator: NodeId = "genesis") -> Block:
    return Block.create((), (), GENESIS_TIMESTAMP, creator)


@dataclass
class BlockDag:
    """Append-only block DAG with its reachability kept per block.

    `blocks` is in insertion order, and add() takes a block only once its
    parents are present, so that order is topological. For the i-th block
    inserted, add() also records:

    - `index[id]`: i;
    - `parent_index[i]`: its parents' indices, in the order the block
      lists them;
    - `low[i]` and `win[i]`: its past as a window. Every index below
      low[i] is a strict ancestor of the i-th block, and bit j of win[i]
      says whether index low[i] + j is one. Bit 0 is always clear, so
      low[i] is the first index that is not an ancestor, and a
      reachability test is `x < low[i] or (win[i] >> (x - low[i])) & 1`.

    add() writes these, `blocks` and `genesis`, and nothing else, which
    is why no field is a constructor argument; callers read them and must
    not mutate them. The tips, past, future and anticone are read from the
    windows. No child index is kept: topological_order builds one with
    child_indices().
    """

    blocks: dict[BlockId, Block] = field(default_factory=dict, init=False)
    genesis: BlockId | None = field(default=None, init=False)
    index: dict[BlockId, int] = field(default_factory=dict, init=False, repr=False, compare=False)
    parent_index: list[tuple[int, ...]] = field(
        default_factory=list, init=False, repr=False, compare=False
    )
    low: list[int] = field(default_factory=list, init=False, repr=False, compare=False)
    win: list[int] = field(default_factory=list, init=False, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.blocks)

    def __contains__(self, bid: BlockId) -> bool:
        return bid in self.blocks

    def add(self, block: Block) -> "BlockDag":
        """Insert a block whose parents are already present.

        Orphans are the caller's problem: a missing parent raises rather
        than being buffered. Every check runs before the first write, so
        a refused block leaves the DAG as it was.
        """
        index = self.index
        bid, named = block.id, block.parents
        if bid in index:
            raise DuplicateBlock(f"block {block.short_id()} already present")
        if not named:
            if self.genesis is not None:
                raise GenesisConflict("dag already has a genesis block")
            parents: tuple[int, ...] = ()
        else:
            try:
                parents = tuple([index[p] for p in named])
            except KeyError:
                shown = ",".join(p.hex()[:12] for p in named if p not in index)
                raise MissingParent(
                    f"block {block.short_id()} references unknown parents {shown}"
                ) from None
            if len(parents) > 1 and len(set(parents)) != len(parents):
                raise FormatError(f"block {block.short_id()} lists a parent twice")
        lo, w = join_windows(parents, self.low, self.win)

        index[bid] = len(self.blocks)
        self.blocks[bid] = block
        self.parent_index.append(parents)
        self.low.append(lo)
        self.win.append(w)
        if not parents:
            self.genesis = bid
        return self

    @property
    def tips(self) -> set[BlockId]:
        """The blocks no other block names as a parent, as a fresh set.

        A block is a tip when no later block has it in its past. The walk
        goes back from the newest block and keeps the union of the pasts
        walked so far, rebased to the highest low seen as join_windows
        rebases. Every block below that low is in the union, so the walk
        stops there: a read costs about the DAG's width, not its length.
        """
        low, win = self.low, self.win
        tips: set[BlockId] = set()
        base = mask = 0
        for i, bid in zip(range(len(low) - 1, -1, -1), reversed(self.blocks)):
            if i < base:
                break
            if not (mask >> (i - base)) & 1:
                tips.add(bid)
            lo = low[i]
            if lo > base:
                mask = (mask >> (lo - base)) | win[i]
                base = lo
            else:
                mask |= win[i] >> (base - lo)
        return tips

    def block(self, bid: BlockId) -> Block:
        try:
            return self.blocks[bid]
        except KeyError:
            raise UnknownBlock(f"no block {bid.hex()[:12]}") from None

    def past(self, bid: BlockId) -> set[BlockId]:
        """All strict ancestors of bid: every block below its low, and the
        ones its window marks."""
        self.block(bid)
        i = self.index[bid]
        ids, lo, w = list(self.blocks), self.low[i], self.win[i]
        return set(ids[:lo]).union(ids[j] for j in range(lo, i) if (w >> (j - lo)) & 1)

    def future(self, bid: BlockId) -> set[BlockId]:
        """All strict descendants of bid: the later blocks whose window
        holds it."""
        self.block(bid)
        x = self.index[bid]
        ids, low, win = list(self.blocks), self.low, self.win
        return {ids[c] for c in range(x + 1, len(ids))
                if x < low[c] or (win[c] >> (x - low[c])) & 1}

    def anticone(self, bid: BlockId) -> set[BlockId]:
        """Blocks neither reachable from bid nor reaching it: the earlier
        blocks its window leaves out, and the later blocks whose windows
        leave it out."""
        self.block(bid)
        x = self.index[bid]
        ids, low, win = list(self.blocks), self.low, self.win
        lo, w = low[x], win[x]
        earlier = {ids[c] for c in range(lo, x) if not (w >> (c - lo)) & 1}
        return earlier.union(ids[c] for c in range(x + 1, len(ids))
                             if x >= low[c] and not (win[c] >> (x - low[c])) & 1)

    def child_indices(self) -> list[list[int]]:
        """Each block's children as insertion indices, in insertion order,
        built from parent_index."""
        children: list[list[int]] = [[] for _ in self.parent_index]
        for i, parents in enumerate(self.parent_index):
            for p in parents:
                children[p].append(i)
        return children

    def topological_order(self) -> list[BlockId]:
        """Parents-first order, deterministic via sorted tie-breaking.

        Unlike insertion order it does not depend on the order blocks
        arrived in, which is why the text and DOT exports and saved ledgers
        are written in it.
        """
        ids = list(self.blocks)
        children = self.child_indices()
        indegree = [len(parents) for parents in self.parent_index]
        # a min-heap of ready ids (a sorted list is one): the smallest goes first
        ready = sorted(bid for bid, deg in zip(ids, indegree) if deg == 0)
        out: list[BlockId] = []
        while ready:
            cur = heapq.heappop(ready)
            out.append(cur)
            for child in children[self.index[cur]]:
                indegree[child] -= 1
                if indegree[child] == 0:
                    heapq.heappush(ready, ids[child])
        return out

    def past_masks(self) -> tuple[list[BlockId], dict[BlockId, int], list[int]]:
        """Ids in insertion order, their index, and the past windows
        expanded to full-width masks: bit j of the i-th mask is set when
        ids[j] is a strict ancestor of ids[i]."""
        masks = [((1 << lo) - 1) | (w << lo) for lo, w in zip(self.low, self.win)]
        return list(self.blocks), self.index, masks

    def is_linear_extension(self, order) -> bool:
        """True iff order lists every block exactly once, parents first."""
        order = list(order)
        if len(order) != len(self.blocks) or set(order) != set(self.blocks):
            raise NotAPermutation("order does not list every block exactly once")
        position = {bid: i for i, bid in enumerate(order)}
        for bid, block in self.blocks.items():
            for p in block.parents:
                if position[p] >= position[bid]:
                    return False
        return True


def join_windows(parents, low: list[int], win: list[int]) -> tuple[int, int]:
    """The (low, win) window of a block with the given parent indices.

    Each parent contributes its past and itself, rebased to the largest
    parent low: every index below that is an ancestor of that parent
    already. The union is kept rebased to the largest low seen so far and
    shifted down when a parent raises it. The trailing ones of the union,
    ancestors too, are folded into the new low.
    """
    base = mask = 0
    for p in parents:
        lo = low[p]
        bits = win[p] | (1 << (p - lo))
        if lo > base:
            mask = (mask >> (lo - base)) | bits
            base = lo
        else:
            mask |= bits >> (base - lo)
    ones = (mask ^ (mask + 1)).bit_length() - 1
    return base + ones, mask >> ones


# Text format: one block per line, parents first.
#   <token>: <parent-token>,<parent-token>
# A line with no parents declares the genesis. Tokens are arbitrary names
# that are mapped to content digests on import.


def parse_dag_text(text: str) -> tuple[BlockDag, dict[str, BlockId]]:
    """Build a DAG from the text format. Returns (dag, token -> id map)."""
    dag = BlockDag()
    names: dict[str, BlockId] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise FormatError(f"line {lineno}: expected '<id>: <parents>'")
        token, _, rest = line.partition(":")
        token = token.strip()
        if not opaque_token(token):
            raise FormatError(f"line {lineno}: bad block id {token!r}")
        if token in names:
            raise DuplicateBlock(f"line {lineno}: block {token!r} declared twice")
        parent_tokens = [p.strip() for p in rest.split(",") if p.strip()]
        parent_ids = []
        for p in parent_tokens:
            if p not in names:
                raise MissingParent(f"line {lineno}: block {token!r} references unknown parent {p!r}")
            parent_ids.append(names[p])
        block = Block.create(parent_ids, (), GENESIS_TIMESTAMP, token)
        names[token] = block.id
        dag.add(block)
    return dag, names


def export_dag_text(dag: BlockDag, names: dict[str, BlockId] | None = None) -> str:
    """Emit the text format in deterministic parents-first order."""
    tokens = _token_map(dag, names)
    lines = []
    for bid in dag.topological_order():
        parents = ",".join(sorted(tokens[p] for p in dag.blocks[bid].parents))
        lines.append(f"{tokens[bid]}: {parents}".rstrip())
    return "\n".join(lines) + "\n"


def export_dag_dot(dag: BlockDag, names: dict[str, BlockId] | None = None) -> str:
    """DOT digraph with one edge per parent reference, child -> parent."""
    tokens = _token_map(dag, names)
    lines = ["digraph blockdag {"]
    for bid in dag.topological_order():
        block = dag.blocks[bid]
        if not block.parents:
            lines.append(f'  "{tokens[bid]}";')
        for p in sorted(block.parents, key=lambda q: tokens[q]):
            lines.append(f'  "{tokens[bid]}" -> "{tokens[p]}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _token_map(dag: BlockDag, names: dict[str, BlockId] | None) -> dict[BlockId, str]:
    if names is None:
        return {bid: bid.hex()[:12] for bid in dag.blocks}
    reverse = {bid: token for token, bid in names.items()}
    missing = set(dag.blocks) - set(reverse)
    if missing:
        raise UnknownBlock("name map does not cover every block")
    return reverse
