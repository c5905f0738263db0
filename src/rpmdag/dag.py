"""Block DAG data structures and reachability queries.

A block may reference several parents, so history forms a directed acyclic
graph rather than a chain. Relative to any block b the DAG partitions into
past(b) (reachable by following parents), future(b) (blocks that reach b),
the anticone (everything else), and b itself.

BlockDag keeps its blocks in insertion order, and add() refuses a block
whose parents are not there yet, so that order is always topological:
every block comes after its whole past. Reachability questions are
answered from one windowed structure built in that order: each block
keeps a low-water index below which every block is its ancestor, and a
bitmask window over the blocks from there up. A window spans the blocks
still concurrent with the block, so it stays as narrow as the DAG is wide
rather than growing with its length; only a block that is never merged
holds every later window open.

BlockDag is a plain value container: reads are safe to share, mutation
requires exclusive access.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import (
    DuplicateBlock,
    FormatError,
    GenesisConflict,
    MissingParent,
    NotAPermutation,
    UnknownBlock,
)
from .hashing import digest, encode_bytes, encode_f64, encode_str

BlockId = bytes
NodeId = str

GENESIS_TIMESTAMP = 0.0


def block_id(parents, payload_ids, timestamp: float, creator: str) -> BlockId:
    """Digest of the canonical block serialization.

    Parents are hashed in sorted order so that id assignment does not
    depend on the order a creator happened to list them in.
    """
    parts = [encode_bytes(b"".join(sorted(parents)))]
    parts.append(encode_bytes(b"".join(payload_ids)))
    parts.append(encode_f64(timestamp))
    parts.append(encode_str(creator))
    return digest(b"".join(parts))


@dataclass(frozen=True)
class Block:
    """One block: identity, parent references, payload, and provenance.

    Payload items are opaque here; each must expose a 32-byte `.id` so the
    block digest can bind them.
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
        return cls(id=bid, parents=parents, payload=payload, timestamp=timestamp, creator=creator)

    @property
    def is_genesis(self) -> bool:
        return not self.parents

    def short_id(self) -> str:
        return self.id.hex()[:12]


def genesis_block(creator: NodeId = "genesis", timestamp: float = GENESIS_TIMESTAMP) -> Block:
    return Block.create((), (), timestamp, creator)


@dataclass
class BlockDag:
    """Append-only block DAG with parent and child indexes.

    `blocks` is in insertion order, and add() takes a block only once its
    parents are present, so that order is topological.
    """

    blocks: dict[BlockId, Block] = field(default_factory=dict)
    children: dict[BlockId, set[BlockId]] = field(default_factory=dict)
    tips: set[BlockId] = field(default_factory=set)
    genesis: BlockId | None = None

    def __len__(self) -> int:
        return len(self.blocks)

    def __contains__(self, bid: BlockId) -> bool:
        return bid in self.blocks

    def add(self, block: Block) -> "BlockDag":
        """Insert a block whose parents are already present.

        Orphans are the caller's problem: a missing parent raises rather
        than being buffered.
        """
        if block.id in self.blocks:
            raise DuplicateBlock(f"block {block.short_id()} already present")
        if not block.parents:
            if self.genesis is not None:
                raise GenesisConflict("dag already has a genesis block")
        else:
            missing = [p for p in block.parents if p not in self.blocks]
            if missing:
                shown = ",".join(p.hex()[:12] for p in missing)
                raise MissingParent(f"block {block.short_id()} references unknown parents {shown}")
            if len(set(block.parents)) != len(block.parents):
                raise FormatError(f"block {block.short_id()} lists a parent twice")

        self.blocks[block.id] = block
        self.children[block.id] = set()
        for p in block.parents:
            self.children[p].add(block.id)
            self.tips.discard(p)
        self.tips.add(block.id)
        if block.is_genesis:
            self.genesis = block.id
        return self

    def block(self, bid: BlockId) -> Block:
        try:
            return self.blocks[bid]
        except KeyError:
            raise UnknownBlock(f"no block {bid.hex()[:12]}") from None

    def parents(self, bid: BlockId) -> tuple[BlockId, ...]:
        return self.block(bid).parents

    def past(self, bid: BlockId) -> set[BlockId]:
        """All strict ancestors of bid."""
        self.block(bid)
        seen: set[BlockId] = set()
        stack = list(self.blocks[bid].parents)
        while stack:
            cur = stack.pop()
            if cur in seen:
                continue
            seen.add(cur)
            stack.extend(self.blocks[cur].parents)
        return seen

    def future(self, bid: BlockId) -> set[BlockId]:
        """All strict descendants of bid."""
        self.block(bid)
        seen: set[BlockId] = set()
        stack = list(self.children[bid])
        while stack:
            cur = stack.pop()
            if cur in seen:
                continue
            seen.add(cur)
            stack.extend(self.children[cur])
        return seen

    def anticone(self, bid: BlockId) -> set[BlockId]:
        """Blocks neither reachable from bid nor reaching it."""
        related = self.past(bid) | self.future(bid)
        related.add(bid)
        return set(self.blocks) - related

    def topological_order(self) -> list[BlockId]:
        """Parents-first order, deterministic via sorted tie-breaking.

        Unlike insertion order it does not depend on the order blocks
        arrived in, which is why the text and DOT exports and saved ledgers
        are written in it.
        """
        indegree = {bid: len(b.parents) for bid, b in self.blocks.items()}
        ready = sorted(bid for bid, deg in indegree.items() if deg == 0)
        out: list[BlockId] = []
        while ready:
            cur = ready.pop(0)
            out.append(cur)
            added = False
            for child in self.children[cur]:
                indegree[child] -= 1
                if indegree[child] == 0:
                    ready.append(child)
                    added = True
            if added:
                ready.sort()
        return out

    def past_windows(self) -> tuple[list[BlockId], dict[BlockId, int], list[int], list[int]]:
        """Ids in insertion order, their index, and each block's past as a window.

        Insertion order is topological (add() refuses a block before its
        parents), so every parent's window is built before its children's.
        Every index below low[i] is a strict ancestor of ids[i], and bit j
        of win[i] says whether index low[i] + j is one. Bit 0 is always
        clear, so low[i] is the first index that is not an ancestor, and a
        reachability test is `x < low[i] or (win[i] >> (x - low[i])) & 1`.
        """
        ids = list(self.blocks)
        index = {bid: i for i, bid in enumerate(ids)}
        low: list[int] = []
        win: list[int] = []
        for block in self.blocks.values():
            lo, w = join_windows([index[p] for p in block.parents], low, win)
            low.append(lo)
            win.append(w)
        return ids, index, low, win

    def past_masks(self) -> tuple[list[BlockId], dict[BlockId, int], list[int]]:
        """past_windows() expanded to full-width masks: bit j of the i-th
        mask is set when ids[j] is a strict ancestor of ids[i]."""
        ids, index, low, win = self.past_windows()
        return ids, index, [((1 << lo) - 1) | (w << lo) for lo, w in zip(low, win)]

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

_TOKEN = re.compile(r"^[A-Za-z0-9_.-]+$")


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
        if not _TOKEN.match(token):
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
