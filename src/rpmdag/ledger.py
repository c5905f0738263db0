"""Dual private/public ledgers over the block DAG consensus core.

Both ledgers share the same machinery: transactions wait in a pending
pool, sealing drains the pool into a block on top of the current tips,
and the confirmed stream replays sealed transactions in GHOSTDAG order.
They differ in what they admit. The private ledger carries EHR anchors,
rule evaluations, and access changes. The public ledger admits exactly
one kind, AlertEvent, whose body is held to a closed schema so that no
health data can leak through it: the permitted fields are a patient
pseudonym, a rule id, an EHR record hash, a timestamp, and a severity
tag, and anything else is rejected before pooling.
"""

from __future__ import annotations

import binascii
import contextlib
import hashlib
import os
import re
import stat
from collections.abc import Mapping
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from json.encoder import encode_basestring_ascii
from types import MappingProxyType

from .dag import Block, BlockDag, BlockId, genesis_block
from .errors import (
    DuplicateBlock,
    FormatError,
    KindNotAdmissible,
    PhiLeak,
    StaleLedger,
    Unauthorized,
)
from .ghostdag import GhostdagParams, ghostdag_run
from .hashing import (DIGEST_ALG, canonical_json, digest, float_time, hex_digest,
                      json_number, opaque_token, parse_json, shown, sorted_json, utf8_text,
                      whole_number)

EntityId = str

PRIVATE = "private"
PUBLIC = "public"

POOL_CAP = 1000


class TxKind(Enum):
    EHR_ANCHOR = "ehr_anchor"
    RULE_EVALUATION = "rule_evaluation"
    ALERT_EVENT = "alert_event"
    ACCESS_CHANGE = "access_change"


_KINDS = {kind.value: kind for kind in TxKind}  # faster than TxKind(value)


class Scope(Enum):
    """What an access grant covers; an access_change body names one."""

    EHR_READ = "ehr_read"
    ALERTS_SUBSCRIBE = "alerts_subscribe"
    TREATMENT_HISTORY = "treatment_history"


SCOPE_NAMES = tuple(s.value for s in Scope)


class VitalKind(Enum):
    """The vitals a device measures; validate_alert_body refuses an alert
    identifier that names one."""

    HEART_RATE = "heart_rate"
    SYSTOLIC_BP = "systolic_bp"
    DIASTOLIC_BP = "diastolic_bp"
    GLUCOSE = "glucose"
    RESPIRATION = "respiration"


@dataclass(frozen=True, slots=True)
class Transaction:
    """A ledger entry. Identity covers kind, body, and author; the
    submission time is bookkeeping, so a resubmitted transaction keeps
    its id and the confirmed stream can deduplicate retries.

    The identity bytes, canonical_json of {kind, body, author}, are kept
    as ident, and the saved payload chunk is spliced from them by
    wire_bytes, so each transaction is JSON-encoded once. Like the id,
    they assume the body is not changed after construction. ident is
    spelt around one canonical_json of the body, the same bytes the
    envelope dict encodes to."""

    kind: TxKind
    body: dict
    submitted_at: float
    author: EntityId
    id: bytes = field(init=False)
    ident: bytes = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        author = self.author
        # the keys in sorted order, so author then body is also the order the
        # envelope dict raises in; _value_ is what .value reads, without the
        # property call
        ident = b'{"author":%s,"body":%s,"kind":"%s"}' % (
            encode_basestring_ascii(author).encode() if type(author) is str
            else canonical_json(author),
            canonical_json(self.body), self.kind._value_.encode(),
        )
        object.__setattr__(self, "ident", ident)
        object.__setattr__(self, "id", digest(ident))

    def wire_bytes(self) -> bytes:
        """canonical_json(self.to_wire()), without encoding the body again.

        The wire keys sort as author, body, id, kind, submitted_at, so the
        id goes in before the last ',"kind":' of ident (kind is its last
        key, and its value is an enum name), and submitted_at goes at the
        end, spelt by json_number. A time canonical_json refuses raises
        the same error here."""
        head, sep, tail = self.ident.rpartition(b',"kind":')
        return b'%s,"id":"%s"%s%s,"submitted_at":%s}' % (
            head, self.id.hex().encode(), sep, tail[:-1], json_number(self.submitted_at)
        )

    def to_wire(self) -> dict:
        return {
            "kind": self.kind.value,
            "body": self.body,
            "submitted_at": self.submitted_at,
            "author": self.author,
            "id": self.id.hex(),
        }

    @classmethod
    def from_wire(cls, obj: dict) -> "Transaction":
        try:
            # positional: a frozen dataclass called with keywords is slower;
            # TxKind(value) raises the ValueError that names an unknown kind
            kind = _KINDS.get(obj["kind"]) or TxKind(obj["kind"])
            tx = cls(kind, obj["body"], obj["submitted_at"], obj["author"])
        # a body nested near the recursion limit decodes, but may not encode
        except (KeyError, ValueError, TypeError, RecursionError) as exc:
            raise FormatError(f"bad transaction record: {exc}") from None
        if tx.id.hex() != obj.get("id"):
            raise FormatError("transaction id does not match its content")
        return tx


# Closed schema for public alert bodies. The field list is exhaustive;
# values are shape-checked and may not mention any vital kind by name.

ALERT_SEVERITIES = ("advisory", "urgent")
VITAL_KIND_NAMES = tuple(v.value for v in VitalKind)

_ALERT_FIELDS: dict[str, type | tuple] = {
    "patient": str,
    "rule_id": str,
    "ehr_record_hash": str,
    "occurred_at": (int, float),
    "severity": str,
}


def token_fault(value) -> str | None:
    """Why value may not be an alert's patient or rule_id, or None when it
    is an opaque token that names no vital kind."""
    if not opaque_token(value):
        return "must be an opaque token"
    lowered = value.lower()
    if any(v in lowered for v in VITAL_KIND_NAMES):
        return "names a vital kind"
    return None


def validate_alert_body(body) -> None:
    """Reject anything but the closed AlertEvent schema. Raises PhiLeak."""
    if not isinstance(body, dict):
        raise PhiLeak("alert body must be a flat field map")
    extra = sorted(set(body) - set(_ALERT_FIELDS))
    if extra:
        raise PhiLeak(f"alert body carries fields outside the schema: {extra}")
    missing = sorted(set(_ALERT_FIELDS) - set(body))
    if missing:
        raise PhiLeak(f"alert body is missing fields: {missing}")
    for name, kind in _ALERT_FIELDS.items():
        value = body[name]
        if isinstance(value, bool) or not isinstance(value, kind):
            raise PhiLeak(f"alert field {name!r} has the wrong shape")
    for name in ("patient", "rule_id"):
        fault = token_fault(body[name])
        if fault:
            raise PhiLeak(f"alert field {name!r} {fault}")
    if not hex_digest(body["ehr_record_hash"]):
        raise PhiLeak("ehr_record_hash must be a 64-char hex digest")
    if not float_time(body["occurred_at"]):
        raise PhiLeak("occurred_at must be a finite time a float can hold")
    if body["severity"] not in ALERT_SEVERITIES:
        raise PhiLeak(f"severity must be one of {ALERT_SEVERITIES}")


@dataclass(frozen=True, slots=True)
class ConfirmedTx:
    tx: Transaction
    block: BlockId


@dataclass(frozen=True)
class ConfirmedStream:
    """Confirmed entries in consensus order. The anchor map is built on
    first use only, so a stream that is just iterated holds no index."""

    entries: tuple[ConfirmedTx, ...]

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)

    @cached_property
    def anchors(self) -> Mapping[str, str]:
        """record_id to anchored content hash, first confirmed anchor wins.
        A read-only view, shared by every caller of the stream."""
        out: dict[str, str] = {}
        for entry in self.entries:
            if entry.tx.kind is TxKind.EHR_ANCHOR:
                out.setdefault(entry.tx.body["record_id"], entry.tx.body["content_hash"])
        return MappingProxyType(out)


def _check_anchor_body(body) -> None:
    """An anchor must name its record and the content hash it binds."""
    if not (isinstance(body, dict) and isinstance(body.get("record_id"), str)
            and isinstance(body.get("content_hash"), str)):
        raise FormatError("ehr_anchor body needs string record_id and content_hash")


def _check_access_change_body(body) -> None:
    """A grant or revoke must carry every field the grant table is rebuilt
    from."""
    if not isinstance(body, dict):
        raise FormatError("access_change body must be a field map")
    if body.get("action") not in ("grant", "revoke"):
        raise FormatError("access_change field 'action' must be grant or revoke")
    for name in ("grant_id", "grantor", "grantee"):
        if not isinstance(body.get(name), str):
            raise FormatError(f"access_change field {name!r} must be a string")
    if body.get("scope") not in SCOPE_NAMES:
        raise FormatError(f"access_change field 'scope' must be one of {list(SCOPE_NAMES)}")
    if not float_time(body.get("at")):
        raise FormatError("access_change field 'at' must be a number")


def _header_int(header: dict[str, str], name: str) -> int:
    # only the plain ASCII decimal that _save_lines writes: int() would also
    # take a sign, "_" separators, leading zeros and non-ASCII digits, each
    # of which a re-save rewrites
    text = header[name]
    if not re.fullmatch(r"0|[1-9][0-9]*", text):
        raise FormatError(f"ledger header field {name}={text!r} is not an integer")
    try:
        return int(text)
    except ValueError:  # more digits than int() converts
        raise FormatError(f"ledger header field {name} has {len(text)} digits, too many") from None


class Ledger:
    """One ledger instance: a DAG of sealed blocks plus a pending pool."""

    def __init__(
        self,
        visibility: str,
        k: int,
        authorized_writers,
        max_block_txs: int = POOL_CAP,
    ):
        if visibility not in (PRIVATE, PUBLIC):
            raise FormatError(f"visibility must be private or public, got {visibility!r}")
        if not whole_number(max_block_txs, 1):
            raise FormatError(f"ledger max={shown(max_block_txs)} must be an integer of at least 1")
        self.visibility = visibility
        self.params = GhostdagParams(k)
        self.authorized_writers = set(authorized_writers)
        for writer in sorted(self.authorized_writers):
            # the saved header lists the writers as one comma-separated,
            # whitespace-delimited field of UTF-8 text
            if not utf8_text(writer) or writer.split() != [writer] or "," in writer:
                raise FormatError(
                    f"writer name {writer!r} must be non-empty UTF-8, without ',' or whitespace"
                )
        self.max_block_txs = max_block_txs
        self.dag = BlockDag()
        # the genesis names the digest algorithm, so verification against
        # this ledger is self-describing
        self.dag.add(genesis_block(f"genesis:{visibility}:{DIGEST_ALG}"))
        self.pool: list[Transaction] = []
        self._ever: tuple[set[bytes], set[str]] | None = None  # see _ever_pooled
        self._confirmed: tuple[int, ConfirmedStream] | None = None

    def _ever_pooled(self) -> tuple[set[bytes], set[str]]:
        """The id of every transaction ever pooled or sealed here, and the
        record id of every EHR anchor among them.

        Built by one scan of blocks and pool on the first call and kept
        current by submit from then on. It is built lazily, not in
        load_text, because the read path (load, audit, verify) asks
        neither question: holding an id per transaction beside the loaded
        blocks would only raise its peak memory.
        """
        if self._ever is None:
            self._ever = (set(), set())
            for txs in (*(b.payload for b in self.dag.blocks.values()), self.pool):
                for tx in txs:
                    self._note(tx)
        return self._ever

    def _note(self, tx: Transaction) -> None:
        tx_ids, record_ids = self._ever
        tx_ids.add(tx.id)
        if tx.kind is TxKind.EHR_ANCHOR:
            record_ids.add(tx.body["record_id"])

    def has_tx(self, tx_id: bytes) -> bool:
        """True if the tx id was ever pooled or sealed here."""
        return tx_id in self._ever_pooled()[0]

    def anchored_record_ids(self) -> set[str]:
        """Record ids with an EHR anchor ever pooled or sealed here. The
        set is the ledger's own; callers must not mutate it."""
        return self._ever_pooled()[1]

    def _check_admissible(self, tx: Transaction) -> None:
        """The kind and body rules a transaction must meet on this ledger,
        whether it arrives by submit or from a saved file."""
        # the tx id does not cover submitted_at, so only this check keeps a
        # non-number, a NaN or an int too long to write off the ledger; the
        # rule is the seal time's
        at = tx.submitted_at
        if not float_time(at):
            raise FormatError(
                f"transaction field 'submitted_at' must be a finite number, got {shown(at)}"
            )
        if self.visibility == PUBLIC and tx.kind is not TxKind.ALERT_EVENT:
            raise KindNotAdmissible(
                f"{tx.kind.value} transactions are not accepted on the {self.visibility} ledger"
            )
        if tx.kind is TxKind.ALERT_EVENT:
            validate_alert_body(tx.body)
        elif tx.kind is TxKind.EHR_ANCHOR:
            _check_anchor_body(tx.body)
        elif tx.kind is TxKind.ACCESS_CHANGE:
            _check_access_change_body(tx.body)

    def submit(self, tx: Transaction, author: EntityId) -> None:
        if author not in self.authorized_writers:
            raise Unauthorized(f"{author!r} may not write to the {self.visibility} ledger")
        if tx.author != author:
            raise Unauthorized(f"{author!r} cannot submit a transaction authored by {tx.author!r}")
        self._check_admissible(tx)
        self.pool.append(tx)
        if self._ever is not None:
            self._note(tx)

    def seal_block(self, creator: EntityId, now: float) -> Block:
        if creator not in self.authorized_writers:
            raise Unauthorized(f"{creator!r} may not seal blocks on the {self.visibility} ledger")
        # checked before the pool is drained
        if not float_time(now):
            raise FormatError(f"seal time 'now' must be a finite number, got {shown(now)}")
        # block time only moves forward: no block is older than a parent
        tips = self.dag.tips
        newest = max(self.dag.blocks[tip].timestamp for tip in tips)
        if now < newest:
            raise FormatError(f"seal time {shown(now)} is before the newest block's time {shown(newest)}")
        payload = tuple(self.pool[: self.max_block_txs])
        del self.pool[: self.max_block_txs]
        block = Block.create(sorted(tips), payload, now, creator)
        self.dag.add(block)
        return block

    def confirmed(self) -> ConfirmedStream:
        """Sealed transactions in consensus order.

        Blocks follow the GHOSTDAG total order; within a block the pool
        submission order holds; duplicate tx ids keep only their first
        occurrence.

        The last stream is kept and returned again while the block count is
        unchanged: blocks are only ever added, also by dag.add directly, so
        the count fixes the whole DAG. The stream is built on the first
        call, never in load_text or submit, so a ledger that is only
        written holds none.
        """
        if self._confirmed is not None and self._confirmed[0] == len(self.dag):
            return self._confirmed[1]
        ordered = ghostdag_run(self.dag, self.params)
        entries: list[ConfirmedTx] = []
        seen: set[bytes] = set()
        for bid in ordered.order:
            for tx in self.dag.blocks[bid].payload:
                if tx.id in seen:
                    continue
                seen.add(tx.id)
                entries.append(ConfirmedTx(tx, bid))  # positional, as in from_wire
        stream = ConfirmedStream(entries=tuple(entries))
        self._confirmed = (len(self.dag), stream)
        return stream

    # Persistence: the DAG text format extended with payload, timestamp,
    # and creator columns. Block ids are re-derived from content on load,
    # so a tampered file fails to parse.

    def _header(self) -> str:
        """The header line save writes, without its newline."""
        writers = ",".join(sorted(self.authorized_writers))
        return (
            f"# rpmdag-ledger v1 visibility={self.visibility} k={self.params.k} "
            f"alg={DIGEST_ALG} max={self.max_block_txs} writers={writers}"
        )

    def _save_lines(self):
        """The saved file one line at a time, each ending in a newline:
        the header, then the blocks in topological order."""
        yield self._header() + "\n"
        for bid in self.dag.topological_order():
            yield _block_line(self.dag.blocks[bid]) + "\n"

    def save_text(self) -> str:
        return "".join(self._save_lines())

    def save(self, path, read_as: bytes | None = None) -> None:
        """Write the file one line at a time to a temp file beside path,
        then rename it over path, so a crash mid-write leaves the previous
        file whole and no more than one line is held beside the ledger. A
        symlinked path is written through to its target, and an existing
        file keeps its mode.

        read_as, the file_digest of path taken before the ledger was read,
        makes the save refuse with StaleLedger, writing nothing, when path
        no longer has that digest just before the rename: a change another
        writer saved since would be lost."""
        path = os.path.realpath(path)
        tmp = f"{path}.{os.getpid()}.tmp"
        try:
            with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
                fh.writelines(self._save_lines())
            with contextlib.suppress(FileNotFoundError):
                os.chmod(tmp, stat.S_IMODE(os.stat(path).st_mode))
            if read_as is not None and file_digest(path) != read_as:
                raise StaleLedger(f"{path} changed after it was read; nothing was written,"
                                  " so run the change again")
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)
            raise

    @classmethod
    def load_text(cls, text: str) -> "Ledger":
        return cls._parse(text.split("\n"))

    @classmethod
    def load(cls, path) -> "Ledger":
        """Read the file one line at a time, so no more than one line is
        held beside the ledger being built. It accepts and refuses the same
        files as load_text of their UTF-8 text, with the same messages; a
        byte that is not UTF-8 is reported with its line."""
        with open(path, "rb") as fh:
            return cls._parse(_utf8_lines(fh))

    @classmethod
    def _parse(cls, lines) -> "Ledger":
        """The ledger saved in lines, the file split at "\n" only and
        numbered from 1; blank lines are skipped. Any other line break
        character, "\r" too, is part of its line.

        One spelling: the header must be _header() and each block line
        _block_line of the block it decodes to, so a line that decodes
        to the same values under another spelling is refused like any
        other edit. The checks before that compare test what the values
        mean."""
        numbered = ((n, ln) for n, ln in enumerate(lines, start=1) if ln and not ln.isspace())
        _, first = next(numbered, (0, ""))
        if not first.startswith("# rpmdag-ledger v1 "):
            raise FormatError("not a ledger file")
        header = {}
        for part in first.removeprefix("# rpmdag-ledger v1 ").split(" "):
            name, sep, value = part.partition("=")
            if not sep:
                raise FormatError(f"ledger header field {part!r} is not name=value")
            header[name] = value
        try:
            visibility = header["visibility"]
            k = _header_int(header, "k")
            max_txs = _header_int(header, "max")
            writers = [w for w in header.get("writers", "").split(",") if w]
            if header["alg"] != DIGEST_ALG:
                raise FormatError(f"unsupported digest algorithm {header['alg']!r}")
        except KeyError as exc:
            raise FormatError(f"ledger header is missing {exc}") from None

        ledger = cls(visibility, k, writers, max_txs)
        # no unknown, repeated, missing or reordered field, and the writers
        # sorted
        if first != ledger._header():
            raise FormatError(f"ledger header is not spelt as save writes it: {ledger._header()!r}")
        by_hex: dict[str, BlockId] = {}  # the blocks read so far
        shared: dict[str, str] = {}  # see _share_strings; dropped on return
        for lineno, line in numbered:
            cols = line.split(" | ")
            if len(cols) != 4:
                raise FormatError(f"line {lineno}: expected 4 columns")
            head, payload_col, ts_col, creator = cols
            declared, _, parents_col = head.partition(": ")
            parent_ids = []
            for p in parents_col.split(",") if parents_col else ():
                if p not in by_hex:
                    raise FormatError(f"line {lineno}: unknown parent {p[:12]}")
                parent_ids.append(by_hex[p])
            txs = []
            for chunk in payload_col.split(",") if payload_col else ():
                try:
                    obj = parse_json(binascii.a2b_base64(chunk).decode("utf-8"))
                except (ValueError, RecursionError) as exc:
                    raise FormatError(f"line {lineno}: bad payload: {exc}") from None
                _share_strings(obj, shared)
                try:
                    tx = Transaction.from_wire(obj)
                    ledger._check_admissible(tx)
                except (FormatError, KindNotAdmissible, PhiLeak) as exc:
                    raise FormatError(f"line {lineno}: {exc}") from None
                txs.append(tx)
            # finite, as seal_block takes no other time
            try:
                timestamp = float(ts_col)
                if not float_time(timestamp):
                    raise ValueError
            except ValueError:
                raise FormatError(f"line {lineno}: bad timestamp {ts_col!r}") from None
            block = Block.create(parent_ids, txs, timestamp, creator)
            if not parent_ids:
                # the first block line alone is parentless, and it must
                # re-derive to the constructor's genesis, which the header
                # fixes
                if by_hex:
                    raise FormatError(f"line {lineno}: a second block without parents")
                if block.id != ledger.dag.genesis:
                    raise FormatError(f"line {lineno}: genesis does not match the ledger header")
            elif block.id.hex() != declared:
                raise FormatError(f"line {lineno}: block content does not match its id")
            elif timestamp < max(ledger.dag.blocks[p].timestamp for p in parent_ids):
                raise FormatError(f"line {lineno}: block time {ts_col} is before a parent's time")
            if line != _block_line(block):
                raise FormatError(f"line {lineno}: block line is not spelt as save writes it")
            if parent_ids:
                try:
                    ledger.dag.add(block)
                except DuplicateBlock as exc:
                    raise FormatError(f"line {lineno}: {exc}") from None
            by_hex[declared] = block.id
        if not by_hex:
            raise FormatError("ledger has no genesis line")
        return ledger


def _block_line(block: Block) -> str:
    """A block's saved line, without its newline: the one spelling
    _save_lines writes and _parse takes."""
    parents = ",".join(sorted(p.hex() for p in block.parents))
    chunks = [binascii.b2a_base64(tx.wire_bytes(), newline=False) for tx in block.payload]
    payload = b",".join(chunks).decode()
    timestamp = float(block.timestamp)  # an int time saves as the float it loads as
    return f"{block.id.hex()}: {parents} | {payload} | {timestamp!r} | {block.creator}"


# body fields whose string values repeat across transactions: patient
# pseudonyms, vital, verdict and severity names, rule ids, and the names in
# an access change
_SHARED_FIELDS = frozenset(
    ("patient", "vital", "verdict", "rule_id", "severity", "action", "scope", "grantor", "grantee")
)


def _share_strings(obj, shared: dict[str, str]) -> None:
    """Rebind a decoded wire record's author, its body keys and the string
    values of _SHARED_FIELDS to the equal str already in shared, so a loaded
    ledger holds each of them once rather than once per transaction.

    Only str objects go into the table: keyed by value, 0.0 would stand in
    for -0.0, or 1 for 1.0 and True, and change the saved bytes. Digests are
    unique, so they are left out. A record of another shape is left as it
    is, for from_wire to refuse."""
    if type(obj) is not dict:
        return
    author = obj.get("author")
    if type(author) is str:
        obj["author"] = shared.setdefault(author, author)
    body = obj.get("body")
    if type(body) is dict:
        obj["body"] = {
            shared.setdefault(key, key): shared.setdefault(value, value)
            if type(value) is str and key in _SHARED_FIELDS else value
            for key, value in body.items()
        }


def _utf8_lines(fh):
    r"""The lines of a binary file as load_text splits its UTF-8 text, at
    b"\n" only, each decoded as strict UTF-8. Byte 0x0A never sits inside
    a UTF-8 sequence."""
    for lineno, line in enumerate(fh, start=1):
        try:
            yield line.removesuffix(b"\n").decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"line {lineno}: ledger is not UTF-8 text: {exc}") from None


@dataclass
class DualLedger:
    """The private/public ledger pair used by the monitoring pipeline."""

    private: Ledger
    public: Ledger

    @classmethod
    def create(cls, k: int, private_writers, public_writers) -> "DualLedger":
        return cls(
            private=Ledger(PRIVATE, k, private_writers),
            public=Ledger(PUBLIC, k, public_writers),
        )

    def seal_all(self, creator: EntityId, now: float) -> tuple[Block, Block]:
        return self.private.seal_block(creator, now), self.public.seal_block(creator, now)


def file_digest(path) -> bytes:
    """The sha256 of the file at path, read in blocks, or b"" when there is
    no file: what Ledger.save compares to see that no other writer saved
    over the file it read."""
    sha = hashlib.sha256()
    try:
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 16), b""):
                sha.update(block)
    except FileNotFoundError:
        return b""
    return sha.digest()


def _inspect_value(value) -> str:
    """sorted_json(value) for an entry's author or time: a str by the
    encoder's own escape, a number a float can hold by json_number."""
    if type(value) is str:
        return encode_basestring_ascii(value)
    if float_time(value):
        return json_number(value).decode()
    return sorted_json(value)


def inspect_lines(ledger: Ledger):
    """Confirmed stream as JSON-lines, one entry per line, each ending in
    a newline: sorted_json of {"position", "block", "tx": tx.to_wire()}.
    The envelope's keys are fixed, so each line is spelt around one
    sorted_json of the body, as wire_bytes splices around ident."""
    for position, entry in enumerate(ledger.confirmed()):
        tx = entry.tx
        try:
            author = _inspect_value(tx.author)
            body = sorted_json(tx.body)
            at = _inspect_value(tx.submitted_at)
        except RecursionError:
            # load encoded the body, but a few frames further up the stack
            raise FormatError(f"confirmed entry {position} is nested too deep to print") from None
        # the keys in sorted order; an f-string builds the line at its exact
        # size, where a %-format would leave each line's spare allocation
        # behind (about 3 MB more peak RSS over 8,150 lines)
        yield (
            f'{{"block": "{entry.block.hex()}", "position": {position}, '
            f'"tx": {{"author": {author}, "body": {body}, "id": "{tx.id.hex()}", '
            f'"kind": "{tx.kind._value_}", "submitted_at": {at}}}}}\n'
        )


def inspect_jsonl(ledger: Ledger) -> str:
    """Confirmed stream as JSON-lines, one entry per line."""
    return "".join(inspect_lines(ledger))
