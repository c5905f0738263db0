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

import base64
import contextlib
import json
import math
import os
import re
import stat
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

from .dag import Block, BlockDag, BlockId, GENESIS_TIMESTAMP
from .errors import (
    FormatError,
    KindNotAdmissible,
    PhiLeak,
    Unauthorized,
)
from .ghostdag import GhostdagParams, ghostdag_run
from .hashing import DIGEST_ALG, canonical_json, digest, sorted_json

EntityId = str

PRIVATE = "private"
PUBLIC = "public"

POOL_CAP = 1000


class TxKind(Enum):
    EHR_ANCHOR = "ehr_anchor"
    RULE_EVALUATION = "rule_evaluation"
    ALERT_EVENT = "alert_event"
    ACCESS_CHANGE = "access_change"


class Scope(Enum):
    """What an access grant covers; an access_change body names one."""

    EHR_READ = "ehr_read"
    ALERTS_SUBSCRIBE = "alerts_subscribe"
    TREATMENT_HISTORY = "treatment_history"


_SCOPE_VALUES = tuple(s.value for s in Scope)


@dataclass(frozen=True)
class Transaction:
    """A ledger entry. Identity covers kind, body, and author; the
    submission time is bookkeeping, so a resubmitted transaction keeps
    its id and the confirmed stream can deduplicate retries."""

    kind: TxKind
    body: dict
    submitted_at: float
    author: EntityId
    id: bytes = field(init=False)

    def __post_init__(self):
        ident = canonical_json(
            {"kind": self.kind.value, "body": self.body, "author": self.author}
        )
        object.__setattr__(self, "id", digest(ident))

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
            tx = cls(
                kind=TxKind(obj["kind"]),
                body=obj["body"],
                submitted_at=obj["submitted_at"],
                author=obj["author"],
            )
        except (KeyError, ValueError, TypeError) as exc:
            raise FormatError(f"bad transaction record: {exc}") from None
        if tx.id.hex() != obj.get("id"):
            raise FormatError("transaction id does not match its content")
        return tx


# Closed schema for public alert bodies. The field list is exhaustive;
# values are shape-checked and may not mention any vital kind by name.

ALERT_SEVERITIES = ("advisory", "urgent")
VITAL_KIND_NAMES = ("heart_rate", "systolic_bp", "diastolic_bp", "glucose", "respiration")

_ALERT_FIELDS: dict[str, type | tuple] = {
    "patient": str,
    "rule_id": str,
    "ehr_record_hash": str,
    "occurred_at": (int, float),
    "severity": str,
}
_HEX64 = re.compile(r"^[0-9a-f]{64}$")
_OPAQUE = re.compile(r"^[A-Za-z0-9_.-]+$")


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
        if not _OPAQUE.match(body[name]):
            raise PhiLeak(f"alert field {name!r} must be an opaque token")
        lowered = body[name].lower()
        if any(v in lowered for v in VITAL_KIND_NAMES):
            raise PhiLeak(f"alert field {name!r} names a vital kind")
    if not _HEX64.match(body["ehr_record_hash"]):
        raise PhiLeak("ehr_record_hash must be a 64-char hex digest")
    # the shape check refused a bool; an int of any size is finite, and
    # math.isfinite would overflow on one above the float range
    at = body["occurred_at"]
    if isinstance(at, float) and not math.isfinite(at):
        raise PhiLeak("occurred_at must be a finite time")
    if body["severity"] not in ALERT_SEVERITIES:
        raise PhiLeak(f"severity must be one of {ALERT_SEVERITIES}")


@dataclass(frozen=True)
class SubmitReceipt:
    tx_id: bytes
    position: int  # index in the pending pool at submission time


@dataclass(frozen=True)
class ConfirmedTx:
    tx: Transaction
    block: BlockId
    position: int  # index in the confirmed stream


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
    def anchors(self) -> dict[str, str]:
        """record_id to anchored content hash, first confirmed anchor wins.
        Shared by every caller of the stream; do not mutate."""
        out: dict[str, str] = {}
        for entry in self.entries:
            if entry.tx.kind is TxKind.EHR_ANCHOR:
                out.setdefault(entry.tx.body["record_id"], entry.tx.body["content_hash"])
        return out


_PUBLIC_KINDS = frozenset({TxKind.ALERT_EVENT})
_PRIVATE_KINDS = frozenset(TxKind)


def _check_anchor_body(body) -> None:
    """An anchor must name its record and the content hash it binds."""
    if not isinstance(body, dict) or not all(
        isinstance(body.get(name), str) for name in ("record_id", "content_hash")
    ):
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
    if body.get("scope") not in _SCOPE_VALUES:
        raise FormatError(f"access_change field 'scope' must be one of {list(_SCOPE_VALUES)}")
    at = body.get("at")
    if isinstance(at, bool) or not isinstance(at, (int, float)):
        raise FormatError("access_change field 'at' must be a number")


def _header_int(header: dict[str, str], name: str) -> int:
    try:
        return int(header[name])
    except ValueError:
        raise FormatError(
            f"ledger header field {name}={header[name]!r} is not an integer"
        ) from None


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
        if max_block_txs < 1:
            raise FormatError(f"ledger max={max_block_txs!r} must be at least 1")
        self.visibility = visibility
        self.params = GhostdagParams(k)
        self.authorized_writers = set(authorized_writers)
        self.max_block_txs = max_block_txs
        self.dag = BlockDag()
        # the genesis names the digest algorithm, so verification against
        # this ledger is self-describing
        gen = Block.create((), (), GENESIS_TIMESTAMP, f"genesis:{visibility}:{DIGEST_ALG}")
        self.dag.add(gen)
        self.genesis_id = gen.id
        self.pool: list[Transaction] = []
        self._tx_ids: set[bytes] = set()
        self._anchored: set[str] | None = None  # see anchored_record_ids
        self._confirmed: tuple[frozenset[BlockId], ConfirmedStream] | None = None

    def admissible_kinds(self) -> frozenset[TxKind]:
        return _PUBLIC_KINDS if self.visibility == PUBLIC else _PRIVATE_KINDS

    def has_tx(self, tx_id: bytes) -> bool:
        """True if the tx id was ever pooled or sealed here."""
        return tx_id in self._tx_ids

    def anchored_record_ids(self) -> set[str]:
        """Record ids with an EHR anchor anywhere on this ledger, pooled
        or sealed; the same "ever pooled or sealed" sense as has_tx.

        The set is built by one scan of pool and blocks on the first call
        and kept current by submit from then on. It is built lazily, not
        in load_text, because the read path (load, audit, verify) never
        anchors: holding every record id beside the loaded blocks would
        only raise its peak memory. The set is the ledger's own; callers
        must not mutate it.
        """
        if self._anchored is None:
            self._anchored = {
                tx.body["record_id"]
                for txs in (self.pool, *(b.payload for b in self.dag.blocks.values()))
                for tx in txs
                if tx.kind is TxKind.EHR_ANCHOR
            }
        return self._anchored

    def _check_admissible(self, tx: Transaction) -> None:
        """The kind and body rules a transaction must meet on this ledger,
        whether it arrives by submit or from a saved file."""
        # the tx id does not cover submitted_at, so only this check keeps a
        # non-number or a NaN (which save would refuse) off the ledger; an
        # int of any size is finite, and math.isfinite would overflow on it
        at = tx.submitted_at
        if isinstance(at, bool) or not (
            isinstance(at, int) or (isinstance(at, float) and math.isfinite(at))
        ):
            raise FormatError(f"transaction field 'submitted_at' must be a finite number, got {at!r}")
        if tx.kind not in self.admissible_kinds():
            raise KindNotAdmissible(
                f"{tx.kind.value} transactions are not accepted on the {self.visibility} ledger"
            )
        if tx.kind is TxKind.ALERT_EVENT:
            validate_alert_body(tx.body)
        elif tx.kind is TxKind.EHR_ANCHOR:
            _check_anchor_body(tx.body)
        elif tx.kind is TxKind.ACCESS_CHANGE:
            _check_access_change_body(tx.body)

    def submit(self, tx: Transaction, author: EntityId) -> SubmitReceipt:
        if author not in self.authorized_writers:
            raise Unauthorized(f"{author!r} may not write to the {self.visibility} ledger")
        if tx.author != author:
            raise Unauthorized(f"{author!r} cannot submit a transaction authored by {tx.author!r}")
        self._check_admissible(tx)
        if tx.kind is TxKind.EHR_ANCHOR and self._anchored is not None:
            self._anchored.add(tx.body["record_id"])
        self.pool.append(tx)
        self._tx_ids.add(tx.id)
        return SubmitReceipt(tx_id=tx.id, position=len(self.pool) - 1)

    def seal_block(self, creator: EntityId, now: float) -> Block:
        if creator not in self.authorized_writers:
            raise Unauthorized(f"{creator!r} may not seal blocks on the {self.visibility} ledger")
        payload = tuple(self.pool[: self.max_block_txs])
        del self.pool[: self.max_block_txs]
        block = Block.create(sorted(self.dag.tips), payload, now, creator)
        self.dag.add(block)
        return block

    def confirmed(self) -> ConfirmedStream:
        """Sealed transactions in consensus order.

        Blocks follow the GHOSTDAG total order; within a block the pool
        submission order holds; duplicate tx ids keep only their first
        occurrence.

        The last stream is kept and returned again while the tip set is
        unchanged: blocks are only ever added, also by dag.add directly,
        and each binds its parents, so the tips fix the whole DAG. The
        stream is built on the first call, never in load_text or submit,
        so a ledger that is only written holds none.
        """
        tips = frozenset(self.dag.tips)
        if self._confirmed is not None and self._confirmed[0] == tips:
            return self._confirmed[1]
        ordered = ghostdag_run(self.dag, self.params)
        entries: list[ConfirmedTx] = []
        seen: set[bytes] = set()
        for bid in ordered.order:
            for tx in self.dag.blocks[bid].payload:
                if tx.id in seen:
                    continue
                seen.add(tx.id)
                entries.append(ConfirmedTx(tx=tx, block=bid, position=len(entries)))
        stream = ConfirmedStream(entries=tuple(entries))
        self._confirmed = (tips, stream)
        return stream

    # Persistence: the DAG text format extended with payload, timestamp,
    # and creator columns. Block ids are re-derived from content on load,
    # so a tampered file fails to parse.

    def save_text(self) -> str:
        writers = ",".join(sorted(self.authorized_writers))
        lines = [
            f"# rpmdag-ledger v1 visibility={self.visibility} k={self.params.k} "
            f"alg={DIGEST_ALG} max={self.max_block_txs} writers={writers}"
        ]
        for bid in self.dag.topological_order():
            block = self.dag.blocks[bid]
            parents = ",".join(sorted(p.hex() for p in block.parents))
            payload = ",".join(
                base64.b64encode(canonical_json(tx.to_wire())).decode() for tx in block.payload
            )
            lines.append(
                f"{bid.hex()}: {parents} | {payload} | {block.timestamp!r} | {block.creator}"
            )
        return "\n".join(lines) + "\n"

    def save(self, path) -> None:
        """Write to a temp file beside path, then rename it over path, so a
        crash mid-write leaves the previous file whole. A symlinked path is
        written through to its target, and an existing file keeps its mode."""
        path = os.path.realpath(path)
        tmp = f"{path}.{os.getpid()}.tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(self.save_text())
            with contextlib.suppress(FileNotFoundError):
                os.chmod(tmp, stat.S_IMODE(os.stat(path).st_mode))
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)
            raise

    @classmethod
    def load_text(cls, text: str) -> "Ledger":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines or not lines[0].startswith("# rpmdag-ledger v1 "):
            raise FormatError("not a ledger file")
        header = {}
        for part in lines[0].removeprefix("# rpmdag-ledger v1 ").split():
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
        by_hex = {ledger.genesis_id.hex(): ledger.genesis_id}
        for lineno, line in enumerate(lines[1:], start=2):
            cols = line.split(" | ")
            if len(cols) != 4:
                raise FormatError(f"line {lineno}: expected 4 columns")
            head, payload_col, ts_col, creator = cols
            declared, _, parents_col = head.partition(":")
            declared = declared.strip()
            parent_ids = []
            for p in parents_col.split(","):
                p = p.strip()
                if not p:
                    continue
                if p not in by_hex:
                    raise FormatError(f"line {lineno}: unknown parent {p[:12]}")
                parent_ids.append(by_hex[p])
            txs = []
            for chunk in payload_col.split(","):
                chunk = chunk.strip()
                if not chunk:
                    continue
                try:
                    obj = json.loads(base64.b64decode(chunk).decode("utf-8"))
                except (ValueError, json.JSONDecodeError) as exc:
                    raise FormatError(f"line {lineno}: bad payload: {exc}") from None
                tx = Transaction.from_wire(obj)
                try:
                    ledger._check_admissible(tx)
                except (FormatError, KindNotAdmissible, PhiLeak) as exc:
                    raise FormatError(f"line {lineno}: {exc}") from None
                txs.append(tx)
            try:
                timestamp = float(ts_col.strip())
            except ValueError:
                raise FormatError(f"line {lineno}: bad timestamp {ts_col!r}") from None
            if not parent_ids:
                # re-derived genesis must already match the constructor's
                if declared != ledger.genesis_id.hex():
                    raise FormatError(f"line {lineno}: genesis does not match the ledger header")
                continue
            block = Block.create(parent_ids, txs, timestamp, creator)
            if block.id.hex() != declared:
                raise FormatError(f"line {lineno}: block content does not match its id")
            ledger.dag.add(block)
            by_hex[block.id.hex()] = block.id
            for tx in txs:
                ledger._tx_ids.add(tx.id)
        return ledger

    @classmethod
    def load(cls, path) -> "Ledger":
        with open(path, "rb") as fh:
            raw = fh.read()
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"ledger is not UTF-8 text: {exc}") from None
        return cls.load_text(text)


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

    def submit_private(self, tx: Transaction, author: EntityId) -> SubmitReceipt:
        # the private side accepts every kind, except an alert that would
        # duplicate one already on the public ledger
        if tx.kind is TxKind.ALERT_EVENT and self.public.has_tx(tx.id):
            raise KindNotAdmissible("alert already recorded on the public ledger")
        return self.private.submit(tx, author)

    def seal_all(self, creator: EntityId, now: float) -> tuple[Block, Block]:
        return self.private.seal_block(creator, now), self.public.seal_block(creator, now)


def inspect_jsonl(ledger: Ledger) -> str:
    """Confirmed stream as JSON-lines, one entry per line."""
    lines = []
    for entry in ledger.confirmed():
        lines.append(
            sorted_json(
                {
                    "position": entry.position,
                    "block": entry.block.hex(),
                    "tx": entry.tx.to_wire(),
                }
            )
        )
    return "\n".join(lines) + ("\n" if lines else "")
