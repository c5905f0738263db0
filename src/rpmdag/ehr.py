"""EHR record store and hash anchoring.

Record content lives off-chain in an append-only log; only a content
digest is anchored on the private ledger, so no health bytes ever reach
a ledger while any later mutation of the stored bytes is detectable.
Verification recomputes the digest from the stored bytes and compares it
with the confirmed anchor.
"""

from __future__ import annotations

import io
import json
import os
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

from .errors import (
    AccessDenied,
    AlreadyAnchored,
    EmptyContent,
    FormatError,
    UnknownRecord,
)
from .hashing import digest, encode_str, sorted_json
from .ledger import Ledger, Scope, Transaction, TxKind

INTACT = "intact"
TAMPERED = "tampered"
UNANCHORED = "unanchored"

LOG_NAME = "ehr.log"


@dataclass(frozen=True)
class EhrRecord:
    record_id: str
    patient: str
    content: bytes
    stored_at: float
    content_hash: str  # hex digest of content


@dataclass(frozen=True)
class AnchorReceipt:
    record_id: str
    content_hash: str
    tx_id: bytes


@dataclass(frozen=True)
class VerifyResult:
    record_id: str
    status: str  # intact | tampered | unanchored
    recomputed_hash: str | None
    anchored_hash: str | None


class EhrStore:
    """Append-only record log with an in-memory offset index.

    Records are framed as a JSON header line followed by the raw content
    bytes; the index (record_id to offset) is rebuilt by scanning the log
    on open. With no directory the log lives in memory, which is enough
    for simulations and tests.
    """

    def __init__(self, directory: str | None = None):
        self._dir = directory
        if directory is None:
            self._log = io.BytesIO()
        else:
            os.makedirs(directory, exist_ok=True)
            self._log = open(os.path.join(directory, LOG_NAME), "a+b")
        self._index: dict[str, int] = {}
        self._count = 0
        try:
            self._rebuild_index()
        except BaseException:
            self.close()
            raise

    def close(self):
        if self._dir is not None:
            self._log.close()

    def _rebuild_index(self):
        self._log.seek(0)
        while True:
            offset = self._log.tell()
            header_line = self._log.readline()
            if not header_line:
                break
            try:
                header = json.loads(header_line.decode("utf-8"))
                length = header["content_len"]
                record_id = header["record_id"]
            except (ValueError, KeyError, TypeError) as exc:
                raise FormatError(f"corrupt record header at offset {offset}: {exc}") from None
            # checked once here so read() can trust every indexed header; a
            # negative length would seek back onto the header and never end
            if not (
                type(length) is int
                and length >= 0
                and isinstance(record_id, str)
                and {"patient", "stored_at", "content_hash"} <= header.keys()
            ):
                raise FormatError(f"corrupt record header at offset {offset}")
            self._log.seek(length + 1, io.SEEK_CUR)  # content plus separator
            self._index[record_id] = offset
            self._count += 1

    def store(self, content: bytes, patient: str, now: float = 0.0) -> EhrRecord:
        """Append a record. Identical content appended twice yields two
        distinct record ids with the same content hash."""
        if not content:
            raise EmptyContent("record content must be non-empty")
        content_hash = digest(content).hex()
        record_id = digest(
            b"ehr-record"
            + encode_str(patient)
            + encode_str(str(self._count))
            + bytes.fromhex(content_hash)
        ).hex()
        header = sorted_json(
            {
                "record_id": record_id,
                "patient": patient,
                "stored_at": now,
                "content_len": len(content),
                "content_hash": content_hash,
            }
        ).encode()
        self._log.seek(0, io.SEEK_END)
        offset = self._log.tell()
        self._log.write(header + b"\n" + content + b"\n")
        if self._dir is not None:
            self._log.flush()
        self._index[record_id] = offset
        self._count += 1
        return EhrRecord(record_id, patient, content, now, content_hash)

    def read(self, record_id: str) -> EhrRecord:
        """Read a record back from the log bytes as they are now."""
        if record_id not in self._index:
            raise UnknownRecord(f"no record {record_id[:12]}")
        self._log.seek(self._index[record_id])
        header = json.loads(self._log.readline().decode("utf-8"))
        content = self._log.read(header["content_len"])
        return EhrRecord(
            record_id=header["record_id"],
            patient=header["patient"],
            content=content,
            stored_at=header["stored_at"],
            content_hash=header["content_hash"],
        )

    def record_ids(self) -> list[str]:
        return list(self._index)

    def __contains__(self, record_id: str) -> bool:
        return record_id in self._index


def confirmed_anchors(ledger: Ledger) -> Mapping[str, str]:
    """record_id to anchored content hash, first confirmed anchor wins.

    A read-only view of the map the ledger's confirmed stream keeps, so
    repeated calls on an unchanged ledger share one build."""
    return MappingProxyType(ledger.confirmed().anchors)


def anchor(
    record: EhrRecord, ledger: Ledger, author: str, now: float = 0.0
) -> AnchorReceipt:
    """Submit the record's digest to the private ledger, once per record.

    The anchor body carries only the record id and the digest; no health
    bytes leave the store.
    """
    if record.record_id in ledger.anchored_record_ids():
        raise AlreadyAnchored(f"record {record.record_id[:12]} is already anchored")
    tx = Transaction(
        kind=TxKind.EHR_ANCHOR,
        body={"record_id": record.record_id, "content_hash": record.content_hash},
        submitted_at=now,
        author=author,
    )
    ledger.submit(tx, author)
    return AnchorReceipt(record.record_id, record.content_hash, tx.id)


def verify(record_id: str, store: EhrStore, ledger: Ledger) -> VerifyResult:
    """Recompute the stored content's digest and compare with the
    confirmed anchor. Read-only; safe to repeat."""
    record = store.read(record_id)
    recomputed = digest(record.content).hex()
    anchored = confirmed_anchors(ledger).get(record_id)
    if anchored is None:
        status = UNANCHORED
    elif anchored == recomputed:
        status = INTACT
    else:
        status = TAMPERED
    return VerifyResult(record_id, status, recomputed, anchored)


def audit(store: EhrStore, ledger: Ledger) -> list[VerifyResult]:
    """Verify every record with a confirmed anchor, in one ledger pass."""
    anchors = confirmed_anchors(ledger)
    results = []
    for record_id in sorted(anchors):
        if record_id not in store:
            # anchored content that cannot be produced is not intact
            results.append(VerifyResult(record_id, TAMPERED, None, anchors[record_id]))
            continue
        record = store.read(record_id)
        recomputed = digest(record.content).hex()
        status = INTACT if recomputed == anchors[record_id] else TAMPERED
        results.append(VerifyResult(record_id, status, recomputed, anchors[record_id]))
    return results


def read_gated(store: EhrStore, record_id: str, controller, session) -> EhrRecord:
    """Read record content only when the session passes the access check."""
    record = store.read(record_id)
    if not controller.check_access(session, record.patient, Scope.EHR_READ):
        raise AccessDenied(f"no ehr_read access to {record.patient}")
    return record
