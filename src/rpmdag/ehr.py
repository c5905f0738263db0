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
from dataclasses import dataclass

from .errors import (
    AccessDenied,
    AlreadyAnchored,
    EmptyContent,
    FormatError,
    UnknownRecord,
)
from .hashing import digest, encode_str, float_time, hex_digest, shown, sorted_json, utf8_text
from .ledger import Ledger, Scope, Transaction, TxKind

INTACT = "intact"
TAMPERED = "tampered"
UNANCHORED = "unanchored"

LOG_NAME = "ehr.log"


@dataclass(frozen=True, slots=True)
class EhrRecord:
    record_id: str
    patient: str
    content: bytes
    stored_at: float
    content_hash: str  # hex digest of content


@dataclass(frozen=True, slots=True)
class VerifyResult:
    record_id: str
    status: str  # intact | tampered | unanchored
    recomputed_hash: str | None
    anchored_hash: str | None


def _record_id(patient: str, position: int, content_hash: str) -> str:
    """The id of the record at position in the log: binds its patient and
    content hash, so an edit to either in a header changes the id."""
    return digest(
        b"ehr-record" + encode_str(patient) + encode_str(str(position)) + bytes.fromhex(content_hash)
    ).hex()


class EhrStore:
    """Append-only record log with an in-memory index.

    Records are framed as a JSON header line followed by the raw content
    bytes. The index maps each record_id to its content offset, content
    length, patient, stored_at and content_hash; it is rebuilt by scanning
    the log on open, which checks each header and its record_id binding
    once. With no directory the log lives in memory, which is enough for
    simulations and tests.
    """

    def __init__(self, directory: str | None = None):
        self._dir = directory
        if directory is None:
            self._log = io.BytesIO()
        else:
            os.makedirs(directory, exist_ok=True)
            self._log = open(os.path.join(directory, LOG_NAME), "a+b")
        # one entry per record: each record_id binds the record's position
        self._index: dict[str, tuple[int, int, str, float, str]] = {}
        try:
            self._rebuild_index()
        except BaseException:
            self.close()
            raise

    def close(self):
        if self._dir is not None:
            self._log.close()

    def _rebuild_index(self):
        # one string per patient rather than one per record; a table of this
        # open only, as sys.intern makes a string immortal on Python 3.12
        patients: dict[str, str] = {}
        self._log.seek(0)
        while True:
            offset = self._log.tell()
            header_line = self._log.readline()
            if not header_line:
                break
            try:
                header = json.loads(header_line.decode("utf-8"))
                record_id = header["record_id"]
                patient = header["patient"]
                stored_at = header["stored_at"]
                length = header["content_len"]
                content_hash = header["content_hash"]
                # checked once here so read() can trust every indexed entry; a
                # negative length would seek back onto the header and never end
                valid = (
                    type(length) is int
                    and length >= 0
                    and isinstance(patient, str)
                    and float_time(stored_at)
                    and hex_digest(content_hash)
                )
                bound = valid and _record_id(patient, len(self._index), content_hash) == record_id
            except (ValueError, KeyError, TypeError, RecursionError) as exc:
                raise FormatError(f"corrupt record header at offset {offset}: {exc}") from None
            if not valid:
                raise FormatError(f"corrupt record header at offset {offset}")
            if not bound:
                raise FormatError(
                    f"corrupt record header at offset {offset}: record_id does not match"
                    " its patient, position and content_hash"
                )
            start = offset + len(header_line)
            self._log.seek(start + length + 1)  # past content and separator
            patient = patients.setdefault(patient, patient)
            self._index[record_id] = (start, length, patient, stored_at, content_hash)

    def store(self, content: bytes, patient: str, now: float = 0.0) -> EhrRecord:
        """Append a record. Identical content appended twice yields two
        distinct record ids with the same content hash. Input the log
        could not read back is refused before any byte is written."""
        if not content:
            raise EmptyContent("record content must be non-empty")
        if not utf8_text(patient):
            raise FormatError(f"record field 'patient' must be a UTF-8 string, got {patient!r}")
        if not float_time(now):
            raise FormatError(f"record field 'stored_at' must be a finite number, got {shown(now)}")
        content_hash = digest(content).hex()
        record_id = _record_id(patient, len(self._index), content_hash)
        header = sorted_json(
            {
                "record_id": record_id,
                "patient": patient,
                "stored_at": now,
                "content_len": len(content),
                "content_hash": content_hash,
            }
        ).encode() + b"\n"
        self._log.seek(0, io.SEEK_END)
        start = self._log.tell() + len(header)
        self._log.write(header + content + b"\n")
        if self._dir is not None:
            self._log.flush()
        self._index[record_id] = (start, len(content), patient, now, content_hash)
        return EhrRecord(record_id, patient, content, now, content_hash)

    def read(self, record_id: str) -> EhrRecord:
        """The record with the header fields checked at open (or written by
        store) and the content bytes as they are in the log now."""
        entry = self._index.get(record_id)
        if entry is None:
            raise UnknownRecord(f"no record {record_id[:12]!r}")
        start, length, patient, stored_at, content_hash = entry
        self._log.seek(start)
        return EhrRecord(record_id, patient, self._log.read(length), stored_at, content_hash)

    def record_ids(self) -> list[str]:
        return list(self._index)

    def __contains__(self, record_id: str) -> bool:
        return record_id in self._index


def anchor(record: EhrRecord, ledger: Ledger, author: str, now: float = 0.0) -> None:
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


def _status(record_id: str, content: bytes, anchored: str | None) -> VerifyResult:
    """Compare the digest of a record's stored bytes with its anchored hash."""
    recomputed = digest(content).hex()
    if anchored is None:
        status = UNANCHORED
    elif anchored == recomputed:
        status = INTACT
    else:
        status = TAMPERED
    return VerifyResult(record_id, status, recomputed, anchored)


def verify(record_id: str, store: EhrStore, ledger: Ledger) -> VerifyResult:
    """Recompute the stored content's digest and compare with the
    confirmed anchor. Read-only; safe to repeat."""
    content = store.read(record_id).content
    return _status(record_id, content, ledger.confirmed().anchors.get(record_id))


def audit(store: EhrStore, ledger: Ledger) -> list[VerifyResult]:
    """Verify every record with a confirmed anchor, in one ledger pass."""
    anchors = ledger.confirmed().anchors
    return [
        _status(record_id, store.read(record_id).content, anchors[record_id]) if record_id in store
        # anchored content that cannot be produced is not intact
        else VerifyResult(record_id, TAMPERED, None, anchors[record_id])
        for record_id in sorted(anchors)
    ]


def read_gated(store: EhrStore, record_id: str, controller, session) -> EhrRecord:
    """Read record content only when the session passes the access check."""
    record = store.read(record_id)
    if not controller.check_access(session, record.patient, Scope.EHR_READ):
        raise AccessDenied(f"no ehr_read access to {record.patient}")
    return record
