"""EHR record store and hash anchoring.

Record content lives off-chain in an append-only log; only a content
digest is anchored on the private ledger, so no health bytes ever reach
a ledger while any later mutation of the stored bytes is detectable.
Verification recomputes the digest from the stored bytes and compares it
with the confirmed anchor.
"""

from __future__ import annotations

import io
import logging
import os
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

from .errors import (
    AccessDenied,
    AlreadyAnchored,
    EmptyContent,
    FormatError,
    UnknownRecord,
)
from .hashing import (digest, float_time, hex_digest, json_number, pack_u32, parse_json, shown,
                      utf8_text, whole_number)
from .ledger import Ledger, Scope, Transaction, TxKind

INTACT = "intact"
TAMPERED = "tampered"
TORN = "torn"
UNANCHORED = "unanchored"

LOG_NAME = "ehr.log"

_logger = logging.getLogger(__name__)


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
    status: str  # intact | tampered | torn | unanchored
    recomputed_hash: str | None
    anchored_hash: str | None


def _header_line(content_hash: str, length: int, patient: str, record_id: str, stored_at) -> bytes:
    """A record's header line with its newline: the one spelling store
    writes and the open takes. It is sorted_json of the five fields, keys
    in sorted order; each value must already pass the checks of store, so
    each is spelt as the encoder would spell it."""
    return (b'{"content_hash": "%s", "content_len": %d, "patient": %s, "record_id": "%s",'
            b' "stored_at": %s}\n' % (content_hash.encode(), length,
                                      encode_basestring_ascii(patient).encode(),
                                      record_id.encode(), json_number(stored_at)))


def _record_id(patient: str, position: int, content_digest: bytes) -> str:
    """The id of the record at position in the log: binds its patient and
    content digest, so an edit to either in a header changes the id."""
    name, place = patient.encode(), b"%d" % position
    # patient and position framed as encode_str frames them, in one join
    return digest(b"".join((b"ehr-record", pack_u32(len(name)), name, pack_u32(len(place)), place,
                            content_digest))).hex()


class EhrStore:
    """Append-only record log with an in-memory index.

    Records are framed as a JSON header line followed by the raw content
    bytes and a newline. The index maps each record_id to its content
    offset, content length, patient, stored_at and content_hash; it is
    rebuilt by scanning the log on open, which checks each header's values,
    its record_id binding, its spelling (the bytes store writes for those
    values) and the newline after its content once. A last record
    cut short (by a crash mid-append) is a torn tail: it is not indexed, and
    store refuses to append after it. With no directory the log lives in
    memory, which is enough for simulations and tests.
    """

    def __init__(self, directory: str | None = None):
        self._dir = directory
        # one entry per record: each record_id binds the record's position
        self._index: dict[str, tuple[int, int, str, float, str]] = {}
        self._torn: int | None = None  # the offset of a torn last record
        if directory is None:
            self._log = io.BytesIO()  # new and empty: nothing to index
            return
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, LOG_NAME)
        # unbuffered: an append is one write and a read one read, with no
        # buffer to fill or flush, and each append is in the file on return
        self._log = open(path, "a+b", buffering=0)
        try:
            # a buffered handle of its own, as readline on the unbuffered log
            # would read one byte per call
            with open(path, "rb") as log:
                self._rebuild_index(log)
        except BaseException:
            self.close()
            raise

    def close(self):
        if self._dir is not None:
            self._log.close()

    def _rebuild_index(self, log):
        # one string per patient rather than one per record; a table of this
        # open only, as sys.intern makes a string immortal on Python 3.12
        patients: dict[str, str] = {}
        while True:
            offset = log.tell()
            header_line = log.readline()
            if not header_line:
                break
            if header_line[-1:] != b"\n":  # only the last line can lack it
                self._tear(offset)
                break
            try:
                header = parse_json(header_line[:-1].decode("utf-8"))
                record_id = header["record_id"]
                patient = header["patient"]
                stored_at = header["stored_at"]
                length = header["content_len"]
                content_hash = header["content_hash"]
                # checked once here so read() can trust every indexed entry; a
                # negative length would seek back onto the header and never end
                valid = (
                    whole_number(length, 0)
                    and isinstance(patient, str)
                    and float_time(stored_at)
                    and hex_digest(content_hash)
                )
                bound = valid and record_id == _record_id(
                    patient, len(self._index), bytes.fromhex(content_hash)
                )
            except (ValueError, KeyError, TypeError, RecursionError) as exc:
                raise FormatError(f"corrupt record header at offset {offset}: {exc}") from None
            if not valid:
                raise FormatError(f"corrupt record header at offset {offset}")
            if not bound:
                raise FormatError(
                    f"corrupt record header at offset {offset}: record_id does not match"
                    " its patient, position and content_hash"
                )
            if header_line != _header_line(content_hash, length, patient, record_id, stored_at):
                raise FormatError(
                    f"corrupt record header at offset {offset}: not spelt as store writes it")
            start = offset + len(header_line)
            log.seek(start + length)
            separator = log.read(1)
            if separator != b"\n":
                if separator:
                    raise FormatError(
                        f"corrupt record at offset {offset}: no newline after its content"
                    )
                self._tear(offset)  # the log ends before the record does
                break
            patient = patients.setdefault(patient, patient)
            self._index[record_id] = (start, length, patient, stored_at, content_hash)

    def _tear(self, offset: int):
        self._torn = offset
        _logger.warning("%s ends in a torn record at offset %d; appends are refused until the"
                        " log is cut there", LOG_NAME, offset)

    def store(self, content: bytes, patient: str, now: float = 0.0) -> EhrRecord:
        """Append a record. Identical content appended twice yields two
        distinct record ids with the same content hash. Input the log
        could not read back is refused before any byte is written, and so is
        any append after a torn tail."""
        if self._torn is not None:
            raise FormatError(
                f"{LOG_NAME} ends in a torn record at offset {self._torn}: cut the log there"
                " before appending"
            )
        if not content:
            raise EmptyContent("record content must be non-empty")
        if not utf8_text(patient):
            raise FormatError(f"record field 'patient' must be a UTF-8 string, got {patient!r}")
        if not float_time(now):
            raise FormatError(f"record field 'stored_at' must be a finite number, got {shown(now)}")
        content_digest = digest(content)
        content_hash = content_digest.hex()
        record_id = _record_id(patient, len(self._index), content_digest)
        header = _header_line(content_hash, len(content), patient, record_id, now)
        start = self._log.seek(0, io.SEEK_END) + len(header)
        framed = header + content + b"\n"
        written = self._log.write(framed)
        while written < len(framed):  # a short write leaves bytes over
            written += self._log.write(framed[written:])
        self._index[record_id] = (start, len(content), patient, now, content_hash)
        return EhrRecord(record_id, patient, content, now, content_hash)

    def _entry(self, record_id: str) -> tuple[int, int, str, float, str]:
        entry = self._index.get(record_id)
        if entry is None:
            raise UnknownRecord(f"no record {record_id[:12]!r}")
        return entry

    def patient(self, record_id: str) -> str:
        """The record's patient, from the index: no content byte is read."""
        return self._entry(record_id)[2]

    def _content(self, record_id: str) -> bytes:
        """The record's content bytes as they are in the log now: one seek
        and one read, and no record built around them."""
        start, length = self._entry(record_id)[:2]
        self._log.seek(start)
        return self._log.read(length)

    def read(self, record_id: str) -> EhrRecord:
        """The record with the header fields checked at open (or written by
        store) and the content bytes as they are in the log now."""
        _, _, patient, stored_at, content_hash = self._entry(record_id)
        return EhrRecord(record_id, patient, self._content(record_id), stored_at, content_hash)

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
    confirmed anchor. Read-only; safe to repeat. While the log ends in a
    torn record, an anchored record the store lacks is torn, as in audit."""
    anchored = ledger.confirmed().anchors.get(record_id)
    if store._torn is not None and anchored is not None and record_id not in store:
        return VerifyResult(record_id, TORN, None, anchored)
    return _status(record_id, store._content(record_id), anchored)


def audit(store: EhrStore, ledger: Ledger) -> list[VerifyResult]:
    """Verify every record with a confirmed anchor, in one ledger pass."""
    anchors = ledger.confirmed().anchors
    # anchored content that cannot be produced is not intact; it is torn when
    # the log ends in a torn record, as it may be that record
    missing = TAMPERED if store._torn is None else TORN
    return [
        _status(record_id, store._content(record_id), anchors[record_id]) if record_id in store
        else VerifyResult(record_id, missing, None, anchors[record_id])
        for record_id in sorted(anchors)
    ]


def read_gated(store: EhrStore, record_id: str, controller, session) -> EhrRecord:
    """Read record content only when the session passes the access check,
    which is made first: a refused request reads no content byte."""
    patient = store.patient(record_id)
    if not controller.check_access(session, patient, Scope.EHR_READ):
        raise AccessDenied(f"no ehr_read access to {patient}")
    return store.read(record_id)
