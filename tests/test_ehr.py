from __future__ import annotations

import gc
import json
import math
import os
import random
import struct
import tracemalloc

import pytest

import rpmdag.ehr
import rpmdag.ledger
from rpmdag.acl import AccessController, ManualClock, Role, Scope
from rpmdag.ehr import (
    INTACT,
    LOG_NAME,
    TAMPERED,
    TORN,
    UNANCHORED,
    EhrStore,
    anchor,
    audit,
    read_gated,
    verify,
)
from rpmdag.errors import (
    AccessDenied,
    AlreadyAnchored,
    EmptyContent,
    FormatError,
    UnknownRecord,
)
from rpmdag.hashing import digest, sorted_json
from rpmdag.ledger import PRIVATE, Ledger
from rpmdag.pipeline import run_demo

WRITERS = {"svc", "sealer"}


def make_ledger() -> Ledger:
    return Ledger(PRIVATE, 3, WRITERS)


def test_store_and_read_round_trip():
    store = EhrStore()
    rec = store.store(b"bp 120/80 morning", "p-01", now=5.0)
    assert rec.content_hash == digest(b"bp 120/80 morning").hex()
    again = store.read(rec.record_id)
    assert again == rec
    assert rec.record_id in store
    assert store.record_ids() == [rec.record_id]


def test_records_and_verify_results_are_slotted():
    store = EhrStore()
    record = store.store(b"hr=72", "p-01", now=5.0)
    assert not hasattr(record, "__dict__")
    assert not hasattr(store.read(record.record_id), "__dict__")
    ledger = Ledger(PRIVATE, 3, {"svc"})
    anchor(record, ledger, "svc")
    assert not hasattr(verify(record.record_id, store, ledger), "__dict__")


def test_store_rejects_empty_content():
    store = EhrStore()
    with pytest.raises(EmptyContent):
        store.store(b"", "p-01")


def test_identical_content_gets_distinct_ids():
    store = EhrStore()
    a = store.store(b"same bytes", "p-01")
    b = store.store(b"same bytes", "p-01")
    assert a.record_id != b.record_id
    assert a.content_hash == b.content_hash


def test_read_unknown_record():
    store = EhrStore()
    with pytest.raises(UnknownRecord):
        store.read("f" * 64)


def test_persistence_across_reopen(tmp_path):
    store = EhrStore(str(tmp_path))
    recs = [store.store(f"entry {n}".encode(), f"p-0{n}", now=float(n)) for n in range(3)]
    store.close()

    again = EhrStore(str(tmp_path))
    for rec in recs:
        assert again.read(rec.record_id) == rec
    # the counter keeps going, so new ids never collide with old ones
    extra = again.store(b"entry 0", "p-00")
    assert extra.record_id not in {r.record_id for r in recs}
    again.close()


def test_an_open_store_shares_each_patient_and_a_dropped_one_keeps_nothing(tmp_path):
    # sys.intern makes a string immortal on Python 3.12, so it kept every
    # distinct patient of every log opened until the process exited
    for tag in ("warm", "drop"):
        store = EhrStore(str(tmp_path / tag))
        for n in range(3000):
            store.store(b"x", f"p-{tag}-{n // 2}", float(n))
        store.close()
    EhrStore(str(tmp_path / "warm")).close()  # compiles and caches what any open needs
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        again = EhrStore(str(tmp_path / "drop"))
        first, second = (again.read(record_id) for record_id in again.record_ids()[:2])
        assert first.patient == second.patient and first.patient is second.patient
        again.close()
        del again, first, second
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 4096, retained


def test_corrupt_header_is_rejected_on_open(tmp_path):
    store = EhrStore(str(tmp_path))
    store.store(b"fine", "p-01")
    store.close()
    path = os.path.join(str(tmp_path), LOG_NAME)
    with open(path, "r+b") as fh:
        fh.write(b"{broken")
    with pytest.raises(FormatError):
        EhrStore(str(tmp_path))


def _log_path(tmp_path) -> str:
    return os.path.join(str(tmp_path), LOG_NAME)


def _two_patient_log(tmp_path) -> tuple[bytes, int]:
    """The log bytes of a p-01 and a p-02 record, and the p-02 header's offset."""
    store = EhrStore(str(tmp_path))
    store.store(b"p-01 vitals", "p-01", now=1.0)
    with open(_log_path(tmp_path), "rb") as fh:
        second = len(fh.read())
    store.store(b"p-02 vitals", "p-02", now=2.0)
    store.close()
    with open(_log_path(tmp_path), "rb") as fh:
        return fh.read(), second


def test_relabelled_patient_is_refused_at_open(tmp_path):
    # read_gated decides access from the header's patient: a header relabelled
    # to another patient must not open, or that patient's grantees read it
    raw, second = _two_patient_log(tmp_path)
    with open(_log_path(tmp_path), "wb") as fh:
        fh.write(raw.replace(b'"patient": "p-02"', b'"patient": "p-01"'))
    with pytest.raises(FormatError, match=f"offset {second}: record_id does not match"):
        EhrStore(str(tmp_path))


@pytest.mark.parametrize("lead, ending, message", [
    (b"", b"\r\n", "Extra data"), (b"", b" \n", "Extra data"), (b"", b"\t\n", "Extra data"),
    (b" ", b"\n", "Expecting value"),
])
def test_a_header_with_whitespace_around_its_json_is_refused_at_its_offset(tmp_path, lead, ending,
                                                                            message):
    raw, second = _two_patient_log(tmp_path)
    header_end = raw.index(b"\n", second)
    header = raw[second:header_end]
    # the header json.loads would still read, with its record_id unchanged
    assert json.loads(lead + header + ending) == json.loads(header)
    with open(_log_path(tmp_path), "wb") as fh:
        fh.write(raw[:second] + lead + header + ending + raw[header_end + 1:])
    with pytest.raises(FormatError, match=f"^corrupt record header at offset {second}: {message}"):
        EhrStore(str(tmp_path))


# respellings of a header that decode to its values: each opened with its
# record indexed before one spelling was required
HEADER_RESPELLINGS = {
    "keys-reversed": lambda header: json.dumps(dict(reversed(json.loads(header).items()))).encode(),
    "time-as-1e1": lambda header: header.replace(b'"stored_at": 10.0', b'"stored_at": 1e1'),
    "compact": lambda header: json.dumps(json.loads(header), sort_keys=True,
                                         separators=(",", ":")).encode(),
    "escaped-ascii": lambda header: header.replace(b'"p-02"', b'"\\u0070-02"'),
}


@pytest.mark.parametrize("respell", HEADER_RESPELLINGS.values(), ids=HEADER_RESPELLINGS.keys())
def test_a_header_respelt_is_refused_at_its_offset(tmp_path, respell):
    store = EhrStore(str(tmp_path))
    store.store(b"p-01 vitals", "p-01", now=1.0)
    second = os.path.getsize(_log_path(tmp_path))
    store.store(b"p-02 vitals", "p-02", now=10.0)
    store.close()
    raw = (tmp_path / LOG_NAME).read_bytes()
    header_end = raw.index(b"\n", second)
    header = raw[second:header_end]
    respelt = respell(header)
    assert respelt != header and json.loads(respelt) == json.loads(header)
    (tmp_path / LOG_NAME).write_bytes(raw[:second] + respelt + raw[header_end:])
    with pytest.raises(FormatError) as info:
        EhrStore(str(tmp_path))
    assert str(info.value) == (
        f"corrupt record header at offset {second}: not spelt as store writes it")


def test_duplicated_record_is_refused_at_its_own_offset(tmp_path):
    raw, second = _two_patient_log(tmp_path)
    with open(_log_path(tmp_path), "ab") as fh:
        fh.write(raw[second:])
    with pytest.raises(FormatError, match=f"offset {len(raw)}: record_id does not match"):
        EhrStore(str(tmp_path))


def _torn_demo(tmp_path) -> tuple[Ledger, bytes, int]:
    """A small seeded demo's private ledger, its log bytes and the offset of
    the log's last record."""
    result = run_demo(seed=11, patients=1, readings_per_device=2, duration=10.0,
                      state_dir=str(tmp_path))
    result.store.close()
    raw = (tmp_path / LOG_NAME).read_bytes()
    return result.dual.private, raw, raw.rindex(b'{"content_hash": ')


def test_a_log_cut_at_every_offset_of_its_last_record_opens_and_audits_as_torn(tmp_path):
    ledger, raw, last = _torn_demo(tmp_path)
    assert len(raw) - last > 200
    whole = EhrStore(str(tmp_path))
    earlier = whole.record_ids()[:-1]
    whole.close()
    assert set(ledger.confirmed().anchors) == set(whole.record_ids())
    for cut in range(last + 1, len(raw)):
        with open(_log_path(tmp_path), "wb") as fh:
            fh.write(raw[:cut])
        store = EhrStore(str(tmp_path))
        try:
            assert store.record_ids() == earlier, cut
            statuses = {r.record_id: r.status for r in audit(store, ledger)}
            assert sorted(statuses.values()) == [INTACT] * len(earlier) + [TORN], cut
            # no append follows a torn record, so none can be lost behind it
            with pytest.raises(FormatError, match=f"torn record at offset {last}: cut the log"):
                store.store(b"later", "p-01", now=99.0)
        finally:
            store.close()
        assert (tmp_path / LOG_NAME).read_bytes() == raw[:cut], cut
    # cut where the refusal says, the log takes appends again
    os.truncate(_log_path(tmp_path), last)
    store = EhrStore(str(tmp_path))
    later = store.store(b"later", "p-01", now=99.0)
    store.close()
    again = EhrStore(str(tmp_path))
    try:
        assert again.record_ids() == earlier + [later.record_id]
        assert again.read(later.record_id) == later
        statuses = [r.status for r in audit(again, ledger)]
        # the cut record's anchor stays, and no torn tail now explains it
        assert sorted(statuses) == [INTACT] * len(earlier) + [TAMPERED]
    finally:
        again.close()


def test_a_torn_tail_is_reported_with_its_offset(tmp_path, caplog):
    raw, second = _two_patient_log(tmp_path)
    with open(_log_path(tmp_path), "wb") as fh:
        fh.write(raw[:-1])  # the last record without its closing newline
    with caplog.at_level("WARNING", logger="rpmdag.ehr"):
        EhrStore(str(tmp_path)).close()
    assert caplog.messages == [
        f"ehr.log ends in a torn record at offset {second}; appends are refused until the log"
        " is cut there"
    ]
    caplog.clear()
    with open(_log_path(tmp_path), "wb") as fh:
        fh.write(raw)
    with caplog.at_level("WARNING", logger="rpmdag.ehr"):
        EhrStore(str(tmp_path)).close()
    assert caplog.messages == []


def test_a_record_without_its_newline_before_the_next_is_refused_at_open(tmp_path):
    # content_len is not bound by record_id; a length one byte too long puts
    # the next header's first byte where the separator should be
    raw, second = _two_patient_log(tmp_path)
    with open(_log_path(tmp_path), "wb") as fh:
        fh.write(raw.replace(b'"content_len": 11', b'"content_len": 12', 1))
    with pytest.raises(FormatError, match="^corrupt record at offset 0: no newline after its"
                                          " content$"):
        EhrStore(str(tmp_path))


def test_a_length_past_the_end_of_the_log_reads_as_a_torn_tail(tmp_path):
    # a length that swallows the records after it cannot be told from a last
    # record cut short, so nothing after it is indexed, and no append may
    # write behind it
    raw, second = _two_patient_log(tmp_path)
    with open(_log_path(tmp_path), "wb") as fh:
        fh.write(raw.replace(b'"content_len": 11', b'"content_len": 9999', 1))
    store = EhrStore(str(tmp_path))
    try:
        assert store.record_ids() == []
        with pytest.raises(FormatError, match="torn record at offset 0"):
            store.store(b"later", "p-01")
    finally:
        store.close()


@pytest.mark.parametrize(
    "field, value",
    [
        ("stored_at", float("inf")),
        ("stored_at", True),
        ("stored_at", "soon"),
        ("stored_at", None),
        # store refuses a time a float cannot hold, so open does too
        ("stored_at", 10**400),
        ("stored_at", -(10**400)),
        ("patient", 5),
        ("content_hash", "ab" * 31),
        ("content_hash", 7),
    ],
)
def test_header_field_of_the_wrong_kind_is_refused_at_open(tmp_path, field, value):
    raw, _ = _two_patient_log(tmp_path)
    first, rest = raw.split(b"\n", 1)
    header = {**json.loads(first), field: value}
    with open(_log_path(tmp_path), "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode() + b"\n" + rest)
    with pytest.raises(FormatError, match="offset 0"):
        EhrStore(str(tmp_path))


@pytest.mark.parametrize(
    "patient, now",
    [
        (5, 1.0),
        (None, 1.0),
        (b"p-01", 1.0),
        ("p-01", float("nan")),
        ("p-01", float("inf")),
        ("p-01", float("-inf")),
        ("p-01", True),
        ("p-01", "soon"),
        ("p-01", None),
        ("p-01", 10**400),
        # too long for repr, so the message must not write it
        pytest.param("p-01", 10**5000, id="p-01-int-of-5001-digits"),
    ],
)
def test_store_refuses_bad_input_before_writing(tmp_path, patient, now):
    store = EhrStore(str(tmp_path))
    kept = store.store(b"kept", "p-01", now=1.0)
    size = os.path.getsize(_log_path(tmp_path))
    with pytest.raises(FormatError):
        store.store(b"refused", patient, now)
    assert os.path.getsize(_log_path(tmp_path)) == size
    later = store.store(b"later", "p-01", now=2.0)
    store.close()
    again = EhrStore(str(tmp_path))
    assert again.record_ids() == [kept.record_id, later.record_id]
    assert again.read(later.record_id) == later
    again.close()


@pytest.mark.parametrize("patient", ["\ud800", "p-01\udfff", "\udc00p"])
def test_store_refuses_a_lone_surrogate_patient_before_writing(tmp_path, patient):
    # UTF-8 cannot encode a lone surrogate, so neither the record id nor
    # the header could be written
    store = EhrStore(str(tmp_path))
    store.store(b"kept", "p-01", now=1.0)
    size = os.path.getsize(_log_path(tmp_path))
    with pytest.raises(FormatError, match="UTF-8 string"):
        store.store(b"refused", patient, 2.0)
    assert os.path.getsize(_log_path(tmp_path)) == size
    store.close()


# quotes, backslashes, control characters, the line separators and
# characters outside ASCII and the BMP, which the JSON header escapes
_PATIENT_CHARS = 'p-0"\\/\x00\x1f\t\n\u00e9\u2028\u4e2d\U0001f600'
# newlines and bytes that are not UTF-8 in the content framing
_CONTENT_BYTES = b"ab\n\r\x00\x80\xc3\xff{}\""


def _random_now(rng: random.Random) -> float:
    pick = rng.randrange(3)
    if pick == 0:
        return rng.choice((0, 0.0, -0.0, 5e-324, 1.7976931348623157e308, -(2**53), 0.1))
    if pick == 1:
        return rng.randrange(-(2**63), 2**63)
    while True:
        value = struct.unpack(">d", rng.getrandbits(64).to_bytes(8, "big"))[0]
        if math.isfinite(value):
            return value


def test_read_returns_the_stored_record_field_for_field(tmp_path):
    rng = random.Random(2020)
    on_disk, in_memory = EhrStore(str(tmp_path)), EhrStore()
    stored = []
    for _ in range(300):
        patient = "".join(rng.choice(_PATIENT_CHARS) for _ in range(rng.randrange(8)))
        content = bytes(rng.choice(_CONTENT_BYTES) for _ in range(rng.randrange(1, 40)))
        now = _random_now(rng)
        rec = on_disk.store(content, patient, now)
        assert in_memory.store(content, patient, now) == rec
        stored.append(rec)
    on_disk.close()
    again = EhrStore(str(tmp_path))
    try:
        for store in (again, in_memory):
            assert store.record_ids() == [rec.record_id for rec in stored]
            for rec in stored:
                # repr also tells -0.0 from 0.0 and an int time from a float one
                assert repr(store.read(rec.record_id)) == repr(rec)
    finally:
        again.close()


class _Text(str):
    """A str subclass, which the JSON encoder writes as its str value."""


class _Int(int):
    """An int subclass whose repr the JSON encoder does not call."""

    def __repr__(self):
        return "seven"


def test_a_header_is_sorted_json_of_its_five_fields(tmp_path):
    patients = ["p-01", _PATIENT_CHARS, "p-\u00e9\u4e2d\U0001f600", _Text("p-01")]
    times = [0, 7, 12.5, -0.0, 1e16, 2**53 + 1, -(2**63), _Int(7), 5e-324,
             1.7976931348623157e308]
    store = EhrStore(str(tmp_path))
    stored = [store.store(b"x" * (i + 1), patient, now)
              for i, (patient, now) in enumerate((p, t) for p in patients for t in times)]
    store.close()
    headers = (tmp_path / LOG_NAME).read_bytes().split(b"\n")[0::2][:-1]
    assert len(headers) == len(stored)
    for header, rec in zip(headers, stored):
        assert header == sorted_json({
            "record_id": rec.record_id,
            "patient": rec.patient,
            "stored_at": rec.stored_at,
            "content_len": len(rec.content),
            "content_hash": rec.content_hash,
        }).encode(), rec
    again = EhrStore(str(tmp_path))
    assert again.record_ids() == [rec.record_id for rec in stored]
    again.close()


def test_a_second_open_indexes_every_record_stored_before_it(tmp_path):
    # each append is in the file when store returns, with nothing left in a
    # buffer of the first store
    first = EhrStore(str(tmp_path))
    stored = []
    try:
        for n in range(5):
            stored.append(first.store(f"reading {n}".encode(), f"p-0{n % 2}", now=float(n)))
            second = EhrStore(str(tmp_path))
            try:
                assert second.record_ids() == [rec.record_id for rec in stored]
                assert [second.read(rec.record_id) for rec in stored] == stored
            finally:
                second.close()
    finally:
        first.close()


@pytest.mark.parametrize("on_disk", [True, False], ids=["file", "memory"])
def test_interleaved_stores_and_reads_keep_every_offset(tmp_path, on_disk):
    rng = random.Random(3001)
    store = EhrStore(str(tmp_path) if on_disk else None)
    stored = []
    try:
        for _ in range(400):
            if stored and rng.random() < 0.6:
                rec = rng.choice(stored)
                assert store.read(rec.record_id) == rec
            else:
                content = bytes(rng.choice(_CONTENT_BYTES) for _ in range(rng.randrange(1, 60)))
                stored.append(store.store(content, f"p-0{rng.randrange(3)}", _random_now(rng)))
    finally:
        store.close()
    if on_disk:
        again = EhrStore(str(tmp_path))
        try:
            assert [again.read(rec.record_id) for rec in stored] == stored
        finally:
            again.close()


class _SevenBytes:
    """A stand-in log whose write takes at most 7 bytes per call."""

    def __init__(self, log):
        self._log = log

    def write(self, data) -> int:
        return self._log.write(data[:7])

    def __getattr__(self, name):
        return getattr(self._log, name)


@pytest.mark.parametrize("on_disk", [True, False], ids=["file", "memory"])
def test_a_short_write_is_completed(tmp_path, on_disk):
    short_dir, whole_dir = tmp_path / "short", tmp_path / "whole"
    short = EhrStore(str(short_dir) if on_disk else None)
    whole = EhrStore(str(whole_dir) if on_disk else None)
    short._log = _SevenBytes(short._log)
    try:
        for n, content in enumerate((b"x", b"bp 120/80", b"\n" * 30, bytes(range(256)))):
            rec = short.store(content, "p-01", now=float(n))
            assert whole.store(content, "p-01", now=float(n)) == rec
            assert short.read(rec.record_id) == rec
        if not on_disk:
            assert short._log.getvalue() == whole._log.getvalue()
    finally:
        short.close()
        whole.close()
    if on_disk:
        assert (short_dir / LOG_NAME).read_bytes() == (whole_dir / LOG_NAME).read_bytes()


def test_reads_after_open_decode_no_json(tmp_path, monkeypatch):
    store = EhrStore(str(tmp_path))
    ledger = make_ledger()
    recs = [store.store(f"reading {n}".encode(), f"p-0{n % 2}", now=float(n)) for n in range(4)]
    for rec in recs:
        anchor(rec, ledger, "svc")
    ledger.seal_block("sealer", 9.0)
    store.close()
    again = EhrStore(str(tmp_path))
    controller = AccessController(clock=ManualClock(0.0))
    controller.register("p-00", Role.PATIENT, "pw")
    session = controller.authenticate("p-00", "pw")

    def refuse(*args, **kwargs):
        raise AssertionError("a read decoded JSON")

    monkeypatch.setattr(rpmdag.ehr, "parse_json", refuse)
    try:
        assert [verify(rec.record_id, again, ledger).status for rec in recs] == [INTACT] * 4
        assert [r.status for r in audit(again, ledger)] == [INTACT] * 4
        assert read_gated(again, recs[0].record_id, controller, session) == recs[0]
        with pytest.raises(AccessDenied):
            read_gated(again, recs[1].record_id, controller, session)
    finally:
        again.close()


def test_anchor_receipt_and_body():
    store, ledger = EhrStore(), make_ledger()
    rec = store.store(b"glucose panel", "p-01")
    assert anchor(rec, ledger, "svc", now=1.0) is None
    (tx,) = ledger.pool
    # only the id and the digest leave the store
    assert tx.body == {"record_id": rec.record_id, "content_hash": rec.content_hash}
    assert rec.content not in repr(tx.body).encode()


def test_anchor_is_once_per_record():
    store, ledger = EhrStore(), make_ledger()
    rec = store.store(b"one shot", "p-01")
    anchor(rec, ledger, "svc")
    with pytest.raises(AlreadyAnchored):
        anchor(rec, ledger, "svc")
    ledger.seal_block("sealer", 1.0)
    # sealed anchors still count
    with pytest.raises(AlreadyAnchored):
        anchor(rec, ledger, "svc")


def test_reloaded_ledger_still_refuses_a_second_anchor():
    store, ledger = EhrStore(), make_ledger()
    rec = store.store(b"sealed then saved", "p-01")
    anchor(rec, ledger, "svc")
    ledger.seal_block("sealer", 1.0)
    again = Ledger.load_text(ledger.save_text())
    with pytest.raises(AlreadyAnchored):
        anchor(rec, again, "svc")
    # a new record still anchors on the reloaded ledger, exactly once
    fresh = store.store(b"after reload", "p-01")
    anchor(fresh, again, "svc")
    with pytest.raises(AlreadyAnchored):
        anchor(fresh, again, "svc")


def test_verify_unanchored_and_pending():
    store, ledger = EhrStore(), make_ledger()
    rec = store.store(b"never anchored", "p-01")
    assert verify(rec.record_id, store, ledger).status == UNANCHORED
    anchor(rec, ledger, "svc")
    # pooled but unsealed anchors do not confirm anything yet
    assert verify(rec.record_id, store, ledger).status == UNANCHORED
    ledger.seal_block("sealer", 1.0)
    result = verify(rec.record_id, store, ledger)
    assert result.status == INTACT
    assert result.recomputed_hash == result.anchored_hash == rec.content_hash


def test_verify_reuses_one_consensus_run_until_a_seal(monkeypatch):
    runs = []
    inner = rpmdag.ledger.ghostdag_run

    def counted(dag, params):
        runs.append(len(dag.blocks))
        return inner(dag, params)

    monkeypatch.setattr(rpmdag.ledger, "ghostdag_run", counted)
    store, ledger = EhrStore(), make_ledger()
    rec = store.store(b"read often", "p-01")
    anchor(rec, ledger, "svc")
    for _ in range(50):
        assert verify(rec.record_id, store, ledger).status == UNANCHORED
    assert runs == [1]
    ledger.seal_block("sealer", 1.0)
    assert verify(rec.record_id, store, ledger).status == INTACT
    assert runs == [1, 2]


def test_confirmed_anchors_is_read_only():
    store, ledger = EhrStore(), make_ledger()
    rec = store.store(b"shared", "p-01")
    anchor(rec, ledger, "svc")
    ledger.seal_block("sealer", 1.0)
    anchors = ledger.confirmed().anchors
    with pytest.raises(TypeError):
        anchors[rec.record_id] = "0" * 64
    assert ledger.confirmed().anchors == {rec.record_id: rec.content_hash}


def test_verify_is_read_only():
    store, ledger = EhrStore(), make_ledger()
    rec = store.store(b"stable", "p-01")
    anchor(rec, ledger, "svc")
    ledger.seal_block("sealer", 1.0)
    first = verify(rec.record_id, store, ledger)
    second = verify(rec.record_id, store, ledger)
    assert first == second
    assert store.read(rec.record_id).content == b"stable"


def test_verify_detects_tampered_content(tmp_path):
    store = EhrStore(str(tmp_path))
    ledger = make_ledger()
    rec = store.store(b"heart rate baseline", "p-01")
    anchor(rec, ledger, "svc")
    ledger.seal_block("sealer", 1.0)
    store.close()

    # same-length flip so the framing still parses
    path = os.path.join(str(tmp_path), LOG_NAME)
    with open(path, "rb") as fh:
        raw = fh.read()
    with open(path, "wb") as fh:
        fh.write(raw.replace(b"baseline", b"basequne"))

    again = EhrStore(str(tmp_path))
    result = verify(rec.record_id, again, ledger)
    assert result.status == TAMPERED
    assert result.recomputed_hash != result.anchored_hash
    again.close()


def test_audit_covers_all_confirmed_anchors():
    store, ledger = EhrStore(), make_ledger()
    recs = [store.store(f"record {n}".encode(), "p-01") for n in range(4)]
    for rec in recs:
        anchor(rec, ledger, "svc")
    ledger.seal_block("sealer", 1.0)
    results = audit(store, ledger)
    assert len(results) == 4
    assert all(r.status == INTACT for r in results)
    assert {r.record_id for r in results} == {r.record_id for r in recs}


def test_audit_flags_missing_content_as_tampered():
    store, ledger = EhrStore(), make_ledger()
    rec = store.store(b"will vanish", "p-01")
    anchor(rec, ledger, "svc")
    ledger.seal_block("sealer", 1.0)
    empty = EhrStore()  # anchored, but this store cannot produce the bytes
    (result,) = audit(empty, ledger)
    assert result.status == TAMPERED
    assert result.recomputed_hash is None
    assert result.anchored_hash == rec.content_hash


def test_a_refused_read_gated_reads_no_content(monkeypatch):
    store = EhrStore()
    rec = store.store(b"private vitals", "p-01")
    controller = AccessController(clock=ManualClock(0.0))
    controller.register("p-01", Role.PATIENT, "pw-patient")
    controller.register("dr-01", Role.HEALTHCARE_PROVIDER, "pw-doctor")
    patient = controller.authenticate("p-01", "pw-patient")
    doctor = controller.authenticate("dr-01", "pw-doctor")
    reads, checks = [], []
    read, check = EhrStore.read, AccessController.check_access
    monkeypatch.setattr(EhrStore, "read", lambda *args: reads.append(args[1]) or read(*args))
    monkeypatch.setattr(AccessController, "check_access",
                        lambda *args: checks.append(args[2]) or check(*args))

    with pytest.raises(AccessDenied, match="^no ehr_read access to p-01$"):
        read_gated(store, rec.record_id, controller, doctor)
    assert (reads, checks) == ([], ["p-01"])
    # an unknown id is refused before any access check
    with pytest.raises(UnknownRecord):
        read_gated(store, "ab" * 32, controller, doctor)
    assert (reads, checks) == ([], ["p-01"])
    # an allowed request reads through EhrStore.read, once
    assert read_gated(store, rec.record_id, controller, patient) == rec
    assert (reads, checks) == ([rec.record_id], ["p-01", "p-01"])


def test_read_gated_requires_a_grant():
    store = EhrStore()
    rec = store.store(b"private vitals", "p-01")
    clock = ManualClock(0.0)
    controller = AccessController(clock=clock)
    controller.register("p-01", Role.PATIENT, "pw-patient")
    controller.register("dr-01", Role.HEALTHCARE_PROVIDER, "pw-doctor")
    patient = controller.authenticate("p-01", "pw-patient")
    doctor = controller.authenticate("dr-01", "pw-doctor")

    assert read_gated(store, rec.record_id, controller, patient).content == b"private vitals"
    with pytest.raises(AccessDenied):
        read_gated(store, rec.record_id, controller, doctor)
    controller.grant(patient, "dr-01", Scope.EHR_READ)
    assert read_gated(store, rec.record_id, controller, doctor) == rec
