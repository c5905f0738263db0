from __future__ import annotations

import os

import pytest

from rpmdag.acl import AccessController, ManualClock, Role, Scope
from rpmdag.ehr import (
    INTACT,
    LOG_NAME,
    TAMPERED,
    UNANCHORED,
    EhrStore,
    anchor,
    audit,
    confirmation_position,
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
from rpmdag.hashing import digest
from rpmdag.ledger import PRIVATE, Ledger

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


def test_corrupt_header_is_rejected_on_open(tmp_path):
    store = EhrStore(str(tmp_path))
    store.store(b"fine", "p-01")
    store.close()
    path = os.path.join(str(tmp_path), LOG_NAME)
    with open(path, "r+b") as fh:
        fh.write(b"{broken")
    with pytest.raises(FormatError):
        EhrStore(str(tmp_path))


def test_anchor_receipt_and_body():
    store, ledger = EhrStore(), make_ledger()
    rec = store.store(b"glucose panel", "p-01")
    receipt = anchor(rec, ledger, "svc", now=1.0)
    assert receipt.record_id == rec.record_id
    assert receipt.content_hash == rec.content_hash
    tx = ledger.pool[0]
    assert tx.id == receipt.tx_id
    # only the id and the digest leave the store
    assert set(tx.body) == {"record_id", "content_hash"}
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


def test_confirmation_position():
    store, ledger = EhrStore(), make_ledger()
    rec = store.store(b"positioned", "p-01")
    receipt = anchor(rec, ledger, "svc")
    assert confirmation_position(ledger, receipt.tx_id) is None
    ledger.seal_block("sealer", 1.0)
    assert confirmation_position(ledger, receipt.tx_id) == 0


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
