from __future__ import annotations

import base64
import json
import math
import os
import random
import stat

import pytest

from rpmdag.dag import Block
from rpmdag.errors import FormatError, KindNotAdmissible, PhiLeak, Unauthorized
from rpmdag.hashing import digest
from rpmdag.ledger import (
    PRIVATE,
    PUBLIC,
    DualLedger,
    Ledger,
    Transaction,
    TxKind,
    inspect_jsonl,
    validate_alert_body,
)
from rpmdag.pipeline import run_demo

from helpers import CRAFTED_LEDGERS, crafted_ledger_text

WRITERS = {"svc", "sealer"}


def anchor_tx(n: int, author: str = "svc") -> Transaction:
    return Transaction(
        kind=TxKind.EHR_ANCHOR,
        body={"record_id": f"rec-{n}", "content_hash": digest(bytes([n])).hex()},
        submitted_at=float(n),
        author=author,
    )


def alert_body(**overrides) -> dict:
    body = {
        "patient": "p-01",
        "rule_id": "r-7",
        "ehr_record_hash": digest(b"x").hex(),
        "occurred_at": 12.5,
        "severity": "urgent",
    }
    body.update(overrides)
    return body


def test_tx_id_excludes_submission_time():
    a = Transaction(TxKind.EHR_ANCHOR, {"record_id": "r", "content_hash": "c"}, 1.0, "svc")
    b = Transaction(TxKind.EHR_ANCHOR, {"record_id": "r", "content_hash": "c"}, 99.0, "svc")
    assert a.id == b.id


def test_tx_id_binds_kind_body_author():
    base = Transaction(TxKind.EHR_ANCHOR, {"record_id": "r"}, 1.0, "svc")
    assert Transaction(TxKind.ACCESS_CHANGE, {"record_id": "r"}, 1.0, "svc").id != base.id
    assert Transaction(TxKind.EHR_ANCHOR, {"record_id": "s"}, 1.0, "svc").id != base.id
    assert Transaction(TxKind.EHR_ANCHOR, {"record_id": "r"}, 1.0, "other").id != base.id


def test_tx_wire_round_trip():
    tx = anchor_tx(3)
    again = Transaction.from_wire(tx.to_wire())
    assert again == tx and again.id == tx.id


def test_tx_from_wire_rejects_tampering():
    wire = anchor_tx(3).to_wire()
    wire["body"]["record_id"] = "rec-999"
    with pytest.raises(FormatError):
        Transaction.from_wire(wire)
    with pytest.raises(FormatError):
        Transaction.from_wire({"kind": "nope"})


def test_alert_body_accepts_the_closed_schema():
    validate_alert_body(alert_body())
    validate_alert_body(alert_body(severity="advisory", occurred_at=0))


def test_alert_body_rejects_extra_and_missing_fields():
    with pytest.raises(PhiLeak):
        validate_alert_body(alert_body(value=120.0))
    short = alert_body()
    del short["severity"]
    with pytest.raises(PhiLeak):
        validate_alert_body(short)
    with pytest.raises(PhiLeak):
        validate_alert_body("not a dict")


def test_alert_body_rejects_wrong_shapes():
    with pytest.raises(PhiLeak):
        validate_alert_body(alert_body(patient=42))
    with pytest.raises(PhiLeak):
        validate_alert_body(alert_body(occurred_at="noon"))
    with pytest.raises(PhiLeak):
        validate_alert_body(alert_body(severity="panic"))
    with pytest.raises(PhiLeak):
        validate_alert_body(alert_body(ehr_record_hash="abc123"))
    with pytest.raises(PhiLeak):
        validate_alert_body(alert_body(ehr_record_hash=digest(b"x").hex().upper()))


@pytest.mark.parametrize("at", [math.nan, math.inf, -math.inf, True])
def test_alert_body_refuses_an_occurred_at_that_is_not_a_finite_number(at):
    with pytest.raises(PhiLeak, match="occurred_at"):
        validate_alert_body(alert_body(occurred_at=at))


def test_alert_with_an_int_occurred_at_of_any_size_round_trips():
    # math.isfinite overflows on an int above the float range
    ledger = Ledger(PUBLIC, 3, WRITERS)
    tx = Transaction(TxKind.ALERT_EVENT, alert_body(occurred_at=2**1100), 1.0, "svc")
    ledger.submit(tx, "svc")
    ledger.seal_block("sealer", 2.0)
    text = ledger.save_text()
    again = Ledger.load_text(text)
    assert again.save_text() == text
    assert [e.tx.body["occurred_at"] for e in again.confirmed()] == [2**1100]


def test_alert_body_rejects_vital_names_and_loose_tokens():
    with pytest.raises(PhiLeak):
        validate_alert_body(alert_body(patient="p-heart_rate-1"))
    with pytest.raises(PhiLeak):
        validate_alert_body(alert_body(rule_id="Glucose_rule"))
    with pytest.raises(PhiLeak):
        validate_alert_body(alert_body(patient="two words"))


def test_submit_requires_authorized_author():
    ledger = Ledger(PRIVATE, 3, WRITERS)
    with pytest.raises(Unauthorized):
        ledger.submit(anchor_tx(1, author="intruder"), "intruder")
    # author must match the submitting entity
    with pytest.raises(Unauthorized):
        ledger.submit(anchor_tx(1, author="svc"), "sealer")


def test_public_ledger_admits_only_alerts():
    ledger = Ledger(PUBLIC, 3, WRITERS)
    with pytest.raises(KindNotAdmissible):
        ledger.submit(anchor_tx(1), "svc")
    tx = Transaction(TxKind.ALERT_EVENT, alert_body(), 1.0, "svc")
    receipt = ledger.submit(tx, "svc")
    assert receipt.tx_id == tx.id and receipt.position == 0
    assert ledger.has_tx(tx.id)


def test_alert_bodies_are_scanned_on_any_ledger():
    ledger = Ledger(PRIVATE, 3, WRITERS)
    bad = Transaction(TxKind.ALERT_EVENT, alert_body(value=7.0), 1.0, "svc")
    with pytest.raises(PhiLeak):
        ledger.submit(bad, "svc")
    assert not ledger.has_tx(bad.id)
    assert ledger.pool == []


@pytest.mark.parametrize("at", [math.nan, math.inf, -math.inf, "1.0", None, True])
def test_submit_refuses_a_submitted_at_that_is_not_a_finite_number(at):
    ledger = Ledger(PRIVATE, 3, WRITERS)
    ledger.submit(anchor_tx(1), "svc")
    tx = Transaction(TxKind.EHR_ANCHOR, {"record_id": "r", "content_hash": "c"}, at, "svc")
    with pytest.raises(FormatError, match="submitted_at"):
        ledger.submit(tx, "svc")
    assert not ledger.has_tx(tx.id)
    assert ledger.pool == [anchor_tx(1)]


def test_submit_takes_an_int_submitted_at_of_any_size():
    ledger = Ledger(PRIVATE, 3, WRITERS)
    for n, at in enumerate((0, 2**1100)):
        ledger.submit(Transaction(TxKind.EHR_ANCHOR, {"record_id": f"r{n}", "content_hash": "c"},
                                  at, "svc"), "svc")
    ledger.seal_block("sealer", 1.0)
    again = Ledger.load_text(ledger.save_text())
    assert [e.tx.submitted_at for e in again.confirmed()] == [0, 2**1100]


def test_seal_requires_authorized_creator():
    ledger = Ledger(PRIVATE, 3, WRITERS)
    with pytest.raises(Unauthorized):
        ledger.seal_block("intruder", 1.0)


def test_seal_drains_fifo_up_to_cap():
    ledger = Ledger(PRIVATE, 3, WRITERS, max_block_txs=2)
    txs = [anchor_tx(n) for n in range(3)]
    for tx in txs:
        ledger.submit(tx, "svc")
    block = ledger.seal_block("sealer", 1.0)
    assert [t.id for t in block.payload] == [txs[0].id, txs[1].id]
    assert [t.id for t in ledger.pool] == [txs[2].id]


def test_seal_empty_pool_extends_tips():
    ledger = Ledger(PRIVATE, 3, WRITERS)
    first = ledger.seal_block("sealer", 1.0)
    second = ledger.seal_block("sealer", 2.0)
    assert first.payload == () and second.payload == ()
    assert second.parents == (first.id,)
    assert ledger.dag.tips == {second.id}


def test_confirmed_empty_ledger():
    ledger = Ledger(PRIVATE, 3, WRITERS)
    assert len(ledger.confirmed()) == 0


def test_confirmed_preserves_pool_order_within_blocks():
    ledger = Ledger(PRIVATE, 3, WRITERS)
    first = [anchor_tx(n) for n in range(3)]
    for tx in first:
        ledger.submit(tx, "svc")
    ledger.seal_block("sealer", 1.0)
    later = anchor_tx(9)
    ledger.submit(later, "svc")
    ledger.seal_block("sealer", 2.0)
    stream = ledger.confirmed()
    assert [e.tx.id for e in stream] == [t.id for t in first] + [later.id]
    assert [e.position for e in stream] == [0, 1, 2, 3]


def test_duplicate_tx_in_parallel_blocks_appears_once():
    # hand-build two blocks over the same parent carrying the same tx
    ledger = Ledger(PRIVATE, 3, WRITERS)
    tx = anchor_tx(1)
    left = Block.create([ledger.genesis_id], (tx,), 1.0, "sealer")
    right = Block.create([ledger.genesis_id], (tx, anchor_tx(2)), 1.0, "other")
    ledger.dag.add(left)
    ledger.dag.add(right)
    stream = ledger.confirmed()
    ids = [e.tx.id for e in stream]
    assert ids.count(tx.id) == 1
    # it is credited to the block that comes earlier in consensus order
    entry = linear_find(stream, tx.id)
    earlier = min((left.id, right.id))
    assert entry.block == earlier
    assert entry.position == 0


def test_stream_prefix_is_stable_under_growth():
    ledger = Ledger(PRIVATE, 3, WRITERS)
    seen: list[list[bytes]] = []
    n = 0
    for round_ in range(5):
        for _ in range(round_ + 1):
            ledger.submit(anchor_tx(n), "svc")
            n += 1
        ledger.seal_block("sealer", float(round_))
        seen.append([e.tx.id for e in ledger.confirmed()])
    for before, after in zip(seen, seen[1:]):
        assert after[: len(before)] == before


def test_no_fabrication():
    ledger = Ledger(PRIVATE, 3, WRITERS)
    submitted = set()
    for n in range(7):
        tx = anchor_tx(n)
        ledger.submit(tx, "svc")
        submitted.add(tx.id)
        if n % 3 == 2:
            ledger.seal_block("sealer", float(n))
    ledger.seal_block("sealer", 99.0)
    confirmed = {e.tx.id for e in ledger.confirmed()}
    assert confirmed == submitted


def build_ledger() -> Ledger:
    ledger = Ledger(PRIVATE, 2, WRITERS, max_block_txs=4)
    for n in range(6):
        ledger.submit(anchor_tx(n), "svc")
        if n % 2 == 1:
            ledger.seal_block("sealer", float(n))
    ledger.seal_block("sealer", 10.0)
    return ledger


def test_persistence_round_trip(tmp_path):
    ledger = build_ledger()
    path = tmp_path / "test.ledger"
    ledger.save(path)
    again = Ledger.load(path)
    assert again.visibility == ledger.visibility
    assert again.params.k == ledger.params.k
    assert again.max_block_txs == ledger.max_block_txs
    assert again.authorized_writers == ledger.authorized_writers
    assert set(again.dag.blocks) == set(ledger.dag.blocks)
    assert [e.tx.id for e in again.confirmed()] == [e.tx.id for e in ledger.confirmed()]
    assert again.save_text() == ledger.save_text()


def test_persistence_detects_payload_tampering():
    ledger = build_ledger()
    text = ledger.save_text()
    lines = text.splitlines()
    # corrupt one payload character in the first non-empty payload column
    for i, line in enumerate(lines):
        if " | " not in line:
            continue
        head, payload, rest = line.split(" | ", 2)
        if payload.strip():
            flipped = ("A" if payload[0] != "A" else "B") + payload[1:]
            lines[i] = " | ".join((head, flipped, rest))
            break
    with pytest.raises(FormatError):
        Ledger.load_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("encoding", ["utf-16", "utf-8-sig"])
def test_payload_chunk_that_is_not_plain_utf8_is_a_format_error(encoding):
    text = build_ledger().save_text()
    line = text.splitlines()[2]
    chunk = line.split(" | ")[1].split(",")[0]
    raw = base64.b64decode(chunk)
    recoded = raw.decode("utf-8").encode(encoding)
    # the same JSON document, which json.loads on bytes would still read
    assert json.loads(recoded) == json.loads(raw)
    crafted = text.replace(chunk, base64.b64encode(recoded).decode(), 1)
    with pytest.raises(FormatError, match="line 3: bad payload"):
        Ledger.load_text(crafted)


def test_persistence_detects_declared_id_mismatch():
    ledger = build_ledger()
    text = ledger.save_text()
    lines = text.splitlines()
    tampered = lines[-1]
    declared, rest = tampered.split(":", 1)
    flipped = ("0" if declared[0] != "0" else "1") + declared[1:]
    lines[-1] = flipped + ":" + rest
    with pytest.raises(FormatError):
        Ledger.load_text("\n".join(lines) + "\n")


def test_persistence_rejects_foreign_headers():
    with pytest.raises(FormatError):
        Ledger.load_text("not a ledger at all\n")
    ledger = build_ledger()
    text = ledger.save_text().replace("alg=sha256", "alg=md5")
    with pytest.raises(FormatError):
        Ledger.load_text(text)


@pytest.mark.parametrize(
    "old, new, named",
    [
        ("k=2", "k=x", "k="),
        ("max=4", "max=x", "max="),
        ("k=2", "k=2 junk", "junk"),
        ("max=4", "max=-1", "max="),
        ("max=4", "max=0", "max="),
    ],
)
def test_malformed_header_is_a_format_error(old, new, named):
    text = build_ledger().save_text()
    assert old in text.splitlines()[0]
    with pytest.raises(FormatError, match=named):
        Ledger.load_text(text.replace(old, new, 1))


@pytest.mark.parametrize(
    "visibility, tx, named",
    [case[1:] for case in CRAFTED_LEDGERS],
    ids=[case[0] for case in CRAFTED_LEDGERS],
)
def test_load_text_applies_submit_body_rules(visibility, tx, named):
    text = crafted_ledger_text(visibility, tx)
    # line 1 is the header, line 2 genesis, line 3 the crafted block
    with pytest.raises(FormatError, match=f"line 3: .*{named}"):
        Ledger.load_text(text)


def test_save_leaves_the_old_file_when_the_rename_fails(tmp_path, monkeypatch):
    path = tmp_path / "test.ledger"
    Ledger(PRIVATE, 2, WRITERS).save(path)
    before = path.read_text()

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="disk full"):
        build_ledger().save(path)
    assert path.read_text() == before
    assert os.listdir(tmp_path) == ["test.ledger"]


def test_save_keeps_the_mode_and_writes_through_a_symlink(tmp_path):
    target = tmp_path / "real.ledger"
    Ledger(PRIVATE, 2, WRITERS).save(target)
    os.chmod(target, 0o600)
    link = tmp_path / "link.ledger"
    link.symlink_to(target)
    ledger = build_ledger()
    ledger.save(link)
    assert link.is_symlink()
    assert target.read_text() == ledger.save_text()
    assert stat.S_IMODE(os.stat(target).st_mode) == 0o600
    assert sorted(os.listdir(tmp_path)) == ["link.ledger", "real.ledger"]


def linear_find(stream, tx_id):
    return next((e for e in stream.entries if e.tx.id == tx_id), None)


def first_wins_anchors(stream) -> dict[str, str]:
    out = {}
    for e in stream.entries:
        if e.tx.kind is TxKind.EHR_ANCHOR and e.tx.body["record_id"] not in out:
            out[e.tx.body["record_id"]] = e.tx.body["content_hash"]
    return out


def test_confirmed_memo_matches_a_rebuilt_ledger():
    rng = random.Random(41)
    ledger = Ledger(PRIVATE, 2, WRITERS, max_block_txs=3)
    made: list[Transaction] = []
    for step in range(60):
        op = rng.choice(("submit", "submit", "seal", "concurrent"))
        if op == "submit":
            # record ids repeat so that later anchors lose to earlier ones
            tx = Transaction(
                TxKind.EHR_ANCHOR,
                {"record_id": f"rec-{rng.randrange(8)}", "content_hash": f"h{step}"},
                float(step),
                "svc",
            )
            ledger.submit(tx, "svc")
            made.append(tx)
        elif op == "seal":
            ledger.seal_block("sealer", float(step))
        else:
            # a block beside the sealer's, on an older parent, that may
            # repeat transactions other blocks already carry
            parent = rng.choice(sorted(ledger.dag.blocks))
            fresh = anchor_tx(100 + step)
            made.append(fresh)
            payload = tuple(rng.sample(made, min(len(made), 2))) + (fresh,)
            ledger.dag.add(Block.create([parent], payload, float(step), "other"))
        stream = ledger.confirmed()
        assert ledger.confirmed() is stream  # unchanged tips: the memo
        rebuilt = Ledger.load_text(ledger.save_text()).confirmed()
        assert stream.entries == rebuilt.entries
        assert stream.anchors == first_wins_anchors(rebuilt)
    assert ledger.confirmed().entries and ledger.confirmed().anchors


def scanned_anchor_ids(ledger: Ledger) -> set[str]:
    """Brute-force scan of pool plus blocks, sharing no code with the index."""
    ids = set()
    for tx in ledger.pool:
        if tx.kind is TxKind.EHR_ANCHOR:
            ids.add(tx.body["record_id"])
    for block in ledger.dag.blocks.values():
        for tx in block.payload:
            if tx.kind is TxKind.EHR_ANCHOR:
                ids.add(tx.body["record_id"])
    return ids


def test_anchor_index_counts_raw_submits():
    ledger = Ledger(PRIVATE, 3, WRITERS)
    ledger.submit(anchor_tx(1), "svc")
    assert ledger.anchored_record_ids() == {"rec-1"}
    ledger.seal_block("sealer", 1.0)
    ledger.submit(anchor_tx(2), "svc")
    assert ledger.anchored_record_ids() == {"rec-1", "rec-2"} == scanned_anchor_ids(ledger)


def test_malformed_anchor_body_is_a_format_error():
    bodies = (
        {"content_hash": "c"},
        {"record_id": "r"},
        {"record_id": 7, "content_hash": "c"},
        {"record_id": "r", "content_hash": None},
        ["r", "c"],
    )
    # rejected alike before the anchor index exists and once it is live
    for indexed in (False, True):
        ledger = Ledger(PRIVATE, 3, WRITERS)
        ledger.submit(anchor_tx(1), "svc")
        if indexed:
            assert ledger.anchored_record_ids() == {"rec-1"}
        for body in bodies:
            tx = Transaction(TxKind.EHR_ANCHOR, body, 2.0, "svc")
            with pytest.raises(FormatError, match="record_id and content_hash"):
                ledger.submit(tx, "svc")
            assert not ledger.has_tx(tx.id)
        assert ledger.pool == [anchor_tx(1)]
        assert ledger.anchored_record_ids() == {"rec-1"}


def test_malformed_access_change_body_is_a_format_error():
    good = {"action": "grant", "grant_id": "grant-0001", "grantor": "p-01",
            "grantee": "dr-01", "scope": "ehr_read", "at": 5.0}
    ledger = Ledger(PRIVATE, 3, WRITERS)
    for action in ("grant", "revoke"):
        ledger.submit(Transaction(TxKind.ACCESS_CHANGE, {**good, "action": action}, 1.0, "svc"), "svc")
    broken = [
        ("action", "grant or revoke", {"action": "transfer"}),
        ("action", "grant or revoke", {"action": None}),
        ("grant_id", "string", {"grant_id": 1}),
        ("grantor", "string", {"grantor": None}),
        ("grantee", "string", {"grantee": ["dr-01"]}),
        ("scope", "one of", {"scope": "everything"}),
        ("scope", "one of", {"scope": ["ehr_read"]}),
        ("at", "number", {"at": "5"}),
        ("at", "number", {"at": True}),
    ]
    for field_name, rule, change in broken:
        tx = Transaction(TxKind.ACCESS_CHANGE, {**good, **change}, 2.0, "svc")
        with pytest.raises(FormatError, match=f"'{field_name}' must be .*{rule}"):
            ledger.submit(tx, "svc")
    missing = {name: value for name, value in good.items() if name != "grantee"}
    with pytest.raises(FormatError, match="'grantee'"):
        ledger.submit(Transaction(TxKind.ACCESS_CHANGE, missing, 2.0, "svc"), "svc")
    with pytest.raises(FormatError, match="field map"):
        ledger.submit(Transaction(TxKind.ACCESS_CHANGE, ["grant"], 2.0, "svc"), "svc")
    assert len(ledger.pool) == 2


def test_anchor_index_matches_a_scan_live_and_reloaded():
    # 12 x 100 readings overflow the block cap, so the live ledger keeps a pool
    ledger = run_demo(seed=3, patients=12, readings_per_device=100).dual.private
    assert any(tx.kind is TxKind.EHR_ANCHOR for tx in ledger.pool)
    live = ledger.anchored_record_ids()
    assert live == scanned_anchor_ids(ledger) and live
    reloaded = Ledger.load_text(ledger.save_text())
    assert reloaded.anchored_record_ids() == scanned_anchor_ids(reloaded)
    # save_text persists sealed blocks only, so pooled anchors are not reloaded
    pooled = {tx.body["record_id"] for tx in ledger.pool if tx.kind is TxKind.EHR_ANCHOR}
    assert reloaded.anchored_record_ids() == live - pooled


def test_dual_ledger_routes_and_guards():
    dual = DualLedger.create(3, private_writers=WRITERS, public_writers=WRITERS)
    alert = Transaction(TxKind.ALERT_EVENT, alert_body(), 1.0, "svc")
    dual.public.submit(alert, "svc")
    # the same alert may not also land on the private side
    with pytest.raises(KindNotAdmissible):
        dual.submit_private(alert, "svc")
    # other kinds go private; alerts not on the public side are fine too
    dual.submit_private(anchor_tx(1), "svc")
    other = Transaction(TxKind.ALERT_EVENT, alert_body(rule_id="r-8"), 1.0, "svc")
    dual.submit_private(other, "svc")
    priv, pub = dual.seal_all("sealer", 2.0)
    assert len(priv.payload) == 2 and len(pub.payload) == 1


def test_inspect_jsonl_shape():
    import json

    ledger = build_ledger()
    lines = inspect_jsonl(ledger).strip().splitlines()
    assert len(lines) == 6
    first = json.loads(lines[0])
    assert set(first) == {"position", "block", "tx"}
    assert first["position"] == 0
    assert first["tx"]["kind"] == "ehr_anchor"
