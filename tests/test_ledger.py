from __future__ import annotations

import base64
import binascii
import dataclasses
import gc
import json
import math
import os
import random
import re
import stat
import struct
import sys
import tracemalloc

import pytest

import rpmdag.ledger as ledger_module
from rpmdag.dag import Block
from rpmdag.errors import FormatError, KindNotAdmissible, PhiLeak, Unauthorized
from rpmdag.hashing import canonical_json, digest
from rpmdag.ledger import (
    PRIVATE,
    PUBLIC,
    DualLedger,
    Ledger,
    Transaction,
    TxKind,
    inspect_jsonl,
    inspect_lines,
    validate_alert_body,
)
from rpmdag.pipeline import run_demo

from helpers import CRAFTED_LEDGERS, crafted_ledger_text, fold_tips, reference_inspect_line

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


# characters that JSON escapes or that leave ASCII: quotes, backslashes,
# control characters, the line separators, and a non-BMP character that is
# escaped as a surrogate pair
_CHARS = 'ab kind,:"\\/\x00\x01\x1f\x7f\t\n\u00e9\u2028\u4e2d\U0001f600'
_TRAPS = ('kind', ',"kind":', '"kind":"alert_event"}', 'submitted_at', 'id')


def _random_text(rng: random.Random) -> str:
    if rng.random() < 0.2:
        return rng.choice(_TRAPS)
    return "".join(rng.choice(_CHARS) for _ in range(rng.randrange(8)))


def _random_float(rng: random.Random) -> float:
    """A finite float from the whole range: subnormal, near the maximum,
    signed zeros, or any bit pattern that is not NaN or infinite."""
    pick = rng.randrange(4)
    if pick == 0:
        return rng.choice((5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                           -1.7976931348623157e308, 0.0, -0.0, 0.1, 1e16, 1e-7))
    if pick == 1:
        return rng.uniform(-1e6, 1e6)
    while True:
        value = struct.unpack(">d", rng.getrandbits(64).to_bytes(8, "big"))[0]
        if math.isfinite(value):
            return value


def _random_int(rng: random.Random) -> int:
    value = rng.getrandbits(rng.choice((1, 8, 53, 64, 1100)))
    return -value if rng.random() < 0.3 else value


def _random_json(rng: random.Random, depth: int = 0):
    pick = rng.randrange(8 if depth < 3 else 5)
    if pick == 0:
        return rng.choice((None, True, False))
    if pick == 1:
        return _random_int(rng)
    if pick == 2:
        return _random_float(rng)
    if pick in (3, 4):
        return _random_text(rng)
    if pick == 5:
        return [_random_json(rng, depth + 1) for _ in range(rng.randrange(4))]
    return _random_body(rng, depth + 1)


def _random_body(rng: random.Random, depth: int = 0) -> dict:
    body = {_random_text(rng): _random_json(rng, depth) for _ in range(rng.randrange(5))}
    if rng.random() < 0.3:
        body["kind"] = _random_json(rng, depth)
    return body


def _random_submitted_at(rng: random.Random):
    return _random_int(rng) if rng.random() < 0.4 else _random_float(rng)


def test_wire_bytes_equal_the_encoded_wire_dict():
    rng = random.Random(1901)
    for _ in range(600):
        tx = Transaction(
            kind=rng.choice(list(TxKind)),
            body=_random_body(rng),
            submitted_at=_random_submitted_at(rng),
            author=_random_text(rng),
        )
        assert tx.wire_bytes() == canonical_json(tx.to_wire()), tx


class _Text(str):
    """A str subclass: the JSON encoder writes its str value, and ident
    spells it with canonical_json rather than the string escape."""


def _envelope(kind: TxKind, body, author) -> bytes:
    """The identity bytes as the dict of kind, body and author encodes."""
    return canonical_json({"kind": kind.value, "body": body, "author": author})


IDENT_AUTHORS = [
    "rpm-pipeline", "", "dr-\u00e9\u4e2d\U0001f600", 'q"\\/\x00\x1f\t\n\u2028', "\ud800",
    _Text("svc"), _Text('q"\u00e9'), 7, -0.0, None, True, ["svc"], {"id": "svc"},
]
IDENT_BODIES = [
    {},
    {"record_id": "rec-1", "content_hash": "ab" * 32},
    {"z": {"y": [1, {"x": None, "w": [True, -0.0, 2**70, 1e-300]}]}, "a": []},
    {"\u00e9": "\u4e2d\U0001f600", "k\n\"": "\ud800\u2028", "": {"\U0001f600": ["\x7f"]}},
]


def test_ident_is_the_encoded_envelope_for_every_kind_author_and_body():
    for kind in TxKind:
        for author in IDENT_AUTHORS:
            for body in IDENT_BODIES:
                tx = Transaction(kind, body, 0.0, author)
                assert tx.ident == _envelope(kind, body, author), (kind, author, body)
                assert tx.id == digest(tx.ident)
    rng = random.Random(3301)
    for _ in range(300):
        kind, body, author = rng.choice(list(TxKind)), _random_body(rng), _random_text(rng)
        assert Transaction(kind, body, 0.0, author).ident == _envelope(kind, body, author)


@pytest.mark.parametrize("body", [{"v": math.nan}, {"v": math.inf},
                                  pytest.param({"v": object()}, id="{'v': object()}"),
                                  {"v": b"raw"}, {1: "a", "b": 2}], ids=repr)
def test_ident_refuses_a_body_as_the_envelope_does(body):
    with pytest.raises((ValueError, TypeError)) as enveloped:
        _envelope(TxKind.RULE_EVALUATION, body, "svc")
    with pytest.raises(type(enveloped.value), match=re.escape(str(enveloped.value))):
        Transaction(TxKind.RULE_EVALUATION, body, 0.0, "svc")


def _nested(depth: int) -> dict:
    body: dict = {}
    for _ in range(depth):
        body = {"x": body}
    return body


def _deepest(ident) -> int:
    """The deepest _nested body ident(body) encodes without RecursionError."""
    def encodes(depth):
        try:
            ident(_nested(depth))
        except RecursionError:
            return False
        return True

    low, high = 1, 2
    while encodes(high):
        low, high = high, high * 2
    while high - low > 1:
        middle = (low + high) // 2
        low, high = (middle, high) if encodes(middle) else (low, middle)
    return low


class _Enveloped(Transaction):
    """A Transaction whose ident is canonical_json of the envelope dict."""

    def __post_init__(self):
        ident = canonical_json({"kind": self.kind.value, "body": self.body, "author": self.author})
        object.__setattr__(self, "ident", ident)


def test_ident_of_a_body_at_the_recursion_limit():
    # _Enveloped encodes the envelope dict from the same call depth
    def spliced(body):
        return Transaction(TxKind.RULE_EVALUATION, body, 0.0, "svc").ident

    def enveloped(body):
        return _Enveloped(TxKind.RULE_EVALUATION, body, 0.0, "svc").ident

    deepest = _deepest(enveloped)
    assert spliced(_nested(deepest)) == enveloped(_nested(deepest))
    # the splice encodes the body one level shallower than the envelope does,
    # so a body one level deeper may encode where the envelope's did not
    assert _deepest(spliced) in (deepest, deepest + 1)


@pytest.mark.parametrize("at", [math.nan, math.inf, -math.inf])
def test_wire_bytes_refuse_a_non_finite_time_as_canonical_json_does(at):
    tx = Transaction(TxKind.EHR_ANCHOR, {"record_id": "r", "content_hash": "c"}, at, "svc")
    with pytest.raises(ValueError):
        canonical_json(tx.to_wire())
    with pytest.raises(ValueError):
        tx.wire_bytes()


def test_every_saved_chunk_of_the_seed_11_demo_is_its_wire_bytes(tmp_path):
    # the steps of `rpm demo --seed 11 --state-dir DIR`
    result = run_demo(seed=11, state_dir=str(tmp_path))
    result.store.close()
    chunks = 0
    for ledger in (result.dual.private, result.dual.public):
        path = tmp_path / f"{ledger.visibility}.ledger"
        ledger.save(path)
        for line in path.read_text().splitlines()[1:]:
            head, payload, _, _ = line.split(" | ")
            block = ledger.dag.blocks[bytes.fromhex(head.partition(":")[0])]
            saved = [base64.b64decode(chunk) for chunk in payload.split(",") if chunk]
            assert saved == [tx.wire_bytes() for tx in block.payload]
            chunks += len(saved)
    assert chunks > 1000


def test_transaction_and_confirmed_tx_are_slotted():
    tx = anchor_tx(3)
    ledger = Ledger(PRIVATE, 3, WRITERS)
    ledger.submit(tx, "svc")
    ledger.seal_block("sealer", 1.0)
    (entry,) = ledger.confirmed()
    assert not hasattr(tx, "__dict__")
    assert not hasattr(entry, "__dict__")
    assert entry.tx is tx


def test_a_replaced_transaction_keeps_its_id_and_identity_bytes():
    tx = anchor_tx(3)
    moved = dataclasses.replace(tx, submitted_at=99.0)
    assert moved.submitted_at == 99.0
    assert moved.id == tx.id and moved.ident == tx.ident
    assert digest(tx.ident) == tx.id


def test_a_transaction_equals_a_rebuilt_copy():
    tx = anchor_tx(3)
    again = Transaction(tx.kind, dict(tx.body), tx.submitted_at, tx.author)
    assert again == tx and again is not tx
    assert again != dataclasses.replace(tx, submitted_at=99.0)
    assert "ident" not in repr(tx)


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


@pytest.mark.parametrize("at", [
    math.nan, math.inf, -math.inf, True,
    # ints a float cannot hold, refused as submitted_at is
    pytest.param(2**1100, id="2**1100"), pytest.param(-(10**400), id="-10**400"),
    pytest.param(10**5000, id="10**5000"),
])
def test_alert_body_refuses_an_occurred_at_that_is_not_a_finite_number(at):
    with pytest.raises(PhiLeak, match="occurred_at"):
        validate_alert_body(alert_body(occurred_at=at))


def test_alert_with_an_int_occurred_at_a_float_can_hold_round_trips():
    # math.isfinite would overflow on an int above the float range; the
    # largest ints a float holds are taken and saved as ints
    ledger = Ledger(PUBLIC, 3, WRITERS)
    times = [0, 2**1023, -(2**1023)]
    for at in times:
        tx = Transaction(TxKind.ALERT_EVENT, alert_body(occurred_at=at), 1.0, "svc")
        ledger.submit(tx, "svc")
    ledger.seal_block("sealer", 2.0)
    text = ledger.save_text()
    again = Ledger.load_text(text)
    assert again.save_text() == text
    assert sorted(e.tx.body["occurred_at"] for e in again.confirmed()) == sorted(times)


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
    assert ledger.submit(tx, "svc") is None
    assert ledger.pool == [tx]
    assert ledger.has_tx(tx.id)


def test_alert_bodies_are_scanned_on_any_ledger():
    ledger = Ledger(PRIVATE, 3, WRITERS)
    bad = Transaction(TxKind.ALERT_EVENT, alert_body(value=7.0), 1.0, "svc")
    with pytest.raises(PhiLeak):
        ledger.submit(bad, "svc")
    assert not ledger.has_tx(bad.id)
    assert ledger.pool == []


@pytest.mark.parametrize("at", [
    math.nan, math.inf, -math.inf, "1.0", None, True,
    # ints a float cannot hold; save could not write 10**5000, nor repr show it
    pytest.param(2**1100, id="2**1100"), pytest.param(-(10**400), id="-10**400"),
    pytest.param(10**5000, id="10**5000"),
])
def test_submit_refuses_a_submitted_at_that_is_not_a_finite_number(at):
    ledger = Ledger(PRIVATE, 3, WRITERS)
    ledger.submit(anchor_tx(1), "svc")
    tx = Transaction(TxKind.EHR_ANCHOR, {"record_id": "r", "content_hash": "c"}, at, "svc")
    with pytest.raises(FormatError, match="submitted_at"):
        ledger.submit(tx, "svc")
    assert not ledger.has_tx(tx.id)
    assert ledger.pool == [anchor_tx(1)]


def test_submit_takes_an_int_submitted_at_a_float_can_hold():
    ledger = Ledger(PRIVATE, 3, WRITERS)
    for n, at in enumerate((0, 2**1023, -(2**1023))):
        ledger.submit(Transaction(TxKind.EHR_ANCHOR, {"record_id": f"r{n}", "content_hash": "c"},
                                  at, "svc"), "svc")
    ledger.seal_block("sealer", 1.0)
    again = Ledger.load_text(ledger.save_text())
    assert [e.tx.submitted_at for e in again.confirmed()] == [0, 2**1023, -(2**1023)]



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


@pytest.mark.parametrize(
    "now", [math.nan, math.inf, -math.inf, True, "1.0", None, pytest.param(2**1100, id="2**1100"),
            # too long for repr, so the message must not write it
            pytest.param(10**5000, id="10**5000")]
)
def test_seal_refuses_a_time_that_is_not_a_finite_number(now):
    ledger = build_ledger()
    ledger.submit(anchor_tx(9), "svc")
    before = ledger.save_text()
    with pytest.raises(FormatError, match="^seal time 'now' must be a finite number, got "):
        ledger.seal_block("sealer", now)
    assert ledger.pool == [anchor_tx(9)]
    assert ledger.save_text() == before


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


def test_duplicate_tx_in_parallel_blocks_appears_once():
    # hand-build two blocks over the same parent carrying the same tx
    ledger = Ledger(PRIVATE, 3, WRITERS)
    tx = anchor_tx(1)
    left = Block.create([ledger.dag.genesis], (tx,), 1.0, "sealer")
    right = Block.create([ledger.dag.genesis], (tx, anchor_tx(2)), 1.0, "other")
    ledger.dag.add(left)
    ledger.dag.add(right)
    stream = ledger.confirmed()
    ids = [e.tx.id for e in stream]
    assert ids.count(tx.id) == 1
    # it is credited to the block that comes earlier in consensus order
    entry = linear_find(stream, tx.id)
    earlier = min((left.id, right.id))
    assert entry.block == earlier
    assert stream.entries[0] is entry


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


def test_seal_block_names_every_tip_in_sorted_order():
    # side blocks added past seal_block leave several tips, stale ones too;
    # each seal names the tips a fold over the added blocks gives, sorted
    rng = random.Random(34)
    ledger = Ledger(PRIVATE, 2, WRITERS)
    tips = {ledger.dag.genesis}
    for step in range(1, 40):
        if rng.random() < 0.6:
            parents = rng.sample(sorted(ledger.dag.blocks), rng.randint(1, 2))
            block = Block.create(parents, (), float(step), "sealer")
            ledger.dag.add(block)
        else:
            block = ledger.seal_block("sealer", float(step))
            assert block.parents == tuple(sorted(tips)), step
        tips = fold_tips(tips, block)
    assert ledger.dag.tips == tips and len(tips) > 1


def test_persistence_round_trip(tmp_path):
    ledger = build_ledger()
    # a block sealed at an int time saves the float it loads as
    ledger.seal_block("sealer", 20)
    assert " | 20.0 | sealer\n" in ledger.save_text()
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


@pytest.mark.parametrize("padded", ["{} ", " {}", "{}\n", "\t{}\r\n"])
def test_a_payload_chunk_with_whitespace_around_its_json_is_refused(tmp_path, padded):
    text = build_ledger().save_text()
    line = text.splitlines()[2]
    chunk = line.split(" | ")[1].split(",")[0]
    raw = base64.b64decode(chunk).decode("utf-8")
    respelt = padded.replace("{}", raw)
    # the same record with the same ids, which json.loads would still read
    assert Transaction.from_wire(json.loads(respelt)) == Transaction.from_wire(json.loads(raw))
    path = tmp_path / "test.ledger"
    path.write_text(text.replace(chunk, base64.b64encode(respelt.encode()).decode(), 1))
    with pytest.raises(FormatError, match="^line 3: bad payload: (Expecting value|Extra data)"):
        Ledger.load(path)


def test_from_wire_looks_kinds_up_and_names_an_unknown_or_unhashable_one():
    wire = anchor_tx(3).to_wire()
    assert Transaction.from_wire(wire).kind is TxKind.EHR_ANCHOR
    for kind, message in (("nope", "'nope' is not a valid TxKind"),
                          (["ehr_anchor"], "unhashable type: 'list'"),
                          (None, "None is not a valid TxKind")):
        with pytest.raises(FormatError, match=f"^bad transaction record: {re.escape(message)}$"):
            Transaction.from_wire({**wire, "kind": kind})
    text = build_ledger().save_text()
    chunk = text.splitlines()[2].split(" | ")[1].split(",")[0]
    bad = base64.b64encode(base64.b64decode(chunk).replace(b'"ehr_anchor"', b'["x"]')).decode()
    with pytest.raises(FormatError, match="^line 3: bad transaction record: unhashable"):
        Ledger.load_text(text.replace(chunk, bad, 1))


# column index and new value of one genesis-line field; the genesis line is
# `id:  |  | 0.0 | genesis:private:sha256`, so each edit keeps its declared id
GENESIS_EDITS = {
    "payload": (1, base64.b64encode(canonical_json(anchor_tx(9).to_wire())).decode()),
    "timestamp": (2, "1.0"),
    "creator": (3, "mallory"),
}


@pytest.mark.parametrize("column, value", GENESIS_EDITS.values(), ids=GENESIS_EDITS.keys())
def test_persistence_detects_genesis_field_edits(column, value):
    lines = build_ledger().save_text().splitlines()
    cols = lines[1].split(" | ")
    cols[column] = value
    lines[1] = " | ".join(cols)
    with pytest.raises(FormatError, match="line 2: genesis does not match the ledger header"):
        Ledger.load_text("\n".join(lines) + "\n")


# a saved ledger rebuilt from its header, genesis line and block lines
GENESIS_LINE_EDITS = {
    "duplicated": (lambda h, g, blocks: [h, g, g, *blocks], "line 3: a second block without parents"),
    "dropped": (lambda h, g, blocks: [h, *blocks], "line 2: unknown parent"),
    "header-only": (lambda h, g, blocks: [h], "no genesis line"),
}


@pytest.mark.parametrize("edit, message", GENESIS_LINE_EDITS.values(), ids=GENESIS_LINE_EDITS.keys())
def test_persistence_needs_one_genesis_line_first(edit, message):
    header, genesis, *blocks = build_ledger().save_text().splitlines(keepends=True)
    with pytest.raises(FormatError, match=message):
        Ledger.load_text("".join(edit(header, genesis, blocks)))


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


RESPELT = "^ledger header is not spelt as save writes it: "


@pytest.mark.parametrize(
    "old, new, named",
    [
        ("k=2", "k=x", "k="),
        ("max=4", "max=x", "max="),
        ("k=2", "k=2 junk", "junk"),
        ("max=4", "max=-1", "max="),
        ("max=4", "max=0", "max="),
        # each of these loaded, and all but the missing writers re-saved as
        # the original file; the header has one spelling, as block lines do
        ("writers=sealer,svc", "writers=sealer,svc x=1", RESPELT),
        ("k=2", "k=2 k=2", RESPELT),
        ("k=2 alg=sha256", "alg=sha256 k=2", RESPELT),
        ("writers=sealer,svc", "writers=svc,sealer", RESPELT),
        (" writers=sealer,svc", "", RESPELT),
        ("writers=sealer,svc", "writers=sealer,sealer,svc", RESPELT),
        ("writers=sealer,svc", "writers=sealer,,svc", RESPELT),
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


@pytest.mark.parametrize(
    "visibility, tx, named",
    [case[1:] for case in CRAFTED_LEDGERS],
    ids=[case[0] for case in CRAFTED_LEDGERS],
)
def test_submit_refuses_what_load_text_refuses(visibility, tx, named):
    ledger = Ledger(visibility, 3, {"svc"})
    with pytest.raises((FormatError, KindNotAdmissible, PhiLeak), match=named):
        ledger.submit(tx, "svc")
    assert ledger.pool == []


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


def test_save_stops_at_a_failure_mid_write_and_leaves_the_old_file(tmp_path, monkeypatch):
    path = tmp_path / "test.ledger"
    Ledger(PRIVATE, 2, WRITERS).save(path)
    before = path.read_bytes()
    ledger = build_ledger()
    calls = []
    real = ledger_module.json_number  # save spells each submitted_at with it

    def third_call_fails(obj):
        calls.append(obj)
        if len(calls) == 3:
            raise OSError("disk full")
        return real(obj)

    monkeypatch.setattr(ledger_module, "json_number", third_call_fails)
    with pytest.raises(OSError, match="disk full"):
        ledger.save(path)
    assert len(calls) == 3
    assert path.read_bytes() == before
    assert list(tmp_path.glob("*.tmp")) == []


def big_ledger(txs: int = 3000, per_block: int = 100) -> Ledger:
    ledger = Ledger(PRIVATE, 3, WRITERS, max_block_txs=per_block)
    for n in range(txs):
        ledger.submit(
            Transaction(
                TxKind.EHR_ANCHOR,
                {"record_id": f"rec-{n}", "content_hash": digest(n.to_bytes(4, "big")).hex()},
                float(n),
                "svc",
            ),
            "svc",
        )
        if len(ledger.pool) == per_block:
            ledger.seal_block("sealer", float(n))
    return ledger


def test_save_and_load_hold_the_ledger_plus_about_one_line(tmp_path):
    # a whole-file save or load holds the file's text several times over
    # (about 3x each); a streamed one holds a few lines of 1/30 of it
    ledger = big_ledger()
    path = tmp_path / "big.ledger"
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        ledger.save(path)
        save_peak = tracemalloc.get_traced_memory()[1] - before
        tracemalloc.clear_traces()
        tracemalloc.reset_peak()
        again = Ledger.load(path)
        retained, load_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert path.read_bytes() == ledger.save_text().encode()
    assert again.save_text() == ledger.save_text()
    assert save_peak < 0.5 * size
    assert load_peak - retained < 0.5 * size


@pytest.fixture(scope="module")
def demo_state(tmp_path_factory):
    """The saved ledgers of a small demo with alerts and access changes."""
    state = tmp_path_factory.mktemp("demo")
    result = run_demo(5, patients=3, readings_per_device=6, anomaly_probability=0.5,
                      state_dir=str(state))
    result.dual.private.save(state / "private.ledger")
    result.dual.public.save(state / "public.ledger")
    result.store.close()
    return state


# body fields whose string values repeat from one transaction to the next
SHARED_FIELDS = {"patient", "vital", "verdict", "rule_id", "severity", "action", "scope",
                 "grantor", "grantee"}


def loaded_txs(path) -> list[Transaction]:
    ledger = Ledger.load(path)
    return [tx for block in ledger.dag.blocks.values() for tx in block.payload]


@pytest.mark.parametrize("name", ["private.ledger", "public.ledger"])
def test_load_shares_each_author_body_key_and_closed_set_value(demo_state, name):
    txs = loaded_txs(demo_state / name)
    kinds = {tx.kind for tx in txs}
    assert kinds == ({TxKind.ALERT_EVENT} if name == "public.ledger" else
                     {TxKind.EHR_ANCHOR, TxKind.RULE_EVALUATION, TxKind.ACCESS_CHANGE})
    first: dict[str, str] = {}
    shared = 0
    for tx in txs:
        strings = [tx.author, *tx.body]
        strings += [value for key, value in tx.body.items()
                    if key in SHARED_FIELDS and isinstance(value, str)]
        for text in strings:
            assert first.setdefault(text, text) is text, text
            shared += 1
    assert shared > 5 * len(txs)


def test_load_shares_no_digest(demo_state):
    # a rule evaluation names the content hash its record's anchor binds:
    # equal strings, kept apart
    txs = loaded_txs(demo_state / "private.ledger")
    anchored = {tx.body["content_hash"]: tx.body["content_hash"]
                for tx in txs if tx.kind is TxKind.EHR_ANCHOR}
    evaluations = [tx for tx in txs if tx.kind is TxKind.RULE_EVALUATION]
    assert evaluations
    for tx in evaluations:
        digest_hex = tx.body["ehr_record_hash"]
        assert anchored[digest_hex] == digest_hex and anchored[digest_hex] is not digest_hex


@pytest.mark.parametrize("name", ["private.ledger", "public.ledger"])
def test_a_loaded_ledger_saves_its_file_again(demo_state, name):
    path = demo_state / name
    assert Ledger.load(path).save_text().encode() == path.read_bytes()


def saved_ledger_of_new_strings(path, tag: str):
    """A saved ledger whose authors, body keys and shared values are new to
    the process."""
    ledger = Ledger(PRIVATE, 3, {f"svc-{tag}", "sealer"}, max_block_txs=500)
    for n in range(2000):
        body = {"patient": f"p-{tag}-{n}", "vital": f"v-{tag}-{n}", f"key-{tag}-{n}": n}
        author = f"svc-{tag}"
        ledger.submit(Transaction(TxKind.RULE_EVALUATION, body, 0.0, author), author)
    while ledger.pool:
        ledger.seal_block("sealer", 1.0)
    ledger.save(path)


def test_a_dropped_ledger_leaves_nothing_behind(tmp_path):
    # a table kept past the load, or sys.intern on a Python where it makes
    # strings immortal, would keep the new strings
    saved_ledger_of_new_strings(tmp_path / "warm.ledger", "warm")
    saved_ledger_of_new_strings(tmp_path / "drop.ledger", "drop")
    Ledger.load(tmp_path / "warm.ledger")  # compiles and caches what any load needs
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        loaded = Ledger.load(tmp_path / "drop.ledger")
        held = tracemalloc.get_traced_memory()[0] - before
        del loaded
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held > 1_000_000
    assert retained < 4096, retained


@pytest.mark.parametrize(
    "name",
    ["dr smith", "a,b", "", " svc", "svc\n", "a\tb", "a\x0bb", "a\x1cb", "a\u2028b", "a\x85b", "\ud800"],
)
def test_writer_names_a_saved_header_cannot_carry_are_refused(name):
    with pytest.raises(FormatError, match="writer name"):
        Ledger(PRIVATE, 3, ["svc", name])


@pytest.mark.parametrize("cap", [True, False, 2.5, "3", None, 0, -1])
def test_block_caps_a_saved_header_cannot_carry_are_refused(cap):
    # True and 2.5 used to be accepted and saved as max=True or max=2.5,
    # which load refuses; "3" raised a bare TypeError
    with pytest.raises(FormatError, match="max="):
        Ledger(PRIVATE, 3, WRITERS, max_block_txs=cap)


def test_an_integer_block_cap_round_trips_through_a_saved_header(tmp_path):
    ledger = Ledger(PRIVATE, 3, WRITERS, max_block_txs=1)
    path = tmp_path / "test.ledger"
    ledger.save(path)
    assert Ledger.load(path).max_block_txs == 1


def test_writer_names_round_trip_through_a_saved_header(tmp_path):
    writers = {"rpm-pipeline", "sealer-1", "acl-service", "dr.smith", "a=b", "ü"}
    ledger = Ledger(PRIVATE, 3, writers)
    path = tmp_path / "test.ledger"
    ledger.save(path)
    assert Ledger.load(path).authorized_writers == writers


# the refusal of a block line that decodes to a block but is not the line
# save writes for it
SPELT = "line {line}: block line is not spelt as save writes it"


def test_load_errors_name_the_line_of_the_file(tmp_path):
    lines = build_ledger().save_text().splitlines()
    # header, blank, genesis, two blank lines, then the first block
    lines[1:1] = [""]
    lines[3:3] = ["", "  "]
    assert lines[5].count(" | ") == 3
    block_line = lines[5]
    lines[5] = block_line.replace(" | ", " |", 1)
    text = "\n".join(lines) + "\n"
    with pytest.raises(FormatError, match="^line 6: expected 4 columns"):
        Ledger.load_text(text)
    path = tmp_path / "test.ledger"
    path.write_bytes(text.encode())
    with pytest.raises(FormatError, match="^line 6: expected 4 columns"):
        Ledger.load(path)
    # the first block was sealed at 1.0; each respelling reads as 1.0 but
    # is not the spelling save writes, so it is refused as an edit
    assert block_line.split(" | ")[2] == "1.0"
    for spelling in ("+1.0", "1.0e0", " 1.0", "\u0661.0", "1"):
        lines[5] = block_line.replace(" | 1.0 | ", f" | {spelling} | ")
        with pytest.raises(FormatError, match=f"^{re.escape(SPELT.format(line=6))}$"):
            Ledger.load_text("\n".join(lines) + "\n")


def test_a_genesis_line_respelt_is_refused_with_its_line():
    lines = build_ledger().save_text().splitlines()
    assert lines[1].endswith(" |  | 0.0 | genesis:private:sha256")
    for spelling in ("+0.0", "0.00", "0e0", "0", " 0.0"):
        lines[1] = lines[1].replace(" | 0.0 | ", f" | {spelling} | ")
        with pytest.raises(FormatError) as info:
            Ledger.load_text("\n".join(lines) + "\n")
        assert str(info.value) == SPELT.format(line=2), spelling
        lines[1] = lines[1].replace(f" | {spelling} | ", " | 0.0 | ")
    assert Ledger.load_text("\n".join(lines) + "\n").save_text() == "\n".join(lines) + "\n"


def test_a_payload_chunk_re_encoded_with_other_separators_is_refused():
    # the same values under json.dumps's default ", " and ": " separators
    text = build_ledger().save_text()
    lines = text.splitlines()
    head, payload, *rest = lines[2].split(" | ")
    chunk = payload.split(",")[0]
    respelt = base64.b64encode(json.dumps(json.loads(base64.b64decode(chunk)),
                                          sort_keys=True).encode()).decode()
    assert respelt != chunk
    lines[2] = " | ".join((head, payload.replace(chunk, respelt, 1), *rest))
    with pytest.raises(FormatError) as info:
        Ledger.load_text("\n".join(lines) + "\n")
    assert str(info.value) == SPELT.format(line=3)


def _merged_ledger() -> Ledger:
    """A ledger whose last block has two parents: two blocks on the genesis
    (dag.add, as one sealer never forks), merged by seal_block."""
    ledger = Ledger(PRIVATE, 2, WRITERS)
    genesis = ledger.dag.genesis
    ledger.dag.add(Block.create([genesis], (anchor_tx(1),), 1.0, "sealer"))
    ledger.dag.add(Block.create([genesis], (anchor_tx(2),), 1.0, "sealer"))
    assert len(ledger.seal_block("sealer", 2.0).parents) == 2
    return ledger


def test_a_block_line_with_its_parents_out_of_order_is_refused():
    text = _merged_ledger().save_text()
    lines = text.splitlines()
    head, rest = lines[-1].split(": ", 1)
    parents, tail = rest.split(" | ", 1)
    first, second = parents.split(",")
    assert first < second
    lines[-1] = f"{head}: {second},{first} | {tail}"
    # the block id hashes its parents sorted, so the swap keeps the id
    with pytest.raises(FormatError) as info:
        Ledger.load_text("\n".join(lines) + "\n")
    assert str(info.value) == SPELT.format(line=len(lines))
    assert Ledger.load_text(text).save_text() == text


@pytest.mark.parametrize("now", [math.nan, math.inf, -math.inf])
def test_a_non_finite_timestamp_column_is_refused(now):
    # a block whose id binds the time, added past seal_block's check
    ledger = build_ledger()
    ledger.dag.add(Block.create(sorted(ledger.dag.tips), (), now, "sealer"))
    text = ledger.save_text()
    line = len(text.splitlines())
    with pytest.raises(FormatError, match=f"^line {line}: bad timestamp '{now!r}'$"):
        Ledger.load_text(text)


def test_a_repeated_block_line_is_refused_with_its_line():
    lines = build_ledger().save_text().splitlines(keepends=True)
    repeated = "".join(lines + lines[-1:])
    short = lines[-1][:12]
    with pytest.raises(FormatError, match=f"^line {len(lines) + 1}: block {short} already present"):
        Ledger.load_text(repeated)


def test_a_byte_that_is_not_utf8_is_reported_with_its_line(tmp_path):
    header, genesis, block = build_ledger().save_text().splitlines()[:3]
    # lines are counted by "\n" alone: lines 3 and 4 are blank (4 holds a
    # "\r"), and the bad byte follows a vertical tab on line 5
    raw = f"{header}\n{genesis}\n\n\r\n\x0b".encode() + b"\xff" + block.encode() + b"\n"
    path = tmp_path / "test.ledger"
    path.write_bytes(raw)
    with pytest.raises(FormatError, match="^line 5: ledger is not UTF-8 text"):
        Ledger.load(path)


def outcome(load, arg):
    try:
        return "loaded", load(arg).save_text()
    except FormatError as exc:
        return "refused", str(exc)


def _edit_line(text: str, n: int, edit) -> str:
    lines = text.splitlines(keepends=True)
    lines[n] = edit(lines[n])
    return "".join(lines)


def _inside(char: str):
    # the character goes into the payload column, between two chunks
    return lambda line: line.replace(",", f"{char},", 1)


LINE_BREAK_EDITS = {
    "crlf": lambda t: t.replace("\n", "\r\n"),
    "lone-cr-ending": lambda t: _edit_line(t, 1, lambda ln: ln[:-1] + "\r"),
    "lone-cr-inside": lambda t: _edit_line(t, 2, _inside("\r")),
    "cr-at-end": lambda t: t + "\r",
    "vt-inside": lambda t: _edit_line(t, 2, _inside("\x0b")),
    "fs-inside": lambda t: _edit_line(t, 2, _inside("\x1c")),
    "ls-inside": lambda t: _edit_line(t, 2, _inside("\u2028")),
    "vt-ending": lambda t: _edit_line(t, 2, lambda ln: ln[:-1] + "\x0b"),
    "ls-in-header": lambda t: _edit_line(t, 0, lambda ln: ln.replace(" k=", "\u2028k=")),
    "blank-lines": lambda t: t.replace("\n", "\n\n \t\n"),
    "no-final-newline": lambda t: t.rstrip("\n"),
    "crlf-no-final-newline": lambda t: t.replace("\n", "\r\n").rstrip("\r\n"),
    "leading-blank-lines": lambda t: "\n\r\n" + t,
    "empty": lambda t: "",
    "only-blank-lines": lambda t: "\n \n\r\n",
}


@pytest.mark.parametrize("edit", LINE_BREAK_EDITS.values(), ids=LINE_BREAK_EDITS.keys())
def test_load_and_load_text_agree_on_line_breaks(tmp_path, edit):
    text = edit(build_ledger().save_text())
    path = tmp_path / "test.ledger"
    path.write_bytes(text.encode())
    # read_text would translate "\r\n" and a lone "\r" to "\n"
    expected = outcome(Ledger.load_text, path.read_bytes().decode("utf-8"))
    assert outcome(Ledger.load, path) == expected


def test_a_crlf_copy_of_a_saved_ledger_is_refused(tmp_path):
    # "\n" is the one line break; the "\r" before it is part of the line
    text = build_ledger().save_text().replace("\n", "\r\n")
    path = tmp_path / "test.ledger"
    path.write_bytes(text.encode())
    assert outcome(Ledger.load_text, text)[0] == "refused"
    assert outcome(Ledger.load, path) == outcome(Ledger.load_text, text)


def test_line_break_edits_cover_loads_and_refusals(tmp_path):
    text = build_ledger().save_text()
    kinds = {outcome(Ledger.load_text, edit(text))[0] for edit in LINE_BREAK_EDITS.values()}
    assert kinds == {"loaded", "refused"}


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


def test_tx_index_matches_a_scan_live_and_reloaded():
    live = run_demo(seed=3, patients=12, readings_per_device=100).dual.private
    sealed = {tx.id for block in live.dag.blocks.values() for tx in block.payload}
    pooled = {tx.id for tx in live.pool} - sealed
    assert sealed and pooled
    reloaded = Ledger.load_text(live.save_text())
    for ledger in (live, reloaded):
        assert all(ledger.has_tx(tx_id) for tx_id in sealed)
    assert all(live.has_tx(tx_id) for tx_id in pooled)
    # save_text persists sealed blocks only, so pooled txs are not reloaded
    assert not any(reloaded.has_tx(tx_id) for tx_id in pooled)
    # submits after the index is built, a resubmitted pooled tx among them,
    # keep it equal to a scan; fresh[3] is never submitted
    fresh = [anchor_tx(n, author="rpm-pipeline") for n in range(4)]
    for tx in (next(tx for tx in live.pool if tx.id in pooled), *fresh[:2]):
        reloaded.submit(tx, "rpm-pipeline")
    reloaded.seal_block("sealer-1", 1e9)
    reloaded.submit(fresh[2], "rpm-pipeline")
    scanned = {tx.id for tx in reloaded.pool}
    scanned.update(tx.id for block in reloaded.dag.blocks.values() for tx in block.payload)
    candidates = sealed | pooled | {tx.id for tx in fresh}
    assert {tx_id for tx_id in candidates if reloaded.has_tx(tx_id)} == scanned


def test_dual_ledger_routes_and_guards():
    dual = DualLedger.create(3, private_writers=WRITERS, public_writers=WRITERS)
    alert = Transaction(TxKind.ALERT_EVENT, alert_body(), 1.0, "svc")
    dual.public.submit(alert, "svc")
    dual.private.submit(anchor_tx(1), "svc")
    other = Transaction(TxKind.ALERT_EVENT, alert_body(rule_id="r-8"), 1.0, "svc")
    dual.private.submit(other, "svc")
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


# Authors and times an inspect line spells outside the body: str authors
# that print as they are, need escaping or are not ASCII, authors of other
# types, and times of every spelling sorted_json has for a number.
INSPECT_AUTHORS = [
    "svc", "", "Zoë", "患者-01", "\U0001f600", 'q"uote', "back\\slash",
    "tab\tnew\nline\r", "\x00\x1f\x7f", "  ", "\ud800", "</script>",
    1, -0.0, 1.5, True, False, None, ["svc", 2], {"b": 1, "a": "é"},
]
INSPECT_TIMES = [
    0, 7, -3, 0.0, -0.0, 1.5, 0.1, 1e16, 1e22, 2**53 + 1, 10**30, -(10**400), 5e-324,
    sys.float_info.max, True, math.nan, math.inf, -math.inf,
]


def _random_json(rng: random.Random, depth: int):
    """A seeded JSON value: nested objects and lists of strings (with
    escapes and non-ASCII), ints, floats, bools and nulls."""
    pick = rng.randrange(9 if depth > 0 else 6)
    if pick == 0:
        return None
    if pick == 1:
        return rng.random() < 0.5
    if pick == 2:
        return rng.choice((0, -1, 2**63, -(10**25), rng.randrange(-1000, 1000)))
    if pick == 3:
        return rng.choice((0.0, -0.0, 1e-7, 1e16, rng.uniform(-1e6, 1e6)))
    if pick in (4, 5):
        return _random_text(rng)
    if pick == 6:
        return {_random_text(rng): _random_json(rng, depth - 1) for _ in range(rng.randrange(4))}
    if pick == 7:
        return [_random_json(rng, depth - 1) for _ in range(rng.randrange(4))]
    return {"nested": _random_json(rng, depth - 1), "über": [_random_json(rng, depth - 1)]}


def _random_text(rng: random.Random) -> str:
    return "".join(rng.choice('ab"\\/\n\t\x01é€\U0001f600\ud800 ') for _ in range(rng.randrange(6)))


@pytest.mark.parametrize("seed", range(4))
def test_inspect_lines_spell_what_sorted_json_of_the_whole_entry_spells(seed):
    rng = random.Random(9100 + seed)
    ledger = Ledger(PRIVATE, 3, {"svc"})
    payload = []
    for n in range(120):
        body = _random_json(rng, 3)
        if not isinstance(body, dict) or rng.random() < 0.5:
            body = {"n": n, "value": body}  # distinct ids, so none is dropped
        else:
            body["n"] = n
        author = INSPECT_AUTHORS[n % len(INSPECT_AUTHORS)]
        at = INSPECT_TIMES[n % len(INSPECT_TIMES)]
        payload.append(Transaction(rng.choice(list(TxKind)), body, at, author))
    # dag.add, so that submit's checks do not see the transactions
    block = Block.create([ledger.dag.genesis], payload[:60], 1.0, "svc")
    ledger.dag.add(block)
    ledger.dag.add(Block.create([block.id], payload[60:], 2.0, "svc"))
    stream = ledger.confirmed()
    assert len(stream) == 120
    expected = [reference_inspect_line(i, entry) for i, entry in enumerate(stream)]
    assert list(inspect_lines(ledger)) == expected
    assert inspect_jsonl(ledger) == "".join(expected)


def test_inspect_lines_of_a_saved_demo_match_the_reference():
    result = run_demo(11, patients=2, readings_per_device=10)
    for ledger in (result.dual.private, result.dual.public):
        loaded = Ledger.load_text(ledger.save_text())
        expected = [reference_inspect_line(i, e) for i, e in enumerate(loaded.confirmed())]
        assert list(inspect_lines(loaded)) == expected
    result.store.close()


def _chunk_ledger_text() -> str:
    """A saved ledger whose chunks end in each base64 padding: none, "="
    and "==" (the record ids differ in length by one character)."""
    ledger = Ledger(PRIVATE, 2, WRITERS)
    for n in range(9):
        body = {"record_id": "r" * (n + 1), "content_hash": "ab" * 32}
        ledger.submit(Transaction(TxKind.EHR_ANCHOR, body, float(n), "svc"), "svc")
    ledger.seal_block("sealer", 1.0)
    return ledger.save_text()


B64 = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"


def _respelt(rng: random.Random, chunk: str) -> str:
    """One seeded respelling of a saved chunk: padding appended, unused
    bits set before the padding, a character outside the alphabet or a
    line break put in, or the padding moved or dropped."""
    kind = rng.choice(("pad", "bits", "outside", "newline", "move", "drop"))
    i = rng.randrange(len(chunk) + 1)
    if kind == "bits" and chunk.endswith("="):
        data = chunk.rstrip("=")
        unused = 4 if chunk.endswith("==") else 2  # bits of the last data char
        value = B64.index(data[-1]) | rng.randrange(1, 1 << unused)
        return data[:-1] + B64[value] + chunk[len(data):]
    if kind == "outside":
        return chunk[:i] + rng.choice("!-_.~* \t\r\x00é") + chunk[i:]
    if kind == "newline":
        return chunk[:i] + rng.choice(("\n", "\r\n")) + chunk[i:]
    if kind == "move" and chunk.endswith("="):
        data = chunk.rstrip("=")
        j = rng.randrange(len(data))
        return data[:j] + chunk[len(data):] + data[j:]
    if kind == "drop" and chunk.endswith("="):
        return chunk.rstrip("=")
    return chunk + rng.choice(("=", "==", "===", "A", "A=", "AA", "AA=", "A==="))


def test_a_payload_chunk_respelt_in_base64_is_refused_with_its_line():
    lines = _chunk_ledger_text().split("\n")
    block_line = lines[2]
    head, payload, *rest = block_line.split(" | ")
    chunks = payload.split(",")
    assert {len(chunk) - len(chunk.rstrip("=")) for chunk in chunks} == {0, 1, 2}
    assert Ledger.load_text("\n".join(lines)).save_text() == "\n".join(lines)
    rng = random.Random(3101)
    kinds = set()
    for _ in range(300):
        j = rng.randrange(len(chunks))
        respelt = _respelt(rng, chunks[j])
        # the rule is: exactly the encoding of the bytes it decodes to
        try:
            canonical = binascii.b2a_base64(binascii.a2b_base64(respelt), newline=False)
        except ValueError:
            canonical = None
        assert canonical != respelt.encode()
        kinds.add("decodes" if canonical is not None else "raises")
        edited = " | ".join((head, ",".join(chunks[:j] + [respelt] + chunks[j + 1:]), *rest))
        # _parse, so a line break stays inside its chunk; a respelling that
        # decodes to JSON is refused as a line save does not write
        refused = f"^(line 3: bad payload: |{re.escape(SPELT.format(line=3))}$)"
        with pytest.raises(FormatError, match=refused):
            Ledger._parse([*lines[:2], edited, *lines[3:]])
    # both kinds of respelling are seen: some decode to the saved bytes
    # (or others) without complaint, and some a2b_base64 itself refuses
    assert kinds == {"decodes", "raises"}


def _set_unused_bit(chunk: str) -> str:
    data = chunk.rstrip("=")
    return data[:-1] + B64[B64.index(data[-1]) | 1] + chunk[len(data):]


# respellings of a saved chunk that decode to its bytes, as (the padding
# of the chunk respelt, respelling); each comment names the Pythons whose
# b64decode(validate=True) loaded it before one spelling was required
RESPELLINGS = {
    "pad-after-whole-quad": (0, lambda chunk: chunk + "=="),  # 3.10-3.12
    "one-pad-after-whole-quad": (0, lambda chunk: chunk + "="),  # 3.10-3.12
    "three-pads-after-whole-quad": (0, lambda chunk: chunk + "==="),  # 3.11-3.12
    "extra-pad": (1, lambda chunk: chunk + "="),  # 3.10
    "unused-bit-before-one-pad": (1, _set_unused_bit),  # 3.10-3.13
    "unused-bit-before-two-pads": (2, _set_unused_bit),  # 3.10-3.13
}


@pytest.mark.parametrize("name", RESPELLINGS)
def test_each_python_refuses_the_respellings_that_loaded_before(name):
    pads, respell = RESPELLINGS[name]
    lines = _chunk_ledger_text().split("\n")
    head, payload, *rest = lines[2].split(" | ")
    chunks = payload.split(",")
    j = next(i for i, chunk in enumerate(chunks) if len(chunk) - len(chunk.rstrip("=")) == pads)
    respelt = respell(chunks[j])
    # the saved bytes under another spelling, whichever Python decodes it
    assert binascii.a2b_base64(respelt) == binascii.a2b_base64(chunks[j])
    edited = " | ".join((head, ",".join(chunks[:j] + [respelt] + chunks[j + 1:]), *rest))
    with pytest.raises(FormatError) as info:
        Ledger.load_text("\n".join([*lines[:2], edited, *lines[3:]]))
    assert str(info.value) == SPELT.format(line=3)


def test_a_seal_older_than_the_newest_block_is_refused_before_the_pool_drains():
    ledger = Ledger(PRIVATE, 2, WRITERS)
    ledger.submit(anchor_tx(1), "svc")
    ledger.seal_block("sealer", 5.0)
    ledger.submit(anchor_tx(2), "svc")
    blocks = dict(ledger.dag.blocks)
    for now in (4.999, 1, -0.0, -1e300):
        with pytest.raises(FormatError, match=r"^seal time .* is before the newest block's time 5\.0$"):
            ledger.seal_block("sealer", now)
        assert ledger.pool == [anchor_tx(2)] and ledger.dag.blocks == blocks
    # the same time is not older
    assert ledger.seal_block("sealer", 5).payload == (anchor_tx(2),)
    assert ledger.seal_block("sealer", 6.0).payload == ()


@pytest.mark.parametrize("merged_at, refused", [(6.5, True), (4.0, True), (7.0, False)])
def test_a_rederived_block_older_than_any_parent_is_refused_with_its_line(merged_at, refused):
    # two tips, at 7.0 and 5.0, merged by a block at merged_at; dag.add, so
    # that seal_block's rule does not see the blocks
    ledger = Ledger(PRIVATE, 2, WRITERS)
    genesis = ledger.dag.genesis
    first = Block.create([genesis], (anchor_tx(1),), 7.0, "sealer")
    second = Block.create([genesis], (anchor_tx(2),), 5.0, "sealer")
    for block in (first, second):
        ledger.dag.add(block)
    ledger.dag.add(Block.create(sorted([first.id, second.id]), (anchor_tx(3),), merged_at, "sealer"))
    text = ledger.save_text()
    if not refused:
        assert Ledger.load_text(text).save_text() == text
        return
    with pytest.raises(FormatError) as info:
        Ledger.load_text(text)
    # the merge block is the last line
    assert str(info.value) == f"line {text.count(chr(10))}: block time {merged_at!r} is before a parent's time"

