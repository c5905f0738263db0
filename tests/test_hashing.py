from __future__ import annotations

import base64
import json
import math
import os
import random
import struct
import sys
import threading

import pytest

from rpmdag.ehr import LOG_NAME
from rpmdag.hashing import (
    canonical_json,
    float_time,
    hex_digest,
    integer,
    json_number,
    opaque_token,
    parse_json,
    sorted_json,
    utf8_text,
    whole_number,
)
from rpmdag.pipeline import run_demo

_TEXT = "aZ09 _-\"\\/\n\t\x00\x7fé中 😀"


def _text(rng: random.Random) -> str:
    return "".join(rng.choice(_TEXT) for _ in range(rng.randint(0, 8)))


def _float(rng: random.Random) -> float:
    return rng.choice((
        rng.uniform(-1e6, 1e6),
        rng.random() * 10.0 ** rng.randint(-320, 308),
        -0.0, 0.1, 1e16, 5e-324, -1.7976931348623157e308,
    ))


def random_json(rng: random.Random, depth: int = 0):
    """A seeded JSON value: nested dicts and lists over non-ASCII strings,
    ints of any size, floats, bools and None."""
    pick = rng.randrange(8 if depth < 4 else 6)
    if pick == 0:
        return None
    if pick == 1:
        return rng.random() < 0.5
    if pick == 2:
        return rng.randint(-(2**70), 2**70)
    if pick == 3:
        return _float(rng)
    if pick in (4, 5):
        return _text(rng)
    if pick == 6:
        return [random_json(rng, depth + 1) for _ in range(rng.randint(0, 5))]
    return {_text(rng): random_json(rng, depth + 1) for _ in range(rng.randint(0, 5))}


def test_encoders_match_json_dumps_on_random_values():
    rng = random.Random(20261018)
    for _ in range(600):
        value = random_json(rng)
        assert canonical_json(value) == json.dumps(
            value, sort_keys=True, separators=(",", ":"), allow_nan=False
        ).encode()
        assert sorted_json(value) == json.dumps(value, sort_keys=True)


def test_encoders_raise_what_json_dumps_raises():
    looped: dict = {"a": 1}
    looped["self"] = looped
    for value in (math.nan, math.inf, [-math.inf], {"t": math.nan}):
        with pytest.raises(ValueError):
            canonical_json(value)
        assert sorted_json(value) == json.dumps(value, sort_keys=True)
    for encode in (canonical_json, sorted_json):
        with pytest.raises(TypeError):
            encode({"s": {1, 2}})
        with pytest.raises(ValueError):
            encode(looped)
    # a refused value leaves nothing behind for the next call
    assert canonical_json({"b": [1, "é"], "a": None}) == b'{"a":null,"b":[1,"\\u00e9"]}'
    assert sorted_json({"b": 1.5, "a": True}) == '{"a": true, "b": 1.5}'


def outcome(encode, value):
    """What encode(value) gives: its result, or the type and message of
    what it raises."""
    try:
        return encode(value)
    except Exception as exc:  # compared by type and message below
        return type(exc), str(exc)


def dumps_canonical(value) -> bytes:
    return json.dumps(value, sort_keys=True, separators=(",", ":"), allow_nan=False).encode()


def dumps_sorted(value) -> str:
    return json.dumps(value, sort_keys=True)


class Text(str):
    def __str__(self):
        return "not this"


class Number(int):
    def __repr__(self):
        return "not this"


class Real(float):
    def __repr__(self):
        return "not this"


class Map(dict):
    def items(self):
        return [("not", "this")]


class Seq(list):
    def __iter__(self):
        return iter(["not this"])


def _nested(depth: int):
    value: list = []
    for _ in range(depth):
        value = [value]
    return value


def parity_values():
    """(case, value) pairs that the encoders must treat as json.dumps does
    with the same settings: refused values with the same exception type and
    message, the rest with the same text."""
    return [
        ("nan", math.nan), ("inf", math.inf), ("-inf", -math.inf),
        ("nan-in-list", [1, math.nan]), ("inf-as-value", {"t": -math.inf}),
        ("set", {"s": {1, 2}}), ("bytes", [b"x"]), ("object", object()),
        ("int-keys", {2: "b", 1: "a", -1: None}), ("float-keys", {1.5: 1, -0.0: 2, 1e300: 3}),
        ("bool-keys", {True: 1, False: 0}), ("none-key", {None: 1}),
        ("mixed-keys", {1: "a", "b": 2}), ("mixed-keys-none", {None: 1, "a": 2}),
        ("str-subclass", {Text("k"): Text("v")}), ("int-subclass", [Number(7), {Number(3): 1}]),
        ("float-subclass", {"x": Real(1.5)}), ("dict-subclass", Map(b=1, a=2)),
        ("list-subclass", Seq([1, 2])), ("tuple", (1, (2, "é"), {"t": (3,)})),
        ("top-level-str", "é\n\ud800"), ("bool-not-int", [True, 1, False, 0]),
        ("depth-10", _nested(10)), ("depth-100000", _nested(100_000)),
    ]


def test_encoders_match_json_dumps_on_edge_values():
    for case, value in parity_values():
        assert outcome(canonical_json, value) == outcome(dumps_canonical, value), case
        assert outcome(sorted_json, value) == outcome(dumps_sorted, value), case


def _finite_double(rng: random.Random) -> float:
    """A double from 64 seeded random bits, drawn again until finite."""
    while True:
        value = struct.unpack(">d", rng.getrandbits(64).to_bytes(8, "big"))[0]
        if math.isfinite(value):
            return value


JSON_NUMBER_EDGES = (
    0, -1, 0.0, -0.0, 0.1, 5e-324, -5e-324, 1e16, 1e22, 1e-7, 2**53 - 1, 2**53, 2**53 + 1,
    float(2**53 - 1), float(2**53 + 1), 10**30, -(10**30), 1e30, sys.float_info.max,
    -sys.float_info.max, 2**1023,
)


def test_json_number_is_canonical_json_on_finite_numbers():
    rng = random.Random(20261020)
    values = [*JSON_NUMBER_EDGES, *(_finite_double(rng) for _ in range(3000)),
              *(_float(rng) for _ in range(500)),
              *(rng.randint(-(2**70), 2**70) for _ in range(200))]
    for value in values:
        assert json_number(value) == canonical_json(value), repr(value)


def test_json_number_gives_what_canonical_json_gives_on_any_other_value():
    # the same bytes, or the same exception type and message
    values = (math.nan, math.inf, -math.inf, True, False, Number(7), Real(1.5), Real(math.nan),
              10**5000, None, "1", [1.5])
    for i, value in enumerate(values):
        assert outcome(json_number, value) == outcome(canonical_json, value), i


def test_a_circular_value_is_refused_and_the_next_encode_succeeds():
    for encode, dumps in ((canonical_json, dumps_canonical), (sorted_json, dumps_sorted)):
        looped: dict = {"a": 1}
        looped["self"] = [looped]
        refused = outcome(encode, looped)
        assert refused == outcome(dumps, looped) == (ValueError, "Circular reference detected")
        # the same objects without the loop: a mark the refused call left
        # behind would refuse them again
        looped["self"] = []
        assert encode(looped) == dumps(looped)
        shared = [1]
        assert encode([shared, shared]) == dumps([[1], [1]])


def test_a_cycle_first_reached_deep_is_refused_as_json_dumps_refuses_it():
    # the encoders keep no circular-reference map on a first pass, which
    # meets a loop as a RecursionError; the loop here begins a few hundred
    # levels down, and it must still be refused as a loop
    for encode, dumps in ((canonical_json, dumps_canonical), (sorted_json, dumps_sorted)):
        looped: dict = {"a": [1, {"b": None}]}
        looped["self"] = [looped]
        value: object = {"deep": looped, "z": 2}
        for _ in range(300):
            value = [value]
        refused = outcome(encode, value)
        assert refused == outcome(dumps, value) == (ValueError, "Circular reference detected")


def test_encoders_give_the_same_bytes_on_four_threads():
    value = {"b": [random_json(random.Random(seed)) for seed in range(20)], "a": _nested(50)}
    expected = (canonical_json(value), sorted_json(value))
    results: list = []

    def work():
        got = {(canonical_json(value), sorted_json(value)) for _ in range(2000)}
        results.append(got)

    threads = [threading.Thread(target=work) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert results == [{expected}] * 4


HEX = "ab" * 32


class _Int(int):
    pass


class _Float(float):
    pass


def _old_finite_number(value) -> bool:
    return not isinstance(value, bool) and (
        isinstance(value, int) or (isinstance(value, float) and math.isfinite(value))
    )


def _old_float_time(value) -> bool:
    return _old_finite_number(value) and abs(value) <= sys.float_info.max


# float_time answers an exact float at once; every other value takes the
# general path, which must agree with the rule it replaced (finite_number,
# then the float range)
NUMBER_RULE_VALUES = [
    True, False, 0, 1, -7, _Int(3), _Int(-(10**400)), _Float(1.5), _Float(math.nan),
    _Float(math.inf), _Float(-sys.float_info.max), 0.0, -0.0, 1.5, 5e-324, math.nan,
    -math.nan, math.inf, -math.inf, 10**400, -(10**400), 2**1023, sys.float_info.max,
    -sys.float_info.max, "1", None, [1.0], 1j,
]


@pytest.mark.parametrize("value", NUMBER_RULE_VALUES, 
                         ids=lambda value: f"{type(value).__name__}-{repr(value)[:20]}")
def test_number_rules_match_their_old_definitions(value):
    assert float_time(value) is _old_float_time(value)


@pytest.mark.parametrize("rule, accepted, refused", [
    (utf8_text, ["", "p-01", "\u00fc", "\U0001f600"],
     ["\ud800", "p-01\udfff", b"p-01", None, 7]),
    (float_time, [0, -1.5, 1e308, 2**1023],
     [True, math.nan, math.inf, 2**1100, -(2**1100), "1", None]),
    # a "$"-anchored match would take the value with a final newline
    (hex_digest, [HEX],
     [HEX + "\n", HEX.upper(), HEX[:-1], HEX + "0", " " + HEX, b"\xab" * 32, None]),
    (opaque_token, ["r-1", "p_01.x", "A"],
     ["r-1\n", "", "r 1", "\ud800", "p-\u0661", 7, None, ["r-1"]]),
    pytest.param(lambda value: whole_number(value, 1), [1, 2**1100],
                 [0, -1, -(10**5000), True, 2.5, 1e308, "1", None], id="whole_number"),
    (integer, [0, -1, 2**1100, -(10**5000)], [True, False, 1.0, 2.5, math.nan, "1", None]),
])
def test_value_rules_take_any_value(rule, accepted, refused):
    assert [rule(value) for value in accepted] == [True] * len(accepted)
    assert [rule(value) for value in refused] == [False] * len(refused)


def stored_records(state) -> list[str]:
    """The JSON text of every payload chunk of both saved ledgers and of
    every ehr.log header without its newline, as the loaders decode them."""
    texts = []
    for name in ("private.ledger", "public.ledger"):
        for line in (state / name).read_text().splitlines()[1:]:
            payload = line.split(" | ")[1]
            texts += [base64.b64decode(chunk).decode() for chunk in payload.split(",") if chunk]
    with open(state / LOG_NAME, "rb") as fh:
        for header in iter(fh.readline, b""):
            texts.append(header.removesuffix(b"\n").decode())
            fh.seek(json.loads(header)["content_len"] + 1, os.SEEK_CUR)
    return texts


def test_parse_json_is_json_loads_on_stored_records_and_random_values(tmp_path):
    # the steps of `rpm demo --seed 11 --state-dir DIR`
    result = run_demo(seed=11, state_dir=str(tmp_path))
    result.store.close()
    result.dual.private.save(tmp_path / "private.ledger")
    result.dual.public.save(tmp_path / "public.ledger")
    texts = stored_records(tmp_path)
    assert len(texts) > 3000
    rng = random.Random(20261020)
    # json.dumps writes whitespace inside a value, canonical_json none
    texts += [json.dumps(random_json(rng)) for _ in range(400)]
    texts += [canonical_json(random_json(rng)).decode() for _ in range(400)]
    for text in texts:
        # repr tells -0.0 from 0.0, an int from a float and key orders apart
        assert repr(parse_json(text)) == repr(json.loads(text))


@pytest.mark.parametrize("pad", [" ", "\t", "\r", "\n"])
def test_parse_json_refuses_whitespace_around_a_value(pad):
    rng = random.Random(2028)
    for _ in range(100):
        text = json.dumps(random_json(rng))
        for padded in (pad + text, text + pad, pad + text + pad):
            assert json.loads(padded) == json.loads(text)
            with pytest.raises(json.JSONDecodeError):
                parse_json(padded)


def test_parse_json_refuses_a_byte_order_mark():
    with pytest.raises(json.JSONDecodeError, match="Expecting value"):
        parse_json("\ufeff{}")


@pytest.mark.parametrize("text", [
    "", "1x", "[1,]", '{"a":', "nul", '"\x00"', '{"a" 1}', "[1]]", "{}{}", '"\ud800', "-",
])
def test_parse_json_raises_what_json_loads_raises(text):
    with pytest.raises(json.JSONDecodeError) as loads:
        json.loads(text)
    with pytest.raises(json.JSONDecodeError) as parsed:
        parse_json(text)
    assert (parsed.value.msg, parsed.value.pos) == (loads.value.msg, loads.value.pos)
