from __future__ import annotations

import json
import math
import random

import pytest

from rpmdag.hashing import (
    canonical_json,
    finite_number,
    float_time,
    hex_digest,
    opaque_token,
    sorted_json,
)

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
    # a refused value leaves the shared encoders as they were
    assert canonical_json({"b": [1, "é"], "a": None}) == b'{"a":null,"b":[1,"\\u00e9"]}'
    assert sorted_json({"b": 1.5, "a": True}) == '{"a": true, "b": 1.5}'


HEX = "ab" * 32


@pytest.mark.parametrize("rule, accepted, refused", [
    (finite_number, [0, -1.5, 2**1100, 1e308],
     [True, math.nan, math.inf, -math.inf, "1", None]),
    (float_time, [0, -1.5, 1e308, 2**1023],
     [True, math.nan, math.inf, 2**1100, -(2**1100), "1", None]),
    # a "$"-anchored match would take the value with a final newline
    (hex_digest, [HEX],
     [HEX + "\n", HEX.upper(), HEX[:-1], HEX + "0", " " + HEX, b"\xab" * 32, None]),
    (opaque_token, ["r-1", "p_01.x", "A"],
     ["r-1\n", "", "r 1", "\ud800", "p-\u0661", 7, None, ["r-1"]]),
])
def test_value_rules_take_any_value(rule, accepted, refused):
    assert [rule(value) for value in accepted] == [True] * len(accepted)
    assert [rule(value) for value in refused] == [False] * len(refused)
