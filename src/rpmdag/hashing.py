"""Deterministic hashing and canonical byte encodings.

All identifiers in the package are 32-byte sha256 digests of canonical
serializations, so equal content always yields equal ids regardless of
process, platform, or insertion order.

Each encoder here has one byte contract:

- canonical_json: UTF-8 bytes of compact JSON (separators "," and ":"),
  keys sorted, non-ASCII escaped as \\uXXXX, NaN and infinities refused
  with ValueError. Transaction ids, ledger payload chunks and EHR record
  content are these bytes. A transaction keeps the bytes its id hashes,
  and its payload chunk is spliced from them (Transaction.wire_bytes)
  rather than encoded again; the spliced chunk is the same bytes.
- sorted_json: the text json.dumps(obj, sort_keys=True) returns, with
  the default ", " and ": " separators and NaN written as a bare NaN.
  EHR log headers, ledger inspect lines and sim trace lines are this.
- json_number: canonical_json(value) for one number, the spelling a
  saved submitted_at takes. An exact int or finite float is written by
  int.__repr__ or float.__repr__, which are the functions the C encoder
  itself calls for them, so the bytes are the same without a call of the
  encoder; anything else (a bool, a subclass, NaN or an infinity) goes
  to canonical_json, so it gives the same bytes or the same error.
- encode_bytes, encode_str, encode_f64: length-prefixed or fixed-width
  fields that hash inputs are built from. The length prefix is pack_u32,
  a big-endian u32, and encode_f64 is a big-endian IEEE double.

Each of canonical_json and sorted_json calls one CPython C encoder
(json.encoder.c_make_encoder) with its settings, built once at import
with no circular-reference map (markers=None, as json.encoder builds it
for check_circular=False). Such an encoder keeps no state, so both are
reentrant and thread-safe, and a call builds nothing before it encodes.
A value that contains itself then recurses until RecursionError; on that
error the call is made once more by an encoder with a fresh map, which
refuses the value with ValueError, or raises RecursionError again for a
value that is only nested too deep. The bytes, and the ValueError,
RecursionError or TypeError (for an unserialisable value), are what
json.dumps gives with the same settings.

parse_json is the one decoder of stored JSON records (ledger payload
chunks, EHR log headers): one call of the C scanner
(json.scanner.c_make_scanner) that json.loads itself uses. It gives what
json.loads gives for a value with nothing around it, and refuses any
whitespace before or after the value (a BOM too) with
json.JSONDecodeError, as no writer in the package puts it there. Files a
person writes (rules, rosters, configs, DAG text) keep json.loads. The
import fails on a Python without the _json accelerator.

The value rules that more than one module applies to outside input are
here too, each as one predicate that takes any value: utf8_text,
float_time, integer, whole_number, hex_digest and opaque_token. Every
numeric parameter in the package is a time, amount, rate or bound
checked with float_time, a count checked with whole_number, or a seed
checked with integer, which rng_seed turns into what random.Random is
seeded with. shown writes a refused value into an error message.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import struct
import sys

DIGEST_ALG = "sha256"

# c_make_encoder(markers, default, encoder, indent, key_separator,
# item_separator, sort_keys, skipkeys, allow_nan), as json.dumps calls it
_make_encoder = json.encoder.c_make_encoder
if _make_encoder is None or json.scanner.c_make_scanner is None:
    raise ImportError("rpmdag needs CPython's _json accelerator (c_make_encoder, c_make_scanner)")
# scan(text, idx) -> (value, end), with json.loads's default settings; it
# raises StopIteration(idx) when no value starts at idx
_scan = json.scanner.c_make_scanner(json.JSONDecoder())
_escape = json.encoder.encode_basestring_ascii
_refuse = json.JSONEncoder().default  # raises json.dumps's TypeError; reads no setting
_SURROGATE = re.compile("[\ud800-\udfff]")  # the code points UTF-8 cannot encode
_HEX_DIGEST = re.compile("[0-9a-f]{64}")
_TOKEN = re.compile("[A-Za-z0-9_.-]+")
# the settings after markers: canonical_json's, then sorted_json's
_CANONICAL = (_refuse, _escape, None, ":", ",", True, False, False)
_SORTED = (_refuse, _escape, None, ": ", ", ", True, False, True)
# built once, with markers=None (see the module docstring)
_canonical = _make_encoder(None, *_CANONICAL)
_sorted = _make_encoder(None, *_SORTED)


def digest(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def _checked(obj, settings: tuple) -> str:
    """The encode again with a fresh circular-reference map, as json.dumps
    makes it: it refuses a value that contains itself with ValueError, and
    raises RecursionError for one that is only nested too deep."""
    return "".join(_make_encoder({}, *settings)(obj, 0))


def canonical_json(obj) -> bytes:
    """Compact JSON with sorted keys. Rejects NaN and infinities."""
    try:
        text = "".join(_canonical(obj, 0))
    except RecursionError:
        text = _checked(obj, _CANONICAL)
    return text.encode()


def json_number(value) -> bytes:
    """canonical_json(value), spelt by the repr the C encoder calls for an
    exact int or finite float; any other value goes to canonical_json."""
    if type(value) is float and math.isfinite(value):
        return float.__repr__(value).encode()
    if type(value) is int:
        return int.__repr__(value).encode()
    return canonical_json(value)


def sorted_json(obj) -> str:
    """json.dumps(obj, sort_keys=True)."""
    try:
        return "".join(_sorted(obj, 0))
    except RecursionError:
        return _checked(obj, _SORTED)


def parse_json(text: str):
    """json.loads(text) for a text that is one JSON value with no
    whitespace around it; any other text raises json.JSONDecodeError."""
    try:
        value, end = _scan(text, 0)
    except StopIteration as stop:
        raise json.JSONDecodeError("Expecting value", text, stop.value) from None
    if end != len(text):
        raise json.JSONDecodeError("Extra data", text, end)
    return value


def utf8_text(value) -> bool:
    """A str that str.encode() takes: one without a lone surrogate."""
    return isinstance(value, str) and not _SURROGATE.search(value)


def float_time(value) -> bool:
    """An int or a finite float that a float can hold, and not a bool, as
    a time saved by its float repr must be. An int is compared with the
    float range exactly, where math.isfinite would overflow on one above
    it; NaN and the infinities fail the same compare."""
    if type(value) is float:  # the common case, answered at once
        return math.isfinite(value)
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def integer(value) -> bool:
    """An int of any sign, and not a bool: a seed."""
    return isinstance(value, int) and not isinstance(value, bool)


def rng_seed(seed: int) -> int | bytes:
    """What random.Random is seeded with for an integer seed. It seeds an
    int from its absolute value, so a negative seed is passed as its
    two's-complement bytes, which it hashes instead: -n gives a run of its
    own, and a nonnegative seed is passed as it is."""
    return seed if seed >= 0 else seed.to_bytes(seed.bit_length() // 8 + 1, "big", signed=True)


def whole_number(value, least: int) -> bool:
    """An int of at least `least`, and not a bool: a count."""
    return integer(value) and value >= least


def shown(value) -> str:
    """repr(value) for an error message, but not of an int above the float
    range, whose repr may run to thousands of digits or raise ValueError."""
    if isinstance(value, int) and abs(value) > sys.float_info.max:
        return "an int above the float range"
    return repr(value)


def hex_digest(value) -> bool:
    """A digest as bytes.hex() writes it: 64 lowercase hex digits."""
    return isinstance(value, str) and _HEX_DIGEST.fullmatch(value) is not None


def opaque_token(value) -> bool:
    """A non-empty str of ASCII letters, digits, '_', '.' and '-' only."""
    return isinstance(value, str) and _TOKEN.fullmatch(value) is not None


# precompiled, so a call does not look its format up
pack_u32 = struct.Struct(">I").pack
encode_f64 = struct.Struct(">d").pack


def encode_bytes(data: bytes) -> bytes:
    # u32 length prefix keeps field boundaries unambiguous
    return pack_u32(len(data)) + data


def encode_str(text: str) -> bytes:
    return encode_bytes(text.encode())
