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
- encode_bytes, encode_str, encode_f64: length-prefixed or fixed-width
  fields that hash inputs are built from.

Each JSONEncoder object is built once per process and is never changed,
so every call shares its settings; json still builds its C encoder on
every call. Both keep the circular-reference check: a value that
contains itself raises ValueError and an unserialisable one TypeError,
as json.dumps does.

The value rules that more than one module applies to outside input are
here too, each as one predicate that takes any value: utf8_text,
finite_number, float_time, hex_digest and opaque_token.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import struct
import sys

DIGEST_ALG = "sha256"

_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False)
_SORTED = json.JSONEncoder(sort_keys=True)
_SURROGATE = re.compile("[\ud800-\udfff]")  # the code points UTF-8 cannot encode
_HEX_DIGEST = re.compile("[0-9a-f]{64}")
_TOKEN = re.compile("[A-Za-z0-9_.-]+")


def digest(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def canonical_json(obj) -> bytes:
    """Compact JSON with sorted keys. Rejects NaN and infinities."""
    return _CANONICAL.encode(obj).encode()


def sorted_json(obj) -> str:
    """json.dumps(obj, sort_keys=True), from the shared encoder."""
    return _SORTED.encode(obj)


def utf8_text(value) -> bool:
    """A str that str.encode() takes: one without a lone surrogate."""
    return isinstance(value, str) and not _SURROGATE.search(value)


def finite_number(value) -> bool:
    """An int or a finite float, and not a bool. An int of any size is
    finite, and math.isfinite would overflow on one above the float range."""
    return not isinstance(value, bool) and (
        isinstance(value, int) or (isinstance(value, float) and math.isfinite(value))
    )


def float_time(value) -> bool:
    """A finite number a float can hold, as a time saved by its float repr
    must be."""
    return finite_number(value) and abs(value) <= sys.float_info.max


def hex_digest(value) -> bool:
    """A digest as bytes.hex() writes it: 64 lowercase hex digits."""
    return isinstance(value, str) and _HEX_DIGEST.fullmatch(value) is not None


def opaque_token(value) -> bool:
    """A non-empty str of ASCII letters, digits, '_', '.' and '-' only."""
    return isinstance(value, str) and _TOKEN.fullmatch(value) is not None


def encode_bytes(data: bytes) -> bytes:
    # u32 length prefix keeps field boundaries unambiguous
    return struct.pack(">I", len(data)) + data


def encode_str(text: str) -> bytes:
    return encode_bytes(text.encode())


def encode_f64(value: float) -> bytes:
    return struct.pack(">d", value)
