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

Each JSON encoder is built once per process and is never changed, so
every call shares it. Both keep the circular-reference check: a value
that contains itself raises ValueError and an unserialisable one
TypeError, as json.dumps does.
"""

from __future__ import annotations

import hashlib
import json
import re
import struct

DIGEST_ALG = "sha256"

_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False)
_SORTED = json.JSONEncoder(sort_keys=True)
_SURROGATE = re.compile("[\ud800-\udfff]")  # the code points UTF-8 cannot encode


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


def encode_bytes(data: bytes) -> bytes:
    # u32 length prefix keeps field boundaries unambiguous
    return struct.pack(">I", len(data)) + data


def encode_str(text: str) -> bytes:
    return encode_bytes(text.encode())


def encode_f64(value: float) -> bytes:
    return struct.pack(">d", value)
