"""Deterministic hashing and canonical byte encodings.

All identifiers in the package are 32-byte sha256 digests of canonical
serializations, so equal content always yields equal ids regardless of
process, platform, or insertion order.
"""

from __future__ import annotations

import hashlib
import json
import struct

DIGEST_ALG = "sha256"


def digest(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def canonical_json(obj) -> bytes:
    """Compact JSON with sorted keys. Rejects NaN and infinities."""
    return json.dumps(
        obj, sort_keys=True, separators=(",", ":"), allow_nan=False
    ).encode()


def encode_bytes(data: bytes) -> bytes:
    # u32 length prefix keeps field boundaries unambiguous
    return struct.pack(">I", len(data)) + data


def encode_str(text: str) -> bytes:
    return encode_bytes(text.encode())


def encode_f64(value: float) -> bytes:
    return struct.pack(">d", value)
