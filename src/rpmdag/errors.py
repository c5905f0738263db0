"""Exception types raised across the package.

Every error that callers are expected to handle derives from RpmdagError,
so `except RpmdagError` catches any domain failure without masking bugs.
"""

from __future__ import annotations


class RpmdagError(Exception):
    """Base class for all domain errors."""


# DAG structure

class MissingParent(RpmdagError):
    """A block referenced a parent that is not in the DAG."""


class DuplicateBlock(RpmdagError):
    """A block with this id is already present."""


class GenesisConflict(RpmdagError):
    """A second parentless block was offered to a non-empty DAG."""


class UnknownBlock(RpmdagError):
    """A query referenced a block id that is not in the DAG."""


class NotAPermutation(RpmdagError):
    """An order did not contain every block exactly once."""


class FormatError(RpmdagError):
    """A text format (DAG file, ledger file, rules, roster) failed to parse."""


# Consensus

class TooLarge(RpmdagError):
    """Input exceeds the brute-force oracle cap."""


class InvalidParameter(RpmdagError):
    """A numeric parameter is out of its valid range."""


# Simulation

class InvalidConfig(RpmdagError):
    """A simulation config violates its invariants."""


# Ledger

class Unauthorized(RpmdagError):
    """The acting entity may not perform this operation."""


class KindNotAdmissible(RpmdagError):
    """The transaction kind is not accepted by this ledger."""


class PhiLeak(RpmdagError):
    """An alert body carried fields outside the permitted schema."""


class StaleLedger(RpmdagError):
    """The ledger file changed after it was read, so a save over it would
    lose that change."""


# EHR store and anchoring

class EmptyContent(RpmdagError):
    """Record content must be non-empty."""


class AlreadyAnchored(RpmdagError):
    """The record already has an anchor transaction."""


class UnknownRecord(RpmdagError):
    """No record with this id exists in the store."""


class EhrRecordMissing(RpmdagError):
    """An alert was dispatched for a reading that was never persisted."""


# Access control

class UnknownEntity(RpmdagError):
    """The entity id is not registered."""


class BadCredential(RpmdagError):
    """The presented credential does not match the registered one."""


class NotPatient(RpmdagError):
    """Only the patient may grant or revoke access to their data."""


class UnknownGrant(RpmdagError):
    """No grant with this id exists."""


class AlreadyRevoked(RpmdagError):
    """The grant was already revoked."""


class AccessDenied(RpmdagError):
    """A gated read was attempted without a passing access check."""


# Pipeline

class InvalidProfile(RpmdagError):
    """A device profile violates its invariants."""


class UnitMismatch(RpmdagError):
    """A reading's unit is not known for its vital kind."""
