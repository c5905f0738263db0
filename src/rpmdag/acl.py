"""Role-based access control with patient-managed grants.

Entities authenticate with a shared-secret token and receive a session
bounded by a lifetime in simulated time. Only patients grant or revoke
access to their own data; every change is mirrored as an AccessChange
transaction on the private ledger, so folding over that history rebuilds
the grant table. check_access returns a plain boolean: denial is a value,
not an exception.
"""

from __future__ import annotations

import hmac
import re
import time
from dataclasses import dataclass, replace
from enum import Enum

from .errors import (
    AlreadyRevoked,
    BadCredential,
    NotPatient,
    Unauthorized,
    UnknownEntity,
    UnknownGrant,
)
from .hashing import digest
from .ledger import Ledger, Scope, Transaction, TxKind

SESSION_LIFETIME = 3600.0  # one simulated hour
_NUMBERED_GRANT = re.compile(r"grant-([0-9]{1,18})")


class ManualClock:
    """Callable clock for simulations and tests. Advance via .now."""

    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now


class Role(Enum):
    PATIENT = "patient"
    HEALTHCARE_PROVIDER = "healthcare_provider"
    INSURER = "insurer"
    DEVICE = "device"
    SEALER_NODE = "sealer_node"


@dataclass(frozen=True)
class Entity:
    entity_id: str
    role: Role
    credential_hash: bytes


@dataclass(frozen=True)
class Session:
    token: str
    entity: str
    role: Role
    issued_at: float
    expires_at: float


@dataclass
class AccessGrant:
    grant_id: str
    grantor: str  # the patient
    grantee: str
    scope: Scope
    granted_at: float
    revoked_at: float | None = None

    @property
    def active(self) -> bool:
        return self.revoked_at is None


class AccessController:
    """Registry of entities, sessions, and grants.

    When constructed with a ledger, every grant and revoke is mirrored as
    an AccessChange transaction authored by the controller's service
    entity.
    """

    author = "acl-service"  # the service entity that authors AccessChange txs

    def __init__(self, clock=time.time, ledger: Ledger | None = None):
        self.clock = clock
        self.ledger = ledger
        self._entities: dict[str, Entity] = {}
        self._sessions: dict[str, Session] = {}
        self._grants: dict[str, AccessGrant] = {}
        # the same grant objects keyed by (grantor, grantee, scope), so a
        # revoke, which sets revoked_at in place, shows in both
        self._by_key: dict[tuple[str, str, Scope], list[AccessGrant]] = {}
        self._session_seq = 0
        self._grant_seq = 0

    # Entities and sessions

    def register(self, entity_id: str, role: Role, credential: str) -> Entity:
        entity = Entity(entity_id, role, digest(credential.encode()))
        self._entities[entity_id] = entity
        return entity

    def authenticate(self, entity_id: str, credential: str) -> Session:
        entity = self._entities.get(entity_id)
        if entity is None:
            raise UnknownEntity(f"no entity {entity_id!r}")
        if not hmac.compare_digest(entity.credential_hash, digest(credential.encode())):
            raise BadCredential(f"credential rejected for {entity_id!r}")
        now = self.clock()
        self._session_seq += 1
        session = Session(
            token=f"s{self._session_seq:05d}",
            entity=entity_id,
            role=entity.role,
            issued_at=now,
            expires_at=now + SESSION_LIFETIME,
        )
        self._sessions[session.token] = session
        return session

    def session_valid(self, session: Session) -> bool:
        live = self._sessions.get(session.token)
        return live == session and self.clock() < session.expires_at

    def _require_valid(self, session: Session):
        if not self.session_valid(session):
            raise Unauthorized("session is unknown or expired")

    # Grants

    def grant(self, session: Session, grantee: str, scope: Scope) -> AccessGrant:
        self._require_valid(session)
        if session.role is not Role.PATIENT:
            raise NotPatient(f"{session.entity!r} is not a patient")
        if grantee not in self._entities:
            raise UnknownEntity(f"no entity {grantee!r}")
        now = self.clock()
        self._grant_seq += 1
        grant = AccessGrant(
            grant_id=f"grant-{self._grant_seq:04d}",
            grantor=session.entity,
            grantee=grantee,
            scope=scope,
            granted_at=now,
        )
        self._grants[grant.grant_id] = grant
        self._index(grant)
        self._mirror("grant", grant, now)
        return grant

    def revoke(self, session: Session, grant_id: str) -> AccessGrant:
        self._require_valid(session)
        grant = self._grants.get(grant_id)
        if grant is None:
            raise UnknownGrant(f"no grant {grant_id!r}")
        if session.role is not Role.PATIENT or session.entity != grant.grantor:
            raise NotPatient(f"{session.entity!r} does not own grant {grant_id!r}")
        if not grant.active:
            raise AlreadyRevoked(f"grant {grant_id!r} was already revoked")
        now = self.clock()
        grant.revoked_at = now
        self._mirror("revoke", grant, now)
        return grant

    def check_access(self, session: Session, patient: str, scope: Scope) -> bool:
        """Allow iff the session is live and the entity is the patient
        themselves or holds an active grant from them for this scope."""
        if not self.session_valid(session):
            return False
        if session.entity == patient:
            return True
        for grant in self._by_key.get((patient, session.entity, scope), ()):
            if grant.active:
                return True
        return False

    def grant_table(self) -> dict[str, AccessGrant]:
        return {gid: replace(g) for gid, g in self._grants.items()}

    def load_grants(self, grants: dict[str, AccessGrant]):
        """Preload state rebuilt from a ledger (see rebuild_grants)."""
        self._grants = {gid: replace(g) for gid, g in grants.items()}
        self._by_key = {}
        for g in self._grants.values():
            self._index(g)
        # the counter goes past every "grant-" id numbered in ASCII digits;
        # a number over 18 digits is none it reaches, and int() refuses
        # one over 4,300
        numbered = (_NUMBERED_GRANT.fullmatch(gid) for gid in grants)
        self._grant_seq = max((int(m[1]) for m in numbered if m), default=0)

    def _index(self, grant: AccessGrant):
        self._by_key.setdefault((grant.grantor, grant.grantee, grant.scope), []).append(grant)

    def _mirror(self, action: str, grant: AccessGrant, now: float):
        if self.ledger is None:
            return
        tx = Transaction(
            kind=TxKind.ACCESS_CHANGE,
            body={
                "action": action,
                "grant_id": grant.grant_id,
                "grantor": grant.grantor,
                "grantee": grant.grantee,
                "scope": grant.scope.value,
                "at": now,
            },
            submitted_at=now,
            author=self.author,
        )
        self.ledger.submit(tx, self.author)


def rebuild_grants(ledger: Ledger) -> dict[str, AccessGrant]:
    """Fold the confirmed AccessChange history into a grant table."""
    grants: dict[str, AccessGrant] = {}
    for entry in ledger.confirmed():
        if entry.tx.kind is not TxKind.ACCESS_CHANGE:
            continue
        body = entry.tx.body
        if body["action"] == "grant":
            grants[body["grant_id"]] = AccessGrant(
                grant_id=body["grant_id"],
                grantor=body["grantor"],
                grantee=body["grantee"],
                scope=Scope(body["scope"]),
                granted_at=body["at"],
            )
        elif body["action"] == "revoke" and body["grant_id"] in grants:
            grants[body["grant_id"]].revoked_at = body["at"]
    return grants
