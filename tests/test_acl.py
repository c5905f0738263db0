from __future__ import annotations

import random

import pytest

from rpmdag.acl import (
    SESSION_LIFETIME,
    AccessController,
    ManualClock,
    Role,
    Scope,
    rebuild_grants,
)
from rpmdag.errors import (
    AlreadyRevoked,
    BadCredential,
    NotPatient,
    Unauthorized,
    UnknownEntity,
    UnknownGrant,
)
from rpmdag.ledger import PRIVATE, Ledger


def make_controller(ledger=None):
    clock = ManualClock(0.0)
    controller = AccessController(clock=clock, ledger=ledger)
    controller.register("p-01", Role.PATIENT, "pw-p1")
    controller.register("p-02", Role.PATIENT, "pw-p2")
    controller.register("dr-01", Role.HEALTHCARE_PROVIDER, "pw-dr")
    controller.register("ins-01", Role.INSURER, "pw-ins")
    return controller, clock


def test_register_and_authenticate():
    controller, _ = make_controller()
    session = controller.authenticate("p-01", "pw-p1")
    assert session.entity == "p-01" and session.role is Role.PATIENT
    assert controller.session_valid(session)
    assert session.expires_at == session.issued_at + SESSION_LIFETIME


def test_authenticate_rejections():
    controller, _ = make_controller()
    with pytest.raises(UnknownEntity):
        controller.authenticate("ghost", "pw")
    with pytest.raises(BadCredential):
        controller.authenticate("p-01", "wrong")


def test_session_expiry_timeline():
    controller, clock = make_controller()
    session = controller.authenticate("p-01", "pw-p1")
    clock.now = SESSION_LIFETIME - 1.0
    assert controller.session_valid(session)
    clock.now = SESSION_LIFETIME
    assert not controller.session_valid(session)
    # expiry downgrades checks to a plain refusal, not an exception
    assert controller.check_access(session, "p-01", Scope.EHR_READ) is False
    # but mutating calls refuse loudly
    with pytest.raises(Unauthorized):
        controller.grant(session, "dr-01", Scope.EHR_READ)


def test_self_access_is_always_allowed_while_live():
    controller, _ = make_controller()
    session = controller.authenticate("p-01", "pw-p1")
    for scope in Scope:
        assert controller.check_access(session, "p-01", scope)
    assert not controller.check_access(session, "p-02", Scope.EHR_READ)


def test_grant_revoke_lifecycle():
    controller, _ = make_controller()
    patient = controller.authenticate("p-01", "pw-p1")
    doctor = controller.authenticate("dr-01", "pw-dr")

    assert not controller.check_access(doctor, "p-01", Scope.ALERTS_SUBSCRIBE)
    grant = controller.grant(patient, "dr-01", Scope.ALERTS_SUBSCRIBE)
    assert grant.grant_id == "grant-0001" and grant.active
    assert controller.check_access(doctor, "p-01", Scope.ALERTS_SUBSCRIBE)

    revoked = controller.revoke(patient, grant.grant_id)
    assert not revoked.active
    assert not controller.check_access(doctor, "p-01", Scope.ALERTS_SUBSCRIBE)
    with pytest.raises(AlreadyRevoked):
        controller.revoke(patient, grant.grant_id)


def test_scopes_do_not_bleed():
    controller, _ = make_controller()
    patient = controller.authenticate("p-01", "pw-p1")
    doctor = controller.authenticate("dr-01", "pw-dr")
    controller.grant(patient, "dr-01", Scope.EHR_READ)
    assert controller.check_access(doctor, "p-01", Scope.EHR_READ)
    assert not controller.check_access(doctor, "p-01", Scope.ALERTS_SUBSCRIBE)
    assert not controller.check_access(doctor, "p-01", Scope.TREATMENT_HISTORY)


def test_grants_are_per_patient():
    controller, _ = make_controller()
    p1 = controller.authenticate("p-01", "pw-p1")
    doctor = controller.authenticate("dr-01", "pw-dr")
    controller.grant(p1, "dr-01", Scope.EHR_READ)
    assert controller.check_access(doctor, "p-01", Scope.EHR_READ)
    assert not controller.check_access(doctor, "p-02", Scope.EHR_READ)


def test_only_patients_grant_and_only_owners_revoke():
    controller, _ = make_controller()
    p1 = controller.authenticate("p-01", "pw-p1")
    p2 = controller.authenticate("p-02", "pw-p2")
    insurer = controller.authenticate("ins-01", "pw-ins")

    with pytest.raises(NotPatient):
        controller.grant(insurer, "dr-01", Scope.EHR_READ)
    with pytest.raises(UnknownEntity):
        controller.grant(p1, "ghost", Scope.EHR_READ)
    with pytest.raises(UnknownGrant):
        controller.revoke(p1, "grant-9999")

    grant = controller.grant(p1, "ins-01", Scope.TREATMENT_HISTORY)
    # another patient cannot revoke what they did not grant
    with pytest.raises(NotPatient):
        controller.revoke(p2, grant.grant_id)
    assert controller._grants[grant.grant_id].active


def test_grant_table_is_a_snapshot():
    controller, _ = make_controller()
    patient = controller.authenticate("p-01", "pw-p1")
    grant = controller.grant(patient, "dr-01", Scope.EHR_READ)
    table = controller.grant_table()
    table[grant.grant_id].revoked_at = 5.0
    # mutating the copy must not revoke the live grant
    doctor = controller.authenticate("dr-01", "pw-dr")
    assert controller.check_access(doctor, "p-01", Scope.EHR_READ)


def test_mirror_records_actions_on_the_ledger():
    ledger = Ledger(PRIVATE, 3, {"acl-service", "sealer"})
    controller, clock = make_controller(ledger=ledger)
    patient = controller.authenticate("p-01", "pw-p1")
    grant = controller.grant(patient, "dr-01", Scope.EHR_READ)
    clock.now = 10.0
    controller.revoke(patient, grant.grant_id)
    ledger.seal_block("sealer", 11.0)

    bodies = [e.tx.body for e in ledger.confirmed()]
    assert [b["action"] for b in bodies] == ["grant", "revoke"]
    assert all(b["grant_id"] == grant.grant_id for b in bodies)
    assert bodies[0]["scope"] == "ehr_read"
    assert bodies[1]["at"] == 10.0


def test_rebuild_grants_matches_live_table():
    ledger = Ledger(PRIVATE, 3, {"acl-service", "sealer"})
    controller, clock = make_controller(ledger=ledger)
    p1 = controller.authenticate("p-01", "pw-p1")
    p2 = controller.authenticate("p-02", "pw-p2")
    g1 = controller.grant(p1, "dr-01", Scope.EHR_READ)
    controller.grant(p1, "ins-01", Scope.TREATMENT_HISTORY)
    ledger.seal_block("sealer", 1.0)
    clock.now = 2.0
    controller.grant(p2, "dr-01", Scope.ALERTS_SUBSCRIBE)
    controller.revoke(p1, g1.grant_id)
    ledger.seal_block("sealer", 3.0)

    assert rebuild_grants(ledger) == controller.grant_table()


def test_load_grants_restores_state_and_sequence():
    ledger = Ledger(PRIVATE, 3, {"acl-service", "sealer"})
    controller, _ = make_controller(ledger=ledger)
    p1 = controller.authenticate("p-01", "pw-p1")
    controller.grant(p1, "dr-01", Scope.EHR_READ)
    controller.grant(p1, "ins-01", Scope.TREATMENT_HISTORY)
    ledger.seal_block("sealer", 1.0)

    fresh, _ = make_controller(ledger=ledger)
    fresh.load_grants(rebuild_grants(ledger))
    doctor = fresh.authenticate("dr-01", "pw-dr")
    assert fresh.check_access(doctor, "p-01", Scope.EHR_READ)
    # new grants continue the id sequence instead of reusing it
    p1_again = fresh.authenticate("p-01", "pw-p1")
    nxt = fresh.grant(p1_again, "dr-01", Scope.ALERTS_SUBSCRIBE)
    assert nxt.grant_id == "grant-0003"


def test_session_tokens_are_unique():
    controller, _ = make_controller()
    tokens = {controller.authenticate("p-01", "pw-p1").token for _ in range(10)}
    assert len(tokens) == 10


def scanned_access(controller, session, patient, scope) -> bool:
    """check_access restated as a scan of every grant."""
    if not controller.session_valid(session):
        return False
    if session.entity == patient:
        return True
    return any(
        g.active and g.grantor == patient and g.grantee == session.entity and g.scope is scope
        for g in controller.grant_table().values()
    )


def test_check_access_matches_a_scan_of_every_grant():
    rng = random.Random(23)
    ledger = Ledger(PRIVATE, 3, {"acl-service", "sealer"})
    controller, clock = make_controller(ledger=ledger)
    controller.register("p-03", Role.PATIENT, "pw-p3")
    credentials = {"p-01": "pw-p1", "p-02": "pw-p2", "p-03": "pw-p3",
                   "dr-01": "pw-dr", "ins-01": "pw-ins"}
    sessions = [controller.authenticate(e, pw) for e, pw in credentials.items()]
    patients = [s for s in sessions if s.role is Role.PATIENT]
    for step in range(120):
        clock.now = float(step)
        op = rng.choice(("grant", "grant", "revoke", "reload"))
        if op == "grant":
            grantee = rng.choice(sorted(credentials))
            controller.grant(rng.choice(patients), grantee, rng.choice(list(Scope)))
        elif op == "revoke":
            active = [g for g in controller.grant_table().values() if g.active]
            if active:
                grant = rng.choice(active)
                owner = next(s for s in patients if s.entity == grant.grantor)
                controller.revoke(owner, grant.grant_id)
        else:
            ledger.seal_block("sealer", float(step))
            controller.load_grants(rebuild_grants(ledger))
        for session in sessions:
            for patient in ("p-01", "p-02", "p-03"):
                for scope in Scope:
                    assert controller.check_access(session, patient, scope) == scanned_access(
                        controller, session, patient, scope
                    )
    assert any(not g.active for g in controller.grant_table().values())
