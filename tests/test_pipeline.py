from __future__ import annotations

import gc
import hashlib
import math
import random

import pytest

from rpmdag.acl import AccessController, ManualClock, Role, Scope
from rpmdag.ehr import EhrStore
from rpmdag.errors import (
    EhrRecordMissing,
    FormatError,
    InvalidParameter,
    InvalidProfile,
    PhiLeak,
    UnitMismatch,
)
from rpmdag.hashing import canonical_json
from rpmdag.ledger import VITAL_KIND_NAMES, DualLedger, TxKind, token_fault, validate_alert_body
from rpmdag.pipeline import (
    ABNORMAL,
    AlertEvent,
    DEMO_PROFILES,
    NORMAL,
    UNEVALUATED,
    AggregatedBatch,
    DeviceProfile,
    RpmPipeline,
    Subscriber,
    ThresholdRule,
    Verdict,
    VitalKind,
    VitalReading,
    aggregate,
    evaluate,
    load_rules_json,
    run_demo,
    simulate_device,
)


def reading(value: float, *, vital=VitalKind.HEART_RATE, unit="bpm", t=0.0,
            patient="p-01", device="dev-1") -> VitalReading:
    return VitalReading(patient, vital, value, unit, t, device)


def rule(min_, max_, *, rule_id="r-1", vital=VitalKind.HEART_RATE,
         patient="p-01", severity="urgent") -> ThresholdRule:
    return ThresholdRule(rule_id, patient, vital, min_, max_, severity)


def test_vital_kinds_match_the_ledger_scan_list():
    assert tuple(v.value for v in VitalKind) == VITAL_KIND_NAMES


def test_readings_and_verdicts_are_slotted():
    assert not hasattr(reading(72.0), "__dict__")
    assert not hasattr(reading(72.0, unit="bpm").normalized(), "__dict__")
    assert not hasattr(Verdict(NORMAL), "__dict__")


def test_unit_normalization():
    bp = reading(16.0, vital=VitalKind.SYSTOLIC_BP, unit="kPa")
    norm = bp.normalized()
    assert norm.unit == "mmHg"
    assert norm.value == pytest.approx(120.00992)
    sugar = reading(5.5, vital=VitalKind.GLUCOSE, unit="mmol/L")
    assert sugar.normalized().value == pytest.approx(99.1001)
    base = reading(72.0)
    assert base.normalized() is base  # already canonical


class _Str(str):
    pass


class _Int(int):
    def __repr__(self):
        return "not this"


class _Float(float):
    def __repr__(self):
        return "not this"


# what VitalReading takes without a check: any value in a text field, and any
# int or float that float_time takes in a number field
TEXT_FIELDS = (
    "p-01", "", "é中😀", "\x00\t\n\x1f\x7f", "lone \ud800 and \udfff", '"q\\"', _Str("sub"),
    None, 0, -7, 2**70, True, 1.5, [1, "a"], {"k": None}, object(), {1, 2}, math.nan,
)
NUMBER_FIELDS = (
    72.5, -0.0, 0.0, 0.1, 1e16, 5e-324, -1.7976931348623157e308, 0, 7, -(2**70), _Int(3),
    _Float(2.5),
)


def _dict_content(item: VitalReading) -> bytes:
    """content_bytes as it was written before the template: the dict."""
    return canonical_json({
        "patient": item.patient, "vital": item.vital.value, "value": item.value,
        "unit": item.unit, "measured_at": item.measured_at, "device": item.device,
    })


def _outcome(call, item):
    try:
        return call(item)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


def test_content_bytes_is_the_dict_encode_on_any_field_values():
    # the same bytes or the same exception type and message, with every
    # field value in turn and then in seeded combinations, so that two
    # refused fields show which one raises first
    base = dict(patient="p-01", vital=VitalKind.GLUCOSE, value=72.5, unit="mg/dL",
                measured_at=3.25, device="dev-1")
    cases = [{**base, name: value} for name in ("patient", "unit", "device")
             for value in TEXT_FIELDS]
    cases += [{**base, name: value} for name in ("value", "measured_at") for value in NUMBER_FIELDS]
    rng = random.Random(20261020)
    for _ in range(500):
        cases.append({
            **{name: rng.choice(TEXT_FIELDS) for name in ("patient", "unit", "device")},
            **{name: rng.choice(NUMBER_FIELDS) for name in ("value", "measured_at")},
            "vital": rng.choice(list(VitalKind)),
        })
    for i, fields in enumerate(cases):
        item = VitalReading(**fields)
        assert _outcome(VitalReading.content_bytes, item) == _outcome(_dict_content, item), i


def test_unknown_unit_is_refused():
    with pytest.raises(UnitMismatch):
        reading(72.0, unit="kPa").normalized()


def test_reading_value_must_be_finite():
    with pytest.raises(InvalidParameter):
        reading(math.inf)


def test_rule_validation():
    with pytest.raises(InvalidParameter):
        rule(100.0, 50.0)
    with pytest.raises(InvalidParameter):
        rule(50.0, 100.0, severity="catastrophic")
    with pytest.raises(InvalidParameter):
        rule(math.nan, 100.0)


@pytest.mark.parametrize("field", ["rule_id", "patient"])
@pytest.mark.parametrize("value", [["p-01"], {"p": 1}, 7, None])
def test_rule_refuses_a_rule_id_or_patient_that_is_not_a_string(field, value):
    # a list patient used to raise TypeError (unhashable) in the rule index;
    # token_fault takes any value, so a non-str is not an opaque token
    with pytest.raises(InvalidParameter, match=f"rule field '{field}' must be an opaque token"):
        rule(50.0, 100.0, **{field: value})


@pytest.mark.parametrize("field", ["rule_id", "patient"])
@pytest.mark.parametrize("value, fault", [
    ("r 1", "must be an opaque token"),
    ("", "must be an opaque token"),
    ("\ud800", "must be an opaque token"),
    # "$" would also match before the final newline
    ("r-1\n", "must be an opaque token"),
    ("heart_rate-hi", "names a vital kind"),
    ("p-GLUCOSE", "names a vital kind"),
])
def test_rule_refuses_what_the_alert_scan_would_refuse(field, value, fault):
    assert token_fault(value) == fault
    # refused with the rules, not at the first alert after the EHR log is written
    with pytest.raises(InvalidParameter, match=f"rule field '{field}' {fault}"):
        rule(50.0, 100.0, **{field: value})
    with pytest.raises(PhiLeak, match=f"alert field '{field}' {fault}"):
        validate_alert_body({"patient": "p-01", "rule_id": "r-1", "ehr_record_hash": "ab" * 32,
                             "occurred_at": 1.0, "severity": "urgent", field: value})


def test_thresholds_are_a_closed_interval():
    r = rule(50.0, 100.0)
    assert not r.is_abnormal(50.0)
    assert not r.is_abnormal(100.0)
    assert not r.is_abnormal(75.0)
    assert r.is_abnormal(49.999)
    assert r.is_abnormal(100.001)


def test_aggregate_empty_and_single_window():
    assert aggregate([], 10.0) == []
    rs = [reading(70.0 + i, t=float(i)) for i in range(10)]
    (batch,) = aggregate(rs, 100.0)
    assert batch.patient == "p-01"
    assert batch.window == (0.0, 100.0)
    assert len(batch.readings) == 10


def test_aggregate_partitions_without_loss():
    rs = [reading(70.0, t=float(i)) for i in range(10)]
    batches = aggregate(rs, 5.0)
    assert [b.window for b in batches] == [(0.0, 5.0), (5.0, 10.0)]
    # t = 5.0 sits exactly on the boundary and opens the second window
    assert [r.measured_at for r in batches[0].readings] == [0, 1, 2, 3, 4]
    assert [r.measured_at for r in batches[1].readings] == [5, 6, 7, 8, 9]
    assert sum(len(b.readings) for b in batches) == len(rs)


def test_aggregate_groups_per_patient():
    rs = [
        reading(70.0, t=0.0, patient="p-02", device="dev-2"),
        reading(70.0, t=1.0, patient="p-01"),
    ]
    batches = aggregate(rs, 10.0)
    assert [b.patient for b in batches] == ["p-01", "p-02"]


def test_aggregate_normalizes_units():
    (batch,) = aggregate([reading(16.0, vital=VitalKind.SYSTOLIC_BP, unit="kPa")], 10.0)
    assert batch.readings[0].unit == "mmHg"


def test_aggregate_rejects_out_of_order_devices():
    rs = [reading(70.0, t=2.0), reading(70.0, t=1.0)]
    with pytest.raises(InvalidParameter):
        aggregate(rs, 10.0)
    # independent devices may interleave freely
    ok = [reading(70.0, t=2.0), reading(70.0, t=1.0, device="dev-2")]
    assert len(aggregate(ok, 10.0)) == 1
    with pytest.raises(InvalidParameter):
        aggregate([], 0.0)


def test_evaluate_statuses():
    batch = AggregatedBatch(
        patient="p-01",
        readings=(
            reading(75.0, t=0.0),
            reading(120.0, t=1.0),
            reading(15.0, t=2.0, vital=VitalKind.RESPIRATION, unit="breaths/min"),
        ),
        window=(0.0, 10.0),
    )
    verdicts = evaluate(batch, [rule(50.0, 100.0)])
    assert [v.status for _, v in verdicts] == [NORMAL, ABNORMAL, UNEVALUATED]
    assert verdicts[1][1].rule_id == "r-1"
    assert verdicts[2][1].rule_id is None  # logged, never alerted


def test_evaluate_rejects_foreign_rules():
    batch = AggregatedBatch("p-01", (reading(75.0),), (0.0, 10.0))
    with pytest.raises(InvalidParameter):
        evaluate(batch, [rule(50.0, 100.0, patient="p-02")])


def test_evaluate_reports_highest_severity_then_smallest_id():
    batch = AggregatedBatch("p-01", (reading(120.0),), (0.0, 10.0))
    rules = [
        rule(50.0, 100.0, rule_id="r-b", severity="advisory"),
        rule(60.0, 110.0, rule_id="r-a", severity="urgent"),
    ]
    (_, verdict), = evaluate(batch, rules)
    assert (verdict.rule_id, verdict.severity) == ("r-a", "urgent")
    tie = [
        rule(50.0, 100.0, rule_id="r-2", severity="urgent"),
        rule(60.0, 110.0, rule_id="r-1", severity="urgent"),
    ]
    (_, verdict), = evaluate(batch, tie)
    assert verdict.rule_id == "r-1"


def test_simulate_device_baseline_stays_in_bounds():
    profile = DeviceProfile(75.0, 5.0, 0.0, 50.0, 100.0)  # bounds at ± 5σ
    rs = simulate_device("p-01", VitalKind.HEART_RATE, profile, seed=1, count=500)
    assert len(rs) == 500
    assert all(abs(r.value - 75.0) <= 20.0 for r in rs)  # clamped to ± 4σ
    guard = rule(50.0, 100.0)
    assert not any(guard.is_abnormal(r.value) for r in rs)


def test_simulate_device_anomalies_escape_bounds():
    profile = DeviceProfile(75.0, 5.0, 1.0, 50.0, 100.0)
    rs = simulate_device("p-01", VitalKind.HEART_RATE, profile, seed=2, count=200)
    assert all(r.value < 50.0 or r.value > 100.0 for r in rs)


def test_simulate_device_is_seed_stable():
    profile = DeviceProfile(75.0, 5.0, 0.3, 50.0, 100.0)
    a = simulate_device("p-01", VitalKind.HEART_RATE, profile, seed=7, count=50)
    b = simulate_device("p-01", VitalKind.HEART_RATE, profile, seed=7, count=50)
    c = simulate_device("p-01", VitalKind.HEART_RATE, profile, seed=8, count=50)
    assert a == b
    assert a != c
    assert a[0].device == "dev-p-01-heart_rate"
    assert [r.measured_at for r in a[:3]] == [0.0, 1.0, 2.0]
    with pytest.raises(InvalidParameter):
        simulate_device("p-01", VitalKind.HEART_RATE, profile, seed=1, count=-1)


def test_profile_validation():
    with pytest.raises(InvalidProfile):
        DeviceProfile(75.0, 0.0, 0.1, 50.0, 100.0)
    with pytest.raises(InvalidProfile):
        DeviceProfile(75.0, 5.0, 1.5, 50.0, 100.0)
    with pytest.raises(InvalidProfile):
        DeviceProfile(75.0, 5.0, 0.1, 100.0, 50.0)
    with pytest.raises(InvalidProfile):
        DeviceProfile(math.nan, 5.0, 0.1, 50.0, 100.0)


def make_pipeline():
    author, sealer = "rpm-pipeline", "sealer-1"
    dual = DualLedger.create(
        3,
        private_writers={author, sealer, "acl-service"},
        public_writers={author, sealer},
    )
    clock = ManualClock(0.0)
    controller = AccessController(clock=clock, ledger=dual.private)
    controller.register("p-01", Role.PATIENT, "pw-p")
    controller.register("dr-01", Role.HEALTHCARE_PROVIDER, "pw-dr")
    controller.register("ins-01", Role.INSURER, "pw-ins")
    patient = controller.authenticate("p-01", "pw-p")
    controller.grant(patient, "dr-01", Scope.ALERTS_SUBSCRIBE)
    pipeline = RpmPipeline(dual, EhrStore(), controller, [rule(50.0, 100.0)])
    return pipeline, controller, dual


def test_process_batch_full_path():
    pipeline, controller, dual = make_pipeline()
    doctor = Subscriber("dr-01", pipeline.controller.authenticate("dr-01", "pw-dr"))
    insurer = Subscriber("ins-01", pipeline.controller.authenticate("ins-01", "pw-ins"))
    pipeline.subscribers += [doctor, insurer]

    batch = AggregatedBatch(
        "p-01", (reading(75.0, t=0.0), reading(130.0, t=1.0)), (0.0, 10.0)
    )
    verdicts = pipeline.process_batch(batch, now=10.0)
    assert [v.status for _, v in verdicts] == [NORMAL, ABNORMAL]

    # every reading got an EHR record and a private evaluation entry
    assert len(pipeline.store.record_ids()) == 2
    kinds = [tx.kind for tx in dual.private.pool]
    assert kinds.count(TxKind.EHR_ANCHOR) == 2
    assert kinds.count(TxKind.RULE_EVALUATION) == 2
    # the abnormal reading alerted publicly, hash only
    assert len(dual.public.pool) == 1
    body = dual.public.pool[0].body
    assert set(body) == {"patient", "rule_id", "ehr_record_hash", "occurred_at", "severity"}
    assert "130" not in repr(body)
    # only the granted subscriber heard about it
    assert len(doctor.inbox) == 1 and insurer.inbox == []


def test_rule_evaluation_bodies_carry_no_values():
    pipeline, _, dual = make_pipeline()
    batch = AggregatedBatch("p-01", (reading(130.0, t=1.0),), (0.0, 10.0))
    pipeline.process_batch(batch, now=10.0)
    log_tx = next(tx for tx in dual.private.pool if tx.kind is TxKind.RULE_EVALUATION)
    assert set(log_tx.body) == {
        "patient", "vital", "verdict", "rule_id", "ehr_record_hash", "occurred_at",
    }
    assert "130" not in repr(log_tx.body)


def test_dispatch_is_idempotent():
    pipeline, _, dual = make_pipeline()
    bad = reading(130.0, t=1.0)
    pipeline.ingest(bad, now=1.0)
    verdict = Verdict(ABNORMAL, "r-1", "urgent")
    first = pipeline.dispatch_alert(bad, verdict, now=1.0)
    second = pipeline.dispatch_alert(bad, verdict, now=2.0)
    assert first.event_id == second.event_id
    assert len(dual.public.pool) == 1
    assert len(pipeline.alerts) == 1
    with pytest.raises(InvalidParameter):
        pipeline.dispatch_alert(bad, Verdict(NORMAL), now=3.0)


def test_dispatch_requires_an_ehr_record():
    pipeline, _, _ = make_pipeline()
    with pytest.raises(EhrRecordMissing):
        pipeline.dispatch_alert(reading(130.0), Verdict(ABNORMAL, "r-1", "urgent"), 0.0)


def test_load_rules_json():
    text = """[
      {"rule_id": "r-1", "patient": "p-01", "vital": "heart_rate",
       "min": 50, "max": 100, "severity": "urgent"}
    ]"""
    (r,) = load_rules_json(text)
    assert r.vital is VitalKind.HEART_RATE and r.min == 50.0
    with pytest.raises(FormatError):
        load_rules_json("{not json")
    with pytest.raises(FormatError):
        load_rules_json("{}")
    with pytest.raises(FormatError):
        load_rules_json('[{"rule_id": "r-1"}]')


def test_run_demo_small_scale():
    result = run_demo(seed=42, patients=2, readings_per_device=10, duration=50.0)
    counts = result.counts()
    assert counts["readings"] == 2 * len(DEMO_PROFILES) * 10
    assert counts["normal"] + counts["abnormal"] + counts["unevaluated"] == counts["readings"]
    assert counts["unevaluated"] == 0
    # every abnormal reading became exactly one confirmed public alert
    assert counts["public_alerts"] == counts["abnormal"] == len(result.alerts)
    assert counts["notifications"] == counts["abnormal"]
    # alerts confirm within two seals of their submission window
    stream = result.dual.public.confirmed()
    for event in result.alerts:
        submitted = result.alert_windows[event.event_id]
        entry = next(
            e for e in stream if e.tx.body["ehr_record_hash"] == event.ehr_record_hash
        )
        seal_number = len(result.dual.public.dag.past(entry.block)) + 1
        assert submitted + 1 <= seal_number <= submitted + 2


def test_run_demo_takes_each_alert_id_once_per_dispatch(monkeypatch):
    calls = {"event_id": 0, "dispatch": 0}
    event_id, dispatch = AlertEvent.event_id, RpmPipeline.dispatch_alert

    def counted_event_id(event):
        calls["event_id"] += 1
        return event_id.fget(event)

    def counted_dispatch(*args):
        calls["dispatch"] += 1
        return dispatch(*args)

    monkeypatch.setattr(AlertEvent, "event_id", property(counted_event_id))
    monkeypatch.setattr(RpmPipeline, "dispatch_alert", counted_dispatch)
    result = run_demo(seed=42, patients=2, readings_per_device=10, duration=50.0)
    assert calls["dispatch"] == len(result.alerts) > 0
    # dispatch computes the id, and run_demo keys alert_windows by it
    assert calls["event_id"] == calls["dispatch"]
    assert set(result.alert_windows) == {event_id.fget(event) for event in result.alerts}


def test_run_demo_is_deterministic():
    a = run_demo(seed=9, patients=1, readings_per_device=8, duration=40.0)
    b = run_demo(seed=9, patients=1, readings_per_device=8, duration=40.0)
    c = run_demo(seed=10, patients=1, readings_per_device=8, duration=40.0)
    assert a.dual.public.save_text() == b.dual.public.save_text()
    assert a.dual.private.save_text() == b.dual.private.save_text()
    assert a.readings != c.readings


# sha256 of the files `rpm demo --seed 11 --state-dir DIR` writes with
# default options. Any change that alters a saved byte changes these.
DEMO_SEED_11_SHA256 = {
    "ehr.log": "4ea047927a6f3e1f3c124a79ca5fd701ee6935de56dccf6ea9ad0be50bf8dff6",
    "private.ledger": "1d63cf85eb5bd3a28c9623e4d26754735b9fb7a16fc930f6efd5227f878b2d12",
    "public.ledger": "5bf1da86edfdfe766693e938d5c14f3f151c82978643cae17d7a9b369414c63d",
}


def test_demo_state_is_byte_identical_to_golden(tmp_path):
    # the same steps as cmd_rpm_demo with a state dir
    result = run_demo(seed=11, state_dir=str(tmp_path))
    result.dual.private.save(tmp_path / "private.ledger")
    result.dual.public.save(tmp_path / "public.ledger")
    result.store.close()
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in DEMO_SEED_11_SHA256
    }
    assert digests == DEMO_SEED_11_SHA256


def test_demo_closes_its_store_when_the_run_raises(tmp_path, monkeypatch):
    def failing(self, batch, now):
        raise RuntimeError("batch failed")

    monkeypatch.setattr(RpmPipeline, "process_batch", failing)
    with pytest.raises(RuntimeError, match="batch failed"):
        run_demo(seed=1, patients=1, readings_per_device=4, duration=10.0,
                 state_dir=str(tmp_path))
    # an open log would warn here, and the warning fails the test
    gc.collect()
    assert (tmp_path / "ehr.log").exists()


def test_rules_for_matches_a_scan_of_every_rule():
    pipeline = run_demo(seed=3, patients=3, readings_per_device=2, duration=10.0).pipeline
    patients = {r.patient for r in pipeline.rules}
    assert len(patients) == 3
    for patient in sorted(patients) + ["nobody"]:
        want = [r for r in pipeline.rules if r.patient == patient]
        assert list(pipeline.rules_for(patient)) == want, patient
