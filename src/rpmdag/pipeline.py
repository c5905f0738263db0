"""Remote-patient-monitoring data path.

Synthetic device streams are aggregated per patient per time window,
judged against per-vital threshold rules, and recorded: the raw reading
goes to the EHR store (hash-anchored on the private ledger), every
verdict becomes a RuleEvaluation transaction on the private ledger, and
abnormal verdicts emit a hash-only AlertEvent to the public ledger plus
a notification to subscribers holding a matching access grant. No vital
value ever reaches a ledger body.
"""

from __future__ import annotations

import json
import logging
import math
import os
import random
from dataclasses import dataclass, field, replace
from json.encoder import encode_basestring_ascii

from .acl import AccessController, ManualClock, Role, Scope, Session
from .ehr import LOG_NAME, EhrRecord, EhrStore, anchor
from .errors import EhrRecordMissing, FormatError, InvalidParameter, InvalidProfile, UnitMismatch
from .hashing import (canonical_json, digest, encode_str, float_time, integer, rng_seed, shown,
                      whole_number)
from .ledger import ALERT_SEVERITIES, DualLedger, Transaction, TxKind, VitalKind, token_fault

log = logging.getLogger(__name__)


# Multipliers into the canonical unit for each vital; the canonical unit
# is listed first.
UNIT_FACTORS = {
    VitalKind.HEART_RATE: {"bpm": 1.0},
    VitalKind.SYSTOLIC_BP: {"mmHg": 1.0, "kPa": 7.50062},
    VitalKind.DIASTOLIC_BP: {"mmHg": 1.0, "kPa": 7.50062},
    VitalKind.GLUCOSE: {"mg/dL": 1.0, "mmol/L": 18.0182},
    VitalKind.RESPIRATION: {"breaths/min": 1.0},
}
CANONICAL_UNIT = {vital: next(iter(factors)) for vital, factors in UNIT_FACTORS.items()}

NORMAL = "normal"
ABNORMAL = "abnormal"
UNEVALUATED = "unevaluated"

_SEVERITY_RANK = {name: i for i, name in enumerate(ALERT_SEVERITIES)}


@dataclass(frozen=True, slots=True)
class VitalReading:
    patient: str
    vital: VitalKind
    value: float
    unit: str
    measured_at: float
    device: str

    def __post_init__(self):
        if not float_time(self.value):
            raise InvalidParameter(f"reading value must be a finite number, got {shown(self.value)}")
        if not float_time(self.measured_at):
            raise InvalidParameter(f"measured_at must be a finite number, got {shown(self.measured_at)}")

    def normalized(self) -> "VitalReading":
        """Convert into the vital's canonical unit."""
        factors = UNIT_FACTORS[self.vital]
        if self.unit not in factors:
            raise UnitMismatch(f"cannot convert {self.unit!r} for {self.vital.value}")
        if self.unit == CANONICAL_UNIT[self.vital]:
            return self
        return replace(self, value=self.value * factors[self.unit], unit=CANONICAL_UNIT[self.vital])

    def content_bytes(self) -> bytes:
        """Canonical bytes stored in the EHR; the only home of the value.

        They are canonical_json of the six fields by name. When every field
        has the exact type a reading is made with, they are spelt from one
        template, keys in sorted order: a str by the encoder's own escape
        and a float (finite, by __post_init__) by float.__repr__, which %r
        calls for an exact float, as the encoder does. Any other field (a
        str or float subclass, an int, None) takes the dict's encode, so it
        gives the same bytes or raises what that encode raises."""
        vital = self.vital._value_  # .value without the property call
        device, at, patient, unit, value = (self.device, self.measured_at, self.patient,
                                            self.unit, self.value)
        if (type(device) is type(patient) is type(unit) is type(vital) is str
                and type(at) is type(value) is float):
            return ('{"device":%s,"measured_at":%r,"patient":%s,"unit":%s,"value":%r,"vital":%s}'
                    % (encode_basestring_ascii(device), at, encode_basestring_ascii(patient),
                       encode_basestring_ascii(unit), value,
                       encode_basestring_ascii(vital))).encode()
        return canonical_json({"device": device, "measured_at": at, "patient": patient,
                               "unit": unit, "value": value, "vital": vital})


@dataclass(frozen=True)
class ThresholdRule:
    rule_id: str
    patient: str
    vital: VitalKind
    min: float
    max: float
    severity: str

    def __post_init__(self):
        # both key the pipeline's rule index, and an alert body carries
        # both, so refuse here what its scan would refuse at the first
        # alert, after the EHR log is written
        for name in ("rule_id", "patient"):
            value = getattr(self, name)
            fault = token_fault(value)
            if fault:
                raise InvalidParameter(f"rule field {name!r} {fault}, got {value!r}")
        if not (float_time(self.min) and float_time(self.max) and self.min < self.max):
            raise InvalidParameter(
                f"rule {self.rule_id!r} needs finite min < max, got {shown(self.min)}, {shown(self.max)}"
            )
        if self.severity not in ALERT_SEVERITIES:
            raise InvalidParameter(f"rule {self.rule_id!r} severity {self.severity!r}")

    def is_abnormal(self, value: float) -> bool:
        # Closed interval: boundary values are normal.
        return value < self.min or value > self.max


@dataclass(frozen=True)
class AggregatedBatch:
    patient: str
    readings: tuple[VitalReading, ...]
    window: tuple[float, float]


@dataclass(frozen=True, slots=True)
class Verdict:
    status: str
    rule_id: str | None = None
    severity: str | None = None


# frozen, so every normal or unevaluated reading can share one
_NORMAL_VERDICT = Verdict(NORMAL)
_UNEVALUATED_VERDICT = Verdict(UNEVALUATED)


@dataclass(frozen=True)
class AlertEvent:
    patient: str
    rule_id: str
    ehr_record_hash: str
    occurred_at: float
    severity: str

    @property
    def event_id(self) -> str:
        # Time excluded so retries deduplicate.
        return digest(
            encode_str(self.patient)
            + encode_str(self.rule_id)
            + bytes.fromhex(self.ehr_record_hash)
        ).hex()

    def to_body(self) -> dict:
        # a frozen dataclass without slots keeps exactly its fields, in
        # order, in __dict__; asdict would deep-copy each one, 20x slower
        return dict(vars(self))


@dataclass(frozen=True)
class DeviceProfile:
    """Baseline distribution plus the bounds anomalies must escape."""

    mean: float
    stddev: float
    anomaly_probability: float
    low: float
    high: float

    def __post_init__(self):
        for name in ("mean", "stddev", "anomaly_probability", "low", "high"):
            value = getattr(self, name)
            if not float_time(value):
                raise InvalidProfile(f"{name} must be a finite number, got {shown(value)}")
        if self.stddev <= 0:
            raise InvalidProfile(f"stddev must be positive, got {self.stddev}")
        if not 0.0 <= self.anomaly_probability <= 1.0:
            raise InvalidProfile(
                f"anomaly_probability must be in [0, 1], got {self.anomaly_probability}"
            )
        if self.low >= self.high:
            raise InvalidProfile("profile needs low < high")


def simulate_device(
    patient: str,
    vital: VitalKind,
    profile: DeviceProfile,
    seed: int,
    count: int,
    interval: float = 1.0,
) -> list[VitalReading]:
    """Seeded synthetic stream: baseline draws clamped to mean ± 4σ, with
    anomalies injected strictly outside [low, high] at the configured rate."""
    if not integer(seed):
        raise InvalidParameter(f"seed must be an integer, got {shown(seed)}")
    if not whole_number(count, 0):
        raise InvalidParameter(f"count must be a nonnegative integer, got {shown(count)}")
    if not float_time(interval):
        raise InvalidParameter(f"interval must be a finite number, got {shown(interval)}")
    device = f"dev-{patient}-{vital.value}"
    rng = random.Random(rng_seed(seed))
    readings = []
    for i in range(count):
        if rng.random() < profile.anomaly_probability:
            margin = (0.5 + 3.0 * rng.random()) * profile.stddev
            if rng.random() < 0.5:
                value = profile.low - margin
            else:
                value = profile.high + margin
        else:
            raw = rng.gauss(profile.mean, profile.stddev)
            span = 4.0 * profile.stddev
            value = min(max(raw, profile.mean - span), profile.mean + span)
        readings.append(
            VitalReading(
                patient=patient,
                vital=vital,
                value=value,
                unit=CANONICAL_UNIT[vital],
                measured_at=i * interval,
                device=device,
            )
        )
    return readings


def aggregate(readings, window: float) -> list[AggregatedBatch]:
    """Group unit-normalized readings per patient per window of the given
    duration. Empty windows are omitted; nothing is duplicated or dropped."""
    if not (float_time(window) and window > 0):
        raise InvalidParameter(f"window must be positive and finite, got {shown(window)}")
    last_seen: dict[str, float] = {}
    groups: dict[tuple[int, str], list[VitalReading]] = {}
    for reading in readings:
        previous = last_seen.get(reading.device)
        if previous is not None and reading.measured_at < previous:
            raise InvalidParameter(
                f"device {reading.device!r} readings must be time-ordered"
            )
        last_seen[reading.device] = reading.measured_at
        normalized = reading.normalized()
        idx = int(normalized.measured_at // window)
        groups.setdefault((idx, normalized.patient), []).append(normalized)
    batches = []
    for (idx, patient), members in sorted(groups.items()):
        members.sort(key=lambda r: (r.measured_at, r.device))
        batches.append(
            AggregatedBatch(
                patient=patient,
                readings=tuple(members),
                window=(idx * window, (idx + 1) * window),
            )
        )
    return batches


def evaluate(
    batch: AggregatedBatch, rules
) -> list[tuple[VitalReading, Verdict]]:
    """Judge each reading against the patient's rules for its vital.
    Abnormal iff any matching rule's closed interval excludes the value;
    the highest-severity violated rule is reported (ties -> smallest
    rule_id). A vital with no rule is Unevaluated, never alerted."""
    rules = list(rules)
    for rule in rules:
        if rule.patient != batch.patient:
            raise InvalidParameter(
                f"rule {rule.rule_id!r} is for {rule.patient!r}, "
                f"batch is for {batch.patient!r}"
            )
    verdicts = []
    for reading in batch.readings:
        matching = [r for r in rules if r.vital is reading.vital]
        if not matching:
            log.info(
                "no rule for %s/%s at %s", reading.patient,
                reading.vital.value, reading.measured_at,
            )
            verdicts.append((reading, _UNEVALUATED_VERDICT))
            continue
        violated = [r for r in matching if r.is_abnormal(reading.value)]
        if not violated:
            verdicts.append((reading, _NORMAL_VERDICT))
            continue
        chosen = min(violated, key=lambda r: (-_SEVERITY_RANK[r.severity], r.rule_id))
        verdicts.append((reading, Verdict(ABNORMAL, chosen.rule_id, chosen.severity)))
    return verdicts


@dataclass
class Subscriber:
    """In-process notification target; delivery is gated per patient by
    the access controller at dispatch time."""

    entity: str
    session: Session
    inbox: list[AlertEvent] = field(default_factory=list)


class RpmPipeline:
    """Wires devices, EHR store, rule engine, and the two ledgers."""

    author = "rpm-pipeline"  # the entity every pipeline transaction is submitted as

    def __init__(self, dual: DualLedger, store: EhrStore, controller: AccessController, rules):
        self.dual = dual
        self.store = store
        self.controller = controller
        # a tuple, so the per-patient index built from it cannot go stale
        self.rules = tuple(rules)
        by_patient: dict[str, list[ThresholdRule]] = {}
        for rule in self.rules:
            by_patient.setdefault(rule.patient, []).append(rule)
        self._rules_by_patient = {p: tuple(rs) for p, rs in by_patient.items()}
        self.subscribers: list[Subscriber] = []
        self._records: dict[VitalReading, EhrRecord] = {}
        self._delivered: set[tuple[str, str]] = set()
        self.alerts: list[AlertEvent] = []
        self._alert_ids: list[str] = []  # each alert's event_id, as dispatch computed it

    def rules_for(self, patient: str) -> tuple[ThresholdRule, ...]:
        """The patient's rules, in the order they were given."""
        return self._rules_by_patient.get(patient, ())

    def ingest(self, reading: VitalReading, now: float) -> EhrRecord:
        """Persist one normalized reading to the EHR and anchor its hash."""
        record = self.store.store(reading.content_bytes(), reading.patient, now)
        anchor(record, self.dual.private, self.author, now)
        self._records[reading] = record
        return record

    def record_for(self, reading: VitalReading) -> EhrRecord:
        record = self._records.get(reading)
        if record is None:
            raise EhrRecordMissing(
                f"no EHR record for {reading.patient!r} at {reading.measured_at}"
            )
        return record

    def process_batch(self, batch: AggregatedBatch, now: float) -> list[tuple[VitalReading, Verdict]]:
        """Store, evaluate, log, and alert one aggregated batch."""
        records = [self.ingest(reading, now) for reading in batch.readings]
        verdicts = evaluate(batch, self.rules_for(batch.patient))
        # evaluate keeps batch order, so each verdict pairs with its record
        for record, (reading, verdict) in zip(records, verdicts):
            self._log_verdict(reading, verdict, record, now)
            if verdict.status == ABNORMAL:
                self.dispatch_alert(reading, verdict, now)
        return verdicts

    def _log_verdict(
        self, reading: VitalReading, verdict: Verdict, record: EhrRecord, now: float
    ):
        # The body carries no vital values; the hash points at the EHR.
        tx = Transaction(
            kind=TxKind.RULE_EVALUATION,
            body={
                "patient": reading.patient,
                "vital": reading.vital._value_,
                "verdict": verdict.status,
                "rule_id": verdict.rule_id,
                "ehr_record_hash": record.content_hash,
                "occurred_at": reading.measured_at,
            },
            submitted_at=now,
            author=self.author,
        )
        self.dual.private.submit(tx, self.author)

    def dispatch_alert(
        self, reading: VitalReading, verdict: Verdict, now: float
    ) -> AlertEvent:
        """Emit the hash-only AlertEvent to the public ledger and notify
        subscribers holding a valid grant. Re-dispatch is idempotent."""
        if verdict.status != ABNORMAL:
            raise InvalidParameter("only abnormal verdicts dispatch alerts")
        record = self.record_for(reading)
        event = AlertEvent(
            patient=reading.patient,
            rule_id=verdict.rule_id,
            ehr_record_hash=record.content_hash,
            occurred_at=reading.measured_at,
            severity=verdict.severity,
        )
        tx = Transaction(
            kind=TxKind.ALERT_EVENT,
            body=event.to_body(),
            submitted_at=now,
            author=self.author,
        )
        event_id = event.event_id  # a sha256, so computed once
        if not self.dual.public.has_tx(tx.id):
            self.dual.public.submit(tx, self.author)
            self.alerts.append(event)
            self._alert_ids.append(event_id)
            log.info("alert %s for %s (%s)", event_id[:12], event.patient, event.severity)
        for sub in self.subscribers:
            key = (event_id, sub.entity)
            if key in self._delivered:
                continue
            if self.controller.check_access(sub.session, event.patient, Scope.ALERTS_SUBSCRIBE):
                sub.inbox.append(event)
                self._delivered.add(key)
        return event


def load_rules_json(text: str) -> list[ThresholdRule]:
    """Parse a JSON array of {rule_id, patient, vital, min, max, severity}."""
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"rules file is not valid JSON: {exc}") from exc
    if not isinstance(raw, list):
        raise FormatError("rules file must be a JSON array")
    rules = []
    for i, entry in enumerate(raw):
        try:
            rules.append(
                ThresholdRule(
                    rule_id=entry["rule_id"],
                    patient=entry["patient"],
                    vital=VitalKind(entry["vital"]),
                    min=float(entry["min"]),
                    max=float(entry["max"]),
                    severity=entry["severity"],
                )
            )
        # float() raises OverflowError on an integer beyond the float range
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise FormatError(f"rules entry {i}: {exc}") from exc
    return rules


# Demo profiles: bounds sit exactly at mean ± 5σ, so baseline draws
# (clamped to ± 4σ) always judge normal and injected anomalies always
# judge abnormal.
DEMO_PROFILES = {
    VitalKind.HEART_RATE: DeviceProfile(75.0, 5.0, 0.0, 50.0, 100.0),
    VitalKind.SYSTOLIC_BP: DeviceProfile(115.0, 7.0, 0.0, 80.0, 150.0),
    VitalKind.DIASTOLIC_BP: DeviceProfile(75.0, 5.0, 0.0, 50.0, 100.0),
    VitalKind.GLUCOSE: DeviceProfile(105.0, 7.0, 0.0, 70.0, 140.0),
    VitalKind.RESPIRATION: DeviceProfile(15.0, 1.2, 0.0, 9.0, 21.0),
}

DEMO_SEVERITIES = {
    VitalKind.HEART_RATE: "urgent",
    VitalKind.SYSTOLIC_BP: "urgent",
    VitalKind.DIASTOLIC_BP: "advisory",
    VitalKind.GLUCOSE: "urgent",
    VitalKind.RESPIRATION: "advisory",
}


@dataclass
class DemoResult:
    patients: list[str]
    readings: list[VitalReading]
    verdicts: list[tuple[VitalReading, Verdict]]
    alerts: list[AlertEvent]
    alert_windows: dict[str, int]
    notifications: int
    dual: DualLedger
    store: EhrStore
    controller: AccessController
    pipeline: RpmPipeline
    subscriber: Subscriber

    def counts(self) -> dict[str, int]:
        by_status = {NORMAL: 0, ABNORMAL: 0, UNEVALUATED: 0}
        for _, verdict in self.verdicts:
            by_status[verdict.status] += 1
        public_alerts = sum(
            1
            for entry in self.dual.public.confirmed()
            if entry.tx.kind is TxKind.ALERT_EVENT
        )
        return {
            "readings": len(self.readings),
            "normal": by_status[NORMAL],
            "abnormal": by_status[ABNORMAL],
            "unevaluated": by_status[UNEVALUATED],
            "public_alerts": public_alerts,
            "notifications": self.notifications,
            "private_blocks": len(self.dual.private.dag.blocks) - 1,
            "public_blocks": len(self.dual.public.dag.blocks) - 1,
        }


def run_demo(
    seed: int,
    patients: int = 5,
    readings_per_device: int = 40,
    duration: float = 100.0,
    anomaly_probability: float = 0.1,
    k: int = 3,
    rules: list[ThresholdRule] | None = None,
    state_dir: str | None = None,
) -> DemoResult:
    """Full path: per-patient device streams for every vital, windowed
    aggregation, rule evaluation, EHR anchoring, alert dispatch to a
    granted provider, and one seal of both ledgers per window."""
    if not integer(seed):
        raise InvalidParameter(f"seed must be an integer, got {shown(seed)}")
    for name, value in (("patients", patients), ("readings_per_device", readings_per_device)):
        if not whole_number(value, 1):
            raise InvalidParameter(f"{name} must be a positive integer, got {shown(value)}")
    if not (float_time(duration) and duration > 0):
        raise InvalidParameter(f"duration must be positive and finite, got {shown(duration)}")
    # every input is checked before the store opens, which creates state_dir;
    # one history per state dir, as a rerun would save its ledgers over the
    # last run's and orphan the records the log holds
    for name in (LOG_NAME, "private.ledger", "public.ledger"):
        if state_dir is not None and os.path.lexists(os.path.join(state_dir, name)):
            raise FileExistsError(f"state dir {state_dir!r} already holds {name}")
    profiles = {
        vital: DeviceProfile(base.mean, base.stddev, anomaly_probability, base.low, base.high)
        for vital, base in DEMO_PROFILES.items()
    }
    author = RpmPipeline.author
    sealer = "sealer-1"
    dual = DualLedger.create(
        k,
        private_writers={author, sealer, AccessController.author},
        public_writers={author, sealer},
    )
    clock = ManualClock()
    controller = AccessController(clock=clock, ledger=dual.private)

    patient_ids = [f"p-{i + 1:02d}" for i in range(patients)]
    provider = "dr-01"
    controller.register(provider, Role.HEALTHCARE_PROVIDER, "pw-dr-01")
    for pid in patient_ids:
        controller.register(pid, Role.PATIENT, f"pw-{pid}")
        session = controller.authenticate(pid, f"pw-{pid}")
        controller.grant(session, provider, Scope.ALERTS_SUBSCRIBE)
    provider_session = controller.authenticate(provider, "pw-dr-01")

    if rules is None:
        # Opaque rule ids: the alert-body scan rejects vital names there.
        rules = [
            ThresholdRule(
                rule_id=f"r-{pid}-v{v_index + 1}",
                patient=pid,
                vital=vital,
                min=profile.low,
                max=profile.high,
                severity=DEMO_SEVERITIES[vital],
            )
            for pid in patient_ids
            for v_index, (vital, profile) in enumerate(DEMO_PROFILES.items())
        ]

    interval = duration / readings_per_device
    all_readings: list[VitalReading] = []
    for p_index, pid in enumerate(patient_ids):
        for v_index, (vital, profile) in enumerate(profiles.items()):
            stream_seed = (seed * 1000003 + p_index * 101 + v_index) & 0xFFFFFFFF
            all_readings.extend(
                simulate_device(
                    pid, vital, profile, stream_seed, readings_per_device, interval=interval
                )
            )

    window = duration / 10.0
    by_start: dict[float, list[AggregatedBatch]] = {}
    for batch in aggregate(all_readings, window):
        by_start.setdefault(batch.window[0], []).append(batch)

    # the store is opened last and closed again if the run raises; a run
    # that returns hands it to the caller in the result
    store = EhrStore(state_dir)
    try:
        pipeline = RpmPipeline(dual, store, controller, rules)
        subscriber = Subscriber(entity=provider, session=provider_session)
        pipeline.subscribers.append(subscriber)
        verdicts: list[tuple[VitalReading, Verdict]] = []
        alert_windows: dict[str, int] = {}
        window_count = int(math.ceil(duration / window))
        for w in range(window_count):
            window_end = (w + 1) * window
            clock.now = window_end
            for batch in by_start.get(w * window, ()):
                before = len(pipeline._alert_ids)
                verdicts.extend(pipeline.process_batch(batch, window_end))
                for event_id in pipeline._alert_ids[before:]:
                    alert_windows.setdefault(event_id, w)
            dual.seal_all(sealer, window_end)
        # A last seal of both ledgers. Each seal takes at most max_block_txs
        # txs, so a backlog from windows with more traffic than that stays
        # pooled, and save does not persist the pool.
        dual.seal_all(sealer, duration + window)
    except BaseException:
        store.close()
        raise

    return DemoResult(
        patients=patient_ids,
        readings=all_readings,
        verdicts=verdicts,
        alerts=list(pipeline.alerts),
        alert_windows=alert_windows,
        notifications=len(subscriber.inbox),
        dual=dual,
        store=store,
        controller=controller,
        pipeline=pipeline,
        subscriber=subscriber,
    )
