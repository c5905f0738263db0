from __future__ import annotations

import hashlib
import json
import os
import shutil
from pathlib import Path

import pytest

from rpmdag.fixtures import REFERENCE_K3_BLUE, REFERENCE_K3_RED, reference_k3_text
from rpmdag.ledger import PUBLIC, Transaction, TxKind

from helpers import CRAFTED_LEDGERS, crafted_ledger_text, run_cli, run_cli_process


@pytest.fixture
def dag_file(tmp_path):
    path = tmp_path / "reference.dag"
    path.write_text(reference_k3_text())
    return str(path)


def test_color_matches_reference(dag_file):
    code, out, _ = run_cli("color", "--dag", dag_file, "--k", "3")
    assert code == 0
    rows = dict(line.split(" ", 1) for line in out.strip().splitlines())
    blue = {tok for tok, rest in rows.items() if rest.startswith("blue")}
    red = {tok for tok, rest in rows.items() if rest.startswith("red")}
    assert blue == set(REFERENCE_K3_BLUE)
    assert red == set(REFERENCE_K3_RED)
    assert rows["J"] == "blue 7"


def test_oracle_matches_reference(dag_file):
    code, out, _ = run_cli("oracle", "--dag", dag_file, "--k", "3")
    assert code == 0
    assert out.split() == sorted(REFERENCE_K3_BLUE)


def test_dag_import_summary(dag_file):
    code, out, _ = run_cli("dag", "import", "--file", dag_file)
    assert code == 0
    assert out.strip() == "blocks=11 tips=4 genesis=A"


def test_dag_export_canonical_and_out_file(dag_file, tmp_path):
    out_path = tmp_path / "exported.dag"
    code, out, _ = run_cli("dag", "export", "--file", dag_file, "--out", str(out_path))
    assert code == 0
    assert out == out_path.read_text()
    # exporting the export is a fixed point
    code, again, _ = run_cli("dag", "export", "--file", str(out_path))
    assert code == 0 and again == out


def test_dag_dot(dag_file):
    code, out, _ = run_cli("dag", "dot", "--file", dag_file)
    assert code == 0
    assert out.startswith("digraph") and '"K" -> "E"' in out


def test_missing_file_is_a_runtime_error():
    code, _, err = run_cli("dag", "import", "--file", "/nonexistent.dag")
    assert code == 1
    assert err.strip()


def test_sim_run_metrics_and_determinism(tmp_path):
    argv = (
        "sim", "run", "--nodes", "3", "--lambda", "2", "--delay", "1",
        "--duration", "40", "--seed", "11",
    )
    code, out, _ = run_cli(*argv)
    assert code == 0
    metrics = json.loads(out)
    assert set(metrics) == {
        "blocks_created", "blocks_in_order", "included_ratio",
        "effective_tps", "max_observed_anticone", "converged",
    }
    assert metrics["converged"] is True
    code, again, _ = run_cli(*argv)
    assert again == out
    out_path = tmp_path / "metrics.json"
    run_cli(*argv, "--out", str(out_path))
    assert out_path.read_text() == out


def test_sim_run_writes_a_trace(tmp_path):
    trace_path = tmp_path / "events.jsonl"
    code, _, _ = run_cli(
        "sim", "run", "--nodes", "2", "--lambda", "1", "--delay", "0.5",
        "--duration", "30", "--seed", "3", "--trace", str(trace_path),
    )
    assert code == 0
    lines = trace_path.read_text().strip().splitlines()
    assert lines
    assert set(json.loads(lines[0])) == {"time", "node", "event", "block"}


def test_sim_sweep_csv_shape():
    code, out, _ = run_cli(
        "sim", "sweep", "--lambdas", "0.5,2", "--nodes", "3",
        "--duration", "50", "--seed", "4",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "lambda,mode,included_ratio,effective_tps"
    assert len(lines) == 1 + 2 * 2  # two rates, two modes
    rates = [line.split(",")[0] for line in lines[1:]]
    assert rates == ["0.5", "0.5", "2.0", "2.0"]


@pytest.mark.parametrize(
    "argv",
    [
        ("sim", "run", "--seed", "1", "--k", "3", "--duration", "inf"),
        ("sim", "run", "--seed", "1", "--k", "3", "--lambda", "inf", "--duration", "5"),
        ("sim", "run", "--seed", "1", "--k", "3", "--delay", "nan", "--duration", "5"),
        ("sim", "sweep", "--seed", "1", "--lambdas", "1,inf", "--duration", "5"),
    ],
)
def test_non_finite_sim_parameter_is_a_runtime_error(argv):
    # in a subprocess with a timeout: an infinite run would otherwise hang the suite
    code, out, err = run_cli_process(*argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_missing_seed_is_a_usage_error():
    code, _, err = run_cli("sim", "run")
    assert code == 2
    assert "--seed" in err and "RPMDAG_SEED" in err


def test_bad_flag_value_is_a_usage_error():
    code, _, err = run_cli("sim", "run", "--seed", "not-a-number")
    assert code == 2


def test_no_command_and_help():
    code, _, _ = run_cli()
    assert code == 2
    with_help = run_cli("--help")
    assert with_help[0] == 0 and "dag" in with_help[1]
    sub_help = run_cli("sim", "run", "--help")
    assert sub_help[0] == 0 and "--lambda" in sub_help[1]
    unknown = run_cli("frobnicate")
    assert unknown[0] == 2


def test_option_precedence_flag_env_config(tmp_path):
    config = tmp_path / "sim.conf"
    config.write_text("# defaults for the team\nseed=1\n")
    base = ("sim", "run", "--nodes", "2", "--duration", "20")

    def metrics_for(*extra, env=None):
        code, out, _ = run_cli(*base, *extra, env=env)
        assert code == 0
        return out

    from_config = metrics_for("--config", str(config))
    assert from_config == metrics_for("--seed", "1")
    # an environment variable beats the config file
    from_env = metrics_for("--config", str(config), env={"RPMDAG_SEED": "2"})
    assert from_env == metrics_for("--seed", "2")
    # an explicit flag beats both
    from_flag = metrics_for(
        "--config", str(config), "--seed", "3", env={"RPMDAG_SEED": "2"}
    )
    assert from_flag == metrics_for("--seed", "3")


def test_config_path_via_environment(tmp_path):
    config = tmp_path / "sim.conf"
    config.write_text("seed=5\n")
    code, out, _ = run_cli(
        "sim", "run", "--nodes", "2", "--duration", "20",
        env={"RPMDAG_CONFIG": str(config)},
    )
    assert code == 0
    assert out == run_cli("sim", "run", "--nodes", "2", "--duration", "20", "--seed", "5")[1]


def test_unknown_config_key_is_named(tmp_path):
    config = tmp_path / "sim.conf"
    config.write_text("sede=5\n")
    code, _, err = run_cli("sim", "run", "--config", str(config))
    assert code == 2
    assert "sede" in err


def test_rpm_demo_ehr_and_ledger_cli(tmp_path):
    state = tmp_path / "state"
    code, out, _ = run_cli(
        "rpm", "demo", "--seed", "5", "--patients", "1",
        "--readings-per-device", "6", "--duration", "30",
        "--state-dir", str(state),
    )
    assert code == 0
    counts = json.loads(out)
    assert counts["readings"] == 30
    assert counts["public_alerts"] == counts["abnormal"]

    # the persisted private ledger audits clean
    store_dir, ledger_path = str(state), str(state / "private.ledger")
    code, out, _ = run_cli("ehr", "audit", "--store", store_dir, "--ledger", ledger_path)
    assert code == 0
    assert out.strip().splitlines()[-1] == "audited=30 intact=30 tampered=0"

    # verify one record end to end
    record_id = out.split()[0]
    code, out, _ = run_cli(
        "ehr", "verify", "--record", record_id, "--store", store_dir,
        "--ledger", ledger_path,
    )
    assert code == 0 and out.startswith("intact")

    # the inspect stream is JSON lines carrying wire transactions
    code, out, _ = run_cli("ledger", "inspect", "--file", ledger_path)
    assert code == 0
    entry = json.loads(out.splitlines()[0])
    assert set(entry) == {"position", "block", "tx"}

    # a single flipped content byte turns the audit red
    log_path = os.path.join(store_dir, "ehr.log")
    with open(log_path, "rb") as fh:
        raw = fh.read()
    marker = b'"value":'
    at = raw.index(marker) + len(marker)
    flipped = raw[:at] + (b"9" if raw[at : at + 1] != b"9" else b"8") + raw[at + 1 :]
    with open(log_path, "wb") as fh:
        fh.write(flipped)
    code, out, _ = run_cli("ehr", "audit", "--store", store_dir, "--ledger", ledger_path)
    assert code == 1
    assert out.strip().splitlines()[-1] == "audited=30 intact=29 tampered=1"


@pytest.mark.parametrize(
    "old, new",
    [
        ("k=3", "k=x"),
        ("max=1000", "max=x"),
        ("k=3", "k=3 junk"),
        ("max=1000", "max=-1"),
        ("max=1000", "max=0"),
    ],
)
def test_malformed_ledger_header_is_a_runtime_error(tmp_path, old, new):
    state = tmp_path / "state"
    code, _, _ = run_cli(
        "rpm", "demo", "--seed", "11", "--patients", "1",
        "--readings-per-device", "2", "--duration", "10",
        "--state-dir", str(state),
    )
    assert code == 0
    path = state / "private.ledger"
    path.write_text(path.read_text().replace(old, new, 1))
    code, out, err = run_cli("ledger", "inspect", "--file", str(path))
    assert code == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize(
    "visibility, tx", [case[1:3] for case in CRAFTED_LEDGERS], ids=[case[0] for case in CRAFTED_LEDGERS]
)
def test_crafted_ledger_body_is_a_runtime_error(tmp_path, visibility, tx):
    path = tmp_path / "crafted.ledger"
    path.write_text(crafted_ledger_text(visibility, tx))
    for argv in (
        ("ledger", "inspect", "--file", str(path)),
        ("ehr", "verify", "--store", str(tmp_path / "store"), "--ledger", str(path),
         "--record", "r"),
    ):
        code, out, err = run_cli(*argv)
        assert code == 1 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")


def test_inspect_reads_an_alert_whose_occurred_at_overflows_a_float(tmp_path):
    path = tmp_path / "crafted.ledger"
    body = {"patient": "p-01", "rule_id": "r-7", "ehr_record_hash": "ab" * 32,
            "occurred_at": 2**1100, "severity": "urgent"}
    path.write_text(crafted_ledger_text(PUBLIC, Transaction(TxKind.ALERT_EVENT, body, 1.0, "svc")))
    code, out, err = run_cli_process("ledger", "inspect", "--file", str(path))
    assert (code, err) == (0, "")
    assert str(2**1100) in out


def test_crafted_access_change_is_a_runtime_error_for_acl_check(tmp_path):
    # a sealed grant without grantor used to reach the grant table rebuild
    # and die there with a bare KeyError
    path = tmp_path / "crafted.ledger"
    _, visibility, tx, _ = next(c for c in CRAFTED_LEDGERS if c[0] == "access-change-without-grantor")
    path.write_text(crafted_ledger_text(visibility, tx))
    roster = tmp_path / "roster.json"
    roster.write_text(json.dumps([
        {"entity_id": "x", "role": "healthcare_provider", "credential": "pw-x"},
    ]))
    code, out, err = run_cli("acl", "check", "--ledger", str(path), "--roster", str(roster),
                             "--entity", "x", "--patient", "y", "--scope", "ehr_read")
    assert code == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "grantor" in lines[0]


def assert_one_error_line(result, code):
    got, out, err = result
    assert got == code and out == "", result
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err


@pytest.fixture(scope="module")
def small_demo(tmp_path_factory):
    state = tmp_path_factory.mktemp("demo") / "state"
    code, _, _ = run_cli(
        "rpm", "demo", "--seed", "11", "--patients", "1",
        "--readings-per-device", "2", "--duration", "10",
        "--state-dir", str(state),
    )
    assert code == 0
    return state


def _header_line(header: dict) -> bytes:
    return json.dumps(header, sort_keys=True).encode() + b"\n"


def _length_seeking_back_to_its_header(header: dict) -> bytes:
    # content_len = -(line length + 1) makes the skip past content and
    # separator land on the header's own first byte
    length = 0
    while True:
        line = _header_line({**header, "content_len": length})
        if length == -(len(line) + 1):
            return line
        length = -(len(line) + 1)


EHR_HEADER_EDITS = {
    "length-seeks-back-to-its-header": _length_seeking_back_to_its_header,
    "negative-length": lambda h: _header_line({**h, "content_len": -1}),
    "bool-length": lambda h: _header_line({**h, "content_len": True}),
    "record-id-not-a-string": lambda h: _header_line({**h, "record_id": 7}),
    "no-patient": lambda h: _header_line({k: v for k, v in h.items() if k != "patient"}),
    "no-stored-at": lambda h: _header_line({k: v for k, v in h.items() if k != "stored_at"}),
    "no-content-hash": lambda h: _header_line({k: v for k, v in h.items() if k != "content_hash"}),
    "0xff-in-header": lambda h: _header_line(h).replace(b'"patient"', b'"pat\xffent"'),
    "bom-before-header": lambda h: b"\xef\xbb\xbf" + _header_line(h),
    "header-not-an-object": lambda h: b"[1, 2]\n",
}


@pytest.mark.parametrize("edit", EHR_HEADER_EDITS.values(), ids=EHR_HEADER_EDITS)
def test_crafted_ehr_header_is_a_runtime_error(small_demo, tmp_path, edit):
    # in a subprocess with a timeout: a header that seeks back onto itself
    # used to loop forever when the log was opened
    state = tmp_path / "state"
    shutil.copytree(small_demo, state)
    log = state / "ehr.log"
    first, rest = log.read_bytes().split(b"\n", 1)
    log.write_bytes(edit(json.loads(first)) + rest)
    ledger = str(state / "private.ledger")
    for argv in (
        ("ehr", "audit", "--store", str(state), "--ledger", ledger),
        ("ehr", "verify", "--store", str(state), "--ledger", ledger, "--record", "r"),
    ):
        result = run_cli_process(*argv)
        assert_one_error_line(result, 1)
        assert "offset 0" in result[2]


@pytest.mark.parametrize("layout", ["no-directory", "no-log"])
def test_missing_ehr_store_is_a_runtime_error(small_demo, tmp_path, layout):
    # audit and verify only read: a mistyped --store must not create a store
    # and then report every anchored record as tampered
    store = tmp_path / "store"
    if layout == "no-log":
        store.mkdir()
    ledger = str(small_demo / "private.ledger")
    for argv in (
        ("ehr", "audit", "--store", str(store), "--ledger", ledger),
        ("ehr", "verify", "--store", str(store), "--ledger", ledger, "--record", "r"),
    ):
        result = run_cli_process(*argv)
        assert_one_error_line(result, 1)
        assert "Traceback" not in result[2] and str(store / "ehr.log") in result[2]
        if layout == "no-directory":
            assert not store.exists()
        else:
            assert list(store.iterdir()) == []


def test_non_utf8_ledger_is_a_runtime_error(small_demo, tmp_path):
    path = tmp_path / "private.ledger"
    path.write_bytes((small_demo / "private.ledger").read_bytes() + b"\xff")
    assert_one_error_line(run_cli("ledger", "inspect", "--file", str(path)), 1)
    assert_one_error_line(
        run_cli("ehr", "audit", "--store", str(small_demo), "--ledger", str(path)), 1
    )


def test_non_utf8_input_file_is_a_runtime_error(dag_file, tmp_path):
    bad_dag = tmp_path / "bad.dag"
    bad_dag.write_bytes(Path(dag_file).read_bytes() + b"\xff\n")
    assert_one_error_line(run_cli("color", "--dag", str(bad_dag), "--k", "3"), 1)
    assert_one_error_line(run_cli("dag", "import", "--file", str(bad_dag)), 1)
    rules = tmp_path / "rules.json"
    rules.write_bytes(b"[\xff]")
    assert_one_error_line(run_cli("rpm", "demo", "--seed", "1", "--rules", str(rules)), 1)


@pytest.mark.parametrize("readings", ["0", "-3"])
def test_demo_without_readings_is_a_runtime_error(readings):
    # in a child process, so a traceback would reach its stderr
    result = run_cli_process("rpm", "demo", "--seed", "1", "--readings-per-device", readings)
    assert_one_error_line(result, 1)
    assert "readings_per_device" in result[2]


@pytest.mark.parametrize("flag, value, name", [
    ("--duration", "nan", "duration"),
    ("--duration", "inf", "duration"),
    ("--anomaly-probability", "2", "anomaly_probability"),
])
def test_bad_demo_input_is_refused_before_anything_is_written(tmp_path, flag, value, name):
    state = tmp_path / "state"
    result = run_cli("rpm", "demo", "--seed", "1", flag, value, "--state-dir", str(state))
    assert_one_error_line(result, 1)
    assert name in result[2]
    assert not state.exists()


@pytest.mark.parametrize("text", ["", "# no blocks here\n\n   # nor here\n"])
def test_dag_import_of_a_file_without_blocks_is_a_runtime_error(tmp_path, text):
    path = tmp_path / "empty.dag"
    path.write_text(text)
    result = run_cli_process("dag", "import", "--file", str(path))
    assert_one_error_line(result, 1)
    assert "declares no blocks" in result[2]


def test_non_utf8_config_file_is_a_usage_error(dag_file, tmp_path):
    config = tmp_path / "bad.conf"
    config.write_bytes(b"k=3\n# \xff\n")
    assert_one_error_line(run_cli("color", "--dag", dag_file, "--config", str(config)), 2)


def test_acl_cli_flow(tmp_path):
    roster = tmp_path / "roster.json"
    roster.write_text(json.dumps([
        {"entity_id": "p-01", "role": "patient", "credential": "pw-p"},
        {"entity_id": "dr-01", "role": "healthcare_provider", "credential": "pw-dr"},
    ]))
    ledger = str(tmp_path / "acl.ledger")
    common = ("--ledger", ledger, "--roster", str(roster))

    code, _, _ = run_cli("acl", "check", *common, "--entity", "dr-01",
                         "--patient", "p-01", "--scope", "ehr_read")
    assert code == 1

    code, out, _ = run_cli("acl", "grant", *common, "--grantor", "p-01",
                           "--grantee", "dr-01", "--scope", "ehr_read")
    assert code == 0
    grant_id = out.strip()
    assert grant_id == "grant-0001"

    code, out, _ = run_cli("acl", "check", *common, "--entity", "dr-01",
                           "--patient", "p-01", "--scope", "ehr_read")
    assert code == 0 and out.strip() == "allowed"
    # the grant is scope-specific
    code, _, _ = run_cli("acl", "check", *common, "--entity", "dr-01",
                         "--patient", "p-01", "--scope", "alerts_subscribe")
    assert code == 1

    code, out, _ = run_cli("acl", "revoke", *common, "--grant-id", grant_id)
    assert code == 0 and out.strip() == f"revoked {grant_id}"
    code, out, _ = run_cli("acl", "check", *common, "--entity", "dr-01",
                           "--patient", "p-01", "--scope", "ehr_read")
    assert code == 1 and out.strip() == "denied"

    # unknown roster entity is a runtime refusal, not a crash
    code, _, err = run_cli("acl", "check", *common, "--entity", "ghost",
                           "--patient", "p-01", "--scope", "ehr_read")
    assert code == 1 and err.strip()


# `rpmdag color` stdout on the reference DAG, one "token color score" row per
# block in token order, frozen before GHOSTDAG was reduced to one entry point.
COLOR_GOLDEN = {
    0: "A blue 1|B red 2|C red 2|D blue 2|E red 2|F red 3|G blue 3|H red 3|I blue 4|J red 4|K red 3",
    1: "A blue 1|B red 2|C blue 2|D blue 2|E red 2|F red 4|G blue 4|H red 4|I blue 5|J blue 5|K red 3",
    2: "A blue 1|B red 2|C blue 2|D blue 2|E red 2|F blue 4|G blue 4|H red 4|I blue 6|J blue 6|K red 3",
    3: "A blue 1|B blue 2|C blue 2|D blue 2|E red 2|F blue 4|G blue 4|H red 4|I blue 7|J blue 7|K red 3",
    4: "A blue 1|B blue 2|C blue 2|D blue 2|E red 2|F blue 4|G blue 4|H red 4|I blue 7|J blue 7|K red 3",
}

# `sim run --seed 5 --lambda 20 --duration 100 --k 3`: metrics stdout and
# the sha256 of its --trace file.
SIM_SEED_5_METRICS = """{
  "blocks_created": 1945,
  "blocks_in_order": 1945,
  "converged": true,
  "effective_tps": 194.5,
  "included_ratio": 1.0,
  "max_observed_anticone": 49
}
"""
SIM_SEED_5_TRACE_SHA256 = "c0493fe6f6b59632c3eca3a71c3b45410d0ece671898fe08f6ff977f8742591d"


@pytest.mark.parametrize("k", sorted(COLOR_GOLDEN))
def test_color_output_is_byte_identical_to_golden(dag_file, k):
    code, out, _ = run_cli("color", "--dag", dag_file, "--k", str(k))
    assert code == 0
    assert out == COLOR_GOLDEN[k].replace("|", "\n") + "\n"


def test_sim_run_output_is_byte_identical_to_golden(tmp_path):
    trace_path = tmp_path / "events.jsonl"
    code, out, _ = run_cli(
        "sim", "run", "--seed", "5", "--lambda", "20", "--duration", "100",
        "--k", "3", "--trace", str(trace_path),
    )
    assert code == 0
    assert out == SIM_SEED_5_METRICS
    assert hashlib.sha256(trace_path.read_bytes()).hexdigest() == SIM_SEED_5_TRACE_SHA256


# sha256 of the stdout of `ledger inspect` on both ledgers and of `ehr audit`
# on the state `rpm demo --seed 11 --state-dir DIR` writes with default options.
DEMO_SEED_11_READ_SHA256 = {
    ("ledger", "inspect", "--file", "private.ledger"):
        "fe1fae190e8cfa46ff51099f85aa51048172d7047d32880a4911cc73a4cdbc65",
    ("ledger", "inspect", "--file", "public.ledger"):
        "15d98c09ea3809c8f2445d7927a015313442b03f989a218a28f390ad033497f2",
    ("ehr", "audit", "--store", ".", "--ledger", "private.ledger"):
        "0cb40f8a94bca0026e8b1cda6dafe005546a3b66b5e7744d7ca5b015e6c3ef23",
}


def test_inspect_and_audit_output_is_byte_identical_to_golden(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, _ = run_cli("rpm", "demo", "--seed", "11", "--state-dir", ".")
    assert code == 0
    digests = {}
    for argv in DEMO_SEED_11_READ_SHA256:
        code, out, _ = run_cli(*argv)
        assert code == 0
        digests[argv] = hashlib.sha256(out.encode()).hexdigest()
    assert digests == DEMO_SEED_11_READ_SHA256
