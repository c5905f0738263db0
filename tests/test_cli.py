from __future__ import annotations

import json
import os

import pytest

from rpmdag.fixtures import REFERENCE_K3_BLUE, REFERENCE_K3_RED, reference_k3_text

from helpers import run_cli


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


@pytest.mark.parametrize("old, new", [("k=3", "k=x"), ("max=1000", "max=x"), ("k=3", "k=3 junk")])
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
