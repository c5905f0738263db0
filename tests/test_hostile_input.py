"""Seeded hostile-input harness for the files the CLI reads.

Each case mutates a valid roster or rules file once, with stdlib random
under a fixed seed: a type swap, a duplicated entry, a numeric extreme, a
lone surrogate or deep nesting, at the top level, in one entry or in one
field. The CLI runs in-process on the result and must exit 0, 1 or 2,
raise nothing and print at most one `error:` line. Crafted ledgers and
EHR logs add the grant-id and deep-nesting cases for those files, and
ledgers whose bodies hold values that are equal but encode differently.
Every numeric parameter of the library refuses each hostile value of its
kind with its module's error. DAG text files, and the --config files and RPMDAG_* values of the
commands that read them, are mutated at the byte level too, and so are
the --config files and RPMDAG_* values of ledger inspect, ehr audit, ehr
verify and acl check over saved state, and of acl grant and acl revoke,
which must leave a saved acl ledger's bytes as they were when refused.
Saved demo state is respelt: a payload chunk, a block line or an ehr.log
header rewritten to decode to the same values, which the loaders and the
commands that read the file must refuse, naming the line or offset.
"""

from __future__ import annotations

import base64
import contextlib
import copy
import json
import math
import random
import re

import pytest

from rpmdag.acl import AccessController
from rpmdag.dag import Block
from rpmdag.ehr import LOG_NAME, EhrStore
from rpmdag.errors import FormatError, InvalidConfig, InvalidParameter, InvalidProfile
from rpmdag.fixtures import reference_k3_text
from rpmdag.ghostdag import GhostdagParams, k_for_network
from rpmdag.hashing import canonical_json
from rpmdag.ledger import PRIVATE, PUBLIC, Ledger, Transaction, TxKind, VitalKind
from rpmdag.netsim import SimConfig, run, trace_lines
from rpmdag.pipeline import (DeviceProfile, ThresholdRule, VitalReading, aggregate, run_demo,
                             simulate_device)

from helpers import run_cli

CASES = 200
DEPTHS = (10, 500, 900, 990, 1000, 3000, 100_000)
# stands in for deep nesting, which json.dumps cannot write, until the text
# is built
DEEP = "\x00deep\x00"
HOSTILE = (
    None, True, False, 0, -1, 1.5, "", "x", [], {}, [[]],
    2**63, 10**400, -(10**400), 1e308, -1e308, 5e-324,
    float("nan"), float("inf"), float("-inf"),
    "\ud800", "p-01\udfff", DEEP,
)
EXTREMES = (2**63, -(2**63), 10**400, -(10**400), 1e308, -1e308, 5e-324, -0.0,
            float("nan"), float("inf"), float("-inf"))

ROSTER = [
    {"entity_id": "p-01", "role": "patient", "credential": "pw-p"},
    {"entity_id": "dr-01", "role": "healthcare_provider", "credential": "pw-d"},
]
RULES = [
    {"rule_id": "r-1", "patient": "p-01", "vital": "heart_rate",
     "min": 70.0, "max": 80.0, "severity": "urgent"},
    {"rule_id": "r-2", "patient": "p-01", "vital": "glucose",
     "min": 100.0, "max": 110.0, "severity": "advisory"},
]


def mutate(rng: random.Random, base: list) -> str:
    """The JSON text of base after one seeded mutation."""
    doc = copy.deepcopy(base)
    kind = rng.choice(("swap", "duplicate", "extreme", "surrogate", "deep"))
    entry = rng.choice(doc)
    field = rng.choice(sorted(entry))
    if kind == "duplicate":
        doc.append(copy.deepcopy(entry))
    elif kind == "swap":
        value = rng.choice(HOSTILE)
        where = rng.randrange(3)
        if where == 0:
            doc = value
        elif where == 1:
            doc[doc.index(entry)] = value
        else:
            entry[field] = value
    elif kind == "extreme":
        entry[field] = rng.choice(EXTREMES)
    elif kind == "surrogate":
        entry[field] = rng.choice(("\ud800", "\udc00", f"{entry[field]}\udbff"))
    else:
        if rng.random() < 0.3:
            doc = DEEP
        else:
            entry[field] = DEEP
    depth = rng.choice(DEPTHS)
    return json.dumps(doc).replace(json.dumps(DEEP), "[" * depth + "]" * depth)


def assert_clean_exit(argv, case, env=None):
    try:
        code, out, err = run_cli(*argv, env=env)
    except BaseException as exc:  # a traceback on the command line
        pytest.fail(f"{case}: {type(exc).__name__}: {str(exc)[:200]}")
    assert code in (0, 1, 2), case
    assert "Traceback" not in err, case
    assert sum(line.startswith("error:") for line in err.splitlines()) <= 1, (case, err)
    return code, out, err


def test_mutated_rosters(tmp_path):
    rng = random.Random(8101)
    roster = tmp_path / "roster.json"
    for i in range(CASES):
        text = mutate(rng, ROSTER)
        roster.write_text(text)
        ledger = tmp_path / f"{i}.ledger"
        case = (i, text[:120])
        common = ("--ledger", str(ledger), "--roster", str(roster))
        assert_clean_exit(("acl", "check", *common, "--entity", "dr-01",
                           "--patient", "p-01", "--scope", "ehr_read"), case)
        code, _, _ = assert_clean_exit(("acl", "grant", *common, "--grantor", "p-01",
                                        "--grantee", "dr-01", "--scope", "ehr_read"), case)
        # a refused grant writes no ledger
        assert ledger.exists() == (code == 0), case


def test_mutated_rules(tmp_path):
    rng = random.Random(8102)
    rules = tmp_path / "rules.json"
    for i in range(CASES):
        text = mutate(rng, RULES)
        rules.write_text(text)
        assert_clean_exit(("rpm", "demo", "--seed", "3", "--patients", "1",
                           "--readings-per-device", "4", "--duration", "10",
                           "--anomaly-probability", "0.5", "--rules", str(rules)),
                          (i, text[:120]))


def _acl_ledger(grant_ids) -> Ledger:
    """A saved acl ledger whose access changes grant under these ids."""
    author = AccessController.author
    ledger = Ledger(PRIVATE, 3, {author, "acl-sealer"})
    for gid in grant_ids:
        body = {"action": "grant", "grant_id": gid, "grantor": "p-01",
                "grantee": "dr-01", "scope": "ehr_read", "at": 0.0}
        ledger.submit(Transaction(TxKind.ACCESS_CHANGE, body, 0.0, author), author)
    # at 0.0, so that an `acl grant` at the default --at 0 seals no block
    # older than its parent
    ledger.seal_block("acl-sealer", 0.0)
    return ledger


@pytest.mark.parametrize("grant_id", [
    "grant-x", "grant-", "grant-1-2", "grant-٣", "grant- 7", "grant-+7",
    "grant-" + "1" * 19, "grant-" + "9" * 5000, "grant-0007",
])
def test_ledger_grant_ids(tmp_path, grant_id):
    path = tmp_path / "acl.ledger"
    _acl_ledger([grant_id]).save(path)
    roster = tmp_path / "roster.json"
    roster.write_text(json.dumps(ROSTER))
    common = ("--ledger", str(path), "--roster", str(roster))
    code, out, _ = assert_clean_exit(("acl", "check", *common, "--entity", "dr-01",
                                      "--patient", "p-01", "--scope", "ehr_read"), grant_id)
    assert (code, out) == (0, "allowed\n")
    code, out, _ = assert_clean_exit(("acl", "grant", *common, "--grantor", "p-01",
                                      "--grantee", "dr-01", "--scope", "ehr_read"), grant_id)
    assert code == 0
    assert out == ("grant-0008\n" if grant_id == "grant-0007" else "grant-0001\n")


def _deep_wire(depth: int) -> str:
    """A transaction record whose anchor body nests depth lists deep."""
    wire = Transaction(TxKind.EHR_ANCHOR, {"record_id": "r", "content_hash": "h"}, 0.0, "svc")
    text = json.dumps(wire.to_wire())
    return text.replace('"r"', "[" * depth + "]" * depth, 1)


@pytest.mark.parametrize("depth", DEPTHS)
@pytest.mark.parametrize("where", ["chunk", "body"])
def test_deeply_nested_ledger_payload(tmp_path, depth, where):
    ledger = _acl_ledger(["grant-0001"])
    text = ledger.save_text()
    chunk = text.splitlines()[-1].split(" | ")[1]
    nested = "[" * depth + "]" * depth if where == "chunk" else _deep_wire(depth)
    path = tmp_path / "deep.ledger"
    path.write_text(text.replace(chunk, base64.b64encode(nested.encode()).decode()))
    code, _, err = assert_clean_exit(("ledger", "inspect", "--file", str(path)), depth)
    assert code == 1 and err.startswith("error: line 3: "), err


@pytest.mark.parametrize("depth", DEPTHS)
def test_deeply_nested_ehr_log_header(tmp_path, depth):
    ledger = tmp_path / "private.ledger"
    _acl_ledger([]).save(ledger)
    (tmp_path / LOG_NAME).write_bytes(b"[" * depth + b"]" * depth + b"\nx\n")
    code, _, err = assert_clean_exit(
        ("ehr", "audit", "--store", str(tmp_path), "--ledger", str(ledger)), depth)
    assert code == 1 and "corrupt record header at offset 0" in err, err


def test_ledger_bodies_nested_near_the_recursion_limit(tmp_path):
    # a body the parser decodes and hashes may still be too deep to encode
    # again one frame further down, where inspect prints it
    crafted = 0
    for depth in range(900, 1000):
        try:
            body = {"x": json.loads("[" * depth + "]" * depth)}
            ledger = Ledger(PRIVATE, 3, {"svc"})
            ledger.submit(Transaction(TxKind.RULE_EVALUATION, body, 0.0, "svc"), "svc")
            ledger.seal_block("svc", 1.0)
            path = tmp_path / f"{depth}.ledger"
            ledger.save(path)
        except RecursionError:
            continue
        crafted += 1
        assert_clean_exit(("ledger", "inspect", "--file", str(path)), depth)
    assert crafted > 50


ALERT = {"patient": "p-01", "rule_id": "r-1", "ehr_record_hash": "ab" * 32,
         "occurred_at": 1.0, "severity": "urgent"}
GRANT = {"action": "grant", "grant_id": "grant-0001", "grantor": "p-01",
         "grantee": "dr-01", "scope": "ehr_read", "at": 0.0}
# (case id, ledger visibility, kind, the (author, body) of each transaction in
# one block, and None when the file loads and saves again byte-identically,
# else the message load refuses it with). Values that are equal but encode
# differently sit in the same field of different transactions, so a load that
# shared them by value would change a transaction and fail its id.
EQUAL_BUT_DIFFERENT = [
    ("signed-zero", PRIVATE, TxKind.RULE_EVALUATION,
     [("svc", {"patient": 0.0, "vital": -0.0, "at": 0.0}),
      ("svc", {"patient": -0.0, "vital": 0.0, "at": -0.0})], None),
    ("one-true", PRIVATE, TxKind.RULE_EVALUATION,
     [(1, {"patient": 1, "verdict": True}), (1.0, {"patient": 1.0, "verdict": 1}),
      (True, {"patient": True, "verdict": 1.0})], None),
    ("null-list-dict", PRIVATE, TxKind.RULE_EVALUATION,
     [("svc", {"patient": None, "vital": ["p-01"], "rule_id": {"patient": "p-01"}}),
      ("svc", {"patient": "p-01", "vital": [], "rule_id": {}}),
      ("svc", {"patient": [None], "vital": {"vital": [0.0, -0.0]}, "rule_id": None})], None),
    ("hex-length", PRIVATE, TxKind.RULE_EVALUATION,
     [("svc", {"patient": "z" * 64, "ehr_record_hash": "z" * 64}),
      ("svc", {"patient": "z" * 64, "ehr_record_hash": "Z" * 64})], None),
    ("surrogate", PRIVATE, TxKind.RULE_EVALUATION,
     [("\ud800", {"patient": "\ud800", "\udfff": "p\udfff"}),
      ("\ud800", {"patient": "\ud800", "\udfff": "p\udfff"})], None),
    ("alert-signed-zero", PUBLIC, TxKind.ALERT_EVENT,
     [("svc", {**ALERT, "occurred_at": 0.0}), ("svc", {**ALERT, "occurred_at": -0.0})], None),
    ("alert-one-true", PUBLIC, TxKind.ALERT_EVENT,
     [("svc", {**ALERT, "occurred_at": 1}), ("svc", {**ALERT, "occurred_at": 1.0}),
      ("svc", {**ALERT, "occurred_at": True})],
     "line 3: alert field 'occurred_at' has the wrong shape"),
    ("alert-null", PUBLIC, TxKind.ALERT_EVENT,
     [("svc", ALERT), ("svc", {**ALERT, "patient": None})],
     "line 3: alert field 'patient' has the wrong shape"),
    ("alert-hex-length", PUBLIC, TxKind.ALERT_EVENT,
     [("svc", ALERT), ("svc", {**ALERT, "ehr_record_hash": "z" * 64})],
     "line 3: ehr_record_hash must be a 64-char hex digest"),
    ("alert-surrogate", PUBLIC, TxKind.ALERT_EVENT,
     [("svc", ALERT), ("svc", {**ALERT, "patient": "p-01\udfff"})],
     "line 3: alert field 'patient' must be an opaque token"),
    ("grant-signed-zero", PRIVATE, TxKind.ACCESS_CHANGE,
     [("svc", GRANT), ("svc", {**GRANT, "at": -0.0}), ("svc", {**GRANT, "grantor": "g" * 64})],
     None),
    ("grant-one-true", PRIVATE, TxKind.ACCESS_CHANGE,
     [("svc", {**GRANT, "at": 1}), ("svc", {**GRANT, "at": 1.0}), ("svc", {**GRANT, "at": True})],
     "line 3: access_change field 'at' must be a number"),
    ("grant-list", PRIVATE, TxKind.ACCESS_CHANGE,
     [("svc", GRANT), ("svc", {**GRANT, "grantee": ["dr-01"]})],
     "line 3: access_change field 'grantee' must be a string"),
]


@pytest.mark.parametrize("case, visibility, kind, txs, refused",
                         EQUAL_BUT_DIFFERENT, ids=[c[0] for c in EQUAL_BUT_DIFFERENT])
def test_ledger_bodies_of_equal_values_that_encode_differently(tmp_path, case, visibility,
                                                                kind, txs, refused):
    ledger = Ledger(visibility, 3, {"svc"})
    payload = tuple(Transaction(kind, body, 0.0, author) for author, body in txs)
    # dag.add, so that submit's checks do not see the transactions
    ledger.dag.add(Block.create([ledger.dag.genesis], payload, 1.0, "svc"))
    path = tmp_path / f"{case}.ledger"
    ledger.save(path)
    if refused is None:
        assert Ledger.load(path).save_text().encode() == path.read_bytes()
    else:
        with pytest.raises(FormatError) as info:
            Ledger.load(path)
        assert str(info.value) == refused
    code, _, err = assert_clean_exit(("ledger", "inspect", "--file", str(path)), case)
    assert (code, err) == ((0, "") if refused is None else (1, f"error: {refused}\n"))



# DAG text and the options of the commands that read it: dag import, dag
# export --out, color and oracle, on the reference DAG (11 blocks, well under
# the oracle's cap of 20) after one seeded mutation of the DAG file, or of
# the --config file and RPMDAG_* values that set the commands' options.

SPLICES = (b"\xff", b"\xc3", b"\xed\xa0\x80", b"\xef\xbb\xbf", b"\x00", b"\r", b"\x0b",
           "\x85".encode(), "\u2028".encode(), b"\n", b" ", b"#", b":", b",", b"=")
DAG_TOKENS = ("", "A" * 5000, "\u0663", "A.B", "-", "9" * 5000, "a:b", "\U0001f600", "#")
TOKEN = re.compile(r"[A-Za-z0-9_.-]+")


def mutate_bytes(rng: random.Random, text: str) -> bytes:
    """The UTF-8 of text after one seeded mutation: a flipped bit, a
    truncation, a duplicated line, bytes spliced in (invalid UTF-8, a NUL, a
    line break or a separator) or a token swapped for an extreme one."""
    data = text.encode()
    kind = rng.choice(("flip", "truncate", "duplicate", "splice", "token"))
    i = rng.randrange(len(data))
    if kind == "flip":
        return data[:i] + bytes([data[i] ^ (1 << rng.randrange(8))]) + data[i + 1:]
    if kind == "truncate":
        return data[:i]
    if kind == "duplicate":
        lines = data.splitlines(keepends=True)
        n = rng.randrange(len(lines))
        return b"".join(lines[:n + 1] + lines[n:])
    if kind == "splice":
        return data[:i] + rng.choice(SPLICES) + data[i:]
    token = rng.choice(list(TOKEN.finditer(text)))
    return (text[:token.start()] + rng.choice(DAG_TOKENS) + text[token.end():]).encode()


def dag_commands(dag: str, out: str):
    """(command words, the options it needs) for each command that reads a
    DAG file."""
    return (
        (("dag", "import"), {"file": dag}),
        (("dag", "export"), {"file": dag, "out": out}),
        (("color",), {"dag": dag, "k": "3"}),
        (("oracle",), {"dag": dag, "k": "3"}),
    )


def assert_refusal_writes_nothing(tmp_path, argv, case, env=None) -> int:
    """assert_clean_exit, and a refused command leaves tmp_path as it was,
    so a refused export writes no --out file; returns the exit code."""
    before = sorted(tmp_path.rglob("*"))
    code, _, _ = assert_clean_exit(argv, case, env)
    if code != 0:
        assert sorted(tmp_path.rglob("*")) == before, case
    (tmp_path / "out.dag").unlink(missing_ok=True)
    return code


def test_mutated_dag_text(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # so that no relative path leaves it
    rng = random.Random(8103)
    dag = tmp_path / "mutated.dag"
    for i in range(CASES):
        data = mutate_bytes(rng, reference_k3_text())
        dag.write_bytes(data)
        for words, options in dag_commands(str(dag), str(tmp_path / "out.dag")):
            flags = [part for name, value in options.items() for part in (f"--{name}", value)]
            assert_refusal_writes_nothing(tmp_path, (*words, *flags), (i, words, data[:120]))


# values for one option: numeric extremes, respellings of 3, paths to
# nothing, to a directory and to a file that is not a DAG, and a NUL byte,
# which no path can hold
OPTION_VALUES = (
    "", " ", "-1", "0", "10" * 400, "9" * 5000, "1e308", "nan", "inf", "3.0", "0x3",
    "\u0663", "3_0", "+3", " 3 ", "missing.dag", ".", "config.txt", "nodir/out.dag",
    "x\x00y", "\U0001f600",
)


def mutate_options(rng: random.Random, options: dict[str, str],
                   values: tuple = OPTION_VALUES) -> tuple[bytes, dict[str, str]]:
    """A config file and RPMDAG_* values that set options after one seeded
    mutation: a hostile value from values, a duplicated key, an unknown
    key, a line that is not key=value, or a byte-level mutation of the
    file."""
    options = dict(options)
    lines = []
    kind = rng.choice(("value", "duplicate", "unknown", "syntax", "bytes"))
    name = rng.choice(sorted(options))
    if kind == "value":
        options[name] = rng.choice(values)
    elif kind == "duplicate":
        lines.append(f"{name}={rng.choice(values)}")
    elif kind == "unknown":
        lines.append(rng.choice(("colour=blue", "seed=1", "K=3", "=3", "k ey=3")))
    elif kind == "syntax":
        lines.append(rng.choice(("k", "k==3", "[dag]", "k: 3")))
    lines.extend(f"{key}={value}" for key, value in options.items())
    rng.shuffle(lines)
    text = "\n".join(lines) + "\n"
    config = mutate_bytes(rng, text) if kind == "bytes" else text.encode()
    # each value is in the config file, and some are in the environment as
    # well, which wins; it cannot hold a NUL, and "\udcff" is how Python
    # reads a byte of it that is not UTF-8
    env = {}
    for key, value in options.items():
        if "\x00" not in value and rng.random() < 0.4:
            env[f"RPMDAG_{key.upper()}"] = value if rng.random() < 0.8 else "\udcff"
    return config, env


def assert_mutated_options_exit_cleanly(tmp_path, rng, words, options, case,
                                        values=OPTION_VALUES) -> int:
    """Run words with options set by a seeded mutation of tmp_path/config.txt
    and RPMDAG_* values, the file given by --config or by RPMDAG_CONFIG;
    returns the exit code."""
    data, env = mutate_options(rng, options, values)
    config = tmp_path / "config.txt"
    config.write_bytes(data)
    if rng.random() < 0.5:
        argv = (*words, "--config", str(config))
    else:
        argv, env = words, {**env, "RPMDAG_CONFIG": str(config)}
    return assert_refusal_writes_nothing(tmp_path, argv, (case, words, data[:120], env), env)


def test_mutated_config_and_environment(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rng = random.Random(8104)
    dag = tmp_path / "reference.dag"
    dag.write_text(reference_k3_text())
    for i in range(CASES):
        words, options = rng.choice(dag_commands(str(dag), "out.dag"))
        assert_mutated_options_exit_cleanly(tmp_path, rng, words, options, i)


# The read commands over saved state: ledger inspect, ehr audit, ehr verify
# and acl check, on a small saved demo and an acl ledger holding one grant,
# after one seeded mutation of their --config file and RPMDAG_* values. rpm
# demo is left out, so that a mutated size never starts a run. ehr verify's
# --record is the saved demo's first record, which SAVED_RECORD stands for.

SAVED_RECORD = "\x00record\x00"
READ_COMMANDS = (
    (("ledger", "inspect"), {"file": "state/private.ledger"}),
    (("ehr", "audit"), {"store": "state", "ledger": "state/private.ledger"}),
    (("acl", "check"), {"ledger": "acl.ledger", "roster": "roster.json", "at": "0.0", "k": "3",
                        "entity": "dr-01", "patient": "p-01", "scope": "ehr_read"}),
    (("ehr", "verify"), {"record": SAVED_RECORD, "store": "state",
                         "ledger": "state/private.ledger"}),
)
# besides OPTION_VALUES: each saved file, the state directory and the other
# names and scopes, each in a place that expects another
STATE_VALUES = OPTION_VALUES + (
    "state", "state/ehr.log", "state/private.ledger", "state/public.ledger", "acl.ledger",
    "roster.json", "p-01", "dr-01", "alerts_subscribe", "-0.0", "1e400",
)


@pytest.mark.parametrize("words, options", READ_COMMANDS,
                         ids=[" ".join(words) for words, _ in READ_COMMANDS])
def test_mutated_options_of_the_read_commands(tmp_path, monkeypatch, words, options):
    monkeypatch.chdir(tmp_path)
    code, _, _ = run_cli("rpm", "demo", "--seed", "1", "--patients", "2",
                         "--readings-per-device", "4", "--duration", "10", "--state-dir", "state")
    assert code == 0
    (tmp_path / "roster.json").write_text(json.dumps(ROSTER))
    code, _, _ = run_cli("acl", "grant", "--ledger", "acl.ledger", "--roster", "roster.json",
                         "--grantor", "p-01", "--grantee", "dr-01", "--scope", "ehr_read")
    assert code == 0
    rng = random.Random(8105 + READ_COMMANDS.index((words, options)))
    store = EhrStore("state")
    options = {name: store.record_ids()[0] if value == SAVED_RECORD else value
               for name, value in options.items()}
    store.close()
    flags = [part for name, value in options.items() for part in (f"--{name}", value)]
    assert assert_clean_exit((*words, *flags), words)[0] == 0
    for i in range(CASES):
        assert_mutated_options_exit_cleanly(tmp_path, rng, words, options, i, STATE_VALUES)


# The commands that write an acl ledger: acl grant and acl revoke, on a
# saved acl ledger holding one grant, after one seeded mutation of their
# --config file and RPMDAG_* values. Each case starts from the same saved
# ledger and roster, and no other file, and a refused case leaves the
# ledger's bytes as they were.

ACL_WRITE_COMMANDS = (
    (("acl", "grant"), {"ledger": "acl.ledger", "roster": "roster.json", "at": "1.0", "k": "3",
                        "grantor": "p-01", "grantee": "dr-01", "scope": "ehr_read"}),
    (("acl", "revoke"), {"ledger": "acl.ledger", "roster": "roster.json", "at": "1.0", "k": "3",
                         "grant-id": "grant-0001"}),
)
# besides STATE_VALUES: grant ids and roles, each in a place that expects
# another
ACL_VALUES = STATE_VALUES + ("grant-0001", "grant-0002", "grant-x", "grant-", "patient",
                             "healthcare_provider", "new.ledger")


@pytest.mark.parametrize("words, options", ACL_WRITE_COMMANDS,
                         ids=[" ".join(words) for words, _ in ACL_WRITE_COMMANDS])
def test_mutated_options_of_the_acl_writes(tmp_path, monkeypatch, words, options):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "roster.json").write_text(json.dumps(ROSTER))
    code, _, _ = run_cli("acl", "grant", "--ledger", "acl.ledger", "--roster", "roster.json",
                         "--grantor", "p-01", "--grantee", "dr-01", "--scope", "ehr_read")
    assert code == 0
    saved = (tmp_path / "acl.ledger").read_bytes()
    rng = random.Random(8109 + ACL_WRITE_COMMANDS.index((words, options)))
    flags = [part for name, value in options.items() for part in (f"--{name}", value)]
    assert assert_clean_exit((*words, *flags), words)[0] == 0
    for i in range(CASES):
        for path in tmp_path.iterdir():  # a ledger an earlier case wrote too
            if path.name != "roster.json":
                path.unlink()
        (tmp_path / "acl.ledger").write_bytes(saved)
        code = assert_mutated_options_exit_cleanly(tmp_path, rng, words, options, i, ACL_VALUES)
        if code != 0:  # its bytes, not only its name, as the listing checks
            assert (tmp_path / "acl.ledger").read_bytes() == saved, i


def test_a_record_id_or_store_cannot_forge_a_second_error_line(tmp_path, monkeypatch):
    # only the environment can hold a newline in a value; the unknown id or
    # missing store is quoted in the one error line
    monkeypatch.chdir(tmp_path)
    code, _, _ = run_cli("rpm", "demo", "--seed", "1", "--patients", "2",
                         "--readings-per-device", "4", "--duration", "10", "--state-dir", "state")
    assert code == 0
    for env, err in (
        ({"RPMDAG_RECORD": "a\nerror: b", "RPMDAG_STORE": "state"},
         "error: no record 'a\\nerror: b'\n"),
        ({"RPMDAG_RECORD": "a", "RPMDAG_STORE": "a\nerror: b"},
         "error: no EHR log at 'a\\nerror: b/ehr.log'\n"),
    ):
        result = assert_clean_exit(("ehr", "verify", "--ledger", "state/private.ledger"),
                                   env, env)
        assert result == (1, "", err)


def test_a_file_name_cannot_forge_a_second_error_line(tmp_path, monkeypatch):
    # the path is quoted in the one error line, as the store path is
    monkeypatch.chdir(tmp_path)
    name = "e\nerror: forged.dag"
    for content, err in ((b"# a comment only\n", "declares no blocks"),
                         (b"\xff\n", "not UTF-8 text")):
        (tmp_path / name).write_bytes(content)
        code, out, got = assert_clean_exit(("dag", "import", "--file", name), content)
        assert (code, out) == (1, ""), got
        assert got.startswith(f"error: {name!r}: {err}") and got.count("\n") == 1, got


def _sim_config(**fields):
    return SimConfig(**{"nodes": 2, "rate_lambda": 1.0, "delay_d": 1.0, "duration": 10.0,
                        "k": 3, **fields})


def _reading(**fields):
    return VitalReading(**{"patient": "p-01", "vital": VitalKind.HEART_RATE, "value": 70.0,
                           "unit": "bpm", "measured_at": 0.0, "device": "d", **fields})


def _rule(**fields):
    return ThresholdRule(**{"rule_id": "r-1", "patient": "p-01", "vital": VitalKind.HEART_RATE,
                            "min": 60.0, "max": 100.0, "severity": "urgent", **fields})


def _profile(**fields):
    return DeviceProfile(**{"mean": 70.0, "stddev": 5.0, "anomaly_probability": 0.1,
                            "low": 60.0, "high": 100.0, **fields})


def _simulate(**fields):
    return simulate_device(**{"patient": "p-01", "vital": VitalKind.HEART_RATE,
                              "profile": _profile(), "seed": 1, "count": 3, "interval": 1.0,
                              **fields})


def _demo(**fields):
    return run_demo(**{"seed": 1, "patients": 1, "readings_per_device": 4, "duration": 10.0,
                       **fields})


def _k_for_network(**fields):
    return k_for_network(**{"delay": 1.0, "rate": 1.0, "delta": 0.01, **fields})


def _access_change(at):
    """Submit an access change that grants at `at`, decoded from its wire
    record as a load decodes it; a NaN or an infinity is refused there, as
    no transaction encodes it."""
    body = {**GRANT, "at": at}
    wire = {"kind": "access_change", "body": body, "submitted_at": 0.0, "author": "svc"}
    with contextlib.suppress(ValueError):  # raised by the encoder, as from_wire raises it
        wire["id"] = Transaction(TxKind.ACCESS_CHANGE, body, 0.0, "svc").id.hex()
    Ledger(PRIVATE, 3, {"svc"}).submit(Transaction.from_wire(wire), "svc")


def _ehr_content_len(tmp_path, value):
    store = EhrStore(str(tmp_path))
    store.store(b"x", "p-01")
    store.close()
    log = tmp_path / LOG_NAME
    # json.dumps cannot write an int of more than 4300 digits
    text = "-1" + "0" * 5000 if value == -(10**5000) else json.dumps(value)
    log.write_bytes(log.read_bytes().replace(b'"content_len": 1', f'"content_len": {text}'.encode()))
    EhrStore(str(tmp_path)).close()


SEED = "seed"

# parameter: (a call that passes it the value, the error, the least count,
# None for a time, amount, rate or bound, or SEED for an int of any sign)
NUMERIC_PARAMETERS = {
    "SimConfig.seed": (lambda v, _: _sim_config(seed=v), InvalidConfig, SEED),
    "simulate_device.seed": (lambda v, _: _simulate(seed=v), InvalidParameter, SEED),
    "run_demo.seed": (lambda v, _: _demo(seed=v), InvalidParameter, SEED),
    "SimConfig.nodes": (lambda v, _: _sim_config(nodes=v), InvalidConfig, 1),
    "SimConfig.k": (lambda v, _: _sim_config(k=v), InvalidConfig, 0),
    "SimConfig.txs_per_block": (lambda v, _: _sim_config(txs_per_block=v), InvalidConfig, 0),
    "SimConfig.rate_lambda": (lambda v, _: _sim_config(rate_lambda=v), InvalidConfig, None),
    "SimConfig.delay_d": (lambda v, _: _sim_config(delay_d=v), InvalidConfig, None),
    "SimConfig.duration": (lambda v, _: _sim_config(duration=v), InvalidConfig, None),
    "GhostdagParams.k": (lambda v, _: GhostdagParams(v), InvalidParameter, 0),
    "k_for_network.delay": (lambda v, _: _k_for_network(delay=v), InvalidParameter, None),
    "k_for_network.rate": (lambda v, _: _k_for_network(rate=v), InvalidParameter, None),
    "k_for_network.delta": (lambda v, _: _k_for_network(delta=v), InvalidParameter, None),
    "access_change.at": (lambda v, _: _access_change(v), FormatError, None),
    "Ledger.max_block_txs": (lambda v, _: Ledger(PRIVATE, 3, {"svc"}, max_block_txs=v),
                             FormatError, 1),
    "EhrStore.content_len": (lambda v, tmp: _ehr_content_len(tmp, v), FormatError, 0),
    "VitalReading.value": (lambda v, _: _reading(value=v), InvalidParameter, None),
    "VitalReading.measured_at": (lambda v, _: _reading(measured_at=v), InvalidParameter, None),
    "ThresholdRule.min": (lambda v, _: _rule(min=v), InvalidParameter, None),
    "ThresholdRule.max": (lambda v, _: _rule(max=v), InvalidParameter, None),
    "DeviceProfile.mean": (lambda v, _: _profile(mean=v), InvalidProfile, None),
    "DeviceProfile.stddev": (lambda v, _: _profile(stddev=v), InvalidProfile, None),
    "DeviceProfile.anomaly_probability": (lambda v, _: _profile(anomaly_probability=v),
                                          InvalidProfile, None),
    "DeviceProfile.low": (lambda v, _: _profile(low=v), InvalidProfile, None),
    "DeviceProfile.high": (lambda v, _: _profile(high=v), InvalidProfile, None),
    "simulate_device.count": (lambda v, _: _simulate(count=v), InvalidParameter, 0),
    "simulate_device.interval": (lambda v, _: _simulate(interval=v), InvalidParameter, None),
    "aggregate.window": (lambda v, _: aggregate([], v), InvalidParameter, None),
    "run_demo.patients": (lambda v, _: _demo(patients=v), InvalidParameter, 1),
    "run_demo.readings_per_device": (lambda v, _: _demo(readings_per_device=v),
                                     InvalidParameter, 1),
    "run_demo.duration": (lambda v, _: _demo(duration=v), InvalidParameter, None),
    "run_demo.anomaly_probability": (lambda v, _: _demo(anomaly_probability=v),
                                     InvalidProfile, None),
    "run_demo.k": (lambda v, _: _demo(k=v), InvalidParameter, 0),
}


@pytest.mark.parametrize("parameter", sorted(NUMERIC_PARAMETERS))
def test_every_numeric_parameter_refuses_hostile_values(tmp_path, parameter):
    # every hostile value of the parameter's kind, not a seeded sample of
    # them; no valid count is huge, as a run that large would not end
    call, error, least = NUMERIC_PARAMETERS[parameter]
    if least is None:
        values = (True, None, "1", math.nan, math.inf, -math.inf, 10**400, -(10**400))
    elif least is SEED:
        # an unchecked None seeds from the OS, so two runs would differ
        values = (True, False, None, "1", 1.0, 2.5, math.nan, -math.inf)
    else:
        values = (True, None, "1", 2.5, least - 1, -(10**5000))
    for i, value in enumerate(values):
        with pytest.raises(error) as refused:
            call(value, tmp_path / str(i))
        assert "\n" not in str(refused.value), (parameter, i)


def _sim_lines(seed):
    return "".join(trace_lines(run(_sim_config(seed=seed))[1]))


def test_a_seed_of_any_sign_fixes_the_run():
    for seed in (-7, 0, 2**70, -(10**400), -(10**5000)):
        assert _simulate(seed=seed) == _simulate(seed=seed)
        assert _sim_config(seed=seed).seed == seed
    assert _sim_lines(-(10**5000)) == _sim_lines(-(10**5000))
    assert [r.value for r in _demo(seed=-3).readings] == [r.value for r in _demo(seed=-3).readings]
    # random.Random seeds an int from its absolute value, yet -n gives a run of its own
    for n in (1, 5, 7, 128, 2**70, 10**400):
        assert _simulate(seed=-n) != _simulate(seed=n), n
        assert _sim_lines(-n) != _sim_lines(n), n


# Respellings of saved state. Each case rewrites one record of a seed-11
# demo's saved state so that it decodes to the same values: a payload chunk
# (separators, key order, a number's spelling or an ASCII character as a
# \u escape), a block line (its parents' order or its time's spelling, the
# genesis line's too) or an ehr.log header (the same four as a chunk). The
# loaders take one spelling of each record, the one its writer writes, so
# each case is refused with FormatError naming its line or offset, and the
# command that reads the file exits 1 with that one error line.

RESPELT = "\x00respelt\x00"  # stands in for a respelt value until the text is built
SEPARATORS = ((", ", ": "), (",", ":"), (", ", ":"), (",", ": "), (" ,", ":"), (",", " :"),
              ("\t,", ":\t"))
ESCAPABLE = re.compile("[A-Za-z0-9_.-]")  # ASCII a writer never escapes


def _floats(value) -> list[float]:
    """Every float in a decoded JSON value."""
    if type(value) is float:
        return [value]
    items = value.values() if isinstance(value, dict) else value if isinstance(value, list) else ()
    return [x for item in items for x in _floats(item)]


def _strings(value) -> list[str]:
    """Every str, key or value, in a decoded JSON value."""
    if isinstance(value, str):
        return [value]
    if isinstance(value, dict):
        return [*value, *_strings(list(value.values()))]
    return [s for item in value for s in _strings(item)] if isinstance(value, list) else []


def _replaced(value, old, new):
    """value with the first occurrence of the object old, key or value,
    replaced by new, and every dict's keys in sorted order."""
    done = []

    def walk(v):
        if v is old and not done:
            done.append(True)
            return new
        if isinstance(v, dict):
            return {walk(key): walk(v[key]) for key in sorted(v)}
        return [walk(item) for item in v] if isinstance(v, list) else v

    return walk(value)


def _other_spellings(text: str, spellings, read) -> list[str]:
    """The spellings besides text that read() takes as the same float."""
    found = []
    for spelling in spellings:
        try:
            value = read(spelling)
        except ValueError:
            continue
        if (spelling != text and type(value) is float and value.hex() == float(text).hex()
                and spelling not in found):
            found.append(spelling)
    return found


def number_spellings(x: float) -> list[str]:
    """Other spellings of x as a JSON number that decode to x itself:
    10.0 as 10.00, 1e1, 1.00E+1 and the like."""
    text = repr(x)
    mantissa, _, exponent = text.partition("e")
    sign, digits = ("-", mantissa[1:]) if mantissa.startswith("-") else ("", mantissa)
    whole, _, fraction = digits.partition(".")
    power = int(exponent or 0) + len(whole) - 1
    scientific = f"{sign}{whole[0]}.{whole[1:]}{fraction}e{power}"
    short = f"{sign}{whole[0]}.{(whole[1:] + fraction).rstrip('0') or '0'}e{power}"
    return _other_spellings(text, (
        f"{mantissa}0e{exponent}" if exponent else f"{text}0", f"{text}e0", text.upper(),
        scientific, scientific.replace("e", "E+"), short, short.replace(".0e", "e"),
    ), json.loads)


def respell_json(rng: random.Random, value, separators) -> tuple[str, str]:
    """(kind, text): value as JSON, keys sorted and non-ASCII escaped as
    with these separators, but in one seeded respelling of that."""
    kinds = ["separators", "key order"]
    if any(number_spellings(x) for x in _floats(value)):
        kinds.append("number")
    if any(ESCAPABLE.search(s) for s in _strings(value)):
        kinds.append("escape")
    kind = rng.choice(kinds)
    if kind == "separators":
        other = rng.choice([pair for pair in SEPARATORS if pair != separators])
        return kind, json.dumps(value, sort_keys=True, separators=other)
    if kind == "key order":
        def shuffled(v):
            if isinstance(v, dict):
                keys = list(v)
                rng.shuffle(keys)
                return {key: shuffled(v[key]) for key in keys}
            return [shuffled(item) for item in v] if isinstance(v, list) else v
        return kind, json.dumps(shuffled(value), separators=separators)
    if kind == "number":
        old = rng.choice([x for x in _floats(value) if number_spellings(x)])
        spelt = rng.choice(number_spellings(old))
    else:
        old = rng.choice([s for s in _strings(value) if ESCAPABLE.search(s)])
        i = rng.choice([i for i, c in enumerate(old) if ESCAPABLE.fullmatch(c)])
        escape = rng.choice(("\\u{:04x}", "\\u{:04X}")).format(ord(old[i]))
        spelt = json.dumps(old[:i])[:-1] + escape + json.dumps(old[i + 1:])[1:]
    text = json.dumps(_replaced(value, old, RESPELT), separators=separators)
    return kind, text.replace(json.dumps(RESPELT), spelt, 1)


def timestamp_spellings(column: str) -> list[str]:
    """Other spellings of a saved block time that float() reads as it."""
    whole, _, fraction = column.partition(".")
    return _other_spellings(column, (
        *number_spellings(float(column)), f"+{column}", f" {column}", f"{column} ",
        f"0{column}", f"{column}_0", f"{whole}.{fraction}{fraction[-1:]}_0",
    ), float)


@pytest.fixture(scope="module")
def saved_demo(tmp_path_factory):
    """A seed-11 demo's saved state, and merged.ledger beside it: the
    private ledger with two blocks added on the genesis by dag.add and a
    seal on top, so its last block has three parents."""
    state = tmp_path_factory.mktemp("demo")
    code, _, _ = run_cli("rpm", "demo", "--seed", "11", "--patients", "1",
                         "--readings-per-device", "10", "--state-dir", str(state))
    assert code == 0
    merged = Ledger.load(state / "private.ledger")
    for at in (1.0, 2.0):
        merged.dag.add(Block.create([merged.dag.genesis], (), at, "sealer-1"))
    newest = max(block.timestamp for block in merged.dag.blocks.values())
    assert len(merged.seal_block("sealer-1", newest).parents) == 3
    merged.save(state / "merged.ledger")
    return state


LEDGER_NAMES = ("private.ledger", "public.ledger", "merged.ledger")


def respell_chunk(rng: random.Random, files) -> tuple[str, int, str, str]:
    """(ledger name, line index, respelt line, kind) for one payload chunk."""
    name = rng.choice(LEDGER_NAMES)
    lines = files[name]
    n = rng.choice([n for n, line in enumerate(lines) if line.split(" | ")[1:2] not in ([], [""])])
    head, payload, *rest = lines[n].split(" | ")
    chunks = payload.split(",")
    j = rng.randrange(len(chunks))
    raw = base64.b64decode(chunks[j])
    kind, text = respell_json(rng, json.loads(raw), (",", ":"))
    assert canonical_json(json.loads(text)) == raw, (kind, text)
    chunks[j] = base64.b64encode(text.encode()).decode()
    return name, n, " | ".join((head, ",".join(chunks), *rest)), kind


def respell_block_line(rng: random.Random, files) -> tuple[str, int, str, str]:
    """(ledger name, line index, respelt line, kind) for one block line:
    the merged block's parents out of order, or a block's time, the
    genesis's too, in another spelling."""
    if rng.random() < 0.3:
        lines = files["merged.ledger"]
        n = next(n for n, line in enumerate(lines[1:], start=1)
                 if line.split(" | ")[0].count(",") == 2)
        head, rest = lines[n].split(" | ", 1)
        bid, parents = head.split(": ")
        order = parents.split(",")
        while order == sorted(order):
            rng.shuffle(order)
        return "merged.ledger", n, f"{bid}: {','.join(order)} | {rest}", "parent order"
    name = rng.choice(LEDGER_NAMES)
    lines = files[name]
    n = rng.choice([n for n, line in enumerate(lines[1:], start=1) if line])
    head, payload, column, creator = lines[n].split(" | ")
    spelt = rng.choice(timestamp_spellings(column))
    kind = "genesis time" if n == 1 else "time"
    return name, n, " | ".join((head, payload, spelt, creator)), kind


@pytest.mark.parametrize("respell, kinds", [
    (respell_chunk, {"separators", "key order", "number", "escape"}),
    (respell_block_line, {"parent order", "time", "genesis time"}),
], ids=["chunk", "block line"])
def test_a_respelt_ledger_line_is_refused_with_its_line(tmp_path, saved_demo, respell, kinds):
    rng = random.Random(8113 + (respell is respell_block_line))
    files = {name: (saved_demo / name).read_text().split("\n") for name in LEDGER_NAMES}
    seen = set()
    for i in range(CASES):
        name, n, line, kind = respell(rng, files)
        if line == files[name][n]:
            continue  # the same bytes: no respelling
        seen.add(kind)
        path = tmp_path / name
        path.write_text("\n".join([*files[name][:n], line, *files[name][n + 1:]]))
        case = (i, name, n + 1, kind, line[:100])
        with pytest.raises(FormatError) as info:
            Ledger.load(path)
        assert str(info.value).startswith(f"line {n + 1}: "), (case, str(info.value))
        result = assert_clean_exit(("ledger", "inspect", "--file", str(path)), case)
        assert result == (1, "", f"error: {info.value}\n"), case
    assert seen == kinds


def _headers(log: bytes) -> list[tuple[int, bytes]]:
    """(offset, header without its newline) of each record in an ehr.log."""
    found, offset = [], 0
    while offset < len(log):
        end = log.index(b"\n", offset)
        found.append((offset, log[offset:end]))
        offset = end + 1 + json.loads(log[offset:end])["content_len"] + 1
    return found


def test_a_respelt_ehr_log_header_is_refused_at_its_offset(tmp_path, saved_demo):
    rng = random.Random(8115)
    log = (saved_demo / LOG_NAME).read_bytes()
    headers = _headers(log)
    ledger = str(saved_demo / "private.ledger")
    seen = set()
    for i in range(CASES):
        offset, header = rng.choice(headers)
        kind, text = respell_json(rng, json.loads(header), (", ", ": "))
        respelt = text.encode()
        if respelt == header:
            continue
        assert canonical_json(json.loads(respelt)) == canonical_json(json.loads(header))
        seen.add(kind)
        (tmp_path / LOG_NAME).write_bytes(log[:offset] + respelt + log[offset + len(header):])
        case = (i, offset, kind, respelt[:120])
        with pytest.raises(FormatError) as info:
            EhrStore(str(tmp_path))
        assert str(info.value).startswith(f"corrupt record header at offset {offset}: "), case
        result = assert_clean_exit(("ehr", "audit", "--store", str(tmp_path), "--ledger",
                                    ledger), case)
        assert result == (1, "", f"error: {info.value}\n"), case
    assert seen == {"separators", "key order", "number", "escape"}
