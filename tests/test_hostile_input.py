"""Seeded hostile-input harness for the files the CLI reads.

Each case mutates a valid roster or rules file once, with stdlib random
under a fixed seed: a type swap, a duplicated entry, a numeric extreme, a
lone surrogate or deep nesting, at the top level, in one entry or in one
field. The CLI runs in-process on the result and must exit 0, 1 or 2,
raise nothing and print at most one `error:` line. Crafted ledgers and
EHR logs add the grant-id and deep-nesting cases for those files, and
ledgers whose bodies hold values that are equal but encode differently.
DAG text files, and the --config files and RPMDAG_* values of the
commands that read them, are mutated at the byte level too, and so are
the --config files and RPMDAG_* values of ledger inspect, ehr audit, ehr
verify and acl check over saved state.
"""

from __future__ import annotations

import base64
import copy
import json
import random
import re

import pytest

from rpmdag.acl import AccessController
from rpmdag.dag import Block
from rpmdag.ehr import LOG_NAME, EhrStore
from rpmdag.errors import FormatError
from rpmdag.fixtures import reference_k3_text
from rpmdag.ledger import PRIVATE, PUBLIC, Ledger, Transaction, TxKind

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
    ledger.seal_block("acl-sealer", 1.0)
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


def assert_refusal_writes_nothing(tmp_path, argv, case, env=None):
    """assert_clean_exit, and a refused command leaves tmp_path as it was,
    so a refused export writes no --out file."""
    before = sorted(tmp_path.rglob("*"))
    code, _, _ = assert_clean_exit(argv, case, env)
    if code != 0:
        assert sorted(tmp_path.rglob("*")) == before, case
    (tmp_path / "out.dag").unlink(missing_ok=True)


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
                                        values=OPTION_VALUES):
    """Run words with options set by a seeded mutation of tmp_path/config.txt
    and RPMDAG_* values, the file given by --config or by RPMDAG_CONFIG."""
    data, env = mutate_options(rng, options, values)
    config = tmp_path / "config.txt"
    config.write_bytes(data)
    if rng.random() < 0.5:
        argv = (*words, "--config", str(config))
    else:
        argv, env = words, {**env, "RPMDAG_CONFIG": str(config)}
    assert_refusal_writes_nothing(tmp_path, argv, (case, words, data[:120], env), env)


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
