"""Command-line entry point.

One binary with verb-noun subcommands covering DAG tooling, coloring,
the network simulator, ledger inspection, the monitoring demo, EHR
audits, and access-control management. Every option resolves with the
precedence flag > RPMDAG_* environment variable > --config file >
built-in default; unknown config keys are rejected by name. Exit codes:
0 success, 1 domain failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
from dataclasses import asdict, dataclass, field

from .acl import AccessController, ManualClock, Role, Scope, rebuild_grants
from .dag import export_dag_dot, export_dag_text, parse_dag_text
from .ehr import INTACT, LOG_NAME, TAMPERED, TORN, EhrStore, audit, verify
from .errors import FormatError, InvalidParameter, RpmdagError, UnknownEntity, UnknownGrant
from .ghostdag import GhostdagParams, ghostdag_run, k_for_network, max_k_cluster
from .hashing import float_time, shown, utf8_text
from .ledger import PRIVATE, SCOPE_NAMES, Ledger, file_digest, inspect_lines
from .netsim import MODE_BLOCKDAG, MODES, SimConfig, compare_modes, run, trace_lines
from .pipeline import load_rules_json, run_demo

ENV_PREFIX = "RPMDAG_"


class UsageError(Exception):
    """Bad invocation: unknown config key, missing seed, bad value."""


@dataclass(frozen=True)
class Opt:
    """One resolvable option: flag > env > config file > default."""

    name: str
    convert: type = str
    default: object = None
    required: bool = False
    choices: tuple = ()
    help: str = ""
    dest_name: str | None = None

    @property
    def dest(self) -> str:
        return self.dest_name or self.name.replace("-", "_")

    @property
    def env_name(self) -> str:
        return ENV_PREFIX + self.name.upper().replace("-", "_")


@dataclass(frozen=True)
class CommandSpec:
    path: str
    help: str
    opts: tuple[Opt, ...]
    handler: object = field(compare=False, default=None)


def _read_text(path: str) -> str:
    try:
        return pathlib.Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path!r}: not UTF-8 text: {exc}") from None


def _read_dag(path: str):
    return parse_dag_text(_read_text(path))


def _emit(text: str, out: str | None):
    sys.stdout.write(text)
    if out:
        pathlib.Path(out).write_text(text)


def _token_of(names: dict[str, bytes]) -> dict[bytes, str]:
    return {bid: tok for tok, bid in names.items()}


# DAG tooling

def cmd_dag_import(args) -> int:
    dag, names = _read_dag(args.file)
    if dag.genesis is None:
        raise FormatError(f"{args.file!r}: declares no blocks")
    genesis = _token_of(names)[dag.genesis]
    print(f"blocks={len(dag.blocks)} tips={len(dag.tips)} genesis={genesis}")
    return 0


def cmd_dag_export(args) -> int:
    """`dag export` and `dag dot`: re-emit the DAG in either format."""
    dag, names = _read_dag(args.file)
    export = export_dag_dot if args.subcommand == "dot" else export_dag_text
    _emit(export(dag, names), args.out)
    return 0


def cmd_color(args) -> int:
    dag, names = _read_dag(args.dag)
    coloring = ghostdag_run(dag, GhostdagParams(args.k)).coloring
    for token in sorted(names):
        bid = names[token]
        color = "blue" if bid in coloring.blue else "red"
        print(f"{token} {color} {coloring.blue_score[bid]}")
    return 0


def cmd_oracle(args) -> int:
    dag, names = _read_dag(args.dag)
    cluster = max_k_cluster(dag, args.k)
    tokens = _token_of(names)
    for token in sorted(tokens[bid] for bid in cluster):
        print(token)
    return 0


# Simulation

def _sim_config(args, **fields) -> SimConfig:
    """The SimConfig of the options that `sim run` and `sim sweep` share."""
    return SimConfig(
        nodes=args.nodes, delay_d=args.delay, duration=args.duration,
        txs_per_block=args.txs_per_block, seed=args.seed, **fields,
    )


def cmd_sim_run(args) -> int:
    k = args.k
    if k is None:
        # Smallest k whose concurrency window overflows with chance < 1%.
        k = k_for_network(args.delay, args.rate_lambda, 0.01)
    metrics, trace = run(_sim_config(args, rate_lambda=args.rate_lambda, k=k, mode=args.mode))
    _emit(json.dumps(asdict(metrics), sort_keys=True, indent=2) + "\n", args.out)
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            fh.writelines(trace_lines(trace))
    return 0


def cmd_sim_sweep(args) -> int:
    try:
        lambdas = [float(part) for part in args.lambdas.split(",") if part.strip()]
    except ValueError:
        raise UsageError(f"--lambdas must be comma-separated rates, got {args.lambdas!r}")
    if not lambdas:
        raise UsageError("--lambdas must name at least one rate")
    rows = compare_modes(_sim_config(args, rate_lambda=lambdas[0], k=args.k), lambdas)
    lines = ["lambda,mode,included_ratio,effective_tps"]
    for cfg, m in rows:
        lines.append(f"{cfg.rate_lambda},{cfg.mode},{m.included_ratio},{m.effective_tps}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


# Ledger and monitoring

def cmd_ledger_inspect(args) -> int:
    sys.stdout.writelines(inspect_lines(Ledger.load(args.file)))
    return 0


def cmd_rpm_demo(args) -> int:
    rules = None
    if args.rules:
        rules = load_rules_json(_read_text(args.rules))
    result = run_demo(
        seed=args.seed,
        patients=args.patients,
        readings_per_device=args.readings_per_device,
        duration=args.duration,
        anomaly_probability=args.anomaly_probability,
        k=args.k,
        rules=rules,
        state_dir=args.state_dir,
    )
    if args.state_dir:
        base = pathlib.Path(args.state_dir)
        try:
            result.dual.private.save(base / "private.ledger")
            result.dual.public.save(base / "public.ledger")
        finally:
            result.store.close()
    _emit(json.dumps(result.counts(), sort_keys=True, indent=2) + "\n", args.out)
    return 0


def _open_store(directory: str) -> EhrStore:
    """The EHR store in directory. Unlike EhrStore(directory), a missing
    log is an error, so a read-only command writes nothing."""
    log = os.path.join(directory, LOG_NAME)
    if not os.path.isfile(log):
        raise FileNotFoundError(f"no EHR log at {log!r}")
    return EhrStore(directory)


def _ehr_check(args, check):
    """check(store, ledger) on the saved state; the store is closed after."""
    ledger = Ledger.load(args.ledger)
    store = _open_store(args.store)
    try:
        return check(store, ledger)
    finally:
        store.close()


def cmd_ehr_verify(args) -> int:
    result = _ehr_check(args, lambda store, ledger: verify(args.record, store, ledger))
    recomputed = result.recomputed_hash or "-"
    anchored = result.anchored_hash or "-"
    print(f"{result.status} recomputed={recomputed} anchored={anchored}")
    return 0 if result.status == INTACT else 1


def cmd_ehr_audit(args) -> int:
    results = _ehr_check(args, audit)
    for result in results:
        print(f"{result.record_id} {result.status}")
    tampered = sum(1 for r in results if r.status == TAMPERED)
    intact = sum(1 for r in results if r.status == INTACT)
    torn = sum(1 for r in results if r.status == TORN)
    # torn= only when the log ends in a torn record, so a sound log's summary
    # line keeps its three fields
    print(f"audited={len(results)} intact={intact} tampered={tampered}"
          + (f" torn={torn}" if torn else ""))
    return 1 if tampered or torn else 0


# Access control

def _load_roster(path: str) -> dict[str, dict]:
    try:
        entries = json.loads(_read_text(path))
        roster = {}
        for i, entry in enumerate(entries):
            entity, credential = entry["entity_id"], entry["credential"]
            if not (utf8_text(entity) and utf8_text(credential)):
                raise ValueError(f"entry {i}: entity_id and credential must be UTF-8 strings")
            if entity in roster:
                raise ValueError(f"entry {i}: entity_id {entity!r} is listed twice")
            roster[entity] = {"role": Role(entry["role"]), "credential": credential}
        return roster
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise FormatError(f"roster file {path!r}: {exc}") from exc


def _acl_open(args):
    # no session is live at a NaN or infinite time; refuse it by name
    # before the ledger or roster is read
    if not float_time(args.at):
        raise InvalidParameter(f"at must be a finite time, got {shown(args.at)}")
    path = pathlib.Path(args.ledger)
    # taken before the load, so a save between the two is seen as a change
    read_as = file_digest(path)
    if read_as:
        ledger = Ledger.load(path)
    else:
        ledger = Ledger(PRIVATE, k=args.k, authorized_writers={AccessController.author, "acl-sealer"})
    roster = _load_roster(args.roster)
    controller = AccessController(clock=ManualClock(args.at), ledger=ledger)
    for entity, entry in roster.items():
        controller.register(entity, entry["role"], entry["credential"])
    controller.load_grants(rebuild_grants(ledger))
    return (path, read_as), ledger, controller, roster


def _session_for(controller: AccessController, roster: dict, entity: str):
    entry = roster.get(entity)
    if entry is None:
        raise UnknownEntity(f"no roster entry for {entity!r}")
    return controller.authenticate(entity, entry["credential"])


def _acl_save(source, ledger: Ledger, at: float):
    """Seal the pending access change and write the ledger back, unless
    the file changed after _acl_open read it."""
    path, read_as = source
    ledger.seal_block("acl-sealer", at)
    ledger.save(path, read_as)


def cmd_acl_grant(args) -> int:
    source, ledger, controller, roster = _acl_open(args)
    session = _session_for(controller, roster, args.grantor)
    grant = controller.grant(session, args.grantee, Scope(args.scope))
    _acl_save(source, ledger, args.at)
    print(grant.grant_id)
    return 0


def cmd_acl_revoke(args) -> int:
    source, ledger, controller, roster = _acl_open(args)
    table = controller.grant_table()
    grant = table.get(args.grant_id)
    if grant is None:
        raise UnknownGrant(f"no grant {args.grant_id!r}")
    session = _session_for(controller, roster, grant.grantor)
    controller.revoke(session, args.grant_id)
    _acl_save(source, ledger, args.at)
    print(f"revoked {args.grant_id}")
    return 0


def cmd_acl_check(args) -> int:
    _, _, controller, roster = _acl_open(args)
    session = _session_for(controller, roster, args.entity)
    allowed = controller.check_access(session, args.patient, Scope(args.scope))
    print("allowed" if allowed else "denied")
    return 0 if allowed else 1


_DAG_FILE = (Opt("file", str, required=True, help="DAG text file"),)
_DAG_EXPORT = _DAG_FILE + (Opt("out", str, help="write output here as well"),)
_DAG_K = (
    Opt("dag", str, required=True, help="DAG text file"),
    Opt("k", int, required=True, help="anticone bound"),
)
_EHR_STATE = (
    Opt("store", str, required=True, help="EHR store directory"),
    Opt("ledger", str, required=True, help="private ledger file"),
)
_ACL_COMMON = (
    Opt("ledger", str, required=True, help="ledger file (created if missing)"),
    Opt("roster", str, required=True, help="JSON roster of entities and credentials"),
    Opt("at", float, default=0.0, help="timestamp for the change"),
    Opt("k", int, default=3, help="consensus parameter for a fresh ledger"),
)

COMMAND_SPECS = (
    CommandSpec(
        "dag import",
        "parse and validate a DAG text file",
        _DAG_FILE,
        cmd_dag_import,
    ),
    CommandSpec(
        "dag export",
        "re-emit a DAG file in canonical order",
        _DAG_EXPORT,
        cmd_dag_export,
    ),
    CommandSpec(
        "dag dot",
        "emit a DOT graph of the DAG",
        _DAG_EXPORT,
        cmd_dag_export,
    ),
    CommandSpec(
        "color",
        "greedy blue/red coloring with blue scores",
        _DAG_K,
        cmd_color,
    ),
    CommandSpec(
        "oracle",
        "exact maximum k-cluster (exponential; small DAGs only)",
        _DAG_K,
        cmd_oracle,
    ),
    CommandSpec(
        "sim run",
        "run one network simulation and print metrics JSON",
        (
            Opt("nodes", int, default=4, help="miner count"),
            Opt("lambda", float, default=1.0, dest_name="rate_lambda",
                help="network-wide block rate"),
            Opt("delay", float, default=1.0, help="propagation delay"),
            Opt("k", int, help="anticone bound (default: derived from delay and rate)"),
            Opt("duration", float, default=100.0, help="simulated time"),
            Opt("seed", int, required=True, help="RNG seed"),
            Opt("mode", str, default=MODE_BLOCKDAG, choices=MODES, help="consensus mode"),
            Opt("txs-per-block", int, default=10, help="transactions counted per block in effective_tps"),
            Opt("out", str, help="also write metrics JSON here"),
            Opt("trace", str, help="write the event trace as JSON lines"),
        ),
        cmd_sim_run,
    ),
    CommandSpec(
        "sim sweep",
        "compare both modes across block rates; prints CSV",
        (
            Opt("lambdas", str, default="0.2,1,5", help="comma-separated block rates"),
            Opt("nodes", int, default=4, help="miner count"),
            Opt("delay", float, default=1.0, help="propagation delay"),
            Opt("k", int, default=3, help="anticone bound"),
            Opt("duration", float, default=2000.0, help="simulated time"),
            Opt("seed", int, required=True, help="RNG seed"),
            Opt("txs-per-block", int, default=10, help="transactions counted per block in effective_tps"),
            Opt("out", str, help="also write the CSV here"),
        ),
        cmd_sim_sweep,
    ),
    CommandSpec(
        "ledger inspect",
        "print a ledger's confirmed stream as JSON lines",
        (Opt("file", str, required=True, help="ledger file"),),
        cmd_ledger_inspect,
    ),
    CommandSpec(
        "rpm demo",
        "run the monitoring pipeline end to end and print a summary",
        (
            Opt("patients", int, default=5, help="patient count"),
            Opt("duration", float, default=100.0, help="monitoring period"),
            Opt("seed", int, required=True, help="RNG seed"),
            Opt("rules", str, help="threshold rules JSON file (default: built-in)"),
            Opt("anomaly-probability", float, default=0.1, help="injected anomaly rate"),
            Opt("readings-per-device", int, default=40, help="readings per device"),
            Opt("k", int, default=3, help="consensus parameter for both ledgers"),
            Opt("state-dir", str, help="persist ledgers and EHR store here"),
            Opt("out", str, help="also write the summary JSON here"),
        ),
        cmd_rpm_demo,
    ),
    CommandSpec(
        "ehr verify",
        "check one record's bytes against its confirmed anchor",
        (Opt("record", str, required=True, help="record id"),) + _EHR_STATE,
        cmd_ehr_verify,
    ),
    CommandSpec(
        "ehr audit",
        "verify every anchored record; nonzero exit if any tampered",
        _EHR_STATE,
        cmd_ehr_audit,
    ),
    CommandSpec(
        "acl grant",
        "record a patient's access grant on the ledger",
        _ACL_COMMON + (
            Opt("grantor", str, required=True, help="granting patient"),
            Opt("grantee", str, required=True, help="entity receiving access"),
            Opt("scope", str, required=True, choices=SCOPE_NAMES, help="granted scope"),
        ),
        cmd_acl_grant,
    ),
    CommandSpec(
        "acl revoke",
        "revoke a previously recorded grant",
        _ACL_COMMON + (
            Opt("grant-id", str, required=True, help="grant to revoke"),
        ),
        cmd_acl_revoke,
    ),
    CommandSpec(
        "acl check",
        "evaluate an access query against the recorded grants",
        _ACL_COMMON + (
            Opt("entity", str, required=True, help="requesting entity"),
            Opt("patient", str, required=True, help="patient whose data is requested"),
            Opt("scope", str, required=True, choices=SCOPE_NAMES, help="requested scope"),
        ),
        cmd_acl_check,
    ),
)

ALL_OPTION_NAMES = {opt.name for spec in COMMAND_SPECS for opt in spec.opts}

_GROUP_HELP = {
    "dag": "DAG file tooling",
    "sim": "network simulations",
    "ledger": "ledger inspection",
    "rpm": "monitoring pipeline",
    "ehr": "EHR store audits",
    "acl": "access control",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rpmdag",
        description="blockDAG ledger tooling for remote patient monitoring",
    )
    sub = parser.add_subparsers(dest="command")
    groups: dict[str, argparse._SubParsersAction] = {}
    for spec in COMMAND_SPECS:
        words = spec.path.split()
        if len(words) == 1:
            command = sub.add_parser(words[0], help=spec.help)
        else:
            if words[0] not in groups:
                group = sub.add_parser(words[0], help=_GROUP_HELP[words[0]])
                groups[words[0]] = group.add_subparsers(dest="subcommand")
            command = groups[words[0]].add_parser(words[1], help=spec.help)
        command.add_argument("--config", default=None, help="key=value defaults file")
        for opt in spec.opts:
            kwargs: dict = {"dest": opt.dest, "default": None, "help": opt.help}
            if opt.convert is not str:
                kwargs["type"] = opt.convert
            if opt.choices:
                kwargs["choices"] = list(opt.choices)
            command.add_argument(f"--{opt.name}", **kwargs)
        command.set_defaults(_handler=spec.handler, _opts=spec.opts)
    return parser


def _load_config(path: str) -> dict[str, str]:
    try:
        text = _read_text(path)
    except (OSError, FormatError) as exc:
        raise UsageError(f"cannot read config file: {exc}")
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"config line {lineno}: expected key=value")
        if "\x00" in line:
            # no path holds a NUL, and argv and the environment cannot
            raise UsageError(f"config line {lineno}: holds a NUL byte")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in ALL_OPTION_NAMES:
            raise UsageError(f"unknown config key {key!r}")
        values[key] = value
    return values


def _resolve(args, opts: tuple[Opt, ...]):
    config_path = args.config or os.environ.get(ENV_PREFIX + "CONFIG")
    config_values = _load_config(config_path) if config_path else {}
    for opt in opts:
        value = getattr(args, opt.dest, None)
        if value is None:
            raw = os.environ.get(opt.env_name)
            if raw is None:
                raw = config_values.get(opt.name)
            if raw is not None:
                try:
                    value = opt.convert(raw)
                except ValueError:
                    raise UsageError(f"bad value {raw!r} for --{opt.name}")
        if value is None:
            value = opt.default
        if value is None and opt.required:
            raise UsageError(
                f"--{opt.name} is required (flag, {opt.env_name}, or config file)"
            )
        if value is not None and opt.choices and value not in opt.choices:
            choices = ", ".join(str(c) for c in opt.choices)
            raise UsageError(f"--{opt.name} must be one of: {choices}")
        setattr(args, opt.dest, value)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    handler = getattr(args, "_handler", None)
    if handler is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        _resolve(args, args._opts)
        return handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RpmdagError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
