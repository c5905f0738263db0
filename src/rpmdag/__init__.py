"""blockDAG ledger with greedy k-cluster consensus, a network simulator,
and a remote-patient-monitoring pipeline over dual private/public ledgers."""

from .acl import AccessController, AccessGrant, ManualClock, Role, Scope, rebuild_grants
from .dag import Block, BlockDag, export_dag_dot, export_dag_text, genesis_block, parse_dag_text
from .ehr import EhrStore, anchor, audit, verify
from .ghostdag import (
    GhostdagParams,
    ghostdag_color,
    ghostdag_order,
    ghostdag_run,
    is_k_cluster,
    k_for_network,
    max_k_cluster,
)
from .ledger import DualLedger, Ledger, Transaction, TxKind
from .netsim import SimConfig, check_convergence, compare_modes, run
from .pipeline import (
    DeviceProfile,
    RpmPipeline,
    ThresholdRule,
    VitalKind,
    VitalReading,
    aggregate,
    evaluate,
    run_demo,
    simulate_device,
)

__version__ = "0.1.0"

__all__ = [
    "AccessController",
    "AccessGrant",
    "Block",
    "BlockDag",
    "DeviceProfile",
    "DualLedger",
    "EhrStore",
    "GhostdagParams",
    "Ledger",
    "ManualClock",
    "Role",
    "RpmPipeline",
    "Scope",
    "SimConfig",
    "ThresholdRule",
    "Transaction",
    "TxKind",
    "VitalKind",
    "VitalReading",
    "aggregate",
    "anchor",
    "audit",
    "check_convergence",
    "compare_modes",
    "evaluate",
    "export_dag_dot",
    "export_dag_text",
    "genesis_block",
    "ghostdag_color",
    "ghostdag_order",
    "ghostdag_run",
    "is_k_cluster",
    "k_for_network",
    "max_k_cluster",
    "parse_dag_text",
    "rebuild_grants",
    "run",
    "run_demo",
    "simulate_device",
    "verify",
]
