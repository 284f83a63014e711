"""Cluster-wide fault injection, failure detection, and recovery support.

The paper's containers are *actively managed*; this package makes the
management adversarial.  It provides:

FaultPlan
    A seeded, deterministic schedule of injectable faults — node crashes
    and slow-downs, link degradation/partition windows, probabilistic
    message drops — plus protocol-scripted faults (the D2T transaction
    behaviours).  Identical seeds replay identical fault sequences.
ClusterFaultInjector
    Walks a plan's timed events against live :mod:`repro.cluster` state.
NetworkFaultState
    Per-transfer evaluation of the plan's link windows, hung on
    ``Network.faults``.
FailureDetector / HeartbeatMonitor
    Lease-based detection over the EVPath control plane: replicas hold
    leases at their LocalManager, whose detector credits their beats
    arithmetically and sends real HEARTBEATs only while a link-fault
    window covers the replica-to-monitor pair; LocalManagers'
    METRIC_REPORTs over the monitoring overlay double as their beats to
    the GlobalManager.  False positives are accounted, not hidden.

Recovery itself — the REPLACE protocol respawning lost replicas from the
spare pool — lives with the other container protocols in
:mod:`repro.containers.recovery`.
"""

from repro.faults.plan import FaultEvent, FaultKind, FaultPlan, WINDOWED_KINDS
from repro.faults.netstate import NetworkFaultState
from repro.faults.detect import FailureDetector, HeartbeatMonitor
from repro.faults.injector import ClusterFaultInjector

__all__ = [
    "ClusterFaultInjector",
    "FailureDetector",
    "FaultEvent",
    "FaultKind",
    "FaultPlan",
    "HeartbeatMonitor",
    "NetworkFaultState",
    "WINDOWED_KINDS",
]
