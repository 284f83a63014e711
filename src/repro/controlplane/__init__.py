"""Declarative, traceable control-plane protocol engine.

One runtime for every control protocol the framework runs: the Figure 3-5
container protocols, the global manager's orchestration and abort paths,
the REPLACE recovery ladder, and the D2T transactions of Figure 6.  See
:mod:`repro.controlplane.engine` for the execution model and
:mod:`repro.controlplane.protocols` for the protocol catalogue.
"""

from repro.controlplane.engine import (
    Context,
    ControlPlaneEngine,
    ProtocolAbort,
    ProtocolExit,
    ProtocolSpec,
    Round,
    RoundTimeout,
)
from repro.controlplane.trace import ControlPlaneTrace, ProtocolTrace, RoundTrace
from repro.controlplane import protocols

__all__ = [
    "Context",
    "ControlPlaneEngine",
    "ControlPlaneTrace",
    "ProtocolAbort",
    "ProtocolExit",
    "ProtocolSpec",
    "ProtocolTrace",
    "Round",
    "RoundTimeout",
    "RoundTrace",
    "protocols",
]
