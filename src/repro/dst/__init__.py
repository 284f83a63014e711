"""Deterministic simulation testing (DST) for the I/O-container stack.

The harness FoundationDB made famous, specialized to this repository's
discrete-event world: because *everything* — cluster, transport,
containers, managers, faults — runs on one deterministic
:class:`~repro.simkernel.Environment`, a single integer seed pins a full
cluster-wide interleaving.  The pieces:

* **Schedule exploration** — ``Environment(tie_breaker=shuffle(seed))``
  permutes same-``(time, priority)`` event ties per seed
  (:mod:`repro.simkernel.core`); the default tie-breaker preserves the
  historical schedule bit-for-bit.
* **Invariant checkers** (:mod:`repro.dst.invariants`) — always-on
  oracles: node conservation, exactly-once timestep delivery,
  control-plane trace well-formedness, monotone perf accounting (D2T
  presumed-abort safety is audited where D2T runs, in ``run_fig6``).
* **Scenarios, exploration, shrinking** (:mod:`repro.dst.scenario`,
  :mod:`repro.dst.explorer`, :mod:`repro.dst.shrink`) — a scenario is
  preset x fault plan x seed; the explorer sweeps seeds to the first
  violation; the shrinker minimizes the violating fault plan.

Reproduce any reported failure with the one-liner in the report::

    PYTHONPATH=src python -m repro.experiments dst --seed <N> --seeds 1
"""

from repro.dst.explorer import Exploration, explore
from repro.dst.invariants import (
    INVARIANTS,
    Invariant,
    InvariantMonitor,
    Violation,
    register,
)
from repro.dst.presets import PRESETS, preset
from repro.dst.scenario import (
    DSTReport,
    DSTScenario,
    default_smoke_plan,
    links_plan,
    repro_command,
)
from repro.dst.shrink import ShrinkResult, shrink

__all__ = [
    "Exploration",
    "INVARIANTS",
    "Invariant",
    "InvariantMonitor",
    "PRESETS",
    "DSTReport",
    "DSTScenario",
    "ShrinkResult",
    "Violation",
    "default_smoke_plan",
    "explore",
    "links_plan",
    "preset",
    "register",
    "repro_command",
    "shrink",
]
