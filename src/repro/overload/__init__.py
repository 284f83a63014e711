"""Overload robustness: backpressure, the brownout ladder, accounted shedding.

The three mechanisms of this package close the loop the paper's global
manager leaves open under sustained overload:

* :mod:`repro.overload.credits` + :mod:`repro.overload.backpressure` —
  credit-based flow control on DataTap links, sized from downstream
  headroom and propagated hop-by-hop until the LAMMPS driver feels it as
  an output stride instead of an unbounded block;
* :mod:`repro.overload.brownout` — the SLA brownout ladder (increase →
  steal → stride → offline) as control-plane protocols, de-escalating
  with hysteresis once latency holds below the SLA;
* :mod:`repro.overload.shed` — every dropped timestep becomes an
  explicit :class:`ShedRecord` in the pipeline's
  :class:`~repro.fate.FateLedger`, which refuses a second fate.

All of it is off by default; the builder's ``backpressure`` and
``brownout`` switches turn the controllers on, each with fixed tuning
(the module constants of :mod:`repro.overload.backpressure`,
:mod:`repro.overload.brownout` and :mod:`repro.overload.credits`).
"""

from repro.overload.backpressure import BackpressureController
from repro.overload.brownout import (
    BrownoutController,
    DegradationStep,
    DegradationTrace,
    NullPolicy,
)
from repro.overload.credits import LinkCredits
from repro.overload.shed import SHED_REASONS, ShedLedger, ShedRecord

__all__ = [
    "BackpressureController",
    "BrownoutController",
    "DegradationStep",
    "DegradationTrace",
    "LinkCredits",
    "NullPolicy",
    "SHED_REASONS",
    "ShedLedger",
    "ShedRecord",
]
