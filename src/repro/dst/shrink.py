"""Greedy fault-plan minimization for violation repro reports.

Once :func:`repro.dst.explorer.explore` finds a violating seed, the
shrinker removes fault events one at a time, re-running the scenario
under the *same* seed after each removal and keeping a removal only while
the trial still reports the original failure first (the same first
invariant): a plan that trades the failure for a different one is not its
repro.  The fixpoint is a 1-minimal plan: dropping any single remaining
event makes that failure disappear — the smallest repro the greedy
strategy can certify.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.faults.plan import FaultPlan
from repro.dst.scenario import DSTScenario


@dataclass
class ShrinkResult:
    """A minimized plan plus how much work certification took."""

    plan: FaultPlan
    runs: int
    removed: int

    def as_dict(self) -> dict:
        return {
            "events": self.plan.as_dicts(),
            "signature": self.plan.signature(),
            "runs": self.runs,
            "removed": self.removed,
        }


def shrink(scenario: DSTScenario, seed, plan: FaultPlan,
           max_runs: int = 64) -> ShrinkResult:
    """Greedily minimize ``plan`` while ``seed`` still fails first on the
    invariant the whole plan fails first on."""
    events: List = list(plan.events)
    original = len(events)
    invariant = _first_invariant(scenario.run(seed, plan_override=plan))
    runs = 1
    changed = True
    while changed and runs < max_runs:
        changed = False
        for i in range(len(events)):
            trial = events[:i] + events[i + 1:]
            report = scenario.run(seed, plan_override=plan.subset(trial))
            runs += 1
            if not report.ok and _first_invariant(report) == invariant:
                events = trial
                changed = True
                break
            if runs >= max_runs:
                break
    return ShrinkResult(plan.subset(events), runs, original - len(events))


def _first_invariant(report) -> Optional[str]:
    return report.violations[0].invariant if report.violations else None
