"""Seed sweeps: run one scenario across many interleavings.

``explore`` is the harness's outer loop — the FoundationDB move of
checking the same invariants over N reproducible schedules instead of
one.  It stops at the first violating seed and hands back that run's
full :class:`~repro.dst.scenario.DSTReport`, ready for
:func:`repro.dst.shrink.shrink` to minimize.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional

from repro.dst.scenario import DSTReport, DSTScenario


@dataclass
class Exploration:
    """Result of a seed sweep."""

    scenario: str
    seeds_run: List[int]
    failure: Optional[DSTReport]
    #: :meth:`DSTReport.digest` of each run, in ``seeds_run`` order
    digests: List[str]

    @property
    def ok(self) -> bool:
        return self.failure is None

    def as_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "seeds_run": list(self.seeds_run),
            "ok": self.ok,
            "failure": None if self.failure is None else self.failure.as_dict(),
        }


def explore(scenario: DSTScenario, seeds: Iterable[int]) -> Exploration:
    """Run ``scenario`` under each seed, stopping at the first violation."""
    seeds_run: List[int] = []
    digests: List[str] = []
    for seed in seeds:
        seed = int(seed)
        seeds_run.append(seed)
        report = scenario.run(seed)
        digests.append(report.digest())
        if not report.ok:
            return Exploration(scenario.name, seeds_run, report, digests)
    return Exploration(scenario.name, seeds_run, None, digests)
