"""Seeded topology fuzzing: random-but-valid specs for the DST sweep.

:func:`generate_spec` draws a :class:`~repro.spec.model.PipelineSpec`
from a splitmix64 stream — bounded depth/fan-out stage trees over the
SmartPointer component set, mixed compute models, seeded workload
sizing, and optional fault/overload blocks — such that every generated
spec passes validation, builds, and is *recoverable* (crash victims are
never a manager or sole replica, spares always cover the recovery
ladder).  Identical seeds yield identical specs, bit for bit: the
generator touches no global RNG and no wall clock.

:class:`FuzzedTopologyScenario` plugs the generator into :mod:`repro.dst`
— preset ``fuzz`` — so the always-on invariant oracles sweep generated
*shapes*, not just generated fault schedules; :class:`SpecFileScenario`
does the same for a spec loaded from a YAML file (``--spec``).

Generator bounds (documented for DESIGN.md §4i): depth <= 4, fan-out
<= 2, <= 6 stages, 1..4 units per stage (at least the component's
sustain requirement at the drawn workload), sim_nodes in {64, 128},
4..6 timesteps.  Compute models are drawn only from the models that can
sustain the drawn workload with <= 4 units (SERIAL CNA at 128 nodes,
for example, cannot — a spec that validates but can never keep up is a
different test than the invariant sweep wants).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.simkernel import Environment, shuffle
from repro.dst.scenario import DSTScenario, repro_command
from repro.faults.plan import FaultPlan
from repro.spec.build import (
    build as build_spec,
    register_fault_recipe,
    resolve_fault_plan,
)
from repro.spec.model import (
    FaultSpec,
    PipelineSpec,
    StageSpec,
    WorkloadSpec,
)

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


class SplitMix64:
    """The splitmix64 stream: tiny, fast, platform-stable (pure ints)."""

    def __init__(self, seed: int):
        self._state = int(seed) & _MASK64

    def next(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] (inclusive)."""
        return lo + self.next() % (hi - lo + 1)

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (self.next() / float(1 << 64)) * (hi - lo)

    def choice(self, seq):
        return seq[self.next() % len(seq)]

    def chance(self, p: float) -> bool:
        return self.uniform(0.0, 1.0) < p


#: component pool the fuzzer draws non-root stages from; the root stage is
#: always ``helper`` (TREE), the only component that can gather the
#: simulation writers' partial writes
FUZZ_COMPONENTS = ("bonds", "csym", "cna")

#: hard bounds on generated topologies
MAX_DEPTH = 4
MAX_FANOUT = 2
MAX_STAGES = 6
MAX_UNITS = 4


def _sustainable_models(component, natoms: int, interval: float) -> List:
    """Compute models that keep up with the workload using <= MAX_UNITS."""
    return [
        m for m in component.compute_models
        if component.cost.units_to_sustain(natoms, interval, m) <= MAX_UNITS
    ]


def generate_spec(seed: int, steps: Optional[int] = None) -> PipelineSpec:
    """Draw one random-but-valid spec from ``seed`` (deterministically)."""
    from repro.smartpointer.component import SMARTPOINTER_COMPONENTS

    rng = SplitMix64(seed)
    sim_nodes = rng.choice((64, 128))
    interval = 15.0
    steps = steps if steps is not None else rng.randint(4, 6)
    from repro.lammps.workload import atoms_for_nodes

    natoms = atoms_for_nodes(sim_nodes)

    # Stage tree: breadth-first growth under the depth/fan-out/size bounds.
    stages: List[StageSpec] = []
    total_units = 0
    frontier: List[tuple] = [(None, 0)]  # (upstream name, depth)
    while frontier and len(stages) < MAX_STAGES:
        upstream, depth = frontier.pop(0)
        component_name = (
            "helper" if upstream is None else rng.choice(FUZZ_COMPONENTS)
        )
        component = SMARTPOINTER_COMPONENTS[component_name]
        models = _sustainable_models(component, natoms, interval)
        model = rng.choice(models)
        sustain = component.cost.units_to_sustain(natoms, interval, model)
        units = min(MAX_UNITS, sustain + rng.randint(0, 1))
        name = f"{component_name}{len(stages)}"
        stages.append(StageSpec(
            name=name,
            units=units,
            component=component_name,
            model=model.value,
            upstream=upstream,
        ))
        total_units += units
        if depth + 1 < MAX_DEPTH:
            for _ in range(rng.randint(0 if stages else 1, MAX_FANOUT)):
                frontier.append((name, depth + 1))

    spare = 2
    workload = WorkloadSpec(
        sim_nodes=sim_nodes,
        staging_nodes=total_units + spare,
        spare=spare,
        steps=steps,
        output_interval=interval,
    )

    builder = {
        "seed": rng.randint(0, 2**16 - 1),
        "fault_tolerance": True,
        "control_interval": 30.0,
    }
    # Optional overload block: credit backpressure on every link.  Buffers
    # stay at the node default — with fault-tolerance custody retention, a
    # tight buffer couples every stage synchronously and the run finishes
    # far outside the DST horizon (that regime belongs to the overload
    # preset, which pairs tight buffers with the brownout ladder).
    if rng.chance(0.4):
        builder["backpressure"] = True

    # Optional fault block: the generic chaos recipe (crash + slowdown
    # against provably recoverable victims), inheriting the scenario seed.
    faults = FaultSpec(recipe="fuzz_chaos") if rng.chance(0.6) else None

    return PipelineSpec(
        name=f"fuzz-{seed}",
        workload=workload,
        stages=tuple(stages),
        builder=builder,
        faults=faults,
    )


@register_fault_recipe("fuzz_chaos")
def fuzz_chaos_plan(seed: int, pipe) -> FaultPlan:
    """Generic recoverable chaos for arbitrary topologies.

    Victims are non-first replicas of multi-replica containers, excluding
    every manager's node and the global manager's node — the same safety
    envelope as the smoke plan, computed structurally instead of by stage
    name.  One crash (only if the scheduler has spare capacity to recover
    with) plus one windowed slowdown.
    """
    wl = pipe.driver.workload
    nominal = wl.total_steps * wl.output_interval
    rng = SplitMix64((seed << 1) ^ 0x5EEDED)
    gm_id = pipe.global_manager.node.node_id
    manager_ids = {m.node.node_id for m in pipe.managers.values()}
    victims = []
    for name in sorted(pipe.containers):
        container = pipe.containers[name]
        for replica in container.replicas[1:]:
            nid = replica.node.node_id
            if nid != gm_id and nid not in manager_ids:
                victims.append(nid)
    plan = FaultPlan(seed=seed)
    if not victims:
        return plan
    if pipe.scheduler.peek_free() and rng.chance(0.7):
        plan.node_crash(rng.uniform(0.3, 0.7) * nominal, rng.choice(victims))
    plan.node_slowdown(
        rng.uniform(0.2, 0.8) * nominal,
        rng.choice(victims),
        factor=rng.uniform(1.5, 3.0),
        duration=0.15 * nominal,
    )
    return plan


@dataclass
class FuzzedTopologyScenario(DSTScenario):
    """DST over generated topologies: the seed picks the *shape* too.

    One seed drives everything — the generated spec, its fault recipe,
    and the schedule tie-breaker — so a violating seed replays the whole
    run (spec included) bit-identically from the one-line repro command.
    """

    name: str = "fuzz"
    preset: str = "fuzz"
    plan: object = None  # resolved from the generated spec's fault block
    steps: Optional[int] = None

    def build(self, seed: Optional[int]):
        env = Environment() if seed is None else Environment(tie_breaker=shuffle(seed))
        spec = generate_spec(seed if seed is not None else 0, steps=self.steps)
        return build_spec(env, spec)

    def resolve_plan(self, seed: Optional[int], pipe):
        return resolve_fault_plan(
            pipe.spec, seed if seed is not None else 0, pipe
        )


@dataclass
class SpecFileScenario(DSTScenario):
    """DST over a user-supplied spec: sweep schedule seeds (and the spec's
    own fault block) against a pipeline loaded from a YAML file."""

    name: str = "spec"
    preset: str = "spec"
    plan: object = None
    path: str = ""

    def _load(self) -> PipelineSpec:
        if not self.path:
            raise ValueError("SpecFileScenario needs a spec file path")
        return PipelineSpec.load(self.path)

    def build(self, seed: Optional[int]):
        env = Environment() if seed is None else Environment(tie_breaker=shuffle(seed))
        return build_spec(env, self._load())

    def resolve_plan(self, seed: Optional[int], pipe):
        return resolve_fault_plan(
            pipe.spec, seed if seed is not None else 0, pipe
        )

    def _repro(self, seed: Optional[int]) -> str:
        return repro_command(seed, "spec") + f" --spec {self.path}"
