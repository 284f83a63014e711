"""Property-based tests for overload shed accounting.

The generalized exactly-once claim under load shedding: for *any* seeded
overload schedule, the delivered timesteps and the shed timesteps exactly
partition the emitted timesteps — no loss (a step with neither fate), no
double-count (a step with both fates, or two distinct shed decisions).
"""

from hypothesis import given, settings, strategies as st

from repro.simkernel import Environment
from repro.containers.presets import build_failover_pipeline
from repro.overload.scenario import build_overload_pipeline, overload_burst_plan


@given(
    seed=st.integers(min_value=0, max_value=999),
    steps=st.sampled_from([8, 10, 12]),
)
@settings(max_examples=6, deadline=None)
def test_delivered_and_shed_partition_emitted(seed, steps):
    env = Environment()
    pipe = build_overload_pipeline(env, steps=steps, seed=seed)
    plan = overload_burst_plan(seed, pipe)
    if plan.events:
        pipe.arm_faults(plan)
    finished = pipe.run(settle=600)

    delivered = {ts for _, ts, _ in pipe.end_to_end}
    shed = pipe.shed_ledger.steps()

    # no double-count: a delivered step is never also attributed to a shed
    # decision, and no step carries two distinct shed decisions
    assert delivered & shed == set(), sorted(delivered & shed)
    for step, decisions in pipe.shed_ledger.decisions().items():
        assert len(decisions) == 1, (step, decisions)

    # no loss: once the driver finished, every emitted step has a fate
    if finished:
        emitted = set(range(pipe.driver.workload.total_steps))
        assert delivered | shed == emitted, sorted(emitted - delivered - shed)


@given(
    seed=st.integers(min_value=0, max_value=999),
    steps=st.sampled_from([8, 10, 12]),
)
@settings(max_examples=6, deadline=None)
def test_delivered_shed_spilled_partition_emitted(seed, steps):
    """The failover generalization of the partition property: with the
    degrade-to-disk layer attached, every emitted timestep's fate is
    delivered, shed, or spilled — and the shed and spill ledgers never
    both claim a step (one fate, even across the intercept seam)."""
    env = Environment()
    pipe = build_failover_pipeline(env, steps=steps, seed=seed)
    plan = overload_burst_plan(seed, pipe)
    if plan.events:
        pipe.arm_faults(plan)
    finished = pipe.run(settle=600)
    if finished:
        # bounded drain: give the replay backlog time to settle
        deadline = env.now + 600.0
        while env.now < deadline and pipe.spill_ledger.pending():
            env.run(until=min(env.now + 30.0, deadline))

    delivered = {ts for _, ts, _ in pipe.end_to_end}
    shed = pipe.shed_ledger.steps()
    spilled = pipe.spill_ledger.steps()

    # one fate: shed and spilled are disjoint, and a delivered step never
    # also carries a shed decision
    assert shed & spilled == set(), sorted(shed & spilled)
    assert delivered & shed == set(), sorted(delivered & shed)
    # a spilled step may also be delivered — but only via a settled
    # replay/supersede, never while the segment is still pending
    for step in sorted(delivered & spilled):
        record = pipe.spill_ledger.record_for(step)
        assert record.status in ("replayed", "superseded"), record
    # a replayed step really was delivered
    for step in sorted(pipe.spill_ledger.replayed_steps()):
        assert step in delivered, step

    # no loss: every emitted step has at least one fate
    if finished:
        emitted = set(range(pipe.driver.workload.total_steps))
        fates = delivered | shed | spilled
        assert fates == emitted, sorted(emitted - fates)
