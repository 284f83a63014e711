"""Property-based tests over the full pipeline.

The core invariant the containers framework promises: **no timestep is ever
lost**, whatever the workload, allocation, or management actions.  Every
emitted timestep either exits the pipeline or lands on disk with provenance.
"""

from hypothesis import given, settings, strategies as st

from repro import Environment
from repro.spec import PipelineSpec, StageSpec, WorkloadSpec, build


def _spec(workload, stages=None, **builder):
    return PipelineSpec("properties", workload=workload, stages=stages,
                        builder=builder)


@given(
    sim_nodes=st.sampled_from([128, 256, 384, 512, 768, 1024]),
    steps=st.integers(min_value=5, max_value=25),
    spare=st.integers(min_value=0, max_value=4),
    seed=st.integers(min_value=0, max_value=99),
)
@settings(max_examples=12, deadline=None)
def test_no_timestep_ever_lost(sim_nodes, steps, spare, seed):
    env = Environment()
    wl = WorkloadSpec(sim_nodes=sim_nodes, staging_nodes=13 + spare,
                      spare=spare, steps=steps)
    stages = (
        StageSpec("helper", 4, model="tree"),
        StageSpec("bonds", 4, upstream="helper"),
        StageSpec("csym", 3, upstream="bonds"),
        StageSpec("cna", 2, upstream="bonds", standby=True),
    )
    pipe = build(env, _spec(wl, stages, seed=seed))
    pipe.run(settle=900)

    exited = {ts for _, ts, _ in pipe.end_to_end}
    on_disk = {f.attributes.get("timestep") for f in pipe.fs.files}
    in_queues = set()
    in_buffers = set()
    for container in pipe.containers.values():
        for replica in container.replicas:
            if replica.passive:
                continue
            in_queues.update(c.timestep for c in replica.queue.items)
            if replica.current_chunk is not None:
                in_queues.add(replica.current_chunk.timestep)
            for fragments in replica._gather.values():
                in_queues.update(c.timestep for c in fragments)
        if container.input_link is not None:
            for writer in container.input_link.writers:
                in_buffers.update(
                    c.timestep for c in writer.buffer._chunks.values()
                )
    covered = exited | on_disk | in_queues | in_buffers
    assert set(range(steps)) <= covered


@given(seed=st.integers(min_value=0, max_value=50))
@settings(max_examples=8, deadline=None)
def test_node_conservation_under_management(seed):
    """Nodes held by containers + standby + spare pool is constant across
    any sequence of management actions."""
    env = Environment()
    wl = WorkloadSpec(sim_nodes=1024, staging_nodes=24, spare=4, steps=25)
    pipe = build(env, _spec(wl, seed=seed))

    def total():
        held = sum(c.units for c in pipe.containers.values())
        held += sum(
            len(c.standby_nodes) for c in pipe.containers.values() if not c.active
        )
        return held + pipe.scheduler.free_nodes

    before = total()
    pipe.run(settle=300)
    assert total() == before


@given(crack_step=st.integers(min_value=1, max_value=15))
@settings(max_examples=6, deadline=None)
def test_branch_preserves_coverage(crack_step):
    """With the dynamic branch firing at any step, every timestep is still
    analyzed by exactly one of CSym (pre-branch) or CNA (post-branch), or
    accounted for on disk."""
    env = Environment()
    wl = WorkloadSpec(sim_nodes=256, staging_nodes=13, spare=0, steps=20)
    pipe = build(env, _spec(wl, seed=3, crack_step=crack_step))
    pipe.run(settle=900)
    assert pipe.branch_fired
    analyzed = {f.attributes.get("timestep") for f in pipe.fs.files}
    analyzed |= {ts for _, ts, _ in pipe.end_to_end}
    assert set(range(20)) <= analyzed
