"""Tests for the data-flow control features: stride and output hashing.

Section III-D lists control features beyond resizing: lowering a
container's output frequency to free bandwidth, and adding hashes of the
data to the output for soft error detection.
"""

import pytest

from repro import Environment
from repro.spec import PipelineSpec, StageSpec, WorkloadSpec, build as build_spec


def build(env, steps=20):
    wl = WorkloadSpec(sim_nodes=256, staging_nodes=13, spare=0, steps=steps)
    stages = (
        StageSpec("helper", 4, model="tree"),
        StageSpec("bonds", 5, upstream="helper"),
        StageSpec("csym", 3, upstream="bonds"),
    )
    return build_spec(env, PipelineSpec(
        "flow-controls", workload=wl, stages=stages,
        builder=dict(seed=0, control_interval=10_000)))


class TestStride:
    def test_stride_halves_processing(self):
        env = Environment()
        pipe = build(env, steps=20)

        def ctl(env):
            yield env.timeout(1)
            accepted = yield pipe.global_manager.set_stride("csym", 2)
            assert accepted

        env.process(ctl(env))
        pipe.run(settle=300)
        csym = pipe.containers["csym"]
        assert csym.completions == 10  # every other timestep
        assert csym.skipped == 10
        # Upstream stages unaffected.
        assert pipe.containers["bonds"].completions == 20

    def test_stride_refused_for_essential(self):
        env = Environment()
        pipe = build(env, steps=5)

        def ctl(env):
            yield env.timeout(1)
            accepted = yield pipe.global_manager.set_stride("helper", 2)
            assert not accepted

        env.process(ctl(env))
        pipe.run(settle=120)
        assert pipe.containers["helper"].stride == 1
        assert pipe.containers["helper"].completions == 5

    def test_stride_one_restores_full_rate(self):
        env = Environment()
        pipe = build(env, steps=20)

        def ctl(env):
            yield env.timeout(1)
            yield pipe.global_manager.set_stride("csym", 4)
            yield env.timeout(150)  # ~10 steps at stride 4
            yield pipe.global_manager.set_stride("csym", 1)

        env.process(ctl(env))
        pipe.run(settle=300)
        csym = pipe.containers["csym"]
        # Stride 4 for the first ~10 steps (~3 processed), full rate after.
        assert 10 < csym.completions < 20
        assert csym.skipped > 0

    def test_invalid_stride_rejected(self):
        env = Environment()
        pipe = build(env, steps=5)

        def ctl(env):
            yield env.timeout(1)
            accepted = yield pipe.global_manager.set_stride("csym", 0)
            assert not accepted

        env.process(ctl(env))
        pipe.run(settle=120)

    def test_stride_recorded_in_actions(self):
        env = Environment()
        pipe = build(env, steps=5)

        def ctl(env):
            yield env.timeout(1)
            yield pipe.global_manager.set_stride("csym", 3)

        env.process(ctl(env))
        pipe.run(settle=120)
        assert "stride csym 1/3" in pipe.global_manager.actions_taken


class TestHashing:
    def test_hashing_attaches_integrity(self):
        env = Environment()
        pipe = build(env, steps=6)

        def ctl(env):
            yield env.timeout(1)
            accepted = yield pipe.global_manager.set_hashing("bonds", True)
            assert accepted

        env.process(ctl(env))
        pipe.run(settle=300)
        # CSym's input chunks came from bonds: they carry integrity tags.
        # We verify via the chunks csym wrote to disk — the derive() output
        # of csym does not inherit the tag, so check bonds' own emissions:
        # they were consumed; instead assert the flag held and work happened.
        assert pipe.containers["bonds"].hashing
        assert pipe.containers["bonds"].completions == 6

    def test_hash_cost_slows_service(self):
        """Hashing charges real compute: per-chunk latency rises by about
        nbytes / 2 GiB/s."""
        def run(hashing):
            env = Environment()
            pipe = build(env, steps=8)

            def ctl(env):
                yield env.timeout(1)
                if hashing:
                    yield pipe.global_manager.set_hashing("bonds", True)

            env.process(ctl(env))
            pipe.run(settle=300)
            series = pipe.telemetry.get("bonds", "latency_by_step")
            return sum(series.values) / len(series.values)

        plain = run(False)
        hashed = run(True)
        assert hashed > plain

    def test_hashing_toggle_off(self):
        env = Environment()
        pipe = build(env, steps=6)

        def ctl(env):
            yield env.timeout(1)
            yield pipe.global_manager.set_hashing("bonds", True)
            yield env.timeout(30)
            yield pipe.global_manager.set_hashing("bonds", False)

        env.process(ctl(env))
        pipe.run(settle=300)
        assert not pipe.containers["bonds"].hashing
        assert "hashing bonds off" in pipe.global_manager.actions_taken


class TestChunkIntegrityField:
    def test_integrity_set_on_emitted_chunks(self, env):
        """Unit-level: a hashing container stamps its output chunks."""
        from tests.test_containers_runtime import Rig

        rig = Rig(env, units=1)
        rig.container.hashing = True
        rig.feed(2, interval=1.0)
        env.run(until=60)
        # The emitted chunks went to the disk sink; integrity was set on the
        # out-chunk before emit (observable through on_complete).
        seen = []
        rig2 = Rig(env, units=1)
        rig2.container.hashing = True
        rig2.container.on_complete = lambda c, i, o: seen.append(o.integrity)
        rig2.feed(2, interval=1.0)
        env.run(until=120)
        assert all(tag is not None and tag.startswith("xxh64:") for tag in seen)
