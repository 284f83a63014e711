"""Tests for windowed overlay monitoring and its pipeline integration."""

import pytest

from repro import Environment
from repro.cluster import Machine
from repro.evpath import Messenger, OverlayTree
from repro.spec import PipelineSpec, SpecError, WorkloadSpec, build


class TestWindowedOverlay:
    def test_windowed_delivery(self, env, machine, messenger):
        reports = []
        overlay = OverlayTree(
            env, messenger, machine.nodes[0], machine.nodes[1:9],
            on_report=reports.append, fanout=4, flush_interval=5.0,
        )

        def leaves(env):
            for i in range(4):
                yield overlay.submit(machine.nodes[1 + i], {"i": i})

        env.process(leaves(env))
        env.run(until=4.9)
        assert reports == []  # still buffered in the window
        env.run(until=12)
        assert len(reports) == 4
        overlay.stop()

    def test_aggregation_compresses(self, env, machine, messenger):
        """A summarizing aggregate turns many records into one."""
        reports = []
        overlay = OverlayTree(
            env, messenger, machine.nodes[0], machine.nodes[1:9],
            on_report=reports.append,
            aggregate=lambda records: [
                {"count": sum(r.get("count", 1) for r in records)}
            ],
            fanout=4, flush_interval=5.0,
        )

        def leaves(env):
            for i in range(8):
                yield overlay.submit(machine.nodes[1 + i], {"count": 1})

        env.process(leaves(env))
        env.run(until=20)
        overlay.stop()
        assert sum(r["count"] for r in reports) == 8
        assert len(reports) < 8  # aggregation happened

    def test_root_ingress_bounded_by_fanout(self, env):
        """Per window, the root's node receives at most `fanout` messages
        regardless of leaf count — the hot-spot reduction."""
        machine = Machine(env, num_nodes=40)
        messenger = Messenger(env, machine.network)
        reports = []
        overlay = OverlayTree(
            env, messenger, machine.nodes[0], machine.nodes[1:33],
            on_report=reports.append, fanout=4, flush_interval=10.0,
        )

        def leaves(env):
            for node in machine.nodes[1:33]:
                yield overlay.submit(node, {"n": node.node_id})

        env.process(leaves(env))
        env.run(until=50)
        overlay.stop()
        assert len(reports) == 32
        # 32 leaves but the root ingress is tree-limited.
        assert overlay.root_ingress <= 4 * 5  # fanout x windows elapsed

    def test_flush_interval_validation(self, env, machine, messenger):
        with pytest.raises(ValueError):
            OverlayTree(env, messenger, machine.nodes[0], machine.nodes[1:3],
                        on_report=lambda r: None, flush_interval=0)


class TestPipelineOverlayMonitoring:
    def _run(self, monitoring):
        env = Environment()
        wl = WorkloadSpec(sim_nodes=256, staging_nodes=13, spare=0, steps=25)
        pipe = build(env, PipelineSpec("overlay", workload=wl, builder=dict(
            seed=1, monitoring=monitoring)))
        pipe.run(settle=300)
        return pipe

    def test_overlay_monitoring_still_manages(self):
        """The Figure 7 management outcome is unchanged when reports travel
        through the overlay (delayed by at most one window)."""
        pipe = self._run("overlay")
        assert any(a.startswith("steal helper->bonds")
                   for a in pipe.global_manager.actions_taken)
        assert pipe.containers["bonds"].units >= 5
        assert pipe.driver.blocked_time == 0.0

    def test_reports_arrive_through_overlay(self):
        pipe = self._run("overlay")
        # every manager reports into the overlay, which carried traffic
        assert all(m.send_report is not None for m in pipe.managers.values())
        assert pipe.monitoring_overlay.messages > 0
        # The GM actually saw reports (snapshot has latency data).
        states = pipe.global_manager.snapshot()
        assert any(s.latency_mean is not None for s in states.values())

    def test_direct_mode_has_no_overlay(self):
        pipe = self._run("direct")
        # every report went straight to the global manager, none through
        # an overlay
        assert all(m.send_report is None for m in pipe.managers.values())
        # the same management outcome as through the overlay
        assert pipe.containers["bonds"].units >= 5
        assert pipe.driver.blocked_time == 0.0

    def test_unknown_monitoring_rejected(self):
        spec = PipelineSpec("overlay", builder=dict(monitoring="telepathy"))
        with pytest.raises(SpecError, match="builder.monitoring"):
            build(Environment(), spec)
