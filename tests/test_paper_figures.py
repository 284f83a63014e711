"""Shape criteria of the paper's Tables I-II and Figures 3-7.

Each figure runs once per session (class-scoped fixtures) through the
same ``repro.experiments`` runner that ``python -m repro.experiments figN``
prints, and the assertions read the runner's result dict.  The few criteria
that need a configuration the runners do not expose (a different compute
model, an injected failure, an engine-traced transaction) build it directly
in the test that checks them.  Figures 7-9 also have pipeline-level checks
in ``test_pipeline_integration.py`` and Figure 10 in
``test_experiments_fig10.py``.
"""

import json
from pathlib import Path

import pytest

from repro.cluster import redsky
from repro.evpath import Messenger
from repro.experiments import figures
from repro.simkernel import Environment
from repro.spec import PipelineSpec, StageSpec, WorkloadSpec, build
from repro.transactions import FailureInjector, TransactionManager

#: legacy per-operation protocol records (see test_controlplane_golden.py)
GOLDEN = json.loads((Path(__file__).parent / "data" / "golden_traces.json").read_text())


def _values(series):
    return [v for _, v in series]


def _increase(count, model="rr", staging=16, spare=3, seed=0, settle=60):
    """One +count increase of Bonds; returns the pipeline."""
    env = Environment()
    wl = WorkloadSpec(sim_nodes=256, staging_nodes=staging, spare=spare, steps=4)
    stages = None if model == "rr" else (
        StageSpec("helper", 4, model="tree"),
        StageSpec("bonds", 4, model=model, upstream="helper"),
        StageSpec("csym", 3, upstream="bonds"),
    )
    pipe = build(env, PipelineSpec("increase", workload=wl, stages=stages,
                                   builder=dict(seed=seed, control_interval=10_000)))

    def do(env):
        yield env.timeout(1)
        yield pipe.global_manager.increase("bonds", count)

    env.process(do(env))
    pipe.run(settle=settle)
    return pipe


class TestTables:
    def test_table1_rows(self):
        models = {"tree": "Tree", "serial": "Serial", "rr": "RR", "parallel": "Parallel"}
        rows = {r["component"]: [r["complexity"],
                                 ", ".join(models[m] for m in r["compute_models"]),
                                 "Yes" if r["dynamic_branching"] else "No"]
                for r in figures.run_table1()["rows"]}
        assert rows["helper"] == ["O(n)", "Tree", "No"]
        assert rows["bonds"] == ["O(n^2)", "Serial, RR, Parallel", "Yes"]
        assert rows["csym"] == ["O(n)", "Serial, RR", "No"]
        assert rows["cna"] == ["O(n^3)", "Serial, RR", "No"]

    def test_table2_exact_paper_values(self):
        rows = {r["nodes"]: r for r in figures.run_table2()["rows"]}
        assert rows[256]["atoms"] == 8_819_989
        assert rows[512]["atoms"] == 17_639_979
        assert rows[1024]["atoms"] == 35_279_958
        assert rows[256]["bytes_per_step"] == pytest.approx(67 * 2**20, rel=0.005)
        assert rows[512]["bytes_per_step"] == pytest.approx(134.6 * 2**20, rel=0.005)
        assert rows[1024]["bytes_per_step"] == pytest.approx(269.2 * 2**20, rel=0.005)


class TestFig3:
    @pytest.fixture(scope="class")
    def traces(self):
        return figures.run_fig3()["traces"]

    @staticmethod
    def _one(traces, protocol):
        return next(t for t in traces if t["protocol"] == protocol)

    def test_increase_round_labels(self, traces):
        """Request first, completion last, one spawn + ready per replica, and
        each new replica exchanged metadata with manager, peers and writers."""
        trace = self._one(traces, "increase")
        labels = [label for r in trace["rounds"] for label in r["labels"]]
        assert labels[0] == "global->local: increase request"
        assert labels[-1] == "local->global: resize complete"
        assert len([label for label in labels if "spawn" in label]) == 2
        assert len([label for label in labels if "ready" in label]) == 2
        intra = sum(r["messages"] for r in trace["rounds"]
                    if "intra_container" in r["charged"])
        assert intra >= 2 * 2

    def test_engine_round_breakdown(self, traces):
        trace = self._one(traces, "increase")
        assert trace["status"] == "committed"
        executed = [r["name"] for r in trace["rounds"] if r["status"] != "skipped"]
        assert executed == ["request", "spawn", "complete"]
        # The trace accounts for every message and the whole simulated
        # duration of the golden record of the same +2 increase.
        golden = GOLDEN["increase_2"]
        assert trace["messages"] == sum(golden["messages"].values())
        assert trace["total_seconds"] == pytest.approx(golden["total"], rel=0.25)
        gm_trace = self._one(traces, "gm_increase")
        assert [r["name"] for r in gm_trace["rounds"]] == ["allocate", "validate", "request"]

    def test_rounds_scale_with_replicas(self):
        small = _increase(1).control_trace.of("increase")[0]
        big = _increase(3).control_trace.of("increase")[0]
        assert len(big.labels) > len(small.labels)
        assert (big.message_counts["intra_container"]
                > small.message_counts["intra_container"])


class TestFig4:
    @pytest.fixture(scope="class")
    def series(self):
        return figures.run_fig4()["series"]

    def test_cost_grows_and_intra_container_dominates(self, series):
        totals = [r["total_seconds"] for r in series]
        assert totals == sorted(totals)
        assert totals[-1] > totals[0] * 4
        for r in series:
            assert r["intra_container_seconds"] > 0.5 * r["total_seconds"]
            assert r["manager_seconds"] < 0.1 * r["intra_container_seconds"]

    def test_aprun_dwarfs_protocol_for_mpi_model(self):
        """aprun (3-27 s) completely dwarfs the protocol for a PARALLEL
        component, whose relaunch is charged separately."""
        record = _increase(4, model="parallel", staging=13 + 8, spare=0,
                           seed=7, settle=120).control_trace.of("increase")[0]
        launch = record.breakdown.get("launch", 0.0)
        assert 3.0 <= launch <= 27.0
        assert launch > 10 * record.breakdown.get("intra_container", 0.0)


class TestFig5:
    @pytest.fixture(scope="class")
    def series(self):
        return figures.run_fig5()["series"]

    def test_writer_pause_dominates(self, series):
        for r in series:
            pause = r["writer_pause_seconds"]
            assert pause > 0.5 * r["total_seconds"], r
            assert r["manager_seconds"] < pause

    def test_no_timestep_lost_during_decrease(self):
        env = Environment()
        pipe = build(env, PipelineSpec(
            "fig5",
            workload=WorkloadSpec(sim_nodes=256, staging_nodes=24, spare=0, steps=20),
            stages=(StageSpec("helper", 4, model="tree"),
                    StageSpec("bonds", 12, upstream="helper"),
                    StageSpec("csym", 3, upstream="bonds")),
            builder=dict(seed=0, control_interval=10_000)))

        def do(env):
            yield env.timeout(40)
            yield pipe.global_manager.decrease("bonds", 6)

        env.process(do(env))
        pipe.run(settle=600)
        assert pipe.containers["bonds"].completions == 20
        assert pipe.containers["bonds"].units == 6


def _redsky_tm(writers, **kwargs):
    """A transaction manager on a RedSky machine with room for
    ``writers`` plus a few readers and the coordinator."""
    env = Environment()
    machine = redsky(env, num_nodes=writers + 5)
    tm = TransactionManager(env, Messenger(env, machine.network), machine.nodes[-1],
                            **kwargs)
    return env, machine, tm


class TestFig6:
    @pytest.fixture(scope="class")
    def series(self):
        # repeats=1: the simulated transaction time is identical across repeats
        return figures.run_fig6(repeats=1)["series"]

    def test_transaction_scalability(self, series):
        assert all(r["committed"] for r in series)
        times = [r["mean_seconds"] for r in series]
        # protocol time, not data time
        assert all(t < 0.1 for t in times)
        # 32x more writers costs far less than 32x the time, but not nothing
        assert times[-1] < times[0] * 8
        assert times[-1] > times[0]

    def test_engine_phase_breakdown(self):
        env, machine, tm = _redsky_tm(256)
        wg = tm.build_group("writers", machine.nodes[:256], fanout=8)
        rg = tm.build_group("readers", machine.nodes[256:260], fanout=8)
        outcomes = []

        def proc(env):
            outcomes.append((yield tm.run([wg, rg])))

        env.process(proc(env))
        env.run(until=60)
        outcome, trace = outcomes[0], tm.engine.trace.of("d2t_commit")[0]
        assert outcome.committed
        assert trace.status == "committed"
        assert [r.name for r in trace.rounds] == [
            "vote_request", "collect_votes", "decide", "collect_acks", "finalize",
        ]
        vote = sum(r.seconds for r in trace.rounds
                   if r.name in ("vote_request", "collect_votes"))
        assert vote == pytest.approx(outcome.vote_phase, rel=0.01)
        assert trace.total == pytest.approx(outcome.total, rel=0.01)

    @pytest.mark.parametrize("writers", [64, 512])
    def test_failure_abort_costs_one_timeout(self, writers):
        injector = FailureInjector()
        env, machine, tm = _redsky_tm(writers, injector=injector, vote_timeout=1.0)
        wg = tm.build_group("w", machine.nodes[:writers], fanout=8)
        injector.inject("w-p0", 1, "crash")  # the coordinator's first txn
        outcomes = []

        def proc(env):
            outcomes.append((yield tm.run([wg])))

        env.process(proc(env))
        env.run(until=60)
        assert not outcomes[0].committed
        assert outcomes[0].vote_phase == pytest.approx(1.0, rel=0.1)

    @pytest.mark.slow
    def test_scales_to_franklin_size(self):
        """Past the default ratios to Franklin's size (8,225 of its 9,572
        nodes): 4x the writers still commits, and the tree keeps the commit
        time's growth under 2x."""
        small, big = figures.run_fig6(ratios=((2048, 8), (8192, 32)), repeats=1)["series"]
        assert small["committed"] and big["committed"]
        assert small["mean_seconds"] < big["mean_seconds"] < 2 * small["mean_seconds"]


class TestFig7:
    @pytest.fixture(scope="class")
    def result(self):
        return figures.run_fig7()

    def test_unmanaged_latency_grows_without_bound(self, result):
        unmanaged = result["unmanaged"]
        latency = _values(unmanaged["bonds_latency_by_step"])
        assert unmanaged["containers"]["bonds"]["units"] == 4
        assert latency[-1] > latency[0] * 1.5
        assert latency[-1] > 70.0

    def test_managed_beats_unmanaged(self, result):
        managed = _values(result["managed"]["bonds_latency_by_step"])
        unmanaged = _values(result["unmanaged"]["bonds_latency_by_step"])
        assert managed[-1] < unmanaged[-1]
