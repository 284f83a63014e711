"""Tests for the degrade-to-disk failover layer (repro.adios).

Covers the three seams the tentpole added:

* the SST replay stream (publish/subscribe with reader-side flow
  control) and the per-link :class:`FailoverSwitch` state machine;
* the spill path — ledger discipline (one fate per timestep), durable
  sequenced segments, digest verification on read-back;
* the replay path — catch-up through the ``replay_catchup`` protocol,
  handover bookkeeping, and the catch-up a mid-run stage launch requests.
"""

import itertools
from types import SimpleNamespace

import pytest

from repro.simkernel import Environment
from repro.data import DataChunk
from repro.adios.failover import (
    LIVE,
    REPLAYING,
    SPILLING,
    FailoverSwitch,
)
from repro.adios.sst import SstStream
from repro.adios.spill import (
    SPILL_REASONS,
    SpillLedger,
    SpillStore,
    segment_digest,
)
from repro.fate import REFUSED, SPILLED, FateLedger
from repro.containers.presets import build_failover_pipeline
from repro.overload import LinkCredits
from repro.overload.scenario import overload_burst_plan
from repro.smartpointer.component import VIZ_COMPONENT


def stub_node(node_id=0):
    return SimpleNamespace(node_id=node_id)


#: chunk ids for chunks made outside a pipeline run
_ids = itertools.count()


def chunk(ts, nbytes=1e6):
    return DataChunk(timestep=ts, nbytes=nbytes, created_at=0.0, chunk_id=next(_ids))


# ---------------------------------------------------------------------------
# SST stream: reader-side flow control
# ---------------------------------------------------------------------------

class TestSstFlowControl:
    def test_publisher_blocks_on_full_window(self):
        """The publisher stalls once a subscriber's window is exhausted and
        resumes exactly when the consumer get()s a chunk back out."""
        env = Environment()
        stream = SstStream(env, name="s")
        sub = stream.subscribe("c", window=2)
        published = []

        def produce():
            for ts in range(5):
                yield stream.publish(chunk(ts))
                published.append((env.now, ts))

        env.process(produce())
        env.run(until=10.0)
        # window=2: the first two publishes complete, the third blocks
        assert [ts for _, ts in published] == [0, 1]
        assert sub.backlog == 2

        def consume():
            got = []
            for _ in range(5):
                c, _attrs = yield sub.get()
                got.append(c.timestep)
            return got

        consumer = env.process(consume())
        env.run(until=20.0)
        assert consumer.value == [0, 1, 2, 3, 4]  # FIFO, no loss, no dup
        assert [ts for _, ts in published] == [0, 1, 2, 3, 4]
        assert stream.published == 5

    def test_window_must_be_positive(self):
        env = Environment()
        stream = SstStream(env)
        with pytest.raises(ValueError, match="window"):
            stream.subscribe("c", window=0)

    def test_detached_subscriber_skipped(self):
        env = Environment()
        stream = SstStream(env)
        keep = stream.subscribe("keep", window=8)
        gone = stream.subscribe("gone", window=8)
        gone.detach()

        def produce():
            for ts in range(3):
                yield stream.publish(chunk(ts))

        env.process(produce())
        env.run(until=5.0)
        assert keep.backlog == 3
        assert gone.backlog == 0


# ---------------------------------------------------------------------------
# Spill ledger and store
# ---------------------------------------------------------------------------

class TestSpillLedger:
    def test_one_fate_per_timestep(self):
        fates = FateLedger()
        first = fates.spill(3, "bonds", "backpressure_stride", 1.0, nbytes=100.0)
        assert first is not None and first.seq == 0
        assert first.digest == segment_digest("bonds", 3, "backpressure_stride", 100.0)
        # a second spill of the same timestep is absorbed, not double-counted
        assert fates.spill(3, "bonds", "credit_collapse", 2.0, nbytes=100.0) is None
        assert fates.absorbed == 1
        assert len(SpillLedger(fates)) == 1

    def test_delivered_timestep_refused(self):
        fates = FateLedger()
        fates.deliver("pipeline", 7, 0.5)
        assert fates.spill(7, "bonds", "backpressure_stride", 1.0, nbytes=1.0) is None
        assert fates.suppressed == 1
        assert SpillLedger(fates).steps() == set()

    def test_unknown_reason_rejected(self):
        with pytest.raises(ValueError, match="unknown spill reason"):
            FateLedger().spill(0, "bonds", "cosmic_ray", 0.0, nbytes=1.0)
        assert "credit_collapse" in SPILL_REASONS

    def test_double_settle_raises(self):
        fates = FateLedger()
        record = fates.spill(0, "bonds", "backpressure_stride", 0.0, nbytes=1.0)
        assert fates.deliver("replay", 0, 5.0)  # a replay delivery settles it
        assert record.status == "replayed" and record.settled_at == 5.0
        with pytest.raises(ValueError, match="already settled"):
            fates.supersede(record.seq, 6.0)
        assert len(fates.violations) == 1

    def test_pending_in_seq_order(self):
        fates = FateLedger()
        for ts in (5, 1, 9):
            fates.spill(ts, "bonds", "backpressure_stride", 0.0, nbytes=1.0)
        fates.deliver("replay", 1, 2.0)  # settle the middle record
        ledger = SpillLedger(fates)
        assert [r.timestep for r in ledger.pending()] == [5, 9]
        assert ledger.by_status() == {"spilled": 2, "replayed": 1}

    def test_covered_shed_diverted_to_spill(self):
        fates = FateLedger()
        fates.divert_sheds = True
        assert fates.shed(4, "csym", "offline_prune", 1.0) == SPILLED
        assert fates.shed_records == [] and fates.spill_record(4).reason == "offline_prune"
        # a second shed of the spilled step is absorbed into its spill
        assert fates.shed(4, "csym", "container_stride", 2.0) == SPILLED
        assert fates.absorbed == 1 and fates.violations == []
        # with diversion off, a shed cannot give a spilled step a second fate
        fates.divert_sheds = False
        assert fates.shed(4, "csym", "container_stride", 3.0) == REFUSED
        assert len(fates.violations) == 1


class TestSpillStore:
    def test_read_back_verifies_digest(self):
        env = Environment()
        store = SpillStore(env)
        record = FateLedger().spill(4, "bonds", "backpressure_stride", 0.0, nbytes=2**20)
        node = stub_node()

        def flow():
            yield store.write_segment(node, record)
            file_record = yield store.read_segment(node, record)
            return file_record

        proc = env.process(flow())
        env.run(until=60.0)
        assert proc.value.attributes["digest"] == record.digest
        assert proc.value.attributes["seq"] == record.seq
        assert store.durable_count == 1

    def test_read_blocks_until_durable(self):
        """A replay racing an in-flight spill write waits for durability
        instead of missing the segment."""
        env = Environment()
        store = SpillStore(env)
        # 500 MiB at the store's 500 MiB/s per stream: a ~1 s write
        record = FateLedger().spill(
            0, "bonds", "backpressure_stride", 0.0, nbytes=500 * 2**20
        )
        node = stub_node()
        times = {}

        def reader():
            yield store.read_segment(node, record)
            times["read_done"] = env.now

        def writer():
            yield env.timeout(0.5)  # reader is already waiting
            yield store.write_segment(node, record)
            times["write_done"] = env.now

        env.process(reader())
        env.process(writer())
        env.run(until=30.0)
        assert times["read_done"] >= times["write_done"]


# ---------------------------------------------------------------------------
# The per-link switch state machine
# ---------------------------------------------------------------------------

class TestFailoverSwitch:
    def test_transitions_recorded(self):
        switch = FailoverSwitch("bonds")
        switch.set_state(SPILLING, 1.0)
        switch.set_state(SPILLING, 2.0)  # no-op: same state
        switch.set_state(REPLAYING, 3.0)
        switch.set_state(LIVE, 4.0)
        assert switch.transitions == [
            (1.0, LIVE, SPILLING),
            (3.0, SPILLING, REPLAYING),
            (4.0, REPLAYING, LIVE),
        ]


# ---------------------------------------------------------------------------
# Pipeline-level failover: spill instead of shed, replay to catch up
# ---------------------------------------------------------------------------

def drain_spill(pipe, budget=600.0):
    env = pipe.env
    deadline = env.now + budget
    while env.now < deadline and pipe.spill_ledger.pending():
        env.run(until=min(env.now + 30.0, deadline))


class TestFailoverPipeline:
    @pytest.fixture(scope="class")
    def run(self):
        env = Environment()
        pipe = build_failover_pipeline(env, steps=12, seed=1)
        plan = overload_burst_plan(1, pipe)
        if plan.events:
            pipe.arm_faults(plan)
        finished = pipe.run(settle=600)
        drain_spill(pipe)
        return SimpleNamespace(pipe=pipe, finished=finished)

    def test_zero_shed_full_delivery(self, run):
        pipe = run.pipe
        assert run.finished
        assert pipe.shed_ledger.steps() == set(), pipe.shed_ledger.by_reason()
        assert pipe.spill_ledger.pending() == []
        delivered = {ts for _, ts, _ in pipe.end_to_end}
        assert delivered == set(range(pipe.driver.workload.total_steps))

    def test_spills_happened_and_settled(self, run):
        ledger = run.pipe.spill_ledger
        assert len(ledger) > 0
        assert set(ledger.by_status()) <= {"replayed", "superseded"}

    def test_handover_no_gap_no_dup(self, run):
        fo = run.pipe.failover
        assert fo.handovers, "catch-up never handed over to the live stream"
        claimed = set()
        for handover in fo.handovers:
            expected = set(handover["expected"])
            settled = set(handover["replayed"]) | set(handover["superseded"])
            assert settled == expected, handover
            assert not (claimed & expected), "seq settled by two handovers"
            claimed |= expected
            assert handover["order"] == sorted(handover["order"])

    def test_protocols_in_control_trace(self, run):
        protocols = {t.protocol for t in run.pipe.control_trace.records}
        assert "replay_catchup" in protocols
        # spill_engage only fires on credit collapse, which this seed's
        # burst may or may not produce — but if it ran, it must have
        # finished or compensated cleanly, never wedged.
        for trace in run.pipe.control_trace.records:
            if trace.protocol in ("replay_catchup", "spill_engage"):
                assert trace.status in ("committed", "aborted", "exited"), trace

    def test_no_strand_for_spilled_timestep(self, run):
        """A pruned stage strands to disk only what the ledger shed: a
        spilled timestep is already durable in the spill store."""
        spilled = {r.timestep for r in run.pipe.spill_ledger.records}
        stranded = [
            f.name for f in run.pipe.fs.files
            if ".stranded." in f.name and f.attributes["timestep"] in spilled
        ]
        assert stranded == []

    def test_switch_state_machine_closed(self, run):
        """Every switch ends LIVE and every departure from LIVE was closed
        by a matching return."""
        for switch in run.pipe.failover.switches.values():
            assert switch.state == LIVE
            for time, src, dst in switch.transitions:
                assert src in (LIVE, SPILLING, REPLAYING)
                assert dst in (LIVE, SPILLING, REPLAYING)


# ---------------------------------------------------------------------------
# Cold-start consumer: a stage launched mid-run
# ---------------------------------------------------------------------------

class TestColdStartConsumer:
    def test_mid_run_viz_launch_triggers_catchup(self):
        """Interactive launch on a failover pipeline requests a catch-up:
        the spill backlog drains and nothing is lost, even though the
        consumer set changed mid-run; the launched stage's link is under
        flow control like every built one."""
        env = Environment()
        pipe = build_failover_pipeline(env, steps=12, seed=1)
        plan = overload_burst_plan(1, pipe)
        if plan.events:
            pipe.arm_faults(plan)

        def ctl(env):
            yield env.timeout(100)
            yield pipe.launch_stage(VIZ_COMPONENT, units=1, upstream="csym",
                                    name="viz")

        env.process(ctl(env))
        finished = pipe.run(settle=600)
        drain_spill(pipe)
        assert finished
        assert "viz" in pipe.containers
        for lname, link in pipe.links.items():
            assert isinstance(link.credits, LinkCredits), lname
        assert pipe.spill_ledger.pending() == []
        assert pipe.shed_ledger.steps() == set()
        delivered = {ts for _, ts, _ in pipe.end_to_end}
        assert delivered == set(range(pipe.driver.workload.total_steps))
