"""Degrade-to-disk failover: spill instead of shed, replay to catch up.

The paper's overload remedies are lossy — stride skips and offline prunes
drop timesteps permanently (the brownout ladder reproduces that).  The
:class:`FailoverManager` converts those losses into latency:

* **Spill path** — the pipeline's :class:`~repro.fate.FateLedger`
  diverts every would-be shed to a spill;
  a ledger subscriber writes each spilled timestep to a durable
  :class:`~repro.adios.spill.SpillStore` as a sequenced,
  content-digested segment.  A sweeper additionally watches for
  collapsed credit windows and flushes a collapsed link's undispatched
  backlog through the ``spill_engage`` control protocol.
* **Replay path** — when the consumer side is healthy again (the ladder
  unwinds, a REPLACE recovery completes, a cold-start consumer attaches,
  or simply the run ends), the ``replay_catchup`` protocol reads pending
  segments back in sequence order, streams them over an SST stream with
  reader-side flow control, and hands over to the live stream at the
  snapshot watermark with no gap, no duplicate, and credits re-primed.

Each DataTap link carries a :class:`FailoverSwitch`, the per-link state
machine (live → spilling → replaying → live) the DST handover oracle
audits.  The live data path itself never changes: the paper's
switch-to-disk on an offline prune is :meth:`Container.emit
<repro.containers.container.Container.emit>` choosing
:meth:`ParallelFileSystem.write_chunk
<repro.adios.filesystem.ParallelFileSystem.write_chunk>`.

Every produced timestep ends delivered, shed, or spilled, and every
spilled timestep eventually settles as replayed (delivered) or superseded
(delivered live first) — the fate ledger enforces the transitions.

All of this is strictly opt-in: a pipeline without a failover block
carries a :class:`NoFailover`, and its ledger diverts nothing.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.simkernel import Environment
from repro.controlplane.engine import ProtocolAbort, ProtocolExit
from repro.controlplane.protocols import REPLAY_CATCHUP, SPILL_ENGAGE
from repro.data import DataChunk
from repro.perf.registry import REGISTRY
from repro.adios.spill import SpillLedger, SpillStore
from repro.adios.sst import SstStream
from repro.fate import REPLAY_SINK, SHED_REASONS

#: failover states of a link's transport
LIVE = "live"
SPILLING = "spilling"
REPLAYING = "replaying"
FAILOVER_STATES = (LIVE, SPILLING, REPLAYING)


# The layer's tuning: one value for every pipeline that runs failover.
#: seconds between sweeps (collapse detection, catch-up eligibility): two
#: backpressure resizes, so a collapsed window a sweep sees has outlived
#: at least one resize
SWEEP_INTERVAL = 10.0
#: consecutive collapsed sweeps before spill_engage fires on a link: 30 s
#: at the minimum window with a backlog is a stall, not a burst
COLLAPSE_TICKS = 3
#: per-subscriber in-flight window on the replay SST stream: overlaps the
#: read of one segment with the transfer of the next few, without letting
#: a catch-up flood the sink
SUBSCRIBER_WINDOW = 4


class FailoverSwitch:
    """One link's failover state machine: live → spilling → replaying → live.

    Transitions are recorded with timestamps so the DST handover oracle can
    audit that every spill epoch was closed by a handover.
    """

    def __init__(self, name: str):
        self.name = name
        self.state = LIVE
        #: (time, from_state, to_state) transitions, in order
        self.transitions: List[Tuple[float, str, str]] = []

    def set_state(self, state: str, time: float) -> None:
        if state not in FAILOVER_STATES:
            raise ValueError(f"unknown failover state {state!r}")
        if state != self.state:
            self.transitions.append((time, self.state, state))
            self.state = state

    def __repr__(self) -> str:
        return f"<FailoverSwitch {self.name!r} state={self.state}>"


class NoFailover:
    """Failover off: sheds stay sheds, nothing spills, nothing replays."""

    handovers = ()

    def request_catchup(self) -> None:
        pass


class FailoverManager:
    """Owns the spill store, the spill ledger, and the failover protocols.

    Attached by the pipeline builder when the spec enables failover; wires
    itself into the fate ledger (shed diversion, spill subscriber), the
    degradation trace (catch-up on recovery transitions), and the recovery
    manager (catch-up after REPLACE commits).
    """

    def __init__(self, env: Environment, pipe):
        self.env = env
        self.pipe = pipe
        self.store = SpillStore(env)
        fates = pipe.fates
        # every shed diverts to the spill path
        fates.divert_sheds = True
        # first-order sizing of a diverted shed: one full output step
        fates.spill_nbytes = float(pipe.driver.workload.bytes_per_step)
        fates.spill_subscribers.append(self._on_spill)
        self.ledger = pipe.spill_ledger = SpillLedger(fates)
        #: one failover switch per DataTap link
        self.switches: Dict[str, FailoverSwitch] = {
            lname: FailoverSwitch(lname) for lname in pipe.links
        }
        #: completed handovers (the no-gap/no-dup oracle's raw data)
        self.handovers: List[dict] = []
        #: spill_engage flushes: (time, link, chunks diverted)
        self.spill_epochs: List[tuple] = []
        self._replaying = False
        self._catchup_requested = False
        self._collapse_ticks: Dict[str, int] = {}
        self._stopped = False
        pipe.degradation.subscribers.append(self._on_transition)
        pipe.recovery.on_replace_complete = self._on_replace_complete
        pipe.failover = self
        self._proc = env.process(self._sweep(), name="failover-sweep")

    # -- stage/link mapping --------------------------------------------------------

    def _store_node(self):
        return self.pipe.global_manager.node

    def _link_for_stage(self, stage: str):
        container = self.pipe.containers.get(stage)
        if container is not None:
            return container.input_link
        return self.pipe.driver.writers[0].link

    def _switch_for_stage(self, stage: str) -> Optional[FailoverSwitch]:
        return self.switches.get(self._link_for_stage(stage).name)

    def _consumer_of(self, link):
        for container in self.pipe.containers.values():
            if container.input_link is link:
                return container
        return None

    def _sink(self):
        """The terminal consumer's (name, node) for the replay stream."""
        for name, container in self.pipe.containers.items():
            if container.output_link is not None:
                continue
            for replica in container.replicas:
                if not replica.crashed:
                    return name, replica.node
            return name, self._store_node()
        return "sink", self._store_node()

    # -- the spill path -------------------------------------------------------------

    def _on_spill(self, record, fates) -> None:
        """Ledger subscriber: make every spill durable.  A diverted shed
        also marks its stage's link spilling; a spill_engage flush leaves
        that to the protocol's mark round."""
        self.store.write_segment(self._store_node(), record)
        if record.reason not in SHED_REASONS:
            return
        switch = self._switch_for_stage(record.stage)
        if switch is not None and switch.state == LIVE:
            switch.set_state(SPILLING, record.time)
            self.pipe.telemetry.mark(record.time, f"failover: {switch.name} spilling")
        REGISTRY.count("failover.intercepted")

    # -- spill_engage protocol rounds -----------------------------------------------

    def engage_spill(self, link_name: str):
        """Process: run the spill_engage protocol on one collapsed link."""
        link = self.pipe.links[link_name]
        return self.pipe.control_plane.execute(
            SPILL_ENGAGE, subject=link_name,
            data={"fo": self, "link": link, "lname": link_name, "flushed": 0},
        )

    def _se_check(self, ctx):
        link = ctx["link"]
        undispatched = 0
        for writer in link.writers:
            for chunk_id in writer.buffer._chunks:
                if chunk_id not in writer._pulled and chunk_id not in writer._assigned:
                    undispatched += 1
        if undispatched == 0:
            raise ProtocolExit(0)

    def _se_flush(self, ctx):
        link, lname = ctx["link"], ctx["lname"]
        flushed = 0
        for writer in list(link.writers):
            for chunk in writer.spill_buffer():
                self.pipe.fates.spill(
                    chunk.timestep, lname, "credit_collapse", self.env.now,
                    nbytes=chunk.nbytes, chunk_id=chunk.chunk_id,
                )
                flushed += 1
        ctx["flushed"] = flushed

    def _se_mark(self, ctx):
        switch = self.switches.get(ctx["lname"])
        if switch is not None:
            switch.set_state(SPILLING, self.env.now)
        self.spill_epochs.append((self.env.now, ctx["lname"], ctx["flushed"]))
        self.pipe.telemetry.mark(
            self.env.now, f"failover: spill engaged on {ctx['lname']}"
        )
        ctx.result = ctx["flushed"]

    def _se_reopen(self, ctx):
        # Compensation: the flush already moved custody to the spill store
        # (durable), so nothing is lost — just unmark the epoch.
        switch = self.switches.get(ctx["lname"])
        if switch is not None and switch.state == SPILLING:
            switch.set_state(LIVE, self.env.now)

    def _se_abort(self, ctx):
        ctx.result = 0

    # -- replay_catchup protocol rounds ----------------------------------------------

    def request_catchup(self) -> None:
        """Ask the sweeper to run a catch-up at its next opportunity (the
        cold-start-attach and post-REPLACE triggers)."""
        self._catchup_requested = True

    def catchup(self):
        """Process: run the replay_catchup protocol now."""
        return self.pipe.control_plane.execute(
            REPLAY_CATCHUP, subject="spill-store",
            data={"fo": self, "replayed": 0, "superseded": 0},
        )

    def _rc_snapshot(self, ctx):
        if self._replaying:
            raise ProtocolExit("replay already in flight")
        pending = self.ledger.pending()
        if not pending:
            raise ProtocolExit(0)
        self._replaying = True
        ctx["batch"] = list(pending)
        ctx["watermark"] = max(r.seq for r in pending)
        for switch in self.switches.values():
            if switch.state == SPILLING:
                switch.set_state(REPLAYING, self.env.now)

    def _rc_stream(self, ctx):
        """Read pending segments in seq order and stream them to the sink
        over an SST stream — reader-side window, strict ordering."""
        reader_node = self._store_node()
        sink_name, sink_node = self._sink()
        stream = SstStream(
            self.env, name="replay", network=self.pipe.machine.network
        )
        subscriber = stream.subscribe(
            sink_name, node=sink_node, window=SUBSCRIBER_WINDOW
        )
        order: List[int] = []

        def consume():
            while True:
                chunk, attrs = yield subscriber.get()
                if attrs.get("eos"):
                    return
                record = attrs["record"]
                if self.pipe.fates.delivered(record.timestep):
                    self.pipe.fates.supersede(record.seq, self.env.now)
                    ctx["superseded"] += 1
                else:
                    # the replay-sink exit settles the spill as replayed
                    self.pipe.record_exit(chunk, sink=REPLAY_SINK)
                    ctx["replayed"] += 1
                    order.append(record.seq)

        consumer = self.env.process(consume(), name="replay-consume")
        for record in ctx["batch"]:
            yield self.store.read_segment(reader_node, record)
            chunk = DataChunk(
                timestep=record.timestep,
                nbytes=record.nbytes,
                provenance=("replay",),
                created_at=record.time,
                integrity=record.digest,
                chunk_id=next(self.env.chunk_ids),
            )
            yield stream.publish(chunk, {"record": record}, src_node=reader_node)
        yield stream.publish(
            DataChunk(timestep=-1, nbytes=0.0, created_at=self.env.now,
                      chunk_id=next(self.env.chunk_ids)),
            {"eos": True}, src_node=reader_node,
        )
        yield consumer
        subscriber.detach()
        ctx["order"] = order

    def _rc_handover(self, ctx):
        leftover = [
            r for r in self.ledger.pending() if r.seq <= ctx["watermark"]
        ]
        if leftover:
            raise ProtocolAbort(
                f"{len(leftover)} segments at or below the watermark "
                f"were not settled"
            )
        # Re-prime flow control: a resize-to-current re-drains any pushes
        # deferred while the link was degraded.
        for link in self.pipe.links.values():
            link.credits.resize(link.credits.window)
        for switch in self.switches.values():
            if switch.state != LIVE:
                switch.set_state(LIVE, self.env.now)
        self.handovers.append({
            "time": self.env.now,
            "watermark": ctx["watermark"],
            "expected": [r.seq for r in ctx["batch"]],
            "replayed": [
                r.seq for r in ctx["batch"] if r.status == "replayed"
            ],
            "superseded": [
                r.seq for r in ctx["batch"] if r.status == "superseded"
            ],
            "order": list(ctx.get("order", [])),
        })
        self.pipe.telemetry.mark(
            self.env.now,
            f"failover: handover at watermark {ctx['watermark']} "
            f"({ctx['replayed']} replayed, {ctx['superseded']} superseded)",
        )
        self._replaying = False
        ctx.result = ctx["replayed"]

    def _rc_abort(self, ctx):
        self._replaying = False
        ctx.result = ctx.get("replayed", 0)

    # -- triggers -------------------------------------------------------------------

    def _on_transition(self, step, trace) -> None:
        # Recovery-direction ladder transitions (undo_*) mean the consumer
        # side is healing: schedule a catch-up attempt.
        if str(getattr(step, "action", "")).startswith("undo"):
            self._catchup_requested = True

    def _on_replace_complete(self, name: str) -> None:
        self._catchup_requested = True

    # -- the sweeper ----------------------------------------------------------------

    def _healthy(self) -> bool:
        """Catch-up eligibility: the pressure that caused the spills is
        gone (ladder fully unwound, driver stride back to 1), or the run
        is over and only the backlog remains."""
        driver = self.pipe.driver
        if driver.finished.triggered:
            return True
        return (
            self.pipe.degradation.overall_level == 0
            and driver.output_stride == 1
        )

    def _sweep(self):
        while not self._stopped:
            yield self.env.timeout(SWEEP_INTERVAL)
            if self._stopped:
                return
            yield from self._check_collapse()
            if self._should_catchup():
                self._catchup_requested = False
                yield self.catchup()

    def _should_catchup(self) -> bool:
        if self._replaying or not self.ledger.pending():
            return False
        return self._healthy() or self._catchup_requested

    def _check_collapse(self):
        for lname, link in sorted(self.pipe.links.items()):
            consumer = self._consumer_of(link)
            if consumer is not None and consumer.gather_count > 1:
                # Fragment links: spilling one writer's fragment would
                # strand the gather of the others.  The driver-side stride
                # stride diversion covers this link's overload instead.
                continue
            if not link.credits.collapsed:
                self._collapse_ticks[lname] = 0
                continue
            ticks = self._collapse_ticks.get(lname, 0) + 1
            self._collapse_ticks[lname] = ticks
            if ticks >= COLLAPSE_TICKS:
                self._collapse_ticks[lname] = 0
                yield self.engage_spill(lname)

    def stop(self) -> None:
        self._stopped = True

    # -- reporting ------------------------------------------------------------------

    def summary(self) -> dict:
        return {
            "spilled": len(self.ledger),
            "pending": len(self.ledger.pending()),
            "by_status": self.ledger.by_status(),
            "by_reason": self.ledger.by_reason(),
            "handovers": len(self.handovers),
            "spill_epochs": len(self.spill_epochs),
            "store_bytes_written": self.store.fs.bytes_written,
            "store_bytes_read": self.store.fs.bytes_read,
        }

    def __repr__(self) -> str:
        return (
            f"<FailoverManager spilled={len(self.ledger)} "
            f"pending={len(self.ledger.pending())} "
            f"handovers={len(self.handovers)}>"
        )
