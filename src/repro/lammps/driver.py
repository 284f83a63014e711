"""The simulated LAMMPS application inside the DES.

The driver models the parallel simulation as seen by the I/O pipeline: every
``output_interval`` seconds of computation it emits one timestep of output —
``bytes_per_step`` split across its I/O aggregator writers — through the
ADIOS/DataTap path.  Writes are asynchronous, so the application only stalls
when the writer-side staging buffers are full; that stall time is recorded as
``blocked_time`` (the "application blocking" the containers runtime must
prevent).

A configurable *crack step* marks all chunks from that step onward with
``payload={'crack': True}``: the data-dependent event that triggers the
SmartPointer pipeline's dynamic branch (CSym detects the break, Bonds hands
off to CNA).
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.simkernel import Environment, Event
from repro.data import DataChunk
from repro.datatap.writer import DataTapWriter
from repro.datatap.scheduling import NoPullScheduler, PullScheduler
from repro.lammps.workload import WeakScalingWorkload

#: I/O aggregator writers each output step is split across (one DataTap
#: writer apiece); the first stage gathers this many partial writes per step
NUM_SIM_WRITERS = 4

#: nominal cost of an unblocked output write (local buffering): write time
#: beyond it counts as application blocking
WRITE_PHASE_DURATION = 0.5


class LammpsDriver:
    """Emits weak-scaling output through DataTap writers on a cadence."""

    def __init__(
        self,
        env: Environment,
        writers: List[DataTapWriter],
        workload: WeakScalingWorkload,
        pull_scheduler: PullScheduler | NoPullScheduler,
        crack_step: Optional[int] = None,
    ):
        if not writers:
            raise ValueError("driver needs at least one writer")
        self.env = env
        self.writers = writers
        self.workload = workload
        self.crack_step = crack_step
        self.pull_scheduler = pull_scheduler

        #: fires when all steps have been emitted
        self.finished = Event(env)
        #: emit only every k-th output step — the backpressure controller's
        #: upstream signal: a congested pipeline raises the stride so the
        #: application sheds output instead of blocking on full buffers
        self.output_stride = 1
        #: output steps skipped under a raised stride
        self.steps_shed = 0
        #: called with the step number for each stride-skipped step (the
        #: shed ledger's accounting hook)
        self.on_shed: Optional[Callable[[int], None]] = None
        #: time the application spent blocked on full staging buffers
        #: (completed waits only; see :attr:`total_blocked_time`)
        self.blocked_time = 0.0
        self._write_started: Optional[float] = None
        #: emit wall-clock time of each output step
        self.emit_times: List[float] = []
        self._proc = env.process(self._run(), name="lammps")

    @property
    def steps_emitted(self) -> int:
        return len(self.emit_times)

    @property
    def is_blocked(self) -> bool:
        """True while an output write is stalled on full staging buffers."""
        return (
            self._write_started is not None
            and self.env.now - self._write_started > WRITE_PHASE_DURATION
        )

    @property
    def total_blocked_time(self) -> float:
        """Blocked time including a still-ongoing stall (a fully wedged
        pipeline otherwise reports zero because the write never returns)."""
        total = self.blocked_time
        if self._write_started is not None:
            total += max(
                0.0, self.env.now - self._write_started - WRITE_PHASE_DURATION
            )
        return total

    def _run(self):
        wl = self.workload
        per_writer = wl.bytes_per_step / len(self.writers)
        atoms_per_writer = wl.natoms // len(self.writers)
        for step in range(wl.total_steps):
            # Compute phase between outputs.
            yield self.env.timeout(wl.output_interval)

            if self.output_stride > 1 and step % self.output_stride != 0:
                # Backpressure stride in effect: the step's output is shed
                # at the source (computation continues; only I/O is skipped).
                self.steps_shed += 1
                if self.on_shed is not None:
                    self.on_shed(step)
                continue
            cracked = self.crack_step is not None and step >= self.crack_step
            self.pull_scheduler.output_phase_begin()
            write_start = self.env.now
            self._write_started = write_start
            writes = []
            for writer in self.writers:
                chunk = DataChunk(
                    timestep=step,
                    nbytes=per_writer,
                    natoms=atoms_per_writer,
                    payload={"crack": cracked},
                    created_at=self.env.now,
                    entered_stage_at=self.env.now,
                    chunk_id=next(self.env.chunk_ids),
                )
                writes.append(writer.write(chunk))
            yield self.env.all_of(writes)
            elapsed = self.env.now - write_start
            self._write_started = None
            # Anything beyond the nominal local-buffering cost is blocking.
            self.blocked_time += max(0.0, elapsed - WRITE_PHASE_DURATION)
            self.pull_scheduler.output_phase_end()
            self.emit_times.append(self.env.now)
        self.finished.succeed(self.env.now)
