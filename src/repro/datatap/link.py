"""DataTap links: writer set -> reader set, with dynamic membership.

A link connects the replicas of an upstream stage to the replicas of a
downstream stage.  Metadata pushes are distributed round-robin across the
current reader set.  The link is where the container resize protocol touches
the data plane:

* ``add_reader`` wires a freshly spawned replica in (part of *increase*);
* ``remove_reader`` detaches a replica — legal only while all upstream
  writers are paused — and re-dispatches any metadata that had already been
  sent to the departing replica (part of *decrease*, no timestep loss);
* ``pause_writers`` / ``resume_writers`` run the quiesce protocol whose
  wait time dominates Figure 5.
"""

from __future__ import annotations

from typing import Dict, List

from repro.simkernel import Environment
from repro.simkernel.errors import SimulationError
from repro.evpath.channel import Messenger
from repro.evpath.messages import Message, MessageType
from repro.datatap.reader import DataTapReader
from repro.datatap.writer import DataTapWriter, METADATA_BYTES


class NoCredits:
    """The credit window of a link without flow control (the stand-in for
    :class:`~repro.overload.credits.LinkCredits`): every dispatch takes a
    credit at once, so nothing is ever deferred."""

    window = backlog = 0
    collapsed = False

    def try_acquire(self, writer_name: str, chunk_id: int) -> bool:
        return True

    def _ignore(self, *args) -> None:
        pass

    release = resize = reset = forget_writer = _ignore


class DataTapLink:
    """Round-robin distribution from N writers to M readers."""

    def __init__(self, env: Environment, messenger: Messenger, name: str = "link"):
        self.env = env
        self.messenger = messenger
        self.name = name
        self.writers: List[DataTapWriter] = []
        self.readers: List[DataTapReader] = []
        self._writers_by_name: Dict[str, DataTapWriter] = {}
        self._rr = 0
        #: chunk_ids that have completed a pull on this link — the dedup set
        #: making redelivery after a reader crash idempotent
        self.delivered = set()
        #: the credit window gating metadata dispatch: a
        #: :class:`~repro.overload.credits.LinkCredits` under backpressure,
        #: else :class:`NoCredits` (no flow control)
        self.credits = NoCredits()
        #: monitoring
        self.redispatched = 0
        self.dup_dropped = 0

    # -- membership --------------------------------------------------------------------

    def add_writer(self, writer: DataTapWriter) -> DataTapWriter:
        if writer.name in self._writers_by_name:
            raise SimulationError(f"writer {writer.name!r} already on link {self.name!r}")
        writer.link = self
        self.writers.append(writer)
        self._writers_by_name[writer.name] = writer
        return writer

    def add_reader(self, reader: DataTapReader) -> DataTapReader:
        if any(r.name == reader.name for r in self.readers):
            raise SimulationError(f"reader {reader.name!r} already on link {self.name!r}")
        reader.link = self
        self.readers.append(reader)
        return reader

    def remove_reader(self, reader: DataTapReader) -> None:
        """Detach a reader and re-dispatch its undelivered metadata.

        Upstream writers must be paused (enforced) so no push races the
        teardown.
        """
        if any(not w.paused for w in self.writers):
            raise SimulationError(
                f"link {self.name!r}: remove_reader requires all writers paused"
            )
        if reader not in self.readers:
            raise SimulationError(f"reader {reader.name!r} not on link {self.name!r}")
        self.readers.remove(reader)
        pending = reader.stop()
        if pending and not self.readers:
            raise SimulationError(
                f"link {self.name!r}: removing last reader would strand "
                f"{len(pending)} chunks"
            )
        for meta in pending:
            try:
                writer = self.writer_by_name(meta.payload["writer"])
            except SimulationError:
                continue  # writer itself was torn down (crash recovery)
            if not writer.needs_delivery(meta.payload["chunk_id"]):
                continue  # pull completed despite the teardown; nothing to do
            # Re-dispatch bypasses any credit window: the original dispatch
            # already holds the chunk's credit, released at pull completion.
            self.redispatched += 1
            target = self.readers[self._rr % len(self.readers)]
            self._rr += 1
            self.messenger.send(
                writer.node,
                target.name,
                Message(
                    MessageType.DATA_METADATA,
                    sender=writer.name,
                    payload=meta.payload,
                    size_bytes=METADATA_BYTES,
                ),
            )

    def remove_writer(self, writer: DataTapWriter) -> None:
        """Detach a writer whose host died; its buffered chunks are lost.

        Metadata already pushed for those chunks becomes orphaned — readers
        drop it on lookup failure and count it, so the loss is visible
        rather than fatal.
        """
        if writer not in self.writers:
            raise SimulationError(f"writer {writer.name!r} not on link {self.name!r}")
        self.writers.remove(writer)
        del self._writers_by_name[writer.name]
        writer.link = None
        self.credits.forget_writer(writer.name)

    # -- routing ---------------------------------------------------------------------

    def writer_by_name(self, name: str) -> DataTapWriter:
        try:
            return self._writers_by_name[name]
        except KeyError:
            raise SimulationError(f"unknown writer {name!r} on link {self.name!r}") from None

    def next_reader_for(self, writer: DataTapWriter) -> str:
        """Round-robin target selection for a metadata push.

        Crashed (but not yet replaced) readers are skipped while any live
        reader remains, so new timesteps keep flowing during recovery.
        """
        if not self.readers:
            raise SimulationError(f"link {self.name!r} has no readers")
        candidates = [r for r in self.readers if not r.stopped] or self.readers
        reader = candidates[self._rr % len(candidates)]
        self._rr += 1
        return reader.name

    # -- quiesce protocol ----------------------------------------------------------------

    def pause_writers(self):
        """Process: pause every writer; fires when all report quiesced."""
        return self.env.process(self._pause_writers(), name=f"pause:{self.name}")

    def _pause_writers(self):
        if not self.writers:
            yield self.env.timeout(0)
            return 0.0
        start = self.env.now
        yield self.env.all_of([w.pause() for w in self.writers])
        return self.env.now - start

    def resume_writers(self):
        return self.env.process(self._resume_writers(), name=f"resume:{self.name}")

    def _resume_writers(self):
        if self.writers:
            yield self.env.all_of([w.resume() for w in self.writers])
        else:
            yield self.env.timeout(0)
        return True

    def drain_readers(self):
        """Process: fires when no reader has a pull in flight."""
        return self.env.process(self._drain_readers(), name=f"drainlink:{self.name}")

    def _drain_readers(self):
        if self.readers:
            yield self.env.all_of([r.drain() for r in self.readers])
        else:
            yield self.env.timeout(0)
        return True
