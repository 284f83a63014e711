"""Credit-based backpressure on DataTap links.

A :class:`LinkCredits` gates *metadata dispatch* on one link: a writer may
push metadata for a chunk only while the link holds fewer than ``window``
undelivered chunks in flight; beyond that the push is deferred (the chunk
stays safely in the writer's staging buffer).  Credits return when the
downstream reader finishes with the chunk — pull completed, duplicate
dropped, pull failed, or metadata orphaned — at which point deferred
pushes drain in arrival order.

The window is resized continuously by the
:class:`~repro.overload.backpressure.BackpressureController` from
downstream headroom (consumer queue slots scaled by the consumer's *own*
output-buffer occupancy), which is what propagates pressure upstream
hop-by-hop: a slow terminal stage shrinks its input window, its
producers' buffers fill, *their* link's window shrinks in turn, until the
pressure reaches the LAMMPS driver as an output-stride signal instead of
an unbounded block.

Recovery traffic — crash redelivery and teardown re-dispatch — bypasses
credits by design: it re-pushes chunks that already consumed a credit (or
whose reader died holding one), and throttling the recovery path would
couple fault handling to flow control.  ``release`` is idempotent, so a
bypassing chunk's completion is a no-op here.

A link without flow control carries a :class:`~repro.datatap.link.NoCredits`,
which grants every dispatch at once.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Tuple, TYPE_CHECKING

from repro.perf.registry import REGISTRY

if TYPE_CHECKING:
    from repro.datatap.link import DataTapLink
    from repro.datatap.writer import DataTapWriter
    from repro.data import DataChunk


#: the smallest credit window: one chunk in flight keeps a congested link
#: moving, where a window of 0 would defer every dispatch until a resize
#: grew it
MIN_WINDOW = 1


class LinkCredits:
    """Per-link credit window over undelivered metadata pushes."""

    def __init__(self, env, link: "DataTapLink", window: int = 8):
        self.env = env
        self.link = link
        self.window = max(MIN_WINDOW, int(window))
        #: chunk_id -> writer name currently holding a credit
        self._held: Dict[int, str] = {}
        #: (writer, chunk) dispatches waiting for a credit, in arrival order
        self._deferred: Deque[Tuple["DataTapWriter", "DataChunk"]] = deque()
        #: monitoring
        self.granted = 0
        self.deferred_total = 0
        self.resizes = 0

    # -- state ------------------------------------------------------------------

    @property
    def outstanding(self) -> int:
        return len(self._held)

    @property
    def backlog(self) -> int:
        return len(self._deferred)

    @property
    def collapsed(self) -> bool:
        """Squeezed to :data:`MIN_WINDOW` with dispatches still waiting."""
        return self.window <= MIN_WINDOW and self.backlog > 0

    @property
    def pressure(self) -> float:
        """Demand over capacity; > 1.0 means dispatches are queueing."""
        return (self.outstanding + self.backlog) / max(1, self.window)

    # -- the credit protocol ------------------------------------------------------

    def try_acquire(self, writer_name: str, chunk_id: int) -> bool:
        """Take a credit for a chunk; False when the window is exhausted."""
        if chunk_id in self._held:
            return True  # a re-dispatch of the same chunk rides its credit
        if self.outstanding >= self.window:
            return False
        self._held[chunk_id] = writer_name
        self.granted += 1
        REGISTRY.count("datatap.credits_granted")
        return True

    def defer(self, writer: "DataTapWriter", chunk) -> None:
        """Queue a dispatch until a credit frees up."""
        self._deferred.append((writer, chunk))
        self.deferred_total += 1
        REGISTRY.count("datatap.meta_deferred")

    def release(self, chunk_id: int) -> None:
        """Return a chunk's credit (idempotent) and drain deferred pushes."""
        if self._held.pop(chunk_id, None) is None:
            return
        self._pump()

    def resize(self, window: int) -> None:
        """Set the window (floored at :data:`MIN_WINDOW`); growth drains deferrals."""
        window = max(MIN_WINDOW, int(window))
        if window != self.window:
            self.resizes += 1
            self.window = window
        self._pump()

    def reset(self) -> None:
        """Forget all held credits (container reactivation: the downstream
        state they described is gone) and re-drain the deferral queue."""
        self._held.clear()
        self._pump()

    def forget_writer(self, writer_name: str) -> None:
        """Drop a departed writer's credits and queued dispatches."""
        for chunk_id in [c for c, w in self._held.items() if w == writer_name]:
            del self._held[chunk_id]
        self._deferred = deque(
            (w, c) for w, c in self._deferred if w.name != writer_name
        )
        self._pump()

    # -- internals -----------------------------------------------------------------

    def _pump(self) -> None:
        while self._deferred and self.outstanding < self.window:
            writer, chunk = self._deferred.popleft()
            if writer.link is not self.link:
                continue  # writer left the link while deferred
            if not writer.needs_delivery(chunk.chunk_id):
                continue  # delivered (or flushed) while waiting; no push owed
            if writer.paused:
                # Hand the chunk to the pause backlog; resume re-dispatches
                # it through the credit gate.
                if chunk not in writer._pending_meta:
                    writer._pending_meta.append(chunk)
                continue
            self._held[chunk.chunk_id] = writer.name
            self.granted += 1
            REGISTRY.count("datatap.credits_granted")
            writer.spawn_metadata_push(chunk)

    def __repr__(self) -> str:
        return (
            f"<LinkCredits {self.link.name!r} window={self.window} "
            f"held={self.outstanding} deferred={self.backlog}>"
        )

