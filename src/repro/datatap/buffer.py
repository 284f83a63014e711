"""Writer-side staging buffers.

A :class:`StagingBuffer` holds chunks on the producer's node between the
asynchronous write and the reader's pull.  It reserves real node memory, so a
stalled reader eventually exhausts the buffer and blocks the producer — the
failure mode whose *prediction* triggers the offline decision in Figure 9.
"""

from __future__ import annotations

from typing import Dict, List

from repro.simkernel import Environment, Event
from repro.simkernel.errors import SimulationError
from repro.cluster.node import Node
from repro.data import DataChunk
from repro.perf.registry import REGISTRY

# Pre-resolved counter handles: these fire once per chunk on the data
# path, so skip the per-call dict lookup of REGISTRY.count.
_INSERTS = REGISTRY.handle("datatap.buffer_inserts")
_EVICTIONS = REGISTRY.handle("datatap.buffer_evictions")


class BufferFull(SimulationError):
    """Raised on non-blocking insert into a full buffer."""


class StagingBuffer:
    """A bounded, memory-reserving chunk buffer on one node.

    Parameters
    ----------
    capacity_bytes:
        Maximum buffered payload.  DataTap deployments size it at half the
        node's free memory at construction (``node.memory_free / 2``).
    """

    def __init__(
        self,
        env: Environment,
        node: Node,
        capacity_bytes: float,
        name: str = "buffer",
    ):
        self.env = env
        self.node = node
        self.name = name
        if capacity_bytes <= 0:
            raise ValueError(f"capacity_bytes must be positive, got {capacity_bytes}")
        self.capacity_bytes = float(capacity_bytes)
        self._chunks: Dict[int, DataChunk] = {}
        self._used = 0.0
        self._space_waiters: List[Event] = []
        #: monitoring
        self.high_water_bytes = 0.0
        self.inserts = 0
        self.evictions = 0

    # -- state ------------------------------------------------------------------

    @property
    def used_bytes(self) -> float:
        return self._used

    @property
    def occupancy(self) -> float:
        """Fraction of capacity in use, in [0, 1]."""
        return self._used / self.capacity_bytes

    def __len__(self) -> int:
        return len(self._chunks)

    def __contains__(self, chunk_id: int) -> bool:
        return chunk_id in self._chunks

    # -- operations ----------------------------------------------------------------

    def try_insert(self, chunk: DataChunk) -> bool:
        """Insert without blocking; False if there is no room."""
        if chunk.nbytes > self.capacity_bytes:
            raise BufferFull(
                f"{self.name}: chunk of {chunk.nbytes:.0f} B exceeds capacity "
                f"{self.capacity_bytes:.0f} B"
            )
        if self._used + chunk.nbytes > self.capacity_bytes:
            return False
        self.node.reserve_memory(chunk.nbytes)
        self._chunks[chunk.chunk_id] = chunk
        self._used += chunk.nbytes
        self.high_water_bytes = max(self.high_water_bytes, self._used)
        self.inserts += 1
        _INSERTS.add()
        # The timer's max across all buffers is the fleet high-water mark.
        REGISTRY.record_duration("datatap.buffer_occupancy", self.occupancy)
        return True

    def space_waiter(self) -> Event:
        """An event that fires at the next release: a writer whose chunk
        did not fit waits on it, then tries to insert again."""
        waiter = Event(self.env)
        self._space_waiters.append(waiter)
        return waiter

    def get(self, chunk_id: int) -> DataChunk:
        """Look up a buffered chunk (it stays buffered until released)."""
        try:
            return self._chunks[chunk_id]
        except KeyError:
            raise SimulationError(f"{self.name}: chunk {chunk_id} not buffered") from None

    def release(self, chunk_id: int) -> DataChunk:
        """Drop a chunk after the reader confirms its pull completed."""
        chunk = self._chunks.pop(chunk_id, None)
        if chunk is None:
            raise SimulationError(f"{self.name}: releasing unknown chunk {chunk_id}")
        self._used -= chunk.nbytes
        self.node.free_memory(chunk.nbytes)
        self.evictions += 1
        _EVICTIONS.add()
        waiters, self._space_waiters = self._space_waiters, []
        for waiter in waiters:
            waiter.succeed()
        return chunk
