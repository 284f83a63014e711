"""Bounded item stores (queues) for producer/consumer processes.

Staging-area queues are the load-bearing data structure of the paper's
evaluation: Figures 8–10 are about whether the queue in front of the
bottleneck container overflows before the run completes.  :class:`Store`
therefore tracks its high-water mark.  A ``put`` on a full store waits, in
FIFO order with the other blocked puts: it models blocking the upstream
writer, which ultimately blocks the simulation.
"""

from __future__ import annotations

from typing import Any, Callable, List

from repro.simkernel.errors import SimulationError
from repro.simkernel.events import Event


class StorePut(Event):
    __slots__ = ("item",)

    def __init__(self, store: "Store", item: Any):
        super().__init__(store.env)
        self.item = item
        store._put_queue.append(self)
        store._dispatch()


class StoreReserve(Event):
    """A claim on one unit of store capacity, fulfilled with an item later.

    Readers that must not move data before they have room (DataTap's
    pull-when-ready discipline) reserve a slot first, then call
    :meth:`Store.fulfill` with the actual item once it has been pulled.
    """

    __slots__ = ("store", "fulfilled", "cancelled")

    def __init__(self, store: "Store"):
        super().__init__(store.env)
        self.store = store
        self.fulfilled = False
        self.cancelled = False
        store._put_queue.append(self)
        store._dispatch()


class StoreGet(Event):
    __slots__ = ()

    def __init__(self, store: "Store"):
        super().__init__(store.env)
        store._get_queue.append(self)
        store._dispatch()


class FilterStoreGet(StoreGet):
    __slots__ = ("filter",)

    def __init__(self, store: "Store", filter: Callable[[Any], bool]):
        self.filter = filter
        super().__init__(store)


class Store:
    """A FIFO item store with optional bounded capacity.

    Parameters
    ----------
    env:
        Simulation environment.
    capacity:
        Maximum items held; ``float('inf')`` for unbounded.
    name:
        Label used in monitoring.
    """

    def __init__(self, env, capacity: float = float("inf"), name: str = "store"):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.name = name
        self.items: List[Any] = []
        self._reserved = 0
        self._put_queue: List[StorePut] = []
        self._get_queue: List[StoreGet] = []
        #: Highest number of items ever held (monitoring hook).
        self.high_water: int = 0

    # -- public API ------------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.items)

    @property
    def full(self) -> bool:
        return len(self.items) + self._reserved >= self.capacity

    @property
    def reserved(self) -> int:
        return self._reserved

    def put(self, item: Any) -> StorePut:
        """Queue ``item``; the returned event fires once the item is stored."""
        return StorePut(self, item)

    def reserve(self) -> StoreReserve:
        """Claim a capacity slot; fires once the slot is granted."""
        return StoreReserve(self)

    def fulfill(self, reservation: StoreReserve, item: Any) -> None:
        """Deposit ``item`` into a previously granted reservation."""
        if not reservation.triggered or reservation.store is not self:
            raise SimulationError("fulfill() requires a granted reservation on this store")
        if reservation.fulfilled or reservation.cancelled:
            raise SimulationError("reservation already consumed")
        reservation.fulfilled = True
        self._reserved -= 1
        self.items.append(item)
        self.high_water = max(self.high_water, len(self.items) + self._reserved)
        self._dispatch()

    def cancel_reservation(self, reservation: StoreReserve) -> None:
        """Return a granted-but-unused slot to the store."""
        if reservation.fulfilled or reservation.cancelled:
            return
        reservation.cancelled = True
        if reservation.triggered:
            self._reserved -= 1
            self._dispatch()
        elif reservation in self._put_queue:
            self._put_queue.remove(reservation)

    def get(self) -> StoreGet:
        """Request one item; the returned event fires with the item."""
        return StoreGet(self)

    def cancel_get(self, event: StoreGet) -> None:
        """Withdraw a pending get (e.g. a receive abandoned by a timeout).

        No-op if the get already fired — the caller must then consume or
        re-store the item itself.
        """
        if not event.triggered and event in self._get_queue:
            self._get_queue.remove(event)

    # -- internals ---------------------------------------------------------------

    def _try_put(self, event) -> bool:
        if len(self.items) + self._reserved < self.capacity:
            if isinstance(event, StoreReserve):
                self._reserved += 1
                event.succeed(event)
            else:
                self.items.append(event.item)
                self.high_water = max(self.high_water, len(self.items) + self._reserved)
                event.succeed()
            return True
        return False

    def _try_get(self, event: StoreGet) -> bool:
        if isinstance(event, FilterStoreGet):
            for i, item in enumerate(self.items):
                if event.filter(item):
                    del self.items[i]
                    event.succeed(item)
                    return True
            return False
        if self.items:
            event.succeed(self.items.pop(0))
            return True
        return False

    def _dispatch(self) -> None:
        """Match queued puts and gets until no more progress is possible."""
        progress = True
        while progress:
            progress = False
            put_queue = self._put_queue
            while put_queue:
                # Only the head may go: blocked puts keep their FIFO order.
                event = put_queue[0]
                if event.triggered or self._try_put(event):
                    put_queue.pop(0)
                    progress = True
                else:
                    break
            idx = 0
            while idx < len(self._get_queue):
                event = self._get_queue[idx]
                if event.triggered:
                    self._get_queue.pop(idx)
                    progress = True
                elif self._try_get(event):
                    self._get_queue.pop(idx)
                    progress = True
                else:
                    idx += 1


class FilterStore(Store):
    """A store whose ``get`` can select items by predicate."""

    def get(self, filter: Callable[[Any], bool] = lambda item: True) -> FilterStoreGet:  # type: ignore[override]
        return FilterStoreGet(self, filter)
