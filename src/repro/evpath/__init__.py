"""EVPath-like event messaging: channels and monitoring overlays.

The real system uses Georgia Tech's EVPath library for two things:

1. carrying the container-management *control messages* (the rounds in
   Figure 3) between the global manager, container managers, and component
   executables, and
2. building the *dynamic monitoring overlays* that aggregate per-container
   metrics up to the managers.

This package reproduces that functionality on top of the simulated network:

* :class:`Endpoint` — a mailbox pinned to a cluster node;
* :class:`Messenger` — typed point-to-point delivery and request/reply
  between endpoints with a control-message cost model;
* :class:`OverlayTree` — a k-ary aggregation tree over a set of leaf nodes,
  used by container monitoring.
"""

from repro.evpath.messages import Message, MessageType
from repro.evpath.endpoint import Endpoint
from repro.evpath.channel import Messenger, RequestTimeout, RetryPolicy
from repro.evpath.overlay import OverlayTree

__all__ = [
    "Endpoint",
    "Message",
    "MessageType",
    "Messenger",
    "OverlayTree",
    "RequestTimeout",
    "RetryPolicy",
]
