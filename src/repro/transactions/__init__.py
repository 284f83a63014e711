"""D2T: doubly distributed transactions for resilient control operations.

The paper (Section III-A item 5, Figure 6, and reference [14] — Lofstead et
al., "D2T: Doubly Distributed Transactions") wraps multi-party control
actions in transactions so that failures cannot leave the system
inconsistent — e.g. a node removed from one container but never added to
another.

"Doubly distributed" means both sides of the operation are process *groups*
(e.g. 512 writer cores and 4 reader cores): a coordinator runs two-phase
commit across group roots, and each group aggregates votes/acks internally
over a k-ary tree, which is what gives the protocol its scalability (Fig 6).

Components:

* :class:`TxnParticipant` / :class:`TxnGroup` — tree-structured members,
  each a callback walker driven by the messages delivered to it;
* :class:`D2TCoordinator` — two-phase commit across group roots with
  presumed-abort timeouts;
* :class:`TransactionManager` — high-level API, including the
  container-trade transaction used by the global manager;
* :class:`FailureInjector` — deterministic fault injection for tests.
"""

from repro.transactions.failures import FailureInjector
from repro.transactions.participants import TxnGroup, TxnParticipant
from repro.transactions.coordinator import D2TCoordinator, TxnOutcome
from repro.transactions.d2t import TransactionManager

__all__ = [
    "D2TCoordinator",
    "FailureInjector",
    "TransactionManager",
    "TxnGroup",
    "TxnOutcome",
    "TxnParticipant",
]
