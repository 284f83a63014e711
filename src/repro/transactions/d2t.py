"""High-level transaction API, including the container-trade transaction."""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.simkernel import Environment
from repro.cluster.node import Node
from repro.controlplane import ControlPlaneEngine, ProtocolAbort, protocols
from repro.evpath.channel import Messenger
from repro.transactions.coordinator import D2TCoordinator
from repro.transactions.failures import FailureInjector
from repro.transactions.participants import TxnGroup, TxnParticipant


class TransactionManager:
    """Owns a coordinator and offers composed transactional operations."""

    def __init__(
        self,
        env: Environment,
        messenger: Messenger,
        node: Node,
        injector: Optional[FailureInjector] = None,
        vote_timeout: float = 5.0,
        ack_timeout: float = 5.0,
        engine: Optional[ControlPlaneEngine] = None,
    ):
        self.env = env
        self.messenger = messenger
        self.node = node
        self.injector = injector
        self.engine = engine if engine is not None else ControlPlaneEngine(env)
        self.coordinator = D2TCoordinator(
            env, messenger, node, vote_timeout=vote_timeout, ack_timeout=ack_timeout,
            engine=self.engine,
        )
        #: scripted trade failures: list of ("decrease"|"increase") to fail,
        #: consumed in order — used by resilience tests
        self.trade_faults: List[str] = []
        self.trades_committed = 0
        self.trades_aborted = 0
        self.trades_compensated = 0

    # -- generic transactions ---------------------------------------------------------

    def build_group(
        self,
        name: str,
        nodes: List[Node],
        fanout: int = 8,
        vote_fn: Optional[Callable[[int], bool]] = None,
    ) -> TxnGroup:
        participants = [
            TxnParticipant(
                self.env,
                self.messenger,
                node,
                name=f"{name}-p{i}",
                vote_fn=vote_fn,
                injector=self.injector,
            )
            for i, node in enumerate(nodes)
        ]
        return TxnGroup(name, participants, fanout=fanout)

    def run(self, groups: List[TxnGroup]):
        """Process: run one transaction; value is :class:`TxnOutcome`."""
        return self.coordinator.run(groups)

    # -- the resource-trade transaction --------------------------------------------------

    def run_trade(self, global_manager, donor: str, recipient: str, count: int):
        """Process: move ``count`` nodes donor -> recipient, atomically-ish.

        The guarantee the paper asks for: a node removed from the donor is
        either added to the recipient or returned to the spare pool — never
        lost.  Prepare checks both parties can perform their half; the
        commit executes decrease-then-increase; a failure after the decrease
        triggers compensation (freed nodes go to the spare pool) and is
        reported, not silently dropped.
        """
        return self.engine.execute(
            protocols.TRADE,
            subject=f"{donor}->{recipient}",
            data={
                "tm": self,
                "gm": global_manager,
                "donor": donor,
                "recipient": recipient,
                "count": count,
                "freed": [],
            },
        )

    # TRADE round bodies ---------------------------------------------------------------

    def _tr_prepare(self, ctx):
        """Prepare / vote: both parties check feasibility."""
        gm = ctx["gm"]
        donor, recipient = ctx["donor"], ctx["recipient"]
        donor_mgr = gm._manager(donor)
        recipient_mgr = gm._manager(recipient)
        donor_can = (
            donor_mgr.container.units > ctx["count"]
            and not donor_mgr.container.offline
        )
        recipient_can = (
            not recipient_mgr.container.offline and recipient_mgr.container.active
        )
        if not (donor_can and recipient_can):
            self.trades_aborted += 1
            gm.actions_taken.append(f"trade {donor}->{recipient} aborted (prepare)")
            yield self.env.timeout(0)
            raise ProtocolAbort("prepare refused", result=[])

    def _tr_fault(self, ctx, kind: str) -> None:
        """Scripted failure injection point (resilience tests)."""
        if not (self.trade_faults and self.trade_faults[0] == kind):
            return
        self.trade_faults.pop(0)
        gm = ctx["gm"]
        donor, recipient = ctx["donor"], ctx["recipient"]
        if kind == "decrease":
            self.trades_aborted += 1
            gm.actions_taken.append(
                f"trade {donor}->{recipient} aborted (decrease failed)"
            )
            raise ProtocolAbort("decrease failed", result=[])
        # An increase-side failure aborts *after* the decrease committed:
        # the decrease round's compensation returns the freed nodes.
        raise ProtocolAbort("increase failed", result=[])

    def _tr_decrease(self, ctx):
        ctx["freed"] = yield ctx["gm"].decrease(ctx["donor"], ctx["count"],
                                                to=ctx.trace)

    def _tr_compensate(self, ctx) -> None:
        """The freed nodes must not be lost — back to the spare pool."""
        gm = ctx["gm"]
        freed = ctx["freed"]
        gm.scheduler.restock(freed, ctx.trace)
        self.trades_compensated += 1
        gm.actions_taken.append(
            f"trade {ctx['donor']}->{ctx['recipient']} compensated "
            f"({len(freed)} nodes to spare)"
        )

    def _tr_increase(self, ctx):
        freed = ctx["freed"]
        yield ctx["gm"].increase(ctx["recipient"], len(freed), nodes=freed,
                                 holder=ctx.trace)

    def _tr_commit(self, ctx) -> None:
        gm = ctx["gm"]
        freed = ctx["freed"]
        self.trades_committed += 1
        gm.actions_taken.append(
            f"trade {ctx['donor']}->{ctx['recipient']} committed x{len(freed)}"
        )
        ctx.result = freed
