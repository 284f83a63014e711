"""Mutants: monkeypatches that each put one mended bug back.

A mutant patches one built pipeline (or one class) and nothing else, so no
production code carries a hook for it.  Tests apply a mutant and assert
that the DST oracles still catch it, which keeps every mended bug caught.
"""


def skip_steal_restock(pipe):
    """A ``gm_steal`` abort that drops the donor's freed nodes instead of
    returning them to the spare pool (the consistency guarantee of the
    paper's Section III-A item 5).  The nodes stay with the ended steal."""
    gm = pipe.global_manager

    def abort(ctx):
        gm.actions_taken.append(
            f"steal {ctx['donor']}->{ctx['recipient']} aborted; nodes dropped"
        )
        ctx.result = []

    gm._gms_abort = abort


def skip_retire_move(pipe):
    """A decrease that retires replicas without handing their nodes to the
    owner the request names: the scheduler still records them with the
    container they left, so the next checked move of them fails."""
    for lm in pipe.global_manager.locals.values():
        def retire(ctx, lm=lm):
            ctx["freed"] = lm.container.remove_replicas(ctx["count"])
            lm._unwatch_departed()
            ctx.charge("intra_container", 0.0, messages=ctx["count"])

        lm._dec_retire = retire


def service_process(pipe):
    """The replica worker that starts a service process per chunk and
    forwards a hard retire's interrupt to it (:mod:`tests.oracles.replica`).
    A crash after the compute, while the service hashes or emits,
    interrupts a service process nobody waits on, and the ``Interrupt``
    escapes the run.  Built replicas switch class, and their workers (not
    started yet: a hook runs before the pipeline does) run the old
    generator; replicas spawned later are built from the old class."""
    from repro.containers import Replica
    from tests.oracles.replica import PATCHES

    old = type("ServiceProcessReplica", (Replica,), {attr: fn for _, attr, fn in PATCHES})
    for container in pipe.containers.values():
        container._replica_cls = old
        for replica in container.replicas:
            replica.__class__ = old
            if replica._worker is not None:
                replica._worker._generator = replica._work()


#: name -> mutant, for sweeps that run every mutant
MUTANTS = {"skip_steal_restock": skip_steal_restock,
           "skip_retire_move": skip_retire_move,
           "service_process": service_process}
