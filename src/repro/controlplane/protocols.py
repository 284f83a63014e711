"""Declarative round specs for every control protocol in the framework.

This module is the single catalogue of the framework's control protocols:
the six container protocols of Section III-D (Figure 3) as executed by the
local manager, the global manager's orchestration protocols with their
mid-protocol abort paths, the REPLACE recovery ladder, and the D2T
transaction protocols (Figure 6).  Each is a :class:`ProtocolSpec` — a
named sequence of rounds with guards, trace labels, timeouts, and
compensation — executed by the shared
:class:`~repro.controlplane.engine.ControlPlaneEngine`.

Round handlers dispatch into the owning object, carried in the context
state (``ctx["lm"]``, ``ctx["gm"]``, ``ctx["rm"]``, ``ctx["tm"]``,
``ctx["coord"]``), so the specs stay declarations: the *shape* of a
protocol (its rounds, their order, what aborts and what compensates) lives
here; the domain work lives with the domain object.  Adding a protocol is
a new spec plus its round bodies — the engine supplies sequencing,
timeout enforcement, abort unwinding, and structured tracing.
"""

from __future__ import annotations

from repro.controlplane.engine import ProtocolSpec, Round
from repro.evpath.messages import MessageType
from repro.smartpointer.costs import ComputeModel


# ---------------------------------------------------------------------------
# Container protocols (local-manager side, Figure 3-5)
# ---------------------------------------------------------------------------

def _parallel(ctx) -> bool:
    return ctx["lm"].container.model is ComputeModel.PARALLEL


def _has_link(ctx) -> bool:
    return ctx["lm"].container.input_link is not None


#: INCREASE (Figure 3): spawn replicas on the granted nodes and wire them
#: into the container; PARALLEL components relaunch via aprun instead.
INCREASE = ProtocolSpec(
    "increase",
    rounds=(
        Round("request", enter_label="global->local: increase request"),
        Round("relaunch", when=_parallel,
              handler=lambda ctx: ctx["lm"]._relaunch_parallel(
                  ctx["msg"].payload["nodes"], ctx)),
        Round("spawn", when=lambda ctx: not _parallel(ctx),
              handler=lambda ctx: ctx["lm"]._spawn_replicas(
                  ctx["msg"].payload["nodes"], ctx)),
        Round("complete", enter_label="local->global: resize complete",
              handler=lambda ctx: ctx["lm"]._reply(
                  ctx["msg"], MessageType.RESIZE_COMPLETE,
                  {"units": ctx["lm"].container.units}, ctx=ctx)),
    ),
)


def _dec_active(ctx) -> bool:
    return ctx["active"]


#: DECREASE: pause upstream writers (the dominant cost, Figure 5), retire
#: replicas, merge state into survivors, resume, and surrender the nodes.
DECREASE = ProtocolSpec(
    "decrease",
    rounds=(
        Round("request", enter_label="global->local: decrease request",
              handler=lambda ctx: ctx["lm"]._dec_prepare(ctx)),
        Round("pause", when=lambda ctx: _dec_active(ctx) and _has_link(ctx),
              enter_label="local->writers: pause",
              exit_label="writers->local: paused",
              handler=lambda ctx: ctx["lm"]._pause_writers(ctx)),
        Round("retire", when=_dec_active,
              exit_label=lambda ctx: f"local: retired {ctx['count']} replicas",
              handler=lambda ctx: ctx["lm"]._dec_retire(ctx)),
        Round("merge_state", when=_dec_active,
              handler=lambda ctx: ctx["lm"]._dec_merge_state(ctx)),
        Round("resume", when=lambda ctx: _dec_active(ctx) and _has_link(ctx),
              exit_label="local->writers: resume",
              handler=lambda ctx: ctx["lm"]._resume_writers(ctx)),
        Round("complete",
              handler=lambda ctx: ctx["lm"]._reply(
                  ctx["msg"], MessageType.RESIZE_COMPLETE,
                  {"nodes": ctx["freed"], "units": ctx["lm"].container.units},
                  ctx=ctx)),
    ),
)


#: OFFLINE (Figure 9 path): drain every replica, strand unprocessed chunks
#: to disk with provenance, and surrender all nodes.  Chunks already pulled
#: into replica queues are written with their current provenance, so the
#: work is not lost and post-processing knows which actions remain.
OFFLINE = ProtocolSpec(
    "offline",
    rounds=(
        Round("request", enter_label="global->local: offline request"),
        Round("pause", when=_has_link,
              handler=lambda ctx: ctx["lm"]._pause_writers(
                  ctx, count_messages=False)),
        Round("drain", exit_label="local: all replicas offline",
              handler=lambda ctx: ctx["lm"]._off_drain(ctx)),
        # Writers resume only when surviving consumers still read the link
        # (a dynamic branch swapped the reader set); otherwise they stay
        # quiesced and the upstream stage falls back to disk.
        Round("resume",
              when=lambda ctx: (_has_link(ctx)
                                and ctx["lm"].container.input_link.readers),
              handler=lambda ctx: ctx["lm"]._resume_writers(ctx)),
        Round("complete",
              handler=lambda ctx: ctx["lm"]._reply(
                  ctx["msg"], MessageType.OFFLINE_COMPLETE,
                  {"nodes": ctx["freed"], "unpulled": len(ctx["stranded"])},
                  ctx=ctx, charge_seconds=0.0)),
    ),
)


def _rep_found(ctx) -> bool:
    return ctx["dead"] is not None


#: REPLACE (crash recovery): swap a dead replica for a fresh one on the
#: request's node, re-run state migration, and redeliver unacked chunks
#: from upstream custody.  Ordering matters: the dead replica leaves the
#: container *before* the spawn (so the newcomer's peer exchange excludes
#: the dead node), its writers leave the downstream links (their buffered
#: output died with the node), and its reader detaches from the input link
#: *after* the spawn — the newcomer must exist so re-dispatched metadata
#: and redelivered chunks have somewhere to go.
REPLACE = ProtocolSpec(
    "replace",
    rounds=(
        Round("request", enter_label="global->local: replace request",
              handler=lambda ctx: ctx["lm"]._rep_locate(ctx)),
        Round("pause", when=lambda ctx: _rep_found(ctx) and _has_link(ctx),
              enter_label="local->writers: pause",
              exit_label="writers->local: paused",
              handler=lambda ctx: ctx["lm"]._pause_writers(ctx)),
        Round("detach", when=_rep_found,
              handler=lambda ctx: ctx["lm"]._rep_detach(ctx)),
        Round("spawn", when=_rep_found,
              handler=lambda ctx: ctx["lm"]._spawn_replicas(
                  [ctx["msg"].payload["node"]], ctx)),
        Round("redeliver",
              when=lambda ctx: (_rep_found(ctx) and _has_link(ctx)
                                and ctx["dead"].reader is not None),
              exit_label=lambda ctx:
                  f"redelivered {ctx['redelivered']} unacked chunks",
              handler=lambda ctx: ctx["lm"]._rep_redeliver(ctx)),
        Round("resume", when=lambda ctx: _rep_found(ctx) and _has_link(ctx),
              exit_label="local->writers: resume",
              handler=lambda ctx: ctx["lm"]._resume_writers(ctx)),
        Round("complete", enter_label="local->global: replace complete",
              handler=lambda ctx: ctx["lm"]._reply(
                  ctx["msg"], MessageType.REPLACE_COMPLETE,
                  {"units": ctx["lm"].container.units,
                   "redelivered": ctx["redelivered"]},
                  ctx=ctx)),
    ),
)


#: SET_STRIDE (Section III-D frequency reduction, "lower the output
#: frequency of one to free up I/O bandwidth for others"): process every
#: k-th timestep only.  Invalid strides are refused, and so are strides on
#: essential containers — dropping timesteps of the aggregation stage would
#: lose data for everyone downstream (NACK aborts the protocol).
SET_STRIDE = ProtocolSpec(
    "set_stride",
    rounds=(
        Round("validate", handler=lambda ctx: ctx["lm"]._stride_validate(ctx)),
        Round("apply", handler=lambda ctx: ctx["lm"]._stride_apply(ctx)),
    ),
)


#: SET_HASHING: toggle soft-error-detection hashing on the output stream.
SET_HASHING = ProtocolSpec(
    "set_hashing",
    rounds=(
        Round("apply", handler=lambda ctx: ctx["lm"]._hashing_apply(ctx)),
    ),
)


# ---------------------------------------------------------------------------
# Global-manager orchestration (abort paths from the recovery work)
# ---------------------------------------------------------------------------

#: GM INCREASE: allocate (or accept) nodes, abort if any died in transit
#: (quarantining the dead and returning survivors to the spare pool), then
#: drive the local manager's INCREASE.
GM_INCREASE = ProtocolSpec(
    "gm_increase",
    rounds=(
        Round("allocate", handler=lambda ctx: ctx["gm"]._gmi_allocate(ctx)),
        Round("validate", handler=lambda ctx: ctx["gm"]._gmi_validate(ctx)),
        Round("request", handler=lambda ctx: ctx["gm"]._gmi_request(ctx)),
    ),
    on_abort=lambda ctx: ctx["gm"]._gmi_abort(ctx),
)


#: GM STEAL (non-transactional): decrease the donor, abort if the freed
#: nodes died mid-trade (returning survivors to the pool), else increase
#: the recipient.
GM_STEAL = ProtocolSpec(
    "gm_steal",
    rounds=(
        Round("decrease", handler=lambda ctx: ctx["gm"]._gms_decrease(ctx)),
        Round("validate", handler=lambda ctx: ctx["gm"]._gms_validate(ctx)),
        Round("increase", when=lambda ctx: bool(ctx["freed"]),
              handler=lambda ctx: ctx["gm"]._gms_increase(ctx)),
        Round("commit", handler=lambda ctx: ctx["gm"]._gms_commit(ctx)),
    ),
    on_abort=lambda ctx: ctx["gm"]._gms_abort(ctx),
)


#: REPLACE recovery ladder: recheck the suspicion, acquire a replacement
#: node (spare pool, then stealing from the donor with the most headroom),
#: run REPLACE against the local manager, and record the repair.  Aborts
#: degrade the container to offline (the Figure 9 disk fallback); the
#: acquire round's compensation gives an unused node back to the pool.
GM_REPLACE = ProtocolSpec(
    "gm_replace",
    rounds=(
        Round("recheck", handler=lambda ctx: ctx["rm"]._rr_recheck(ctx)),
        Round("acquire", handler=lambda ctx: ctx["rm"]._rr_acquire(ctx),
              compensate=lambda ctx: ctx["rm"]._rr_return_node(ctx)),
        Round("replace", handler=lambda ctx: ctx["rm"]._rr_request(ctx)),
        Round("commit", handler=lambda ctx: ctx["rm"]._rr_commit(ctx)),
    ),
    on_abort=lambda ctx: ctx["rm"]._rr_degrade(ctx),
)


# ---------------------------------------------------------------------------
# Overload: the SLA brownout ladder (escalate / de-escalate with hysteresis)
# ---------------------------------------------------------------------------

#: BROWNOUT_ESCALATE: pick the next rung of the degradation ladder for the
#: worst over-SLA container (increase -> steal -> stride -> offline), apply
#: it through the regular GM operations, and record the transition in the
#: DegradationTrace.  No applicable rung exits early; a failed action
#: aborts without recording a level change.
BROWNOUT_ESCALATE = ProtocolSpec(
    "brownout_escalate",
    rounds=(
        Round("observe", handler=lambda ctx: ctx["bc"]._esc_observe(ctx)),
        Round("act", handler=lambda ctx: ctx["bc"]._esc_act(ctx)),
        Round("record", enter_label="brownout: ladder level raised",
              handler=lambda ctx: ctx["bc"]._esc_record(ctx)),
    ),
)


#: BROWNOUT_RECOVER: after latency has held below the SLA for the dwell,
#: unwind the most recent rung — restore the stride, or re-activate the
#: pruned containers upstream-first via activate() (new versus the paper,
#: whose offline decision is manual and permanent).
BROWNOUT_RECOVER = ProtocolSpec(
    "brownout_recover",
    rounds=(
        Round("observe", handler=lambda ctx: ctx["bc"]._rec_observe(ctx)),
        Round("act", handler=lambda ctx: ctx["bc"]._rec_act(ctx)),
        Round("record", enter_label="brownout: ladder level lowered",
              handler=lambda ctx: ctx["bc"]._rec_record(ctx)),
    ),
)


# ---------------------------------------------------------------------------
# Failover: degrade-to-disk spill and replay catch-up (repro.adios.failover)
# ---------------------------------------------------------------------------

#: SPILL_ENGAGE: divert a collapsed link's undispatched backlog to the
#: durable spill store instead of letting it wait out the collapse.  The
#: check round exits early when there is nothing to divert (or a spill is
#: already engaged); the flush round's compensation re-opens the epoch if
#: a later round dies, so an aborted engage never leaves the switch stuck
#: in ``spilling``.
SPILL_ENGAGE = ProtocolSpec(
    "spill_engage",
    rounds=(
        Round("check", handler=lambda ctx: ctx["fo"]._se_check(ctx)),
        Round("flush",
              exit_label=lambda ctx: f"spilled {ctx['flushed']} chunks",
              handler=lambda ctx: ctx["fo"]._se_flush(ctx),
              compensate=lambda ctx: ctx["fo"]._se_reopen(ctx)),
        Round("mark", enter_label="failover: spill engaged",
              handler=lambda ctx: ctx["fo"]._se_mark(ctx)),
    ),
    on_abort=lambda ctx: ctx["fo"]._se_abort(ctx),
)


#: REPLAY_CATCHUP: when the consumer side is healthy again, read the
#: pending spill segments back from the store in sequence order, stream
#: them to the consumer over the SST engine (reader-side flow control),
#: and hand over to the live stream at the snapshot watermark — no gap,
#: no duplicate, credits re-primed.  The snapshot round's compensation
#: re-opens the replay epoch so an aborted catch-up can be retried.
REPLAY_CATCHUP = ProtocolSpec(
    "replay_catchup",
    rounds=(
        Round("snapshot", handler=lambda ctx: ctx["fo"]._rc_snapshot(ctx)),
        Round("stream",
              exit_label=lambda ctx:
                  f"replayed {ctx['replayed']} (+{ctx['superseded']} superseded)",
              handler=lambda ctx: ctx["fo"]._rc_stream(ctx)),
        Round("handover", enter_label="failover: handover to live stream",
              handler=lambda ctx: ctx["fo"]._rc_handover(ctx)),
    ),
    on_abort=lambda ctx: ctx["fo"]._rc_abort(ctx),
)


# ---------------------------------------------------------------------------
# Transactions (D2T, Figure 6)
# ---------------------------------------------------------------------------

#: The container-trade transaction: prepare, decrease the donor, increase
#: the recipient.  A failure after the decrease triggers the decrease
#: round's compensation — the freed nodes return to the spare pool, never
#: lost (Section III-A item 5).
TRADE = ProtocolSpec(
    "trade",
    rounds=(
        Round("prepare", handler=lambda ctx: ctx["tm"]._tr_prepare(ctx)),
        Round("fault_decrease",
              handler=lambda ctx: ctx["tm"]._tr_fault(ctx, "decrease")),
        Round("decrease", handler=lambda ctx: ctx["tm"]._tr_decrease(ctx),
              compensate=lambda ctx: ctx["tm"]._tr_compensate(ctx)),
        Round("fault_increase",
              handler=lambda ctx: ctx["tm"]._tr_fault(ctx, "increase")),
        Round("increase", when=lambda ctx: bool(ctx["freed"]),
              handler=lambda ctx: ctx["tm"]._tr_increase(ctx)),
        Round("commit", handler=lambda ctx: ctx["tm"]._tr_commit(ctx)),
    ),
)


#: D2T two-phase commit over group roots (presumed abort).  Vote and ack
#: collection are timed rounds with ``on_timeout="continue"``: the engine
#: interrupts the collector at the deadline and the decision phase treats
#: the still-pending groups as having voted abort.
D2T_COMMIT = ProtocolSpec(
    "d2t_commit",
    rounds=(
        Round("vote_request",
              handler=lambda ctx: ctx["coord"]._cp_vote_request(ctx)),
        Round("collect_votes",
              handler=lambda ctx: ctx["coord"]._cp_collect_votes(ctx),
              timeout=lambda ctx: ctx["coord"].vote_timeout,
              on_timeout="continue"),
        Round("decide", handler=lambda ctx: ctx["coord"]._cp_decide(ctx)),
        Round("collect_acks",
              when=lambda ctx: bool(ctx["reachable"]),
              handler=lambda ctx: ctx["coord"]._cp_collect_acks(ctx),
              timeout=lambda ctx: ctx["coord"].ack_timeout,
              on_timeout="continue"),
        Round("finalize", handler=lambda ctx: ctx["coord"]._cp_finalize(ctx)),
    ),
)
