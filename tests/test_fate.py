"""Stateful property test of the FateLedger against a plain-dict model.

Hypothesis drives random deliveries, sheds, spills, replays and
supersedes; after every step the ledger must agree with the model on each
timestep's state, on which attempts were illegal (parked violations), on
record order, and on the suppressed/absorbed counts.
"""

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.fate import (
    REFUSED,
    SHED,
    SHED_REASONS,
    SPILL_REASONS,
    SPILLED,
    SUPPRESSED,
    FateLedger,
)
from repro.overload.shed import ShedLedger

STEPS = 6
steps = st.integers(min_value=0, max_value=STEPS - 1)
stages = st.sampled_from(["bonds", "csym"])
sinks = st.sampled_from(["csym", "cna"])


class FateLedgerMachine(RuleBasedStateMachine):
    @initialize(divert=st.booleans())
    def setup(self, divert):
        self.ledger = FateLedger(expected=STEPS)
        self.ledger.divert_sheds = divert
        self.sinks = {}        # step -> set of sinks
        self.shed_of = {}      # step -> (stage, reason)
        self.shed_log = []     # (step, stage, reason) per accepted record
        self.spills = {}       # step -> [seq, status]
        self.spill_order = []  # steps in spill order
        self.illegal = 0
        self.suppressed = 0
        self.absorbed = 0
        self.now = 0.0

    def tick(self):
        self.now += 1.0
        return self.now

    # -- model transitions -------------------------------------------------------------

    def model_deliver(self, sink, step):
        got = self.sinks.setdefault(step, set())
        if sink in got:
            self.illegal += 1
            return False
        got.add(sink)
        if step in self.shed_of:
            self.illegal += 1
            return False
        if sink == "replay":
            spill = self.spills.get(step)
            if spill is None or spill[1] != "spilled":
                self.illegal += 1
                return False
            spill[1] = "replayed"
        return True

    def model_spill(self, step):
        if step in self.shed_of:
            return False
        if step in self.sinks:
            self.suppressed += 1
            return False
        if step in self.spills:
            self.absorbed += 1
            return False
        self.spills[step] = [len(self.spill_order), "spilled"]
        self.spill_order.append(step)
        return True

    # -- rules -------------------------------------------------------------------------

    @rule(sink=sinks, step=steps)
    def deliver(self, sink, step):
        expect = self.model_deliver(sink, step)
        assert self.ledger.deliver(sink, step, self.tick()) is expect

    @rule(step=steps)
    def replay(self, step):
        expect = self.model_deliver("replay", step)
        assert self.ledger.deliver("replay", step, self.tick()) is expect

    @rule(step=steps, stage=stages, reason=st.sampled_from(SHED_REASONS))
    def shed(self, step, stage, reason):
        answer = self.ledger.shed(step, stage, reason, self.tick())
        if step in self.sinks:
            self.suppressed += 1
            assert answer == SUPPRESSED
            return
        decision = self.shed_of.get(step)
        if decision is None and self.ledger.divert_sheds:
            self.model_spill(step)
            assert answer == SPILLED
        elif step in self.spills or decision not in (None, (stage, reason)):
            self.illegal += 1
            assert answer == REFUSED
        else:
            self.shed_of[step] = (stage, reason)
            self.shed_log.append((step, stage, reason))
            assert answer == SHED

    @rule(step=steps, stage=stages, reason=st.sampled_from(SPILL_REASONS))
    def spill(self, step, stage, reason):
        expect = self.model_spill(step)
        record = self.ledger.spill(step, stage, reason, self.tick(), nbytes=1.0)
        assert (record is not None) is expect

    @rule(step=steps)
    def supersede(self, step):
        spill = self.spills.get(step)
        if spill is None:
            return
        seq, status = spill
        time = self.tick()
        if step not in self.sinks:
            self.illegal += 1
            assert self.ledger.supersede(seq, time) is False
        elif status != "spilled":
            self.illegal += 1
            with pytest.raises(ValueError, match="already settled"):
                self.ledger.supersede(seq, time)
        else:
            spill[1] = "superseded"
            assert self.ledger.supersede(seq, time) is True

    @rule(extra=st.integers(min_value=0, max_value=3))
    def settle_unknown_seq(self, extra):
        self.illegal += 1
        with pytest.raises(ValueError, match="unknown spill seq"):
            self.ledger.supersede(len(self.spill_order) + extra, self.tick())

    # -- invariants --------------------------------------------------------------------

    @invariant()
    def states_match_the_model(self):
        ledger = self.ledger
        for step in range(STEPS):
            assert ledger.delivered(step) == bool(self.sinks.get(step))
            record = ledger.spill_record(step)
            spill = self.spills.get(step)
            assert (record is None) == (spill is None)
            if record is not None:
                assert [record.seq, record.status] == spill
                # legal states only: a spill never coexists with a shed, and
                # a settled spill's timestep did exit
                assert step not in self.shed_of
                if record.status != "spilled":
                    assert ledger.delivered(step)
        assert ShedLedger(ledger).decisions() == {
            step: {decision} for step, decision in self.shed_of.items()
        }
        assert ledger.unfated() == {
            s for s in range(STEPS)
            if not self.sinks.get(s) and s not in self.shed_of and s not in self.spills
        }

    @invariant()
    def violations_are_the_illegal_attempts(self):
        assert len(self.ledger.violations) == self.illegal

    @invariant()
    def records_keep_order(self):
        ledger = self.ledger
        assert [(r.timestep, r.stage, r.reason) for r in ledger.shed_records] == self.shed_log
        assert [r.seq for r in ledger.spill_records] == list(range(len(self.spill_order)))
        assert [r.timestep for r in ledger.spill_records] == self.spill_order
        assert [r.timestep for r in ledger.pending()] == [
            s for s in self.spill_order if self.spills[s][1] == "spilled"
        ]

    @invariant()
    def counters_match(self):
        assert self.ledger.suppressed == self.suppressed
        assert self.ledger.absorbed == self.absorbed


TestFateLedgerMachine = FateLedgerMachine.TestCase
TestFateLedgerMachine.settings = settings(max_examples=100, stateful_step_count=40,
                                          deadline=None)
