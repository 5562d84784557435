"""Bracha's randomized binary consensus (Section 2.4 of the paper).

Correct processes propose bits and all decide the same bit; if every
correct process proposes *v*, the decision is *v*.  The protocol is the
single randomized layer of the stack: termination holds with
probability 1, needing in theory ``2^(n-f)`` expected steps but, as the
paper measures, a single 3-step round under realistic conditions.

Each round has three steps; every step's value is disseminated with one
*reliable broadcast* per process:

1. broadcast the current value ``v_i``; on ``n - f`` valid values,
   ``v_i`` becomes their majority;
2. broadcast ``v_i``; on ``n - f`` valid values, ``v_i`` becomes the
   strict-majority value, or ⊥ when there is none;
3. broadcast ``v_i``; on ``n - f`` valid values:
   **decide** *v* on ``2f + 1`` equal values ``v != ⊥``; else *adopt*
   *v* on ``f + 1`` equal values; else set ``v_i`` to a random bit --
   and begin the next round.

**Message validation** (the optimization Section 2.4 details): a value
received at step *k > 1* is only *accepted* once it is congruent with
some ``n - f``-subset of the values accepted at step *k - 1* -- i.e.
some correct process following the protocol could have derived it.
Values that can never be justified (a corrupt process's fabrications)
wait forever in a pending queue and are effectively ignored.

A process that decides keeps participating for one extra round so that
every other correct process can decide too (all of them do so at most
one round later), then goes quiet.

This class is the default (``"bracha"``) entry of the pluggable-engine
registry (:mod:`repro.core.bc_engine`); the Crain 2020 engine lives in
:mod:`repro.core.crain_consensus`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any

from repro.core.bc_engine import BCEngine, register_bc_engine
from repro.core.errors import ProtocolViolationError
from repro.core.mbuf import Mbuf
from repro.core.stack import ControlBlock, Stack
from repro.core.wire import Path

STEPS = (1, 2, 3)


def majority_value(counts: Counter) -> int:
    """Step-1 majority with the deterministic 0-on-tie rule.

    Ties are possible when ``n - f`` is even; every correct process
    breaks them the same way so that the value remains justifiable.
    """
    return 1 if counts[1] > counts[0] else 0


def strict_majority_value(counts: Counter, n: int, bar: int | None = None) -> int | None:
    """Step-2 rule: the value held by more than half of *all n* processes'
    step-2 broadcasts, or ``None`` (⊥) when neither bit clears that bar.

    The bar must be ``n/2`` -- not ``(n-f)/2`` -- so that two correct
    processes can never enter step 3 with *different* non-⊥ values: two
    strict majorities of *n* cannot coexist, whereas two disjoint
    majorities of different ``(n-f)``-subsets can.  Step-3 uniqueness is
    what the decide/adopt thresholds' safety rests on.
    """
    if bar is None:
        bar = n // 2 + 1
    if counts[1] >= bar:
        return 1
    if counts[0] >= bar:
        return 0
    return None


@dataclass
class _RoundState:
    """Book-keeping for one 3-step round."""

    accepted: dict[int, dict[int, Any]] = field(
        default_factory=lambda: {1: {}, 2: {}, 3: {}}
    )
    counts: dict[int, Counter] = field(
        default_factory=lambda: {1: Counter(), 2: Counter(), 3: Counter()}
    )
    pending: dict[int, list[tuple[int, Any]]] = field(
        default_factory=lambda: {1: [], 2: [], 3: []}
    )
    triggered: set[int] = field(default_factory=set)
    broadcast_sent: set[int] = field(default_factory=set)


class BinaryConsensus(BCEngine):
    """One binary consensus instance (the paper's Bracha-style rounds)."""

    engine_name = "bracha"

    def __init__(
        self,
        stack: Stack,
        path: Path,
        parent: ControlBlock | None = None,
        purpose: str | None = None,
    ):
        super().__init__(stack, path, parent, purpose)
        self._rounds: dict[int, _RoundState] = {}
        self._halted = False
        # After deciding, participation in the (single) extra round is
        # armed but only triggered by a process that still needs it.
        self._armed_round: int | None = None
        # round -> accepted step-3 counts (0s, 1s, ⊥s) snapshotted the
        # moment the coin was tossed; the invariant checker asserts the
        # coin branch was legal (no f+1 agreement, a full n-f quorum).
        self._coin_rounds: dict[int, tuple[int, int, int]] = {}

    def _begin(self, value: int) -> None:
        self._start_round(1, self._step_value(1, 1, value))

    # -- introspection ---------------------------------------------------------------

    def inspect(self) -> dict[str, Any]:
        state = super().inspect()
        state["coin_rounds"] = dict(self._coin_rounds)
        return state

    # -- round machinery ---------------------------------------------------------------

    def _round_state(self, round_number: int) -> _RoundState:
        state = self._rounds.get(round_number)
        if state is None:
            state = _RoundState()
            self._rounds[round_number] = state
            for step in STEPS:
                for j in self.config.process_ids:
                    self.make_child("rb", (round_number, step, j), sender=j)
        return state

    def _start_round(self, round_number: int, value: int | None) -> None:
        if self._halted:
            return
        self.rounds_executed = max(self.rounds_executed, round_number)
        self.stack.stats.record_round(self.path, round_number)
        state = self._round_state(round_number)
        self._broadcast_step(round_number, 1, value, state)
        # Values replayed from the out-of-context table while the
        # round's broadcasts were being created were accepted before
        # step 1 was sent, so their triggers held back; fire them now.
        # Nothing later would: a laggard's own broadcasts are never
        # echoed by peers that already reclaimed this instance.
        self._drain_pending()

    def _broadcast_step(
        self, round_number: int, step: int, value: int | None, state: _RoundState
    ) -> None:
        if step in state.broadcast_sent:
            return
        state.broadcast_sent.add(step)
        self._sent_values[(round_number, step)] = value
        rb = self.children.get(self.path + (round_number, step, self.me))
        if rb is None or rb.destroyed:
            return
        rb.broadcast(value)  # type: ignore[attr-defined]

    # -- receiving ----------------------------------------------------------------------

    def input(self, mbuf: Mbuf) -> None:
        # All traffic flows through child reliable broadcasts; a frame
        # addressed directly at the consensus block is bogus.
        raise ProtocolViolationError("binary consensus accepts no direct frames")

    def accept_orphan(self, mbuf: Mbuf) -> bool:
        """Join the armed post-decision round when somebody needs it.

        If every correct process decided in round *r*, nobody initiates
        round *r + 1* and its broadcasts never happen -- a significant
        saving, since the common case (the paper's Section 4.3) is a
        unanimous one-round decision.  A process that could not decide
        *does* start round *r + 1*; its frames land here and wake the
        deciders up.
        """
        if self._armed_round is None or self._halted:
            return False
        suffix = mbuf.path[len(self.path) :]
        if len(suffix) != 3 or suffix[0] != self._armed_round:
            return False
        self._join_armed_round()
        return True

    def _join_armed_round(self) -> None:
        round_number = self._armed_round
        if round_number is None:
            return
        self._armed_round = None
        assert self.decision is not None
        self._start_round(round_number, self._step_value(round_number, 1, self.decision))

    def child_event(self, child: ControlBlock, value: Any) -> None:
        if self._halted or self.destroyed:
            return
        round_number, step, sender = child.path[-3:]
        is_bit = type(value) is int and value in (0, 1)
        if not is_bit and not (step == 3 and value is None):
            return  # a corrupt process broadcast an out-of-domain value
        state = self._rounds.get(round_number)
        if state is None:
            return
        state.pending[step].append((sender, value))
        self._drain_pending()

    def _drain_pending(self) -> None:
        """Repeatedly accept any pending value that has become valid.

        Accepting a value at step *k* can validate values queued at step
        *k + 1* (or at step 1 of the next round), so iterate to a fixed
        point, then fire the step triggers.
        """
        progressed = True
        while progressed and not self._halted:
            progressed = False
            for round_number in sorted(self._rounds):
                state = self._rounds[round_number]
                for step in STEPS:
                    still_pending: list[tuple[int, Any]] = []
                    for sender, value in state.pending[step]:
                        if sender in state.accepted[step]:
                            continue  # one value per sender per step
                        if self._is_valid(round_number, step, value):
                            state.accepted[step][sender] = value
                            state.counts[step][value] += 1
                            progressed = True
                        else:
                            still_pending.append((sender, value))
                    state.pending[step] = still_pending
                for step in STEPS:
                    self._maybe_trigger(round_number, step, state)
                    if self._halted:
                        return

    def _strict_majority_bar(self) -> int:
        """The step-2/step-3 strict-majority bar (``n/2 + 1`` over all n).

        A method so tests can deliberately weaken it (e.g. to the unsafe
        ``(n-f)/2 + 1``) and check the invariant layer catches the
        resulting agreement violations.
        """
        return self.config.n // 2 + 1

    # -- validation (the congruence rule) ---------------------------------------------------

    def _is_valid(self, round_number: int, step: int, value: Any) -> bool:
        quorum = self.config.wait_quorum
        if step == 1:
            if round_number == 1:
                return True
            prev = self._rounds.get(round_number - 1)
            if prev is None:
                return False
            counts = prev.counts[3]
            total = sum(counts.values())
            if counts[value] >= self.config.f + 1:
                return True
            # A coin toss justifies any bit, but only if some n-f subset
            # of step-3 values triggers the coin branch (no f+1 agreement).
            coin_pool = (
                min(counts[0], self.config.f)
                + min(counts[1], self.config.f)
                + counts[None]
            )
            return total >= quorum and coin_pool >= quorum
        state = self._rounds[round_number]
        counts = state.counts[step - 1]
        total = counts[0] + counts[1]
        if step == 2:
            # Congruent with a majority (0 wins ties) over some n-f subset
            # of step-1 values.
            half = quorum // 2
            if total < quorum:
                return False
            if value == 1:
                return counts[1] >= half + 1
            return counts[0] >= quorum - half  # ceil(quorum / 2)
        # step == 3: strict majority of *n* (see strict_majority_value), or
        # ⊥ when some n-f subset of step-2 values has no such majority.
        bar = self._strict_majority_bar()
        if value is None:
            return min(counts[0], bar - 1) + min(counts[1], bar - 1) >= quorum
        return total >= quorum and counts[value] >= bar

    # -- step triggers --------------------------------------------------------------------

    def _maybe_trigger(self, round_number: int, step: int, state: _RoundState) -> None:
        if step in state.triggered:
            return
        if len(state.accepted[step]) < self.config.wait_quorum:
            return
        # Steps 2 and 3 only make sense once this process has itself moved
        # through the earlier steps of the round.
        if step > 1 and (step - 1) not in state.triggered:
            return
        if 1 not in state.broadcast_sent:
            return  # round not locally started yet (still catching up)
        state.triggered.add(step)
        self.stack.stats.record_step(self.path, round_number, step)
        counts = state.counts[step]
        if step == 1:
            value = self._step_value(round_number, 2, majority_value(counts))
            self._broadcast_step(round_number, 2, value, state)
        elif step == 2:
            value = self._step_value(
                round_number,
                3,
                strict_majority_value(counts, self.config.n, self._strict_majority_bar()),
            )
            self._broadcast_step(round_number, 3, value, state)
        else:
            self._finish_round(round_number, counts)

    def _finish_round(self, round_number: int, counts: Counter) -> None:
        decide_bar = self.config.ready_quorum  # 2f + 1
        adopt_bar = self.config.f + 1
        next_value: int
        if counts[1] >= decide_bar or counts[0] >= decide_bar:
            decided_value = 1 if counts[1] >= decide_bar else 0
            next_value = decided_value
            self._conclude(decided_value, round_number)
        elif counts[1] >= adopt_bar:
            next_value = 1
        elif counts[0] >= adopt_bar:
            next_value = 0
        else:
            self._coin_rounds[round_number] = (counts[0], counts[1], counts[None])
            next_value = self.toss(round_number)
        if self.decided and round_number > (self.decision_round or 0):
            # The post-decision round is complete; everyone who needed our
            # help to decide has had it.
            self._halted = True
            return
        if self.decided and round_number == self.decision_round:
            # Arm -- but do not flood -- the extra round: it only runs if
            # some process that failed to decide this round initiates it
            # (see accept_orphan).  Frames for that round may already be
            # parked out-of-context, in which case join right away.
            self._armed_round = round_number + 1
            if self.stack.ooc_has_prefix(self.path + (round_number + 1,)):
                self._join_armed_round()
            return
        self._start_round(
            round_number + 1, self._step_value(round_number + 1, 1, next_value)
        )


register_bc_engine("bracha", BinaryConsensus)
