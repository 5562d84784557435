"""Crain 2020 binary consensus over a common coin (the "crain" engine).

The signature-free, O(1)-expected-round binary consensus of Crain
(arXiv 2002.04393, 2002.08765), in the round structure introduced by
Mostéfaoui-Moumen-Raynal: instead of Bracha-style rounds of three
reliable broadcasts (O(n³) messages per round), each round exchanges
three kinds of *direct* authenticated frames -- O(n²) messages total --
and finishes on a common coin:

1. **EST (BV-broadcast).**  Every process broadcasts its round estimate.
   A value received from ``f + 1`` distinct senders is echoed (so a
   value backed by at least one correct process reaches everyone); a
   value received from ``2f + 1`` distinct senders enters the local
   ``bin_values`` set.  No value only Byzantine processes sent can ever
   enter ``bin_values`` -- this is the justification mechanism, playing
   the role of Bracha's congruence validation.
2. **AUX.**  When ``bin_values`` first becomes non-empty, broadcast one
   of its members.  Wait for ``n - f`` AUX values that are all inside
   ``bin_values`` (late justification is fine: an AUX for a value not
   yet in ``bin_values`` stays pending and is re-examined as
   ``bin_values`` grows).
3. **CONF + coin.**  Broadcast the *set* of values seen in that AUX
   quorum (a singleton or {0, 1}); wait for ``n - f`` CONF sets that
   are subsets of ``bin_values``.  Let ``V`` be their union and ``s``
   the round's common coin: if ``V = {v}`` and ``v = s``, **decide**
   *v*; if ``V = {v}`` but ``v != s``, keep estimate *v*; else take the
   coin as the next estimate.

The CONF exchange (Crain's addition to the original MMR round) is what
makes the decide rule safe against an adversary that chooses the
message schedule after seeing the coin: any two ``n - f`` CONF quorums
intersect in a correct process, so a decided singleton ``{v}`` forces
every other correct process's ``V`` to contain *v*, and the common coin
pushes all estimates to *v* in the same round.

**The common coin is load-bearing.**  With *independent local* coins
the decide rule is unsafe: a process with ``V = {0, 1}`` adopts its own
coin, which may be ``1 - v`` while another process decided *v* -- one
round later ``1 - v`` can be decided.  The engine therefore declares
``requires_common_coin`` and the stack refuses to build it over a
non-common coin source (``GroupConfig(bc_engine="crain")`` requires
``bc_coin="shared"``).

A process that decides cannot stop: a peer whose ``V`` was ``{0, 1}``
-- or whose singleton missed the coin -- needs more rounds, and each
needs ``n - f`` participants.  Deciders therefore *arm* the next round
and join it lazily when a frame for it arrives (re-arming after every
joined round), so in the common case -- every correct process decides
in the same round -- no extra round is ever transmitted.

Wire layout: each round's frames are addressed to a per-round child
block at ``path + (round,)``.  Frames for rounds this process has not
started yet park in the bounded out-of-context table and drain when the
round starts -- the same flood-bounded machinery Bracha's per-round
reliable-broadcast children ride on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.bc_engine import BCEngine, register_bc_engine
from repro.core.errors import ProtocolViolationError
from repro.core.mbuf import Mbuf
from repro.core.stack import ControlBlock, Stack
from repro.core.wire import Path

#: Frame types inside one round.
MSG_EST = 1
MSG_AUX = 2
MSG_CONF = 3

#: CONF payload masks (bit 0 = value 0 in the set, bit 1 = value 1).
_MASKS = {1: frozenset((0,)), 2: frozenset((1,)), 3: frozenset((0, 1))}


def _mask_of(values: frozenset[int]) -> int:
    return (1 if 0 in values else 0) | (2 if 1 in values else 0)


@dataclass
class _CrainRoundState:
    """Book-keeping for one EST/AUX/CONF round."""

    est: int | None = None
    #: Distinct senders seen per EST value (a sender may legitimately
    #: appear under both values: initial broadcast plus an echo).
    est_senders: dict[int, set[int]] = field(
        default_factory=lambda: {0: set(), 1: set()}
    )
    #: EST values this process has broadcast (initial or echo).
    est_echoed: set[int] = field(default_factory=set)
    #: Values backed by 2f+1 distinct EST senders, in insertion order.
    bin_values: list[int] = field(default_factory=list)
    #: First AUX value per sender.
    aux_from: dict[int, int] = field(default_factory=dict)
    aux_sent: bool = False
    #: First CONF set per sender.
    conf_from: dict[int, frozenset[int]] = field(default_factory=dict)
    conf_sent: bool = False
    done: bool = False


class _CrainRound(ControlBlock):
    """Addressing block for one round's direct frames.

    Exists so that frames for not-yet-started rounds have no resolvable
    instance and park out-of-context (bounded, fairly evicted), exactly
    like frames for Bracha's not-yet-created round broadcasts.
    """

    protocol = "bcr"

    def input(self, mbuf: Mbuf) -> None:
        parent = self.parent
        if parent is None or parent.destroyed:
            return
        parent._on_frame(self.path[-1], mbuf)  # type: ignore[attr-defined]


class CrainBinaryConsensus(BCEngine):
    """One Crain 2020 binary-consensus instance."""

    engine_name = "crain"
    requires_common_coin = True

    def __init__(
        self,
        stack: Stack,
        path: Path,
        parent: ControlBlock | None = None,
        purpose: str | None = None,
    ):
        super().__init__(stack, path, parent, purpose)
        self._rounds: dict[int, _CrainRoundState] = {}
        #: Post-decision lazy round (see module docstring); unlike
        #: Bracha's single extra round this re-arms until traffic stops.
        self._armed_round: int | None = None

    def _begin(self, value: int) -> None:
        self._start_round(1, self._step_value(1, 1, value))

    # -- round lifecycle -----------------------------------------------------------

    def _round_state(self, round_number: int) -> _CrainRoundState:
        state = self._rounds.get(round_number)
        if state is None:
            state = _CrainRoundState()
            self._rounds[round_number] = state
            # Direct construction (not make_child): the round block is
            # engine wiring, not a protocol layer the factory may swap.
            self.stack._begin_construction()
            try:
                _CrainRound(self.stack, self.path + (round_number,), parent=self)
            finally:
                self.stack._end_construction()
        return state

    def _start_round(self, round_number: int, value: int | None) -> None:
        if self.destroyed:
            return
        self.rounds_executed = max(self.rounds_executed, round_number)
        self.stack.stats.record_round(self.path, round_number)
        state = self._round_state(round_number)
        if value not in (0, 1):
            value = 0  # a corrupt hook returned junk; stay in-domain
        state.est = value
        self._sent_values[(round_number, 1)] = value
        self._send_est(round_number, state, value)
        self._react(round_number, state)

    def _send_est(self, round_number: int, state: _CrainRoundState, value: int) -> None:
        if value in state.est_echoed:
            return
        state.est_echoed.add(value)
        child = self.children.get(self.path + (round_number,))
        if child is not None and not child.destroyed:
            child.send_all(MSG_EST, value)

    # -- receiving ------------------------------------------------------------------

    def input(self, mbuf: Mbuf) -> None:
        # All round traffic is addressed to the per-round child blocks;
        # a frame aimed at the engine itself is bogus.
        raise ProtocolViolationError("binary consensus accepts no direct frames")

    def accept_orphan(self, mbuf: Mbuf) -> bool:
        """Join the armed post-decision round when somebody needs it."""
        if self._armed_round is None or self.destroyed:
            return False
        suffix = mbuf.path[len(self.path) :]
        if len(suffix) != 1 or suffix[0] != self._armed_round:
            return False
        self._join_armed_round()
        return True

    def _join_armed_round(self) -> None:
        round_number = self._armed_round
        if round_number is None:
            return
        self._armed_round = None
        assert self.decision is not None
        self._start_round(
            round_number, self._step_value(round_number, 1, self.decision)
        )

    def _on_frame(self, round_number: int, mbuf: Mbuf) -> None:
        if self.destroyed:
            return
        state = self._rounds.get(round_number)
        if state is None:
            return  # round block outlived its state (cannot happen today)
        mtype, payload, sender = mbuf.mtype, mbuf.payload, mbuf.src
        if mtype == MSG_EST:
            if payload not in (0, 1):
                raise ProtocolViolationError(f"EST value out of domain: {payload!r}")
            state.est_senders[payload].add(sender)
        elif mtype == MSG_AUX:
            if payload not in (0, 1):
                raise ProtocolViolationError(f"AUX value out of domain: {payload!r}")
            state.aux_from.setdefault(sender, payload)
        elif mtype == MSG_CONF:
            values = _MASKS.get(payload) if isinstance(payload, int) else None
            if values is None:
                raise ProtocolViolationError(f"CONF mask out of domain: {payload!r}")
            state.conf_from.setdefault(sender, values)
        else:
            raise ProtocolViolationError(f"unknown bc frame type {mtype}")
        self._react(round_number, state)

    # -- the round's transition rules --------------------------------------------------

    def _react(self, round_number: int, state: _CrainRoundState) -> None:
        """Drive round transitions to a fixed point after any state change."""
        config = self.config
        relay_bar = config.f + 1
        accept_bar = config.ready_quorum  # 2f + 1
        quorum = config.wait_quorum  # n - f
        progressed = True
        while progressed and not state.done and not self.destroyed:
            progressed = False
            for value in (0, 1):
                senders = state.est_senders[value]
                # Echo a value at least one correct process sent, so
                # everybody's 2f+1 accept bar becomes reachable.
                if len(senders) >= relay_bar and value not in state.est_echoed:
                    self._send_est(round_number, state, value)
                    progressed = True
                if len(senders) >= accept_bar and value not in state.bin_values:
                    state.bin_values.append(value)
                    progressed = True
            if state.bin_values and not state.aux_sent:
                state.aux_sent = True
                value = self._step_value(round_number, 2, state.bin_values[0])
                if value not in (0, 1):
                    value = state.bin_values[0]
                self._sent_values[(round_number, 2)] = value
                child = self.children.get(self.path + (round_number,))
                if child is not None and not child.destroyed:
                    child.send_all(MSG_AUX, value)
                progressed = True
            if state.aux_sent and not state.conf_sent:
                valid_aux = [
                    value
                    for value in state.aux_from.values()
                    if value in state.bin_values
                ]
                if len(valid_aux) >= quorum:
                    state.conf_sent = True
                    view = frozenset(valid_aux)
                    # The hook sees the round's "step 3 entry value" in
                    # Bracha's shape: the singleton bit, or ⊥ for {0,1}.
                    computed = next(iter(view)) if len(view) == 1 else None
                    hooked = self._step_value(round_number, 3, computed)
                    if hooked in (0, 1):
                        view = frozenset((hooked,))
                    elif hooked is not None:
                        view = frozenset((0, 1))
                    self._sent_values[(round_number, 3)] = (
                        next(iter(view)) if len(view) == 1 else None
                    )
                    child = self.children.get(self.path + (round_number,))
                    if child is not None and not child.destroyed:
                        child.send_all(MSG_CONF, _mask_of(view))
                    progressed = True
            if state.conf_sent and not state.done:
                bin_set = set(state.bin_values)
                valid_conf = [
                    view
                    for view in state.conf_from.values()
                    if view <= bin_set
                ]
                if len(valid_conf) >= quorum:
                    state.done = True
                    self._finish_round(round_number, valid_conf)
                    return

    def _finish_round(
        self, round_number: int, conf_views: list[frozenset[int]]
    ) -> None:
        union: set[int] = set()
        for view in conf_views:
            union |= view
        coin = self.toss(round_number)
        if len(union) == 1:
            value = next(iter(union))
            next_est = value
            if value == coin:
                self._conclude(value, round_number)
        else:
            next_est = coin
        if self.decided:
            # Arm -- but do not flood -- the next round: it only runs if
            # some process that failed to decide initiates it.  Unlike
            # Bracha (where non-deciders deterministically decide one
            # round later), a peer may miss the coin for several rounds,
            # so this re-arms after every joined round.
            self._armed_round = round_number + 1
            if self.stack.ooc_has_prefix(self.path + (round_number + 1,)):
                self._join_armed_round()
            return
        self._start_round(
            round_number + 1, self._step_value(round_number + 1, 1, next_est)
        )


register_bc_engine("crain", CrainBinaryConsensus)
