"""Vector consensus (Section 2.6 of the paper).

Correct processes agree on a *vector* of size *n* containing a subset of
the proposed values:

- every correct process decides the same vector *V*;
- if ``p_i`` is correct then ``V[i]`` is its proposal or ⊥;
- at least ``f + 1`` elements of *V* were proposed by correct processes.

Protocol: reliably broadcast the proposal; then, in rounds
``r = 0, 1, ..., f``: wait until ``n - f + r`` proposals have been
delivered, build the vector ``W_i`` (⊥ for missing indices), and feed it
to a fresh multi-valued consensus; decide on the first non-⊥ MVC
decision.

Liveness note (also in DESIGN.md): rounds past 0 wait for more than
``n - f`` proposals, which presumes enough processes are merely slow
rather than crashed; this matches the original protocol and, as in the
paper's experiments, round 0 decides in every realistic run.  The round
counter is capped at *f*; exhausting the cap raises
:class:`~repro.core.errors.ProtocolStallError` instead of hanging.
"""

from __future__ import annotations

from typing import Any

from repro.core.errors import ProtocolStallError, ProtocolViolationError
from repro.core.mbuf import Mbuf
from repro.core.stack import ControlBlock, Stack
from repro.core.wire import Path, encode_value


class VectorConsensus(ControlBlock):
    """One vector consensus instance."""

    protocol = "vc"

    def __init__(
        self,
        stack: Stack,
        path: Path,
        parent: ControlBlock | None = None,
        purpose: str | None = None,
    ):
        super().__init__(stack, path, parent, purpose)
        self.proposed = False
        self.proposal: Any = None
        self.decided = False
        self.decision: list[Any] | None = None
        self.round_number = 0
        self._proposals: dict[int, Any] = {}
        self._round_running = False
        for j in self.config.process_ids:
            self.make_child("rb", ("init", j), sender=j)

    # -- public API ----------------------------------------------------------------

    def propose(self, value: Any) -> None:
        """Propose *value* for this process's slot of the vector."""
        if value is None:
            raise ValueError("None marks an absent proposal and cannot be proposed")
        if self.proposed:
            raise ProtocolViolationError("already proposed on this instance")
        self.proposed = True
        self.proposal = value
        rb = self.children[self.path + ("init", self.me)]
        rb.broadcast(value)  # type: ignore[attr-defined]

    # -- introspection ---------------------------------------------------------------

    def inspect(self) -> dict[str, Any]:
        state = super().inspect()
        state["proposed"] = self.proposed
        state["decided"] = self.decided
        if self.proposed:
            state["proposal"] = self.proposal
        if self.decided:
            state["decision_key"] = encode_value(self.decision)
            state["decision"] = self.decision
        return state

    # -- receiving ------------------------------------------------------------------

    def input(self, mbuf: Mbuf) -> None:
        raise ProtocolViolationError("vector consensus accepts no direct frames")

    def child_event(self, child: ControlBlock, event: Any) -> None:
        if self.destroyed or self.decided:
            return
        kind = child.path[len(self.path)]
        if kind == "init":
            sender = child.path[-1]
            if sender in self._proposals or event is None:
                return
            self._proposals[sender] = event
            self._maybe_start_round()
        elif kind == "mvc":
            self._on_mvc_decision(event)

    # -- rounds ------------------------------------------------------------------------

    def _maybe_start_round(self) -> None:
        if self._round_running or self.decided or not self.proposed:
            return
        needed = self.config.wait_quorum + self.round_number
        if len(self._proposals) < needed:
            return
        self._round_running = True
        vector = [self._proposals.get(k) for k in self.config.process_ids]
        mvc = self.make_child("mvc", ("mvc", self.round_number))
        mvc.propose(vector)  # type: ignore[attr-defined]

    def _on_mvc_decision(self, decision: Any) -> None:
        self._round_running = False
        if self._vector_ok(decision):
            self.decided = True
            self.decision = decision
            self.stack.stats.record_decision(
                self.protocol, self.round_number + 1, self.path, decision
            )
            self.deliver(decision)
            return
        self.round_number += 1
        if self.round_number > self.config.f:
            raise ProtocolStallError(
                f"vector consensus at {self.path} exhausted its round cap "
                f"f={self.config.f} without a decision"
            )
        self._maybe_start_round()

    def _vector_ok(self, decision: Any) -> bool:
        """A usable decision is a length-n vector with >= f+1 non-⊥ entries.

        MVC guarantees the decision was proposed by at least one correct
        process, whose vector necessarily has >= n - f non-⊥ entries; the
        check is defensive (and rejects the ⊥ decision itself).
        """
        return (
            isinstance(decision, list)
            and len(decision) == self.config.num_processes
            and sum(1 for item in decision if item is not None) >= self.config.f + 1
        )
