"""Multi-valued consensus (Section 2.5 of the paper).

Correct processes propose values of arbitrary length and all decide
either one of the proposed values or the default value ⊥ (``None``).
The implementation follows the paper's *optimized* variant of Correia
et al.'s protocol: the VECT phase uses the cheap echo broadcast instead
of reliable broadcast, and vector validation is the simplified
"n - 2f matching entries" rule.

Protocol, for process ``p_i`` with proposal ``v_i``:

1. reliably broadcast ``(INIT, v_i)``; collect INIT values into the
   vector ``V_i`` (indexed by sender) as they arrive;
2. once ``n - f`` INITs arrived: if at least ``n - 2f`` share one value
   *v*, echo-broadcast ``(VECT, v, V_i)`` -- the vector justifies the
   value; otherwise echo-broadcast ``(VECT, ⊥)``, which needs no
   justification;
3. a VECT from ``p_j`` with value ``v_j != ⊥`` is *valid* once at least
   ``n - 2f`` indices *k* satisfy ``V_i[k] = V_j[k] = v_j`` (validated
   lazily as INITs keep arriving); a ⊥ VECT is always valid;
4. once ``n - f`` valid VECTs arrived: propose 1 to binary consensus if
   no two valid VECTs carry different non-⊥ values *and* at least
   ``n - 2f`` carry the same value; otherwise propose 0;
5. binary consensus 0 → decide ⊥.  Binary consensus 1 → wait for
   ``n - 2f`` valid VECTs with the same value *v* and decide *v*.

Why step 4's no-conflict rule makes step 5 safe: proposing 1 requires
``n - f`` *unanimous* valid VECTs, so at most *f* processes ever echo a
different value -- fewer than the ``n - 2f >= f + 1`` needed for anyone
to decide it.
"""

from __future__ import annotations

from collections import Counter
from typing import Any

from repro.core.errors import ProtocolViolationError
from repro.core.mbuf import Mbuf
from repro.core.stack import ControlBlock, Stack
from repro.core.wire import Path, encode_value


def _key(value: Any) -> bytes:
    """Canonical comparison key for arbitrary proposal values."""
    return encode_value(value)


class MultiValuedConsensus(ControlBlock):
    """One multi-valued consensus instance."""

    protocol = "mvc"

    def __init__(
        self,
        stack: Stack,
        path: Path,
        parent: ControlBlock | None = None,
        purpose: str | None = None,
        *,
        vect_channel: str = "eb",
    ):
        """*vect_channel* selects the broadcast primitive for the VECT
        phase: ``"eb"`` (echo broadcast) is the paper's optimization over
        the original protocol's ``"rb"`` (reliable broadcast); the
        ablation benchmark quantifies the difference."""
        super().__init__(stack, path, parent, purpose)
        if vect_channel not in ("eb", "rb"):
            raise ValueError(f"vect_channel must be 'eb' or 'rb', not {vect_channel!r}")
        self.vect_channel = vect_channel
        self.proposal: Any = None
        self.proposed = False
        self.decided = False
        self.decision: Any = None
        # INIT values, indexed by sender; grows past n-f for validation.
        self._init_values: dict[int, Any] = {}
        self._init_keys: dict[int, bytes] = {}
        # Valid VECTs: sender -> (value, key or None).
        self._valid_vects: dict[int, tuple[Any, bytes | None]] = {}
        self._pending_vects: dict[int, tuple[Any, list[Any]]] = {}
        self._vect_sent = False
        self._bc_proposed = False
        self._bc_decision: int | None = None
        self._bc = self.make_child("bc", ("bc",))
        for j in self.config.process_ids:
            self.make_child("rb", ("init", j), sender=j)
            self.make_child(vect_channel, ("vect", j), sender=j)

    # -- public API --------------------------------------------------------------

    def propose(self, value: Any) -> None:
        """Propose *value* (any wire-encodable value; ``None`` is reserved
        for the default decision ⊥ and cannot be proposed)."""
        if value is None:
            raise ValueError("None is the default value ⊥ and cannot be proposed")
        if self.proposed:
            raise ProtocolViolationError("already proposed on this instance")
        self.proposed = True
        self.proposal = value
        rb = self.children[self.path + ("init", self.me)]
        rb.broadcast(self._init_value(value))  # type: ignore[attr-defined]
        # INITs (and VECTs) replayed from the out-of-context table while
        # this instance was being built arrived before the proposal; a
        # laggard whose peers already reclaimed the instance gets no
        # further delivery -- not even its own -- to act on them.
        self._maybe_send_vect()

    # -- introspection -------------------------------------------------------------

    def inspect(self) -> dict[str, Any]:
        state = super().inspect()
        state["proposed"] = self.proposed
        state["decided"] = self.decided
        if self.proposed:
            state["proposal_key"] = _key(self.proposal)
        if self.decided:
            state["decision_key"] = None if self.decision is None else _key(self.decision)
        return state

    # -- adversary hooks -----------------------------------------------------------

    def _init_value(self, computed: Any) -> Any:
        """Value actually sent in the INIT; overridden by the Byzantine
        faultload of Section 4.2 to push ⊥."""
        return computed

    def _vect_payload(self, value: Any, justification: list[Any]) -> list[Any]:
        """Payload actually echo-broadcast in the VECT; same hook."""
        return [value, justification]

    # -- receiving -------------------------------------------------------------------

    def input(self, mbuf: Mbuf) -> None:
        raise ProtocolViolationError("multi-valued consensus accepts no direct frames")

    def child_event(self, child: ControlBlock, event: Any) -> None:
        if self.destroyed:
            return
        kind = child.path[len(self.path)]
        if kind == "init":
            self._on_init(child.path[-1], event)
        elif kind == "vect":
            self._on_vect(child.path[-1], event)
        elif kind == "bc":
            self._on_bc_decision(event)

    def _on_init(self, sender: int, value: Any) -> None:
        if sender in self._init_values:
            return
        self._init_values[sender] = value
        self._init_keys[sender] = _key(value)
        self._maybe_send_vect()
        self._revalidate_pending()
        self._maybe_finish()

    def _maybe_send_vect(self) -> None:
        if self._vect_sent or not self.proposed:
            return
        if len(self._init_values) < self.config.wait_quorum:
            return
        self._vect_sent = True
        counts = Counter(
            key for j, key in self._init_keys.items() if self._init_values[j] is not None
        )
        value: Any = None
        for j, key in self._init_keys.items():
            if self._init_values[j] is not None and counts[key] >= self.config.value_quorum:
                value = self._init_values[j]
                break
        justification = [
            self._init_values.get(k) for k in self.config.process_ids
        ]
        eb = self.children[self.path + ("vect", self.me)]
        eb.broadcast(self._vect_payload(value, justification))  # type: ignore[attr-defined]
        self._maybe_propose_bit()

    def _on_vect(self, sender: int, payload: Any) -> None:
        if sender in self._valid_vects or sender in self._pending_vects:
            return
        if not isinstance(payload, list) or len(payload) != 2:
            return  # malformed VECT from a corrupt process: ignore
        value, justification = payload
        if value is None:
            self._valid_vects[sender] = (None, None)
            self._maybe_propose_bit()
            self._maybe_finish()
            return
        if (
            not isinstance(justification, list)
            or len(justification) != self.config.num_processes
        ):
            return
        claimed_keys = [
            None if claimed is None else _key(claimed) for claimed in justification
        ]
        self._pending_vects[sender] = (value, claimed_keys)
        self._revalidate_pending()
        self._maybe_finish()

    def _revalidate_pending(self) -> None:
        accepted = [
            sender
            for sender, (value, claimed_keys) in self._pending_vects.items()
            if self._vect_is_valid(value, claimed_keys)
        ]
        for sender in accepted:
            value, _ = self._pending_vects.pop(sender)
            self._valid_vects[sender] = (value, _key(value))
        if accepted:
            self._maybe_propose_bit()

    def _vect_is_valid(self, value: Any, claimed_keys: list[bytes | None]) -> bool:
        """Paper rule (b): at least n-2f indices k with V_i[k] = V_j[k] = v_j."""
        value_key = _key(value)
        matches = 0
        for k, claimed_key in enumerate(claimed_keys):
            if claimed_key is None:
                continue
            mine = self._init_keys.get(k)
            if mine is None:
                continue
            if mine == value_key and claimed_key == value_key:
                matches += 1
        return matches >= self.config.value_quorum

    # -- phase transitions ----------------------------------------------------------

    def _maybe_propose_bit(self) -> None:
        if self._bc_proposed or not self._vect_sent:
            return
        if len(self._valid_vects) < self.config.wait_quorum:
            return
        self._bc_proposed = True
        counts = Counter(
            key for _, key in self._valid_vects.values() if key is not None
        )
        unanimous = len(counts) <= 1
        supported = bool(counts) and max(counts.values()) >= self.config.value_quorum
        self._bc.propose(1 if unanimous and supported else 0)  # type: ignore[attr-defined]

    def _on_bc_decision(self, bit: Any) -> None:
        self._bc_decision = bit
        self._maybe_finish()

    def _maybe_finish(self) -> None:
        if self.decided or self._bc_decision is None:
            return
        if self._bc_decision == 0:
            self._decide(None)
            return
        counts = Counter(
            key for _, key in self._valid_vects.values() if key is not None
        )
        for value, key in self._valid_vects.values():
            if key is not None and counts[key] >= self.config.value_quorum:
                self._decide(value)
                return

    def _decide(self, value: Any) -> None:
        self.decided = True
        self.decision = value
        self.stack.stats.record_decision(self.protocol, 1, self.path, value)
        if value is None:
            # ⊥ decisions are the faultload signature (Section 4.3: the
            # Byzantine runs are where agreements default).
            self.stack.stats.decisions["mvc-default"] += 1
        self.deliver(value)
