"""Pluggable binary-consensus engines.

The stack's randomized layer is *binary consensus*: correct processes
propose bits and all decide the same bit.  The paper's algorithm
(Bracha-style rounds over a local coin, :mod:`repro.core.binary_consensus`)
is one way to provide that contract; the signature-free O(1)-expected-round
algorithms of Crain (arXiv 2002.04393, 2002.08765) are another, with the
same ``t < n/3`` resilience and O(n²) message envelope.  This module
defines the small surface everything above and beside the engine relies
on -- :class:`BCEngine` -- plus a registry that maps the
``GroupConfig.bc_engine`` knob to a concrete class.

The shared surface:

- :meth:`BCEngine.propose` -- domain/double-proposal validation, then
  the engine-specific :meth:`BCEngine._begin`;
- ``decided`` / ``decision`` / ``decision_round`` / ``rounds_executed``
  -- the decision state the upper layers (multi-valued consensus) and
  the eval harness read;
- :meth:`BCEngine._step_value` -- the adversary hook: every value an
  engine emits at a (round, step) flows through it, so the Byzantine
  faultloads of Section 4.2 apply to *any* engine by subclassing;
- :meth:`BCEngine.inspect` -- the invariant checker's view: proposal,
  decision state and ``step_values`` (the per-(round, step) values this
  process broadcast), compared across correct processes;
- :meth:`BCEngine._conclude` -- one-shot decision bookkeeping shared by
  all engines (one ``record_decision`` call, delivery to the parent).

Engines that *require* a common coin (every correct process must see
the same toss per round -- the Crain decide rule is unsafe over
independent local coins) declare ``requires_common_coin = True``; the
stack refuses to build such an engine over a coin source that does not
advertise ``common = True`` (see :mod:`repro.crypto.coin`).
"""

from __future__ import annotations

from typing import Any

from repro.core.errors import ConfigurationError, ProtocolViolationError
from repro.core.stack import ControlBlock, Stack
from repro.core.wire import Path


class BCEngine(ControlBlock):
    """Base class for one binary-consensus instance, any algorithm.

    Subclasses implement :meth:`_begin` (start the protocol with the
    validated proposal) and whatever message flow they need; they report
    decisions through :meth:`_conclude` and expose their per-step
    broadcast values in ``self._sent_values`` for the checker.
    """

    protocol = "bc"
    #: Registry name of the algorithm ("bracha", "crain", ...).
    engine_name = "?"
    #: True when safety needs every correct process to see the *same*
    #: coin value per (instance, round).
    requires_common_coin = False

    def __init__(
        self,
        stack: Stack,
        path: Path,
        parent: ControlBlock | None = None,
        purpose: str | None = None,
    ):
        super().__init__(stack, path, parent, purpose)
        self.proposal: int | None = None
        self.decided = False
        self.decision: int | None = None
        self.decision_round: int | None = None
        self.rounds_executed = 0
        # (round, step) -> value this process broadcast; the invariant
        # checker reads it to assert step-3 uniqueness across correct
        # processes.  Steps are engine-defined but step 3 must mean "the
        # value this process entered the round's decision step with"
        # (non-⊥ step-3 values of correct processes may never differ).
        self._sent_values: dict[tuple[int, int], int | None] = {}

    # -- public API ---------------------------------------------------------------

    def propose(self, value: int) -> None:
        """Propose a bit and start the protocol."""
        if value not in (0, 1):
            raise ValueError(f"binary consensus proposal must be 0 or 1, got {value!r}")
        if self.proposal is not None:
            raise ProtocolViolationError("already proposed on this instance")
        self.proposal = value
        self._begin(value)

    def _begin(self, value: int) -> None:
        """Engine-specific protocol start (round 1 with *value*)."""
        raise NotImplementedError

    # -- adversary hook -------------------------------------------------------------

    def _step_value(self, round_number: int, step: int, computed: int | None) -> int | None:
        """Value actually broadcast at (round, step).

        Honest processes broadcast what the protocol computed; the
        Byzantine faultloads override this to steer values while staying
        syntactically correct.  Works unchanged for every engine, since
        each routes its emitted values through here.
        """
        return computed

    # -- shared machinery ------------------------------------------------------------

    def toss(self, round_number: int) -> int:
        """This instance's round coin, through the stack's coin source."""
        return self.stack.toss_coin(self.path, round_number)

    def _conclude(self, value: int, round_number: int) -> None:
        """Record the decision (first call wins) and deliver it."""
        if self.decided:
            return
        self.decided = True
        self.decision = value
        self.decision_round = round_number
        self.stack.stats.record_decision(self.protocol, round_number, self.path, value)
        self.deliver(value)

    # -- introspection ---------------------------------------------------------------

    def inspect(self) -> dict[str, Any]:
        state = super().inspect()
        state["engine"] = self.engine_name
        state["proposal"] = self.proposal
        state["decided"] = self.decided
        state["decision"] = self.decision
        state["decision_round"] = self.decision_round
        state["step_values"] = dict(self._sent_values)
        return state


# -- registry ---------------------------------------------------------------------

#: Engine name -> class.  Populated by the engine modules at import; use
#: :func:`register_bc_engine` to add one.
BC_ENGINES: dict[str, type[BCEngine]] = {}


def register_bc_engine(name: str, engine: type[BCEngine]) -> type[BCEngine]:
    """Register *engine* under *name* (the ``GroupConfig.bc_engine`` value)."""
    BC_ENGINES[name] = engine
    return engine


def _load_builtin_engines() -> None:
    # The engine modules register themselves at import; imported lazily
    # because they import this module (and the stack) in turn.
    import repro.core.binary_consensus  # noqa: F401
    import repro.core.crain_consensus  # noqa: F401


def bc_engine_names() -> list[str]:
    """Names of every registered engine."""
    _load_builtin_engines()
    return sorted(BC_ENGINES)


def resolve_bc_engine(name: str) -> type[BCEngine]:
    """Resolve an engine name to its class, or raise ConfigurationError."""
    _load_builtin_engines()
    try:
        return BC_ENGINES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown binary-consensus engine {name!r}; "
            f"registered: {sorted(BC_ENGINES)}"
        ) from None
