"""An intrusion-tolerant replicated key-value store.

Writes (``put``/``delete``/``cas``) are replicated through atomic
broadcast via :class:`ReplicatedStateMachine`; reads are served from the
local replica's state.  With ``n >= 3f + 1`` replicas, up to *f* of them
may be arbitrarily corrupt without affecting the state of the correct
ones -- and, because the stack is randomized, without any synchrony
assumption for liveness.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.apps.state_machine import Command, ReplicatedStateMachine
from repro.core.atomic_broadcast import AtomicBroadcast


class KvCommand:
    """Constructors for the store's replicated commands."""

    @staticmethod
    def put(key: str, value: bytes) -> Command:
        return Command("put", [key, value])

    @staticmethod
    def delete(key: str) -> Command:
        return Command("delete", [key])

    @staticmethod
    def cas(key: str, expected: bytes | None, value: bytes) -> Command:
        """Compare-and-swap: write only if the current value equals
        *expected* (``None`` = key absent)."""
        return Command("cas", [key, expected, value])


def _apply_kv(state: dict[str, bytes], command: Command) -> tuple[dict, Any]:
    if command.op == "put" and len(command.args) == 2:
        key, value = command.args
        if isinstance(key, str) and isinstance(value, bytes):
            state[key] = value
            return state, True
    elif command.op == "delete" and len(command.args) == 1:
        (key,) = command.args
        if isinstance(key, str):
            return state, state.pop(key, None) is not None
    elif command.op == "cas" and len(command.args) == 3:
        key, expected, value = command.args
        if (
            isinstance(key, str)
            and (expected is None or isinstance(expected, bytes))
            and isinstance(value, bytes)
        ):
            if state.get(key) == expected:
                state[key] = value
                return state, True
            return state, False
    # Unknown or ill-typed commands (possibly from a corrupt replica)
    # are no-ops -- identically at every correct replica.
    return state, None


def _restore_kv(canonical: Any) -> dict[str, bytes]:
    """Rebuild the store's dict from its canonical ``[[k, v], ...]``
    rendering (see :func:`repro.apps.state_machine._canonical`)."""
    if not isinstance(canonical, list):
        raise ValueError("malformed kv snapshot")
    state: dict[str, bytes] = {}
    for entry in canonical:
        if (
            not isinstance(entry, list)
            or len(entry) != 2
            or not isinstance(entry[0], str)
            or not isinstance(entry[1], bytes)
        ):
            raise ValueError("malformed kv snapshot entry")
        state[entry[0]] = entry[1]
    return state


class ReplicatedKvStore:
    """One replica of the key-value store."""

    def __init__(self, ab: AtomicBroadcast):
        self._rsm = ReplicatedStateMachine(
            ab, _apply_kv, initial_state={}, restore_fn=_restore_kv
        )

    @property
    def rsm(self) -> ReplicatedStateMachine:
        return self._rsm

    @property
    def replica_id(self) -> int:
        return self._rsm.replica_id

    # -- writes (replicated) ------------------------------------------------------

    def put(self, key: str, value: bytes) -> None:
        self._rsm.submit(KvCommand.put(key, value))

    def delete(self, key: str) -> None:
        self._rsm.submit(KvCommand.delete(key))

    def cas(self, key: str, expected: bytes | None, value: bytes) -> None:
        self._rsm.submit(KvCommand.cas(key, expected, value))

    # Backpressure-aware variants: False means admission was refused
    # (``config.ab_pending_cap`` local writes still undelivered) -- the
    # write was NOT replicated; retry after deliveries drain.

    def try_put(self, key: str, value: bytes) -> bool:
        return self._rsm.try_submit(KvCommand.put(key, value)) is not None

    def on_result(self, callback: Callable[[Command, Any], None]) -> None:
        """Register a callback for results of locally submitted writes."""
        self._rsm.on_result = callback

    # -- reads (local) -------------------------------------------------------------

    def get(self, key: str) -> bytes | None:
        return self._rsm.state.get(key)

    def keys(self) -> list[str]:
        return sorted(self._rsm.state)

    def __len__(self) -> int:
        return len(self._rsm.state)

    def state_digest(self) -> bytes:
        return self._rsm.state_digest()
