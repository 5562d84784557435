"""Applications built on the RITAS stack.

The paper motivates atomic broadcast as the building block "for many
practical applications"; the canonical one is state machine replication
[Schneider 90], which the paper's introduction cites as equivalent to
consensus.  This package provides:

- :mod:`repro.apps.state_machine` -- deterministic state machine
  replication over atomic broadcast;
- :mod:`repro.apps.kv_store` -- an intrusion-tolerant replicated
  key-value store on top of it.
"""

from repro.apps.kv_store import KvCommand, ReplicatedKvStore
from repro.apps.state_machine import Command, ReplicatedStateMachine

__all__ = [
    "Command",
    "KvCommand",
    "ReplicatedKvStore",
    "ReplicatedStateMachine",
]
