"""Protocol invariant checking and schedule exploration.

The paper's correctness claims -- agreement, validity, total order --
are asserted *while a simulation runs* instead of only at the end of a
happy-path test:

- :mod:`repro.check.invariants` attaches an :class:`InvariantChecker`
  to a :class:`~repro.net.network.LanSimulation`; after every simulator
  event it compares the :meth:`~repro.core.stack.ControlBlock.inspect`
  snapshots of same-path instances across correct processes, compares
  their atomic-broadcast delivery orders (an :class:`OrderLog`
  subscribed to the stacks' ``deliver`` events) and checks each
  stack's out-of-context accounting conservation law.
- :mod:`repro.check.scenarios` registers named workloads (failure-free,
  crash, every Byzantine strategy, and an n=6 split-vote stress).
- :mod:`repro.check.explore` sweeps seeds, event-queue tie-break orders
  and latency jitter across a scenario, and shrinks any violation to a
  minimal JSON reproducer that ``python -m repro.check replay``
  re-executes deterministically (runs are fully determined by their
  parameters, so the reproducer needs only those).
- :mod:`repro.check.soak` drives one long-lived group through hours of
  simulated time, rotating through the catalog's hostile environments
  (every :attr:`Scenario.armable` scenario), asserting gauge
  flatness from :mod:`repro.obs` each time a fault clears.

CLI: ``python -m repro.check {explore,replay,scenarios,soak}``.
"""

from repro.check.explore import (
    REPRODUCER_FORMAT,
    explore,
    replay,
    run_one,
    shrink,
)
from repro.check.invariants import InvariantChecker, InvariantViolation, OrderLog
from repro.check.scenarios import SCENARIOS, Scenario

__all__ = [
    "REPRODUCER_FORMAT",
    "InvariantChecker",
    "InvariantViolation",
    "OrderLog",
    "SCENARIOS",
    "Scenario",
    "explore",
    "replay",
    "run_one",
    "shrink",
]
