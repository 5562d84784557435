"""Discrete-event network substrate for running the stack in simulation.

The paper evaluates RITAS on a testbed of four 500 MHz Pentium III PCs
linked by a 100 Mbps switch.  This package substitutes that hardware
with a deterministic discrete-event model that captures what the
evaluation section shows actually matters:

- per-message CPU cost at sender and receiver (the dominant term on the
  500 MHz hosts),
- NIC serialization at link rate and receiver-side contention (why the
  fail-stop faultload is *faster* than failure-free),
- frame overheads: Ethernet/IP/TCP headers plus the IPSec AH header and
  hashing cost (Table 1's last column).

See :mod:`repro.net.network` for the calibrated parameter presets.
"""

from repro.net.faults import FaultPlan, Partition
from repro.net.links import (
    Chain,
    Degrading,
    Delay,
    Duplicating,
    FlakyMac,
    LinkBehavior,
    LinkModel,
    Lossy,
    Reordering,
    latency_matrix,
    zoned_matrix,
)
from repro.net.network import LAN_2006, WAN_EMULATED, LanSimulation, NetworkParameters
from repro.net.simulator import EventLoop

__all__ = [
    "Chain",
    "Degrading",
    "Delay",
    "Duplicating",
    "EventLoop",
    "FaultPlan",
    "FlakyMac",
    "LAN_2006",
    "LinkBehavior",
    "LinkModel",
    "Lossy",
    "Partition",
    "Reordering",
    "WAN_EMULATED",
    "LanSimulation",
    "NetworkParameters",
    "latency_matrix",
    "zoned_matrix",
]
