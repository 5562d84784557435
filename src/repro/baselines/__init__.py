"""Baseline protocols the paper compares against (Section 5), and the
paper's own reliable broadcast.

The paper's related work contrasts RITAS with leader-based
intrusion-tolerant systems -- Rampart orders messages through a leader
that echo-broadcasts ordering information, which makes ordering cheap
but leaves the system hostage to leader misbehaviour (detection and
removal "is very costly in terms of time and requires synchrony
assumptions").

:class:`SequencerAtomicBroadcast` reproduces that design point so the
``ablation-sequencer`` section of ``python -m repro.eval`` can show both sides: lower latency than the
consensus-based protocol when the leader is correct, and a total
liveness loss when the leader crashes (where RITAS keeps delivering).

:class:`PaperReliableBroadcast` is Bracha's broadcast with ECHO
relaying the message, as the paper measures it; the simulated figures
run on it.
"""

from repro.baselines.paper_rb import PaperReliableBroadcast, with_paper_rb
from repro.baselines.sequencer import SequencerAtomicBroadcast, with_sequencer

__all__ = [
    "PaperReliableBroadcast",
    "SequencerAtomicBroadcast",
    "with_paper_rb",
    "with_sequencer",
]
