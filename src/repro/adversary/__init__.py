"""Byzantine process behaviours used by the evaluation (Section 4.2).

The paper's Byzantine faultload runs one process that "permanently
tries to disrupt the protocols":

- at the **binary consensus** layer it always proposes and broadcasts
  zero, trying to impose a 0 decision (which would make the multi-valued
  consensus above it abort with ⊥);
- at the **multi-valued consensus** layer it always pushes the default
  value ⊥ in both its INIT and VECT messages, trying to force correct
  processes onto the default decision -- which, at the atomic broadcast
  layer, would waste an agreement round.

Strategies are expressed as protocol-factory transforms so a corrupt
process's stack is assembled with adversarial classes while correct
processes stay untouched (see :class:`repro.core.stack.ProtocolFactory`).
"""

from repro.adversary.strategies import (
    STRATEGIES,
    AlwaysZeroBinaryConsensus,
    BadMacEchoBroadcast,
    BatchOverlapAtomicBroadcast,
    CrashOnProposeBinaryConsensus,
    DefaultValueMultiValuedConsensus,
    DigestForgerReliableBroadcast,
    DuplicateStormReliableBroadcast,
    InitOmitReliableBroadcast,
    OocFlooderAtomicBroadcast,
    RandomBitBinaryConsensus,
    VectForgerAtomicBroadcast,
    bad_mac_faultload,
    batch_overlap_faultload,
    bc_variant,
    byzantine_paper_faultload,
    crash_consensus_faultload,
    digest_forge_faultload,
    duplicate_storm_faultload,
    init_omit_faultload,
    ooc_flood_faultload,
    random_noise_faultload,
    vect_forge_faultload,
)

__all__ = [
    "STRATEGIES",
    "AlwaysZeroBinaryConsensus",
    "BadMacEchoBroadcast",
    "BatchOverlapAtomicBroadcast",
    "CrashOnProposeBinaryConsensus",
    "DefaultValueMultiValuedConsensus",
    "DigestForgerReliableBroadcast",
    "DuplicateStormReliableBroadcast",
    "InitOmitReliableBroadcast",
    "OocFlooderAtomicBroadcast",
    "RandomBitBinaryConsensus",
    "VectForgerAtomicBroadcast",
    "bad_mac_faultload",
    "batch_overlap_faultload",
    "bc_variant",
    "byzantine_paper_faultload",
    "crash_consensus_faultload",
    "digest_forge_faultload",
    "duplicate_storm_faultload",
    "init_omit_faultload",
    "ooc_flood_faultload",
    "random_noise_faultload",
    "vect_forge_faultload",
]
