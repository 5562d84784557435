"""The fault-injection scenario catalog under the invariant checker.

Every hostile environment PR 8 added -- asymmetric WAN matrices, lossy/
duplicating/reordering links, the three gray failures, mid-agreement
partition healing, a laggard catching up past reclaimed rounds,
crash/rejoin churn -- must hold all protocol
invariants across an explorer sweep (five seeds each, cycling jitter),
not just one lucky schedule.  Alongside, unit coverage for the
order-log window alignment that makes "same total order" checkable
when replicas rejoin mid-history and logs are capped.
"""

import pytest

from repro.check.explore import explore
from repro.check.invariants import align_order_logs
from repro.check.scenarios import SCENARIOS

FAULT_SCENARIOS = (
    "wan-asym",
    "wan-lossy",
    "wan-dup",
    "wan-reorder",
    "gray-slow-replica",
    "gray-flaky-mac",
    "gray-degrading",
    "heal-mid-agreement",
    "laggard-gc",
    "churn-rejoin",
)


def test_catalog_registers_all_fault_scenarios():
    missing = set(FAULT_SCENARIOS) - set(SCENARIOS)
    assert not missing, f"unregistered scenarios: {sorted(missing)}"


@pytest.mark.parametrize("name", FAULT_SCENARIOS)
def test_scenario_holds_invariants_across_seeds(name):
    # explore() returns None when every run is clean, or the shrunken
    # reproducer of the first violation -- which makes a failure here
    # immediately replayable via `python -m repro.check replay`.
    reproducer = explore(name, 5)
    assert reproducer is None, (
        f"{name} violated {reproducer['violation']['invariant']} "
        f"(seed {reproducer['seed']})"
    )


M1, M2, M3, M4 = ((0, 1, b"a"), (0, 2, b"b"), (1, 7, b"c"), (2, 4, b"d"))


class TestAlignOrderLogs:
    def test_equal_windows(self):
        log = [M1, M2, M3]
        assert align_order_logs(log, log) == (0, 0, 3, True)

    def test_rejoined_replica_window_starts_mid_history(self):
        full = [M1, M2, M3, M4]
        suffix = [M3, M4]
        assert align_order_logs(full, suffix) == (2, 0, 2, True)
        assert align_order_logs(suffix, full) == (0, 2, 2, True)

    def test_capped_windows_overlap_in_the_middle(self):
        assert align_order_logs([M1, M2, M3], [M2, M3, M4]) == (1, 0, 2, True)

    def test_disjoint_windows_are_incomparable(self):
        assert align_order_logs([M1, M2], [M3, M4]) is None

    def test_empty_window_is_incomparable(self):
        assert align_order_logs([], [M1]) is None
        assert align_order_logs([M1], []) is None

    def test_swap_is_flagged_not_anchored_past(self):
        # A one-direction scan would anchor [m1, m2] vs [m2, m1] at m1
        # and "agree" on an overlap of one; the bidirectional anchor
        # disagrees, which is the order violation itself.
        index_a, index_b, overlap, agree = align_order_logs([M1, M2], [M2, M1])
        assert not agree
        assert (index_a, index_b) == (0, 1)
        assert overlap == 1

    def test_payload_mismatch_is_not_hidden_by_alignment(self):
        # Alignment anchors on message ids only; the checker compares
        # entries across the overlap, so a same-id payload fork must
        # still land inside the compared window.
        forged = (0, 1, b"FORGED")
        index_a, index_b, overlap, agree = align_order_logs([M1, M2], [forged, M2])
        assert agree
        assert [M1, M2][index_a:index_a + overlap] != [forged, M2][index_b:index_b + overlap]
