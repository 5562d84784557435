"""The numbers the paper reports, for side-by-side comparison.

Source: Moniz et al., DSN 2006, Section 4.  Our reproduction runs on a
calibrated simulator, so absolute values are model-derived; the *shape*
(orderings, ratios, crossovers) is what EXPERIMENTS.md checks.
"""

from __future__ import annotations

#: Table 1 -- average latency (microseconds) for isolated executions.
TABLE1_US = {
    "eb": {"ipsec": 1724, "plain": 1497},
    "rb": {"ipsec": 2134, "plain": 1641},
    "bc": {"ipsec": 8922, "plain": 6816},
    "mvc": {"ipsec": 16359, "plain": 11186},
    "vc": {"ipsec": 20673, "plain": 15382},
    "ab": {"ipsec": 23744, "plain": 18604},
}

#: Figures 4-6 -- burst latency at k=1000 (milliseconds) and maximum
#: throughput (messages/second), per message size (bytes).
FIG4_FAILURE_FREE = {
    10: {"latency_ms_k1000": 1386, "tmax_msgs_s": 721},
    100: {"latency_ms_k1000": 1539, "tmax_msgs_s": 650},
    1000: {"latency_ms_k1000": 2150, "tmax_msgs_s": 465},
    10000: {"latency_ms_k1000": 12340, "tmax_msgs_s": 81},
}

FIG5_FAIL_STOP = {
    10: {"latency_ms_k1000": 988, "tmax_msgs_s": 858},
    100: {"latency_ms_k1000": 1164, "tmax_msgs_s": 621},
    1000: {"latency_ms_k1000": 1607, "tmax_msgs_s": 834},
    10000: {"latency_ms_k1000": 8655, "tmax_msgs_s": 115},
}

FIG6_BYZANTINE = {
    10: {"latency_ms_k1000": 1404, "tmax_msgs_s": 711},
    100: {"latency_ms_k1000": 1576, "tmax_msgs_s": 634},
    1000: {"latency_ms_k1000": 2175, "tmax_msgs_s": 460},
    10000: {"latency_ms_k1000": 12347, "tmax_msgs_s": 81},
}

#: Figure 7 -- relative cost of agreement (fraction of all reliable+echo
#: broadcasts spent on agreement) at the extreme burst sizes.
FIG7_AGREEMENT_COST = {4: 0.92, 1000: 0.024}
