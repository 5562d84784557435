"""Executable checks of the paper's Section 4.3 claims.

Each claim is one pure function over measured results -- Table 1 rows
(:class:`LatencyRow`) or atomic broadcast bursts (:class:`BurstResult`)
-- returning a verdict with evidence, so every claim has one definition
and one threshold wherever it is judged:

* the ``check_*`` functions (``python -m repro.eval claims --quick``,
  pinned by the test suite) measure reduced workloads -- seconds, not
  minutes; the claims are about shape, which survives the reduction --
  and judge them;
* ``python -m repro.eval claims`` judges the full sweeps behind
  EXPERIMENTS.md with :func:`judge_all`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.eval import paper_data
from repro.eval.atomic_burst import FAULTLOADS, BurstResult, run_burst, tmax_by_size
from repro.eval.stack_analysis import PROTOCOL_ORDER, LatencyRow, latency_table


@dataclass(frozen=True)
class ClaimResult:
    """Verdict for one claim: a paper claim here, or any section's
    verdict in :mod:`repro.eval.sections`."""

    number: int
    claim: str
    holds: bool
    evidence: str


# -- the claims, as predicates over measurements -------------------------------


def latency_ordering(rows: list[LatencyRow]) -> ClaimResult:
    """Claim 1: EB < RB < BC < MVC < VC < AB (Table 1, with IPSec)."""
    latency = {row.protocol: row.with_ipsec_us for row in rows}
    values = [latency[p] for p in PROTOCOL_ORDER]
    return ClaimResult(
        1,
        "latency ordering EB < RB < BC < MVC < VC < AB",
        values == sorted(values),
        " < ".join(f"{p}={latency[p]:.0f}us" for p in PROTOCOL_ORDER),
    )


def ipsec_overhead(rows: list[LatencyRow]) -> ClaimResult:
    """Claim 2: message integrity (IPSec AH) adds latency to every
    protocol, without doubling it."""
    overheads = [row.ipsec_overhead for row in rows]
    table = paper_data.TABLE1_US
    paper = [table[row.protocol]["ipsec"] / table[row.protocol]["plain"] - 1 for row in rows]
    return ClaimResult(
        2,
        "IPSec adds measurable latency overhead",
        all(0.0 < overhead < 1.0 for overhead in overheads),
        f"{min(overheads):.0%} to {max(overheads):.0%} over {len(rows)} protocols; "
        f"paper: {min(paper):.0%} to {max(paper):.0%}",
    )


def one_round_consensus(runs: list[BurstResult]) -> ClaimResult:
    """Claim 3: binary consensus decides in one round under every faultload."""
    rounds: dict[str, int] = {}
    for r in runs:
        rounds[r.faultload] = max(rounds.get(r.faultload, 0), r.max_bc_rounds)
    return ClaimResult(
        3,
        "binary consensus decides in one round under all faultloads",
        all(value == 1 for value in rounds.values()),
        f"most rounds per faultload: {rounds}",
    )


def no_default_decisions(runs: list[BurstResult]) -> ClaimResult:
    """Claim 4: multi-valued consensus never lands on ⊥."""
    bottoms = [
        f"{r.mvc_default_decisions} in {r.faultload} m={r.message_bytes} k={r.burst_size}"
        for r in runs
        if r.mvc_default_decisions
    ]
    return ClaimResult(
        4,
        "multi-valued consensus never decides the default value",
        not bottoms,
        "⊥ decisions, summed over correct processes: " + (", ".join(bottoms) or "none"),
    )


def _affine_fit(points: list[tuple[int, float]]) -> tuple[float, float, float]:
    """Least-squares ``L = a + b*k`` through ``(k, L)`` points: ``(a, b, R²)``."""
    n = len(points)
    mean_k = sum(k for k, _ in points) / n
    mean_l = sum(latency for _, latency in points) / n
    spread = sum((k - mean_k) ** 2 for k, _ in points)
    b = sum((k - mean_k) * (latency - mean_l) for k, latency in points) / spread
    a = mean_l - b * mean_k
    residual = sum((latency - a - b * k) ** 2 for k, latency in points)
    total = sum((latency - mean_l) ** 2 for _, latency in points)
    return a, b, 1.0 - residual / total if total else 0.0


def throughput_shape(runs: list[BurstResult]) -> ClaimResult:
    """Claim 5: failure-free, L_burst is linear in the burst size k and
    T_max falls with message size (Figure 4).

    Linear means an affine fit ``L = a + b*k`` with ``b > 0`` explains at
    least 99% of the variance at every message size with three or more
    burst sizes.  It is affine, not proportional: the paper's own fixed
    cost (Table 1's AB latency) is the intercept.
    """
    free = [r for r in runs if r.faultload == "failure-free"]
    series: dict[int, list[tuple[int, float]]] = {}
    for r in free:
        series.setdefault(r.message_bytes, []).append((r.burst_size, r.latency_s))
    fits = {m: _affine_fit(points) for m, points in series.items() if len(points) >= 3}
    linear = bool(fits) and all(b > 0 and r2 >= 0.99 for _, b, r2 in fits.values())
    tmax = tmax_by_size(free)
    sizes = sorted(tmax)
    falls = len(sizes) > 1 and all(tmax[a] > tmax[b] for a, b in zip(sizes, sizes[1:]))
    lines = "; ".join(
        f"m={m}B L≈{a * 1e3:.0f}ms+{b * 1e3:.3g}ms·k (R²={r2:.3f})"
        for m, (a, b, r2) in sorted(fits.items())
    )
    return ClaimResult(
        5,
        "burst latency linear in k; throughput falls with message size",
        linear and falls,
        f"{lines}; T_max " + " > ".join(f"{tmax[m]:.0f}" for m in sizes) + " msg/s",
    )


def _paired(runs: list[BurstResult], faultload: str) -> list[tuple[BurstResult, BurstResult]]:
    """(failure-free, *faultload*) runs of the same message and burst size."""
    free = {
        (r.message_bytes, r.burst_size): r for r in runs if r.faultload == "failure-free"
    }
    return [
        (free[r.message_bytes, r.burst_size], r)
        for r in runs
        if r.faultload == faultload and (r.message_bytes, r.burst_size) in free
    ]


def fail_stop_speedup(runs: list[BurstResult]) -> ClaimResult:
    """Claim 6: a crash makes the system faster (less contention)."""
    pairs = _paired(runs, "fail-stop")
    slower = [stop for free, stop in pairs if stop.latency_s >= free.latency_s]
    speedups = [free.latency_s / stop.latency_s for free, stop in pairs]
    return ClaimResult(
        6,
        "fail-stop runs faster than failure-free",
        bool(pairs) and not slower,
        f"fail-stop slower in {len(slower)} of {len(pairs)} cells; speedup "
        f"{min(speedups):.2f}x to {max(speedups):.2f}x",
    )


def byzantine_immunity(runs: list[BurstResult]) -> ClaimResult:
    """Claim 7: the Section 4.2 attack costs nothing."""
    pairs = _paired(runs, "byzantine")
    overhead = max((byz.latency_s / free.latency_s - 1 for free, byz in pairs), key=abs)
    return ClaimResult(
        7,
        "Byzantine faultload performance ~ failure-free",
        abs(overhead) < 0.25,
        f"largest attack overhead {overhead:+.1%} over {len(pairs)} cells",
    )


def agreement_dilution(runs: list[BurstResult]) -> ClaimResult:
    """Claim 8: agreement cost ~92% at k=4, a few percent at k=1000
    (10-byte messages, failure-free), every burst in ~2 agreements."""
    cost = {
        r.burst_size: r.agreement_cost
        for r in runs
        if r.faultload == "failure-free" and r.message_bytes == 10
    }
    most = max(r.agreements for r in runs)
    return ClaimResult(
        8,
        "agreement cost dilutes (~92% at k=4 to a few % at k=1000, ~2 agreements)",
        cost[4] > 0.85 and cost[1000] < 0.08 and most <= 3,
        f"k=4: {cost[4]:.1%}; k=1000: {cost[1000]:.1%}; at most {most} "
        "agreements per burst",
    )


def judge_all(rows: list[LatencyRow], runs: list[BurstResult]) -> list[ClaimResult]:
    """Every claim's verdict over one Table 1 and one set of bursts."""
    return [latency_ordering(rows), ipsec_overhead(rows)] + [
        claim(runs)
        for claim in (
            one_round_consensus,
            no_default_decisions,
            throughput_shape,
            fail_stop_speedup,
            byzantine_immunity,
            agreement_dilution,
        )
    ]


# -- the reduced experiments ------------------------------------------------------


def check_latency_ordering(seed: int = 2) -> ClaimResult:
    return latency_ordering(latency_table(runs=1, seed=seed))


def check_ipsec_overhead(seed: int = 2) -> ClaimResult:
    return ipsec_overhead(latency_table(runs=2, seed=seed))


def check_one_round_consensus(seed: int = 2) -> ClaimResult:
    return one_round_consensus([run_burst(32, 10, fl, seed=seed) for fl in FAULTLOADS])


def check_no_default_decisions(seed: int = 2) -> ClaimResult:
    return no_default_decisions([run_burst(32, 10, fl, seed=seed) for fl in FAULTLOADS])


def check_throughput_shape(seed: int = 2) -> ClaimResult:
    return throughput_shape(
        [run_burst(k, m, seed=seed) for m in (10, 10000) for k in (64, 256, 1000)]
    )


def check_fail_stop_speedup(seed: int = 2) -> ClaimResult:
    return fail_stop_speedup(
        [run_burst(64, 10, fl, seed=seed) for fl in ("failure-free", "fail-stop")]
    )


def check_byzantine_immunity(seed: int = 2) -> ClaimResult:
    return byzantine_immunity(
        [run_burst(64, 10, fl, seed=seed) for fl in ("failure-free", "byzantine")]
    )


def check_agreement_dilution(seed: int = 2) -> ClaimResult:
    return agreement_dilution([run_burst(k, 10, seed=seed) for k in (4, 1000)])


ALL_CHECKS: tuple[Callable[[int], ClaimResult], ...] = (
    check_latency_ordering,
    check_ipsec_overhead,
    check_one_round_consensus,
    check_no_default_decisions,
    check_throughput_shape,
    check_fail_stop_speedup,
    check_byzantine_immunity,
    check_agreement_dilution,
)


def check_all(seed: int = 2) -> list[ClaimResult]:
    """Run every claim check; returns verdicts in claim order."""
    return [check(seed) for check in ALL_CHECKS]
