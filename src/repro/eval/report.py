"""Markdown rendering: one renderer per table of the reproduction
document (``python -m repro.eval``, whose full output is EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.eval import paper_data
from repro.eval.atomic_burst import PAPER_MESSAGE_SIZES, BurstResult, tmax_by_size
from repro.eval.claims import ClaimResult
from repro.eval.stack_analysis import LatencyRow


@dataclass(frozen=True)
class Section:
    """One section of the document: its markdown lines (the last one
    blank) and the verdicts it judged."""

    lines: tuple[str, ...]
    verdicts: tuple[ClaimResult, ...] = ()

    @property
    def holds(self) -> bool:
        return all(verdict.holds for verdict in self.verdicts)


def numbered(*verdicts: tuple[str, bool, str]) -> tuple[ClaimResult, ...]:
    """``(claim, holds, evidence)`` triples as verdicts numbered from 1."""
    return tuple(ClaimResult(i, *verdict) for i, verdict in enumerate(verdicts, 1))


def table(header: Sequence[str], rows: Iterable[Sequence[object]], align: str) -> list[str]:
    """A markdown table; *align* holds one ``l`` or ``r`` per column."""
    rule = "|" + "|".join("---:" if a == "r" else "---" for a in align) + "|"
    lines = ["| " + " | ".join(header) + " |", rule]
    lines += ["| " + " | ".join(str(cell) for cell in row) + " |" for row in rows]
    return lines


def verdict_table(
    verdicts: Sequence[ClaimResult], columns: tuple[str, str] = ("Verdict", "Holds")
) -> list[str]:
    """Numbered verdicts with their evidence; a failed one is **no**."""
    return table(
        ("#",) + columns,
        (
            (v.number, v.claim, f"{'yes' if v.holds else '**no**'} ({v.evidence})")
            for v in verdicts
        ),
        "lll",
    )


def fenced(text: str) -> list[str]:
    """An ASCII chart as a code block."""
    return ["```", text, "```"]


def table1_table(rows: Sequence[LatencyRow]) -> list[str]:
    """Table 1: measured vs paper, with IPSec overhead columns."""

    def cells(row: LatencyRow) -> tuple:
        paper = paper_data.TABLE1_US[row.protocol]
        return (
            row.name,
            f"{row.with_ipsec_us:.0f}",
            f"{row.without_ipsec_us:.0f}",
            f"{row.ipsec_overhead:.0%}",
            paper["ipsec"],
            paper["plain"],
            f"{paper['ipsec'] / paper['plain'] - 1:.0%}",
        )

    return table(
        (
            "Protocol",
            "measured w/ IPSec",
            "measured w/o",
            "measured ovh",
            "paper w/ IPSec",
            "paper w/o",
            "paper ovh",
        ),
        map(cells, rows),
        "lrrrrrr",
    )


def burst_table(results: Sequence[BurstResult]) -> list[str]:
    """One row per burst of a Figure 4-6 sweep."""
    return table(
        ("m (B)", "k", "measured L_burst (ms)", "measured msgs/s", "agreements",
         "bc rounds", "mvc ⊥"),
        (
            (r.message_bytes, r.burst_size, f"{r.latency_s * 1e3:.0f}",
             f"{r.throughput_msgs_s:.0f}", r.agreements, r.max_bc_rounds,
             r.mvc_default_decisions)
            for r in results
        ),
        "rrrrrrr",
    )


def paper_anchor_table(results: Sequence[BurstResult], paper_fig: dict) -> list[str]:
    """L_burst at k=1000 and T_max per message size, beside the paper's."""
    latency = {r.message_bytes: r.latency_s for r in results if r.burst_size == 1000}
    tmax = tmax_by_size(results)
    return table(
        ("m (B)", "measured L_burst @k=1000 (ms)", "paper", "measured T_max (msgs/s)",
         "paper"),
        (
            (m, f"{latency[m] * 1e3:.0f}", paper_fig[m]["latency_ms_k1000"],
             f"{tmax[m]:.0f}", paper_fig[m]["tmax_msgs_s"])
            for m in PAPER_MESSAGE_SIZES
            if m in latency
        ),
        "rrrrr",
    )


def fig7_table(results: Sequence[BurstResult]) -> list[str]:
    """Figure 7: agreement broadcasts against all broadcasts per burst."""
    paper = paper_data.FIG7_AGREEMENT_COST
    return table(
        ("k", "agreement broadcasts", "total broadcasts", "measured cost", "paper"),
        (
            (r.burst_size, r.agreement_broadcasts, r.total_broadcasts,
             f"{r.agreement_cost:.1%}",
             f"{paper[r.burst_size] * 100:g}%" if r.burst_size in paper else "—")
            for r in results
        ),
        "rrrrr",
    )
