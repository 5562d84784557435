"""The evaluation harness: methodology checks, renderers, and every
section of ``python -m repro.eval`` at ``--quick`` with its verdicts.

The paper's Section 4.3 claims are judged in tests/test_claims.py.
"""

import pytest

from repro.eval.atomic_burst import run_burst, tmax_by_size
from repro.eval.paper_data import TABLE1_US
from repro.eval.report import burst_table, fig7_table, table1_table
from repro.eval.sections import SECTIONS
from repro.eval.stack_analysis import (
    PROTOCOL_ORDER,
    latency_table,
    measure_protocol_latency,
)


@pytest.fixture(scope="module")
def table1_rows():
    return latency_table(runs=2, seed=3)


class TestTable1:
    def test_all_protocols_measured(self, table1_rows):
        assert [row.protocol for row in table1_rows] == list(PROTOCOL_ORDER)

    def test_latency_ordering_matches_paper(self, table1_rows):
        """EB < RB < BC < MVC < VC < AB, both with and without IPSec."""
        with_ipsec = [row.with_ipsec_us for row in table1_rows]
        without = [row.without_ipsec_us for row in table1_rows]
        assert with_ipsec == sorted(with_ipsec)
        assert without == sorted(without)

    def test_ipsec_always_costs(self, table1_rows):
        for row in table1_rows:
            assert 0.0 < row.ipsec_overhead < 1.0

    def test_ratios_within_2x_of_paper(self, table1_rows):
        """Shape: each adjacent-layer latency ratio within 2x of paper's."""
        ours = {row.protocol: row.with_ipsec_us for row in table1_rows}
        paper = {proto: TABLE1_US[proto]["ipsec"] for proto in PROTOCOL_ORDER}
        for upper, lower in [("bc", "rb"), ("mvc", "bc"), ("vc", "mvc"), ("ab", "mvc")]:
            ours_ratio = ours[upper] / ours[lower]
            paper_ratio = paper[upper] / paper[lower]
            assert 0.5 < ours_ratio / paper_ratio < 2.0, (upper, lower)

    def test_absolute_within_3x_of_paper(self, table1_rows):
        for row in table1_rows:
            paper_value = TABLE1_US[row.protocol]["ipsec"]
            assert paper_value / 3 < row.with_ipsec_us < paper_value * 3

    def test_measure_rejects_unknown_protocol(self):
        with pytest.raises(ValueError):
            measure_protocol_latency("nope")

    def test_report_renders(self, table1_rows):
        text = "\n".join(table1_table(table1_rows))
        assert "| Reliable Broadcast |" in text
        assert "paper" in text


class TestBurstMethodology:
    def test_result_fields_consistent(self):
        result = run_burst(16, 10, "failure-free", seed=7)
        assert result.delivered == 16
        assert result.throughput_msgs_s == pytest.approx(
            16 / result.latency_s
        )
        assert 0.0 <= result.agreement_cost <= 1.0
        assert result.agreement_broadcasts <= result.total_broadcasts

    def test_all_faultloads_run(self):
        for faultload in ("failure-free", "fail-stop", "byzantine"):
            result = run_burst(8, 10, faultload, seed=7)
            assert result.delivered == 8
            assert result.faultload == faultload

    def test_unknown_faultload_rejected(self):
        with pytest.raises(ValueError):
            run_burst(8, 10, "meteor-strike")

    def test_observer_must_be_correct(self):
        with pytest.raises(ValueError):
            run_burst(8, 10, "fail-stop", observer=3)

    def test_reports_render(self):
        results = [run_burst(k, 10, "failure-free", seed=7) for k in (4, 16)]
        assert "L_burst" in "\n".join(burst_table(results))
        assert "| 4 | 48 |" in "\n".join(fig7_table(results))
        assert tmax_by_size(results)[10] > 0


@pytest.mark.parametrize("name", SECTIONS)
def test_section_verdicts_hold_at_quick(name):
    section = SECTIONS[name](True)
    assert section.lines[-1] == ""
    failed = [f"{v.number}. {v.claim}: {v.evidence}" for v in section.verdicts if not v.holds]
    assert not failed, failed
