"""Group configuration and quorum arithmetic (Section 2 of the paper)."""

import ast
import dataclasses
from pathlib import Path

import pytest

from repro.core.config import GroupConfig, max_faulty
from repro.core.errors import ConfigurationError


class TestMaxFaulty:
    def test_paper_group(self):
        assert max_faulty(4) == 1

    def test_small_groups(self):
        assert max_faulty(1) == 0
        assert max_faulty(2) == 0
        assert max_faulty(3) == 0

    def test_first_two_fault_group(self):
        assert max_faulty(7) == 2

    def test_exact_3f_plus_1(self):
        for f in range(0, 20):
            assert max_faulty(3 * f + 1) == f

    def test_slack_does_not_raise_f(self):
        assert max_faulty(5) == 1
        assert max_faulty(6) == 1
        assert max_faulty(9) == 2


class TestGroupConfig:
    def test_defaults_to_optimal_resilience(self):
        config = GroupConfig(4)
        assert config.n == 4
        assert config.f == 1

    def test_explicit_smaller_f_allowed(self):
        config = GroupConfig(7, num_faulty=1)
        assert config.f == 1

    def test_f_zero_allowed(self):
        assert GroupConfig(1, num_faulty=0).f == 0

    def test_too_large_f_rejected(self):
        with pytest.raises(ConfigurationError, match="3f"):
            GroupConfig(4, num_faulty=2)

    def test_negative_f_rejected(self):
        with pytest.raises(ConfigurationError):
            GroupConfig(4, num_faulty=-2)

    def test_empty_group_rejected(self):
        with pytest.raises(ConfigurationError):
            GroupConfig(0)

    def test_ooc_capacity_below_n_rejected(self):
        """Each sender's OOC quota is ``ooc_capacity // n``; it must be
        at least one slot."""
        assert GroupConfig(7, ooc_capacity=7).ooc_capacity == 7
        with pytest.raises(ConfigurationError, match="ooc_capacity"):
            GroupConfig(7, ooc_capacity=6)

    def test_process_ids(self):
        assert list(GroupConfig(4).process_ids) == [0, 1, 2, 3]

    def test_frozen(self):
        config = GroupConfig(4)
        with pytest.raises(AttributeError):
            config.num_processes = 7  # type: ignore[misc]


def _documented_fields() -> dict[str, str]:
    """``field -> default cell`` from the docs/API.md fields table."""
    lines = (Path(__file__).parent.parent / "docs" / "API.md").read_text().splitlines()
    start = lines.index("### `GroupConfig` fields")
    rows: dict[str, str] = {}
    for line in lines[start:]:
        if line.startswith("| `"):
            cells = [cell.strip() for cell in line.strip("|").split("|")]
            rows[cells[0].strip("`")] = cells[1].strip("`")
        elif rows and not line.startswith("|"):
            break
    return rows


def test_api_doc_lists_every_field_with_its_default():
    """docs/API.md's table is the list of knobs: adding, removing or
    re-defaulting a field without editing it fails here."""
    documented = _documented_fields()
    fields = dataclasses.fields(GroupConfig)
    assert list(documented) == [f.name for f in fields]
    for f in fields:
        cell = documented[f.name]
        if f.default is dataclasses.MISSING:
            assert cell == "required", f.name
        else:
            assert ast.literal_eval(cell) == f.default, f.name
            assert type(ast.literal_eval(cell)) is type(f.default), f.name


class TestQuorums:
    """The thresholds Section 2 derives for n=4, f=1."""

    def test_echo_quorum_paper_group(self, config4):
        # floor((n+f)/2) + 1 = floor(5/2) + 1 = 3
        assert config4.echo_quorum == 3

    def test_ready_amplify_paper_group(self, config4):
        assert config4.ready_amplify == 2  # f + 1

    def test_ready_quorum_paper_group(self, config4):
        assert config4.ready_quorum == 3  # 2f + 1

    def test_wait_quorum_paper_group(self, config4):
        assert config4.wait_quorum == 3  # n - f

    def test_value_quorum_paper_group(self, config4):
        assert config4.value_quorum == 2  # n - 2f

    def test_mat_quorum_paper_group(self, config4):
        assert config4.mat_quorum == 2  # f + 1

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 10, 13, 16, 31])
    def test_quorum_relations_hold_generally(self, n):
        """Sanity relations the protocol proofs rely on."""
        config = GroupConfig(n)
        f = config.f
        # Any two (n-f)-subsets intersect in >= n-2f >= f+1 processes.
        assert 2 * config.wait_quorum - n >= f + 1
        # The echo quorum majority-intersects: two echo quorums share a
        # correct process.
        assert 2 * config.echo_quorum - n >= f + 1
        # Delivering 2f+1 READYs guarantees f+1 correct READYs, which
        # exceeds the ready_amplify bar for everyone else.
        assert config.ready_quorum - f >= config.ready_amplify
        # Waiting for n-f messages can always be satisfied.
        assert config.wait_quorum <= n - f
