"""Smoke tests: every example script runs, and ``python -m repro.eval`` works."""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.eval.cli import main as cli_main

EXAMPLES = Path(__file__).parent.parent / "examples"


def run_example(name: str, timeout: int = 180) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "identical order at all processes: True" in out

    def test_byzantine_faultloads(self):
        out = run_example("byzantine_faultloads.py")
        assert "every binary consensus decided in one round: True" in out
        assert "no multi-valued consensus ever decided ⊥: True" in out

    def test_agreement_dilution(self):
        out = run_example("agreement_dilution.py")
        assert "92" in out  # the k=4 anchor

    def test_replicated_kv(self):
        out = run_example("replicated_kv.py")
        assert "correct replicas agree on state: True" in out

    def test_protocol_trace(self):
        out = run_example("protocol_trace.py")
        assert "decided value 1 in round 1" in out


class TestCli:
    def test_table1_quick(self, capsys):
        assert cli_main(["table1", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "Atomic Broadcast" in out

    def test_fig7_quick(self, capsys):
        assert cli_main(["fig7", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "relative cost of agreement" in out

    def test_exits_1_when_a_verdict_fails(self, monkeypatch, capsys):
        from repro.eval import sections
        from repro.eval.report import Section, numbered

        failing = Section(("## failing", ""), numbered(("never", False, "by construction")))
        monkeypatch.setitem(sections.SECTIONS, "table1", lambda quick: failing)
        assert cli_main(["table1"]) == 1
        assert capsys.readouterr().out == "## failing\n"

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            cli_main(["fig99"])
