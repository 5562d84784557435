"""The schedule explorer: catches a reintroduced consensus bug, shrinks
it to a reproducer, and replays it deterministically.

The reintroduced bug is the one the issue names: weakening binary
consensus's step-2 strict-majority bar from ``n/2`` to ``(n-f)/2``.
``byz-bc-split`` (n=6, always-zero attacker, 3/2 proposal split) is the
smallest scenario where that opens a real safety hole; the explorer
finds a schedule where two correct processes enter step 3 of the same
round with different values -- the lemma the bar exists to protect.
"""

import json

import pytest

from repro.check.__main__ import main as check_main
from repro.check.explore import (
    REPRODUCER_FORMAT,
    dump_reproducer,
    explore,
    load_reproducer,
    replay,
    run_one,
)
from repro.check.scenarios import SCENARIOS
from repro.core.binary_consensus import BinaryConsensus


@pytest.fixture
def weakened_bar(monkeypatch):
    """Reintroduce the unsafe (n-f)/2 strict-majority bar."""
    monkeypatch.setattr(
        BinaryConsensus,
        "_strict_majority_bar",
        lambda self: (self.config.n - self.config.f) // 2 + 1,
    )


# (seed, tie_break_seed, jitter) known to drive byz-bc-split into the
# step-3 split under the weakened bar; explore() visits it at index 1
# when started from base_seed 5.  (Re-pinned when jitter moved to
# per-link RNG streams, when READY started carrying a digest instead of
# the payload, and when ECHO did too -- each shifted the schedule space.)
BAD_SEED = 6
BAD_JITTER = 1e-4
EXPLORE_BASE = 5


class TestReintroducedBug:
    def test_run_one_hits_violation(self, weakened_bar):
        result = run_one(
            "byz-bc-split", seed=BAD_SEED, tie_break_seed=BAD_SEED, jitter_s=BAD_JITTER
        )
        assert result["outcome"] == "violation"
        assert result["invariant"] == "bc-step3-uniqueness"
        assert result["path"] == ["bc", "v"]
        assert result["event_index"] > 0

    def test_explorer_catches_and_shrinks(self, weakened_bar):
        reproducer = explore("byz-bc-split", 4, base_seed=EXPLORE_BASE)
        assert reproducer is not None
        assert reproducer["format"] == REPRODUCER_FORMAT
        assert reproducer["violation"]["invariant"] == "bc-step3-uniqueness"
        # Shrinking only removes ops, never invents them.
        original = SCENARIOS["byz-bc-split"].ops
        assert all(op in original for op in reproducer["ops"])
        assert len(reproducer["ops"]) <= len(original)
        # Truncated to the violating event.
        assert reproducer["max_events"] == reproducer["violation"]["event_index"]

    def test_replay_is_deterministic(self, weakened_bar):
        reproducer = explore("byz-bc-split", 4, base_seed=EXPLORE_BASE)
        first = replay(reproducer)
        second = replay(reproducer)
        assert first == second
        assert first["outcome"] == "violation"
        assert first["invariant"] == "bc-step3-uniqueness"

    def test_reproducer_runs_clean_once_fixed(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            BinaryConsensus,
            "_strict_majority_bar",
            lambda self: (self.config.n - self.config.f) // 2 + 1,
        )
        reproducer = explore("byz-bc-split", 4, base_seed=EXPLORE_BASE)
        path = tmp_path / "repro.json"
        dump_reproducer(reproducer, str(path))
        loaded = load_reproducer(str(path))
        assert loaded == json.loads(path.read_text())
        assert replay(loaded)["outcome"] == "violation"
        monkeypatch.undo()  # restore the honest n/2 bar
        assert replay(loaded)["outcome"] == "ok"

    def test_honest_bar_stays_clean(self):
        assert explore("byz-bc-split", 6, base_seed=EXPLORE_BASE) is None


class TestDeterminism:
    def test_run_one_is_pure(self):
        kwargs = dict(seed=9, tie_break_seed=9, jitter_s=1e-4)
        assert run_one("failure-free", **kwargs) == run_one("failure-free", **kwargs)

    def test_rejects_unknown_format(self):
        with pytest.raises(ValueError, match="unsupported reproducer format"):
            replay({"format": "bogus/v0"})

    def test_rejects_unknown_scenario(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            run_one("no-such-scenario", seed=0, tie_break_seed=0)


class TestCli:
    def test_scenarios_lists_registry(self, capsys):
        assert check_main(["scenarios"]) == 0
        out = capsys.readouterr().out
        for name in SCENARIOS:
            assert name in out

    def test_explore_clean_exits_zero(self, capsys):
        assert check_main(["explore", "--scenario", "failure-free", "--budget", "2"]) == 0
        assert "no invariant violations" in capsys.readouterr().out

    def test_explore_unknown_scenario_exits_two(self, capsys):
        assert check_main(["explore", "--scenario", "nope", "--budget", "1"]) == 2

    def test_explore_violation_writes_reproducer(
        self, weakened_bar, tmp_path, capsys
    ):
        out = tmp_path / "bug.json"
        code = check_main(
            [
                "explore",
                "--scenario",
                "byz-bc-split",
                "--budget",
                "4",
                "--seed-base",
                str(EXPLORE_BASE),
                "--out",
                str(out),
            ]
        )
        assert code == 1
        assert "INVARIANT VIOLATION" in capsys.readouterr().err
        reproducer = load_reproducer(str(out))
        assert reproducer["violation"]["invariant"] == "bc-step3-uniqueness"
        # The written artifact replays to an exit-1 violation via the CLI.
        assert check_main(["replay", str(out)]) == 1
