"""The soak harness, at test scale.

A miniature run -- short fault windows, a few windows of simulated
time -- through the same code path CI's soak-smoke job and the
hours-long `python -m repro.check soak` use: warmup plus fault windows
armed from the explorer's catalog, flatness asserted after every
settle, invariant checker live throughout, obs snapshot exported at the
end.  Plus the properties the harness rests on: the rotation is the
catalog, and a seeded soak is replayable.
"""


from repro.check.scenarios import ENV_SPAN_S, SCENARIOS, Scenario
from repro.check.soak import SoakRunner, WindowReport, rotation, run_soak
from repro.net.links import LinkModel
from repro.recovery import PHASE_LIVE

FAULT_S = 3.0
SETTLE_S = 2.0

GRAY = ["gray-slow-replica", "gray-flaky-mac", "gray-degrading"]


def _mini_runner(seed=0):
    return SoakRunner(seed=seed, fault_s=FAULT_S, settle_s=SETTLE_S)


def test_schedule_covers_the_catalog(monkeypatch):
    armable = {
        name
        for name, scenario in SCENARIOS.items()
        if not (scenario.byzantine or scenario.crashed)
        and (scenario.link or scenario.partitions or scenario.restarts)
    }
    names = [scenario.name for scenario in rotation()]
    assert len(names) == len(set(names))
    assert set(names) == armable
    assert {"heal-mid-agreement", "laggard-gc", "churn-rejoin"} <= armable
    assert names[: len(GRAY)] == GRAY
    # The soak stretches ENV_SPAN_S to its window: every environment
    # must have played out by then.
    for scenario in rotation():
        ends = [end for _, end, _ in scenario.partitions]
        ends += [rejoin_at for _, _, rejoin_at in scenario.restarts]
        assert max(ends, default=0.0) <= ENV_SPAN_S, scenario.name
    # A scenario added to the catalog joins the rotation.
    added = Scenario(
        name="wan-added", n=4, description="", ops=[], link=lambda _at: LinkModel()
    )
    monkeypatch.setitem(SCENARIOS, added.name, added)
    assert "wan-added" in [scenario.name for scenario in rotation()]


def test_smoke_runs_warmup_and_one_rotation(monkeypatch):
    def record(self, scenario):
        name = scenario.name if scenario is not None else "warmup"
        report = WindowReport(name, self.sim.now, self.sim.now, 0)
        self.report.windows.append(report)
        return report

    monkeypatch.setattr(SoakRunner, "run_window", record)
    report = run_soak(smoke=True)
    assert [w.name for w in report.windows] == [
        "warmup",
        *GRAY,
        "wan-asym",
        "wan-lossy",
        "wan-dup",
        "wan-reorder",
        "heal-mid-agreement",
        "laggard-gc",
        "churn-rejoin",
    ]


def test_mini_soak_runs_flat():
    runner = _mini_runner()
    # Warmup plus the first three rotation windows -- the gray failures.
    report = runner.run(3)
    assert [w.name for w in report.windows] == ["warmup", *GRAY]
    assert report.gray_windows == 3
    assert report.writes > 0
    assert report.events > 0
    # Every window settled flat: no parked frames, no pending AB, live.
    for window in report.windows:
        assert window.gauges["link_frames"] == 0
        for pid, process in window.gauges["process"].items():
            assert process["ooc_pending"] == 0, (window.name, pid)
            assert process["ab_pending_local"] == 0, (window.name, pid)



def test_short_churn_window_rejoins_before_settling():
    # At fault_s=2.0 both crash/rejoin cycles must land inside the
    # window in order (crash before rejoin), and replica 3 must be live
    # again by the end of the settle.
    runner = SoakRunner(fault_s=2.0, settle_s=2.0)
    rejoined = []
    rejoin = runner.load.rejoin
    runner.load.rejoin = lambda pid: (rejoined.append(runner.sim.now), rejoin(pid))
    runner.run_window(None)
    window = runner.run_window(SCENARIOS["churn-rejoin"])
    assert len(rejoined) == 2
    assert all(window.start_s < at < window.start_s + 2.0 for at in rejoined)
    assert window.gauges["process"][3]["phase"] == PHASE_LIVE


def test_two_passes_through_one_window_draw_different_streams(monkeypatch):
    draws = {}
    deliveries = LinkModel.deliveries

    def record(model, src, dest, size, now):
        copies = deliveries(model, src, dest, size, now)
        if (src, dest) == (0, 1):
            draws.setdefault(model, []).append(copies)
        return copies

    monkeypatch.setattr(LinkModel, "deliveries", record)
    runner = SoakRunner(fault_s=1.0, settle_s=1.0)
    for _ in range(2):
        runner.run_window(SCENARIOS["wan-reorder"])
    first, second = draws.values()
    count = min(len(first), len(second))
    assert count >= 10
    assert first[:count] != second[:count]


def test_mini_soak_is_replayable():
    def fingerprint():
        report = _mini_runner(seed=3).run(1)
        return (
            report.simulated_s,
            report.events,
            report.writes,
            [(w.name, w.writes, w.end_s) for w in report.windows],
        )

    assert fingerprint() == fingerprint()
