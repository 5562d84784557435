"""Long-horizon soak: hours of simulated time under rotating faults.

The explorer (:mod:`repro.check.explore`) answers "does a fresh run
survive environment X?"; the soak harness answers the ops question
behind intrusion *tolerance*: does one long-lived group, run through
every hostile environment in sequence, come back to baseline each time
a fault clears?  It builds a single 4-process simulation with a
replicated KV store, a recovery manager per replica and a sustained
client load, then cycles **fault windows** -- each window arms the
environment of one scenario from the explorer's catalog
(:mod:`repro.check.scenarios`: a link model, a partition that heals or
crash/rejoin cycles) stretched to the window, holds it under load,
clears it, lets the group settle, and asserts **gauge flatness** from
:mod:`repro.obs`:

- out-of-context tables drained (``ritas_ooc_pending`` 0),
- no locally-pending AB payloads (``ritas_ab_pending_local`` 0),
- the switch fabric idle (no queued frames on any link),
- reclamation lag and live-instance counts under their structural
  ceilings (bounded GC),
- every recovery manager in ``PHASE_LIVE``.

Any residue is a leak that only shows up under sustained operation --
the failure class unit tests structurally cannot see.  The protocol
invariant checker rides along the whole run (its order log keeps a
bounded window, ``order_log_cap``, so its memory stays flat too), and
safety violations surface at the event that caused them even hours of
simulated time in.

Entry points: :func:`run_soak` (library) and
``python -m repro.check soak`` (CLI; ``--smoke`` runs the shortened CI
variant: the warmup and one rotation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.check.invariants import InvariantChecker
from repro.check.scenarios import ENV_SPAN_S, SCENARIOS, KvLoad, Scenario, Timeline
from repro.core.atomic_broadcast import RETAINED_ROUNDS
from repro.core.config import GroupConfig
from repro.net.network import LanSimulation
from repro.recovery import PHASE_LIVE

def _instances_per_round(n: int) -> int:
    """Upper bound on protocol instances one AB agreement round can
    hold live at once.  A fully-populated round's subtree measures 26
    instances at n=4 (n vector-consensus receivers, the multi-valued
    consensus with its per-proposal reliable broadcasts, the binary
    consensus with per-round echo broadcasts, payload broadcasts);
    ``8 * n`` keeps honest headroom above that.  Deliberately generous
    -- the ceiling exists to catch monotone leaks over hours, not to
    second-guess the collector's cadence."""
    return 8 * n


class SoakError(RuntimeError):
    """A flatness assertion failed after a fault window cleared."""

    def __init__(self, window: str, time_s: float, failures: list[str]):
        self.window = window
        self.time_s = time_s
        self.failures = failures
        detail = "; ".join(failures)
        super().__init__(
            f"soak flatness violated after window {window!r} at t={time_s:.1f}s: {detail}"
        )


@dataclass
class WindowReport:
    name: str
    start_s: float
    end_s: float
    writes: int
    gauges: dict[str, Any] = field(default_factory=dict)


@dataclass
class SoakReport:
    seed: int
    simulated_s: float
    events: int
    writes: int
    windows: list[WindowReport] = field(default_factory=list)

    @property
    def gray_windows(self) -> int:
        return sum(1 for w in self.windows if w.name.startswith("gray-"))


def rotation() -> list[Scenario]:
    """The fault windows, in order: every catalog scenario whose
    environment can be armed on a running simulation, gray failures
    first so that a short run still covers all of them."""
    armable = [scenario for scenario in SCENARIOS.values() if scenario.armable]
    return sorted(armable, key=lambda scenario: not scenario.name.startswith("gray-"))


class SoakRunner:
    """One long-lived simulated group driven through fault windows.

    The group runs the catalog's application layer
    (:class:`~repro.check.scenarios.KvLoad`: a replicated KV store on AB
    with a recovery manager per replica, so restarts rejoin through
    checkpoint transfer) under a paced open-loop write load.  Windows
    are executed with :meth:`run_window`; :meth:`run` cycles
    :func:`rotation`.
    """

    def __init__(
        self,
        *,
        seed: int = 0,
        fault_s: float = 20.0,
        settle_s: float = 10.0,
        load_period: float = 0.25,
        checkpoint_interval: int = 16,
        deep_check_interval: int = 4096,
        order_log_cap: int = 256,
    ):
        self.fault_s = fault_s
        self.settle_s = settle_s
        self.default_load_period = load_period
        self.sim = LanSimulation(
            config=GroupConfig(4, checkpoint_interval=checkpoint_interval),
            seed=seed,
            tie_break_seed=seed,
        )
        self.checker = InvariantChecker(
            self.sim,
            deep_check_interval=deep_check_interval,
            order_log_cap=order_log_cap,
        )
        self.sim.enable_metrics()
        self.report = SoakReport(seed=seed, simulated_s=0.0, events=0, writes=0)
        self.load = KvLoad(self.sim, period=load_period, poke_s=0.05)

    # -- flatness --------------------------------------------------------------------

    def _gauges(self) -> dict[str, Any]:
        sim = self.sim
        sim.sample_metrics()
        frames, frame_bytes = sim.link_queue_depth()
        per: dict[int, dict[str, Any]] = {}
        for pid in sim.config.process_ids:
            registry = sim.metric_registries()[pid]
            ab = self.load.stores[pid].rsm.ab
            per[pid] = {
                "ooc_pending": registry.gauge("ritas_ooc_pending").value,
                "ooc_bytes": registry.gauge("ritas_ooc_bytes").value,
                "instances_live": registry.gauge("ritas_instances_live").value,
                "ab_pending_local": registry.gauge(
                    "ritas_ab_pending_local", path="kv"
                ).value,
                "gc_lag": ab.round - ab.gc_floor,
                "phase": self.load.managers[pid].phase,
            }
        return {"link_frames": frames, "link_bytes": frame_bytes, "process": per}

    def _assert_flat(self, window: str, gauges: dict[str, Any]) -> None:
        failures: list[str] = []
        if gauges["link_frames"]:
            failures.append(
                f"{gauges['link_frames']} frames still queued on the fabric"
            )
        # Structural ceilings: atomic broadcast keeps the current round
        # and RETAINED_ROUNDS decided ones behind it, whatever the load
        # or checkpoint cadence, and every delivered message's instance
        # is gone -- so at a quiescent boundary the live-instance count
        # is those rounds' subtrees.  A leak (instances or rounds that
        # never collect) grows past this within a window.
        max_lag = RETAINED_ROUNDS + 1
        ceiling = (max_lag + 1) * _instances_per_round(self.sim.config.num_processes)
        for pid, sample in gauges["process"].items():
            if sample["ooc_pending"]:
                failures.append(f"p{pid}: ooc_pending={sample['ooc_pending']:.0f}")
            if sample["ab_pending_local"]:
                failures.append(
                    f"p{pid}: ab_pending_local={sample['ab_pending_local']:.0f}"
                )
            if sample["phase"] != PHASE_LIVE:
                failures.append(f"p{pid}: recovery phase {sample['phase']!r}")
            if sample["gc_lag"] > max_lag:
                failures.append(
                    f"p{pid}: gc lag {sample['gc_lag']} rounds (cap {max_lag})"
                )
            if sample["instances_live"] > ceiling:
                failures.append(
                    f"p{pid}: instances_live={sample['instances_live']:.0f} "
                    f"(ceiling {ceiling})"
                )
        if failures:
            raise SoakError(window, self.sim.now, failures)

    # -- window execution ------------------------------------------------------------

    def run_window(self, scenario: Scenario | None) -> WindowReport:
        """Arm *scenario*'s environment (``None``: a fault-free window)
        stretched to ``fault_s``, hold it under load, disarm, settle,
        assert flatness."""
        sim = self.sim
        load = self.load
        start = sim.now
        writes_before = load.writes
        previous_model = sim.link_model
        partitions = []
        load.period = self.default_load_period
        load.until = start + self.fault_s
        if scenario is not None:
            at = Timeline(start, self.fault_s / ENV_SPAN_S)
            # The window index tags the link streams, so a later pass
            # through the same scenario never replays earlier draws.
            tag = f"{self.report.seed}/window/{len(self.report.windows)}"
            partitions = scenario.arm(sim, at, seed=tag)
            scenario.arm_restarts(sim, load.rejoin, at)
            if sim.link_model is not None:
                # A slow host must not be outrun: the load drops by the
                # square root of the slowest host's factor, tenfold at
                # 100x (the 100x host falls behind at fourfold).
                slowest = max(map(sim.link_model.cpu_factor, sim.config.process_ids))
                load.period *= math.sqrt(slowest)
        sim.run(max_time=start + self.fault_s)
        # Disarm: the previous network returns, and the expired splits
        # leave the plan so hours of rotation cannot grow it.
        sim.link_model = previous_model
        for partition in partitions:
            sim.fault_plan.partitions.remove(partition)
        # Settle: the load stopped at the window's end, so in-flight
        # agreements finish; flat gauges then mean the fault left no
        # residue -- the soak's whole point.
        sim.run(max_time=sim.now + self.settle_s)
        gauges = self._gauges()
        name = scenario.name if scenario is not None else "warmup"
        self._assert_flat(name, gauges)
        report = WindowReport(
            name=name,
            start_s=start,
            end_s=sim.now,
            writes=load.writes - writes_before,
            gauges=gauges,
        )
        self.report.windows.append(report)
        return report

    def run(
        self,
        windows: int,
        *,
        progress: Callable[[WindowReport], None] | None = None,
    ) -> SoakReport:
        """Run a fault-free warmup window (the group must pass the same
        flatness bar before any fault, so a later failure belongs to a
        fault window), then *windows* fault windows cycling
        :func:`rotation`, then the checker's final deep sweep."""
        faults = rotation()
        for scenario in [None] + [faults[i % len(faults)] for i in range(windows)]:
            report = self.run_window(scenario)
            if progress is not None:
                progress(report)
        self.checker.check_all()
        self.report.simulated_s = self.sim.now
        self.report.events = self.sim.loop.events_processed
        self.report.writes = self.load.writes
        return self.report


def run_soak(
    *,
    hours: float = 1.0,
    seed: int = 0,
    smoke: bool = False,
    progress: Callable[[WindowReport], None] | None = None,
) -> SoakReport:
    """Run the rotating-fault soak for *hours* of simulated time.

    ``smoke=True`` is the CI variant: shortened windows, the warmup and
    exactly one rotation.  Raises
    :class:`SoakError` on a flatness failure and
    :class:`~repro.check.invariants.InvariantViolation` on a safety
    violation.
    """
    if smoke:
        runner = SoakRunner(seed=seed, fault_s=6.0, settle_s=4.0)
        windows = len(rotation())
    else:
        runner = SoakRunner(seed=seed)
        windows = int(hours * 3600.0 // (runner.fault_s + runner.settle_s))
    return runner.run(windows, progress=progress)
