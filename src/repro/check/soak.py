"""Long-horizon soak: hours of simulated time under rotating faults.

The explorer (:mod:`repro.check.explore`) answers "does a fresh run
survive environment X?"; the soak harness answers the ops question
behind intrusion *tolerance*: does one long-lived group, run through
every hostile environment in sequence, come back to baseline each time
a fault clears?  It builds a single n-process simulation with a
replicated KV store, a recovery manager per replica and a sustained
client load, then cycles **fault windows** -- each window arms one
fault mode from the :mod:`repro.net.links` catalog (or a partition, or
a crash/rejoin churn cycle), holds it under load, clears it, lets the
group settle, and asserts **gauge flatness** from :mod:`repro.obs`:

- out-of-context tables drained (``ritas_ooc_pending`` / ``_bytes`` 0),
- no locally-pending AB payloads (``ritas_ab_pending_local`` 0),
- the switch fabric idle (no queued frames on any link),
- live-instance counts back at the post-warmup baseline (bounded GC),
- every recovery manager in ``PHASE_LIVE``.

Any residue is a leak that only shows up under sustained operation --
the failure class unit tests structurally cannot see.  The protocol
invariant checker rides along the whole run (bounded ``order_log_cap``
windows keep its memory flat too), so safety violations surface at the
event that caused them even hours of simulated time in.

Entry points: :func:`run_soak` (library) and
``python -m repro.check soak`` (CLI; ``--smoke`` runs the shortened CI
variant that still covers every gray-failure window).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.apps.kv_store import ReplicatedKvStore
from repro.check.invariants import InvariantChecker
from repro.core.atomic_broadcast import RETAINED_ROUNDS
from repro.core.config import GroupConfig
from repro.net.faults import FaultPlan, Partition
from repro.net.links import (
    Degrading,
    Delay,
    Duplicating,
    FlakyMac,
    LinkModel,
    Lossy,
    Reordering,
)
from repro.net.network import LanSimulation
from repro.obs.export import write_jsonl_path
from repro.recovery import PHASE_LIVE, RecoveryManager

#: Two-site split reused by the WAN and partition windows.
_ZONES = ((0, 1), (2, 3))

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


@dataclass(frozen=True)
class FaultWindow:
    """One entry in the rotating schedule.

    *arm* mutates the runner's live machinery (link model, fault plan,
    churn timers) at window start; *disarm* undoes anything
    :meth:`LinkModel.reset` does not (default: nothing extra).
    *load_period* throttles the per-replica write rate while the fault
    holds -- the slow-replica window must not outrun a 100x-slow CPU.
    """

    name: str
    description: str
    gray: bool = False
    load_period: float = 0.25
    arm: Callable[["SoakRunner"], None] | None = None
    disarm: Callable[["SoakRunner"], None] | None = None


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
        names = {w.name for w in SCHEDULE if w.gray}
        return sum(1 for w in self.windows if w.name in names)


# -- the rotating schedule ---------------------------------------------------------


def _arm_slow_replica(runner: "SoakRunner") -> None:
    runner.model.set_host_slowdown(2, 100.0)


def _arm_flaky_mac(runner: "SoakRunner") -> None:
    flaky = FlakyMac(p=0.1, rto_s=5e-3)
    for dest in runner.sim.config.process_ids:
        if dest != 1:
            runner.model.set_behavior(1, dest, flaky)


def _arm_degrading(runner: "SoakRunner") -> None:
    runner.model.set_default(
        Degrading(
            start_s=runner.sim.now,
            ramp_s=runner.fault_s / 2.0,
            max_extra_s=0.01,
        )
    )


def _arm_wan_asym(runner: "SoakRunner") -> None:
    zone_of = {pid: index for index, zone in enumerate(_ZONES) for pid in zone}
    cross = Delay(base_s=0.015, jitter_s=2e-3)
    for src in runner.sim.config.process_ids:
        for dest in runner.sim.config.process_ids:
            if src != dest and zone_of.get(src) != zone_of.get(dest):
                runner.model.set_behavior(src, dest, cross)


def _arm_lossy(runner: "SoakRunner") -> None:
    runner.model.set_default(Lossy(p=0.08, rto_s=0.01))


def _arm_duplicating(runner: "SoakRunner") -> None:
    runner.model.set_default(Duplicating(p=0.15, echo_delay_s=2e-3))


def _arm_reordering(runner: "SoakRunner") -> None:
    runner.model.set_default(Reordering(p=0.5, spread_s=3e-3))


def _arm_partition(runner: "SoakRunner") -> None:
    now = runner.sim.now
    partition = Partition(now, now + runner.fault_s * 0.6, _ZONES)
    runner.sim.fault_plan.partitions.append(partition)
    runner._armed_partition = partition


def _disarm_partition(runner: "SoakRunner") -> None:
    # Expired anyway -- removed so hours of rotation cannot grow the plan.
    if runner._armed_partition is not None:
        runner.sim.fault_plan.partitions.remove(runner._armed_partition)
        runner._armed_partition = None


def _arm_churn(runner: "SoakRunner") -> None:
    sim = runner.sim

    def crash() -> None:
        sim.fault_plan.crashed[3] = sim.now

    def restart() -> None:
        sim.restart_process(3)
        runner.attach_replica(3, recovering=True)

    sim.loop.schedule_at(sim.now + 1.0, crash)
    sim.loop.schedule_at(sim.now + runner.fault_s * 0.4, restart)


#: The rotation.  Gray-failure windows lead so the CI smoke run (which
#: covers only a prefix of one rotation) always exercises all of them.
SCHEDULE: tuple[FaultWindow, ...] = (
    FaultWindow(
        "gray-slow-replica",
        "replica 2 alive but 100x slow",
        gray=True,
        load_period=2.0,
        arm=_arm_slow_replica,
    ),
    FaultWindow(
        "gray-flaky-mac",
        "replica 1's NIC corrupts 10% of outbound frames",
        gray=True,
        arm=_arm_flaky_mac,
    ),
    FaultWindow(
        "gray-degrading",
        "every link's latency ramps to 10 ms",
        gray=True,
        arm=_arm_degrading,
    ),
    FaultWindow(
        "wan-asym", "15 ms asymmetric cross-zone latency", arm=_arm_wan_asym
    ),
    FaultWindow("wan-lossy", "8% loss as retransmit delay", arm=_arm_lossy),
    FaultWindow("wan-dup", "15% frame duplication", arm=_arm_duplicating),
    FaultWindow("wan-reorder", "half of all frames detour", arm=_arm_reordering),
    FaultWindow(
        "partition-heal",
        "2/2 split held mid-agreement, then healed",
        arm=_arm_partition,
        disarm=_disarm_partition,
    ),
    FaultWindow(
        "churn-rejoin",
        "replica 3 crashes and rejoins through recovery",
        arm=_arm_churn,
    ),
)


# -- the runner --------------------------------------------------------------------


class SoakRunner:
    """One long-lived simulated group driven through fault windows.

    The group runs a replicated KV store on AB with a recovery manager
    per replica (so the churn window can rejoin through checkpoint
    transfer) and a paced open-loop write load.  Windows are executed
    with :meth:`run_window`; :meth:`run` cycles :data:`SCHEDULE` until
    the simulated-time budget is spent.
    """

    def __init__(
        self,
        *,
        seed: int = 0,
        n: int = 4,
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
        self.model = LinkModel()
        self.sim = LanSimulation(
            config=GroupConfig(n, checkpoint_interval=checkpoint_interval),
            seed=seed,
            fault_plan=FaultPlan(),
            tie_break_seed=seed,
            link_model=self.model,
        )
        self.checker = InvariantChecker(
            self.sim,
            deep_check_interval=deep_check_interval,
            order_log_cap=order_log_cap,
        )
        self.sim.enable_metrics()
        self.report = SoakReport(seed=seed, simulated_s=0.0, events=0, writes=0)
        self.stores: dict[int, ReplicatedKvStore] = {}
        self.managers: dict[int, RecoveryManager] = {}
        self._writes = 0
        self._load_period = load_period
        self._load_paused = False
        self._next_put: dict[int, float] = {}
        self._armed_partition: Partition | None = None
        for pid in self.sim.config.process_ids:
            self.attach_replica(pid, recovering=False)

    # -- application layer -----------------------------------------------------------

    def attach_replica(self, pid: int, *, recovering: bool) -> None:
        """(Re)build the application layer on *pid*'s current stack:
        KV store, recovery manager, poke ticker and load ticker.  Used
        at construction and again after the churn window's restart
        (tickers die with the old incarnation)."""
        stack = self.sim.stacks[pid]
        store = ReplicatedKvStore(stack.create("ab", ("kv",)))
        manager = RecoveryManager(stack, store.rsm, recovering=recovering)
        self.stores[pid] = store
        self.managers[pid] = manager
        self._next_put[pid] = self.sim.now
        self.sim.add_ticker(pid, 0.05, manager.poke)
        self.sim.add_ticker(pid, 0.05, lambda: self._tick_load(pid))

    def _tick_load(self, pid: int) -> None:
        sim = self.sim
        if self._load_paused or sim.fault_plan.is_crashed(pid, sim.now):
            return
        if sim.now < self._next_put[pid]:
            return
        # Time-based pacing (not ticker-rate): windows throttle by
        # raising the period, and a paused stretch does not burst when
        # load resumes.
        self._next_put[pid] = sim.now + self._load_period
        self._writes += 1
        if self.managers[pid].phase == PHASE_LIVE:
            self.stores[pid].try_put(
                f"soak/{pid}/{self._writes}", bytes([self._writes % 251])
            )

    # -- flatness --------------------------------------------------------------------

    def _gauges(self) -> dict[str, Any]:
        sim = self.sim
        sim.sample_metrics()
        frames, frame_bytes = sim.link_queue_depth()
        per: dict[int, dict[str, Any]] = {}
        for pid in sim.config.process_ids:
            registry = sim.metric_registries()[pid]
            ab = self.stores[pid].rsm.ab
            per[pid] = {
                "ooc_pending": registry.gauge("ritas_ooc_pending").value,
                "ooc_bytes": registry.gauge("ritas_ooc_bytes").value,
                "instances_live": registry.gauge("ritas_instances_live").value,
                "ab_pending_local": registry.gauge(
                    "ritas_ab_pending_local", path="kv"
                ).value,
                "gc_lag": ab.round - ab.gc_floor,
                "phase": self.managers[pid].phase,
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

    def run_window(self, window: FaultWindow) -> WindowReport:
        """Arm, hold under load, disarm, settle, assert flatness."""
        sim = self.sim
        start = sim.now
        writes_before = self._writes
        self._load_period = window.load_period
        if window.arm is not None:
            window.arm(self)
        sim.run(max_time=start + self.fault_s)
        self.model.reset()
        if window.disarm is not None:
            window.disarm(self)
        self._load_period = self.default_load_period
        # Quiesce: pause the load so in-flight agreements finish, then
        # judge the leftovers.  Flat gauges here mean the fault left no
        # residue -- the soak's whole point.
        self._load_paused = True
        sim.run(max_time=sim.now + self.settle_s)
        self._load_paused = False
        gauges = self._gauges()
        self._assert_flat(window.name, gauges)
        report = WindowReport(
            name=window.name,
            start_s=start,
            end_s=sim.now,
            writes=self._writes - writes_before,
            gauges=gauges,
        )
        self.report.windows.append(report)
        return report

    def _warmup(self) -> WindowReport:
        """Fault-free shakeout window: the group must pass the same
        flatness bar *before* any fault runs, so a later failure is
        attributable to a fault window and not to the harness."""
        return self.run_window(FaultWindow("warmup", "fault-free shakeout"))

    def run(
        self,
        total_s: float,
        *,
        progress: Callable[[WindowReport], None] | None = None,
    ) -> SoakReport:
        """Cycle :data:`SCHEDULE` until *total_s* simulated seconds have
        elapsed (the window in flight always completes), then run the
        checker's final deep sweep."""
        report = self._warmup()
        if progress is not None:
            progress(report)
        index = 0
        while self.sim.now < total_s:
            report = self.run_window(SCHEDULE[index % len(SCHEDULE)])
            index += 1
            if progress is not None:
                progress(report)
        self.checker.check_all()
        self.report.simulated_s = self.sim.now
        self.report.events = self.sim.loop.events_processed
        self.report.writes = self._writes
        return self.report

    def export_obs(self, path: str) -> int:
        """Write the JSONL metrics snapshot CI uploads as an artifact."""
        return write_jsonl_path(
            path,
            self.sim.metric_registries(),
            meta={
                "harness": "soak",
                "seed": self.report.seed,
                "simulated_s": self.sim.now,
                "windows": len(self.report.windows),
            },
        )


def run_soak(
    *,
    hours: float = 1.0,
    seed: int = 0,
    smoke: bool = False,
    out: str | None = None,
    progress: Callable[[WindowReport], None] | None = None,
) -> SoakReport:
    """Run the rotating-fault soak for *hours* of simulated time.

    ``smoke=True`` is the CI variant: shortened windows and a few
    minutes of simulated time, still covering at least one full
    rotation (so every gray-failure window runs).  Raises
    :class:`SoakError` on a flatness failure and
    :class:`~repro.check.invariants.InvariantViolation` on a safety
    violation; *out* (optional) receives the obs JSONL snapshot either
    way -- the artifact matters most when the run fails.
    """
    if smoke:
        runner = SoakRunner(seed=seed, fault_s=6.0, settle_s=4.0)
        total_s = (len(SCHEDULE) + 1) * (runner.fault_s + runner.settle_s)
    else:
        runner = SoakRunner(seed=seed)
        total_s = hours * 3600.0
    try:
        return runner.run(total_s, progress=progress)
    finally:
        if out is not None:
            runner.export_obs(out)
