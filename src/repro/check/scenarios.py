"""Named workloads for the schedule explorer.

A :class:`Scenario` bundles a group size, a fault plan and a list of
**ops** -- the JSON-serializable workload the explorer can shrink.  One
op is one application action::

    ["bc",  instance, pid, bit]        # pid proposes bit on ("bc", instance)
    ["mvc", instance, pid, "value"]    # pid proposes value (utf-8 bytes)
    ["vc",  instance, pid, "value"]    # pid proposes its vector slot
    ["ab",  instance, pid, "payload"]  # pid atomically broadcasts payload

Instances are created lazily on *every* stack at first mention (the
fault plan's factory transforms make the Byzantine process's instances
adversarial, exactly like the evaluation tests), then ops execute in
list order at virtual time zero.  Removing any op still yields a legal
run -- the shrinker relies on that.

Beyond ops, a scenario may carry an *environment*: ``partitions``
(JSON-able split schedules applied through the fault plan), a ``link``
factory building a :class:`~repro.net.links.LinkModel` (asymmetric WAN
matrices, lossy/duplicating/reordering links, gray failures) and
``restarts`` (crash/rejoin cycles through the recovery path).  An
environment is armed on a :class:`Timeline`: the explorer arms it at
time zero as written, the soak (:mod:`repro.check.soak`) arms each
scenario whose environment fits a running simulation
(:attr:`Scenario.armable`) at the start of a fault window, stretched to
the window.  A ``driver`` callable arms the workload's own
time-triggered machinery on the built simulation: load tickers,
liveness checks, and the application layer (:class:`KvLoad`) that
restarts rejoin through.

The registry covers the paper's faultloads (failure-free, fail-stop,
the Section 4.2 Byzantine process), every registered flooding strategy,
``byz-vect-forge`` (forged AB_VECT id sets; every correct broadcast
must still deliver), ``byz-digest-forge`` (forged ECHO and READY
digests, early READYs and payload-carrying ECHOs; every correct
broadcast delivers and only the malformed votes are scored),
``byz-init-omit`` (a sender's INITs skip one correct process, which
must deliver everything from PAYLOAD pushes), ``byz-batch-overlap``
(overlapping batches with conflicting payloads and short batches; each
id delivers once, alike everywhere), ``byz-bc-split`` (the n=6 (n-f)/2 regression), and
the hostile-network catalog: ``wan-asym``, ``wan-lossy``, ``wan-dup``,
``wan-reorder``, ``gray-slow-replica``, ``gray-flaky-mac``,
``gray-degrading``, ``heal-mid-agreement``, ``laggard-gc`` and
``churn-rejoin``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.adversary.strategies import (
    FORGERY_KINDS,
    MALFORMED_VOTE_KINDS,
    OVERLAP_ROUNDS,
    VOTE_FORGERY_KINDS,
)
from repro.apps.kv_store import ReplicatedKvStore
from repro.check.invariants import InvariantViolation
from repro.core.atomic_broadcast import RETAINED_ROUNDS
from repro.core.config import GroupConfig
from repro.net.faults import FaultPlan, Partition
from repro.net.links import (
    TWO_SITES,
    Degrading,
    Duplicating,
    FlakyMac,
    LinkModel,
    Lossy,
    Reordering,
    zoned_matrix,
)
from repro.net.network import LanSimulation
from repro.recovery import RecoveryManager

Op = list  # ["kind", instance, pid, value]

#: JSON-able partition spec: ``(start, end, islands)``.
PartitionSpec = tuple

#: Every armable environment plays out within this much scenario time:
#: the last split heals by 0.6 s, the last replica rejoins at 1.5 s and
#: the degrading ramp tops out at 0.52 s.  The soak stretches this span
#: to its fault window.
ENV_SPAN_S = 2.0


@dataclass(frozen=True)
class Timeline:
    """Where a scenario's times land on a simulation's clock: scenario
    time *t* is simulated time ``start + stretch * t``.  The default is
    the explorer's (as written, from time zero)."""

    start: float = 0.0
    stretch: float = 1.0

    def __call__(self, t: float) -> float:
        return self.start + self.stretch * t


@dataclass(frozen=True)
class Scenario:
    """One named exploration workload."""

    name: str
    n: int
    description: str
    ops: list[Op]
    byzantine: dict[int, str] = field(default_factory=dict)
    crashed: dict[int, float] = field(default_factory=dict)
    config_kwargs: dict[str, Any] = field(default_factory=dict)
    max_time: float = 120.0
    #: Temporary splits, as ``(start, end, islands)`` tuples.
    partitions: tuple[PartitionSpec, ...] = ()
    #: Factory building a fresh :class:`LinkModel` on a timeline per
    #: arming (a shared instance would leak RNG state between runs).
    link: Callable[[Timeline], LinkModel] | None = None
    #: Crash/rejoin cycles, as ``(pid, crash_at, rejoin_at)`` tuples.
    restarts: tuple[tuple[int, float, float], ...] = ()
    #: Callable run once on the built simulation, after :meth:`apply_ops`
    #: and before the clock starts -- arms timers, load and application
    #: machinery, and returns the application restarts rejoin through
    #: (:class:`KvLoad`).  Drivers must schedule deterministically
    #: (simulated clock only).
    driver: Callable[[LanSimulation], Any] | None = None

    @property
    def armable(self) -> bool:
        """Whether the environment can be armed on a running simulation:
        a link model, partitions that heal or replica restarts, and no
        Byzantine or permanently crashed process."""
        environment = self.link is not None or self.partitions or self.restarts
        return bool(environment) and not (self.byzantine or self.crashed)

    def config(self) -> GroupConfig:
        return GroupConfig(self.n, **self.config_kwargs)

    def build(
        self, seed: int, tie_break_seed: int | None, jitter_s: float
    ) -> LanSimulation:
        plan = FaultPlan(crashed=dict(self.crashed))
        for pid, strategy in self.byzantine.items():
            plan.byzantine[pid] = FaultPlan.with_byzantine(pid, strategy).byzantine[pid]
        sim = LanSimulation(
            config=self.config(),
            seed=seed,
            fault_plan=plan,
            jitter_s=jitter_s,
            tie_break_seed=tie_break_seed,
        )
        self.arm(sim)
        return sim

    def arm(
        self, sim: LanSimulation, at: Timeline = Timeline(), *, seed: int | str | None = None
    ) -> list[Partition]:
        """Install the link model and the partitions on *sim*, their
        times placed by *at*.  The link model is built fresh and bound to
        *seed* (default: the simulation's master seed).  Returns the
        partitions added to the fault plan, for the caller to remove."""
        if self.link is not None:
            sim.link_model = self.link(at).bind(sim.seed if seed is None else seed)
        partitions = [
            Partition(at(start), at(end), tuple(tuple(island) for island in islands))
            for start, end, islands in self.partitions
        ]
        sim.fault_plan.partitions.extend(partitions)
        return partitions

    def arm_restarts(
        self, sim: LanSimulation, rejoin: Callable[[int], None], at: Timeline = Timeline()
    ) -> None:
        """Schedule the crash/rejoin cycles, placed by *at*;
        ``rejoin(pid)`` restarts the crashed replica."""

        def crash(pid: int) -> None:
            sim.fault_plan.crashed[pid] = sim.now

        for pid, crash_at, rejoin_at in self.restarts:
            sim.loop.schedule_at(at(crash_at), crash, pid)
            sim.loop.schedule_at(at(rejoin_at), rejoin, pid)

    def apply_ops(self, sim: LanSimulation, ops: list[Op]) -> None:
        """Create the instances ops mention, then execute the ops."""
        for kind, instance, _pid, _value in ops:
            path = (kind, instance)
            for stack in sim.stacks:
                if stack.instance_at(path) is None:
                    stack.create(kind, path)
        for kind, instance, pid, value in ops:
            target = sim.stacks[pid].instance_at((kind, instance))
            if kind == "bc":
                target.propose(value)
            elif kind in ("mvc", "vc"):
                target.propose(value.encode() if isinstance(value, str) else value)
            elif kind == "ab":
                target.broadcast(value.encode() if isinstance(value, str) else value)
            else:
                raise ValueError(f"unknown op kind {kind!r}")

    def start(self, sim: LanSimulation) -> None:
        """Run the driver (if any) on the built simulation, then arm the
        restarts through the application it returned."""
        app = self.driver(sim) if self.driver is not None else None
        if self.restarts:
            self.arm_restarts(sim, app.rejoin)


def _bc_ops(instance: str, proposals: dict[int, int]) -> list[Op]:
    return [["bc", instance, pid, bit] for pid, bit in sorted(proposals.items())]


def _ab_burst(instance: str, pids: list[int], count: int) -> list[Op]:
    return [
        ["ab", instance, pid, f"{pid}:{index}"] for pid in pids for index in range(count)
    ]


def _byz_scenario(strategy: str, n: int = 4, **kwargs: Any) -> Scenario:
    attacker = n - 1
    correct = list(range(n - 1))
    ops = _ab_burst("a", correct, 2) + _bc_ops(
        "v", {pid: pid % 2 for pid in range(n)}
    )
    return Scenario(
        name=f"byz-{strategy}",
        n=n,
        description=f"one process runs the {strategy!r} strategy under an "
        "AB burst and a mixed-proposal binary consensus",
        ops=ops,
        byzantine={attacker: strategy},
        **kwargs,
    )


# -- hostile-environment catalog (link models, partitions, churn) ------------------

#: The standard mixed workload the environment scenarios run: an AB
#: burst from everyone plus a split-proposal binary consensus.
_ENV_OPS = _ab_burst("a", [0, 1, 2, 3], 2) + _bc_ops("v", {0: 1, 1: 0, 2: 1, 3: 0})


def _wan_asym_link(_at: Timeline) -> LinkModel:
    return zoned_matrix(TWO_SITES, intra_s=2e-4, inter_s=0.015, jitter_s=2e-3)


def _wan_lossy_link(_at: Timeline) -> LinkModel:
    return LinkModel(default=Lossy(p=0.08, rto_s=0.01))


def _wan_dup_link(_at: Timeline) -> LinkModel:
    return LinkModel(default=Duplicating(p=0.15, echo_delay_s=2e-3))


def _wan_reorder_link(_at: Timeline) -> LinkModel:
    return LinkModel(default=Reordering(p=0.5, spread_s=3e-3))


def _gray_slow_link(_at: Timeline) -> LinkModel:
    return LinkModel(host_slowdowns={3: 100.0})


def _gray_flaky_mac_link(_at: Timeline) -> LinkModel:
    # Process 2's NIC corrupts outbound frames intermittently; the
    # clean TCP retransmission follows one RTO later.
    flaky = FlakyMac(p=0.1, rto_s=5e-3)
    return LinkModel(behaviors={(2, dest): flaky for dest in range(4) if dest != 2})


def _gray_degrading_link(at: Timeline) -> LinkModel:
    return LinkModel(
        default=Degrading(start_s=at(0.02), ramp_s=at.stretch * 0.5, max_extra_s=0.01)
    )


#: laggard-gc: replica 3 is cut off for this long while the other three
#: keep ordering, load stops at ``_LAGGARD_LOAD_END`` and the group must
#: have settled by ``_LAGGARD_SETTLED``.
_LAGGARD_SPLIT = (0.02, 0.6, ((0, 1, 2), (3,)))
_LAGGARD_LOAD_END = 0.8
_LAGGARD_SETTLED = 2.5


def _laggard_driver(sim: LanSimulation) -> None:
    """Keep every replica A-broadcasting while the partition holds
    replica 3 tens of agreement rounds behind, then check the liveness
    envelope of always-on reclamation: with no recovery layer attached
    the laggard finishes every round from frames its peers had already
    sent (they have long destroyed those rounds), and the whole group
    returns to the flat footprint.  Order agreement is the checker's;
    catching up and flatness are asserted here, as violations, so the
    explorer shrinks and replays them like any other.
    """
    path = ("ab", "a")
    sessions = [stack.instance_at(path) for stack in sim.stacks]
    sent = {"count": len(sessions)}  # the ops' one broadcast apiece

    def write(pid: int) -> None:
        if sim.now < _LAGGARD_LOAD_END:
            sent["count"] += 1
            sessions[pid].broadcast(b"%d/%d" % (pid, sent["count"]))

    for pid in range(len(sessions)):
        sim.add_ticker(pid, 0.02, lambda pid=pid: write(pid))

    def settled() -> None:
        def fail(detail: str) -> None:
            raise InvariantViolation(
                "ab-laggard-liveness", path, detail, sim.loop.events_processed
            )

        if sessions[0].round < 10 * RETAINED_ROUNDS:
            fail(f"only {sessions[0].round} rounds ran: the laggard never lagged")
        for pid, (stack, ab) in enumerate(zip(sim.stacks, sessions)):
            if ab.delivered_count != sent["count"]:
                fail(f"p{pid} delivered {ab.delivered_count} of {sent['count']}")
            if stack.ooc_pending:
                fail(f"p{pid} still parks {stack.ooc_pending} frames out of context")
            if ab.round - ab.gc_floor != RETAINED_ROUNDS:
                fail(f"p{pid} retains rounds {ab.gc_floor}..{ab.round}")
            if stack.live_instances != sim.stacks[0].live_instances:
                fail(
                    f"p{pid} holds {stack.live_instances} instances, "
                    f"p0 {sim.stacks[0].live_instances}"
                )

    sim.loop.schedule_at(_LAGGARD_SETTLED, settled)


#: byz-vect-forge / byz-digest-forge / byz-batch-overlap / byz-init-omit:
#: correct replicas keep A-broadcasting until ``_FORGE_LOAD_END`` so the
#: forger sends every kind of forgery, and every correct broadcast must
#: have delivered by ``_FORGE_SETTLED``.
_FORGE_LOAD_END = 0.3
_FORGE_SETTLED = 1.0

def _forge_driver(
    invariant: str,
    forged: Callable[[LanSimulation, list, int], str | None],
    *,
    forger_writes: bool = False,
) -> Callable[[LanSimulation], None]:
    """Keep the correct replicas (and, with *forger_writes*, the forger)
    A-broadcasting under a forger, then check liveness: each correct
    replica delivered all of its own broadcasts, none waits on a
    payload, and all of them delivered the same id set.
    ``forged(sim, correct, forger)`` adds the strategy's own check,
    returning what went wrong or ``None``.  A failure is raised as
    *invariant*."""

    def driver(sim: LanSimulation) -> None:
        path = ("ab", "a")
        (forger,) = sim.fault_plan.faulty_ids()
        sessions = {}
        for pid, stack in enumerate(sim.stacks):
            sessions[pid] = stack.instance_at(path) or stack.create("ab", path)
        correct = [pid for pid in sessions if pid != forger]

        def write(pid: int) -> None:
            if sim.now < _FORGE_LOAD_END:
                sessions[pid].broadcast(b"w%d" % pid)

        for pid in sessions if forger_writes else correct:
            sim.add_ticker(pid, 0.02, lambda pid=pid: write(pid))

        def settled() -> None:
            def fail(detail: str) -> None:
                raise InvariantViolation(invariant, path, detail, sim.loop.events_processed)

            detail = forged(sim, correct, forger)
            if detail is not None:
                fail(detail)
            reference = sessions[correct[0]]
            for pid in correct:
                ab = sessions[pid]
                if ab.pending_local or ab.stalled_ids():
                    fail(
                        f"p{pid}: {ab.pending_local} own broadcasts undelivered, "
                        f"stalled on {ab.stalled_ids()}"
                    )
                if ab.delivered_frontier() != reference.delivered_frontier():
                    fail(f"p{pid} delivered another id set than p{correct[0]}")

        sim.loop.schedule_at(_FORGE_SETTLED, settled)

    return driver


def _vects_forged(sim: LanSimulation, correct: list, forger: int) -> str | None:
    rounds = sim.stacks[correct[0]].instance_at(("ab", "a")).round
    if rounds < FORGERY_KINDS:
        return f"only {rounds} rounds ran: some forgeries were never sent"
    return None


def _votes_forged(sim: LanSimulation, correct: list, forger: int) -> str | None:
    """Every ECHO and READY forgery was sent, and each correct process
    scored the forger for malformed votes only: at most one offense per
    malformed vote (a vote for a reclaimed instance is dropped unscored),
    and none at all against a correct peer."""
    sent = sim.stacks[forger].factory.resolve("rb").sent
    unsent = [
        (mtype, kind)
        for mtype, kinds in VOTE_FORGERY_KINDS.items()
        for kind in range(kinds)
        if not sent[(mtype, kind)]
    ]
    if unsent:
        return f"(mtype, kind) forgeries {unsent} were never sent"
    malformed = sum(
        sent[(mtype, kind)] for mtype, kinds in MALFORMED_VOTE_KINDS.items() for kind in kinds
    )
    for pid in correct:
        ledger = sim.stacks[pid].ledger
        offenses = ledger.offenses(forger)
        if set(offenses) != {"protocol-violation"} or not (
            0 < offenses["protocol-violation"] <= malformed
        ):
            return f"p{pid} scored the forger {dict(offenses)} for {malformed} malformed votes"
        for peer in correct:
            if ledger.offenses(peer):
                return f"p{pid} scored correct p{peer}: {dict(ledger.offenses(peer))}"
    return None


def _inits_omitted(sim: LanSimulation, correct: list, forger: int) -> str | None:
    """The forger withheld INITs from a correct process, yet every
    correct process delivered as many messages, the forger's own
    broadcasts included, and scored nobody correct (the settle check
    compares the id sets, the checker's ``ab-order`` the sequences)."""
    omitted = sim.stacks[forger].factory.resolve("rb").omitted
    if not any(omitted[pid] for pid in correct):
        return "the forger withheld no INIT from a correct process"
    sessions = [sim.stacks[pid].instance_at(("ab", "a")) for pid in correct]
    for pid, ab in zip(correct, sessions):
        if ab.delivered_count != sessions[0].delivered_count:
            return f"p{pid} delivered another number of messages than p{correct[0]}"
    if not any(sender == forger for sender, _, _ in sessions[0].delivered_frontier()):
        return "no correct process delivered the forger's broadcasts"
    for pid in correct:
        for peer in correct:
            if sim.stacks[pid].ledger.offenses(peer):
                return f"p{pid} scored correct p{peer}"
    return None


def _batches_overlapped(sim: LanSimulation, correct: list, forger: int) -> str | None:
    """Every overlap round was sent, each correct process delivered each
    id at most once (as many deliveries as delivered ids), held every
    short batch as malformed, and scored no correct peer."""
    for pid in correct:
        ab = sim.stacks[pid].instance_at(("ab", "a"))
        frontier = ab.delivered_frontier()
        if ab.delivered_count != sum(last - first + 1 for _, first, last in frontier):
            return f"p{pid} delivered an id twice"
        short = [batch for batch in ab._malformed if batch[0] == forger]
        if len(short) != OVERLAP_ROUNDS:
            return f"p{pid} saw {len(short)} of {OVERLAP_ROUNDS} short batches"
        if not any(sender == forger for sender, _, _ in frontier):
            return f"p{pid} delivered none of the forger's overlapping batches"
        for peer in correct:
            if sim.stacks[pid].ledger.offenses(peer):
                return f"p{pid} scored correct p{peer}"
    return None


class KvLoad:
    """The application layer churn-rejoin and the soak run: a replicated
    KV store over atomic broadcast on every replica, a recovery manager
    each (poked every *poke_s* seconds) for checkpoint certificates and
    rejoin, and a write ticker each (every 50 ms).  A replica writes at
    most once per *period* seconds and never after *until*; the
    invariant checker still sees every protocol instance underneath.

    Tickers die with a crashed incarnation; :meth:`rejoin` restarts the
    process and attaches a recovering store and fresh tickers.
    """

    def __init__(
        self,
        sim: LanSimulation,
        *,
        period: float = 0.0,
        until: float = math.inf,
        poke_s: float = 0.01,
    ):
        self.sim = sim
        self.period = period
        self.until = until
        self.poke_s = poke_s
        self.writes = 0
        self.stores: dict[int, ReplicatedKvStore] = {}
        self.managers: dict[int, RecoveryManager] = {}
        self._next_write: dict[int, float] = {}
        for pid in sim.config.process_ids:
            self.attach(pid, recovering=False)

    def attach(self, pid: int, *, recovering: bool) -> None:
        sim = self.sim
        stack = sim.stacks[pid]
        store = ReplicatedKvStore(stack.create("ab", ("kv",)))
        manager = RecoveryManager(stack, store.rsm, recovering=recovering)
        self.stores[pid] = store
        self.managers[pid] = manager
        self._next_write[pid] = sim.now
        sim.add_ticker(pid, self.poke_s, manager.poke)
        sim.add_ticker(pid, 0.05, lambda: self._write(pid))

    def rejoin(self, pid: int) -> None:
        self.sim.restart_process(pid)
        self.attach(pid, recovering=True)

    def _write(self, pid: int) -> None:
        now = self.sim.now
        if now > self.until or now < self._next_write[pid]:
            return
        self._next_write[pid] = now + self.period
        self.writes += 1
        self.stores[pid].try_put(f"c/{pid}/{self.writes}", bytes([self.writes % 251]))


SCENARIOS: dict[str, Scenario] = {
    scenario.name: scenario
    for scenario in [
        Scenario(
            name="failure-free",
            n=4,
            description="no faults: AB burst plus mixed binary and "
            "multi-valued consensus instances",
            ops=_ab_burst("a", [0, 1, 2, 3], 2)
            + _bc_ops("v", {0: 1, 1: 0, 2: 1, 3: 0})
            + [["mvc", "m", pid, "cfg"] for pid in range(4)],
        ),
        Scenario(
            name="crash",
            n=4,
            description="the paper's fail-stop faultload: one process "
            "crashes shortly after the burst starts; the survivors also "
            "run binary and vector consensus",
            ops=_ab_burst("a", [0, 1, 3], 2)
            + _bc_ops("v", {0: 1, 1: 1, 3: 0})
            + [["vc", "x", pid, f"v{pid}"] for pid in (0, 1, 3)],
            crashed={2: 0.010},
        ),
        _byz_scenario("paper"),
        _byz_scenario("noise"),
        _byz_scenario("crash-consensus"),
        _byz_scenario(
            "ooc-flood",
            config_kwargs={"ooc_capacity": 256},
            max_time=300.0,
        ),
        _byz_scenario("duplicate-storm"),
        _byz_scenario("bad-mac"),
        _byz_scenario(
            "vect-forge",
            driver=_forge_driver("ab-forge-liveness", _vects_forged),
            max_time=_FORGE_SETTLED + 0.1,
        ),
        _byz_scenario(
            "digest-forge",
            driver=_forge_driver("rb-digest-forge", _votes_forged),
            max_time=_FORGE_SETTLED + 0.1,
        ),
        _byz_scenario(
            "init-omit",
            driver=_forge_driver("rb-init-omit", _inits_omitted, forger_writes=True),
            max_time=_FORGE_SETTLED + 0.1,
        ),
        _byz_scenario(
            "batch-overlap",
            driver=_forge_driver("ab-batch-overlap", _batches_overlapped),
            max_time=_FORGE_SETTLED + 0.1,
        ),
        Scenario(
            name="byz-bc-split",
            n=6,
            description="n=6 under the always-zero attack with a 3/2 "
            "split among correct proposals -- the smallest group where "
            "the (n-f)/2 strict-majority bug becomes schedule-reachable",
            ops=_bc_ops("v", {0: 1, 1: 1, 2: 1, 3: 0, 4: 0, 5: 0}),
            byzantine={5: "paper"},
        ),
        Scenario(
            name="byz-bc-split-shared",
            n=6,
            description="byz-bc-split over the Rabin-style shared coin: "
            "the same split and attack, but every correct process sees "
            "the same toss, so rounds-to-decide is bounded",
            ops=_bc_ops("v", {0: 1, 1: 1, 2: 1, 3: 0, 4: 0, 5: 0}),
            byzantine={5: "paper"},
            config_kwargs={"bc_coin": "shared"},
        ),
        Scenario(
            name="byz-bc-split-crain",
            n=6,
            description="byz-bc-split under the Crain 2020 engine "
            "(EST/AUX/CONF rounds over the shared coin): the bc "
            "invariants must hold engine-independently",
            ops=_bc_ops("v", {0: 1, 1: 1, 2: 1, 3: 0, 4: 0, 5: 0}),
            byzantine={5: "paper"},
            config_kwargs={"bc_engine": "crain", "bc_coin": "shared"},
        ),
        Scenario(
            name="wan-asym",
            n=4,
            description="two-site geo-replication: 15 ms asymmetric "
            "cross-zone latency (the Section 4.2 WAN caution, measured)",
            ops=_ENV_OPS,
            link=_wan_asym_link,
        ),
        Scenario(
            name="wan-lossy",
            n=4,
            description="every link loses 8% of frames (modeled as TCP "
            "retransmit delay with doubling RTO)",
            ops=_ENV_OPS,
            link=_wan_lossy_link,
        ),
        Scenario(
            name="wan-dup",
            n=4,
            description="every link duplicates 15% of frames with a "
            "2 ms echo -- the idempotence sweep",
            ops=_ENV_OPS,
            link=_wan_dup_link,
        ),
        Scenario(
            name="wan-reorder",
            n=4,
            description="half of all frames take a jittered detour, "
            "letting later frames overtake them",
            ops=_ENV_OPS,
            link=_wan_reorder_link,
        ),
        Scenario(
            name="gray-slow-replica",
            n=4,
            description="gray failure: replica 3 is correct but 100x "
            "slow -- alive enough to dodge crash handling, slow enough "
            "to lag every quorum",
            ops=_ENV_OPS,
            link=_gray_slow_link,
            max_time=300.0,
        ),
        Scenario(
            name="gray-flaky-mac",
            n=4,
            description="gray failure: process 2's NIC corrupts 10% of "
            "outbound frames (detectably); TCP retransmits clean copies",
            ops=_ENV_OPS,
            link=_gray_flaky_mac_link,
        ),
        Scenario(
            name="gray-degrading",
            n=4,
            description="every link's latency quietly ramps from LAN to "
            "10 ms over half a second -- gray failure in slow-burn form",
            ops=_ENV_OPS,
            link=_gray_degrading_link,
        ),
        Scenario(
            name="heal-mid-agreement",
            n=4,
            description="an AB burst is submitted, then the group splits "
            "2/2 (no quorum anywhere) and heals mid-agreement; every "
            "delivery must land identically after the heal",
            ops=_ab_burst("a", [0, 1, 2, 3], 3),
            partitions=((0.003, 0.4, TWO_SITES),),
        ),
        Scenario(
            name="laggard-gc",
            n=4,
            description="replica 3 is partitioned away for tens of "
            "agreement rounds under load with no recovery layer; after "
            "the heal it must catch up from frames already sent although "
            "its peers reclaimed those rounds, and every footprint must "
            "return to flat",
            ops=_ab_burst("a", [0, 1, 2, 3], 1),
            partitions=(_LAGGARD_SPLIT,),
            driver=_laggard_driver,
            max_time=_LAGGARD_SETTLED + 0.1,
        ),
        Scenario(
            name="churn-rejoin",
            n=4,
            description="replica 3 crashes and rejoins through the "
            "recovery path twice while the group keeps ordering KV "
            "writes (checkpoint transfer under sustained load)",
            ops=[],
            config_kwargs={"checkpoint_interval": 8},
            restarts=((3, 0.15, 0.45), (3, 1.20, 1.50)),
            driver=lambda sim: KvLoad(sim, until=1.8),
            max_time=4.0,
        ),
    ]
}
