"""Ablations and extensions: the design choices the paper argues for,
and the subsystems it does not evaluate, measured on the same
calibrated model as :mod:`repro.eval.sections`.

Each function runs one experiment and returns its section; the verdicts
are pure predicates over what it measured.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable

from repro.apps.kv_store import KvCommand, ReplicatedKvStore
from repro.baselines import with_sequencer
from repro.core.config import GroupConfig
from repro.core.stack import ProtocolFactory
from repro.core.stats import StackStats
from repro.eval.atomic_burst import run_burst
from repro.eval.bc_compare import (
    ENGINE_PAIRS,
    burst_throughput,
    isolated_latency,
    rounds_distribution,
)
from repro.eval.claims import ClaimResult
from repro.eval.report import Section, numbered, table, verdict_table
from repro.eval.stack_analysis import measure_protocol_latency
from repro.net.faults import FaultPlan
from repro.net.links import TWO_SITES, zoned_matrix
from repro.net.network import LAN_2006, WAN_EMULATED, LanSimulation, NetworkParameters
from repro.recovery import PHASE_LIVE, RecoveryManager


def _section(title: str, intro: str, body: list[str], verdicts: tuple[ClaimResult, ...]) -> Section:
    lines = [f"## {title}", "", intro, "", *body, "", *verdict_table(verdicts), ""]
    return Section(tuple(lines), verdicts)


# -- ablation-coin: binary-consensus engines and coins ------------------------------


def within(dist: Counter, rounds: int) -> int:
    """Samples that decided in at most *rounds* rounds."""
    return sum(count for r, count in dist.items() if r <= rounds)


def coin_verdicts(dists: dict[tuple[str, str], Counter]) -> tuple[ClaimResult, ...]:
    samples = sum(next(iter(dists.values())).values())
    local, crain = dists["bracha", "local"], dists["crain", "shared"]
    return numbered(
        (
            "every engine decides most split-proposal samples within 3 rounds",
            all(within(dist, 3) > samples / 2 for dist in dists.values()),
            ", ".join(f"{e}+{c}: {within(d, 3)}/{samples}" for (e, c), d in dists.items()),
        ),
        (
            "the local coin's round-1 fast path decides over a third of them",
            local[1] > samples / 3,
            f"{local[1]}/{samples} in round 1",
        ),
        (
            "Crain's coin-matching rounds decay geometrically: 3/4 within 4 rounds",
            within(crain, 4) > samples * 3 / 4,
            f"{within(crain, 4)}/{samples}",
        ),
    )


def coin(quick: bool) -> Section:
    samples = 40 if quick else 120
    dists = {pair: rounds_distribution(*pair, samples=samples) for pair in ENGINE_PAIRS}
    rows = []
    for (engine, coin_source), dist in dists.items():
        mean = sum(r * count for r, count in dist.items()) / samples
        histogram = " ".join(f"{r}:{count}" for r, count in sorted(dist.items()))
        rows.append(
            (
                f"{engine} + {coin_source}",
                f"{isolated_latency(engine, coin_source) * 1e3:.1f}",
                f"{burst_throughput(engine, coin_source):.0f}",
                histogram,
                f"{mean:.2f}",
            )
        )
    return _section(
        "Ablation — binary-consensus engines and coins (`ablation-coin`)",
        "RITAS runs Bracha-style rounds over a local coin (Section 5). The same "
        "engine over a Rabin-style shared coin, and the Crain 2020 engine (whose "
        "decide rule must match the shared coin), ride the same interface. "
        "Isolated latency is one unanimous instance; throughput is a k=16, "
        f"m=100 AB burst; the round histogram is {samples} split-proposal "
        "instances on shuffled schedules (`repro.eval.bc_compare`).",
        table(
            ("engine + coin", "isolated latency (ms)", "AB msgs/s", "round: samples decided",
             "mean rounds"),
            rows,
            "lrrlr",
        ),
        coin_verdicts(dists),
    )


# -- ablation-sequencer: leader-free vs leader-based order ---------------------------


def ordered_burst(kind: str, leader_crashed: bool, burst: int = 64, seed: int = 8) -> list[float]:
    """Delivery times at the last live process when the live processes
    split a burst of 10-byte messages, ordered by *kind* (``"ab"`` or
    the ``"seq-ab"`` baseline led by process 0)."""
    plan = FaultPlan.fail_stop(0) if leader_crashed else FaultPlan.failure_free()
    factory = with_sequencer(ProtocolFactory.default())
    sim = LanSimulation(n=4, seed=seed, fault_plan=plan, base_factory=factory)
    live = sim.correct_ids()
    kwargs = {"leader": 0} if kind == "seq-ab" else {}
    for pid in live:
        sim.stacks[pid].create(kind, ("s",), **kwargs)
    delivered: list[float] = []
    observer = sim.stacks[live[-1]].instance_at(("s",))
    observer.on_deliver = lambda _i, _d: delivered.append(sim.now)
    per_sender = burst // len(live)
    for pid in live:
        for _ in range(per_sender):
            sim.stacks[pid].instance_at(("s",)).broadcast(bytes(10))
    sim.run(until=lambda: len(delivered) >= per_sender * len(live), max_time=120.0)
    return delivered


def sequencer(quick: bool) -> Section:
    runs = {
        (kind, crashed): ordered_burst(kind, crashed)
        for crashed in (False, True)
        for kind in ("seq-ab", "ab")
    }
    seq, ritas = runs["seq-ab", False][-1], runs["ab", False][-1]
    verdicts = numbered(
        (
            "with an honest leader the sequencer orders the burst sooner",
            seq < ritas,
            f"{seq * 1e3:.1f} ms against RITAS's {ritas * 1e3:.1f} ms",
        ),
    )
    names = {"seq-ab": "sequencer (Rampart-style)", "ab": "RITAS atomic broadcast"}
    return _section(
        "Ablation — leader-free vs leader-based order (`ablation-sequencer`)",
        "A k=64 burst of 10-byte messages ordered by RITAS or by a sequencer "
        "baseline whose fixed leader (process 0) numbers every message, with "
        "process 0 correct and crashed. The sequencer has no view change, so a "
        "crashed leader stops it for good (Section 5's argument for leader-free "
        "protocols).",
        table(
            ("order by", "process 0", "delivered", "burst latency (ms)"),
            (
                (names[kind], "crashed" if crashed else "correct", len(times),
                 f"{times[-1] * 1e3:.1f}" if times else "—")
                for (kind, crashed), times in runs.items()
            ),
            "llrr",
        ),
        verdicts,
    )


# -- ablation-signatures: the signature tax ------------------------------------------

#: RSA-1024 on a 500 MHz Pentium III (OpenSSL-era figures).
SIGN_S = 8e-3
VERIFY_S = 0.4e-3

#: LAN_2006 with a signature on every sent frame, a verification on every
#: received one.
SIGNED = LAN_2006.with_overrides(
    cpu_send_s=LAN_2006.cpu_send_s + SIGN_S,
    cpu_recv_s=LAN_2006.cpu_recv_s + VERIFY_S,
)

#: SINTRA's measured atomic broadcast throughput on a LAN (paper, Section 5).
SINTRA_AB_MSGS_S = 1.45


def signatures(quick: bool) -> Section:
    free = run_burst(64, 10, seed=14).throughput_msgs_s
    taxed = run_burst(64, 10, seed=14, params=SIGNED, max_time=3600.0).throughput_msgs_s
    verdicts = numbered(
        ("the signature-free stack orders over 100 msgs/s", free > 100, f"{free:.0f} msgs/s"),
        (
            "per-frame signatures cost over 10× the throughput",
            free / taxed > 10,
            f"{free / taxed:.0f}×; signed, the stack still orders "
            f"{taxed / SINTRA_AB_MSGS_S:.0f}× SINTRA's {SINTRA_AB_MSGS_S} msgs/s",
        ),
    )
    return _section(
        "Ablation — the signature tax (`ablation-signatures`)",
        "Why RITAS is signature-free: the same k=64, m=10 burst with an RSA-1024 "
        f"signature ({SIGN_S * 1e3:g} ms) charged to every sent frame and a "
        f"verification ({VERIFY_S * 1e3:g} ms) to every received one. The paper "
        "contrasts SINTRA, whose protocols depend on public-key cryptography.",
        table(
            ("stack", "AB msgs/s"),
            (
                ("hashes and MACs (RITAS)", f"{free:.0f}"),
                ("per-frame RSA-1024 signatures", f"{taxed:.1f}"),
                ("SINTRA, measured in the paper", SINTRA_AB_MSGS_S),
            ),
            "lr",
        ),
        verdicts,
    )


# -- ablation-mvc-channel: echo vs reliable broadcast in MVC's VECT phase ------------


def run_mvc(vect_channel: str, seed: int = 12) -> tuple[float, int]:
    """(decision latency in seconds, frames delivered) of one unanimous
    multi-valued consensus whose VECT phase uses *vect_channel*."""
    sim = LanSimulation(n=4, seed=seed)
    done: list[object] = [None] * 4
    for pid, stack in enumerate(sim.stacks):
        mvc = stack.create("mvc", ("m",), vect_channel=vect_channel)
        mvc.on_deliver = lambda _i, value, pid=pid: done.__setitem__(pid, value)
    for stack in sim.stacks:
        stack.instance_at(("m",)).propose(b"ablation-value")
    sim.run(until=lambda: all(v is not None for v in done), max_time=60)
    if done != [b"ablation-value"] * 4:
        raise RuntimeError(f"mvc over {vect_channel} decided {done}")
    return sim.now, sim.frames_delivered


def mvc_channel(quick: bool) -> Section:
    (eb_latency, eb_frames), (rb_latency, rb_frames) = run_mvc("eb"), run_mvc("rb")
    verdicts = numbered(
        ("echo broadcast sends fewer frames", eb_frames < rb_frames,
         f"{eb_frames} against {rb_frames}"),
        ("echo broadcast is no slower (within 5%)", eb_latency <= rb_latency * 1.05,
         f"{eb_latency * 1e6:.0f} µs against {rb_latency * 1e6:.0f} µs"),
    )
    return _section(
        "Ablation — echo vs reliable broadcast in MVC (`ablation-mvc-channel`)",
        "Section 2.5's own optimization: multi-valued consensus broadcasts its "
        "VECT message with echo broadcast instead of reliable broadcast. One "
        "unanimous instance with each channel.",
        table(
            ("VECT channel", "decision latency (µs)", "frames"),
            (
                ("echo broadcast", f"{eb_latency * 1e6:.0f}", eb_frames),
                ("reliable broadcast", f"{rb_latency * 1e6:.0f}", rb_frames),
            ),
            "lrr",
        ),
        verdicts,
    )


# -- ablation-batching: message batches and frame coalescing ---------------------------

#: (n, k, m, least speedup): two high-load points, two latency-bound ones.
BATCHING_POINTS = ((4, 64, 100, 1.5), (7, 16, 100, 1.5), (4, 16, 100, 0.95), (4, 32, 100, 0.95))
BATCHING_CLAIMS = {
    1.5: "batching speeds the high-load points up by ≥ 1.5×",
    0.95: "batching slows no latency-bound point below 0.95×",
}


def batching(quick: bool) -> Section:
    rows, speedups = [], {}
    for n, k, m, floor in BATCHING_POINTS:
        off, on = (
            run_burst(k, m, n=n, seed=7, batching=coalesce).throughput_msgs_s
            for coalesce in (False, True)
        )
        speedups[n, k, m] = (on / off, floor)
        rows.append((n, k, m, f"{off:.0f}", f"{on:.0f}", f"{on / off:.2f}×", f"{floor}×"))
    verdicts = numbered(
        *(
            (
                claim,
                all(s >= f for s, f in speedups.values() if f == floor),
                ", ".join(
                    f"n={n} k={k}: {s:.2f}×" for (n, k, _), (s, f) in speedups.items() if f == floor
                ),
            )
            for floor, claim in BATCHING_CLAIMS.items()
        )
    )
    return _section(
        "Ablation — message batches and frame coalescing (`ablation-batching`)",
        "AB burst throughput with `GroupConfig.batching` off (the paper's "
        "per-message, per-frame traffic) and on (a sender's burst share is "
        "one reliable broadcast, and same-peer frames share one channel unit).",
        table(("n", "k", "m (B)", "unbatched msgs/s", "batched msgs/s", "speedup", "floor"),
              rows, "rrrrrrr"),
        verdicts,
    )


# -- scaling: group size -------------------------------------------------------------

GROUP_SIZES = (4, 7, 10)


def rb_frames(n: int) -> int:
    """Frames delivered by one reliable broadcast in a group of *n*."""
    sim = LanSimulation(n=n, seed=9)
    for stack in sim.stacks:
        stack.create("rb", ("s",), sender=0)
    sim.stacks[0].instance_at(("s",)).broadcast(b"m")
    sim.run()
    return sim.frames_delivered


def scaling(quick: bool) -> Section:
    latency = {
        protocol: [measure_protocol_latency(protocol, n=n, runs=2, seed=9) for n in GROUP_SIZES]
        for protocol in ("rb", "bc", "ab")
    }
    frames = [rb_frames(n) for n in GROUP_SIZES]
    verdicts = numbered(
        (
            "rb, bc and ab latency grow with n",
            all(a < b for series in latency.values() for a, b in zip(series, series[1:])),
            "; ".join(
                f"{p}: " + " < ".join(f"{v * 1e6:.0f}" for v in series) + " µs"
                for p, series in latency.items()
            ),
        ),
        (
            "one reliable broadcast costs ~n² frames: 4 < F(10) / F(4) < 9",
            4 < frames[-1] / frames[0] < 9,
            f"{frames[-1]} / {frames[0]} = {frames[-1] / frames[0]:.2f}",
        ),
    )
    rows = [
        (f"{p} latency (µs)", *(f"{v * 1e6:.0f}" for v in series)) for p, series in latency.items()
    ]
    rows.append(("rb frames", *frames))
    return _section(
        "Extension — group size (`scaling`)",
        "The paper evaluates n=4 only. The same model at n=7 and n=10 (f=2, 3): "
        "isolated latency (Table 1 workload, 2 runs) and the frames of one "
        "reliable broadcast (INIT n, ECHO n², READY n²).",
        table(("measure", *(f"n={n}" for n in GROUP_SIZES)), rows, "lrrr"),
        verdicts,
    )


# -- wan: two zones ------------------------------------------------------------------


def run_zoned(inter_ms: float, params: NetworkParameters = LAN_2006, seed: int = 13) -> dict:
    """One k=32, m=10 AB burst across two zones of two replicas: LAN
    links inside a zone, *inter_ms* one-way (plus 2 ms jitter) across."""
    link = zoned_matrix(TWO_SITES, intra_s=2e-4, inter_s=inter_ms / 1e3, jitter_s=2e-3)
    sim = LanSimulation(n=4, seed=seed, link_model=link, params=params)
    delivered: list[float] = []
    for pid in range(4):
        sim.stacks[pid].create("ab", ("w",))
    sim.stacks[0].instance_at(("w",)).on_deliver = lambda _i, _d: delivered.append(sim.now)
    for pid in range(4):
        for _ in range(8):
            sim.stacks[pid].instance_at(("w",)).broadcast(bytes(10))
    if sim.run(until=lambda: len(delivered) >= 32, max_time=600) != "until":
        raise RuntimeError(f"zoned burst at {inter_ms} ms stalled")
    combined = StackStats()
    for stack in sim.stacks:
        combined.merge(stack.stats)
    return {
        "latency_s": delivered[-1],
        "agreements": sim.stacks[0].instance_at(("w",)).round,
        "bc_rounds": combined.max_rounds("bc"),
        "mvc_defaults": combined.decisions.get("mvc-default", 0),
    }


def wan(quick: bool) -> Section:
    points = [(0.0, "LAN_2006"), (5.0, "LAN_2006"), (20.0, "LAN_2006"), (20.0, "WAN_EMULATED")]
    params = {"LAN_2006": LAN_2006, "WAN_EMULATED": WAN_EMULATED}
    runs = [(inter, name, run_zoned(inter, params[name])) for inter, name in points]
    lan = [run["latency_s"] for _, name, run in runs if name == "LAN_2006"]
    verdicts = numbered(
        (
            "burst latency grows with the cross-zone distance",
            all(a < b for a, b in zip(lan, lan[1:])),
            " < ".join(f"{v * 1e3:.0f} ms" for v in lan),
        ),
    )
    return _section(
        "Extension — two zones (`wan`)",
        "Section 4.2 credits the one-round decisions to the LAN's symmetry and "
        "doubts they survive a WAN. Two zones of two replicas "
        "(`repro.net.links.zoned_matrix`), a k=32, m=10 burst. Whether the "
        "fast path (one bc round, no ⊥) survives is recorded, not asserted; "
        "every burst is ordered, or the section fails.",
        table(
            ("cross-zone one-way (ms)", "network parameters", "L_burst (ms)", "agreements",
             "bc rounds", "mvc ⊥"),
            (
                (f"{inter:g}", name, f"{run['latency_s'] * 1e3:.0f}", run["agreements"],
                 run["bc_rounds"], run["mvc_defaults"])
                for inter, name, run in runs
            ),
            "rlrrrr",
        ),
        verdicts,
    )


# -- recovery: rejoin cost -----------------------------------------------------------

#: Fraction of the full-replay bytes a rejoin may transfer.
TRANSFER_BUDGET = 0.20


def run_recovery(
    n: int,
    commands: int = 500,
    checkpoint_interval: int = 25,
    keyspace: int = 16,
    value_bytes: int = 256,
    seed: int = 2,
) -> dict:
    """Crash replica n-1, keep the group ordering overwrites of a small
    keyspace (bounded state, growing history), restart the replica from
    nothing and let it rejoin by checkpoint and state transfer."""
    config = GroupConfig(n, checkpoint_interval=checkpoint_interval)
    sim = LanSimulation(config=config, seed=seed)
    stores = [ReplicatedKvStore(stack.create("ab", ("kv",))) for stack in sim.stacks]
    managers = [RecoveryManager(stack, store.rsm) for stack, store in zip(sim.stacks, stores)]
    live = list(range(n - 1))
    replay_bytes = 0

    def submit(pid: int, index: int) -> None:
        nonlocal replay_bytes
        value = index.to_bytes(4, "big") * (value_bytes // 4)
        command = KvCommand.put(f"k{index % keyspace}", value)
        replay_bytes += len(command.encode())
        stores[pid].rsm.submit(command)

    def drive_until(predicate: Callable[[], bool]) -> None:
        outcome = sim.run(until=predicate, max_time=sim.now + 600.0)
        if not predicate():
            raise RuntimeError(f"recovery run stalled ({outcome})")

    warmup = min(2 * checkpoint_interval, commands // 2)
    for index in range(warmup):
        submit(index % n, index)
    drive_until(lambda: all(m.position >= warmup for m in managers))
    sim.fault_plan.crashed[n - 1] = sim.now
    for index in range(warmup, commands):
        submit(live[index % len(live)], index)
    drive_until(lambda: all(managers[pid].position >= commands for pid in live))
    stable = commands - commands % checkpoint_interval
    drive_until(lambda: all(managers[pid].stable_seq >= stable for pid in live))

    stack = sim.restart_process(n - 1)
    stores[-1] = ReplicatedKvStore(stack.create("ab", ("kv",)))
    manager = managers[-1] = RecoveryManager(stack, stores[-1].rsm, recovering=True)
    ticker = sim.loop.schedule_every(0.01, manager.poke)
    restarted_at = sim.now
    drive_until(lambda: manager.phase == PHASE_LIVE)
    drive_until(
        lambda: len({s.state_digest() for s in stores}) == 1
        and len({m.position for m in managers}) == 1
    )
    ticker.cancel()
    return {
        "n": n,
        "rejoin_s": manager.stats.rejoin_time_s,
        "converged_s": sim.now - restarted_at,
        "transfer_bytes": manager.stats.state_bytes_received,
        "replay_bytes": replay_bytes,
        "suffix_entries": manager.stats.suffix_entries_applied,
    }


def recovery(quick: bool) -> Section:
    runs = [run_recovery(n) for n in ((4,) if quick else (4, 7))]
    verdicts = numbered(
        *(
            (
                f"at n={run['n']} a rejoin transfers under {TRANSFER_BUDGET:.0%} of the "
                "full-replay bytes",
                run["transfer_bytes"] / run["replay_bytes"] < TRANSFER_BUDGET,
                f"{run['transfer_bytes'] / run['replay_bytes']:.1%}",
            )
            for run in runs
        )
    )
    return _section(
        "Extension — recovery cost (`recovery`)",
        "The paper never restarts a process. Here replica n−1 crashes, the "
        "group orders 500 overwrites of 16 keys (checkpoint every 25 commands), "
        "and the replica restarts from nothing and rejoins through `repro.recovery`: "
        "certified checkpoint, log suffix, fast-forwarded rounds. Times are "
        "virtual; the alternative to a transfer is replaying the full history.",
        table(
            ("n", "time to rejoin (ms)", "time to converge (ms)", "transfer (B)",
             "full replay (B)", "suffix entries"),
            (
                (run["n"], f"{run['rejoin_s'] * 1e3:.1f}", f"{run['converged_s'] * 1e3:.1f}",
                 run["transfer_bytes"], run["replay_bytes"], run["suffix_entries"])
                for run in runs
            ),
            "rrrrrr",
        ),
        verdicts,
    )


# -- flood: honest throughput under an out-of-context flooder ------------------------

#: Least fraction of failure-free throughput the flooded run keeps.
THROUGHPUT_FLOOR = 0.60

#: The flood defenses' bounds, configured for both runs.
FLOOD_CONFIG = {"ooc_capacity": 256, "send_queue_max_frames": 4096}


def run_flood(plan: FaultPlan, commands: int = 150, seed: int = 3) -> dict:
    """The honest processes 0..2 of a 4-group atomically broadcast
    *commands* 64-byte messages while process 3 follows *plan*."""
    sim = LanSimulation(config=GroupConfig(4, **FLOOD_CONFIG), seed=seed, fault_plan=plan)
    honest = [0, 1, 2]
    delivered = [0] * 4
    sessions = []
    for pid, stack in enumerate(sim.stacks):
        ab = stack.create("ab", ("ab",))
        ab.on_deliver = lambda _i, _d, pid=pid: delivered.__setitem__(pid, delivered[pid] + 1)
        sessions.append(ab)
    for index in range(commands):
        sessions[honest[index % 3]].broadcast(b"x" * 64)
    if sim.run(until=lambda: all(delivered[pid] >= commands for pid in honest),
               max_time=600.0) != "until":
        raise RuntimeError(f"flood run stalled: delivered={delivered}")
    stacks = [sim.stacks[pid] for pid in honest]
    evictions = Counter()
    for stack in stacks:
        evictions.update(stack.ooc.evictions_by_src)
    return {
        "throughput": commands / sim.now,
        "honest_evictions": sum(evictions[pid] for pid in honest),
        "flooder_evictions": evictions[3],
        "peak_ooc_frames": max(stack.ooc.peak_size for stack in stacks),
        "peak_link_queue_frames": sim.peak_link_queue_frames,
        "flooder_score": min(stack.ledger.score(3) for stack in stacks),
    }


def flood(quick: bool) -> Section:
    runs = {
        "failure-free": run_flood(FaultPlan.failure_free()),
        "process 3 floods (`ooc-flood`)": run_flood(FaultPlan.with_byzantine(3, "ooc-flood")),
    }
    baseline, flooded = runs.values()
    ratio = flooded["throughput"] / baseline["throughput"]
    verdicts = numbered(
        (
            f"flooded honest throughput keeps ≥ {THROUGHPUT_FLOOR:.0%} of failure-free",
            ratio >= THROUGHPUT_FLOOR,
            f"{ratio:.1%}",
        ),
        (
            f"parked frames never exceed ooc_capacity ({FLOOD_CONFIG['ooc_capacity']})",
            all(run["peak_ooc_frames"] <= FLOOD_CONFIG["ooc_capacity"] for run in runs.values()),
            "peaks " + ", ".join(str(run["peak_ooc_frames"]) for run in runs.values()),
        ),
        (
            "link queues never exceed send_queue_max_frames "
            f"({FLOOD_CONFIG['send_queue_max_frames']})",
            all(
                run["peak_link_queue_frames"] <= FLOOD_CONFIG["send_queue_max_frames"]
                for run in runs.values()
            ),
            "peaks " + ", ".join(str(run["peak_link_queue_frames"]) for run in runs.values()),
        ),
    )
    return _section(
        "Extension — flood defense (`flood`)",
        "The paper's Byzantine process attacks values; this one attacks "
        "resources, spraying frames for instances that will never exist at the "
        "whole group. Three honest processes broadcast 150 64-byte messages "
        "with per-peer OOC quotas and bounded send queues configured "
        f"(`GroupConfig(4, {', '.join(f'{k}={v}' for k, v in FLOOD_CONFIG.items())})`).",
        table(
            ("run", "honest msgs/s", "honest OOC evictions", "flooder OOC evictions",
             "peak parked frames", "peak link queue", "flooder score"),
            (
                (name, f"{run['throughput']:.0f}", run["honest_evictions"],
                 run["flooder_evictions"], run["peak_ooc_frames"],
                 run["peak_link_queue_frames"], f"{run['flooder_score']:.1f}")
                for name, run in runs.items()
            ),
            "lrrrrrr",
        ),
        verdicts,
    )


#: The ablation and extension sections, in document order.
SECTIONS: dict[str, Callable[[bool], Section]] = {
    "ablation-coin": coin,
    "ablation-sequencer": sequencer,
    "ablation-signatures": signatures,
    "ablation-mvc-channel": mvc_channel,
    "ablation-batching": batching,
    "scaling": scaling,
    "wan": wan,
    "recovery": recovery,
    "flood": flood,
}
