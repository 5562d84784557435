"""Pluggable per-link behavior models for the simulated network.

The paper's testbed is one perfectly symmetric switch; Section 4.2
cautions that the one-round fast path "may not survive a more
asymmetrical environment, like a WAN".  This module makes that
environment constructible: every ordered pair of hosts gets a
:class:`LinkBehavior` that decides, per frame, *when* (and in what
shape) copies of the frame reach the far side.

The contract is deliberately narrow so behaviors stay composable and
deterministic: :meth:`LinkBehavior.deliveries` receives a per-link
seeded RNG plus the frame's metadata and returns a list of
``(extra_delay_s, corrupt)`` pairs -- one entry per copy that reaches
the destination (an empty list drops the frame outright).  The
simulator schedules one arrival per entry on top of its usual
CPU/NIC/switch timing.

Two modeling rules keep the catalog faithful to the stack's
assumptions:

- **Loss is retransmission.**  The protocols assume reliable
  point-to-point channels (TCP in the paper), so :class:`Lossy` and the
  clean copy behind a :class:`FlakyMac` corruption model packet loss as
  a retransmission *delay* (geometric RTO backoff), never as silent
  message loss -- exactly how the simulator already treats partitions.
- **Corruption is detectable.**  A ``corrupt`` copy reaches the stack
  with its frame-version byte mangled, which the wire codec rejects
  deterministically (``WireFormatError``); the receiver counts and
  scores it, it never enters protocol state.

Determinism: a :class:`LinkModel` lazily derives one ``random.Random``
per ordered link from the simulation's master seed, so the draws on one
link never depend on traffic order across unrelated links (the same
property the per-link jitter RNG fix gives plain ``jitter_s``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Sequence

#: One scheduled copy of a frame: extra latency past the switch, and
#: whether the copy arrives corrupted (detectably -- see module doc).
Delivery = tuple[float, bool]

#: The two-site split the WAN scenarios, the partition scenario and the
#: ``wan`` evaluation section share.
TWO_SITES = ((0, 1), (2, 3))

#: Bound on consecutive simulated retransmissions, so a loss
#: probability of 1.0 cannot loop forever (2**16 RTOs is "down").
_MAX_RETRANSMITS = 16


@dataclass(frozen=True)
class LinkBehavior:
    """A perfect link: every frame arrives once, immediately, intact.

    Subclasses override :meth:`deliveries`; they must draw randomness
    only from *rng* (the per-link seeded stream) so runs stay
    replayable.
    """

    def deliveries(
        self, rng: random.Random, *, src: int, dest: int, size: int, now: float
    ) -> list[Delivery]:
        return [(0.0, False)]


@dataclass(frozen=True)
class Delay(LinkBehavior):
    """Fixed propagation delay plus optional uniform jitter."""

    base_s: float = 0.0
    jitter_s: float = 0.0

    def deliveries(self, rng, *, src, dest, size, now):
        extra = self.base_s
        if self.jitter_s > 0.0:
            extra += rng.uniform(0.0, self.jitter_s)
        return [(extra, False)]


@dataclass(frozen=True)
class Lossy(LinkBehavior):
    """Packet loss under a reliable transport: retransmit-after-RTO.

    Each transmission attempt is lost with probability *p*; every loss
    adds one RTO (doubling per attempt, TCP-style) before the copy that
    finally gets through.  The frame always arrives -- the channel is
    reliable -- it just arrives late, which is what loss does to a
    protocol stack riding TCP.
    """

    p: float = 0.05
    rto_s: float = 0.02

    def deliveries(self, rng, *, src, dest, size, now):
        delay = 0.0
        rto = self.rto_s
        for _ in range(_MAX_RETRANSMITS):
            if rng.random() >= self.p:
                break
            delay += rto
            rto *= 2.0
        return [(delay, False)]


@dataclass(frozen=True)
class Duplicating(LinkBehavior):
    """A link that occasionally delivers a frame twice.

    With probability *p* a second, identical copy arrives
    *echo_delay_s* later (a retransmission the original survived, a
    misbehaving middlebox).  The protocols must be idempotent under
    duplication; this behavior sweeps that claim.
    """

    p: float = 0.1
    echo_delay_s: float = 0.002

    def deliveries(self, rng, *, src, dest, size, now):
        copies: list[Delivery] = [(0.0, False)]
        if rng.random() < self.p:
            copies.append((self.echo_delay_s, False))
        return copies


@dataclass(frozen=True)
class Reordering(LinkBehavior):
    """A link that reorders: some frames take a detour.

    With probability *p* a frame is held an extra ``U(0, spread_s)``,
    letting later frames overtake it -- the asynchronous-model
    adversary's favorite move, now drawn from a seeded distribution.
    """

    p: float = 0.3
    spread_s: float = 0.005

    def deliveries(self, rng, *, src, dest, size, now):
        if rng.random() < self.p:
            return [(rng.uniform(0.0, self.spread_s), False)]
        return [(0.0, False)]


@dataclass(frozen=True)
class FlakyMac(LinkBehavior):
    """A NIC that intermittently corrupts frames in flight (gray failure).

    With probability *p* the frame arrives *corrupted* (the receiver's
    codec rejects it deterministically) and the reliable transport's
    clean retransmission follows one RTO later.  The host is alive and
    mostly healthy -- exactly the failure shape that evades both crash
    detection and Byzantine accusation.
    """

    p: float = 0.05
    rto_s: float = 0.01

    def deliveries(self, rng, *, src, dest, size, now):
        if rng.random() < self.p:
            return [(0.0, True), (self.rto_s, False)]
        return [(0.0, False)]


@dataclass(frozen=True)
class Degrading(LinkBehavior):
    """A link whose latency ramps up over simulated time.

    From *start_s* the extra delay climbs linearly over *ramp_s*
    seconds to *max_extra_s* and stays there -- a failing transceiver,
    a congesting path.  Gray failure in its slow-burn form: no single
    event to alarm on, just a property that quietly rots.
    """

    start_s: float = 0.0
    ramp_s: float = 1.0
    max_extra_s: float = 0.01

    def deliveries(self, rng, *, src, dest, size, now):
        progress = (now - self.start_s) / self.ramp_s if self.ramp_s > 0 else 1.0
        progress = min(1.0, max(0.0, progress))
        return [(self.max_extra_s * progress, False)]


@dataclass(frozen=True)
class Chain(LinkBehavior):
    """Compose behaviors: delays add, corruption ORs, copies multiply.

    ``Chain((Delay(0.01), Lossy(0.02)))`` is a 10 ms link that also
    loses packets.  Each stage expands every copy the previous stages
    produced, so a Duplicating stage behind a Lossy one duplicates the
    retransmitted copy too.
    """

    parts: tuple[LinkBehavior, ...] = ()

    def deliveries(self, rng, *, src, dest, size, now):
        copies: list[Delivery] = [(0.0, False)]
        for part in self.parts:
            expanded: list[Delivery] = []
            for delay, corrupt in copies:
                for extra, extra_corrupt in part.deliveries(
                    rng, src=src, dest=dest, size=size, now=now
                ):
                    expanded.append((delay + extra, corrupt or extra_corrupt))
            copies = expanded
        return copies


class LinkModel:
    """Per-link behaviors plus per-host slowdown factors for one run.

    Built once and handed to :class:`~repro.net.network.LanSimulation`
    via ``link_model=`` (or installed as ``sim.link_model``, as
    :meth:`repro.check.scenarios.Scenario.arm` does); it is bound to a
    seed (:meth:`bind`), after which every ordered link draws from its
    own ``random.Random`` stream.  A model is fixed once built: to
    change a running simulation's network, install another model.

    Args:
        default: behavior for links without an override (perfect link).
        behaviors: ``(src, dest) -> behavior`` overrides.
        host_slowdowns: ``pid -> CPU cost multiplier`` map (a factor of
            100.0 is the paper-adjacent "alive but 100x slow" gray
            failure).
    """

    def __init__(
        self,
        default: LinkBehavior | None = None,
        behaviors: dict[tuple[int, int], LinkBehavior] | None = None,
        host_slowdowns: dict[int, float] | None = None,
    ):
        self._default = default if default is not None else LinkBehavior()
        self._behaviors: dict[tuple[int, int], LinkBehavior] = dict(behaviors or {})
        self._slowdowns: dict[int, float] = dict(host_slowdowns or {})
        self._seed: int | str | None = None
        self._rngs: dict[tuple[int, int], random.Random] = {}

    # -- seeding ---------------------------------------------------------------------

    def bind(self, seed: int | str) -> "LinkModel":
        """Derive per-link RNG streams from *seed* (the simulation's
        master seed, or a tag derived from it).

        Rebinding resets the streams (a fresh run replays identically).
        """
        self._seed = seed
        self._rngs.clear()
        return self

    def _rng(self, src: int, dest: int) -> random.Random:
        rng = self._rngs.get((src, dest))
        if rng is None:
            if self._seed is None:
                raise RuntimeError("LinkModel.bind(seed) must run before use")
            rng = random.Random(f"{self._seed}/linkmodel/{src}->{dest}")
            self._rngs[(src, dest)] = rng
        return rng

    # -- configuration ---------------------------------------------------------------

    def behavior_for(self, src: int, dest: int) -> LinkBehavior:
        return self._behaviors.get((src, dest), self._default)

    def cpu_factor(self, pid: int) -> float:
        return self._slowdowns.get(pid, 1.0)

    # -- the hook the simulator calls -------------------------------------------------

    def deliveries(self, src: int, dest: int, size: int, now: float) -> list[Delivery]:
        """All copies of one frame that reach *dest* (possibly none)."""
        return self.behavior_for(src, dest).deliveries(
            self._rng(src, dest), src=src, dest=dest, size=size, now=now
        )


def latency_matrix(
    matrix: Sequence[Sequence[float]], jitter_s: float = 0.0
) -> LinkModel:
    """A :class:`LinkModel` from an explicit per-link delay matrix.

    ``matrix[src][dest]`` is the extra one-way propagation delay in
    seconds (the diagonal is ignored -- loopback skips the wire).
    """
    behaviors: dict[tuple[int, int], LinkBehavior] = {}
    for src, row in enumerate(matrix):
        for dest, base_s in enumerate(row):
            if src != dest:
                behaviors[(src, dest)] = Delay(base_s=base_s, jitter_s=jitter_s)
    return LinkModel(behaviors=behaviors)


def zoned_matrix(
    zones: Iterable[Iterable[int]],
    *,
    intra_s: float = 2e-4,
    inter_s: float = 0.015,
    jitter_s: float = 0.0,
) -> LinkModel:
    """A geo-replication latency matrix: cheap within a zone, expensive
    across zones.

    *zones* partitions the process ids (e.g. ``((0, 1), (2, 3))`` for
    two sites); same-zone links get *intra_s*, cross-zone links
    *inter_s*, each with optional uniform *jitter_s* on top.  This is
    the asymmetric-WAN shape Section 4.2 warns about, as one line.
    """
    zone_of: dict[int, int] = {}
    for index, zone in enumerate(zones):
        for pid in zone:
            zone_of[pid] = index
    if not zone_of:
        raise ValueError("zones must name at least one process")
    size = max(zone_of) + 1
    matrix = [
        [
            intra_s if zone_of.get(src) == zone_of.get(dest) else inter_s
            for dest in range(size)
        ]
        for src in range(size)
    ]
    return latency_matrix(matrix, jitter_s=jitter_s)
