"""Runtime protocol-invariant checking over a running simulation.

The checker hangs off two hooks:

- it subscribes to every stack's ``deliver`` events
  (:meth:`repro.core.stats.StackStats.subscribe`); a correct process's
  delivery marks the delivering instance and its ancestors *dirty*;
- :attr:`EventLoop.on_event` -- called after every processed simulator
  event; the checker then re-examines only the dirty paths, comparing
  :meth:`ControlBlock.inspect` snapshots across *correct* processes.

Checked invariants, per protocol layer:

===========  ==================================================================
rb / eb      no conflicting deliveries: every correct process that delivered
             a same-path broadcast delivered the same value (by digest)
bc           agreement (one decision value per instance) and validity (a
             unanimous correct proposal is the only decidable value)
mvc          agreement on the decision key; a non-⊥ decision was proposed
             by some correct process
vc           agreement on the decided vector; a correct process's slot
             holds its proposal or ⊥
ab           the totally-ordered delivery logs of correct processes
             (an :class:`OrderLog` fed by the same ``deliver`` events)
             agree wherever their observation windows overlap (aligned
             on the first shared message id, so rejoined replicas'
             mid-history logs and bounded soak windows compare cleanly)
ooc          per-stack conservation: stored == pending + drained + purged
             + evicted (every stack, Byzantine included -- the table is
             honest machinery even under a corrupt protocol suite), plus
             a full :meth:`OocTable.check_consistency` sweep every
             ``deep_check_interval`` events
===========  ==================================================================

Violations raise :class:`InvariantViolation` from inside the event
loop, aborting the run at the exact event that broke the property --
which is what lets the explorer (:mod:`repro.check.explore`) record a
minimal reproducer.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.core.stack import ControlBlock
from repro.core.trace import KIND_CREATE, KIND_DELIVER
from repro.core.wire import Path, encode_value
from repro.crypto.hashing import hash_bytes
from repro.net.network import LanSimulation

#: One delivery in an order log: ``(sender, rbid, payload digest)``.
OrderEntry = tuple[int, int, bytes]


class OrderLog:
    """Stack subscriber recording each process's atomic-broadcast
    delivery order, per AB instance path, from the ``deliver`` events
    that name a message.

    A ``create`` of an AB instance starts that path's log afresh, so a
    restarted process's new instance starts with an empty log.  *cap*
    keeps only the most recent entries of each log (0 = unbounded).
    Subscribe it with :attr:`KINDS`::

        order = OrderLog()
        for stack in sim.stacks:
            stack.stats.subscribe(order, OrderLog.KINDS)
    """

    KINDS = (KIND_CREATE, KIND_DELIVER)

    def __init__(self, cap: int = 0):
        self.cap = cap
        self._logs: dict[tuple[int, Path], deque[OrderEntry] | list[OrderEntry]] = {}

    def rebind(self, clock: Any = None, incarnation: int | None = None) -> None:
        """A restart carries the subscription over; the fresh instance's
        ``create`` resets its log."""

    def __call__(self, process: int, kind: str, path: Path, detail: dict[str, Any]) -> None:
        if kind == KIND_CREATE:
            if detail["protocol"] == "ab":
                self._logs[process, path] = self._new_log()
            return
        msg = detail.get("msg")
        if msg is not None:
            log = self._logs.get((process, path))
            if log is None:
                log = self._logs[process, path] = self._new_log()
            log.append((msg[0], msg[1], hash_bytes(encode_value(detail["payload"]))))

    def _new_log(self) -> deque[OrderEntry] | list[OrderEntry]:
        return deque(maxlen=self.cap) if self.cap else []

    def of(self, process: int, path: Path) -> list[OrderEntry] | None:
        """*process*'s delivery order at *path* (None: never logged)."""
        log = self._logs.get((process, path))
        return None if log is None else list(log)


def _first_shared(
    log_a: list[tuple[int, int, bytes]], log_b: list[tuple[int, int, bytes]]
) -> tuple[int, int] | None:
    """Position of the first entry of *log_a* whose message id also
    appears in *log_b*, as ``(index_a, index_b)``; None when no id is
    shared."""
    index_b: dict[tuple[int, int], int] = {}
    for position, entry in enumerate(log_b):
        index_b.setdefault(entry[:2], position)
    for position_a, entry in enumerate(log_a):
        position_b = index_b.get(entry[:2])
        if position_b is not None:
            return (position_a, position_b)
    return None


def align_order_logs(
    log_a: list[tuple[int, int, bytes]], log_b: list[tuple[int, int, bytes]]
) -> tuple[int, int, int, bool] | None:
    """Align two delivery-order observation windows on their first
    shared message id.

    Order logs stopped being plain prefixes of one another the moment
    replicas could *rejoin* (a recovered replica's log starts
    mid-history) and logs could be *bounded* (``order_log_cap`` keeps a
    trailing window).  Both cases still expose a comparable overlap:
    message ids ``(sender, rbid)`` are unique across the total order,
    so the first id two logs share anchors them.

    Returns ``(index_a, index_b, overlap_length, anchors_agree)``, or
    ``None`` when the windows are disjoint (nothing to compare -- e.g.
    one replica's window was truncated past the other's history).

    ``anchors_agree`` guards against order *swaps* that a one-direction
    scan would anchor past: scanning A for its first entry shared with B
    and scanning B for its first entry shared with A must land on the
    same pair when both logs are windows of one total order (the window
    that starts later begins inside the other, so one index is 0).
    ``A=[m1, m2]`` vs ``B=[m2, m1]`` yields anchors ``(0, 1)`` and
    ``(1, 0)`` -- disagreement, which is itself an order violation.
    """
    if not log_a or not log_b:
        return None
    if log_a[0][:2] == log_b[0][:2]:  # fast path: windows start together
        return (0, 0, min(len(log_a), len(log_b)), True)
    forward = _first_shared(log_a, log_b)
    if forward is None:
        return None
    backward = _first_shared(log_b, log_a)
    agree = backward == (forward[1], forward[0])
    overlap = min(len(log_a) - forward[0], len(log_b) - forward[1])
    return (forward[0], forward[1], overlap, agree)


class InvariantViolation(AssertionError):
    """A cross-process protocol property failed.

    Attributes:
        invariant: short name of the violated property
            (``"rb-agreement"``, ``"bc-validity"``, ``"ab-order"``, ...).
        path: instance path involved (``()`` for stack-level checks).
        event_index: how many simulator events had been processed when
            the violation surfaced (the replayable position).
    """

    def __init__(self, invariant: str, path: Path, detail: str, event_index: int = -1):
        super().__init__(f"[{invariant}] at {path!r}: {detail}")
        self.invariant = invariant
        self.path = path
        self.detail = detail
        self.event_index = event_index


class InvariantChecker:
    """Asserts cross-process protocol invariants after every event.

    Attach to a simulation **before** creating protocol instances (an
    atomic-broadcast instance's order log starts at its ``create``)::

        sim = LanSimulation(n=4, seed=7)
        checker = InvariantChecker(sim)
        ... create instances, propose ...
        sim.run(...)          # raises InvariantViolation on breakage
        checker.check_all()   # final full sweep

    Args:
        sim: the simulation to watch.
        deep_check_interval: run the O(entries) out-of-context table
            consistency sweep every this many events (0 disables it).
        order_log_cap: bound each atomic-broadcast order log
            (:attr:`order_log`) to its most recent entries (0 =
            unbounded).  Soak runs set this so hours of simulated
            history check windowed order agreement at flat memory;
            :func:`align_order_logs` handles the windows.
    """

    def __init__(
        self,
        sim: LanSimulation,
        deep_check_interval: int = 512,
        order_log_cap: int = 0,
    ):
        self.sim = sim
        self.deep_check_interval = deep_check_interval
        self.order_log = OrderLog(order_log_cap)
        self.checks_run = 0
        self._dirty: set[Path] = set()
        self.rebind()
        # A restarted process's stack carries these subscriptions over.
        for stack in sim.stacks:
            stack.stats.subscribe(self.order_log, OrderLog.KINDS)
            stack.stats.subscribe(self, (KIND_DELIVER,))
        sim.loop.on_event = self._on_event

    # -- hooks ---------------------------------------------------------------------

    def rebind(self, clock: Any = None, incarnation: int | None = None) -> None:
        """A restart cleared the process's crash entry, making it
        correct again."""
        self.correct = set(self.sim.correct_ids())

    def __call__(self, process: int, kind: str, path: Path, detail: dict[str, Any]) -> None:
        if process not in self.correct:
            return
        # A delivery mutates not just the delivering block but every
        # ancestor that consumes it via child_event -- mark the whole
        # chain dirty so e.g. binary consensus's step bookkeeping is
        # rechecked when one of its round broadcasts completes.
        node: ControlBlock | None = self.sim.stacks[process].instance_at(path)
        while node is not None:
            self._dirty.add(node.path)
            node = node.parent

    def _on_event(self) -> None:
        self.checks_run += 1
        event_index = self.sim.loop.events_processed
        try:
            for stack in self.sim.stacks:
                stack.check_ooc_accounting()
            if (
                self.deep_check_interval
                and self.checks_run % self.deep_check_interval == 0
            ):
                for stack in self.sim.stacks:
                    stack.ooc.check_consistency()
        except AssertionError as exc:
            if isinstance(exc, InvariantViolation):
                raise
            raise InvariantViolation(
                "ooc-accounting", (), str(exc), event_index
            ) from None
        if not self._dirty:
            return
        dirty, self._dirty = self._dirty, set()
        for path in dirty:
            self._check_path(path, event_index)

    # -- sweeps --------------------------------------------------------------------

    def check_all(self) -> None:
        """Full sweep over every live instance path on correct stacks.

        Call after a run quiesces; catches divergence on paths whose
        last delivery predates a later-created peer instance.
        """
        event_index = self.sim.loop.events_processed
        paths: set[Path] = set()
        for pid in self.correct:
            paths.update(self.sim.stacks[pid].instances())
        for path in paths:
            self._check_path(path, event_index)
        for stack in self.sim.stacks:
            try:
                stack.check_ooc_accounting()
                stack.ooc.check_consistency()
            except AssertionError as exc:
                if isinstance(exc, InvariantViolation):
                    raise
                raise InvariantViolation(
                    "ooc-accounting", (), str(exc), event_index
                ) from None

    def _check_path(self, path: Path, event_index: int) -> None:
        views: dict[int, dict[str, Any]] = {}
        protocol = None
        for pid in self.correct:
            instance = self.sim.stacks[pid].instance_at(path)
            if instance is None:
                continue
            views[pid] = instance.inspect()
            protocol = views[pid]["protocol"]
        if len(views) < 2:
            return
        checker = getattr(self, f"_check_{protocol}", None)
        if checker is not None:
            checker(path, views, event_index)

    # -- per-protocol invariants ----------------------------------------------------

    def _fail(self, invariant: str, path: Path, detail: str, event_index: int) -> None:
        raise InvariantViolation(invariant, path, detail, event_index)

    def _agree_on(
        self,
        key: str,
        invariant: str,
        path: Path,
        views: dict[int, dict[str, Any]],
        event_index: int,
    ) -> None:
        """All views carrying *key* must carry the same value."""
        seen: dict[int, Any] = {
            pid: view[key] for pid, view in views.items() if key in view
        }
        if len(set(map(repr, seen.values()))) > 1:
            self._fail(
                invariant,
                path,
                f"correct processes disagree on {key}: "
                + ", ".join(f"p{pid}={value!r}" for pid, value in sorted(seen.items())),
                event_index,
            )

    def _check_rb(self, path, views, event_index) -> None:
        self._agree_on("value_digest", "rb-agreement", path, views, event_index)

    def _check_eb(self, path, views, event_index) -> None:
        self._agree_on("value_digest", "eb-agreement", path, views, event_index)

    def _check_bc(self, path, views, event_index) -> None:
        decisions = {
            pid: v["decision"] for pid, v in views.items() if v.get("decided")
        }
        if len(set(decisions.values())) > 1:
            self._fail(
                "bc-agreement",
                path,
                f"conflicting decisions: "
                + ", ".join(f"p{pid}={d}" for pid, d in sorted(decisions.items())),
                event_index,
            )
        # Step-3 uniqueness: the strict-majority (> n/2) bar over step-2
        # values guarantees no two correct processes ever enter step 3 of
        # the same round with different non-⊥ values -- the lemma the
        # whole safety argument rests on.  Weakening the bar (e.g. to
        # (n-f)/2) breaks exactly this, well before decisions conflict.
        step3: dict[int, dict[int, int]] = {}
        for pid, view in views.items():
            for (round_number, step), value in view.get("step_values", {}).items():
                if step == 3 and value is not None:
                    step3.setdefault(round_number, {})[pid] = value
        for round_number, values in sorted(step3.items()):
            if len(set(values.values())) > 1:
                self._fail(
                    "bc-step3-uniqueness",
                    path,
                    f"round {round_number}: correct processes entered step 3 "
                    "with different values: "
                    + ", ".join(f"p{pid}={v}" for pid, v in sorted(values.items())),
                    event_index,
                )
        # Coin-branch legality (Bracha engine only -- `coin_rounds` holds
        # the step-3 tallies snapshotted at each toss): a correct process
        # may only fall through to the coin when its step-3 view could be
        # congruent with any correct peer's -- at most f counts per
        # definite value (more would mean f+1 step-3 votes for v, forcing
        # *adopt v*, never the coin) and a full n-f quorum of step-3
        # messages total.  An engine bug that tosses early (short quorum)
        # or past an adopt threshold shows up here before it can surface
        # as a (schedule-dependent) agreement violation.
        config = self.sim.config
        for pid, view in views.items():
            for round_number, counts in sorted(view.get("coin_rounds", {}).items()):
                c0, c1, cbot = counts
                if c0 > config.f or c1 > config.f:
                    self._fail(
                        "bc-coin-legality",
                        path,
                        f"p{pid} round {round_number}: tossed the coin with "
                        f"step-3 counts (c0={c0}, c1={c1}, ⊥={cbot}) although "
                        f"some value exceeded f={config.f} (adopt was forced)",
                        event_index,
                    )
                if c0 + c1 + cbot < config.wait_quorum:
                    self._fail(
                        "bc-coin-legality",
                        path,
                        f"p{pid} round {round_number}: tossed the coin on "
                        f"{c0 + c1 + cbot} step-3 messages, below the "
                        f"n-f={config.wait_quorum} quorum",
                        event_index,
                    )
        proposals = {
            pid: v["proposal"] for pid, v in views.items() if v["proposal"] is not None
        }
        if decisions and len(proposals) == len(views) and len(set(proposals.values())) == 1:
            unanimous = next(iter(proposals.values()))
            wrong = {pid: d for pid, d in decisions.items() if d != unanimous}
            if wrong:
                self._fail(
                    "bc-validity",
                    path,
                    f"all correct proposed {unanimous} but "
                    + ", ".join(f"p{pid} decided {d}" for pid, d in sorted(wrong.items())),
                    event_index,
                )

    def _check_mvc(self, path, views, event_index) -> None:
        self._agree_on("decision_key", "mvc-agreement", path, views, event_index)
        proposal_keys = {v["proposal_key"] for v in views.values() if v.get("proposed")}
        for pid, view in views.items():
            key = view.get("decision_key")
            if key is not None and len(proposal_keys) == len(views):
                # Every correct process has proposed, so a non-⊥ decision
                # must match one of their proposals (n - 2f >= f + 1
                # matching INITs force at least one correct proposer).
                if key not in proposal_keys:
                    self._fail(
                        "mvc-validity",
                        path,
                        f"p{pid} decided a value no correct process proposed",
                        event_index,
                    )

    def _check_vc(self, path, views, event_index) -> None:
        self._agree_on("decision_key", "vc-agreement", path, views, event_index)
        for pid, view in views.items():
            decision = view.get("decision")
            if decision is None:
                continue
            for other, other_view in views.items():
                if not other_view.get("proposed"):
                    continue
                slot = decision[other] if other < len(decision) else None
                if slot is not None and slot != other_view["proposal"]:
                    self._fail(
                        "vc-validity",
                        path,
                        f"p{pid}'s decided vector holds {slot!r} in correct "
                        f"p{other}'s slot, which proposed {other_view['proposal']!r}",
                        event_index,
                    )

    def _check_ab(self, path, views, event_index) -> None:
        logs = {pid: self.order_log.of(pid, path) for pid in views}
        pids = sorted(pid for pid, log in logs.items() if log is not None)
        for a, b in zip(pids, pids[1:]):
            log_a, log_b = logs[a], logs[b]
            aligned = align_order_logs(log_a, log_b)
            if aligned is None:
                # Disjoint observation windows (a rejoined replica whose
                # history starts past the other's bounded window): the
                # logs share no message, so order cannot be compared --
                # and cannot conflict.
                continue
            start_a, start_b, overlap, anchors_agree = aligned
            if not anchors_agree or (start_a > 0 and start_b > 0):
                # Each log delivered messages the other never saw
                # *before* their first shared delivery -- under a total
                # order at most one window may extend further back.
                self._fail(
                    "ab-order",
                    path,
                    f"p{a} and p{b} each delivered messages the other "
                    f"lacks before their first shared delivery "
                    f"({log_a[start_a]!r}): {log_a[:start_a]!r} vs "
                    f"{log_b[:start_b]!r}",
                    event_index,
                )
            for offset in range(overlap):
                if log_a[start_a + offset] != log_b[start_b + offset]:
                    self._fail(
                        "ab-order",
                        path,
                        f"delivery order of p{a} and p{b} diverges "
                        f"{offset} deliveries after their common anchor: "
                        f"{log_a[start_a + offset]!r} vs "
                        f"{log_b[start_b + offset]!r}",
                        event_index,
                    )
