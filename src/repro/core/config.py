"""Process-group configuration shared by every protocol instance.

Section 2 of the paper: the system is a group of *n* processes
``P = {p_0 .. p_{n-1}}`` of which at most ``f = floor((n-1)/3)`` may be
corrupt, hence ``n >= 3f + 1``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from repro.core.errors import ConfigurationError


def max_faulty(num_processes: int) -> int:
    """Optimal resilience: ``f = floor((n-1)/3)``."""
    return (num_processes - 1) // 3


@dataclass(frozen=True)
class GroupConfig:
    """Static description of the process group.

    Attributes:
        num_processes: total number of processes, *n*.
        num_faulty: number of tolerated corrupt processes, *f*.  Defaults
            to the optimal ``floor((n-1)/3)``; a smaller value may be
            configured (a *larger* one violates ``n >= 3f+1`` and is
            rejected).
        batching: each runtime's link flush coalesces the frames queued
            toward one peer into flat batch channel units of at most
            :data:`~repro.core.wire.MAX_BATCH_FRAMES` frames, so the
            transport pays its fixed per-message costs once per
            container; only frames already queued are merged (no added
            latency).  Atomic broadcast also orders a flush window's
            messages as one batch (:meth:`~repro.core.stack.Stack.coalesce`).
            Off, every frame is its own channel unit and every message
            its own batch, the paper's per-message stack.
        checkpoint_interval: delivered commands between authenticated
            checkpoints of a replicated state machine (see
            :mod:`repro.recovery`).  Every replica checkpoints at the
            same global delivery positions, so the interval must be
            identical group-wide.
        ooc_capacity: total out-of-context messages a stack may park
            (Section 3.4's bounded hash table).  Each of the *n* senders
            may hold ``ooc_capacity // n`` of them; storing past that
            evicts the sender's own oldest entry.  At least *n*.
        ab_pending_cap: most locally submitted atomic-broadcast
            messages that may be undelivered at once; past it,
            ``broadcast`` raises
            :class:`~repro.core.errors.BackpressureError` instead of
            admitting more.  0 never refuses.
        send_queue_max_frames: per-peer outbound queue bound, in
            frames, in the runtimes (TCP sender queues, simulator link
            buffers).  Past it the lowest-priority, oldest queued frame
            is shed -- consensus-critical frames outlive payload and
            bulk transfers.  0 never sheds.
        bc_engine: binary-consensus algorithm every stack in the group
            runs -- a name registered in :mod:`repro.core.bc_engine`
            ("bracha": the paper's Bracha-style rounds; "crain": the
            Crain 2020 O(1)-expected-round algorithm, which requires
            ``bc_coin="shared"``).  Must be identical group-wide.
        bc_coin: default coin source for stacks built without an
            explicit coin.  "local": an independent per-process coin
            derived from the stack's seeded RNG stream (the paper's
            Ben-Or coin); "shared": the runtimes deal a Rabin-style
            shared coin so every correct process sees the same toss per
            (instance, round).  Must be identical group-wide.
    """

    num_processes: int
    num_faulty: int = field(default=-1)
    batching: bool = True
    checkpoint_interval: int = 64
    ooc_capacity: int = 65536
    ab_pending_cap: int = 0
    send_queue_max_frames: int = 0
    bc_engine: str = "bracha"
    bc_coin: str = "local"

    def __post_init__(self) -> None:
        if self.num_processes < 1:
            raise ConfigurationError("group needs at least one process")
        if self.num_faulty == -1:
            object.__setattr__(self, "num_faulty", max_faulty(self.num_processes))
        if self.num_faulty < 0:
            raise ConfigurationError("num_faulty must be non-negative")
        if self.num_processes < 3 * self.num_faulty + 1:
            raise ConfigurationError(
                f"n={self.num_processes} cannot tolerate f={self.num_faulty}: "
                "Byzantine resilience requires n >= 3f + 1"
            )
        if self.checkpoint_interval < 1:
            raise ConfigurationError("checkpoint_interval must be >= 1")
        if self.ooc_capacity < self.num_processes:
            raise ConfigurationError(
                f"ooc_capacity must be >= n={self.num_processes} (one slot per sender)"
            )
        if self.ab_pending_cap < 0:
            raise ConfigurationError("ab_pending_cap must be >= 0")
        if self.send_queue_max_frames < 0:
            raise ConfigurationError("send_queue_max_frames must be >= 0")
        if not isinstance(self.bc_engine, str) or not self.bc_engine:
            raise ConfigurationError("bc_engine must be a non-empty engine name")
        if self.bc_coin not in ("local", "shared"):
            raise ConfigurationError(
                f"bc_coin must be 'local' or 'shared', got {self.bc_coin!r}"
            )
        if self.bc_engine == "crain" and self.bc_coin != "shared":
            # The stack also enforces requires_common_coin generically at
            # build time; failing here catches the known-bad combination
            # before any runtime is spun up.
            raise ConfigurationError(
                "bc_engine='crain' needs a common coin: set bc_coin='shared'"
            )

    @property
    def n(self) -> int:
        return self.num_processes

    @property
    def f(self) -> int:
        return self.num_faulty

    @cached_property
    def process_ids(self) -> range:
        # Cached: the send path iterates this once per broadcast; the
        # config is frozen, so one range object serves the lifetime.
        return range(self.num_processes)

    # -- quorum thresholds used across the stack ----------------------------

    @property
    def echo_quorum(self) -> int:
        """Reliable broadcast: ECHOs needed before sending READY,
        ``floor((n+f)/2) + 1``."""
        return (self.n + self.f) // 2 + 1

    @property
    def ready_amplify(self) -> int:
        """Reliable broadcast: READYs that substitute for the ECHO quorum,
        ``f + 1`` (at least one from a correct process)."""
        return self.f + 1

    @property
    def ready_quorum(self) -> int:
        """Reliable broadcast: READYs needed to deliver, ``2f + 1``."""
        return 2 * self.f + 1

    @property
    def wait_quorum(self) -> int:
        """Messages a process can safely wait for, ``n - f``."""
        return self.n - self.f

    @property
    def value_quorum(self) -> int:
        """Multi-valued consensus: identical values needed to back a
        proposal, ``n - 2f``."""
        return self.n - 2 * self.f

    @property
    def mat_quorum(self) -> int:
        """Echo broadcast: correct MAC entries needed to deliver, ``f + 1``."""
        return self.f + 1

    @property
    def certificate_quorum(self) -> int:
        """Checkpoint stability: matching attestations needed, ``f + 1``
        (at least one from a correct replica, so the digest is the state
        every correct replica holds at that position)."""
        return self.f + 1
