"""State transfer on the simulated runtime: kill, restart, rejoin.

A replica of a 4-process group is crashed mid-run, the group keeps
ordering commands without it, and a brand-new incarnation (empty stack,
empty state machine) bootstraps from its peers: certified checkpoint,
log suffix, fast-forwarded agreement rounds.  The invariant is the
paper's: after rejoining, the replica's state digest equals every other
correct replica's, and new commands it submits are ordered group-wide.
"""

import pytest

from repro.apps.kv_store import ReplicatedKvStore
from repro.core.atomic_broadcast import RETAINED_ROUNDS
from repro.core.config import GroupConfig
from repro.net.network import LanSimulation
from repro.recovery import PHASE_LIVE, RecoveryManager


def _build_group(sim):
    stores, managers = [], []
    for stack in sim.stacks:
        store = ReplicatedKvStore(stack.create("ab", ("kv",)))
        managers.append(RecoveryManager(stack, store.rsm))
        stores.append(store)
    return stores, managers


def _drive(sim, stores, managers, live, bursts, per_burst, tag):
    """Submit workload from the *live* replicas and run to delivery."""
    for burst in range(bursts):
        for i, pid in enumerate(live):
            for j in range(per_burst):
                stores[pid].put(f"{tag}/{burst}/{i}/{j}", bytes([burst, i, j]))
        target = max(m.position for m in managers) + len(live) * per_burst
        sim.run(
            until=lambda: all(managers[pid].position >= target for pid in live),
            max_time=sim.now + 120,
        )


def _restart_with_recovery(sim, pid):
    stack = sim.restart_process(pid)
    store = ReplicatedKvStore(stack.create("ab", ("kv",)))
    manager = RecoveryManager(stack, store.rsm, recovering=True)
    ticker = sim.loop.schedule_every(0.01, manager.poke)
    return store, manager, ticker


def test_restarted_replica_rejoins_and_converges():
    config = GroupConfig(4, checkpoint_interval=8)
    sim = LanSimulation(config=config, seed=42)
    stores, managers = _build_group(sim)

    _drive(sim, stores, managers, live=[0, 1, 2, 3], bursts=3, per_burst=2, tag="a")
    assert all(m.position == 24 for m in managers)
    assert all(m.stable_seq >= 16 for m in managers)

    # Kill replica 3; the group keeps going without it (n - f = 3).
    sim.fault_plan.crashed[3] = sim.now
    _drive(sim, stores, managers, live=[0, 1, 2], bursts=4, per_burst=2, tag="b")
    assert all(managers[pid].position == 48 for pid in (0, 1, 2))
    assert managers[3].position == 24  # frozen at crash

    # Restart it from nothing and let it recover.
    store3, manager3, ticker = _restart_with_recovery(sim, 3)
    stores[3], managers[3] = store3, manager3
    sim.run(
        until=lambda: manager3.phase == PHASE_LIVE,
        max_time=sim.now + 300,
    )
    assert manager3.phase == PHASE_LIVE

    # The recovered replica transferred a snapshot, not the full history.
    assert manager3.stats.snapshots_installed >= 1
    assert manager3.stats.state_bytes_received > 0
    assert manager3.stats.rejoin_time_s is not None
    assert manager3.stats.rejoin_time_s > 0
    assert manager3.stable_seq >= 40

    # Let the group settle (noop nudges may still be in flight), then
    # check full state convergence.
    sim.run(
        until=lambda: len({s.state_digest() for s in stores}) == 1
        and len({m.position for m in managers}) == 1,
        max_time=sim.now + 120,
    )
    assert len({s.state_digest() for s in stores}) == 1
    assert len({m.position for m in managers}) == 1

    # The recovered replica is a full citizen again: its own submissions
    # get ordered and applied everywhere.
    stores[3].put("after-rejoin", b"!")
    sim.run(
        until=lambda: all(s.get("after-rejoin") == b"!" for s in stores),
        max_time=sim.now + 120,
    )
    assert all(s.get("after-rejoin") == b"!" for s in stores)
    ticker.cancel()


@pytest.mark.parametrize("cap", [1, 2])
def test_rejoin_completes_under_admission_cap(cap):
    """Regression: the join wave's noop nudges went through admission
    control.  The joiner's nudges are ordered below its join round, so
    they stay pending until the join completes; at cap 1 or 2 the next
    nudge raised ``BackpressureError`` out of ``poke`` and the group
    never reached the join round."""
    config = GroupConfig(4, checkpoint_interval=8, ab_pending_cap=cap)
    sim = LanSimulation(config=config, seed=42)
    stores, managers = _build_group(sim)
    _drive(sim, stores, managers, live=[0, 1, 2, 3], bursts=3, per_burst=1, tag="a")
    sim.fault_plan.crashed[3] = sim.now
    _drive(sim, stores, managers, live=[0, 1, 2], bursts=6, per_burst=1, tag="b")

    store3, manager3, ticker = _restart_with_recovery(sim, 3)
    stores[3], managers[3] = store3, manager3
    sim.run(until=lambda: manager3.phase == PHASE_LIVE, max_time=sim.now + 300)
    assert manager3.phase == PHASE_LIVE

    ab3 = store3.rsm.ab
    sim.run(
        until=lambda: len({s.state_digest() for s in stores}) == 1
        and ab3.pending_local == 0,
        max_time=sim.now + 120,
    )
    assert len({s.state_digest() for s in stores}) == 1
    assert ab3.pending_local == 0

    stores[3].put("after-rejoin", b"!")
    sim.run(
        until=lambda: all(s.get("after-rejoin") == b"!" for s in stores),
        max_time=sim.now + 120,
    )
    assert all(s.get("after-rejoin") == b"!" for s in stores)
    ticker.cancel()


def test_gc_floor_advances_on_simulated_runtime():
    config = GroupConfig(4, checkpoint_interval=4)
    sim = LanSimulation(config=config, seed=9)
    stores, managers = _build_group(sim)
    _drive(sim, stores, managers, live=[0, 1, 2, 3], bursts=6, per_burst=1, tag="gc")
    for manager in managers:
        # Reclamation is atomic broadcast's own (always on, two rounds
        # behind the agreement); the checkpoint layer only truncates logs.
        ab = manager._ab
        assert ab.gc_floor > 0
        assert ab.round - ab.gc_floor == RETAINED_ROUNDS


def test_recovering_replica_converges_while_group_stays_busy():
    """Recovery with concurrent writes: the group does not pause for the
    joiner, and the joiner still lands on the same digest."""
    config = GroupConfig(4, checkpoint_interval=8)
    sim = LanSimulation(config=config, seed=7)
    stores, managers = _build_group(sim)
    _drive(sim, stores, managers, live=[0, 1, 2, 3], bursts=2, per_burst=2, tag="pre")

    sim.fault_plan.crashed[3] = sim.now
    _drive(sim, stores, managers, live=[0, 1, 2], bursts=2, per_burst=2, tag="down")

    store3, manager3, ticker = _restart_with_recovery(sim, 3)
    stores[3], managers[3] = store3, manager3
    # Keep writing while it recovers.
    for i in range(6):
        stores[i % 3].put(f"busy/{i}", bytes([i]))
    sim.run(
        until=lambda: manager3.phase == PHASE_LIVE,
        max_time=sim.now + 300,
    )
    assert manager3.phase == PHASE_LIVE
    sim.run(
        until=lambda: len({s.state_digest() for s in stores}) == 1
        and len({m.position for m in managers}) == 1,
        max_time=sim.now + 120,
    )
    assert len({s.state_digest() for s in stores}) == 1
    ticker.cancel()
