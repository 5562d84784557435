"""Adversarial frame fuzzing: a corrupt process sends arbitrary frames at
every layer; correct processes must neither crash nor lose correctness.

The attacker (p3) bypasses its own protocol instances entirely and
injects raw frames -- random paths, random mtypes, random payloads,
including structurally valid ones aimed at real instance paths.
"""

import os
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.wire import encode_frame

from util import InstantNet, decisions_of

ATTACKER = 3

# Payload values a smart fuzzer would try: protocol-domain values,
# near-miss shapes, and junk.
payload_strategy = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(2**40), 2**40)
    | st.binary(max_size=40)
    | st.sampled_from([0, 1, [0, 0], [[0, 0]], [b"v", None], "INIT"]),
    lambda children: st.lists(children, max_size=4),
    max_leaves=8,
)

path_component = st.integers(-3, 6) | st.sampled_from(
    ["rb", "eb", "bc", "mvc", "vc", "ab", "msg", "vect", "init", "ord", 0, 1, 2, 3]
)


def inject(net, frames):
    """Send raw attacker frames to every correct process."""
    for path, mtype, payload in frames:
        for dest in range(3):
            try:
                net.stacks[ATTACKER].send_frame(dest, path, mtype, payload)
            except (TypeError, ValueError):
                pass  # unencodable fuzz value; irrelevant to receivers


# CI's flood-stress job raises the example budget via the environment;
# local runs keep the fast default.
COMMON = dict(
    max_examples=int(os.environ.get("RITAS_FUZZ_EXAMPLES", "30")),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

frames_strategy = st.lists(
    st.tuples(
        st.lists(path_component, max_size=6).map(tuple),
        st.integers(0, 5),
        payload_strategy,
    ),
    max_size=12,
)


@given(frames=frames_strategy, seed=st.integers(0, 1000))
@settings(**COMMON)
def test_binary_consensus_survives_fuzz(frames, seed):
    net = InstantNet(4)
    for pid in range(3):
        net.stacks[pid].create("bc", ("bc",))
    inject(net, frames)
    for pid in range(3):
        net.stacks[pid].instance_at(("bc",)).propose(1)
    inject(net, [(("bc",) + p, m, v) for p, m, v in frames])
    net.run()
    assert decisions_of(net, ("bc",))[:3] == [1, 1, 1]


@given(frames=frames_strategy, seed=st.integers(0, 1000))
@settings(**COMMON)
def test_mvc_survives_fuzz(frames, seed):
    net = InstantNet(4)
    for pid in range(3):
        net.stacks[pid].create("mvc", ("m",))
    inject(net, [(("m",) + p, m, v) for p, m, v in frames])
    for pid in range(3):
        net.stacks[pid].instance_at(("m",)).propose(b"survivor")
    net.run()
    decisions = [net.stacks[pid].instance_at(("m",)).decision for pid in range(3)]
    assert decisions == [b"survivor"] * 3


@given(frames=frames_strategy)
@settings(**COMMON)
def test_atomic_broadcast_survives_fuzz(frames):
    net = InstantNet(4)
    orders = {}
    for pid in range(3):
        ab = net.stacks[pid].create("ab", ("a",))
        orders[pid] = []
        ab.on_deliver = lambda _i, d, pid=pid: orders[pid].append(d.msg_id)
    inject(net, [(("a",) + p, m, v) for p, m, v in frames])
    for pid in range(3):
        net.stacks[pid].instance_at(("a",)).broadcast(b"real-%d" % pid)
    inject(net, [(("a",) + p, m, v) for p, m, v in frames])
    net.run()
    reference = orders[0]
    # The attacker may inject *deliverable* junk of its own, but the real
    # messages arrive exactly once and order agreement holds.
    assert all(o == reference for o in orders.values())
    for pid in range(3):
        assert reference.count((pid, 0)) == 1


@given(frames=frames_strategy)
@settings(**COMMON)
def test_reliable_broadcast_survives_fuzz(frames):
    net = InstantNet(4)
    got = {}
    for pid in range(3):
        rb = net.stacks[pid].create("rb", ("r",), sender=0)
        rb.on_deliver = lambda _i, v, pid=pid: got.setdefault(pid, v)
    inject(net, [(("r",), m, v) for _, m, v in frames])
    net.stacks[0].instance_at(("r",)).broadcast(b"genuine")
    net.run()
    assert got == {pid: b"genuine" for pid in range(3)}


@given(frames=frames_strategy)
@settings(**COMMON)
def test_echo_broadcast_survives_fuzz(frames):
    net = InstantNet(4)
    got = {}
    for pid in range(3):
        eb = net.stacks[pid].create("eb", ("e",), sender=0)
        eb.on_deliver = lambda _i, v, pid=pid: got.setdefault(pid, v)
    inject(net, [(("e",), m, v) for _, m, v in frames])
    net.stacks[0].instance_at(("e",)).broadcast(b"genuine")
    net.run()
    # The attacker can interfere with its *own* VECT contribution only;
    # three honest rows always exist, so everyone still delivers.
    assert got == {pid: b"genuine" for pid in range(3)}


@given(data=st.binary(max_size=120))
@settings(max_examples=150, deadline=None)
def test_raw_garbage_at_the_stack(data):
    net = InstantNet(4)
    net.stacks[0].create("bc", ("bc",))
    net.stacks[0].receive(ATTACKER, data)  # must never raise


def test_sustained_ooc_flood_is_bounded():
    """A flood of frames for instances that will never exist stays within
    the OOC capacity and does not disturb live protocols."""
    net = InstantNet(4)
    for pid in range(3):
        net.stacks[pid].create("bc", ("bc",))
    rng = random.Random(5)
    for i in range(3000):
        net.stacks[ATTACKER].send_frame(
            rng.randrange(3), ("ghost", i), 0, b"x" * 16
        )
    for pid in range(3):
        net.stacks[pid].instance_at(("bc",)).propose(0)
    net.run()
    assert decisions_of(net, ("bc",))[:3] == [0, 0, 0]
    for pid in range(3):
        assert net.stacks[pid].ooc_pending <= net.stacks[pid].config.ooc_capacity
