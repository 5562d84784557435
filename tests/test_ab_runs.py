"""Atomic broadcast's delivery queue of runs, checked against a per-id
reference model of the same rules: a decided batch's ids that are
neither delivered nor queued are queued bound to it, and the queue head
delivers once its batch content (or an injected payload) is here."""

import os
from collections import Counter, deque

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.atomic_broadcast import encode_batches, encode_id_ranges, parse_id_ranges

from util import InstantNet

FUZZ = dict(max_examples=int(os.environ.get("RITAS_FUZZ_EXAMPLES", "30")), deadline=None)
AB = ("ab",)
SENDERS = (2, 3)


class PerIdQueue:
    """One queue entry per id, one binding per id."""

    def __init__(self, delivered):
        self.delivered = set(delivered)
        self.scheduled, self.bound, self.batches, self.injected = {}, Counter(), {}, {}
        self.queue, self.out = deque(), []

    def unordered(self, batch):
        sender, first, last = batch
        ids = [(sender, r) for r in range(first, last + 1)]
        return any(m not in self.scheduled and m not in self.delivered for m in ids)

    def arrive(self, batch, content):
        if batch in self.bound or self.unordered(batch):
            self.batches[batch] = content
            self.drain()

    def decide(self, batches):
        for batch in batches:
            sender, first, last = batch
            for msg_id in [(sender, r) for r in range(first, last + 1)]:
                if msg_id not in self.scheduled and msg_id not in self.delivered:
                    self.scheduled[msg_id] = batch
                    self.queue.append(msg_id)
                    self.bound[batch] += 1
            if batch not in self.bound:
                self.batches.pop(batch, None)
        self.drain()

    def absorb(self, ids):
        self.delivered |= ids
        for batch in [b for b in self.batches if b not in self.bound]:
            if all((batch[0], r) in self.delivered for r in range(batch[1], batch[2] + 1)):
                del self.batches[batch]

    def inject(self, msg_id, payload):
        batch = self.scheduled.get(msg_id)
        if batch is None or batch in self.batches or msg_id in self.injected:
            return False
        if msg_id in self.delivered:
            return False
        self.injected[msg_id] = payload
        self.drain()
        return True

    def drain(self):
        while self.queue:
            msg_id = self.queue[0]
            batch = self.scheduled[msg_id]
            if batch in self.batches:
                payload = self.batches[batch][msg_id[1] - batch[1]]
                self.injected.pop(msg_id, None)
            elif msg_id in self.injected:
                payload = self.injected.pop(msg_id)
            else:
                return
            self.queue.popleft()
            del self.scheduled[msg_id]
            self.delivered.add(msg_id)
            self.bound[batch] -= 1
            if not self.bound[batch]:
                del self.bound[batch]
                self.batches.pop(batch, None)
            self.out.append((*msg_id, payload, len(self.out)))


def content_of(batch):
    sender, first, last = batch
    return [b"%d/%d@%d-%d" % (sender, r, first, last) for r in range(first, last + 1)]


def session(delivered=()):
    """One process's AB session, its deliveries, and *delivered*
    installed as its frontier (watermarks and sparse ids)."""
    net = InstantNet(4)
    ab = net.stacks[0].create("ab", AB)
    out = []
    ab.on_deliver = lambda _i, d: out.append((d.sender, d.rbid, d.payload, d.sequence))
    ranges = parse_id_ranges(encode_id_ranges(delivered), range(4), watermarks=True)
    ab._install_frontier(ranges)
    return ab, out


def arrive(ab, batch):
    ab._on_batch(ab._open_msg_instance(*batch), content_of(batch))


def assert_drained(ab):
    assert not (ab._bound or ab._batches or ab._delivery_queue or ab._queued or ab._injected)


batch_st = st.builds(
    lambda sender, first, extra: (sender, first, first + extra),
    st.sampled_from(SENDERS),
    st.integers(0, 12),
    st.integers(0, 3),
)
id_st = st.tuples(st.sampled_from(SENDERS), st.integers(0, 15))


@given(
    batches=st.lists(batch_st, min_size=1, max_size=12),
    delivered=st.sets(id_st, max_size=8),
    injects=st.lists(id_st, max_size=4),
    absorbs=st.lists(st.sets(id_st, min_size=1, max_size=4), max_size=2),
    data=st.data(),
)
@settings(**FUZZ)
def test_runs_deliver_what_the_per_id_queue_delivers(batches, delivered, injects, absorbs, data):
    """Overlapping and duplicate decided batches, contents arriving in
    any order, injected payloads, a sparse installed frontier and
    frontiers absorbed mid-stream (which may cover queued ids): the
    same deliveries, sequence numbers and frontier, and nothing left
    bound or held."""
    rounds = data.draw(st.lists(st.integers(0, 3), min_size=len(batches), max_size=len(batches)))
    decisions = [
        sorted({b for b, r in zip(batches, rounds) if r == k}) for k in sorted(set(rounds))
    ]
    events = [("arrive", b) for b in sorted(set(batches))]
    events += [("decide", None)] * len(decisions) + [("inject", m) for m in injects]
    events += [("absorb", frozenset(ids)) for ids in absorbs]
    events = data.draw(st.permutations(events))
    ab, out = session(delivered)
    ref = PerIdQueue(delivered)
    pending = deque(decisions)
    for kind, arg in events:
        if kind == "arrive":
            arrive(ab, arg)
            ref.arrive(arg, content_of(arg))
        elif kind == "decide":
            decision = pending.popleft()
            ab._on_agreement(ab.round, encode_batches(decision))
            ref.decide(decision)
        elif kind == "absorb":
            ab.absorb_frontier(encode_id_ranges(arg))
            ref.absorb(arg)
        else:
            payload = b"injected %d/%d" % arg
            assert ab.inject_payload(arg, payload) == ref.inject(arg, payload)
        assert out == ref.out
        stalled = [m for m in ref.queue if ref.scheduled[m] not in ref.batches]
        assert ab.stalled_ids(limit=64) == [m for m in stalled if m not in ref.injected][:64]
    assert out == ref.out
    assert ab.delivered_frontier() == encode_id_ranges(ref.delivered)
    assert_drained(ab)


def test_a_frontier_absorbed_inside_a_queued_run_stays_canonical():
    """A checkpoint absorbed mid-join marks (2, 2) delivered while the
    run (2, 0..3) waits for its content: the run still hands every id
    over, and the sparse id merges into the watermark."""
    ab, out = session()
    ab._on_agreement(0, encode_batches([(2, 0, 3)]))
    ab.absorb_frontier([[2, 2, 2]])
    arrive(ab, (2, 0, 3))
    assert [d[1] for d in out] == [0, 1, 2, 3]
    assert ab.delivered_frontier() == [[2, 0, 3]]
    assert_drained(ab)


def test_a_decision_of_single_id_batches_queues_one_run_apiece():
    ab, out = session()
    decision = [(3, r, r) for r in range(0, 2000, 2)]
    ab._on_agreement(0, encode_batches(decision))
    assert len(ab._delivery_queue) == len(ab._queued[3]) == len(decision)
    for batch in reversed(decision):
        arrive(ab, batch)
    assert [(s, r) for s, r, _, _ in out] == [(3, r) for r in range(0, 2000, 2)]
    assert_drained(ab)


def test_a_callback_injecting_mid_run_neither_skips_nor_repeats():
    """p0 delivers (3, 0..2) from its batch; at (3, 1) the callback
    injects the payload of (3, 3), the head of the next run, whose batch
    content never came.  The nested drain must not skip (3, 2) or hand
    over any id twice."""
    ab, out = session()
    injected = []

    def on_deliver(_instance, d):
        out.append((d.sender, d.rbid, d.payload, d.sequence))
        if d.rbid == 1:
            injected.append(ab.inject_payload((3, 2), b"late"))  # its content is here
            injected.append(ab.inject_payload((3, 3), b"fetched"))

    ab.on_deliver = on_deliver
    arrive(ab, (3, 0, 2))
    ab._on_agreement(0, encode_batches([(3, 0, 2), (3, 3, 4)]))
    assert injected == [False, True]
    assert out == [
        (3, 0, b"3/0@0-2", 0),
        (3, 1, b"3/1@0-2", 1),
        (3, 2, b"3/2@0-2", 2),
        (3, 3, b"fetched", 3),
    ]
    assert ab.stalled_ids() == [(3, 4)]
    arrive(ab, (3, 3, 4))
    assert [d[1:] for d in out[4:]] == [(4, b"3/4@3-4", 4)]
    assert_drained(ab)
