"""Runtime-side hot-path tests: the leaned event loop must be
observationally identical to the straightforward one.
"""

from __future__ import annotations

from random import Random

from repro.net.simulator import EventLoop


class TestLeanEventLoop:
    def _record_all(self, seed: int) -> list[int]:
        loop = EventLoop(tie_break_rng=Random(seed))
        order: list[int] = []
        for i in range(200):
            loop.schedule((i % 7) * 0.5, order.append, i)
        assert loop.run() == "idle"
        assert loop.events_processed == 200
        return order

    def _record_paused(self, seed: int, chunk: int) -> list[int]:
        loop = EventLoop(tie_break_rng=Random(seed))
        order: list[int] = []
        for i in range(200):
            loop.schedule((i % 7) * 0.5, order.append, i)
        while loop.pending():
            reason = loop.run(max_events=chunk)
            assert reason in ("max_events", "idle")
        return order

    def test_max_events_pauses_are_invisible(self):
        # The one-pop-with-push-back rewrite must not reorder or lose
        # events across pause points, for any pause granularity.
        baseline = self._record_all(5)
        for chunk in (1, 3, 7, 50):
            assert self._record_paused(5, chunk) == baseline

    def test_max_time_pushes_the_over_horizon_event_back(self):
        loop = EventLoop()
        order: list[int] = []
        loop.schedule(1.0, order.append, 1)
        loop.schedule(2.0, order.append, 2)
        loop.schedule(3.0, order.append, 3)
        assert loop.run(max_time=2.0) == "max_time"
        assert order == [1, 2]
        assert loop.pending() == 1  # the 3.0s event survived the peek
        assert loop.run() == "idle"
        assert order == [1, 2, 3]

    def test_events_processed_visible_to_hooks(self):
        loop = EventLoop()
        seen: list[int] = []
        loop.on_event = lambda: seen.append(loop.events_processed)
        for i in range(5):
            loop.schedule(0.1 * i, lambda: None)
        loop.run()
        assert seen == [1, 2, 3, 4, 5]  # bumped before the hook runs

    def test_until_checked_after_each_event(self):
        loop = EventLoop()
        order: list[int] = []
        for i in range(10):
            loop.schedule(0.1 * i, order.append, i)
        assert loop.run(until=lambda: len(order) >= 4) == "until"
        assert order == [0, 1, 2, 3]
