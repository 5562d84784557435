"""The repro.obs metrics subsystem: primitives, registries, the
Prometheus exporter and runtime integration (simulator and TCP)."""

import asyncio
import collections
import math
import pathlib
import re
import time

import pytest

from repro import GroupConfig, LanSimulation, TrustedDealer
from repro.obs.export import to_prometheus
from repro.obs.metrics import (
    COUNT_BUCKETS,
    LATENCY_BUCKETS,
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.check.scenarios import SCENARIOS
from repro.core.trace import (
    KIND_BROADCAST,
    KIND_CREATE,
    KIND_DECIDE,
    KIND_DROP,
    KIND_OOC,
    KIND_QUOTA,
    KIND_RECEIVE,
    KIND_SEND,
    KIND_SHED,
    Tracer,
)
from repro.transport import PeerAddress, RitasNode

REPO = pathlib.Path(__file__).resolve().parent.parent


class TestPrimitives:
    def test_counter_monotone(self):
        c = Counter("x")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_moves_both_ways(self):
        g = Gauge("depth")
        g.set(7)
        g.inc(3)
        g.dec(5)
        assert g.value == 5

    def test_histogram_exact_quantiles(self):
        h = Histogram("lat")
        for v in [0.001, 0.002, 0.003, 0.004, 0.100]:
            h.observe(v)
        assert h.count == 5
        assert h.exact
        assert h.quantile(0.5) == 0.003
        assert h.quantile(0.0) == 0.001
        assert h.quantile(1.0) == 0.100
        assert h.min == 0.001 and h.max == 0.100

    def test_histogram_unsorted_observations(self):
        h = Histogram("lat")
        for v in [5.0, 1.0, 3.0, 2.0, 4.0]:
            h.observe(v)
        assert h.quantile(0.5) == 3.0

    def test_histogram_interpolates_past_sample_cap(self):
        h = Histogram("lat", sample_cap=10)
        for i in range(100):
            h.observe(0.001 * (1 + i % 10))
        assert not h.exact
        p50 = h.quantile(0.5)
        # Interpolated within a log bucket: right magnitude, monotone.
        assert 0.001 < p50 < 0.02
        assert h.quantile(0.99) >= p50

    def test_histogram_quantile_empty_is_nan(self):
        assert math.isnan(Histogram("lat").quantile(0.5))
        with pytest.raises(ValueError):
            Histogram("lat").quantile(1.5)

    def test_histogram_merge(self):
        a, b = Histogram("lat"), Histogram("lat")
        for v in (0.001, 0.002):
            a.observe(v)
        for v in (0.003, 0.004):
            b.observe(v)
        a.merge(b)
        assert a.count == 4
        assert a.sum == pytest.approx(0.010)
        assert a.min == 0.001 and a.max == 0.004
        assert a.exact
        assert a.quantile(1.0) == 0.004

    def test_histogram_merge_rejects_different_buckets(self):
        a = Histogram("lat", buckets=LATENCY_BUCKETS)
        b = Histogram("lat", buckets=COUNT_BUCKETS)
        b.observe(3.0)
        with pytest.raises(ValueError):
            a.merge(b)

    def test_histogram_snapshot_shape(self):
        h = Histogram("lat")
        h.observe(0.005)
        snap = h.snapshot()
        assert snap["type"] == "histogram"
        assert snap["count"] == 1
        assert snap["sum"] == 0.005
        # Sparse buckets: only the hit bucket is listed.
        assert len(snap["buckets"]) == 1
        le, count = snap["buckets"][0]
        assert count == 1 and le >= 0.005

    def test_bucket_bounds_are_fixed_and_ascending(self):
        assert list(LATENCY_BUCKETS) == sorted(LATENCY_BUCKETS)
        assert list(COUNT_BUCKETS) == sorted(COUNT_BUCKETS)
        assert LATENCY_BUCKETS[0] == pytest.approx(1e-6)
        assert COUNT_BUCKETS[0] == 1.0


class TestRegistry:
    def test_get_or_create_identity(self):
        reg = MetricsRegistry()
        assert reg.counter("a", x=1) is reg.counter("a", x=1)
        assert reg.counter("a", x=1) is not reg.counter("a", x=2)
        assert len(reg) == 2

    def test_const_labels_merged(self):
        reg = MetricsRegistry(const_labels={"process": 3})
        c = reg.counter("a", kind="q")
        assert dict(c.labels) == {"process": "3", "kind": "q"}

    def test_type_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("a")
        with pytest.raises(TypeError):
            reg.gauge("a")
        with pytest.raises(TypeError):
            reg.histogram("a")

    def test_null_registry_is_inert(self):
        assert not NULL_REGISTRY.enabled
        NULL_REGISTRY.counter("a", x=1).inc()
        NULL_REGISTRY.gauge("b").set(5)
        NULL_REGISTRY.histogram("c").observe(0.1)
        assert len(NULL_REGISTRY) == 0


def _demo_registry():
    reg = MetricsRegistry(const_labels={"process": 0})
    reg.counter("ritas_demo_total", kind="x").inc(3)
    reg.gauge("ritas_demo_depth").set(7)
    h = reg.histogram("ritas_demo_seconds")
    for v in (0.001, 0.010, 0.100):
        h.observe(v)
    return reg


class TestExporters:
    def test_prometheus_exposition_parses(self):
        text = to_prometheus([_demo_registry()])
        lines = text.strip().splitlines()
        types = {}
        series = []
        sample_re = re.compile(
            r'^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (-?[0-9.e+-]+|\+Inf|NaN)$'
        )
        for line in lines:
            if line.startswith("# TYPE "):
                _, _, name, kind = line.split(" ")
                types[name] = kind
                continue
            match = sample_re.match(line)
            assert match, f"unparseable exposition line: {line!r}"
            series.append(match.group(1))
        assert types == {
            "ritas_demo_total": "counter",
            "ritas_demo_depth": "gauge",
            "ritas_demo_seconds": "histogram",
        }
        # Histogram encoding: cumulative buckets ending at +Inf == count.
        bucket_lines = [
            line for line in lines if line.startswith("ritas_demo_seconds_bucket")
        ]
        counts = [float(line.rsplit(" ", 1)[1]) for line in bucket_lines]
        assert counts == sorted(counts)
        assert counts[-1] == 3
        assert 'le="+Inf"' in bucket_lines[-1]
        assert any(line.startswith("ritas_demo_seconds_sum") for line in lines)
        assert any(line.startswith("ritas_demo_seconds_count") for line in lines)

    def test_prometheus_label_escaping(self):
        reg = MetricsRegistry()
        reg.counter("x", path='a"b\\c\nd').inc()
        text = to_prometheus([reg])
        assert '\\"' in text and "\\\\" in text and "\\n" in text


def _run_sim_burst(k=8, n=4, seed=3, subscriber=None):
    sim = LanSimulation(n=n, seed=seed)
    sim.enable_metrics()
    if subscriber is not None:
        for stack in sim.stacks:
            stack.stats.subscribe(subscriber)
    for pid in sim.config.process_ids:
        sim.stacks[pid].create("ab", ("obs",))
    for pid in sim.config.process_ids:
        ab = sim.stacks[pid].instance_at(("obs",))
        with sim.stacks[pid].coalesce():
            for _ in range(k // n):
                ab.broadcast(b"payload-%d" % pid)
    observer = sim.stacks[0].instance_at(("obs",))
    sim.run(until=lambda: observer.delivered_count >= k, max_time=60.0)
    sim.sample_metrics()
    return sim


def _latency_histograms(registries):
    return [
        metric
        for registry in registries
        for metric in registry.metrics()
        if metric.name == "ritas_instance_latency_seconds"
    ]


class TestSimulatorIntegration:
    def test_burst_populates_per_protocol_latency(self):
        sim = _run_sim_burst()
        latency = _latency_histograms(sim.metric_registries())
        protocols = {dict(h.labels)["protocol"] for h in latency}
        # The AB burst exercises the whole stack beneath it.
        assert {"rb", "eb", "bc", "mvc", "ab"} <= protocols
        for h in latency:
            assert h.count > 0
            assert h.quantile(0.5) <= h.quantile(0.95) <= h.quantile(0.99)

    def test_metrics_disabled_by_default(self):
        sim = LanSimulation(n=4, seed=3)
        assert all(s.stats.subscriptions == [] for s in sim.stacks)
        assert sim.metric_registries() == []
        sim.sample_metrics()  # no-op, must not blow up

    def test_registry_survives_restart(self):
        sim = LanSimulation(n=4, seed=5)
        registry = sim.enable_metrics()[1]
        registry.counter("probe").inc()
        stack = sim.restart_process(1)
        assert sim.metric_registries()[1] is registry
        assert [type(s).__name__ for s, _ in stack.stats.subscriptions] == ["StackMetrics"]
        assert registry.counter("probe").value == 1

    def test_gauges_zero_after_quiescence(self):
        sim = _run_sim_burst()
        sim.run(max_time=120.0)  # drain everything in flight
        sim.sample_metrics()
        for registry in sim.metric_registries():
            for metric in registry.metrics():
                if metric.name in (
                    "ritas_send_queue_frames",
                    "ritas_send_queue_bytes",
                    "ritas_ooc_pending",
                    "ritas_ooc_bytes",
                    "ritas_ab_pending_local",
                ):
                    assert metric.value == 0, (metric.name, dict(metric.labels))

    def test_disabled_metrics_cost_under_3_percent(self):
        """DESIGN §10's budget, bounded from first principles rather than
        by comparing two noisy wall clocks: every event a fully
        subscribed run records is one record call whose subscriber
        table the unsubscribed run finds empty (one truth test); padded
        4x for record calls that build nothing either way, those tests
        cost under 3% of the unsubscribed run's wall time."""
        from repro.core.stats import StackStats
        from repro.eval.atomic_burst import run_burst

        def best_of(repeats, fn):
            times = []
            for _ in range(repeats):
                start = time.perf_counter()
                fn()
                times.append(time.perf_counter() - start)
            return min(times)

        disabled_s = best_of(2, lambda: run_burst(16, 100, seed=2, metrics=False))

        stats = StackStats()

        def guards(iterations=200_000):
            sink = 0
            for _ in range(iterations):
                if stats._on.send:
                    sink += 1
            assert sink == 0

        guard_s = best_of(3, guards) / 200_000
        recorded = []
        _run_sim_burst(k=16, seed=2, subscriber=lambda *event: recorded.append(event[1]))
        events = len(recorded)
        assert events * 4 * guard_s < 0.03 * disabled_s, (events, guard_s, disabled_s)


def _run_tcp_scenario(tmp_path, subscribe=None):
    async def scenario():
        config = GroupConfig(4)
        dealer = TrustedDealer(4, seed=b"obs-tcp")
        addresses = [PeerAddress("127.0.0.1", 0) for _ in range(4)]
        nodes = [
            RitasNode(config, pid, addresses, dealer.keystore_for(pid))
            for pid in range(4)
        ]
        if subscribe is not None:
            subscribe([node.stack for node in nodes])
        for node in nodes:
            await node.listen()
        bound = [PeerAddress("127.0.0.1", node.bound_port) for node in nodes]
        for node in nodes:
            node.set_peer_addresses(bound)
        for node in nodes:
            await node.connect()
        try:
            registries = [node.enable_metrics() for node in nodes]
            delivered = [0] * 4
            for pid, node in enumerate(nodes):
                ab = node.stack.create("ab", ("obs",))
                ab.on_deliver = lambda _i, _d, pid=pid: delivered.__setitem__(
                    pid, delivered[pid] + 1
                )
            for node in nodes:
                node.stack.instance_at(("obs",)).broadcast(b"tcp-metric")
            for _ in range(500):
                if all(d >= 4 for d in delivered):
                    break
                await asyncio.sleep(0.02)
            else:
                raise TimeoutError("TCP metrics run did not converge")
            for node in nodes:
                node.sample_metrics()
            return registries
        finally:
            for node in nodes:
                await node.close()

    return asyncio.run(scenario())


def _subscribe_tracers(stacks, tracers):
    for stack in stacks:
        tracer = Tracer(capacity=1_000_000)
        stack.stats.subscribe(tracer)
        tracers.append((stack, tracer))


def _assert_views_agree(stack, tracer):
    """The counters and the trace come from one record call per
    happening, so they agree exactly."""
    stats = stack.stats
    events = tracer.events()
    assert tracer.dropped_events == 0
    count = collections.Counter
    kinds = count(event.kind for event in events)
    assert kinds[KIND_SEND] == stats.frames_sent
    assert kinds[KIND_RECEIVE] == stats.frames_received
    drops = count(event.detail["reason"] for event in events if event.kind == KIND_DROP)
    assert drops == stats.dropped
    assert kinds[KIND_BROADCAST] == stats.total_broadcasts()
    protocol_of = {e.path: e.detail["protocol"] for e in events if e.kind == KIND_CREATE}
    decided = count(protocol_of[e.path] for e in events if e.kind == KIND_DECIDE)
    for protocol in ("bc", "mvc", "vc"):
        assert decided[protocol] == stats.decisions[protocol], protocol
    assert kinds[KIND_OOC] == stats.ooc_stored
    assert kinds[KIND_QUOTA] == stats.ooc_evicted
    shed = sum(event.detail["frames"] for event in events if event.kind == KIND_SHED)
    assert shed == stats.sends_shed


def _run_scenario(name, tracers):
    scenario = SCENARIOS[name]
    sim = scenario.build(1, 1, 1e-4)
    _subscribe_tracers(sim.stacks, tracers)
    scenario.apply_ops(sim, scenario.ops)
    scenario.start(sim)
    sim.run(max_time=scenario.max_time)


def _run_shedding_burst(tracers):
    sim = LanSimulation(GroupConfig(4, send_queue_max_frames=4), seed=1)
    _subscribe_tracers(sim.stacks, tracers)
    for stack in sim.stacks:
        stack.create("ab", ("a",))
    for stack in sim.stacks:
        ab = stack.instance_at(("a",))
        for _ in range(20):
            ab.broadcast(b"x" * 50)
    sim.run(max_time=5.0)


class TestViewsAgree:
    """Counters, trace and decisions cannot disagree: per stack, the
    trace holds exactly the happenings ``StackStats`` counted."""

    @pytest.mark.parametrize(
        "name, happened",
        [
            ("byz-ooc-flood", ("ooc_stored", "ooc_evicted")),
            ("byz-digest-forge", ("dropped",)),
            ("gray-flaky-mac", ("dropped",)),  # frames that fail to parse
            # The laggard parks later rounds' frames, then replays them.
            ("laggard-gc", ("ooc_stored", "ooc_drained")),
        ],
    )
    def test_scenario(self, name, happened):
        tracers = []
        _run_scenario(name, tracers)
        for attribute in happened:
            assert any(getattr(stack.stats, attribute) for stack, _ in tracers), attribute
        for stack, tracer in tracers:
            _assert_views_agree(stack, tracer)

    def test_shedding_burst(self):
        tracers = []
        _run_shedding_burst(tracers)
        assert all(stack.stats.sends_shed for stack, _ in tracers)
        for stack, tracer in tracers:
            _assert_views_agree(stack, tracer)

    def test_tcp(self, tmp_path):
        tracers = []
        _run_tcp_scenario(tmp_path, lambda stacks: _subscribe_tracers(stacks, tracers))
        assert all(stack.stats.decisions["mvc"] for stack, _ in tracers)
        for stack, tracer in tracers:
            _assert_views_agree(stack, tracer)


def _documented_metrics():
    """docs/API.md's ``ritas_*`` rows: name -> label keys (the backticked
    names before the row's dash, outside parentheses, which list values;
    ``process``/``runtime`` are the const labels every row has)."""
    rows = {}
    for line in (REPO / "docs" / "API.md").read_text(encoding="utf-8").splitlines():
        match = re.match(r"\| `(ritas_\w+)` \| \w+ \| [^|]+ \| (.*) \|$", line)
        if match:
            labels = re.sub(r"\([^)]*\)", "", match.group(2).split("—")[0])
            rows[match.group(1)] = set(re.findall(r"`(\w+)`", labels))
    return rows


class TestDocumentedMetrics:
    def test_api_table_matches_live_registry(self):
        """Every ``ritas_*`` metric a run produces is documented, every
        documented one is produced, and each row names its labels."""
        documented = _documented_metrics()
        assert len(documented) >= 10
        sim = LanSimulation(n=4, seed=1, jitter_s=1e-4)
        sim.enable_metrics()
        for stack in sim.stacks:
            for kind in ("ab", "vc", "bc"):
                stack.create(kind, (kind,))
        for pid, stack in enumerate(sim.stacks):
            stack.instance_at(("ab",)).broadcast(b"m%d" % pid)
            stack.instance_at(("vc",)).propose(b"v%d" % pid)
            stack.instance_at(("bc",)).propose(pid % 2)  # split: a coin round
        sim.run(max_time=30.0)
        sim.sample_metrics()
        produced = {}
        for registry in sim.metric_registries():
            for metric in registry.metrics():
                if metric.name.startswith("ritas_"):
                    keys = {key for key, _ in metric.labels} - {"process", "runtime"}
                    assert produced.setdefault(metric.name, keys) == keys, metric.name
        assert set(produced) == set(documented)
        for name, keys in produced.items():
            assert keys == documented[name], name


class TestOneRecordPoint:
    def test_core_has_no_observability_side_channel(self):
        """Protocols record through ``stack.stats`` only: no module of
        the core reaches for a tracer, a metrics registry or an observer,
        or keeps a delivery order log for the checker (the checker's
        :class:`~repro.check.invariants.OrderLog` subscribes to
        ``deliver`` events instead)."""
        offenders = [
            f"{path.name}:{number}"
            for path in sorted((REPO / "src" / "repro" / "core").glob("*.py"))
            for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if re.search(r"\.(tracer|metrics|observer)\b|order_log|record_delivery_order", line)
        ]
        assert offenders == []


class TestTcpIntegration:
    def test_tcp_snapshot_has_latency_histograms(self, tmp_path):
        latency = _latency_histograms(_run_tcp_scenario(tmp_path))
        assert latency
        assert {"rb", "ab"} <= {dict(h.labels)["protocol"] for h in latency}
        assert all(dict(h.labels)["runtime"] == "tcp" for h in latency)
        # Wall-clock latencies: positive and sane.
        assert all(0 < h.quantile(0.5) < 60 for h in latency)

