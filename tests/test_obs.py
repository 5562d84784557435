"""The repro.obs metrics subsystem: primitives, registries, exporters,
runtime integration (simulator and TCP) and the CLI renderer."""

import asyncio
import io
import json
import math
import re
import subprocess
import sys
import time

import pytest

from repro import GroupConfig, LanSimulation, TrustedDealer
from repro.obs.export import (
    read_jsonl,
    snapshot_records,
    to_prometheus,
    write_jsonl,
)
from repro.obs.metrics import (
    COUNT_BUCKETS,
    LATENCY_BUCKETS,
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.transport import PeerAddress, RitasNode


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
        assert snap["p50"] == 0.005
        assert snap["exact"] is True
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

    def test_rebind_clock_and_incarnation(self):
        reg = MetricsRegistry(clock=lambda: 1.0)
        assert reg.now() == 1.0
        reg.rebind(clock=lambda: 9.0, incarnation=2)
        assert reg.now() == 9.0
        reg.counter("a").inc()
        records = reg.snapshot()
        assert all(r["time"] == 9.0 and r["incarnation"] == 2 for r in records)

    def test_null_registry_is_inert(self):
        assert not NULL_REGISTRY.enabled
        NULL_REGISTRY.counter("a", x=1).inc()
        NULL_REGISTRY.gauge("b").set(5)
        NULL_REGISTRY.histogram("c").observe(0.1)
        assert len(NULL_REGISTRY) == 0
        assert NULL_REGISTRY.snapshot() == []


def _demo_registry():
    reg = MetricsRegistry(clock=lambda: 42.0, const_labels={"process": 0})
    reg.counter("ritas_demo_total", kind="x").inc(3)
    reg.gauge("ritas_demo_depth").set(7)
    h = reg.histogram("ritas_demo_seconds")
    for v in (0.001, 0.010, 0.100):
        h.observe(v)
    return reg


class TestExporters:
    def test_jsonl_roundtrip(self):
        out = io.StringIO()
        count = write_jsonl(out, [_demo_registry()], meta={"scenario": "t"})
        records = read_jsonl(io.StringIO(out.getvalue()))
        assert len(records) == count == 4
        meta = records[0]
        assert meta["record"] == "meta"
        assert meta["version"] == "repro.obs/v1"
        assert meta["scenario"] == "t"
        assert meta["labels"] == {"process": "0"}
        names = {r["name"] for r in records[1:]}
        assert names == {
            "ritas_demo_total",
            "ritas_demo_depth",
            "ritas_demo_seconds",
        }

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


def _run_sim_burst(k=8, n=4, seed=3):
    sim = LanSimulation(n=n, seed=seed)
    sim.enable_metrics()
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


class TestSimulatorIntegration:
    def test_burst_populates_per_protocol_latency(self):
        sim = _run_sim_burst()
        records = snapshot_records(
            sim.metric_registries(), meta={"runtime": "sim"}
        )
        latency = [
            r
            for r in records
            if r.get("name") == "ritas_instance_latency_seconds"
        ]
        protocols = {r["labels"]["protocol"] for r in latency}
        # The AB burst exercises the whole stack beneath it.
        assert {"rb", "eb", "bc", "mvc", "ab"} <= protocols
        for r in latency:
            assert r["count"] > 0
            assert r["p50"] <= r["p95"] <= r["p99"]

    def test_metrics_disabled_by_default(self):
        sim = LanSimulation(n=4, seed=3)
        assert all(not s.metrics.enabled for s in sim.stacks)
        assert sim.metric_registries() == []
        sim.sample_metrics()  # no-op, must not blow up

    def test_registry_survives_restart(self):
        sim = LanSimulation(n=4, seed=5)
        sim.enable_metrics()
        registry = sim.stacks[1].metrics
        registry.counter("probe").inc()
        stack = sim.restart_process(1)
        assert stack.metrics is registry
        assert registry.incarnation == 1
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
        by comparing two noisy wall clocks: every event an enabled run
        records is one ``if metrics.enabled:`` guard the disabled run
        branches over; padded 4x for guards that record nothing, those
        guards cost under 3% of the disabled run's wall time."""
        from repro.eval.atomic_burst import run_burst

        def best_of(repeats, fn):
            times = []
            for _ in range(repeats):
                start = time.perf_counter()
                fn()
                times.append(time.perf_counter() - start)
            return min(times)

        disabled_s = best_of(2, lambda: run_burst(16, 100, seed=2, metrics=False))

        def guards(iterations=200_000):
            sink = 0
            for _ in range(iterations):
                if NULL_REGISTRY.enabled:
                    sink += 1
            assert sink == 0

        guard_s = best_of(3, guards) / 200_000
        events = sum(
            metric.count if isinstance(metric, Histogram) else max(1, int(metric.value))
            for registry in _run_sim_burst(k=16, seed=2).metric_registries()
            for metric in registry.metrics()
        )
        assert events * 4 * guard_s < 0.03 * disabled_s, (events, guard_s, disabled_s)


def _run_tcp_scenario(tmp_path):
    async def scenario():
        config = GroupConfig(4)
        dealer = TrustedDealer(4, seed=b"obs-tcp")
        addresses = [PeerAddress("127.0.0.1", 0) for _ in range(4)]
        nodes = [
            RitasNode(config, pid, addresses, dealer.keystore_for(pid))
            for pid in range(4)
        ]
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
            return snapshot_records(registries, meta={"runtime": "tcp"})
        finally:
            for node in nodes:
                await node.close()

    return asyncio.run(scenario())


class TestTcpIntegration:
    def test_tcp_snapshot_has_latency_histograms(self, tmp_path):
        records = _run_tcp_scenario(tmp_path)
        latency = [
            r
            for r in records
            if r.get("name") == "ritas_instance_latency_seconds"
        ]
        assert latency
        assert {"rb", "ab"} <= {r["labels"]["protocol"] for r in latency}
        assert all(r["labels"]["runtime"] == "tcp" for r in latency)
        # Wall-clock latencies: positive and sane.
        assert all(0 < r["p50"] < 60 for r in latency)


class TestCli:
    def _write_snapshot(self, tmp_path):
        sim = _run_sim_burst()
        path = tmp_path / "snapshot.jsonl"
        with open(path, "w", encoding="utf-8") as out:
            write_jsonl(out, sim.metric_registries(), meta={"runtime": "sim"})
        return path

    def _cli(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "repro.obs", *args],
            capture_output=True,
            text=True,
        )

    def test_summary_renders_histograms(self, tmp_path):
        path = self._write_snapshot(tmp_path)
        result = self._cli("summary", str(path))
        assert result.returncode == 0, result.stderr
        assert "ritas_instance_latency_seconds" in result.stdout
        assert "p50" in result.stdout and "p99" in result.stdout
        assert "protocol=ab" in result.stdout

    def test_summary_from_tcp_snapshot(self, tmp_path):
        records = _run_tcp_scenario(tmp_path)
        path = tmp_path / "tcp.jsonl"
        with open(path, "w", encoding="utf-8") as out:
            for record in records:
                out.write(json.dumps(record) + "\n")
        result = self._cli(
            "summary", str(path), "--metric", "ritas_instance_latency_seconds"
        )
        assert result.returncode == 0, result.stderr
        assert "ritas_instance_latency_seconds" in result.stdout
        assert "runtime=tcp" in result.stdout

    def test_prom_rerender_matches_live_exposition(self, tmp_path):
        path = self._write_snapshot(tmp_path)
        result = self._cli("prom", str(path))
        assert result.returncode == 0, result.stderr
        assert "# TYPE ritas_instance_latency_seconds histogram" in result.stdout
        assert 'le="+Inf"' in result.stdout

    def test_demo_writes_loadable_snapshot(self, tmp_path):
        path = tmp_path / "demo.jsonl"
        result = self._cli("demo", "--out", str(path), "--k", "8")
        assert result.returncode == 0, result.stderr
        with open(path, encoding="utf-8") as handle:
            records = read_jsonl(handle)
        assert any(r.get("record") == "meta" for r in records)
        assert any(
            r.get("name") == "ritas_instance_latency_seconds" for r in records
        )
