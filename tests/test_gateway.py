"""The client gateway: protocol, end-to-end sessions, admission, loadgen."""

import asyncio
import json
import struct
import time

import pytest

import repro.core.wire as wire
from repro.core.config import GroupConfig
from repro.crypto.keys import TrustedDealer
from repro.gateway.http import render
from repro.gateway.loadgen import LoadProfile, build_schedule, run_load
from repro.gateway.protocol import (
    STATUS_ERROR,
    STATUS_OK,
    STATUS_RETRY,
    UNCORRELATED_ID,
    ClientProtocolError,
    FrameReader,
    decode_request,
    decode_response,
    encode_client_frame,
    encode_request,
    encode_response,
    read_frame,
)
from repro.gateway import server
from repro.gateway.server import (
    RETRY_AFTER_MS,
    SERVICE_PATH_KV,
    ClientGateway,
    GatewayServices,
)
from repro.transport.tcp import PeerAddress, RitasNode

pytestmark = pytest.mark.filterwarnings(
    "error::ResourceWarning", "error::pytest.PytestUnraisableExceptionWarning"
)


# -- protocol unit tests (no I/O) ---------------------------------------------


class TestProtocol:
    def test_request_roundtrip(self):
        frame = encode_request(7, "put", ["k", b"v"])
        reader = FrameReader()
        bodies = reader.feed(frame)
        assert len(bodies) == 1
        assert decode_request(bodies[0]) == (7, "put", ["k", b"v"])

    def test_response_roundtrip(self):
        frame = encode_response(3, STATUS_OK, [0, 5, True])
        (body,) = FrameReader().feed(frame)
        assert decode_response(body) == (3, STATUS_OK, [0, 5, True])

    def test_feed_reassembles_split_and_pipelined_frames(self):
        stream = b"".join(encode_request(i, "get", [f"k{i}"]) for i in range(5))
        reader = FrameReader()
        collected = []
        # Feed in 3-byte slivers: every split point must reassemble.
        for offset in range(0, len(stream), 3):
            collected.extend(reader.feed(stream[offset : offset + 3]))
        assert [decode_request(b)[0] for b in collected] == [0, 1, 2, 3, 4]

    def test_unknown_op_and_bad_arity_rejected(self):
        for op in ("explode", "mput"):
            with pytest.raises(ClientProtocolError, match=f"unknown op '{op}'"):
                decode_request(wire.encode_value([1, op, []]))
        with pytest.raises(ClientProtocolError, match="args"):
            decode_request(wire.encode_value([1, "put", ["only-key"]]))

    def test_bad_shape_rejected(self):
        with pytest.raises(ClientProtocolError, match="request must be"):
            decode_request(wire.encode_value("not-a-request"))
        with pytest.raises(ClientProtocolError, match="undecodable"):
            decode_request(b"\xff\xff\xff")

    def test_request_id_recovered_when_possible(self):
        """Decode errors carry the originating request id whenever the
        leading int parses, so the server's error response correlates."""
        cases = {
            wire.encode_value([7, "explode", []]): 7,  # unknown op
            wire.encode_value([8, "put", ["only-key"]]): 8,  # bad arity
            wire.encode_value([9, 42, []]): 9,  # bad shape, int leader
            wire.encode_value("not-a-request"): None,  # no leader at all
            b"\xff\xff\xff": None,  # undecodable
        }
        for body, expected in cases.items():
            with pytest.raises(ClientProtocolError) as excinfo:
                decode_request(body)
            assert excinfo.value.request_id == expected

    def test_negative_or_bool_request_id_refused_uncorrelated(self):
        """Negative ids are reserved (UNCORRELATED_ID is -1) and a bool
        is no id: both are refused, and answered uncorrelated."""
        for request_id in (UNCORRELATED_ID, -7, True, False):
            with pytest.raises(ClientProtocolError, match="request must be") as excinfo:
                decode_request(wire.encode_value([request_id, "ping", []]))
            assert excinfo.value.request_id is None

    def test_oversized_frame_rejected(self):
        reader = FrameReader()
        with pytest.raises(ClientProtocolError, match="implausible"):
            reader.feed(struct.pack(">I", 1 << 30))


# -- live-group scaffolding ----------------------------------------------------


async def start_gateway_group(
    n=4, *, config=None, local_reads=False, **gateway_kwargs
):
    """An n-replica TCP group with the services on every replica and one
    gateway riding on replica 0 (the same staged ephemeral-port startup
    as tests/test_transport.py)."""
    config = config if config is not None else GroupConfig(n)
    dealer = TrustedDealer(config.n, seed=b"gateway-tests")
    blank = [PeerAddress("127.0.0.1", 0) for _ in range(config.n)]
    nodes = [
        RitasNode(config, pid, blank, dealer.keystore_for(pid), seed=11)
        for pid in range(config.n)
    ]
    for node in nodes:
        await node.listen()
    addresses = [PeerAddress("127.0.0.1", node.bound_port) for node in nodes]
    for node in nodes:
        node.set_peer_addresses(addresses)
    for node in nodes:
        await node.connect()
    services = [GatewayServices.attach(node) for node in nodes]
    nodes[0].enable_metrics()
    gateway = ClientGateway(
        nodes[0], services[0], local_reads=local_reads, **gateway_kwargs
    )
    port = await gateway.listen()
    return nodes, services, gateway, port


async def close_all(gateway, nodes):
    await gateway.close()
    for node in nodes:
        await node.close()


class Client:
    """A minimal blocking-per-request test client (one op in flight)."""

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer
        self._next_id = 0

    @classmethod
    async def connect(cls, port):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        return cls(reader, writer)

    async def request(self, op, args, timeout=30.0):
        request_id = self._next_id
        self._next_id += 1
        self.writer.write(encode_request(request_id, op, args))
        await self.writer.drain()
        body = await asyncio.wait_for(read_frame(self.reader), timeout)
        got_id, status, detail = decode_response(body)
        assert got_id == request_id
        return status, detail

    async def close(self):
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def converged(nodes, timeout=30.0):
    """Wait until every replica's KV log has the same delivered count."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while True:
        counts = [
            node.stack.instance_at(SERVICE_PATH_KV).delivered_count for node in nodes
        ]
        if len(set(counts)) == 1:
            return
        if loop.time() > deadline:
            raise AssertionError(f"replicas did not converge: {counts}")
        await asyncio.sleep(0.05)


# -- end-to-end ----------------------------------------------------------------


class TestGatewayE2E:
    def test_sessions_mixed_ops_consistent(self):
        """Concurrent sessions of mixed ops: every session observes its
        own writes through ordered reads, and all replicas converge."""

        async def scenario():
            nodes, services, gateway, port = await start_gateway_group()
            n_sessions = 12
            try:
                async def session(index):
                    client = await Client.connect(port)
                    try:
                        key = f"user{index}"
                        status, detail = await client.request(
                            "put", [key, b"v1-%d" % index]
                        )
                        assert status == STATUS_OK
                        sender, rbid, result = detail
                        assert sender == 0 and isinstance(rbid, int)
                        assert result is True
                        # An ordered read after the acked write sees it.
                        status, detail = await client.request("get", [key])
                        assert status == STATUS_OK
                        assert detail[2] == b"v1-%d" % index
                        # CAS from the read value wins; a stale CAS loses.
                        status, detail = await client.request(
                            "cas", [key, b"v1-%d" % index, b"v2"]
                        )
                        assert status == STATUS_OK and detail[2] is True
                        status, detail = await client.request(
                            "cas", [key, b"bogus", b"v3"]
                        )
                        assert status == STATUS_OK and detail[2] is False
                        status, detail = await client.request("ping", [])
                        assert status == STATUS_OK and detail[2] == "pong"
                    finally:
                        await client.close()

                await asyncio.wait_for(
                    asyncio.gather(*(session(i) for i in range(n_sessions))),
                    timeout=120,
                )
                await converged(nodes)
                digests = {s.kv.state_digest() for s in services}
                assert len(digests) == 1
                for index in range(n_sessions):
                    assert services[3].kv.get(f"user{index}") == b"v2"
                assert gateway.ops_ok == n_sessions * 5
                assert gateway.sessions_total == n_sessions
                assert gateway.sessions_open == 0
            finally:
                await close_all(gateway, nodes)

        asyncio.run(scenario())

    def test_pipelined_requests_one_connection(self):
        """Many requests written before any response is read; acked ids
        are unique (no duplicated acknowledgements)."""

        async def scenario():
            nodes, _services, gateway, port = await start_gateway_group()
            try:
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                k = 16
                for i in range(k):
                    writer.write(encode_request(i, "put", [f"p{i}", b"x%d" % i]))
                await writer.drain()
                got = {}
                for _ in range(k):
                    body = await asyncio.wait_for(read_frame(reader), 60.0)
                    request_id, status, detail = decode_response(body)
                    assert status == STATUS_OK
                    got[request_id] = detail
                assert sorted(got) == list(range(k))
                acked = [(d[0], d[1]) for d in got.values()]
                assert len(set(acked)) == k
                writer.close()
            finally:
                await close_all(gateway, nodes)

        asyncio.run(scenario())

    def test_backpressure_maps_to_retry_after(self):
        """A tiny ab_pending_cap turns a pipelined flood into retry-after
        responses carrying the admission context."""

        async def scenario():
            config = GroupConfig(4, ab_pending_cap=2)
            nodes, _services, gateway, port = await start_gateway_group(config=config)
            try:
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                k = 24
                for i in range(k):
                    writer.write(encode_request(i, "put", [f"flood{i}", b"v"]))
                await writer.drain()
                statuses = []
                retry_details = []
                for _ in range(k):
                    body = await asyncio.wait_for(read_frame(reader), 60.0)
                    _, status, detail = decode_response(body)
                    statuses.append(status)
                    if status == STATUS_RETRY:
                        retry_details.append(detail)
                assert statuses.count(STATUS_OK) >= 1
                assert retry_details, "cap=2 must refuse part of a 24-deep flood"
                for pending, cap, retry_ms in retry_details:
                    assert cap == 2
                    assert pending >= cap
                    assert retry_ms == RETRY_AFTER_MS
                assert gateway.ops_retry_after == len(retry_details)
                writer.close()
            finally:
                await close_all(gateway, nodes)

        asyncio.run(scenario())

    def test_stuck_op_times_out_and_late_apply_stays_silent(self, monkeypatch):
        """An ordered op that cannot be applied within OP_TIMEOUT_S is
        answered ``error "timeout"`` by the sweep and leaves the pending
        table; when the partition heals and it applies after all, the
        session gets no second response for it."""
        monkeypatch.setattr(server, "OP_TIMEOUT_S", 0.2)
        monkeypatch.setattr(server, "SWEEP_INTERVAL_S", 0.05)

        async def scenario():
            nodes, services, gateway, port = await start_gateway_group()
            try:
                for pid in (1, 2, 3):
                    nodes[0].set_link_blocked(pid, True)
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                writer.write(encode_request(0, "put", ["stuck", b"late"]))
                await writer.drain()
                body = await asyncio.wait_for(read_frame(reader), 10.0)
                assert decode_response(body) == (0, STATUS_ERROR, "timeout")
                assert gateway.ops_timeout == 1
                assert gateway.inflight_ops == 0

                for pid in (1, 2, 3):
                    nodes[0].set_link_blocked(pid, False)
                for _ in range(500):
                    if all(s.kv.get("stuck") == b"late" for s in services):
                        break
                    await asyncio.sleep(0.02)
                assert all(s.kv.get("stuck") == b"late" for s in services)
                # Responses leave a session in order: had the late apply
                # answered request 0 again, it would precede this pong.
                writer.write(encode_request(1, "ping", []))
                await writer.drain()
                body = await asyncio.wait_for(read_frame(reader), 10.0)
                assert decode_response(body) == (1, STATUS_OK, [None, None, "pong"])
                assert gateway.ops_timeout == 1
                writer.close()
            finally:
                await close_all(gateway, nodes)

        asyncio.run(scenario())

    def test_slow_reader_is_dropped_others_keep_going(self, monkeypatch):
        """A client that pipelines past SESSION_SEND_QUEUE responses
        without reading is disconnected; another session is unaffected."""
        monkeypatch.setattr(server, "SESSION_SEND_QUEUE", 4)

        async def scenario():
            nodes, _services, gateway, port = await start_gateway_group()
            try:
                steady = await Client.connect(port)
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                # One write, one read wakeup at the gateway: every pong is
                # queued before the session writer can drain any.
                writer.write(b"".join(encode_request(i, "ping", []) for i in range(32)))
                await writer.drain()
                for _ in range(500):
                    if gateway.sessions_dropped:
                        break
                    await asyncio.sleep(0.01)
                assert gateway.sessions_dropped == 1
                assert gateway.sessions_open == 1
                with pytest.raises((asyncio.IncompleteReadError, ConnectionError)):
                    await asyncio.wait_for(read_frame(reader), 10.0)
                for _ in range(3):
                    assert (await steady.request("ping", []))[0] == STATUS_OK
                await steady.close()
                writer.close()
            finally:
                await close_all(gateway, nodes)

        asyncio.run(scenario())

    def test_local_reads_skip_ordering(self):
        async def scenario():
            nodes, services, gateway, port = await start_gateway_group(
                local_reads=True
            )
            try:
                client = await Client.connect(port)
                status, _ = await client.request("put", ["lr", b"value"])
                assert status == STATUS_OK
                # The write was acked, so this replica applied it: the
                # local read observes it without an ordering round.
                ordered_before = services[0].kv.rsm.ab.delivered_count
                status, detail = await client.request("get", ["lr"])
                assert status == STATUS_OK
                assert detail == [None, None, b"value"]
                assert services[0].kv.rsm.ab.delivered_count == ordered_before
                await client.close()
            finally:
                await close_all(gateway, nodes)

        asyncio.run(scenario())

    def test_malformed_requests_answered_not_fatal(self):
        async def scenario():
            nodes, _services, gateway, port = await start_gateway_group()
            try:
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                writer.write(encode_client_frame([1, "no-such-op", []]))
                writer.write(encode_client_frame([2, "put", ["k", "not-bytes"]]))
                writer.write(encode_client_frame("not-a-request"))
                # The gateway fronts the KV store only: lock ops are gone.
                writer.write(encode_request(3, "acquire", ["mutex", "t"]))
                await writer.drain()
                answered = {}
                for _ in range(4):
                    body = await asyncio.wait_for(read_frame(reader), 10.0)
                    request_id, status, detail = decode_response(body)
                    assert status == STATUS_ERROR
                    answered[request_id] = detail
                # Recoverable ids are echoed; the shapeless frame gets
                # the reserved UNCORRELATED_ID -- never a real client id
                # like 0, which a pipelining client could mis-settle.
                assert sorted(answered) == [UNCORRELATED_ID, 1, 2, 3]
                assert "unknown op" in answered[1]
                assert "unknown op" in answered[3]
                # The session survived the garbage; valid ops still work.
                writer.write(encode_request(4, "ping", []))
                await writer.drain()
                body = await asyncio.wait_for(read_frame(reader), 10.0)
                request_id, status, _ = decode_response(body)
                assert (request_id, status) == (4, STATUS_OK)
                writer.close()
            finally:
                await close_all(gateway, nodes)

        asyncio.run(scenario())

    def test_session_admission_cap(self):
        async def scenario():
            nodes, _services, gateway, port = await start_gateway_group(
                max_sessions=2
            )
            try:
                first = await Client.connect(port)
                second = await Client.connect(port)
                assert (await first.request("ping", []))[0] == STATUS_OK
                assert (await second.request("ping", []))[0] == STATUS_OK
                third = await Client.connect(port)
                # Refused at accept: the connection closes, no response.
                third.writer.write(encode_request(0, "ping", []))
                with pytest.raises((asyncio.IncompleteReadError, ConnectionError)):
                    await asyncio.wait_for(read_frame(third.reader), 10.0)
                assert gateway.sessions_open == 2
                await first.close()
                await second.close()
                await third.close()
            finally:
                await close_all(gateway, nodes)

        asyncio.run(scenario())


class TestStatusEndpoint:
    def test_http_status_and_metrics(self):
        async def scenario():
            nodes, _services, gateway, port = await start_gateway_group()
            try:
                http_port = await gateway.listen_http()
                client = await Client.connect(port)
                status, _ = await client.request("put", ["h", b"1"])
                assert status == STATUS_OK

                async def http_get(target):
                    reader, writer = await asyncio.open_connection(
                        "127.0.0.1", http_port
                    )
                    writer.write(f"GET {target} HTTP/1.0\r\n\r\n".encode())
                    await writer.drain()
                    raw = await reader.read(-1)
                    writer.close()
                    head, _, body = raw.partition(b"\r\n\r\n")
                    return head.split(b"\r\n")[0].decode(), body

                status_line, body = await http_get("/status")
                assert "200" in status_line
                snapshot = json.loads(body)
                assert snapshot["process"] == 0
                assert snapshot["group_size"] == 4
                assert snapshot["sessions_open"] == 1
                assert snapshot["ops_ok"] >= 1
                # Admission is the KV store's one pending/cap pair.
                assert snapshot["admission"]["pending"] >= 0
                assert snapshot["admission"]["cap"] == 0  # unbounded here
                status_line, body = await http_get("/metrics")
                assert "200" in status_line
                text = body.decode()
                assert "# TYPE gateway_sessions_open gauge" in text
                assert "gateway_ops_total" in text
                status_line, body = await http_get("/healthz")
                assert "200" in status_line and body == b"ok\n"
                status_line, _ = await http_get("/nope")
                assert "404" in status_line
                await client.close()
            finally:
                await close_all(gateway, nodes)

        asyncio.run(scenario())

    def test_render_rejects_non_get(self):
        class _FakeGateway:
            pass

        assert b"405" in render(_FakeGateway(), "/metrics", method="POST")


class TestShutdown:
    def test_clean_shutdown_no_lingering_tasks(self):
        """Closing the gateway and nodes leaves no pending asyncio task:
        the 'task was destroyed but it is pending' regression guard."""

        async def scenario():
            nodes, _services, gateway, port = await start_gateway_group()
            client = await Client.connect(port)
            status, _ = await client.request("put", ["s", b"1"])
            assert status == STATUS_OK
            # Close underneath the still-open client session.
            await close_all(gateway, nodes)
            await client.close()
            await asyncio.sleep(0)
            current = asyncio.current_task()
            lingering = [
                t for t in asyncio.all_tasks() if t is not current and not t.done()
            ]
            assert lingering == []

        asyncio.run(scenario())

    def test_gateway_close_is_idempotent(self):
        async def scenario():
            nodes, _services, gateway, _port = await start_gateway_group()
            await gateway.close()
            await gateway.close()
            for node in nodes:
                await node.close()

        asyncio.run(scenario())


# -- load generator ------------------------------------------------------------


class TestLoadgen:
    def test_schedule_deterministic(self):
        """Same seed -> the identical schedule, bit for bit."""
        profile = LoadProfile(sessions=8, rate=1000.0, ops=300, seed=42)
        first = build_schedule(profile)
        second = build_schedule(profile)
        assert first == second
        assert len(first) == 300
        # Arrival instants are strictly increasing (a Poisson process).
        assert all(b.at > a.at for a, b in zip(first, first[1:]))
        assert {op.session for op in first} <= set(range(8))

    def test_schedule_seed_sensitivity(self):
        base = LoadProfile(sessions=8, rate=1000.0, ops=300, seed=42)
        other = build_schedule(LoadProfile(sessions=8, rate=1000.0, ops=300, seed=43))
        assert build_schedule(base) != other

    def test_zipf_skews_toward_low_ranks(self):
        skewed = build_schedule(
            LoadProfile(ops=2000, key_space=100, zipf_s=1.2, seed=7)
        )
        counts = {}
        for op in skewed:
            counts[op.key] = counts.get(op.key, 0) + 1
        hot = sum(counts.get(f"k{r:02d}", 0) for r in range(10))
        # Under Zipf(1.2) the top 10% of ranks draws far more than 10%.
        assert hot / len(skewed) > 0.3

    def test_read_write_mix(self):
        reads_only = build_schedule(LoadProfile(ops=200, read_fraction=1.0, seed=3))
        writes_only = build_schedule(LoadProfile(ops=200, read_fraction=0.0, seed=3))
        assert all(op.op == "get" for op in reads_only)
        assert all(op.op == "put" and op.value is not None for op in writes_only)
        assert all(len(op.value) == 32 for op in writes_only)

    def test_run_load_audits_acked_writes(self):
        """Small open-loop runs, the second at 50 concurrent sessions:
        every acknowledged op's AB id appears exactly once in the
        replicated log (zero lost, zero duplicated acknowledged writes)."""

        async def scenario():
            nodes, services, gateway, port = await start_gateway_group()
            try:
                for profile in (
                    LoadProfile(sessions=10, rate=200.0, ops=60, read_fraction=0.4, seed=5),
                    LoadProfile(sessions=50, rate=400.0, ops=200, read_fraction=0.5, seed=9),
                ):
                    report = await asyncio.wait_for(
                        run_load("127.0.0.1", port, profile, drain_timeout_s=60.0),
                        timeout=120,
                    )
                    assert report.sent == profile.ops
                    assert report.timeouts == 0
                    assert report.errors == 0
                    assert report.ok + report.retry_after == profile.ops
                    assert report.latency_p50_s > 0
                    assert (
                        report.latency_p99_s
                        >= report.latency_p95_s
                        >= report.latency_p50_s
                    )
                    # The audit: acked ids vs the replica's applied log.
                    applied_ids = [
                        delivery.msg_id for delivery, _ in services[0].kv.rsm.applied
                    ]
                    assert len(set(applied_ids)) == len(applied_ids)
                    for acked in report.acked_ids:
                        assert applied_ids.count(tuple(acked)) == 1
                    assert len(set(report.acked_ids)) == len(report.acked_ids)
            finally:
                await close_all(gateway, nodes)

        asyncio.run(scenario())

    def test_latency_is_timed_from_the_due_instant(self):
        """A stalled loop must not hide its own stall: the server here
        blocks the (shared) event loop on the first request it sees, so
        the ops due during the block are written late -- and their
        latencies still count from when they were due."""
        stall_s = 0.4

        async def scenario():
            stalled = False

            async def serve(reader, writer):
                nonlocal stalled
                try:
                    while True:
                        request_id, _, _ = decode_request(await read_frame(reader))
                        if not stalled:
                            stalled = True
                            time.sleep(stall_s)  # blocks loadgen and server alike
                        writer.write(encode_response(request_id, STATUS_OK, None))
                except (asyncio.IncompleteReadError, ConnectionError):
                    pass
                finally:
                    writer.close()

            server = await asyncio.start_server(serve, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                # 40 ops due within ~0.1 s: nearly all fall inside the stall.
                profile = LoadProfile(sessions=2, rate=400.0, ops=40, seed=9)
                report = await asyncio.wait_for(
                    run_load("127.0.0.1", port, profile), timeout=60
                )
            finally:
                server.close()
                await server.wait_closed()
            assert report.ok == 40
            assert report.latency_p50_s >= stall_s / 2

        asyncio.run(scenario())
