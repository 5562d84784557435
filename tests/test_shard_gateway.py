"""The routing tier: key -> owning shard, wrong-shard/cross-shard errors."""

import asyncio

import pytest

from repro.core.config import GroupConfig
from repro.gateway.http import render
from repro.gateway.protocol import (
    STATUS_OK,
    STATUS_WRONG_SHARD,
    encode_request,
    decode_response,
    read_frame,
)
from repro.gateway.server import ClientGateway, attach_router
from repro.shard.ring import ShardMap
from repro.shard.router import CrossShardError, ShardRouter, WrongShardError
from repro.transport.tcp import PeerAddress, RitasNode
from tests.util import make_group_nodes, start_tcp_group

NAMES = ["s0", "s1"]


def keys_owned_by(shard_map, index, count=2, prefix="key"):
    """Probe keys until *count* owned by shard *index* are found."""
    found, i = [], 0
    while len(found) < count:
        key = f"{prefix}{i}"
        if shard_map.owner(key) == index:
            found.append(key)
        i += 1
    return found


# -- router unit tests (no I/O) -----------------------------------------------


class TestRouter:
    def test_route_to_hosted_shard(self):
        shard_map = ShardMap(NAMES)
        router = ShardRouter(shard_map, {0: "svc0", 1: "svc1"})
        key = keys_owned_by(shard_map, 1, count=1)[0]
        index, services = router.route(key)
        assert index == 1 and services == "svc1"
        assert router.wrong_shard_total == 0

    def test_wrong_shard_error_carries_owner_hint(self):
        shard_map = ShardMap(NAMES)
        router = ShardRouter(shard_map, {0: "svc0"})  # shard 1 not hosted
        key = keys_owned_by(shard_map, 1, count=1)[0]
        with pytest.raises(WrongShardError) as excinfo:
            router.route(key)
        err = excinfo.value
        assert err.key == key
        assert err.owner_index == 1
        assert err.owner_name == "s1"
        assert router.wrong_shard_total == 1

    def test_cross_shard_error_lists_every_owner(self):
        shard_map = ShardMap(NAMES)
        router = ShardRouter(shard_map, {0: "svc0", 1: "svc1"})
        spanning = keys_owned_by(shard_map, 0, count=1) + keys_owned_by(
            shard_map, 1, count=1
        )
        with pytest.raises(CrossShardError) as excinfo:
            router.route_many(spanning)
        err = excinfo.value
        assert {name for _, name in err.owners} == {"s0", "s1"}
        assert (err.owner_index, err.owner_name) in err.owners
        assert router.cross_shard_total == 1
        # A CrossShardError is a WrongShardError: one handler suffices.
        assert isinstance(err, WrongShardError)

    def test_route_many_same_shard_is_fine(self):
        shard_map = ShardMap(NAMES)
        router = ShardRouter(shard_map, {0: "svc0", 1: "svc1"})
        same = keys_owned_by(shard_map, 0, count=3)
        index, services = router.route_many(same)
        assert index == 0 and services == "svc0"
        assert router.cross_shard_total == 0

    def test_single_wrapper_hosts_everything(self):
        router = ShardRouter.single("svc")
        assert router.is_single
        for i in range(50):
            index, services = router.route(f"k{i}")
            assert index == 0 and services == "svc"

    def test_out_of_range_hosted_index_rejected(self):
        with pytest.raises(ValueError):
            ShardRouter(ShardMap(NAMES), {5: "svc"})


# -- live scaffolding ---------------------------------------------------------


async def start_sharded_gateway_group(hosted=None):
    """Two groups of 4 nodes; every process runs one node per group and
    attaches the services of both (the RSMs apply group-wide); one
    gateway on process 0 fronts *hosted* shards (default: both)."""
    shard_map = ShardMap(NAMES)
    groups = [
        make_group_nodes(GroupConfig(4, group_tag=name), seed=37) for name in NAMES
    ]
    for group in groups:
        await start_tcp_group(group)
    processes = [list(nodes) for nodes in zip(*groups)]
    routers = [
        attach_router(nodes, shard_map, hosted=None if pid else hosted)
        for pid, nodes in enumerate(processes)
    ]
    gateway = ClientGateway(processes[0][0], routers[0])
    port = await gateway.listen()
    return processes, routers, gateway, port


async def close_all(gateway, nodes):
    await gateway.close()
    for node in nodes:
        await node.close()


class Client:
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


# -- end-to-end ----------------------------------------------------------------


class TestShardedGatewayE2E:
    def test_ops_route_to_owning_shard(self):
        """One gateway fronting both shards: writes land on the owning
        shard's RSM (and only there), ordered reads see them."""

        async def scenario():
            processes, routers, gateway, port = await start_sharded_gateway_group()
            shard_map = routers[0].map
            try:
                client = await Client.connect(port)
                try:
                    k0 = keys_owned_by(shard_map, 0, count=1)[0]
                    k1 = keys_owned_by(shard_map, 1, count=1)[0]
                    for key, value in ((k0, b"zero"), (k1, b"one")):
                        status, detail = await client.request("put", [key, value])
                        assert status == STATUS_OK
                        assert detail[2] is True
                        status, detail = await client.request("get", [key])
                        assert status == STATUS_OK
                        assert detail[2] == value
                    # The owning shard's store has the key; the other
                    # shard's store never saw it.
                    assert routers[0].services[0].kv.get(k0) == b"zero"
                    assert routers[0].services[1].kv.get(k0) is None
                    assert routers[0].services[1].kv.get(k1) == b"one"
                    assert routers[0].services[0].kv.get(k1) is None
                finally:
                    await client.close()
            finally:
                await close_all(gateway, sum(processes, []))

        asyncio.run(scenario())

    def test_unhosted_shard_answers_wrong_shard_with_owner_hint(self):
        """A gateway fronting only shard 0 refuses shard-1 keys with the
        structured redirect -- forbid-and-measure, not a dead end."""

        async def scenario():
            processes, routers, gateway, port = await start_sharded_gateway_group(
                hosted=[0]
            )
            shard_map = routers[0].map
            try:
                client = await Client.connect(port)
                try:
                    k1 = keys_owned_by(shard_map, 1, count=1)[0]
                    status, detail = await client.request("put", [k1, b"x"])
                    assert status == STATUS_WRONG_SHARD
                    owner_index, owner_name, message = detail
                    assert owner_index == 1
                    assert owner_name == "s1"
                    assert k1 in message
                    # Measured: router and gateway counters both moved.
                    assert routers[0].wrong_shard_total == 1
                    assert gateway.ops_wrong_shard == 1
                    assert gateway.status()["shards"]["ops_wrong_shard"] == 1
                    # A hosted key still works on the same connection.
                    k0 = keys_owned_by(shard_map, 0, count=1)[0]
                    status, _ = await client.request("put", [k0, b"y"])
                    assert status == STATUS_OK
                finally:
                    await client.close()
            finally:
                await close_all(gateway, sum(processes, []))

        asyncio.run(scenario())

    def test_mput_single_shard_ok_cross_shard_forbidden(self):
        async def scenario():
            processes, routers, gateway, port = await start_sharded_gateway_group()
            shard_map = routers[0].map
            try:
                client = await Client.connect(port)
                try:
                    same = keys_owned_by(shard_map, 0, count=2)
                    status, detail = await client.request(
                        "mput", [[[same[0], b"a"], [same[1], b"b"]]]
                    )
                    assert status == STATUS_OK
                    assert detail[2] == 2  # pairs applied atomically
                    assert routers[0].services[0].kv.get(same[0]) == b"a"
                    assert routers[0].services[0].kv.get(same[1]) == b"b"

                    spanning = keys_owned_by(shard_map, 0, count=1) + keys_owned_by(
                        shard_map, 1, count=1, prefix="other"
                    )
                    status, detail = await client.request(
                        "mput", [[[k, b"v"] for k in spanning]]
                    )
                    assert status == STATUS_WRONG_SHARD
                    owner_index, owner_name, message = detail
                    assert owner_name in NAMES
                    assert "cross-shard" in message
                    assert routers[0].cross_shard_total == 1
                    # Forbidden means NOT applied -- on either shard.
                    for services in routers[0].services.values():
                        assert services.kv.get(spanning[0]) != b"v"
                        assert services.kv.get(spanning[1]) != b"v"
                finally:
                    await client.close()
            finally:
                await close_all(gateway, sum(processes, []))

        asyncio.run(scenario())

    def test_status_reports_shard_block(self):
        async def scenario():
            processes, routers, gateway, port = await start_sharded_gateway_group()
            try:
                status = gateway.status()
                shards = status["shards"]
                assert shards["names"] == list(NAMES)
                assert shards["hosted"] == list(NAMES)
                for name in NAMES:
                    assert set(shards["admission"][name]) == {"pending", "cap"}
            finally:
                await close_all(gateway, sum(processes, []))

        asyncio.run(scenario())

    def test_pipelined_first_puts_on_two_shards_do_not_collide(self):
        """Each shard's kv store is its own AB instance whose rbid
        counter starts at 0: the *first* put on each shard, pipelined
        into one wakeup, carry equal (sender, rbid) msg_ids.  The
        pending table must keep them apart (keyed by shard too) so each
        request settles with its own result."""

        async def scenario():
            processes, routers, gateway, port = await start_sharded_gateway_group()
            shard_map = routers[0].map
            k0 = keys_owned_by(shard_map, 0, count=1)[0]
            k1 = keys_owned_by(shard_map, 1, count=1)[0]
            try:
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                writer.write(
                    encode_request(0, "put", [k0, b"zero"])
                    + encode_request(1, "put", [k1, b"one"])
                )
                await writer.drain()
                got = {}
                for _ in range(2):
                    body = await asyncio.wait_for(read_frame(reader), 60.0)
                    request_id, status, detail = decode_response(body)
                    assert status == STATUS_OK
                    got[request_id] = detail
                # Both answered, each with its own apply result, despite
                # the equal msg_ids.
                assert got == {0: [0, 0, True], 1: [0, 0, True]}
                assert gateway.ops_timeout == 0
                assert gateway.inflight_ops == 0
                assert routers[0].services[0].kv.get(k0) == b"zero"
                assert routers[0].services[1].kv.get(k1) == b"one"
                writer.close()
            finally:
                await close_all(gateway, sum(processes, []))

        asyncio.run(scenario())

    def test_metrics_carries_every_hosted_groups_series(self):
        """/metrics on a two-group gateway exports both groups'
        ``ritas_*`` series, each under its group label, and the
        ``gateway_*`` family once."""

        async def scenario():
            processes, routers, gateway, port = await start_sharded_gateway_group()
            shard_map = routers[0].map
            for node in processes[0]:
                node.enable_metrics()
            try:
                client = await Client.connect(port)
                try:
                    for index in range(2):
                        key = keys_owned_by(shard_map, index, count=1)[0]
                        status, _ = await client.request("put", [key, b"v"])
                        assert status == STATUS_OK
                finally:
                    await client.close()
                text = render(gateway, "/metrics").decode()
                series = [line for line in text.splitlines() if not line.startswith("#")]
                for name in NAMES:
                    assert any(
                        line.startswith("ritas_") and f'group="{name}"' in line
                        for line in series
                    ), name
                ops = [line for line in series if line.startswith("gateway_ops_total")]
                assert len(ops) == 1
                assert text.count("# TYPE gateway_ops_total ") == 1
            finally:
                await close_all(gateway, sum(processes, []))

        asyncio.run(scenario())


class TestUnshardedBackCompat:
    def test_plain_services_never_answer_wrong_shard(self):
        """The unsharded gateway (plain GatewayServices) wraps into a
        single-shard router: every key is hosted, no redirect exists."""
        from repro.gateway.server import GatewayServices

        async def scenario():
            config = GroupConfig(4)
            from repro.crypto.keys import TrustedDealer

            dealer = TrustedDealer(4, seed=b"backcompat-tests")
            blank = [PeerAddress("127.0.0.1", 0) for _ in range(4)]
            nodes = [
                RitasNode(config, pid, blank, dealer.keystore_for(pid), seed=5)
                for pid in range(4)
            ]
            await start_tcp_group(nodes)
            services = [GatewayServices.attach(node) for node in nodes]
            gateway = ClientGateway(nodes[0], services[0])
            port = await gateway.listen()
            try:
                client = await Client.connect(port)
                try:
                    for i in range(6):
                        status, _ = await client.request("put", [f"k{i}", b"v"])
                        assert status == STATUS_OK
                    assert gateway.ops_wrong_shard == 0
                    assert "shards" not in gateway.status()
                finally:
                    await client.close()
            finally:
                await close_all(gateway, nodes)

        asyncio.run(scenario())
