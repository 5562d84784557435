"""Co-hosted groups behind gateways of their own: one gateway per group."""

import asyncio

from repro.core.config import GroupConfig
from repro.gateway.protocol import (
    STATUS_OK,
    decode_response,
    encode_request,
    read_frame,
)
from repro.gateway.server import ClientGateway, GatewayServices
from tests.util import make_group_nodes, start_tcp_group

SEEDS = [37, 38]


async def start_cohosted_gateways():
    """Two groups of 4 nodes, dealt from different seeds; every process
    runs one node per group, every node attaches its group's services
    (the RSMs apply group-wide), and process 0 runs one gateway per
    group."""
    groups = [make_group_nodes(GroupConfig(4), seed=seed) for seed in SEEDS]
    for group in groups:
        await start_tcp_group(group)
    services = [[GatewayServices.attach(node) for node in nodes] for nodes in groups]
    gateways = [
        ClientGateway(nodes[0], group_services[0])
        for nodes, group_services in zip(groups, services)
    ]
    ports = [await gateway.listen() for gateway in gateways]
    return groups, services, gateways, ports


async def request(port, op, args):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(encode_request(0, op, args))
        await writer.drain()
        body = await asyncio.wait_for(read_frame(reader), 30.0)
        request_id, status, detail = decode_response(body)
        assert request_id == 0
        return status, detail
    finally:
        writer.close()
        await writer.wait_closed()


class TestShardedGatewayE2E:
    def test_ops_route_to_owning_shard(self):
        """Each group's gateway writes to its own group's store, and only
        there; ordered reads see the write.  Both first puts carry the
        msg_id (0, 0) -- in two groups, settled by two gateways."""

        async def scenario():
            groups, services, gateways, ports = await start_cohosted_gateways()
            try:
                for port, key, value in zip(ports, ("k0", "k1"), (b"zero", b"one")):
                    status, detail = await request(port, "put", [key, value])
                    assert (status, detail) == (STATUS_OK, [0, 0, True])
                    status, detail = await request(port, "get", [key])
                    assert status == STATUS_OK
                    assert detail[2] == value
                assert services[0][0].kv.get("k0") == b"zero"
                assert services[1][0].kv.get("k0") is None
                assert services[1][0].kv.get("k1") == b"one"
                assert services[0][0].kv.get("k1") is None
                for gateway in gateways:
                    assert gateway.ops_ok == 2
                    assert gateway.inflight_ops == 0
            finally:
                for gateway in gateways:
                    await gateway.close()
                for nodes in groups:
                    for node in nodes:
                        await node.close()

        asyncio.run(scenario())
