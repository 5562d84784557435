"""Offline timings of the product's public codec functions.

These run after a traced round, over channel units captured at
``stack.receive`` and over the requests the schedule generated, so the
inputs are the ones the workload really produced.  Each number is
microseconds per call; the ledger multiplies them by calls per op.
"""

from __future__ import annotations

import statistics
import time
from typing import Any, Callable, Sequence

from repro.apps.state_machine import Command
from repro.core.wire import (
    decode_batch_views,
    decode_frame_ex,
    encode_frame,
    fastpath_memo_clear,
    frame_fastpath,
    is_batch,
)
from repro.crypto.hashing import hash_bytes
from repro.crypto.mac import mac_vector
from repro.gateway.protocol import decode_request, decode_response, encode_response
from repro.transport.framing import FrameCodec

#: Distinct frames timed per pass; below the fast path's memo capacity
#: (1024) so the warm pass really is all hits.
_FRAMES = 512
_PASSES = 5


def _us_per_call(fn: Callable[[], int]) -> float:
    """Median over passes of wall time per call, in microseconds; *fn*
    does one pass and returns how many calls it made."""
    costs = []
    for _ in range(_PASSES):
        started = time.perf_counter()
        calls = fn()
        costs.append((time.perf_counter() - started) / max(calls, 1))
    return statistics.median(costs) * 1e6


def _flatten(unit, depth: int = 0) -> list[bytes]:
    if is_batch(unit) and depth < 4:
        frames: list[bytes] = []
        for member in decode_batch_views(unit):
            frames.extend(_flatten(member, depth + 1))
        return frames
    return [bytes(unit)]


def time_codecs(units: Sequence[bytes], keystore) -> dict[str, float]:
    """``wire.*``, ``framing.*`` and ``crypto.*`` costs over *units*."""
    if not units:
        return {}
    batches = [unit for unit in units if is_batch(unit)][:_FRAMES]
    frames = list(dict.fromkeys(f for unit in units for f in _flatten(unit)))[:_FRAMES]
    decoded = [decode_frame_ex(frame)[:3] for frame in frames]
    link_units = list(units[:_FRAMES])

    def fastpath_pass() -> int:
        for frame in frames:
            frame_fastpath(frame)
        return len(frames)

    def cold_pass() -> int:
        fastpath_memo_clear()
        return fastpath_pass()

    def decode_pass() -> int:
        for frame in frames:
            decode_frame_ex(frame)
        return len(frames)

    def encode_pass() -> int:
        for path, mtype, payload in decoded:
            encode_frame(path, mtype, payload)
        return len(decoded)

    def split_pass() -> int:
        for batch in batches:
            decode_batch_views(batch)
        return len(batches)

    key = keystore.key_for(1)

    def framing_encode_pass() -> int:
        codec = FrameCodec(key, 0)
        for unit in link_units:
            codec.encode(unit)
        return len(link_units)

    sender = FrameCodec(key, 0)
    framed = [sender.encode(unit)[4:] for unit in link_units]

    def framing_decode_pass() -> int:
        codec = FrameCodec(key, 0)
        for body in framed:
            codec.decode(body)
        return len(framed)

    message = bytes(100)
    kib = bytes(1024)

    def mac_vector_pass() -> int:
        for _ in range(200):
            mac_vector(message, keystore)
        return 200

    def digest_pass() -> int:
        for _ in range(200):
            hash_bytes(kib)
        return 200

    return {
        "wire.fastpath_cold_us": _us_per_call(cold_pass),
        "wire.fastpath_warm_us": _us_per_call(fastpath_pass),
        "wire.decode_ex_us": _us_per_call(decode_pass),
        "wire.encode_us": _us_per_call(encode_pass),
        "wire.batch_split_us": _us_per_call(split_pass) if batches else 0.0,
        "framing.encode_us": _us_per_call(framing_encode_pass),
        "framing.decode_us": _us_per_call(framing_decode_pass),
        "crypto.mac_vector_us": _us_per_call(mac_vector_pass),
        "crypto.digest_us_per_kib": _us_per_call(digest_pass),
    }


def time_client_codecs(
    requests: Sequence[bytes], responses: Sequence[bytes], commands: Sequence[Command]
) -> dict[str, float]:
    """``gateway.*`` and ``apps.*`` codec costs over the generated
    requests (length prefix stripped), the responses they drew and the
    replicated commands they became."""
    requests = requests[:2000]
    decoded = [decode_response(body) for body in responses[:2000]]
    commands = commands[:2000]

    def decode_pass() -> int:
        for body in requests:
            decode_request(body)
        return len(requests)

    def encode_pass() -> int:
        for request_id, status, detail in decoded:
            encode_response(request_id, status, detail)
        return len(decoded)

    def command_pass() -> int:
        for command in commands:
            Command.decode(command.encode())
        return len(commands)

    return {
        "gateway.decode_request_us": _us_per_call(decode_pass) if requests else 0.0,
        "gateway.encode_response_us": _us_per_call(encode_pass) if decoded else 0.0,
        "apps.command_codec_us": _us_per_call(command_pass) if commands else 0.0,
    }


def sim_burst(count: int = 256, size: int = 100, seed: int = 2) -> dict[str, Any]:
    """One seeded ``LanSimulation(n=4)`` burst beside ``ab_burst_100b``.

    Model outputs: the counts repeat exactly for one seed and one
    version of the code; only ``wall_us_per_event`` is a measurement."""
    # Imported here: the cluster process imports this module too and
    # its start-up time is the measured ``setup_s``.
    from repro.net.network import LanSimulation

    sim = LanSimulation(n=4, seed=seed)
    delivered = 0

    def observe(_instance, _delivery) -> None:
        nonlocal delivered
        delivered += 1

    for pid in sim.config.process_ids:
        ab = sim.stacks[pid].create("ab", ("burst",))
        if pid == 0:
            ab.on_deliver = observe
    payload = bytes(size)
    started = time.perf_counter()
    for pid in sim.config.process_ids:
        stack = sim.stacks[pid]
        ab = stack.instance_at(("burst",))
        with stack.coalesce():
            for _ in range(count // 4):
                ab.broadcast(payload)
    reason = sim.run(until=lambda: delivered >= count, max_time=600.0)
    wall = time.perf_counter() - started
    if reason != "until":
        raise RuntimeError(f"sim burst stalled at {delivered}/{count} ({reason})")
    stats = [sim.stacks[pid].stats for pid in sim.config.process_ids]
    rounds = decisions = 0
    for stat in stats:
        for (protocol, count_rounds), times in stat.consensus_rounds.items():
            if protocol == "bc":
                rounds += count_rounds * times
                decisions += times
    events = sim.loop.events_processed
    return {
        "sim.frames_per_msg": sum(s.frames_sent for s in stats) / count,
        "sim.bytes_per_msg": sum(s.bytes_sent for s in stats) / count,
        "sim.events_per_msg": events / count,
        "sim.bc_rounds_mean": rounds / decisions if decisions else 0.0,
        "sim.wall_us_per_event": wall / events * 1e6,
    }
