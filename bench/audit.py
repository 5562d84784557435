"""The correctness audit behind ``safety_violations``.

Run after every round, once the cluster is quiescent, over plain data:
what the client saw (:class:`OpRecord`) and what the cluster process
dumped (each live replica's log and state digest).  Every function
returns human-readable violations, first offender first; an empty list
means the round's outputs are correct.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence


@dataclass
class OpRecord:
    """One scheduled client op and what came back."""

    index: int
    op: str  # "get" or "put"
    key: str
    value: bytes | None  # what a put wrote
    due: float = 0.0
    sent: float = 0.0
    acked: float = 0.0  # 0.0 = unanswered
    acks: int = 0
    status: str = ""
    msg_id: tuple[int, int] | None = None  # echoed (sender, rbid); None for a local read
    result: Any = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def latency_ms(self) -> float:
        """Due instant -> ack."""
        return (self.acked - self.due) * 1e3


def check_logs(logs: dict[str, list[list[int]]], digests: dict[str, str]) -> list[str]:
    """Live replicas' logs are prefixes of one another, hold no entry
    twice, and equally long logs come with equal state digests."""
    violations: list[str] = []
    if not logs:
        return ["no live replica dumped a log"]
    reference_pid = max(logs, key=lambda pid: len(logs[pid]))
    reference = logs[reference_pid]
    seen: set[tuple[int, int]] = set()
    for position, (sender, rbid, _crc) in enumerate(reference):
        if (sender, rbid) in seen:
            violations.append(
                f"replica {reference_pid} applied ({sender},{rbid}) twice (position {position})"
            )
            break
        seen.add((sender, rbid))
    for pid, log in logs.items():
        for position, entry in enumerate(log):
            if entry != reference[position]:
                violations.append(
                    f"replica {pid} diverges from replica {reference_pid} at position "
                    f"{position}: {entry} != {reference[position]}"
                )
                break
    for pid, digest in digests.items():
        if len(logs[pid]) == len(reference) and digest != digests[reference_pid]:
            violations.append(
                f"replica {pid} state digest {digest[:12]} != replica {reference_pid} "
                f"{digests[reference_pid][:12]} at equal log length {len(reference)}"
            )
    return violations


def check_kv(ops: Sequence[OpRecord], dump: dict[str, Any]) -> list[str]:
    """The client-visible guarantees of a kv round against replica 0's
    applied log."""
    violations = check_logs(dump["logs"], dump["digests"])
    log = dump["logs"]["0"]
    commands = dump["commands"]
    position_of: dict[tuple[int, int], int] = {}
    occurrences: dict[tuple[int, int], int] = {}
    for position, (sender, rbid, _crc) in enumerate(log):
        position_of.setdefault((sender, rbid), position)
        occurrences[(sender, rbid)] = occurrences.get((sender, rbid), 0) + 1

    ordered_by_position: dict[int, OpRecord] = {}
    claimed: dict[tuple[int, int], int] = {}
    written: dict[str, set[bytes]] = {}
    for op in ops:
        if op.op == "put" and op.value is not None:
            written.setdefault(op.key, set()).add(op.value)
    for op in ops:
        if op.acks > 1:
            violations.append(f"op {op.index} ({op.op} {op.key}) was acked {op.acks} times")
        if not op.ok:
            continue
        if op.msg_id is None:
            if op.op != "get":
                violations.append(f"op {op.index} ({op.op} {op.key}) acked without a message id")
            elif op.result is not None and op.result not in written.get(op.key, ()):
                violations.append(
                    f"op {op.index}: local get {op.key} returned {op.result!r}, "
                    "which the schedule never wrote to that key"
                )
            continue
        if op.msg_id in claimed:
            violations.append(
                f"ops {claimed[op.msg_id]} and {op.index} were both acked as message {op.msg_id}"
            )
            continue
        claimed[op.msg_id] = op.index
        count = occurrences.get(op.msg_id, 0)
        if count != 1:
            violations.append(
                f"op {op.index} ({op.op} {op.key}) acked as message {op.msg_id} appears "
                f"{count} times in replica 0's applied log"
            )
            continue
        ordered_by_position[position_of[op.msg_id]] = op

    # Replay replica 0's commands: `state` is the store just before each position.
    state: dict[str, bytes] = {}
    for position, (name, key, value) in enumerate(commands):
        op = ordered_by_position.get(position)
        if op is not None:
            if name != op.op or key != op.key:
                violations.append(
                    f"op {op.index} ({op.op} {op.key}) is {name} {key} in the applied log"
                )
            elif name == "get" and op.result != state.get(key):
                violations.append(
                    f"op {op.index}: ordered get {key} returned {op.result!r} but the latest "
                    f"put ordered before it wrote {state.get(key)!r}"
                )
            elif name == "put" and value.encode("latin-1") != op.value:
                violations.append(f"op {op.index}: put {key} applied a different value")
        if name == "put":
            state[key] = value.encode("latin-1")
    return violations


def check_burst(
    submitted: Sequence[tuple[tuple[int, int], int]], dump: dict[str, Any], live: int
) -> list[str]:
    """Every live replica delivered the same sequence, holding each
    submitted ``(msg_id, crc32(payload))`` exactly once."""
    logs = dump["logs"]
    violations = check_logs(logs, {})
    if len(logs) != live:
        violations.append(f"{len(logs)} replicas dumped a log, {live} are live")
    expected = {msg_id: crc for msg_id, crc in submitted}
    for pid, log in logs.items():
        delivered: dict[tuple[int, int], int] = {}
        for sender, rbid, crc in log:
            delivered[(sender, rbid)] = crc
        if len(log) != len(expected):
            violations.append(
                f"replica {pid} delivered {len(log)} messages, {len(expected)} were submitted"
            )
        for msg_id, crc in expected.items():
            if delivered.get(msg_id) != crc:
                violations.append(
                    f"replica {pid}: message {msg_id} "
                    + ("was never delivered" if msg_id not in delivered else "changed in flight")
                )
                break
    return violations
