"""Self-tests of the benchmark.  Not part of tier-1 (``testpaths`` is
``tests``); run with ``python -m pytest bench/test_bench.py``.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time

from bench import ROOT, audit, driver, spec
from bench.audit import OpRecord

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "bench", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )


def printed_metrics(stdout: str) -> dict[str, set[str]]:
    """workload -> metric names, from the ``metric W NAME VALUE UNIT`` lines."""
    seen: dict[str, set[str]] = {}
    for line in stdout.splitlines():
        if line.startswith("metric "):
            _, workload, name, value, unit = line.split()[:5]
            float(value)
            assert NAME.match(workload) and NAME.match(name), line
            assert unit == spec.UNIT[name], line
            seen.setdefault(workload, set()).add(name)
    return seen


def test_manifest_matches_spec():
    assert set(MANIFEST) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert [(w["name"], w["why"]) for w in MANIFEST["workloads"]] == [
        (w.name, w.why) for w in spec.WORKLOADS
    ]
    assert MANIFEST["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in spec.END_TO_END
    ]
    assert MANIFEST["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in spec.PER_LAYER
    ]
    names = [m.name for m in spec.END_TO_END + spec.PER_LAYER] + [w.name for w in spec.WORKLOADS]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    assert all(0 < m.bound <= 0.25 for m in spec.END_TO_END)
    assert len(spec.PER_LAYER) <= 128 and all(len(w.why) <= 200 for w in spec.WORKLOADS)


def test_inputs_are_a_function_of_workload_seed_round():
    steady = spec.WORKLOAD_BY_NAME["kv_steady"]
    reads = spec.WORKLOAD_BY_NAME["kv_local_reads"]
    assert driver.make_schedule(steady, 7, 1, 3.0) == driver.make_schedule(steady, 7, 1, 3.0)
    assert driver.make_schedule(steady, 7, 1, 3.0) != driver.make_schedule(steady, 7, 2, 3.0)
    assert driver.make_schedule(steady, 7, 1, 3.0) != driver.make_schedule(steady, 8, 1, 3.0)
    assert driver.make_schedule(steady, 7, 1, 3.0) != driver.make_schedule(reads, 7, 1, 3.0)
    burst = spec.WORKLOAD_BY_NAME["ab_burst_100b"]
    assert driver.make_burst(burst, 7, 1, 2) == driver.make_burst(burst, 7, 1, 2)
    assert driver.make_burst(burst, 7, 1, 2) != driver.make_burst(burst, 7, 1, 3)
    assert len(driver.make_burst(burst, 7, 1, 2)) == burst.burst_count * burst.burst_bytes


def test_quick_mode_runs_every_workload_and_prints_the_manifest_names():
    started = time.monotonic()
    done = run_bench("--quick")
    elapsed = time.monotonic() - started
    assert done.returncode == 0, done.stdout + done.stderr
    assert elapsed < 60, f"--quick took {elapsed:.0f} s"
    seen = printed_metrics(done.stdout)
    assert set(seen) == {w["name"] for w in MANIFEST["workloads"]}
    expected = {m["name"] for m in MANIFEST["end_to_end"]}
    assert all(names == expected for names in seen.values())
    assert done.stdout.count("safety_violations 0") == len(spec.WORKLOADS)


def test_quick_traced_run_prints_every_per_layer_name_and_a_ledger():
    done = run_bench("--quick", "--workload", "ab_burst_100b", "--trace", "1")
    assert done.returncode == 0, done.stdout + done.stderr
    seen = printed_metrics(done.stdout)
    assert seen == {"ab_burst_100b": {m["name"] for m in MANIFEST["per_layer"]}}
    assert "ledger ab_burst_100b" in done.stdout and "residual" in done.stdout
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["attempted"] >= 1
    assert set(last["metrics"]) == {m["name"] for m in MANIFEST["per_layer"]}


def test_corrupted_log_fails_the_command():
    for workload in ("kv_steady", "ab_burst_100b"):
        done = run_bench("--quick", "--workload", workload, "--corrupt-self-test")
        assert done.returncode != 0, done.stdout
        assert f"VIOLATION {workload}" in done.stdout
        assert json.loads(done.stdout.strip().splitlines()[-1])["correct"] is False


def _acked(index: int, op: str, key: str, value: bytes | None, rbid: int, result) -> OpRecord:
    return OpRecord(index, op, key, value, acks=1, status="ok", msg_id=(0, rbid), result=result)


def test_audit_accepts_a_consistent_round_and_names_the_first_offender():
    ops = [
        _acked(0, "put", "k1", b"a", 0, True),
        _acked(1, "get", "k1", None, 1, b"a"),
        _acked(2, "put", "k1", b"b", 2, True),
    ]
    log = [[0, 0, 11], [0, 1, 12], [0, 2, 13]]
    dump = {
        "logs": {"0": log, "1": log[:2]},
        "digests": {"0": "aa", "1": "bb"},
        "commands": [["put", "k1", "a"], ["get", "k1", None], ["put", "k1", "b"]],
    }
    assert audit.check_kv(ops, dump) == []

    stale = [ops[0], _acked(1, "get", "k1", None, 1, None), ops[2]]
    assert "ordered get k1 returned None" in audit.check_kv(stale, dump)[0]

    lost = dict(dump, logs={"0": log[:2], "1": log[:1]}, commands=dump["commands"][:2])
    assert "appears 0 times" in audit.check_kv(ops, lost)[0]

    twice = dict(dump, logs={"0": log + [log[0]], "1": log[:2]},
                 commands=dump["commands"] + [dump["commands"][0]])
    assert "twice" in audit.check_kv(ops, twice)[0]

    forked = dict(dump, logs={"0": log, "1": [log[1], log[0]]})
    assert "diverges" in audit.check_kv(ops, forked)[0]

    same_length = dict(dump, logs={"0": log, "1": log})
    assert "state digest" in audit.check_kv(ops, same_length)[0]

    local = [OpRecord(0, "get", "k1", None, acks=1, status="ok", result=b"zz")]
    assert "never wrote" in audit.check_kv(local + ops, dump)[0]

    ops[1].acks = 2
    assert "acked 2 times" in audit.check_kv(ops, dump)[0]


def test_burst_audit_wants_one_sequence_holding_every_message_once():
    submitted = [((0, 0), 5), ((1, 0), 6)]
    log = [[0, 0, 5], [1, 0, 6]]
    same = {"logs": {str(pid): log for pid in range(4)}}
    assert audit.check_burst(submitted, same, live=4) == []
    swapped = {"logs": {**same["logs"], "2": [log[1], log[0]]}}
    assert "diverges" in audit.check_burst(submitted, swapped, live=4)[0]
    changed = {"logs": {str(pid): [[0, 0, 5], [1, 0, 7]] for pid in range(4)}}
    assert "changed in flight" in audit.check_burst(submitted, changed, live=4)[0]
    short = {"logs": {str(pid): log[:1] for pid in range(4)}}
    assert any("never delivered" in v for v in audit.check_burst(submitted, short, live=4))
