"""Atomic broadcast throughput with and without frame coalescing.

The batching fast path coalesces same-peer frames within a flush window
into one batch channel unit, so the channel pays its fixed per-message
costs (send CPU, per-frame headers, IPSec AH) once per batch.  This
sweep measures the speedup on the calibrated LAN_2006 model.

The gain grows with how much traffic is in flight at once: larger
bursts and larger groups queue more same-peer frames while the sender
CPU is busy, so more of them merge.  Small bursts on n=4 stay mostly
latency-bound and the speedup is modest; those points are reported as
``extra_info`` without a floor assertion.
"""

import pytest

from repro.eval.atomic_burst import run_burst

#: Grid points asserted to clear the 1.5x bar: high-load settings where
#: coalescing has material queue depth to work with (burst >= 16).
ASSERTED_POINTS = (
    # (n, burst, message_bytes, min_speedup)
    (4, 64, 100, 1.5),
    (7, 16, 100, 1.5),
)

#: Additional informational points (no floor; latency-bound regimes).
INFO_POINTS = (
    (4, 16, 100),
    (4, 32, 100),
)


def measure(n: int, burst: int, message_bytes: int, *, batching: bool) -> float:
    """Simulated atomic-broadcast throughput (msgs/s) for one setting."""
    result = run_burst(
        burst, message_bytes, "failure-free", n=n, seed=7, batching=batching
    )
    assert result.delivered == burst
    return result.throughput_msgs_s


@pytest.mark.parametrize(
    ("n", "burst", "message_bytes", "floor"),
    ASSERTED_POINTS,
    ids=[f"n{n}-k{k}-m{m}" for n, k, m, _ in ASSERTED_POINTS],
)
def test_batching_speedup_floor(benchmark, n, burst, message_bytes, floor):
    def both():
        off = measure(n, burst, message_bytes, batching=False)
        on = measure(n, burst, message_bytes, batching=True)
        return off, on

    off, on = benchmark.pedantic(both, rounds=1, iterations=1)
    speedup = on / off
    benchmark.extra_info.update(
        {
            "throughput_off_msgs_s": round(off),
            "throughput_on_msgs_s": round(on),
            "speedup": round(speedup, 2),
        }
    )
    assert speedup >= floor, (
        f"batching speedup {speedup:.2f}x below {floor}x "
        f"at n={n}, k={burst}, m={message_bytes}"
    )


@pytest.mark.parametrize(
    ("n", "burst", "message_bytes"),
    INFO_POINTS,
    ids=[f"n{n}-k{k}-m{m}" for n, k, m in INFO_POINTS],
)
def test_batching_speedup_info(benchmark, n, burst, message_bytes):
    """Latency-bound points: batching must not make things worse."""

    def both():
        off = measure(n, burst, message_bytes, batching=False)
        on = measure(n, burst, message_bytes, batching=True)
        return off, on

    off, on = benchmark.pedantic(both, rounds=1, iterations=1)
    speedup = on / off
    benchmark.extra_info["speedup"] = round(speedup, 2)
    assert speedup >= 0.95

