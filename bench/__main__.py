"""``python -m bench`` -- run the benchmark and print every metric by name.

    python -m bench                          all workloads, end-to-end metrics
    python -m bench --trace                  all workloads, per-layer metrics + ledger
    python -m bench --workload W --seed N --seconds S --trace 0|1
                                             one workload; the last line of standard
                                             output is the result as one JSON object
    python -m bench --repeat-check           the whole set twice; fails if two runs of
                                             the same code differ by more than a bound
    python -m bench --quick                  one short round per workload (self-test)

Exits nonzero when the audit finds a safety violation, printing the
first offending op.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from dataclasses import dataclass, field
from typing import Any

from bench import driver, offline, spec
from bench.driver import RoundResult


@dataclass
class WorkloadResult:
    workload: str
    traced: bool
    values: dict[str, float]  # metric name -> value
    spreads: dict[str, float] = field(default_factory=dict)
    per_round: dict[str, list[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    violations: list[str] = field(default_factory=list)
    ledger: list[tuple[str, float]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def as_json(self) -> dict[str, Any]:
        return {
            "correct": not self.violations,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": spec.UNIT[name]}
                for name, value in self.values.items()
            },
        }


@dataclass(frozen=True)
class Shape:
    """How long one round runs."""

    rounds: int
    warmup_s: float
    measure_s: float  # per round

    @property
    def bursts(self) -> int:
        return max(1, round(self.measure_s / driver.BURST_NOMINAL_S))


def shape_for(seconds: float, traced: bool, quick: bool) -> Shape:
    if quick:
        return Shape(1, 1.0, 2.0)
    # --seconds is the measured time of the whole run, shared by its
    # rounds; a traced run spends one round's share on the untraced
    # reference round and one on the traced round.
    return Shape(1 if traced else spec.ROUNDS, spec.WARMUP_S, seconds / spec.ROUNDS)


async def _round(
    workload: spec.Workload, seed: int, index: int, shape: Shape, **options: Any
) -> RoundResult:
    if workload.kind == "kv":
        return await driver.kv_round(
            workload, seed, index, shape.warmup_s, shape.measure_s, **options
        )
    return await driver.burst_round(workload, seed, index, shape.bursts, **options)


async def run_workload(
    workload: spec.Workload,
    seed: int,
    seconds: float,
    *,
    traced: bool = False,
    quick: bool = False,
    trace_out: str | None = None,
    corrupt: bool = False,
) -> WorkloadResult:
    shape = shape_for(seconds, traced, quick)
    rounds = [
        await _round(workload, seed, index, shape, corrupt=corrupt and index == 0)
        for index in range(shape.rounds)
    ]
    summary = driver.median_of_rounds(rounds)
    result = WorkloadResult(
        workload.name,
        traced,
        {name: value for name, (value, _) in summary.items()},
        {name: spread for name, (_, spread) in summary.items()},
        {name: [r.end_to_end[name] for r in rounds] for name in summary},
    )
    everything = list(rounds)
    if traced:
        # Same inputs as the reference round, so the two differ by the
        # tracing alone.
        traced_round = await _round(
            workload, seed, 0, shape, traced=True, trace_out=trace_out
        )
        everything.append(traced_round)
        layer = {metric.name: 0.0 for metric in spec.PER_LAYER}
        layer.update(traced_round.layer)
        layer.update(await driver.isolated_latencies(20 if quick else driver.ISOLATED_RUNS))
        if workload.name == "ab_burst_100b":
            layer.update(offline.sim_burst())
        reference, shimmed = rounds[0].end_to_end, traced_round.end_to_end
        if workload.kind == "burst":
            overhead = 1.0 - shimmed["goodput_ops_s"] / reference["goodput_ops_s"]
        else:
            overhead = 1.0 - reference["op_p50_ms"] / shimmed["op_p50_ms"]
        layer["trace.overhead_share"] = overhead
        result.notes.append(
            "end-to-end values of this traced run come from its one untraced reference round: "
            + ", ".join(f"{name} {value:.4f}" for name, value in result.values.items())
        )
        result.values = layer
        result.spreads = {}
        result.ledger = traced_round.ledger
        result.notes += traced_round.notes
    result.attempted = sum(r.attempted for r in everything)
    result.failed = sum(r.failed for r in everything)
    result.violations = [v for r in everything for v in r.violations]
    return result


def print_result(result: WorkloadResult) -> None:
    for name, value in result.values.items():
        spread = result.spreads.get(name)
        tail = ""
        if spread is not None:
            values = " ".join(f"{v:.6g}" for v in result.per_round[name])
            tail = f" spread {spread:.4f} rounds {values}"
        print(f"metric {result.workload} {name} {value:.6g} {spec.UNIT[name]}{tail}")
    print(
        f"checked {result.workload} attempted {result.attempted} failed {result.failed} "
        f"failed_op_share {result.failed / max(result.attempted, 1):.6f} "
        f"safety_violations {len(result.violations)}"
    )
    if result.ledger:
        print(f"ledger {result.workload} (ms of process CPU per answered op)")
        for part, value in result.ledger:
            print(f"  {part:<34s} {value:10.4f}")
    for note in result.notes:
        print(f"note {result.workload} {note}")
    if result.violations:
        print(f"VIOLATION {result.workload} {result.violations[0]}")
    sys.stdout.flush()


async def run_set(args: argparse.Namespace, workloads: list[spec.Workload]) -> list[WorkloadResult]:
    results = []
    for workload in workloads:
        result = await run_workload(
            workload,
            args.seed,
            args.seconds,
            traced=bool(args.trace),
            quick=args.quick,
            trace_out=args.trace_out,
            corrupt=args.corrupt_self_test,
        )
        print_result(result)
        results.append(result)
    return results


def repeat_check(first: list[WorkloadResult], second: list[WorkloadResult]) -> bool:
    """Print both medians per workload and end-to-end metric; True when
    every pair agrees within the metric's bound."""
    agreed = True
    print("repeat-check: workload metric first second relative_difference bound verdict")
    for a, b in zip(first, second):
        for metric in spec.END_TO_END:
            x, y = a.values[metric.name], b.values[metric.name]
            worse = (y - x) / x if metric.better == "lower" else (x - y) / x
            within = abs(worse) <= metric.bound
            agreed &= within
            print(
                f"repeat-check: {a.workload} {metric.name} {x:.6g} {y:.6g} "
                f"{worse:+.4f} {metric.bound:.2f} {'ok' if within else 'EXCEEDS'}"
            )
    return agreed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=[w.name for w in spec.WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=18.0,
                        help="measured seconds per workload, shared by its rounds")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--trace-out", help="write the traced round's spans here (JSON lines)")
    parser.add_argument("--out", help="write every result here as JSON")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--repeat-check", action="store_true")
    parser.add_argument("--corrupt-self-test", action="store_true",
                        help="corrupt one dumped log before the audit; the run must fail")
    args = parser.parse_args(argv)
    workloads = [spec.WORKLOAD_BY_NAME[args.workload]] if args.workload else list(spec.WORKLOADS)

    results = asyncio.run(run_set(args, workloads))
    ok = not any(r.violations for r in results)
    if args.repeat_check:
        again = asyncio.run(run_set(args, workloads))
        ok &= not any(r.violations for r in again)
        ok &= repeat_check(results, again)
        results += again
    if args.out:
        with open(args.out, "w", encoding="utf-8") as out:
            json.dump(
                [dict(r.as_json(), workload=r.workload, traced=r.traced) for r in results],
                out, indent=1,
            )
    if args.workload and not args.repeat_check:
        print(json.dumps(results[0].as_json()))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
