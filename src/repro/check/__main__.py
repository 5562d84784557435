"""CLI for the invariant checker / schedule explorer.

Usage::

    python -m repro.check scenarios
    python -m repro.check explore --scenario byz-ooc-flood --budget 200
    python -m repro.check replay repro-check-byz-ooc-flood.json
    python -m repro.check soak --hours 1.0

``explore`` exits 0 when every run is clean and 1 on a violation, after
writing the shrunken reproducer JSON (``--out``, default
``repro-check-<scenario>.json``) -- CI uploads that file as an
artifact.  ``replay`` exits 1 while the reproducer still violates
(the bug is alive) and 0 once it runs clean.

``soak`` runs hours of simulated time rotating through the catalog's
hostile environments (see :mod:`repro.check.soak`), asserting gauge
flatness at every window boundary and exiting 1 on a flatness or
invariant failure; ``--smoke`` is the shortened CI variant (the warmup
and one rotation).

The default budget honors the ``RITAS_EXPLORE_BUDGET`` environment
variable so CI can tune exploration depth without editing workflows,
mirroring ``RITAS_FUZZ_EXAMPLES``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.check.explore import (
    dump_reproducer,
    explore,
    load_reproducer,
    replay,
)
from repro.check.invariants import InvariantViolation
from repro.check.scenarios import SCENARIOS
from repro.check.soak import SoakError, WindowReport, run_soak

DEFAULT_BUDGET = int(os.environ.get("RITAS_EXPLORE_BUDGET", "100"))


def _cmd_scenarios(_args: argparse.Namespace) -> int:
    width = max(len(name) for name in SCENARIOS)
    for name in sorted(SCENARIOS):
        scenario = SCENARIOS[name]
        print(f"{name:<{width}}  n={scenario.n}  {scenario.description}")
    return 0


def _cmd_explore(args: argparse.Namespace) -> int:
    if args.scenario not in SCENARIOS:
        known = ", ".join(sorted(SCENARIOS))
        print(f"unknown scenario {args.scenario!r} (known: {known})", file=sys.stderr)
        return 2

    def progress(index: int, seed: int, result: dict) -> None:
        if args.verbose:
            print(
                f"[{index + 1}/{args.budget}] seed={seed} "
                f"{result['outcome']} ({result['events']} events)"
            )

    reproducer = explore(
        args.scenario,
        args.budget,
        base_seed=args.seed_base,
        progress=progress,
    )
    if reproducer is None:
        print(
            f"{args.scenario}: {args.budget} schedules explored, "
            "no invariant violations"
        )
        return 0
    out = args.out or f"repro-check-{args.scenario}.json"
    dump_reproducer(reproducer, out)
    violation = reproducer["violation"]
    print(
        f"{args.scenario}: INVARIANT VIOLATION [{violation['invariant']}] "
        f"{violation['detail']}",
        file=sys.stderr,
    )
    print(
        f"shrunk to {len(reproducer['ops'])} ops / "
        f"{reproducer['max_events']} events; reproducer written to {out}",
        file=sys.stderr,
    )
    return 1


def _cmd_soak(args: argparse.Namespace) -> int:
    def progress(window: WindowReport) -> None:
        lag = max(s["gc_lag"] for s in window.gauges["process"].values())
        print(
            f"[{window.end_s:8.1f}s] {window.name:<18} "
            f"writes={window.writes:<5d} gc_lag={lag} flat"
        )

    try:
        report = run_soak(
            hours=args.hours,
            seed=args.seed,
            smoke=args.smoke,
            progress=progress,
        )
    except SoakError as error:
        print(f"SOAK FLATNESS VIOLATION: {error}", file=sys.stderr)
        return 1
    except InvariantViolation as violation:
        print(
            f"SOAK INVARIANT VIOLATION [{violation.invariant}] {violation.detail}",
            file=sys.stderr,
        )
        return 1
    print(
        f"soak clean: {report.simulated_s:.0f}s simulated, "
        f"{len(report.windows)} windows ({report.gray_windows} gray), "
        f"{report.writes} writes, {report.events} events"
    )
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    reproducer = load_reproducer(args.file)
    result = replay(reproducer)
    print(json.dumps(result, indent=2, sort_keys=True))
    if result["outcome"] == "violation":
        print("violation reproduced", file=sys.stderr)
        return 1
    print("reproducer runs clean (bug fixed?)", file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.check",
        description="protocol invariant checker and schedule explorer",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_scenarios = sub.add_parser("scenarios", help="list registered scenarios")
    p_scenarios.set_defaults(func=_cmd_scenarios)

    p_explore = sub.add_parser("explore", help="sweep schedules over one scenario")
    p_explore.add_argument("--scenario", required=True)
    p_explore.add_argument(
        "--budget",
        type=int,
        default=DEFAULT_BUDGET,
        help=f"runs to attempt (default {DEFAULT_BUDGET}, "
        "env RITAS_EXPLORE_BUDGET)",
    )
    p_explore.add_argument("--seed-base", type=int, default=0)
    p_explore.add_argument("--out", help="reproducer path on violation")
    p_explore.add_argument("--verbose", action="store_true")
    p_explore.set_defaults(func=_cmd_explore)

    p_replay = sub.add_parser("replay", help="re-execute a reproducer JSON")
    p_replay.add_argument("file")
    p_replay.set_defaults(func=_cmd_replay)

    p_soak = sub.add_parser(
        "soak", help="hours of simulated time under rotating faults"
    )
    p_soak.add_argument(
        "--hours",
        type=float,
        default=1.0,
        help="simulated hours to run (default 1.0)",
    )
    p_soak.add_argument(
        "--smoke",
        action="store_true",
        help="shortened CI variant: one full rotation with short windows",
    )
    p_soak.add_argument("--seed", type=int, default=0)
    p_soak.set_defaults(func=_cmd_soak)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
