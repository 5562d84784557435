"""Record which ``src/repro`` functions the figures, workloads and
scenarios run, then count what none of them reached.

Usage (from the repository root)::

    python tools/reach/run.py OUT_DIR

Every entry point runs with :mod:`recorder` loaded at start-up as the
``usercustomize`` module of a private user base under ``OUT_DIR``
(``PYTHONUSERBASE``), so subprocesses that replace ``PYTHONPATH`` --
the benchmark's cluster children -- record too, and nothing is added
under ``src/``.  The entry points:

- ``python -m repro.eval all``, whose output must equal EXPERIMENTS.md;
- ``python3 -m bench --quick``;
- ``python -m repro.check explore --scenario S --budget 3`` for every
  catalog scenario;
- ``python -m repro.check soak --smoke``;
- every script in ``examples/``.

Then it prints :mod:`count`'s table for the recorded calls.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import sysconfig

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
#: Seeds per catalog scenario.
BUDGET = 3


def run(argv: list[str], env: dict[str, str], **kwargs) -> subprocess.CompletedProcess:
    print("$", " ".join(argv), file=sys.stderr, flush=True)
    result = subprocess.run(argv, cwd=REPO, env=env, text=True, **kwargs)
    if result.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {result.returncode}")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out_dir")
    args = parser.parse_args(argv)
    out_dir = os.path.abspath(args.out_dir)
    userbase = os.path.join(out_dir, "userbase")
    site = sysconfig.get_path("purelib", f"{os.name}_user", {"userbase": userbase})
    os.makedirs(site, exist_ok=True)
    with open(os.path.join(site, "usercustomize.py"), "w") as hook:
        hook.write(
            f"import sys\nsys.path.insert(0, {HERE!r})\nimport recorder\nrecorder.install()\n"
        )
    env = dict(
        os.environ,
        PYTHONUSERBASE=userbase,
        PYTHONPATH=os.path.join(REPO, "src"),
        REACH_OUT=out_dir,
        REACH_ROOT=os.path.join(REPO, "src"),
    )
    python = sys.executable

    figures = run([python, "-m", "repro.eval", "all"], env, stdout=subprocess.PIPE)
    with open(os.path.join(REPO, "EXPERIMENTS.md")) as committed:
        if figures.stdout != committed.read():
            raise SystemExit("repro.eval all differs from EXPERIMENTS.md under the recorder")
    run([python, "-m", "bench", "--quick"], env, stdout=subprocess.DEVNULL)
    listing = run([python, "-m", "repro.check", "scenarios"], env, stdout=subprocess.PIPE)
    for line in listing.stdout.splitlines():
        scenario = line.split()[0]
        run(
            [python, "-m", "repro.check", "explore", "--scenario", scenario,
             "--budget", str(BUDGET), "--out", os.path.join(out_dir, f"{scenario}.json")],
            env,
            stdout=subprocess.DEVNULL,
        )
    run([python, "-m", "repro.check", "soak", "--smoke"], env, stdout=subprocess.DEVNULL)
    for example in sorted(os.listdir(os.path.join(REPO, "examples"))):
        if example.endswith(".py"):
            run([python, os.path.join("examples", example)], env, stdout=subprocess.DEVNULL)

    sys.path.insert(0, HERE)
    import count

    return count.report(out_dir)


if __name__ == "__main__":
    sys.exit(main())
