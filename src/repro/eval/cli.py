"""``python -m repro.eval`` (also installed as ``ritas-bench``): print
one section of the reproduction document, or all of it.

Examples::

    python -m repro.eval fig4 --quick
    python -m repro.eval ablation-signatures
    python -m repro.eval all > EXPERIMENTS.md

Exits 1 if a verdict of a printed section fails.
"""

from __future__ import annotations

import argparse
import sys

from repro.eval.sections import HEADER, SECTIONS


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.eval",
        description="Reproduce the evaluation of Moniz et al., DSN 2006, as markdown.",
    )
    parser.add_argument(
        "section",
        choices=[*SECTIONS, "all"],
        help="one section, or 'all' for the whole document (EXPERIMENTS.md)",
    )
    parser.add_argument(
        "--quick", action="store_true", help="reduced grids (seconds, not minutes)"
    )
    args = parser.parse_args(argv)

    names = list(SECTIONS) if args.section == "all" else [args.section]
    sections = [SECTIONS[name](args.quick) for name in names]
    text = "\n".join(line for section in sections for line in section.lines)
    if args.section == "all":
        text = HEADER + "\n" + text
    print(text, end="")
    return 0 if all(section.holds for section in sections) else 1


if __name__ == "__main__":
    sys.exit(main())
