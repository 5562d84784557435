"""Count the source lines no recorded run reached.

Usage::

    python tools/reach/count.py OUT_DIR

Reads every ``calls-*.tsv`` that :mod:`recorder` wrote under
``OUT_DIR`` and walks each module under ``src/repro`` with :mod:`ast`.  A
function (``def`` or ``async def``, methods and nested functions
included) is *unreached* when no process recorded a call of it; its
lines, first decorator to last line, count as unreached.  A module no
process imported counts whole.  Module bodies and class statements run
at import, so they count as reached.  Prints the total and a markdown
table of every module with at least 20 unreached lines, naming its
largest unreached functions.
"""

from __future__ import annotations

import argparse
import ast
import glob
import os
import sys

#: The package the counter walks, found from this file's place in the repository.
SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))), "src", "repro"
)


def load_calls(out_dir: str) -> set[tuple[str, int]]:
    """``(path relative to the recorder's root, first line)`` of every
    recorded code object."""
    calls = set()
    for name in glob.glob(os.path.join(out_dir, "calls-*.tsv")):
        with open(name) as lines:
            for line in lines:
                path, first, _name = line.rstrip("\n").split("\t")
                calls.add((path, int(first)))
    return calls


def functions(tree: ast.AST):
    """Every function definition in *tree*, with its first line (the
    first decorator's, as ``co_firstlineno`` has it)."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            yield node, first


def unreached(path: str, key: str, calls: set[tuple[str, int]]):
    """``(lines in file, unreached line numbers, unreached functions as
    (name, lines) sorted largest first)`` for one module."""
    with open(path) as source:
        text = source.read()
    total = len(text.splitlines())
    if not any(recorded == key for recorded, _ in calls):
        return total, set(range(1, total + 1)), [("<module>", total)]
    lines: set[int] = set()
    missed = []
    for node, first in functions(ast.parse(text)):
        if (key, first) not in calls:
            span = range(first, node.end_lineno + 1)
            lines.update(span)
            missed.append((node.name, len(span)))
    return total, lines, sorted(missed, key=lambda item: -item[1])


def report(out_dir: str, src: str = SRC, min_lines: int = 20) -> int:
    """Print the count for the package at *src*; 1 if *out_dir* holds
    no recorded calls."""
    calls = load_calls(out_dir)
    if not calls:
        print(f"no recorded calls under {out_dir}", file=sys.stderr)
        return 1
    # The recorder stores paths relative to its root, the directory
    # holding the package (``src``).
    root = os.path.dirname(os.path.abspath(src))
    rows = []
    all_lines = all_unreached = 0
    for path in sorted(glob.glob(os.path.join(src, "**", "*.py"), recursive=True)):
        key = os.path.relpath(os.path.abspath(path), root)
        total, lines, missed = unreached(path, key, calls)
        all_lines += total
        all_unreached += len(lines)
        if len(lines) >= min_lines:
            module = key[: -len(".py")].replace(os.sep, ".").removesuffix(".__init__")
            rows.append((len(lines), module, total, missed))
    print(f"{all_unreached} of {all_lines} lines unreached\n")
    print("| module | unreached / lines | largest unreached |")
    print("|---|---|---|")
    for count, module, total, missed in sorted(rows, key=lambda row: (-row[0], row[1])):
        names = ", ".join(f"`{name}`" for name, _ in missed[:3])
        print(f"| `{module}` | {count} / {total} | {names} |")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out_dir")
    return report(parser.parse_args(argv).out_dir)


if __name__ == "__main__":
    sys.exit(main())
