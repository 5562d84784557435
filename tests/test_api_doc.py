"""The docs name only live API.

Every ``node.<name>`` in the code blocks of docs/API.md's "TCP runtime"
section must resolve on a :class:`RitasNode`; every dotted
``repro.<...>`` name in README.md, DESIGN.md and docs/*.md must resolve
too.  Deleting a module or a method without editing the docs fails here.
Every constant docs/API.md's constants table names must hold the value
the table gives, in the module it names.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

from repro.core.config import GroupConfig
from repro.crypto.keys import TrustedDealer
from repro.transport.tcp import PeerAddress, RitasNode

ROOT = Path(__file__).parent.parent
API_DOC = ROOT / "docs" / "API.md"
#: The reference documents; ROADMAP, CHANGES and EXPERIMENTS are
#: history and generated output, free to name what is gone.
DOCS = [ROOT / "README.md", ROOT / "DESIGN.md", *sorted((ROOT / "docs").glob("*.md"))]
SECTION = "## TCP runtime"


def code_blocks(heading: str) -> str:
    """The fenced code of one ``##`` section of docs/API.md."""
    text = API_DOC.read_text()
    start = text.index(f"\n{heading}\n")
    end = text.find("\n## ", start + 1)
    section = text[start : end if end != -1 else len(text)]
    return "\n".join(re.findall(r"```[a-z]*\n(.*?)```", section, re.DOTALL))


def named(variable: str) -> set[str]:
    """Every attribute docs/API.md's TCP runtime section reads off
    *variable*."""
    pattern = re.compile(rf"\b{variable}\.([A-Za-z_]\w*)")
    return set(pattern.findall(code_blocks(SECTION)))


@pytest.mark.parametrize(
    "variable, build",
    [
        (
            "node",
            lambda: RitasNode(
                GroupConfig(4),
                0,
                [PeerAddress("127.0.0.1", 0)] * 4,
                TrustedDealer(4, seed=b"api-doc").keystore_for(0),
            ),
        ),
    ],
)
def test_api_doc_names_only_live_attributes(variable, build):
    names = named(variable)
    assert names, f"docs/API.md shows no {variable}.<name>"
    instance = build()
    assert sorted(name for name in names if not hasattr(instance, name)) == []


def resolves(dotted: str) -> bool:
    """Import the longest importable prefix of *dotted*, then walk the
    rest as attributes."""
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:split]))
        except ModuleNotFoundError:
            continue
        break
    else:
        return False
    for attr in parts[split:]:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


@pytest.mark.parametrize("doc", DOCS, ids=lambda path: path.name)
def test_docs_name_only_live_modules(doc):
    names = set(re.findall(r"\brepro(?:\.[A-Za-z_]\w*)+", doc.read_text()))
    assert sorted(name for name in names if not resolves(name)) == []


#: Units docs/API.md's constants table may append to a number.
UNITS = {"KiB": 1 << 10, "MiB": 1 << 20}


def documented_constants() -> list[tuple[str, str, str]]:
    """``(name, module, value)`` for every constant docs/API.md's
    constants table names; a row naming several lists their values in
    the same order."""
    lines = API_DOC.read_text().splitlines()
    start = lines.index("| constant | module | value | meaning |")
    found = []
    for line in lines[start + 2 :]:
        if not line.startswith("|"):
            break
        names, module, values = (cell.strip() for cell in line.strip("|").split("|")[:3])
        names = re.findall(r"`(\w+)`", names)
        values = [value.strip() for value in values.split(",")]
        assert len(names) == len(values), line
        found.extend((name, module.strip("`"), value) for name, value in zip(names, values))
    return found


def parse_value(cell: str):
    """A table value: a Python literal, optionally followed by a unit."""
    number, _, unit = cell.partition(" ")
    return ast.literal_eval(number) * (UNITS[unit] if unit else 1)


CONSTANTS = documented_constants()


def test_constants_table_is_read():
    assert len(CONSTANTS) >= 10


@pytest.mark.parametrize("name, module, cell", CONSTANTS, ids=str)
def test_documented_constant_has_its_value(name, module, cell):
    value = getattr(importlib.import_module(module), name)
    documented = parse_value(cell)
    assert value == documented and type(value) is type(documented), (value, cell)
