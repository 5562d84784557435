"""docs/API.md names only live API on the TCP node and the sharded simulation.

Every ``node.<name>`` in the code blocks of its "TCP runtime" and
"Sharding" sections must resolve on a :class:`RitasNode`, and every
``sharded.<name>`` on a :class:`ShardedLanSimulation`, so deleting a
method without editing the reference fails here.
"""

import re
from pathlib import Path

import pytest

from repro.core.config import GroupConfig
from repro.crypto.keys import TrustedDealer
from repro.shard.sim import ShardedLanSimulation
from repro.transport.tcp import PeerAddress, RitasNode

API_DOC = Path(__file__).parent.parent / "docs" / "API.md"
SECTIONS = ("## TCP runtime", "## Sharding (`repro.shard`)")


def code_blocks(heading: str) -> str:
    """The fenced code of one ``##`` section of docs/API.md."""
    text = API_DOC.read_text()
    start = text.index(f"\n{heading}\n")
    end = text.find("\n## ", start + 1)
    section = text[start : end if end != -1 else len(text)]
    return "\n".join(re.findall(r"```[a-z]*\n(.*?)```", section, re.DOTALL))


def named(variable: str) -> set[str]:
    """Every attribute docs/API.md's sections read off *variable*."""
    pattern = re.compile(rf"\b{variable}\.([A-Za-z_]\w*)")
    return {name for heading in SECTIONS for name in pattern.findall(code_blocks(heading))}


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
        ("sharded", lambda: ShardedLanSimulation(2, n=4)),
    ],
)
def test_api_doc_names_only_live_attributes(variable, build):
    names = named(variable)
    assert names, f"docs/API.md shows no {variable}.<name>"
    instance = build()
    assert sorted(name for name in names if not hasattr(instance, name)) == []
