"""The repository's wall-clock benchmark (see bench/README.md).

One command, ``python -m bench``, drives a four-replica RITAS group on
loopback TCP from a separate load-generating process, checks the
outputs, and prints every metric named in ``BENCHMARK.json``.
"""

import sys
from pathlib import Path

#: Root of the checkout (the directory holding ``bench/`` and ``src/``).
ROOT = Path(__file__).resolve().parent.parent

# The product is not installed in the benchmark's checkout; it is
# imported from source.  Without ``src/`` the import of ``repro`` fails
# and the command exits nonzero, which is what the contract asks of a
# directory that holds only the benchmark.
_SRC = str(ROOT / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
