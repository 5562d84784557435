"""Real-network runtime: the stack over TCP sockets with asyncio.

This is the deployment counterpart of the simulator in
:mod:`repro.net`: the same sans-IO protocol stack, driven by asyncio
streams.  The reliable channel matches the paper's Section 2.1:

- **reliability / FIFO** -- TCP;
- **integrity** -- each frame carries an HMAC-SHA256 trailer under the
  pairwise secret key, with a monotonic sequence number against replay
  (our stand-in for the IPSec AH protocol of the original testbed).

:class:`RitasNode` is the node (sockets + stack); protocol instances
are created on its stack with ``node.stack.create(kind, path)``.
"""

from repro.transport.framing import FrameCodec, FramingError
from repro.transport.tcp import PeerAddress, RitasNode

__all__ = [
    "FrameCodec",
    "FramingError",
    "PeerAddress",
    "RitasNode",
]
