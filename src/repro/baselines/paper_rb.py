"""Bracha's reliable broadcast as the paper runs it (Section 2.2).

The stack's :class:`~repro.core.reliable_broadcast.ReliableBroadcast`
sends the payload once per receiver: ECHO and READY carry its digest,
and a delivering process pushes the payload to any peer whose ECHO it
never counted.  The paper's ECHO relays the message itself, so each
process receives it n+1 times per broadcast.  The simulated figures
(Figs. 4-7, ``python -m repro.eval``) measure the paper's stack, and
:func:`repro.eval.atomic_burst.run_burst` registers this class for
them.  READY still carries the digest (docs/PROTOCOLS.md deviation 6).
"""

from __future__ import annotations

from repro.core.mbuf import Mbuf
from repro.core.reliable_broadcast import MSG_ECHO, ReliableBroadcast, _raw_of
from repro.core.stack import ProtocolFactory


class PaperReliableBroadcast(ReliableBroadcast):
    """ECHO relays m, and any ECHO is a payload source; nothing is pushed."""

    def input(self, mbuf: Mbuf) -> None:
        # The base class dispatches through a table of its own methods,
        # so the ECHO handler is swapped here, not by overriding it.
        if mbuf.mtype == MSG_ECHO and not self.destroyed:
            self._on_payload_echo(mbuf)
        else:
            super().input(mbuf)

    def _send_echo(self, digest: bytes, raw: bytes) -> None:
        # Relay the INIT's canonical encoding verbatim.
        self.send_all_raw(MSG_ECHO, raw)

    def _on_payload_echo(self, mbuf: Mbuf) -> None:
        if mbuf.src in self._echo_sources:
            return
        self._echo_sources.add(mbuf.src)
        digest = self._hold(_raw_of(mbuf))
        self._echoes.setdefault(digest, set()).add(mbuf.src)
        self._check_progress(digest)

    def _push_payload(self, digest: bytes, raw: bytes) -> None:
        pass  # every echoer already sent m to every process


def with_paper_rb(factory: ProtocolFactory) -> ProtocolFactory:
    """Run every reliable broadcast the paper's way."""
    return factory.override("rb", PaperReliableBroadcast)
