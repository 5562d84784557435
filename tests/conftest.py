"""Shared fixtures for the RITAS test suite."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

# Make tests/util.py importable as `util` regardless of invocation dir.
sys.path.insert(0, str(Path(__file__).parent))

from repro.core.config import GroupConfig  # noqa: E402
from repro.crypto.keys import TrustedDealer  # noqa: E402


@pytest.fixture
def config4() -> GroupConfig:
    """The paper's group: n=4, f=1."""
    return GroupConfig(4)


@pytest.fixture
def dealer4() -> TrustedDealer:
    return TrustedDealer(4, seed=b"tests")


@pytest.fixture
def keystores4(dealer4: TrustedDealer):
    return [dealer4.keystore_for(pid) for pid in range(4)]


@pytest.fixture
def fast_reconnect(monkeypatch):
    """Loopback groups that restart or start late retry after 50 ms
    instead of the deployment schedule's 200 ms."""
    from repro.transport import tcp

    monkeypatch.setattr(tcp, "RECONNECT_BASE_S", 0.05)
