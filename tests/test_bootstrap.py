"""Deployment bootstrap: descriptors and key provisioning."""

import json

import pytest

from repro.transport.bootstrap import (
    load_session_config,
    main as keygen_main,
    provision,
    read_group_descriptor,
    read_keystore,
    write_group_descriptor,
)
from repro.transport.tcp import PeerAddress


@pytest.fixture
def descriptor(tmp_path):
    path = tmp_path / "group.json"
    addresses = [PeerAddress("10.0.0.%d" % (i + 1), 4800 + i) for i in range(4)]
    write_group_descriptor(path, addresses)
    return path, addresses


class TestDescriptor:
    def test_roundtrip(self, descriptor):
        path, addresses = descriptor
        assert read_group_descriptor(path) == addresses

    def test_rejects_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="JSON"):
            read_group_descriptor(path)

    def test_rejects_wrong_version(self, tmp_path):
        path = tmp_path / "v9.json"
        path.write_text(json.dumps({"version": 9, "processes": []}))
        with pytest.raises(ValueError, match="version"):
            read_group_descriptor(path)

    def test_rejects_empty_group(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"version": 1, "processes": []}))
        with pytest.raises(ValueError, match="no processes"):
            read_group_descriptor(path)

    def test_rejects_bad_port(self, tmp_path):
        path = tmp_path / "port.json"
        path.write_text(
            json.dumps(
                {"version": 1, "processes": [{"host": "h", "port": 99999}]}
            )
        )
        with pytest.raises(ValueError, match="malformed"):
            read_group_descriptor(path)


class TestProvision:
    def test_writes_one_key_file_per_process(self, descriptor, tmp_path):
        path, _ = descriptor
        written = provision(path, tmp_path / "keys", seed=b"t")
        assert len(written) == 4
        assert all(p.exists() for p in written)

    def test_key_files_are_private(self, descriptor, tmp_path):
        path, _ = descriptor
        written = provision(path, tmp_path / "keys", seed=b"t")
        assert written[0].stat().st_mode & 0o777 == 0o600

    def test_pairwise_keys_match_across_files(self, descriptor, tmp_path):
        path, _ = descriptor
        written = provision(path, tmp_path / "keys", seed=b"t")
        stores = [read_keystore(p)[2] for p in written]
        for i in range(4):
            for j in range(4):
                assert stores[i].key_for(j) == stores[j].key_for(i)

    def test_load_session_config(self, descriptor, tmp_path):
        path, addresses = descriptor
        written = provision(path, tmp_path / "keys", seed=b"t")
        session = load_session_config(path, written[2])
        assert session.process_id == 2
        assert session.config.n == 4
        assert session.addresses == addresses

    def test_mismatched_group_sizes_rejected(self, descriptor, tmp_path):
        path, _ = descriptor
        written = provision(path, tmp_path / "keys", seed=b"t")
        smaller = tmp_path / "smaller.json"
        write_group_descriptor(smaller, [PeerAddress("h", 1)])
        with pytest.raises(ValueError, match="group of 4"):
            load_session_config(smaller, written[0])

    def test_keygen_cli(self, descriptor, tmp_path, capsys):
        path, _ = descriptor
        assert keygen_main([str(path), "--out-dir", str(tmp_path / "out")]) == 0
        out = capsys.readouterr().out
        assert "process-3.keys.json" in out

    def test_unseeded_provision_differs_per_run(self, descriptor, tmp_path):
        path, _ = descriptor
        a = provision(path, tmp_path / "a")
        b = provision(path, tmp_path / "b")
        assert read_keystore(a[0])[2].key_for(1) != read_keystore(b[0])[2].key_for(1)
