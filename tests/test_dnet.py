import socket
import threading
import time

import pytest

from codewave.dnet import (COMPUTED, IN_PROGRESS, PENDING, DemandStore,
                           DemandStoreServer, StoreClient, content_digest,
                           deposit_demand, recv_message, run_generator,
                           run_worker, send_message, signature_for)
from codewave.engine import PipelineConfig, train_case
from codewave.engine import test_case as classify_case
from codewave.errors import ConfigError, ProtocolError, TransportError
from codewave.index import IndexEntry, WeaknessClass
from codewave.index import TestCaseIndex as CaseIndex

RESULT = [["cwe", "CWE-119", 0.125], ["cwe", "CWE-20", 0.5]]


class TestSignatures:
    def test_distinct_config_distinct_signature(self):
        a = signature_for("case", "a.c", "-raw -fft -cheb", "d1")
        b = signature_for("case", "a.c", "-raw -fft -eucl", "d1")
        assert a != b

    def test_deposit_demand_compounds_signature_and_state(self):
        store = DemandStore()
        cfg = PipelineConfig(class_kind="cwe")
        sig, state = deposit_demand(store, "case", "a.c", b"body", cfg)
        assert state == PENDING
        again, state2 = deposit_demand(store, "case", "a.c", b"body", cfg)
        assert again == sig
        assert state2 == PENDING  # not computed yet, also not duplicated
        assert len(store.demands) == 1

    def test_content_change_invalidates(self):
        a = signature_for("case", "a.c", "-raw", content_digest(b"one"))
        b = signature_for("case", "a.c", "-raw", content_digest(b"two"))
        assert a != b


class TestDemandStore:
    def test_fresh_deposit_pending(self):
        store = DemandStore()
        assert store.deposit("sig1", "a.c") == PENDING

    def test_duplicate_deposit_of_computed_is_cached(self):
        store = DemandStore()
        store.deposit("sig1", "a.c")
        demand = store.pickup("w1")
        store.deposit_result(demand.signature, "w1", RESULT)
        assert store.deposit("sig1", "a.c") == COMPUTED
        assert store.counts()[PENDING] == 0

    def test_pickup_race_is_exclusive(self):
        store = DemandStore()
        store.deposit("sig1", "a.c")
        hits = []
        barrier = threading.Barrier(8)

        def grab():
            barrier.wait()
            demand = store.pickup("w")
            if demand is not None:
                hits.append(demand.signature)

        threads = [threading.Thread(target=grab) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert hits == ["sig1"]

    def test_empty_store_pickup_none(self):
        assert DemandStore().pickup("w") is None

    def test_lease_expiry_reverts_to_pending(self):
        store = DemandStore(lease_timeout=0.05)
        store.deposit("sig1", "a.c")
        assert store.pickup("w1") is not None
        assert store.pickup("w2") is None  # still leased
        time.sleep(0.08)
        again = store.pickup("w2")
        assert again is not None and again.signature == "sig1"

    def test_result_for_unknown_signature_rejected(self):
        with pytest.raises(ProtocolError):
            DemandStore().deposit_result("ghost", "w1", RESULT)

    def test_duplicate_identical_result_idempotent(self):
        store = DemandStore()
        store.deposit("sig1", "a.c")
        store.pickup("w1")
        assert store.deposit_result("sig1", "w1", RESULT) == "stored"
        assert store.deposit_result("sig1", "w2", list(RESULT)) == "duplicate"
        assert store.discarded == []

    def test_conflicting_late_result_first_writer_wins(self):
        store = DemandStore()
        store.deposit("sig1", "a.c")
        store.pickup("w1")
        store.deposit_result("sig1", "w1", RESULT)
        other = [["cwe", "CWE-20", 9.0]]
        assert store.deposit_result("sig1", "w2", other) == "stale"
        assert store.harvest(["sig1"]) == {"sig1": RESULT}
        assert store.discarded == [("sig1", "w2")]

    def test_harvest_partial(self):
        store = DemandStore()
        store.deposit("a", "a.c")
        store.deposit("b", "b.c")
        store.pickup("w1")
        store.deposit_result("a", "w1", RESULT)
        assert store.harvest(["a", "b"]) == {"a": RESULT}
        assert store.harvest([]) == {}


class TestWireProtocol:
    def test_client_server_roundtrip(self):
        with DemandStoreServer() as server:
            host, port = server.address
            with StoreClient(host, port) as client:
                assert client.deposit("sig1", "a.c") == PENDING
                picked = client.pickup("w1")
                assert picked == ("sig1", "a.c", "source")
                assert client.deposit_result("sig1", "w1", RESULT) == "stored"
                assert client.harvest(["sig1"]) == {"sig1": RESULT}

    def test_result_for_unknown_signature_is_protocol_error(self):
        with DemandStoreServer() as server:
            host, port = server.address
            with StoreClient(host, port) as client:
                with pytest.raises(ProtocolError):
                    client.deposit_result("ghost", "w1", RESULT)

    @pytest.mark.parametrize("body", [
        b"[1, 2]", b'"DEPOSIT"', b"null", b"{not json", b"\xff\xfe",
        b'{"type": "DEPOSIT", "signature": "s1", "payload": ["a.c"]}',
        b'{"type": "DEPOSIT", "payload": {"path": "a.c"}}',
        b'{"type": "DEPOSIT", "signature": 7, "payload": {"path": "a.c"}}',
        b'{"type": "RESULT", "payload": {"result": [0.5]}}',
        b'{"type": "HARVEST", "payload": {"signatures": 5}}',
        b'{"type": "HARVEST", "payload": {"signatures": "s1"}}',
        b'{"type": "HARVEST", "payload": {"signatures": [["s1"]]}}',
    ])
    def test_malformed_frame_gets_error_and_connection_lives(self, body):
        with DemandStoreServer() as server:
            with socket.create_connection(server.address, timeout=10) as sock:
                sock.sendall(len(body).to_bytes(4, "big") + body)
                assert recv_message(sock)["type"] == "ERROR"
                send_message(sock, {"type": "DEPOSIT", "signature": "s2",
                                    "payload": {"path": "b.c"}})
                assert recv_message(sock)["payload"] == {"state": PENDING}
            assert list(server.store.demands) == ["s2"]

    def test_unreachable_store_is_transport_error(self):
        with pytest.raises(TransportError):
            StoreClient("127.0.0.1", 1)  # nothing listens on port 1


@pytest.fixture
def corpus(tmp_path):
    textures = {0: bytes([30, 35] * 256), 1: bytes([150, 180, 210] * 170),
                2: bytes([5, 250] * 256)}
    ids = ["CWE-20", "CWE-79", "CWE-119"]
    entries = []
    for class_idx in range(3):
        for file_idx in range(4):
            rel = f"c{class_idx}_{file_idx}.bin"
            body = bytearray(textures[class_idx])
            body[file_idx * 3] ^= 1
            (tmp_path / rel).write_bytes(bytes(body))
            entries.append(IndexEntry(
                rel, [(WeaknessClass.cwe(ids[class_idx]), [])]))
    return tmp_path, CaseIndex("dist", "1.0", entries, mode="train")


CFG = PipelineConfig(class_kind="cwe", fft_window=128, fft_bins=64)


class TestDistributedEquivalence:
    def test_generator_plus_workers_match_monolithic(self, corpus):
        root, index = corpus
        model = train_case(index, CFG, root)
        monolithic = classify_case(index.with_mode("test"), model, CFG, root)

        with DemandStoreServer() as server:
            host, port = server.address
            workers = [
                threading.Thread(
                    target=run_worker,
                    args=(host, port, model, CFG, root, f"w{i}"),
                    kwargs={"idle_limit": 40, "poll_interval": 0.01},
                    daemon=True)
                for i in range(4)
            ]
            for w in workers:
                w.start()
            distributed = run_generator(host, port, index.with_mode("test"),
                                        model, CFG, root, timeout=30)
            for w in workers:
                w.join(timeout=10)
        assert distributed == monolithic

    def test_cached_results_survive_second_generator_pass(self, corpus):
        root, index = corpus
        model = train_case(index, CFG, root)
        with DemandStoreServer() as server:
            host, port = server.address
            worker = threading.Thread(
                target=run_worker, args=(host, port, model, CFG, root, "w0"),
                kwargs={"idle_limit": 60, "poll_interval": 0.01}, daemon=True)
            worker.start()
            first = run_generator(host, port, index.with_mode("test"), model,
                                  CFG, root, timeout=30)
            worker.join(timeout=10)
            # no workers alive: the second pass must be served from cache
            second = run_generator(host, port, index.with_mode("test"), model,
                                   CFG, root, timeout=5)
        assert first == second


class TestRefusals:
    def test_worker_with_a_model_of_other_flags_leases_nothing(self, corpus):
        root, index = corpus
        model = train_case(index, CFG, root)
        with DemandStoreServer() as server:
            server.store.deposit("sig1", "c0_0.bin")
            host, port = server.address
            with pytest.raises(ConfigError):
                run_worker(host, port, model, PipelineConfig(class_kind="cwe"),
                           root, "w0", idle_limit=1)
            assert server.store.counts()[IN_PROGRESS] == 0
            assert server.store.counts()[PENDING] == 1

    @pytest.mark.parametrize("row", [[0.0, 1.0], [0.0, {}, 1.0], [0.0, [1.0], 2.0]])
    def test_harvested_row_not_one_score_per_class_is_protocol_error(
            self, corpus, row):
        root, index = corpus
        index = index.with_mode("test")
        model = train_case(index.with_mode("train"), CFG, root)
        with DemandStoreServer() as server:
            for entry in index.entries:
                signature, _ = deposit_demand(
                    server.store, index.case_name, entry.path,
                    (root / entry.path).read_bytes(), CFG)
                server.store.pickup("w0")
                server.store.deposit_result(signature, "w0", row)
            host, port = server.address
            with pytest.raises(ProtocolError):
                run_generator(host, port, index, model, CFG, root, timeout=5)
