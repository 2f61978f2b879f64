import dataclasses
import itertools
import json
import socket
import threading
import time
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from codewave import dnet
from codewave.dnet import (COMPUTED, IN_PROGRESS, PENDING, RECV_CHUNK, DemandStore,
                           DemandStoreServer, StoreClient, content_digest,
                           deposit_demand, model_digest, recv_message,
                           run_generator, run_worker, send_message,
                           signature_for)
from codewave.engine import PipelineConfig, model_bytes, parse_option_tokens, train_case
from codewave.engine import test_case as classify_case
from codewave.errors import ConfigError, ProtocolError, TransportError
from codewave.index import IndexEntry, WeaknessClass
from codewave.index import TestCaseIndex as CaseIndex
from codewave.preprocess import ShortSignalWarning

from .test_engine import valid_configs

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
        assert len(store.pending) == 1

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
        store.deposit_result(demand[0], "w1", RESULT)
        assert store.deposit("sig1", "a.c") == COMPUTED
        assert store.state("sig1") == COMPUTED

    def test_pickup_race_is_exclusive(self):
        store = DemandStore()
        store.deposit("sig1", "a.c")
        hits = []
        barrier = threading.Barrier(8)

        def grab():
            barrier.wait()
            demand = store.pickup("w")
            if demand is not None:
                hits.append(demand[0])

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
        assert again is not None and again[0] == "sig1"

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


SIGNATURES = ["s0", "s1", "s2", "s3"]
WORKERS = st.sampled_from(["w0", "w1"])
LEASE = 1.0
STORE_OPERATIONS = st.lists(st.one_of(
    st.tuples(st.just("deposit"), st.sampled_from(SIGNATURES)),
    st.tuples(st.just("pickup"), WORKERS),
    st.tuples(st.just("result"), st.sampled_from(SIGNATURES + ["ghost"]),
              WORKERS, st.sampled_from([0.0, 1.0])),
    st.tuples(st.just("harvest"),
              st.lists(st.sampled_from(SIGNATURES + ["ghost"]), max_size=5)),
    st.tuples(st.just("advance"), st.sampled_from([0.25, 0.5, 1.0, 1.5])),
), max_size=40)


class TestStoreLifecycle:
    """Drawn sequences of store calls against the lifecycle the store
    documents, with the lease clock driven by the test."""

    @settings(deadline=None, max_examples=200)
    @given(STORE_OPERATIONS)
    def test_drawn_operations_keep_the_documented_lifecycle(self, operations):
        clock = [0.0]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dnet.time, "monotonic", lambda: clock[0])
            store = DemandStore(lease_timeout=LEASE)
            states, expiries, results, discarded = {}, {}, {}, []
            deposited, ever_leased = [], set()
            for operation, *args in operations:
                if operation == "deposit":
                    (s,) = args
                    # a known signature's deposit returns its current state
                    assert store.deposit(s, f"{s}.c") == states.get(s, PENDING)
                    if s not in states:
                        states[s] = PENDING
                        deposited.append(s)
                elif operation == "pickup":
                    self._pickup(store, args[0], clock[0], states, expiries,
                                 deposited, ever_leased)
                elif operation == "result":
                    s, worker, value = args
                    if s not in states:
                        with pytest.raises(ProtocolError):
                            store.deposit_result(s, worker, [value])
                        continue
                    status = store.deposit_result(s, worker, [value])
                    if s not in results:  # the first result wins
                        assert status == "stored"
                        results[s], states[s] = [value], COMPUTED
                        expiries.pop(s, None)
                    elif results[s] == [value]:
                        assert status == "duplicate"
                    else:
                        assert status == "stale"
                        discarded.append((s, worker))
                    assert store.discarded == discarded
                elif operation == "harvest":
                    (asked,) = args
                    assert store.harvest(asked) == {
                        s: results[s] for s in asked if s in results}
                else:
                    clock[0] += args[0]
                assert {s: store.state(s) for s in SIGNATURES} == {
                    s: states.get(s) for s in SIGNATURES}

    @staticmethod
    def _pickup(store, worker, now, states, expiries, deposited, ever_leased):
        expired = {s for s, expiry in expiries.items() if expiry <= now}
        held = set(expiries) - expired  # under an unexpired lease
        waiting = expired | {s for s, state in states.items() if state == PENDING}
        leased = store.pickup(worker)
        if not waiting:
            assert leased is None
            return
        s, path, content_kind = leased
        assert (path, content_kind) == (f"{s}.c", "source")
        assert s not in held  # never two unexpired leases on one signature
        assert states[s] != COMPUTED  # computed work is never leased again
        if waiting & ever_leased:  # an expired lease goes before new work
            assert s in ever_leased
        else:  # and new work goes in deposit order
            assert s == next(d for d in deposited if d in waiting)
        for e in expired:
            states[e] = PENDING
            del expiries[e]
        states[s], expiries[s] = IN_PROGRESS, now + LEASE
        ever_leased.add(s)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text()
    | st.floats(allow_nan=False),  # Infinity is JSON to this codec, NaN != NaN
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12)
JSON_OBJECTS = st.dictionaries(st.text(), JSON_VALUES, max_size=4)


def frame(message) -> bytes:
    body = json.dumps(message, separators=(",", ":")).encode("utf-8")
    return len(body).to_bytes(4, "big") + body


def padded(size: int) -> dict:
    """An object whose frame body is exactly `size` bytes."""
    return {"pad": "x" * (size - len('{"pad":""}'))}


class TestServerLifecycle:
    def test_a_started_server_stops_within_a_short_poll(self):
        started = time.monotonic()
        with DemandStoreServer():
            pass
        assert time.monotonic() - started < 0.2

    def test_stop_of_a_server_never_started_returns(self):
        stopper = threading.Thread(target=DemandStoreServer().stop, daemon=True)
        stopper.start()
        stopper.join(timeout=5)
        assert not stopper.is_alive()


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
        b'{"type": "SHUTDOWN", "payload": {}}',
        b'{"type": "DEPOSIT", "signature": "s1", "payload": {"path": 5}}',
        b'{"type": "DEPOSIT", "signature": "s1", "payload": {"path": ["a"]}}',
        b'{"type": "DEPOSIT", "signature": "s1", "payload": {"path": {"x": 1}}}',
        b'{"type": "DEPOSIT", "signature": "s1",'
        b' "payload": {"path": "a.c", "content_kind": 7}}',
        pytest.param(b"[" * 100000 + b"]" * 100000, id="nested-100000-deep"),
    ])
    def test_malformed_frame_gets_error_and_connection_lives(self, body):
        with DemandStoreServer() as server:
            with socket.create_connection(server.address, timeout=10) as sock:
                sock.sendall(len(body).to_bytes(4, "big") + body)
                assert recv_message(sock)["type"] == "ERROR"
                send_message(sock, {"type": "DEPOSIT", "signature": "s2",
                                    "payload": {"path": "b.c"}})
                assert recv_message(sock)["payload"] == {"state": PENDING}
            assert list(server.store.pending) == ["s2"]

    def test_huge_length_prefix_is_read_in_bounded_chunks(self):
        class Feed:
            """A socket holding a 4 GiB length prefix and then EOF."""

            def __init__(self):
                self.data, self.asked = b"\xff\xff\xff\xff", []

            def recv(self, n):
                self.asked.append(n)
                chunk, self.data = self.data[:n], self.data[n:]
                return chunk

        feed = Feed()
        with pytest.raises(ConnectionError):
            recv_message(feed)
        assert feed.asked and max(feed.asked) <= RECV_CHUNK

    @settings(deadline=None, max_examples=50)
    @given(messages=st.lists(JSON_OBJECTS, min_size=1, max_size=4),
           chunks=st.lists(st.integers(1, 2 * RECV_CHUNK), min_size=1, max_size=4))
    @example(messages=[padded(RECV_CHUNK - 1), padded(RECV_CHUNK)], chunks=[4093])
    @example(messages=[padded(RECV_CHUNK + 1), {"type": "ACK"}], chunks=[RECV_CHUNK])
    @example(messages=[padded(RECV_CHUNK)], chunks=[RECV_CHUNK + 4])
    def test_frames_sent_in_any_chunks_read_back_equal(self, messages, chunks):
        data = b"".join(frame(message) for message in messages)

        def send():
            offsets = itertools.accumulate(itertools.cycle(chunks), initial=0)
            for lo, hi in itertools.pairwise(offsets):
                if lo >= len(data):
                    return
                sender.sendall(data[lo:hi])

        sender, receiver = socket.socketpair()
        with sender, receiver:
            for sock in (sender, receiver):
                sock.settimeout(5)  # a reader that reads past its frame hangs
            thread = threading.Thread(target=send, daemon=True)
            thread.start()
            assert [recv_message(receiver) for _ in messages] == messages
            thread.join(timeout=5)
            assert not thread.is_alive()

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

    def test_a_retrained_model_is_not_served_the_old_models_rows(self, corpus):
        root, index = corpus
        model_a = train_case(index, CFG, root)
        # the same files and flags, each file labelled with the next class
        rotated = index.entries[4:] + index.entries[:4]
        model_b = train_case(CaseIndex(index.case_name, index.case_version, [
            dataclasses.replace(entry, classes=other.classes)
            for entry, other in zip(index.entries, rotated)], mode="train"),
            CFG, root)
        test_index = index.with_mode("test")
        expected = [classify_case(test_index, model, CFG, root)
                    for model in (model_a, model_b)]
        assert expected[0] != expected[1]
        with DemandStoreServer() as server:
            host, port = server.address
            reports = []
            for i, model in enumerate((model_a, model_b)):  # one store, both runs
                worker = threading.Thread(
                    target=run_worker,
                    args=(host, port, model, CFG, root, f"w{i}"),
                    kwargs={"idle_limit": 40, "poll_interval": 0.01},
                    daemon=True)
                worker.start()
                reports.append(run_generator(host, port, test_index, model,
                                             CFG, root, timeout=30))
                worker.join(timeout=10)
        assert reports == expected

    def test_model_digest_is_the_digest_of_the_trained_model_file(
            self, corpus, tmp_path):
        root, index = corpus
        nlp_cfg = parse_option_tokens(["-cweid", "-char", "-bigram", "-mle"])
        signal_model, nlp_models = (train_case(index, cfg, root)
                                    for cfg in (CFG, nlp_cfg))
        # as `codewave train` saves them
        (tmp_path / "model.cwts").write_bytes(model_bytes(signal_model))
        (tmp_path / "model.cwnm").write_bytes(model_bytes(nlp_models))
        for model, name in ((signal_model, "model.cwts"),
                            (nlp_models, "model.cwnm")):
            assert model_digest(model) == content_digest(
                (tmp_path / name).read_bytes())

    def test_generator_never_asks_again_for_a_harvested_result(
            self, corpus, monkeypatch):
        root, index = corpus
        index = index.with_mode("test")
        model = train_case(index.with_mode("train"), CFG, root)
        polls = []  # (signatures asked for, signatures returned)
        harvest = StoreClient.harvest

        def harvest_after_one_more_result(client, signatures):
            demand = server.store.pickup("w0")  # a worker serves one demand
            if demand is not None:
                server.store.deposit_result(demand[0], "w0",
                                            [0.0, 1.0, 2.0])
            computed = harvest(client, signatures)
            polls.append((list(signatures), set(computed)))
            return computed
        monkeypatch.setattr(StoreClient, "harvest", harvest_after_one_more_result)
        with DemandStoreServer() as server:
            host, port = server.address
            warnings = run_generator(host, port, index, model, CFG, root,
                                     poll_interval=0.0, timeout=5)
        assert len(warnings) == len(polls) == len(index.entries)
        seen = set()
        for asked, returned in polls:
            assert not seen & set(asked)
            seen |= returned
        assert len(seen) == len(index.entries)

    def test_timeout_counts_time_without_a_new_result(self, corpus, monkeypatch):
        root, index = corpus
        index = index.with_mode("test")
        model = train_case(index.with_mode("train"), CFG, root)
        monolithic = classify_case(index, model, CFG, root)
        scores = dnet.engine._scores

        def slow_scores(*args):
            time.sleep(0.1)
            return scores(*args)
        monkeypatch.setattr(dnet.engine, "_scores", slow_scores)
        with DemandStoreServer() as server:
            host, port = server.address
            worker = threading.Thread(
                target=run_worker, args=(host, port, model, CFG, root, "w0"),
                kwargs={"idle_limit": 40, "poll_interval": 0.01}, daemon=True)
            worker.start()
            started = time.monotonic()
            # 12 files at 0.1 s each: the whole run outlasts the timeout
            distributed = run_generator(host, port, index, model, CFG, root,
                                        timeout=0.5)
            assert time.monotonic() - started > 0.5
            worker.join(timeout=10)
        assert distributed == monolithic


# the corpus fixture is only read, so every drawn config may share it
@settings(deadline=None, max_examples=30,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cfg=valid_configs())
def test_every_drawn_config_runs_the_same_distributed(corpus, cfg):
    root, index = corpus
    cfg = dataclasses.replace(cfg, class_kind="cwe")  # the corpus's classes
    test_index = index.with_mode("test")
    with warnings.catch_warnings():
        # too many wavelet levels for a 512-byte file leave it as it is
        warnings.simplefilter("ignore", ShortSignalWarning)
        model = train_case(index, cfg, root)
        local = classify_case(test_index, model, cfg, root)
        with DemandStoreServer() as server:
            host, port = server.address
            digest = model_digest(model)
            for entry in test_index.entries:  # so the worker finds work at once
                deposit_demand(server.store, index.case_name, entry.path,
                               (root / entry.path).read_bytes(), cfg,
                               model_digest=digest)
            worker = threading.Thread(
                target=run_worker, args=(host, port, model, cfg, root, "w0"),
                kwargs={"idle_limit": 1}, daemon=True)
            worker.start()
            distributed = run_generator(host, port, test_index, model, cfg,
                                        root, poll_interval=0.01, timeout=30)
            worker.join(timeout=10)
            assert not worker.is_alive()
    assert list(map(repr, distributed)) == list(map(repr, local))


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
            assert server.store.state("sig1") == PENDING  # not leased

    def test_worker_with_a_median_model_and_mean_flags_leases_nothing(
            self, corpus):
        root, index = corpus
        model = train_case(index, dataclasses.replace(CFG, cluster_kind="median"),
                           root)
        with DemandStoreServer() as server:
            server.store.deposit("sig1", "c0_0.bin")
            host, port = server.address
            with pytest.raises(ConfigError, match="median centroids"):
                run_worker(host, port, model, CFG, root, "w0", idle_limit=1)
            assert server.store.state("sig1") == PENDING  # not leased

    def test_worker_refuses_a_path_outside_the_root(self, corpus, monkeypatch):
        root, index = corpus
        model = train_case(index, CFG, root)
        # both name a real corpus file, so only the check stops the read
        for path in (str(root / "c0_0.bin"), f"../{root.name}/c0_0.bin"):
            read = []
            monkeypatch.setattr(Path, "read_bytes",
                                lambda self: read.append(self))
            with DemandStoreServer() as server:
                server.store.deposit("sig1", path)
                host, port = server.address
                assert run_worker(host, port, model, CFG, root, "w0",
                                  idle_limit=1) == 1
                error = server.store.harvest(["sig1"])["sig1"]["error"]
            assert error.startswith(f"{path}: ") and "corpus root" in error
            assert read == []
            monkeypatch.undo()

    def test_worker_that_meets_a_bad_demand_keeps_serving(self, corpus):
        root, index = corpus
        model = train_case(index, CFG, root)
        with DemandStoreServer() as server:
            server.store.deposit("bad", "absent.bin")  # leased first
            server.store.deposit("good", "c0_0.bin")
            host, port = server.address
            assert run_worker(host, port, model, CFG, root, "w0",
                              idle_limit=1) == 2
            results = server.store.harvest(["bad", "good"])
        assert results["bad"]["error"].startswith("absent.bin: ")
        assert len(results["good"]) == 3
        assert all(type(score) is float for score in results["good"])

    def test_generator_fails_fast_on_a_worker_error(self, corpus,
                                                    tmp_path_factory):
        root, index = corpus
        model = train_case(index, CFG, root)
        # the worker's root lacks the first file of the index
        worker_root = tmp_path_factory.mktemp("worker-root")
        missing = index.entries[0].path
        for entry in index.entries[1:]:
            (worker_root / entry.path).write_bytes((root / entry.path).read_bytes())
        with DemandStoreServer() as server:
            host, port = server.address
            worker = threading.Thread(
                target=run_worker, args=(host, port, model, CFG, worker_root, "w0"),
                kwargs={"idle_limit": 40, "poll_interval": 0.01}, daemon=True)
            worker.start()
            started = time.monotonic()
            with pytest.raises(ProtocolError, match=f"worker error on {missing}"):
                run_generator(host, port, index.with_mode("test"), model, CFG,
                              root, timeout=300)
            assert time.monotonic() - started < 10
            worker.join(timeout=10)

    @pytest.mark.parametrize("row", [[0.0, 1.0], [0.0, {}, 1.0], [0.0, [1.0], 2.0]])
    def test_harvested_row_not_one_score_per_class_is_protocol_error(
            self, corpus, row):
        root, index = corpus
        index = index.with_mode("test")
        model = train_case(index.with_mode("train"), CFG, root)
        with DemandStoreServer() as server:
            deposit_rows(server, index, model, root, lambda _: row)
            host, port = server.address
            with pytest.raises(ProtocolError):
                run_generator(host, port, index, model, CFG, root, timeout=5)

    @pytest.mark.parametrize("row", [[None, None, None], [0.0, True, 1.0],
                                     [0.0, "0.5", 1.0], [0.0, 10 ** 400, 1.0]])
    def test_harvested_score_that_is_not_a_number_is_protocol_error(
            self, corpus, row):
        root, index = corpus
        index = index.with_mode("test")
        model = train_case(index.with_mode("train"), CFG, root)
        with DemandStoreServer() as server:
            deposit_rows(server, index, model, root, lambda _: row)
            host, port = server.address
            with pytest.raises(ProtocolError, match="score is"):
                run_generator(host, port, index, model, CFG, root, timeout=5)

    def test_generator_without_workers_times_out_naming_the_missing(
            self, corpus):
        root, index = corpus
        index = index.with_mode("test")
        model = train_case(index.with_mode("train"), CFG, root)
        with DemandStoreServer() as server:
            host, port = server.address
            with pytest.raises(TransportError, match="with 12 results missing"):
                run_generator(host, port, index, model, CFG, root, timeout=0.2)

    def test_infinite_score_is_accepted(self, corpus):
        root, index = corpus
        index = index.with_mode("test")
        model = train_case(index.with_mode("train"), CFG, root)
        with DemandStoreServer() as server:
            deposit_rows(server, index, model, root,
                         lambda i: [float("inf"), float(i), 100.0])
            host, port = server.address
            warnings = run_generator(host, port, index, model, CFG, root,
                                     timeout=5)
        assert [w.score for w in warnings] == [float(i) for i in range(12)]


def deposit_rows(server, index, model, root, row_of):
    """Store a computed score row for each index entry, as a worker would."""
    for i, entry in enumerate(index.entries):
        signature, _ = deposit_demand(
            server.store, index.case_name, entry.path,
            (root / entry.path).read_bytes(), CFG,
            model_digest=model_digest(model))
        server.store.pickup("w0")
        server.store.deposit_result(signature, "w0", row_of(i))
