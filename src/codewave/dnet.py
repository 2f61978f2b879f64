"""Demand-driven distributed evaluation.

A generator deposits one demand per file to scan into a demand store;
workers pick up pending demands, score the file against their local model,
and deposit its score row back under the same signature; the generator
harvests the rows and thresholds them with `test_case`'s own function, so
it assembles the very same report a monolithic run would have produced.
Results are cached by signature, so re-depositing already-computed work
returns instantly.

Training is not distributed: workers are assumed to hold the training set
and the test files locally, and their pipeline configuration is fixed
out-of-band rather than carried inside demands.

Wire protocol (docs/wire-protocol.md): 4-byte big-endian length prefix,
UTF-8 JSON body with fields {type, signature, payload}.
"""

from __future__ import annotations

import hashlib
import json
import logging
import socket
import socketserver
import threading
import time
from collections import OrderedDict
from pathlib import Path
from typing import Optional

import numpy as np

from . import engine
from .engine import ModelType, PipelineConfig, ScanWarning
from .errors import ProtocolError, TransportError
from .index import TestCaseIndex, check_corpus_path

log = logging.getLogger(__name__)

PENDING = "pending"
IN_PROGRESS = "in_progress"
COMPUTED = "computed"

DEFAULT_LEASE = 60.0

# the most one sock.recv call asks for: recv(n) allocates n bytes before any
# arrive, so a peer's length prefix alone must not size the buffer
RECV_CHUNK = 64 * 1024


def signature_for(case: str, path: str, option_string: str,
                  content_digest: str, model_digest: str = "") -> str:
    """Cache key of one unit of work; changing the file content, the
    configuration or the model invalidates previously computed results."""
    text = "\x00".join((case, path, option_string, content_digest, model_digest))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def content_digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def model_digest(model: ModelType) -> str:
    """sha256 of the model file (CWTS or CWNM) `codewave train` writes."""
    return hashlib.sha256(engine.model_bytes(model)).hexdigest()


def deposit_demand(store: "DemandStore | StoreClient", case: str, path: str,
                   data: bytes, cfg: PipelineConfig,
                   content_kind: str = "source",
                   model_digest: str = "") -> tuple[str, str]:
    """Compute the signature for one file under one configuration and
    model and deposit it, in a local or remote store; returns (signature,
    state). Already-computed work comes back as such at once, never
    recomputed."""
    signature = signature_for(case, path, cfg.option_string,
                              content_digest(data), model_digest)
    return signature, store.deposit(signature, path, content_kind)


class DemandStore:
    """The single authority over demand state transitions.

    A demand's state is the dict that holds it: `pending` (path,
    content_kind), `leased` (path, content_kind, worker, expiry) or
    `results` (the row as sent); each transition moves it to the next.
    Leases are all `lease_timeout` long, so they run out in the order of
    `leased`. (OrderedDicts: a plain dict slows down on pops from its front.)

    All mutating calls take the store lock, so transitions are atomic no
    matter how many worker connections race. A worker that picks up a
    demand and dies simply lets the lease run out, after which the demand
    is pending again, ahead of the demands never leased.
    """

    def __init__(self, lease_timeout: float = DEFAULT_LEASE):
        self.lease_timeout = lease_timeout
        self.pending: OrderedDict[str, tuple[str, str]] = OrderedDict()
        self.leased: OrderedDict[str, tuple[str, str, str, float]] = OrderedDict()
        self.results: dict[str, list | dict] = {}
        self.discarded: list[tuple[str, str]] = []
        self._lock = threading.Lock()

    def state(self, signature: str) -> Optional[str]:
        """The demand's state, or None for an unknown signature."""
        with self._lock:
            return self._state(signature)

    def _state(self, signature: str) -> Optional[str]:
        if signature in self.results:
            return COMPUTED
        if signature in self.leased:
            return IN_PROGRESS
        return PENDING if signature in self.pending else None

    def deposit(self, signature: str, path: str,
                content_kind: str = "source") -> str:
        """Insert new work, or report the state of already-known work."""
        with self._lock:
            state = self._state(signature)
            if state is None:
                self.pending[signature] = (path, content_kind)
            return state or PENDING

    def pickup(self, worker_id: str) -> Optional[tuple[str, str, str]]:
        """Atomically lease one pending demand to the worker, if any: its
        (signature, path, content_kind). Expired leases go first."""
        with self._lock:
            now = time.monotonic()  # under the lock: expiries stay in order
            expired = []
            for signature, (_, _, worker, expiry) in self.leased.items():
                if expiry > now:
                    break
                log.info("lease expired on %s (worker %s)", signature[:12], worker)
                expired.append(signature)
            for signature in reversed(expired):
                self.pending[signature] = self.leased.pop(signature)[:2]
                self.pending.move_to_end(signature, last=False)
            if not self.pending:
                return None
            signature, (path, content_kind) = self.pending.popitem(last=False)
            self.leased[signature] = (path, content_kind, worker_id,
                                      now + self.lease_timeout)
            return signature, path, content_kind

    def deposit_result(self, signature: str, worker_id: str,
                       result: list) -> str:
        """Store a computed result; the first writer wins.

        Late duplicates with the same value are acknowledged as duplicates;
        conflicting late values are discarded and recorded.
        """
        with self._lock:
            if signature in self.results:
                if self.results[signature] == result:
                    return "duplicate"
                self.discarded.append((signature, worker_id))
                log.warning("discarding conflicting late result for %s from %s",
                            signature[:12], worker_id)
                return "stale"
            if (self.leased.pop(signature, None) is None
                    and self.pending.pop(signature, None) is None):
                raise ProtocolError(
                    f"result for unknown signature {signature[:12]}")
            self.results[signature] = result
            return "stored"

    def harvest(self, signatures: list[str]) -> dict[str, list]:
        """Return the subset of requested results that are computed."""
        with self._lock:
            return {s: self.results[s] for s in signatures if s in self.results}


# --- framing -------------------------------------------------------------------

def send_message(sock: socket.socket, message: dict) -> None:
    body = json.dumps(message, separators=(",", ":")).encode("utf-8")
    sock.sendall(len(body).to_bytes(4, "big") + body)


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    chunks = []
    while n:
        chunk = sock.recv(min(n, RECV_CHUNK))
        if not chunk:
            raise ConnectionError("peer closed the connection")
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


def recv_message(sock: socket.socket) -> dict:
    """One frame's JSON body; ValueError for a whole frame that is not
    UTF-8 JSON, nesting too deep to decode included."""
    length = int.from_bytes(_recv_exact(sock, 4), "big")
    try:
        return json.loads(_recv_exact(sock, length).decode("utf-8"))
    except RecursionError:
        raise ValueError("frame body nests too deeply") from None


# --- server ----------------------------------------------------------------------

class _StoreHandler(socketserver.BaseRequestHandler):
    def handle(self):
        store: DemandStore = self.server.store  # type: ignore[attr-defined]
        while True:
            try:
                message = recv_message(self.request)
            except ConnectionError:
                return
            except ValueError:  # a whole frame, but not UTF-8 JSON
                message = None
            try:
                reply = self._dispatch(store, message)
            except ProtocolError as exc:
                signature = (message.get("signature")
                             if isinstance(message, dict) else None)
                reply = {"type": "ERROR", "signature": signature,
                         "payload": {"message": str(exc)}}
            send_message(self.request, reply)

    @staticmethod
    def _dispatch(store: DemandStore, message) -> dict:
        if not isinstance(message, dict):
            raise ProtocolError("message body must be a JSON object")
        kind = message.get("type")
        signature = message.get("signature")
        payload = message.get("payload") or {}
        if not isinstance(payload, dict):
            raise ProtocolError("message payload must be a JSON object")
        if kind in ("DEPOSIT", "RESULT") and not (
                isinstance(signature, str) and signature):
            raise ProtocolError(f"{kind} needs a signature string")
        if kind == "DEPOSIT":
            path = payload.get("path", "")
            content_kind = payload.get("content_kind", "source")
            if not (isinstance(path, str) and isinstance(content_kind, str)):
                raise ProtocolError("DEPOSIT path and content_kind must be strings")
            state = store.deposit(signature, path, content_kind)
            return {"type": "ACK", "signature": signature,
                    "payload": {"state": state}}
        if kind == "PICKUP":
            leased = store.pickup(payload.get("worker_id", "anonymous"))
            if leased is None:
                return {"type": "ACK", "signature": None, "payload": None}
            signature, path, content_kind = leased
            return {"type": "ACK", "signature": signature,
                    "payload": {"path": path, "content_kind": content_kind}}
        if kind == "RESULT":
            status = store.deposit_result(
                signature, payload.get("worker_id", "anonymous"),
                payload.get("result", []))
            return {"type": "ACK", "signature": signature,
                    "payload": {"status": status}}
        if kind == "HARVEST":
            signatures = payload.get("signatures", [])
            if not (isinstance(signatures, list)
                    and all(isinstance(s, str) for s in signatures)):
                raise ProtocolError("HARVEST needs a list of signature strings")
            return {"type": "ACK", "signature": None,
                    "payload": {"computed": store.harvest(signatures)}}
        raise ProtocolError(f"unknown message type {kind!r}")


class DemandStoreServer(socketserver.ThreadingTCPServer):
    """Threaded TCP front end for one DemandStore: `serve_forever` in the
    foreground, or `start`/`stop` (or a with block) on a daemon thread."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 lease_timeout: float = DEFAULT_LEASE):
        super().__init__((host, port), _StoreHandler)
        self.store = DemandStore(lease_timeout=lease_timeout)
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> tuple[str, int]:
        return self.server_address[:2]

    def start(self) -> "DemandStoreServer":
        # shutdown() waits for the loop's next poll, so the default 0.5 s
        # interval would make every stop take that long
        self._thread = threading.Thread(target=self.serve_forever, args=(0.02,),
                                        name="demand-store", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread is not None:  # with no loop, shutdown() waits forever
            self.shutdown()
            self._thread.join(timeout=5)
        self.server_close()

    def __enter__(self) -> "DemandStoreServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


# --- client ----------------------------------------------------------------------

class StoreClient:
    """One persistent connection speaking the framed JSON protocol."""

    def __init__(self, host: str, port: int, timeout: float = 30.0):
        try:
            self._sock = socket.create_connection((host, port), timeout=timeout)
        except OSError as exc:
            raise TransportError(f"demand store {host}:{port} unreachable: {exc}") \
                from exc

    def close(self) -> None:
        self._sock.close()

    def __enter__(self) -> "StoreClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _call(self, message: dict) -> dict:
        try:
            send_message(self._sock, message)
            reply = recv_message(self._sock)
        except OSError as exc:
            raise TransportError(f"demand store connection failed: {exc}") from exc
        if reply.get("type") == "ERROR":
            raise ProtocolError(reply["payload"]["message"])
        return reply

    def deposit(self, signature: str, path: str,
                content_kind: str = "source") -> str:
        reply = self._call({"type": "DEPOSIT", "signature": signature,
                            "payload": {"path": path,
                                        "content_kind": content_kind}})
        return reply["payload"]["state"]

    def pickup(self, worker_id: str) -> Optional[tuple[str, str, str]]:
        reply = self._call({"type": "PICKUP",
                            "payload": {"worker_id": worker_id}})
        if reply["signature"] is None:
            return None
        payload = reply["payload"]
        return reply["signature"], payload["path"], payload["content_kind"]

    def deposit_result(self, signature: str, worker_id: str,
                       result: list) -> str:
        reply = self._call({"type": "RESULT", "signature": signature,
                            "payload": {"worker_id": worker_id,
                                        "result": result}})
        return reply["payload"]["status"]

    def harvest(self, signatures: list[str]) -> dict[str, list]:
        reply = self._call({"type": "HARVEST",
                            "payload": {"signatures": signatures}})
        return reply["payload"]["computed"]


# --- roles -----------------------------------------------------------------------

def run_worker(host: str, port: int, model: ModelType, cfg: PipelineConfig,
               root, worker_id: str, poll_interval: float = 0.05,
               idle_limit: Optional[int] = None) -> int:
    """Score demands until told to stop; each result is the file's row of
    `test_case`'s score matrix, or {"error": "<path>: <message>"} for a path
    outside the root or a file it cannot read or score. A model that does
    not fit `cfg` raises ConfigError before anything is leased.

    Returns the number of results deposited. With `idle_limit` set, the
    worker exits after that many consecutive empty pickups (used by batch
    runs where the store drains and nothing new will arrive).
    """
    classes = engine._model_classes(model, cfg)
    done = 0
    idle = 0
    with StoreClient(host, port) as client:
        while True:
            item = client.pickup(worker_id)
            if item is None:
                idle += 1
                if idle_limit is not None and idle >= idle_limit:
                    return done
                time.sleep(poll_interval)
                continue
            idle = 0
            signature, path, _kind = item
            try:
                check_corpus_path(path)
                result = engine._scores(cfg, model, classes, root, [path])[0].tolist()
            except (ValueError, OSError) as exc:
                result = {"error": f"{path}: {exc}"}
            client.deposit_result(signature, worker_id, result)
            done += 1


def run_generator(host: str, port: int, index: TestCaseIndex,
                  model: ModelType, cfg: PipelineConfig, root,
                  poll_interval: float = 0.05,
                  timeout: float = 300.0) -> list[ScanWarning]:
    """Deposit one demand per index entry, wait for all score rows, and
    threshold them with the function a monolithic test run ends with;
    `timeout` seconds without a new result raise TransportError.

    The returned warnings are byte-for-byte the ones a local `test_case`
    call would produce for the same corpus, model, and configuration. A
    harvested row that is not one score per class raises ProtocolError, and
    so does a worker's error result, as soon as it is harvested. The
    signatures carry the model's digest, so rows cached for another model
    are not reused (a worker running another model is not detected).
    """
    classes = engine._model_classes(model, cfg)
    digest = model_digest(model)
    paths = [entry.path for entry in index.entries]
    signatures = []  # in index order
    with StoreClient(host, port) as client:
        for entry in index.entries:
            signature, _ = deposit_demand(
                client, index.case_name, entry.path,
                (Path(root) / entry.path).read_bytes(), cfg, index.kind,
                digest)
            signatures.append(signature)
        path_of = dict(zip(signatures, paths))
        harvested: dict[str, list] = {}
        deadline = time.monotonic() + timeout
        while True:
            computed = client.harvest([s for s in path_of if s not in harvested])
            for s, result in computed.items():
                if isinstance(result, dict) and "error" in result:
                    raise ProtocolError(f"worker error on {path_of[s]}: {result['error']}")
                harvested[s] = result
            if len(harvested) >= len(path_of):
                break
            if computed:  # the timeout counts time without a new result
                deadline = time.monotonic() + timeout
            if time.monotonic() > deadline:
                raise TransportError(
                    f"distributed run timed out with "
                    f"{len(path_of) - len(harvested)} results missing")
            time.sleep(poll_interval)
    rows = [harvested[s] for s in signatures]
    if not all(isinstance(row, list) and len(row) == len(classes) for row in rows):
        raise ProtocolError(
            f"a harvested result is not one score per class ({len(classes)})")
    # JSON null, true and strings are not scores; Infinity is (an MLE n-gram
    # model gives it to content it has never seen)
    if not all(type(v) in (int, float) for row in rows for v in row):
        raise ProtocolError("a harvested score is not a number")
    try:
        scores = np.array(rows, dtype=np.float64).reshape(len(rows), len(classes))
    except OverflowError:
        raise ProtocolError("a harvested score is out of range") from None
    return engine._warnings(paths, classes, scores, cfg)
