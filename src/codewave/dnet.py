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
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import engine
from .engine import ModelType, PipelineConfig, ScanWarning
from .errors import ProtocolError, TransportError
from .index import TestCaseIndex

log = logging.getLogger(__name__)

PENDING = "pending"
IN_PROGRESS = "in_progress"
COMPUTED = "computed"

DEFAULT_LEASE = 60.0


def signature_for(case: str, path: str, option_string: str,
                  content_digest: str) -> str:
    """Cache key of one unit of work; changing the file content or the
    configuration invalidates previously computed results."""
    text = "\x00".join((case, path, option_string, content_digest))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def content_digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class Demand:
    signature: str
    path: str
    content_kind: str = "source"
    state: str = PENDING
    result: Optional[list] = None  # stored as the worker sent it
    worker: Optional[str] = None
    lease_expiry: Optional[float] = None


def deposit_demand(store: "DemandStore", case: str, path: str, data: bytes,
                   cfg: PipelineConfig,
                   content_kind: str = "source") -> tuple[str, str]:
    """Compute the signature for one file under one configuration and
    deposit it; returns (signature, state). Already-computed work comes
    back as such immediately, so callers never recompute cached warnings."""
    signature = signature_for(case, path, cfg.option_string,
                              content_digest(data))
    return signature, store.deposit(signature, path, content_kind)


@dataclass
class DemandStore:
    """The single authority over demand state transitions.

    All mutating calls take the store lock, so transitions are atomic no
    matter how many worker connections race. A worker that picks up a
    demand and dies simply lets the lease run out, after which the demand
    is pending again.
    """

    lease_timeout: float = DEFAULT_LEASE
    demands: dict[str, Demand] = field(default_factory=dict)
    discarded: list[tuple[str, str]] = field(default_factory=list)

    def __post_init__(self):
        self._lock = threading.Lock()

    def deposit(self, signature: str, path: str,
                content_kind: str = "source") -> str:
        """Insert new work, or report the state of already-known work."""
        with self._lock:
            demand = self.demands.get(signature)
            if demand is not None:
                return demand.state
            self.demands[signature] = Demand(signature, path, content_kind)
            return PENDING

    def pickup(self, worker_id: str) -> Optional[Demand]:
        """Atomically lease one pending demand to the worker, if any."""
        now = time.monotonic()
        with self._lock:
            for demand in self.demands.values():
                if (demand.state == IN_PROGRESS
                        and demand.lease_expiry is not None
                        and demand.lease_expiry <= now):
                    log.info("lease expired on %s (worker %s)",
                             demand.signature[:12], demand.worker)
                    demand.state = PENDING
                    demand.worker = None
                    demand.lease_expiry = None
            for demand in self.demands.values():
                if demand.state == PENDING:
                    demand.state = IN_PROGRESS
                    demand.worker = worker_id
                    demand.lease_expiry = now + self.lease_timeout
                    return Demand(**vars(demand))
            return None

    def deposit_result(self, signature: str, worker_id: str,
                       result: list) -> str:
        """Store a computed result; the first writer wins.

        Late duplicates with the same value are acknowledged as duplicates;
        conflicting late values are discarded and recorded.
        """
        with self._lock:
            demand = self.demands.get(signature)
            if demand is None:
                raise ProtocolError(
                    f"result for unknown signature {signature[:12]}")
            if demand.state == COMPUTED:
                if demand.result == result:
                    return "duplicate"
                self.discarded.append((signature, worker_id))
                log.warning("discarding conflicting late result for %s from %s",
                            signature[:12], worker_id)
                return "stale"
            demand.state = COMPUTED
            demand.result = result
            demand.worker = worker_id
            demand.lease_expiry = None
            return "stored"

    def harvest(self, signatures: list[str]) -> dict[str, list]:
        """Return the subset of requested results that are computed."""
        with self._lock:
            return {
                s: self.demands[s].result
                for s in signatures
                if s in self.demands and self.demands[s].state == COMPUTED
            }

    def counts(self) -> dict[str, int]:
        with self._lock:
            out = {PENDING: 0, IN_PROGRESS: 0, COMPUTED: 0}
            for demand in self.demands.values():
                out[demand.state] += 1
            return out


# --- framing -------------------------------------------------------------------

def send_message(sock: socket.socket, message: dict) -> None:
    body = json.dumps(message, separators=(",", ":")).encode("utf-8")
    sock.sendall(len(body).to_bytes(4, "big") + body)


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    chunks = []
    while n:
        chunk = sock.recv(n)
        if not chunk:
            raise ConnectionError("peer closed the connection")
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


def recv_message(sock: socket.socket) -> dict:
    length = int.from_bytes(_recv_exact(sock, 4), "big")
    return json.loads(_recv_exact(sock, length).decode("utf-8"))


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
            state = store.deposit(signature, payload.get("path", ""),
                                  payload.get("content_kind", "source"))
            return {"type": "ACK", "signature": signature,
                    "payload": {"state": state}}
        if kind == "PICKUP":
            demand = store.pickup(payload.get("worker_id", "anonymous"))
            if demand is None:
                return {"type": "ACK", "signature": None, "payload": None}
            return {"type": "ACK", "signature": demand.signature,
                    "payload": {"path": demand.path,
                                "content_kind": demand.content_kind}}
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
            computed = store.harvest(signatures)
            counts = store.counts()
            return {"type": "ACK", "signature": None,
                    "payload": {"computed": computed,
                                "pending": counts[PENDING] + counts[IN_PROGRESS]}}
        raise ProtocolError(f"unknown message type {kind!r}")


class DemandStoreServer:
    """Threaded TCP front end for one DemandStore."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 lease_timeout: float = DEFAULT_LEASE):
        self.store = DemandStore(lease_timeout=lease_timeout)

        class _Server(socketserver.ThreadingTCPServer):
            allow_reuse_address = True
            daemon_threads = True

        self._server = _Server((host, port), _StoreHandler)
        self._server.store = self.store  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> tuple[str, int]:
        return self._server.server_address[:2]

    def start(self) -> "DemandStoreServer":
        self._thread = threading.Thread(target=self._server.serve_forever,
                                        name="demand-store", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)

    def serve_forever(self) -> None:
        self._server.serve_forever()

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
               idle_limit: Optional[int] = None, throttle: float = 0.0) -> int:
    """Score demands until told to stop; each result is the file's row of
    `test_case`'s score matrix. A model that does not fit `cfg` raises
    ConfigError before anything is leased.

    Returns the number of results deposited. With `idle_limit` set, the
    worker exits after that many consecutive empty pickups (used by batch
    runs where the store drains and nothing new will arrive). `throttle`
    sleeps that many seconds per demand, which keeps a worker slow enough
    to watch lease recovery in action.
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
            if throttle:
                time.sleep(throttle)
            row = engine._scores(cfg, model, classes, root, [path])[0]
            client.deposit_result(signature, worker_id, row.tolist())
            done += 1


def run_generator(host: str, port: int, index: TestCaseIndex,
                  model: ModelType, cfg: PipelineConfig, root,
                  poll_interval: float = 0.05,
                  timeout: float = 300.0) -> list[ScanWarning]:
    """Deposit one demand per index entry, wait for all score rows, and
    threshold them with the function a monolithic test run ends with.

    The returned warnings are byte-for-byte the ones a local `test_case`
    call would produce for the same corpus, model, and configuration. A
    harvested row of the wrong length raises ProtocolError.
    """
    classes = engine._model_classes(model, cfg)
    paths = [entry.path for entry in index.entries]
    signatures = []  # in index order
    config = cfg.option_string
    with StoreClient(host, port) as client:
        for entry in index.entries:
            digest = content_digest((Path(root) / entry.path).read_bytes())
            signature = signature_for(index.case_name, entry.path, config, digest)
            client.deposit(signature, entry.path, entry.content_kind)
            signatures.append(signature)
        wanted = len(set(signatures))
        deadline = time.monotonic() + timeout
        while True:
            harvested = client.harvest(signatures)
            if len(harvested) >= wanted:
                break
            if time.monotonic() > deadline:
                raise TransportError(
                    f"distributed run timed out with "
                    f"{wanted - len(harvested)} results missing")
            time.sleep(poll_interval)
    rows = [harvested[s] for s in signatures]
    if not all(isinstance(row, list) and len(row) == len(classes) for row in rows):
        raise ProtocolError(
            f"a harvested result is not one score per class ({len(classes)})")
    try:
        scores = np.array(rows, dtype=np.float64).reshape(len(rows), len(classes))
    except (TypeError, ValueError):
        raise ProtocolError("a harvested score is not a number") from None
    return engine._warnings(paths, classes, scores, cfg)
