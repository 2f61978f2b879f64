"""Workloads, the operations they run, and the correctness gate.

Every operation goes through a user-facing entry point: `codewave.cli.main`
called in-process for train/test/sweep, and `python -m codewave.cli
serve|work` child processes for the demand store. Each workload is one batch
job driven by one client in a closed loop: the next command starts when the
previous one has returned.

Correctness: every test or sweep compares the SHA-256 of its report XML and
stats table with a reference. The reference for a seed is computed once with
the serial path (`--jobs 1`), so a measured run at the CLI default (`--jobs`
= CPU count) also checks that job counts do not change output bytes. The
default seed's digests are pinned in bench/reference.json.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from codewave import dnet
from codewave.cli import main as cli_main
from codewave.engine import default_grid

from bench.corpus import Corpus, CorpusSpec, ensure_corpus

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_FILE = BENCH_DIR / "reference.json"
DEFAULT_SEED = 7
FLAGS = ["-cweid", "-nopreprep", "-raw", "-fft", "-cheb"]
SETUP_SAMPLES = 5
STORE_START_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # scan | sweep
    corpus: CorpusSpec


# why each exists is recorded in BENCHMARK.json and bench/README.md
WORKLOADS = {w.name: w for w in (
    Workload("scan-5class", "scan", CorpusSpec(5, 1600)),
    Workload("scan-200class", "scan", CorpusSpec(200, 5)),
    Workload("sweep-default", "sweep", CorpusSpec(5, 8)),
)}


class OutputMismatch(Exception):
    """Report or stats-table bytes differ from the reference."""


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def first_precision_pct(table: str) -> float:
    """Mean first-guess precision over the table's per-config rows."""
    values = [float(line.split()[-1]) for line in table.splitlines()
              if line.startswith("1st")]
    if not values:
        raise OutputMismatch("stats table has no first-guess rows")
    return sum(values) / len(values)


def program_env() -> dict:
    """Environment for codewave child processes: this checkout's sources."""
    src = str(BENCH_DIR.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_cli(argv: list[str]) -> tuple[float, str]:
    """Call codewave.cli.main in-process; return (wall seconds, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    started = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main([str(a) for a in argv])
    wall = time.perf_counter() - started
    if code != 0:
        raise RuntimeError(f"codewave {argv[0]} exited {code}: "
                           f"{err.getvalue().strip()[-400:]}")
    return wall, out.getvalue()


_SETUP_CODE = """\
import json, sys, time
started = time.perf_counter()
import codewave.cli
imported = time.perf_counter()
from codewave.index import load_index
for path in sys.argv[1:]:
    load_index(path)
loaded = time.perf_counter()
print(json.dumps({"import_s": imported - started,
                  "index_load_s": (loaded - imported) / (len(sys.argv) - 1)}))
"""


def setup_sample(indexes: list[Path]) -> tuple[float, dict]:
    """One fresh interpreter that imports codewave and loads the indexes a
    scanning command loads; returns (wall seconds, in-process split)."""
    started = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", _SETUP_CODE,
                           *map(str, indexes)],
                          env=program_env(), capture_output=True, text=True,
                          timeout=120, check=True)
    wall = time.perf_counter() - started
    return wall, json.loads(proc.stdout.splitlines()[-1])


class StoreProcesses:
    """A `codewave serve` process plus `codewave work` processes.

    `start` returns once every worker has deposited a result for one warm-up
    demand per worker, so the models are loaded (with more than one worker,
    one worker may take two of them).
    """

    def __init__(self, model: Path, root: Path, log_path: Path,
                 n_workers: int):
        self.model, self.root, self.n_workers = model, root, n_workers
        self.log_path = log_path
        self.address = ""
        self._procs: list[subprocess.Popen] = []
        self._log = None

    def _spawn(self, args: list[str], **kwargs) -> subprocess.Popen:
        proc = subprocess.Popen([sys.executable, "-m", "codewave.cli", *args],
                                env=program_env(), stderr=self._log, **kwargs)
        self._procs.append(proc)
        return proc

    def start(self) -> None:
        self._log = self.log_path.open("ab")
        try:
            serve = self._spawn(["serve", "--port", "0"],
                                stdout=subprocess.PIPE)
            line = serve.stdout.readline().decode().strip()
            if not line.startswith("demand store listening on "):
                raise RuntimeError(f"store did not start: {line!r}")
            self.address = line.rsplit(" ", 1)[-1]
            for i in range(self.n_workers):
                self._spawn(["work", "--store", self.address, "--model",
                             str(self.model), "--root", str(self.root),
                             "--worker-id", f"bench-worker-{i}", *FLAGS],
                            stdout=subprocess.DEVNULL)
            self._warm_up()
        except BaseException:
            self.stop()
            raise

    def __enter__(self) -> "StoreProcesses":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def client(self) -> dnet.StoreClient:
        host, port = self.address.rsplit(":", 1)
        return dnet.StoreClient(host, int(port))

    def _warm_up(self) -> None:
        paths = sorted(p.relative_to(self.root).as_posix()
                       for p in self.root.glob("*/*"))[:self.n_workers]
        signatures = [dnet.signature_for("bench-warm-up", p, " ".join(FLAGS),
                                         str(i)) for i, p in enumerate(paths)]
        deadline = time.monotonic() + STORE_START_TIMEOUT_S
        with self.client() as client:
            for signature, path in zip(signatures, paths):
                client.deposit(signature, path)
            while len(client.harvest(signatures)) < len(signatures):
                dead = [p.args for p in self._procs if p.poll() is not None]
                if dead or time.monotonic() > deadline:
                    raise RuntimeError(
                        f"warm-up failed (exited: {dead}); see {self.log_path}")
                time.sleep(0.005)

    def stop(self) -> None:
        for proc in self._procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in self._procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            if proc.stdout is not None:
                proc.stdout.close()
        self._procs.clear()
        if self._log is not None:
            self._log.close()
            self._log = None


class Bench:
    """One workload at one seed: its corpus, its commands, its checks.

    `attempted`, `failed` and `errors` count every operation run through
    `op`; an operation fails if it raises, exits non-zero, or writes report
    or stats-table bytes that differ from the reference.
    """

    def __init__(self, workload: Workload, seed: int, cache_root: Path):
        self.workload, self.seed = workload, seed
        self.dir = cache_root / workload.name
        self.corpus: Corpus = ensure_corpus(self.dir / "corpus",
                                            workload.corpus, seed)
        self.model = self.dir / "model.cwts"
        self.out = self.dir / "out"
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self._reference: dict | None = None

    # --- operations ------------------------------------------------------

    def op(self, fn, *args):
        """Run one counted operation; None when it failed."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # noqa: BLE001 - every failure is counted
            self.failed += 1
            self.errors.append(f"{fn.__name__}: {type(exc).__name__}: {exc}")
            return None

    def train(self, jobs: tuple = ()) -> float:
        self.model.unlink(missing_ok=True)
        wall, _ = run_cli(["train", "--index", self.corpus.train_index,
                           "--root", self.corpus.root, "--model", self.model,
                           *jobs, *FLAGS])
        return wall

    def test(self, jobs: tuple = (), store: str = "",
             index: Path | None = None) -> tuple[float, dict]:
        """`codewave test`; returns (wall, {output name: bytes})."""
        shutil.rmtree(self.out, ignore_errors=True)
        extra = ["--store", store] if store else []
        wall, _ = run_cli(["test", "--index", index or self.corpus.test_index,
                           "--root", self.corpus.root, "--model", self.model,
                           "--out", self.out, *jobs, *extra, *FLAGS])
        outputs = {}
        for name, pattern in (("report.xml", "*.xml"), ("stats.txt", "*.txt")):
            found = list(self.out.glob(pattern))
            if len(found) != 1:
                raise OutputMismatch(f"expected one {pattern} report, "
                                     f"found {len(found)}")
            outputs[name] = found[0].read_bytes()
        return wall, outputs

    def sweep(self, jobs: tuple = ()) -> tuple[float, dict]:
        wall, table = run_cli(["sweep", "--train-index",
                               self.corpus.train_index, "--test-index",
                               self.corpus.test_index, "--root",
                               self.corpus.root, *jobs, "-cweid"])
        return wall, {"stats.txt": table.encode("utf-8")}

    def scan(self, jobs: tuple = ()) -> tuple[float, dict]:
        """The workload's scanning command, checked against the reference."""
        if self.workload.kind == "sweep":
            wall, outputs = self.sweep(jobs)
        else:
            wall, outputs = self.test(jobs)
        self.check(outputs)
        return wall, outputs

    def check(self, outputs: dict) -> None:
        reference = self.settle_reference()
        digests = {name: sha256(data) for name, data in outputs.items()}
        if digests != reference:
            bad = sorted(n for n in reference if digests.get(n) != reference[n])
            raise OutputMismatch(f"{', '.join(bad) or 'outputs'} differ from "
                                 f"the reference")

    @property
    def scanned_per_command(self) -> int:
        """(file, config) pairs one scanning command classifies."""
        n = self.corpus.n_files
        return n * len(default_grid("cwe")) if self.workload.kind == "sweep" \
            else n

    def setup_indexes(self) -> list[Path]:
        if self.workload.kind == "sweep":
            return [self.corpus.train_index, self.corpus.test_index]
        return [self.corpus.test_index]

    def store(self, n_workers: int | None = None) -> StoreProcesses:
        """Store and workers for this corpus; by default one worker per CPU
        but one, as a deployment next to the generator would run."""
        if n_workers is None:
            n_workers = max(1, (os.cpu_count() or 1) - 1)
        return StoreProcesses(self.model, self.corpus.root,
                              self.dir / "store.log", n_workers)

    # --- reference ---------------------------------------------------------

    def settle_reference(self) -> dict:
        """Expected output digests: pinned for the default seed, else
        computed once per seed with the serial path and cached. Untimed:
        measurements call it before their first timed command."""
        if self._reference is None:
            self._reference = self._load_or_compute_reference()
        return self._reference

    def _load_or_compute_reference(self) -> dict:
        spec = vars(self.workload.corpus)
        pinned = json.loads(REFERENCE_FILE.read_text()) \
            if REFERENCE_FILE.is_file() else {}
        entry = pinned.get("workloads", {}).get(self.workload.name)
        if (pinned.get("seed") == self.seed and entry
                and entry["corpus"] == spec):
            return entry["digests"]
        cached = self.corpus.root.parent / "reference.json"
        if cached.is_file():
            return json.loads(cached.read_text())
        digests = self.serial_reference()
        cached.write_text(json.dumps(digests))
        return digests

    def serial_reference(self) -> dict:
        """Digests from the serial in-process path (`--jobs 1`)."""
        jobs = ("--jobs", "1")
        if self.workload.kind == "sweep":
            _, outputs = self.sweep(jobs)
        else:
            self.train(jobs)
            _, outputs = self.test(jobs)
        return {name: sha256(data) for name, data in outputs.items()}


def pin_reference(cache_root: Path) -> dict:
    """Recompute the default seed's digests for every workload."""
    doc = {"seed": DEFAULT_SEED, "flags": " ".join(FLAGS), "workloads": {}}
    for workload in WORKLOADS.values():
        bench = Bench(workload, DEFAULT_SEED, cache_root)
        doc["workloads"][workload.name] = {
            "corpus": vars(workload.corpus),
            "digests": bench.serial_reference()}
    REFERENCE_FILE.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return doc
