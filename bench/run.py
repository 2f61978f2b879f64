#!/usr/bin/env python3
"""codewave benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload scan-5class --seed 7 --seconds 30 --trace 0

Builds the workload's seeded corpus (cached under .bench_cache/), settles
the reference output digests, then measures for about `--seconds` seconds.
With `--trace 0` it prints the end-to-end metrics, with `--trace 1` the
per-layer metrics of a traced run. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; the exit
code is 0 only when every output matched its reference.

    python3 bench/run.py --pin-reference

recomputes the default seed's digests into bench/reference.json. See
bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CACHE = ROOT / ".bench_cache"
# a run that has not finished by then reports failure instead of hanging
WATCHDOG_S = 170
TRAIN_SHARE = 0.3

END_TO_END_UNITS = {
    "scan_files_per_s": "files/s",
    "train_files_per_s": "files/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "first_precision_pct": "%",
}


class Watchdog(BaseException):
    """Raised by the alarm; not an Exception, so no operation swallows it."""


def _require_program() -> None:
    missing = [p for p in ("src/codewave/cli.py", "tests/corpusgen.py")
               if not (ROOT / p).is_file()]
    if missing:
        sys.exit(f"bench: codewave sources not found next to the benchmark "
                 f"(missing {', '.join(missing)})")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def _loadavg() -> list[float] | None:
    try:
        return [float(v) for v in Path("/proc/loadavg").read_text().split()[:3]]
    except OSError:
        return None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git (a checkout
    that is not a repository must not report an enclosing one)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def host_record(seed: int, traced: bool) -> dict:
    import numpy

    return {"nproc": os.cpu_count(), "cpu_model": _cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "git_commit": _git_commit(), "seed": seed, "traced": traced,
            "loadavg_start": _loadavg()}


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    peak = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def measure(bench, seconds: float) -> dict:
    """Untraced closed loop; returns {metric: [samples]}.

    A train phase of `TRAIN_SHARE` of the time repeats `codewave train`
    (one sample per call); the rest repeats the workload's scanning command.
    """
    from bench.workloads import SETUP_SAMPLES, first_precision_pct, setup_sample

    samples: dict = defaultdict(list)
    if bench.op(bench.settle_reference) is None:
        return samples
    for _ in range(SETUP_SAMPLES):
        sample = bench.op(setup_sample, bench.setup_indexes())
        if sample is not None:
            samples["setup_s"].append(sample[0])
    started = time.perf_counter()
    while not bench.failed:
        wall = bench.op(bench.train)
        if wall is not None:
            samples["train_files_per_s"].append(bench.corpus.n_files / wall)
        if _done(started, len(samples["train_files_per_s"]),
                 seconds * TRAIN_SHARE):
            break
    started = time.perf_counter()
    while not bench.failed:
        scanned = bench.op(bench.scan)
        if scanned is not None:
            wall, outputs = scanned
            samples["scan_files_per_s"].append(bench.scanned_per_command / wall)
            samples["first_precision_pct"].append(
                first_precision_pct(outputs["stats.txt"].decode("utf-8")))
        if _done(started, len(samples["scan_files_per_s"]),
                 seconds * (1 - TRAIN_SHARE)):
            break
    return samples


def _done(started: float, reps: int, budget: float) -> bool:
    """Stop when one more repetition would overrun the budget."""
    elapsed = time.perf_counter() - started
    return reps > 0 and elapsed * (reps + 1) / reps > budget


def end_to_end(samples: dict) -> dict:
    metrics = {name: statistics.median(samples[name])
               for name in ("scan_files_per_s", "train_files_per_s",
                            "first_precision_pct") if samples.get(name)}
    if samples.get("setup_s"):
        metrics["setup_s"] = statistics.median(samples["setup_s"])
    metrics["peak_rss_mb"] = _peak_rss_mb()
    return metrics


def _spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} q1={q1:.6g} q3={q3:.6g}"


def run(workload, seed: int, seconds: float, traced: bool,
        cache_root: Path = CACHE) -> tuple[dict, dict]:
    """One run of a `bench.workloads.Workload`; returns (result line, full
    record)."""
    from bench.layers import LAYER_UNITS, traced_run
    from bench.workloads import Bench

    host = host_record(seed, traced)
    nproc = os.cpu_count() or 1
    if host["loadavg_start"] and host["loadavg_start"][0] > nproc:
        print(f"bench: warning: load average {host['loadavg_start'][0]} "
              f"exceeds {nproc} CPUs before the run", file=sys.stderr)
    bench = Bench(workload, seed, cache_root)
    samples: dict = {}
    if traced:
        metrics = traced_run(bench, seconds, bench.dir / "trace.json")
        units = LAYER_UNITS
    else:
        samples = measure(bench, seconds)
        metrics = end_to_end(samples)
        units = END_TO_END_UNITS
    host["loadavg_end"] = _loadavg()
    missing = sorted(set(units) - set(metrics))
    if missing and not bench.failed:
        bench.errors.append(f"metrics not measured: {', '.join(missing)}")
    correct = bench.failed == 0 and not missing
    line = {"correct": correct, "attempted": max(1, bench.attempted),
            "failed": bench.failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]}
                        for name in units if name in metrics}}
    record = {"workload": workload.name, "host": host, "result": line,
              "failed_ratio": bench.failed / max(1, bench.attempted),
              "samples": dict(samples),
              "errors": bench.errors}
    return line, record


def _summary(record: dict) -> str:
    line = record["result"]
    rows = [f"codewave bench: {record['workload']} "
            f"seed={record['host']['seed']} "
            f"traced={record['host']['traced']}",
            "host: " + json.dumps(record["host"], sort_keys=True)]
    for name, metric in line["metrics"].items():
        spread = _spread(record["samples"].get(name, []))
        rows.append(f"  {name} = {metric['value']:.6g} {metric['unit']}"
                    + (f"  ({spread})" if name in record["samples"] else ""))
    rows.append(f"  failed_ratio = {line['failed']}/{line['attempted']} = "
                f"{record['failed_ratio']:.6g}")
    rows.extend(f"  error: {e}" for e in record["errors"])
    return "\n".join(rows)


def _failure(workload: str, seed: int, traced: bool, errors: list) -> dict:
    line = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    return {"workload": workload, "host": host_record(seed, traced),
            "result": line, "failed_ratio": 1.0, "samples": {},
            "errors": errors}


def _measure_in_child(args, seed: int, seconds_left: float) -> dict:
    """Run the measurement in a fresh interpreter, so that its peak RSS
    (self and children) covers the measured commands only, not corpus
    generation or the reference computation done before."""
    command = [sys.executable, __file__, "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--measure", f"{seconds_left - 5:.0f}"]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=seconds_left)
        return json.loads(proc.stdout.splitlines()[-1])
    except (subprocess.TimeoutExpired, IndexError, ValueError) as exc:
        return _failure(args.workload, seed, bool(args.trace),
                        [f"measurement process failed: {exc!r}"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin-reference", action="store_true",
                        help="recompute bench/reference.json and exit")
    # internal: measure only, within this many seconds (see _measure_in_child)
    parser.add_argument("--measure", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _require_program()
    from bench.workloads import DEFAULT_SEED, WORKLOADS, Bench, pin_reference

    if args.pin_reference:
        print(json.dumps(pin_reference(CACHE), indent=2))
        return 0
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    seed = DEFAULT_SEED if args.seed is None else args.seed
    workload = WORKLOADS[args.workload]

    def _alarm(signum, frame):
        raise Watchdog("run exceeded its time limit")

    signal.signal(signal.SIGALRM, _alarm)
    if args.measure is not None:
        signal.alarm(max(1, args.measure))
        _, record = run(workload, seed, args.seconds, bool(args.trace))
        print(json.dumps(record))
        return 0
    started = time.monotonic()
    signal.alarm(WATCHDOG_S)
    try:
        bench = Bench(workload, seed, CACHE)
        bench.op(bench.settle_reference)
    finally:
        signal.alarm(0)
    if bench.errors:
        record = _failure(args.workload, seed, bool(args.trace), bench.errors)
    else:
        record = _measure_in_child(
            args, seed, WATCHDOG_S - (time.monotonic() - started))
    line = record["result"]
    path = CACHE / args.workload / f"result-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2))
    print(_summary(record))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
