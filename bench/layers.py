"""The traced run: per-layer timings from spans.

Two sources of spans, both recorded in the benchmark's own code:

- command spans: the workload's own commands at `--jobs 1` with
  `spans.traced_calls` installed, so every call into a public codewave
  function becomes a span. Each traced pass is paired with the same commands
  untraced; the difference is `trace.overhead_s`, and the traced wall time
  not covered by any layer span is `engine.unattributed_s`.
- probes: fixed work on a sample of the workload's own files, calling public
  functions directly, one span per batch. They give every layer a number on
  every workload, including layers the workload's commands never touch.

End-to-end numbers never come from here.
"""

from __future__ import annotations

import contextlib
import os
import statistics
import time
from collections import defaultdict
from pathlib import Path

from codewave import dnet, engine
from codewave.classify import classify, load_training_set, train
from codewave.features import extract_fft, extract_lpc, extract_minmax
from codewave.index import TestCaseIndex, WeaknessClass, load_index, write_index
from codewave.loader import Signal, samples_from_bytes
from codewave.nlp import NGramModel, SmoothingSpec, rank_models
from codewave.preprocess import FilterSpec, preprocess
from codewave.report import CaseMeta, export_sate_xml

from bench.corpus import class_ids
from bench.spans import CONTAINER_SPANS, Recorder, Span, covered_seconds, \
    traced_calls
from bench.workloads import FLAGS, SETUP_SAMPLES, Bench, OutputMismatch, \
    setup_sample

# per-layer metric -> unit; BENCHMARK.json lists the same names and units
LAYER_UNITS = {
    "cli.import_s": "s",
    "index.load_s": "s",
    "loader.read_s": "s/kfile",
    "loader.samples_s": "s/kfile",
    "preprocess.raw_s": "s/kfile",
    "preprocess.norm_s": "s/kfile",
    "preprocess.low_s": "s/kfile",
    "preprocess.sdwt_s": "s/kfile",
    "features.fft_s": "s/kfile",
    "features.lpc_s": "s/kfile",
    "features.minmax_s": "s/kfile",
    "classify.train_s": "s",
    "classify.ms_per_file_k5": "ms",
    "classify.ms_per_file_k200": "ms",
    "nlp.count_mb_per_s": "MB/s",
    "nlp.score_mb_per_s": "MB/s",
    "engine.score_stats_s": "s",
    "report.xml_s": "s",
    "report.xml_bytes": "bytes",
    "engine.test_case_serial_s": "s",
    "engine.test_case_parallel_s": "s",
    "engine.parallel_speedup": "x",
    "engine.unattributed_s": "s",
    "dnet.deposit_us": "us",
    "dnet.pickup_result_us": "us",
    "dnet.harvest_ms": "ms",
    "dnet.pickup_us_at_1k": "us",
    "dnet.pickup_us_at_4k": "us",
    "dnet.store_overhead_ratio": "x",
    "trace.overhead_s": "s",
}

MAX_PAIRS = 3
PROBE_FILES = 400        # files sampled for preprocess/features/classify
NLP_COUNT_FILES = 48     # files counted into n-gram models
NLP_SCORE_FILES = 12     # files scored against the 5 n-gram models
STORE_PROBE_DEMANDS = 2000
STORE_PROBE_HARVESTS = 5
PICKUPS_PER_PROBE = 200
DIST_PROBE_MAX_FILES = 2000
FILTER_METRICS = {"raw": "raw", "norm": "norm", "fft_low": "low", "sdwt": "sdwt"}
EXTRACTORS = {"fft": extract_fft, "lpc": extract_lpc, "minmax": extract_minmax}


def _matching(spans: list[Span], name: str, **attrs) -> list[Span]:
    return [s for s in spans if s.name == name
            and all(s.attrs.get(k) == v for k, v in attrs.items())]


def per_kfile(spans: list[Span], name: str, **attrs) -> float:
    chosen = _matching(spans, name, **attrs)
    return (sum(s.duration for s in chosen)
            / sum(s.files for s in chosen) * 1000.0)


def mean_duration(spans: list[Span], name: str, **attrs) -> float:
    return statistics.fmean(s.duration for s in _matching(spans, name, **attrs))


def _evenly(items: list, n: int) -> list:
    step = max(1, len(items) // n)
    return items[::step][:n]


# --- command pairs -------------------------------------------------------------

def _commands(bench: Bench, recorder: Recorder | None):
    """The workload's commands at --jobs 1; returns (wall, command span), or
    None when one of them failed."""
    jobs = ("--jobs", "1")
    with contextlib.ExitStack() as stack:
        root = None
        if recorder is not None:
            root = stack.enter_context(recorder.span("command"))
            stack.enter_context(traced_calls(recorder))
        train_wall = bench.op(bench.train, jobs)
        scanned = bench.op(bench.scan, jobs)
    if train_wall is None or scanned is None:
        return None
    return train_wall + scanned[0], root


def command_pairs(bench: Bench, recorder: Recorder, seconds: float,
                  samples: dict) -> list[Span]:
    """Alternate untraced and traced passes; returns the command spans."""
    roots = []
    started = time.perf_counter()
    while len(roots) < MAX_PAIRS:
        # alternate which pass goes first, so warm-up favours neither
        if len(roots) % 2 == 0:
            plain = _commands(bench, None)
            traced = _commands(bench, recorder) if plain else None
        else:
            traced = _commands(bench, recorder)
            plain = _commands(bench, None) if traced else None
        if traced is None or plain is None:
            break
        wall, root = traced
        roots.append(root)
        leaves = [s for s in recorder.under(root)
                  if s.name not in CONTAINER_SPANS]
        samples["trace.overhead_s"].append(wall - plain[0])
        samples["engine.unattributed_s"].append(wall - covered_seconds(leaves))
        elapsed = time.perf_counter() - started
        if elapsed * (len(roots) + 1) / len(roots) > seconds:
            break
    return roots


# --- probes ------------------------------------------------------------------------

def layer_probe(bench: Bench, recorder: Recorder) -> None:
    """Preprocess, extract, classify at 5 and 200 classes, report, n-grams."""
    index = load_index(bench.corpus.test_index)
    entries = _evenly(index.entries, PROBE_FILES)
    blobs = [(bench.corpus.root / e.path).read_bytes() for e in entries]
    signals = [Signal(samples_from_bytes(b, 2)) for b in blobs]
    n = len(signals)
    raw = []
    for kind in FILTER_METRICS:
        spec = FilterSpec(kind=kind)
        with recorder.span("preprocess.preprocess", files=n, kind=kind):
            out = [preprocess(s, spec) for s in signals]
        if kind == "raw":
            raw = out
    vectors = {}
    for name, extract in EXTRACTORS.items():
        with recorder.span(f"features.extract_{name}", files=n):
            vectors[name] = [extract(s) for s in raw]
    fft = vectors["fft"]
    cfg = engine.parse_option_tokens(FLAGS)
    results = {}
    for k in (5, 200):
        ids = [WeaknessClass.cwe(c) for c in class_ids(k)]
        labeled = [(ids[i % k], fft[i % n]) for i in range(max(n, k))]
        with recorder.span("classify.train", files=len(labeled), classes=k):
            model = train(labeled, "mean", cfg.config_hash)
        with recorder.span("classify.classify", files=n, classes=k):
            results[k] = [classify(v, model, cfg.metric) for v in fft]
    warnings = [engine.warning_from_result(e.path, r, cfg)
                for e, r in zip(entries, results[5])]
    warnings = [w for w in warnings if w is not None]
    meta = CaseMeta(index.case_name, index.case_version, cfg.option_string)
    with recorder.span("report.export_sate_xml", files=len(warnings)) as span:
        span.bytes = len(export_sate_xml(warnings, meta).encode("utf-8"))

    labels = [WeaknessClass.cwe(c) for c in class_ids(5)]
    models = {wc: NGramModel(n=1, label=wc) for wc in labels}
    counted = blobs[:NLP_COUNT_FILES]
    with recorder.span("nlp.update", files=len(counted),
                       nbytes=sum(map(len, counted))):
        for i, data in enumerate(counted):
            models[labels[i % len(labels)]].update(data)
    scored = blobs[:NLP_SCORE_FILES]
    with recorder.span("nlp.rank_models", files=len(scored),
                       nbytes=sum(map(len, scored)), models=len(models)):
        for data in scored:
            rank_models(data, models, SmoothingSpec("add_delta", 1.0))


def test_case_probe(bench: Bench, recorder: Recorder, samples: dict) -> None:
    """engine.test_case on the workload's test index, serial and parallel."""
    index = load_index(bench.corpus.test_index)
    model = load_training_set(bench.model)
    cfg = engine.parse_option_tokens(FLAGS)
    outputs = {}
    for jobs in (1, os.cpu_count() or 1):
        with recorder.span("engine.test_case", files=len(index.entries),
                           jobs=jobs) as span:
            outputs[jobs] = engine.test_case(index, model, cfg,
                                             bench.corpus.root, jobs=jobs)
        samples[f"jobs{jobs}"] = span.duration
    if len(set(map(repr, outputs.values()))) != 1:
        raise OutputMismatch("test_case output depends on --jobs")


def store_probe(bench: Bench, recorder: Recorder) -> None:
    """Per-message store costs: in-process pickup scans, and TCP round trips
    against a `codewave serve` process with no workers."""
    for pending in (1000, 4000):
        store = dnet.DemandStore()
        for i in range(pending):
            store.deposit(f"{i:064x}", f"p{i}")
        with recorder.span("dnet.DemandStore.pickup", files=PICKUPS_PER_PROBE,
                           pending=pending):
            for _ in range(PICKUPS_PER_PROBE):
                store.pickup("probe")
    signatures = [f"{i:064x}" for i in range(STORE_PROBE_DEMANDS)]
    result = [["cwe", "CWE-20", 0.0]]
    with bench.store(n_workers=0) as store:
        store.start()
        with store.client() as client:
            with recorder.span("dnet.deposit", files=len(signatures)):
                for signature in signatures:
                    client.deposit(signature, "probe")
            with recorder.span("dnet.pickup_result", files=len(signatures)):
                for _ in signatures:
                    signature, _, _ = client.pickup("probe")
                    client.deposit_result(signature, "probe", result)
            for _ in range(STORE_PROBE_HARVESTS):
                with recorder.span("dnet.harvest", signatures=len(signatures)):
                    client.harvest(signatures)


def dist_probe(bench: Bench, recorder: Recorder) -> float:
    """Distributed ÷ monolithic (--jobs 1) wall on up to 2,000 test files;
    the two runs must write the same bytes."""
    index = load_index(bench.corpus.test_index)
    path = bench.corpus.test_index
    if len(index.entries) > DIST_PROBE_MAX_FILES:
        path = bench.dir / "dist-probe.xml"
        write_index(TestCaseIndex(index.case_name, index.case_version,
                                  _evenly(index.entries, DIST_PROBE_MAX_FILES),
                                  mode="test"), path)
    with bench.store() as store:
        store.start()
        with recorder.span("dnet.test_store") as span:
            _, distributed = bench.test(store=store.address, index=path)
    dist_wall = span.duration
    with recorder.span("engine.test_monolithic") as span:
        _, monolithic = bench.test(("--jobs", "1"), index=path)
    if distributed != monolithic:
        raise OutputMismatch("distributed output differs from monolithic")
    return dist_wall / span.duration


# --- the run ---------------------------------------------------------------------

def traced_run(bench: Bench, seconds: float, trace_path: Path) -> dict:
    """Run the traced measurements; returns {metric: value}."""
    recorder = Recorder()
    samples: dict = defaultdict(list)
    # the store and the probes need a model before the first command pair
    if (bench.op(bench.settle_reference) is None
            or bench.op(bench.train) is None):
        return {}
    for _ in range(SETUP_SAMPLES):
        sample = bench.op(setup_sample, bench.setup_indexes())
        if sample is not None:
            samples["cli.import_s"].append(sample[1]["import_s"])
            samples["index.load_s"].append(sample[1]["index_load_s"])
    roots = command_pairs(bench, recorder, seconds, samples)
    probe = recorder.open("probe")
    walls: dict = {}
    bench.op(layer_probe, bench, recorder)
    bench.op(test_case_probe, bench, recorder, walls)
    bench.op(store_probe, bench, recorder)
    ratio = bench.op(dist_probe, bench, recorder)
    recorder.close(probe)
    recorder.write_json(trace_path, {"workload": bench.workload.name,
                                     "seed": bench.seed})

    command = [s for root in roots for s in recorder.under(root)]
    probed = recorder.under(probe)
    metrics = {name: statistics.median(values)
               for name, values in samples.items() if name in LAYER_UNITS}
    computed = {
        "loader.read_s": lambda: per_kfile(command, "loader.read"),
        "loader.samples_s": lambda: per_kfile(command, "loader.samples"),
        "classify.train_s": lambda: mean_duration(command, "classify.train"),
        "engine.score_stats_s":
            lambda: mean_duration(command, "engine.score_stats"),
        "classify.ms_per_file_k5":
            lambda: per_kfile(probed, "classify.classify", classes=5),
        "classify.ms_per_file_k200":
            lambda: per_kfile(probed, "classify.classify", classes=200),
        "nlp.count_mb_per_s": lambda: _mb_per_s(probed, "nlp.update"),
        "nlp.score_mb_per_s": lambda: _mb_per_s(probed, "nlp.rank_models"),
        "report.xml_s": lambda: mean_duration(probed, "report.export_sate_xml"),
        "report.xml_bytes":
            lambda: _matching(probed, "report.export_sate_xml")[0].bytes,
        "engine.test_case_serial_s": lambda: walls["jobs1"],
        "engine.test_case_parallel_s":
            lambda: walls[f"jobs{os.cpu_count() or 1}"],
        "engine.parallel_speedup":
            lambda: walls["jobs1"] / walls[f"jobs{os.cpu_count() or 1}"],
        "dnet.deposit_us": lambda: per_kfile(probed, "dnet.deposit") * 1000,
        "dnet.pickup_result_us":
            lambda: per_kfile(probed, "dnet.pickup_result") * 1000,
        "dnet.harvest_ms": lambda: statistics.median(
            s.duration * 1000 for s in _matching(probed, "dnet.harvest")),
        "dnet.pickup_us_at_1k": lambda: per_kfile(
            probed, "dnet.DemandStore.pickup", pending=1000) * 1000,
        "dnet.pickup_us_at_4k": lambda: per_kfile(
            probed, "dnet.DemandStore.pickup", pending=4000) * 1000,
        "dnet.store_overhead_ratio": lambda: ratio,
    }
    for kind, short in FILTER_METRICS.items():
        computed[f"preprocess.{short}_s"] = (
            lambda kind=kind: per_kfile(probed, "preprocess.preprocess",
                                        kind=kind))
    for name in EXTRACTORS:
        computed[f"features.{name}_s"] = (
            lambda name=name: per_kfile(probed, f"features.extract_{name}"))
    for name, compute in computed.items():
        try:
            value = compute()
        except (LookupError, ZeroDivisionError, statistics.StatisticsError):
            continue  # its probe failed, which the run already counted
        if value is not None:
            metrics[name] = value
    return metrics


def _mb_per_s(spans: list[Span], name: str) -> float:
    chosen = _matching(spans, name)
    scored = sum(s.bytes * s.attrs.get("models", 1) for s in chosen)
    return scored / sum(s.duration for s in chosen) / 1e6
