"""In-memory span recorder, and wrappers that time codewave's public calls.

A traced run installs `traced_calls(recorder)`: every call into the listed
public functions, made from anywhere in the process, becomes one span with
its name, start, end, parent span, file count, byte count and a few
attributes. Spans stay in memory and are written once, at the end, by
`write_json`. The JSON shape (`version`, `clock`, `spans`) is meant to be
reused by a future in-program trace export.

Wrappers see only the calling process: commands run at `--jobs 1` while
traced, because forked children keep their spans to themselves.
"""

from __future__ import annotations

import json
import pathlib
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Optional

TRACE_FORMAT_VERSION = 1


@dataclass(slots=True)
class Span:
    id: int
    parent: Optional[int]
    name: str
    start: float
    end: float = 0.0
    files: int = 0
    bytes: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Spans of one traced run; times are `time.perf_counter` seconds."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    def open(self, name: str, **attrs) -> Span:
        parent = self._open[-1] if self._open else None
        span = Span(len(self.spans), parent, name, time.perf_counter(),
                    attrs=attrs)
        self.spans.append(span)
        self._open.append(span.id)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._open.pop()
        if popped != span.id:
            raise RuntimeError(f"span {span.name!r} closed out of order")

    @contextmanager
    def span(self, name: str, files: int = 0, nbytes: int = 0, **attrs):
        span = self.open(name, **attrs)
        span.files, span.bytes = files, nbytes
        try:
            yield span
        finally:
            self.close(span)

    def under(self, root: Span) -> list[Span]:
        """Every span descending from `root` (not `root` itself)."""
        inside = {root.id}
        out = []
        for span in self.spans[root.id + 1:]:
            if span.parent in inside:
                inside.add(span.id)
                out.append(span)
        return out

    def write_json(self, path: pathlib.Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {"version": TRACE_FORMAT_VERSION, "clock": "perf_counter_s",
               "meta": meta,
               "spans": [[s.id, s.parent, s.name, s.start, s.end, s.files,
                          s.bytes, s.attrs] for s in self.spans],
               "columns": ["id", "parent", "name", "start", "end", "files",
                           "bytes", "attrs"]}
        path.write_text(json.dumps(doc, separators=(",", ":")))


def covered_seconds(spans: list[Span]) -> float:
    """Length of the union of the spans' intervals."""
    total = 0.0
    end = float("-inf")
    for span in sorted(spans, key=lambda s: s.start):
        if span.end <= end:
            continue
        total += span.end - max(span.start, end)
        end = span.end
    return total


# counters take (args, result) of the wrapped call and return
# (files, bytes, attrs) for its span
Counter = Callable[[tuple, object], tuple]


def _one_file(args, result):
    return 1, len(result), {}


def _samples(args, result):
    return 1, len(args[0]), {}


def _preprocess(args, result):
    return 1, 0, {"kind": args[1].kind}


def _file(args, result):
    return 1, 0, {}


def _train(args, result):
    return len(args[0]), 0, {"classes": len(result.classes)}


def _classify(args, result):
    return 1, 0, {"classes": len(args[1].classes)}


def _export_xml(args, result):
    return len(args[0]), len(result.encode("utf-8")), {}


def _score_stats(args, result):
    return len(args[0]), 0, {}


def _test_case(args, result):
    return len(args[0].entries), 0, {}


def _load_index(args, result):
    return len(result.entries), 0, {}


def _update(args, result):
    # args[0] is the model (unbound method)
    return 1, len(args[1]), {}


def _rank(args, result):
    return 1, len(args[0]), {"models": len(args[1])}


def _wrap(recorder: Recorder, name: str, fn, counter: Counter):
    def traced(*args, **kwargs):
        span = recorder.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(span)
        span.files, span.bytes, span.attrs = counter(args, result)
        return result
    traced.__wrapped__ = fn
    return traced


def _targets():
    """(owner, attribute, span name, counter) for every traced call site.

    Owners are the namespaces the callers look names up in: engine and cli
    import functions by name, so those module attributes are the ones to
    replace; `nlp` and `report` are reached through their modules.
    """
    from codewave import cli, engine, nlp, report

    return [
        (pathlib.Path, "read_bytes", "loader.read", _one_file),
        (engine, "samples_from_bytes", "loader.samples", _samples),
        (engine, "preprocess", "preprocess.preprocess", _preprocess),
        (engine, "extract_fft", "features.extract_fft", _file),
        (engine, "extract_lpc", "features.extract_lpc", _file),
        (engine, "extract_minmax", "features.extract_minmax", _file),
        (engine, "train_clusters", "classify.train", _train),
        (engine, "classify_vector", "classify.classify", _classify),
        (engine, "score_stats", "engine.score_stats", _score_stats),
        (cli, "score_stats", "engine.score_stats", _score_stats),
        (cli, "test_case", "engine.test_case", _test_case),
        (cli, "load_index", "index.load_index", _load_index),
        (report, "export_sate_xml", "report.export_sate_xml", _export_xml),
        (nlp.NGramModel, "update", "nlp.update", _update),
        (nlp, "rank_models", "nlp.rank_models", _rank),
    ]


# spans that contain other layer spans rather than doing a layer's work
CONTAINER_SPANS = frozenset({"engine.test_case"})


@contextmanager
def traced_calls(recorder: Recorder):
    """Install the span wrappers for the duration of the block."""
    saved = []
    try:
        for owner, attr, name, counter in _targets():
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(recorder, name, original, counter))
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
