"""Tests of the benchmark harness itself, not of codewave.

    python -m pytest bench/tests -q

Smoke runs use 20-file corpora and a non-default seed, so their reference
digests come from the serial path and every parallel or distributed run is
checked against it.
"""

import json
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from codewave.index import load_index  # noqa: E402

from bench import run as bench_run  # noqa: E402
from bench.corpus import CorpusSpec, ensure_corpus  # noqa: E402
from bench.layers import LAYER_UNITS  # noqa: E402
from bench.workloads import WORKLOADS  # noqa: E402

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SMOKE = CorpusSpec(n_classes=5, files_per_class=4, size=1024)
SMOKE_SEED = 11


def tree_bytes(corpus) -> dict:
    return {p.relative_to(corpus.root).as_posix(): p.read_bytes()
            for p in sorted(corpus.root.rglob("*.bin"))}


def test_corpus_is_deterministic_per_seed(tmp_path):
    first = ensure_corpus(tmp_path / "a", SMOKE, 1)
    again = ensure_corpus(tmp_path / "b", SMOKE, 1)
    other = ensure_corpus(tmp_path / "c", SMOKE, 2)
    assert tree_bytes(first) == tree_bytes(again)
    assert first.test_index.read_bytes() == again.test_index.read_bytes()
    one, two = tree_bytes(first), tree_bytes(other)
    assert one.keys() == two.keys() and len(one) == SMOKE.n_files
    assert all(one[path] != two[path] for path in one)


def test_corpus_cache_follows_the_seed(tmp_path):
    ensure_corpus(tmp_path / "cache", SMOKE, 1)
    switched = ensure_corpus(tmp_path / "cache", SMOKE, 2)
    assert tree_bytes(switched) == tree_bytes(
        ensure_corpus(tmp_path / "fresh", SMOKE, 2))


def test_200_class_tree(tmp_path):
    corpus = ensure_corpus(tmp_path, CorpusSpec(200, 1, 64), 1)
    index = load_index(corpus.train_index)
    assert index.mode == "train"
    assert len({wc for e in index.entries for wc in e.class_set()}) == 200
    assert load_index(corpus.test_index).mode == "test"


def test_names_and_units_follow_the_contract():
    metrics = BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
    names = [w["name"] for w in BENCHMARK["workloads"]]
    names += [m["name"] for m in metrics]
    assert all(NAME_RE.match(name) for name in names)
    assert len(names) == len(set(names))
    assert all(UNIT_RE.match(m["unit"]) for m in metrics)
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} \
        == bench_run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} \
        == LAYER_UNITS
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in BENCHMARK["end_to_end"])


@pytest.fixture(scope="module")
def cache(tmp_path_factory):
    return tmp_path_factory.mktemp("bench-cache")


def smoke_run(name: str, traced: bool, cache: Path):
    workload = replace(WORKLOADS[name], corpus=SMOKE)
    return bench_run.run(workload, SMOKE_SEED, 0.1, traced, cache)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_passes_the_gate(name, cache):
    line, record = smoke_run(name, False, cache)
    assert line["correct"], record["errors"]
    assert line["failed"] == 0 and line["attempted"] >= 2
    assert set(line["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in line["metrics"].values())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_smoke_run_emits_every_layer_and_nested_spans(name, cache):
    line, record = smoke_run(name, True, cache)
    assert line["correct"], record["errors"]
    assert set(line["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    trace = json.loads((cache / name / "trace.json").read_text())
    spans = {row[0]: dict(zip(trace["columns"], row)) for row in trace["spans"]}
    assert spans
    for span in spans.values():
        assert span["start"] <= span["end"]
        if span["parent"] is not None:
            parent = spans[span["parent"]]
            assert parent["start"] <= span["start"] <= span["end"] <= parent["end"]


def test_output_mismatch_fails_the_run(cache):
    smoke_run("scan-5class", False, cache)  # settles the cached reference
    reference = cache / "scan-5class" / "corpus" / "reference.json"
    digests = json.loads(reference.read_text())
    reference.write_text(json.dumps({name: "0" * 64 for name in digests}))
    try:
        line, record = smoke_run("scan-5class", False, cache)
    finally:
        reference.write_text(json.dumps(digests))
    assert not line["correct"] and line["failed"] >= 1
    assert any("differ from the reference" in e for e in record["errors"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "scan-5class",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
