"""Seeded synthetic corpora for the benchmark workloads.

File bytes come from `tests.corpusgen.class_content`, the generator the test
suite uses. `build_corpus` there stops at five classes, so this module lays
out its own tree and names classes past the fifth itself. Train and test
indexes list the same files (self-recognition, as acceptance criterion 1),
differing only in mode.

A corpus is cached per (workload, seed) under the cache directory; asking
for another seed replaces it, so at most one tree per workload sits on disk.
Generation is never inside a timed region.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import dataclass
from pathlib import Path

from codewave.index import IndexEntry, TestCaseIndex, WeaknessClass, write_index
from tests.corpusgen import CLASS_IDS, class_content

CASE_NAME = "bench"
CASE_VERSION = "1.0"
# bump when the layout below changes, so stale caches are rebuilt
LAYOUT_VERSION = 1


def class_ids(n_classes: int) -> list[str]:
    """The first five ids match tests/corpusgen.py; the rest are CWE-1000+."""
    extra = [f"CWE-{1000 + i}" for i in range(max(0, n_classes - len(CLASS_IDS)))]
    return (CLASS_IDS + extra)[:n_classes]


@dataclass(frozen=True)
class CorpusSpec:
    n_classes: int
    files_per_class: int
    size: int = 4096

    @property
    def n_files(self) -> int:
        return self.n_classes * self.files_per_class


@dataclass(frozen=True)
class Corpus:
    root: Path          # file tree the indexes point into
    train_index: Path
    test_index: Path
    n_files: int
    total_bytes: int


def write_tree(root: Path, spec: CorpusSpec, seed: int) -> TestCaseIndex:
    """Write every file of `spec` under `root`; return the train index."""
    ids = class_ids(spec.n_classes)
    entries = []
    for class_idx, cid in enumerate(ids):
        class_dir = root / f"c{class_idx:03d}"
        class_dir.mkdir(parents=True, exist_ok=True)
        wc = WeaknessClass.cwe(cid)
        for file_idx in range(spec.files_per_class):
            rel = f"c{class_idx:03d}/f{file_idx:04d}.bin"
            (root / rel).write_bytes(
                class_content(class_idx, file_idx, spec.size, seed))
            entries.append(IndexEntry(rel, [(wc, [])]))
    entries.sort(key=lambda e: e.path)
    return TestCaseIndex(CASE_NAME, CASE_VERSION, entries, mode="train")


def ensure_corpus(cache_dir: Path, spec: CorpusSpec, seed: int) -> Corpus:
    """Return the cached corpus for (spec, seed), generating it if needed."""
    stamp_path = cache_dir / "corpus.json"
    stamp = {"layout": LAYOUT_VERSION, "seed": seed,
             "n_classes": spec.n_classes,
             "files_per_class": spec.files_per_class, "size": spec.size}
    corpus = Corpus(cache_dir / "tree", cache_dir / "train.xml",
                    cache_dir / "test.xml", spec.n_files,
                    spec.n_files * spec.size)
    if stamp_path.is_file() and json.loads(stamp_path.read_text()) == stamp:
        return corpus
    if cache_dir.exists():
        shutil.rmtree(cache_dir)
    cache_dir.mkdir(parents=True)
    index = write_tree(corpus.root, spec, seed)
    write_index(index, corpus.train_index)
    write_index(index.with_mode("test"), corpus.test_index)
    # written last: a half-built tree never carries a valid stamp
    stamp_path.write_text(json.dumps(stamp))
    return corpus
