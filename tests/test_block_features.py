"""The block feature path against the per-file pipeline it replaced.

`engine._features` preprocesses and extracts files a block at a time as 2-D
arrays; every row must equal `oracles.feature_row` (the old one-file-at-a-time
code) bit for bit, whatever the block bound and the fork-join chunking.
"""

import os
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codewave import engine
from codewave.engine import PipelineConfig, train_case
from codewave.index import IndexEntry, WeaknessClass
from codewave.index import TestCaseIndex as CaseIndex
from codewave.loader import samples_from_bytes
from codewave.preprocess import (FilterSpec, ShortSignalWarning,
                                 preprocess_rows, wavelet)

from .oracles import feature_row

# lengths around the loader n-gram (0-3), the db2 filter (4 taps, and 4
# taps again after a level), and the FFT windows drawn below
LENGTHS = [0, 1, 2, 3, 4, 5, 7, 9, 16, 63, 64, 100, 1023, 1025, 2050]
# full-scale content: a low-pass at cutoff 1 gives back -1.0 plus rounding,
# which takes the clip branch; other filters take the re-normalize branch
LOUD = [b"\x80\x00" * 300, b"\x7f\xff\x80\x00" * 150, bytes(257)]


def signal_configs():
    filters = st.one_of(
        st.fixed_dictionaries({"filter_kind": st.sampled_from(["raw", "norm"])}),
        st.fixed_dictionaries({"filter_kind": st.just("low"),
                               "cutoff_fraction": st.sampled_from(
                                   [0.05, 0.25, 0.5, 0.9, 1.0])}),
        st.fixed_dictionaries({"filter_kind": st.just("sdwt"),
                               "wavelet_name": st.sampled_from(["haar", "db2"]),
                               "sdwt_levels": st.integers(1, 3)}))
    extractors = st.one_of(
        st.sampled_from([(1024, 512), (64, 32), (64, 20), (100, 7), (7, 3)]).map(
            lambda wb: {"extractor": "fft", "fft_window": wb[0], "fft_bins": wb[1]}),
        st.sampled_from([1, 2, 8, 20]).map(
            lambda order: {"extractor": "lpc", "lpc_order": order}),
        st.sampled_from([2, 4]).map(
            lambda d: {"extractor": "minmax", "minmax_d": d}))
    return st.tuples(st.sampled_from([1, 2, 3]), filters, extractors).map(
        lambda parts: PipelineConfig(loader_ngram=parts[0], **parts[1], **parts[2]))


files = st.lists(
    st.one_of(st.sampled_from(LENGTHS).flatmap(
                  lambda n: st.binary(min_size=n, max_size=n)),
              st.sampled_from(LOUD)),
    min_size=1, max_size=10)


def oracle_rows(cfg: PipelineConfig, blobs) -> np.ndarray:
    return np.array([feature_row(data, cfg.loader_ngram, cfg.filter_spec(),
                                 cfg.extractor, cfg.fft_window, cfg.fft_bins,
                                 cfg.lpc_order, cfg.minmax_d) for data in blobs])


def write_files(root: Path, blobs) -> list[str]:
    paths = [f"f{i}.bin" for i in range(len(blobs))]
    for path, data in zip(paths, blobs):
        (root / path).write_bytes(data)
    return paths


def block_rows(cfg, root, paths, block_bytes) -> np.ndarray:
    with mock.patch.object(engine, "BLOCK_BYTES", block_bytes), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore", ShortSignalWarning)
        return engine._features(cfg, root, paths)


@settings(deadline=None, max_examples=200)
@given(cfg=signal_configs(), blobs=files,
       block_bytes=st.sampled_from([1, 100, 3000, engine.BLOCK_BYTES]))
def test_block_path_equals_per_file_pipeline(cfg, blobs, block_bytes):
    want = oracle_rows(cfg, blobs)
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_files(Path(tmp), blobs)
        got = block_rows(cfg, tmp, paths, block_bytes)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("flags", [
    "-raw -fft", "-norm -lpc", "-low=0.3 -fft=64:20", "-sdwt=db2:2 -minmax",
    "-unigram -low=1 -lpc=8", "-unigram -low=0.5 -lpc=1", "-sdwt=db2:2 -lpc",
    "-trigram -sdwt -minmax=2"])
@pytest.mark.parametrize("jobs", [1, 2])
def test_rows_independent_of_blocks_and_chunks(tmp_path, monkeypatch, forks,
                                               flags, jobs):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(engine, "FORK_BYTES", 0)
    cfg = engine.parse_option_string(flags)
    rng = np.random.default_rng(11)
    blobs = [rng.integers(0, 256, n, dtype=np.uint8).tobytes()
             for n in [4096] * 5 + [0, 1, 2, 3, 5, 700, 4096, 5000, 2]] + LOUD
    paths = write_files(tmp_path, blobs)
    want = oracle_rows(cfg, blobs)
    for block_bytes in (1, 5000, engine.BLOCK_BYTES, 1 << 30):
        with mock.patch.object(engine, "BLOCK_BYTES", block_bytes), \
                warnings.catch_warnings():
            warnings.simplefilter("ignore", ShortSignalWarning)
            rows = engine._feature_rows(cfg, tmp_path, paths, jobs)
        got = np.array([rows[path] for path in paths])
        assert got.tobytes() == want.tobytes()
    assert bool(forks) == (jobs > 1)


@pytest.mark.parametrize("spec", [
    FilterSpec("raw"), FilterSpec("norm"), FilterSpec("fft_low", 0.25),
    FilterSpec("fft_low", 1.0), FilterSpec("sdwt"),
    FilterSpec("sdwt", wavelet=wavelet("db2"), levels=2)])
def test_preprocessed_rows_are_contiguous(spec):
    # the loud row is rescaled (sdwt) or clipped (low=1) by the full-scale
    # fit, the quiet one is not; every row must reach the extractors
    # unit-strided, whether or not the fit touched its block
    loud, quiet = LOUD[0], b"\x00\x10" * 300
    for block in ((loud, quiet), (quiet,)):
        rows = np.stack([samples_from_bytes(data, 2) for data in block])
        out = preprocess_rows(rows, spec)
        assert isinstance(out, np.ndarray) and out.flags.c_contiguous
        for i in range(len(rows)):
            one = preprocess_rows(rows[i:i + 1], spec)[0]
            assert out[i].tobytes() == one.tobytes()


def test_training_matches_across_jobs(tmp_path, monkeypatch, forks):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(engine, "FORK_BYTES", 0)
    rng = np.random.default_rng(5)
    blobs = [rng.integers(0, 256, n, dtype=np.uint8).tobytes()
             for n in (4096, 4096, 3000, 1, 0, 4096, 777, 4096)]
    paths = write_files(tmp_path, blobs)
    classes = [WeaknessClass.cwe("CWE-20"), WeaknessClass.cwe("CWE-79")]
    index = CaseIndex("case", "1", mode="train", entries=[
        IndexEntry(path, classes=[(classes[i % 2], [])]) for i, path in enumerate(paths)])
    cfg = PipelineConfig(class_kind="cwe")
    serial = train_case(index, cfg, tmp_path, jobs=1)
    forked = train_case(index, cfg, tmp_path, jobs=2)
    assert forks
    assert {wc: m.centroid.tobytes() for wc, m in serial.classes.items()} == \
        {wc: m.centroid.tobytes() for wc, m in forked.classes.items()}
    classes = engine._model_classes(serial, cfg)
    assert engine._scores(cfg, serial, classes, tmp_path, paths).tobytes() == \
        engine._scores(cfg, forked, classes, tmp_path, paths).tobytes()


def test_one_short_signal_warning_per_short_file(tmp_path):
    cfg = PipelineConfig(filter_kind="sdwt", wavelet_name="db2")
    paths = write_files(tmp_path, [b"ab", b"cd", b"efg", bytes(4096)])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        engine._features(cfg, tmp_path, paths)
    assert [w.category for w in caught] == [ShortSignalWarning] * 3
