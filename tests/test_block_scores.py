"""Per-block scoring against the whole-pass feature matrix it replaced.

A signal test pass scores each block of files as `engine._features` extracts
it, so it never holds the N x d feature matrix. Its scores must have the bits
of the distances from that whole matrix, whatever the block bound, the class
count and the fork-join chunking; its peak memory must not grow with N x d;
and a non-finite block must fail with the old error, before it is scored.
"""

import dataclasses
import os
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codewave import engine
from codewave.classify import METRICS, ClusterModel, TrainingSet, centroids, distances
from codewave.index import IndexEntry, WeaknessClass
from codewave.index import TestCaseIndex as CaseIndex
from codewave.preprocess import ShortSignalWarning

from .test_block_features import files, signal_configs, write_files

NON_FINITE = "feature vector contains non-finite values"


def model_of(cfg, centroid_rows) -> TrainingSet:
    """A model of one class per centroid row, trained under `cfg`."""
    return TrainingSet({WeaknessClass.cwe(f"CWE-{k + 1}"): ClusterModel(row, 1, "mean")
                        for k, row in enumerate(centroid_rows)}, cfg.config_hash)


def index_of(paths) -> CaseIndex:
    return CaseIndex("case", "1", [IndexEntry(path) for path in paths])


@settings(deadline=None, max_examples=150)
@given(cfg=signal_configs(), metric=st.sampled_from(METRICS),
       p=st.sampled_from([1.0, 3.0, 1e300]), tol=st.sampled_from([0.0, 1e-4, 0.5]),
       blobs=files, block_bytes=st.sampled_from([1, 100, 3000, engine.BLOCK_BYTES]),
       n_classes=st.sampled_from([1, 2, 3, 7, 16]), jobs=st.sampled_from([1, 2]),
       seed=st.integers(0, 2**32 - 1))
def test_block_scores_equal_whole_pass_distances(cfg, metric, p, tol, blobs, block_bytes,
                                                  n_classes, jobs, seed):
    # up to 10 files a block, so 1-3 classes fall below a block's row count
    # and 7 or 16 above it: `distances` loops over either side
    cfg = dataclasses.replace(cfg, metric=metric, mink_p=p, tolerance=tol)
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(engine, "BLOCK_BYTES", block_bytes), \
            mock.patch.object(engine, "FORK_BYTES", 0), \
            mock.patch.object(os, "cpu_count", lambda: 2), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore", ShortSignalWarning)
        paths = write_files(Path(tmp), blobs)
        X = engine._features(cfg, tmp, paths)
        rows = np.random.default_rng(seed).standard_normal((n_classes, X.shape[1]))
        rows[0] = X[0]  # a zero distance
        rows[-1] *= n_classes > 1  # a zero vector, for cos
        model = model_of(cfg, rows)
        got_paths, classes, got = engine._score_index(
            index_of(paths), model, cfg, tmp, jobs)
    want = distances(X, centroids(model, classes), metric, p, tol)
    assert got_paths == paths
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_peak_memory_is_one_block_not_the_pass(tmp_path):
    # 2,000 files x 4 KB: the whole pass's features alone are 8 MB (512 bins
    # of 8 bytes a file), its 5-class scores 80 KB
    cfg = engine.parse_option_string("-raw -fft -cheb")
    rng = np.random.default_rng(3)
    blobs = [rng.integers(0, 256, 4096, dtype=np.uint8).tobytes() for _ in range(2000)]
    paths = write_files(tmp_path, blobs)
    model = model_of(cfg, rng.random((5, engine._feature_dim(cfg))))
    classes = engine._model_classes(model, cfg)
    tracemalloc.start()
    try:
        scores = engine._scores(cfg, model, classes, tmp_path, paths)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert scores.shape == (2000, 5)
    assert peak < 4 * 2**20, f"peak traced allocation {peak / 2**20:.1f} MiB"


@pytest.mark.parametrize("jobs", [1, 2])
def test_non_finite_block_fails_before_it_is_scored(tmp_path, monkeypatch, forks, jobs):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(engine, "FORK_BYTES", 0)
    cfg = engine.parse_option_string("-raw -fft -eucl")
    rng = np.random.default_rng(7)
    # the 4,095-byte file is a block of its own, in the second (forked) chunk
    sizes = [4096] * 6 + [4095] + [4096] * 3
    blobs = [rng.integers(0, 256, n, dtype=np.uint8).tobytes() for n in sizes]
    paths = write_files(tmp_path, blobs)
    poisoned = len(blobs[6]) - 1  # its samples under the 2-byte loader

    def fft_features(rows, window, bins, real=engine.fft_features):
        out = real(rows, window, bins)
        if rows.shape[1] == poisoned:
            out[:] = np.nan
        return out

    def checked_distances(X, C, *args, real=distances):
        assert np.all(np.isfinite(X)), "a non-finite block reached scoring"
        return real(X, C, *args)
    monkeypatch.setattr(engine, "fft_features", fft_features)
    monkeypatch.setattr(engine, "distances", checked_distances)
    model = model_of(cfg, rng.random((3, engine._feature_dim(cfg))))
    with pytest.raises(ValueError) as caught:
        if jobs == 1:
            engine._scores(cfg, model, engine._model_classes(model, cfg), tmp_path, paths)
        else:
            engine._score_index(index_of(paths), model, cfg, tmp_path, jobs)
    assert type(caught.value) is ValueError and str(caught.value) == NON_FINITE
    assert bool(forks) == (jobs > 1)
