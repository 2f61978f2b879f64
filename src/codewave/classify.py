"""Per-class centroid models and distance-ranked classification.

Training collapses each class's feature vectors into a single mean or median
centroid; classification ranks every trained class by its centroid's distance
to the unseen vector, smallest first. Six distance measures are supported so
sweeps can search for the most precise one per corpus.
"""

from __future__ import annotations

import struct
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, ModelFormatError
from .index import WeaknessClass

MAGIC = b"CWTS"
FORMAT_VERSION = 1

METRICS = ("eucl", "cheb", "mink", "cos", "hamming", "diff")


@dataclass
class ClusterModel:
    centroid: np.ndarray
    count: int
    kind: str  # mean | median

    def __post_init__(self):
        self.centroid = np.asarray(self.centroid, dtype=np.float64)
        if self.count < 1:
            raise ValueError("cluster count must be >= 1")
        if not np.all(np.isfinite(self.centroid)):
            raise ValueError("centroid contains non-finite values")


@dataclass
class TrainingSet:
    classes: dict[WeaknessClass, ClusterModel]
    config_hash: str

    def __post_init__(self):
        if not self.config_hash:
            raise ValueError("config_hash must be non-empty")
        dims = {len(m.centroid) for m in self.classes.values()}
        if len(dims) > 1:
            raise ConfigError(f"mixed centroid dimensions: {sorted(dims)}")

    @property
    def dimension(self) -> int:
        return len(next(iter(self.classes.values())).centroid) if self.classes else 0


def train(vectors: list[tuple[WeaknessClass, np.ndarray]],
          kind: str = "mean", config_hash: str = "unconfigured") -> TrainingSet:
    """Aggregate labeled feature vectors (1-D arrays, such as the rows of a
    feature matrix) into per-class centroids.

    Retraining with an extended vector list recomputes the centroids exactly;
    nothing incremental is cached, so there is no drift.
    """
    if kind not in ("mean", "median"):
        raise ConfigError(f"unknown cluster kind {kind!r}")
    if not vectors:
        raise ConfigError("cannot train on an empty vector list")
    grouped: dict[WeaknessClass, list[np.ndarray]] = {}
    for wc, row in vectors:
        grouped.setdefault(wc, []).append(row)
    dims = {len(v) for members in grouped.values() for v in members}
    if len(dims) != 1:
        raise ConfigError(f"mixed feature dimensions: {sorted(dims)}")
    aggregate = np.mean if kind == "mean" else np.median
    classes = {}
    with np.errstate(over="ignore"):  # finite rows can sum past the range
        for wc, members in grouped.items():
            centroid = aggregate(np.vstack(members), axis=0)
            if not np.all(np.isfinite(centroid)) and np.all(np.isfinite(members)):
                raise ConfigError(f"the {kind} centroid of class {wc.id} overflows float64")
            classes[wc] = ClusterModel(centroid, len(members), kind)
    return TrainingSet(classes, config_hash)


def distances(X, C, metric: str = "eucl", p: float = 3.0,
              tol: float = 1e-4) -> np.ndarray:
    """N x K distances from every row of X to every row of C.

    eucl/cheb/mink are true metrics; cos is 1 - cosine similarity (zero
    vectors count as maximally distant, 1); hamming counts coordinates that
    differ by more than `tol`; diff sums those differences (a thresholded L1
    that collapses to plain L1 at tol=0).
    """
    X = np.asarray(X, dtype=np.float64)
    C = np.asarray(C, dtype=np.float64)
    if X.ndim != 2 or C.ndim != 2 or X.shape[1] != C.shape[1]:
        raise ConfigError(f"dimension mismatch: {X.shape} vs {C.shape}")
    if metric not in METRICS:
        raise ConfigError(f"unknown metric {metric!r}")
    if metric == "mink" and p < 1:
        raise ConfigError("minkowski exponent must be >= 1")
    # Every measure is symmetric and computed pair by pair over one
    # contiguous row, so looping over the shorter side gives the same bits
    # either way and keeps temporaries at (longer side) x d.
    if len(C) > len(X):
        return distances(C, X, metric, p, tol).T
    out = np.empty((len(X), len(C)), dtype=np.float64)
    if metric == "cos":
        x_norms = np.sqrt(np.einsum("ij,ij->i", X, X))
        c_norms = np.sqrt(np.einsum("ij,ij->i", C, C))
    for k, c in enumerate(C):
        if metric == "cos":
            with np.errstate(divide="ignore", invalid="ignore"):
                out[:, k] = 1.0 - np.einsum("ij,j->i", X, c) / (x_norms * c_norms[k])
            out[(x_norms == 0.0) | (c_norms[k] == 0.0), k] = 1.0
            continue
        delta = X - c
        np.abs(delta, out=delta)
        if metric == "eucl":
            out[:, k] = np.sqrt(np.einsum("ij,ij->i", delta, delta))
        elif metric == "cheb":
            out[:, k] = np.max(delta, axis=1, initial=0.0)
        elif metric == "mink":
            with np.errstate(over="ignore"):
                column = np.sum(delta ** p, axis=1) ** (1.0 / p)
            # where the powers overflowed, or all underflowed to 0, scale
            # the row by its largest difference first (finite nonzero rows
            # keep the plain form's bits)
            redo = np.flatnonzero(np.isinf(column) | (column == 0.0))
            if len(redo):
                m = np.max(delta[redo], axis=1, initial=0.0)
                redo, m = redo[m > 0.0], m[m > 0.0]
                column[redo] = m * np.sum((delta[redo] / m[:, np.newaxis]) ** p,
                                          axis=1) ** (1.0 / p)
            out[:, k] = column
        elif metric == "hamming":
            out[:, k] = np.count_nonzero(delta > tol, axis=1)
        else:
            out[:, k] = np.sum(np.where(delta > tol, delta, 0.0), axis=1)
    return out


def distance(a, b, metric: str = "eucl", p: float = 3.0, tol: float = 1e-4) -> float:
    """Distance between two equal-length vectors (one row of `distances`)."""
    return float(distances(np.reshape(a, (1, -1)), np.reshape(b, (1, -1)),
                           metric, p, tol)[0, 0])


def by_id(classes) -> list[WeaknessClass]:
    """Classes in id order, the column order of every score matrix."""
    return sorted(classes, key=lambda wc: wc.id)


def rank(classes: list[WeaknessClass], scores) -> list[tuple[WeaknessClass, float]]:
    """Pair id-ordered classes with their scores, ascending.

    The sort is stable, so ties keep id order: the same ranking as sorting
    by (score, id), however the classes were ordered when trained.
    """
    return [(classes[j], float(scores[j]))
            for j in np.argsort(scores, kind="stable")]


def centroids(ts: TrainingSet, classes: list[WeaknessClass]) -> np.ndarray:
    """K x d matrix of the centroids of `classes`, one row per class."""
    return np.array([ts.classes[wc].centroid for wc in classes])


def classify(v: np.ndarray, ts: TrainingSet, metric: str = "eucl",
             p: float = 3.0, tol: float = 1e-4) -> list[tuple[WeaknessClass, float]]:
    """Rank every trained class by distance to the 1-D vector `v`: the
    (class, distance) pairs, most likely (nearest) first."""
    v = np.asarray(v, dtype=np.float64)
    if not np.all(np.isfinite(v)):
        raise ValueError("feature vector contains non-finite values")
    if not ts.classes:
        raise ConfigError("training set is empty")
    if len(v) != ts.dimension:
        raise ConfigError(
            f"vector dimension {len(v)} does not match training set {ts.dimension}")
    classes = by_id(ts.classes)
    return rank(classes, distances(v.reshape(1, -1), centroids(ts, classes),
                                   metric, p, tol)[0])


# --- persistence (see docs/model-format.md) ----------------------------------

def _pack_str(s: str) -> bytes:
    raw = s.encode("utf-8")
    return struct.pack("<H", len(raw)) + raw


def _unpack_str(buf: memoryview, off: int) -> tuple[str, int]:
    (n,) = struct.unpack_from("<H", buf, off)
    (raw,) = struct.unpack_from(f"{n}s", buf, off + 2)
    return raw.decode("utf-8"), off + 2 + n


@contextmanager
def _model_buffer(file):
    """The bytes of a model file. Reading past their end (a file cut
    short) or misreading them raises ModelFormatError naming the file."""
    try:
        yield memoryview(Path(file).read_bytes())
    except ModelFormatError:
        raise
    except (struct.error, ValueError) as exc:
        raise ModelFormatError(f"{file}: truncated or corrupt model ({exc})") from exc


def training_set_bytes(ts: TrainingSet) -> bytes:
    """The versioned little-endian container with magic CWTS."""
    out = bytearray()
    out += MAGIC
    out += struct.pack("<HII", FORMAT_VERSION, ts.dimension, len(ts.classes))
    out += _pack_str(ts.config_hash)
    for wc in sorted(ts.classes, key=lambda w: (w.kind, w.id)):
        model = ts.classes[wc]
        out += _pack_str(wc.kind)
        out += _pack_str(wc.id)
        out += struct.pack("<BI", 0 if model.kind == "mean" else 1, model.count)
        out += struct.pack(f"<{len(model.centroid)}d", *model.centroid)
    return bytes(out)


def save_training_set(ts: TrainingSet, file) -> None:
    Path(file).write_bytes(training_set_bytes(ts))


def load_training_set(file) -> TrainingSet:
    with _model_buffer(file) as buf:
        if bytes(buf[:4]) != MAGIC:
            raise ModelFormatError(f"{file}: bad magic (expected CWTS)")
        version, d, n_classes = struct.unpack_from("<HII", buf, 4)
        if version != FORMAT_VERSION:
            raise ModelFormatError(f"{file}: unsupported version {version}")
        off = 4 + 10
        config_hash, off = _unpack_str(buf, off)
        classes: dict[WeaknessClass, ClusterModel] = {}
        for _ in range(n_classes):
            kind, off = _unpack_str(buf, off)
            class_id, off = _unpack_str(buf, off)
            cluster_kind, count = struct.unpack_from("<BI", buf, off)
            off += 5
            centroid = np.frombuffer(buf, dtype="<f8", count=d, offset=off).copy()
            off += 8 * d
            classes[WeaknessClass(kind, class_id)] = ClusterModel(
                centroid, count, "mean" if cluster_kind == 0 else "median")
        return TrainingSet(classes, config_hash)
