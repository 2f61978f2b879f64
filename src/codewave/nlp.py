"""Byte n-gram language models with MLE, add-delta, and Witten-Bell estimates.

One model is trained per weakness class; an unseen document is scored by the
summed log-probability of its n-grams under each model, and classes are
ranked by that likelihood. The alphabet is raw bytes (V=256): "character"
mode means byte mode here, which keeps compiled binaries scannable with the
identical code path.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

from .classify import ResultSet, _pack_str, _unpack_str, by_id, rank
from .errors import ConfigError, ModelFormatError
from .index import WeaknessClass

MAGIC = b"CWNM"
FORMAT_VERSION = 1

SMOOTHINGS = ("mle", "add_delta", "witten_bell")


@dataclass(frozen=True)
class SmoothingSpec:
    kind: str = "add_delta"
    delta: float = 1.0  # add-one by default

    def __post_init__(self):
        if self.kind not in SMOOTHINGS:
            raise ValueError(f"unknown smoothing {self.kind!r}")
        if self.kind == "add_delta" and self.delta <= 0:
            raise ValueError("delta must be > 0")


@dataclass
class NGramModel:
    """Counts of n-gram continuations, keyed by (n-1)-byte context."""

    n: int
    label: WeaknessClass | None = None
    vocab_size: int = 256
    counts: dict[bytes, dict[int, int]] = field(default_factory=dict)
    totals: dict[bytes, int] = field(default_factory=dict)

    def __post_init__(self):
        if self.n not in (1, 2, 3):
            raise ValueError(f"n must be 1, 2 or 3, got {self.n}")
        if self.vocab_size < 1:
            raise ValueError("vocab_size must be positive")

    def update(self, data: bytes) -> None:
        """Add the sliding n-grams of one document to the counts.

        Documents shorter than n contribute nothing. N-grams never span
        document boundaries: call update once per file.
        """
        n = self.n
        for i in range(len(data) - n + 1):
            ctx = bytes(data[i: i + n - 1])
            sym = data[i + n - 1]
            by_symbol = self.counts.setdefault(ctx, {})
            by_symbol[sym] = by_symbol.get(sym, 0) + 1
            self.totals[ctx] = self.totals.get(ctx, 0) + 1

    def is_empty(self) -> bool:
        return not self.totals


def train_model(data: bytes, n: int, label: WeaknessClass | None = None,
                vocab_size: int = 256) -> NGramModel:
    model = NGramModel(n=n, label=label, vocab_size=vocab_size)
    model.update(data)
    return model


def probability(model: NGramModel, context: bytes, symbol: int,
                smoothing: SmoothingSpec) -> float:
    """Smoothed estimate of p(symbol | context) under the trained model.

    An entirely unseen context backs off to the uniform 1/V for every
    estimator. Witten-Bell discounts seen counts by c/(N+T) and splits the
    reserved T/(N+T) mass evenly over the V-T unseen symbols; when the
    context has no unseen symbols left there is nothing to reserve and the
    estimate reduces to plain c/N.
    """
    if len(context) != model.n - 1:
        raise ConfigError(
            f"context length {len(context)} does not match n={model.n}")
    ctx = bytes(context)
    v = model.vocab_size
    total = model.totals.get(ctx, 0)
    if total == 0:
        return 1.0 / v
    by_symbol = model.counts[ctx]
    count = by_symbol.get(symbol, 0)
    kind = smoothing.kind
    if kind == "mle":
        return count / total
    if kind == "add_delta":
        return (count + smoothing.delta) / (total + smoothing.delta * v)
    types = len(by_symbol)
    if v - types == 0:
        return count / total
    if count > 0:
        return count / (total + types)
    return types / ((total + types) * (v - types))


# TODO: cache a per-(model, smoothing) log-prob table for unigrams; scoring
# is the slow half of NLP runs and the table is only 256 entries.
def score_document(data: bytes, model: NGramModel,
                   smoothing: SmoothingSpec) -> float:
    """Natural-log likelihood of the document's n-grams; higher is better.

    MLE can hit zero-probability n-grams (and scores -inf on an untrained
    model); the smoothed estimators always return a finite score.
    """
    n = model.n
    n_grams = len(data) - n + 1
    if smoothing.kind == "mle" and model.is_empty() and n_grams > 0:
        return -math.inf
    score = 0.0
    for i in range(n_grams):
        p = probability(model, bytes(data[i: i + n - 1]), data[i + n - 1],
                        smoothing)
        if p == 0.0:
            return -math.inf
        score += math.log(p)
    return score


def rank_models(data: bytes, models: dict[WeaknessClass, NGramModel],
                smoothing: SmoothingSpec) -> ResultSet:
    """Rank classes by descending log-likelihood of the document.

    The score stored per class is the negated log-likelihood so the result
    set shares the centroid classifier's ascending-is-better convention.
    """
    if not models:
        raise ConfigError("no trained language models")
    classes = by_id(models)
    return ResultSet(rank(classes, [-score_document(data, models[wc], smoothing)
                                    for wc in classes]))


# --- persistence (same container family as CWTS; see docs/model-format.md) ---

def save_models(models: dict[WeaknessClass, NGramModel], file,
                config_hash: str = "unconfigured") -> None:
    if not models:
        raise ConfigError("refusing to persist an empty model set")
    n_values = {m.n for m in models.values()}
    vocab_values = {m.vocab_size for m in models.values()}
    if len(n_values) != 1 or len(vocab_values) != 1:
        raise ConfigError("all persisted models must share n and vocab_size")
    out = bytearray()
    out += MAGIC
    out += struct.pack("<HII", FORMAT_VERSION, n_values.pop(), vocab_values.pop())
    out += _pack_str(config_hash)
    out += struct.pack("<I", len(models))
    for wc in sorted(models, key=lambda w: (w.kind, w.id)):
        model = models[wc]
        out += _pack_str(wc.kind)
        out += _pack_str(wc.id)
        out += struct.pack("<I", len(model.counts))
        for ctx in sorted(model.counts):
            by_symbol = model.counts[ctx]
            out += ctx  # exactly n-1 raw bytes
            out += struct.pack("<I", len(by_symbol))
            for sym in sorted(by_symbol):
                out += struct.pack("<BQ", sym, by_symbol[sym])
    Path(file).write_bytes(bytes(out))


def load_models(file) -> tuple[dict[WeaknessClass, NGramModel], str]:
    buf = memoryview(Path(file).read_bytes())
    if bytes(buf[:4]) != MAGIC:
        raise ModelFormatError(f"{file}: bad magic (expected CWNM)")
    version, n, vocab = struct.unpack_from("<HII", buf, 4)
    if version != FORMAT_VERSION:
        raise ModelFormatError(f"{file}: unsupported version {version}")
    off = 4 + 10
    config_hash, off = _unpack_str(buf, off)
    (n_models,) = struct.unpack_from("<I", buf, off)
    off += 4
    models: dict[WeaknessClass, NGramModel] = {}
    for _ in range(n_models):
        kind, off = _unpack_str(buf, off)
        class_id, off = _unpack_str(buf, off)
        wc = WeaknessClass(kind, class_id)
        (n_contexts,) = struct.unpack_from("<I", buf, off)
        off += 4
        model = NGramModel(n=n, label=wc, vocab_size=vocab)
        for _ in range(n_contexts):
            ctx = bytes(buf[off: off + n - 1])
            off += n - 1
            (n_symbols,) = struct.unpack_from("<I", buf, off)
            off += 4
            by_symbol = {}
            for _ in range(n_symbols):
                sym, count = struct.unpack_from("<BQ", buf, off)
                off += 9
                by_symbol[sym] = count
            model.counts[ctx] = by_symbol
            model.totals[ctx] = sum(by_symbol.values())
        models[wc] = model
    return models, config_hash
