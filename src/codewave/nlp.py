"""Byte n-gram language models with MLE, add-delta, and Witten-Bell estimates.

One model is trained per weakness class; an unseen document is scored by the
summed log-probability of its n-grams under each model, and classes are
ranked by that likelihood. The alphabet is raw bytes (V=256): "character"
mode means byte mode here, which keeps compiled binaries scannable with the
identical code path.

Every n-gram is an integer code: its (n-1)-byte context read big-endian,
times 256, plus its symbol (at most 24 bits). Counting and scoring are numpy
passes over a document's codes. A model keeps its sorted distinct codes and
their counts; `counts`/`totals` are dict views derived from them. Scoring
looks each code up in a log-probability table, built once per smoothing with
the scalar arithmetic of `probability` and `math.log`, and adds the values
left to right with `np.cumsum`, so a score has the bits of the sequential sum
of `math.log(p)`.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .classify import _model_buffer, _pack_str, _unpack_str, by_id, rank
from .errors import ConfigError, ModelFormatError
from .index import WeaknessClass

MAGIC = b"CWNM"
FORMAT_VERSION = 1

SMOOTHINGS = ("mle", "add_delta", "witten_bell")
VOCAB_SIZE = 256  # every byte value is a symbol

# one symbol of a context in a CWNM file: u8 symbol, u64 count, packed
RECORD = np.dtype([("symbol", "u1"), ("count", "<u8")])


@dataclass(frozen=True)
class SmoothingSpec:
    kind: str = "add_delta"
    delta: float = 1.0  # add-one by default

    def __post_init__(self):
        if self.kind not in SMOOTHINGS:
            raise ValueError(f"unknown smoothing {self.kind!r}")
        if self.kind == "add_delta" and self.delta <= 0:
            raise ValueError("delta must be > 0")


def ngram_codes(data: bytes, n: int) -> np.ndarray:
    """The code of every sliding n-gram of `data`, in document order."""
    symbols = np.frombuffer(data, dtype=np.uint8).astype(np.int64)
    m = max(len(symbols) - n + 1, 0)
    codes = symbols[:m]
    for k in range(1, n):
        codes = (codes << 8) + symbols[k: k + m]
    return codes


def ngram_counts(data: bytes, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(sorted distinct codes, their counts) of one document's n-grams."""
    return np.unique(ngram_codes(data, n), return_counts=True)


@dataclass(eq=False)
class NGramModel:
    """Counts of n-gram continuations, keyed by (n-1)-byte context.

    The counts are kept as sorted distinct n-gram codes and their counts
    (`code_counts`); `counts` and `totals` are read-only dict views of them.
    """

    n: int
    label: WeaknessClass | None = None

    def __post_init__(self):
        if self.n not in (1, 2, 3):
            raise ValueError(f"n must be 1, 2 or 3, got {self.n}")
        self._codes = np.empty(0, dtype=np.int64)
        self._code_counts = np.empty(0, dtype=np.int64)
        self._pending: list[tuple[np.ndarray, np.ndarray]] = []
        self._views = None
        self._tables: dict[SmoothingSpec, _LogProbTable] = {}

    def update(self, data: bytes) -> None:
        """Add the sliding n-grams of one document to the counts.

        Documents shorter than n contribute nothing. N-grams never span
        document boundaries: call update once per file.
        """
        self.add_counts(*ngram_counts(data, self.n))

    def add_counts(self, codes: np.ndarray, counts: np.ndarray) -> None:
        """Add counted n-gram codes (as from `ngram_counts`); merged into
        the model's arrays on the next read, and every cached view and
        log-prob table is dropped."""
        if len(codes):
            self._pending.append((codes, counts))
            self._views = None
            self._tables.clear()

    def code_counts(self) -> tuple[np.ndarray, np.ndarray]:
        """(sorted distinct codes, their counts) of everything added."""
        if self._pending:
            codes = np.concatenate([self._codes, *(c for c, _ in self._pending)])
            counts = np.concatenate(
                [self._code_counts, *(k for _, k in self._pending)])
            self._pending = []
            order = np.argsort(codes, kind="stable")
            codes, counts = codes[order], counts[order]
            starts = np.flatnonzero(np.diff(codes, prepend=-1))
            self._codes = codes[starts]
            self._code_counts = np.add.reduceat(counts, starts)
        return self._codes, self._code_counts

    def _dict_views(self) -> tuple[dict[bytes, dict[int, int]], dict[bytes, int]]:
        if self._views is None:
            counts: dict[bytes, dict[int, int]] = {}
            codes, code_counts = self.code_counts()
            for code, count in zip(codes.tolist(), code_counts.tolist()):
                ctx = (code >> 8).to_bytes(self.n - 1, "big")
                counts.setdefault(ctx, {})[code & 0xFF] = count
            self._views = counts, {ctx: sum(by_symbol.values())
                                   for ctx, by_symbol in counts.items()}
        return self._views

    @property
    def counts(self) -> dict[bytes, dict[int, int]]:
        """{context bytes: {symbol: count}}."""
        return self._dict_views()[0]

    @property
    def totals(self) -> dict[bytes, int]:
        """{context bytes: number of n-grams with that context}."""
        return self._dict_views()[1]

    def log_prob_table(self, smoothing: SmoothingSpec) -> _LogProbTable:
        """The model's log-prob table under `smoothing`, built on first use."""
        table = self._tables.get(smoothing)
        if table is None:
            table = self._tables[smoothing] = _LogProbTable.build(self, smoothing)
        return table


def train_model(data: bytes, n: int, label: WeaknessClass | None = None) -> NGramModel:
    model = NGramModel(n=n, label=label)
    model.update(data)
    return model


def _estimate(count: int, total: int, types: int,
              smoothing: SmoothingSpec) -> float:
    """p(symbol | context) from the symbol's count and its context's total
    and number of distinct symbols; a total of 0 is an unseen context."""
    if total == 0:
        return 1.0 / VOCAB_SIZE
    kind = smoothing.kind
    if kind == "mle":
        return count / total
    if kind == "add_delta":
        return (count + smoothing.delta) / (total + smoothing.delta * VOCAB_SIZE)
    if VOCAB_SIZE - types == 0:
        return count / total
    if count > 0:
        return count / (total + types)
    return types / ((total + types) * (VOCAB_SIZE - types))


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
    by_symbol = model.counts.get(ctx, {})
    return _estimate(by_symbol.get(symbol, 0), model.totals.get(ctx, 0),
                     len(by_symbol), smoothing)


def _log(p: float) -> float:
    """math.log(p), and -inf for p == 0."""
    return math.log(p) if p > 0.0 else -math.inf


def _find(keys: np.ndarray, table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Position of each key in the sorted non-empty `table`, and whether the
    key is there."""
    at = np.minimum(np.searchsorted(table, keys), len(table) - 1)
    return at, table[at] == keys


@dataclass(frozen=True)
class _LogProbTable:
    """log p of every n-gram code under one model and smoothing."""

    pairs: np.ndarray          # sorted seen n-gram codes
    pair_logp: np.ndarray
    contexts: np.ndarray       # sorted seen context codes
    unseen_logp: np.ndarray    # of a symbol unseen in that context
    new_context_logp: float    # of any symbol in an unseen context

    @classmethod
    def build(cls, model: NGramModel, smoothing: SmoothingSpec) -> _LogProbTable:
        codes, counts = model.code_counts()
        contexts, starts, types = np.unique(
            codes >> 8, return_index=True, return_counts=True)
        totals = np.add.reduceat(counts, starts) if len(codes) else counts
        pair_stats = zip(counts.tolist(), np.repeat(totals, types).tolist(),
                         np.repeat(types, types).tolist())
        # an empty model has seen no context, and MLE has no estimate in an
        # unseen one: a document of one n-gram or more scores -inf
        empty_mle = smoothing.kind == "mle" and not len(codes)
        return cls(
            pairs=codes,
            pair_logp=np.array([_log(_estimate(count, total, k, smoothing))
                                for count, total, k in pair_stats]),
            contexts=contexts,
            unseen_logp=np.array([_log(_estimate(0, total, k, smoothing))
                                  for total, k in zip(totals.tolist(),
                                                      types.tolist())]),
            new_context_logp=-math.inf if empty_mle
            else _log(_estimate(0, 0, 0, smoothing)))

    def logp(self, codes: np.ndarray) -> np.ndarray:
        """log p of each n-gram code (the searches are fastest on sorted
        codes)."""
        logp = np.full(len(codes), self.new_context_logp)
        if len(self.contexts):
            at, seen = _find(codes >> 8, self.contexts)
            logp[seen] = self.unseen_logp[at[seen]]
            at, seen = _find(codes, self.pairs)
            logp[seen] = self.pair_logp[at[seen]]
        return logp


def _sequential_sum(logp: np.ndarray) -> float:
    """The left-to-right sum of a loop of `score += math.log(p)`, which
    stops at the first p == 0 with a score of -inf."""
    return float(np.cumsum(logp)[-1]) if len(logp) else 0.0


def score_documents(documents: Iterable[bytes], models: Sequence[NGramModel],
                    smoothing: SmoothingSpec) -> np.ndarray:
    """N x K natural-log likelihoods of each document under each model;
    higher is better.

    MLE can hit zero-probability n-grams (and scores -inf on an untrained
    model); the smoothed estimators always return a finite score. A document
    shorter than n scores 0.0. Each model's table is searched once per
    distinct n-gram of a document, and the values are summed in document
    order.
    """
    tables = [model.log_prob_table(smoothing) for model in models]
    rows = []
    for data in documents:
        grams = {n: np.unique(ngram_codes(data, n), return_inverse=True)
                 for n in {model.n for model in models}}
        row = []
        for model, table in zip(models, tables):
            distinct, inverse = grams[model.n]
            row.append(_sequential_sum(table.logp(distinct)[inverse]))
        rows.append(row)
    return np.array(rows, dtype=np.float64).reshape(len(rows), len(models))


def rank_models(data: bytes, models: dict[WeaknessClass, NGramModel],
                smoothing: SmoothingSpec) -> list[tuple[WeaknessClass, float]]:
    """Rank classes by descending log-likelihood of the document.

    The score paired with each class is the negated log-likelihood, so the
    ranking shares the centroid classifier's ascending-is-better convention.
    """
    if not models:
        raise ConfigError("no trained language models")
    classes = by_id(models)
    scores = score_documents([data], [models[wc] for wc in classes], smoothing)
    return rank(classes, -scores[0])


# --- persistence (same container family as CWTS; see docs/model-format.md) ---

def models_bytes(models: dict[WeaknessClass, NGramModel],
                 config_hash: str = "unconfigured") -> bytes:
    """The versioned little-endian container with magic CWNM."""
    if not models:
        raise ConfigError("refusing to persist an empty model set")
    n_values = {m.n for m in models.values()}
    if len(n_values) != 1:
        raise ConfigError("all persisted models must share n")
    n = n_values.pop()
    out = bytearray()
    out += MAGIC
    out += struct.pack("<HII", FORMAT_VERSION, n, VOCAB_SIZE)
    out += _pack_str(config_hash)
    out += struct.pack("<I", len(models))
    for wc in sorted(models, key=lambda w: (w.kind, w.id)):
        codes, counts = models[wc].code_counts()
        records = np.empty(len(codes), dtype=RECORD)
        records["symbol"] = codes & 0xFF
        records["count"] = counts
        contexts = codes >> 8
        starts = np.flatnonzero(np.diff(contexts, prepend=-1)).tolist()
        out += _pack_str(wc.kind)
        out += _pack_str(wc.id)
        out += struct.pack("<I", len(starts))
        for lo, hi in zip(starts, starts[1:] + [len(codes)]):
            out += int(contexts[lo]).to_bytes(n - 1, "big")  # exactly n-1 raw bytes
            out += struct.pack("<I", hi - lo)
            out += records[lo:hi].tobytes()
    return bytes(out)


def load_models(file) -> tuple[dict[WeaknessClass, NGramModel], str]:
    with _model_buffer(file) as buf:
        if bytes(buf[:4]) != MAGIC:
            raise ModelFormatError(f"{file}: bad magic (expected CWNM)")
        version, n, vocab = struct.unpack_from("<HII", buf, 4)
        if version != FORMAT_VERSION:
            raise ModelFormatError(f"{file}: unsupported version {version}")
        if vocab != VOCAB_SIZE:
            raise ModelFormatError(
                f"{file}: vocabulary size {vocab}, not {VOCAB_SIZE} byte values")
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
            model = NGramModel(n=n, label=wc)
            for _ in range(n_contexts):
                ctx, n_symbols = struct.unpack_from(f"<{n - 1}sI", buf, off)
                off += n + 3
                records = np.frombuffer(buf, dtype=RECORD, count=n_symbols, offset=off)
                off += records.nbytes
                model.add_counts(int.from_bytes(ctx, "big") << 8
                                 | records["symbol"].astype(np.int64),
                                 records["count"].astype(np.int64))
            models[wc] = model
        return models, config_hash
