"""End-to-end orchestration: train on an index, classify a test index,
threshold the results into warnings, and tally precision statistics.

A PipelineConfig pins every knob of a run and canonicalizes to the flag
string used in reports and result tables (e.g. "-cweid -nopreprep -raw -fft
-cheb"), so a table row can always be replayed as a command line.
"""

from __future__ import annotations

import hashlib
import math
import os
import pickle
import time
from dataclasses import dataclass, field
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path
from typing import Iterable, Optional, Union

import numpy as np

from . import nlp
from .classify import METRICS, ResultSet, TrainingSet, by_id, centroid_distances
from .classify import classify as classify_vector
from .classify import train as train_clusters
from .errors import ConfigError
from .features import FeatureVector, extract_fft, extract_lpc, extract_minmax
from .index import TestCaseIndex, WeaknessClass
from .loader import Signal, samples_from_bytes
from .preprocess import SCALING, FilterSpec, preprocess, wavelet

NGRAM_FLAGS = {1: "-unigram", 2: "-bigram", 3: "-trigram"}
FLAG_NGRAMS = {v: k for k, v in NGRAM_FLAGS.items()}
SMOOTHING_FLAGS = {"mle": "-mle", "add_delta": "-add-delta",
                   "witten_bell": "-witten-bell"}
FLAG_SMOOTHINGS = {v: k for k, v in SMOOTHING_FLAGS.items()}

ModelType = Union[TrainingSet, dict[WeaknessClass, nlp.NGramModel]]


@dataclass(frozen=True)
class PipelineConfig:
    class_kind: str = "cve"          # cve | cwe ("-cweid")
    pipeline: str = "signal"         # signal | nlp
    loader_ngram: int = 2            # byte window of the signal loader
    filter_kind: str = "raw"         # raw | norm | low | sdwt
    cutoff_fraction: float = 0.25
    wavelet_name: str = "haar"
    sdwt_levels: int = 1
    extractor: str = "fft"           # fft | lpc | minmax
    fft_window: int = 1024
    fft_bins: int = 512
    lpc_order: int = 20
    minmax_d: int = 4
    metric: str = "cheb"             # eucl | cheb | mink | cos | hamming | diff
    mink_p: float = 3.0
    tolerance: float = 1e-4          # hamming / diff threshold
    cluster_kind: str = "mean"       # mean | median
    nlp_n: int = 1
    smoothing: str = "add_delta"     # mle | add_delta | witten_bell
    delta: float = 1.0
    vocab_size: int = 256
    threshold: float = math.inf      # accept a warning when top-1 score <= this
    flucid: bool = False
    spectrogram: bool = False
    graph: bool = False

    def __post_init__(self):
        for name, allowed in (("class_kind", ("cve", "cwe")),
                              ("pipeline", ("signal", "nlp")),
                              ("loader_ngram", (1, 2, 3)),
                              ("nlp_n", (1, 2, 3)),
                              ("filter_kind", ("raw", "norm", "low", "sdwt")),
                              ("wavelet_name", tuple(SCALING)),
                              ("extractor", ("fft", "lpc", "minmax")),
                              ("minmax_d", (2, 4)),
                              ("metric", METRICS),
                              ("cluster_kind", ("mean", "median")),
                              ("smoothing", nlp.SMOOTHINGS)):
            if getattr(self, name) not in allowed:
                raise ConfigError(f"{name} must be one of {allowed}, "
                                  f"not {getattr(self, name)!r}")
        # each bound reads "valid", so a NaN parameter fails it too
        for valid, problem in (
                (0.0 < self.cutoff_fraction <= 1.0, "low-pass cutoff must be in (0, 1]"),
                (self.sdwt_levels >= 1, "sdwt levels must be >= 1"),
                (self.fft_window >= 1, "fft window must be >= 1"),
                (1 <= self.fft_bins <= self.fft_window // 2,
                 "fft bins must be between 1 and window/2"),
                (self.lpc_order >= 1, "lpc order must be >= 1"),
                (1.0 <= self.mink_p < math.inf, "minkowski exponent must be finite and >= 1"),
                (0.0 <= self.tolerance < math.inf, "tolerance must be finite and >= 0"),
                (0.0 < self.delta < math.inf, "delta must be finite and > 0"),
                (self.threshold >= 0.0, "threshold must be a number >= 0")):
            if not valid:
                raise ConfigError(problem)

    @property
    def option_string(self) -> str:
        """Canonical flag form; defaults are omitted, parameters attach
        to their flag with '=' (e.g. -mink=4)."""
        tokens = []
        if self.class_kind == "cwe":
            tokens.append("-cweid")
        tokens.append("-nopreprep")
        if self.pipeline == "signal":
            if self.loader_ngram != 2:
                tokens.append(NGRAM_FLAGS[self.loader_ngram])
            tokens.append(self._prep_token())
            tokens.append(self._extractor_token())
            tokens.append(self._metric_token())
            if self.cluster_kind == "median":
                tokens.append("-median")
        else:
            tokens.append("-char")
            tokens.append(NGRAM_FLAGS[self.nlp_n])
            tokens.append(self._smoothing_token())
        if math.isfinite(self.threshold):
            tokens.append(f"-threshold={self.threshold:g}")
        for flag, enabled in (("-flucid", self.flucid),
                              ("-spectrogram", self.spectrogram),
                              ("-graph", self.graph)):
            if enabled:
                tokens.append(flag)
        return " ".join(tokens)

    def _prep_token(self) -> str:
        if self.filter_kind == "low":
            return "-low" if self.cutoff_fraction == 0.25 else \
                f"-low={self.cutoff_fraction:g}"
        if self.filter_kind == "sdwt":
            if self.wavelet_name == "haar" and self.sdwt_levels == 1:
                return "-sdwt"
            return f"-sdwt={self.wavelet_name}:{self.sdwt_levels}"
        return f"-{self.filter_kind}"

    def _extractor_token(self) -> str:
        if self.extractor == "fft":
            if (self.fft_window, self.fft_bins) == (1024, 512):
                return "-fft"
            return f"-fft={self.fft_window}:{self.fft_bins}"
        if self.extractor == "lpc":
            return "-lpc" if self.lpc_order == 20 else f"-lpc={self.lpc_order}"
        return "-minmax" if self.minmax_d == 4 else f"-minmax={self.minmax_d}"

    def _metric_token(self) -> str:
        if self.metric == "mink" and self.mink_p != 3.0:
            return f"-mink={self.mink_p:g}"
        if self.metric in ("hamming", "diff") and self.tolerance != 1e-4:
            return f"-{self.metric}={self.tolerance:g}"
        return f"-{self.metric}"

    def _smoothing_token(self) -> str:
        if self.smoothing == "add_delta" and self.delta != 1.0:
            return f"-add-delta={self.delta:g}"
        return SMOOTHING_FLAGS[self.smoothing]

    @property
    def config_hash(self) -> str:
        """Fingerprint of the loader/preprocess/extractor settings.

        Stored inside persisted models to stop mixed-pipeline comparisons.
        Test-time choices (metric, threshold, smoothing estimator, output
        flags) are deliberately excluded: centroids are metric-agnostic and
        n-gram counts are smoothing-agnostic, so one trained model serves
        every compatible test configuration.
        """
        if self.pipeline == "signal":
            parts = ["signal", self.class_kind, str(self.loader_ngram),
                     self._prep_token(), self._extractor_token()]
        else:
            parts = ["nlp", self.class_kind, str(self.nlp_n),
                     f"V={self.vocab_size}"]
        return hashlib.sha256("|".join(parts).encode("utf-8")).hexdigest()[:16]

    def filter_spec(self) -> FilterSpec:
        kind = {"low": "fft_low"}.get(self.filter_kind, self.filter_kind)
        if kind == "sdwt":
            return FilterSpec(kind="sdwt", wavelet=wavelet(self.wavelet_name),
                              levels=self.sdwt_levels)
        return FilterSpec(kind=kind, cutoff_fraction=self.cutoff_fraction)

    def smoothing_spec(self) -> nlp.SmoothingSpec:
        return nlp.SmoothingSpec(self.smoothing, self.delta)


def _sdwt_param(param: str) -> dict:
    name, _, levels = param.partition(":")
    return {"wavelet_name": name, **({"sdwt_levels": int(levels)} if levels else {})}


def _fft_param(param: str) -> dict:
    window, _, bins = param.partition(":")
    return {"fft_window": int(window),
            "fft_bins": int(bins) if bins else int(window) // 2}


# flag -> (the category it settles, or None if any number may be given;
#          the fields it sets; a parser turning its "=param" into more fields,
#          or None when it takes no parameter)
FLAG_TABLE = {
    "-nopreprep": (None, {}, None),
    "-cweid": ("class kind", {"class_kind": "cwe"}, None),
    **{flag: ("n-gram size", {"n": n}, None) for flag, n in FLAG_NGRAMS.items()},
    **{f"-{k}": ("preprocessing", {"filter_kind": k}, None) for k in ("raw", "norm")},
    "-low": ("preprocessing", {"filter_kind": "low"},
             lambda v: {"cutoff_fraction": float(v)}),
    "-sdwt": ("preprocessing", {"filter_kind": "sdwt"}, _sdwt_param),
    "-fft": ("extractor", {"extractor": "fft"}, _fft_param),
    "-lpc": ("extractor", {"extractor": "lpc"}, lambda v: {"lpc_order": int(v)}),
    "-minmax": ("extractor", {"extractor": "minmax"},
                lambda v: {"minmax_d": int(v)}),
    **{f"-{m}": ("metric", {"metric": m}, None) for m in ("eucl", "cheb", "cos")},
    "-mink": ("metric", {"metric": "mink"}, lambda v: {"mink_p": float(v)}),
    **{f"-{m}": ("metric", {"metric": m}, lambda v: {"tolerance": float(v)})
       for m in ("hamming", "diff")},
    "-median": ("cluster kind", {"cluster_kind": "median"}, None),
    "-char": (None, {"pipeline": "nlp"}, None),
    **{flag: ("smoothing", {"smoothing": kind},
              (lambda v: {"delta": float(v)}) if kind == "add_delta" else None)
       for flag, kind in FLAG_SMOOTHINGS.items()},
    "-threshold": (None, {}, lambda v: {"threshold": float(v)}),
    **{f"-{name}": (None, {name: True}, None)
       for name in ("flucid", "spectrogram", "graph")},
}


def is_pipeline_flag(token: str) -> bool:
    """Whether a command-line token is a pipeline flag (either dash form)."""
    flag = token[1:] if token.startswith("--") else token
    return flag.partition("=")[0] in FLAG_TABLE


def parse_option_tokens(tokens: Iterable[str]) -> PipelineConfig:
    """Parse a flag list (option-string form) back into a PipelineConfig.

    Accepts the single-dash spellings used in result tables plus double-dash
    synonyms; parameters ride on the flag after '='. Conflicting choices in
    the same category are rejected rather than last-one-wins so a typo in a
    sweep grid cannot silently change the run.
    """
    fields: dict = {}
    seen: dict[str, str] = {}  # category -> flag that set it
    for raw in tokens:
        flag = raw[1:] if raw.startswith("--") else raw
        name, _, param = flag.partition("=")
        if name not in FLAG_TABLE:
            raise ConfigError(f"unknown option {raw!r}")
        category, values, parse = FLAG_TABLE[name]
        if param and parse is None:
            raise ConfigError(f"{name} takes no parameter")
        if parse and not (param or values):
            raise ConfigError(f"{name} needs a value ({name}=x)")
        if category in seen:
            raise ConfigError(
                f"conflicting flags: {seen[category]} and {name} both set "
                f"the {category}")
        if category is not None:
            seen[category] = name
        fields.update(values, **(parse(param) if param else {}))

    n = fields.pop("n", None)
    nlp_flags = {"smoothing"} & set(seen)
    signal_flags = {"preprocessing", "extractor", "metric", "cluster kind"} & set(seen)
    if fields.get("pipeline") == "nlp" or nlp_flags:
        if signal_flags:
            raise ConfigError(
                "conflicting flags: cannot mix the NLP pipeline "
                f"({seen.get('smoothing', '-char')}) with signal flags "
                f"({', '.join(sorted(seen[c] for c in signal_flags))})")
        fields["pipeline"] = "nlp"
    if n is not None:
        fields["nlp_n" if fields.get("pipeline") == "nlp" else "loader_ngram"] = n
    return PipelineConfig(**fields)


def parse_option_string(option_string: str) -> PipelineConfig:
    return parse_option_tokens(option_string.split())


# --- one file -------------------------------------------------------------------

def feature_vector(cfg: PipelineConfig, data: bytes) -> FeatureVector:
    """Run the signal pipeline on raw bytes: load, preprocess, extract."""
    sig = preprocess(Signal(samples_from_bytes(data, cfg.loader_ngram)),
                     cfg.filter_spec())
    if cfg.extractor == "fft":
        return extract_fft(sig, cfg.fft_window, cfg.fft_bins)
    if cfg.extractor == "lpc":
        return extract_lpc(sig, cfg.lpc_order)
    return extract_minmax(sig, cfg.minmax_d)


def classify_bytes(data: bytes, model: ModelType, cfg: PipelineConfig) -> ResultSet:
    """Produce the ranked class list for one file's content: the one-row
    form of the scoring that `test_case` runs on whole batches."""
    _model_classes(model, cfg)
    if cfg.pipeline == "signal":
        return classify_vector(feature_vector(cfg, data), model, cfg.metric,
                               cfg.mink_p, cfg.tolerance)
    return nlp.rank_models(data, model, cfg.smoothing_spec())


# --- warnings and statistics ---------------------------------------------------

@dataclass(frozen=True)
class ScanWarning:
    """An accepted classification: this file looks like that weakness."""

    path: str
    weakness: WeaknessClass
    score: float
    rank: int = 1
    second_guess: Optional[WeaknessClass] = None
    config: str = ""

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("rank must be >= 1")
        if not math.isfinite(self.score):
            raise ValueError("warning score must be finite")


def warning_from_result(path: str, result: ResultSet,
                        cfg: PipelineConfig) -> Optional[ScanWarning]:
    """Apply the accept threshold to a ranked result; None means rejected."""
    if not result.ranked:
        return None
    top, score = result.ranked[0]
    if score > cfg.threshold or not math.isfinite(score):
        return None
    second = result.ranked[1][0] if len(result.ranked) > 1 else None
    return ScanWarning(path=path, weakness=top, score=score, rank=1,
                       second_guess=second, config=cfg.option_string)


def precision_pct(good: int, bad: int) -> Decimal:
    """Exact percentage, half-up at two decimals; empty tallies print 0.00."""
    if good + bad == 0:
        return Decimal("0.00")
    return (Decimal(100 * good) / Decimal(good + bad)).quantize(
        Decimal("0.01"), rounding=ROUND_HALF_UP)


@dataclass
class StatsRow:
    key: str  # option string (per-config rows) or class id (per-class rows)
    good: int = 0
    bad: int = 0

    @property
    def pct(self) -> Decimal:
        return precision_pct(self.good, self.bad)


@dataclass
class RunStats:
    guess: str  # first | second
    per_config: list[StatsRow] = field(default_factory=list)
    per_class: list[StatsRow] = field(default_factory=list)
    diagnostics: list[str] = field(default_factory=list)


def check_recall(rows: Iterable[StatsRow], expected_total: int) -> list[str]:
    """Flag per-config rows whose tallies cannot cover the evaluated files.

    good + bad short of the class-bearing file count means results went
    missing between classification and scoring (the kind of bookkeeping bug
    that shows up as a 2+0-out-of-9 row in a results table).
    """
    problems = []
    for row in rows:
        if row.good + row.bad < expected_total:
            problems.append(
                f"recall shortfall for {row.key!r}: good+bad = "
                f"{row.good + row.bad} < {expected_total} evaluated files")
    return problems


def score_stats(warnings: list[ScanWarning], truth: TestCaseIndex,
                cfg: PipelineConfig) -> tuple[RunStats, RunStats]:
    """Tally first-guess and second-guess precision against ground truth.

    A first guess is good when the top class is among the file's true
    classes; the second-guess tally also accepts the runner-up, and a
    correct first guess counts in both. Per-class rows credit or debit the
    predicted class; classes never predicted keep an all-zero row (that is
    how a class that fell out of training shows up as 0.00).
    """
    truth_map: dict[str, set[WeaknessClass]] = {}
    for entry in truth.entries:
        wanted = {wc for wc in entry.class_set() if wc.kind == cfg.class_kind}
        if wanted:
            truth_map[entry.path] = wanted
    expected_total = len(truth_map)

    first = RunStats("first")
    second = RunStats("second")
    class_rows_first: dict[str, StatsRow] = {}
    class_rows_second: dict[str, StatsRow] = {}
    for wc in sorted({w for s in truth_map.values() for w in s},
                     key=lambda w: w.id):
        class_rows_first[wc.id] = StatsRow(wc.id)
        class_rows_second[wc.id] = StatsRow(wc.id)

    def tally(config_row: StatsRow, rows: dict[str, StatsRow],
              wc: WeaknessClass, good: bool) -> None:
        for counted in (config_row, rows.setdefault(wc.id, StatsRow(wc.id))):
            if good:
                counted.good += 1
            else:
                counted.bad += 1

    config_first = StatsRow(cfg.option_string)
    config_second = StatsRow(cfg.option_string)
    excluded = 0
    for warning in warnings:
        true_classes = truth_map.get(warning.path)
        if true_classes is None:
            excluded += 1
            continue
        top_hit = warning.weakness in true_classes
        tally(config_first, class_rows_first, warning.weakness, top_hit)
        if not top_hit and warning.second_guess in true_classes:
            tally(config_second, class_rows_second, warning.second_guess, True)
        else:
            tally(config_second, class_rows_second, warning.weakness, top_hit)

    for stats, config_row, class_rows in (
        (first, config_first, class_rows_first),
        (second, config_second, class_rows_second),
    ):
        stats.per_config.append(config_row)
        stats.per_class.extend(
            sorted(class_rows.values(),
                   key=lambda r: (-r.pct, r.key)))
        if excluded:
            stats.diagnostics.append(
                f"{excluded} warning(s) excluded: path missing from ground truth")
        stats.diagnostics.extend(check_recall([config_row], expected_total))
    return first, second


# --- the batch path: files in, feature or score matrices out -------------------

def _contents(root, paths: Iterable[str]) -> Iterable[bytes]:
    return ((Path(root) / path).read_bytes() for path in paths)


def _fork_map(fn, items: list, jobs: int) -> list:
    """Apply `fn` to contiguous chunks of `items`, one chunk per job, and
    return the chunk results in order.

    The caller runs the first chunk itself; each other chunk runs in a
    forked child that inherits its inputs copy-on-write and streams its
    pickled result into a pipe. Without os.fork every chunk runs in-process.
    """
    # forking past the core count only adds contention, and a child for one
    # file costs more than it saves
    jobs = max(1, min(jobs, os.cpu_count() or 1, len(items) // 2))
    size = max(1, -(-len(items) // jobs))
    chunks = [items[i: i + size] for i in range(0, len(items), size)]
    if len(chunks) < 2 or not hasattr(os, "fork"):
        return [fn(chunk) for chunk in chunks]
    children = []
    for chunk in chunks[1:]:
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:  # child
            os.close(read_fd)
            try:
                message = ("ok", fn(chunk))
            except BaseException as exc:  # noqa: BLE001 - crossing a process
                try:
                    message = ("exc", pickle.loads(pickle.dumps(exc)))
                except Exception:
                    message = ("exc", RuntimeError(repr(exc)))
            try:
                with os.fdopen(write_fd, "wb") as sink:
                    pickle.dump(message, sink, protocol=pickle.HIGHEST_PROTOCOL)
            finally:
                os._exit(0)
        os.close(write_fd)
        children.append((pid, read_fd))
    results, failure = [], None
    try:
        results.append(fn(chunks[0]))
    except BaseException as exc:  # noqa: BLE001 - reap the children first
        failure = exc
    for pid, read_fd in children:
        with os.fdopen(read_fd, "rb") as source:
            try:
                status, value = pickle.load(source)
            except (EOFError, pickle.UnpicklingError):
                status, value = "exc", RuntimeError("parallel worker died without a result")
        os.waitpid(pid, 0)
        if status == "ok":
            results.append(value)
        else:
            failure = failure or value
    if failure is not None:
        raise failure
    return results


def _features(cfg: PipelineConfig, root, paths: list[str]) -> np.ndarray:
    """N x d float64 feature matrix, one row per file, filled in place."""
    matrix = None
    for i, data in enumerate(_contents(root, paths)):
        row = feature_vector(cfg, data).values
        matrix = np.empty((len(paths), row.size)) if matrix is None else matrix
        matrix[i] = row
    return matrix


def _feature_rows(cfg: PipelineConfig, root, paths: list[str],
                  jobs: int) -> dict[str, np.ndarray]:
    """The feature row of every distinct path, from one fork-join."""
    paths = list(dict.fromkeys(paths))
    parts = _fork_map(lambda chunk: _features(cfg, root, chunk), paths, jobs)
    return dict(zip(paths, (row for part in parts for row in part)))


def _model_classes(model: ModelType, cfg: PipelineConfig) -> list[WeaknessClass]:
    """The model's classes in score-matrix column order (by id), after
    checking that the model fits the configuration."""
    signal_model = isinstance(model, TrainingSet)
    if signal_model and model.config_hash != cfg.config_hash:
        raise ConfigError(
            f"model was trained under a different configuration "
            f"(model {model.config_hash}, requested {cfg.config_hash})")
    if signal_model != (cfg.pipeline == "signal"):
        raise ConfigError(f"the {cfg.pipeline} pipeline cannot use this model")
    classes = model.classes if signal_model else model
    if not classes:
        raise ConfigError("the model has no classes")
    return by_id(classes)


def _scores(cfg: PipelineConfig, model: ModelType,
            classes: list[WeaknessClass], root, paths: list[str]) -> np.ndarray:
    """N x K score matrix of file contents against `classes`, lower is
    better: centroid distances, or negated n-gram log-likelihoods."""
    if cfg.pipeline == "signal":
        return centroid_distances(_features(cfg, root, paths), model, classes,
                                  cfg.metric, cfg.mink_p, cfg.tolerance)
    spec = cfg.smoothing_spec()
    return np.array([[-nlp.score_document(data, model[wc], spec)
                      for wc in classes] for data in _contents(root, paths)])


def _score_index(index: TestCaseIndex, model: ModelType, cfg: PipelineConfig,
                 root, jobs: int):
    """(paths, classes, scores) for every file of `index`, from one
    fork-join whose children each return their block of the score matrix."""
    classes = _model_classes(model, cfg)
    paths = [entry.path for entry in index.entries]
    parts = _fork_map(lambda chunk: _scores(cfg, model, classes, root, chunk),
                      paths, jobs)
    scores = np.concatenate(parts) if parts else np.empty((0, len(classes)))
    return paths, classes, scores


def _warnings(paths: list[str], classes: list[WeaknessClass],
              scores: np.ndarray, cfg: PipelineConfig) -> list[ScanWarning]:
    """Threshold each score row's best class into a warning, in row order.

    A stable sort over id-ordered columns ranks by (score, id), so only
    the top two entries of each row are ever materialized.
    """
    warnings = []
    top_two = np.argsort(scores, axis=1, kind="stable")[:, :2]
    for path, row, top in zip(paths, scores, top_two):
        result = ResultSet([(classes[j], float(row[j])) for j in top])
        warning = warning_from_result(path, result, cfg)
        if warning is not None:
            warnings.append(warning)
    return warnings


def _labeled(index: TestCaseIndex, cfg: PipelineConfig,
             ) -> list[tuple[str, list[WeaknessClass]]]:
    """(path, classes) of every train entry with classes of the run's kind."""
    if index.mode != "train":
        raise ConfigError("training requires a train-mode index")
    labeled = [(entry.path, by_id(wc for wc in entry.class_set()
                                  if wc.kind == cfg.class_kind))
               for entry in index.entries]
    labeled = [(path, classes) for path, classes in labeled if classes]
    if not labeled:
        raise ConfigError(
            f"no {cfg.class_kind} classes found in the training index")
    return labeled


def _train(labeled, cfg: PipelineConfig, rows: dict[str, np.ndarray]) -> TrainingSet:
    vectors = [(wc, rows[path]) for path, classes in labeled for wc in classes]
    return train_clusters(vectors, cfg.cluster_kind, cfg.config_hash)


def train_case(index: TestCaseIndex, cfg: PipelineConfig, root,
               jobs: int = 1) -> ModelType:
    """Learn one model per weakness class from an annotated train index.

    A file annotated with several classes contributes its whole content to
    each of them; there is no fragment-level attribution. With jobs > 1
    feature extraction forks across cores; results are identical either way.
    """
    labeled = _labeled(index, cfg)
    paths = [path for path, _ in labeled]
    if cfg.pipeline == "signal":
        return _train(labeled, cfg, _feature_rows(cfg, root, paths, jobs))
    models: dict[WeaknessClass, nlp.NGramModel] = {}
    for (_, classes), data in zip(labeled, _contents(root, paths)):
        for wc in classes:
            models.setdefault(wc, nlp.NGramModel(
                n=cfg.nlp_n, label=wc, vocab_size=cfg.vocab_size)).update(data)
    return models


def test_case(index: TestCaseIndex, model: ModelType, cfg: PipelineConfig,
              root, jobs: int = 1) -> list[ScanWarning]:
    """Classify every file of a test index and keep the accepted warnings.

    Classification is read-only on the model, so with jobs > 1 the file list
    is split across forked workers; warnings come back in index order either
    way, making outputs identical across job counts.
    """
    return _warnings(*_score_index(index, model, cfg, root, jobs), cfg)


def calibrate_threshold(index: TestCaseIndex, model: ModelType,
                        cfg: PipelineConfig, root, factor: float = 1.0) -> float:
    """Detection-mode threshold: the worst top-1 score over the training
    files themselves, scaled by `factor`. Content the model has seen stays
    accepted; anything scoring beyond every known example gets rejected."""
    _, _, scores = _score_index(index, model, cfg, root, jobs=1)
    return float(scores.min(axis=1).max(initial=0.0)) * factor


# --- permutation sweeps ----------------------------------------------------------

@dataclass
class SweepEntry:
    config: PipelineConfig
    option_string: str
    first: Optional[RunStats]
    second: Optional[RunStats]
    elapsed: float
    error: Optional[str] = None

    @property
    def first_pct(self) -> Decimal:
        if self.first is None or not self.first.per_config:
            return Decimal("-1")
        return self.first.per_config[0].pct


def _group_pass(train_index: TestCaseIndex, test_index: TestCaseIndex,
                cfg: PipelineConfig, root, jobs: int):
    """Run the pass that every config with cfg's config_hash shares and
    return the per-config step, which maps a config to its warnings.

    NLP configs share one n-gram count and differ in smoothing. Signal
    configs share one fork-join extracting each distinct train and test file
    once (a self-test classifies the very files it trained on) and differ in
    centroids and metric.
    """
    if cfg.pipeline == "nlp":
        models = train_case(train_index, cfg, root)
        return lambda c: test_case(test_index, models, c, root, jobs=jobs)
    test_paths = [entry.path for entry in test_index.entries]
    labeled = _labeled(train_index, cfg)
    rows = _feature_rows(cfg, root, [p for p, _ in labeled] + test_paths, jobs)
    d = len(rows[labeled[0][0]])
    X = np.array([rows[path] for path in test_paths]).reshape(-1, d)

    def classify_all(c: PipelineConfig) -> list[ScanWarning]:
        model = _train(labeled, c, rows)
        classes = by_id(model.classes)
        return _warnings(test_paths, classes, centroid_distances(
            X, model, classes, c.metric, c.mink_p, c.tolerance), c)
    return classify_all


def run_once(train_index: TestCaseIndex, test_index: TestCaseIndex,
             cfg: PipelineConfig, root, jobs: int = 1,
             ) -> tuple[list[ScanWarning], RunStats, RunStats]:
    """Train, test, and score in one go."""
    warnings = _group_pass(train_index, test_index, cfg, root, jobs)(cfg)
    return (warnings, *score_stats(warnings, test_index, cfg))


def sweep(train_index: TestCaseIndex, test_index: TestCaseIndex,
          grid: Iterable[PipelineConfig], root, jobs: int = 1) -> list[SweepEntry]:
    """Run every configuration and rank them by first-guess precision.

    Configurations sharing a config_hash share one pass (see `_group_pass`);
    an entry's elapsed time is its own step plus an equal share of that
    pass. A failing configuration is recorded as a failed row (a failing
    shared pass fails its whole group) and the sweep keeps going; ties rank
    by option string so repeated sweeps agree.
    """
    groups: dict[str, list[PipelineConfig]] = {}
    for cfg in grid:
        groups.setdefault(cfg.config_hash, []).append(cfg)
    entries = []
    for cfgs in groups.values():
        started = time.perf_counter()
        step, group_error = None, None
        try:
            step = _group_pass(train_index, test_index, cfgs[0], root, jobs)
        except Exception as exc:  # noqa: BLE001 - sweep must survive any config
            group_error = str(exc)
        share = (time.perf_counter() - started) / len(cfgs)
        for cfg in cfgs:
            started = time.perf_counter()
            stats, error = (None, None), group_error
            if error is None:
                try:
                    stats = score_stats(step(cfg), test_index, cfg)
                except Exception as exc:  # noqa: BLE001
                    error = str(exc)
            entries.append(SweepEntry(cfg, cfg.option_string, *stats,
                                      share + time.perf_counter() - started,
                                      error))
    entries.sort(key=lambda e: (e.error is not None, -e.first_pct, e.option_string))
    return entries


def default_grid(class_kind: str = "cve") -> list[PipelineConfig]:
    """The stock sweep: preprocessors x extractors x metrics, signal pipeline,
    plus the byte-unigram NLP baselines."""
    grid = []
    for filter_kind in ("raw", "norm", "low", "sdwt"):
        for extractor in ("fft", "lpc", "minmax"):
            for metric in METRICS:
                grid.append(PipelineConfig(
                    class_kind=class_kind, filter_kind=filter_kind,
                    extractor=extractor, metric=metric))
    for smoothing in nlp.SMOOTHINGS:
        grid.append(PipelineConfig(class_kind=class_kind, pipeline="nlp",
                                   smoothing=smoothing))
    return grid


def merge_sweep_stats(entries: list[SweepEntry]) -> tuple[RunStats, RunStats]:
    """Collapse sweep entries into two table-ready stats blocks."""
    merged = (RunStats("first"), RunStats("second"))
    for entry in entries:
        for stats, part in zip(merged, (entry.first, entry.second)):
            if entry.error is not None:
                stats.diagnostics.append(f"{entry.option_string}: {entry.error}")
            else:
                stats.per_config.extend(part.per_config)
                stats.diagnostics.extend(part.diagnostics)
    for stats in merged:
        stats.per_config.sort(key=lambda r: (-r.pct, r.key))
    return merged
