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
from collections import Counter
from dataclasses import dataclass, field, fields
from decimal import ROUND_HALF_UP, Decimal
from functools import cached_property
from itertools import chain
from pathlib import Path
from typing import Iterable, Optional, Union

import numpy as np

from . import nlp
from .classify import METRICS, TrainingSet, by_id, centroids, distances, training_set_bytes
from .classify import train as train_clusters
from .errors import ConfigError
# classify_vector, extract_* and preprocess are the one-file forms of the
# batch functions; nothing here calls them, but they stay engine names so a
# tracer that wraps engine's per-file calls still finds them
from .classify import classify as classify_vector  # noqa: F401
from .features import (extract_fft, extract_lpc, extract_minmax,  # noqa: F401
                       fft_features, lpc_features, minmax_features)
from .index import TestCaseIndex, WeaknessClass
from .loader import samples_from_bytes
from .preprocess import (SCALING, FilterSpec, preprocess,  # noqa: F401
                         preprocess_rows, wavelet)

ModelType = Union[TrainingSet, dict[WeaknessClass, nlp.NGramModel]]


def _number(value: float) -> str:
    """A float parameter as text: `:g` (so existing option strings and
    hashes stay put) where that reads back as the same float, else repr."""
    text = f"{value:g}"
    return text if float(text) == value else repr(value)


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

    # option_string and config_hash are formatted once per config: a frozen
    # config keeps them in its __dict__, which its fields and == ignore
    @cached_property
    def option_string(self) -> str:
        """Canonical flag form, in FLAG_TABLE order; parameters attach to
        their flag with '=' (e.g. -mink=4)."""
        return " ".join(self._tokens(PRINTED_CATEGORIES[self.pipeline]))

    def _tokens(self, categories) -> list[str]:
        """The flags of `categories` that this config selects, spelled with
        all their parameters once any differs from its default. A flag that
        sets nothing but its parameter is left out at the default."""
        mine = dict(vars(self), n=self.nlp_n)
        if self.pipeline == "signal":  # the loader's default size goes unsaid
            mine["n"] = (None if self.loader_ngram == DEFAULTS["loader_ngram"]
                         else self.loader_ngram)
        tokens = []
        for flag, (category, sets, params) in FLAG_TABLE.items():
            if category not in categories or not sets.items() <= mine.items():
                continue
            values = [mine[name] for name in params]
            if values != [DEFAULTS[name] for name in params]:
                tokens.append(f"{flag}=" + ":".join(
                    _number(v) if isinstance(v, float) else str(v) for v in values))
            elif sets or not params:
                tokens.append(flag)
        return tokens

    @cached_property
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
                     *self._tokens(("preprocessing", "extractor"))]
        else:
            parts = ["nlp", self.class_kind, str(self.nlp_n),
                     f"V={nlp.VOCAB_SIZE}"]
        return hashlib.sha256("|".join(parts).encode("utf-8")).hexdigest()[:16]

    def filter_spec(self) -> FilterSpec:
        kind = {"low": "fft_low"}.get(self.filter_kind, self.filter_kind)
        if kind == "sdwt":
            return FilterSpec(kind="sdwt", wavelet=wavelet(self.wavelet_name),
                              levels=self.sdwt_levels)
        return FilterSpec(kind=kind, cutoff_fraction=self.cutoff_fraction)

    def smoothing_spec(self) -> nlp.SmoothingSpec:
        return nlp.SmoothingSpec(self.smoothing, self.delta)


DEFAULTS = {f.name: f.default for f in fields(PipelineConfig)}

# flag -> (the category it settles, or None if any number may be given;
#          the fields it sets, where "n" is the n-gram size of the chosen
#          pipeline; the fields its "=a:b" parameter fills, in order, each
#          read as the type of the field's default). The option string lists
#          the flags in this order. -fft=W means -fft=W:W/2.
FLAG_TABLE = {
    "-cweid": ("class kind", {"class_kind": "cwe"}, ()),
    "-nopreprep": (None, {}, ()),
    "-char": (None, {"pipeline": "nlp"}, ()),
    **{flag: ("n-gram size", {"n": n}, ())
       for n, flag in enumerate(("-unigram", "-bigram", "-trigram"), 1)},
    **{f"-{k}": ("preprocessing", {"filter_kind": k}, ()) for k in ("raw", "norm")},
    "-low": ("preprocessing", {"filter_kind": "low"}, ("cutoff_fraction",)),
    "-sdwt": ("preprocessing", {"filter_kind": "sdwt"},
              ("wavelet_name", "sdwt_levels")),
    "-fft": ("extractor", {"extractor": "fft"}, ("fft_window", "fft_bins")),
    "-lpc": ("extractor", {"extractor": "lpc"}, ("lpc_order",)),
    "-minmax": ("extractor", {"extractor": "minmax"}, ("minmax_d",)),
    **{f"-{m}": ("metric", {"metric": m}, ()) for m in ("eucl", "cheb", "cos")},
    "-mink": ("metric", {"metric": "mink"}, ("mink_p",)),
    **{f"-{m}": ("metric", {"metric": m}, ("tolerance",)) for m in ("hamming", "diff")},
    "-median": ("cluster kind", {"cluster_kind": "median"}, ()),
    "-mle": ("smoothing", {"smoothing": "mle"}, ()),
    "-add-delta": ("smoothing", {"smoothing": "add_delta"}, ("delta",)),
    "-witten-bell": ("smoothing", {"smoothing": "witten_bell"}, ()),
    "-threshold": ("threshold", {}, ("threshold",)),
    **{f"-{name}": (None, {name: True}, ()) for name in ("flucid", "spectrogram", "graph")},
}

# the categories that belong to one pipeline only
PIPELINE_CATEGORIES = {"signal": {"preprocessing", "extractor", "metric", "cluster kind"},
                       "nlp": {"smoothing"}}
# the categories of the flags that a config of each pipeline prints
PRINTED_CATEGORIES = {
    pipeline: {category for category, _, _ in FLAG_TABLE.values()} - other
    for pipeline, other in (("signal", PIPELINE_CATEGORIES["nlp"]),
                            ("nlp", PIPELINE_CATEGORIES["signal"]))}


def _parameters(flag: str, params: tuple, text: str) -> dict:
    """The fields that `flag`'s "=a:b" parameter text fills."""
    parts = text.split(":")
    if len(parts) > len(params):
        raise ConfigError(f"{flag} takes at most {len(params)} parameter(s)")
    try:
        if flag == "-fft" and len(parts) == 1:
            parts.append(str(int(parts[0]) // 2))
        return {name: type(DEFAULTS[name])(part) for name, part in zip(params, parts)}
    except ValueError:
        raise ConfigError(f"bad parameter {flag}={text}") from None


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
    values: dict = {}
    seen: dict[str, str] = {}  # category -> flag that set it
    for raw in tokens:
        flag = raw[1:] if raw.startswith("--") else raw
        name, _, param = flag.partition("=")
        if name not in FLAG_TABLE:
            raise ConfigError(f"unknown option {raw!r}")
        category, sets, params = FLAG_TABLE[name]
        if param and not params:
            raise ConfigError(f"{name} takes no parameter")
        if params and not (param or sets):
            raise ConfigError(f"{name} needs a value ({name}=x)")
        if category in seen:
            raise ConfigError(
                f"conflicting flags: {seen[category]} and {name} both set "
                f"the {category}")
        if category is not None:
            seen[category] = name
        values.update(sets, **(_parameters(name, params, param) if param else {}))

    n = values.pop("n", None)
    nlp_flags = PIPELINE_CATEGORIES["nlp"] & set(seen)
    signal_flags = PIPELINE_CATEGORIES["signal"] & set(seen)
    if values.get("pipeline") == "nlp" or nlp_flags:
        if signal_flags:
            raise ConfigError(
                "conflicting flags: cannot mix the NLP pipeline with signal "
                f"flags ({', '.join(sorted(seen[c] for c in signal_flags))})")
        values["pipeline"] = "nlp"
    if n is not None:
        values["nlp_n" if values.get("pipeline") == "nlp" else "loader_ngram"] = n
    return PipelineConfig(**values)


def parse_option_string(option_string: str) -> PipelineConfig:
    return parse_option_tokens(option_string.split())


# --- features: samples in blocks, one row per file -------------------------------

# Files are read one at a time, then turned into samples, preprocessed and
# extracted a block at a time, as 2-D arrays. A block is a run of consecutive
# files of one length holding at most this many input bytes: 4 files of 4 KB,
# whose samples (8 bytes per input byte) just fit under 128 KB, the size from
# which glibc's malloc maps each array afresh and, once one such array is
# freed, returns freed memory to the system after every block, so the next
# block faults its pages in again.
# Measured on 4 KB files (-raw -fft): in 40-file passes, 32 KB blocks cost
# 28 page faults and 146 us per file where 16 KB blocks cost 0.1 faults and
# 119 us (one file at a time: 0.1 faults, 136 us); in 1,600-file passes both
# take about 91 us. Larger blocks raise peak memory: a test pass holds one
# block at a time. A file of another length, or one that would take a block
# past the bound, starts the next block; a larger file is a block of its own.
BLOCK_BYTES = 16 * 1024


def _feature_dim(cfg: PipelineConfig) -> int:
    return {"fft": cfg.fft_bins, "lpc": cfg.lpc_order,
            "minmax": cfg.minmax_d}[cfg.extractor]


def signal_rows(cfg: PipelineConfig, contents: list[bytes]) -> np.ndarray:
    """The preprocessed samples of equal-length files, one row per file,
    bit-identical to processing each file on its own."""
    samples = [samples_from_bytes(data, cfg.loader_ngram) for data in contents]
    # one file's samples become a row without a copy: a large binary's
    # samples are 8 times its size
    rows = samples[0][np.newaxis] if len(samples) == 1 else np.stack(samples)
    del samples
    return preprocess_rows(rows, cfg.filter_spec())


def _block_features(cfg: PipelineConfig, contents: list[bytes]) -> np.ndarray:
    """Feature rows of a block of equal-length files, extracted as one 2-D
    array."""
    rows = signal_rows(cfg, contents)
    if cfg.extractor == "fft":
        return fft_features(rows, cfg.fft_window, cfg.fft_bins)
    if cfg.extractor == "lpc":
        return lpc_features(rows, cfg.lpc_order)
    return minmax_features(rows, cfg.minmax_d)


# --- warnings and statistics ---------------------------------------------------

@dataclass(frozen=True)
class ScanWarning:
    """An accepted classification: this file looks like that weakness."""

    path: str
    weakness: WeaknessClass
    score: float
    rank: int = 1
    second_guess: Optional[WeaknessClass] = None

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("rank must be >= 1")
        if not math.isfinite(self.score):
            raise ValueError("warning score must be finite")


def warning_from_result(path: str, ranked: list[tuple[WeaknessClass, float]],
                        cfg: PipelineConfig) -> Optional[ScanWarning]:
    """Apply the accept threshold to a best-first (class, score) ranking;
    None means rejected."""
    if not ranked:
        return None
    top, score = ranked[0]
    if score > cfg.threshold or not math.isfinite(score):
        return None
    second = ranked[1][0] if len(ranked) > 1 else None
    return ScanWarning(path=path, weakness=top, score=score, rank=1,
                       second_guess=second)


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
class RunStats:  # rows come unranked; the stats table ranks them
    guess: str  # first | second
    per_config: list[StatsRow] = field(default_factory=list)  # in run order
    per_class: list[StatsRow] = field(default_factory=list)  # in class-id order
    diagnostics: list[str] = field(default_factory=list)


def check_recall(rows: Iterable[StatsRow], expected_total: int) -> list[str]:
    """Flag per-config rows whose tallies cannot cover the evaluated files.

    good + bad short of the class-bearing file count means results went
    missing between classification and scoring (the kind of bookkeeping bug
    that shows up as a 2+0-out-of-9 row in a results table).
    """
    return [f"recall shortfall for {row.key!r}: good+bad = "
            f"{row.good + row.bad} < {expected_total} evaluated files"
            for row in rows if row.good + row.bad < expected_total]


def _tally(guess: str, key: str, counts: Counter, class_ids: set[str],
           notes: list[str], expected_total: Optional[int]) -> RunStats:
    """The RunStats of counted (credited class id, good) pairs: rows for `key` and each
    class id credited or in `class_ids`; `notes`, then any recall shortfall."""
    per_class = [StatsRow(cid, counts[cid, True], counts[cid, False])
                 for cid in sorted(class_ids.union(cid for cid, _ in counts))]
    row = StatsRow(key, sum(r.good for r in per_class), sum(r.bad for r in per_class))
    recall = [] if expected_total is None else check_recall([row], expected_total)
    return RunStats(guess, [row], per_class, notes + recall)


def score_stats(warnings: list[ScanWarning], truth: TestCaseIndex,
                cfg: PipelineConfig) -> tuple[RunStats, RunStats]:
    """Tally first-guess and second-guess precision against ground truth.

    A warning on a path with true classes of the run's kind credits one
    class per guess: its top class, good if true, except that the second
    guess credits a true runner-up in place of a wrong top class. Every true
    class has a row, all zero if never credited (so a class that fell out of
    training shows up as 0.00). Warnings on other paths count in one of two
    diagnostics, as the path is absent from the index or present without a
    class of the run's kind; a run without a threshold must warn on every
    class-bearing path.
    """
    truth_map = {entry.path: {wc.id for wc, _ in entry.classes if wc.kind == cfg.class_kind}
                 for entry in truth.entries}
    # (credited class id, good) -> warnings, counted as they come: a pair kept per
    # warning is a tuple per warning, which in a process holding a whole scan's
    # objects sets off full garbage collections (twice this function's own time)
    first, second = Counter(), Counter()
    unlabeled = 0
    for warning in warnings:
        wanted = truth_map.get(warning.path)
        if wanted:
            top, runner_up = warning.weakness.id, warning.second_guess
            hit = top in wanted
            first[top, hit] += 1
            runner_up_hit = not hit and runner_up is not None and runner_up.id in wanted
            second[(runner_up.id, True) if runner_up_hit else (top, hit)] += 1
        elif wanted is not None:
            unlabeled += 1
    missing = len(warnings) - sum(first.values()) - unlabeled
    notes = [f"{n} warning(s) excluded: {why}" for n, why in (
        (missing, "path missing from ground truth"),
        (unlabeled, f"path has no {cfg.class_kind} class in ground truth")) if n]
    expected_total = sum(map(bool, truth_map.values())) if math.isinf(cfg.threshold) else None
    class_ids = set().union(*truth_map.values())
    return tuple(_tally(guess, cfg.option_string, counts, class_ids, notes, expected_total)
                 for guess, counts in (("first", first), ("second", second)))


# --- the batch path: files in, feature or score matrices out -------------------

def _contents(root, paths: Iterable[str]) -> Iterable[bytes]:
    return ((Path(root) / path).read_bytes() for path in paths)


def _current_cpu() -> Optional[int]:
    """The CPU this process is running on, where Linux tells it."""
    try:
        with open("/proc/self/stat", "rb") as stat:
            return int(stat.read().rsplit(b")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        return None


def _leave_cpu(home: Optional[int], k: int) -> None:
    """Move forked child k to the k-th CPU after `home`, the CPU its parent
    ran on when it forked, then lift the restriction again.

    Linux starts a forked child on its parent's CPU, and the load balancer
    can leave both there for hundreds of milliseconds, so a short fork-join
    runs at one CPU's speed. The parent is not moved, and the count starts
    from its CPU, so callers that the scheduler has already spread out send
    their children to different CPUs. Nothing stays pinned.
    """
    if home is None or not hasattr(os, "sched_setaffinity"):
        return
    try:
        allowed = os.sched_getaffinity(0)
        cpus = sorted(allowed)
        if home in allowed and len(cpus) > 1:
            os.sched_setaffinity(0, {cpus[(cpus.index(home) + k) % len(cpus)]})
            os.sched_setaffinity(0, allowed)
    except OSError:
        pass


# Input each process of a file pass gets at least. On 2 vCPUs a fork-join costs
# 3.5-4.5 ms (7-10 ms with a real pass's copy-on-write faults), more than a whole
# 40-file pass of 4 KB files; _feature_rows and _score_index break even between
# 160 and 320 such files, 0.6-1.3 MB of input.
FORK_BYTES = 512 * 1024


def _file_jobs(root, paths: list[str], jobs: int) -> int:
    """Processes for a pass over `paths`: at most `jobs` and the cores, each with
    at least FORK_BYTES of input. Files are stat'ed in order until all are
    earned; one that cannot be stat'ed ends the count, and its read reports it."""
    jobs = min(jobs, os.cpu_count() or 1)
    if jobs <= 1 or FORK_BYTES <= 0:
        return jobs
    total, prefix = 0, os.path.join(root, "")
    for path in paths:
        try:
            total += os.stat(prefix + path).st_size
        except OSError:
            break
        if total >= jobs * FORK_BYTES:
            return jobs
    return max(1, total // FORK_BYTES)


def _fork_map(fn, items: list, jobs: int) -> list:
    """Apply `fn` to contiguous chunks of `items`, one chunk per job, and return
    the chunk results in order. File passes choose `jobs` by their input bytes
    (`_file_jobs`), the sweep by its count of groups.

    The caller runs the first chunk itself; each other chunk runs in a
    forked child that inherits its inputs copy-on-write and streams its
    pickled result into a pipe; child k first moves to the k-th CPU after
    the caller's (see _leave_cpu). Without os.fork every chunk runs
    in-process.
    """
    # forking past the core count only adds contention
    jobs = max(1, min(jobs, os.cpu_count() or 1))
    size = max(1, -(-len(items) // jobs))
    chunks = [items[i: i + size] for i in range(0, len(items), size)]
    if len(chunks) < 2 or not hasattr(os, "fork"):
        return [fn(chunk) for chunk in chunks]
    home = _current_cpu()
    children = []
    for k, chunk in enumerate(chunks[1:], 1):
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:  # child
            _leave_cpu(home, k)
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


def _blocks(cfg: PipelineConfig, root, paths: list[str]):
    """(start, stop, rows) for each block of files (see BLOCK_BYTES): the
    feature rows of paths[start:stop], checked finite before they go on."""
    block, start = [], 0
    for i, data in enumerate(chain(_contents(root, paths), [None])):  # None: end of input
        if block and (data is None or len(data) != len(block[0])
                      or (len(block) + 1) * len(data) > BLOCK_BYTES):
            rows = _block_features(cfg, block)
            if not np.all(np.isfinite(rows)):
                raise ValueError("feature vector contains non-finite values")
            yield start, i, rows
            block, start = [], i
        block.append(data)


def _features(cfg: PipelineConfig, root, paths: list[str]) -> np.ndarray:
    """N x d float64 feature matrix, one row per file (see `_blocks`)."""
    matrix = np.empty((len(paths), _feature_dim(cfg)))
    for start, stop, rows in _blocks(cfg, root, paths):
        matrix[start:stop] = rows
    return matrix


def _feature_rows(cfg: PipelineConfig, root, paths: list[str],
                  jobs: int) -> dict[str, np.ndarray]:
    """The feature row of every distinct path, from one fork-join."""
    paths = list(dict.fromkeys(paths))
    parts = _fork_map(lambda chunk: _features(cfg, root, chunk), paths,
                      _file_jobs(root, paths, jobs))
    return dict(zip(paths, (row for part in parts for row in part)))


def trained_hash(model: ModelType) -> Optional[str]:
    """The config_hash of the flags that `model` was trained under: a
    TrainingSet stores it, and n-gram models imply it by their one class
    kind and n. None for n-gram models that mix kinds or n."""
    if isinstance(model, TrainingSet):
        return model.config_hash
    kinds, sizes = {wc.kind for wc in model}, {m.n for m in model.values()}
    if len(kinds) != 1 or len(sizes) != 1:
        return None
    return PipelineConfig(pipeline="nlp", class_kind=kinds.pop(),
                          nlp_n=sizes.pop()).config_hash


def model_bytes(model: ModelType) -> bytes:
    """The model file (CWTS or CWNM) `codewave train` writes."""
    return (training_set_bytes(model) if isinstance(model, TrainingSet)
            else nlp.models_bytes(model, trained_hash(model)))


def _model_classes(model: ModelType, cfg: PipelineConfig) -> list[WeaknessClass]:
    """The model's classes in score-matrix column order (by id), after
    checking that the model fits the configuration. This is the one check
    of a model against the flags; every scoring entry point starts with it."""
    signal_model = isinstance(model, TrainingSet)
    classes = model.classes if signal_model else model
    if not classes:
        raise ConfigError("the model has no classes")
    trained = trained_hash(model)
    if trained != cfg.config_hash:
        raise ConfigError(
            f"model was trained under a different configuration (model {trained}, flags "
            f"{cfg.option_string} -> {cfg.config_hash}); retrain or adjust the flags")
    # the hash leaves the cluster kind out, so that one pass of a sweep
    # serves mean and median configs alike; the centroids record it
    kinds = {cluster.kind for cluster in classes.values()} if signal_model else None
    if kinds not in (None, {cfg.cluster_kind}):
        raise ConfigError(
            f"model has {'/'.join(sorted(kinds))} centroids, the flags ask "
            f"for {cfg.cluster_kind} ones; retrain or adjust the flags")
    return by_id(classes)


def _scores(cfg: PipelineConfig, model: ModelType,
            classes: list[WeaknessClass], root, paths: list[str]) -> np.ndarray:
    """N x K score matrix of file contents against `classes`, lower is
    better: centroid distances, or negated n-gram log-likelihoods. A signal
    pass scores each block as `_blocks` extracts it, so it holds N x K scores
    and one block's features, never the N x d feature matrix."""
    if cfg.pipeline == "signal":
        C, scores = centroids(model, classes), np.empty((len(paths), len(classes)))
        for start, stop, rows in _blocks(cfg, root, paths):
            scores[start:stop] = distances(rows, C, cfg.metric, cfg.mink_p, cfg.tolerance)
        return scores
    return -nlp.score_documents(_contents(root, paths), [model[wc] for wc in classes],
                                cfg.smoothing_spec())


def _score_index(index: TestCaseIndex, model: ModelType, cfg: PipelineConfig,
                 root, jobs: int):
    """(paths, classes, scores) for every file of `index`, from one
    fork-join whose children each return their chunk's score rows."""
    classes = _model_classes(model, cfg)
    paths = [entry.path for entry in index.entries]
    if cfg.pipeline == "nlp":
        for wc in classes:  # built once here; forked children inherit them
            model[wc].log_prob_table(cfg.smoothing_spec())
    parts = _fork_map(lambda chunk: _scores(cfg, model, classes, root, chunk),
                      paths, _file_jobs(root, paths, jobs))
    scores = np.concatenate(parts) if parts else np.empty((0, len(classes)))
    return paths, classes, scores


def _warnings(paths: list[str], classes: list[WeaknessClass],
              scores: np.ndarray, cfg: PipelineConfig) -> list[ScanWarning]:
    """Threshold each score row's best class into a warning, in row order.

    A stable sort over id-ordered columns ranks by (score, id), so only
    the top two entries of each row are ever materialized.
    """
    top_two = np.argsort(scores, axis=1, kind="stable")[:, :2]
    warnings = (warning_from_result(path, [(classes[j], float(row[j])) for j in top], cfg)
                for path, row, top in zip(paths, scores, top_two))
    return [warning for warning in warnings if warning is not None]


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
        counted = nlp.ngram_counts(data, cfg.nlp_n)  # once per file
        for wc in classes:
            model = models.setdefault(wc, nlp.NGramModel(n=cfg.nlp_n, label=wc))
            model.add_counts(*counted)
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
                        cfg: PipelineConfig, root) -> float:
    """Detection-mode threshold: the worst top-1 score over the training
    files themselves. Content the model has seen stays accepted; anything
    scoring beyond every known example gets rejected."""
    _, _, scores = _score_index(index, model, cfg, root, jobs=1)
    return float(scores.min(axis=1).max(initial=0.0))


# --- permutation sweeps ----------------------------------------------------------

@dataclass
class SweepEntry:
    config: PipelineConfig
    first: Optional[RunStats]
    second: Optional[RunStats]
    elapsed: float
    error: Optional[str] = None

    @property
    def option_string(self) -> str:
        return self.config.option_string

    @property
    def first_pct(self) -> Decimal:
        return self.first.per_config[0].pct if self.first else Decimal("-1")


def _group_pass(train_index: TestCaseIndex, test_index: TestCaseIndex,
                cfg: PipelineConfig, root, jobs: int):
    """Run the pass that every config with cfg's config_hash shares and
    return the per-config step, which maps a config to its warnings.

    NLP configs share one n-gram count and differ in smoothing. Configs of
    the signal pipeline share one fork-join extracting each distinct train
    and test file once (a self-test classifies the very files it trained
    on) and differ in centroids and metric.
    """
    if cfg.pipeline == "nlp":
        models = train_case(train_index, cfg, root)
        return lambda c: test_case(test_index, models, c, root, jobs=jobs)
    test_paths = [entry.path for entry in test_index.entries]
    labeled = _labeled(train_index, cfg)
    rows = _feature_rows(cfg, root, [p for p, _ in labeled] + test_paths, jobs)
    X = np.array([rows[path] for path in test_paths]).reshape(-1, _feature_dim(cfg))

    def classify_all(c: PipelineConfig) -> list[ScanWarning]:
        model = _train(labeled, c, rows)
        classes = by_id(model.classes)
        return _warnings(test_paths, classes, distances(
            X, centroids(model, classes), c.metric, c.mink_p, c.tolerance), c)
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

    Configurations sharing a config_hash share one pass (see `_group_pass`).
    One fork-join splits these groups, not the files of a pass, across `jobs`
    processes, at least two groups a process; each runs its groups and their
    passes serially, so a grid of fewer than four groups runs serially. An
    entry's elapsed time is its own step plus an equal share of that pass. A
    failing configuration is recorded as a failed row (a failing shared pass
    fails its whole group) and the sweep keeps going; ties rank by option
    string so repeated sweeps agree.
    """
    groups: dict[str, list[PipelineConfig]] = {}
    for cfg in grid:
        groups.setdefault(cfg.config_hash, []).append(cfg)

    def run_groups(chunk: list[list[PipelineConfig]]) -> list[SweepEntry]:
        entries = []
        for cfgs in chunk:
            started = time.perf_counter()
            step, group_error = None, None
            try:
                step = _group_pass(train_index, test_index, cfgs[0], root, jobs=1)
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
                entries.append(SweepEntry(cfg, *stats,
                                          share + time.perf_counter() - started,
                                          error))
        return entries

    parts = _fork_map(run_groups, list(groups.values()), min(jobs, len(groups) // 2))
    return sorted((entry for part in parts for entry in part),
                  key=lambda e: (e.error is not None, -e.first_pct, e.option_string))


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
    """Collapse sweep entries into two stats blocks: the per-config rows of
    the entries that ran, in entry order, and each distinct diagnostic of
    theirs once. A failed entry adds nothing; its error is its own."""
    merged = (RunStats("first"), RunStats("second"))
    for entry in entries:
        if entry.error is None:
            for stats, part in zip(merged, (entry.first, entry.second)):
                stats.per_config.extend(part.per_config)
                stats.diagnostics.extend(part.diagnostics)
    for stats in merged:
        stats.diagnostics = list(dict.fromkeys(stats.diagnostics))
    return merged
