"""Code fingerprinting by signal processing and byte language models.

Files are treated as raw byte signals (no parsing), reduced to spectral or
statistical signatures, and classified against per-CVE/CWE models learned
from an annotated knowledge base. See README.md for the workflow.
"""

from .classify import ClusterModel, TrainingSet, classify, distance, train
from .engine import (PipelineConfig, RunStats, ScanWarning, StatsRow,
                     parse_option_string, parse_option_tokens, run_once,
                     score_stats, sweep, test_case, train_case)
from .features import extract_fft, extract_lpc, extract_minmax
from .index import (Annotation, IndexEntry, TestCaseIndex, WeaknessClass,
                    annotate_synthetic, collect_files, derive_binary_index,
                    halve_training, load_index, write_index)
from .loader import Signal
from .nlp import NGramModel, SmoothingSpec, probability, train_model
from .preprocess import FilterSpec, WaveletSpec, fft_low_pass, preprocess, sdwt, upfirdn

__version__ = "0.1.0"

__all__ = [
    "Annotation", "ClusterModel", "FilterSpec", "IndexEntry",
    "NGramModel", "PipelineConfig", "RunStats", "ScanWarning",
    "Signal", "SmoothingSpec", "StatsRow", "TestCaseIndex", "TrainingSet",
    "WaveletSpec", "WeaknessClass", "annotate_synthetic", "classify",
    "collect_files", "derive_binary_index", "distance", "extract_fft",
    "extract_lpc", "extract_minmax", "fft_low_pass", "halve_training",
    "load_index", "parse_option_string", "parse_option_tokens", "preprocess",
    "probability", "run_once", "score_stats", "sdwt", "sweep", "test_case",
    "train", "train_case", "train_model", "upfirdn", "write_index", "__version__",
]
