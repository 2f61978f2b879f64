"""Interpret raw file bytes as a normalized amplitude signal.

No parsing, no decoding: a sliding window of 1-3 consecutive bytes is packed
big-endian into a signed integer and scaled into [-1, 1), exactly like PCM
audio samples. Equal bytes always produce equal samples, so the signal is a
pure function of content.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass
class Signal:
    samples: np.ndarray  # float64 in [-1, 1]

    def __len__(self) -> int:
        return len(self.samples)


def samples_from_bytes(data: bytes, ngram: int) -> np.ndarray:
    """Sliding-window (step 1) byte packing into amplitudes.

    Each window of `ngram` bytes forms a big-endian two's-complement integer
    of 8*ngram bits, divided by 2^(8*ngram - 1). Inputs shorter than the
    window produce an empty signal.
    """
    if ngram not in (1, 2, 3):
        raise ValueError(f"ngram must be 1, 2 or 3, got {ngram}")
    raw = np.frombuffer(data, dtype=np.uint8)
    if len(raw) < ngram:
        return np.zeros(0, dtype=np.float64)
    if ngram == 1:
        return raw.view(np.int8).astype(np.float64) / 128.0
    if ngram == 2:
        packed = (raw[:-1].astype(np.uint16) << 8) | raw[1:]
        return packed.view(np.int16).astype(np.float64) / 32768.0
    packed = (
        (raw[:-2].astype(np.int64) << 16)
        | (raw[1:-1].astype(np.int64) << 8)
        | raw[2:]
    )
    packed -= (packed >= 1 << 23) * (1 << 24)
    return packed.astype(np.float64) / float(1 << 23)


def load_signal(file, ngram: int = 2) -> Signal:
    return Signal(samples_from_bytes(Path(file).read_bytes(), ngram))


def normalize(signal: Signal) -> Signal:
    """Scale peak amplitude to 1. All-zero and empty signals pass through."""
    return Signal(peak_normalize(signal.samples[np.newaxis])[0])


def peak_normalize(rows: np.ndarray) -> np.ndarray:
    """Scale each row of a 2-D array to peak amplitude 1; all-zero rows
    and rows of length 0 pass through. Returns a new array."""
    if rows.shape[1] == 0:
        return rows.copy()
    peak = np.max(np.abs(rows), axis=1, keepdims=True)
    # dividing by 1.0 leaves an all-zero row's bits as they are
    return rows / np.where(peak == 0.0, 1.0, peak)
