"""Reduce an arbitrary-length signal to a fixed-length feature vector.

Three extractors: averaged FFT magnitude spectrum, linear-prediction
coefficients, and min-max summary statistics. Whatever the input length
(including zero), each extractor returns exactly `d` finite values, so
vectors from different files are always comparable. Each extractor works on
a 2-D array of equal-length signals, one per row (`fft_features`,
`lpc_features`, `minmax_features`); the `extract_*` functions are their
one-row forms.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .loader import Signal


def extract_fft(signal: Signal, window: int = 1024, d: int = 512) -> np.ndarray:
    """Mean magnitude spectrum over non-overlapping windows: the one-row
    form of `fft_features`."""
    return fft_features(signal.samples[np.newaxis], window, d)[0]


def frame_magnitudes(rows: np.ndarray, window: int, d: int) -> np.ndarray:
    """The first `d` magnitude bins of every window of every row, shaped
    (rows, windows, d).

    Each row of a 2-D array of equal-length signals is cut into
    non-overlapping windows of `window` samples (the last one zero-padded;
    an empty signal counts as one all-zero window) and each is transformed.
    """
    count, n = rows.shape
    n_windows = max(1, -(-n // window))
    padded = np.zeros((count, n_windows * window), dtype=np.float64)
    padded[:, :n] = rows
    frames = padded.reshape(count, n_windows, window)
    # abs over the whole contiguous spectrum: on a sliced one numpy buffers
    # every call through a fresh 128 KB block, which faults pages in anew
    return np.abs(np.fft.rfft(frames, axis=2))[:, :, :d]


def fft_features(rows: np.ndarray, window: int = 1024, d: int = 512) -> np.ndarray:
    """Mean magnitude spectrum over non-overlapping windows, per row: the
    first `d` of the lower window/2 bins of `frame_magnitudes`, averaged
    element-wise across windows."""
    if d > window // 2:
        raise ConfigError(f"d={d} exceeds window/2={window // 2}")
    return frame_magnitudes(rows, window, d).mean(axis=1)


def autocorrelation(x: np.ndarray, max_lag: int) -> np.ndarray:
    """Autocorrelation lags 0..max_lag of the whole signal (unnormalized),
    along the last axis.

    Each lag is the dot product np.dot takes of two vectors: a stack of
    1 x m by m x 1 products goes to the same BLAS routine, row by row.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[-1]
    r = np.zeros(x.shape[:-1] + (max_lag + 1,), dtype=np.float64)
    for lag in range(min(max_lag + 1, n)):
        r[..., lag] = np.matmul(x[..., np.newaxis, : n - lag],
                                x[..., lag:, np.newaxis])[..., 0, 0]
    return r


def levinson_durbin(r: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Solve the Toeplitz normal equations by the Levinson-Durbin recursion.

    Returns (a, k): prediction coefficients in the x[n] ~ sum a_j x[n-j]
    convention, and the reflection coefficients of each stage. A zero-energy
    input (r[0] == 0) yields all-zero coefficients by definition.
    """
    r = np.asarray(r, dtype=np.float64)
    a = np.zeros(order, dtype=np.float64)
    k = np.zeros(order, dtype=np.float64)
    if r[0] == 0.0:
        return a, k
    # `poly` holds the error-filter coefficients [1, -a_1, ..., -a_m].
    poly = np.zeros(order + 1, dtype=np.float64)
    poly[0] = 1.0
    err = r[0]
    for m in range(1, order + 1):
        acc = r[m] + np.dot(poly[1:m], r[m - 1:0:-1])
        if err == 0.0:
            break  # perfectly predictable already; higher coefficients stay 0
        ref = -acc / err
        k[m - 1] = ref
        poly[1:m + 1] += ref * poly[m - 1::-1][:m]
        err *= 1.0 - ref * ref
        if not np.isfinite(err):
            raise ArithmeticError("Levinson-Durbin recursion diverged")
    if not np.all(np.isfinite(poly)):
        raise ArithmeticError("Levinson-Durbin produced non-finite coefficients")
    a[:] = -poly[1:]
    return a, k


def extract_lpc(signal: Signal, order: int = 20) -> np.ndarray:
    """Linear-prediction coefficients by the autocorrelation method: the
    one-row form of `lpc_features`."""
    return lpc_features(signal.samples[np.newaxis], order)[0]


def lpc_features(rows: np.ndarray, order: int = 20) -> np.ndarray:
    """Linear-prediction coefficients of each row by the autocorrelation
    method: one autocorrelation over all rows, one recursion per row."""
    if order < 1:
        raise ConfigError("lpc order must be >= 1")
    r = autocorrelation(rows, order)
    return np.array([levinson_durbin(lags, order)[0] for lags in r]
                    ).reshape(len(rows), order)


def extract_minmax(signal: Signal, d: int = 4) -> np.ndarray:
    """[min, max] for d=2, [min, max, mean, rms] for d=4; zeros when empty:
    the one-row form of `minmax_features`."""
    return minmax_features(signal.samples[np.newaxis], d)[0]


def minmax_features(rows: np.ndarray, d: int = 4) -> np.ndarray:
    """[min, max] for d=2, [min, max, mean, rms] for d=4 of each row of a
    2-D array; zeros for rows of length 0."""
    if d not in (2, 4):
        raise ConfigError("minmax supports d=2 or d=4")
    if rows.shape[1] == 0:
        return np.zeros((len(rows), d))
    stats = [rows.min(axis=1), rows.max(axis=1)]
    if d == 4:
        stats += [rows.mean(axis=1), np.sqrt((rows * rows).mean(axis=1))]
    return np.stack(stats, axis=1)
