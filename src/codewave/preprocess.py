"""Signal conditioning ahead of feature extraction.

Four modes: pass-through, peak normalization, low-pass filtering in the
frequency domain, and a separating discrete wavelet transform that keeps
only the approximation (low-frequency) branch per level. The up/down
sampling primitive the wavelet machinery rests on is exposed as `upfirdn`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .loader import Signal, peak_normalize

SQRT2 = math.sqrt(2.0)
_SQRT3 = math.sqrt(3.0)

# Daubechies scaling coefficients; the wavelet (detail) filter is the
# quadrature mirror g[k] = (-1)^k * h[L-1-k].
SCALING = {
    "haar": (1.0 / SQRT2, 1.0 / SQRT2),
    "db2": (
        (1.0 + _SQRT3) / (4.0 * SQRT2),
        (3.0 + _SQRT3) / (4.0 * SQRT2),
        (3.0 - _SQRT3) / (4.0 * SQRT2),
        (1.0 - _SQRT3) / (4.0 * SQRT2),
    ),
}


class ShortSignalWarning(UserWarning):
    """Signal shorter than the wavelet filter; transform left it unchanged."""


@dataclass(frozen=True)
class WaveletSpec:
    name: str
    low_pass: tuple[float, ...]
    high_pass: tuple[float, ...]

    def __post_init__(self):
        if len(self.low_pass) != len(self.high_pass):
            raise ValueError("analysis filters must have equal length")


def wavelet(name: str) -> WaveletSpec:
    if name not in SCALING:
        raise ValueError(f"unknown wavelet {name!r} (expected one of {sorted(SCALING)})")
    h = SCALING[name]
    L = len(h)
    g = tuple((-1.0) ** k * h[L - 1 - k] for k in range(L))
    return WaveletSpec(name, h, g)


@dataclass(frozen=True)
class FilterSpec:
    kind: str = "raw"  # raw | norm | fft_low | sdwt
    cutoff_fraction: float = 0.25
    wavelet: WaveletSpec | None = None
    levels: int = 1

    def __post_init__(self):
        if self.kind not in ("raw", "norm", "fft_low", "sdwt"):
            raise ValueError(f"unknown filter kind {self.kind!r}")
        if not 0.0 < self.cutoff_fraction <= 1.0:
            raise ValueError("cutoff_fraction must be in (0, 1]")
        if self.levels < 1:
            raise ValueError("levels must be >= 1")
        if self.kind == "sdwt" and self.wavelet is None:
            object.__setattr__(self, "wavelet", wavelet("haar"))


def fft_low_pass(samples, cutoff_fraction: float) -> np.ndarray:
    """Zero every DFT bin above the cutoff and transform back.

    The input is zero-padded to a power of two and goes through a real FFT
    pair: bins with index above floor(cutoff_fraction * N/2) are zeroed and
    the inverse transform is truncated to the original length. Works along
    the last axis, so a 2-D array is filtered row by row.
    """
    x = np.asarray(samples, dtype=np.float64)
    if not 0.0 < cutoff_fraction <= 1.0:
        raise ValueError("cutoff_fraction must be in (0, 1]")
    n = x.shape[-1]
    if n == 0:
        return x.copy()
    size = 1 << max(0, (n - 1)).bit_length()
    spectrum = np.fft.rfft(x, size, axis=-1)
    spectrum[..., int(cutoff_fraction * (size // 2) + 1e-9) + 1:] = 0.0
    return np.fft.irfft(spectrum, size, axis=-1)[..., :n]


def conv_full(samples, fir) -> np.ndarray:
    """Full convolution with a pinned summation order, along the last axis.

    Each output accumulates its tap contributions in ascending tap index,
    so results are bit-reproducible against any reference that sums the
    terms h[0]*x[k], then h[1]*x[k-1], and so on.
    """
    x = np.asarray(samples, dtype=np.float64)
    h = np.asarray(fir, dtype=np.float64)
    n = x.shape[-1]
    out = np.zeros(x.shape[:-1] + (n + len(h) - 1,), dtype=np.float64)
    for j, tap in enumerate(h):
        out[..., j: j + n] += tap * x
    return out


def _analysis(x: np.ndarray, fir) -> np.ndarray:
    """One filter branch of a level: mirror-extend, convolve, decimate."""
    n = x.shape[-1]
    pad = len(fir) - 1
    if pad:
        x = np.pad(x, [(0, 0)] * (x.ndim - 1) + [(pad, pad)], mode="symmetric")
    return conv_full(x, fir)[..., 2 * pad: 2 * pad + n][..., 0::2]


def dwt_level(samples, spec: WaveletSpec) -> tuple[np.ndarray, np.ndarray]:
    """One analysis level: mirror-extend, convolve, decimate by two.

    Returns the (approximation, detail) pair. The signal is extended
    symmetrically by one filter length minus one on each side so the
    convolution has no zero-padding edge spikes; even-indexed samples of the
    part aligned with the input survive decimation, giving ceil(n/2) outputs.
    Works along the last axis.
    """
    x = np.asarray(samples, dtype=np.float64)
    return _analysis(x, spec.low_pass), _analysis(x, spec.high_pass)


def sdwt(samples, spec: WaveletSpec, levels: int = 1) -> np.ndarray:
    """Separating wavelet transform: keep only the approximation branch.

    Each level halves the length; `levels` levels leave about n / 2^levels
    samples of low-frequency content. A signal shorter than the filter is
    returned unchanged under a ShortSignalWarning (one per row of a 2-D
    array of equal-length signals) rather than erroring, so batch scans
    over mixed file sizes keep going.
    """
    if levels < 1:
        raise ValueError("levels must be >= 1")
    x = np.asarray(samples, dtype=np.float64)
    for _ in range(levels):
        if x.shape[-1] < len(spec.low_pass):
            for _ in range(math.prod(x.shape[:-1])):
                warnings.warn(
                    f"signal of {x.shape[-1]} samples is shorter than the "
                    f"{len(spec.low_pass)}-tap {spec.name} filter; left unchanged",
                    ShortSignalWarning,
                )
            return x.copy() if x is samples else x
        x = _analysis(x, spec.low_pass)
    return x


def upfirdn(samples, fir, up: int = 1, down: int = 1) -> np.ndarray:
    """Zero-stuff by `up`, convolve with `fir`, keep every `down`-th sample.

    Output length is ceil((len(samples)*up + len(fir) - 1) / down); the
    kept samples start at index 0 of the full convolution.
    """
    if up < 1 or down < 1:
        raise ValueError("up and down factors must be >= 1")
    h = np.asarray(fir, dtype=np.float64)
    if h.size == 0:
        raise ValueError("filter must be non-empty")
    x = np.asarray(samples, dtype=np.float64)
    if len(x) == 0:
        return np.zeros(-(-(len(h) - 1) // down), dtype=np.float64)
    stuffed = np.zeros(len(x) * up, dtype=np.float64)
    stuffed[::up] = x
    return conv_full(stuffed, h)[::down]


def preprocess(signal: Signal, spec: FilterSpec) -> Signal:
    """Apply one FilterSpec to a signal: the one-row form of
    `preprocess_rows`."""
    return Signal(preprocess_rows(signal.samples[np.newaxis], spec)[0])


def preprocess_rows(rows: np.ndarray, spec: FilterSpec) -> np.ndarray:
    """Apply one FilterSpec to each row of a 2-D array of equal-length
    signals, keeping amplitudes inside [-1, 1]. Returns a new C-contiguous
    array whose rows equal the one-row form's.

    Filters can push samples past full scale (the wavelet low-pass has gain
    sqrt(2) per level); in a row whose peak is beyond a 1e-12 rounding slack
    the row is re-normalized, a bare rounding excess is clipped.
    """
    if spec.kind == "norm":
        return peak_normalize(rows)
    if spec.kind == "raw":
        out = rows.copy()
    elif spec.kind == "fft_low":
        out = fft_low_pass(rows, spec.cutoff_fraction)
    else:
        out = sdwt(rows, spec.wavelet, spec.levels)
    out = np.ascontiguousarray(out)
    if out.shape[1]:
        peak = np.max(np.abs(out), axis=1)
        over = peak > 1.0
        if over.any():
            clip = over & (peak - 1.0 < 1e-12)
            # dividing by 1.0 leaves a row's bits as they are
            out = out / np.where(over & ~clip, peak, 1.0)[:, np.newaxis]
            out[clip] = np.clip(out[clip], -1.0, 1.0)
    return out
