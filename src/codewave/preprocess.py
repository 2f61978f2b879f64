"""Signal conditioning ahead of feature extraction.

Four modes: pass-through, peak normalization, low-pass filtering in the
frequency domain, and a separating discrete wavelet transform that keeps
only the approximation (low-frequency) branch per level. The up/down
sampling primitive the wavelet machinery rests on is exposed as `upfirdn`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .loader import Signal, normalize

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

    The input is zero-padded to a power of two, bins with index above
    floor(cutoff_fraction * N/2) are zeroed along with their mirror images,
    and the inverse transform is truncated to the original length. The
    leftover imaginary part (rounding noise well below 1e-9) is discarded.
    """
    x = np.asarray(samples, dtype=np.float64)
    if not 0.0 < cutoff_fraction <= 1.0:
        raise ValueError("cutoff_fraction must be in (0, 1]")
    n = len(x)
    if n == 0:
        return x.copy()
    size = 1 << max(0, (n - 1)).bit_length()
    spectrum = np.fft.fft(x, size)
    cut = int(cutoff_fraction * (size // 2) + 1e-9)
    k = np.arange(size)
    spectrum[(k > cut) & (k < size - cut)] = 0.0
    return np.fft.ifft(spectrum)[:n].real


def conv_full(samples, fir) -> np.ndarray:
    """Full convolution with a pinned summation order.

    Each output accumulates its tap contributions in ascending tap index,
    so results are bit-reproducible against any reference that sums the
    terms h[0]*x[k], then h[1]*x[k-1], and so on.
    """
    x = np.asarray(samples, dtype=np.float64)
    h = np.asarray(fir, dtype=np.float64)
    out = np.zeros(len(x) + len(h) - 1, dtype=np.float64)
    for j, tap in enumerate(h):
        out[j: j + len(x)] += tap * x
    return out


def dwt_level(samples, spec: WaveletSpec) -> tuple[np.ndarray, np.ndarray]:
    """One analysis level: mirror-extend, convolve, decimate by two.

    Returns the (approximation, detail) pair. The signal is extended
    symmetrically by one filter length minus one on each side so the
    convolution has no zero-padding edge spikes; even-indexed samples of the
    part aligned with the input survive decimation, giving ceil(n/2) outputs.
    """
    x = np.asarray(samples, dtype=np.float64)
    pad = len(spec.low_pass) - 1
    ext = np.pad(x, pad, mode="symmetric") if pad else x
    lo = conv_full(ext, spec.low_pass)[2 * pad: 2 * pad + len(x)]
    hi = conv_full(ext, spec.high_pass)[2 * pad: 2 * pad + len(x)]
    return lo[0::2], hi[0::2]


def sdwt(samples, spec: WaveletSpec, levels: int = 1) -> np.ndarray:
    """Separating wavelet transform: keep only the approximation branch.

    Each level halves the length; `levels` levels leave about n / 2^levels
    samples of low-frequency content. A signal shorter than the filter is
    returned unchanged under a ShortSignalWarning rather than erroring,
    so batch scans over mixed file sizes keep going.
    """
    if levels < 1:
        raise ValueError("levels must be >= 1")
    x = np.asarray(samples, dtype=np.float64)
    for _ in range(levels):
        if len(x) < len(spec.low_pass):
            warnings.warn(
                f"signal of {len(x)} samples is shorter than the "
                f"{len(spec.low_pass)}-tap {spec.name} filter; left unchanged",
                ShortSignalWarning,
            )
            return x.copy() if x is samples else x
        x, _ = dwt_level(x, spec)
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
    """Apply one FilterSpec to a signal, keeping amplitudes inside [-1, 1].

    Filters can push samples past full scale (the wavelet low-pass has gain
    sqrt(2) per level); anything beyond a 1e-12 rounding slack is brought
    back by re-normalizing, a bare rounding excess is clipped.
    """
    if spec.kind == "raw":
        out = signal.samples.copy()
    elif spec.kind == "norm":
        return normalize(signal)
    elif spec.kind == "fft_low":
        out = fft_low_pass(signal.samples, spec.cutoff_fraction)
    else:
        out = sdwt(signal.samples, spec.wavelet, spec.levels)
    if out.size:
        peak = float(np.max(np.abs(out)))
        if peak > 1.0:
            if peak - 1.0 < 1e-12:
                out = np.clip(out, -1.0, 1.0)
            else:
                out = out / peak
    return replace(signal, samples=out)
