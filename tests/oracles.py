"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written the dumb way (explicit transform
matrices, plain loops) so it shares no code path with the implementations
under test.
"""

import numpy as np


def naive_dft(x):
    """O(N^2) DFT by explicit matrix multiply."""
    x = np.asarray(x, dtype=np.complex128)
    n = len(x)
    k = np.arange(n)
    matrix = np.exp(-2j * np.pi * np.outer(k, k) / n)
    return matrix @ x


def naive_idft(spectrum):
    spectrum = np.asarray(spectrum, dtype=np.complex128)
    n = len(spectrum)
    k = np.arange(n)
    matrix = np.exp(2j * np.pi * np.outer(k, k) / n)
    return (matrix @ spectrum) / n


def brute_low_pass(x, cutoff_fraction):
    """Zero-pad to a power of two, zero bins above the cutoff, transform back."""
    n = len(x)
    if n == 0:
        return np.zeros(0)
    size = 1
    while size < n:
        size *= 2
    padded = np.zeros(size)
    padded[:n] = x
    spectrum = naive_dft(padded)
    cut = int(cutoff_fraction * (size // 2) + 1e-9)
    for k in range(size):
        if k > cut and k < size - cut:
            spectrum[k] = 0.0
    return naive_idft(spectrum)[:n].real


def symmetric_extend(x, pad):
    """Half-sample mirror: [x1, x0 | x0, x1, ..., xn-1 | xn-1, xn-2]."""
    x = list(x)
    return x[:pad][::-1] + x + x[-pad:][::-1] if pad else list(x)


def brute_conv_full(x, h):
    """out[k] = sum over ascending j of h[j] * x[k-j]."""
    out = []
    for k in range(len(x) + len(h) - 1):
        acc = 0.0
        for j in range(len(h)):
            i = k - j
            if 0 <= i < len(x):
                acc += h[j] * x[i]
        out.append(acc)
    return out


def brute_dwt_level(x, low, high):
    """Mirror-extend, convolve (loops), keep even samples of the aligned core."""
    pad = len(low) - 1
    ext = symmetric_extend(x, pad)
    lo = brute_conv_full(ext, list(low))[2 * pad: 2 * pad + len(x)]
    hi = brute_conv_full(ext, list(high))[2 * pad: 2 * pad + len(x)]
    return np.array(lo[0::2]), np.array(hi[0::2])


def brute_sdwt(x, low, high, levels):
    out = np.asarray(x, dtype=float)
    for _ in range(levels):
        out, _ = brute_dwt_level(out, low, high)
    return out


def brute_upfirdn(x, h, up, down):
    stuffed = []
    for value in x:
        stuffed.append(float(value))
        stuffed.extend([0.0] * (up - 1))
    convolved = brute_conv_full(stuffed, list(h)) if stuffed else \
        [0.0] * (len(h) - 1)
    return np.array(convolved[::down])


def toeplitz_lpc(r, order):
    """Prediction coefficients by directly solving the normal equations."""
    matrix = np.empty((order, order))
    for i in range(order):
        for j in range(order):
            matrix[i, j] = r[abs(i - j)]
    return np.linalg.solve(matrix, np.asarray(r[1: order + 1]))


def brute_ngram_counts(data, n):
    """Sliding n-gram counts: {context bytes: {symbol: count}}."""
    counts = {}
    for i in range(len(data) - n + 1):
        ctx = bytes(data[i: i + n - 1])
        sym = data[i + n - 1]
        counts.setdefault(ctx, {})[sym] = counts.get(ctx, {}).get(sym, 0) + 1
    return counts


def scalar_distance(a, b, metric, p=3.0, tol=1e-4):
    """One pair at a time, by the per-metric formulas the package used
    before distances were computed a whole matrix at once."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    delta = np.abs(a - b)
    if metric == "eucl":
        return float(np.linalg.norm(a - b))
    if metric == "cheb":
        return float(np.max(delta)) if a.size else 0.0
    if metric == "mink":
        return float(np.sum(delta ** p) ** (1.0 / p))
    if metric == "cos":
        na, nb = np.linalg.norm(a), np.linalg.norm(b)
        if na == 0.0 or nb == 0.0:
            return 1.0
        return float(1.0 - np.dot(a, b) / (na * nb))
    if metric == "hamming":
        return float(np.count_nonzero(delta > tol))
    if metric == "diff":
        return float(np.sum(delta[delta > tol]))
    raise ValueError(metric)
