"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written the dumb way (explicit transform
matrices, plain loops) so it shares no code path with the implementations
under test. The one exception is `nlp.probability`, the scalar estimate that
the table-driven n-gram scores are checked against.
"""

import math

import numpy as np

from codewave.nlp import probability


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


def sequential_score(data, model, smoothing):
    """Natural-log likelihood of a document, the way the package summed it
    before scoring went through log-prob tables: one `probability` call per
    n-gram, added left to right, stopping at the first zero."""
    n = model.n
    n_grams = len(data) - n + 1
    if smoothing.kind == "mle" and len(model.code_counts()[0]) == 0 and n_grams > 0:
        return -math.inf
    score = 0.0
    for i in range(n_grams):
        p = probability(model, bytes(data[i: i + n - 1]), data[i + n - 1],
                        smoothing)
        if p == 0.0:
            return -math.inf
        score += math.log(p)
    return score


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


def feature_row(data, loader_ngram, spec, extractor, fft_window=1024,
                fft_bins=512, lpc_order=20, minmax_d=4):
    """One file's feature row the way the package computed it before files
    were processed in blocks: bytes -> samples -> preprocess -> extract, one
    file at a time. `spec` is a FilterSpec; `extractor` is fft, lpc or
    minmax. A frozen copy of that per-file code, so it shares nothing with
    the block path it is compared against."""
    raw = np.frombuffer(data, dtype=np.uint8)
    if len(raw) < loader_ngram:
        x = np.zeros(0, dtype=np.float64)
    elif loader_ngram == 1:
        x = raw.view(np.int8).astype(np.float64) / 128.0
    elif loader_ngram == 2:
        packed = (raw[:-1].astype(np.uint16) << 8) | raw[1:]
        x = packed.view(np.int16).astype(np.float64) / 32768.0
    else:
        packed = ((raw[:-2].astype(np.int64) << 16)
                  | (raw[1:-1].astype(np.int64) << 8) | raw[2:])
        packed -= (packed >= 1 << 23) * (1 << 24)
        x = packed.astype(np.float64) / float(1 << 23)
    x = np.ascontiguousarray(_old_preprocess(x, spec))
    if extractor == "fft":
        n_windows = max(1, -(-len(x) // fft_window))
        padded = np.zeros(n_windows * fft_window, dtype=np.float64)
        padded[: len(x)] = x
        frames = padded.reshape(n_windows, fft_window)
        magnitudes = np.abs(np.fft.rfft(frames, axis=1))[:, : fft_window // 2]
        return magnitudes.mean(axis=0)[:fft_bins]
    if extractor == "lpc":
        n = len(x)
        r = np.zeros(lpc_order + 1, dtype=np.float64)
        for lag in range(min(lpc_order + 1, n)):
            r[lag] = np.dot(x[: n - lag], x[lag:])
        return _old_levinson_durbin(r, lpc_order)
    if len(x) == 0:
        return np.zeros(minmax_d)
    stats = [float(np.min(x)), float(np.max(x))]
    if minmax_d == 4:
        stats += [float(np.mean(x)), float(np.sqrt(np.mean(x * x)))]
    return np.array(stats)


def _old_preprocess(x, spec):
    if spec.kind == "norm":
        if len(x) == 0:
            return x.copy()
        peak = np.max(np.abs(x))
        return x.copy() if peak == 0.0 else x / peak
    if spec.kind == "raw":
        out = x.copy()
    elif spec.kind == "fft_low":
        out = x.copy()
        n = len(x)
        if n:
            size = 1 << max(0, (n - 1)).bit_length()
            spectrum = np.fft.rfft(x, size)
            cut = int(spec.cutoff_fraction * (size // 2) + 1e-9)
            spectrum[cut + 1:] = 0.0
            out = np.fft.irfft(spectrum, size)[:n]
    else:
        out = x
        low, high = spec.wavelet.low_pass, spec.wavelet.high_pass
        for _ in range(spec.levels):
            if len(out) < len(low):
                break
            out = _old_dwt_low(out, low)
    if out.size:
        peak = float(np.max(np.abs(out)))
        if peak > 1.0:
            if peak - 1.0 < 1e-12:
                out = np.clip(out, -1.0, 1.0)
            else:
                out = out / peak
    return out


def _old_dwt_low(x, low):
    pad = len(low) - 1
    ext = np.pad(x, pad, mode="symmetric") if pad else x
    h = np.asarray(low, dtype=np.float64)
    full = np.zeros(len(ext) + len(h) - 1, dtype=np.float64)
    for j, tap in enumerate(h):
        full[j: j + len(ext)] += tap * ext
    return full[2 * pad: 2 * pad + len(x)][0::2]


def _old_levinson_durbin(r, order):
    a = np.zeros(order, dtype=np.float64)
    if r[0] == 0.0:
        return a
    poly = np.zeros(order + 1, dtype=np.float64)
    poly[0] = 1.0
    err = r[0]
    for m in range(1, order + 1):
        acc = r[m] + np.dot(poly[1:m], r[m - 1:0:-1])
        if err == 0.0:
            break
        ref = -acc / err
        poly[1:m + 1] += ref * poly[m - 1::-1][:m]
        err *= 1.0 - ref * ref
    a[:] = -poly[1:]
    return a


def reference_stats(warnings, truth, class_kind, guess):
    """(good, bad) per class id, one warning at a time: the class a warning
    is credited with and whether it is good, by the rules of the precision
    tables. Warnings on paths without a true class of `class_kind` are
    skipped; every true class has an entry, even an all-zero one."""
    true_of = {}
    for entry in truth.entries:
        classes = [wc for wc, _ in entry.classes if wc.kind == class_kind]
        if classes:
            true_of[entry.path] = classes
    tally = {}
    for classes in true_of.values():
        for wc in classes:
            tally[wc.id] = [0, 0]
    for w in warnings:
        if w.path not in true_of:
            continue
        classes = true_of[w.path]
        if w.weakness in classes:
            credited, good = w.weakness, True
        elif guess == "second" and w.second_guess in classes:
            credited, good = w.second_guess, True
        else:
            credited, good = w.weakness, False
        if credited.id not in tally:
            tally[credited.id] = [0, 0]
        if good:
            tally[credited.id][0] += 1
        else:
            tally[credited.id][1] += 1
    return {cid: tuple(counts) for cid, counts in tally.items()}
