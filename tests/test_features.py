import numpy as np
import pytest

from codewave.errors import ConfigError
from codewave.features import (autocorrelation, extract_fft, extract_lpc,
                               extract_minmax, levinson_durbin)
from codewave.loader import Signal

from .oracles import naive_dft, toeplitz_lpc


class TestExtractFft:
    def test_constant_signal_dc_only(self):
        fv = extract_fft(Signal(np.ones(16)), window=16, d=8)
        assert fv[0] > 0
        assert np.allclose(fv[1:], 0.0, atol=1e-9)

    def test_cosine_peak_at_expected_bin(self):
        t = np.arange(16)
        x = np.cos(2 * np.pi * 2 * t / 16)
        fv = extract_fft(Signal(x), window=16, d=8)
        oracle_bin = int(np.argmax(np.abs(naive_dft(x))[:8]))
        assert oracle_bin == 2
        assert int(np.argmax(fv)) == oracle_bin
        others = np.delete(fv, oracle_bin)
        assert np.all(others < 1e-9)

    def test_empty_signal_zero_vector(self):
        fv = extract_fft(Signal(np.zeros(0)), window=16, d=8)
        assert fv.tolist() == [0.0] * 8

    def test_last_window_zero_padded(self):
        x = np.ones(20)  # 16 + 4 -> second window mostly zeros
        fv = extract_fft(Signal(x), window=16, d=8)
        assert len(fv) == 8
        assert np.all(np.isfinite(fv))

    def test_amplitude_linear(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-1, 1, size=100)
        base = extract_fft(Signal(x), window=32, d=16)
        scaled = extract_fft(Signal(0.25 * x), window=32, d=16)
        assert np.allclose(scaled, 0.25 * base, rtol=1e-9, atol=1e-12)

    def test_d_bound(self):
        with pytest.raises(ConfigError):
            extract_fft(Signal(np.zeros(4)), window=16, d=9)


class TestLevinsonDurbin:
    def test_ar1_pole_recovered(self):
        rng = np.random.default_rng(21)
        x = np.zeros(4096)
        for i in range(1, len(x)):
            x[i] = 0.9 * x[i - 1] + 1e-3 * rng.standard_normal()
        fv = extract_lpc(Signal(x), order=1)
        assert fv[0] == pytest.approx(0.9, abs=0.05)

    def test_zero_signal_zero_coefficients(self):
        fv = extract_lpc(Signal(np.zeros(64)), order=8)
        assert fv.tolist() == [0.0] * 8

    @pytest.mark.parametrize("order", [4, 8, 20])
    def test_matches_toeplitz_solve(self, order):
        rng = np.random.default_rng(order)
        x = rng.standard_normal(256)
        r = autocorrelation(x, order)
        a, _ = levinson_durbin(r, order)
        want = toeplitz_lpc(r, order)
        assert np.allclose(a, want, atol=1e-6)

    def test_reflection_coefficients_bounded(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            x = rng.standard_normal(128)
            r = autocorrelation(x, 8)
            _, k = levinson_durbin(r, 8)
            assert np.all(np.abs(k) < 1.0)

    def test_scale_invariance(self):
        rng = np.random.default_rng(34)
        x = rng.standard_normal(256)
        a1 = extract_lpc(Signal(x), order=8)
        a2 = extract_lpc(Signal(5.0 * x), order=8)
        assert np.allclose(a1, a2, atol=1e-6)

    def test_rejects_bad_order(self):
        with pytest.raises(ConfigError):
            extract_lpc(Signal(np.zeros(4)), order=0)


class TestExtractMinmax:
    def test_d2(self):
        fv = extract_minmax(Signal(np.array([-0.5, 0.2, 0.9])), d=2)
        assert fv.tolist() == [-0.5, 0.9]

    def test_d4_zeros(self):
        fv = extract_minmax(Signal(np.zeros(2)), d=4)
        assert fv.tolist() == [0.0, 0.0, 0.0, 0.0]

    def test_d4_rms(self):
        fv = extract_minmax(Signal(np.array([1.0, -1.0])), d=4)
        assert fv.tolist() == [-1.0, 1.0, 0.0, 1.0]

    def test_empty_signal(self):
        assert extract_minmax(Signal(np.zeros(0)), d=4).tolist() == [0.0] * 4

    def test_rejects_other_d(self):
        with pytest.raises(ConfigError):
            extract_minmax(Signal(np.zeros(4)), d=3)


class TestFixedLengthContract:
    @pytest.mark.parametrize("n", [0, 1, 7, 100, 2000])
    def test_every_extractor_returns_d_finite_values(self, n):
        rng = np.random.default_rng(n)
        sig = Signal(rng.uniform(-1, 1, size=n))
        for row, d in [(extract_fft(sig, window=64, d=32), 32),
                       (extract_lpc(sig, order=10), 10),
                       (extract_minmax(sig, d=4), 4)]:
            assert row.shape == (d,)
            assert np.all(np.isfinite(row))
