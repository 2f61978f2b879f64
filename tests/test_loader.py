import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from codewave.loader import Signal, load_signal, normalize, samples_from_bytes


class TestSamplesFromBytes:
    def test_zero_bigram(self):
        assert samples_from_bytes(b"\x00\x00", 2).tolist() == [0.0]

    def test_most_negative_unigram(self):
        assert samples_from_bytes(b"\x80", 1).tolist() == [-1.0]

    def test_most_positive_bigram(self):
        (value,) = samples_from_bytes(b"\x7f\xff", 2)
        assert value == pytest.approx(32767 / 32768)

    def test_sliding_window_length(self):
        assert len(samples_from_bytes(b"abcde", 2)) == 4

    def test_unigram_length_equals_byte_count(self):
        data = bytes(range(256))
        assert len(samples_from_bytes(data, 1)) == 256

    def test_short_input_empty(self):
        assert len(samples_from_bytes(b"ab", 3)) == 0
        assert len(samples_from_bytes(b"", 1)) == 0

    def test_trigram_sign(self):
        # 0x800000 is the most negative 24-bit value
        assert samples_from_bytes(b"\x80\x00\x00", 3).tolist() == [-1.0]
        (value,) = samples_from_bytes(b"\x7f\xff\xff", 3)
        assert value == pytest.approx((2**23 - 1) / 2**23)

    def test_big_endian_packing(self):
        # 0x0102 -> 258/32768, window slides to 0x0203 -> 515/32768
        got = samples_from_bytes(b"\x01\x02\x03", 2)
        assert got.tolist() == [258 / 32768, 515 / 32768]

    @given(st.binary(max_size=64), st.sampled_from([1, 2, 3]))
    def test_range_and_length(self, data, ngram):
        samples = samples_from_bytes(data, ngram)
        assert len(samples) == max(0, len(data) - ngram + 1)
        if len(samples):
            assert np.max(np.abs(samples)) <= 1.0

    @given(st.binary(min_size=3, max_size=32))
    def test_matches_signed_big_endian_packing(self, data):
        for ngram in (1, 2, 3):
            samples = samples_from_bytes(data, ngram)
            scale = float(1 << (8 * ngram - 1))
            for i in range(len(data) - ngram + 1):
                want = int.from_bytes(data[i: i + ngram], "big", signed=True)
                assert samples[i] == want / scale

    def test_rejects_bad_ngram(self):
        with pytest.raises(ValueError):
            samples_from_bytes(b"abc", 4)


class TestLoadSignal:
    def test_content_addressed(self, tmp_path):
        a = tmp_path / "a.bin"
        b = tmp_path / "sub" / "b.bin"
        b.parent.mkdir()
        a.write_bytes(b"identical content")
        b.write_bytes(b"identical content")
        assert np.array_equal(load_signal(a, 2).samples, load_signal(b, 2).samples)

    def test_metadata(self, tmp_path):
        f = tmp_path / "x.bin"
        f.write_bytes(b"abcd")
        # a signal carries only its samples; the n-gram width shows in them
        assert load_signal(f, 1).samples.tolist() == \
            samples_from_bytes(b"abcd", 1).tolist()
        assert len(load_signal(f, 1)) == 4
        assert len(load_signal(f, 3)) == 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_signal(tmp_path / "absent.bin", 1)


class TestNormalize:
    def test_scales_to_unit_peak(self):
        out = normalize(Signal(np.array([0.25, -0.5])))
        assert out.samples.tolist() == [0.5, -1.0]

    def test_all_zero_unchanged(self):
        out = normalize(Signal(np.zeros(3)))
        assert out.samples.tolist() == [0.0, 0.0, 0.0]

    def test_already_normalized_unchanged(self):
        out = normalize(Signal(np.array([1.0, -0.2])))
        assert out.samples.tolist() == [1.0, -0.2]

    def test_empty(self):
        assert len(normalize(Signal(np.zeros(0))).samples) == 0

    @given(st.lists(st.floats(-1.0, 1.0, allow_nan=False), max_size=32))
    def test_idempotent_with_unit_or_zero_peak(self, values):
        once = normalize(Signal(np.array(values, dtype=float)))
        twice = normalize(once)
        assert np.allclose(once.samples, twice.samples, atol=1e-15)
        if len(values):
            assert np.max(np.abs(once.samples)) in (0.0, pytest.approx(1.0))
