import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from codewave.classify import (METRICS, TrainingSet, classify, distance,
                               distances, load_training_set, train,
                               training_set_bytes)
from codewave.errors import ConfigError, ModelFormatError
from codewave.index import WeaknessClass

from .oracles import scalar_distance


def fv(*values):
    return np.array(values, dtype=float)


CWE20 = WeaknessClass.cwe("CWE-20")
CWE119 = WeaknessClass.cwe("CWE-119")
CWE399 = WeaknessClass.cwe("CWE-399")


class TestTrain:
    def test_mean_centroid(self):
        ts = train([(CWE20, fv(0, 2)), (CWE20, fv(2, 0))], "mean")
        assert ts.classes[CWE20].centroid.tolist() == [1.0, 1.0]
        assert ts.classes[CWE20].count == 2

    def test_median_robust_to_outlier(self):
        ts = train([(CWE20, fv(0)), (CWE20, fv(0)), (CWE20, fv(9))], "median")
        assert ts.classes[CWE20].centroid.tolist() == [0.0]

    def test_single_vector_class(self):
        ts = train([(CWE20, fv(0.5, -0.5))], "mean")
        assert ts.classes[CWE20].centroid.tolist() == [0.5, -0.5]

    def test_retraining_recomputes_exactly(self):
        base = [(CWE20, fv(0, 2)), (CWE20, fv(2, 0))]
        more = base + [(CWE20, fv(4, 4))]
        assert train(more, "mean").classes[CWE20].centroid.tolist() == [2.0, 2.0]

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(ConfigError):
            train([(CWE20, fv(1, 2)), (CWE119, fv(1, 2, 3))], "mean")

    @pytest.mark.parametrize("kind", ["mean", "median"])
    def test_overflowing_centroid_names_its_class(self, kind):
        # each row is finite, but both sum past float64 in the first column
        vectors = [(CWE119, fv(0, 0)), (CWE20, fv(1e308, 0)), (CWE20, fv(1e308, 1))]
        with pytest.raises(ConfigError, match=f"^the {kind} centroid of class "
                           "CWE-20 overflows float64$"):
            train(vectors, kind)

    def test_non_finite_rows_keep_the_centroid_error(self):
        with pytest.raises(ValueError, match="centroid contains non-finite") as caught:
            train([(CWE20, fv(np.inf, 0)), (CWE20, fv(1, 0))], "mean")
        assert not isinstance(caught.value, ConfigError)

    def test_order_free(self):
        vectors = [(CWE20, fv(0, 2)), (CWE119, fv(5, 5)), (CWE20, fv(2, 0))]
        a = train(vectors, "mean")
        b = train(list(reversed(vectors)), "mean")
        for wc in (CWE20, CWE119):
            assert np.array_equal(a.classes[wc].centroid, b.classes[wc].centroid)


class TestDistance:
    def test_eucl(self):
        assert distance([0, 0], [3, 4], "eucl") == 5.0

    def test_cheb(self):
        assert distance([1, 2], [4, 0], "cheb") == 3.0

    def test_mink_p3(self):
        assert distance([0], [2], "mink", p=3) == pytest.approx(2.0)

    def test_cos_colinear(self):
        v = np.array([0.3, -0.4, 1.0])
        assert distance(v, 2 * v, "cos") == pytest.approx(0.0, abs=1e-12)

    def test_cos_zero_vector(self):
        assert distance([0.0, 0.0], [1.0, 2.0], "cos") == 1.0

    def test_hamming(self):
        assert distance([0, 0, 0], [1, 0.4, 2], "hamming", tol=0.5) == 2.0

    def test_diff_thresholded_l1(self):
        assert distance([0, 0, 0], [1, 0.4, 2], "diff", tol=0.5) == pytest.approx(3.0)

    def test_diff_collapses_to_l1_at_zero(self):
        a, b = np.array([0.5, -1.0]), np.array([0.2, 0.4])
        assert distance(a, b, "diff", tol=0.0) == pytest.approx(np.sum(np.abs(a - b)))

    def test_dimension_mismatch(self):
        with pytest.raises(ConfigError):
            distance([1], [1, 2], "eucl")

    @pytest.mark.parametrize("metric", ["eucl", "cheb", "mink"])
    def test_metric_axioms_sampled(self, metric):
        rng = np.random.default_rng(42)
        for _ in range(200):
            a, b, c = rng.uniform(-5, 5, size=(3, 6))
            dab = distance(a, b, metric)
            assert dab >= 0
            assert dab == pytest.approx(distance(b, a, metric), abs=1e-12)
            assert distance(a, a, metric) <= 1e-12
            assert dab <= distance(a, c, metric) + distance(c, b, metric) + 1e-9


def matrices(d_max=6, rows_max=5):
    """(X, C): two float matrices of a shared width, sometimes with
    all-zero rows (the cos special case) and repeated rows (ties)."""
    value = st.floats(-1e3, 1e3, allow_nan=False)

    def rows_of(d):
        row = st.one_of(st.lists(value, min_size=d, max_size=d),
                        st.just([0.0] * d))
        return st.lists(row, min_size=1, max_size=rows_max)

    return st.integers(0, d_max).flatmap(
        lambda d: st.tuples(rows_of(d), rows_of(d)))


class TestDistances:
    @settings(max_examples=60, deadline=None)
    @given(matrices(), st.floats(1.0, 4.0), st.floats(0.0, 1.0))
    def test_agrees_with_scalar_formulas(self, pair, p, tol):
        X, C = (np.array(m, dtype=float).reshape(len(m), -1) for m in pair)
        for metric in METRICS:
            got = distances(X, C, metric, p, tol)
            assert got.shape == (len(X), len(C))
            for i, x in enumerate(X):
                for k, c in enumerate(C):
                    want = scalar_distance(x, c, metric, p, tol)
                    assert abs(got[i, k] - want) <= 1e-12 * max(1.0, abs(want))

    @settings(max_examples=40, deadline=None)
    @given(matrices(rows_max=7))
    def test_row_scores_do_not_depend_on_the_batch(self, pair):
        X, C = (np.array(m, dtype=float).reshape(len(m), -1) for m in pair)
        for metric in METRICS:
            full = distances(X, C, metric)
            for i in range(len(X)):
                assert np.array_equal(distances(X[i:i + 1], C, metric)[0], full[i])
            assert np.array_equal(distances(C, X, metric).T, full)

    def test_mink_with_a_huge_exponent_ranks_by_the_chebyshev_limit(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = distances([[0.5, 2], [0.1, 0.2]], [[0, 0], [1, 1]], "mink", 1e300)
        assert got.tolist() == [[2, 1], [0.2, 0.9]]

    @pytest.mark.parametrize("p", [1.0, 2.5, 3.0, 40.0])
    def test_mink_finite_rows_keep_the_plain_form(self, p):
        rng = np.random.default_rng(3)
        X, C = rng.normal(size=(9, 6)), rng.normal(size=(4, 6))
        plain = np.array([np.sum(np.abs(X - c) ** p, axis=1) ** (1.0 / p)
                          for c in C]).T
        assert distances(X, C, "mink", p).tobytes() == plain.tobytes()

    def test_cos_zero_rows_score_one(self):
        got = distances(np.zeros((2, 3)), np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]]),
                        "cos")
        assert got.tolist() == [[1.0, 1.0], [1.0, 1.0]]

    def test_width_mismatch(self):
        with pytest.raises(ConfigError):
            distances(np.zeros((2, 3)), np.zeros((2, 4)), "eucl")


class TestClassify:
    def build(self):
        return train([(CWE20, fv(0, 0)), (CWE119, fv(1, 0)), (CWE399, fv(0, 2))],
                     "mean", config_hash="h")

    def test_exact_match_scores_zero(self):
        ts = self.build()
        result = classify(fv(1, 0), ts, "eucl")
        assert result[0] == (CWE119, 0.0)

    def test_tie_break_lexicographic(self):
        ts = train([(CWE119, fv(0, 1)), (CWE20, fv(0, -1))], "mean")
        result = classify(fv(0, 0), ts, "eucl")
        # "CWE-119" < "CWE-20"
        assert [wc for wc, _ in result] == [CWE119, CWE20]

    def test_matches_brute_force_ranking(self):
        ts = self.build()
        rng = np.random.default_rng(1)
        for _ in range(25):
            v = fv(*rng.uniform(-2, 2, size=2))
            result = classify(v, ts, "eucl")
            brute = sorted(
                ((wc, distance(v, m.centroid, "eucl"))
                 for wc, m in ts.classes.items()),
                key=lambda item: (item[1], item[0].id))
            assert result == brute

    def test_scores_non_decreasing(self):
        result = classify(fv(0.2, 0.7), self.build(), "cheb")
        scores = [s for _, s in result]
        assert scores == sorted(scores)

    def test_dimension_mismatch(self):
        with pytest.raises(ConfigError):
            classify(fv(1, 2, 3), self.build(), "eucl")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_vector_refused(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            classify(fv(1, bad), self.build(), "eucl")

    def test_one_vector_per_class_self_recognition(self):
        vectors = [(CWE20, fv(0, 0)), (CWE119, fv(3, 1)), (CWE399, fv(-2, 5))]
        ts = train(vectors, "mean")
        for wc, vector in vectors:
            result = classify(vector, ts, "eucl")
            assert result[0] == (wc, 0.0)


# finite doubles, with signed zeros, subnormals and the ends of the range common
FINITE = (st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e308, -1e308])
          | st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def labeled_rows(draw):
    d = draw(st.integers(1, 4))
    row = st.lists(FINITE, min_size=d, max_size=d).map(np.array)
    return draw(st.lists(st.tuples(st.sampled_from([CWE20, CWE119, CWE399]), row),
                         min_size=1, max_size=6))


class TestPersistence:
    def test_roundtrip(self, tmp_path):
        ts = train([(CWE20, fv(0.5, 1.5)), (CWE119, fv(-1, 2)),
                    (CWE119, fv(0, 0))], "median", config_hash="abc123")
        target = tmp_path / "model.cwts"
        target.write_bytes(training_set_bytes(ts))
        loaded = load_training_set(target)
        assert loaded.config_hash == "abc123"
        assert set(loaded.classes) == set(ts.classes)
        for wc in ts.classes:
            assert np.array_equal(loaded.classes[wc].centroid,
                                  ts.classes[wc].centroid)
            assert loaded.classes[wc].count == ts.classes[wc].count
            assert loaded.classes[wc].kind == ts.classes[wc].kind

    @settings(deadline=None, max_examples=100)
    @given(labeled_rows(), st.sampled_from(["mean", "median"]),
           st.text(st.characters(exclude_categories=("Cs",)), min_size=1, max_size=8))
    def test_saved_training_set_loads_to_the_same_bytes(self, vectors, kind, config_hash):
        with np.errstate(over="ignore"):  # rows near ±1e308 can sum past the range,
            try:
                ts = train(vectors, kind, config_hash)
            except ValueError:  # and ClusterModel refuses the infinite centroid
                reject()
        with tempfile.TemporaryDirectory() as tmp:
            target = Path(tmp, "model.cwts")
            target.write_bytes(training_set_bytes(ts))
            loaded = load_training_set(target)
        assert training_set_bytes(loaded) == training_set_bytes(ts)
        for wc, cluster in ts.classes.items():
            assert loaded.classes[wc].centroid.tobytes() == cluster.centroid.tobytes()

    def test_magic_enforced(self, tmp_path):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(ModelFormatError):
            load_training_set(bad)

    def test_every_cut_is_a_format_error(self, tmp_path):
        target = tmp_path / "model.cwts"
        target.write_bytes(training_set_bytes(train(
            [(CWE20, fv(0.5, 1.5)), (CWE119, fv(-1, 2))], "mean", config_hash="abc123")))
        whole = target.read_bytes()
        for cut in range(len(whole)):
            target.write_bytes(whole[:cut])
            with pytest.raises(ModelFormatError, match="model.cwts"):
                load_training_set(target)

    def test_training_set_requires_hash(self):
        with pytest.raises(ValueError):
            TrainingSet({}, "")
