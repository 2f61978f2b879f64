import math
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codewave.errors import ConfigError, ModelFormatError
from codewave.index import WeaknessClass
from codewave.nlp import (NGramModel, SmoothingSpec, load_models, models_bytes,
                          ngram_counts, probability, rank_models, score_documents,
                          train_model)

from .oracles import brute_ngram_counts, sequential_score

MLE = SmoothingSpec("mle")
ADD1 = SmoothingSpec("add_delta", 1.0)
WB = SmoothingSpec("witten_bell")

CWE20 = WeaknessClass.cwe("CWE-20")
CWE119 = WeaknessClass.cwe("CWE-119")


class TestTraining:
    def test_unigram_counts(self):
        model = train_model(b"aaab", 1)
        assert model.counts[b""] == {ord("a"): 3, ord("b"): 1}
        assert model.totals[b""] == 4

    def test_bigram_counts(self):
        model = train_model(b"abab", 2)
        assert model.counts[b"a"] == {ord("b"): 2}
        assert model.counts[b"b"] == {ord("a"): 1}

    def test_empty_input_empty_model(self):
        assert len(train_model(b"", 2).code_counts()[0]) == 0
        assert len(train_model(b"a", 2).code_counts()[0]) == 0

    def test_counts_match_brute_force(self):
        data = b"the quick brown fox jumps over the lazy dog" * 3
        for n in (1, 2, 3):
            model = train_model(data, n)
            assert model.counts == brute_ngram_counts(data, n)

    def test_update_accumulates_per_document(self):
        model = NGramModel(n=2)
        model.update(b"ab")
        model.update(b"cd")
        # no cross-document bigram "bc"
        assert b"b" not in model.counts
        assert model.counts[b"a"] == {ord("b"): 1}
        assert model.counts[b"c"] == {ord("d"): 1}

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            NGramModel(n=4)


class TestProbability:
    def test_mle(self):
        model = train_model(b"aaab", 1)
        assert probability(model, b"", ord("a"), MLE) == 0.75

    def test_add_delta_formula(self):
        model = train_model(b"aaab", 1)
        assert probability(model, b"", ord("a"), ADD1) == pytest.approx(4 / 260)

    def test_witten_bell_seen_and_unseen(self):
        model = train_model(b"aaab", 1)  # N=4, T=2, V=256
        assert probability(model, b"", ord("a"), WB) == pytest.approx(0.5)
        assert probability(model, b"", ord("z"), WB) == pytest.approx(
            2 / (6 * 254))

    def test_witten_bell_sums_to_one(self):
        model = train_model(b"aaab", 1)
        total = sum(probability(model, b"", s, WB) for s in range(256))
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_unseen_context_uniform(self):
        model = train_model(b"abab", 2)
        for spec in (MLE, ADD1, WB):
            assert probability(model, b"z", ord("a"), spec) == 1 / 256

    def test_witten_bell_saturated_context(self):
        # all 256 symbols seen: no unseen mass left, plain relative frequency
        model = train_model(bytes(range(256)) * 2, 1)
        total = sum(probability(model, b"", s, WB) for s in range(256))
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_add_delta_tends_to_mle(self):
        model = train_model(b"mixed content bytes", 1)
        tiny = SmoothingSpec("add_delta", 1e-9)
        for sym in set(b"mixed content bytes"):
            assert probability(model, b"", sym, tiny) == pytest.approx(
                probability(model, b"", sym, MLE), abs=1e-6)

    def test_wrong_context_length(self):
        model = train_model(b"abab", 2)
        with pytest.raises(ConfigError):
            probability(model, b"ab", ord("a"), MLE)

    @pytest.mark.parametrize("spec", [MLE, ADD1, WB])
    def test_per_context_normalization(self, spec):
        data = b"abracadabra banana cabana"
        for n in (1, 2):
            model = train_model(data, n)
            for ctx in model.counts:
                symbols = model.counts[ctx] if spec.kind == "mle" else range(256)
                total = sum(probability(model, ctx, s, spec) for s in symbols)
                assert total == pytest.approx(1.0, abs=1e-9)


class TestScoring:
    def test_perfect_unigram_score_zero(self):
        model = train_model(b"aa", 1)
        assert score_documents([b"aa"], [model], MLE)[0, 0] == 0.0

    def test_add_delta_always_finite(self):
        model = train_model(b"aaa", 1)
        score = score_documents([b"completely different"], [model], ADD1)[0, 0]
        assert math.isfinite(score)

    def test_mle_unseen_symbol_is_minus_inf(self):
        model = train_model(b"aaa", 1)
        assert score_documents([b"ab"], [model], MLE)[0, 0] == -math.inf

    def test_mle_empty_model_sentinel(self):
        assert score_documents([b"abc"], [NGramModel(n=1)], MLE)[0, 0] == -math.inf

    def test_unigram_additivity(self):
        model = train_model(b"abcabcab", 1)
        x, y = b"abca", b"bcab"
        whole = score_documents([x + y], [model], ADD1)[0, 0]
        parts = (score_documents([x], [model], ADD1)[0, 0]
                 + score_documents([y], [model], ADD1)[0, 0])
        assert whole == pytest.approx(parts, abs=1e-9)

    @pytest.mark.parametrize("spec", [MLE, ADD1, WB])
    def test_own_training_text_outranks(self, spec):
        a_text = b"aaaa aaab aaac aaad" * 4
        b_text = b"zzzz zzzy zzzx zzzw" * 4
        models = {CWE20: train_model(a_text, 1, CWE20),
                  CWE119: train_model(b_text, 1, CWE119)}
        result = rank_models(a_text, models, spec)
        assert result[0][0] == CWE20
        # brute-force check: compare per-symbol product via logs
        by_hand = {}
        for wc, model in models.items():
            total = 0.0
            for sym in a_text:
                total += math.log(probability(model, b"", sym, spec)) \
                    if probability(model, b"", sym, spec) > 0 else -math.inf
            by_hand[wc] = -total
        assert by_hand[CWE20] < by_hand[CWE119]

    def test_probabilities_within_unit_interval(self):
        model = train_model(b"some bytes with structure", 2)
        for spec in (MLE, ADD1, WB):
            for ctx in list(model.counts)[:5]:
                for sym in range(0, 256, 17):
                    p = probability(model, ctx, sym, spec)
                    assert 0.0 <= p <= 1.0


SPECS = [MLE, ADD1, SmoothingSpec("add_delta", 0.37), WB]

# short texts over a small alphabet, so that n-grams repeat and get seen
texts = st.one_of(st.binary(max_size=40),
                  st.lists(st.sampled_from(b"ab\x00\xff"), max_size=40).map(bytes))


def outcome(fn, *args):
    """The score's bits, or the name of the error it raised."""
    try:
        return struct.pack("<d", fn(*args))
    except ValueError as exc:
        return f"ValueError: {exc}"


def trained(n, documents):
    model = NGramModel(n=n)
    for data in documents:
        model.update(data)
    return model


class TestBatchScoring:
    """Table-driven scores equal the sequential oracle bit for bit."""

    @settings(deadline=None, max_examples=150)
    @given(n=st.sampled_from([1, 2, 3]), spec=st.sampled_from(SPECS),
           training=st.lists(st.lists(texts, max_size=3), min_size=1, max_size=3),
           documents=st.lists(texts, max_size=4))
    def test_matrix_equals_sequential_sum(self, n, spec, training, documents):
        models = [trained(n, docs) for docs in training]
        expected = [[outcome(sequential_score, data, model, spec)
                     for model in models] for data in documents]
        matrix = score_documents(documents, models, spec)
        assert matrix.shape == (len(documents), len(models))
        assert [[struct.pack("<d", x) for x in row] for row in matrix] == expected

    @pytest.mark.parametrize("spec", SPECS)
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_edge_documents(self, n, spec):
        # empty, shorter than n, and unseen symbols, on a trained and an
        # empty model
        for model in (train_model(b"abcabcab", n), NGramModel(n=n)):
            for data in (b"", b"a", b"ab", b"abc", b"zzzz"):
                assert outcome(lambda: score_documents([data], [model], spec)[0, 0]) == \
                    outcome(sequential_score, data, model, spec)

    def test_mle_unseen_symbol_and_empty_model(self):
        assert score_documents([b"aab"], [train_model(b"aaaa", 2)], MLE)[0, 0] == -math.inf
        assert score_documents([b"ab"], [NGramModel(n=2)], MLE)[0, 0] == -math.inf
        assert score_documents([b"a"], [NGramModel(n=2)], MLE)[0, 0] == 0.0

    @pytest.mark.parametrize("n, text", [
        (1, bytes(range(256)) * 3 + b"\x07\x07"),
        # context 7 is followed by every symbol, the others by 7 alone
        (2, b"".join(bytes([7, s]) for s in range(256)))],
        ids=["unigram", "bigram"])
    def test_saturated_witten_bell_context(self, n, text):
        model = train_model(text, n)
        assert len(model.counts[b"\x07"[:n - 1]]) == 256
        data = bytes(range(255, -1, -1)) * 2 + bytes([7, 7, 7, 9])
        assert outcome(lambda: score_documents([data], [model], WB)[0, 0]) == \
            outcome(sequential_score, data, model, WB)

    def test_mixed_n_models(self):
        models = [train_model(b"abcab", n) for n in (1, 2, 3)]
        data = b"abcabd"
        row = score_documents([data], models, ADD1)[0]
        assert list(row) == [sequential_score(data, m, ADD1) for m in models]

    def test_table_is_rebuilt_after_update(self):
        model = train_model(b"abab", 2)
        before = score_documents([b"abcb"], [model], WB)[0, 0]
        model.update(b"cbcb")
        after = score_documents([b"abcb"], [model], WB)[0, 0]
        assert after != before
        assert after == sequential_score(b"abcb", model, WB)
        assert before == sequential_score(b"abcb", train_model(b"abab", 2), WB)


class TestVectorizedCounts:
    @settings(deadline=None, max_examples=100)
    @given(n=st.sampled_from([1, 2, 3]), documents=st.lists(texts, max_size=4))
    def test_counts_equal_brute_force(self, n, documents):
        expected = {}
        for data in documents:
            for ctx, by_symbol in brute_ngram_counts(data, n).items():
                for sym, count in by_symbol.items():
                    into = expected.setdefault(ctx, {})
                    into[sym] = into.get(sym, 0) + count
        model = trained(n, documents)
        assert model.counts == expected
        assert model.totals == {ctx: sum(by_symbol.values())
                                for ctx, by_symbol in expected.items()}
        assert (len(model.code_counts()[0]) == 0) == (not expected)

    @given(n=st.sampled_from([1, 2, 3]), data=texts)
    def test_document_counts(self, n, data):
        codes, counts = ngram_counts(data, n)
        assert list(codes) == sorted(set(codes.tolist()))
        brute = brute_ngram_counts(data, n)
        assert dict(zip(codes.tolist(), counts.tolist())) == {
            int.from_bytes(ctx, "big") << 8 | sym: count
            for ctx, by_symbol in brute.items()
            for sym, count in by_symbol.items()}


class TestPersistence:
    def test_roundtrip(self, tmp_path):
        models = {
            CWE20: train_model(b"alpha beta gamma", 2, CWE20),
            CWE119: train_model(b"delta epsilon zeta", 2, CWE119),
        }
        target = tmp_path / "models.cwnm"
        target.write_bytes(models_bytes(models, config_hash="deadbeef"))
        loaded, config_hash = load_models(target)
        assert config_hash == "deadbeef"
        assert set(loaded) == set(models)
        for wc in models:
            assert loaded[wc].counts == models[wc].counts
            assert loaded[wc].totals == models[wc].totals
            assert loaded[wc].n == 2

    @settings(deadline=None, max_examples=100)
    @given(st.integers(1, 3),
           st.dictionaries(st.sampled_from([CWE20, CWE119, WeaknessClass.cve("CVE-2009-2562")]),
                           st.lists(st.binary(max_size=48), max_size=4),
                           min_size=1, max_size=3),
           st.text(st.characters(exclude_categories=("Cs",)), max_size=8))
    def test_saved_models_load_to_the_same_bytes(self, n, documents, config_hash):
        models = {wc: NGramModel(n=n, label=wc) for wc in documents}
        for wc, docs in documents.items():
            for doc in docs:
                models[wc].update(doc)
        data = models_bytes(models, config_hash)
        with tempfile.TemporaryDirectory() as tmp:
            target = Path(tmp, "models.cwnm")
            target.write_bytes(data)
            loaded, loaded_hash = load_models(target)
        assert models_bytes(loaded, loaded_hash) == data
        for wc, model in models.items():
            for got, want in zip(loaded[wc].code_counts(), model.code_counts()):
                assert np.array_equal(got, want)

    def test_magic_enforced(self, tmp_path):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"CWTS" + b"\x00" * 16)
        with pytest.raises(ModelFormatError):
            load_models(bad)

    def test_every_cut_is_a_format_error(self, tmp_path):
        target = tmp_path / "models.cwnm"
        target.write_bytes(models_bytes({CWE20: train_model(b"abcab", 3, CWE20),
                                         CWE119: train_model(b"xyzzy", 3, CWE119)}, "c0ffee"))
        whole = target.read_bytes()
        for cut in range(len(whole)):
            target.write_bytes(whole[:cut])
            with pytest.raises(ModelFormatError, match="models.cwnm"):
                load_models(target)

    def test_vocabulary_other_than_bytes_is_a_format_error(self, tmp_path):
        target = tmp_path / "models.cwnm"
        target.write_bytes(models_bytes({CWE20: train_model(b"abcab", 1, CWE20)}))
        whole = bytearray(target.read_bytes())
        assert struct.unpack_from("<I", whole, 10) == (256,)
        struct.pack_into("<I", whole, 10, 16)  # the vocabulary field
        target.write_bytes(bytes(whole))
        with pytest.raises(ModelFormatError, match="vocabulary size 16"):
            load_models(target)

    def test_mixed_n_rejected(self, tmp_path):
        models = {CWE20: train_model(b"aa", 1), CWE119: train_model(b"ab", 2)}
        with pytest.raises(ConfigError):
            (tmp_path / "x.cwnm").write_bytes(models_bytes(models))
