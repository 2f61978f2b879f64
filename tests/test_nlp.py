import math

import pytest

from codewave.errors import ConfigError, ModelFormatError
from codewave.index import WeaknessClass
from codewave.nlp import (NGramModel, SmoothingSpec, load_models, probability,
                          rank_models, save_models, score_document, train_model)

from .oracles import brute_ngram_counts

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
        assert train_model(b"", 2).is_empty()
        assert train_model(b"a", 2).is_empty()

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
        assert score_document(b"aa", model, MLE) == 0.0

    def test_add_delta_always_finite(self):
        model = train_model(b"aaa", 1)
        score = score_document(b"completely different", model, ADD1)
        assert math.isfinite(score)

    def test_mle_unseen_symbol_is_minus_inf(self):
        model = train_model(b"aaa", 1)
        assert score_document(b"ab", model, MLE) == -math.inf

    def test_mle_empty_model_sentinel(self):
        assert score_document(b"abc", NGramModel(n=1), MLE) == -math.inf

    def test_unigram_additivity(self):
        model = train_model(b"abcabcab", 1)
        x, y = b"abca", b"bcab"
        whole = score_document(x + y, model, ADD1)
        parts = score_document(x, model, ADD1) + score_document(y, model, ADD1)
        assert whole == pytest.approx(parts, abs=1e-9)

    @pytest.mark.parametrize("spec", [MLE, ADD1, WB])
    def test_own_training_text_outranks(self, spec):
        a_text = b"aaaa aaab aaac aaad" * 4
        b_text = b"zzzz zzzy zzzx zzzw" * 4
        models = {CWE20: train_model(a_text, 1, CWE20),
                  CWE119: train_model(b_text, 1, CWE119)}
        result = rank_models(a_text, models, spec)
        assert result.ranked[0][0] == CWE20
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


class TestPersistence:
    def test_roundtrip(self, tmp_path):
        models = {
            CWE20: train_model(b"alpha beta gamma", 2, CWE20),
            CWE119: train_model(b"delta epsilon zeta", 2, CWE119),
        }
        target = tmp_path / "models.cwnm"
        save_models(models, target, config_hash="deadbeef")
        loaded, config_hash = load_models(target)
        assert config_hash == "deadbeef"
        assert set(loaded) == set(models)
        for wc in models:
            assert loaded[wc].counts == models[wc].counts
            assert loaded[wc].totals == models[wc].totals
            assert loaded[wc].n == 2

    def test_magic_enforced(self, tmp_path):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"CWTS" + b"\x00" * 16)
        with pytest.raises(ModelFormatError):
            load_models(bad)

    def test_mixed_n_rejected(self, tmp_path):
        models = {CWE20: train_model(b"aa", 1), CWE119: train_model(b"ab", 2)}
        with pytest.raises(ConfigError):
            save_models(models, tmp_path / "x.cwnm")
