import dataclasses
import math
import os
import warnings
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from codewave import engine
from codewave.classify import METRICS, TrainingSet
from codewave.engine import (PipelineConfig, RunStats, ScanWarning, StatsRow,
                             SweepEntry, calibrate_threshold, check_recall,
                             merge_sweep_stats, parse_option_string,
                             parse_option_tokens, precision_pct, run_once,
                             score_stats, sweep, train_case)
from codewave.engine import _fork_map
from codewave.engine import test_case as classify_case
from codewave.errors import ConfigError
from codewave.index import IndexEntry, WeaknessClass
from codewave.index import TestCaseIndex as CaseIndex
from codewave.nlp import SMOOTHINGS
from codewave.preprocess import SCALING, ShortSignalWarning

from .oracles import reference_stats

CWE20 = WeaknessClass.cwe("CWE-20")
CWE79 = WeaknessClass.cwe("CWE-79")
CWE119 = WeaknessClass.cwe("CWE-119")


def valid_configs():
    """Every valid PipelineConfig that an option string can express: the
    fields of the other pipeline and of unchosen flags keep their defaults."""
    finite = dict(allow_nan=False, allow_infinity=False)

    def one_of(*choices):
        return st.one_of(*(st.fixed_dictionaries(c) for c in choices))

    fft = st.integers(2, 4096).flatmap(lambda window: st.fixed_dictionaries({
        "extractor": st.just("fft"), "fft_window": st.just(window),
        "fft_bins": st.integers(1, window // 2)}))
    signal = st.tuples(
        st.fixed_dictionaries({"pipeline": st.just("signal"),
                               "loader_ngram": st.sampled_from([1, 2, 3]),
                               "cluster_kind": st.sampled_from(["mean", "median"])}),
        one_of({"filter_kind": st.sampled_from(["raw", "norm"])},
               {"filter_kind": st.just("low"),
                "cutoff_fraction": st.floats(0, 1, exclude_min=True)},
               {"filter_kind": st.just("sdwt"),
                "wavelet_name": st.sampled_from(sorted(SCALING)),
                "sdwt_levels": st.integers(1, 8)}),
        st.one_of(fft, one_of({"extractor": st.just("lpc"),
                               "lpc_order": st.integers(1, 64)},
                              {"extractor": st.just("minmax"),
                               "minmax_d": st.sampled_from([2, 4])})),
        one_of({"metric": st.sampled_from(
                    [m for m in METRICS if m not in ("mink", "hamming", "diff")])},
               {"metric": st.just("mink"), "mink_p": st.floats(min_value=1, **finite)},
               {"metric": st.sampled_from(["hamming", "diff"]),
                "tolerance": st.floats(min_value=0, **finite)}))
    nlp = st.tuples(
        st.fixed_dictionaries({"pipeline": st.just("nlp"),
                               "nlp_n": st.sampled_from([1, 2, 3])}),
        one_of({"smoothing": st.sampled_from([k for k in SMOOTHINGS
                                              if k != "add_delta"])},
               {"smoothing": st.just("add_delta"),
                "delta": st.floats(min_value=0, exclude_min=True, **finite)}))
    common = st.fixed_dictionaries({
        "class_kind": st.sampled_from(["cve", "cwe"]),
        "threshold": st.one_of(st.just(math.inf),
                               st.floats(min_value=0, **finite)),
        **{flag: st.booleans() for flag in ("flucid", "spectrogram", "graph")}})
    return st.builds(lambda parts, extra: PipelineConfig(
        **{k: v for part in parts for k, v in part.items()}, **extra),
        st.one_of(signal, nlp), common)


class TestOptionStrings:
    def test_paper_signal_string(self):
        cfg = parse_option_string("-cweid -nopreprep -raw -fft -cheb")
        assert cfg.class_kind == "cwe"
        assert cfg.pipeline == "signal"
        assert cfg.filter_kind == "raw"
        assert cfg.extractor == "fft"
        assert cfg.metric == "cheb"
        assert cfg.option_string == "-cweid -nopreprep -raw -fft -cheb"

    def test_paper_nlp_string(self):
        cfg = parse_option_string("-nopreprep -char -unigram -add-delta")
        assert cfg.class_kind == "cve"
        assert cfg.pipeline == "nlp"
        assert cfg.nlp_n == 1
        assert cfg.smoothing == "add_delta"
        assert cfg.delta == 1.0
        assert cfg.option_string == "-nopreprep -char -unigram -add-delta"

    def test_conflicting_extractors(self):
        with pytest.raises(ConfigError, match="-fft and -lpc"):
            parse_option_string("-fft -lpc")

    def test_conflicting_metrics(self):
        with pytest.raises(ConfigError, match="metric"):
            parse_option_string("-cheb -eucl")

    def test_mixed_pipelines_rejected(self):
        with pytest.raises(ConfigError):
            parse_option_string("-char -fft")

    def test_unknown_flag(self):
        with pytest.raises(ConfigError, match="-turbo"):
            parse_option_string("-raw -turbo")

    def test_double_dash_synonyms(self):
        cfg = parse_option_tokens(["--cweid", "--raw", "--fft", "--cheb"])
        assert cfg.option_string == "-cweid -nopreprep -raw -fft -cheb"

    def test_parameterized_flags_roundtrip(self):
        for text in ("-nopreprep -low=0.5 -fft=256:64 -mink=4",
                     "-nopreprep -sdwt=db2:2 -lpc=12 -hamming=0.01",
                     "-cweid -nopreprep -char -trigram -add-delta=0.5",
                     "-nopreprep -raw -minmax=2 -diff -threshold=0.25",
                     "-nopreprep -unigram -norm -fft -cos -median",
                     "-nopreprep -raw -fft -cheb -flucid -spectrogram -graph"):
            cfg = parse_option_string(text)
            assert cfg.option_string == text
            again = parse_option_string(cfg.option_string)
            assert again == cfg  # parse . canonicalize . parse is a fixed point

    def test_defaults(self):
        cfg = parse_option_tokens([])
        assert cfg.pipeline == "signal"
        assert cfg.loader_ngram == 2
        assert math.isinf(cfg.threshold)

    def test_ngram_flag_is_loader_size_in_signal_mode(self):
        cfg = parse_option_string("-nopreprep -trigram -raw -fft -cheb")
        assert cfg.loader_ngram == 3
        assert cfg.nlp_n == 1

    def test_config_hash_distinguishes_model_settings(self):
        a = parse_option_string("-nopreprep -raw -fft -cheb")
        assert a.config_hash != parse_option_string("-nopreprep -raw -lpc -cheb").config_hash
        assert a.config_hash != parse_option_string("-nopreprep -low -fft -cheb").config_hash
        assert a.config_hash != parse_option_string("-nopreprep -unigram -raw -fft -cheb").config_hash
        assert a.config_hash == parse_option_string(a.option_string).config_hash

    def test_config_hash_ignores_test_time_choices(self):
        base = parse_option_string("-nopreprep -raw -fft -cheb")
        for text in ("-nopreprep -raw -fft -eucl",
                     "-nopreprep -raw -fft -cheb -threshold=0.5",
                     "-nopreprep -raw -fft -cheb -flucid"):
            assert parse_option_string(text).config_hash == base.config_hash

    @pytest.mark.parametrize("text, digest", [
        ("-cweid -nopreprep -raw -fft -cheb", "5416be5508e94be7"),
        ("-nopreprep -raw -fft -cheb", "8f80e654a8e1ef4e"),
        ("-nopreprep -low=0.5 -fft=256:64 -mink=4", "c820969a1d44a90b"),
        ("-nopreprep -sdwt=db2:2 -lpc=12 -hamming=0.01", "d709fe21c0c53abc"),
        ("-nopreprep -unigram -norm -minmax=2 -cos -median", "5c3d8145641c6508"),
        ("-cweid -nopreprep -char -trigram -add-delta=0.5", "716a55f6c07aaea5"),
        ("-cweid -nopreprep -char -unigram -mle", "aca0ad76458dbfaa"),
        ("-char", "f95a8cc0c3650397"),
        ("-char -trigram -mle", "c9d27b829bcc8f82"),
    ])
    def test_config_hash_pinned(self, text, digest):
        # saved models embed this hash; changing it orphans every model
        assert parse_option_string(text).config_hash == digest

    @pytest.mark.parametrize("text", [
        "-nopreprep -low=0.1234561 -fft -cheb",
        "-nopreprep -raw -fft -mink=3.0000001",
        "-nopreprep -raw -fft -hamming=1.0000001e-06",
        "-cweid -nopreprep -char -unigram -add-delta=0.12345678",
        "-nopreprep -raw -fft -cheb -threshold=0.30000000000000004",
    ])
    def test_parameters_past_six_digits_survive(self, text):
        cfg = parse_option_string(text)
        assert cfg.option_string == text
        assert parse_option_string(cfg.option_string) == cfg

    def test_config_hash_tells_close_cutoffs_apart(self):
        a = parse_option_string("-nopreprep -low=0.1234561 -fft -cheb")
        b = parse_option_string("-nopreprep -low=0.1234562 -fft -cheb")
        assert a.config_hash != b.config_hash

    @settings(deadline=None, max_examples=300)
    @given(cfg=valid_configs())
    def test_option_string_roundtrip(self, cfg):
        assert parse_option_string(cfg.option_string) == cfg

    @pytest.mark.parametrize("text", [
        "-fft=0", "-fft=1", "-fft=64:33", "-fft=64:0", "-lpc=0", "-minmax=3",
        "-low=0", "-low=1.5", "-low=nan", "-sdwt=db4", "-sdwt=haar:0",
        "-mink=0.5", "-mink=nan", "-mink=inf", "-hamming=-1", "-diff=nan",
        "-threshold=-1", "-threshold=nan", "-char -add-delta=0",
        "-raw=1", "-threshold", "-threshold=1 -threshold=2",
    ])
    def test_bad_parameters_rejected(self, text):
        with pytest.raises(ConfigError):
            parse_option_string(text)


@pytest.fixture
def tiny_corpus(tmp_path):
    """Three well-separated classes, three files each."""
    index_entries = []
    textures = {0: bytes([40, 42, 44, 46] * 64), 1: bytes([120, 160] * 128),
                2: bytes([240, 10, 240, 30] * 64)}
    classes = [CWE20, CWE79, CWE119]
    for class_idx, wc in enumerate(classes):
        for file_idx in range(3):
            rel = f"c{class_idx}_{file_idx}.bin"
            body = bytearray(textures[class_idx])
            body[file_idx] = (body[file_idx] + 1) % 256
            (tmp_path / rel).write_bytes(bytes(body))
            index_entries.append(IndexEntry(rel, [(wc, [])]))
    index = CaseIndex("tiny", "1.0", index_entries, mode="train")
    return tmp_path, index


SIGNAL_CFG = PipelineConfig(class_kind="cwe", fft_window=64, fft_bins=32)
NLP_CFG = PipelineConfig(class_kind="cwe", pipeline="nlp")


# the corpus fixture is only read, so every drawn config may share it
@settings(deadline=None, max_examples=30,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cfg=valid_configs())
def test_every_drawn_config_runs_end_to_end(tiny_corpus, cfg):
    root, index = tiny_corpus
    cfg = dataclasses.replace(cfg, class_kind="cwe")  # the corpus's classes
    with warnings.catch_warnings():
        # a wavelet with more levels than a 256-byte file has samples for
        # leaves the signal as it is, and says so
        warnings.simplefilter("ignore", ShortSignalWarning)
        found, _, _ = run_once(index, index.with_mode("test"), cfg, root)
    assert {w.path for w in found} <= {e.path for e in index.entries}
    assert all(w.weakness.kind == "cwe" for w in found)


class TestTrainCase:
    def test_one_model_per_class(self, tiny_corpus):
        root, index = tiny_corpus
        model = train_case(index, SIGNAL_CFG, root)
        assert isinstance(model, TrainingSet)
        assert set(model.classes) == {CWE20, CWE79, CWE119}

    def test_multiclass_file_contributes_to_all(self, tmp_path):
        (tmp_path / "x.bin").write_bytes(bytes(range(64)))
        index = CaseIndex("c", "1", [
            IndexEntry("x.bin", [(CWE20, []), (CWE119, [])])], mode="train")
        cfg = PipelineConfig(class_kind="cwe", fft_window=32, fft_bins=16)
        model = train_case(index, cfg, tmp_path)
        assert (model.classes[CWE20].centroid.tolist()
                == model.classes[CWE119].centroid.tolist())

    def test_requires_train_mode(self, tiny_corpus):
        root, index = tiny_corpus
        with pytest.raises(ConfigError):
            train_case(index.with_mode("test"), SIGNAL_CFG, root)

    def test_wrong_class_kind_is_empty(self, tiny_corpus):
        root, index = tiny_corpus
        with pytest.raises(ConfigError, match="no cve classes"):
            train_case(index, PipelineConfig(class_kind="cve"), root)

    def test_nlp_models(self, tiny_corpus):
        root, index = tiny_corpus
        cfg = PipelineConfig(class_kind="cwe", pipeline="nlp")
        models = train_case(index, cfg, root)
        assert set(models) == {CWE20, CWE79, CWE119}
        assert all(m.n == 1 for m in models.values())


class TestTestCase:
    def test_self_recognition(self, tiny_corpus):
        root, index = tiny_corpus
        model = train_case(index, SIGNAL_CFG, root)
        warnings = classify_case(index.with_mode("test"), model, SIGNAL_CFG, root)
        assert len(warnings) == len(index.entries)
        for warning, entry in zip(warnings, index.entries):
            assert warning.path == entry.path
            assert warning.weakness in entry.class_set()
            assert warning.rank == 1

    def test_nlp_self_recognition(self, tiny_corpus):
        root, index = tiny_corpus
        cfg = PipelineConfig(class_kind="cwe", pipeline="nlp")
        models = train_case(index, cfg, root)
        warnings = classify_case(index.with_mode("test"), models, cfg, root)
        for warning, entry in zip(warnings, index.entries):
            assert warning.weakness in entry.class_set()

    def test_zero_threshold_rejects_unseen(self, tiny_corpus):
        root, index = tiny_corpus
        model = train_case(index, SIGNAL_CFG, root)
        (root / "fresh.bin").write_bytes(bytes([7, 93, 201] * 100))
        probe = CaseIndex("tiny", "1.0", [IndexEntry("fresh.bin", [])])
        cfg_strict = PipelineConfig(class_kind="cwe", fft_window=64,
                                    fft_bins=32, threshold=0.0)
        # threshold is a test-time knob: the trained model stays compatible
        assert classify_case(probe, model, cfg_strict, root) == []

    def test_incompatible_extractor_rejected(self, tiny_corpus):
        root, index = tiny_corpus
        model = train_case(index, SIGNAL_CFG, root)
        other = PipelineConfig(class_kind="cwe", extractor="lpc", lpc_order=32)
        with pytest.raises(ConfigError, match="different configuration"):
            classify_case(index.with_mode("test"), model, other, root)

    # (the flags a model was trained under, the flags it is then used with)
    MISFITS = {
        "unigram model, bigram flags": (NLP_CFG, dataclasses.replace(NLP_CFG, nlp_n=2)),
        "cwe model, cve flags": (NLP_CFG, dataclasses.replace(NLP_CFG, class_kind="cve")),
        "median model, mean flags": (
            dataclasses.replace(SIGNAL_CFG, cluster_kind="median"), SIGNAL_CFG),
        "mean model, median flags": (
            SIGNAL_CFG, dataclasses.replace(SIGNAL_CFG, cluster_kind="median")),
    }

    @pytest.mark.parametrize("trained_under, flags", list(MISFITS.values()),
                             ids=list(MISFITS))
    def test_model_that_does_not_fit_the_flags_is_refused(
            self, tiny_corpus, monkeypatch, trained_under, flags):
        root, index = tiny_corpus
        model = train_case(index, trained_under, root)
        read = []
        monkeypatch.setattr(Path, "read_bytes", lambda self: read.append(self))
        with pytest.raises(ConfigError, match="retrain or adjust the flags"):
            classify_case(index.with_mode("test"), model, flags, root)
        assert read == []

    def test_ngram_models_of_mixed_n_fit_no_flags(self, tiny_corpus):
        root, index = tiny_corpus
        models = train_case(index, NLP_CFG, root)
        assert engine.trained_hash(models) == NLP_CFG.config_hash
        models[CWE20] = train_case(
            index, dataclasses.replace(NLP_CFG, nlp_n=2), root)[CWE20]
        assert engine.trained_hash(models) is None
        with pytest.raises(ConfigError, match="different configuration"):
            classify_case(index.with_mode("test"), models, NLP_CFG, root)

    def test_single_class_names_it(self, tmp_path):
        (tmp_path / "a.bin").write_bytes(bytes([10] * 64))
        (tmp_path / "b.bin").write_bytes(bytes([200] * 64))
        index = CaseIndex("c", "1", [IndexEntry("a.bin", [(CWE20, [])])],
                          mode="train")
        cfg = PipelineConfig(class_kind="cwe", fft_window=32, fft_bins=16)
        model = train_case(index, cfg, tmp_path)
        probe = CaseIndex("c", "1", [IndexEntry("b.bin", [])])
        warnings = classify_case(probe, model, cfg, tmp_path)
        assert [w.weakness for w in warnings] == [CWE20]
        assert warnings[0].second_guess is None

    def test_jobs_do_not_change_output(self, tiny_corpus, monkeypatch, forks):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setattr(engine, "FORK_BYTES", 0)
        root, index = tiny_corpus
        model = train_case(index, SIGNAL_CFG, root)
        serial = classify_case(index.with_mode("test"), model, SIGNAL_CFG, root)
        parallel = classify_case(index.with_mode("test"), model, SIGNAL_CFG, root,
                             jobs=4)
        assert serial == parallel
        assert forks

    def test_calibrated_threshold_keeps_training_files(self, tiny_corpus):
        root, index = tiny_corpus
        model = train_case(index, SIGNAL_CFG, root)
        cut = calibrate_threshold(index, model, SIGNAL_CFG, root)
        assert cut > 0.0
        cfg = PipelineConfig(class_kind="cwe", fft_window=64, fft_bins=32,
                             threshold=cut)
        model2 = train_case(index, cfg, root)
        warnings = classify_case(index.with_mode("test"), model2, cfg, root)
        assert len(warnings) == len(index.entries)


def warning(path, wc, second=None, score=0.1):
    return ScanWarning(path=path, weakness=wc, score=score, rank=1,
                       second_guess=second)


class TestScoreStats:
    CFG = PipelineConfig(class_kind="cwe")

    def truth(self):
        return CaseIndex("t", "1", [
            IndexEntry("a.c", [(CWE20, [])]),
            IndexEntry("b.c", [(CWE79, [])]),
            IndexEntry("c.c", [(CWE119, [])]),
        ])

    def test_first_and_second_guess_accounting(self):
        warnings = [
            warning("a.c", CWE20, second=CWE79),    # top-1 right
            warning("b.c", CWE20, second=CWE79),    # top-1 wrong, top-2 right
            warning("c.c", CWE20, second=CWE79),    # both wrong
        ]
        first, second = score_stats(warnings, self.truth(), self.CFG)
        assert (first.per_config[0].good, first.per_config[0].bad) == (1, 2)
        assert (second.per_config[0].good, second.per_config[0].bad) == (2, 1)

    def test_first_guess_hit_counts_in_both(self):
        warnings = [warning("a.c", CWE20, second=CWE119)]
        first, second = score_stats(warnings, self.truth(), self.CFG)
        assert first.per_config[0].good == 1
        assert second.per_config[0].good == 1

    def test_multiclass_any_match_is_good(self):
        truth = CaseIndex("t", "1", [
            IndexEntry("a.c", [(CWE20, []), (CWE119, [])])])
        first, _ = score_stats([warning("a.c", CWE119)], truth, self.CFG)
        assert first.per_config[0].good == 1

    def test_unknown_path_excluded_and_diagnosed(self):
        warnings = [warning("a.c", CWE20), warning("ghost.c", CWE20)]
        first, _ = score_stats(warnings, self.truth(), self.CFG)
        assert first.per_config[0].good + first.per_config[0].bad == 1
        assert any("ghost" in d or "missing" in d for d in first.diagnostics)

    def test_absent_and_unlabeled_paths_are_diagnosed_apart(self):
        truth = self.truth()
        truth.entries += [IndexEntry("d.c"),  # in the index, with no class
                          IndexEntry("e.c", [(WeaknessClass.cve("CVE-2009-2562"), [])])]
        warnings = [warning("a.c", CWE20), warning("ghost.c", CWE20),
                    warning("d.c", CWE20), warning("e.c", CWE20)]
        for stats in score_stats(warnings, truth, self.CFG):
            assert stats.diagnostics[:2] == [
                "1 warning(s) excluded: path missing from ground truth",
                "2 warning(s) excluded: path has no cwe class in ground truth"]

    def test_never_predicted_class_scores_zero(self):
        warnings = [warning("a.c", CWE20), warning("b.c", CWE20),
                    warning("c.c", CWE20)]
        first, _ = score_stats(warnings, self.truth(), self.CFG)
        by_key = {row.key: row for row in first.per_class}
        assert by_key["CWE-119"].good == 0
        assert by_key["CWE-119"].bad == 0
        assert by_key["CWE-119"].pct == Decimal("0.00")

    def test_recall_diagnostic_fires_when_short(self):
        warnings = [warning("a.c", CWE20)]  # 2 files never reported
        first, _ = score_stats(warnings, self.truth(), self.CFG)
        assert any("recall" in d for d in first.diagnostics)

    def test_clean_run_has_no_diagnostics(self):
        warnings = [warning("a.c", CWE20), warning("b.c", CWE79),
                    warning("c.c", CWE119)]
        first, second = score_stats(warnings, self.truth(), self.CFG)
        assert first.diagnostics == []
        assert second.diagnostics == []

    def test_second_good_at_least_first_good(self):
        warnings = [warning("a.c", CWE79, second=CWE20),
                    warning("b.c", CWE79), warning("c.c", CWE20, second=CWE119)]
        first, second = score_stats(warnings, self.truth(), self.CFG)
        assert second.per_config[0].good >= first.per_config[0].good

    def test_per_class_tallies_sum_to_per_config(self):
        warnings = [warning("a.c", CWE79, second=CWE20),
                    warning("b.c", CWE79), warning("c.c", CWE20, second=CWE119)]
        for stats in score_stats(warnings, self.truth(), self.CFG):
            assert sum(r.good for r in stats.per_class) == stats.per_config[0].good
            assert sum(r.bad for r in stats.per_class) == stats.per_config[0].bad

    def test_thresholded_run_is_not_held_to_recall(self):
        warnings = [warning("a.c", CWE20), warning("ghost.c", CWE20)]
        thresholded = PipelineConfig(class_kind="cwe", threshold=0.5)
        for stats in score_stats(warnings, self.truth(), thresholded):
            assert not any("recall" in d for d in stats.diagnostics)
            assert any("excluded" in d for d in stats.diagnostics)


STATS_PATHS = ["a.c", "b.c", "c.c"]
STATS_CLASSES = [CWE20, CWE79, CWE119, WeaknessClass.cwe("CWE-787"),
                 WeaknessClass.cve("CVE-2009-2562"), WeaknessClass.cve("CVE-2010-0001")]


@st.composite
def stats_cases(draw):
    """A truth index over STATS_PATHS, warnings that also name a path missing
    from it, and a config of either class kind, with or without a threshold.
    Classes come from both kinds, and some never appear in the truth."""
    classes = st.sampled_from(STATS_CLASSES)
    truth = CaseIndex("t", "1", [
        IndexEntry(path, [(wc, []) for wc in draw(st.lists(classes, unique=True,
                                                           max_size=3))])
        for path in STATS_PATHS])
    warnings = draw(st.lists(st.builds(
        warning, st.sampled_from(STATS_PATHS + ["ghost.c"]), classes,
        second=st.none() | classes), max_size=12))
    cfg = PipelineConfig(class_kind=draw(st.sampled_from(["cwe", "cve"])),
                         threshold=draw(st.sampled_from([math.inf, 0.5])))
    return warnings, truth, cfg


@settings(deadline=None, max_examples=300)
@given(stats_cases())
@example((  # both guesses true: the second guess credits the top class
    [warning("a.c", CWE20, second=CWE79)],
    CaseIndex("t", "1", [IndexEntry("a.c", [(CWE20, []), (CWE79, [])])]),
    PipelineConfig(class_kind="cwe")))
def test_score_stats_matches_a_per_warning_tally(case):
    warnings, truth, cfg = case
    true_paths = {e.path for e in truth.entries
                  if any(wc.kind == cfg.class_kind for wc, _ in e.classes)}
    evaluated = sum(w.path in true_paths for w in warnings)
    for stats, guess in zip(score_stats(warnings, truth, cfg), ("first", "second")):
        reference = reference_stats(warnings, truth, cfg.class_kind, guess)
        assert stats.guess == guess
        assert [(r.key, r.good, r.bad) for r in stats.per_class] == \
            sorted((key, good, bad) for key, (good, bad) in reference.items())
        [row] = stats.per_config
        assert (row.key, row.good, row.bad) == (
            cfg.option_string, sum(r.good for r in stats.per_class),
            sum(r.bad for r in stats.per_class))
        assert row.good + row.bad == evaluated
        assert any("excluded" in d for d in stats.diagnostics) == \
            (evaluated < len(warnings))
        assert any("recall" in d for d in stats.diagnostics) == \
            (math.isinf(cfg.threshold) and evaluated < len(true_paths))


class TestPrecisionFormatting:
    def test_paper_value(self):
        assert precision_pct(37, 4) == Decimal("90.24")

    def test_half_up(self):
        assert precision_pct(1, 7) == Decimal("12.50")
        assert precision_pct(1, 799) == Decimal("0.13")  # 0.125 rounds up

    def test_empty_is_zero(self):
        assert precision_pct(0, 0) == Decimal("0.00")

    def test_row_pct(self):
        assert StatsRow("x", 26, 10).pct == Decimal("72.22")


class TestCheckRecall:
    def test_short_total_triggers(self):
        assert check_recall([StatsRow("cfg", 2, 0)], 9)

    def test_exact_total_clean(self):
        assert check_recall([StatsRow("cfg", 5, 4)], 9) == []


class TestGridConstruction:
    def test_cartesian_grid_size_and_distinct_options(self):
        grid = [
            PipelineConfig(loader_ngram=ngram, filter_kind=prep,
                           extractor=extractor, metric=metric)
            for ngram in (1, 2, 3)
            for prep in ("raw", "norm", "low", "sdwt")
            for extractor in ("fft", "lpc", "minmax")
            for metric in ("eucl", "cheb", "mink", "cos", "hamming", "diff")
        ]
        assert len(grid) == 3 * 4 * 3 * 6 == 216
        options = {cfg.option_string for cfg in grid}
        assert len(options) == 216  # canonical strings are one-to-one
        for cfg in grid:
            assert parse_option_string(cfg.option_string) == cfg


def overlapping_indexes(index):
    """Train on the first six files, test on the last six: three shared."""
    train = CaseIndex("tiny", "1.0", index.entries[:6], mode="train")
    test = CaseIndex("tiny", "1.0", index.entries[3:], mode="test")
    return train, test


def sweep_rows(entries):
    return [(e.option_string, e.error,
             [(r.key, r.good, r.bad) for s in (e.first, e.second) if s
              for r in s.per_config + s.per_class])
            for e in entries]


SMALL_GRID = [PipelineConfig(class_kind="cwe", fft_window=64, fft_bins=32,
                             metric=m, cluster_kind=k)
              for m in ("cheb", "cos", "diff") for k in ("mean", "median")]
# two more signal passes, so SMALL_GRID holds four config_hash groups and a
# sweep over it forks at two jobs (at least two groups a process)
OTHER_SIGNAL_CFGS = [PipelineConfig(class_kind="cwe", fft_window=64, fft_bins=32,
                                    filter_kind=f, extractor=x)
                     for f, x in (("norm", "fft"), ("raw", "minmax"))]
SMALL_GRID += OTHER_SIGNAL_CFGS
SMALL_GRID += [PipelineConfig(class_kind="cwe", pipeline="nlp", smoothing=s)
               for s in ("mle", "witten_bell")]


class TestJobsInvariance:
    @pytest.mark.parametrize("jobs", [2, 4])
    def test_run_once_matches_serial(self, tiny_corpus, monkeypatch, forks, jobs):
        monkeypatch.setattr(os, "cpu_count", lambda: jobs)
        monkeypatch.setattr(engine, "FORK_BYTES", 0)
        root, index = tiny_corpus
        train, test = overlapping_indexes(index)
        for cfg in (SIGNAL_CFG, SMALL_GRID[-1]):
            forks.clear()
            assert (repr(run_once(train, test, cfg, root, jobs=jobs))
                    == repr(run_once(train, test, cfg, root, jobs=1)))
            assert forks

    @pytest.mark.parametrize("jobs", [2, 4])
    def test_sweep_matches_serial(self, tiny_corpus, jobs):
        root, index = tiny_corpus
        train, test = overlapping_indexes(index)
        assert (sweep_rows(sweep(train, test, SMALL_GRID, root, jobs=jobs))
                == sweep_rows(sweep(train, test, SMALL_GRID, root, jobs=1)))

    def test_sweep_rows_match_separate_runs(self, tiny_corpus):
        root, index = tiny_corpus
        train, test = overlapping_indexes(index)
        by_option = {e.option_string: e
                     for e in sweep(train, test, SMALL_GRID, root, jobs=2)}
        for cfg in SMALL_GRID:
            _, first, second = run_once(train, test, cfg, root)
            entry = by_option[cfg.option_string]
            assert repr((entry.first, entry.second)) == repr((first, second))

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failed_shared_pass_fails_its_group(self, tiny_corpus, monkeypatch,
                                                jobs):
        """At two jobs the failing group, the last of four, runs in the
        forked child, so its error string crosses the fork."""
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        root, index = tiny_corpus
        train, test = overlapping_indexes(index)
        grid = [SIGNAL_CFG] + OTHER_SIGNAL_CFGS + [
            PipelineConfig(class_kind="cve", metric=m) for m in ("cheb", "eucl")]
        entries = sweep(train, test, grid, root, jobs=jobs)
        assert [e.error is None for e in entries] == [True] * 3 + [False] * 2
        assert entries[3].error == entries[4].error
        assert entries[3].error == "no cve classes found in the training index"

    def test_one_fork_join_per_sweep(self, tiny_corpus, monkeypatch, forks):
        """The jobs split the configuration groups, not the files of each
        group's pass: one _fork_map call forks, and only once."""
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        root, index = tiny_corpus
        train, test = overlapping_indexes(index)
        calls = []

        def fork_map(fn, items, jobs):
            calls.append((len(items), jobs))
            return _fork_map(fn, items, jobs)
        monkeypatch.setattr(engine, "_fork_map", fork_map)
        entries = sweep(train, test, SMALL_GRID, root, jobs=2)
        assert len(entries) == len(SMALL_GRID)
        assert [call for call in calls if call[1] != 1] == [(4, 2)]
        assert len(forks) == 1

    @pytest.mark.parametrize("cfg", SMALL_GRID[-2:], ids=lambda c: c.smoothing)
    def test_nlp_tables_built_before_the_fork(self, tiny_corpus, monkeypatch,
                                              forks, cfg):
        """Forked children inherit the log-prob tables instead of each
        building them again; the report is the serial one."""
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(engine, "FORK_BYTES", 0)
        root, index = tiny_corpus
        train, test = overlapping_indexes(index)
        serial = classify_case(test, train_case(train, cfg, root), cfg, root, jobs=1)
        models = train_case(train, cfg, root)
        built = []

        def fork_map(fn, items, jobs):
            built.append(all(cfg.smoothing_spec() in model._tables
                             for model in models.values()))
            return _fork_map(fn, items, jobs)
        monkeypatch.setattr(engine, "_fork_map", fork_map)
        assert repr(classify_case(test, models, cfg, root, jobs=2)) == repr(serial)
        assert built == [True]
        assert forks


class TestForkBytes:
    """A train or test pass forks only when each process gets at least
    FORK_BYTES of input, whatever its file count."""

    @pytest.fixture(autouse=True)
    def two_cores(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)

    @staticmethod
    def corpus(root, sizes):
        """A train index of files of the given sizes in two classes."""
        rng = np.random.default_rng(3)
        paths = [f"f{i:04d}.bin" for i in range(len(sizes))]
        for path, size in zip(paths, sizes):
            (root / path).write_bytes(rng.integers(0, 256, size, np.uint8).tobytes())
        return CaseIndex("bytes", "1", mode="train", entries=[
            IndexEntry(path, [((CWE20, CWE79)[i % 2], [])])
            for i, path in enumerate(paths)])

    @staticmethod
    def stats(monkeypatch):
        """Record every os.stat call from here on."""
        calls = []

        def stat(path, *args, real_stat=os.stat, **kwargs):
            calls.append(path)
            return real_stat(path, *args, **kwargs)
        monkeypatch.setattr(os, "stat", stat)
        return calls

    def test_forty_small_files_run_in_process(self, tmp_path, forks):
        index = self.corpus(tmp_path, [4096] * 40)
        paths = [entry.path for entry in index.entries]
        rows = [engine._feature_rows(SIGNAL_CFG, tmp_path, paths, jobs)
                for jobs in (1, 2)]
        assert forks == []
        assert [r.tobytes() for r in rows[0].values()] == \
            [r.tobytes() for r in rows[1].values()]
        model = train_case(index, SIGNAL_CFG, tmp_path, jobs=2)
        test = index.with_mode("test")
        assert classify_case(test, model, SIGNAL_CFG, tmp_path, jobs=2) == \
            classify_case(test, model, SIGNAL_CFG, tmp_path, jobs=1)
        assert forks == []

    @pytest.mark.parametrize("last, want", [(0, 1), (-1, 0)],
                             ids=["two processes' worth", "one byte short"])
    def test_fork_needs_two_processes_worth_of_input(self, tmp_path, forks, last,
                                                     want):
        index = self.corpus(tmp_path, [engine.FORK_BYTES, engine.FORK_BYTES + last])
        paths = [entry.path for entry in index.entries]
        serial = engine._feature_rows(SIGNAL_CFG, tmp_path, paths, 1)
        assert forks == []
        forked = engine._feature_rows(SIGNAL_CFG, tmp_path, paths, 2)
        assert len(forks) == want
        assert [r.tobytes() for r in serial.values()] == \
            [r.tobytes() for r in forked.values()]

    def test_one_job_stats_no_file(self, tmp_path, monkeypatch, forks):
        index = self.corpus(tmp_path, [4096] * 40)
        calls = self.stats(monkeypatch)
        model = train_case(index, SIGNAL_CFG, tmp_path, jobs=1)
        classify_case(index.with_mode("test"), model, SIGNAL_CFG, tmp_path, jobs=1)
        assert calls == [] and forks == []

    def test_stats_stop_once_both_processes_are_earned(self, tmp_path,
                                                       monkeypatch, forks):
        index = self.corpus(tmp_path, [4096] * 1000)
        paths = [entry.path for entry in index.entries]
        calls = self.stats(monkeypatch)
        engine._feature_rows(SIGNAL_CFG, tmp_path, paths, 2)
        assert len(calls) == 2 * engine.FORK_BYTES // 4096
        assert len(forks) == 1

    @pytest.mark.parametrize("fork_bytes", [None, 0], ids=["below", "above"])
    @pytest.mark.parametrize("missing", [0, -1], ids=["first", "last"])
    def test_missing_file_fails_alike_at_any_jobs(self, tmp_path, monkeypatch,
                                                  forks, fork_bytes, missing):
        if fork_bytes is not None:
            monkeypatch.setattr(engine, "FORK_BYTES", fork_bytes)
        index = self.corpus(tmp_path, [4096] * 40)
        model = train_case(index, SIGNAL_CFG, tmp_path, jobs=1)
        (tmp_path / index.entries[missing].path).unlink()
        for run in (lambda jobs: train_case(index, SIGNAL_CFG, tmp_path, jobs),
                    lambda jobs: classify_case(index.with_mode("test"), model,
                                               SIGNAL_CFG, tmp_path, jobs)):
            failures = []
            for jobs in (1, 2):
                with pytest.raises(OSError) as caught:
                    run(jobs)
                failures.append((type(caught.value), str(caught.value)))
            assert failures[0] == failures[1]
            assert failures[0][0] is FileNotFoundError
        # only a forced fork reaches the missing last file from a child
        assert bool(forks) == (fork_bytes == 0)


class TestBlocks:
    """A block is a run of consecutive files of one length holding at most
    BLOCK_BYTES of input; each block is preprocessed as one 2-D array."""

    @pytest.mark.parametrize("sizes, blocks", [
        ([4096] * 8, [4, 4]),
        ([100, 200, 100, 200], [1, 1, 1, 1]),
        ([4096, 4096, engine.BLOCK_BYTES + 1, 4096, 4096], [2, 1, 2]),
    ], ids=["4 KB files", "alternating lengths", "large file between"])
    def test_rows_per_block(self, tmp_path, monkeypatch, sizes, blocks):
        rng = np.random.default_rng(9)
        paths = [f"f{i}.bin" for i in range(len(sizes))]
        for path, size in zip(paths, sizes):
            (tmp_path / path).write_bytes(rng.integers(0, 256, size, np.uint8).tobytes())
        seen = []

        def preprocess_rows(rows, spec, real=engine.preprocess_rows):
            seen.append(len(rows))
            return real(rows, spec)
        monkeypatch.setattr(engine, "preprocess_rows", preprocess_rows)
        engine._features(SIGNAL_CFG, tmp_path, paths)
        assert seen == blocks


class TestForkMap:
    """Failures in a forked chunk reach the caller; two jobs always fork."""

    @pytest.fixture(autouse=True)
    def two_cores(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)

    def test_chunks_come_back_in_order(self):
        assert _fork_map(lambda chunk: [x * x for x in chunk],
                         list(range(7)), jobs=2) == [[0, 1, 4, 9], [16, 25, 36]]

    def test_child_exception_is_raised(self):
        def fail_second_chunk(chunk):
            if chunk[0] >= 2:
                raise ValueError(f"bad chunk {chunk}")
            return chunk
        with pytest.raises(ValueError, match=r"bad chunk \[2, 3\]"):
            _fork_map(fail_second_chunk, [0, 1, 2, 3], jobs=2)

    def test_unpicklable_child_exception_keeps_its_message(self):
        class LocalError(Exception):
            pass

        def fail_second_chunk(chunk):
            if chunk[0] >= 2:
                raise LocalError("cannot cross a pipe")
            return chunk
        with pytest.raises(RuntimeError, match="cannot cross a pipe"):
            _fork_map(fail_second_chunk, [0, 1, 2, 3], jobs=2)

    def test_child_dying_without_result(self):
        caller = os.getpid()

        def die_in_child(chunk):
            if os.getpid() != caller:
                os._exit(1)
            return chunk
        with pytest.raises(RuntimeError, match="died without a result"):
            _fork_map(die_in_child, [0, 1, 2, 3], jobs=2)

    def test_cpu_affinity_left_as_it_was(self):
        """Children move off the caller's CPU, but nobody stays pinned."""
        if not hasattr(os, "sched_getaffinity"):
            return
        allowed = os.sched_getaffinity(0)
        masks = _fork_map(lambda chunk: os.sched_getaffinity(0),
                          [0, 1, 2, 3], jobs=2)
        assert masks == [allowed, allowed]
        assert os.sched_getaffinity(0) == allowed

    def test_child_k_moves_k_cpus_past_the_caller(self, monkeypatch):
        calls = []
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5, 7},
                            raising=False)
        monkeypatch.setattr(os, "sched_setaffinity",
                            lambda pid, mask: calls.append(set(mask)),
                            raising=False)
        engine._leave_cpu(5, 1)
        engine._leave_cpu(5, 2)
        engine._leave_cpu(None, 1)  # caller's CPU unknown: stay put
        engine._leave_cpu(3, 1)     # caller outside the mask: stay put
        assert calls == [{7}, {0, 2, 5, 7}, {0}, {0, 2, 5, 7}]

    def test_current_cpu_is_one_the_process_may_use(self):
        cpu = engine._current_cpu()
        if hasattr(os, "sched_getaffinity") and os.path.exists("/proc/self/stat"):
            assert cpu in os.sched_getaffinity(0)
        else:
            assert cpu is None


class TestSweep:
    def test_grid_runs_and_ranks(self, tiny_corpus):
        root, index = tiny_corpus
        grid = [
            PipelineConfig(class_kind="cwe", fft_window=64, fft_bins=32,
                           metric=m) for m in ("cheb", "eucl", "cos")
        ]
        entries = sweep(index, index.with_mode("test"), grid, root)
        assert len(entries) == 3
        pcts = [e.first_pct for e in entries]
        assert pcts == sorted(pcts, reverse=True)
        assert all(e.elapsed >= 0 for e in entries)

    def test_duplicate_configs_identical_rows(self, tiny_corpus):
        root, index = tiny_corpus
        cfg = PipelineConfig(class_kind="cwe", fft_window=64, fft_bins=32)
        entries = sweep(index, index.with_mode("test"), [cfg, cfg], root)
        rows = [e.first.per_config[0] for e in entries]
        assert (rows[0].good, rows[0].bad) == (rows[1].good, rows[1].bad)

    def test_failed_config_recorded(self, tiny_corpus):
        root, index = tiny_corpus
        good = PipelineConfig(class_kind="cwe", fft_window=64, fft_bins=32)
        bad = PipelineConfig(class_kind="cve")  # no CVE labels in corpus
        entries = sweep(index, index.with_mode("test"), [bad, good], root)
        assert entries[0].error is None
        assert entries[1].error is not None

    def test_merged_stats_keep_entry_order_and_each_diagnostic_once(self):
        def entry(option_string, good, error=None):
            cfg = parse_option_string(option_string)
            stats = [RunStats(guess, [StatsRow(option_string, good, 2 - good)],
                              diagnostics=["1 warning(s) excluded: path missing"])
                     for guess in ("first", "second")]
            return SweepEntry(cfg, *(stats if error is None else (None, None)), 0.0, error)

        merged = merge_sweep_stats([entry("-raw -fft -eucl", 1), entry("-raw -fft -cheb", 2),
                                    entry("-raw -fft -cos", 0, error="boom")])
        for stats in merged:
            assert [r.key for r in stats.per_config] == ["-raw -fft -eucl", "-raw -fft -cheb"]
            assert stats.diagnostics == ["1 warning(s) excluded: path missing"]

    def test_run_once_end_to_end(self, tiny_corpus):
        root, index = tiny_corpus
        warnings, first, second = run_once(index, index.with_mode("test"),
                                           SIGNAL_CFG, root)
        assert first.per_config[0].good == len(warnings)
        assert first.per_config[0].bad == 0

    def test_repeated_runs_export_identical_bytes(self, tiny_corpus):
        from codewave.report import CaseMeta, export_sate_xml
        root, index = tiny_corpus
        meta = CaseMeta("tiny", "1.0", SIGNAL_CFG.option_string)
        docs = []
        for _ in range(2):
            warnings, _, _ = run_once(index, index.with_mode("test"),
                                      SIGNAL_CFG, root)
            docs.append(export_sate_xml(warnings, meta).encode("utf-8"))
        assert docs[0] == docs[1]
