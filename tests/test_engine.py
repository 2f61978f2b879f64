import math
import os
from decimal import Decimal

import pytest

from codewave.classify import TrainingSet
from codewave.engine import (PipelineConfig, ScanWarning, StatsRow,
                             calibrate_threshold, check_recall,
                             parse_option_string, parse_option_tokens,
                             precision_pct, run_once, score_stats, sweep,
                             train_case)
from codewave.engine import _fork_map
from codewave.engine import test_case as classify_case
from codewave.errors import ConfigError
from codewave.index import IndexEntry, WeaknessClass
from codewave.index import TestCaseIndex as CaseIndex

CWE20 = WeaknessClass.cwe("CWE-20")
CWE79 = WeaknessClass.cwe("CWE-79")
CWE119 = WeaknessClass.cwe("CWE-119")


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
    ])
    def test_config_hash_pinned(self, text, digest):
        # saved models embed this hash; changing it orphans every model
        assert parse_option_string(text).config_hash == digest

    @pytest.mark.parametrize("text", [
        "-fft=0", "-fft=1", "-fft=64:33", "-fft=64:0", "-lpc=0", "-minmax=3",
        "-low=0", "-low=1.5", "-low=nan", "-sdwt=db4", "-sdwt=haar:0",
        "-mink=0.5", "-mink=nan", "-mink=inf", "-hamming=-1", "-diff=nan",
        "-threshold=-1", "-threshold=nan", "-char -add-delta=0",
        "-raw=1", "-threshold",
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

    def test_jobs_do_not_change_output(self, tiny_corpus):
        root, index = tiny_corpus
        model = train_case(index, SIGNAL_CFG, root)
        serial = classify_case(index.with_mode("test"), model, SIGNAL_CFG, root)
        parallel = classify_case(index.with_mode("test"), model, SIGNAL_CFG, root,
                             jobs=4)
        assert serial == parallel

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
                       second_guess=second, config="-nopreprep -raw -fft -cheb")


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
SMALL_GRID += [PipelineConfig(class_kind="cwe", pipeline="nlp", smoothing=s)
               for s in ("mle", "witten_bell")]


class TestJobsInvariance:
    @pytest.mark.parametrize("jobs", [2, 4])
    def test_run_once_matches_serial(self, tiny_corpus, jobs):
        root, index = tiny_corpus
        train, test = overlapping_indexes(index)
        for cfg in (SIGNAL_CFG, SMALL_GRID[-1]):
            assert (repr(run_once(train, test, cfg, root, jobs=jobs))
                    == repr(run_once(train, test, cfg, root, jobs=1)))

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

    def test_failed_shared_pass_fails_its_group(self, tiny_corpus):
        root, index = tiny_corpus
        train, test = overlapping_indexes(index)
        grid = [PipelineConfig(class_kind="cve", metric=m)
                for m in ("cheb", "eucl")] + [SIGNAL_CFG]
        entries = sweep(train, test, grid, root)
        assert [e.error is None for e in entries] == [True, False, False]
        assert entries[1].error == entries[2].error
        assert "no cve classes" in entries[1].error


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
