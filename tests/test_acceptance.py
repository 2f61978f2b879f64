"""Acceptance suite: every criterion as one test, at its stated tolerance.

The conftest hook prints a PASS/FAIL line per criterion after the run.
Corpora are synthetic (the real CVE-annotated trees are external data), so
the suite checks behavioral properties and oracle equivalences rather than
published precision figures.
"""

import math
import re
import subprocess
import sys
import threading
import time
from decimal import Decimal

import numpy as np
import pytest

from codewave import dnet, report
from codewave.classify import distance, training_set_bytes
from codewave.cli import main as cli_main
from codewave.engine import (StatsRow, calibrate_threshold, check_recall,
                             parse_option_string, precision_pct, run_once,
                             score_stats, train_case)
from codewave.engine import test_case as classify_case
from codewave.features import autocorrelation, levinson_durbin
from codewave.index import IndexEntry, WeaknessClass, halve_training, write_index
from codewave.index import TestCaseIndex as CaseIndex
from codewave.nlp import SmoothingSpec, probability, train_model
from codewave.preprocess import dwt_level, sdwt, upfirdn, wavelet

from .corpusgen import build_corpus, random_content_copy
from .oracles import (brute_sdwt, brute_upfirdn, naive_dft, toeplitz_lpc)

CFG = parse_option_string("-cweid -nopreprep -raw -fft -cheb")


@pytest.fixture(scope="module")
def clean_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("clean-corpus")
    index = build_corpus(root, n_classes=5, files_per_class=20, size=2048)
    return root, index


@pytest.fixture(scope="module")
def noisy_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("noisy-corpus")
    index = build_corpus(root, n_classes=5, files_per_class=20, size=2048,
                         mislabel=10)
    return root, index


def first_pct(stats):
    return stats.per_config[0].pct


def test_criterion_01_self_recognition(clean_corpus):
    """1. self-recognition: train==test on 100-file/5-class corpus is 100%"""
    root, index = clean_corpus
    started = time.perf_counter()
    warnings, first, _ = run_once(index, index.with_mode("test"), CFG, root)
    elapsed = time.perf_counter() - started
    assert len(warnings) == 100
    assert first_pct(first) == Decimal("100.00")
    assert elapsed < 10.0


def test_criterion_02_fixed_version_empty_report(clean_corpus, tmp_path):
    """2. fixed-version behavior: random content + calibrated threshold -> empty report"""
    root, index = clean_corpus
    model = train_case(index, CFG, root)
    cut = calibrate_threshold(index, model, CFG, root)
    assert math.isfinite(cut) and cut > 0.0

    fixed_root = tmp_path / "fixed"
    fixed_index = random_content_copy(index.with_mode("test"), root, fixed_root)
    index_xml = tmp_path / "fixed_test.xml"
    write_index(fixed_index, index_xml)
    model_file = tmp_path / "model.cwts"
    model_file.write_bytes(training_set_bytes(model))

    out_dir = tmp_path / "reports"
    exit_code = cli_main([
        "test", "--index", str(index_xml), "--root", str(fixed_root),
        "--model", str(model_file), "--out", str(out_dir),
        "-cweid", "-nopreprep", "-raw", "-fft", "-cheb",
        f"-threshold={cut:g}",
    ])
    assert exit_code == 0
    report_path = next(out_dir.glob("report-*.xml"))
    warnings, _ = report.parse_sate_xml(report_path.read_text())
    assert warnings == []


def test_criterion_02_thresholded_scan_reports_no_recall_shortfall(
        clean_corpus, tmp_path, capsys):
    """2. fixed-version behavior: the thresholded scan reports no recall shortfall"""
    root, index = clean_corpus
    model = train_case(index, CFG, root)
    cut = calibrate_threshold(index, model, CFG, root)
    fixed_root = tmp_path / "fixed"
    index_xml = tmp_path / "fixed_test.xml"
    write_index(random_content_copy(index.with_mode("test"), root, fixed_root), index_xml)
    model_file = tmp_path / "model.cwts"
    model_file.write_bytes(training_set_bytes(model))
    capsys.readouterr()
    assert cli_main([
        "test", "--index", str(index_xml), "--root", str(fixed_root),
        "--model", str(model_file), "--out", str(tmp_path / "reports"),
        "-cweid", "-nopreprep", "-raw", "-fft", "-cheb", f"-threshold={cut:g}",
    ]) == 0
    assert "recall shortfall" not in capsys.readouterr().err


def test_criterion_03_half_training_degradation(noisy_corpus):
    """3. half-training: precision(halved) <= precision(full); dropped classes 0%"""
    root, index = noisy_corpus
    _, full_first, _ = run_once(index, index.with_mode("test"), CFG, root)

    halved = halve_training(index)
    dropped = index.all_classes() - halved.all_classes()
    assert dropped, "corpus must leave whole classes in the dropped half"

    model = train_case(halved, CFG, root)
    warnings = classify_case(index.with_mode("test"), model, CFG, root)
    half_first, _ = score_stats(warnings, index.with_mode("test"), CFG)

    assert first_pct(half_first) <= first_pct(full_first)
    by_key = {row.key: row for row in half_first.per_class}
    for wc in dropped:
        row = by_key[wc.id]
        assert (row.good, row.pct) == (0, Decimal("0.00"))


def test_criterion_04_dft_oracle():
    """4. DFT oracle: library FFT == naive O(N^2) DFT within 1e-9; Parseval 1e-6"""
    rng = np.random.default_rng(404)
    for n in (16, 64, 256):
        for _ in range(100):
            x = rng.uniform(-1.0, 1.0, size=n)
            fast = np.fft.fft(x)
            slow = naive_dft(x)
            assert np.max(np.abs(fast - slow)) < 1e-9
            time_energy = float(np.sum(x * x))
            freq_energy = float(np.sum(np.abs(fast) ** 2) / n)
            assert abs(time_energy - freq_energy) <= 1e-6 * time_energy


def test_criterion_05_lpc_oracle():
    """5. LPC oracle: Levinson-Durbin == direct Toeplitz solve within 1e-6"""
    rng = np.random.default_rng(505)
    for _ in range(50):
        x = rng.standard_normal(256)
        for order in (4, 8, 20):
            r = autocorrelation(x, order)
            assert r[0] > 0
            a, _ = levinson_durbin(r, order)
            want = toeplitz_lpc(r, order)
            assert np.max(np.abs(a - want)) < 1e-6


def test_criterion_06_metric_axioms():
    """6. metric axioms for eucl/cheb/mink on 1,000 random triples each"""
    rng = np.random.default_rng(606)
    for metric in ("eucl", "cheb", "mink"):
        for _ in range(1000):
            a, b, c = rng.uniform(-10.0, 10.0, size=(3, 8))
            dab = distance(a, b, metric)
            dba = distance(b, a, metric)
            assert dab >= 0.0
            assert abs(dab - dba) <= 1e-12
            assert distance(a, a, metric) <= 1e-12
            assert dab <= distance(a, c, metric) + distance(c, b, metric) + 1e-9


def test_criterion_07_smoothing_normalization():
    """7. smoothing: per-context sums == 1 (1e-9); add-delta -> MLE limit (1e-6)"""
    rng = np.random.default_rng(707)
    mle = SmoothingSpec("mle")
    tiny = SmoothingSpec("add_delta", 1e-9)
    estimators = [SmoothingSpec("add_delta", 0.01), SmoothingSpec("add_delta", 1.0),
                  SmoothingSpec("witten_bell")]
    for _ in range(100):
        text = rng.integers(0, 256, size=300).astype(np.uint8).tobytes()
        unigram = train_model(text, 1)
        for spec in estimators:
            total = sum(probability(unigram, b"", s, spec) for s in range(256))
            assert abs(total - 1.0) <= 1e-9
        bigram = train_model(text, 2)
        contexts = sorted(bigram.counts)[:5]
        for spec in estimators:
            for ctx in contexts:
                total = sum(probability(bigram, ctx, s, spec) for s in range(256))
                assert abs(total - 1.0) <= 1e-9
        for sym in set(text):
            assert abs(probability(unigram, b"", sym, tiny)
                       - probability(unigram, b"", sym, mle)) <= 1e-6


def test_criterion_08_wavelet_properties():
    """8. wavelets: zero detail on constants; sdwt/upfirdn == brute force exactly"""
    haar = wavelet("haar")
    rng = np.random.default_rng(808)
    for n in (4, 17, 64, 333):
        level = float(rng.uniform(-1, 1))
        _, detail = dwt_level(np.full(n, level), haar)
        assert float(np.sum(detail * detail)) <= 1e-12
    for trial in range(50):
        n = int(rng.integers(8, 120))
        x = rng.uniform(-1.0, 1.0, size=n)
        spec = wavelet("haar" if trial % 2 else "db2")
        levels = 1 + trial % 3
        assert np.array_equal(sdwt(x, spec, levels),
                              brute_sdwt(x, spec.low_pass, spec.high_pass,
                                         levels))
        up = 1 + int(rng.integers(0, 4))
        down = 1 + int(rng.integers(0, 4))
        fir = rng.uniform(-1.0, 1.0, size=int(rng.integers(1, 6)))
        assert np.array_equal(upfirdn(x, fir, up, down),
                              brute_upfirdn(x, fir, up, down))


def test_criterion_09_second_guess_accounting():
    """9. second-guess accounting matches hand counts; 37/4 prints as 90.24"""
    cwe20 = WeaknessClass.cwe("CWE-20")
    cwe79 = WeaknessClass.cwe("CWE-79")
    cwe119 = WeaknessClass.cwe("CWE-119")
    truth = CaseIndex("fixture", "1", [
        IndexEntry("a.c", [(cwe20, [])]),
        IndexEntry("b.c", [(cwe79, [])]),
        IndexEntry("c.c", [(cwe119, [])]),
    ])
    from codewave.engine import ScanWarning
    warnings = [
        # a.c: top-1 right -> good in BOTH tallies
        ScanWarning("a.c", cwe20, 0.1, second_guess=cwe79),
        # b.c: top-1 wrong, top-2 right -> bad first, good second
        ScanWarning("b.c", cwe119, 0.2, second_guess=cwe79),
        # c.c: both wrong -> bad in both
        ScanWarning("c.c", cwe20, 0.3, second_guess=cwe79),
    ]
    first, second = score_stats(warnings, truth, CFG)
    assert (first.per_config[0].good, first.per_config[0].bad) == (1, 2)
    assert (second.per_config[0].good, second.per_config[0].bad) == (2, 1)
    assert second.per_config[0].good >= first.per_config[0].good

    assert precision_pct(37, 4) == Decimal("90.24")
    from codewave.engine import RunStats
    table = report.export_stats_table(
        [RunStats("first", per_config=[StatsRow("-nopreprep -low -fft -cheb",
                                                37, 4)])])
    assert "90.24" in table


def _render_outputs(warnings, index):
    meta = report.CaseMeta(index.case_name, index.case_version,
                           CFG.option_string)
    first, second = score_stats(warnings, index, CFG)
    return (report.export_sate_xml(warnings, meta).encode("utf-8"),
            report.export_stats_table([first, second]).encode("utf-8"))


def _spawn_serve(lease):
    proc = subprocess.Popen(
        [sys.executable, "-m", "codewave.cli", "serve", "--port", "0",
         "--lease", str(lease)],
        stdout=subprocess.PIPE, text=True)
    address = proc.stdout.readline().strip().rsplit(" ", 1)[-1]
    host, port = address.rsplit(":", 1)
    return proc, address, host, int(port)


def _spawn_worker(address, model_file, root):
    return subprocess.Popen(
        [sys.executable, "-m", "codewave.cli", "work", "--store", address,
         "--model", str(model_file), "--root", str(root),
         "--idle-exit", "60",
         "-cweid", "-nopreprep", "-raw", "-fft", "-cheb"],
        stdout=subprocess.DEVNULL)


# a worker that dies mid-demand: it leases the first demand the generator
# deposits, prints its signature and holds the lease until it is killed
_LEASE_HOLDER = """
import sys, time
from codewave.dnet import StoreClient
deadline = time.monotonic() + 60
with StoreClient(sys.argv[1], int(sys.argv[2])) as client:
    while time.monotonic() < deadline:
        item = client.pickup("victim")
        if item is not None:
            print(item[0], flush=True)
            time.sleep(120)  # holds the lease until killed
            break
        time.sleep(0.05)
"""


def test_criterion_10_distributed_equivalence(clean_corpus, tmp_path):
    """10. distributed == monolithic byte-for-byte, incl. worker-kill recovery"""
    root, train_index = clean_corpus
    index = train_index.with_mode("test")
    model = train_case(train_index, CFG, root)
    model_file = tmp_path / "model.cwts"
    model_file.write_bytes(training_set_bytes(model))
    monolithic = classify_case(index, model, CFG, root)
    mono_xml, mono_table = _render_outputs(monolithic, index)

    # plain 1-store / 4-worker run
    serve_proc, address, host, port = _spawn_serve(lease=30)
    workers = []
    try:
        workers = [_spawn_worker(address, model_file, root) for _ in range(4)]
        distributed = dnet.run_generator(host, port, index, model, CFG, root,
                                         timeout=120)
    finally:
        for w in workers:  # the generator is done: stop them, not wait out --idle-exit
            w.terminate()
            w.wait(timeout=60)
        serve_proc.kill()
        serve_proc.communicate(timeout=10)  # reaps it and closes its stdout
    dist_xml, dist_table = _render_outputs(distributed, index)
    assert dist_xml == mono_xml
    assert dist_table == mono_table

    # kill one worker mid-run; lease recovery must still complete the case
    serve_proc, address, host, port = _spawn_serve(lease=1.5)
    survivors = []
    harvested = {}

    def generate():
        harvested["warnings"] = dnet.run_generator(host, port, index, model,
                                                   CFG, root, timeout=120)

    try:
        victim = subprocess.Popen(
            [sys.executable, "-c", _LEASE_HOLDER, host, str(port)],
            stdout=subprocess.PIPE, text=True)
        generator = threading.Thread(target=generate, daemon=True)
        generator.start()
        leased = victim.stdout.readline().strip()
        victim.kill()
        victim.communicate(timeout=10)  # reaps it and closes its stdout
        assert re.fullmatch("[0-9a-f]{64}", leased), "victim held no lease"
        survivors = [_spawn_worker(address, model_file, root) for _ in range(3)]
        generator.join(timeout=120)
        assert "warnings" in harvested, "generator did not finish"
    finally:
        for w in survivors:
            w.terminate()
            w.wait(timeout=60)
        serve_proc.kill()
        serve_proc.communicate(timeout=10)  # reaps it and closes its stdout
    kill_xml, kill_table = _render_outputs(harvested["warnings"], index)
    assert kill_xml == mono_xml
    assert kill_table == mono_table


def test_criterion_11_throughput(tmp_path_factory):
    """11. throughput: 1,000 x 4KB train+test <= 60 s; --jobs 4 strictly faster"""
    root = tmp_path_factory.mktemp("big-corpus")
    index = build_corpus(root, n_classes=5, files_per_class=200, size=4096)
    test_index = index.with_mode("test")
    assert len(index.entries) == 1000

    def timed(jobs):
        started = time.perf_counter()
        _, first, _ = run_once(index, test_index, CFG, root, jobs=jobs)
        return time.perf_counter() - started, first

    # best of three on both sides to keep shared-host jitter out of the
    # comparison; the single-run bound still holds for every serial sample
    serial_times, parallel_times = [], []
    first_serial = first_parallel = None
    for _ in range(3):
        elapsed, first_serial = timed(jobs=1)
        serial_times.append(elapsed)
        elapsed, first_parallel = timed(jobs=4)
        parallel_times.append(elapsed)

    assert max(serial_times) <= 60.0
    assert min(parallel_times) < min(serial_times)
    assert first_pct(first_parallel) == first_pct(first_serial)


def test_criterion_12_recall_consistency(clean_corpus):
    """12. recall diagnostic fires on short totals, never on clean runs"""
    root, train_index = clean_corpus
    index = train_index.with_mode("test")
    model = train_case(train_index, CFG, root)
    warnings = classify_case(index, model, CFG, root)

    clean_first, clean_second = score_stats(warnings, index, CFG)
    assert clean_first.diagnostics == []
    assert clean_second.diagnostics == []

    doctored_first, _ = score_stats(warnings[:2], index, CFG)
    assert any("recall" in d for d in doctored_first.diagnostics)

    # the summary-table shape of the same bug: a 2-good/0-bad row out of 9
    assert check_recall([StatsRow("-cweid -nopreprep -raw -fft -cos", 2, 0)], 9)
    assert check_recall([StatsRow("-cweid -nopreprep -raw -fft -eucl", 4, 5)], 9) == []
