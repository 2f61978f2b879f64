import subprocess
import sys
import time

import pytest

from codewave.cli import main
from codewave.dnet import PENDING, StoreClient
from codewave.index import write_index
from codewave.report import parse_sate_xml

from .corpusgen import build_corpus

CFG_FLAGS = ["-cweid", "-nopreprep", "-raw", "-fft=128:64", "-cheb"]


@pytest.fixture
def corpus(tmp_path):
    root = tmp_path / "corpus"
    index = build_corpus(root, n_classes=3, files_per_class=3, size=512)
    train_xml = tmp_path / "case_train.xml"
    test_xml = tmp_path / "case_test.xml"
    write_index(index, train_xml)
    write_index(index.with_mode("test"), test_xml)
    return root, train_xml, test_xml, tmp_path


def run_cli(args):
    return main([str(a) for a in args])


class TestTrainTest:
    def test_train_then_test_roundtrip(self, corpus, capsys):
        root, train_xml, test_xml, base = corpus
        model = base / "model.cwts"
        assert run_cli(["train", "--index", train_xml, "--root", root,
                        "--model", model, *CFG_FLAGS]) == 0
        assert model.exists()
        out = base / "reports"
        assert run_cli(["test", "--index", test_xml, "--root", root,
                        "--model", model, "--out", out, *CFG_FLAGS]) == 0
        reports = list(out.glob("report-*.xml"))
        assert len(reports) == 1
        assert "cweidnoprepreprawfft12864cheb" in reports[0].name
        warnings, meta = parse_sate_xml(reports[0].read_text())
        assert len(warnings) == 9
        assert meta.config == "-cweid -nopreprep -raw -fft=128:64 -cheb"
        captured = capsys.readouterr()
        assert "100.00" in captured.out  # self-test table
        tables = list(out.glob("report-*.txt"))
        assert len(tables) == 1
        assert "100.00" in tables[0].read_text()

    def test_mismatched_config_exits_1(self, corpus):
        root, train_xml, test_xml, base = corpus
        model = base / "model.cwts"
        run_cli(["train", "--index", train_xml, "--root", root,
                 "--model", model, *CFG_FLAGS])
        code = run_cli(["test", "--index", test_xml, "--root", root,
                        "--model", model, "-cweid", "-nopreprep", "-low",
                        "-fft=128:64", "-cheb"])
        assert code == 1

    def test_conflicting_flags_exit_1(self, corpus):
        root, train_xml, _, base = corpus
        code = run_cli(["train", "--index", train_xml, "--root", root,
                        "--model", base / "m.cwts", "-fft", "-lpc"])
        assert code == 1

    @pytest.mark.parametrize("metric", ["-hamming", "-hamming=0.01"])
    def test_hamming_flags_reach_the_pipeline(self, corpus, capsys, metric):
        # argparse alone would read -hamming as -h with the value "amming"
        root, train_xml, test_xml, base = corpus
        flags = ["-cweid", "-nopreprep", "-raw", "-fft=128:64", metric]
        model = base / "model.cwts"
        assert run_cli(["train", "--index", train_xml, "--root", root,
                        "--model", model, *flags]) == 0
        assert run_cli(["test", "--index", test_xml, "--root", root,
                        "--model", model, "--out", base / "h", *flags]) == 0
        assert f"-raw -fft=128:64 {metric}" in capsys.readouterr().out

    @pytest.mark.parametrize("bad", ["-fft=0", "-threshold=nan", "-mink=0.5",
                                     "-lpc=0", "-hamming=-1"])
    def test_bad_parameter_exits_1(self, corpus, capsys, bad):
        root, train_xml, _, base = corpus
        code = run_cli(["train", "--index", train_xml, "--root", root,
                        "--model", base / "m.cwts", "-cweid", bad])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_index_exits_2(self, corpus):
        root, _, _, base = corpus
        code = run_cli(["train", "--index", base / "absent.xml",
                        "--root", root, "--model", base / "m.cwts",
                        *CFG_FLAGS])
        assert code == 2

    def test_nlp_pipeline_roundtrip(self, corpus):
        root, train_xml, test_xml, base = corpus
        model = base / "model.cwnm"
        flags = ["-cweid", "-nopreprep", "-char", "-unigram", "-add-delta"]
        assert run_cli(["train", "--index", train_xml, "--root", root,
                        "--model", model, *flags]) == 0
        assert run_cli(["test", "--index", test_xml, "--root", root,
                        "--model", model, "--out", base / "nlp-reports",
                        *flags]) == 0
        reports = list((base / "nlp-reports").glob("report-*.xml"))
        assert len(reports) == 1

    def test_flucid_and_images_emitted(self, corpus):
        root, train_xml, test_xml, base = corpus
        model = base / "model.cwts"
        flags = CFG_FLAGS + ["-flucid", "-spectrogram", "-graph"]
        run_cli(["train", "--index", train_xml, "--root", root,
                 "--model", model, *flags])
        out = base / "full-reports"
        assert run_cli(["test", "--index", test_xml, "--root", root,
                        "--model", model, "--out", out, *flags]) == 0
        assert list(out.glob("report-*.ipl"))
        images = list((out / "images").glob("*.pgm"))
        assert len(images) == 18  # 9 files x (spectrogram + wave)


class TestReportCommand:
    def test_rescore_existing_report(self, corpus, capsys):
        root, train_xml, test_xml, base = corpus
        model = base / "model.cwts"
        out = base / "r"
        run_cli(["train", "--index", train_xml, "--root", root,
                 "--model", model, *CFG_FLAGS])
        run_cli(["test", "--index", test_xml, "--root", root,
                 "--model", model, "--out", out, *CFG_FLAGS])
        capsys.readouterr()
        report_path = next(out.glob("report-*.xml"))
        assert run_cli(["report", "--report", report_path,
                        "--index", test_xml]) == 0
        assert "100.00" in capsys.readouterr().out


class TestSweepCommand:
    def test_sweep_prints_ranked_table(self, tmp_path, capsys):
        root = tmp_path / "corpus"
        index = build_corpus(root, n_classes=2, files_per_class=2, size=256)
        train_xml = tmp_path / "train.xml"
        test_xml = tmp_path / "test.xml"
        write_index(index, train_xml)
        write_index(index.with_mode("test"), test_xml)
        assert run_cli(["sweep", "--train-index", train_xml,
                        "--test-index", test_xml, "--root", root,
                        "--jobs", "1", "-cweid"]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0].split()[:3] == ["guess", "run", "algorithms"]
        data = [line.split() for line in lines[1:] if line.startswith("1st")]
        pcts = [float(row[-1]) for row in data]
        assert pcts == sorted(pcts, reverse=True)


class TestServeWork:
    def test_store_roundtrip_via_subprocess(self, tmp_path):
        proc = subprocess.Popen(
            [sys.executable, "-m", "codewave.cli", "serve", "--port", "0"],
            stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            host, port = line.strip().rsplit(" ", 1)[-1].rsplit(":", 1)
            with StoreClient(host, int(port)) as client:
                assert client.deposit("sig-x", "a.c") == PENDING
                assert client.pickup("w")[0] == "sig-x"
        finally:
            proc.kill()
            proc.wait(timeout=10)

    def test_store_env_var_fallback(self, corpus, monkeypatch):
        root, train_xml, _, base = corpus
        model = base / "model.cwts"
        run_cli(["train", "--index", train_xml, "--root", root,
                 "--model", model, *CFG_FLAGS])
        monkeypatch.delenv("CODEWAVE_STORE", raising=False)
        code = run_cli(["work", "--model", model, "--root", root,
                        "--idle-exit", "1", *CFG_FLAGS])
        assert code == 1  # no --store and no CODEWAVE_STORE
        monkeypatch.setenv("CODEWAVE_STORE", "127.0.0.1:1")
        code = run_cli(["work", "--model", model, "--root", root,
                        "--idle-exit", "1", *CFG_FLAGS])
        assert code == 2  # resolves the env var, then fails to connect

    def test_worker_drains_store_and_exits(self, corpus):
        root, train_xml, test_xml, base = corpus
        model = base / "model.cwts"
        run_cli(["train", "--index", train_xml, "--root", root,
                 "--model", model, *CFG_FLAGS])
        proc = subprocess.Popen(
            [sys.executable, "-m", "codewave.cli", "serve", "--port", "0"],
            stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            address = line.strip().rsplit(" ", 1)[-1]
            host, port = address.rsplit(":", 1)
            with StoreClient(host, int(port)) as client:
                client.deposit("job-1", "c0/f000.bin")
            worker = subprocess.run(
                [sys.executable, "-m", "codewave.cli", "work",
                 "--store", address, "--model", str(model), "--root",
                 str(root), "--idle-exit", "3", *CFG_FLAGS],
                capture_output=True, text=True, timeout=60)
            assert worker.returncode == 0
            assert "1 demand(s) computed" in worker.stdout
            with StoreClient(host, int(port)) as client:
                assert client.harvest(["job-1"])
        finally:
            proc.kill()
            proc.wait(timeout=10)
