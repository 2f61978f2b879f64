import hashlib
import subprocess
import sys
import threading
import time

import pytest

from codewave.cli import main
from codewave.dnet import (PENDING, DemandStoreServer, StoreClient, deposit_demand,
                           run_worker)
from codewave.engine import parse_option_tokens
from codewave.index import load_index, write_index
from codewave.nlp import load_models
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

    def test_model_cut_short_exits_1(self, corpus, capsys):
        root, train_xml, test_xml, base = corpus
        model = base / "model.cwnm"
        flags = ["-cweid", "-nopreprep", "-char", "-bigram", "-mle"]
        assert run_cli(["train", "--index", train_xml, "--root", root,
                        "--model", model, *flags]) == 0
        model.write_bytes(model.read_bytes()[:-5])
        code = run_cli(["test", "--index", test_xml, "--root", root,
                        "--model", model, "--out", base / "out", *flags])
        assert code == 1
        assert f"error: {model}: truncated" in capsys.readouterr().err

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

    # image file -> SHA-256 of the PGM that `test -spectrogram -graph` writes
    IMAGE_PINS = {
        "c0_f000.bin-spectrogram.pgm":
            "f75b0c3fd1c216503f82116b87281d4a02d7b5f187e0ba9917087e6b0cd359ec",
        "c0_f000.bin-wave.pgm":
            "cd1b7fb142e3e3b073cdb6f58e72752fff130c48f691145b3a10de3d7b97b61b",
        "c0_f001.bin-spectrogram.pgm":
            "6a5341abc4ed3c50c5eef62e21e4dd46514c43ce6f66266da53d2d3e4f81aa75",
        "c0_f001.bin-wave.pgm":
            "6c01febe0cc79a97df939d60e0d7ca87d8d909709cd9b66c11ec8c145b278d27",
        "c0_f002.bin-spectrogram.pgm":
            "5f15df2fc753056e2f1c4461263769c0998bb0e25e85290f94a596a21d711c6e",
        "c0_f002.bin-wave.pgm":
            "d0ba56168de71d18117fecf6beb7489072553a495162c03fd18a6ea5a0f23e0a",
        "c1_f000.bin-spectrogram.pgm":
            "a7ddb7ce1f970d06bd306a521e1bf9a523975de457292b2f0ea2ddaf41d7939f",
        "c1_f000.bin-wave.pgm":
            "9da434182545fc0304c9b1b2854da8ade3720b4c6d41775cee53255b82171dc7",
        "c1_f001.bin-spectrogram.pgm":
            "35e558cf7349d325881764a53d9c94881ae35c611d7c86d22ef336c8a4d14898",
        "c1_f001.bin-wave.pgm":
            "7111cf2ce70f72ee2e353bf4178cf750fbc8f532b8cb3a31c2e2dd30e5984188",
        "c1_f002.bin-spectrogram.pgm":
            "8183d668bd837dcefb89aeded5a7e254ca92cd91fa95ab7367c1f445fc1639cc",
        "c1_f002.bin-wave.pgm":
            "e717d42ae6f0106be1745ae2b4c905f1e617620ac64441b0fec459310818a83a",
        "c2_f000.bin-spectrogram.pgm":
            "f6a8e4d4d5b22a361d71795bcd8563e4b7194eb16a1b9221ef3abf6eef808f8b",
        "c2_f000.bin-wave.pgm":
            "165a0cc7cce69cd1e27e79a67cb46bd694934f6e20b104095e50566a3d42cd46",
        "c2_f001.bin-spectrogram.pgm":
            "c9a7dd16ed54b4b7ec81bbc2b79c709b15cbc17993997532d1e26d876175038a",
        "c2_f001.bin-wave.pgm":
            "1fafced9f4972ce3dfd0d254debc5d54a41aebae3ca0f7a65785980617ced9f4",
        "c2_f002.bin-spectrogram.pgm":
            "4b3d4fff3a48de9279d4bafe65743bde1a33d97c7aa2441145b804543312d3df",
        "c2_f002.bin-wave.pgm":
            "d6442411dd6c6b8071a7d1203fec1fb7a640f5ba62b2809cd87482fc1ef2da36",
    }

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
        assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in images} == self.IMAGE_PINS


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

    def test_score_row_of_the_wrong_length_exits_1(self, corpus, capsys):
        root, train_xml, test_xml, base = corpus
        model = base / "model.cwts"
        run_cli(["train", "--index", train_xml, "--root", root,
                 "--model", model, *CFG_FLAGS])
        index = load_index(test_xml)
        cfg = parse_option_tokens(CFG_FLAGS)
        with DemandStoreServer() as server:
            for entry in index.entries:
                signature, _ = deposit_demand(
                    server.store, index.case_name, entry.path,
                    (root / entry.path).read_bytes(), cfg)
                server.store.pickup("w0")
                server.store.deposit_result(signature, "w0", [0.0])
            host, port = server.address
            assert run_cli(["test", "--index", test_xml, "--root", root,
                            "--model", model, "--out", base / "out",
                            "--store", f"{host}:{port}", *CFG_FLAGS]) == 1
        assert "one score per class" in capsys.readouterr().err


class TestNlpReportPins:
    """NLP outputs are pinned byte for byte: the saved model, and the
    reports at --jobs 1 and 2 and through the demand store with one worker."""

    # flags -> SHA-256 of the CWNM model, the report XML and the stats table
    PINS = {
        ("-cweid", "-nopreprep", "-char", "-bigram", "-witten-bell"): (
            "4c36ad81b988f0d564675fb4c773ad6f10e2162fe2578b243c7f3d4cac4d2309",
            "dde5ac0cc5c1cc89a86457a436d464cd80d4efba1cfb20319716e649bbe04a43",
            "e1ef2c69542d1c8df3d46188091476279a778503973faeb477e800f944b575de"),
        ("-cweid", "-nopreprep", "-char", "-trigram", "-mle"): (
            "0175929365c966c1200ea4126437fbf488de1ce15f52f0eed43dcde12a119113",
            "63c0df3f7a2cc54795ea2c7d4d4daa01b2d13049cf871f62a2357f4adefee5ac",
            "6fd4abbdd21f670083f7a80eb774969a1e19b4d0611c1158562e38265ba3d278"),
    }

    @staticmethod
    def digests(out):
        return tuple(hashlib.sha256(next(out.glob(f"report-*.{ext}"))
                                    .read_bytes()).hexdigest()
                     for ext in ("xml", "txt"))

    @pytest.mark.parametrize("flags", list(PINS))
    def test_outputs_pinned(self, corpus, flags):
        root, train_xml, test_xml, base = corpus
        model = base / "model.cwnm"
        assert run_cli(["train", "--index", train_xml, "--root", root,
                        "--model", model, *flags]) == 0
        model_digest, *report_digests = self.PINS[flags]
        assert hashlib.sha256(model.read_bytes()).hexdigest() == model_digest
        test_args = ["test", "--index", test_xml, "--root", root,
                     "--model", model, *flags]
        seen = {}
        for jobs in (1, 2):
            out = base / f"jobs{jobs}"
            assert run_cli([*test_args, "--jobs", jobs, "--out", out]) == 0
            seen[f"jobs{jobs}"] = self.digests(out)
        models, _ = load_models(model)
        cfg = parse_option_tokens(flags)
        with DemandStoreServer() as server:
            host, port = server.address
            worker = threading.Thread(
                target=run_worker, args=(host, port, models, cfg, root, "w0"),
                kwargs={"idle_limit": 100, "poll_interval": 0.01}, daemon=True)
            worker.start()
            out = base / "store"
            assert run_cli([*test_args, "--store", f"{host}:{port}",
                            "--out", out]) == 0
            worker.join(timeout=10)
        seen["store"] = self.digests(out)
        assert seen == dict.fromkeys(seen, tuple(report_digests))
