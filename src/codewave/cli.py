"""Command-line front end.

Subcommands cover the whole workflow: `train` and `test` run the pipelines
against index files, `sweep` searches configuration permutations, `serve`
and `work` run the demand-store roles, and `report` re-scores a previously
written report against ground truth.

Pipeline flags keep the single-dash spelling used in result tables
(-cweid -nopreprep -raw -fft -cheb ...) so a table row pastes straight onto
the command line; double-dash synonyms work too.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from datetime import datetime, timezone
from pathlib import Path

from . import dnet, nlp, report
from .classify import MAGIC as TRAINING_SET_MAGIC
from .classify import TrainingSet, load_training_set, save_training_set
from .engine import (PipelineConfig, default_grid, is_pipeline_flag,
                     merge_sweep_stats, parse_option_tokens, score_stats,
                     sweep, test_case, train_case)
from .errors import CodewaveError, ConfigError, TransportError
from .index import load_index
from .loader import samples_from_bytes
from .preprocess import preprocess_rows

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2

STORE_ENV = "CODEWAVE_STORE"


def _atomic_write(path: Path, data: bytes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        finally:
            raise


def _parse_store(value: str | None) -> tuple[str, int]:
    value = value or os.environ.get(STORE_ENV)
    if not value:
        raise ConfigError(
            f"no demand store given (use --store host:port or {STORE_ENV})")
    host, _, port = value.rpartition(":")
    if not host or not port.isdigit():
        raise ConfigError(f"malformed store address {value!r}")
    return host, int(port)


def _load_model(path: Path):
    with path.open("rb") as handle:
        magic = handle.read(4)
    if magic == TRAINING_SET_MAGIC:
        ts = load_training_set(path)
        return ts, ts.config_hash
    if magic == nlp.MAGIC:
        return nlp.load_models(path)
    raise ConfigError(f"{path}: unrecognized model file")


def _check_hash(stored: str, cfg: PipelineConfig) -> None:
    if stored != cfg.config_hash:
        raise ConfigError(
            f"model configuration hash {stored} does not match the requested "
            f"flags ({cfg.option_string} -> {cfg.config_hash}); "
            f"retrain or adjust the flags")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="codewave", allow_abbrev=False,
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--root", default=".", help="corpus root directory")
        p.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                       help="processes per batch pass (default: CPU count)")

    p_train = sub.add_parser("train", help="learn per-class models from a train index")
    p_train.add_argument("--index", required=True)
    p_train.add_argument("--model", required=True, help="output model file")
    common(p_train)

    p_test = sub.add_parser("test", help="classify a test index and write reports")
    p_test.add_argument("--index", required=True)
    p_test.add_argument("--model", required=True)
    p_test.add_argument("--out", default=".", help="report output directory")
    p_test.add_argument("--store", help="run distributed through host:port")
    p_test.add_argument("--stamp", action="store_true",
                        help="embed a generation timestamp comment in reports")
    common(p_test)

    p_sweep = sub.add_parser("sweep", help="rank configuration permutations")
    p_sweep.add_argument("--train-index", required=True)
    p_sweep.add_argument("--test-index", required=True)
    common(p_sweep)

    p_serve = sub.add_parser("serve", help="run the demand store")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=4910)
    p_serve.add_argument("--lease", type=float, default=dnet.DEFAULT_LEASE,
                         help="worker lease timeout in seconds")

    p_work = sub.add_parser("work", help="run a classification worker")
    p_work.add_argument("--store", help="demand store host:port")
    p_work.add_argument("--model", required=True)
    p_work.add_argument("--worker-id", default=f"worker-{os.getpid()}")
    p_work.add_argument("--idle-exit", type=int, default=None,
                        help="exit after N consecutive empty pickups")
    p_work.add_argument("--throttle", type=float, default=0.0,
                        help="sleep this many seconds per demand (debugging)")
    common(p_work)

    p_report = sub.add_parser(
        "report", help="score an existing XML report against ground truth")
    p_report.add_argument("--report", required=True, dest="report_file")
    p_report.add_argument("--index", required=True, help="ground-truth index")
    p_report.add_argument("--by-class", action="store_true",
                          help="tabulate per-class rows instead of per-config")
    return parser


def _write_reports(warnings, cfg: PipelineConfig, index, out_dir: Path,
                   stamp: bool, root: Path) -> list[Path]:
    meta = report.CaseMeta(index.case_name, index.case_version,
                           cfg.option_string)
    timestamp = (datetime.now(timezone.utc).isoformat() if stamp else None)
    written = []
    xml_path = out_dir / report.report_filename(meta, "xml")
    _atomic_write(xml_path, report.export_sate_xml(
        warnings, meta, timestamp).encode("utf-8"))
    written.append(xml_path)
    if cfg.flucid:
        ipl_path = out_dir / report.report_filename(meta, "ipl")
        _atomic_write(ipl_path,
                      report.export_forensic_lucid(warnings, meta).encode("utf-8"))
        written.append(ipl_path)
    if cfg.spectrogram or cfg.graph:
        image_dir = out_dir / "images"
        for entry in index.entries:
            samples = samples_from_bytes((root / entry.path).read_bytes(),
                                         cfg.loader_ngram)
            rows, _ = preprocess_rows(samples[None], cfg.filter_spec())
            mangled = entry.path.replace("/", "_")
            if cfg.spectrogram:
                path = image_dir / f"{mangled}-spectrogram.pgm"
                _atomic_write(path, report.export_spectrogram(rows[0]))
                written.append(path)
            if cfg.graph:
                path = image_dir / f"{mangled}-wave.pgm"
                _atomic_write(path, report.export_wave_image(rows[0]))
                written.append(path)
    return written


def _cmd_train(ns, cfg: PipelineConfig) -> int:
    index = load_index(ns.index)
    model = train_case(index, cfg, ns.root, jobs=ns.jobs)
    out = Path(ns.model)
    if isinstance(model, TrainingSet):
        save_training_set(model, out)
        count = len(model.classes)
    else:
        nlp.save_models(model, out, config_hash=cfg.config_hash)
        count = len(model)
    print(f"trained {count} class models -> {out}")
    return EXIT_OK


def _cmd_test(ns, cfg: PipelineConfig) -> int:
    index = load_index(ns.index)
    model, stored_hash = _load_model(Path(ns.model))
    _check_hash(stored_hash, cfg)
    if ns.store:
        host, port = _parse_store(ns.store)
        warnings = dnet.run_generator(host, port, index, model, cfg, ns.root)
    else:
        warnings = test_case(index, model, cfg, ns.root, jobs=ns.jobs)
    written = _write_reports(warnings, cfg, index, Path(ns.out), ns.stamp,
                             Path(ns.root))
    truth_classes = {wc for wc in index.all_classes() if wc.kind == cfg.class_kind}
    if truth_classes:
        first, second = score_stats(warnings, index, cfg)
        table = report.export_stats_table([first, second])
        meta = report.CaseMeta(index.case_name, index.case_version,
                               cfg.option_string)
        table_path = Path(ns.out) / report.report_filename(meta, "txt")
        _atomic_write(table_path, table.encode("utf-8"))
        written.append(table_path)
        sys.stdout.write(table)
        for diag in first.diagnostics:
            print(f"diagnostic: {diag}", file=sys.stderr)
    print(f"{len(warnings)} warning(s); wrote {', '.join(map(str, written))}")
    return EXIT_OK


def _cmd_sweep(ns, cfg: PipelineConfig) -> int:
    train_index = load_index(ns.train_index)
    test_index = load_index(ns.test_index)
    entries = sweep(train_index, test_index, default_grid(cfg.class_kind),
                    ns.root, jobs=ns.jobs)
    first, second = merge_sweep_stats(entries)
    sys.stdout.write(report.export_stats_table([first, second]))
    for entry in entries:
        print(f"timing: {entry.option_string}: {entry.elapsed:.3f}s"
              + (f" FAILED: {entry.error}" if entry.error else ""),
              file=sys.stderr)
    return EXIT_OK


def _cmd_serve(ns, _cfg: PipelineConfig) -> int:
    server = dnet.DemandStoreServer(ns.host, ns.port, lease_timeout=ns.lease)
    host, port = server.address
    print(f"demand store listening on {host}:{port}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    return EXIT_OK


def _cmd_work(ns, cfg: PipelineConfig) -> int:
    host, port = _parse_store(ns.store)
    model, stored_hash = _load_model(Path(ns.model))
    _check_hash(stored_hash, cfg)
    done = dnet.run_worker(host, port, model, cfg, ns.root, ns.worker_id,
                           idle_limit=ns.idle_exit, throttle=ns.throttle)
    print(f"{ns.worker_id}: {done} demand(s) computed")
    return EXIT_OK


def _cmd_report(ns, _cfg: PipelineConfig) -> int:
    text = Path(ns.report_file).read_text(encoding="utf-8")
    report.validate_sate_xml(text)
    warnings, meta = report.parse_sate_xml(text)
    index = load_index(ns.index)
    cfg = parse_option_tokens(meta.config.split()) if meta.config \
        else PipelineConfig()
    first, second = score_stats(warnings, index, cfg)
    sys.stdout.write(report.export_stats_table([first, second],
                                               by_class=ns.by_class))
    for diag in first.diagnostics:
        print(f"diagnostic: {diag}", file=sys.stderr)
    return EXIT_OK


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else [str(a) for a in argv]
    # pipeline flags go around argparse, which would read -hamming as -h amming
    ns, unknown = build_parser().parse_known_args(
        [a for a in argv if not is_pipeline_flag(a)])
    try:
        cfg = parse_option_tokens([a for a in argv if is_pipeline_flag(a)]
                                  + unknown)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    commands = {"train": _cmd_train, "test": _cmd_test, "sweep": _cmd_sweep,
                "serve": _cmd_serve, "work": _cmd_work, "report": _cmd_report}
    try:
        return commands[ns.command](ns, cfg)
    except TransportError as exc:
        print(f"transport error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (CodewaveError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
