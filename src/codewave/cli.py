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
import math
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import dnet, nlp, report
from .classify import MAGIC as TRAINING_SET_MAGIC
from .classify import TrainingSet, load_training_set
from .engine import (ModelType, PipelineConfig, RunStats, default_grid,
                     is_pipeline_flag, merge_sweep_stats, model_bytes, parse_option_tokens,
                     score_stats, signal_rows, sweep, test_case, train_case, trained_hash)
from .errors import CodewaveError, ConfigError, ModelFormatError, TransportError
from .index import load_index

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2

STORE_ENV = "CODEWAVE_STORE"


def _atomic_write(path: Path, data: bytes) -> None:
    """Replace `path` by one rename, so a reader sees the old file or the new
    one; the kernel gives the new file a plain write's mode (umask on 0o666)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
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
    if not host or not port.isdigit() or int(port) > 65535:
        raise ConfigError(f"malformed store address {value!r}")
    return host, int(port)


def _load_model(path: Path) -> ModelType:
    """The model in a CWTS or CWNM file; the engine checks it fits the flags."""
    with path.open("rb") as handle:
        magic = handle.read(4)
    if magic == TRAINING_SET_MAGIC:
        return load_training_set(path)
    if magic == nlp.MAGIC:
        models, stored_hash = nlp.load_models(path)
        if stored_hash != trained_hash(models):
            raise ModelFormatError(f"{path}: hash {stored_hash} does not match its models")
        return models
    raise ConfigError(f"{path}: unrecognized model file")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error exits 1, not argparse's 2
        raise ConfigError(message)


# option -> (whether a value is valid, the rule); NaN is never valid
OPTION_RULES = {"jobs": (lambda n: n >= 1, ">= 1"),
                "port": (lambda n: 0 <= n <= 65535, "between 0 and 65535"),
                "lease": (lambda s: 0.0 < s < math.inf, "finite and > 0"),
                "idle_exit": (lambda n: n is None or n >= 1, ">= 1")}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="codewave", allow_abbrev=False,
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--root", default=".", help="corpus root directory")
        p.add_argument("--jobs", type=int, metavar="N", default=os.cpu_count() or 1,
                       help="at most N processes (default: CPU count); a train/test pass forks"
                       " only when each process gets at least FORK_BYTES (512 KiB) of input")

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
    p_work.add_argument("--root", default=".", help="corpus root directory")

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
            signal = signal_rows(cfg, [(root / entry.path).read_bytes()])[0]
            if cfg.spectrogram:
                path = image_dir / f"{entry.path}-spectrogram.pgm"
                _atomic_write(path, report.export_spectrogram(signal))
                written.append(path)
            if cfg.graph:
                path = image_dir / f"{entry.path}-wave.pgm"
                _atomic_write(path, report.export_wave_image(signal))
                written.append(path)
    return written


def _print_stats(first: RunStats, second: RunStats, by_class: bool = False) -> str:
    """Print the precision table of both guesses, and their diagnostics on
    stderr; return the table."""
    table = report.export_stats_table([first, second], by_class=by_class)
    sys.stdout.write(table)
    for diag in first.diagnostics:
        print(f"diagnostic: {diag}", file=sys.stderr)
    return table


def _cmd_train(ns, cfg: PipelineConfig) -> int:
    index = load_index(ns.index)
    model = train_case(index, cfg, ns.root, jobs=ns.jobs)
    _atomic_write(Path(ns.model), model_bytes(model))
    count = len(model.classes) if isinstance(model, TrainingSet) else len(model)
    print(f"trained {count} class models -> {Path(ns.model)}")
    return EXIT_OK


def _cmd_test(ns, cfg: PipelineConfig) -> int:
    address = _parse_store(ns.store) if ns.store else None
    index = load_index(ns.index)
    model = _load_model(Path(ns.model))
    if address:
        warnings = dnet.run_generator(*address, index, model, cfg, ns.root)
    else:
        warnings = test_case(index, model, cfg, ns.root, jobs=ns.jobs)
    written = _write_reports(warnings, cfg, index, Path(ns.out), ns.stamp,
                             Path(ns.root))
    truth_classes = {wc for wc in index.all_classes() if wc.kind == cfg.class_kind}
    if truth_classes:
        table = _print_stats(*score_stats(warnings, index, cfg))
        meta = report.CaseMeta(index.case_name, index.case_version,
                               cfg.option_string)
        table_path = Path(ns.out) / report.report_filename(meta, "txt")
        _atomic_write(table_path, table.encode("utf-8"))
        written.append(table_path)
    print(f"{len(warnings)} warning(s); wrote {', '.join(map(str, written))}")
    return EXIT_OK


def _cmd_sweep(ns, cfg: PipelineConfig) -> int:
    train_index = load_index(ns.train_index)
    test_index = load_index(ns.test_index)
    entries = sweep(train_index, test_index, default_grid(cfg.class_kind),
                    ns.root, jobs=ns.jobs)
    _print_stats(*merge_sweep_stats(entries))
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
    model = _load_model(Path(ns.model))
    done = dnet.run_worker(host, port, model, cfg, ns.root, ns.worker_id,
                           idle_limit=ns.idle_exit)
    print(f"{ns.worker_id}: {done} demand(s) computed")
    return EXIT_OK


def _cmd_report(ns, _cfg: PipelineConfig) -> int:
    text = Path(ns.report_file).read_text(encoding="utf-8")
    warnings, meta = report.parse_sate_xml(text)
    index = load_index(ns.index)
    cfg = parse_option_tokens(meta.config.split()) if meta.config \
        else PipelineConfig()
    _print_stats(*score_stats(warnings, index, cfg), by_class=ns.by_class)
    return EXIT_OK


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else [str(a) for a in argv]
    try:
        # pipeline flags go around argparse, which would read -hamming as -h amming
        ns, unknown = build_parser().parse_known_args(
            [a for a in argv if not is_pipeline_flag(a)])
        for name, (valid, rule) in OPTION_RULES.items():
            if name in vars(ns) and not valid(vars(ns)[name]):
                raise ConfigError(f"--{name.replace('_', '-')} must be {rule}")
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
