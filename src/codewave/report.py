"""Exporters for scan results: XML reports, evidential text, precision
tables, and signal visualizations.

Every exporter is deterministic: warnings are ordered by (path, rank),
numbers are printed in fixed notation, and timestamps only appear in an
optional comment header that defaults to off so byte-for-byte comparisons
of reports stay meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional
from xml.etree import ElementTree
from xml.sax.saxutils import escape, quoteattr

import numpy as np

from .engine import RunStats, ScanWarning
from .errors import IndexFormatError
from .features import frame_magnitudes
from .index import WeaknessClass


@dataclass(frozen=True)
class CaseMeta:
    case_name: str
    case_version: str = ""
    config: str = ""


def _score_text(score: float) -> str:
    # fixed notation, never scientific; six decimals keeps report diffs exact
    return f"{score:.6f}"


def _ordered(warnings: Iterable[ScanWarning]) -> list[ScanWarning]:
    return sorted(warnings, key=lambda w: (w.path, w.rank, w.weakness.id))


def report_filename(meta: CaseMeta, ext: str) -> str:
    """report-<config-compressed>-<case>.<ext>, e.g.
    report-cweidnoprepreprawfftcheb-wireshark-1.2.0.xml"""
    compressed = meta.config.replace("-", "").replace(" ", "").replace("=", "") \
        .replace(":", "").replace(".", "")
    parts = ["report", compressed, meta.case_name]
    if meta.case_version:
        parts.append(meta.case_version)
    return "-".join(p for p in parts if p) + "." + ext


# --- XML report (schema: docs/report-formats.md) -------------------------------

def export_sate_xml(warnings: Iterable[ScanWarning], meta: CaseMeta,
                    timestamp: Optional[str] = None) -> str:
    """Render warnings as the XML report dialect.

    Zero warnings produce a valid, empty-bodied document: an empty report is
    the expected outcome when scanning a fixed version.
    """
    lines = ['<?xml version="1.0" encoding="UTF-8"?>']
    if timestamp is not None:
        lines.append(f"<!-- generated {escape(timestamp)} -->")
    lines.append(
        f"<report case={quoteattr(meta.case_name)}"
        f" version={quoteattr(meta.case_version)}"
        f" config={quoteattr(meta.config)}>"
    )
    quoted: dict[str, str] = {}

    def attr(value: str) -> str:
        """quoteattr, once per distinct value in the report."""
        text = quoted.get(value)
        if text is None:
            text = quoted[value] = quoteattr(value)
        return text

    for w in _ordered(warnings):
        # fixed-notation numbers hold nothing that needs escaping
        lines.append(
            f"  <warning path={quoteattr(w.path)}"
            f' score="{_score_text(w.score)}"'
            f" rank={attr(str(w.rank))}>"
        )
        lines.append(
            f"    <class kind={attr(w.weakness.kind)}"
            f" id={attr(w.weakness.id)}/>")
        if w.second_guess is not None:
            lines.append(
                f"    <second kind={attr(w.second_guess.kind)}"
                f" id={attr(w.second_guess.id)}/>")
        lines.append("  </warning>")
    lines.append("</report>")
    return "\n".join(lines) + "\n"


def parse_sate_xml(text: str) -> tuple[list[ScanWarning], CaseMeta]:
    try:
        root = ElementTree.fromstring(text)
    except ElementTree.ParseError as exc:
        raise IndexFormatError(f"report is not well-formed XML: {exc}") from exc
    if root.tag != "report":
        raise IndexFormatError(f"root element is <{root.tag}>, not <report>")
    meta = CaseMeta(root.get("case", ""), root.get("version", ""),
                    root.get("config", ""))
    warnings = []
    for w_el in root:
        if w_el.tag != "warning":
            raise IndexFormatError(f"unexpected element <{w_el.tag}>")
        classes = [el for el in w_el if el.tag == "class"]
        seconds = [el for el in w_el if el.tag == "second"]
        if len(classes) != 1 or len(seconds) > 1:
            raise IndexFormatError("warning must have one class element")
        path = w_el.get("path", "")
        if not path:
            raise IndexFormatError("warning without a path")
        try:
            guesses = [WeaknessClass(el.get("kind", ""), el.get("id", ""))
                       for el in classes + seconds]
            warnings.append(ScanWarning(
                path=path, weakness=guesses[0],
                score=float(w_el.get("score", "nan")),
                rank=int(w_el.get("rank", "1")),
                second_guess=guesses[1] if seconds else None))
        except ValueError as exc:
            raise IndexFormatError(f"warning {path!r}: {exc}") from None
    return warnings, meta


def validate_sate_xml(text: str) -> None:
    """Enforce the report schema; raises IndexFormatError on any violation.

    parse_sate_xml checks the whole schema as it parses: unknown elements, a
    warning without a path and, naming the warning's path, bad classes,
    scores and ranks (a missing class attribute reads as empty and a missing
    score as NaN, both rejected). This parses and drops the result.
    """
    parse_sate_xml(text)


# --- evidential text (dialect documented in docs/report-formats.md) -------------

def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_forensic_lucid(warnings: Iterable[ScanWarning], meta: CaseMeta) -> str:
    """Encode warnings as an evidential statement: one observation sequence
    per file, each observation carrying the nested context of the finding."""
    by_path: dict[str, list[ScanWarning]] = {}
    for w in _ordered(warnings):
        by_path.setdefault(w.path, []).append(w)

    case_id = "".join(c if c.isalnum() else "_" for c in meta.case_name + (
        "_" + meta.case_version if meta.case_version else ""))
    lines = [f"// evidential statement for case {meta.case_name}"
             f"{' ' + meta.case_version if meta.case_version else ''}"]
    seq_names = []
    observations = []
    # names number the files in path order; each context carries the path
    for k, (path, group) in enumerate(by_path.items(), 1):
        seq_name = f"os_{k}"
        seq_names.append(seq_name)
        obs_names = []
        for i, w in enumerate(group, 1):
            obs_name = f"o_{k}_{i}"
            obs_names.append(obs_name)
            context = (
                f"[case:{_quote(meta.case_name)}, path:{_quote(path)}, "
                f"class:{_quote(w.weakness.id)}, score:{_score_text(w.score)}, "
                f"rank:{w.rank}]"
            )
            observations.append(f"observation {obs_name} = ({context}, 1, 0);")
        lines.append(
            f"observation sequence {seq_name} = {{ {', '.join(obs_names)} }};")
    lines.extend(observations)
    lines.append(
        f"evidential statement es_{case_id} = {{ {', '.join(seq_names)} }};")
    return "\n".join(lines) + "\n"


# --- precision tables ------------------------------------------------------------

_GUESS_LABEL = {"first": "1st", "second": "2nd"}


def export_stats_table(stats_blocks: Iterable[RunStats],
                       by_class: bool = False) -> str:
    """Text table of per-config (or per-class) precision rows.

    Columns mirror the result tables: guess, run, algorithms (or class),
    good, bad, %. Rows are ranked best-first inside each guess block.
    """
    key_header = "class" if by_class else "algorithms"
    rows = []
    for stats in stats_blocks:
        source = stats.per_class if by_class else stats.per_config
        ranked = sorted(source, key=lambda r: (-r.pct, r.key))
        for run, row in enumerate(ranked, 1):
            rows.append((_GUESS_LABEL[stats.guess], str(run), row.key,
                         str(row.good), str(row.bad), f"{row.pct}"))
    header = ("guess", "run", key_header, "good", "bad", "%")
    widths = [len(h) for h in header]
    for row in rows:
        widths = [max(w, len(cell)) for w, cell in zip(widths, row)]

    def fmt(cells):
        return "  ".join(cell.ljust(w) for cell, w in zip(cells, widths)).rstrip()

    lines = [fmt(header)]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines) + "\n"


# --- raster output (binary portable graymap) --------------------------------------

def _pgm(pixels: np.ndarray) -> bytes:
    """Encode a 2-D uint8 array as a binary PGM (P5)."""
    height, width = pixels.shape
    return f"P5\n{width} {height}\n255\n".encode("ascii") + pixels.astype(np.uint8).tobytes()


def export_wave_image(samples: np.ndarray, width: int = 1024,
                      height: int = 200) -> bytes:
    """Amplitude polyline of a 1-D sample array, one pixel column per
    bucket of samples.

    Each column spans the bucket's min..max amplitude so short spikes stay
    visible after bucketing. An empty signal renders as a 1x1 black image.
    """
    x = np.asarray(samples, dtype=np.float64)
    if len(x) == 0:
        return _pgm(np.zeros((1, 1), dtype=np.uint8))
    width = min(width, len(x))
    pixels = np.zeros((height, width), dtype=np.uint8)
    bounds = np.linspace(0, len(x), width + 1).astype(int)
    top = height - 1

    def row(amplitude: float) -> int:
        return min(top, max(0, int((1.0 - amplitude) / 2.0 * top)))

    for col in range(width):
        bucket = x[bounds[col]: bounds[col + 1]]
        lo = row(float(np.max(bucket)))
        hi = row(float(np.min(bucket)))
        pixels[lo: hi + 1, col] = 255
    return _pgm(pixels)


def export_spectrogram(samples: np.ndarray, window: int = 256) -> bytes:
    """Log-magnitude spectrogram of a 1-D sample array: columns are
    windows, rows are bins.

    The image is exactly (window/2) rows by num_windows columns, row r being
    DFT bin r (DC at the top). Intensities are scaled so the strongest cell
    of a nonzero signal is 255; an all-zero or empty signal is all black.
    """
    if window < 2 or window & (window - 1):
        raise ValueError("window must be a power of two")
    x = np.asarray(samples, dtype=np.float64)
    if len(x) == 0:
        return _pgm(np.zeros((1, 1), dtype=np.uint8))
    levels = np.log1p(frame_magnitudes(x[np.newaxis], window, window // 2)[0])
    peak = float(levels.max())
    if peak > 0.0:
        levels = levels * (255.0 / peak)
    pixels = np.rint(levels.T).astype(np.uint8)  # rows = bins, cols = windows
    return _pgm(pixels)
