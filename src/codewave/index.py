"""Knowledge-base index: files annotated with CVE/CWE weakness classes.

The index is the unit the rest of the pipeline consumes: training runs walk
the entries of a train-mode index, test runs walk a test-mode index and score
predictions against its annotations. Indexes persist as a small XML dialect
(see docs/index-format.md) and exist in source and binary flavours.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Optional
from xml.etree import ElementTree
from xml.sax.saxutils import escape, quoteattr

from .errors import ConfigError, IndexFormatError

CVE_RE = re.compile(r"^CVE-\d{4}-\d+$")
CWE_RE = re.compile(r"^CWE-\d+$")
# spelt as the excluded characters: the complement class takes 7 ms to compile
NOT_XML_RE = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")
NVD_PSEUDO_CLASSES = ("NVD-CWE-Other", "NVD-CWE-noinfo")

ISSUE_KINDS = ("sink", "path", "fix")


@dataclass(frozen=True, order=True)
class WeaknessClass:
    """A classification target: one CVE, or one CWE category."""

    kind: str  # "cve" | "cwe"
    id: str

    def __post_init__(self):
        if self.kind not in ("cve", "cwe"):
            raise ValueError(f"unknown class kind {self.kind!r}")
        if self.kind == "cve" and not CVE_RE.match(self.id):
            raise ValueError(f"malformed CVE id {self.id!r}")
        if self.kind == "cwe" and not (
            CWE_RE.match(self.id) or self.id in NVD_PSEUDO_CLASSES
        ):
            raise ValueError(f"malformed CWE id {self.id!r}")

    @classmethod
    def cve(cls, id: str) -> "WeaknessClass":
        return cls("cve", id)

    @classmethod
    def cwe(cls, id: str) -> "WeaknessClass":
        return cls("cwe", id)


@dataclass(frozen=True)
class Annotation:
    """Optional location/issue detail attached to a class within a file.

    Binary-mode entries never carry line numbers or source fragments; a byte
    offset is the only location detail that survives compilation.
    """

    lines: tuple[int, ...] = ()
    fragment: Optional[str] = None
    issue_kind: Optional[str] = None
    byte_offset: Optional[int] = None

    def __post_init__(self):
        if any(n <= 0 for n in self.lines):
            raise ValueError("line numbers must be strictly positive")
        if self.fragment is not None:
            check_xml_text("fragment", self.fragment)
        if self.issue_kind is not None and self.issue_kind not in ISSUE_KINDS:
            raise ValueError(f"unknown issue kind {self.issue_kind!r}")
        if self.byte_offset is not None and self.byte_offset < 0:
            raise ValueError("byte offset must be non-negative")

    def stripped(self) -> "Annotation":
        """Drop source-only detail (lines, fragment) for binary indexes."""
        return replace(self, lines=(), fragment=None)


def check_xml_text(what: str, text: str) -> None:
    """Raise ValueError if `text` has a character XML 1.0 cannot carry: a C0
    control other than tab, LF and CR, U+FFFE, U+FFFF or a lone surrogate."""
    if NOT_XML_RE.search(text):
        raise ValueError(f"{what} {text!r} has a character XML 1.0 cannot carry")


def check_corpus_path(path: str) -> None:
    """Raise ValueError unless `path` names a file under the corpus root:
    non-empty, relative, with no `..` component, and writable as XML 1.0 (no
    C0 control but tab, LF and CR; no lone surrogate from an undecodable name)."""
    if not path:
        raise ValueError("entry path must be non-empty")
    check_xml_text("entry path", path)
    if path.startswith("/") or ".." in path.split("/"):
        raise ValueError(f"entry path {path!r} leaves the corpus root")


@dataclass
class IndexEntry:
    """One file, with zero or more weakness classes and their annotations."""

    path: str
    classes: list[tuple[WeaknessClass, list[Annotation]]] = field(default_factory=list)

    def __post_init__(self):
        check_corpus_path(self.path)

    def class_set(self) -> set[WeaknessClass]:
        return {wc for wc, _ in self.classes}


@dataclass
class TestCaseIndex:
    """An annotated file set for one test case (e.g. one project version),
    all of one kind: source files, or the binaries compiled from them."""

    case_name: str
    case_version: str
    entries: list[IndexEntry] = field(default_factory=list)
    mode: str = "test"  # "train" | "test"
    kind: str = "source"  # "source" | "binary"

    def __post_init__(self):
        if self.mode not in ("train", "test"):
            raise ValueError(f"unknown index mode {self.mode!r}")
        if self.kind not in ("source", "binary"):
            raise ValueError(f"unknown index kind {self.kind!r}")
        check_xml_text("case name", self.case_name)
        check_xml_text("case version", self.case_version)
        self.validate()

    def validate(self) -> None:
        """Raise IndexFormatError on a duplicate path, a class-less entry in
        train mode, or line/fragment annotations in a binary index."""
        train, binary = self.mode == "train", self.kind == "binary"
        seen = set()
        for entry in self.entries:
            if entry.path in seen:
                raise IndexFormatError(f"duplicate entry path {entry.path!r}")
            seen.add(entry.path)
            if train and not entry.classes:
                raise IndexFormatError(
                    f"train-mode index entry {entry.path!r} carries no class")
            if binary and any(a.lines or a.fragment is not None
                              for _, anns in entry.classes for a in anns):
                raise IndexFormatError(f"entry {entry.path!r}: binary index"
                                       " carries source annotations")

    def with_mode(self, mode: str) -> "TestCaseIndex":
        return replace(self, entries=[replace(e) for e in self.entries], mode=mode)

    def all_classes(self) -> set[WeaknessClass]:
        out: set[WeaknessClass] = set()
        for entry in self.entries:
            out |= entry.class_set()
        return out


def collect_files(root_dir, extensions: Iterable[str],
                  case_name: str = "", case_version: str = "") -> TestCaseIndex:
    """Build an unannotated index skeleton from a directory tree.

    One entry per file whose suffix is in `extensions`, paths relative to
    `root_dir`, sorted lexicographically. Classes are left empty and the
    index comes back in test mode; annotation happens afterwards.
    """
    root = Path(root_dir)
    if not root.is_dir():
        raise IOError(f"not a readable directory: {root}")
    exts = set(extensions)
    paths = sorted(
        p.relative_to(root).as_posix()
        for p in root.rglob("*")
        if p.is_file() and p.suffix in exts
    )
    name = case_name or root.name
    return TestCaseIndex(name, case_version,
                         [IndexEntry(path=p) for p in paths], mode="test")


def annotate_synthetic(index: TestCaseIndex, cwe_pattern: str) -> TestCaseIndex:
    """Annotate entries with CWE classes captured from their paths.

    Synthetic corpora encode the weakness in the path itself (there are no
    CVE reports to transcribe), so a single capturing group yielding the CWE
    number is all the annotation takes. Non-matching entries pass through.
    """
    pattern = re.compile(cwe_pattern)
    if pattern.groups < 1:
        raise ConfigError("cwe pattern must contain one capture group")
    entries = []
    for entry in index.entries:
        m = pattern.search(entry.path)
        if m is None:
            entries.append(replace(entry))
            continue
        wc = WeaknessClass.cwe(f"CWE-{int(m.group(1))}")
        classes = list(entry.classes)
        if wc not in entry.class_set():
            classes.append((wc, []))
        entries.append(replace(entry, classes=classes))
    return replace(index, entries=entries)


def derive_binary_index(index: TestCaseIndex,
                        mapping: dict[str, str]) -> TestCaseIndex:
    """Rewrite a source index to its compiled counterpart.

    Each compilable source path becomes the mapped object/bytecode path
    (".java" -> ".class", ".c" -> ".o", ...); line numbers and fragments are
    stripped since they are meaningless in compiled form. Entries without a
    mapped suffix are dropped -- mixed trees are normal, not an error.
    """
    entries = []
    dropped = 0
    for entry in index.entries:
        suffix = Path(entry.path).suffix
        if suffix not in mapping:
            dropped += 1
            continue
        new_path = entry.path[: -len(suffix)] + mapping[suffix]
        classes = [(wc, [a.stripped() for a in anns]) for wc, anns in entry.classes]
        entries.append(IndexEntry(new_path, classes))
    if dropped:
        import logging
        logging.getLogger(__name__).info(
            "derive_binary_index: dropped %d unmapped entries", dropped)
    return replace(index, entries=entries, kind="binary")


def halve_training(index: TestCaseIndex) -> TestCaseIndex:
    """Keep only the first half of a training index, ceiling on ties.

    Used to measure how precision degrades when the set of known weakness
    locations is artificially cut in two; classes whose carrier files all
    fall in the dropped half simply vanish from the training set.
    """
    if index.mode != "train":
        raise ConfigError("halve_training requires a train-mode index")
    n = len(index.entries)
    keep = (n + 1) // 2
    return replace(index, entries=[replace(e) for e in index.entries[:keep]])


# --- XML persistence ---------------------------------------------------------
#
# <index case="..." version="..." mode="train|test" kind="source|binary">
#   <file path="...">
#     <class kind="cve|cwe" id="...">
#       <ann line="..." offset="..." issue="sink|path|fix">fragment</ann>
#     </class>
#   </file>
# </index>
#
# Written by hand rather than through ElementTree so the byte layout is
# stable: UTF-8, LF endings, two-space indent, attributes in fixed order.

def write_index(index: TestCaseIndex, file) -> None:
    """Write `index` in the layout load_index reads back to the same bytes;
    an index that broke a rule after it was built raises IndexFormatError."""
    index.validate()
    Path(file).parent.mkdir(parents=True, exist_ok=True)
    lines = ['<?xml version="1.0" encoding="UTF-8"?>']
    lines.append(
        f"<index case={quoteattr(index.case_name)}"
        f" version={quoteattr(index.case_version)}"
        f" mode={quoteattr(index.mode)} kind={quoteattr(index.kind)}>"
    )
    for entry in index.entries:
        if not entry.classes:
            lines.append(f"  <file path={quoteattr(entry.path)}/>")
            continue
        lines.append(f"  <file path={quoteattr(entry.path)}>")
        for wc, anns in entry.classes:
            if not anns:
                lines.append(
                    f"    <class kind={quoteattr(wc.kind)} id={quoteattr(wc.id)}/>")
                continue
            lines.append(
                f"    <class kind={quoteattr(wc.kind)} id={quoteattr(wc.id)}>")
            for ann in anns:
                lines.append(f"      {_ann_xml(ann)}")
            lines.append("    </class>")
        lines.append("  </file>")
    lines.append("</index>")
    Path(file).write_bytes(("\n".join(lines) + "\n").encode("utf-8"))


def _ann_xml(ann: Annotation) -> str:
    attrs = []
    if ann.lines:
        attrs.append(f"line={quoteattr(' '.join(str(n) for n in ann.lines))}")
    if ann.byte_offset is not None:
        attrs.append(f"offset={quoteattr(str(ann.byte_offset))}")
    if ann.issue_kind is not None:
        attrs.append(f"issue={quoteattr(ann.issue_kind)}")
    head = "<ann" + ("" if not attrs else " " + " ".join(attrs))
    if not ann.fragment:  # "" reads back as no text, so it is written as none
        return head + "/>"
    # a raw CR would read back as LF (XML end-of-line handling)
    return head + ">" + escape(ann.fragment, {"\r": "&#13;"}) + "</ann>"


def load_index(file) -> TestCaseIndex:
    """Parse an index file, enforcing the schema and all invariants."""
    try:
        tree = ElementTree.parse(file)
    except ElementTree.ParseError as exc:
        raise IndexFormatError(f"{file}: not well-formed XML: {exc}") from exc
    root = tree.getroot()
    if root.tag != "index":
        raise IndexFormatError(f"{file}: root element is <{root.tag}>, not <index>")
    entries = []
    for file_el in root:
        if file_el.tag != "file":
            raise IndexFormatError(f"{file}: unexpected element <{file_el.tag}>")
        path = file_el.get("path")
        if not path:
            raise IndexFormatError(f"{file}: <file> without a path")
        classes = []
        for class_el in file_el:
            if class_el.tag != "class":
                raise IndexFormatError(
                    f"{file}: unexpected element <{class_el.tag}> in {path!r}")
            try:
                wc = WeaknessClass(class_el.get("kind", ""), class_el.get("id", ""))
            except ValueError as exc:
                raise IndexFormatError(f"{file}: entry {path!r}: {exc}") from exc
            anns = []
            for ann_el in class_el:
                if ann_el.tag != "ann":
                    raise IndexFormatError(
                        f"{file}: unexpected element <{ann_el.tag}> in {path!r}")
                anns.append(_parse_ann(ann_el, path, file))
            classes.append((wc, anns))
        try:
            entries.append(IndexEntry(path, classes))
        except ValueError as exc:
            raise IndexFormatError(f"{file}: {exc}") from exc
    try:
        return TestCaseIndex(root.get("case", ""), root.get("version", ""), entries,
                             root.get("mode", "test"), root.get("kind", "source"))
    except ValueError as exc:
        raise IndexFormatError(f"{file}: {exc}") from exc


def _parse_ann(ann_el, path: str, file) -> Annotation:
    line_attr, offset = ann_el.get("line"), ann_el.get("offset")
    try:
        return Annotation(
            lines=tuple(int(v) for v in line_attr.split()) if line_attr else (),
            fragment=ann_el.text or None, issue_kind=ann_el.get("issue"),
            byte_offset=None if offset is None else int(offset),
        )
    except ValueError as exc:
        raise IndexFormatError(f"{file}: entry {path!r}: {exc}") from exc
