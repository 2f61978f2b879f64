import os
import re
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from codewave.errors import ConfigError, IndexFormatError
from codewave.index import (ISSUE_KINDS, Annotation, IndexEntry, WeaknessClass,
                            annotate_synthetic, check_corpus_path, collect_files,
                            derive_binary_index, halve_training, load_index,
                            write_index)
from codewave.index import TestCaseIndex as CaseIndex

# the Char production of XML 1.0, spelt out here rather than taken from the
# program's own pattern, with the characters markup must escape made common
XML_CHAR = (st.sampled_from("\t\n\r&<>\"'")
            | st.characters(min_codepoint=0x20, max_codepoint=0xD7FF)
            | st.characters(min_codepoint=0xE000, max_codepoint=0xFFFD)
            | st.characters(min_codepoint=0x10000))
NOT_XML_CHAR = (st.characters(max_codepoint=0x1F).filter(lambda c: c not in "\t\n\r")
                | st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF,
                                categories=("Cs",))
                | st.sampled_from("\ufffe\uffff"))
XML_TEXT = st.text(XML_CHAR, max_size=8)
PATHS = st.text(XML_CHAR, min_size=1, max_size=8).filter(
    lambda p: not p.startswith("/") and ".." not in p.split("/"))
CLASSES = st.sampled_from([WeaknessClass.cve("CVE-2009-2562"), WeaknessClass.cwe("CWE-119"),
                           WeaknessClass.cwe("NVD-CWE-noinfo")])
DOC = Path(__file__).resolve().parents[1] / "docs" / "index-format.md"


def make_entry(path, class_ids=(), kind="cwe", anns=()):
    classes = [(WeaknessClass(kind, cid), list(anns)) for cid in class_ids]
    return IndexEntry(path, classes)


class TestWeaknessClass:
    def test_valid_ids(self):
        WeaknessClass.cve("CVE-2009-2562")
        WeaknessClass.cwe("CWE-119")
        WeaknessClass.cwe("NVD-CWE-Other")
        WeaknessClass.cwe("NVD-CWE-noinfo")

    @pytest.mark.parametrize("kind,cid", [
        ("cve", "CVE-09-1"), ("cve", "CWE-119"), ("cwe", "CWE-"),
        ("cwe", "bogus"), ("cve", ""),
    ])
    def test_malformed_ids(self, kind, cid):
        with pytest.raises(ValueError):
            WeaknessClass(kind, cid)


class TestCollectFiles:
    def test_extension_filter(self, tmp_path):
        (tmp_path / "a.c").write_bytes(b"x")
        (tmp_path / "b.java").write_bytes(b"y")
        index = collect_files(tmp_path, [".c"])
        assert [e.path for e in index.entries] == ["a.c"]
        assert index.mode == "test"
        assert all(not e.classes for e in index.entries)

    def test_empty_dir(self, tmp_path):
        assert collect_files(tmp_path, [".c"]).entries == []

    def test_sorted_output(self, tmp_path):
        for name in ("z.c", "a.c", "m/q.c"):
            target = tmp_path / name
            target.parent.mkdir(exist_ok=True)
            target.write_bytes(b"x")
        index = collect_files(tmp_path, [".c"])
        assert [e.path for e in index.entries] == ["a.c", "m/q.c", "z.c"]

    def test_unreadable_root(self, tmp_path):
        with pytest.raises(IOError):
            collect_files(tmp_path / "absent", [".c"])

    def test_undecodable_file_name_refused(self, tmp_path):
        """A non-UTF-8 name comes back surrogate-escaped, which no index
        can be written with; collect_files names it instead."""
        with open(os.fsencode(tmp_path) + b"/caf\xe9.c", "wb"):
            pass
        with pytest.raises(ValueError, match=r"'caf\\udce9\.c'.*XML 1\.0"):
            collect_files(tmp_path, [".c"])


class TestAnnotateSynthetic:
    def test_direct_capture(self):
        index = CaseIndex("s", "1", [make_entry("CWE119/test1.c")])
        out = annotate_synthetic(index, r"CWE(\d+)")
        assert out.entries[0].class_set() == {WeaknessClass.cwe("CWE-119")}

    def test_no_match_unchanged(self):
        index = CaseIndex("s", "1", [make_entry("misc/util.c")])
        out = annotate_synthetic(index, r"CWE(\d+)")
        assert out.entries[0].classes == []

    def test_pattern_without_group(self):
        index = CaseIndex("s", "1", [make_entry("CWE119/x.c")])
        with pytest.raises(ConfigError):
            annotate_synthetic(index, r"CWE\d+")

    def test_count_preserved(self):
        entries = [make_entry(f"CWE{n}/f.c") for n in (20, 79, 119)]
        entries += [make_entry("other/f.c")]
        out = annotate_synthetic(CaseIndex("s", "1", entries), r"CWE(\d+)")
        assert len(out.entries) == 4
        assert sum(1 for e in out.entries if e.classes) == 3

    def test_synthetic_tree_at_scale(self):
        # ~60K files over 118 weakness ids, the size of a full synthetic tree
        entries = [make_entry(f"CWE{20 + (i % 118)}/case{i:05d}.c")
                   for i in range(60_000)]
        out = annotate_synthetic(CaseIndex("synthetic", "1", entries),
                                 r"CWE(\d+)/")
        assert len(out.entries) == 60_000
        assert all(e.classes for e in out.entries)
        assert len(out.all_classes()) == 118


class TestPersistence:
    def roundtrip(self, index, tmp_path):
        target = tmp_path / "index.xml"
        write_index(index, target)
        return load_index(target)

    def test_roundtrip_identity(self, tmp_path):
        ann = Annotation(lines=(10, 12), fragment="memcpy(dst, src, n)",
                         issue_kind="sink", byte_offset=120)
        index = CaseIndex(
            "wireshark", "1.2.0",
            [IndexEntry("a.c", [(WeaknessClass.cve("CVE-2009-2562"), [ann]),
                                (WeaknessClass.cwe("CWE-119"), [])]),
             IndexEntry("b.c", [])],
            mode="test")
        assert self.roundtrip(index, tmp_path) == index

    def test_roundtrip_is_byte_stable(self, tmp_path):
        index = CaseIndex(
            "case", "2", [make_entry("a.c", ["CWE-119"])], mode="train")
        first = tmp_path / "one.xml"
        second = tmp_path / "two.xml"
        write_index(index, first)
        write_index(load_index(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_duplicate_paths_rejected(self, tmp_path):
        target = tmp_path / "dup.xml"
        target.write_text(
            '<index case="c" version="1" mode="test" kind="source">'
            '<file path="a.c"/><file path="a.c"/></index>')
        with pytest.raises(IndexFormatError, match="a.c"):
            load_index(target)

    def test_train_mode_requires_classes(self, tmp_path):
        target = tmp_path / "train.xml"
        target.write_text(
            '<index case="c" version="1" mode="train" kind="source">'
            '<file path="a.c"/></index>')
        with pytest.raises(IndexFormatError, match="no class"):
            load_index(target)

    @pytest.mark.parametrize("path", ["/etc/passwd", "../a.c", "d/../../a.c",
                                      "..", "d/.."])
    def test_path_outside_the_root_rejected(self, tmp_path, path):
        with pytest.raises(ValueError, match="corpus root"):
            IndexEntry(path)
        target = tmp_path / "escape.xml"
        target.write_text(
            '<index case="c" version="1" mode="test" kind="source">'
            f'<file path="{path}"/></index>')
        with pytest.raises(IndexFormatError, match="escape.xml.*corpus root"):
            load_index(target)

    @pytest.mark.parametrize("path", ["a\x01b.c", "nul\x00.c", "esc\x1b.c",
                                      "caf\udce9.c", "\ufffe.c"])
    def test_path_xml_cannot_carry_rejected(self, path):
        with pytest.raises(ValueError, match=f"{re.escape(repr(path))}.*XML 1\\.0"):
            check_corpus_path(path)

    def test_paths_xml_can_carry_roundtrip(self, tmp_path):
        index = CaseIndex("c", "1", [IndexEntry(path) for path in (
            "tab\tname.c", "caf\xe9.c", "\u6f22\u5b57.c", "\U0001f600.c", "\ue000.c")])
        assert self.roundtrip(index, tmp_path) == index

    def test_dotted_names_under_the_root_accepted(self):
        for path in ("a..c", ".hidden/x.c", "./a.c", "d/..e/f.c"):
            assert IndexEntry(path).path == path

    def test_escaped_characters_roundtrip(self, tmp_path):
        ann = Annotation(fragment='if (a < b && c == "x")')
        index = CaseIndex(
            'quotes "&" case', "1.0",
            [IndexEntry('dir with space/<odd>&name.c',
                        [(WeaknessClass.cwe("CWE-20"), [ann])])])
        assert self.roundtrip(index, tmp_path) == index

    def test_binary_index_rejects_lines(self, tmp_path):
        target = tmp_path / "bin.xml"
        target.write_text(
            '<index case="c" version="1" mode="test" kind="binary">'
            '<file path="a.o"><class kind="cwe" id="CWE-119">'
            '<ann line="3"/></class></file></index>')
        with pytest.raises(IndexFormatError, match="binary"):
            load_index(target)

    @pytest.mark.parametrize("mode,kind,ann,message", [
        ("test", "object", "", "unknown index kind 'object'"),
        ("bogus", "source", "", "unknown index mode 'bogus'"),
        ("test", "source", '<ann line="x"/>',
         "entry 'a.o': invalid literal for int() with base 10: 'x'"),
        ("test", "binary", '<ann line="3"/>',
         "entry 'a.o': binary index carries source annotations"),
        ("test", "binary", "<ann>x</ann>",
         "entry 'a.o': binary index carries source annotations")])
    def test_load_errors_name_the_file(self, tmp_path, mode, kind, ann, message):
        target = tmp_path / "bin.xml"
        target.write_text(
            f'<index case="c" version="1" mode="{mode}" kind="{kind}">'
            f'<file path="a.o"><class kind="cwe" id="CWE-119">{ann}'
            '</class></file></index>')
        with pytest.raises(IndexFormatError) as info:
            load_index(target)
        assert str(info.value) == f"{target}: {message}"

    def test_binary_index_refuses_source_annotations_when_built(self):
        for ann in (Annotation(lines=(3,)), Annotation(fragment="x"),
                    Annotation(fragment="")):
            entry = IndexEntry("a.o", [(WeaknessClass.cwe("CWE-119"), [ann])])
            with pytest.raises(IndexFormatError, match="binary index carries"):
                CaseIndex("c", "1", [entry], kind="binary")

    def test_empty_binary_index_keeps_its_kind(self, tmp_path):
        dropped_all = derive_binary_index(CaseIndex("c", "1", [make_entry("README")]),
                                          {".c": ".o"})
        assert self.roundtrip(dropped_all, tmp_path).kind == "binary"

    def test_write_refuses_an_index_broken_after_it_was_built(self, tmp_path):
        index = CaseIndex("c", "1", [make_entry("a.c", ["CWE-119"])], mode="train")
        index.entries.append(IndexEntry("b.c"))
        target = tmp_path / "broken.xml"
        with pytest.raises(IndexFormatError, match="'b.c' carries no class"):
            write_index(index, target)
        assert not target.exists()

    @pytest.mark.parametrize("fragment,written", [
        ("x\r\ny", "<ann>x&#13;\ny</ann>"), ("", "<ann/>"), (" ", "<ann> </ann>")])
    def test_fragment_text_reads_back_as_written(self, tmp_path, fragment, written):
        index = CaseIndex("c", "1", [make_entry(
            "a.c", ["CWE-119"], anns=[Annotation(fragment=fragment)])])
        target = tmp_path / "index.xml"
        write_index(index, target)
        assert written in target.read_text(encoding="utf-8")
        [(_, [ann])] = load_index(target).entries[0].classes
        assert ann.fragment == (fragment or None)

    def test_documented_example_reads_back_byte_identical(self, tmp_path):
        """The docs' example is a valid index in the writer's exact layout."""
        [block] = re.findall(r"```xml\n(.*?)```", DOC.read_text(encoding="utf-8"),
                             re.DOTALL)
        source, target = tmp_path / "doc.xml", tmp_path / "again.xml"
        source.write_bytes(block.encode("utf-8"))
        write_index(load_index(source), target)
        assert target.read_bytes() == source.read_bytes()


@st.composite
def indexes(draw):
    """Any index the types let one build: both modes and kinds, up to six
    entries, and the annotations the kind allows."""
    mode = draw(st.sampled_from(("train", "test")))
    kind = draw(st.sampled_from(("source", "binary")))
    source = kind == "source"
    anns = st.builds(
        Annotation,
        lines=st.lists(st.integers(1, 2**40), max_size=3).map(tuple) if source
        else st.just(()),
        fragment=st.none() | XML_TEXT if source else st.none(),
        issue_kind=st.none() | st.sampled_from(ISSUE_KINDS),
        byte_offset=st.none() | st.integers(0, 2**64))
    classes = st.lists(st.tuples(CLASSES, st.lists(anns, max_size=2)),
                       min_size=mode == "train", max_size=3, unique_by=lambda c: c[0])
    entries = [IndexEntry(path, draw(classes))
               for path in draw(st.lists(PATHS, max_size=6, unique=True))]
    return CaseIndex(draw(XML_TEXT), draw(XML_TEXT), entries, mode, kind)


@settings(deadline=None, max_examples=100)
@given(indexes())
@example(CaseIndex("", "", [make_entry("a.c", ["CWE-119"], anns=[
    Annotation(fragment="x\r\ny"), Annotation(fragment="")])]))
@example(CaseIndex("c", "1", kind="binary"))
def test_index_write_load_write_is_byte_stable(index):
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "one.xml"), Path(tmp, "two.xml")
        write_index(index, first)
        loaded = load_index(first)
        write_index(loaded, second)
        assert second.read_bytes() == first.read_bytes()
    # and nothing is lost on the way: an empty fragment is the one text read as none
    assert loaded == replace(index, entries=[
        replace(e, classes=[(wc, [replace(a, fragment=a.fragment or None) for a in anns])
                            for wc, anns in e.classes]) for e in index.entries])


@settings(deadline=None, max_examples=100)
@given(XML_TEXT, NOT_XML_CHAR, XML_TEXT,
       st.sampled_from(["case", "version", "fragment", "path"]))
def test_text_xml_cannot_carry_is_refused_when_built(before, bad, after, where):
    text = before + bad + after
    with tempfile.TemporaryDirectory() as tmp:
        target = Path(tmp, "index.xml")
        with pytest.raises(ValueError, match="XML 1.0 cannot carry"):
            write_index(CaseIndex(
                text if where == "case" else "c",
                text if where == "version" else "1",
                [IndexEntry(text if where == "path" else "a.c", [(
                    WeaknessClass.cwe("CWE-119"),
                    [Annotation(fragment=text if where == "fragment" else None)])])]),
                target)
        assert not target.exists()


class TestDeriveBinary:
    MAPPING = {".java": ".class", ".c": ".o"}

    def test_java_entry(self):
        ann = Annotation(lines=(10,), fragment="x")
        index = CaseIndex(
            "c", "1", [IndexEntry("a.java",
                                  [(WeaknessClass.cwe("CWE-119"), [ann])])])
        out = derive_binary_index(index, self.MAPPING)
        entry = out.entries[0]
        assert entry.path == "a.class"
        assert out.kind == "binary"
        wc, anns = entry.classes[0]
        assert anns[0].lines == () and anns[0].fragment is None

    def test_unmapped_dropped(self):
        index = CaseIndex("c", "1", [make_entry("README")])
        assert derive_binary_index(index, self.MAPPING).entries == []

    def test_empty_index(self):
        index = CaseIndex("c", "1", [])
        assert derive_binary_index(index, self.MAPPING).entries == []

    def test_never_emits_source_annotations(self):
        anns = [Annotation(lines=(5, 9), fragment="frag", issue_kind="fix"),
                Annotation(byte_offset=44)]
        index = CaseIndex(
            "c", "1",
            [IndexEntry("x.c", [(WeaknessClass.cwe("CWE-20"), anns)])])
        out = derive_binary_index(index, self.MAPPING)
        for _, out_anns in out.entries[0].classes:
            for ann in out_anns:
                assert ann.lines == ()
                assert ann.fragment is None


class TestHalveTraining:
    def build(self, n):
        return CaseIndex(
            "c", "1", [make_entry(f"f{i:02d}.c", ["CWE-119"]) for i in range(n)],
            mode="train")

    def test_ten_entries(self):
        out = halve_training(self.build(10))
        assert [e.path for e in out.entries] == [f"f{i:02d}.c" for i in range(5)]

    def test_single_entry_kept(self):
        assert len(halve_training(self.build(1)).entries) == 1

    def test_ceiling_rule_composes(self):
        index = self.build(11)
        once = halve_training(index)          # ceil(11/2) = 6
        twice = halve_training(once)          # ceil(6/2) = 3
        assert (len(once.entries), len(twice.entries)) == (6, 3)

    def test_requires_train_mode(self):
        index = CaseIndex("c", "1", [make_entry("a.c")], mode="test")
        with pytest.raises(ConfigError):
            halve_training(index)

    def test_dropped_class_vanishes(self):
        entries = [make_entry("a.c", ["CWE-20"]), make_entry("b.c", ["CWE-20"]),
                   make_entry("c.c", ["CWE-399"]), make_entry("d.c", ["CWE-399"])]
        index = CaseIndex("c", "1", entries, mode="train")
        out = halve_training(index)
        assert out.all_classes() == {WeaknessClass.cwe("CWE-20")}
