import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codewave.engine import RunStats, ScanWarning, StatsRow
from codewave.errors import IndexFormatError
from codewave.index import WeaknessClass
from codewave.report import (CaseMeta, export_forensic_lucid, export_sate_xml,
                             export_spectrogram, export_stats_table,
                             export_wave_image, parse_sate_xml,
                             report_filename)

from .oracles import naive_dft

CVE = WeaknessClass.cve("CVE-2009-2562")
CWE = WeaknessClass.cwe("CWE-119")
META = CaseMeta("wireshark", "1.2.0", "-nopreprep -low -fft -cheb")
# text XML 1.0 can carry, with the characters an attribute must escape
XML_TEXT = st.text(st.characters(exclude_categories=("Cc", "Cs", "Cn"))
                   | st.sampled_from("\t\n\r&<>\"'"), max_size=10)
REPORT_CLASSES = st.sampled_from([CVE, CWE, WeaknessClass.cwe("NVD-CWE-Other")])


def warning(path="epan/packet-afs.c", wc=CVE, score=0.0425, second=CWE):
    return ScanWarning(path=path, weakness=wc, score=score, rank=1,
                       second_guess=second)


class TestSateXml:
    def test_empty_report_is_valid(self):
        parsed, meta = parse_sate_xml(export_sate_xml([], META))
        assert parsed == []
        assert meta == META

    def test_single_warning(self):
        parsed, _ = parse_sate_xml(export_sate_xml([warning()], META))
        assert parsed[0].path == "epan/packet-afs.c"
        assert parsed[0].weakness == CVE
        assert parsed[0].score == pytest.approx(0.0425)
        assert parsed[0].second_guess == CWE

    def test_export_parse_export_byte_stable(self):
        warnings = [warning(), warning(path="a.c", wc=CWE, second=None,
                                       score=1.25)]
        first = export_sate_xml(warnings, META)
        second = export_sate_xml(parse_sate_xml(first)[0], META)
        assert first == second

    def test_ordering_is_by_path(self):
        warnings = [warning(path="z.c"), warning(path="a.c")]
        doc = export_sate_xml(warnings, META)
        assert doc.index('path="a.c"') < doc.index('path="z.c"')

    def test_fixed_notation_scores(self):
        doc = export_sate_xml([warning(score=1234.5)], META)
        assert "1234.500000" in doc
        assert "E+" not in doc and "e+" not in doc

    def test_timestamp_only_when_asked(self):
        plain = export_sate_xml([], META)
        stamped = export_sate_xml([], META, timestamp="2012-03-01T00:00:00Z")
        assert "generated" not in plain
        assert "<!-- generated 2012-03-01T00:00:00Z -->" in stamped
        # the stamp lives in a comment, so parsing is unaffected
        assert parse_sate_xml(stamped)[1] == META

    def test_validate_rejects_garbage(self):
        with pytest.raises(IndexFormatError):
            parse_sate_xml("<report><oops/></report>")
        with pytest.raises(IndexFormatError):
            parse_sate_xml("not xml at all")

    @pytest.mark.parametrize("attributes", [
        'score="inf"', 'score="nan"', 'score="abc"', 'score="1" rank="0"',
        'score="1" rank="x"'])
    def test_bad_score_or_rank_names_the_path(self, attributes):
        doc = (f'<report><warning path="src/a.c" {attributes}>'
               '<class kind="cwe" id="CWE-20"/></warning></report>')
        with pytest.raises(IndexFormatError, match="'src/a.c'"):
            parse_sate_xml(doc)

    def test_warning_without_a_path_refused(self):
        for path in ("", ' path=""'):
            doc = (f'<report><warning{path} score="1">'
                   '<class kind="cwe" id="CWE-20"/></warning></report>')
            with pytest.raises(IndexFormatError, match="warning without a path"):
                parse_sate_xml(doc)

    def test_bad_class_names_the_path(self):
        doc = ('<report><warning path="src/a.c" score="1">'
               '<class kind="cwe" id="CWE-20"/><second kind="cwe" id="oops"/>'
               '</warning></report>')
        with pytest.raises(IndexFormatError, match="'src/a.c'.*oops"):
            parse_sate_xml(doc)

    @settings(deadline=None, max_examples=200)
    @given(st.lists(st.builds(ScanWarning, path=XML_TEXT.filter(bool),
                              weakness=REPORT_CLASSES,
                              score=st.floats(allow_nan=False, allow_infinity=False),
                              rank=st.integers(1, 3),
                              second_guess=st.none() | REPORT_CLASSES), max_size=6),
           st.builds(CaseMeta, XML_TEXT, XML_TEXT, XML_TEXT))
    def test_export_of_a_parsed_report_is_the_same_bytes(self, warnings, meta):
        doc = export_sate_xml(warnings, meta)
        assert export_sate_xml(*parse_sate_xml(doc)) == doc

    def test_filename_matches_compressed_config(self):
        meta = CaseMeta("wireshark", "1.2.0",
                        "-cweid -nopreprep -raw -fft -cheb")
        assert report_filename(meta, "xml") == \
            "report-cweidnoprepreprawfftcheb-wireshark-1.2.0.xml"


class TestForensicLucid:
    def test_empty_statement(self):
        text = export_forensic_lucid([], META)
        assert "evidential statement" in text
        assert "observation sequence" not in text

    def test_two_warnings_one_file_grouped(self):
        warnings = [
            ScanWarning("a.c", CVE, 0.1, rank=1),
            ScanWarning("a.c", CWE, 0.2, rank=2),
        ]
        text = export_forensic_lucid(warnings, META)
        assert text.count("observation sequence") == 1
        assert text.count("observation o_") == 2

    def test_context_fields_present(self):
        text = export_forensic_lucid([warning()], META)
        for needle in ('case:"wireshark"', 'path:"epan/packet-afs.c"',
                       'class:"CVE-2009-2562"', "score:0.042500", "rank:1"):
            assert needle in text

    def test_deterministic(self):
        warnings = [warning(path="b.c"), warning(path="a.c")]
        assert export_forensic_lucid(warnings, META) == \
            export_forensic_lucid(list(reversed(warnings)), META)

    def test_paths_that_read_alike_get_distinct_names(self):
        # "a/b.c" and "a_b.c" both read a_b_c with punctuation made "_"
        text = export_forensic_lucid([warning(path="a_b.c"), warning(path="a/b.c")],
                                     META)
        names = re.findall(r"^observation (?:sequence )?(\w+) =", text, re.M)
        assert sorted(names) == ["o_1_1", "o_2_1", "os_1", "os_2"]
        assert 'observation o_1_1 = ([case:"wireshark", path:"a/b.c",' in text
        assert 'observation o_2_1 = ([case:"wireshark", path:"a_b.c",' in text
        assert text.endswith(
            "evidential statement es_wireshark_1_2_0 = { os_1, os_2 };\n")


class TestStatsTable:
    def test_paper_row_prints_9024(self):
        stats = RunStats("first",
                         per_config=[StatsRow("-nopreprep -low -fft -cheb",
                                              37, 4)])
        table = export_stats_table([stats])
        assert "90.24" in table
        assert "1st" in table

    def test_empty_stats_header_only(self):
        table = export_stats_table([RunStats("first")])
        assert table.splitlines()[0].split() == \
            ["guess", "run", "algorithms", "good", "bad", "%"]
        assert len(table.splitlines()) == 1

    def test_rows_sorted_descending_within_block(self):
        stats = RunStats("first", per_config=[
            StatsRow("-a", 1, 9), StatsRow("-b", 9, 1), StatsRow("-c", 5, 5)])
        lines = export_stats_table([stats]).splitlines()[1:]
        assert [line.split()[2] for line in lines] == ["-b", "-c", "-a"]

    def test_by_class_block(self):
        stats = RunStats("second", per_class=[StatsRow("CWE-119", 2, 0)])
        table = export_stats_table([stats], by_class=True)
        assert "class" in table.splitlines()[0]
        assert "CWE-119" in table


def parse_pgm(data: bytes):
    assert data.startswith(b"P5\n")
    rest = data[3:]
    while rest.startswith(b"#"):
        rest = rest.split(b"\n", 1)[1]
    dims, maxval, raster = rest.split(b"\n", 2)
    width, height = map(int, dims.split())
    assert maxval == b"255"
    pixels = np.frombuffer(raster, dtype=np.uint8)
    assert len(pixels) == width * height
    return pixels.reshape(height, width)


class TestImages:
    def test_empty_signal_single_black_pixel(self):
        for exporter in (export_wave_image, export_spectrogram):
            pixels = parse_pgm(exporter(np.zeros(0)))
            assert pixels.shape == (1, 1)
            assert pixels[0, 0] == 0

    def test_zero_signal_black_spectrogram(self):
        pixels = parse_pgm(export_spectrogram(np.zeros(1024), 256))
        assert int(pixels.max()) == 0

    def test_spectrogram_dimensions_exact(self):
        sig = np.ones(1000)
        pixels = parse_pgm(export_spectrogram(sig, 256))
        assert pixels.shape == (128, 4)  # window/2 rows x num_windows cols

    def test_pure_tone_bright_band_at_oracle_bin(self):
        window = 128
        t = np.arange(window * 4)
        x = np.sin(2 * np.pi * 12 * t / window)
        pixels = parse_pgm(export_spectrogram(x, window))
        oracle_bin = int(np.argmax(np.abs(naive_dft(x[:window]))[: window // 2]))
        assert oracle_bin == 12
        row_energy = pixels.astype(int).sum(axis=1)
        assert int(np.argmax(row_energy)) == oracle_bin

    def test_nonzero_signal_hits_full_white(self):
        rng = np.random.default_rng(2)
        sig = rng.uniform(-1, 1, size=600)
        pixels = parse_pgm(export_spectrogram(sig, 128))
        assert int(pixels.max()) == 255

    def test_wave_image_column_count(self):
        sig = np.linspace(-1, 1, 300)
        pixels = parse_pgm(export_wave_image(sig, width=100, height=50))
        assert pixels.shape == (50, 100)
        assert int(pixels.max()) == 255

    def test_spectrogram_window_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            export_spectrogram(np.zeros(10), 100)
