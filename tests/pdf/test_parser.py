"""Unit tests for the PDF parser (xref, recovery, header, streams)."""

import pytest

from repro.pdf.builder import DocumentBuilder
from repro.pdf.objects import PDFDict, PDFName, PDFRef, PDFStream, PDFString
from repro.pdf.parser import PDFParseError, parse_pdf


def build_simple() -> bytes:
    builder = DocumentBuilder()
    builder.add_page("parser test")
    return builder.to_bytes()


class TestHeader:
    def test_clean_header(self):
        parsed = parse_pdf(build_simple())
        assert parsed.header.at_start
        assert parsed.header.version == (1, 4)
        assert not parsed.header.obfuscated

    def test_displaced_header_detected(self):
        builder = DocumentBuilder()
        builder.add_page("x")
        builder.obfuscate_header(displace=64)
        parsed = parse_pdf(builder.to_bytes())
        assert parsed.header.present
        assert not parsed.header.at_start
        assert parsed.header.obfuscated

    def test_invalid_version_detected(self):
        builder = DocumentBuilder()
        builder.add_page("x")
        builder.obfuscate_header(version_text="9.9")
        parsed = parse_pdf(builder.to_bytes())
        assert parsed.header.at_start
        assert not parsed.header.version_valid
        assert parsed.header.obfuscated

    def test_missing_header(self):
        data = build_simple()
        headerless = data.replace(b"%PDF-1.4\n", b"%ZZZ-0.0\n", 1)
        parsed = parse_pdf(headerless)
        assert not parsed.header.present
        assert parsed.header.obfuscated


class TestXref:
    def test_xref_parsed_without_recovery(self):
        parsed = parse_pdf(build_simple())
        assert not parsed.used_recovery_scan
        assert len(parsed.store) >= 4

    def test_trailer_root_found(self):
        parsed = parse_pdf(build_simple())
        assert str(parsed.root.get("Type")) == "Catalog"

    def test_broken_xref_falls_back_to_scan(self):
        data = build_simple()
        # corrupt the startxref offset
        broken = data.replace(b"startxref", b"startxrEF")
        parsed = parse_pdf(broken)
        assert parsed.used_recovery_scan
        assert str(parsed.root.get("Type")) == "Catalog"

    def test_bogus_xref_offset_recovers(self):
        data = build_simple()
        idx = data.rfind(b"startxref")
        end = data.find(b"%%EOF", idx)
        broken = data[:idx] + b"startxref\n999999999\n" + data[end:]
        parsed = parse_pdf(broken)
        assert str(parsed.root.get("Type")) == "Catalog"


class TestObjects:
    def test_stream_payload_extracted(self):
        parsed = parse_pdf(build_simple())
        streams = [o.value for o in parsed.store if isinstance(o.value, PDFStream)]
        assert streams
        assert any(b"Tj" in s.decoded_data() for s in streams)

    def test_lying_length_recovered(self):
        data = build_simple()
        # Sabotage the /Length of the content stream.
        sabotaged = data.replace(b"/Length", b"/Lengtq", 1)
        parsed = parse_pdf(sabotaged)
        streams = [o.value for o in parsed.store if isinstance(o.value, PDFStream)]
        assert any(b"Tj" in s.decoded_data() for s in streams)

    def test_indirect_reference_parsing(self):
        parsed = parse_pdf(build_simple())
        catalog = parsed.root
        assert isinstance(catalog.get("Pages"), PDFRef)

    def test_nested_containers(self):
        builder = DocumentBuilder()
        builder.add_page("x")
        builder.document.add_object(
            PDFDict({PDFName("Deep"): PDFDict({PDFName("List"): PDFString(b"v")})})
        )
        parsed = parse_pdf(builder.to_bytes())
        found = [
            o.value
            for o in parsed.store
            if isinstance(o.value, PDFDict) and "Deep" in o.value
        ]
        assert found

    def test_empty_document_raises(self):
        with pytest.raises(PDFParseError):
            parse_pdf(b"")

    def test_garbage_raises(self):
        with pytest.raises(PDFParseError):
            parse_pdf(b"%PDF-1.4\nthis is not a pdf at all")


class TestMalformedTolerance:
    def test_junk_between_objects(self):
        data = build_simple()
        junky = data.replace(b"endobj\n", b"endobj\n% junk comment\n", 1)
        parsed = parse_pdf(junky)
        assert str(parsed.root.get("Type")) == "Catalog"

    def test_no_trailer_catalog_inferred(self):
        # Hand-written minimal doc without trailer.
        body = (
            b"%PDF-1.4\n"
            b"1 0 obj\n<< /Type /Catalog >>\nendobj\n"
        )
        parsed = parse_pdf(body)
        assert str(parsed.root.get("Type")) == "Catalog"

    def test_hex_escaped_names_decoded(self):
        body = (
            b"%PDF-1.4\n"
            b"1 0 obj\n<< /Type /Catalog /OpenAction 2 0 R >>\nendobj\n"
            b"2 0 obj\n<< /S /JavaScr#69pt /#4a#53 (1+1) >>\nendobj\n"
        )
        parsed = parse_pdf(body)
        action = parsed.store.deep_resolve(PDFRef(2, 0))
        assert action.get("JS") == PDFString(b"1+1")
        assert str(action.get("S")) == "JavaScript"


class TestRecoveryFlag:
    def test_partial_xref_hidden_object_sets_flag(self):
        from tests.data import malformed

        # The xref parses fine (so the old "no xref object parsed"
        # condition never fired) but object 3 is reachable only through
        # the recovery scan.
        parsed = parse_pdf(malformed.partial_xref_hidden_object())
        assert parsed.used_recovery_scan
        hidden = parsed.store.deep_resolve(PDFRef(3, 0))
        assert hidden.get("Hidden") == PDFString(b"payload")

    def test_clean_document_flag_stays_clear(self):
        parsed = parse_pdf(build_simple())
        assert not parsed.used_recovery_scan

    def test_flag_propagates_to_document(self):
        from tests.data import malformed

        from repro.pdf.document import PDFDocument

        doc = PDFDocument.from_bytes(malformed.partial_xref_hidden_object())
        assert doc.used_recovery_scan
        clean = PDFDocument.from_bytes(build_simple())
        assert not clean.used_recovery_scan


class TestXrefClampWarning:
    def test_reports_file_offset_not_object_number(self):
        from tests.data import malformed

        data = malformed.huge_xref_count(50_000_000)
        parsed = parse_pdf(data)
        warning = next(w for w in parsed.warnings if "clamped" in w)
        # The subsection starts with object number 0; the old message
        # reported "at 0" no matter where the xref sat in the file.
        reported = int(warning.split("offset ")[1].split(" ")[0])
        xref_at = data.rfind(b"xref\n0 ")
        assert abs(reported - xref_at) <= len(b"xref\n")
        assert "first object 0" in warning


class TestLexerTolerancePropagation:
    def test_junk_numbers_object_survives(self):
        from tests.data import malformed

        parsed = parse_pdf(malformed.junk_numbers())
        obj = parsed.store.deep_resolve(PDFRef(3, 0))
        assert list(obj.get("V")) == [2, -3, 1]
        assert obj.get("S") == PDFString(b"payload")
        assert any("malformed number" in w for w in parsed.warnings)

    def test_bad_hex_digits_object_survives(self):
        from tests.data import malformed

        parsed = parse_pdf(malformed.bad_hex_digits())
        obj = parsed.store.deep_resolve(PDFRef(3, 0))
        assert obj.get("S") == PDFString(b"HEL")
        assert any("non-hex" in w for w in parsed.warnings)

    def test_backtracking_lookahead_does_not_duplicate_warnings(self):
        # The parser's N G R reference lookahead rewinds and re-lexes
        # junk after a number; the same defect must be recorded once.
        from tests.data import malformed

        parsed = parse_pdf(malformed.junk_numbers())
        tolerance = [w for w in parsed.warnings if "malformed number" in w]
        assert len(tolerance) == len(set(tolerance))


class TestRecoveryGapScan:
    def test_gaps_exclude_covered_spans(self):
        from repro.pdf.parser import PDFParser

        parser = PDFParser(build_simple())
        parser.parse()
        gaps = parser._recovery_gaps()
        covered = sorted(parser._covered)
        # No gap may overlap a covered span.
        for gap_start, gap_end in gaps:
            for lo, hi in covered:
                assert gap_end <= lo or gap_start >= hi

    def test_full_scan_when_disabled(self):
        # The whole-buffer scan survives only in the frozen oracle.
        from repro.pdf.parser import PDFParser
        from tests.pdf import parser_reference

        class FullScanParser(parser_reference.PDFParser):
            recovery_skips_covered = False

        data = build_simple()
        fast = PDFParser(data).parse()
        slow = FullScanParser(data).parse()
        assert set(fast.store.objects) == set(slow.store.objects)

    def test_hidden_object_in_gap_found(self):
        import re as _re

        data = build_simple()
        # Splice an uncatalogued object into the slack before the xref
        # and repair startxref so the xref still parses: the hidden
        # object then sits in a gap between covered spans, and the
        # gap-limited scan must still find it.
        idx = data.rfind(b"xref")
        splice = b"99 0 obj\n<< /X 1 >>\nendobj\n"
        spliced = data[:idx] + splice + data[idx:]
        spliced = _re.sub(
            rb"startxref\n\d+",
            b"startxref\n%d" % (idx + len(splice)),
            spliced,
        )
        parsed = parse_pdf(spliced)
        assert PDFRef(99, 0) in parsed.store
        assert parsed.used_recovery_scan
        # The xref itself was healthy: the catalog parsed from it.
        assert not any("bad xref" in w for w in parsed.warnings)
