"""Unit tests for PDF serialization + parse/write round trips.

The ``diff``-marked tests at the end hold the literal-string
serialiser to the frozen per-byte one (``tests/pdf/writer_reference.py``).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.pdf import writer
from repro.pdf.objects import (
    PDFArray,
    PDFDict,
    PDFName,
    PDFNull,
    PDFRef,
    PDFStream,
    PDFString,
)
from repro.pdf.parser import parse_pdf
from repro.pdf.builder import DocumentBuilder
from repro.pdf.document import PDFDocument
from repro.pdf.writer import serialize_value
from tests.pdf import writer_reference


class TestSerializeValue:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (True, b"true"),
            (False, b"false"),
            (42, b"42"),
            (-7, b"-7"),
            (1.5, b"1.5"),
            (PDFNull, b"null"),
            (PDFRef(3, 0), b"3 0 R"),
        ],
    )
    def test_scalars(self, value, expected):
        assert serialize_value(value) == expected

    def test_float_trailing_zeros_trimmed(self):
        assert serialize_value(2.0) == b"2"

    def test_name_preserves_raw_spelling(self):
        name = PDFName.from_raw("JavaScr#69pt")
        assert serialize_value(name) == b"/JavaScr#69pt"

    def test_string_escaping(self):
        out = serialize_value(PDFString(b"a(b)\\c\nd"))
        assert out == b"(a\\(b\\)\\\\c\\nd)"

    def test_hex_string_form(self):
        assert serialize_value(PDFString(b"\x01\xab", hex_form=True)) == b"<01AB>"

    def test_binary_bytes_escaped_octal(self):
        out = serialize_value(PDFString(b"\x00\xff"))
        assert out == b"(\\000\\377)"

    def test_array(self):
        out = serialize_value(PDFArray([1, PDFName("A"), PDFNull]))
        assert out == b"[1 /A null]"

    def test_dict(self):
        out = serialize_value(PDFDict({PDFName("K"): 1}))
        assert out == b"<< /K 1 >>"

    def test_stream_length_updated(self):
        stream = PDFStream(PDFDict(), b"12345")
        out = serialize_value(stream)
        assert b"/Length 5" in out
        assert b"stream\n12345\nendstream" in out

    def test_unserializable_raises(self):
        with pytest.raises(TypeError):
            serialize_value(object())


class TestRoundTrip:
    def test_simple_roundtrip(self):
        builder = DocumentBuilder()
        builder.add_page("round trip")
        data = builder.to_bytes()
        doc = PDFDocument.from_bytes(data)
        again = PDFDocument.from_bytes(doc.to_bytes())
        assert again.page_count == 1

    def test_javascript_survives_roundtrip(self):
        builder = DocumentBuilder()
        builder.add_page("x")
        code = "var s = 'quote\\'s and \"doubles\" and \\\\slashes';"
        builder.add_javascript(code)
        doc = PDFDocument.from_bytes(builder.to_bytes())
        doc2 = PDFDocument.from_bytes(doc.to_bytes())
        (action,) = list(doc2.iter_javascript_actions())
        assert doc2.get_javascript_code(action) == code

    def test_stream_javascript_roundtrip(self):
        builder = DocumentBuilder()
        builder.add_page("x")
        builder.add_javascript("var deep = 1;", encoding_levels=3)
        doc = PDFDocument.from_bytes(builder.to_bytes())
        (action,) = list(doc.iter_javascript_actions())
        assert doc.get_javascript_code(action) == "var deep = 1;"

    def test_header_prefix_written(self):
        builder = DocumentBuilder()
        builder.add_page("x")
        builder.obfuscate_header(displace=32)
        data = builder.to_bytes()
        assert not data.startswith(b"%PDF")
        parsed = parse_pdf(data)
        assert parsed.header.present

    def test_version_override_written(self):
        builder = DocumentBuilder()
        builder.add_page("x")
        builder.obfuscate_header(version_text="9.9")
        assert b"%PDF-9.9" in builder.to_bytes()

    def test_xref_offsets_are_correct(self):
        data = DocumentBuilder().to_bytes()
        parsed = parse_pdf(data)
        assert not parsed.used_recovery_scan

    def test_double_roundtrip_stable_object_count(self):
        builder = DocumentBuilder()
        builder.add_page("stable")
        builder.add_javascript("var a = 1;")
        one = PDFDocument.from_bytes(builder.to_bytes())
        two = PDFDocument.from_bytes(one.to_bytes())
        assert one.object_count() == two.object_count()


# -- the serialiser oracle ------------------------------------------------------


def _special_bytes():
    return st.binary(max_size=200) | st.lists(
        st.sampled_from([0, 9, 10, 13, 31, 32, 40, 41, 65, 92, 126, 127, 128, 254, 255]),
        max_size=60,
    ).map(bytes)


@pytest.mark.diff
@given(_special_bytes(), st.booleans())
@settings(max_examples=1500, deadline=None)
def test_string_serialiser_matches_the_reference(data, hex_form):
    value = PDFString(data, hex_form=hex_form)
    assert writer._serialize_string(value) == writer_reference.serialize_string(value)


@pytest.mark.diff
@pytest.mark.parametrize("corpus", ["golden", "mixed", "obfuscated", "table_x_js"])
def test_string_serialiser_matches_the_reference_on_every_protected_corpus(corpus, monkeypatch):
    """Every string Phase I writes for a corpus (the scripts' wrappers
    included) comes out as the per-byte serialiser wrote it."""
    from repro.core.pipeline import ProtectionPipeline
    from tests.pdf.test_parser_oracle import CORPORA

    serialize = writer._serialize_string
    seen = []

    def checked(value):
        written = serialize(value)
        assert written == writer_reference.serialize_string(value), bytes(value)[:80]
        seen.append(value)
        return written

    monkeypatch.setattr(writer, "_serialize_string", checked)
    for name, data in CORPORA[corpus]():
        try:
            ProtectionPipeline(seed=1301).protect(data, name)
        except Exception:  # noqa: BLE001 - a malformed document may not parse
            continue
    assert seen
