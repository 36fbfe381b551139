"""Property-based tests (hypothesis) for the PDF substrate."""

import string

from hypothesis import given, settings, strategies as st

from repro.pdf import filters
from repro.pdf.lexer import Lexer, TokenType
from repro.pdf.objects import (
    PDFArray,
    PDFDict,
    PDFName,
    PDFNull,
    PDFRef,
    PDFString,
)
from repro.pdf.writer import serialize_value


binary = st.binary(max_size=2048)


@given(binary)
def test_flate_roundtrip(data):
    assert filters.flate_decode(filters.flate_encode(data)) == data


@given(binary)
def test_ascii_hex_roundtrip(data):
    assert filters.ascii_hex_decode(filters.ascii_hex_encode(data)) == data


@given(binary)
def test_ascii85_roundtrip(data):
    assert filters.ascii85_decode(filters.ascii85_encode(data)) == data


@given(binary)
def test_run_length_roundtrip(data):
    assert filters.run_length_decode(filters.run_length_encode(data)) == data


@given(st.binary(max_size=1024))
@settings(max_examples=30)
def test_lzw_roundtrip(data):
    assert filters.lzw_decode(filters.lzw_encode(data)) == data


@given(binary, st.integers(min_value=0, max_value=4))
@settings(max_examples=30)
def test_cascade_roundtrip(data, levels):
    names = filters.cascade_names(levels)
    encoded = filters.encode_cascade(data, names)
    for name in names:
        encoded = filters.decode(name, encoded)
    assert encoded == data


name_text = st.text(
    alphabet=string.ascii_letters + string.digits + "-_.#()<>/ ",
    min_size=1,
    max_size=24,
)


@given(name_text)
def test_name_raw_roundtrip(decoded):
    """encode_default → from_raw is the identity on decoded names."""
    name = PDFName(decoded)
    assert PDFName.from_raw(name.raw) == decoded


# Recursive strategy for arbitrary PDF values.
pdf_scalar = st.one_of(
    st.booleans(),
    st.integers(min_value=-10**9, max_value=10**9),
    st.just(PDFNull),
    st.builds(PDFString, st.binary(max_size=64)),
    st.builds(
        PDFString, st.binary(max_size=64), st.just(True)
    ),  # hex form
    st.builds(PDFName, name_text),
    st.builds(PDFRef, st.integers(1, 9999), st.integers(0, 5)),
)

pdf_value = st.recursive(
    pdf_scalar,
    lambda children: st.one_of(
        st.lists(children, max_size=5).map(PDFArray),
        st.dictionaries(
            st.builds(PDFName, name_text), children, max_size=5
        ).map(PDFDict),
    ),
    max_leaves=20,
)


def _normalize(value):
    """Equality modulo float/int representation and name spelling."""
    if isinstance(value, PDFName):
        return ("name", str(value))
    if isinstance(value, PDFString):
        return ("string", bytes(value))
    if isinstance(value, bool):
        return ("bool", value)
    if isinstance(value, (int, float)):
        return ("number", float(value))
    if isinstance(value, PDFRef):
        return ("ref", value.num, value.gen)
    if isinstance(value, PDFArray):
        return ("array", tuple(_normalize(v) for v in value))
    if isinstance(value, PDFDict):
        return (
            "dict",
            tuple(sorted((str(k), _normalize(v)) for k, v in value.items())),
        )
    return ("null",)


@given(pdf_value)
@settings(max_examples=120)
def test_serialize_parse_roundtrip(value):
    """Any PDF value survives serialize → tokenize/parse."""
    from repro.pdf.parser import PDFParser

    data = serialize_value(value)
    parser = PDFParser(b"%PDF-1.4\n1 0 obj null endobj\n")
    lexer = Lexer(data)
    parsed = parser._parse_value(lexer)
    assert _normalize(parsed) == _normalize(value)
    assert lexer.next_token().type is TokenType.EOF


@given(pdf_value)
@settings(max_examples=150)
def test_lexers_agree_token_for_token(value):
    """The fast lexer and the frozen pre-optimisation reference emit
    identical ``(type, value, pos)`` streams on valid input.

    Tolerance divergences (the reference raises where the fast lexer
    warns) cannot appear here because serialized values are well-formed
    by construction.
    """
    from tests.pdf.lexer_reference import ReferenceLexer

    data = serialize_value(value)
    fast, ref = Lexer(data), ReferenceLexer(data)
    while True:
        a = fast.next_token()
        b = ref.next_token()
        assert (a.type, a.value, a.pos) == (b.type, b.value, b.pos)
        if a.type is TokenType.EOF:
            break
    assert not fast.warnings


@given(st.lists(pdf_value, min_size=1, max_size=4))
@settings(max_examples=60)
def test_lexers_agree_on_object_syntax(values):
    """Same equivalence over full ``N G obj ... endobj`` sequences,
    which also exercises keyword and integer-pair scanning."""
    from tests.pdf.lexer_reference import ReferenceLexer

    parts = []
    for num, value in enumerate(values, start=1):
        parts.append(b"%d 0 obj " % num)
        parts.append(serialize_value(value))
        parts.append(b" endobj\n")
    data = b"".join(parts)
    fast, ref = Lexer(data), ReferenceLexer(data)
    while True:
        a = fast.next_token()
        b = ref.next_token()
        assert (a.type, a.value, a.pos) == (b.type, b.value, b.pos)
        if a.type is TokenType.EOF:
            break
