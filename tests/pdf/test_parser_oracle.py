"""The PDF parser against the frozen token-at-a-time oracle.

``tests/pdf/parser_reference.py`` is :mod:`repro.pdf.parser` as it was
before values were read through one token regex.  Every test here
parses the same bytes with both and requires the same outcome: the
store (value types, raw name spellings, string ``hex_form``, stream
bytes, insertion order), the trailer, the header, the recovery flag,
every warning in order, or the same exception type and message.  The
old front end (the oracle with the reference lexer and a whole-buffer
recovery scan) must re-serialise the golden corpus and the Table X
tiers to the same bytes.

Run with ``pytest -m diff``.
"""

from __future__ import annotations

import time
from typing import Any, Callable, List, Tuple

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.pdf.builder import DocumentBuilder
from repro.pdf.lexer import MAX_LEXER_WARNINGS
from repro.pdf.objects import (
    PDFArray,
    PDFDict,
    PDFName,
    PDFNull,
    PDFRef,
    PDFStream,
    PDFString,
)
from repro.pdf.parser import PDFParser
from repro.pdf.writer import write_pdf
from tests.data import malformed
from tests.pdf import parser_reference
from tests.pdf.lexer_reference import ReferenceLexer

pytestmark = pytest.mark.diff


def _value(value: Any) -> Any:
    """A comparable image of a parsed value, down to spelling and order."""
    if isinstance(value, PDFStream):
        return ("stream", _value(value.dictionary), bytes(value.raw_data))
    if isinstance(value, PDFDict):
        return ("dict", tuple((_value(k), _value(v)) for k, v in value.items()))
    if isinstance(value, PDFArray):
        return ("array", tuple(_value(item) for item in value))
    if isinstance(value, PDFName):
        return ("name", str(value), value.raw)
    if isinstance(value, PDFString):
        return ("string", bytes(value), value.hex_form)
    if isinstance(value, PDFRef):
        return ("ref", value.num, value.gen)
    if value is PDFNull:
        return ("null",)
    return (type(value).__name__, repr(value))


def outcome(parser_cls: Callable[[bytes], Any], data: bytes) -> Tuple[Any, ...]:
    """Everything a parse reports, or the exception it raised."""
    try:
        parsed = parser_cls(data).parse()
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return ("error", type(exc).__name__, str(exc))
    store = tuple(
        (ref.num, ref.gen, entry.num, entry.gen, _value(entry.value))
        for ref, entry in parsed.store.objects.items()
    )
    header = (parsed.header.offset, parsed.header.version)
    return (
        "ok", store, _value(parsed.trailer), header,
        parsed.used_recovery_scan, tuple(parsed.warnings),
    )


def assert_same(data: bytes) -> Tuple[Any, ...]:
    """Parse with both parsers; return the (identical) outcome."""
    new = outcome(PDFParser, data)
    assert new == outcome(parser_reference.PDFParser, data)
    return new


# -- small seed documents -----------------------------------------------------


def _objects_pdf(*bodies: bytes, trailer: bytes = b"<< /Root 1 0 R >>") -> bytes:
    """A document with a correct xref over ``bodies`` (objects 1..n)."""
    out = bytearray(b"%PDF-1.5\n")
    offsets = []
    for num, body in enumerate(bodies, start=1):
        offsets.append(len(out))
        out += b"%d 0 obj\n%s\nendobj\n" % (num, body)
    xref_at = len(out)
    out += b"xref\n0 %d\n0000000000 65535 f \n" % (len(bodies) + 1)
    for offset in offsets:
        out += b"%010d 00000 n \n" % offset
    out += b"trailer\n%s\nstartxref\n%d\n%%%%EOF\n" % (trailer, xref_at)
    return bytes(out)


def _object_stream_pdf() -> bytes:
    """An uncompressed ``/ObjStm``, so mutations reach its objects."""
    inner = [b"<< /S /JavaScript /JS (app.alert\\(1\\)) >>", b"[1 0 R 2.5 <41> /N#41]"]
    offsets, body = [], b""
    for item in inner:
        offsets.append(len(body))
        body += item + b"\n"
    pairs = b"".join(b"%d %d " % (num, off) for num, off in zip((4, 5), offsets))
    payload = pairs + body
    return _objects_pdf(
        b"<< /Type /Catalog /Pages 2 0 R /OpenAction 4 0 R >>",
        b"<< /Type /Pages /Kids [] /Count 0 >>",
        b"<< /Type /ObjStm /N 2 /First %d /Length %d >>\nstream\n%s\nendstream"
        % (len(pairs), len(payload), payload),
    )


def _builder_pdf() -> bytes:
    builder = DocumentBuilder()
    builder.add_page("BT (hi) Tj ET")
    builder.add_javascript("app.alert('x');")
    return builder.to_bytes()


SEEDS: List[Tuple[str, bytes]] = [
    ("builder", _builder_pdf()),
    ("object_stream", _object_stream_pdf()),
    ("junk_numbers", malformed.junk_numbers()),
    ("bad_hex_digits", malformed.bad_hex_digits()),
    ("partial_xref_hidden_object", malformed.partial_xref_hidden_object()),
    ("cyclic_reference", malformed.cyclic_reference()),
    ("truncated_stream", malformed.truncated_stream()),
    (
        "values",
        _objects_pdf(
            b"<< /Type /Catalog /Pages 2 0 R /Names << /JS 3 0 R >> >>",
            b"<< /Type /Pages /Kids [] /Count 0 /Box [0 -1 +2 3.5 .5 -.5] >>",
            b"[(lit \\(x\\) \\101) <4142> /A#42 true false null 7 0 R -0 0 R [] << >>]",
        ),
    ),
]

#: Pieces a mutation inserts: irregular tokens, tokens that change how a
#: neighbour lexes, and whole objects (for the recovery scan).
ALPHABET = [
    b")", b"(", b"(a\\", b"{", b"}", b">", b"<", b"<<", b">>", b"[", b"]",
    b"%junk 5 0 obj\n", b"%", b"\n", b"\r", b" ", b"\x00", b"\x0c",
    b"1-2", b"+", b"-", b".", b"-0", b"+3", b"1.5", b"1e5", b"e",
    b"12345678901234567890123", b"0", b"7", b"R", b"Rx", b"7 0 R",
    b"stream", b"endstream", b"obj", b"endobj", b"xref", b"trailer",
    b"startxref", b"true", b"null", b"/", b"#4", b"/N#4", b"\\",
    b"<4G1>", b"<>", b"3 0 obj << /A 1 >> endobj",
]

_mutation = st.tuples(
    st.sampled_from(("insert", "delete", "replace", "duplicate")),
    st.integers(min_value=0, max_value=1 << 16),
    st.integers(min_value=1, max_value=12),
    st.sampled_from(ALPHABET),
)


def mutate(data: bytes, mutations: List[Tuple[str, int, int, bytes]]) -> bytes:
    buf = bytearray(data)
    for op, at, size, piece in mutations:
        at %= len(buf) + 1
        if op == "insert":
            buf[at:at] = piece
        elif op == "delete":
            del buf[at : at + size]
        elif op == "replace":
            buf[at : at + size] = piece
        else:
            buf[at:at] = buf[at : at + size]
    return bytes(buf)


class TestMutants:
    @given(
        seed=st.sampled_from(SEEDS),
        mutations=st.lists(_mutation, min_size=1, max_size=6),
    )
    @settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_parser_matches_reference_on_mutants(self, seed, mutations):
        assert_same(mutate(seed[1], mutations))

    @pytest.mark.parametrize("name, data", SEEDS, ids=[name for name, _ in SEEDS])
    def test_seeds_parse_identically(self, name, data):
        assert assert_same(data)[0] == "ok"


# -- whole corpora -----------------------------------------------------------


def _golden() -> List[Tuple[str, bytes]]:
    from repro.corpus import build_dataset, dataset_items
    from tests.batch.golden import GOLDEN_CONFIG

    return list(dataset_items(build_dataset(GOLDEN_CONFIG)))


def _mixed() -> List[Tuple[str, bytes]]:
    """The benchmark's mixed documents: the test-scale dataset plus the
    default obfuscated corpus."""
    from repro.corpus.dataset import build_dataset, test_scale
    from repro.corpus.obfuscated import obfuscated_corpus

    docs = [(s.name, s.data) for s in build_dataset(test_scale()).all_samples()]
    return docs + list(obfuscated_corpus(6, 6))


def _obfuscated() -> List[Tuple[str, bytes]]:
    from repro.corpus.obfuscated import obfuscated_corpus

    return [doc for seed in range(4) for doc in obfuscated_corpus(6, 6, seed=1404 + seed)]


def _table_x() -> List[Tuple[str, bytes]]:
    from repro.corpus.sized import table_x_documents

    return table_x_documents()


def _table_x_js() -> List[Tuple[str, bytes]]:
    from repro.corpus.sized import table_x_js_documents

    return table_x_js_documents()


CORPORA = {
    "golden": _golden,
    "malformed": malformed.corpus,
    "mixed": _mixed,
    "obfuscated": _obfuscated,
    "table_x": _table_x,
    "table_x_js": _table_x_js,
}


@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_corpus_parses_identically(corpus):
    documents = CORPORA[corpus]()
    assert documents
    mismatched = [
        name for name, data in documents
        if outcome(PDFParser, data) != outcome(parser_reference.PDFParser, data)
    ]
    assert not mismatched


class OldFrontEndParser(parser_reference.PDFParser):
    """The front end before its rework: the frozen token-at-a-time
    parser with the reference lexer and a whole-buffer recovery scan."""

    lexer_cls = ReferenceLexer
    recovery_skips_covered = False


@pytest.mark.parametrize("corpus", ["golden", "table_x"])
def test_old_front_end_stores_reserialise_identically(corpus):
    """Each document re-serialises to the same bytes through both front
    ends (the Table X tiers are padding-dominated)."""
    documents = CORPORA[corpus]()
    assert documents
    mismatched = []
    for name, data in documents:
        new, old = PDFParser(data).parse(), OldFrontEndParser(data).parse()
        if write_pdf(new.store, new.trailer) != write_pdf(old.store, old.trailer):
            mismatched.append(name)
    assert not mismatched


# -- pinned regressions --------------------------------------------------------


class TestPinned:
    """Each behaviour confirmed on the token-at-a-time parser."""

    def test_junk_number_before_a_dictionary_key(self):
        # The lexer skips the junk ``.`` with a warning and then returns
        # the name: the key must come from that lexer call, not be lost.
        data = _objects_pdf(b"<< . /Type /Catalog /Pages 2 0 R >>", b"<< /Type /Pages >>")
        _ok, store, *_rest, warnings = assert_same(data)
        catalog = dict(store[0][4][1])
        assert catalog[("name", "Type", "Type")] == ("name", "Catalog", "Catalog")
        assert [w for w in warnings if "skipped malformed number '.'" in w]

    def test_irregular_token_in_reference_lookahead_drops_the_object(self):
        data = _objects_pdf(b"<< /Type /Catalog >>", b"<< /A 1 0 ) >>")
        _ok, store, *_rest, warnings = assert_same(data)
        assert [entry[0] for entry in store] == [1]
        at = data.index(b"2 0 obj")
        stray = data.index(b")", at)
        assert f"bad object at {at}: unexpected byte 0x29 at byte {stray}" in warnings

    def test_comment_after_an_object_is_still_recovery_scanned(self):
        # Object 1 comes from the xref, so the bytes it covers are
        # skipped by the recovery scan: the covered span must end at
        # ``>>``, not run on over the comment that hides object 5.
        data = _objects_pdf(b"<< /Type /Catalog >> % 5 0 obj << /S /JavaScript >> endobj")
        _ok, store, _trailer, _header, recovered, _warnings = assert_same(data)
        assert [(entry[0], entry[1]) for entry in store] == [(1, 0), (5, 0)]
        assert recovered

    def test_warning_cap_is_per_object(self):
        junk = b" ".join([b"1-2"] * 150)
        data = _objects_pdf(b"<< /Type /Catalog /V [%s] >>" % junk)
        *_rest, warnings = assert_same(data)
        tolerance = [w for w in warnings if w.startswith("malformed number")]
        assert len(tolerance) == MAX_LEXER_WARNINGS
        assert warnings.count("further lexer tolerance warnings suppressed") == 1

    @pytest.mark.parametrize("filler", [b" ", b"% comment\n"], ids=["whitespace", "comments"])
    def test_megabyte_of_padding_before_a_stray_delimiter(self, filler):
        padding = filler * ((1 << 20) // len(filler))
        data = _objects_pdf(b"<< /Type /Catalog /A 1 %s) >>" % padding)

        def clock(parser_cls: Callable[[bytes], Any]) -> float:
            start = time.perf_counter()
            outcome(parser_cls, data)
            return time.perf_counter() - start

        assert_same(data)
        new = min(clock(PDFParser) for _ in range(2))
        reference = min(clock(parser_reference.PDFParser) for _ in range(2))
        # Linear, like the lexer: a few passes over the padding at most.
        assert new <= 4 * reference + 0.25, (new, reference)
