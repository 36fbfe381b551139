"""PDF document parser.

Supports the features the paper's front-end exercises:

* header validation under the 1,024-byte rule (static feature F2 needs
  to know *where* the header sits and whether its version is valid);
* classic cross-reference tables with chained ``/Prev`` sections;
* cross-reference streams and compressed object streams (``/ObjStm``);
* a recovery scan that finds every ``N G obj`` in the byte stream, so
  malformed or deliberately obfuscated documents still parse (malicious
  samples routinely break their xref on purpose);
* stream payload extraction tolerant of wrong ``/Length`` values.

Values are read through one anchored token regex (:data:`_TOKEN_RE`)
that skips whitespace and comments and then matches one *regular*
token: a name, an integer of at most 18 digits (or a whole ``N G R``
reference), ``<<``, ``>>``, ``[``, ``]`` or a keyword.  Regular tokens
can neither warn nor raise, so the parser builds values from the match
directly.  Everything else — literal and hex strings, reals, malformed
numbers, stray delimiters, end of input — is read by the object's own
:class:`~repro.pdf.lexer.Lexer` at the same position, so every
tolerance warning and every :class:`~repro.pdf.lexer.LexerError`
comes from the code that has always produced it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro import limits as limits_mod
from repro.limits import ResourceLimitExceeded, ScanBudget, ScanLimits
from repro.pdf.lexer import Lexer, LexerError, TokenType
from repro.pdf.objects import (
    IndirectObject,
    ObjectStore,
    PDFArray,
    PDFDict,
    PDFName,
    PDFNull,
    PDFObject,
    PDFRef,
    PDFStream,
    PDFString,
)

_OBJ_RE = re.compile(rb"(\d{1,10})\s+(\d{1,5})\s+obj\b")
#: Every ``N G obj`` header starts with a digit and holds ``\sobj``.
_DIGIT_RE = re.compile(rb"[0-9]")
_SPACE_OBJ_RE = re.compile(rb"\sobj")
_HEADER_RE = re.compile(rb"%PDF-(\d+)\.(\d+)")
_VALID_VERSIONS = {
    (1, 0), (1, 1), (1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (1, 7), (2, 0),
}

# -- the token regex -----------------------------------------------------------
#
# Python 3.9's ``re`` has no atomic groups or possessive quantifiers,
# so every piece below is written to match in exactly one way: a
# failed match can then only backtrack linearly.
#
# * Whitespace is a single-byte class; a whitespace run inside the
#   comment loop always follows a comment, so no run can be split
#   between iterations (``(?:[ws]+|...)*`` would backtrack
#   exponentially when the token after it fails).
# * A comment must run to the end of its line: ``(?![^\r\n])`` stops a
#   failed match from backtracking into the comment and matching text
#   inside it as a token.
# * A skip before a token sits in a lookahead, which ``re`` never
#   re-enters, and is consumed by a backreference: a failed token match
#   does not backtrack through the whitespace before it at all.
_SKIP = rb"[\x00\t\n\x0c\r ]*(?:%[^\r\n]*(?![^\r\n])[\x00\t\n\x0c\r ]*)*"
_REGULAR = rb"[^\x00\t\n\x0c\r ()<>\[\]{}/%]"
#: A number run (``[0-9.+-eE]*`` in the lexer) ends here.
_INT_END = rb"(?![0-9.+\-eE])"
#: A keyword (a run of regular bytes) ends here.
_KEYWORD_END = rb"(?!" + _REGULAR + rb")"
_INT = rb"[+-]?[0-9]{1,18}" + _INT_END


def _atomic_skip(group: int) -> bytes:
    """:data:`_SKIP` as capture group ``group``, never backtracked into."""
    return rb"(?=(" + _SKIP + rb"))\%d" % group


_TOKEN_RE = re.compile(
    _atomic_skip(1)
    + rb"(?:/(" + _REGULAR + rb"*)"
    # An unsigned integer followed by ``G R``: the parser's two-token
    # reference lookahead, decided here when all three are regular.
    + rb"|([0-9]{1,18})" + _INT_END + _atomic_skip(4) + rb"(" + _INT + rb")"
    + _atomic_skip(6) + rb"R" + _KEYWORD_END
    + rb"|(" + _INT + rb")"
    + rb"|(<<)|(>>)|(\[)|(\])"
    # A regular byte that does not start a number starts a keyword.
    + rb"|([^\x00\t\n\x0c\r ()<>\[\]{}/%0-9.+\-]" + _REGULAR + rb"*)"
    + rb")"
)

# ``match.lastindex`` (the last group closed) of each token kind in
# :data:`_TOKEN_RE`; groups 1, 4 and 6 are skips, and a reference's
# numbers are groups 3 and 5.  The lexer path maps its tokens onto the
# same codes, plus the kinds only the lexer produces.
_NAME, _REF_NUM, _REF_GEN, _REF, _INT_TOKEN = 2, 3, 5, 6, 7
_DICT_OPEN, _DICT_CLOSE, _ARRAY_OPEN, _ARRAY_CLOSE, _KEYWORD = 8, 9, 10, 11, 12
_NUMBER, _STRING, _HEX_STRING, _EOF = 13, 14, 15, 16

_LEXER_KINDS = {
    TokenType.NAME: _NAME,
    TokenType.DICT_OPEN: _DICT_OPEN,
    TokenType.DICT_CLOSE: _DICT_CLOSE,
    TokenType.ARRAY_OPEN: _ARRAY_OPEN,
    TokenType.ARRAY_CLOSE: _ARRAY_CLOSE,
    TokenType.KEYWORD: _KEYWORD,
    TokenType.NUMBER: _NUMBER,
    TokenType.STRING: _STRING,
    TokenType.HEX_STRING: _HEX_STRING,
    TokenType.EOF: _EOF,
}
#: Token types named by "unexpected token" errors.
_KIND_TYPES = {_DICT_CLOSE: TokenType.DICT_CLOSE, _ARRAY_CLOSE: TokenType.ARRAY_CLOSE,
               _EOF: TokenType.EOF}

#: ``N G obj``, both numbers and the keyword regular.
_OBJ_HEADER_RE = re.compile(
    _SKIP + rb"(" + _INT + rb")" + _SKIP + rb"(" + _INT + rb")" + _SKIP + rb"obj" + _KEYWORD_END
)
#: One classic xref row whose three tokens are regular.
_XREF_ROW_RE = re.compile(
    _SKIP + rb"([0-9]{1,18})" + _INT_END + _SKIP + _INT + _SKIP + rb"([nf])" + _KEYWORD_END
)

_Container = Union[PDFArray, PDFDict]


class PDFParseError(ValueError):
    """Raised when a document cannot be parsed at all."""


@dataclass
class HeaderInfo:
    """Where and what the ``%PDF-x.y`` header is.

    ``offset`` is -1 when no header exists anywhere in the first 1,024
    bytes (the limit the PDF Reference allows).
    """

    offset: int = -1
    version: Optional[Tuple[int, int]] = None

    @property
    def present(self) -> bool:
        return self.offset >= 0

    @property
    def at_start(self) -> bool:
        return self.offset == 0

    @property
    def version_valid(self) -> bool:
        return self.version in _VALID_VERSIONS

    @property
    def obfuscated(self) -> bool:
        """The paper's F2: header missing, displaced, or bad version."""
        return not (self.at_start and self.version_valid)


@dataclass
class ParsedPDF:
    """The result of parsing: object store + trailer + diagnostics."""

    data: bytes
    store: ObjectStore = field(default_factory=ObjectStore)
    trailer: PDFDict = field(default_factory=PDFDict)
    header: HeaderInfo = field(default_factory=HeaderInfo)
    warnings: List[str] = field(default_factory=list)
    used_recovery_scan: bool = False

    @property
    def root(self) -> PDFDict:
        root = self.store.deep_resolve(self.trailer.get("Root", PDFNull))
        return root if isinstance(root, PDFDict) else PDFDict()

    @property
    def is_encrypted(self) -> bool:
        return "Encrypt" in self.trailer

    def resolve(self, value: PDFObject) -> PDFObject:
        return self.store.deep_resolve(value)


class PDFParser:
    """Parses a byte buffer into a :class:`ParsedPDF`.

    Parsing is budgeted: the parser enforces the enclosing scan's
    :class:`~repro.limits.ScanBudget` when one is active, else builds a
    private one from ``limits`` (default: :data:`~repro.limits.DEFAULT_LIMITS`)
    so even standalone ``parse_pdf`` calls are bounded.  The deadline is
    checked *inside* the per-object loops — a hostile document aborts
    its own parse instead of hanging a worker that cannot be killed.
    """

    def __init__(self, data: bytes, limits: Optional[ScanLimits] = None) -> None:
        if not isinstance(data, (bytes, bytearray)):
            raise TypeError("PDFParser expects bytes")
        # bytes(data) would copy even when the caller already holds an
        # immutable buffer — on a 20MB document that copy alone is
        # measurable, so only materialise for bytearray input.
        self.data = data if isinstance(data, bytes) else bytes(data)
        self.result = ParsedPDF(data=self.data)
        #: Byte spans consumed by successfully parsed indirect objects,
        #: so the recovery scan can skip them.
        self._covered: List[Tuple[int, int]] = []
        #: One :class:`PDFName` per distinct raw spelling in this parse.
        self._names: Dict[bytes, PDFName] = {}
        active = limits_mod.active()
        if limits is None and active is not None:
            self.budget = active
        else:
            self.budget = ScanBudget(limits)

    def _make_lexer(self, data: bytes, pos: int = 0) -> Lexer:
        """Build a lexer whose tolerance warnings land in the parse report.

        Each scope that parses (one indirect object, one xref section,
        one compressed object, ...) gets its own lexer, and so its own
        cap of :data:`~repro.pdf.lexer.MAX_LEXER_WARNINGS` warnings.
        """
        return Lexer(data, pos, warnings=self.result.warnings)

    # -- public entry --------------------------------------------------

    def parse(self) -> ParsedPDF:
        if not self.data:
            raise PDFParseError("empty document")
        self._parse_header()
        for offset in self._collect_xref_offsets():
            self.budget.check_deadline()
            self._parse_object_at(offset)
        # Recovery scan: pick up objects the xref missed (or everything,
        # when there was no usable xref).  Obfuscated malicious samples
        # depend on reader tolerance here.  Any object it contributes —
        # even alongside a partially working xref — means the document
        # hides payloads from xref-faithful readers, so the flag is set
        # whenever recovery added something, not only when the xref was
        # completely dead.
        if self._recovery_scan():
            self.result.used_recovery_scan = True
        if not self.result.store.objects:
            raise PDFParseError("no indirect objects found")
        self._expand_object_streams()
        if not self.result.trailer:
            self._scan_trailers()
        if not self.result.trailer:
            self._infer_trailer()
        return self.result

    # -- header ----------------------------------------------------------

    def _parse_header(self) -> None:
        window = self.data[:1024]
        match = _HEADER_RE.search(window)
        if match is None:
            self.result.header = HeaderInfo()
            self.result.warnings.append("no %PDF header in first 1024 bytes")
            return
        version = (int(match.group(1)), int(match.group(2)))
        self.result.header = HeaderInfo(offset=match.start(), version=version)
        if match.start() != 0:
            self.result.warnings.append(
                f"header displaced to offset {match.start()}"
            )
        if version not in _VALID_VERSIONS:
            self.result.warnings.append(f"invalid PDF version {version}")

    # -- xref chain --------------------------------------------------------

    def _collect_xref_offsets(self) -> List[int]:
        """Follow startxref → xref chain, returning object offsets."""
        tail = self.data[-2048:]
        idx = tail.rfind(b"startxref")
        if idx < 0:
            return []
        lexer = self._make_lexer(self.data, len(self.data) - len(tail) + idx)
        try:
            lexer.expect_keyword("startxref")
            token = lexer.next_token()
        except LexerError:
            return []
        if token.type is not TokenType.NUMBER or not isinstance(token.value, int):
            return []
        offsets: List[int] = []
        seen_sections: set[int] = set()
        next_offset: Optional[int] = token.value
        while next_offset is not None and 0 <= next_offset < len(self.data):
            if next_offset in seen_sections:
                break
            seen_sections.add(next_offset)
            next_offset = self._parse_xref_section(next_offset, offsets)
        return offsets

    def _parse_xref_section(
        self, offset: int, offsets: List[int]
    ) -> Optional[int]:
        lexer = self._make_lexer(self.data, offset)
        try:
            if lexer.try_keyword("xref"):
                return self._parse_xref_table(lexer, offsets)
            return self._parse_xref_stream(offset, offsets)
        except (LexerError, PDFParseError) as exc:
            self.result.warnings.append(f"bad xref section at {offset}: {exc}")
            return None

    #: Bytes one classic xref entry occupies at minimum ("NNNNNNNNNN
    #: GGGGG n" plus separators is 20 by spec; 18 tolerates sloppy EOLs).
    _XREF_ENTRY_MIN_BYTES = 18

    def _parse_xref_table(self, lexer: Lexer, offsets: List[int]) -> Optional[int]:
        data = self.data
        row_match = _XREF_ROW_RE.match
        while True:
            sub_pos = lexer.pos
            pair = lexer.read_integer_pair()
            if pair is None:
                break
            start, count = pair
            # The entry count is attacker-controlled: a subsection
            # claiming 2^31 entries would tokenize past the end of the
            # buffer for hours.  Clamp against the bytes actually left.
            remaining = max(0, len(data) - lexer.pos)
            max_entries = remaining // self._XREF_ENTRY_MIN_BYTES + 1
            if count > max_entries:
                self.result.warnings.append(
                    f"xref subsection at offset {sub_pos} (first object "
                    f"{start}) claims {count} entries; clamped to "
                    f"{max_entries} (file too small)"
                )
                count = max_entries
            self.budget.check_object_count(count)
            for index in range(count):
                if index % 1024 == 0:
                    self.budget.check_deadline()
                row = row_match(data, lexer.pos)
                if row is not None:
                    lexer.pos = row.end()
                    if row.group(2) == b"n":
                        offsets.append(int(row.group(1)))
                    continue
                entry_off = lexer.next_token()
                lexer.next_token()
                entry_kind = lexer.next_token()
                if entry_kind.type is TokenType.EOF:
                    break
                if (
                    entry_kind.type is TokenType.KEYWORD
                    and entry_kind.value == "n"
                    and isinstance(entry_off.value, int)
                ):
                    offsets.append(entry_off.value)
        lexer.expect_keyword("trailer")
        trailer = self._parse_value(lexer)
        if isinstance(trailer, PDFDict):
            for key, value in trailer.items():
                self.result.trailer.setdefault(key, value)
            prev = trailer.get("Prev")
            if isinstance(prev, int):
                return prev
        return None

    def _parse_xref_stream(self, offset: int, offsets: List[int]) -> Optional[int]:
        obj = self._parse_indirect_at(offset)
        if obj is None or not isinstance(obj.value, PDFStream):
            raise PDFParseError("expected xref stream")
        stream = obj.value
        info = stream.dictionary
        if str(info.get("Type", "")) != "XRef":
            raise PDFParseError("stream is not /Type /XRef")
        widths = [int(w) for w in info.get("W", PDFArray())]
        if len(widths) != 3:
            raise PDFParseError("bad /W array")
        size = int(info.get("Size", 0))
        index = info.get("Index")
        if isinstance(index, PDFArray) and len(index) % 2 == 0:
            sections = [
                (int(index[i]), int(index[i + 1])) for i in range(0, len(index), 2)
            ]
        else:
            sections = [(0, size)]
        data = stream.decoded_data()
        row_len = sum(widths)
        pos = 0

        def read_field(row: bytes, start: int, width: int, default: int) -> int:
            if width == 0:
                return default
            return int.from_bytes(row[start : start + width], "big")

        for _first, count in sections:
            self.budget.check_deadline()
            for _i in range(count):
                row = data[pos : pos + row_len]
                pos += row_len
                if len(row) < row_len:
                    break
                kind = read_field(row, 0, widths[0], 1)
                f2 = read_field(row, widths[0], widths[1], 0)
                if kind == 1:
                    offsets.append(f2)
                # kind 2 entries live in object streams, expanded later.
        for key, value in info.items():
            if key not in ("W", "Index", "Type", "Length", "Filter"):
                self.result.trailer.setdefault(key, value)
        self._store_add(obj)
        prev = info.get("Prev")
        return int(prev) if isinstance(prev, int) else None

    # -- object parsing ------------------------------------------------------

    def _store_add(self, obj: IndirectObject) -> None:
        """Add to the store, enforcing the object-count budget."""
        self.result.store.add(obj)
        self.budget.check_object_count(len(self.result.store.objects))

    def _parse_object_at(self, offset: int) -> bool:
        obj = self._parse_indirect_at(offset)
        if obj is None:
            return False
        if obj.ref not in self.result.store:
            self._store_add(obj)
        return True

    def _parse_indirect_at(self, offset: int) -> Optional[IndirectObject]:
        if not (0 <= offset < len(self.data)):
            return None
        lexer = self._make_lexer(self.data, offset)
        try:
            header = _OBJ_HEADER_RE.match(self.data, offset)
            num: Union[int, float]
            gen: Union[int, float]
            if header is not None:
                num, gen = int(header.group(1)), int(header.group(2))
                lexer.pos = header.end()
            else:
                num_tok = lexer.next_token()
                gen_tok = lexer.next_token()
                if num_tok.type is not TokenType.NUMBER or gen_tok.type is not TokenType.NUMBER:
                    return None
                lexer.expect_keyword("obj")
                assert isinstance(num_tok.value, (int, float))
                assert isinstance(gen_tok.value, (int, float))
                num, gen = num_tok.value, gen_tok.value
            value = self._parse_value(lexer)
            value = self._maybe_stream(lexer, value)
            # Everything the lexer consumed belongs to this object; the
            # recovery scan need not re-scan it.
            self._covered.append((offset, lexer.pos))
            return IndirectObject(int(num), int(gen), value)
        except LexerError as exc:
            self.result.warnings.append(f"bad object at {offset}: {exc}")
            return None

    def _maybe_stream(self, lexer: Lexer, value: PDFObject) -> PDFObject:
        """If ``stream`` follows a dict, slurp the payload."""
        if not isinstance(value, PDFDict):
            return value
        match = _TOKEN_RE.match(self.data, lexer.pos)
        if match is None:
            # An irregular token: lexing it may warn or raise.
            if not lexer.try_keyword("stream"):
                return value
        elif match.lastindex != _KEYWORD or match.group(_KEYWORD) != b"stream":
            return value
        else:
            lexer.pos = match.end()
        lexer.skip_eol()
        start = lexer.pos
        length = value.get("Length")
        if isinstance(length, PDFRef):
            resolved = self.result.store.deep_resolve(length)
            length = resolved if isinstance(resolved, int) else None
        end: Optional[int] = None
        if isinstance(length, int) and length >= 0:
            candidate = start + length
            after = self.data[candidate : candidate + 20]
            if b"endstream" in after:
                end = candidate
        if end is None:
            # /Length missing or a lie: search for the terminator.
            idx = self.data.find(b"endstream", start)
            if idx < 0:
                raise LexerError("unterminated stream", start)
            end = idx
            # Strip the EOL the writer put before endstream.
            while end > start and self.data[end - 1] in b"\r\n":
                end -= 1
        raw = self.data[start:end]
        lexer.pos = self.data.find(b"endstream", end) + len(b"endstream")
        return PDFStream(value, raw)

    def _parse_value(self, lexer: Lexer, depth: int = 0) -> PDFObject:
        """Parse one value at ``lexer.pos``, leaving ``lexer.pos`` just
        past its last token.

        Containers are built on an explicit stack; ``depth`` is the
        nesting depth of the value itself, so a container opened with
        ``k`` containers already open is checked at ``depth + k``.
        Every non-negative integer looks two tokens ahead for ``G R``;
        a lookahead that would read an irregular token runs on the
        lexer and rewinds, because lexing that token can warn or raise.
        """
        data = lexer.data
        pos = lexer.pos
        # An object stream's /First and offsets can put the start outside
        # the buffer, where the lexer indexes from the end and a regex
        # would clamp: there the lexer reads every token.  From inside
        # the buffer, every later position stays inside it.
        match: Callable[[bytes, int], Optional[re.Match[bytes]]] = (
            _TOKEN_RE.match if 0 <= pos <= len(data) else _no_match
        )
        names = self._names
        # The open containers, innermost last, with where each opened
        # and the key its finished value goes under in its parent.
        containers: List[_Container] = []
        opened_at: List[int] = []
        outer_keys: List[Optional[PDFName]] = []
        # The innermost container, as whichever of the two it is.
        top_dict: Optional[PDFDict] = None
        top_array: Optional[PDFArray] = None
        key: Optional[PDFName] = None
        #: A regular token a lookahead has already matched.
        ahead: Optional[re.Match[bytes]] = None
        while True:
            if ahead is None:
                m = match(data, pos)
            else:
                m, ahead = ahead, None
            if m is not None:
                kind = m.lastindex or 0
                pos = m.end()
            else:
                lexer.pos = pos
                token = lexer.next_token()
                pos = lexer.pos
                kind = _LEXER_KINDS[token.type]
                token_value, token_pos = token.value, token.pos

            if top_dict is not None and key is None:
                # -- a dictionary key, or the dictionary's end ----------
                if kind == _NAME:
                    raw = m.group(_NAME) if m is not None else str(token_value).encode("latin-1")
                    key = names.get(raw)
                    if key is None:
                        key = names[raw] = PDFName.from_raw(raw.decode("latin-1"))
                    continue
                if kind == _EOF:
                    raise LexerError("unterminated dictionary", opened_at[-1])
                if kind != _DICT_CLOSE:
                    if m is not None:
                        token_value, token_pos = _regular_token(m, kind)
                    raise LexerError(
                        f"dictionary key must be a name, got {token_value!r}", token_pos
                    )
                value: PDFObject = top_dict
                top_dict, top_array, key = _close(containers, opened_at, outer_keys)
            elif kind == _NAME:
                raw = m.group(_NAME) if m is not None else str(token_value).encode("latin-1")
                name = names.get(raw)
                if name is None:
                    name = names[raw] = PDFName.from_raw(raw.decode("latin-1"))
                value = name
            elif kind == _REF:
                assert m is not None
                value = PDFRef(int(m.group(_REF_NUM)), int(m.group(_REF_GEN)))
            elif kind == _INT_TOKEN or kind == _NUMBER:
                number = int(m.group(_INT_TOKEN)) if m is not None else token_value
                if isinstance(number, int) and number >= 0:
                    value, pos, ahead = _ref_lookahead(lexer, match, number, pos)
                else:
                    assert isinstance(number, (int, float))
                    value = number
            elif kind == _DICT_OPEN or kind == _ARRAY_OPEN:
                # Containers nest on an explicit stack, so recursion
                # never bounds them; the budget does.
                self.budget.check_nesting_depth(depth + len(containers))
                if kind == _DICT_OPEN:
                    top_dict, top_array = PDFDict(), None
                    containers.append(top_dict)
                    opened_at.append(pos - 2)
                else:
                    top_dict, top_array = None, PDFArray()
                    containers.append(top_array)
                    opened_at.append(pos - 1)
                outer_keys.append(key)
                key = None
                continue
            elif top_array is not None and (kind == _ARRAY_CLOSE or kind == _EOF):
                # -- an array's end --------------------------------------
                if kind == _EOF:
                    raise LexerError("unterminated array", opened_at[-1])
                value = top_array
                top_dict, top_array, key = _close(containers, opened_at, outer_keys)
            elif kind == _STRING or kind == _HEX_STRING:
                assert isinstance(token_value, bytes)
                value = PDFString(token_value, hex_form=kind == _HEX_STRING)
            elif kind == _KEYWORD:
                word = m.group(_KEYWORD) if m is not None else str(token_value).encode("latin-1")
                if word == b"true":
                    value = True
                elif word == b"false":
                    value = False
                elif word == b"null":
                    value = PDFNull
                else:
                    if m is not None:
                        token_pos = m.start(_KEYWORD)
                    raise LexerError(
                        f"unexpected keyword {word.decode('latin-1')!r}", token_pos
                    )
            else:
                if m is not None:
                    token_pos = m.start(kind)
                raise LexerError(f"unexpected token {_KIND_TYPES[kind]}", token_pos)

            # -- the value is finished: attach it to its container ------
            if top_dict is not None:
                top_dict[key] = value
                key = None
            elif top_array is not None:
                top_array.append(value)
            else:
                lexer.pos = pos
                return value

    # -- recovery scan --------------------------------------------------------

    #: An ``N G obj`` header is at most ~20 bytes of digits/whitespace;
    #: searching this far past a gap still catches headers that start
    #: inside the gap but extend into covered territory.
    _RECOVERY_GAP_MARGIN = 24

    def _recovery_gaps(self) -> List[Tuple[int, int]]:
        """Byte ranges no successfully parsed object consumed.

        On a well-formed document the xref pass covers nearly the whole
        buffer, so the recovery regex only touches the slack between
        objects (header, xref table, padding between spans) instead of
        re-scanning — and re-lexing hits inside — multi-megabyte stream
        payloads it already parsed.
        """
        n = len(self.data)
        if not self._covered:
            return [(0, n)]
        gaps: List[Tuple[int, int]] = []
        prev = 0
        for lo, hi in sorted(self._covered):
            if lo > prev:
                gaps.append((prev, lo))
            if hi > prev:
                prev = hi
        if prev < n:
            gaps.append((prev, n))
        return gaps

    def _recovery_scan(self) -> bool:
        found = False
        data, n = self.data, len(self.data)
        digit, space_obj = _DIGIT_RE.search, _SPACE_OBJ_RE.search
        for gap_start, gap_end in self._recovery_gaps():
            # Cheap necessary conditions first: most gaps are just the
            # ``endobj`` between two objects, and the largest is
            # usually an xref table, which has no `` obj`` at all.
            first_digit = digit(data, gap_start, gap_end)
            if first_digit is None:
                continue
            start = first_digit.start()
            limit = gap_end if gap_end >= n else min(n, gap_end + self._RECOVERY_GAP_MARGIN)
            if space_obj(data, start, limit) is None:
                continue
            for match in _OBJ_RE.finditer(data, start, limit):
                if match.start() >= gap_end:
                    break
                self.budget.check_deadline()
                num, gen = int(match.group(1)), int(match.group(2))
                ref = PDFRef(num, gen)
                if ref in self.result.store:
                    continue
                obj = self._parse_indirect_at(match.start())
                if obj is not None and obj.num == num and obj.gen == gen:
                    self._store_add(obj)
                    found = True
        return found

    # -- object streams ---------------------------------------------------------

    def _expand_object_streams(self) -> None:
        for entry in list(self.result.store):
            self.budget.check_deadline()
            value = entry.value
            if not isinstance(value, PDFStream):
                continue
            if str(value.dictionary.get("Type", "")) != "ObjStm":
                continue
            try:
                self._expand_one_objstm(value)
            except ResourceLimitExceeded:
                # A blown budget is the whole scan's problem, not a
                # single corrupt container's — never swallow it.
                raise
            except Exception as exc:  # noqa: BLE001 - diagnostics only
                self.result.warnings.append(
                    f"bad object stream {entry.num} {entry.gen}: {exc}"
                )
                continue
            # The container is spent: its objects now live in the store
            # directly, so keeping it would shadow later edits to them
            # (e.g. instrumentation) with stale copies on re-serialise.
            self.result.store.objects.pop(entry.ref, None)

    def _expand_one_objstm(self, stream: PDFStream) -> None:
        count = int(stream.dictionary.get("N", 0))
        first = int(stream.dictionary.get("First", 0))
        payload = stream.decoded_data()
        lexer = self._make_lexer(payload)
        pairs: List[Tuple[int, int]] = []
        for _ in range(count):
            pair = lexer.read_integer_pair()
            if pair is None:
                break
            pairs.append(pair)
        for index, (num, rel_offset) in enumerate(pairs):
            if index % 256 == 0:
                self.budget.check_deadline()
            ref = PDFRef(num, 0)
            if ref in self.result.store:
                continue
            inner = self._make_lexer(payload, first + rel_offset)
            try:
                value = self._parse_value(inner)
            except LexerError as exc:
                self.result.warnings.append(f"bad compressed object {num}: {exc}")
                continue
            self._store_add(IndirectObject(num, 0, value))

    # -- trailer fallbacks -----------------------------------------------------------

    def _scan_trailers(self) -> None:
        for match in re.finditer(rb"\btrailer\b", self.data):
            self.budget.check_deadline()
            lexer = self._make_lexer(self.data, match.end())
            try:
                value = self._parse_value(lexer)
            except LexerError:
                continue
            if isinstance(value, PDFDict):
                for key, val in value.items():
                    self.result.trailer.setdefault(key, val)

    def _infer_trailer(self) -> None:
        """Last resort: find a /Type /Catalog object to act as Root."""
        for entry in self.result.store:
            value = entry.value
            if isinstance(value, PDFDict) and str(value.get("Type", "")) == "Catalog":
                self.result.trailer["Root"] = entry.ref
                self.result.trailer["Size"] = len(self.result.store) + 1
                return
        self.result.warnings.append("no trailer and no catalog found")


def _no_match(data: bytes, pos: int) -> None:
    return None


def _close(
    containers: List[_Container], opened_at: List[int], outer_keys: List[Optional[PDFName]]
) -> Tuple[Optional[PDFDict], Optional[PDFArray], Optional[PDFName]]:
    """Pop the innermost container; return the new innermost one (as
    ``(dict, array)``) and the key the popped one goes under."""
    containers.pop()
    opened_at.pop()
    top = containers[-1] if containers else None
    key = outer_keys.pop()
    if isinstance(top, PDFDict):
        return top, None, key
    return None, top, key


def _ref_lookahead(
    lexer: Lexer,
    match: Callable[[bytes, int], Optional["re.Match[bytes]"]],
    number: int,
    pos: int,
) -> Tuple[PDFObject, int, Optional["re.Match[bytes]"]]:
    """Disambiguate ``N`` from ``N G R`` with two-token lookahead.

    Returns the value, the position after it, and the next token's
    match when the regex already read it.  When either lookahead token
    is irregular, the lexer reads both and rewinds, so the warnings and
    errors are those of reading every token with the lexer.
    """
    data = lexer.data
    second = match(data, pos)
    if second is not None:
        if second.lastindex != _INT_TOKEN:
            return number, pos, second
        third = match(data, second.end())
        if third is not None:
            if third.lastindex == _KEYWORD and third.group(_KEYWORD) == b"R":
                return PDFRef(number, int(second.group(_INT_TOKEN))), third.end(), None
            return number, pos, second
    lexer.pos = pos
    token = lexer.next_token()
    if token.type is TokenType.NUMBER and isinstance(token.value, int):
        gen = token.value
        token = lexer.next_token()
        if token.type is TokenType.KEYWORD and token.value == "R":
            return PDFRef(number, gen), lexer.pos, None
    lexer.pos = pos
    return number, pos, None


def _regular_token(match: "re.Match[bytes]", kind: int) -> Tuple[object, int]:
    """The value and position the lexer gives the first token of a
    regular match (for error messages)."""
    if kind == _REF:
        return int(match.group(_REF_NUM)), match.start(_REF_NUM)
    if kind == _INT_TOKEN:
        return int(match.group(kind)), match.start(kind)
    if kind == _KEYWORD:
        return match.group(kind).decode("latin-1"), match.start(kind)
    return None, match.start(kind)


def parse_pdf(data: bytes, limits: Optional[ScanLimits] = None) -> ParsedPDF:
    """Parse ``data`` into a :class:`ParsedPDF` (convenience wrapper)."""
    return PDFParser(data, limits=limits).parse()
