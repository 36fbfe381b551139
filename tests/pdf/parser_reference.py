"""Frozen token-at-a-time PDF parser (differential reference).

This is :mod:`repro.pdf.parser` exactly as it shipped before values
were read through one token regex: every token, regular or not, is a
:class:`~repro.pdf.lexer.Token` pulled from :meth:`Lexer.next_token`.
It exists only as an oracle.  ``tests/pdf/test_parser_oracle.py``
compares the production parser with it on stores, trailer, header,
recovery flag, warnings and errors, and subclasses it (with the frozen
reference lexer and a whole-buffer recovery scan) to build the old
front end whose re-serialised stores it compares.

Do not use this from production code paths, and do not edit it to
follow a change in the production parser: a deliberate behaviour
change shows up as a failing oracle test and is declared there.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro import limits as limits_mod
from repro.limits import ResourceLimitExceeded, ScanBudget, ScanLimits
from repro.pdf.lexer import Lexer, LexerError, Token, TokenType
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
_HEADER_RE = re.compile(rb"%PDF-(\d+)\.(\d+)")
_VALID_VERSIONS = {
    (1, 0), (1, 1), (1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (1, 7), (2, 0),
}


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

    #: Lexer class used for all tokenization.  The front-end benchmark
    #: subclasses the parser with the frozen reference lexer to measure
    #: (and differentially verify) the tokenizer rework.
    lexer_cls = Lexer

    #: When True (default), :meth:`_recovery_scan` only regex-scans the
    #: gaps between byte ranges already consumed by successfully parsed
    #: objects.  The benchmark subclass sets this False to reproduce the
    #: old whole-buffer scan.
    recovery_skips_covered = True

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
        active = limits_mod.active()
        if limits is None and active is not None:
            self.budget = active
        else:
            self.budget = ScanBudget(limits)

    def _make_lexer(self, data: bytes, pos: int = 0) -> Lexer:
        """Build a lexer whose tolerance warnings land in the parse report."""
        return self.lexer_cls(data, pos, warnings=self.result.warnings)

    # -- public entry --------------------------------------------------

    def parse(self) -> ParsedPDF:
        return self._parse_profiled()

    def _parse_profiled(self) -> ParsedPDF:
        if not self.data:
            raise PDFParseError("empty document")
        self._parse_header()
        offsets = self._collect_xref_offsets()
        for offset in offsets:
            self.budget.check_deadline()
            self._parse_object_at(offset)
        # Recovery scan: pick up objects the xref missed (or everything,
        # when there was no usable xref).  Obfuscated malicious samples
        # depend on reader tolerance here.  Any object it contributes —
        # even alongside a partially working xref — means the document
        # hides payloads from xref-faithful readers, so the flag is set
        # whenever recovery added something, not only when the xref was
        # completely dead.
        found = self._recovery_scan()
        if found:
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
        while True:
            sub_pos = lexer.pos
            pair = lexer.read_integer_pair()
            if pair is None:
                break
            start, count = pair
            # The entry count is attacker-controlled: a subsection
            # claiming 2^31 entries would tokenize past the end of the
            # buffer for hours.  Clamp against the bytes actually left.
            remaining = max(0, len(self.data) - lexer.pos)
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
                entry_off = lexer.next_token()
                entry_gen = lexer.next_token()
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
            num_tok = lexer.next_token()
            gen_tok = lexer.next_token()
            if num_tok.type is not TokenType.NUMBER or gen_tok.type is not TokenType.NUMBER:
                return None
            lexer.expect_keyword("obj")
            value = self._parse_value(lexer)
            value = self._maybe_stream(lexer, value)
            # Everything the lexer consumed belongs to this object; the
            # recovery scan need not re-scan it.
            self._covered.append((offset, lexer.pos))
            return IndirectObject(int(num_tok.value), int(gen_tok.value), value)
        except LexerError as exc:
            self.result.warnings.append(f"bad object at {offset}: {exc}")
            return None

    def _maybe_stream(self, lexer: Lexer, value: PDFObject) -> PDFObject:
        """If ``stream`` follows a dict, slurp the payload."""
        if not isinstance(value, PDFDict):
            return value
        saved = lexer.pos
        if not lexer.try_keyword("stream"):
            lexer.pos = saved
            return value
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
        token = lexer.next_token()
        return self._parse_value_from(lexer, token, depth)

    def _parse_value_from(self, lexer: Lexer, token: Token, depth: int = 0) -> PDFObject:
        if token.type is TokenType.NUMBER:
            return self._number_or_ref(lexer, token)
        if token.type is TokenType.NAME:
            return PDFName.from_raw(str(token.value))
        if token.type is TokenType.STRING:
            return PDFString(token.value, hex_form=False)
        if token.type is TokenType.HEX_STRING:
            return PDFString(token.value, hex_form=True)
        if token.type is TokenType.ARRAY_OPEN:
            # Containers recurse ~2 Python frames per level, so a few
            # hundred nested brackets would hit RecursionError long
            # before any byte budget; bound the nesting instead.
            self.budget.check_nesting_depth(depth)
            array = PDFArray()
            while True:
                item = lexer.next_token()
                if item.type is TokenType.ARRAY_CLOSE:
                    return array
                if item.type is TokenType.EOF:
                    raise LexerError("unterminated array", token.pos)
                array.append(self._parse_value_from(lexer, item, depth + 1))
        if token.type is TokenType.DICT_OPEN:
            self.budget.check_nesting_depth(depth)
            result = PDFDict()
            while True:
                key = lexer.next_token()
                if key.type is TokenType.DICT_CLOSE:
                    return result
                if key.type is TokenType.EOF:
                    raise LexerError("unterminated dictionary", token.pos)
                if key.type is not TokenType.NAME:
                    raise LexerError(
                        f"dictionary key must be a name, got {key.value!r}", key.pos
                    )
                result[PDFName.from_raw(str(key.value))] = self._parse_value(
                    lexer, depth + 1
                )
        if token.type is TokenType.KEYWORD:
            word = str(token.value)
            if word == "true":
                return True
            if word == "false":
                return False
            if word == "null":
                return PDFNull
            raise LexerError(f"unexpected keyword {word!r}", token.pos)
        raise LexerError(f"unexpected token {token.type}", token.pos)

    def _number_or_ref(self, lexer: Lexer, token: Token) -> PDFObject:
        """Disambiguate ``N`` from ``N G R`` with two-token lookahead."""
        if not isinstance(token.value, int) or token.value < 0:
            return token.value
        saved = lexer.pos
        second = lexer.next_token()
        if second.type is TokenType.NUMBER and isinstance(second.value, int):
            third = lexer.next_token()
            if third.type is TokenType.KEYWORD and third.value == "R":
                return PDFRef(token.value, second.value)
        lexer.pos = saved
        return token.value

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
        if not (self.recovery_skips_covered and self._covered):
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
        for gap_start, gap_end in self._recovery_gaps():
            limit = gap_end if gap_end >= n else min(n, gap_end + self._RECOVERY_GAP_MARGIN)
            for match in _OBJ_RE.finditer(data, gap_start, limit):
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


def parse_pdf(data: bytes, limits: Optional[ScanLimits] = None) -> ParsedPDF:
    """Parse ``data`` into a :class:`ParsedPDF` (convenience wrapper)."""
    return PDFParser(data, limits=limits).parse()
