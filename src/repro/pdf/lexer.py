"""Tokenizer for PDF syntax.

Operates on bytes and exposes a small pull-style API used by the
parser.  Whitespace and comments are skipped; literal strings handle
escapes and balanced parentheses; names keep their raw spelling so the
``#xx`` obfuscation feature can observe it.

The tokenizer sits on the front-end hot path (every object of every
document goes through it), so it is written to be allocation-lean:

* :class:`Token` is a ``__slots__`` class holding exactly
  ``(type, value, pos)`` — no per-token ``raw`` byte slice is
  materialised (nothing consumed it, and on a big document those
  slices dominated the parse-phase allocation profile);
* byte classification uses precomputed 256-entry lookup tables instead
  of per-byte ``chr()`` calls or ``in bytes`` membership scans;
* name/keyword/number runs and literal-string bodies are located with
  C-speed regex/`find` scans and copied as single slices rather than
  byte-at-a-time Python loops.

Malformed syntax is *tolerated* the way real readers tolerate it,
because a lexer that raises on junk rewards malformed-syntax evasion
by silently dropping whole objects during recovery parsing:

* a number run that is not a valid number is truncated to its longest
  valid numeric prefix (``2-3`` lexes as ``2`` then ``-3``); a run
  with no valid prefix (a bare ``+``) is skipped entirely;
* non-hex bytes inside a hex string are skipped (Adobe ignores them).

Both paths record a human-readable note in :attr:`Lexer.warnings` so
the tolerance becomes *parse evidence* — the parser threads its
result's warning list into every lexer it creates.  The frozen
pre-optimisation implementation lives in ``tests/pdf/lexer_reference.py``
for differential testing.

The parser reads regular tokens (names, short integers, ``<<``, ``>>``,
``[``, ``]``, keywords) through its own token regex and calls
:meth:`Lexer.next_token` for everything else, so every tolerance
warning and every :class:`LexerError` is produced here.
"""

from __future__ import annotations

import re
from enum import Enum, auto
from typing import List, Optional, Tuple

WHITESPACE = b"\x00\t\n\x0c\r "
DELIMITERS = b"()<>[]{}/%"

#: Cap on per-lexer tolerance warnings: a hostile document could
#: otherwise mint one warning per byte and balloon the parse report.
MAX_LEXER_WARNINGS = 100


class TokenType(Enum):
    NUMBER = auto()
    NAME = auto()
    STRING = auto()
    HEX_STRING = auto()
    ARRAY_OPEN = auto()
    ARRAY_CLOSE = auto()
    DICT_OPEN = auto()
    DICT_CLOSE = auto()
    KEYWORD = auto()  # obj, endobj, stream, R, true, false, null, ...
    EOF = auto()


# Enum attribute lookups are surprisingly costly on a hot path; bind
# the members once at module level for the scanner's internal use.
_NUMBER = TokenType.NUMBER
_NAME = TokenType.NAME
_STRING = TokenType.STRING
_HEX_STRING = TokenType.HEX_STRING
_ARRAY_OPEN = TokenType.ARRAY_OPEN
_ARRAY_CLOSE = TokenType.ARRAY_CLOSE
_DICT_OPEN = TokenType.DICT_OPEN
_DICT_CLOSE = TokenType.DICT_CLOSE
_KEYWORD = TokenType.KEYWORD
_EOF = TokenType.EOF


class Token:
    """One lexed token: ``(type, value, pos)``.

    Deliberately *not* a dataclass and deliberately without the old
    ``raw`` byte-slice field — one of these is allocated per token on
    the front-end hot path.
    """

    __slots__ = ("type", "value", "pos")

    def __init__(self, type: TokenType, value: object, pos: int) -> None:
        self.type = type
        self.value = value
        self.pos = pos

    def __repr__(self) -> str:
        return f"Token({self.type.name}, {self.value!r}, pos={self.pos})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Token):
            return NotImplemented
        return (
            self.type is other.type
            and self.value == other.value
            and self.pos == other.pos
        )

    def __hash__(self) -> int:
        return hash((self.type, str(self.value), self.pos))


class LexerError(ValueError):
    """Raised on malformed PDF syntax."""

    def __init__(self, message: str, pos: int) -> None:
        super().__init__(f"{message} at byte {pos}")
        self.pos = pos


# -- byte-class lookup tables -------------------------------------------------

#: 1 where the byte is PDF whitespace.
_IS_WS = bytes(1 if bytes([b]) in WHITESPACE else 0 for b in range(256))
#: 1 where the byte is *regular* (neither whitespace nor delimiter).
_IS_REGULAR = bytes(
    0 if (bytes([b]) in WHITESPACE or bytes([b]) in DELIMITERS) else 1
    for b in range(256)
)
#: 1 where the byte may appear inside a number run.
_IS_NUMCHAR = bytes(1 if bytes([b]) in b"0123456789.+-eE" else 0 for b in range(256))
#: Nibble value of a hex digit, or -1.
_HEX_VAL = tuple(
    int(chr(b), 16) if chr(b) in "0123456789abcdefABCDEF" else -1 for b in range(256)
)

#: A run of regular characters (name/keyword bodies).
_REGULAR_RUN_RE = re.compile(rb"[^\x00\t\n\x0c\r ()<>\[\]{}/%]*")
#: A run of number characters.
_NUMBER_RUN_RE = re.compile(rb"[0-9.+\-eE]*")
#: Longest valid numeric prefix (the tolerance truncation rule).
_NUMBER_PREFIX_RE = re.compile(rb"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)")
#: Bytes needing per-byte handling inside a literal string.
_STRING_SPECIAL_RE = re.compile(rb"[\\()]")
#: An entirely well-formed hex-string body (fast path).
_ALL_HEX_RE = re.compile(rb"[0-9a-fA-F]*\Z")
#: End-of-line bytes terminating a comment.
_COMMENT_END_RE = re.compile(rb"[\r\n]")


def is_regular(byte: int) -> bool:
    return _IS_REGULAR[byte] == 1


class Lexer:
    """A positioned tokenizer over a PDF byte buffer.

    ``warnings`` is an optional shared sink (the parser passes its
    ``ParsedPDF.warnings`` list) that receives tolerance notes for
    malformed-but-recoverable syntax; when omitted the lexer keeps a
    private list.  At most :data:`MAX_LEXER_WARNINGS` notes are
    recorded per lexer.
    """

    __slots__ = ("data", "pos", "warnings", "_n", "_warning_count")

    def __init__(
        self,
        data: bytes,
        pos: int = 0,
        warnings: Optional[List[str]] = None,
    ) -> None:
        self.data = data
        self.pos = pos
        self.warnings: List[str] = warnings if warnings is not None else []
        self._n = len(data)
        self._warning_count = 0

    # -- low-level helpers -------------------------------------------------

    def at_end(self) -> bool:
        return self.pos >= self._n

    def peek_byte(self) -> int:
        if self.pos >= self._n:
            return -1
        return self.data[self.pos]

    def _warn(self, message: str) -> None:
        # Parser lookahead (the N G R reference check) rewinds and
        # re-lexes; messages carry the byte offset, so an exact repeat
        # is the same defect seen twice, not a second defect.
        if self._warning_count < MAX_LEXER_WARNINGS:
            if message in self.warnings:
                return
            self.warnings.append(message)
        elif self._warning_count == MAX_LEXER_WARNINGS:
            self.warnings.append("further lexer tolerance warnings suppressed")
        self._warning_count += 1

    def skip_whitespace(self) -> None:
        data, n, ws = self.data, self._n, _IS_WS
        pos = self.pos
        while pos < n:
            byte = data[pos]
            if ws[byte]:
                pos += 1
            elif byte == 0x25:  # '%' — comment runs to end of line
                match = _COMMENT_END_RE.search(data, pos + 1)
                pos = match.start() if match is not None else n
            else:
                break
        self.pos = pos

    def skip_eol(self) -> None:
        """Consume a single end-of-line marker (CR, LF, or CRLF)."""
        data, n = self.data, self._n
        if self.pos < n and data[self.pos] == 0x0D:
            self.pos += 1
        if self.pos < n and data[self.pos] == 0x0A:
            self.pos += 1

    # -- token scanning ----------------------------------------------------

    def next_token(self) -> Token:
        data, n = self.data, self._n
        while True:
            self.skip_whitespace()
            start = self.pos
            if start >= n:
                return Token(_EOF, None, start)
            byte = data[start]
            if byte == 0x2F:  # '/'
                return self._scan_name()
            if byte == 0x28:  # '('
                return self._scan_literal_string()
            if byte == 0x3C:  # '<'
                if start + 1 < n and data[start + 1] == 0x3C:
                    self.pos = start + 2
                    return Token(_DICT_OPEN, None, start)
                return self._scan_hex_string()
            if byte == 0x3E:  # '>'
                if start + 1 < n and data[start + 1] == 0x3E:
                    self.pos = start + 2
                    return Token(_DICT_CLOSE, None, start)
                raise LexerError("unexpected '>'", start)
            if byte == 0x5B:  # '['
                self.pos = start + 1
                return Token(_ARRAY_OPEN, None, start)
            if byte == 0x5D:  # ']'
                self.pos = start + 1
                return Token(_ARRAY_CLOSE, None, start)
            if _IS_NUMCHAR[byte] and byte != 0x65 and byte != 0x45:  # not e/E
                token = self._scan_number()
                if token is None:
                    continue  # junk run skipped with a warning
                return token
            if _IS_REGULAR[byte]:
                return self._scan_keyword()
            raise LexerError(f"unexpected byte {byte:#x}", start)

    def peek_token(self) -> Token:
        saved = self.pos
        token = self.next_token()
        self.pos = saved
        return token

    def _scan_name(self) -> Token:
        start = self.pos
        match = _REGULAR_RUN_RE.match(self.data, start + 1)
        assert match is not None  # the pattern matches the empty run
        end = match.end()
        self.pos = end
        return Token(_NAME, self.data[start + 1 : end].decode("latin-1"), start)

    def _scan_number(self) -> Optional[Token]:
        """Scan a number run; tolerate junk by truncating or skipping.

        Returns ``None`` when the whole run was junk (no valid numeric
        prefix) — the caller moves on to the next token, so malformed
        spellings like a bare ``+`` cannot abort the enclosing object.
        """
        start = self.pos
        data = self.data
        match = _NUMBER_RUN_RE.match(data, start)
        assert match is not None
        end = match.end()
        self.pos = end
        text = data[start:end].decode("latin-1")
        try:
            return Token(_NUMBER, int(text), start)
        except ValueError:
            pass
        try:
            return Token(_NUMBER, float(text), start)
        except ValueError:
            pass
        # Tolerance: real readers accept the longest valid prefix and
        # re-lex the remainder (``2-3`` → 2, then -3).  A run with no
        # valid prefix at all (bare sign, lone dot) is skipped.
        prefix = _NUMBER_PREFIX_RE.match(data, start, end)
        if prefix is not None:
            self.pos = prefix.end()
            prefix_text = prefix.group().decode("latin-1")
            value: object = (
                float(prefix_text) if (b"." in prefix.group()) else int(prefix_text)
            )
            self._warn(
                f"malformed number {text!r} at byte {start} truncated to {value}"
            )
            return Token(_NUMBER, value, start)
        self._warn(f"skipped malformed number {text!r} at byte {start}")
        return None

    def _scan_keyword(self) -> Token:
        start = self.pos
        match = _REGULAR_RUN_RE.match(self.data, start)
        assert match is not None
        end = match.end()
        self.pos = end
        return Token(_KEYWORD, self.data[start:end].decode("latin-1"), start)

    def _scan_literal_string(self) -> Token:
        start = self.pos
        data, n = self.data, self._n
        pos = start + 1  # consume '('
        depth = 1
        out = bytearray()
        search = _STRING_SPECIAL_RE.search
        while pos < n:
            match = search(data, pos)
            if match is None:
                break
            at = match.start()
            if at > pos:
                out += data[pos:at]  # bulk-copy the unremarkable span
            byte = data[at]
            pos = at + 1
            if byte == 0x28:  # '('
                depth += 1
                out.append(byte)
                continue
            if byte == 0x29:  # ')'
                depth -= 1
                if depth == 0:
                    self.pos = pos
                    return Token(_STRING, bytes(out), start)
                out.append(byte)
                continue
            # Backslash escape.
            if pos >= n:
                break
            esc = data[pos]
            pos += 1
            if esc == 0x6E:  # n
                out.append(0x0A)
            elif esc == 0x72:  # r
                out.append(0x0D)
            elif esc == 0x74:  # t
                out.append(0x09)
            elif esc == 0x62:  # b
                out.append(0x08)
            elif esc == 0x66:  # f
                out.append(0x0C)
            elif esc in (0x28, 0x29, 0x5C):  # ( ) \
                out.append(esc)
            elif 0x30 <= esc <= 0x37:  # octal digits
                value = esc - 0x30
                for _ in range(2):
                    if pos < n and 0x30 <= data[pos] <= 0x37:
                        value = (value << 3) | (data[pos] - 0x30)
                        pos += 1
                    else:
                        break
                out.append(value & 0xFF)
            elif esc in (0x0D, 0x0A):
                # Line continuation: swallow the EOL.
                if esc == 0x0D and pos < n and data[pos] == 0x0A:
                    pos += 1
            else:
                out.append(esc)
        raise LexerError("unterminated literal string", start)

    def _scan_hex_string(self) -> Token:
        start = self.pos
        data = self.data
        end = data.find(b">", start + 1)
        if end < 0:
            raise LexerError("unterminated hex string", start)
        body = data[start + 1 : end]
        self.pos = end + 1
        if _ALL_HEX_RE.match(body) is not None and len(body) % 2 == 0:
            # Fast path: clean, even-length body decodes in one C call.
            return Token(_HEX_STRING, bytes.fromhex(body.decode("ascii")), start)
        out = bytearray()
        hexval, ws = _HEX_VAL, _IS_WS
        hi = -1
        bad = 0
        for byte in body:
            value = hexval[byte]
            if value >= 0:
                if hi < 0:
                    hi = value
                else:
                    out.append((hi << 4) | value)
                    hi = -1
            elif not ws[byte]:
                # Tolerance: real readers skip non-hex bytes instead of
                # dropping the whole enclosing object.
                bad += 1
        if hi >= 0:  # odd digit count: final digit padded with 0
            out.append(hi << 4)
        if bad:
            self._warn(
                f"ignored {bad} non-hex byte(s) in hex string at byte {start}"
            )
        return Token(_HEX_STRING, bytes(out), start)

    # -- convenience -------------------------------------------------------

    def expect_keyword(self, word: str) -> Token:
        token = self.next_token()
        if token.type is not _KEYWORD or token.value != word:
            raise LexerError(f"expected keyword {word!r}, got {token.value!r}", token.pos)
        return token

    def try_keyword(self, word: str) -> bool:
        saved = self.pos
        token = self.next_token()
        if token.type is _KEYWORD and token.value == word:
            return True
        self.pos = saved
        return False

    def read_integer_pair(self) -> Optional[Tuple[int, int]]:
        """Read ``<int> <int>`` (used for xref subsection headers)."""
        saved = self.pos
        first = self.next_token()
        second = self.next_token()
        if (
            first.type is _NUMBER
            and second.type is _NUMBER
            and isinstance(first.value, int)
            and isinstance(second.value, int)
        ):
            return first.value, second.value
        self.pos = saved
        return None
