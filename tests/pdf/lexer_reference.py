"""Frozen pre-optimisation PDF tokenizer (differential reference).

This is the allocation-heavy :class:`Lexer` exactly as it shipped
before the front-end rework: a ``@dataclass`` token carrying a ``raw``
byte slice, per-byte ``in bytes`` membership tests and ``chr()`` calls.
It exists so the fast lexer in :mod:`repro.pdf.lexer` can be proven
equivalent — the hypothesis property in
``tests/property/test_pdf_properties.py`` compares the two token
streams token for token on valid corpora, and
``tests/pdf/test_parser_oracle.py`` parses with it as the old front
end.

Do not use this from production code paths; it is intentionally slow.
The only divergences from the fast lexer are the documented tolerance
fixes (malformed numbers and bad hex digits raise here instead of
warning), which is why the equivalence property restricts itself to
*valid* token text.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.pdf.lexer import DELIMITERS, WHITESPACE, LexerError, TokenType


@dataclass
class ReferenceToken:
    type: TokenType
    value: object
    pos: int
    raw: bytes = b""


def _is_regular(byte: int) -> bool:
    return byte not in WHITESPACE and byte not in DELIMITERS


class ReferenceLexer:
    """The original positioned tokenizer over a PDF byte buffer."""

    def __init__(
        self,
        data: bytes,
        pos: int = 0,
        warnings: Optional[List[str]] = None,
    ) -> None:
        self.data = data
        self.pos = pos
        # Accepted for drop-in compatibility with the fast lexer's
        # constructor; the reference lexer raises instead of warning,
        # so the sink is never written to.
        self.warnings = warnings if warnings is not None else []

    # -- low-level helpers -------------------------------------------------

    def at_end(self) -> bool:
        return self.pos >= len(self.data)

    def peek_byte(self) -> int:
        if self.at_end():
            return -1
        return self.data[self.pos]

    def skip_whitespace(self) -> None:
        data, n = self.data, len(self.data)
        while self.pos < n:
            byte = data[self.pos]
            if byte in WHITESPACE:
                self.pos += 1
            elif byte == ord("%"):
                # Comment runs to end of line.
                while self.pos < n and data[self.pos] not in b"\r\n":
                    self.pos += 1
            else:
                return

    def skip_eol(self) -> None:
        """Consume a single end-of-line marker (CR, LF, or CRLF)."""
        if self.pos < len(self.data) and self.data[self.pos] == 0x0D:
            self.pos += 1
        if self.pos < len(self.data) and self.data[self.pos] == 0x0A:
            self.pos += 1

    # -- token scanning ----------------------------------------------------

    def next_token(self) -> ReferenceToken:
        self.skip_whitespace()
        start = self.pos
        if self.at_end():
            return ReferenceToken(TokenType.EOF, None, start)
        byte = self.data[self.pos]
        if byte == ord("/"):
            return self._scan_name()
        if byte == ord("("):
            return self._scan_literal_string()
        if byte == ord("<"):
            if self.pos + 1 < len(self.data) and self.data[self.pos + 1] == ord("<"):
                self.pos += 2
                return ReferenceToken(TokenType.DICT_OPEN, None, start)
            return self._scan_hex_string()
        if byte == ord(">"):
            if self.pos + 1 < len(self.data) and self.data[self.pos + 1] == ord(">"):
                self.pos += 2
                return ReferenceToken(TokenType.DICT_CLOSE, None, start)
            raise LexerError("unexpected '>'", self.pos)
        if byte == ord("["):
            self.pos += 1
            return ReferenceToken(TokenType.ARRAY_OPEN, None, start)
        if byte == ord("]"):
            self.pos += 1
            return ReferenceToken(TokenType.ARRAY_CLOSE, None, start)
        if byte in b"+-.0123456789":
            return self._scan_number()
        if _is_regular(byte):
            return self._scan_keyword()
        raise LexerError(f"unexpected byte {byte:#x}", self.pos)

    def peek_token(self) -> ReferenceToken:
        saved = self.pos
        token = self.next_token()
        self.pos = saved
        return token

    def _scan_name(self) -> ReferenceToken:
        start = self.pos
        self.pos += 1  # consume '/'
        data, n = self.data, len(self.data)
        begin = self.pos
        while self.pos < n and _is_regular(data[self.pos]):
            self.pos += 1
        raw = data[begin : self.pos].decode("latin-1")
        return ReferenceToken(TokenType.NAME, raw, start, raw=data[start : self.pos])

    def _scan_number(self) -> ReferenceToken:
        start = self.pos
        data, n = self.data, len(self.data)
        self.pos += 1
        while self.pos < n and data[self.pos] in b"0123456789.+-eE":
            self.pos += 1
        text = data[start : self.pos].decode("latin-1")
        try:
            value: object = int(text)
        except ValueError:
            try:
                value = float(text)
            except ValueError as exc:
                raise LexerError(f"bad number {text!r}", start) from exc
        return ReferenceToken(TokenType.NUMBER, value, start, raw=data[start : self.pos])

    def _scan_keyword(self) -> ReferenceToken:
        start = self.pos
        data, n = self.data, len(self.data)
        while self.pos < n and _is_regular(data[self.pos]):
            self.pos += 1
        word = data[start : self.pos].decode("latin-1")
        return ReferenceToken(TokenType.KEYWORD, word, start, raw=data[start : self.pos])

    def _scan_literal_string(self) -> ReferenceToken:
        start = self.pos
        self.pos += 1  # consume '('
        data, n = self.data, len(self.data)
        out = bytearray()
        depth = 1
        while self.pos < n:
            byte = data[self.pos]
            if byte == ord("\\"):
                self.pos += 1
                if self.pos >= n:
                    break
                esc = data[self.pos]
                self.pos += 1
                if esc == ord("n"):
                    out.append(0x0A)
                elif esc == ord("r"):
                    out.append(0x0D)
                elif esc == ord("t"):
                    out.append(0x09)
                elif esc == ord("b"):
                    out.append(0x08)
                elif esc == ord("f"):
                    out.append(0x0C)
                elif esc in b"()\\":
                    out.append(esc)
                elif esc in b"01234567":
                    digits = [esc]
                    while (
                        len(digits) < 3
                        and self.pos < n
                        and data[self.pos] in b"01234567"
                    ):
                        digits.append(data[self.pos])
                        self.pos += 1
                    out.append(int(bytes(digits), 8) & 0xFF)
                elif esc in b"\r\n":
                    # Line continuation: swallow the EOL.
                    if esc == 0x0D and self.pos < n and data[self.pos] == 0x0A:
                        self.pos += 1
                else:
                    out.append(esc)
                continue
            if byte == ord("("):
                depth += 1
                out.append(byte)
            elif byte == ord(")"):
                depth -= 1
                if depth == 0:
                    self.pos += 1
                    return ReferenceToken(
                        TokenType.STRING, bytes(out), start, raw=data[start : self.pos]
                    )
                out.append(byte)
            else:
                out.append(byte)
            self.pos += 1
        raise LexerError("unterminated literal string", start)

    def _scan_hex_string(self) -> ReferenceToken:
        start = self.pos
        self.pos += 1  # consume '<'
        data, n = self.data, len(self.data)
        digits = bytearray()
        while self.pos < n:
            byte = data[self.pos]
            if byte == ord(">"):
                self.pos += 1
                if len(digits) % 2:
                    digits.append(ord("0"))
                try:
                    value = bytes.fromhex(digits.decode("ascii"))
                except ValueError as exc:
                    raise LexerError("bad hex string", start) from exc
                return ReferenceToken(
                    TokenType.HEX_STRING, value, start, raw=data[start : self.pos]
                )
            if byte in WHITESPACE:
                self.pos += 1
                continue
            if chr(byte) not in "0123456789abcdefABCDEF":
                raise LexerError(f"bad hex digit {chr(byte)!r}", self.pos)
            digits.append(byte)
            self.pos += 1
        raise LexerError("unterminated hex string", start)

    # -- convenience -------------------------------------------------------

    def expect_keyword(self, word: str) -> ReferenceToken:
        token = self.next_token()
        if token.type is not TokenType.KEYWORD or token.value != word:
            raise LexerError(f"expected keyword {word!r}, got {token.value!r}", token.pos)
        return token

    def try_keyword(self, word: str) -> bool:
        saved = self.pos
        token = self.next_token()
        if token.type is TokenType.KEYWORD and token.value == word:
            return True
        self.pos = saved
        return False

    def read_integer_pair(self) -> Optional[Tuple[int, int]]:
        """Read ``<int> <int>`` (used for xref subsection headers)."""
        saved = self.pos
        first = self.next_token()
        second = self.next_token()
        if (
            first.type is TokenType.NUMBER
            and second.type is TokenType.NUMBER
            and isinstance(first.value, int)
            and isinstance(second.value, int)
        ):
            return first.value, second.value
        self.pos = saved
        return None
