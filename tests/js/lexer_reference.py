"""Frozen character-loop JavaScript tokenizer (differential oracle).

This is :func:`repro.js.lexer.tokenize` as it was before it became a
regex-driven scanner: one Python-level step per character, an
``OPERATORS`` loop of ``startswith`` calls per operator, and string
literals decoded one character at a time.  It carries the two fixes
that landed just before the rewrite: JS digits are ASCII ``0-9``
(``str.isdigit`` admits ``²`` and ``٣``), and ``\\x``/``\\u`` escapes
take exactly 2/4 ASCII hex digits (``int(..., 16)`` admits ``+``,
spaces, ``_`` and non-ASCII digits).

The production lexer must agree with it on every input: the same
tokens (type, value, line, column) and the same ``JSSyntaxError``
(message, line, column).  ``tests/js/test_lexer.py`` checks that by
hypothesis property and over every corpus script.  The token vocabulary
(``Token``, ``TokenType``, ``KEYWORDS``, ``OPERATORS``) is shared with
the production module; the scanning algorithm here is frozen.

Never use this from ``src/``: it is the slow path the rewrite removed.
"""

from __future__ import annotations

import math
from typing import List, Optional

from repro.js.errors import JSSyntaxError
from repro.js.lexer import KEYWORDS, OPERATORS, Token, TokenType

DIGITS = frozenset("0123456789")
HEX_DIGITS = frozenset("0123456789abcdefABCDEF")


def tokenize(source: str) -> List[Token]:
    """``source`` as tokens, one character at a time."""
    tokens: List[Token] = []
    pos = 0
    line = 1
    line_start = 0
    n = len(source)

    def column() -> int:
        return pos - line_start + 1

    def error(message: str) -> JSSyntaxError:
        return JSSyntaxError(message, line, column())

    while pos < n:
        ch = source[pos]
        if ch == "\n":
            line += 1
            pos += 1
            line_start = pos
            continue
        if ch in " \t\r\f\v ":
            pos += 1
            continue
        if source.startswith("//", pos):
            while pos < n and source[pos] != "\n":
                pos += 1
            continue
        if source.startswith("/*", pos):
            end = source.find("*/", pos + 2)
            if end < 0:
                raise error("unterminated block comment")
            for i in range(pos, end):
                if source[i] == "\n":
                    line += 1
                    line_start = i + 1
            pos = end + 2
            continue
        if ch in DIGITS or (ch == "." and pos + 1 < n and source[pos + 1] in DIGITS):
            start = pos
            start_col = column()
            if source.startswith(("0x", "0X"), pos):
                pos += 2
                while pos < n and source[pos] in HEX_DIGITS:
                    pos += 1
                text = source[start:pos]
                if len(text) == 2:
                    raise error("bad hex literal")
                try:
                    value = float(int(text, 16))
                except OverflowError:  # 2**1024 and up read as Infinity
                    value = math.inf
                tokens.append(Token(TokenType.NUMBER, value, line, start_col))
                continue
            while pos < n and source[pos] in DIGITS:
                pos += 1
            if pos < n and source[pos] == ".":
                pos += 1
                while pos < n and source[pos] in DIGITS:
                    pos += 1
            if pos < n and source[pos] in "eE":
                pos += 1
                if pos < n and source[pos] in "+-":
                    pos += 1
                if pos >= n or source[pos] not in DIGITS:
                    raise error("bad exponent")
                while pos < n and source[pos] in DIGITS:
                    pos += 1
            tokens.append(
                Token(TokenType.NUMBER, float(source[start:pos]), line, start_col)
            )
            continue
        if ch in "'\"":
            start_col = column()
            quote = ch
            pos += 1
            out: List[str] = []
            while True:
                if pos >= n:
                    raise error("unterminated string literal")
                current = source[pos]
                if current == quote:
                    pos += 1
                    break
                if current == "\n":
                    raise error("newline in string literal")
                if current == "\\":
                    pos += 1
                    if pos >= n:
                        raise error("bad escape at end of input")
                    esc = source[pos]
                    pos += 1
                    if esc == "n":
                        out.append("\n")
                    elif esc == "t":
                        out.append("\t")
                    elif esc == "r":
                        out.append("\r")
                    elif esc == "b":
                        out.append("\b")
                    elif esc == "f":
                        out.append("\f")
                    elif esc == "v":
                        out.append("\v")
                    elif esc == "0" and (pos >= n or source[pos] not in DIGITS):
                        out.append("\0")
                    elif esc == "x":
                        digits = source[pos : pos + 2]
                        if len(digits) != 2 or any(c not in HEX_DIGITS for c in digits):
                            raise error("bad \\x escape")
                        out.append(chr(int(digits, 16)))
                        pos += 2
                    elif esc == "u":
                        digits = source[pos : pos + 4]
                        if len(digits) != 4 or any(c not in HEX_DIGITS for c in digits):
                            raise error("bad \\u escape")
                        out.append(chr(int(digits, 16)))
                        pos += 4
                    elif esc == "\n":
                        line += 1
                        line_start = pos
                    else:
                        out.append(esc)
                    continue
                out.append(current)
                pos += 1
            tokens.append(Token(TokenType.STRING, "".join(out), line, start_col))
            continue
        if ch.isalpha() or ch in "_$":
            start = pos
            start_col = column()
            while pos < n and (source[pos].isalnum() or source[pos] in "_$"):
                pos += 1
            word = source[start:pos]
            kind = TokenType.KEYWORD if word in KEYWORDS else TokenType.IDENTIFIER
            tokens.append(Token(kind, word, line, start_col))
            continue
        matched: Optional[str] = None
        for op in OPERATORS:
            if source.startswith(op, pos):
                matched = op
                break
        if matched is None:
            raise error(f"unexpected character {ch!r}")
        tokens.append(Token(TokenType.OPERATOR, matched, line, column()))
        pos += len(matched)

    tokens.append(Token(TokenType.EOF, None, line, column()))
    return tokens
