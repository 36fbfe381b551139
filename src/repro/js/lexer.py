"""JavaScript tokenizer.

Covers the ES3 subset the corpus and the instrumentation emit: numeric
literals (decimal, hex, exponent), single/double-quoted strings with
the full escape set (``\\xNN``, ``\\uNNNN``, ``\\0``, line
continuations), identifiers and keywords, the operator set including
shifts and strict equality, and both comment styles.  Regular-expression
literals are not supported (none of the workloads use them).

The scanner is driven by regexes, not by a loop over characters:

* one compiled alternation (:data:`_TOKEN`) matches each whitespace
  run, newline, comment, number, word and operator, with the operators
  in max-munch (longest first) order;
* one regex finds each string literal's body, and one ``re.sub``
  decodes its escapes.

Digits are ASCII ``0-9`` (JS DecimalDigit; ``str.isdigit`` would admit
``²`` and ``٣``), and ``\\x``/``\\u`` escapes take exactly 2/4 ASCII hex
digits.  A word starts with a ``str.isalpha`` character, ``_`` or ``$``
and continues with ``str.isalnum`` characters, ``_`` or ``$`` (the
regex ``\\w`` class is exactly ``str.isalnum`` plus ``_``).

Every decoded literal is a new ``str``: equal literals stay distinct
objects, which the spray pool's identity dedupe relies on.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum, auto
from typing import Dict, List

from repro.js.errors import JSSyntaxError
from repro.js.values import int_to_number

KEYWORDS = frozenset(
    """
    break case catch continue default delete do else false finally for
    function if in instanceof new null return switch this throw true try
    typeof var void while with undefined
    """.split()
)

#: Multi-character operators, longest first so max-munch scanning works.
OPERATORS = sorted(
    [
        ">>>=", "===", "!==", ">>>", "<<=", ">>=", "==", "!=", "<=", ">=",
        "&&", "||", "++", "--", "+=", "-=", "*=", "/=", "%=", "&=", "|=",
        "^=", "<<", ">>", "+", "-", "*", "/", "%", "=", "<", ">", "!", "~",
        "&", "|", "^", "?", ":", ";", ",", ".", "(", ")", "[", "]", "{", "}",
    ],
    key=len,
    reverse=True,
)


class TokenType(Enum):
    NUMBER = auto()
    STRING = auto()
    IDENTIFIER = auto()
    KEYWORD = auto()
    OPERATOR = auto()
    EOF = auto()


@dataclass
class Token:
    type: TokenType
    value: object
    line: int
    column: int

    def is_op(self, *ops: str) -> bool:
        return self.type is _OPERATOR and self.value in ops

    def is_keyword(self, *words: str) -> bool:
        return self.type is _KEYWORD and self.value in words


# Looking a member up on an Enum class costs several times a global
# lookup, and the parser calls ``is_op``/``is_keyword`` several times
# per token.
_NUMBER = TokenType.NUMBER
_STRING = TokenType.STRING
_IDENTIFIER = TokenType.IDENTIFIER
_KEYWORD = TokenType.KEYWORD
_OPERATOR = TokenType.OPERATOR


#: One token per match, anchored where the last one ended.  A string
#: literal matches only its opening quote here; :data:`_STRING_BODY`
#: matches the rest.
_TOKEN = re.compile(
    r"(?P<space>[ \t\r\f\v\xa0]+)"
    r"|(?P<newline>\n)"
    r"|(?P<comment>//[^\n]*|/\*(?:[\s\S]*?\*/)?)"
    r"|(?P<hex>0[xX][0-9a-fA-F]*)"
    r"|(?P<number>(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]*)?)"
    r"|(?P<quote>[\"'])"
    r"|(?P<word>[\w$]+)"
    r"|(?P<op>" + "|".join(map(re.escape, OPERATORS)) + ")"
    r"|(?P<other>[\s\S])"
)

#: A string literal's body, after its opening quote: anything but the
#: quote, a backslash or a newline, or a backslash and any one
#: character.  Every character has one way to match, so the scan is
#: linear.  It stops at the closing quote, a newline, the end of the
#: input, a backslash that ends the input, or after 1,024 escapes: the
#: regex engine keeps backtracking state for every repetition of the
#: group, about 110 bytes each, so a match must not span an unbounded
#: run of escapes.
_STRING_BODY = {
    quote: re.compile(rf"[^{quote}\\\n]*(?:\\[\s\S][^{quote}\\\n]*){{0,1024}}")
    for quote in "'\""
}

#: One escape: a run of up to 256 ``\uXXXX`` (the instrumentation
#: wrapper's ciphertext is one long run; bounding a match bounds the
#: list its decoding splits it into), ``\xXX``, ``\0`` not followed by a
#: digit, or a backslash and any other character (a ``u``/``x`` here
#: lacks its digits).
_ESCAPE = re.compile(
    r"\\(?:u([0-9a-fA-F]{4}(?:\\u[0-9a-fA-F]{4}){0,255})|x([0-9a-fA-F]{2})|(0(?![0-9]))|([\s\S]))"
)
_SINGLE_ESCAPES: Dict[str, str] = {
    "n": "\n", "t": "\t", "r": "\r", "b": "\b", "f": "\f", "v": "\v",
    "\n": "",  # line continuation
}


class _BadEscape(Exception):
    """A ``\\u``/``\\x`` escape without its hex digits, ``offset``
    characters into the literal's body."""

    def __init__(self, offset: int, letter: str) -> None:
        super().__init__(offset, letter)
        self.offset = offset
        self.letter = letter


def _unescape(match: re.Match[str]) -> str:
    run = match[1]
    if run is not None:
        return "".join([chr(int(digits, 16)) for digits in run.split("\\u")])
    group = match.lastindex
    if group == 2:
        return chr(int(match[2], 16))
    if group == 3:
        return "\0"
    char: str = match[4]
    if char == "u" or char == "x":
        raise _BadEscape(match.start(), char)
    return _SINGLE_ESCAPES.get(char, char)


def _decode(body: str, source: str, offset: int) -> str:
    """``body`` (at ``offset`` in ``source``) with its escapes decoded."""
    try:
        return _ESCAPE.sub(_unescape, body)
    except _BadEscape as bad:
        # Reported just past the escape's letter, where its digits start.
        position = offset + bad.offset + 2
        raise _error(source, position, f"bad \\{bad.letter} escape") from None


def _error(source: str, position: int, message: str) -> JSSyntaxError:
    """``message`` at ``position``, with its 1-based line and column.
    Every ``\\n`` before a reached position is a line break: raw ones,
    ones in block comments and escaped ones (line continuations)."""
    line_start = source.rfind("\n", 0, position) + 1
    return JSSyntaxError(message, source.count("\n", 0, position) + 1, position - line_start + 1)


def _unclosed_string(source: str, end: int) -> JSSyntaxError:
    """The error for a string literal whose body stops at ``end``
    without its closing quote."""
    if end == len(source):
        return _error(source, end, "unterminated string literal")
    if source[end] == "\n":
        return _error(source, end, "newline in string literal")
    # A backslash the body could not pair: the input's last character.
    return _error(source, len(source), "bad escape at end of input")


def tokenize(source: str) -> List[Token]:
    """Tokenize ``source`` fully (the parser wants random access)."""
    tokens: List[Token] = []
    append = tokens.append
    line = 1
    line_start = 0
    scan = _TOKEN.match
    pos = 0
    while True:
        match = scan(source, pos)
        if match is None:  # end of input
            break
        start = pos
        pos = match.end()
        kind = match.lastgroup
        if kind == "space":
            continue
        if kind == "op":
            append(Token(_OPERATOR, match.group(), line, start - line_start + 1))
        elif kind == "word":
            word = match.group()
            first = word[0]
            if not first.isalpha() and first != "_" and first != "$":
                raise _error(source, start, f"unexpected character {first!r}")
            token_type = _KEYWORD if word in KEYWORDS else _IDENTIFIER
            append(Token(token_type, word, line, start - line_start + 1))
        elif kind == "newline":
            line += 1
            line_start = pos
        elif kind == "quote":
            quote = match.group()
            match_body = _STRING_BODY[quote].match
            end = pos
            while True:
                part = match_body(source, end)
                assert part is not None  # a body may be empty, so it always matches
                end = part.end()
                if source[end : end + 1] != "\\" or end + 1 == len(source):
                    break
                # An escape follows: the match stopped at its 1,024th.
            value = source[pos:end]
            column = start - line_start + 1
            if "\\" in value:
                value = _decode(value, source, pos)
                # Line continuations: the token's line is where it ends.
                continued = source.count("\n", pos, end)
                if continued:
                    line += continued
                    line_start = source.rindex("\n", pos, end) + 1
            if source[end : end + 1] != quote:
                raise _unclosed_string(source, end)
            pos = end + 1
            append(Token(_STRING, value, line, column))
        elif kind == "number":
            text = match.group()
            if text[-1] in "eE+-":  # an exponent marker with no digits
                raise _error(source, pos, "bad exponent")
            append(Token(_NUMBER, float(text), line, start - line_start + 1))
        elif kind == "hex":
            text = match.group()
            if len(text) == 2:
                raise _error(source, pos, "bad hex literal")
            append(Token(_NUMBER, int_to_number(int(text, 16)), line, start - line_start + 1))
        elif kind == "comment":
            text = match.group()
            if text == "/*":
                raise _error(source, start, "unterminated block comment")
            newlines = text.count("\n")
            if newlines:
                line += newlines
                line_start = start + text.rindex("\n") + 1
        else:  # other
            raise _error(source, start, f"unexpected character {match.group()!r}")
    append(Token(TokenType.EOF, None, line, len(source) - line_start + 1))
    return tokens
