"""Unit tests for the JavaScript tokenizer.

The ``diff``-marked tests at the end hold the regex-driven scanner to
the frozen character-loop oracle (``tests/js/lexer_reference.py``):
identical tokens and identical errors, on generated sources and on
every corpus script.
"""

import math
from typing import Any, Callable, List

import pytest
from hypothesis import given, settings, strategies as st

from repro.js.errors import JSSyntaxError
from repro.js.lexer import OPERATORS, TokenType, tokenize
from tests.js import lexer_reference
from tests.js.test_differential import corpus_scripts


def values(source):
    return [(t.type, t.value) for t in tokenize(source)[:-1]]


class TestNumbers:
    def test_integer(self):
        assert values("42") == [(TokenType.NUMBER, 42.0)]

    def test_float_and_exponent(self):
        assert values("3.14 1e3 2.5e-2") == [
            (TokenType.NUMBER, 3.14),
            (TokenType.NUMBER, 1000.0),
            (TokenType.NUMBER, 0.025),
        ]

    def test_hex(self):
        assert values("0x10 0xFF") == [
            (TokenType.NUMBER, 16.0),
            (TokenType.NUMBER, 255.0),
        ]

    def test_leading_dot(self):
        assert values(".5") == [(TokenType.NUMBER, 0.5)]

    def test_bad_exponent_raises(self):
        with pytest.raises(JSSyntaxError):
            tokenize("1e")

    def test_bad_hex_raises(self):
        with pytest.raises(JSSyntaxError):
            tokenize("0x")

    def test_huge_hex_is_infinity(self):
        # float(int(text, 16)) raised OverflowError from 2**1024 on.
        assert values("0x" + "f" * 300) == [(TokenType.NUMBER, math.inf)]
        assert values("0x1" + "0" * 256) == [(TokenType.NUMBER, math.inf)]


def error_at(source):
    """The (message, line, column) of the error ``source`` raises."""
    with pytest.raises(JSSyntaxError) as info:
        tokenize(source)
    message = str(info.value).rsplit(" (line", 1)[0]
    return message, info.value.line, info.value.column


class TestAsciiDigits:
    """JS DecimalDigit is ASCII 0-9; ``str.isdigit`` also admits ``²``
    and ``٣``, which made ``float()`` raise a bare ValueError (or read
    ``1٣`` as 13)."""

    @pytest.mark.parametrize(
        "source, char, column",
        [("var a = ²;", "²", 9), ("1٣", "٣", 2), ("x = ٣;", "٣", 5), ("a = .٣", "٣", 6)],
    )
    def test_non_ascii_digit_is_an_unexpected_character(self, source, char, column):
        assert error_at(source) == (f"unexpected character {char!r}", 1, column)

    def test_exponent_digits_are_ascii(self):
        assert error_at("1e٣") == ("bad exponent", 1, 3)

    def test_non_ascii_digits_still_continue_identifiers(self):
        assert values("a٣ b² c½") == [
            (TokenType.IDENTIFIER, "a٣"),
            (TokenType.IDENTIFIER, "b²"),
            (TokenType.IDENTIFIER, "c½"),
        ]

    def test_nul_escape_before_a_non_ascii_digit(self):
        assert values("'\\0٣' '\\01'") == [
            (TokenType.STRING, "\0٣"),
            (TokenType.STRING, "01"),
        ]


class TestHexEscapes:
    """``\\x``/``\\u`` take exactly 2/4 ASCII hex digits; ``int(..., 16)``
    also admitted a sign, spaces, ``_`` and non-ASCII digits."""

    @pytest.mark.parametrize(
        "literal",
        ['"\\u+041"', '"\\u 041"', '"\\u0_41"', '"\\u٠٠٤١"', '"\\u004"'],
    )
    def test_bad_unicode_escape(self, literal):
        assert error_at(literal) == ("bad \\u escape", 1, 4)

    @pytest.mark.parametrize("literal", ['"\\x+4"', '"\\x 4"', '"\\x_4"', '"\\x4"'])
    def test_bad_hex_escape(self, literal):
        assert error_at(literal) == ("bad \\x escape", 1, 4)

    def test_long_run_of_unicode_escapes(self):
        assert values("'" + "\\u0041" * 600 + "\\x42'") == [(TokenType.STRING, "A" * 600 + "B")]

    def test_bad_unicode_escape_ending_a_run(self):
        source = "'" + "\\u0041" * 300 + "\\u004'"
        assert error_at(source) == ("bad \\u escape", 1, 2 + 6 * 300 + 2)

    def test_escape_error_after_a_line_continuation(self):
        assert error_at("'ab\\\ncd\\u12'") == ("bad \\u escape", 2, 5)


class TestStrings:
    def test_single_and_double_quotes(self):
        assert values("'a' \"b\"") == [
            (TokenType.STRING, "a"),
            (TokenType.STRING, "b"),
        ]

    def test_escapes(self):
        (token,) = tokenize(r"'\n\t\\\''")[:-1]
        assert token.value == "\n\t\\'"

    def test_hex_and_unicode_escapes(self):
        (token,) = tokenize(r"'\x41邐'")[:-1]
        assert token.value == "A邐"

    def test_unterminated_raises(self):
        with pytest.raises(JSSyntaxError):
            tokenize("'never")

    def test_line_continuation_moves_the_token_to_its_last_line(self):
        tokens = tokenize("x = 'ab\\\ncd'; y")
        assert [(t.value, t.line, t.column) for t in tokens[2:5]] == [
            ("abcd", 2, 5), (";", 2, 4), ("y", 2, 6),
        ]

    def test_equal_literals_are_distinct_objects(self):
        # The spray pool dedupes by identity: never memoise a literal.
        chunk = "A" * 64
        for source in (f"'{chunk}' '{chunk}'", f"'\\x41{chunk}' '\\x41{chunk}'"):
            first, second = (token.value for token in tokenize(source)[:2])
            assert first == second and first is not second

    def test_newline_in_string_raises(self):
        with pytest.raises(JSSyntaxError):
            tokenize("'line\nbreak'")

    def test_bad_unicode_escape_raises(self):
        with pytest.raises(JSSyntaxError):
            tokenize(r"'\uZZZZ'")


class TestIdentifiersAndKeywords:
    def test_identifier_charset(self):
        assert values("_a $b a1") == [
            (TokenType.IDENTIFIER, "_a"),
            (TokenType.IDENTIFIER, "$b"),
            (TokenType.IDENTIFIER, "a1"),
        ]

    def test_keywords_recognised(self):
        for word in ("var", "function", "typeof", "instanceof", "undefined"):
            assert values(word) == [(TokenType.KEYWORD, word)]


class TestOperatorsAndComments:
    def test_max_munch(self):
        ops = [v for _t, v in values("a===b !== c >>> 1 >>= 2")]
        assert "===" in ops and "!==" in ops and ">>>" in ops and ">>=" in ops

    def test_line_comment(self):
        assert values("1 // ignored\n2") == [
            (TokenType.NUMBER, 1.0),
            (TokenType.NUMBER, 2.0),
        ]

    def test_block_comment(self):
        assert values("1 /* x\ny */ 2") == [
            (TokenType.NUMBER, 1.0),
            (TokenType.NUMBER, 2.0),
        ]

    def test_unterminated_block_comment_raises(self):
        with pytest.raises(JSSyntaxError):
            tokenize("/* forever")

    def test_unexpected_character_raises(self):
        with pytest.raises(JSSyntaxError):
            tokenize("var §")

    def test_line_numbers_tracked(self):
        tokens = tokenize("a\nb\nc")
        assert [t.line for t in tokens[:-1]] == [1, 2, 3]


# -- the oracle -------------------------------------------------------------------


def outcome(lex: Callable[[str], List[Any]], source: str) -> Any:
    """Tokens as (type, value, line, column), or the error raised."""
    try:
        return [(t.type, t.value, t.line, t.column) for t in lex(source)]
    except JSSyntaxError as error:
        return ("JSSyntaxError", str(error), error.line, error.column)


def assert_matches_reference(source: str) -> None:
    assert outcome(tokenize, source) == outcome(lexer_reference.tokenize, source), source


#: Source pieces covering every token kind, escape and error path.
PIECES = [
    *OPERATORS,
    # words: ASCII, non-ASCII letters and digits
    "var", "typeof", "a", "_x", "$y", "é", "aé", "½", "²", "٣", "a٣", "b½",
    # numbers: decimal, leading dot, exponent, hex, and their errors
    "0", "42", "007", "3.14", "5.", ".5", "1e3", "2.5e-2", "1E+7", "1e", "1e+",
    "0x1F", "0Xab", "0x", "1٣", "0x" + "f" * 256,
    # string literals: every escape kind, continuations, bad escapes
    "'plain'", '"dq"', "'\\n\\t\\r\\b\\f\\v'", "'\\0'", "'\\01'", "'\\0٣'",
    "'\\x41'", "'\\x4'", "'\\x+4'", "'\\u0041'", "'\\u004'", "'\\u+041'",
    "'\\u 041'", "'\\u0_41'", "'\\\\'", "'\\''", '"\\""', "'\\q'", "'a\\\nb'",
    "'a\\\r\nb'", "'\u2028'", "'\\\u2028'",
    # unterminated literals and comments, lone quotes and backslashes
    "'abc", '"abc', "'ab\ncd'", "'\\", "/* open", "/*/", "'", '"', "\\",
    # comments and whitespace
    "// line\n", "/* a\nb */", "/**/", " ", "\t", "\n", "\r\n", "\xa0", "\u2028",
    "\f", "\v",
]

source_text = st.lists(
    st.sampled_from(PIECES)
    | st.text(alphabet=st.sampled_from(list("ab019xXeE+-.'\"\\/*\n \tu_é²٣½\xa0\u2028")), max_size=6),
    max_size=24,
).map("".join)


@pytest.mark.diff
@given(source_text)
@settings(max_examples=1500, deadline=None)
def test_lexer_matches_the_reference(source: str) -> None:
    assert_matches_reference(source)


@pytest.mark.diff
def test_lexer_matches_the_reference_on_every_corpus_script() -> None:
    scripts = corpus_scripts()
    assert len(scripts) > 10
    for source in scripts:
        assert_matches_reference(source)
