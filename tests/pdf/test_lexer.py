"""Unit tests for the PDF tokenizer."""

import pytest

from repro.pdf.lexer import Lexer, LexerError, TokenType


def tokens_of(data: bytes):
    lexer = Lexer(data)
    out = []
    while True:
        token = lexer.next_token()
        if token.type is TokenType.EOF:
            return out
        out.append(token)


def test_numbers():
    values = [t.value for t in tokens_of(b"1 -2 +3 4.5 -0.25 .5")]
    assert values == [1, -2, 3, 4.5, -0.25, 0.5]


def test_name_with_hex_escape_kept_raw():
    (token,) = tokens_of(b"/JavaScr#69pt")
    assert token.type is TokenType.NAME
    assert token.value == "JavaScr#69pt"


def test_literal_string_with_escapes():
    (token,) = tokens_of(rb"(a\(b\)c \n \101)")
    assert token.type is TokenType.STRING
    assert token.value == b"a(b)c \n A"


def test_literal_string_nested_parens():
    (token,) = tokens_of(b"(outer (inner) tail)")
    assert token.value == b"outer (inner) tail"


def test_literal_string_line_continuation():
    (token,) = tokens_of(b"(line\\\ncont)")
    assert token.value == b"linecont"


def test_unterminated_string_raises():
    with pytest.raises(LexerError):
        tokens_of(b"(never closed")


def test_hex_string():
    (token,) = tokens_of(b"<48 65 6C>")
    assert token.type is TokenType.HEX_STRING
    assert token.value == b"Hel"


def test_hex_string_odd_padded():
    (token,) = tokens_of(b"<484>")
    assert token.value == b"H@"


def test_dict_and_array_delimiters():
    kinds = [t.type for t in tokens_of(b"<< /A [1 2] >>")]
    assert kinds == [
        TokenType.DICT_OPEN,
        TokenType.NAME,
        TokenType.ARRAY_OPEN,
        TokenType.NUMBER,
        TokenType.NUMBER,
        TokenType.ARRAY_CLOSE,
        TokenType.DICT_CLOSE,
    ]


def test_comment_skipped():
    values = [t.value for t in tokens_of(b"1 % comment to eol\n2")]
    assert values == [1, 2]


def test_keywords():
    values = [t.value for t in tokens_of(b"obj endobj stream R true false null")]
    assert values == ["obj", "endobj", "stream", "R", "true", "false", "null"]


def test_expect_keyword():
    lexer = Lexer(b"trailer <<>>")
    lexer.expect_keyword("trailer")
    with pytest.raises(LexerError):
        Lexer(b"xref").expect_keyword("trailer")


def test_try_keyword_rewinds():
    lexer = Lexer(b"hello")
    assert not lexer.try_keyword("xref")
    assert lexer.next_token().value == "hello"


def test_read_integer_pair():
    assert Lexer(b"0 6").read_integer_pair() == (0, 6)
    lexer = Lexer(b"trailer")
    assert lexer.read_integer_pair() is None
    assert lexer.next_token().value == "trailer"


def test_skip_eol_variants():
    for eol in (b"\n", b"\r", b"\r\n"):
        lexer = Lexer(eol + b"X")
        lexer.skip_eol()
        assert lexer.data[lexer.pos : lexer.pos + 1] == b"X"


def test_peek_token_does_not_advance():
    lexer = Lexer(b"42")
    assert lexer.peek_token().value == 42
    assert lexer.next_token().value == 42


class TestTolerance:
    """Malformed-syntax tolerance: truncate/skip with a warning instead
    of raising (raising rewards evasion by dropping whole objects)."""

    def test_malformed_number_truncated(self):
        lexer = Lexer(b"2-3")
        first = lexer.next_token()
        second = lexer.next_token()
        assert (first.type, first.value) == (TokenType.NUMBER, 2)
        assert (second.type, second.value) == (TokenType.NUMBER, -3)
        assert any("malformed number" in w for w in lexer.warnings)

    def test_bare_sign_skipped(self):
        lexer = Lexer(b"+ 7")
        token = lexer.next_token()
        assert (token.type, token.value) == (TokenType.NUMBER, 7)
        assert any("skipped malformed number" in w for w in lexer.warnings)

    def test_lone_dot_skipped_then_eof(self):
        lexer = Lexer(b".")
        assert lexer.next_token().type is TokenType.EOF
        assert lexer.warnings

    def test_malformed_float_prefix_kept(self):
        lexer = Lexer(b"1.2.3")
        token = lexer.next_token()
        assert token.type is TokenType.NUMBER
        assert token.value == pytest.approx(1.2)

    def test_hex_string_bad_digit_skipped(self):
        lexer = Lexer(b"<48G45ZZ4C>")
        token = lexer.next_token()
        assert token.type is TokenType.HEX_STRING
        assert token.value == b"HEL"
        assert any("non-hex byte" in w for w in lexer.warnings)

    def test_unterminated_hex_string_still_raises(self):
        with pytest.raises(LexerError):
            Lexer(b"<48").next_token()

    def test_many_junk_runs_do_not_recurse(self):
        # The junk-skip path must loop, not recurse: thousands of
        # consecutive junk runs used to be a RecursionError.
        data = b"+ " * 5000 + b"1"
        lexer = Lexer(data)
        assert lexer.next_token().value == 1

    def test_warning_cap(self):
        from repro.pdf.lexer import MAX_LEXER_WARNINGS

        lexer = Lexer(b"+ " * 500)
        while lexer.next_token().type is not TokenType.EOF:
            pass
        assert len(lexer.warnings) == MAX_LEXER_WARNINGS + 1
        assert lexer.warnings[-1] == "further lexer tolerance warnings suppressed"

    def test_shared_warning_sink(self):
        sink = ["pre-existing"]
        lexer = Lexer(b"2-3", warnings=sink)
        lexer.next_token()
        assert lexer.warnings is sink
        assert len(sink) == 2


class TestReferenceEquivalence:
    """Spot checks that the fast lexer matches the frozen reference
    (the exhaustive comparison is the hypothesis property)."""

    CASES = [
        b"1 0 obj << /A [1 2.5 -3 (str) <DEAD> /Nm ] >> endobj",
        b"(nested (parens) and \\t escapes \\101\\102)",
        b"% comment\n  42",
        b"<< /Key/Value/K2 true >>",
    ]

    @pytest.mark.parametrize("data", CASES, ids=range(len(CASES)))
    def test_same_stream(self, data):
        from tests.pdf.lexer_reference import ReferenceLexer

        fast, ref = Lexer(data), ReferenceLexer(data)
        while True:
            a, b = fast.next_token(), ref.next_token()
            assert (a.type, a.value, a.pos) == (b.type, b.value, b.pos)
            if a.type is TokenType.EOF:
                break
