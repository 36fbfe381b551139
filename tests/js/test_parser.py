"""Unit tests for the JavaScript parser (AST shapes + errors).

The ``diff``-marked tests at the end hold the flat expression path to
the frozen call-per-level parser (``tests/js/parser_reference.py``):
equal ASTs or the same ``JSSyntaxError``, on generated programs, on
token soups and on every corpus script, layer and wrapper.
"""

from typing import Any

import pytest
from hypothesis import given, settings, strategies as st

from repro.js import nodes as ast
from repro.js.errors import JSSyntaxError
from repro.js.lexer import KEYWORDS, OPERATORS
from repro.js.parser import parse
from tests.core.test_monitor_code_oracle import corpus_texts, wrapped_corpus
from tests.js import parser_reference
from tests.property.test_js_engines import eval_program, fn_program, loop_fn_program, program


def first(source):
    return parse(source).body[0]


class TestStatements:
    def test_var_multiple_declarations(self):
        node = first("var a = 1, b, c = 'x';")
        assert isinstance(node, ast.VarDeclaration)
        names = [n for n, _init in node.declarations]
        assert names == ["a", "b", "c"]
        assert node.declarations[1][1] is None

    def test_if_else(self):
        node = first("if (a) b; else c;")
        assert isinstance(node, ast.IfStatement)
        assert node.alternate is not None

    def test_while(self):
        assert isinstance(first("while (x) x--;"), ast.WhileStatement)

    def test_do_while(self):
        assert isinstance(first("do { x(); } while (y);"), ast.DoWhileStatement)

    def test_classic_for(self):
        node = first("for (var i = 0; i < 3; i++) f(i);")
        assert isinstance(node, ast.ForStatement)
        assert node.init is not None and node.test is not None and node.update is not None

    def test_for_with_empty_clauses(self):
        node = first("for (;;) break;")
        assert node.init is None and node.test is None and node.update is None

    def test_for_in_with_var(self):
        node = first("for (var k in obj) f(k);")
        assert isinstance(node, ast.ForInStatement)
        assert isinstance(node.target, ast.VarDeclaration)

    def test_for_in_with_identifier(self):
        node = first("for (k in obj) f(k);")
        assert isinstance(node.target, ast.Identifier)

    def test_function_declaration(self):
        node = first("function add(a, b) { return a + b; }")
        assert isinstance(node, ast.FunctionDeclaration)
        assert node.params == ["a", "b"]

    def test_return_without_value(self):
        program = parse("function f() { return; }")
        ret = program.body[0].body.statements[0]
        assert ret.value is None

    def test_try_catch_finally(self):
        node = first("try { a(); } catch (e) { b(); } finally { c(); }")
        assert isinstance(node, ast.TryStatement)
        assert node.catch_param == "e"
        assert node.finally_block is not None

    def test_try_requires_handler(self):
        with pytest.raises(JSSyntaxError):
            parse("try { a(); }")

    def test_switch(self):
        node = first("switch (x) { case 1: a(); break; default: b(); }")
        assert isinstance(node, ast.SwitchStatement)
        assert len(node.cases) == 2
        assert node.cases[1].test is None

    def test_throw(self):
        assert isinstance(first("throw 'err';"), ast.ThrowStatement)

    def test_empty_statement(self):
        assert isinstance(first(";"), ast.EmptyStatement)

    def test_missing_semicolon_same_line_raises(self):
        with pytest.raises(JSSyntaxError):
            parse("var a = 1 var b = 2")

    def test_newline_asi(self):
        program = parse("var a = 1\nvar b = 2")
        assert len(program.body) == 2


class TestExpressions:
    def test_precedence_mul_over_add(self):
        node = first("1 + 2 * 3;").expression
        assert isinstance(node, ast.BinaryExpression)
        assert node.op == "+"
        assert isinstance(node.right, ast.BinaryExpression)

    def test_logical_vs_bitwise(self):
        node = first("a || b && c;").expression
        assert node.op == "||"

    def test_conditional(self):
        node = first("a ? b : c;").expression
        assert isinstance(node, ast.ConditionalExpression)

    def test_assignment_chain(self):
        node = first("a = b = 1;").expression
        assert isinstance(node.value, ast.AssignmentExpression)

    def test_compound_assignment(self):
        assert first("a += 2;").expression.op == "+="

    def test_invalid_assignment_target(self):
        with pytest.raises(JSSyntaxError):
            parse("1 = 2;")

    def test_member_chain(self):
        node = first("a.b[c].d;").expression
        assert isinstance(node, ast.MemberExpression)
        assert not node.computed

    def test_call_with_args(self):
        node = first("f(1, 'x', g());").expression
        assert isinstance(node, ast.CallExpression)
        assert len(node.arguments) == 3

    def test_new_expression(self):
        node = first("new Thing(1);").expression
        assert isinstance(node, ast.NewExpression)

    def test_function_expression(self):
        node = first("var f = function(x) { return x; };")
        assert isinstance(node.declarations[0][1], ast.FunctionExpression)

    def test_array_literal(self):
        node = first("[1, 2, 3];").expression
        assert isinstance(node, ast.ArrayLiteral)
        assert len(node.elements) == 3

    def test_object_literal_key_kinds(self):
        node = first("({a: 1, 'b c': 2, 3: 4});").expression
        assert [k for k, _v in node.entries] == ["a", "b c", "3"]

    def test_unary_operators(self):
        for source, op in [("!a;", "!"), ("-a;", "-"), ("~a;", "~"), ("typeof a;", "typeof")]:
            assert first(source).expression.op == op

    def test_update_prefix_and_postfix(self):
        assert first("++a;").expression.prefix
        assert not first("a++;").expression.prefix

    def test_sequence_expression(self):
        node = first("a, b, c;").expression
        assert isinstance(node, ast.SequenceExpression)

    def test_in_operator_allowed_outside_for(self):
        node = first("'k' in o;").expression
        assert node.op == "in"

    def test_delete_operator(self):
        assert first("delete o.k;").expression.op == "delete"

    def test_unexpected_token_raises(self):
        with pytest.raises(JSSyntaxError):
            parse("var = 4;")


# -- the oracle -------------------------------------------------------------------


def outcome(parser: Any, source: str) -> Any:
    """The AST, or the error raised as (message, line, column)."""
    try:
        return parser(source)
    except JSSyntaxError as error:
        return ("JSSyntaxError", str(error), error.line, error.column)


def assert_matches_reference(source: str) -> None:
    assert outcome(parse, source) == outcome(parser_reference.parse, source), source


#: Tokens and fragments every statement and expression form is made of.
PIECES = [
    *OPERATORS, *sorted(KEYWORDS),
    "a", "b", "$x", "_y", "0", "1.5", "0x1F", "1e3", "'s'", '"t"', "\n",
    "function f(a, b) {", "function (x) {", "}", "var x = ", "for (var k in o)",
    "for (i = 0; i < 3; i++)", "try {", "} catch (e) {", "} finally {",
    "switch (a) {", "case 1:", "default:", "new F(", "o.p", "o['p']", "f()",
    "{a: 1, 'b': 2, 3: c, if: 4}", "a ? b : c", "x++", "--y", "return\n1",
]

token_soup = st.lists(st.sampled_from(PIECES), max_size=30).map(" ".join)

#: Operands and operators chained without parentheses, so precedence,
#: associativity, ``?:``, assignment and ``in`` under ``no_in`` decide
#: the tree.  The empty operator sets two operands side by side, where a
#: string literal spelling an operator must not act as one.
OPERANDS = [
    "a", "b.c", "f(x)", "1", "'+'", "'in'", "!a", "-b", "typeof c", "x++", "--y",
    "new F()", "new G", "o[k]", "(a, b)", "function () {}", "[1, 2]", "{p: 1}",
]
CHAIN_OPS = [
    "||", "&&", "|", "^", "&", "==", "!=", "===", "!==", "<", ">", "<=", ">=",
    "instanceof", "in", "<<", ">>", ">>>", "+", "-", "*", "/", "%",
    "=", "+=", ">>>=", "?", ":", ",", "",
]
chain = st.tuples(
    st.sampled_from(OPERANDS),
    st.lists(st.tuples(st.sampled_from(CHAIN_OPS), st.sampled_from(OPERANDS)), max_size=8),
).map(lambda t: t[0] + "".join(f" {op} {operand}" for op, operand in t[1]))
chain_statement = st.tuples(
    st.sampled_from(["{};", "for ({} ;;) {{}}", "for ({} in o) {{}}", "for (var v = {} ;;) {{}}"]),
    chain,
).map(lambda t: t[0].format(t[1]))


def _splice(parts: Any) -> str:
    """``source`` with one space-separated piece deleted or replaced."""
    source, index, piece, delete = parts
    words = source.split(" ")
    index %= len(words)
    words[index : index + 1] = [] if delete else [piece]
    return " ".join(words)


mutated_program = st.tuples(
    program | fn_program, st.integers(0, 10_000), st.sampled_from(PIECES), st.booleans()
).map(_splice)


@pytest.mark.diff
@given(program | fn_program | loop_fn_program | eval_program)
@settings(max_examples=400, deadline=None)
def test_parser_matches_the_reference_on_generated_programs(source: str) -> None:
    assert_matches_reference(source)


@pytest.mark.diff
@given(chain_statement)
@settings(max_examples=1500, deadline=None)
def test_parser_matches_the_reference_on_operator_chains(source: str) -> None:
    assert_matches_reference(source)


@pytest.mark.diff
@given(token_soup | mutated_program)
@settings(max_examples=1500, deadline=None)
def test_parser_matches_the_reference_on_broken_programs(source: str) -> None:
    assert_matches_reference(source)


@pytest.mark.diff
def test_parser_matches_the_reference_on_every_corpus_text_and_wrapper() -> None:
    sources = corpus_texts() + wrapped_corpus()
    assert len(sources) > 100
    for source in sources:
        assert_matches_reference(source)
