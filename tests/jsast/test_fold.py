"""Constant folding / string-concat propagation.

The ``diff``-marked test at the end holds copy-on-change folding to the
full-copy rebuild it replaced, on every corpus script.
"""

import copy
import dataclasses
import math

import pytest

from repro.js import evaluate
from repro.js import nodes as ast
from repro.js.parser import parse
from repro.jsast import fold
from repro.jsast.consts import MAX_CHARS
from repro.jsast.fold import ConstantFolder, fold_program
from repro.jsast.walk import walk
from tests.jsast.test_walk import corpus_programs


def const_strings(program):
    return [n.value for n in walk(program) if isinstance(n, ast.StringLiteral)]


def fold_source(source):
    return fold_program(parse(source))


class TestJsUnescape:
    """The folder decodes with the runtime's ``unescape``."""

    def test_unicode_units(self):
        assert evaluate("unescape('%u0041%u0042')") == "AB"

    def test_byte_units(self):
        assert evaluate("unescape('%41%42')") == "AB"

    def test_mixed_and_literal(self):
        assert evaluate("unescape('a%u0062c%64')") == "abcd"

    def test_untouched_text(self):
        assert evaluate("unescape('hello %zz')") == "hello %zz"

    def test_uppercase_u_is_not_an_escape(self):
        # ES5 B.2.1 decodes ``%u`` only; ``%U0041`` stays as it is.
        assert evaluate("unescape('%U0041')") == "%U0041"
        assert "%U0041" in const_strings(fold_source("var x = unescape('%U0041');"))


class TestExpressionFolding:
    def test_string_concat(self):
        folded = fold_source('var x = "he" + "llo";')
        assert "hello" in const_strings(folded)

    def test_concat_chain_through_variables(self):
        folded = fold_source('var a = "ev"; var b = "al"; var c = a + b;')
        assert "eval" in const_strings(folded)

    def test_fromcharcode(self):
        folded = fold_source("var x = String.fromCharCode(104, 105);")
        assert "hi" in const_strings(folded)

    def test_unescape_call(self):
        folded = fold_source('var x = unescape("%u4141");')
        assert "䅁" in const_strings(folded)

    def test_parseint(self):
        folded = fold_source('var x = parseInt("ff", 16);')
        numbers = [n.value for n in walk(folded) if isinstance(n, ast.NumberLiteral)]
        assert 255.0 in numbers

    def test_string_methods(self):
        folded = fold_source('var x = "HELLO".toLowerCase().substring(0, 4);')
        assert "hell" in const_strings(folded)

    def test_array_join(self):
        folded = fold_source('var x = ["a", "b", "c"].join("");')
        assert "abc" in const_strings(folded)

    def test_constant_ternary(self):
        folded = fold_source('var x = (1 < 2) ? "yes" : "no";')
        # The test 1 < 2 is not folded (comparison ops stay opaque), so
        # the ternary survives — but both branches are still literals.
        assert "yes" in const_strings(folded)

    def test_member_length(self):
        folded = fold_source('var s = "abcd"; var n = s.length;')
        numbers = [n.value for n in walk(folded) if isinstance(n, ast.NumberLiteral)]
        assert 4.0 in numbers


class TestStability:
    def test_reassigned_variable_stays_opaque(self):
        folded = fold_source('var x = "a"; x = "b"; var y = x + "c";')
        assert "ac" not in const_strings(folded)
        assert "bc" not in const_strings(folded)

    def test_loop_modified_variable_stays_opaque(self):
        folded = fold_source(
            'var s = "a"; while (s.length < 8) s += s; var t = s + "!";'
        )
        assert "a!" not in const_strings(folded)

    def test_loops_never_executed(self):
        # A doubling loop to an absurd bound must not blow up folding.
        folded = fold_source(
            'var s = "a"; while (s.length < 1e9) s += s;'
        )
        assert all(len(s) < 1024 for s in const_strings(folded))

    def test_nested_var_declaration_disqualifies(self):
        folded = fold_source(
            'if (q) { var x = "a"; } var y = x + "b";'
        )
        assert "ab" not in const_strings(folded)

    def test_duplicate_top_level_var_disqualifies(self):
        folded = fold_source('var x = "a"; var x = "b"; var y = x + "!";')
        assert "a!" not in const_strings(folded)
        assert "b!" not in const_strings(folded)

    def test_function_param_stays_opaque(self):
        folded = fold_source('function f(x) { return x + "s"; }')
        assert all("s" == s or "s" not in s for s in const_strings(folded))

    def test_fold_size_cap(self):
        folder = ConstantFolder(parse('var x = "a" + "b";'))
        big = ast.BinaryExpression(
            "+",
            ast.StringLiteral("x" * MAX_CHARS),
            ast.StringLiteral("y"),
        )
        assert folder.fold_expr(big) is None

    def test_original_tree_untouched(self):
        program = parse('var x = "a" + "b";')
        before = [type(n).__name__ for n in walk(program)]
        fold_program(program)
        after = [type(n).__name__ for n in walk(program)]
        assert before == after


class TestObfuscatedIdioms:
    def test_sees_through_fragmented_unescape(self):
        # The classic one-layer obfuscation: the %u string is assembled
        # from fragments before being passed to unescape.
        folded = fold_source(
            'var p1 = "%u90"; var p2 = "90"; var sled = unescape(p1 + p2);'
        )
        assert "邐" in const_strings(folded)

    def test_sees_through_fromcharcode_chain(self):
        folded = fold_source(
            "var s = String.fromCharCode(101) + String.fromCharCode(118) + "
            "String.fromCharCode(97) + String.fromCharCode(108);"
        )
        assert "eval" in const_strings(folded)


class TestHostileArguments:
    """Builtin folds are the runtime's: a hostile constant argument folds
    to the value the emulator computes, and never raises out of the
    folder."""

    def _fold(self, source):
        program = parse(source)
        folder = ConstantFolder(program)
        folder.run()
        return folder

    @pytest.mark.parametrize(
        "expression, expected",
        [
            ("String.fromCharCode(1e308 * 10)", "\0"),
            ("parseInt('ff', 1e308 * 10)", math.nan),
            ("'abc'.charCodeAt(9)", math.nan),
            ("parseInt('12abc')", 12.0),
            ("Number('0x10')", 16.0),
        ],
        ids=[
            "fromcharcode-infinity",
            "parseint-infinite-radix",
            "charcodeat-past-the-end",
            "parseint-trailing-text",
            "number-hex",
        ],
    )
    def test_folds_take_the_runtime_value(self, expression, expected):
        folded = self._fold(f"var v = {expression};").env["v"].value
        runtime = evaluate(expression)
        if isinstance(expected, float) and math.isnan(expected):
            assert math.isnan(folded) and math.isnan(runtime)
        else:
            assert folded == runtime == expected

    def test_infinity_stringifies(self):
        folded = fold_source('var s = "" + (1e308 * 10);')
        assert "Infinity" in const_strings(folded)
        folded = fold_source('var s = "" + (-1e308 * 10);')
        assert "-Infinity" in const_strings(folded)

    def test_malformed_percent_sequences_pass_through(self):
        assert evaluate("unescape('%u12%zz%')") == "%u12%zz%"
        assert "%u12%zz%" in const_strings(fold_source("var x = unescape('%u12%zz%');"))


class TestCopyOnChange:
    """The folded tree copies only the paths above a folded node and
    shares everything else with its input."""

    def test_an_unfoldable_program_comes_back_as_itself(self):
        program = parse("f(x); while (y) { g(y, [1, z]); } var o = {a: q};")
        assert fold_program(program) is program

    def test_only_the_path_to_a_folded_node_is_copied(self):
        program = parse("f(x); g(y, 'a' + 'b', {k: h});")
        folded = fold_program(program)
        assert folded is not program
        assert folded.body[0] is program.body[0]
        before, after = program.body[1].expression, folded.body[1].expression
        assert after is not before
        assert after.callee is before.callee
        assert after.arguments[0] is before.arguments[0]
        assert after.arguments[1] == ast.StringLiteral("ab")
        assert after.arguments[2] is before.arguments[2]
        assert before.arguments[1] == ast.BinaryExpression(
            "+", ast.StringLiteral("a"), ast.StringLiteral("b")
        )

    def test_a_folded_declaration_copies_its_tuple(self):
        program = parse("var a = x, b = '1' + '2';")
        folded = fold_program(program)
        declarations = folded.body[0].declarations
        assert declarations[0] is program.body[0].declarations[0]
        assert declarations[1] == ("b", ast.StringLiteral("12"))


# -- the full-copy oracle ---------------------------------------------------------


def _full_copy_rebuild(node, transform):
    """The folder's rebuild before copy-on-change: every node with a
    node or list field copied, with fresh lists and tuples, whether or
    not a child folded."""
    if not dataclasses.is_dataclass(node):
        return node
    changes = {}
    for field in dataclasses.fields(node):
        value = getattr(node, field.name)
        if isinstance(value, ast.Node):
            changes[field.name] = transform(value)
        elif isinstance(value, list):
            items = []
            for item in value:
                if isinstance(item, ast.Node):
                    items.append(transform(item))
                elif isinstance(item, tuple):
                    items.append(
                        tuple(
                            transform(element) if isinstance(element, ast.Node) else element
                            for element in item
                        )
                    )
                else:
                    items.append(item)
            changes[field.name] = items
    if not changes:
        return node
    return dataclasses.replace(node, **changes)


@pytest.mark.diff
def test_folding_matches_the_full_copy_rebuild_on_every_corpus_script(monkeypatch):
    """On every corpus program ``fold_program`` leaves its input as it
    was and returns a tree equal to the one a full copy builds."""
    programs = corpus_programs()
    assert len(programs) > 50
    copied = 0
    for program in programs:
        pristine = copy.deepcopy(program)
        folded = fold_program(program)
        assert program == pristine
        with monkeypatch.context() as patch:
            patch.setattr(fold, "_rebuild", _full_copy_rebuild)
            reference = fold_program(program)
        assert program == pristine
        assert folded == reference
        copied += folded is not program
    # Folding copies some programs, and shares the others whole.
    assert 0 < copied < len(programs)
