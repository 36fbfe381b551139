"""Unit tests for the JavaScript engine (the bytecode VM)."""

import math

import pytest

from repro.js import evaluate
from repro.js.errors import JSRuntimeError, JSThrow, ResourceLimitExceeded
from repro.js.vm import BytecodeInterpreter


class TestArithmetic:
    @pytest.mark.parametrize(
        "source,expected",
        [
            ("1 + 2", 3.0),
            ("10 - 4", 6.0),
            ("6 * 7", 42.0),
            ("9 / 2", 4.5),
            ("7 % 3", 1.0),
            ("2 * (3 + 4)", 14.0),
            ("-5 + +3", -2.0),
        ],
    )
    def test_numbers(self, source, expected):
        assert evaluate(source) == expected

    def test_division_by_zero_is_infinity(self):
        assert evaluate("1 / 0") == math.inf
        assert evaluate("-1 / 0") == -math.inf
        assert math.isnan(evaluate("0 / 0"))

    def test_string_concatenation_coerces(self):
        assert evaluate("'n=' + 5") == "n=5"
        assert evaluate("5 + '5'") == "55"
        assert evaluate("'' + true") == "true"
        assert evaluate("'' + undefined") == "undefined"
        assert evaluate("'' + null") == "null"

    def test_numeric_string_arithmetic(self):
        assert evaluate("'10' - 3") == 7.0
        assert evaluate("'4' * '2'") == 8.0

    def test_bitwise(self):
        assert evaluate("0xF0 & 0x1F") == 16.0
        assert evaluate("1 << 4") == 16.0
        assert evaluate("-1 >>> 28") == 15.0
        assert evaluate("5 ^ 3") == 6.0
        assert evaluate("~0") == -1.0


class TestComparisons:
    def test_loose_equality(self):
        assert evaluate("1 == '1'") is True
        assert evaluate("null == undefined") is True
        assert evaluate("0 == false") is True

    def test_strict_equality(self):
        assert evaluate("1 === '1'") is False
        assert evaluate("1 === 1") is True
        assert evaluate("null === undefined") is False

    def test_nan_never_equal(self):
        assert evaluate("NaN == NaN") is False
        assert evaluate("NaN === NaN") is False

    def test_relational_strings(self):
        assert evaluate("'abc' < 'abd'") is True

    def test_relational_numbers(self):
        assert evaluate("3 <= 3") is True
        assert evaluate("2 > 5") is False


class TestControlFlow:
    def test_if_else(self):
        assert evaluate("var r; if (2 > 1) r = 'yes'; else r = 'no'; r") == "yes"

    def test_while_with_break_continue(self):
        source = """
        var total = 0, i = 0;
        while (true) {
            i++;
            if (i > 10) break;
            if (i % 2) continue;
            total += i;
        }
        total
        """
        assert evaluate(source) == 30.0

    def test_do_while_runs_once(self):
        assert evaluate("var n = 0; do { n++; } while (false); n") == 1.0

    def test_for_loop(self):
        assert evaluate("var s = 0; for (var i = 1; i <= 4; i++) s += i; s") == 10.0

    def test_for_in_object_keys(self):
        source = "var ks = []; for (var k in {a:1, b:2}) ks.push(k); ks.join(',')"
        assert evaluate(source) == "a,b"

    def test_for_in_array_indices(self):
        source = "var t = 0; var a = [10, 20]; for (var i in a) t += a[i]; t"
        assert evaluate(source) == 30.0

    def test_switch_fallthrough_and_default(self):
        source = """
        var out = [];
        switch (2) {
            case 1: out.push('one');
            case 2: out.push('two');
            case 3: out.push('three'); break;
            case 4: out.push('four');
        }
        out.join('-')
        """
        assert evaluate(source) == "two-three"

    def test_switch_default(self):
        assert evaluate("var r; switch (9) { case 1: r='a'; break; default: r='d'; } r") == "d"


class TestFunctions:
    def test_closure_captures(self):
        source = """
        function counter() {
            var n = 0;
            return function() { n += 1; return n; };
        }
        var c = counter();
        c(); c(); c()
        """
        assert evaluate(source) == 3.0

    def test_recursion(self):
        assert evaluate("function f(n){ return n < 2 ? n : f(n-1)+f(n-2); } f(12)") == 144.0

    def test_arguments_object(self):
        assert evaluate("function f(){ return arguments.length; } f(1,2,3)") == 3.0

    def test_missing_args_are_undefined(self):
        assert evaluate("function f(a, b){ return typeof b; } f(1)") == "undefined"

    def test_hoisting_of_function_declarations(self):
        assert evaluate("hoisted(); function hoisted(){ return 1; } hoisted()") == 1.0

    def test_var_hoisting(self):
        assert evaluate("typeof later; var later = 5; typeof later") == "number"

    def test_this_in_method_call(self):
        source = "var o = {n: 7, get: function(){ return this.n; }}; o.get()"
        assert evaluate(source) == 7.0

    def test_new_constructor(self):
        source = """
        function Point(x, y) { this.x = x; this.y = y; }
        var p = new Point(3, 4);
        p.x + p.y
        """
        assert evaluate(source) == 7.0

    def test_prototype_method(self):
        source = """
        function T(){}
        T.prototype = {tag: function(){ return 'ok'; }};
        new T().tag()
        """
        assert evaluate(source) == "ok"

    def test_calling_non_function_raises(self):
        with pytest.raises(JSRuntimeError):
            evaluate("var x = 5; x();")


class TestExceptions:
    def test_throw_and_catch_value(self):
        assert evaluate("var r; try { throw 42; } catch (e) { r = e; } r") == 42.0

    def test_runtime_error_catchable(self):
        source = "var u; var r = 'no'; try { u.prop; } catch (e) { r = e.name; } r"
        assert evaluate(source) == "TypeError"

    def test_reference_error_catchable(self):
        source = "var r = 'no'; try { missing.prop; } catch (e) { r = e.name; } r"
        assert evaluate(source) == "ReferenceError"

    def test_finally_always_runs(self):
        source = """
        var log = [];
        try { log.push('t'); throw 'x'; }
        catch (e) { log.push('c'); }
        finally { log.push('f'); }
        log.join('')
        """
        assert evaluate(source) == "tcf"

    def test_uncaught_throw_escapes(self):
        with pytest.raises(JSThrow):
            evaluate("throw 'boom';")

    def test_reading_property_of_undefined_raises(self):
        with pytest.raises(JSRuntimeError):
            evaluate("undefined.anything")


class TestEval:
    def test_direct_eval_sees_local_scope(self):
        assert evaluate("function f(){ var secret = 9; return eval('secret'); } f()") == 9.0

    def test_eval_declares_into_caller(self):
        assert evaluate("eval('var q = 3;'); q") == 3.0

    def test_eval_non_string_passthrough(self):
        assert evaluate("eval(5)") == 5.0


class TestResourceLimits:
    def test_infinite_loop_bounded(self):
        with pytest.raises(ResourceLimitExceeded):
            BytecodeInterpreter(max_steps=10_000).run("while (true) {}")

    def test_allocation_accounting(self):
        interp = BytecodeInterpreter()
        interp.run("var s = 'ab'; while (s.length < 4096) s += s;")
        assert interp.host.allocated_bytes >= 4096 * 2

    def test_spray_pool_collects_large_strings(self):
        interp = BytecodeInterpreter()
        interp.run("var s = 'xy'; while (s.length < 10000) s += s;")
        assert interp.host.spray_pool


class TestOperatorsMisc:
    def test_typeof_unresolved_identifier(self):
        assert evaluate("typeof neverDeclared") == "undefined"

    def test_delete_property(self):
        assert evaluate("var o = {a: 1}; delete o.a; typeof o.a") == "undefined"

    def test_in_operator(self):
        assert evaluate("'a' in {a: 1}") is True
        assert evaluate("'b' in {a: 1}") is False

    def test_instanceof(self):
        source = "function C(){} var c = new C(); c instanceof C"
        assert evaluate(source) is True

    def test_logical_short_circuit_values(self):
        assert evaluate("0 || 'fallback'") == "fallback"
        assert evaluate("1 && 'chained'") == "chained"
        assert evaluate("0 && neverEvaluated") == 0.0

    def test_ternary(self):
        assert evaluate("5 > 3 ? 'y' : 'n'") == "y"

    def test_update_expressions(self):
        assert evaluate("var i = 5; i++ + i") == 11.0
        assert evaluate("var j = 5; ++j + j") == 12.0

    def test_compound_assignment_on_member(self):
        assert evaluate("var o = {n: 1}; o.n += 4; o.n") == 5.0

    def test_sequence_returns_last(self):
        assert evaluate("(1, 2, 3)") == 3.0

    def test_implicit_global_assignment(self):
        assert evaluate("function f(){ leaked = 12; } f(); leaked") == 12.0
