"""Unit tests for the JS builtins (strings, arrays, Math, globals)."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.js import evaluate
from tests.js import unescape_reference


class TestGlobals:
    def test_unescape_percent_u(self):
        assert evaluate("unescape('%u0041%u0042')") == "AB"

    def test_unescape_percent_xx(self):
        assert evaluate("unescape('%41%42%43')") == "ABC"

    def test_unescape_mixed_and_literal(self):
        assert evaluate("unescape('a%u0062c%64')") == "abcd"

    def test_unescape_sled_unit(self):
        assert evaluate("unescape('%u9090').charCodeAt(0)") == 0x9090

    def test_escape_roundtrip(self):
        assert evaluate("unescape(escape('héllo wörld'))") == "héllo wörld"

    def test_parse_int(self):
        assert evaluate("parseInt('42px')") == 42.0
        assert evaluate("parseInt('0x1F')") == 31.0
        assert evaluate("parseInt('ff', 16)") == 255.0
        assert evaluate("parseInt('-12')") == -12.0
        assert math.isnan(evaluate("parseInt('zz')"))

    def test_parse_float(self):
        assert evaluate("parseFloat('3.5rem')") == 3.5
        assert math.isnan(evaluate("parseFloat('abc')"))

    def test_is_nan_is_finite(self):
        assert evaluate("isNaN('x')") is True
        assert evaluate("isFinite(1/0)") is False

    def test_string_constructor_and_fromcharcode(self):
        assert evaluate("String(12)") == "12"
        assert evaluate("String.fromCharCode(72, 105)") == "Hi"

    def test_number_boolean_constructors(self):
        assert evaluate("Number('6') * 2") == 12.0
        assert evaluate("Boolean('')") is False

    def test_array_constructor(self):
        assert evaluate("new Array(3).length") == 3.0
        assert evaluate("Array(1, 2, 3).join('')") == "123"

    def test_math(self):
        assert evaluate("Math.floor(2.9)") == 2.0
        assert evaluate("Math.ceil(2.1)") == 3.0
        assert evaluate("Math.abs(-4)") == 4.0
        assert evaluate("Math.pow(2, 10)") == 1024.0
        assert evaluate("Math.max(1, 9, 3)") == 9.0
        assert evaluate("Math.min(5, -2)") == -2.0

    def test_math_random_deterministic(self):
        a = evaluate("Math.random()")
        b = evaluate("Math.random()")
        assert a == b  # fresh interpreter, same seed
        assert 0.0 <= a <= 1.0

    def test_error_constructor(self):
        assert evaluate("var e = new Error('bad'); e.message") == "bad"


class TestStringMethods:
    def test_length_and_index(self):
        assert evaluate("'hello'.length") == 5.0
        assert evaluate("'hello'[1]") == "e"

    def test_char_at_and_code(self):
        assert evaluate("'abc'.charAt(2)") == "c"
        assert evaluate("'abc'.charCodeAt(0)") == 97.0
        assert evaluate("'abc'.charAt(9)") == ""
        assert math.isnan(evaluate("'abc'.charCodeAt(9)"))

    def test_index_of(self):
        assert evaluate("'banana'.indexOf('na')") == 2.0
        assert evaluate("'banana'.indexOf('na', 3)") == 4.0
        assert evaluate("'banana'.lastIndexOf('na')") == 4.0
        assert evaluate("'x'.indexOf('q')") == -1.0

    def test_substring_swaps_args(self):
        assert evaluate("'abcdef'.substring(4, 1)") == "bcd"

    def test_substr(self):
        assert evaluate("'abcdef'.substr(2, 3)") == "cde"
        assert evaluate("'abcdef'.substr(-2)") == "ef"

    def test_slice_negative(self):
        assert evaluate("'abcdef'.slice(-3)") == "def"
        assert evaluate("'abcdef'.slice(1, 3)") == "bc"

    def test_case_conversion(self):
        assert evaluate("'MiXeD'.toLowerCase()") == "mixed"
        assert evaluate("'MiXeD'.toUpperCase()") == "MIXED"

    def test_split(self):
        assert evaluate("'a,b,c'.split(',').length") == 3.0
        assert evaluate("'abc'.split('').join('-')") == "a-b-c"
        assert evaluate("'abc'.split()[0]") == "abc"

    def test_replace_first_only(self):
        assert evaluate("'aXaX'.replace('X', 'o')") == "aoaX"

    def test_concat(self):
        assert evaluate("'a'.concat('b', 'c')") == "abc"

    def test_unknown_method_is_undefined(self):
        assert evaluate("typeof 'x'.notAMethod") == "undefined"


class TestNumberMethods:
    def test_to_string_radix(self):
        assert evaluate("(255).toString(16)") == "ff"
        assert evaluate("(8).toString(2)") == "1000"
        assert evaluate("(42).toString()") == "42"

    def test_to_fixed(self):
        assert evaluate("(3.14159).toFixed(2)") == "3.14"


class TestArrayMethods:
    def test_push_pop(self):
        assert evaluate("var a = [1]; a.push(2, 3); a.pop(); a.join(',')") == "1,2"

    def test_shift_unshift(self):
        assert evaluate("var a = [2, 3]; a.unshift(1); a.shift(); a.join('')") == "23"

    def test_join_default_separator(self):
        assert evaluate("[1, 2].join()") == "1,2"

    def test_concat(self):
        assert evaluate("[1].concat([2, 3], 4).length") == 4.0

    def test_slice(self):
        assert evaluate("[1,2,3,4].slice(1, 3).join('')") == "23"

    def test_reverse_in_place(self):
        assert evaluate("var a = [1,2,3]; a.reverse(); a.join('')") == "321"

    def test_index_of_strict(self):
        assert evaluate("[1, '1', 2].indexOf('1')") == 1.0
        assert evaluate("[1].indexOf(9)") == -1.0

    def test_sort_default_lexicographic(self):
        assert evaluate("[10, 9, 1].sort().join(',')") == "1,10,9"

    def test_sort_with_comparator(self):
        assert evaluate("[10, 9, 1].sort(function(a,b){return a-b;}).join(',')") == "1,9,10"

    def test_length_assignment_truncates(self):
        assert evaluate("var a = [1,2,3]; a.length = 1; a.join(',')") == "1"

    def test_sparse_assignment_extends(self):
        assert evaluate("var a = []; a[3] = 'x'; a.length") == 4.0

    def test_has_own_property(self):
        assert evaluate("({a: 1}).hasOwnProperty('a')") is True
        assert evaluate("({a: 1}).hasOwnProperty('b')") is False

    def test_splice_removes_and_returns(self):
        assert evaluate("var a = [1,2,3,4]; a.splice(1, 2).join(',')") == "2,3"
        assert evaluate("var a = [1,2,3,4]; a.splice(1, 2); a.join(',')") == "1,4"

    def test_splice_inserts(self):
        assert evaluate("var a = [1,4]; a.splice(1, 0, 2, 3); a.join(',')") == "1,2,3,4"

    def test_splice_negative_start(self):
        assert evaluate("var a = [1,2,3]; a.splice(-1, 1); a.join(',')") == "1,2"

    def test_splice_no_delete_count_removes_rest(self):
        assert evaluate("var a = [1,2,3]; a.splice(1); a.join(',')") == "1"


class TestMathExtras:
    def test_log_exp(self):
        import math as m

        assert abs(evaluate("Math.log(Math.exp(2))") - 2.0) < 1e-9
        assert evaluate("Math.log(0)") == -m.inf
        assert m.isnan(evaluate("Math.log(-1)"))

    def test_trig(self):
        assert abs(evaluate("Math.sin(0)")) < 1e-12
        assert abs(evaluate("Math.cos(0)") - 1.0) < 1e-12
        assert abs(evaluate("Math.atan(1) * 4 - Math.PI")) < 1e-9


class TestStringTrim:
    def test_trim(self):
        assert evaluate("'  padded  '.trim()") == "padded"


NAN = math.nan
INF = math.inf


class TestNumberConversions:
    """ES5 §15.1.2.2-3: ``ToInt32(radix)``, radix 0 meaning 10 (16 after
    ``0x``), NaN outside 2-36; values of 2**1024 and up are Infinity;
    digits are ASCII.  Each row raised a bare Python exception, or
    read a non-ASCII digit, before."""

    @pytest.mark.parametrize(
        "source, expected",
        [
            ("parseInt('12', NaN)", 12.0),
            ("parseInt('12', Infinity)", 12.0),
            ("parseInt('12', -Infinity)", 12.0),
            ("parseInt('12', undefined)", 12.0),
            ("parseInt('0x1f', 0)", 31.0),
            ("parseInt('0x1f', 16)", 31.0),
            ("parseInt('0x1f', 10)", 0.0),
            ("parseInt('12', 1)", NAN),
            ("parseInt('12', 37)", NAN),
            ("parseInt('12', -5)", NAN),
            ("parseInt('ff', 4294967312)", 255.0),
            ("parseInt('12', 2.9)", 1.0),
            ("parseInt('z', 36)", 35.0),
            ("parseInt('\\u212a', 36)", NAN),
            ("parseInt('٣')", NAN),
            ("parseInt(new Array(400).join('9'))", INF),
            ("parseInt('-' + new Array(400).join('9'))", -INF),
            ("parseInt(new Array(5000).join('1'))", INF),
            ("parseInt(new Array(5000).join('0') + '7')", 7.0),
            ("parseInt('0x' + new Array(300).join('f'))", INF),
            ("parseInt(new Array(1100).join('1'), 2)", INF),
            ("+('0x' + new Array(300).join('f'))", INF),
            ("0x" + "f" * 300, INF),
            ("parseFloat('٣')", NAN),
            ("parseFloat('1²')", 1.0),
            ("parseFloat('2.5٣')", 2.5),
        ],
    )
    def test_conversion(self, source, expected):
        value = evaluate(source)
        if math.isnan(expected):
            assert math.isnan(value)
        else:
            assert value == expected

    @pytest.mark.parametrize(
        "source, expected",
        [
            ("parseFloat('9e')", 9.0),
            ("parseFloat('1e+')", 1.0),
            ("parseFloat('1.e5x')", 100000.0),
            ("parseFloat('Infinityx')", INF),
            ("parseFloat('-Infinity')", -INF),
            ("parseFloat('\\ufeff 2.5')", 2.5),
            ("parseFloat('+.5e1')", 5.0),
            ("parseFloat('.e1')", NAN),
            ("1 / parseInt('-0')", -INF),
            ("1 / parseInt('-0x0')", -INF),
            ("'\\ufeff a \\u2028'.trim()", "a"),
            ("'\\x1c a'.trim()", "\x1c a"),
        ],
    )
    def test_es5_prefix_and_white_space(self, source, expected):
        """``parseFloat`` reads the longest StrDecimalLiteral prefix (ES5
        §15.1.2.3; ``'9e'`` and ``'Infinityx'`` were NaN), ``parseInt``
        keeps the sign of a zero, and ``trim`` strips ES5 white space
        (§15.5.4.20), not Python's."""
        walker, vm = _run_both(source)
        if isinstance(expected, float) and math.isnan(expected):
            assert math.isnan(walker) and math.isnan(vm)
        else:
            assert walker == vm == expected

    @pytest.mark.parametrize(
        "source, expected",
        [
            ("({1e-7: 1})[1e-7]", 1.0),
            ("({0.00001: 1})[0.00001]", 1.0),
            ("({123456789012345680000: 1})[123456789012345680000]", 1.0),
            ("({1e21: 1})['1e+21']", 1.0),
            ("({1e400: 1})[Infinity]", 1.0),
            ("({0x10: 1})[16]", 1.0),
            (
                "var o = {1e-7: 0, 0.00001: 0, 123456789012345680000: 0, 1.50: 0}, r = [];"
                " for (var k in o) r.push(k); r.join('|')",
                "1e-7|0.00001|123456789012345680000|1.5",
            ),
        ],
    )
    def test_number_keys_read_back_by_number(self, source, expected):
        """An object literal's number key is ToString of the number (ES5
        §11.1.5), the spelling every lookup uses: ``1e-7`` is ``'1e-7'``,
        not ``repr()``'s ``'1e-07'``, and ``1e400`` is ``'Infinity'``."""
        walker, vm = _run_both(source)
        assert walker == vm == expected


RANGE_ERROR = "RangeError"


def _run_both(source):
    """``source`` on the walker and on the VM: a value, or the kind of
    the JS error it raised."""
    from repro.js.errors import JSRuntimeError
    from repro.js.interpreter import Interpreter
    from repro.js.values import JSArray
    from repro.js.vm import BytecodeInterpreter

    outcomes = []
    for engine in (Interpreter, BytecodeInterpreter):
        try:
            value = engine().run(source)
        except JSRuntimeError as error:
            outcomes.append(error.kind)
            continue
        outcomes.append(value.elements if isinstance(value, JSArray) else value)
    return outcomes


class TestIntegerArguments:
    """ES5 ToInteger (§9.4) and its clamping in every builtin that takes
    an integer: NaN and ±Infinity give ES5's value or a RangeError on
    both engines.  Each row raised a bare Python exception, or gave a
    non-ES5 result, before."""

    @pytest.mark.parametrize(
        "source, expected",
        [
            ("Math.floor(1/0)", INF),
            ("Math.ceil(-1/0)", -INF),
            ("Math.floor(NaN)", NAN),
            ("Math.round(NaN)", NAN),
            ("Math.round(-Infinity)", -INF),
            ("Math.round(2.5)", 3.0),
            ("Math.pow(10, 400)", INF),
            ("Math.pow(-10, 401)", -INF),
            ("Math.pow(-8, 1/3)", NAN),
            ("Math.pow(0, -1)", INF),
            ("Math.pow(-0, -3)", -INF),
            ("Math.pow(1, Infinity)", NAN),
            ("Math.pow(NaN, 0)", 1.0),
            ("Math.pow(2, 10)", 1024.0),
            ("Math.exp(1000)", INF),
            ("Math.sin(Infinity)", NAN),
            ("Math.cos(-Infinity)", NAN),
            ("Math.max(1, NaN)", NAN),
            ("Math.min(NaN, 1)", NAN),
            ("Math.max()", -INF),
            ("Math.min(3, 1, 2)", 1.0),
            ("'abc'.substr(NaN)", "abc"),
            ("'abc'.substr(1, Infinity)", "bc"),
            ("'abcdef'.substr(-3, 2)", "de"),
            ("'abc'.substring(NaN, Infinity)", "abc"),
            ("'abc'.substring(1, NaN)", "a"),
            ("'abc'.slice(-Infinity, Infinity)", "abc"),
            ("'abc'.charAt(Infinity)", ""),
            ("'abc'.charAt(NaN)", "a"),
            ("'abc'.charCodeAt(Infinity)", NAN),
            ("'abc'.charCodeAt(NaN)", 97.0),
            ("'abc'.charCodeAt(-0.5)", 97.0),
            ("'abc'.charCodeAt(2.5)", 99.0),
            ("'abc'.indexOf('c', -Infinity)", 2.0),
            ("'abc'.indexOf('a', Infinity)", -1.0),
            ("'abc'.indexOf('', Infinity)", 3.0),
            ("String.fromCharCode(NaN)", "\x00"),
            ("String.fromCharCode(65601)", "A"),
            ("String.fromCharCode(-65471.5)", "A"),
            ("String.fromCharCode(Infinity, 66)", "\x00B"),
            ("[1, 2, 3].slice(Infinity)", []),
            ("[1, 2, 3].slice(NaN, -1)", [1.0, 2.0]),
            ("[1, 2, 3].splice(NaN, Infinity)", [1.0, 2.0, 3.0]),
            ("[1, 2, 3].splice(-Infinity, NaN)", []),
            ("[1, 2, 3].splice(1)", [2.0, 3.0]),
            ("(255).toString(16)", "ff"),
            ("(255).toString(16.9)", "ff"),
            ("(255).toString(Infinity)", RANGE_ERROR),
            ("(255).toString(NaN)", RANGE_ERROR),
            ("(255).toString(37)", RANGE_ERROR),
            ("(1).toFixed(-1)", RANGE_ERROR),
            ("(1).toFixed(21)", RANGE_ERROR),
            ("(1).toFixed(Infinity)", RANGE_ERROR),
            ("(1.005).toFixed(NaN)", "1"),
            ("(NaN).toFixed(2)", "NaN"),
            ("new Array(NaN)", RANGE_ERROR),
            ("new Array(Infinity)", RANGE_ERROR),
            ("new Array(-1)", RANGE_ERROR),
            ("new Array(2.5)", RANGE_ERROR),
            ("new Array(2).length", 2.0),
            ("var a = [1, 2]; a.length = NaN", RANGE_ERROR),
            ("var a = [1, 2]; a.length = Infinity", RANGE_ERROR),
            ("var a = [1, 2]; a.length = 'x'", RANGE_ERROR),
            ("var a = [1, 2]; a.length = -1", RANGE_ERROR),
            ("var a = [1, 2]; a.length = 1.5", RANGE_ERROR),
            ("var a = [1, 2]; a.length = '1'; a", [1.0]),
            ("try { new Array(-1); 1 } catch (e) { e.name }", RANGE_ERROR),
            ("try { Math.round(NaN); 1 } catch (e) { 2 }", 1.0),
            # substr's fast path (two whole, non-negative floats, start <=
            # length) at its bounds, and just outside them
            ("'abc'.substr(0, 3)", "abc"),
            ("'abc'.substr(0, 0)", ""),
            ("'abc'.substr(3, 1)", ""),
            ("'abc'.substr(4, 1)", ""),
            ("''.substr(0, 1)", ""),
            ("'abc'.substr(-0, 2)", "ab"),
            ("'abc'.substr(1, -0)", ""),
            ("'abc'.substr(1, 1e21)", "bc"),
            ("'abc'.substr(1, 4294967296)", "bc"),
            ("'abc'.substr(2, Infinity)", "c"),
            ("'abc'.substr(0.5, 2)", "ab"),
            ("'abc'.substr(1, 1.5)", "b"),
            ("'abc'.substr(-1, 1)", "c"),
            ("'abc'.substr(1, -1)", ""),
            ("'abc'.substr(NaN, 2)", "ab"),
            ("'abc'.substr(1, NaN)", ""),
            ("'abc'.substr('1', 1)", "b"),
            ("'abc'.substr(1, '1')", "b"),
            ("'abc'.substr(1, 1, 9)", "b"),
            ("var c = 'xyz'; c.substr(0, c.length)", "xyz"),
        ],
    )
    def test_both_engines_give_the_es5_result(self, source, expected):
        walker, vm = _run_both(source)
        if isinstance(expected, float) and math.isnan(expected):
            assert math.isnan(walker) and math.isnan(vm)
        else:
            assert walker == vm == expected


class TestES5StringAndMath:
    """``split``'s limit (ES5 §15.5.4.14), ``lastIndexOf``'s position
    (§15.5.4.8) and ``Math.round`` (§15.8.2.15) on both engines.  Each
    row whose result is not the plain no-argument one gave another
    result before."""

    @pytest.mark.parametrize(
        "source, expected",
        [
            ("'a,b,c'.split(',', 1)", ["a"]),
            ("'a,b,c'.split(',', 2)", ["a", "b"]),
            ("'a,b,c'.split(',', 5)", ["a", "b", "c"]),
            ("'a,b,c'.split(',', 0)", []),
            ("'a,b,c'.split(',', -1)", ["a", "b", "c"]),
            ("'a,b,c'.split(',', NaN)", []),
            ("'a,b,c'.split(',', 2.7)", ["a", "b"]),
            ("'a,b,c'.split(',', '1')", ["a"]),
            ("'a,b,c'.split(',', 4294967297)", ["a"]),
            ("'a,b,c'.split(',', undefined)", ["a", "b", "c"]),
            ("'abc'.split('', 2)", ["a", "b"]),
            ("'abc'.split(undefined, 0)", []),
            ("'abc'.split(undefined, 1)", ["abc"]),
            ("'abcabc'.lastIndexOf('a', 2)", 0.0),
            ("'abcabc'.lastIndexOf('c', 0)", -1.0),
            ("'abcabc'.lastIndexOf('a', 3)", 3.0),
            ("'abcabc'.lastIndexOf('a', 3.9)", 3.0),
            ("'abcabc'.lastIndexOf('a', NaN)", 3.0),
            ("'abcabc'.lastIndexOf('a', 'x')", 3.0),
            ("'abcabc'.lastIndexOf('a', undefined)", 3.0),
            ("'abcabc'.lastIndexOf('a', -5)", 0.0),
            ("'abcabc'.lastIndexOf('b', -Infinity)", -1.0),
            ("'abcabc'.lastIndexOf('b', Infinity)", 4.0),
            ("'abcabc'.lastIndexOf('bc', 1)", 1.0),
            ("'abcabc'.lastIndexOf('', 2)", 2.0),
            ("'abcabc'.lastIndexOf('', 99)", 6.0),
            ("'abcabc'.lastIndexOf('z')", -1.0),
            ("Math.round(0.49999999999999994)", 0.0),
            ("1/Math.round(0.2)", INF),
            ("1/Math.round(-0.5)", -INF),
            ("1/Math.round(-0.2)", -INF),
            ("1/Math.round(-0)", -INF),
            ("Math.round(-0.51)", -1.0),
            ("Math.round(-2.5)", -2.0),
            ("Math.round(-1.5)", -1.0),
            ("Math.round(1.5)", 2.0),
            ("Math.round(2.5)", 3.0),
            ("Math.round(2.4999999999999996)", 2.0),
            ("Math.round(4503599627370497)", 4503599627370497.0),
            ("Math.round(-4503599627370497)", -4503599627370497.0),
            ("Math.round(1e300)", 1e300),
            ("Math.round('2.5')", 3.0),
        ],
    )
    def test_both_engines_give_the_es5_result(self, source, expected):
        walker, vm = _run_both(source)
        assert walker == vm == expected


class TestErrorObjects:
    """A caught engine error and ``new Error(...)`` are Error objects:
    ``name`` is the kind, ``message`` the text alone, and ToString gives
    ``name: message`` (ES5 §15.11.4.4).  The caught rows gave
    ``[object Object]`` and a message that repeated the kind before."""

    @pytest.mark.parametrize(
        "source, expected",
        [
            (
                "try { null.x } catch (e) { e.name + '|' + e.message + '|' + e }",
                "TypeError|cannot read property 'x' of null"
                "|TypeError: cannot read property 'x' of null",
            ),
            (
                "try { new Array(-1) } catch (e) { e.message + '|' + e }",
                "Invalid array length|RangeError: Invalid array length",
            ),
            ("try { missing } catch (e) { String(e) }", "ReferenceError: missing is not defined"),
            ("try { missing } catch (e) { [e].join() }", "ReferenceError: missing is not defined"),
            ("try { missing } catch (e) { typeof e }", "object"),
            ("'' + new Error('boom')", "Error: boom"),
            ("'' + new Error()", "Error"),
            ("new Error(undefined).message", ""),
            ("'' + Error('called')", "Error: called"),
            ("Error('stray'); '' + this", "[object global]"),
            ("new Error('x') instanceof Error", True),
            ("var e = new Error('m'); e.name = ''; '' + e", "m"),
            ("var e = new Error('m'); e.name = undefined; '' + e", "Error: m"),
            ("var e = new Error('m'); e.message = 7; '' + e", "Error: 7"),
            ("try { throw new Error('t') } catch (e) { e.message + '|' + e }", "t|Error: t"),
            ("try { throw 'raw' } catch (e) { e }", "raw"),
            ("'' + {}", "[object Object]"),
        ],
    )
    def test_both_engines(self, source, expected):
        walker, vm = _run_both(source)
        assert walker == vm == expected

    @pytest.mark.parametrize(
        "source, expected",
        [
            ("typeof TypeError", "function"),
            ("typeof URIError + typeof EvalError + typeof SyntaxError", "functionfunctionfunction"),
            ("'' + Error.prototype", "Error"),
            ("'' + ReferenceError.prototype", "ReferenceError"),
            ("TypeError.prototype instanceof Error", True),
            ("new TypeError('t') instanceof Error", True),
            ("'' + new RangeError('r')", "RangeError: r"),
            ("SyntaxError('s').name", "SyntaxError"),
            ("try { null.x } catch (e) { e instanceof Error }", True),
            ("try { null.x } catch (e) { e instanceof TypeError }", True),
            ("try { null.x } catch (e) { e instanceof RangeError }", False),
            ("try { missing } catch (e) { e instanceof ReferenceError }", True),
            ("try { new Array(-1) } catch (e) { e instanceof RangeError }", True),
            ("try { (function f(n) { return f(n + 1); })(0) } catch (e) { e.name }", "RangeError"),
            (
                "try { (function f(n) { return f(n + 1); })(0) } catch (e) { e instanceof RangeError }",
                True,
            ),
            ("var a = []; a[0] = a; a.join() + '|' + a + '|' + [1, a, 2]", "||1,,2"),
        ],
    )
    def test_native_error_types(self, source, expected):
        """ES5 §15.11.6: each native error type is a constructor whose
        prototype inherits from Error.prototype, and a caught engine
        error has its kind's prototype.  A JS stack overflow is a
        RangeError.  ``typeof TypeError`` was ``'undefined'`` and
        ``e instanceof Error`` false before."""
        walker, vm = _run_both(source)
        assert walker == vm == expected

    def test_uncaught_stack_overflow_is_a_range_error(self):
        from repro.js.errors import JSRuntimeError

        with pytest.raises(JSRuntimeError) as caught:
            evaluate("function f(n) { return f(n + 1); } f(0);")
        assert caught.value.kind == "RangeError"

    def test_python_str_keeps_the_kind(self):
        from repro.js.errors import JSRuntimeError

        error = JSRuntimeError("cannot read property 'x' of null", "TypeError")
        assert str(error) == "TypeError: cannot read property 'x' of null"
        assert error.message == "cannot read property 'x' of null"
        assert error.kind == "TypeError"


class TestUndefinedArguments:
    """A missing or ``undefined`` argument converts as ES5 converts
    ``undefined``: ToString gives ``'undefined'`` (§9.8), and ``join``
    takes ``','`` for an undefined separator (§15.4.4.5).  The rows
    with a missing argument, and ``join``'s with an ``undefined`` one,
    gave ``''``'s result before."""

    @pytest.mark.parametrize(
        "source, expected",
        [
            ("unescape()", "undefined"),
            ("unescape(undefined)", "undefined"),
            ("escape()", "undefined"),
            ("escape(undefined)", "undefined"),
            ("'xundefined'.indexOf()", 1.0),
            ("'xundefined'.indexOf(undefined)", 1.0),
            ("'abc'.indexOf()", -1.0),
            ("'abc'.lastIndexOf()", -1.0),
            ("'undefinedundefined'.lastIndexOf()", 9.0),
            ("'undefinedundefined'.lastIndexOf(undefined, 8)", 0.0),
            ("[1, 2].join(undefined)", "1,2"),
            ("[1, 2].join()", "1,2"),
            ("[1, 2].join(null)", "1null2"),
            ("[1, 2].join('')", "12"),
            ("var u; [1, 2].join(u)", "1,2"),
        ],
    )
    def test_both_engines_give_the_es5_result(self, source, expected):
        walker, vm = _run_both(source)
        assert walker == vm == expected


class TestEscape:
    """ES5 B.2.1: ``escape`` leaves only the ASCII letters and digits
    and ``@*_+-./`` as they are.  ``é``, ``²`` and ``中`` came back
    unchanged before, because ``str.isalnum`` admits non-ASCII letters
    and digits."""

    @pytest.mark.parametrize(
        "source, expected",
        [
            ("escape('é')", "%E9"),
            ("escape('²')", "%B2"),
            ("escape('中')", "%u4E2D"),
            ("escape('٣')", "%u0663"),
            ("escape('azAZ09@*_+-./')", "azAZ09@*_+-./"),
            ("escape(' ~%')", "%20%7E%25"),
            ("escape('\\x00\\x7f\\xff\\u0100\\uffff')", "%00%7F%FF%u0100%uFFFF"),
            ("escape(12.5)", "12.5"),
            ("unescape(escape('é²中 x'))", "é²中 x"),
        ],
    )
    def test_both_engines_give_the_es5_result(self, source, expected):
        walker, vm = _run_both(source)
        assert walker == vm == expected


# -- the unescape oracle -----------------------------------------------------------


def _unescape(text: str) -> str:
    from repro.js.builtins import GLOBAL_FUNCTIONS
    from repro.js.interpreter import Interpreter
    from repro.js.values import UNDEFINED

    return GLOBAL_FUNCTIONS["unescape"](Interpreter(install_builtins=False), UNDEFINED, [text])


#: Pieces of ``%XX`` and ``%u`` escapes, near misses and plain text.
_UNESCAPE_PIECES = st.one_of(
    st.text(st.sampled_from(list("%uU0123456789aAfFgGzZ é中")), max_size=12),
    st.sampled_from(["%", "%u", "%U", "%4", "%u004", "%%41", "%u%41", "%41%u0042"]),
    st.tuples(
        st.sampled_from(["%{:02X}", "%{:02x}", "%u{:04X}", "%u{:04x}", "%U{:04X}"]),
        st.integers(0, 0xFFFF),
    ).map(lambda t: t[0].format(t[1] & (0xFF if len(t[0]) == 6 else 0xFFFF))),
)

#: Runs of one escape kind, some longer than the 256 one match may span.
_UNESCAPE_RUNS = st.tuples(
    st.sampled_from(["%{:02X}", "%u{:04X}"]),
    st.lists(st.integers(0, 0xFF), min_size=1, max_size=4),
    st.integers(1, 600),
).map(lambda t: "".join(t[0].format(code) for code in t[1]) * t[2])


@pytest.mark.diff
@given(st.lists(_UNESCAPE_PIECES | _UNESCAPE_RUNS, max_size=8).map("".join))
@settings(max_examples=1000, deadline=None)
def test_unescape_matches_the_reference(text):
    assert _unescape(text) == unescape_reference.unescape(text), text


@pytest.mark.diff
@pytest.mark.parametrize("count", [255, 256, 257, 512, 513, 1000])
@pytest.mark.parametrize("escape", ["%41", "%e9", "%u4E2D", "%ud83d"])
def test_unescape_runs_past_one_match(count, escape):
    """A run longer than one match spans decodes as the per-escape
    decoder decodes it, with a broken escape and text at each end."""
    text = "x%4" + escape * count + "%zz" + escape + "%"
    assert _unescape(text) == unescape_reference.unescape(text)
