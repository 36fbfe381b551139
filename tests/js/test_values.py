"""Direct unit tests for the JS value model and coercion algorithms."""

import math
import time

import pytest

from repro.js.values import (
    JSArray,
    JSObject,
    NativeFunction,
    UNDEFINED,
    array_index,
    format_number,
    int_to_number,
    is_callable,
    loose_equals,
    strict_equals,
    to_int32,
    to_number,
    to_string,
    to_uint32,
    truthy,
    type_of,
)


class TestToNumber:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (True, 1.0), (False, 0.0), (None, 0.0),
            ("", 0.0), ("  12 ", 12.0), ("0x1f", 31.0), ("-3.5", -3.5),
        ],
    )
    def test_values(self, value, expected):
        assert to_number(value) == expected

    @pytest.mark.parametrize(
        "text, expected",
        [("0x" + "f" * 300, math.inf), ("0x" + "f" * 256, math.inf), ("0x" + "f" * 255, 16.0**255)],
    )
    def test_huge_hex_strings(self, text, expected):
        assert to_number(text) == expected

    def test_nan_cases(self):
        assert math.isnan(to_number(UNDEFINED))
        assert math.isnan(to_number("not a number"))
        assert math.isnan(to_number(JSObject()))

    def test_array_cases(self):
        assert to_number(JSArray([])) == 0.0
        assert to_number(JSArray([7.0])) == 7.0
        assert math.isnan(to_number(JSArray([1.0, 2.0])))

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("1_0", math.nan), ("infinity", math.nan), ("inf", math.nan),
            ("\uff11\uff12", math.nan), ("0x1_0", math.nan), ("-0x10", math.nan),
            ("+0x10", math.nan), ("1e", math.nan), (".", math.nan),
            ("Infinity", math.inf), ("-Infinity", -math.inf), ("+Infinity", math.inf),
            ("\u00a0\ufeff12\u2028", 12.0), ("\x1c12", math.nan), (" .5e1 ", 5.0),
            ("5.", 5.0), ("0X1f", 31.0), ("1e400", math.inf),
        ],
    )
    def test_es5_string_grammar(self, text, expected):
        """ES5 §9.3.1: ASCII digits, ``Infinity`` spelt exactly so, an
        unsigned ``0x`` literal, ES5 white space.  Python's ``float()``
        took ``1_0``, ``infinity`` and fullwidth digits."""
        value = to_number(text)
        assert value == expected or (math.isnan(value) and math.isnan(expected))

    @pytest.mark.parametrize("tail", ["x", "e", ".5x", "e5x"])
    def test_long_digit_run_is_linear(self, tail):
        """A digit run that is no StrDecimalLiteral fails in linear time.
        A grammar whose repeats can share digits tries every split of
        the run: minutes for these 200,000 digits."""
        start = time.perf_counter()
        assert math.isnan(to_number("1" * 200_000 + tail))
        assert time.perf_counter() - start < 1.0


class TestToString:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (UNDEFINED, "undefined"), (None, "null"),
            (True, "true"), (False, "false"),
            (3.0, "3"), (3.5, "3.5"), (-0.0, "0"),
            (JSArray([1.0, None, "x"]), "1,,x"),
        ],
    )
    def test_values(self, value, expected):
        assert to_string(value) == expected

    def test_object_tag(self):
        assert to_string(JSObject()) == "[object Object]"

    def test_function_rendering(self):
        fn = NativeFunction("f", lambda i, t, a: None)
        assert "function f" in to_string(fn)

    def test_format_number_specials(self):
        assert format_number(math.nan) == "NaN"
        assert format_number(math.inf) == "Infinity"
        assert format_number(-math.inf) == "-Infinity"

    @pytest.mark.parametrize(
        "value, expected",
        [
            (0.000001, "0.000001"), (1.5e-7, "1.5e-7"), (1e-7, "1e-7"),
            (-1.5e-7, "-1.5e-7"), (123456789012345680000.0, "123456789012345680000"),
            (1e21, "1e+21"), (1.5e300, "1.5e+300"), (2.0**53 + 2, "9007199254740994"),
            (2.0**53 - 1, "9007199254740991"), (0.1 + 0.2, "0.30000000000000004"),
            (123.456, "123.456"), (-0.5, "-0.5"), (5e-324, "5e-324"), (1e20, "100000000000000000000"),
        ],
    )
    def test_format_number_es5_layout(self, value, expected):
        """ES5 §9.8.1; ``repr()`` gave ``1e-06``, ``1.5e-07`` and
        ``123456789012345683968``."""
        assert format_number(value) == expected


class TestInt32:
    def test_wrapping(self):
        assert to_int32(2**31) == -(2**31)
        assert to_int32(2**32 + 5) == 5
        assert to_uint32(-1) == 2**32 - 1

    def test_non_finite(self):
        assert to_int32(math.nan) == 0
        assert to_int32(math.inf) == 0
        assert to_uint32(math.nan) == 0


class TestEquality:
    def test_loose_null_undefined(self):
        assert loose_equals(None, UNDEFINED)
        assert not loose_equals(None, 0.0)
        assert not loose_equals(UNDEFINED, "")

    def test_loose_number_string(self):
        assert loose_equals(1.0, "1")
        assert loose_equals("", 0.0)

    def test_object_identity(self):
        a, b = JSObject(), JSObject()
        assert loose_equals(a, a)
        assert not loose_equals(a, b)
        assert strict_equals(a, a)
        assert not strict_equals(a, b)

    def test_strict_type_mismatch(self):
        assert not strict_equals(1.0, "1")
        assert not strict_equals(True, 1.0)
        assert not strict_equals(None, UNDEFINED)


class TestTypeOfAndTruthy:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (UNDEFINED, "undefined"), (None, "object"),
            (True, "boolean"), (1.0, "number"), ("s", "string"),
            (JSObject(), "object"), (JSArray([]), "object"),
        ],
    )
    def test_type_of(self, value, expected):
        assert type_of(value) == expected

    def test_functions_are_callable(self):
        fn = NativeFunction("f", lambda i, t, a: None)
        assert type_of(fn) == "function"
        assert is_callable(fn)
        assert not is_callable(JSObject())

    @pytest.mark.parametrize("falsy", [UNDEFINED, None, False, 0.0, math.nan, ""])
    def test_falsy(self, falsy):
        assert not truthy(falsy)

    @pytest.mark.parametrize("truey", [True, 1.0, -1.0, "0", JSObject(), JSArray([])])
    def test_truthy(self, truey):
        assert truthy(truey)


class TestJSArraySemantics:
    def test_length_read_write(self):
        arr = JSArray([1.0, 2.0, 3.0])
        assert arr.get("length") == 3.0
        arr.set("length", 5)
        assert len(arr.elements) == 5
        assert arr.elements[4] is UNDEFINED

    def test_index_get_set(self):
        arr = JSArray([])
        arr.set("2", "x")
        assert arr.get("2") == "x"
        assert arr.get("0") is UNDEFINED
        assert arr.get("9") is UNDEFINED

    def test_keys_include_indices_and_props(self):
        arr = JSArray([1.0])
        arr.set("tag", "t")
        assert arr.keys() == ["0", "tag"]

    def test_negative_key_is_a_property(self):
        arr = JSArray([1.0, 2.0, 3.0])
        arr.set("-1", 9.0)
        assert arr.elements == [1.0, 2.0, 3.0]
        assert arr.get("-1") == 9.0
        assert arr.has("-1")
        assert arr.keys() == ["0", "1", "2", "-1"]

    def test_negative_key_on_empty_array(self):
        arr = JSArray([])
        arr.set("-1", 5.0)
        assert arr.elements == []
        assert arr.get("-1") == 5.0

    @pytest.mark.parametrize("name", ["01", "²", "٣", "+1", "1.0", " 1", "4294967295"])
    def test_non_canonical_keys_are_properties(self, name):
        arr = JSArray([5.0, 6.0])
        assert arr.get(name) is UNDEFINED
        assert not arr.has(name)
        arr.set(name, 7.0)
        assert arr.elements == [5.0, 6.0]
        assert arr.get(name) == 7.0


class TestArrayIndex:
    @pytest.mark.parametrize(
        "name, index",
        [("0", 0), ("7", 7), ("10", 10), ("4294967294", 4294967294)],
    )
    def test_canonical_indices(self, name, index):
        assert array_index(name) == index

    @pytest.mark.parametrize(
        "name",
        ["", "-1", "-0", "01", "00", "+1", "1.5", "1e3", " 1", "1 ", "²", "٣", "1²",
         "4294967295", "99999999999", "9" * 5000, "length", "x"],
    )
    def test_everything_else_is_a_property_name(self, name):
        assert array_index(name) is None


class TestIntToNumber:
    @pytest.mark.parametrize(
        "value, expected",
        [
            (0, 0.0), (-7, -7.0), (2**53 + 1, 2.0**53),
            (2**1024 - 2**970 - 1, (2 - 2**-52) * 2.0**1023),
            (2**1024 - 2**970, math.inf), (2**1024, math.inf), (16**300, math.inf),
            (-(2**1024), -math.inf),
        ],
    )
    def test_saturates_to_infinity(self, value, expected):
        assert int_to_number(value) == expected


class TestPrototypeChain:
    def test_get_falls_back_to_prototype(self):
        proto = JSObject({"shared": 1.0})
        child = JSObject(prototype=proto)
        assert child.get("shared") == 1.0
        assert child.has("shared")
        child.set("shared", 2.0)
        assert child.get("shared") == 2.0
        assert proto.get("shared") == 1.0

    def test_delete_only_own(self):
        proto = JSObject({"k": 1.0})
        child = JSObject(prototype=proto)
        assert not child.delete("k")
        assert child.get("k") == 1.0
