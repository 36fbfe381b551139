"""Built-in globals and primitive methods for the JavaScript engine.

Covers the surface the corpus and instrumentation code actually use:
``unescape`` (heap sprays), ``String.fromCharCode`` (shellcode
builders), string slicing/search, array manipulation, ``Math``,
``parseInt`` and friends.  ``Math.random`` is deterministic per
interpreter (seeded LCG) so every experiment is reproducible.
"""

from __future__ import annotations

import math
import re
import sys
from typing import Any, Callable, Dict, List, Optional

from repro.js.errors import JSRuntimeError
from repro.js.values import (
    DECIMAL_LITERAL,
    STR_WHITE_SPACE,
    JSArray,
    JSObject,
    NativeFunction,
    UNDEFINED,
    array_index,
    array_length,
    format_number,
    int_to_number,
    is_callable,
    join_array,
    to_int32,
    to_integer,
    to_number,
    to_string,
    to_uint32,
    truthy,
)


def _arg(args: List[Any], index: int, default: Any = UNDEFINED) -> Any:
    return args[index] if index < len(args) else default


def _relative_index(value: Any, length: int, default: int) -> int:
    """ES5's start/end of ``slice``, ``splice`` and ``substr``:
    ToInteger, negative counts from the end, clamped to [0, length]."""
    if value is UNDEFINED:
        return default
    index = to_integer(value)
    if index < 0:
        index += length
        return int(index) if index > 0 else 0
    return int(index) if index < length else length


def string_from_char_code(interp: Any, this: Any, args: List[Any]) -> str:
    # Single in-range float argument is the shellcode-builder hot path;
    # everything else takes ToUint16.
    if len(args) == 1:
        code = args[0]
        if type(code) is float and 0.0 <= code < 65536.0:
            return chr(int(code))
    return interp._record_string(
        "".join(chr(to_uint32(x) & 0xFFFF) for x in args)
    )


# ---------------------------------------------------------------------------
# Global functions


#: ES5 B.2.2: ``%uXXXX`` (a lowercase ``u`` only) and ``%XX``.  A run
#: of up to 256 escapes of one kind (a spray's shellcode is one long
#: ``%u`` run, a percent-encoded script one long ``%XX`` run) is one
#: match, so it costs one callback.
_UNESCAPE_RE = re.compile(
    r"%u([0-9a-fA-F]{4}(?:%u[0-9a-fA-F]{4}){0,255})"
    r"|%([0-9a-fA-F]{2}(?:%[0-9a-fA-F]{2}){0,255})"
)


def _decode_escapes(match: "re.Match[str]") -> str:
    run = match[1]
    if run is not None:
        return "".join([chr(int(digits, 16)) for digits in run.split("%u")])
    return bytes.fromhex(match[2].replace("%", "")).decode("latin-1")


def _unescape(interp: Any, this: Any, args: List[Any]) -> str:
    result = _UNESCAPE_RE.sub(_decode_escapes, to_string(_arg(args, 0)))
    interp._record_string(result)
    return result


#: ES5 B.2.1: every character but the ASCII letters and digits and
#: ``@*_+-./``.
_ESCAPE_RE = re.compile(r"[^A-Za-z0-9@*_+\-./]")


def _escape_char(match: "re.Match[str]") -> str:
    code = ord(match[0])
    return "%%%02X" % code if code < 256 else "%%u%04X" % code


def _escape(interp: Any, this: Any, args: List[Any]) -> str:
    return interp._record_string(_ESCAPE_RE.sub(_escape_char, to_string(_arg(args, 0))))


def _parse_int(interp: Any, this: Any, args: List[Any]) -> float:
    """ES5 §15.1.2.2: the radix is ``ToInt32(radix)``; 0 means 10, or
    16 after a ``0x`` prefix; any other radix outside 2-36 gives NaN."""
    text = to_string(_arg(args, 0, "")).strip(STR_WHITE_SPACE)
    radix = to_int32(_arg(args, 1, UNDEFINED))
    sign = 1
    if text.startswith(("-", "+")):
        sign = -1 if text[0] == "-" else 1
        text = text[1:]
    if radix in (0, 16) and text[:2].lower() == "0x":
        text = text[2:]
        radix = 16
    if radix == 0:
        radix = 10
    elif not 2 <= radix <= 36:
        return math.nan
    digits = "0123456789abcdefghijklmnopqrstuvwxyz"[:radix]
    end = 0
    while end < len(text) and text[end].isascii() and text[end].lower() in digits:
        end += 1
    if end == 0:
        return math.nan
    significant = text[:end].lstrip("0")
    if len(significant) > 1024:
        # At least radix**1024 >= 2**1024; int() would also refuse a
        # decimal string this long.
        return sign * math.inf
    return sign * int_to_number(int(significant or "0", radix))


def _parse_float(interp: Any, this: Any, args: List[Any]) -> float:
    """ES5 §15.1.2.3: the longest prefix after leading white space that
    is a StrDecimalLiteral, so ``'9e'`` is 9 and ``'Infinityx'`` is
    Infinity."""
    text = to_string(_arg(args, 0, "")).lstrip(STR_WHITE_SPACE)
    match = DECIMAL_LITERAL.match(text)
    return float(match.group()) if match else math.nan


#: The global functions, keyed by name, signature ``(interp, this,
#: args)``.  ``install_globals`` declares each; the static passes call
#: the pure ones directly (``repro.jsast.consts``).
GLOBAL_FUNCTIONS: Dict[str, Callable[[Any, Any, List[Any]], Any]] = {
    "unescape": _unescape,
    "escape": _escape,
    "parseInt": _parse_int,
    "parseFloat": _parse_float,
    "isNaN": lambda i, t, a: math.isnan(to_number(_arg(a, 0))),
    "isFinite": lambda i, t, a: math.isfinite(to_number(_arg(a, 0))),
    "String": lambda i, t, a: to_string(_arg(a, 0, "")),
    "Number": lambda i, t, a: to_number(_arg(a, 0, 0.0)),
    "Boolean": lambda i, t, a: truthy(_arg(a, 0)),
}

#: ES5's native error types (§15.11.6), after ``Error`` itself.
ERROR_TYPES = (
    "Error",
    "EvalError",
    "RangeError",
    "ReferenceError",
    "SyntaxError",
    "TypeError",
    "URIError",
)


class _SeededRandom:
    """Deterministic LCG so Math.random() is reproducible."""

    def __init__(self, seed: int = 0x2545F491) -> None:
        self.state = seed & 0x7FFFFFFF or 1

    def next(self) -> float:
        self.state = (self.state * 48271) % 0x7FFFFFFF
        return self.state / 0x7FFFFFFF


# ---------------------------------------------------------------------------
# Installation


def install_globals(interp: Any) -> None:
    """Install the standard global environment into ``interp``."""
    env = interp.global_env
    rng = _SeededRandom()

    env.declare("NaN", math.nan)
    env.declare("Infinity", math.inf)
    env.declare("undefined", UNDEFINED)

    for name, fn in GLOBAL_FUNCTIONS.items():
        env.declare(name, NativeFunction(name, fn))
    env.declare(
        "eval",
        NativeFunction(
            "eval", lambda i, t, a: i.eval_in_scope(_arg(a, 0), i.global_env, i.global_this)
        ),
    )
    env.lookup("String").set(
        "fromCharCode", NativeFunction("fromCharCode", string_from_char_code)
    )
    number = env.lookup("Number")
    for name, value in (
        ("MAX_VALUE", sys.float_info.max),
        ("MIN_VALUE", math.nextafter(0.0, 1.0)),
        ("NaN", math.nan),
        ("POSITIVE_INFINITY", math.inf),
        ("NEGATIVE_INFINITY", -math.inf),
    ):
        number.set(name, value)

    def _array_ctor(i: Any, t: Any, a: List[Any]) -> JSArray:
        if len(a) == 1 and isinstance(a[0], float):
            return JSArray([UNDEFINED] * array_length(a[0]))
        return JSArray(list(a))

    env.declare("Array", NativeFunction("Array", _array_ctor))

    object_ctor = NativeFunction("Object", lambda i, t, a: JSObject())
    object_ctor.set("prototype", JSObject())
    env.declare("Object", object_ctor)

    math_obj = JSObject(class_name="Math")
    math_obj.set("PI", math.pi)
    math_obj.set("E", math.e)
    for name, fn in {
        "floor": lambda i, t, a: _finite_only(math.floor, to_number(_arg(a, 0))),
        "ceil": lambda i, t, a: _finite_only(math.ceil, to_number(_arg(a, 0))),
        "round": lambda i, t, a: _math_round(to_number(_arg(a, 0))),
        "abs": lambda i, t, a: abs(to_number(_arg(a, 0))),
        "sqrt": lambda i, t, a: math.sqrt(to_number(_arg(a, 0))) if to_number(_arg(a, 0)) >= 0 else math.nan,
        "pow": lambda i, t, a: _math_pow(to_number(_arg(a, 0)), to_number(_arg(a, 1))),
        "max": lambda i, t, a: _math_extreme(max, a, -math.inf),
        "min": lambda i, t, a: _math_extreme(min, a, math.inf),
        "log": lambda i, t, a: (
            math.log(to_number(_arg(a, 0))) if to_number(_arg(a, 0)) > 0 else -math.inf
            if to_number(_arg(a, 0)) == 0 else math.nan
        ),
        "exp": lambda i, t, a: _math_exp(to_number(_arg(a, 0))),
        "sin": lambda i, t, a: _finite_only(math.sin, to_number(_arg(a, 0)), math.nan),
        "cos": lambda i, t, a: _finite_only(math.cos, to_number(_arg(a, 0)), math.nan),
        "atan": lambda i, t, a: math.atan(to_number(_arg(a, 0))),
    }.items():
        math_obj.set(name, NativeFunction(name, fn))
    math_obj.set("random", NativeFunction("random", lambda i, t, a: rng.next()))
    env.declare("Math", math_obj)

    # Each error type's prototype inherits from Error.prototype, and
    # every prototype is an Error whose ToString is its name.
    prototypes: Dict[str, JSObject] = {}
    for name in ERROR_TYPES:
        prototype = JSObject(
            {"name": name, "message": ""},
            class_name="Error",
            prototype=prototypes.get("Error"),
        )
        prototypes[name] = prototype
        env.declare(name, _error_constructor(name, prototype))
    interp.error_prototypes = prototypes

    env.declare("Date", _make_date_constructor(interp))


#: Epoch base for the virtual Date: 2013-06-01T00:00:00Z — inside the
#: paper's data-collection window, so date-gated samples behave.
_VIRTUAL_EPOCH_MS = 1370044800000.0


def _finite_only(
    fn: Callable[[float], float], x: float, otherwise: Optional[float] = None
) -> float:
    """``fn(x)`` for a finite ``x``; NaN stays NaN and ±Infinity maps to
    ``otherwise`` (itself when None), as ES5's Math functions do."""
    if math.isfinite(x):
        return float(fn(x))
    return x if otherwise is None or x != x else otherwise


def _math_round(x: float) -> float:
    """ES5 §15.8.2.15: the nearest integer, ties toward +Infinity; -0
    for -0.5 <= x < 0.  ``floor(x + 0.5)`` would round
    0.49999999999999994 up, since the sum rounds to 1.0."""
    if not math.isfinite(x) or x == 0.0:
        return x  # NaN, ±Infinity, ±0
    if -0.5 <= x < 0.0:
        return -0.0
    whole = math.floor(x)
    return float(whole + 1 if x - whole >= 0.5 else whole)


def _math_exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _math_extreme(pick: Callable[..., float], args: List[Any], empty: float) -> float:
    """``Math.max``/``Math.min``: NaN when any argument is NaN."""
    numbers = [to_number(x) for x in args]
    if any(x != x for x in numbers):
        return math.nan
    return pick(numbers, default=empty)


def _math_pow(x: float, y: float) -> float:
    """ES5 §15.8.2.13: NaN or ±Infinity where Python would raise."""
    if y != y:
        return math.nan
    if y == 0.0:
        return 1.0
    if x != x or (abs(x) == 1.0 and math.isinf(y)):
        return math.nan
    try:
        return math.pow(x, y)
    except (OverflowError, ValueError) as error:
        if isinstance(error, ValueError) and x != 0.0:
            return math.nan  # negative base, non-integer exponent
        # Too large, or ±0 to a negative power: the sign survives only
        # for a negative base and an odd integer exponent.
        odd = y.is_integer() and abs(y) < 2.0**53 and int(y) % 2 == 1
        return -math.inf if odd and math.copysign(1.0, x) < 0 else math.inf


def _make_date_constructor(interp: Any) -> NativeFunction:
    """A minimal ``Date``: enough for timestamp/stamping scripts.

    Time comes from the host's virtual clock, so runs are reproducible.
    """

    def _date_ctor(i: Any, t: Any, a: List[Any]) -> JSObject:
        if a:
            millis = to_number(_arg(a, 0, 0.0))
        else:
            millis = _VIRTUAL_EPOCH_MS + i.host.now_seconds() * 1000.0
        target = t if isinstance(t, JSObject) else JSObject()
        target.class_name = "Date"
        target.set("getTime", NativeFunction("getTime", lambda i2, t2, a2: millis))
        target.set("valueOf", NativeFunction("valueOf", lambda i2, t2, a2: millis))
        seconds = millis / 1000.0
        days = seconds / 86400.0
        target.set(
            "getFullYear",
            NativeFunction("getFullYear", lambda i2, t2, a2: float(1970 + int(days / 365.2425))),
        )
        target.set(
            "toString",
            NativeFunction("toString", lambda i2, t2, a2: f"[Date {millis:.0f}ms]"),
        )
        return target

    ctor = NativeFunction("Date", _date_ctor)
    ctor.set(
        "now",
        NativeFunction(
            "now",
            lambda i, t, a: _VIRTUAL_EPOCH_MS + i.host.now_seconds() * 1000.0,
        ),
    )
    return ctor


def _error_constructor(name: str, prototype: JSObject) -> NativeFunction:
    """``Error`` or one of its native subtypes: ``new E(message)``
    initialises its instance, and ``E(message)`` called as a function
    makes a new one (ES5 §15.11.1)."""

    def construct(interp: Any, this: Any, args: List[Any]) -> JSObject:
        current = ctor.get("prototype")
        if isinstance(this, JSObject) and this.prototype is current:
            target = this
        else:
            target = JSObject(prototype=current if isinstance(current, JSObject) else None)
        target.class_name = "Error"
        message = _arg(args, 0)
        target.set("message", "" if message is UNDEFINED else to_string(message))
        target.set("name", name)
        return target

    ctor = NativeFunction(name, construct)
    ctor.set("prototype", prototype)
    return ctor


# ---------------------------------------------------------------------------
# Primitive (string / number / boolean) property access


def primitive_property(interp: Any, obj: Any, name: str) -> Any:
    if isinstance(obj, str):
        return _string_property(interp, obj, name)
    # bool before number: Python's bool is an int.
    if isinstance(obj, bool):
        return _boolean_property(obj, name)
    if isinstance(obj, (int, float)):
        return _number_property(interp, float(obj), name)
    raise JSRuntimeError(f"cannot read property {name!r}", "TypeError")


def _str_char_at(interp: Any, value: str, args: List[Any]) -> str:
    index = to_integer(_arg(args, 0, 0.0))
    return value[int(index)] if 0 <= index < len(value) else ""


def _str_char_code_at(interp: Any, value: str, args: List[Any]) -> float:
    # An in-range float index is the deobfuscation-loop hot path; NaN,
    # ±Infinity and everything out of range take ToInteger below.
    if args:
        index = args[0]
        if type(index) is float and 0.0 <= index < len(value):
            return float(ord(value[int(index)]))
    position = to_integer(_arg(args, 0, 0.0))
    return float(ord(value[int(position)])) if 0 <= position < len(value) else math.nan


def _str_index_of(interp: Any, value: str, args: List[Any]) -> float:
    start = min(max(to_integer(_arg(args, 1, 0.0)), 0.0), len(value))
    return float(value.find(to_string(_arg(args, 0)), int(start)))


def _str_last_index_of(interp: Any, value: str, args: List[Any]) -> float:
    """ES5 §15.5.4.8: the last match starting at or before the position,
    which is +Infinity when NaN, else ToInteger clamped to [0, length]."""
    search = to_string(_arg(args, 0))
    position = to_number(_arg(args, 1))
    start = len(value)
    if position == position:  # not NaN
        start = int(min(max(to_integer(position), 0.0), start))
    return float(value.rfind(search, 0, start + len(search)))


#: The replacement patterns a string search value has (ES5 Table 22):
#: ``$n`` names a capture, which a string pattern lacks, so it stays.
_REPLACE_PATTERN = re.compile(r"\$[$&`']")


def _str_replace(interp: Any, value: str, args: List[Any]) -> str:
    """``replace`` with a string search value (ES5 §15.5.4.11): the
    first match is replaced, and ``$$``, ``$&``, ``$` `` and ``$'`` in
    the replacement expand."""
    search = to_string(_arg(args, 0, ""))
    replacement = to_string(_arg(args, 1, ""))
    start = value.find(search)
    if start < 0:
        return interp._record_string(value)
    end = start + len(search)
    if "$" in replacement:
        expansions = {"$$": "$", "$&": search, "$`": value[:start], "$'": value[end:]}
        replacement = _REPLACE_PATTERN.sub(lambda match: expansions[match.group()], replacement)
    return interp._record_string(value[:start] + replacement + value[end:])


def _str_concat(interp: Any, value: str, args: List[Any]) -> str:
    return interp._record_string(value + "".join(to_string(x) for x in args))


def _str_substring(interp: Any, value: str, args: List[Any]) -> str:
    length = len(value)
    start = args[0] if args else 0.0
    end = args[1] if len(args) > 1 else UNDEFINED
    first = int(min(max(to_integer(start), 0.0), length))
    last = length if end is UNDEFINED else int(min(max(to_integer(end), 0.0), length))
    if first > last:
        first, last = last, first
    return interp._record_string(value[first:last])


def _str_substr(interp: Any, value: str, args: List[Any]) -> str:
    length = len(value)
    start = args[0] if args else 0.0
    count = args[1] if len(args) > 1 else UNDEFINED
    if type(start) is float and type(count) is float:
        if start == 0.0 and count >= length:
            # The spray's copy, c.substr(0, c.length): the receiver at
            # once, without the slice below (which also returns it).
            return interp._record_string(value)
        if 0.0 <= start <= length and count >= 0.0 and start.is_integer() and count.is_integer():
            # Whole, non-negative, start in range: ToInteger and the
            # clamps are no-ops, and the slice clamps the count.
            first = int(start)
            return interp._record_string(value[first : first + int(count)])
    first = _relative_index(start, length, 0)
    if count is UNDEFINED:
        return interp._record_string(value[first:])
    count = to_integer(count)
    return interp._record_string(
        value[first : first + int(min(count, length - first))] if count > 0 else ""
    )


def _str_slice(interp: Any, value: str, args: List[Any]) -> str:
    length = len(value)
    start = args[0] if args else UNDEFINED
    end = args[1] if len(args) > 1 else UNDEFINED
    first = _relative_index(start, length, 0)
    return interp._record_string(value[first : _relative_index(end, length, length)])


#: String methods keyed by name, signature ``(interp, value, args)``
#: where ``value`` is the receiver string.  ``get_property`` wraps one
#: per access in a NativeFunction (below); the bytecode VM's
#: string-method fast path calls it directly, with no wrapper.  Heap
#: accounting (``_record_string``) lives inside each method, so both
#: paths charge identically.
STRING_METHODS = {
    "charAt": _str_char_at,
    "charCodeAt": _str_char_code_at,
    "indexOf": _str_index_of,
    "lastIndexOf": _str_last_index_of,
    "substring": _str_substring,
    "substr": _str_substr,
    "slice": _str_slice,
    "toUpperCase": lambda i, v, a: i._record_string(v.upper()),
    "toLowerCase": lambda i, v, a: i._record_string(v.lower()),
    "split": lambda i, v, a: _split(v, a),
    "replace": _str_replace,
    "concat": _str_concat,
    "trim": lambda i, v, a: i._record_string(v.strip(STR_WHITE_SPACE)),
    "toString": lambda i, v, a: v,
    "valueOf": lambda i, v, a: v,
}


def _string_property(interp: Any, value: str, name: str) -> Any:
    if name == "length":
        return float(len(value))
    index = array_index(name)
    if index is not None:
        return value[index] if index < len(value) else UNDEFINED
    fn = STRING_METHODS.get(name)
    if fn is None:
        return UNDEFINED
    return NativeFunction(name, lambda i, t, a, _fn=fn, _v=value: _fn(i, _v, a))


def _split(value: str, args: List[Any]) -> JSArray:
    """ES5 §15.5.4.14 for string separators: at most ``ToUint32(limit)``
    parts (2**32 - 1 when the limit is undefined)."""
    separator = _arg(args, 0, UNDEFINED)
    limit_arg = _arg(args, 1, UNDEFINED)
    limit = 0xFFFFFFFF if limit_arg is UNDEFINED else to_uint32(limit_arg)
    if limit == 0:
        return JSArray()
    if separator is UNDEFINED:
        return JSArray([value])
    sep = to_string(separator)
    parts = list(value) if sep == "" else value.split(sep)
    return JSArray(parts if len(parts) <= limit else parts[:limit])


def _boolean_property(value: bool, name: str) -> Any:
    """Boolean.prototype's methods (ES5 §15.6.4): ``toString`` and
    ``valueOf``, which take no arguments."""
    if name == "toString":
        return NativeFunction(name, lambda i, t, a: "true" if value else "false")
    if name == "valueOf":
        return NativeFunction(name, lambda i, t, a: value)
    return UNDEFINED


def _number_property(interp: Any, value: float, name: str) -> Any:
    methods = {
        "toString": lambda i, t, a: _number_to_string(value, a),
        "valueOf": lambda i, t, a: value,
        "toFixed": lambda i, t, a: _number_to_fixed(value, a),
    }
    fn = methods.get(name)
    if fn is None:
        return UNDEFINED
    return NativeFunction(name, fn)


def _number_to_fixed(value: float, args: List[Any]) -> str:
    """ES5 §15.7.4.5: ``n`` is the integer nearest ``x * 10**f``, the
    larger one on a tie, computed exactly; the sign is written only
    when ``x < 0``, so ``-0`` has none."""
    digits = to_integer(_arg(args, 0, 0.0))
    if not 0 <= digits <= 20:
        raise JSRuntimeError("toFixed() digits must be between 0 and 20", "RangeError")
    if not math.isfinite(value) or abs(value) >= 1e21:
        return format_number(value)
    places = int(digits)
    numerator, denominator = abs(value).as_integer_ratio()
    n = (2 * numerator * 10**places + denominator) // (2 * denominator)
    text = str(n).rjust(places + 1, "0")
    if places:
        text = f"{text[:-places]}.{text[-places:]}"
    return "-" + text if value < 0 else text


_RADIX_DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz"


def _number_to_string(value: float, args: List[Any]) -> str:
    radix_arg = _arg(args, 0, UNDEFINED)
    if radix_arg is UNDEFINED:
        return format_number(value)
    radix = to_integer(radix_arg)
    if not 2 <= radix <= 36:
        raise JSRuntimeError("toString() radix must be between 2 and 36", "RangeError")
    if radix == 10 or math.isnan(value) or math.isinf(value):
        return format_number(value)
    return _radix_string(value, int(radix))


def _radix_string(value: float, radix: int) -> str:
    """A finite number in base ``radix``, with V8's digits (ES5
    §15.7.4.2 leaves them to the implementation).

    Fraction digits stop once the rest is below half a unit in the
    last place of ``value``, and the last one rounds to even.  An
    integer part at or above ``radix * 2**53`` ends in zeros where its
    digits are not represented.
    """
    negative = value < 0
    if negative:
        value = -value
    integer = float(math.floor(value))
    fraction = value - integer
    delta = max(math.nextafter(0.0, 1.0), 0.5 * (math.nextafter(value, math.inf) - value))
    fraction_digits: List[int] = []
    if fraction >= delta:
        while True:
            fraction *= radix
            delta *= radix
            digit = int(fraction)
            fraction_digits.append(digit)
            fraction -= digit
            if (fraction > 0.5 or (fraction == 0.5 and digit & 1)) and fraction + delta > 1:
                # Round up, carrying through the digits already written.
                while fraction_digits:
                    last = fraction_digits.pop() + 1
                    if last < radix:
                        fraction_digits.append(last)
                        break
                else:
                    integer += 1
                break
            if fraction < delta:
                break
    text: List[str] = []
    while integer / radix >= 2.0**53:
        integer /= radix
        text.append("0")
    while True:
        remainder = math.fmod(integer, radix)
        text.append(_RADIX_DIGITS[int(remainder)])
        integer = (integer - remainder) / radix
        if integer <= 0:
            break
    text.reverse()
    if fraction_digits:
        text.append(".")
        text.extend(_RADIX_DIGITS[digit] for digit in fraction_digits)
    return ("-" if negative else "") + "".join(text)


# ---------------------------------------------------------------------------
# Array methods (shared, dispatched from Interpreter.get_property)


def array_method(interp: Any, array: JSArray, name: str) -> Any:
    fn = ARRAY_METHODS.get(name)
    if fn is None:
        return None
    return NativeFunction(name, fn)


def _array_push(interp: Any, this: JSArray, args: List[Any]) -> float:
    this.elements.extend(args)
    return float(len(this.elements))


def _array_pop(interp: Any, this: JSArray, args: List[Any]) -> Any:
    return this.elements.pop() if this.elements else UNDEFINED


def _array_shift(interp: Any, this: JSArray, args: List[Any]) -> Any:
    return this.elements.pop(0) if this.elements else UNDEFINED


def _array_unshift(interp: Any, this: JSArray, args: List[Any]) -> float:
    this.elements[:0] = args
    return float(len(this.elements))


def _array_join(interp: Any, this: JSArray, args: List[Any]) -> str:
    """ES5 §15.4.4.5: an absent or ``undefined`` separator is ``','``."""
    separator = _arg(args, 0)
    separator = "," if separator is UNDEFINED else to_string(separator)
    return interp._record_string(join_array(this, separator))


def _array_concat(interp: Any, this: JSArray, args: List[Any]) -> JSArray:
    merged = list(this.elements)
    for arg in args:
        if isinstance(arg, JSArray):
            merged.extend(arg.elements)
        else:
            merged.append(arg)
    return JSArray(merged)


def _array_slice(interp: Any, this: JSArray, args: List[Any]) -> JSArray:
    length = len(this.elements)
    start = _relative_index(_arg(args, 0), length, 0)
    return JSArray(this.elements[start : _relative_index(_arg(args, 1), length, length)])


def _array_reverse(interp: Any, this: JSArray, args: List[Any]) -> JSArray:
    this.elements.reverse()
    return this


def _array_index_of(interp: Any, this: JSArray, args: List[Any]) -> float:
    from repro.js.values import strict_equals

    needle = _arg(args, 0)
    for index, element in enumerate(this.elements):
        if strict_equals(element, needle):
            return float(index)
    return -1.0


def _array_splice(interp: Any, this: JSArray, args: List[Any]) -> JSArray:
    length = len(this.elements)
    start = _relative_index(_arg(args, 0, 0.0), length, 0)
    delete_arg = _arg(args, 1, UNDEFINED)
    delete_count = length - start
    if delete_arg is not UNDEFINED:
        delete_count = int(min(max(to_integer(delete_arg), 0.0), delete_count))
    removed = this.elements[start : start + delete_count]
    this.elements[start : start + delete_count] = list(args[2:])
    return JSArray(removed)


def _array_sort(interp: Any, this: JSArray, args: List[Any]) -> JSArray:
    comparator = _arg(args, 0, UNDEFINED)
    if is_callable(comparator):
        import functools

        def compare(a: Any, b: Any) -> int:
            result = to_number(interp.call_function(comparator, UNDEFINED, [a, b]))
            if math.isnan(result):
                return 0
            return -1 if result < 0 else (1 if result > 0 else 0)

        this.elements.sort(key=functools.cmp_to_key(compare))
    else:
        this.elements.sort(key=to_string)
    return this


#: Array methods keyed by name, signature ``(interp, this, args)``.
#: Module-level so a lookup allocates nothing but the NativeFunction.
ARRAY_METHODS = {
    "push": _array_push,
    "pop": _array_pop,
    "shift": _array_shift,
    "unshift": _array_unshift,
    "join": _array_join,
    "concat": _array_concat,
    "slice": _array_slice,
    "reverse": _array_reverse,
    "indexOf": _array_index_of,
    "sort": _array_sort,
    "splice": _array_splice,
    "toString": lambda i, t, a: to_string(t),
}
