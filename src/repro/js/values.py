"""Runtime value model for the JavaScript engine.

Mapping to Python:

========================  =========================================
JS value                  Python representation
========================  =========================================
``undefined``             the :data:`UNDEFINED` singleton
``null``                  ``None``
booleans                  ``bool``
numbers                   ``float`` (NaN/Infinity included)
strings                   ``str``
objects                   :class:`JSObject`
arrays                    :class:`JSArray`
functions                 :class:`JSFunction` / :class:`NativeFunction`
========================  =========================================
"""

from __future__ import annotations

import math
import re
from typing import Any, Callable, Dict, List, Optional, TYPE_CHECKING, Union

from repro.js.errors import JSRuntimeError, stack_overflow

if TYPE_CHECKING:
    from repro.js.interpreter import Environment, Interpreter


class _Undefined:
    """The JS ``undefined`` singleton."""

    _instance: Optional["_Undefined"] = None

    def __new__(cls) -> "_Undefined":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "undefined"

    def __bool__(self) -> bool:
        return False


UNDEFINED = _Undefined()


class JSObject:
    """A generic JS object: a property map with an optional prototype."""

    def __init__(
        self,
        properties: Optional[Dict[str, Any]] = None,
        class_name: str = "Object",
        prototype: Optional["JSObject"] = None,
    ) -> None:
        self.properties: Dict[str, Any] = dict(properties or {})
        self.class_name = class_name
        self.prototype = prototype

    def get(self, name: str) -> Any:
        if name in self.properties:
            return self.properties[name]
        if self.prototype is not None:
            return self.prototype.get(name)
        return UNDEFINED

    def has(self, name: str) -> bool:
        if name in self.properties:
            return True
        return self.prototype is not None and self.prototype.has(name)

    def set(self, name: str, value: Any) -> None:
        self.properties[name] = value

    def delete(self, name: str) -> bool:
        return self.properties.pop(name, None) is not None

    def keys(self) -> List[str]:
        return list(self.properties)

    def __repr__(self) -> str:
        return f"JSObject({self.class_name}, {len(self.properties)} props)"


class JSArray(JSObject):
    """A JS array backed by a Python list."""

    #: True while :func:`join_array` joins this array, so that meeting
    #: it again inside its own join is seen as a cycle.
    joining = False

    def __init__(self, elements: Optional[List[Any]] = None) -> None:
        super().__init__(class_name="Array")
        self.elements: List[Any] = list(elements or [])

    def get(self, name: str) -> Any:
        if name == "length":
            return float(len(self.elements))
        index = array_index(name)
        if index is not None:
            if 0 <= index < len(self.elements):
                return self.elements[index]
            return UNDEFINED
        return super().get(name)

    def set(self, name: str, value: Any) -> None:
        if name == "length":
            new_len = array_length(value)
            current = len(self.elements)
            if new_len < current:
                del self.elements[new_len:]
            else:
                self.elements.extend([UNDEFINED] * (new_len - current))
            return
        index = array_index(name)
        if index is not None:
            if index >= len(self.elements):
                self.elements.extend([UNDEFINED] * (index + 1 - len(self.elements)))
            self.elements[index] = value
            return
        super().set(name, value)

    def has(self, name: str) -> bool:
        if name == "length":
            return True
        index = array_index(name)
        if index is not None:
            return 0 <= index < len(self.elements)
        return super().has(name)

    def keys(self) -> List[str]:
        return [str(i) for i in range(len(self.elements))] + list(self.properties)

    def __repr__(self) -> str:
        return f"JSArray({self.elements!r})"


#: Array indices run below 2**32 - 1 (ES5 §15.4).
_MAX_ARRAY_INDEX = 0xFFFFFFFE


def array_index(name: str) -> Optional[int]:
    """The array index a property name denotes, or None.

    An array index is ``"0"`` or ASCII ``[1-9][0-9]*`` below 2**32 - 1:
    the canonical spelling of an index.  ``"-1"``, ``"01"`` and ``"²"``
    are plain property names.
    """
    if (
        len(name) <= 10
        and name.isdigit()
        and name.isascii()
        and (name[0] != "0" or len(name) == 1)
    ):
        index = int(name)
        if index <= _MAX_ARRAY_INDEX:
            return index
    return None


class JSFunction(JSObject):
    """A script function: its name and closure scope.  Each engine
    subclasses it with what it runs (the VM's ``CompiledFunction``)."""

    def __init__(self, name: Optional[str], closure: "Environment") -> None:
        super().__init__(class_name="Function")
        self.name = name or ""
        self.closure = closure

    def __repr__(self) -> str:
        return f"JSFunction({self.name or '<anonymous>'})"


class NativeFunction(JSObject):
    """A host function exposed to JS.

    ``fn`` receives ``(interpreter, this, args)`` and returns a JS value.
    """

    def __init__(self, name: str, fn: Callable[["Interpreter", Any, List[Any]], Any]) -> None:
        super().__init__(class_name="Function")
        self.name = name
        self.fn = fn

    def __repr__(self) -> str:
        return f"NativeFunction({self.name})"


# ---------------------------------------------------------------------------
# Coercions (ES3 semantics, simplified)


def is_callable(value: Any) -> bool:
    return isinstance(value, (JSFunction, NativeFunction))


def truthy(value: Any) -> bool:
    if value is UNDEFINED or value is None:
        return False
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        return value != 0 and not math.isnan(value)
    if isinstance(value, int):
        return value != 0
    if isinstance(value, str):
        return bool(value)
    return True


def to_number(value: Any) -> float:
    if isinstance(value, bool):
        return 1.0 if value else 0.0
    if isinstance(value, (int, float)):
        return float(value)
    if value is UNDEFINED:
        return math.nan
    if value is None:
        return 0.0
    if isinstance(value, str):
        return _string_to_number(value)
    if isinstance(value, JSArray):
        if not value.elements:
            return 0.0
        if len(value.elements) == 1:
            return to_number(value.elements[0])
        return math.nan
    return math.nan


#: ES5 StrWhiteSpaceChar (§9.3.1): the WhiteSpace and LineTerminator
#: characters, Unicode space separators (Zs) included.
STR_WHITE_SPACE = (
    "\t\n\v\f\r \xa0\u1680\u2000\u2001\u2002\u2003\u2004\u2005\u2006"
    "\u2007\u2008\u2009\u200a\u2028\u2029\u202f\u205f\u3000\ufeff"
)

#: ES5 StrDecimalLiteral: ASCII digits, and ``Infinity`` spelt exactly
#: so, with an optional sign.  ``parseFloat`` reads its longest prefix.
#: Each digit can match only one repeat, so a failed match of a long
#: digit run backtracks in linear time.
DECIMAL_LITERAL = re.compile(
    r"[+-]?(?:Infinity|(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)"
)
#: ES5 HexIntegerLiteral: no sign, no separators.
_HEX_LITERAL = re.compile(r"0[xX][0-9a-fA-F]+")


def _string_to_number(value: str) -> float:
    """ToNumber applied to a String (ES5 §9.3.1); ``float()`` would also
    take ``1_0``, ``infinity`` and non-ASCII digits."""
    text = value.strip(STR_WHITE_SPACE)
    if not text:
        return 0.0
    if DECIMAL_LITERAL.fullmatch(text):
        return float(text)
    if _HEX_LITERAL.fullmatch(text):
        return int_to_number(int(text, 16))
    return math.nan


def int_to_number(value: int) -> float:
    """The Number nearest an integer: ±Infinity from 2**1024 on, where
    ``float()`` raises OverflowError."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def to_int32(value: Any) -> int:
    number = to_number(value)
    if math.isnan(number) or math.isinf(number):
        return 0
    result = int(number) & 0xFFFFFFFF
    if result >= 0x80000000:
        result -= 0x100000000
    return result


def to_uint32(value: Any) -> int:
    number = to_number(value)
    if math.isnan(number) or math.isinf(number):
        return 0
    return int(number) & 0xFFFFFFFF


def to_integer(value: Any) -> float:
    """ES5 ToInteger (§9.4): NaN becomes 0, ±0 and ±Infinity stay as
    they are, anything else truncates toward zero.

    A float, so callers clamp ±Infinity to their range before ``int()``.
    """
    number = value if type(value) is float else to_number(value)
    if number.is_integer():  # every finite whole number: the common case
        return number
    if math.isfinite(number):
        return float(math.trunc(number))
    return 0.0 if number != number else number


def array_length(value: Any) -> int:
    """An array length (ES5 §15.4.5.1): RangeError unless
    ``ToUint32(n) == ToNumber(n)``."""
    number = to_number(value)
    length = to_uint32(number)
    if length != number:
        raise JSRuntimeError("Invalid array length", "RangeError")
    return length


#: Whole numbers below this print through ``str(int(x))``: every digit
#: of the float is exact.
_EXACT_INTEGER = 2.0**53


def format_number(value: float) -> str:
    """ToString applied to a Number (ES5 §9.8.1): the shortest digits
    that round-trip, which ``repr()`` also finds, laid out as ES5 says
    (``0.000001``, ``1.5e-7``, ``123456789012345680000``)."""
    if value.is_integer() and -_EXACT_INTEGER < value < _EXACT_INTEGER:
        return str(int(value))
    if value != value:
        return "NaN"
    if value < 0:
        return "-" + format_number(-value)
    if value == math.inf:
        return "Infinity"
    mantissa, _, exponent = repr(value).partition("e")
    whole, _, fraction = mantissa.partition(".")
    digits = whole + fraction
    # n: where the decimal point falls, counted from the first digit.
    n = len(whole) + int(exponent or "0")
    significant = digits.lstrip("0")
    n -= len(digits) - len(significant)
    digits = significant.rstrip("0")
    k = len(digits)
    if k <= n <= 21:
        return digits + "0" * (n - k)
    if 0 < n <= 21:
        return digits[:n] + "." + digits[n:]
    if -6 < n <= 0:
        return "0." + "0" * -n + digits
    sign = "+" if n >= 1 else "-"
    mantissa = digits if k == 1 else digits[0] + "." + digits[1:]
    return f"{mantissa}e{sign}{abs(n - 1)}"


def to_string(value: Any) -> str:
    if isinstance(value, str):
        return value
    if value is UNDEFINED:
        return "undefined"
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return format_number(float(value))
    if isinstance(value, JSArray):
        return join_array(value, ",")
    if isinstance(value, (JSFunction, NativeFunction)):
        name = getattr(value, "name", "")
        return f"function {name}() {{ [code] }}"
    if isinstance(value, JSObject):
        if value.class_name == "Error":
            return _error_to_string(value)
        return f"[object {value.class_name}]"
    return str(value)


def join_array(array: JSArray, separator: str) -> str:
    """``Array.prototype.join`` (ES5 §15.4.4.5), which ToString of an
    array also uses: ``undefined`` and ``null`` elements are empty, and
    an array already being joined joins to ``""``, as SpiderMonkey
    does, instead of recursing without end."""
    if array.joining:
        return ""
    array.joining = True
    try:
        return separator.join([
            item if type(item) is str
            else "" if (item is UNDEFINED or item is None) else to_string(item)
            for item in array.elements
        ])
    finally:
        array.joining = False


def _error_to_string(error: JSObject) -> str:
    """``Error.prototype.toString`` (ES5 §15.11.4.4): ``name: message``,
    or whichever of the two is non-empty."""
    name = error.get("name")
    name = "Error" if name is UNDEFINED else to_string(name)
    message = error.get("message")
    message = "" if message is UNDEFINED else to_string(message)
    if not name:
        return message
    if not message:
        return name
    return f"{name}: {message}"


def error_object(
    error: Union[JSRuntimeError, RecursionError], prototypes: Dict[str, JSObject]
) -> JSObject:
    """The value a script's ``catch`` binds for an engine error: an Error
    whose prototype is its kind's (``prototypes``, keyed by kind, as
    ``install_globals`` records them).  Python's ``RecursionError`` is
    the script's stack overflow, a RangeError."""
    if isinstance(error, RecursionError):
        error = stack_overflow()
    return JSObject(
        {"message": error.message, "name": error.kind},
        class_name="Error",
        prototype=prototypes.get(error.kind),
    )


def type_of(value: Any) -> str:
    if value is UNDEFINED:
        return "undefined"
    if value is None:
        return "object"
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "number"
    if isinstance(value, str):
        return "string"
    if is_callable(value):
        return "function"
    return "object"


def loose_equals(a: Any, b: Any) -> bool:
    """The ``==`` algorithm (simplified but faithful for our types)."""
    if (a is UNDEFINED or a is None) and (b is UNDEFINED or b is None):
        return True
    if a is UNDEFINED or a is None or b is UNDEFINED or b is None:
        return False
    if isinstance(a, str) and isinstance(b, str):
        return a == b
    if isinstance(a, (JSObject,)) and isinstance(b, (JSObject,)):
        return a is b
    if isinstance(a, JSObject) or isinstance(b, JSObject):
        return to_string(a) == to_string(b) or to_number(a) == to_number(b)
    number_a, number_b = to_number(a), to_number(b)
    if math.isnan(number_a) or math.isnan(number_b):
        return False
    return number_a == number_b


def strict_equals(a: Any, b: Any) -> bool:
    if type_of(a) != type_of(b):
        return False
    if isinstance(a, str):
        return a == b
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        fa, fb = float(a), float(b)
        if math.isnan(fa) or math.isnan(fb):
            return False
        return fa == fb
    if a is UNDEFINED or a is None:
        return a is b
    return a is b
