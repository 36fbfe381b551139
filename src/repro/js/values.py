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
from typing import Any, Callable, Dict, List, Optional, TYPE_CHECKING

from repro.js.errors import JSRuntimeError

if TYPE_CHECKING:
    from repro.js import nodes as ast
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
    """A user-defined function: parameters + body + closure scope."""

    def __init__(
        self,
        name: Optional[str],
        params: List[str],
        body: "ast.Block",
        closure: "Environment",
    ) -> None:
        super().__init__(class_name="Function")
        self.name = name or ""
        self.params = params
        self.body = body
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
        text = value.strip()
        if not text:
            return 0.0
        try:
            if text.startswith(("0x", "0X")):
                return int_to_number(int(text, 16))
            return float(text)
        except ValueError:
            return math.nan
    if isinstance(value, JSArray):
        if not value.elements:
            return 0.0
        if len(value.elements) == 1:
            return to_number(value.elements[0])
        return math.nan
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


def format_number(value: float) -> str:
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "Infinity" if value > 0 else "-Infinity"
    if value == int(value) and abs(value) < 1e21:
        return str(int(value))
    return repr(value)


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
        return ",".join(
            "" if (item is UNDEFINED or item is None) else to_string(item)
            for item in value.elements
        )
    if isinstance(value, (JSFunction, NativeFunction)):
        name = getattr(value, "name", "")
        return f"function {name}() {{ [code] }}"
    if isinstance(value, JSObject):
        custom = value.get("toString")
        if is_callable(custom):
            # The interpreter handles calling custom toString; from raw
            # coercion context we fall back to the generic tag.
            pass
        return f"[object {value.class_name}]"
    return str(value)


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
