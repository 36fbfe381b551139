"""The static passes' one view of JS value semantics.

The constant folder (:mod:`repro.jsast.fold`) and the abstract
interpreter (:mod:`repro.jsast.absint`) compute every constant they
produce through this module, and it computes each one with the
runtime's own code: :mod:`repro.js.values`, :mod:`repro.js.builtins`
and the runtime kernel's ``Interpreter._binary_op``.  A constant a static pass
reports is therefore the value the emulator computes for the same
expression: the passes cannot disagree with the runtime on what
``'1' == 1``, ``'ab'[5]`` or ``unescape('%U0041')`` is, and a change to
the runtime's semantics changes theirs with it.

Every entry point returns the runtime's value, or :data:`OPAQUE` when
the expression is not a constant the passes may use: the runtime throws
a ``JSRuntimeError``, the result is not a primitive (a function, an
array), or a string result is longer than :data:`MAX_CHARS`.
"""

from __future__ import annotations

import enum
import math
from typing import Any, Callable, Final, List, Sequence, Union

from repro.js.builtins import (
    ARRAY_METHODS,
    GLOBAL_FUNCTIONS,
    STRING_METHODS,
    primitive_property,
    string_from_char_code,
)
from repro.js.errors import JSRuntimeError
from repro.js.interpreter import Host, Interpreter
from repro.js.values import (
    UNDEFINED,
    JSArray,
    _Undefined,
    strict_equals,
    to_number,
    to_string,
    truthy,
)


#: Longest string a static pass materialises.  A longer result is not a
#: constant: the folder leaves the node opaque, and absint generalises
#: it to a string shape.
MAX_CHARS = 1 << 20

#: A JS primitive as the runtime represents it: ``UNDEFINED`` is
#: ``undefined`` and ``None`` is ``null``.
Const = Union[str, float, bool, None, _Undefined]


class _Opaque(enum.Enum):
    OPAQUE = "opaque"


#: "Not a constant".
OPAQUE: Final = _Opaque.OPAQUE

Folded = Union[Const, _Opaque]

#: The global functions whose calls fold: their result depends on their
#: arguments alone.
PURE_GLOBALS = ("unescape", "parseInt", "parseFloat", "String", "Number", "Boolean")


class _NoCharge(Host):
    """Charges no allocation and keeps no spray pool: folding a constant
    is not running the script."""

    def on_string_alloc(self, length: int) -> None:
        del length

    def on_large_string(self, value: str) -> None:
        del value


#: The interpreter the runtime's code runs on for the static passes.
#: It holds no script state, so every thread shares it.
_RUNTIME = Interpreter(host=_NoCharge(), install_builtins=False)


def _constant(value: object) -> Folded:
    if isinstance(value, str):
        return value if len(value) <= MAX_CHARS else OPAQUE
    if isinstance(value, (float, bool, _Undefined)) or value is None:
        return value
    return OPAQUE


def _call(
    fn: Callable[[Any, Any, List[Any]], Any], this: Any, args: Sequence[Const]
) -> Folded:
    try:
        return _constant(fn(_RUNTIME, this, list(args)))
    except JSRuntimeError:
        return OPAQUE


def same_value(a: Const, b: Const) -> bool:
    """SameValue (ES5 §9.12): ``===``, except that NaN is NaN and -0 is
    not 0.  Two constants are one value only when this holds: ``1`` is
    not ``true`` and ``0`` is not ``-0``."""
    if type(a) is float and type(b) is float:
        if a != a:
            return b != b
        return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)
    return strict_equals(a, b)


def binary(op: str, left: Const, right: Const) -> Folded:
    """``left op right``."""
    try:
        return _constant(_RUNTIME._binary_op(op, left, right))
    except JSRuntimeError:
        return OPAQUE


def unary(op: str, operand: Const) -> Folded:
    """``-operand``, ``+operand`` or ``!operand``; any other operator is
    not folded."""
    if op == "-":
        return -to_number(operand)
    if op == "+":
        return to_number(operand)
    if op == "!":
        return not truthy(operand)
    return OPAQUE


def string_property(text: str, key: Const) -> Folded:
    """``text[key]``: the length, the character at a canonical index, or
    ``undefined``.  A method is a function, not a constant."""
    return _constant(primitive_property(_RUNTIME, text, to_string(key)))


def call_global(name: str, args: Sequence[Const]) -> Folded:
    """``name(...args)`` for a name in :data:`PURE_GLOBALS`."""
    if name not in PURE_GLOBALS:
        return OPAQUE
    return _call(GLOBAL_FUNCTIONS[name], UNDEFINED, args)


def from_char_code(codes: Sequence[Const]) -> Folded:
    """``String.fromCharCode(...codes)``."""
    return _call(string_from_char_code, UNDEFINED, codes)


def string_method(text: str, method: str, args: Sequence[Const]) -> Folded:
    """``text.method(...args)`` for a method of ``STRING_METHODS``."""
    fn = STRING_METHODS.get(method)
    if fn is None:
        return OPAQUE
    return _call(fn, text, args)


def join(elements: Sequence[Const], args: Sequence[Const]) -> Folded:
    """``[...elements].join(...args)``."""
    return _call(ARRAY_METHODS["join"], JSArray(list(elements)), args)
