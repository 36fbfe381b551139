"""The JavaScript runtime kernel: scopes, host wiring and value kernels.

:class:`Interpreter` holds what a JS engine needs besides evaluation:
the global scope and object, the builtins, the step counter, string
accounting, and the property, operator, call and construction kernels
that builtins and host callbacks use.  It runs no source itself.  An
engine implements the three engine entries, ``run``, ``eval_in_scope``
and ``_call_inner`` (for the functions it makes).  The reader's engine
is the bytecode VM (:class:`repro.js.vm.BytecodeInterpreter`), and the
static passes call ``_binary_op`` on a bare kernel
(``repro.jsast.consts``).

Design notes relevant to the reproduction:

* **Allocation accounting.** Every string of two or more characters
  the program materialises is charged once, by ``_record_string``, to
  ``host.on_string_alloc`` at two bytes per character (UTF-16, the
  unit real heap-spray arithmetic uses).  The simulated reader's host
  adds that to the document's JS heap and, in the same call, to the
  reader process's memory counters (``Process.alloc``), which is how
  the paper's "suspicious memory consumption" feature (F8) observes
  heap sprays.  The call runs for every string a spray copies, so the
  chain holds no property or ``Enum`` lookup (docs/JS_ENGINE.md,
  "String charges").
* **Spray pool.** Large strings are additionally handed to the host so
  the reader's control-flow-hijack model can scan the "heap" for a NOP
  sled + payload, exactly mirroring the paper's infection model.
* **Step budget.** A step counter bounds runaway scripts (the engine is
  used inside tests and benchmarks; an attacker-controlled infinite
  loop must not hang the harness).
* **`eval`.** Executes in the caller's scope — the instrumentation's
  prologue depends on real `eval` semantics.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, Optional

from repro.js.errors import JSRuntimeError, ResourceLimitExceeded
from repro.js.values import (
    JSArray,
    JSObject,
    NativeFunction,
    UNDEFINED,
    array_index,
    is_callable,
    loose_equals,
    strict_equals,
    to_int32,
    to_number,
    to_string,
    to_uint32,
)

#: Strings at or above this length are reported to the host spray pool.
SPRAY_POOL_THRESHOLD = 4096

#: Bytes per JS string character (UTF-16), used for heap accounting.
BYTES_PER_CHAR = 2

#: The completion of a statement that produces no value: a declaration,
#: an empty statement, or a block of only those.  A statement list
#: keeps the value before it (ES5 §12.1, §14), so it never leaves
#: ``run`` or ``eval``.
EMPTY: Any = object()


class Environment:
    """A lexical scope: bindings plus a parent pointer."""

    __slots__ = ("bindings", "parent")

    def __init__(self, parent: Optional["Environment"] = None) -> None:
        self.bindings: Dict[str, Any] = {}
        self.parent = parent

    def lookup(self, name: str) -> Any:
        env: Optional[Environment] = self
        while env is not None:
            if name in env.bindings:
                return env.bindings[name]
            env = env.parent
        raise JSRuntimeError(f"{name} is not defined", kind="ReferenceError")

    def has(self, name: str) -> bool:
        env: Optional[Environment] = self
        while env is not None:
            if name in env.bindings:
                return True
            env = env.parent
        return False

    def assign(self, name: str, value: Any) -> None:
        env: Optional[Environment] = self
        while env is not None:
            if name in env.bindings:
                env.bindings[name] = value
                return
            env = env.parent
        # Implicit global, as in sloppy-mode JS.
        root = self
        while root.parent is not None:
            root = root.parent
        root.bindings[name] = value

    def declare(self, name: str, value: Any = UNDEFINED) -> None:
        if name not in self.bindings or value is not UNDEFINED:
            self.bindings[name] = value


def _this_arg(interp: "Interpreter", args: List[Any]) -> Any:
    """``call``'s and ``apply``'s receiver: a missing, ``undefined`` or
    ``null`` one is the global object, as for a plain call (ES5
    §10.4.3, non-strict code)."""
    this = args[0] if args else UNDEFINED
    return interp.global_this if this is UNDEFINED or this is None else this


def _call_method(interp: "Interpreter", fn: Any, args: List[Any]) -> Any:
    """``Function.prototype.call`` (ES5 §15.3.4.4)."""
    return interp._call(fn, _this_arg(interp, args), list(args[1:]))


def _apply_method(interp: "Interpreter", fn: Any, args: List[Any]) -> Any:
    """``Function.prototype.apply`` (ES5 §15.3.4.3); an array (or a
    function's ``arguments``) supplies the arguments."""
    rest = args[1] if len(args) > 1 else UNDEFINED
    if rest is UNDEFINED or rest is None:
        arguments: List[Any] = []
    elif isinstance(rest, JSArray):
        arguments = list(rest.elements)
    else:
        raise JSRuntimeError("Function.prototype.apply needs an array", "TypeError")
    return interp._call(fn, _this_arg(interp, args), arguments)


class Host:
    """Callbacks from the engine to its embedder (the simulated reader).

    The default implementation accumulates counters locally so the
    engine works standalone.
    """

    def __init__(self) -> None:
        self.allocated_bytes = 0
        self.spray_pool: List[str] = []

    def on_string_alloc(self, length: int) -> None:
        self.allocated_bytes += length * BYTES_PER_CHAR

    def on_large_string(self, value: str) -> None:
        self.spray_pool.append(value)

    def on_step(self, count: int) -> None:  # pragma: no cover - default no-op
        del count

    def now_seconds(self) -> float:
        """Wall-clock seconds for Date(); embedders wire virtual time."""
        return 0.0


class Interpreter:
    """The runtime kernel every engine subclasses; runs no source itself."""

    def __init__(
        self,
        host: Optional[Host] = None,
        max_steps: int = 20_000_000,
        install_builtins: bool = True,
    ) -> None:
        self.host = host if host is not None else Host()
        self.max_steps = max_steps
        self.steps = 0
        self.global_env = Environment()
        self.global_this = JSObject(class_name="global")
        #: The prototype of each error type, by name, for the errors the
        #: engine raises (``install_globals`` fills it in).
        self.error_prototypes: Dict[str, JSObject] = {}
        if install_builtins:
            from repro.js.builtins import install_globals

            install_globals(self)

    # -- engine entries ----------------------------------------------------

    def run(self, source: str, this: Any = None, env: Optional[Environment] = None) -> Any:
        """Parse and execute ``source``; returns the last statement value."""
        raise NotImplementedError(f"{type(self).__name__} is a kernel without an engine")

    def eval_in_scope(self, code: Any, env: Environment, this: Any) -> Any:
        """Direct ``eval`` semantics: run ``code`` in ``env``."""
        raise NotImplementedError(f"{type(self).__name__} is a kernel without an engine")

    def _call_inner(self, fn: Any, this: Any, args: List[Any]) -> Any:
        """Call ``fn``.  An engine adds a branch for the functions it makes."""
        if isinstance(fn, NativeFunction):
            return fn.fn(self, this, args)
        raise JSRuntimeError("value is not callable", "TypeError")

    # -- public API ------------------------------------------------------

    def call_function(self, fn: Any, this: Any, args: List[Any]) -> Any:
        """Invoke a JS or native function from host code."""
        return self._call(fn, this, args)

    def define_global(self, name: str, value: Any) -> None:
        self.global_env.declare(name, value)

    def native(self, name: str, fn: Callable[["Interpreter", Any, List[Any]], Any]) -> NativeFunction:
        return NativeFunction(name, fn)

    # -- bookkeeping ------------------------------------------------------

    def _tick(self) -> None:
        self.steps += 1
        if self.steps > self.max_steps:
            raise ResourceLimitExceeded(
                "js-steps", self.max_steps, "script exceeded its step budget"
            )

    def _record_string(self, value: str) -> str:
        length = len(value)
        if length >= 2:
            host = self.host
            host.on_string_alloc(length)
            if length >= SPRAY_POOL_THRESHOLD:
                host.on_large_string(value)
        return value

    # -- value kernels -----------------------------------------------------

    def _binary_op(self, op: str, left: Any, right: Any) -> Any:
        if op == "+":
            if isinstance(left, str) or isinstance(right, str) or isinstance(left, JSArray) or isinstance(right, JSArray):
                result = to_string(left) + to_string(right)
                return self._record_string(result)
            return to_number(left) + to_number(right)
        if op == "-":
            return to_number(left) - to_number(right)
        if op == "*":
            return to_number(left) * to_number(right)
        if op == "/":
            denominator = to_number(right)
            numerator = to_number(left)
            if denominator == 0:
                if math.isnan(numerator) or numerator == 0:
                    return math.nan
                return math.inf if (numerator > 0) == (math.copysign(1, denominator) > 0) else -math.inf
            return numerator / denominator
        if op == "%":
            denominator = to_number(right)
            numerator = to_number(left)
            if denominator == 0 or math.isnan(denominator) or math.isnan(numerator) or math.isinf(numerator):
                return math.nan
            return math.fmod(numerator, denominator)
        if op == "==":
            return loose_equals(left, right)
        if op == "!=":
            return not loose_equals(left, right)
        if op == "===":
            return strict_equals(left, right)
        if op == "!==":
            return not strict_equals(left, right)
        if op in ("<", ">", "<=", ">="):
            if isinstance(left, str) and isinstance(right, str):
                if op == "<":
                    return left < right
                if op == ">":
                    return left > right
                if op == "<=":
                    return left <= right
                return left >= right
            number_left, number_right = to_number(left), to_number(right)
            if math.isnan(number_left) or math.isnan(number_right):
                return False
            if op == "<":
                return number_left < number_right
            if op == ">":
                return number_left > number_right
            if op == "<=":
                return number_left <= number_right
            return number_left >= number_right
        if op == "&":
            return float(to_int32(left) & to_int32(right))
        if op == "|":
            return float(to_int32(left) | to_int32(right))
        if op == "^":
            return float(to_int32(left) ^ to_int32(right))
        if op == "<<":
            return float(to_int32(to_int32(left) << (to_uint32(right) & 31)))
        if op == ">>":
            return float(to_int32(left) >> (to_uint32(right) & 31))
        if op == ">>>":
            return float(to_uint32(left) >> (to_uint32(right) & 31))
        if op == "instanceof":
            if not is_callable(right):
                raise JSRuntimeError("right side of instanceof is not callable", "TypeError")
            proto = right.get("prototype") if isinstance(right, JSObject) else UNDEFINED
            probe = left.prototype if isinstance(left, JSObject) else None
            while probe is not None:
                if probe is proto:
                    return True
                probe = probe.prototype
            return False
        if op == "in":
            if isinstance(right, JSObject):
                return right.has(to_string(left))
            raise JSRuntimeError("'in' needs an object", "TypeError")
        raise JSRuntimeError(f"unknown binary operator {op}")

    def _set_member_value(self, obj: Any, name: str, value: Any) -> None:
        """Property-write kernel."""
        if isinstance(obj, JSObject):
            obj.set(name, value)
            return
        if obj is UNDEFINED or obj is None:
            raise JSRuntimeError(
                f"cannot set property {name!r} of {to_string(obj)}", "TypeError"
            )
        # Primitive property writes are silently dropped (as in JS).

    def get_property(self, obj: Any, name: str) -> Any:
        from repro.js.builtins import array_method, primitive_property

        if isinstance(obj, JSObject):
            if obj.has(name) or (
                isinstance(obj, JSArray) and (name == "length" or array_index(name) is not None)
            ):
                return obj.get(name)
            if isinstance(obj, JSArray):
                method = array_method(self, obj, name)
                if method is not None:
                    return method
            if (name == "call" or name == "apply") and is_callable(obj):
                return self.native(name, _call_method if name == "call" else _apply_method)
            if name == "hasOwnProperty":
                return self.native(
                    "hasOwnProperty",
                    lambda i, t, a: isinstance(t, JSObject)
                    and to_string(a[0] if a else UNDEFINED) in t.properties,
                )
            if name == "toString":
                return self.native("toString", lambda i, t, a: to_string(t))
            return UNDEFINED
        if obj is UNDEFINED or obj is None:
            raise JSRuntimeError(
                f"cannot read property {name!r} of {to_string(obj)}", "TypeError"
            )
        return primitive_property(self, obj, name)

    def _construct(self, fn: Any, args: List[Any]) -> Any:
        """Constructor-call kernel."""
        if not is_callable(fn):
            raise JSRuntimeError("constructor is not a function", "TypeError")
        prototype = fn.get("prototype") if isinstance(fn, JSObject) else UNDEFINED
        if not isinstance(prototype, JSObject):
            # Every function gets a default prototype object on first
            # construction (so `instanceof` works as in real JS).
            prototype = JSObject()
            if isinstance(fn, JSObject):
                fn.set("prototype", prototype)
        instance = JSObject(prototype=prototype)
        result = self._call(fn, instance, args)
        return result if isinstance(result, JSObject) else instance

    def _call(self, fn: Any, this: Any, args: List[Any]) -> Any:
        return self._call_inner(fn, this, args)
