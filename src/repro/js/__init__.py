"""A from-scratch JavaScript interpreter (ES3-ish subset).

Built because the paper's instrumentation executes *inside* the PDF
reader's JavaScript engine: the context monitoring code must really run
(`eval`, SOAP messaging, decryption of the wrapped script), heap-spray
loops must really allocate, and the Acrobat object model
(``app.setTimeOut``, ``Doc.addScript``, ``Collab.*`` …) must really
dispatch — including into the version-gated exploit registry.

The reader runs one engine, the bytecode VM
(:class:`repro.js.vm.BytecodeInterpreter`).  The tree-walking
:class:`Interpreter` is its base class and its differential oracle.

Public surface::

    from repro.js import Interpreter, JSRuntimeError, evaluate
    result = evaluate("var x = 2; x * 21")   # -> 42.0
"""

from typing import Any

from repro.js.errors import JSRuntimeError, JSSyntaxError, ResourceLimitExceeded
from repro.js.interpreter import Interpreter
from repro.js.values import JSArray, JSFunction, JSObject, UNDEFINED


def evaluate(source: str, **kwargs: Any) -> Any:
    """One-shot convenience: run ``source`` in a fresh bytecode VM.

    The VM is imported lazily so merely importing ``repro.js`` never
    pays for (or depends on) the compiler.
    """
    from repro.js.vm import BytecodeInterpreter

    return BytecodeInterpreter(**kwargs).run(source)


__all__ = [
    "Interpreter",
    "JSArray",
    "JSFunction",
    "JSObject",
    "JSRuntimeError",
    "JSSyntaxError",
    "ResourceLimitExceeded",
    "UNDEFINED",
    "evaluate",
]
