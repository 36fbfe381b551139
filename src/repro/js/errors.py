"""Exception hierarchy for the JavaScript engine."""

from __future__ import annotations

from typing import Any, Optional

from repro.limits import ResourceLimitExceeded as _BaseResourceLimitExceeded
from repro.limits import active as _active_budget


class JSError(Exception):
    """Base class for everything the JS engine raises."""


class JSSyntaxError(JSError):
    """Raised by the lexer/parser on malformed source."""

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        super().__init__(f"{message} (line {line}, col {column})")
        self.line = line
        self.column = column


class JSRuntimeError(JSError):
    """Raised when evaluation fails (TypeError, ReferenceError, ...).

    ``str()`` is ``"Kind: message"`` for reports and logs; a script that
    catches the error sees ``name`` (the kind) and ``message`` apart.
    """

    def __init__(self, message: str, kind: str = "Error") -> None:
        super().__init__(f"{kind}: {message}")
        self.kind = kind
        self.message = message


def stack_overflow() -> JSRuntimeError:
    """A script's stack overflow: the engines turn Python's
    ``RecursionError`` into this catchable RangeError, at a ``try`` that
    catches it or where ``run`` returns, so a script that recurses
    without end dies like any script that throws."""
    return JSRuntimeError("Maximum call stack size exceeded", "RangeError")


class JSThrow(JSError):
    """A ``throw`` statement in flight; carries the thrown JS value."""

    def __init__(self, value: Any) -> None:
        super().__init__(f"uncaught JS exception: {value!r}")
        self.value = value


class ResourceLimitExceeded(JSError, _BaseResourceLimitExceeded):
    """Step or memory budget blown — the engine's infinite-loop guard.

    Doubly rooted on purpose: ``except JSError`` keeps treating a
    runaway script as a script failure (the reader records it and moves
    on), while ``except repro.limits.ResourceLimitExceeded`` — the
    pipeline's budget handler — sees it alongside every other blown
    budget.
    """


def check_deadline() -> None:
    """Raise when the active scan's wall-clock deadline has passed.

    The engine calls this before work its step budget does not charge:
    compiling a script or ``eval``'d text, and generating a hot loop's
    source.  It raises the engine's own :class:`ResourceLimitExceeded`,
    so no JS ``catch`` or ``finally`` runs after it, and the reader
    passes it on: the scan ends in a ``deadline`` limit report.
    """
    budget = _active_budget()
    if budget is None:
        return
    try:
        budget.check_deadline()
    except _BaseResourceLimitExceeded as exc:
        raise ResourceLimitExceeded(exc.kind, exc.limit, exc.detail) from None


class ReaderCrash(JSError):
    """The simulated PDF reader process crashed (e.g. failed hijack).

    The paper's evaluation saw exactly this: sprayed heaps whose
    control-flow hijack missed, crashing the reader — 25 of the false
    negatives (§V-C2).
    """

    def __init__(self, reason: str, document: Optional[str] = None) -> None:
        super().__init__(f"reader crash: {reason}")
        self.reason = reason
        self.document = document


class BreakSignal(Exception):
    """Internal: a ``break`` statement unwinding to its loop."""

    def __init__(self, label: Optional[str] = None) -> None:
        super().__init__("break")
        self.label = label


class ContinueSignal(Exception):
    """Internal: a ``continue`` statement unwinding to its loop."""

    def __init__(self, label: Optional[str] = None) -> None:
        super().__init__("continue")
        self.label = label


class ReturnSignal(Exception):
    """Internal: a ``return`` statement unwinding to its function."""

    def __init__(self, value: Any) -> None:
        super().__init__("return")
        self.value = value
