"""The static passes compute constants with the runtime's own code.

Both checks here failed before the folder and absint went through
:mod:`repro.jsast.consts`: each pass carried its own ToString,
ToNumber, ``==``, string indexing and string builtins, and where those
copies disagreed with the runtime, triage proved a dropper benign.
Absint's join merged constants by Python's ``==`` (``1`` with ``true``,
``0`` with ``-0``), which proved two more droppers benign.
"""

from __future__ import annotations

import math
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.pipeline import ProtectionPipeline
from repro.js import evaluate, nodes as ast
from repro.js.builtins import STRING_METHODS
from repro.js.errors import JSRuntimeError
from repro.js.parser import parse
from repro.js.values import to_string
from repro.jsast.absint import interpret_script
from repro.jsast.fold import ConstantFolder
from repro.pdf.builder import DocumentBuilder

pytestmark = pytest.mark.absint

#: A drop-and-launch payload the full run scores malicious.
PAYLOAD = "\"this.exportDataObject({cName: 'a.exe', nLaunch: 2});\""

#: One-line droppers on which the static passes' own constants
#: disagreed with the runtime's, so triage proved them benign.
DROPPERS = [
    # ES5 swaps substring's bounds.
    f"var s = 'XX' + {PAYLOAD}; eval(s.substring(99, 2));",
    # A negative slice end counts from the end.
    f"var s = 'X' + {PAYLOAD} + 'X'; eval(s.slice(1, -1));",
    # ``%U`` is no escape: the comment runs to the end, on both paths.
    f"eval(unescape('//%U000a' + {PAYLOAD}));",
    # ``==`` converts.
    f"eval('1' == 1 ? {PAYLOAD} : '');",
    f"eval('1' != 1 ? '' : {PAYLOAD});",
    # An index past the end, and ``undefined``, are not ``null``.
    f"eval('' + 'ab'[5] == 'null' ? '' : {PAYLOAD});",
    f"eval('' + undefined == 'null' ? '' : {PAYLOAD});",
    # '0.5' is no array index.
    f"eval('ab'[0.5] ? '' : {PAYLOAD});",
]


#: Droppers whose loop leaves ``x`` one of two constants that Python's
#: ``==`` merged in absint's join (``1`` and ``true``, ``0`` and ``-0``).
_LOOP = "var x = {a}; for (var i = 0; i < 3; i++) {{ if (i == 1) x = {b}; }}"
JOIN_DROPPERS = [
    _LOOP.format(a="1", b="true") + f" eval('' + x == '1' ? '' : {PAYLOAD});",
    _LOOP.format(a="0", b="-0") + f" eval(1 / x > 0 ? '' : {PAYLOAD});",
]


def _document(script: str) -> bytes:
    builder = DocumentBuilder()
    builder.add_page("")
    builder.add_javascript(script)
    return builder.to_bytes()


@pytest.mark.parametrize(
    "script",
    DROPPERS + JOIN_DROPPERS,
    ids=[str(n) for n in range(1, len(DROPPERS) + 1)] + ["join-1-true", "join-0-minus-0"],
)
def test_triage_gives_the_full_runs_verdict(script):
    data = _document(script)
    full = ProtectionPipeline().scan(data, "dropper.pdf")
    triaged = ProtectionPipeline(triage=True).scan(data, "dropper.pdf")
    assert triaged.verdict.malicious == full.verdict.malicious


def test_long_digit_run_folds_to_nan_in_linear_time():
    """Both passes take ToNumber of a 200,000-digit non-number: the
    runtime's own conversion, which must not backtrack quadratically."""
    text = "1" * 200_000 + "x"
    start = time.perf_counter()
    program = parse(f"+'{text}';")
    statement = program.body[0]
    assert isinstance(statement, ast.ExpressionStatement)
    folded = ConstantFolder(program).fold_expr(statement.expression)
    assert folded is not None and math.isnan(folded.value)
    script = f"eval(String(+'{text}'));"
    scans: dict = {}
    interpret_script(script, scans=scans)
    assert [code for code in scans if code != script] == ["NaN"]
    assert time.perf_counter() - start < 5.0


#: Calls with a missing or ``undefined`` argument, which ES5 converts
#: as ``undefined`` (``join``: as ``','``), and their results as text.
#: The runtime took ``''`` for a missing argument, and ``join`` for an
#: ``undefined`` one, before, and both passes folded that with it.
UNDEFINED_ARGUMENTS = [
    ("unescape()", "undefined"),
    ("unescape(undefined)", "undefined"),
    ("'xundefined'.indexOf()", "1"),
    ("'abc'.lastIndexOf()", "-1"),
    ("'undefinedundefined'.lastIndexOf(undefined, 8)", "0"),
    ("[1, 2].join(undefined)", "1,2"),
    ("[1, 2].join()", "1,2"),
]


@pytest.mark.parametrize("expression, text", UNDEFINED_ARGUMENTS)
def test_both_passes_fold_an_undefined_argument_as_es5(expression, text):
    assert evaluate(f"String({expression})") == text

    program = parse(f"{expression};")
    statement = program.body[0]
    assert isinstance(statement, ast.ExpressionStatement)
    folded = ConstantFolder(program).fold_expr(statement.expression)
    assert folded is not None and to_string(folded.value) == text

    script = f"eval(String({expression}));"
    scans: dict = {}
    interpret_script(script, scans=scans)
    assert [code for code in scans if code != script] == [text]


# ---------------------------------------------------------------------------
# Differential property: a folded constant is the runtime's value

_ALPHABET = "%uU0123456789abcdefABCDEF_x "
_NUMBERS = [
    "0", "(-0)", "0.5", "1.5", "(-1)", "1e-7", "1e21", "9007199254740994",
    "(0/0)", "(1/0)",
]
_BINARY = [
    "+", "-", "*", "/", "%", "==", "!=", "===", "!==", "<", "<=", ">", ">=",
    "&", "|", "^", "<<", ">>", ">>>", "in", "instanceof",
]
_GLOBALS = [
    "unescape", "parseInt", "parseFloat", "String", "Number", "Boolean",
    "String.fromCharCode",
]

_LITERALS = st.one_of(
    st.text(_ALPHABET, max_size=8).map(lambda text: f"'{text}'"),
    st.sampled_from(_NUMBERS + ["true", "false", "null", "undefined"]),
)


def _combine(children: st.SearchStrategy) -> st.SearchStrategy:
    args = st.lists(children, max_size=2).map(", ".join)
    return st.one_of(
        st.tuples(children, st.sampled_from(_BINARY), children).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})"
        ),
        st.tuples(st.sampled_from("!-+"), children).map(lambda t: f"({t[0]}{t[1]})"),
        st.tuples(children, children, children).map(
            lambda t: f"({t[0]} ? {t[1]} : {t[2]})"
        ),
        st.tuples(children, children).map(lambda t: f"({t[0]})[{t[1]}]"),
        children.map(lambda child: f"({child}).length"),
        st.tuples(st.sampled_from(_GLOBALS), args).map(lambda t: f"{t[0]}({t[1]})"),
        st.tuples(children, st.sampled_from(sorted(STRING_METHODS)), args).map(
            lambda t: f"({t[0]}).{t[1]}({t[2]})"
        ),
        st.tuples(st.lists(children, max_size=3).map(", ".join), args).map(
            lambda t: f"[{t[0]}].join({t[1]})"
        ),
    )


EXPRESSIONS = st.recursive(_LITERALS, _combine, max_leaves=8)


def _same(folded, runtime) -> bool:
    """Same type and value; NaN equals NaN, and -0 is not 0."""
    if type(folded) is not type(runtime):
        return False
    if isinstance(folded, float):
        if math.isnan(folded):
            return math.isnan(runtime)
        return folded == runtime and math.copysign(1, folded) == math.copysign(1, runtime)
    return folded == runtime


def _runtime(source: str):
    """``(ok, value)`` of running ``source`` in the emulator."""
    try:
        return True, evaluate(source)
    except JSRuntimeError:
        return False, None


@given(EXPRESSIONS)
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_static_constants_are_the_runtimes(expression):
    ok, value = _runtime(expression)

    program = parse(f"{expression};")
    statement = program.body[0]
    assert isinstance(statement, ast.ExpressionStatement)
    folded = ConstantFolder(program).fold_expr(statement.expression)
    if folded is not None:
        assert ok, f"folded {expression} to {folded.value!r}; the runtime throws"
        assert _same(folded.value, value), (expression, folded.value, value)

    text_ok, text = _runtime(f"String({expression})")
    if not text_ok:
        # No eval runs.  Absint may still peel a layer: it assumes that a
        # call on an unknown receiver returns, which is its must/abort
        # model, not a constant.
        return
    script = f"eval(String({expression}));"
    scans: dict = {}
    interpret_script(script, scans=scans)
    peeled = [code for code in scans if code != script]
    assert peeled in ([], [text]), (expression, peeled, text)
