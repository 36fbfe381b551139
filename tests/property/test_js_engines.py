"""Property-based engine equivalence: random programs, identical runs.

A recursive grammar strategy generates JavaScript programs over the
subset the corpus actually uses (arithmetic, strings, loops, functions,
``try``/``catch``, one level of ``eval``) and asserts the bytecode VM
and the reference walker agree on the completion value, any thrown
error, the consumed step budget and the host's allocation telemetry.
Programs that run forever are safe: the tight ``max_steps`` budget
turns them into a budget-exhaustion comparison, which is itself part
of the contract.
"""

from __future__ import annotations

from typing import Any, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.js.interpreter import Host, Interpreter
from repro.js.vm import BytecodeInterpreter

pytestmark = pytest.mark.diff

MAX_STEPS = 3_000

# -- expression grammar ------------------------------------------------------

NAMES = ("a", "b", "c", "s", "i")

number_lit = st.one_of(
    st.integers(-50, 50).map(str),
    st.sampled_from(["0", "1", "2.5", "0.1", "1e3"]),
)
string_lit = st.sampled_from(["''", "'x'", "'ab'", "'hello'", "'%u9090'", "'0'"])
atom = st.one_of(
    number_lit,
    string_lit,
    st.sampled_from(list(NAMES)),
    st.sampled_from(["true", "false", "null", "undefined"]),
)

BINOPS = ["+", "-", "*", "/", "%", "<", ">", "<=", ">=", "==", "!=", "===",
          "!==", "&", "|", "^", "&&", "||"]
UNOPS = ["-", "+", "!", "~", "typeof "]


def _expr_layer(inner: st.SearchStrategy) -> st.SearchStrategy:
    binary = st.tuples(inner, st.sampled_from(BINOPS), inner).map(
        lambda t: f"({t[0]} {t[1]} {t[2]})"
    )
    unary = st.tuples(st.sampled_from(UNOPS), inner).map(lambda t: f"({t[0]}{t[1]})")
    ternary = st.tuples(inner, inner, inner).map(
        lambda t: f"({t[0]} ? {t[1]} : {t[2]})"
    )
    method = st.tuples(inner, st.sampled_from([
        ".length", ".toUpperCase()", ".charCodeAt(0)", ".substr(0, 2)",
        ".indexOf('x')", ".charAt(1)",
    ])).map(lambda t: f"(('' + {t[0]}){t[1]})")
    call = inner.map(lambda e: f"String.fromCharCode(65 + (({e}) & 15))")
    return st.one_of(binary, unary, ternary, method, call)


expression = st.recursive(atom, _expr_layer, max_leaves=12)

# -- statement grammar -------------------------------------------------------

assign = st.tuples(st.sampled_from(list(NAMES)), expression).map(
    lambda t: f"{t[0]} = {t[1]};"
)
compound = st.tuples(
    st.sampled_from(list(NAMES)), st.sampled_from(["+=", "-=", "*="]), expression
).map(lambda t: f"{t[0]} {t[1]} {t[2]};")
update = st.tuples(
    st.sampled_from(list(NAMES)), st.sampled_from(["++", "--"])
).map(lambda t: f"{t[0]}{t[1]};")
expr_stmt = expression.map(lambda e: f"{e};")


def _stmt_layer(inner: st.SearchStrategy) -> st.SearchStrategy:
    block = st.lists(inner, min_size=1, max_size=3).map(
        lambda body: "{ " + " ".join(body) + " }"
    )
    if_stmt = st.tuples(expression, block, block).map(
        lambda t: f"if ({t[0]}) {t[1]} else {t[2]}"
    )
    for_loop = st.tuples(
        st.sampled_from(list(NAMES)), st.integers(0, 6), block
    ).map(lambda t: f"for ({t[0]} = 0; {t[0]} < {t[1]}; {t[0]}++) {t[2]}")
    while_loop = st.tuples(
        st.sampled_from(list(NAMES)), st.integers(1, 5), block
    ).map(lambda t: f"{t[0]} = 0; while ({t[0]} < {t[1]}) {{ {t[0]}++; }}")
    try_stmt = st.tuples(block, block).map(
        lambda t: f"try {t[0]} catch (err) {t[1]}"
    )
    return st.one_of(block, if_stmt, for_loop, while_loop, try_stmt)


statement = st.recursive(
    st.one_of(assign, compound, update, expr_stmt), _stmt_layer, max_leaves=8
)

program = st.lists(statement, min_size=1, max_size=6).map(
    lambda body: "var a = 0, b = 1, c = 'z', s = '', i = 0;\n" + "\n".join(body)
)

fn_program = st.tuples(st.lists(statement, min_size=1, max_size=4), expression).map(
    lambda t: (
        "function gen(a, b) { var c = 'z', s = '', i = 0;\n"
        + "\n".join(t[0])
        + f"\nreturn {t[1]}; }}\ngen(1, 'q')"
    )
)

eval_program = statement.map(
    lambda s: "var a = 0, b = 1, c = 'z', s = '', i = 0;\n"
    + f"eval({_js_quote(s)}); a + ':' + s"
)


def _js_quote(text: str) -> str:
    escaped = text.replace("\\", "\\\\").replace("'", "\\'").replace("\n", " ")
    return f"'{escaped}'"


# -- the property ------------------------------------------------------------


def footprint(engine: type, source: str) -> Tuple[Any, ...]:
    host = Host()
    interp = engine(host=host, max_steps=MAX_STEPS)
    try:
        status: Tuple[Any, ...] = ("ok", repr(interp.run(source)))
    except Exception as exc:  # noqa: BLE001
        status = ("err", type(exc).__name__, str(exc))
    return status, interp.steps, host.allocated_bytes, len(host.spray_pool)


def assert_engines_agree(source: str) -> None:
    ast_run = footprint(Interpreter, source)
    bc_run = footprint(BytecodeInterpreter, source)
    assert ast_run == bc_run, (
        f"engines diverged on:\n{source}\n  ast: {ast_run}\n  bytecode: {bc_run}"
    )


@given(program)
@settings(max_examples=200, deadline=None)
def test_random_programs_agree(source):
    assert_engines_agree(source)


@given(fn_program)
@settings(max_examples=150, deadline=None)
def test_random_function_bodies_agree(source):
    assert_engines_agree(source)


@given(eval_program)
@settings(max_examples=80, deadline=None)
def test_random_programs_agree_through_eval(source):
    assert_engines_agree(source)


@given(program, st.integers(1, 120))
@settings(max_examples=100, deadline=None)
def test_random_budget_cutoffs_agree(source, budget):
    """The budget must blow at the same tick for any cutoff."""
    runs = []
    for engine in (Interpreter, BytecodeInterpreter):
        interp = engine(max_steps=budget)
        try:
            interp.run(source)
            outcome: Tuple[Any, ...] = ("ok",)
        except Exception as exc:  # noqa: BLE001
            outcome = ("err", type(exc).__name__)
        runs.append((outcome, interp.steps))
    assert runs[0] == runs[1], f"budget={budget} diverged on:\n{source}\n{runs}"
