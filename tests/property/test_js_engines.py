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
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.js import hotloop
from repro.js import vm as vm_module
from repro.js.interpreter import Host
from repro.js.vm import BytecodeInterpreter
from tests.js.walker_reference import Walker

pytestmark = pytest.mark.diff


@pytest.fixture(autouse=True)
def translate_every_loop(monkeypatch) -> None:
    """Translate a loop at its first back-edge, so generated programs and
    function bodies run the translated-loop path too."""
    monkeypatch.setattr(hotloop, "HOT_LOOP_THRESHOLD", 1)

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

#: Loop bodies with the control flow translated loops must map exactly:
#: break/continue (also inside nested loops and try blocks), calls that
#: return or throw, and method calls.
loop_statement = st.recursive(
    st.one_of(
        assign, compound, update, expr_stmt,
        st.sampled_from([
            "break;", "continue;", "if (i > 3) break;", "if (a & 1) continue;",
            "a = helper(a);", "s = thrower(a) + s;", "c = o.m(c);",
        ]),
    ),
    _stmt_layer,
    max_leaves=8,
)

loop_fn_program = st.tuples(
    st.lists(loop_statement, min_size=1, max_size=4), st.integers(0, 8), expression
).map(
    lambda t: (
        "function helper(x) { return x + 1; }"
        " function thrower(x) { if (x === 3) throw 'T' + x; return 'ok'; }"
        " var o = {m: function (v) { return v + 'm'; }};\n"
        "function gen(a, b) { var c = 'z', s = '', i = 0, k = 0;\n"
        f"for (k = 0; k < {t[1]}; k++) {{ " + " ".join(t[0]) + " }\n"
        f"return {t[2]} + ':' + k; }}\n"
        "var out; try { out = gen(1, 'q'); } catch (e) { out = 'caught ' + e; } out"
    )
)

#: Top-level and eval'd loops (env mode), whose translation caches the
#: names the running scope binds: loop bodies call helpers that rebind a
#: cached global with another type, create an implicit global the loop
#: then reads, rebind a cached name and throw, and run an indirect eval
#: against the global scope; they read `typeof` of undeclared and cached
#: names and redeclare `var u = undefined`.
ENV_PRELUDE = (
    "function helper(x) { return x + 1; }"
    " function thrower(x) { if (x === 3) throw 'T' + x; return 'ok'; }"
    " function rebind(k) { if (k == 2) { a = 'a' + k; b = [k]; } if (k == 4) { c = k; fresh = k * 2; } }"
    " function bump(k) { s = s + k; if (k == 5) throw 'B' + k; return k; }"
    " var o = {m: function (v) { return v + 'm'; }}, ev = eval;\n"
)

env_loop_statement = st.recursive(
    st.one_of(
        assign, compound, update, expr_stmt,
        st.sampled_from([
            "break;", "continue;", "if (i > 3) break;", "a = helper(a);", "rebind(k);",
            "s = thrower(a) + s;", "c = o.m(c);", "b = bump(k) + b;", "ev('a = a + 1');",
            "s = s + typeof fresh + typeof a;", "var u = undefined; s = s + u;", "u = k;",
            "if (typeof fresh == 'number') { i = i + fresh; }", "i = unescape('%41') + i;",
        ]),
    ),
    _stmt_layer,
    max_leaves=8,
)


def _env_loop(body: Any, bound: int) -> str:
    return f"for (k = 0; k < {bound}; k++) {{ " + " ".join(body) + " }"


env_loop_program = st.tuples(
    st.lists(env_loop_statement, min_size=1, max_size=4), st.integers(0, 8), expression,
    st.booleans(),
).map(
    lambda t: (
        ENV_PRELUDE + "var a = 0, b = 1, c = 'z', s = '', i = 0, k = 0, u;\n"
        # Twice over one eval'd Code, its names rebound with other types in
        # between, or once at the top level.
        + (
            f"var L = {_js_quote(_env_loop(t[0], t[1]))}, out = '';\n"
            "try { eval(L); } catch (e) { out = 'caught ' + e; }"
            " a = 'x'; b = [1]; i = true; s = 0;"
            " try { eval(L); } catch (e) { out = out + 'caught ' + e; }"
            if t[3] else
            f"var out; try {{ {_env_loop(t[0], t[1])} }} catch (e) {{ out = 'caught ' + e; }}"
        )
        + f"\nout + ':' + ({t[2]}) + ':' + k + ':' + typeof fresh"
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
    ast_run = footprint(Walker, source)
    bc_run = footprint(BytecodeInterpreter, source)
    assert ast_run == bc_run, (
        f"engines diverged on:\n{source}\n  ast: {ast_run}\n  bytecode: {bc_run}"
    )


def assert_tiers_agree(source: str) -> None:
    """The walker, the VM and the VM with translation off agree: the
    dispatch loop is the translated tier's oracle beside the walker."""
    assert_engines_agree(source)
    with mock.patch.object(vm_module, "hot_loop", lambda code, header, frame, env: None):
        dispatch = footprint(BytecodeInterpreter, source)
    assert footprint(Walker, source) == dispatch, (
        f"the dispatch loop diverged on:\n{source}\n  dispatch loop: {dispatch}"
    )


@given(program)
@settings(max_examples=200, deadline=None)
def test_random_programs_agree(source):
    assert_engines_agree(source)


@given(fn_program)
@settings(max_examples=150, deadline=None)
def test_random_function_bodies_agree(source):
    assert_engines_agree(source)


@given(loop_fn_program)
@settings(max_examples=150, deadline=None)
def test_random_loop_bodies_agree(source):
    assert_engines_agree(source)


#: The same loops, reading both arguments first, entered again with
#: other argument types: a slot-mode loop is typed for the slot types
#: of the call it turns hot in, so the later calls fail its entry check
#: and run on the dispatch loop.
reentered_loop_program = loop_fn_program.map(
    lambda source: source.replace(
        "k++) { ", "k++) { s = s + b; i = i + a; ", 1
    ).replace(
        "out = gen(1, 'q');",
        "out = gen(1, 'q') + '|' + gen('x', 2.5) + '|' + gen(true, [3]) + '|' + gen(1, 'q');",
    )
)


@given(reentered_loop_program)
@settings(max_examples=100, deadline=None)
def test_random_loops_reentered_with_other_types_agree(source):
    assert_tiers_agree(source)


@given(env_loop_program)
@settings(max_examples=150, deadline=None)
def test_random_top_level_and_eval_loops_agree(source):
    assert_tiers_agree(source)


@given(eval_program)
@settings(max_examples=80, deadline=None)
def test_random_programs_agree_through_eval(source):
    assert_engines_agree(source)


@given(program, st.integers(1, 120))
@settings(max_examples=100, deadline=None)
def test_random_budget_cutoffs_agree(source, budget):
    """The budget must blow at the same tick for any cutoff."""
    runs = []
    for engine in (Walker, BytecodeInterpreter):
        interp = engine(max_steps=budget)
        try:
            interp.run(source)
            outcome: Tuple[Any, ...] = ("ok",)
        except Exception as exc:  # noqa: BLE001
            outcome = ("err", type(exc).__name__)
        runs.append((outcome, interp.steps))
    assert runs[0] == runs[1], f"budget={budget} diverged on:\n{source}\n{runs}"
