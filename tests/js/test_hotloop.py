"""The hot-loop translator (``repro.js.hotloop``).

Equivalence with the walker is swept in the differential suites
(``pytest -m diff``), which force translation at the first back-edge.
This module runs with the production threshold and checks what those
suites cannot: the bounds that keep hostile scripts from making the
translator compile without limit, warm entry of a loop whose
translation is already cached, that attacker-controlled text never
reaches generated source, literal identity in the spray pool, that the
wrapper's decryptor, once translated, takes ``%`` inline, and threads
sharing one translated loop.
"""

from __future__ import annotations

import cProfile
import pstats
import re
import sys
import threading
from typing import Any, Dict, List, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.monitor_code import ENCRYPTION_SCHEMES, MonitorCodeGenerator
from repro.corpus.sized import _js_workload_script
from repro.js import hotloop
from repro.js import vm as vm_module
from repro.js.compiler import (
    JUMP,
    STRING,
    Code,
    Compiler,
    cached_loop_function,
    clear_code_cache,
    compile_source,
)
from repro.js.hotloop import HOT_LOOP_THRESHOLD, MAX_LOOP_INSTRS, loop_source, translate_loop
from repro.js.interpreter import SPRAY_POOL_THRESHOLD, Environment, Host
from repro.js.parser import parse
from repro.js.values import UNDEFINED, JSArray, JSObject, NativeFunction
from repro.js.vm import BytecodeInterpreter
from tests.js.walker_reference import Walker


def run_vm(source: str, host: Any = None) -> Tuple[Any, BytecodeInterpreter]:
    vm = BytecodeInterpreter(host=host)
    return vm.run(source), vm


def program_code(source: str) -> Code:
    """``source``'s top-level code, compiled afresh."""
    return Compiler().compile_program(parse(source))


def function_code(source: str) -> Code:
    """The first function declared by ``source``, compiled afresh."""
    return program_code(source).hoist_actions[0][1]


def loop_header(code: Code) -> int:
    """Header pc of the fragment's first loop (target of a back-edge)."""
    for index, (op, arg) in enumerate(zip(code.ops, code.args)):
        if op == JUMP and arg <= index:
            return int(arg)
    raise AssertionError("no loop")


@pytest.fixture(autouse=True)
def cold_loop_cache() -> None:
    """Each test starts with an empty loop cache: a loop whose
    translation is cached runs translated from its second back-edge, so
    what turns hot must not depend on which tests ran before."""
    clear_code_cache()


def counting_builds(monkeypatch: pytest.MonkeyPatch) -> List[str]:
    """The sources ``hotloop._build`` compiles from now on."""
    built: List[str] = []
    build = hotloop._build

    def counting(source: str) -> Any:
        built.append(source)
        return build(source)

    monkeypatch.setattr(hotloop, "_build", counting)
    return built


# -- the tier rule -------------------------------------------------------------


def test_hot_slot_loop_is_translated() -> None:
    source = (
        "function f(n) { var t = 0; for (var i = 0; i < n; i++) { t += i; } return t; }"
        f" f({HOT_LOOP_THRESHOLD + 50})"
    )
    value, vm = run_vm(source)
    walker = Walker()
    assert value == walker.run(source)
    assert vm.steps == walker.steps
    assert vm.translated_loop_runs == 1


def test_program_level_loop_is_translated() -> None:
    source = "var t = 0; for (var i = 0; i < 1000; i++) { t += i; } t"
    value, vm = run_vm(source)
    walker = Walker()
    assert value == walker.run(source) == 499500.0
    assert vm.steps == walker.steps
    assert vm.translated_loop_runs == 1


def test_translated_loop_hands_back_the_completion_register() -> None:
    """Program code's completion register goes into the loop function
    and comes back as the third value on every exit to the dispatch
    loop: the body's last value, or what came in when no iteration ran."""
    for bound, expected in ((3, "last"), (0, "before")):
        code = program_code(f"var n = 0; while (n < {bound}) {{ n++; 'last'; }}")
        vm = BytecodeInterpreter()
        vm.run("var n = 0;")
        translated = translate_loop(code, loop_header(code), None, vm.global_env)
        assert translated is not None
        function, constants = translated
        pc, _, value = function(vm, None, vm.global_env, vm.global_this, 0, "before", constants)
        assert pc > loop_header(code)
        assert value == expected
        assert vm.global_env.lookup("n") == float(bound)


def test_loop_with_an_untranslated_op_stays_on_the_dispatch_loop() -> None:
    source = (
        "function C() { this.v = 1; }"
        " function f() { var t = 0; for (var i = 0; i < 500; i++) { t += new C().v; }"
        " return t; } f()"
    )
    value, vm = run_vm(source)
    assert value == 500.0
    assert vm.translated_loop_runs == 0


# -- hostile-input bounds ---------------------------------------------------------


LONG_BODY = " ".join("x;" for _ in range(5_000))


def test_loop_longer_than_the_cap_is_never_translated() -> None:
    source = (
        f"function f() {{ var x = 0; for (var i = 0; i < 300; i++) {{ {LONG_BODY} }}"
        " return i; } f()"
    )
    code = function_code(source)
    header = loop_header(code)
    assert len(code.ops) - header > MAX_LOOP_INSTRS
    value, vm = run_vm(source)
    assert value == 300.0
    assert vm.translated_loop_runs == 0


def test_top_level_loop_longer_than_the_cap_is_never_translated() -> None:
    source = f"var x = 0; for (var i = 0; i < 300; i++) {{ {LONG_BODY} }} i"
    code = program_code(source)
    assert len(code.ops) - loop_header(code) > MAX_LOOP_INSTRS
    value, vm = run_vm(source)
    assert value == 300.0
    assert vm.translated_loop_runs == 0


def test_long_loop_with_an_early_continue_runs_only_its_head_translated() -> None:
    """Translation reads at most MAX_LOOP_INSTRS from the header: here
    the ``continue`` back-edge is inside that window and the loop's own
    back-edge far past it, so the head runs translated and the tail on
    the dispatch loop, with walker-identical results and steps."""
    body = " ".join("x;" for _ in range(200))
    source = (
        "function f() { var i = 0, n = 0, x = 0; while (i < 300) { i++;"
        f" if (i % 3) continue; {body} n++; }} return n + ':' + i; }} f()"
    )
    walker = Walker()
    expected = walker.run(source)
    value, vm = run_vm(source)
    assert (value, vm.steps) == (expected, walker.steps)
    assert vm.translated_loop_runs > 0


def _loops(count: int, iterations: int) -> str:
    return " ".join(
        f"for (var i{k} = 0; i{k} < {iterations}; i{k}++) {{ n++; }}" for k in range(count)
    )


def _many_loops(count: int, iterations: int) -> str:
    return f"function f() {{ var n = 0; {_loops(count, iterations)} return n; }} f()"


def _many_top_level_loops(count: int, iterations: int) -> str:
    return f"var n = 0; {_loops(count, iterations)} n"


def test_many_loops_below_the_threshold_translate_none() -> None:
    value, vm = run_vm(_many_loops(200, HOT_LOOP_THRESHOLD - 1))
    assert value == 200.0 * (HOT_LOOP_THRESHOLD - 1)
    assert vm.translated_loop_runs == 0


def test_loops_at_the_threshold_are_translated() -> None:
    value, vm = run_vm(_many_loops(200, HOT_LOOP_THRESHOLD))
    assert value == 200.0 * HOT_LOOP_THRESHOLD
    assert vm.translated_loop_runs == 200


def test_many_top_level_loops_below_the_threshold_translate_none() -> None:
    value, vm = run_vm(_many_top_level_loops(200, HOT_LOOP_THRESHOLD - 1))
    assert value == 200.0 * (HOT_LOOP_THRESHOLD - 1)
    assert vm.translated_loop_runs == 0


def test_top_level_loops_at_the_threshold_are_translated() -> None:
    value, vm = run_vm(_many_top_level_loops(200, HOT_LOOP_THRESHOLD))
    assert value == 200.0 * HOT_LOOP_THRESHOLD
    assert vm.translated_loop_runs == 200


# -- warm entry ------------------------------------------------------------------


#: One loop shape in two Codes: the literal ``k`` reaches the loop only
#: through its constants tuple.
WARM_TEMPLATE = (
    "function f(n) {{ var t = 0; for (var i = 0; i < n; i++) {{ t += i * {k}; }} return t; }}"
    " f({n})"
)
WARM_TOP_LEVEL_TEMPLATE = "var t = 0; for (var i = 0; i < {n}; i++) {{ t += i * {k}; }} t"


@pytest.mark.parametrize("template", [WARM_TEMPLATE, WARM_TOP_LEVEL_TEMPLATE])
def test_a_cached_loop_is_entered_at_its_second_back_edge(
    template: str, monkeypatch: pytest.MonkeyPatch
) -> None:
    """The first Code's loop turns hot at the threshold; the second's,
    of the same shape, runs its 10 iterations translated without a
    compile, with the walker's value and steps."""
    run_vm(template.format(k=3, n=HOT_LOOP_THRESHOLD + 10))
    built = counting_builds(monkeypatch)
    source = template.format(k=5, n=10)
    value, vm = run_vm(source)
    walker = Walker()
    assert value == walker.run(source) == 225.0
    assert vm.steps == walker.steps
    assert vm.translated_loop_runs == 1
    assert built == []


def entries(translated: Any) -> Tuple[Any, List[Tuple[int, int, int]]]:
    """``translated`` with each call logged as ``(steps in, pc out,
    steps out)``."""
    function, constants = translated
    log: List[Tuple[int, int, int]] = []

    def logged(interp: Any, frame: Any, env: Any, this: Any, steps: int, *rest: Any) -> Any:
        pc, after, value = function(interp, frame, env, this, steps, *rest)
        log.append((steps, pc, after))
        return pc, after, value

    return (logged, constants), log


def test_a_warm_entered_typed_loop_falls_back_on_other_slot_types(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    """A typed loop entered warm was typed for the slots of its second
    back-edge; called again with a string, its entry check fails at every
    entry and the dispatch loop runs the loop, with the walker's and the
    dispatch-only VM's value and steps."""
    template = (
        "function total(a) {{ var t = {k}; for (var i = 0; i < a.length; i++)"
        " {{ t = t + a[i]; }} return t; }} "
    )
    run_vm(
        template.format(k=0) + "var n = [];"
        f" for (var j = 0; j < {HOT_LOOP_THRESHOLD + 10}; j++) {{ n[j] = j; }} total(n)"
    )
    source = template.format(k=1) + "total([1, 2, 3, 4]) + ':' + total('abcd')"
    logs: List[List[Tuple[int, int, int]]] = []
    hot_loop = vm_module.hot_loop

    def logging_hot_loop(code: Code, header: int, frame: Any, env: Any) -> Any:
        translated = hot_loop(code, header, frame, env)
        if translated is None:
            return None
        translated, log = entries(translated)
        logs.append(log)
        return translated

    with monkeypatch.context() as patch:
        patch.setattr(vm_module, "hot_loop", logging_hot_loop)
        value, vm = run_vm(source)
    walker = Walker()
    assert value == walker.run(source) == "11:1abcd"
    assert vm.steps == walker.steps
    with monkeypatch.context() as patch:
        patch.setattr(vm_module, "hot_loop", lambda code, header, frame, env: None)
        assert run_vm(source)[1].steps == vm.steps
    header = loop_header(_named_function(source, "total"))
    calls = [entry for log in logs for entry in log]
    # The array call runs translated from its second back-edge; each
    # entry of the string call returns to the header untouched.
    assert calls[0][1] != header
    assert len(calls) > 1
    assert all(pc == header and after == steps for steps, pc, after in calls[1:])


def test_warm_entry_never_compiles(monkeypatch: pytest.MonkeyPatch) -> None:
    """200 distinct loops that stop below the threshold build nothing;
    200 whose shapes another Code made hot all run translated, and
    build nothing either."""
    built = counting_builds(monkeypatch)
    value, vm = run_vm(_many_loops(200, HOT_LOOP_THRESHOLD - 1))
    assert (value, vm.translated_loop_runs, built) == (200.0 * (HOT_LOOP_THRESHOLD - 1), 0, [])
    run_vm(_many_top_level_loops(200, HOT_LOOP_THRESHOLD))
    assert len(built) == 200
    value, vm = run_vm(_many_top_level_loops(200, 10))
    assert value == 2000.0
    assert vm.translated_loop_runs == 200
    assert len(built) == 200


def _named_function(source: str, name: str) -> Code:
    for action in compile_source(source).hoist_actions:
        if action[0] == "func" and action[1].name == name:
            return action[1]
    raise AssertionError(f"no function {name}")


def test_an_untranslatable_loop_is_marked_never_at_its_second_back_edge() -> None:
    """A loop holding an op the translator does not take, and one with no
    back-edge within the cap, are settled when first looked up."""
    for body in ("new C();", LONG_BODY):
        source = (
            "function C() {}"
            f" function f() {{ var x = 0; for (var i = 0; i < 2; i++) {{ {body} }} return i; }}"
            " f()"
        )
        value, vm = run_vm(source)
        assert value == 2.0
        code = _named_function(source, "f")
        assert code.loops == {loop_header(code): None}


# -- generated source ------------------------------------------------------------

#: Placeholders: f p q a c i are locals (frame slots), g h globals,
#: prop m property names; s0-s3 string and n0-n4 number literals.
TEMPLATE = (
    "function {f}({p}, {q}) {{\n"
    "  var {a} = {s0}, {c} = {n0};\n"
    "  for (var {i} = {n1}; {i} < {p}.{prop}; {i}++) {{\n"
    "    {a} = {a} + {g}.{m}({s1}) + {q}[{s2}];\n"
    "    {c} = {c} * {n2} + {p}.charCodeAt({i});\n"
    "    if ({c} > {n3} && {a}.length < {n4}) {{ {h} = {s3}; }}\n"
    "  }}\n"
    "  return {a} + {c};\n"
    "}}\n"
)
#: The same loop at the top level, where every variable is a name.
TOP_LEVEL_TEMPLATE = TEMPLATE[TEMPLATE.index("  var"):TEMPLATE.index("  return")]
NAMES = ("f", "p", "q", "a", "c", "i", "g", "h", "prop", "m")
CANONICAL: Dict[str, str] = {
    **{name: name for name in NAMES},
    "s0": "'ab'", "s1": "'cd'", "s2": "'ef'", "s3": "'gh'",
    "n0": "0", "n1": "1", "n2": "2", "n3": "3", "n4": "4",
}

HOSTILE_PIECES = [
    "'", '"', "\\", "\n", '"""', "'''", "\x00", "\U0001f600", "\U0001d518",
    "__import__('os')", "{", "}", ")", "#", "\r", "a",
]


def js_string(text: str) -> str:
    escaped = (
        text.replace("\\", "\\\\").replace("'", "\\'").replace("\n", "\\n")
        .replace("\r", "\\r").replace("\x00", "\\x00")
    )
    return f"'{escaped}'"


# Identifier characters are UTF-16 code units, so a letter above U+FFFF
# (a surrogate pair) cannot be one; the string literals carry those.
identifier = st.text(
    alphabet=st.sampled_from(list("abcXYZ019_$") + ["\u4e2d", "\u00e9"]), max_size=8
).map(lambda text: "_" + text) | st.sampled_from(["__import__", "__builtins__", "_loop"])
hostile_string = st.lists(st.sampled_from(HOSTILE_PIECES), min_size=1, max_size=6).map(
    "".join
).filter(lambda text: len(text) >= 2)
number = st.integers(0, 2**53).map(str) | st.floats(
    0, 1e300, allow_nan=False, allow_infinity=False
).map(repr)


#: The values a typed translation of TEMPLATE is made for, by
#: placeholder; every other slot holds undefined.  At the top level
#: these names are bound and the rest (``g``, ``h``) are not.
FRAME_VALUES: Dict[str, Any] = {"p": "a string", "q": JSArray([]), "a": "ab", "c": 1.0, "i": 0.0}


def _translation(
    fills: Dict[str, str], top_level: bool = False, typed: bool = False
) -> Tuple[List[Any], str, Tuple[Any, ...]]:
    """The loop's string literals, generated source and constants.
    Untyped, every variable holds undefined, so no operand is proven."""
    values = {name: value if typed else UNDEFINED for name, value in FRAME_VALUES.items()}
    env = Environment()
    frame = None
    if top_level:
        code = program_code(TOP_LEVEL_TEMPLATE.format(**fills))
        env.bindings.update({fills[name]: value for name, value in values.items()})
    else:
        code = function_code(TEMPLATE.format(**fills))
        placeholders = {fills[name]: name for name in NAMES}
        frame = [values.get(placeholders.get(name, ""), UNDEFINED) for name in code.slot_names]
    header = loop_header(code)
    rendered = loop_source(code, header, frame, env)
    assert rendered is not None
    end = max(
        index for index, (op, arg) in enumerate(zip(code.ops, code.args))
        if op == JUMP and arg == header
    )
    literals = [code.args[i] for i in range(header, end + 1) if code.ops[i] == STRING]
    return literals, rendered[0], rendered[1]


fills_strategy = st.tuples(
    st.lists(identifier, min_size=len(NAMES), max_size=len(NAMES), unique=True),
    st.lists(hostile_string, min_size=4, max_size=4),
    st.lists(number, min_size=5, max_size=5),
).map(
    lambda parts: {
        **dict(zip(NAMES, parts[0])),
        **{f"s{k}": js_string(text) for k, text in enumerate(parts[1])},
        **{f"n{k}": text for k, text in enumerate(parts[2])},
    }
)


def _assert_no_attacker_text(fills: Dict[str, str], top_level: bool, typed: bool = False) -> str:
    _, canonical_source, _ = _translation(CANONICAL, top_level, typed)
    literals, source, constants = _translation(fills, top_level, typed)
    assert source == canonical_source
    # The constants tuple carries the Code's own literal objects.
    assert len(literals) == 3
    assert all(any(k is literal for k in constants) for literal in literals)
    return source


@given(fills_strategy)
@settings(max_examples=150, deadline=None)
def test_generated_source_holds_no_attacker_text(fills: Dict[str, str]) -> None:
    _assert_no_attacker_text(fills, top_level=False)


@given(fills_strategy)
@settings(max_examples=100, deadline=None)
def test_generated_top_level_source_holds_no_attacker_text(fills: Dict[str, str]) -> None:
    """At the top level every variable is a name: the ones the scope
    binds are cached in locals and written back through ``bindings``,
    the rest go through ``env``.  Names still reach the function only as
    constants."""
    source = _assert_no_attacker_text(fills, top_level=True)
    assert "bindings[k" in source and "lookup(k" in source


# A typed translation checks the variables it was made for on entry, and
# returns to the dispatch loop when one differs.
_ENTRY_CHECK = r"\n    if type\(l\d+\) is not [^\n]+:\n        return \(\d+, steps, compl\)\n"


@given(fills_strategy)
@settings(max_examples=150, deadline=None)
def test_typed_source_holds_no_attacker_text(fills: Dict[str, str]) -> None:
    """A typed translation depends on the loop's shape and the types it
    is made for: renaming every identifier and refilling every literal
    with another of its type gives the same source."""
    source = _assert_no_attacker_text(fills, top_level=False, typed=True)
    assert re.search(_ENTRY_CHECK, source)
    assert "is not str" in source


@given(fills_strategy)
@settings(max_examples=150, deadline=None)
def test_typed_top_level_source_holds_no_attacker_text(fills: Dict[str, str]) -> None:
    """The same holds at the top level, where the variables the loop
    checks on entry are the names its scope binds."""
    source = _assert_no_attacker_text(fills, top_level=True, typed=True)
    assert re.search(_ENTRY_CHECK, source)


def test_profiler_sees_each_translated_loop() -> None:
    """Each translated loop compiles under a file name of its own, so
    cProfile and pstats keep them apart."""
    source = (
        "function f(n) { var t = 0; for (var i = 0; i < n; i++) { t += i; } return t; }"
        " function g(s) { var n = 0; for (var i = 0; i < s.length; i++)"
        " { n = n + s.charCodeAt(i); } return n; }"
        " var w = 'profiled'; while (w.length < 300) w += w;"
        " var r = 0; for (var k = 0; k < 3; k++) { r = r + f(300) + g(w); } r"
    )
    clear_code_cache()
    profiler = cProfile.Profile()
    vm = BytecodeInterpreter()
    profiler.runcall(vm.run, source)
    assert vm.translated_loop_runs == 6
    stats = pstats.Stats(profiler).stats  # type: ignore[attr-defined]
    loops = [
        value for key, value in stats.items()
        if key[0].startswith("<js-hot-loop") and key[2] == "_loop"
    ]
    assert sorted(value[1] for value in loops) == [3, 3]


def test_shape_alike_loops_share_one_compiled_function() -> None:
    first = function_code(TEMPLATE.format(**CANONICAL))
    other = function_code(TEMPLATE.format(**{**CANONICAL, "s1": "'zz'", "g": "G2"}))
    one = translate_loop(first, loop_header(first), [UNDEFINED] * first.nlocals, Environment())
    two = translate_loop(other, loop_header(other), [UNDEFINED] * other.nlocals, Environment())
    assert one is not None and two is not None
    assert one[0] is two[0]
    assert one[1] != two[1]


def test_loop_function_cache_is_cleared_with_the_code_cache() -> None:
    built: List[str] = []

    def build(source: str) -> str:
        built.append(source)
        return source.upper()

    key = "# a loop-function cache probe\n"
    assert cached_loop_function(key, build) == cached_loop_function(key, build)
    assert built == [key]
    clear_code_cache()
    cached_loop_function(key, build)
    assert built == [key, key]


def test_equal_literals_reach_the_spray_pool_as_distinct_objects() -> None:
    chunk = "A" * SPRAY_POOL_THRESHOLD
    source = (
        "function f() { var a = []; for (var i = 0; i < 300; i++)"
        f" {{ a[a.length] = i % 2 ? '{chunk}' : '{chunk}'; }} return a.length; }} f()"
    )
    walker_host = Host()
    Walker(host=walker_host).run(source)
    host = Host()
    value, vm = run_vm(source, host)
    assert value == 300.0
    assert vm.translated_loop_runs == 1
    pool = host.spray_pool
    assert len(pool) == len(walker_host.spray_pool) == 300
    assert len({id(s) for s in pool}) == len({id(s) for s in walker_host.spray_pool}) == 2
    # The tail ran translated: it still alternates the two literal objects.
    assert pool[-1] is pool[-3] and pool[-1] is not pool[-2]


# -- the step budget in typed loops ------------------------------------------------


def test_js_heavy_main_loop_compares_once_per_run(monkeypatch: pytest.MonkeyPatch) -> None:
    """The `js-heavy` workload's main loop (the JS-weighted Table X
    tiers' XOR loop) compares against the budget once per run: on its
    common path a guard for the header's run, a guard for the body's run
    up to its `(i & 1023) === 0` branch and the latch's own check, where
    every charged instruction used to compare (13 an iteration).  Each
    guard falls back to its run's first pc."""
    rendered: List[Tuple[int, str]] = []

    def spy(code: Code, header: int, frame: Any, env: Any) -> Any:
        plan = loop_source(code, header, frame, env)
        if plan is not None and "float(ord(" in plan[0]:
            rendered.append((header, plan[0]))
        return plan

    monkeypatch.setattr(hotloop, "loop_source", spy)
    BytecodeInterpreter().run(_js_workload_script("tier", 1 << 20, 7))
    header, source = rendered[0]
    comparisons = [line.strip() for line in source.splitlines() if "> max_steps:" in line]
    assert comparisons == [
        "if steps + 4 > max_steps:",  # i < p.length
        "if steps + 22 > max_steps:",  # acc = ...; (i & 1023) === 0
        "if steps > max_steps:",  # i++
        "if steps + 12 > max_steps:",  # out += String.fromCharCode(...), up to the call
        "if steps > max_steps:",  # i++ on that path
    ]
    for start in (header, header + 5, header + 24):
        assert f"return ({start}, steps, compl)" in source
    # The charCodeAt slow branch adds the run's pending charge and takes
    # it back.
    assert "steps += 12\n" in source and "steps -= 12\n" in source


# -- the wrapper's decryptor ----------------------------------------------------------


class ModuloCountingVM(BytecodeInterpreter):
    """Counts the ``%`` evaluations a translated loop sends to
    ``_binary_op``."""

    translated_modulo_calls = 0

    def _binary_op(self, op: str, left: Any, right: Any) -> Any:
        if op == "%" and sys._getframe(1).f_code.co_filename.startswith("<js-hot-loop "):
            self.translated_modulo_calls += 1
        return super()._binary_op(op, left, right)


def wrapped_script(scheme: str, original: str) -> str:
    """``original`` as a wrapper whose generator drew ``scheme``."""
    for seed in range(100):
        generator = MonitorCodeGenerator("det:doc", seed=seed, wrap_dynamic_methods=False)
        generated = generator.wrap_script(original)
        if generated.scheme == scheme:
            return generated.code
    raise AssertionError(f"no seed below 100 draws {scheme}")


@pytest.mark.parametrize("scheme", ENCRYPTION_SCHEMES)
def test_wrapped_script_decrypts_without_generic_modulo(
    monkeypatch: pytest.MonkeyPatch, scheme: str
) -> None:
    """Every cipher scheme's decryptor loop, once translated, runs typed
    and takes ``%`` on two floats inline: no ``_binary_op`` call."""
    sources: List[str] = []

    def spy(code: Code, header: int, frame: Any, env: Any) -> Any:
        plan = loop_source(code, header, frame, env)
        if plan is not None and frame is not None:
            sources.append(plan[0])  # the decryptor runs inside a function
        return plan

    monkeypatch.setattr(hotloop, "loop_source", spy)
    marker = "x" * 600
    vm = ModuloCountingVM()
    soap = JSObject()
    soap.set("request", NativeFunction("request", lambda i, t, a: UNDEFINED))
    vm.define_global("SOAP", soap)
    vm.run(wrapped_script(scheme, f"var marker = '{marker}';"))
    assert vm.global_env.lookup("marker") == marker
    assert vm.translated_loop_runs > 0 and sources
    assert vm.translated_modulo_calls == 0
    if scheme != "xor":
        # Two operands proven floats: the rule alone guards fmod.
        rule = re.compile(r"if s\d+ != 0\.0 and (s\d+) - \1 == 0\.0:\n *\1 = fmod")
        assert all(rule.search(source) for source in sources)


# -- threads -----------------------------------------------------------------------


def test_threads_share_one_translated_decode_loop() -> None:
    """Serve's thread backend shares Code objects, and with them loop
    counters and translations, across threads: here a function's decode
    loop, a top-level checksum loop of one cached program, and a typed
    loop whose entry check fails in every thread, which then runs on the
    dispatch loop."""
    source = (
        "function decode(data, key) { var out = '';"
        " for (var i = 0; i < data.length; i++)"
        " { out += String.fromCharCode(data.charCodeAt(i) ^ key); } return out.length; }"
        " function total(a) { var t = 0; for (var i = 0; i < a.length; i++) { t = t + a[i]; }"
        " return t; }"
        " var d = 'thread-shared decode loop '; while (d.length < 4200) { d += d; }"
        " var sum = 0; for (var j = 0; j < 600; j++) { sum = (sum * 31 + d.charCodeAt(j)) % 65521; }"
        " var n = []; for (var k = 0; k < 300; k++) { n[k] = k; }"
        " decode(d.substr(0, 4200), 42) + ':' + sum + ':' + total(d.substr(0, 300)).length"
        " + ':' + total(n)"
    )
    walker_host = Host()
    walker = Walker(host=walker_host)
    expected = (walker.run(source), walker.steps, walker_host.spray_pool)
    assert len(expected[2]) > 50  # out grows past the spray-pool threshold
    program = compile_source(source)  # one shared Code, counted from zero by all threads
    workers = 4
    barrier = threading.Barrier(workers)
    outcomes: List[Any] = [None] * workers

    def work(slot: int) -> None:
        try:
            host = Host()
            vm = BytecodeInterpreter(host=host)
            barrier.wait(timeout=30)
            value = vm.run(source)
            outcomes[slot] = (value, vm.steps, host.spray_pool, vm.translated_loop_runs)
        except BaseException as error:  # noqa: BLE001 - reported below
            outcomes[slot] = error

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(slot,)) for slot in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for outcome in outcomes:
        assert isinstance(outcome, tuple), outcome
        assert outcome[:3] == expected
    assert sum(outcome[3] for outcome in outcomes) > 0
    assert compile_source(source) is program
    # The top-level checksum loop ran translated from the shared program.
    assert any(type(state) is tuple for state in program.loops.values())
    # total() was typed for a string, and entered with an array too: on
    # an array its translation returns to the header at once.
    total = program.hoist_actions[1][1]
    assert total.name == "total"
    ((header, (function, constants)),) = total.loops.items()
    assert total.slot_names[1::2] == ("a", "t")
    vm = BytecodeInterpreter()
    frame = [UNDEFINED, JSArray([1.0]), UNDEFINED, "", 0.0]
    assert function(vm, frame, vm.global_env, None, 5, UNDEFINED, constants) == (
        header, 5, UNDEFINED
    )
    frame[1] = "ab"
    pc, steps, _ = function(vm, frame, vm.global_env, None, 5, UNDEFINED, constants)
    assert pc > header and steps > 5 and frame[4] == 2.0
