"""Bytecode-engine semantics that the differential suite can't pin.

The charging rule (one step per walker ``exec_statement`` /
``eval_expression`` entry, pre-order) is part of the engine contract:
a verdict can hinge on *where* the step budget blows, so both engines
must count identically — these tests pin the exact totals so a charge
regression shows up as a number, not as a distant verdict flip.  Also
covered here: the per-process code cache, VM functions called from
the walker, the profiler fallback, and the ``arguments``-elision
optimisation.
"""

from __future__ import annotations

import pytest

from repro.js.compiler import (
    INC_SLOT,
    STORE_SLOT_POP,
    clear_code_cache,
    code_cache_size,
    compile_source,
    disassemble,
)
from repro.js.interpreter import Interpreter
from repro.js.vm import BytecodeInterpreter

# One step per statement/expression the walker would visit, pre-order.
# Totals were measured on the reference walker; the VM must agree.
PINNED_STEPS = [
    ("1 + 2", 4),                       # stmt + binary + 2 literals
    ("var x = 1;", 2),                  # stmt + init expr
    ("var x = 1; x && 2", 6),           # && charges both sides here
    ("var x = 0; x || 3", 6),
    ("true ? 1 : 2", 4),                # only the taken branch charges
    ("var x = 1; x += 2", 6),           # compound: target read + value + write
    ("var o = {a: 1}; o.a", 6),
    ("var o = {f: function(){ return 1; }}; o.f()", 9),
    ("for (var i = 0; i < 2; i++) { }", 18),
    ("var i = 0; i++;", 5),             # stmt + update + identifier (fused op)
    ("for (var k in {a: 1}) { }", 5),
    ("typeof x", 3),                    # unresolved name still charges
    ("var o = {a: 1}; delete o.a", 7),
    ("function g(){ return arguments.length; } g(1)", 8),
    ("function h(){ return 1; } h()", 6),
]


@pytest.mark.parametrize("source,expected", PINNED_STEPS, ids=lambda c: str(c)[:40])
def test_pinned_step_counts(source, expected) -> None:
    walker = Interpreter()
    compiled = BytecodeInterpreter()
    walker.run(source)
    compiled.run(source)
    assert walker.steps == expected, f"walker drifted on {source!r}"
    assert compiled.steps == expected, f"vm drifted on {source!r}"


def test_budget_blows_at_identical_tick() -> None:
    source = "var s = 0; for (var i = 0; i < 100; i++) s += i;"
    for budget in (1, 2, 3, 5, 8, 13, 21, 34):
        runs = []
        for engine in (Interpreter, BytecodeInterpreter):
            interp = engine(max_steps=budget)
            try:
                interp.run(source)
                outcome = "ok"
            except Exception as exc:  # noqa: BLE001
                outcome = type(exc).__name__
            runs.append((outcome, interp.steps))
        assert runs[0] == runs[1], f"budget={budget}: {runs}"


# ---------------------------------------------------------------------------
# Code cache


def test_compile_source_is_memoised() -> None:
    clear_code_cache()
    source = "var memo_probe = 1; memo_probe + 1"
    first = compile_source(source)
    second = compile_source(source)
    assert first is second
    assert code_cache_size() == 1


def test_code_cache_is_bounded() -> None:
    clear_code_cache()
    for index in range(300):
        compile_source(f"var bound_probe_{index} = {index};")
    assert code_cache_size() <= 256
    clear_code_cache()
    assert code_cache_size() == 0


def test_parse_errors_are_not_cached() -> None:
    clear_code_cache()
    bad = "var broken = ((("
    for _ in range(2):
        with pytest.raises(Exception):
            compile_source(bad)
    assert code_cache_size() == 0


# ---------------------------------------------------------------------------
# A CompiledFunction is a real JSFunction: the walker (the differential
# oracle) can call it.


def test_vm_function_callable_from_walker() -> None:
    compiled = BytecodeInterpreter()
    compiled.run("function shared(n) { return n + 1; }")
    fn = compiled.global_env.lookup("shared")
    walker = Interpreter(host=compiled.host)
    walker.global_env = compiled.global_env
    assert walker.call_function(fn, walker.global_this, [41.0]) == 42.0


# ---------------------------------------------------------------------------
# Fused opcodes and the arguments-elision optimisation


def test_statement_update_compiles_to_fused_opcode() -> None:
    code = compile_source("function tick() { var i = 0; i++; i--; }")
    listing = disassemble(code)
    assert "INC_SLOT" in listing
    fn_code = code.hoist_actions[0][1]  # the hoisted declaration's code
    assert fn_code.ops.count(INC_SLOT) == 2


def test_statement_store_folds_pop() -> None:
    code = compile_source("function set() { var x = 0; x = 1; x = x + 1; }")
    fn_code = code.hoist_actions[0][1]
    assert STORE_SLOT_POP in fn_code.ops


def test_value_position_update_is_not_fused() -> None:
    code = compile_source("function keep() { var i = 0; var r = i++; return r; }")
    fn_code = code.hoist_actions[0][1]
    assert INC_SLOT not in fn_code.ops


def test_arguments_init_elided_when_unreferenced() -> None:
    used = compile_source("function a() { return arguments.length; } a()")
    unused = compile_source("function b() { return 1; } b()")
    used_fn = used.hoist_actions[0][1]
    unused_fn = unused.hoist_actions[0][1]
    from repro.js.compiler import INIT_ARGUMENTS

    used_kinds = [entry[1] for entry in used_fn.init_plan]
    unused_kinds = [entry[1] for entry in unused_fn.init_plan]
    assert INIT_ARGUMENTS in used_kinds
    assert INIT_ARGUMENTS not in unused_kinds


def test_arguments_still_behaves_when_used() -> None:
    for engine in (Interpreter, BytecodeInterpreter):
        interp = engine()
        got = interp.run(
            "function probe() { return arguments.length + ':' + arguments[0]; }"
            " probe('x', 'y')"
        )
        assert got == "2:x"
