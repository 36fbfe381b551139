"""Differential harness: the bytecode VM against the reference walker.

Every observable the host can see must be bit-for-bit identical across
``repro.js`` engines: completion values, thrown errors, consumed step
budget, string-allocation telemetry (``Host.allocated_bytes``), the
spray pool, and — at the pipeline level — verdicts, fired features,
alerts, fake messages and quarantined files.  The bytecode engine is
an optimisation, never a semantic fork; this suite is the contract
that keeps it honest.

Run just this lane with ``pytest -m diff``.
"""

from __future__ import annotations

import math
import random
from typing import Any, Dict, Tuple
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.batch.scanner import _settings_fingerprint
from repro.cli import main
from repro.core.monitor_code import _decryptor_js
from repro.core.pipeline import PipelineSettings
from repro.corpus import build_dataset
from repro.corpus import test_scale as corpus_test_scale
from repro.corpus.js_snippets import (
    benign_date_script,
    benign_form_script,
    benign_multiscript_part,
    benign_page_script,
    benign_report_script,
    benign_soap_script,
    egg_hunt_script,
    export_launch_script,
    exploit_call_for,
    failing_probe_script,
    spray_script,
    version_gated,
)
from repro.corpus.sized import table_x_documents, table_x_js_documents
from repro.js import hotloop
from repro.js import vm as vm_mod
from repro.js.compiler import MAKE_FUNCTION, Code, clear_code_cache, compile_source
from repro.js.interpreter import Host, Interpreter
from repro.js.vm import BytecodeInterpreter
from repro.pdf.builder import DocumentBuilder
from repro.reader.payload import Payload
from tests.js.golden_disasm import GOLDEN_SCRIPTS

pytestmark = pytest.mark.diff


@pytest.fixture(autouse=True)
def translate_every_loop(monkeypatch) -> None:
    """Translate a loop at its first back-edge, so the cases here,
    short as they are, run the translated-loop path too."""
    monkeypatch.setattr(hotloop, "HOT_LOOP_THRESHOLD", 1)


def run_engine(
    engine: type, source: str, max_steps: int = 300_000
) -> Tuple[Any, int, int, int]:
    """One engine run reduced to its observable footprint.

    The tuple is (status, steps, allocated_bytes, spray_pool_len) where
    status is ("ok", repr(value)) or ("err", type, message) — repr keeps
    float formatting and UNDEFINED/JSObject identity questions out of
    the comparison while still distinguishing every value the walker
    can produce.
    """
    host = Host()
    interp = engine(host=host, max_steps=max_steps)
    try:
        status: Tuple[Any, ...] = ("ok", repr(interp.run(source)))
    except Exception as exc:  # noqa: BLE001 - errors are part of the contract
        status = ("err", type(exc).__name__, str(exc))
    return status, interp.steps, host.allocated_bytes, len(host.spray_pool)


def assert_equivalent(source: str, max_steps: int = 300_000) -> None:
    ast_run = run_engine(Interpreter, source, max_steps)
    bc_run = run_engine(BytecodeInterpreter, source, max_steps)
    assert ast_run == bc_run, (
        f"engine divergence on:\n{source}\n  ast: {ast_run}\n  bytecode: {bc_run}"
    )


# ---------------------------------------------------------------------------
# Inline language-surface corpus

LANGUAGE_CASES = [
    # arithmetic / coercion
    "1 + 2 * 3 - 4 / 5",
    "'5' * '4' + ('a' - 1)",
    "0.1 + 0.2",
    "'abc' + 123 + true + null + undefined",
    "1/0 + (-1/0) + (0/0)",
    "5 % 3; -5 % 3; 5 % 0",
    "~12.7; 1 << 3; -1 >>> 28; 255 & 15; 8 | 3; 9 ^ 5",
    "'10' == 10; '10' === 10; null == undefined; null === undefined",
    "NaN == NaN; NaN != NaN",
    # strings and methods
    "var s = 'hello world'; s.toUpperCase() + s.substr(3, 4) + s.charAt(1)",
    "'abcdef'.indexOf('cd') + 'abcdef'.charCodeAt(2)",
    "String.fromCharCode(72, 105) + String.fromCharCode(33)",
    "'a,b,c'.split(',').join('-')",
    "unescape('%u9090%u9090').length",
    "escape('\u00e9\u00b2\u4e2d aZ9@*_+-./~') + unescape('%41%42' + escape('\u00e9'))",
    "var t = ''; t += 'xy'; t += t; t += t; t.length",
    # control flow
    "var x = 0; if (x) { x = 1; } else if (x === 0) { x = 2; } x",
    "var n = 0; for (var i = 0; i < 10; i++) { if (i % 2) continue; n += i; } n",
    "var n = 0; for (var i = 0; ; i++) { if (i > 5) break; n++; } n",
    "var n = 0; while (n < 7) n++; n",
    "var n = 10; do { n--; } while (n > 3); n",
    "var r = ''; switch (2) { case 1: r = 'a'; case 2: r = 'b'; case 3: r += 'c'; break; default: r = 'd'; } r",
    "outer: for (var i = 0; i < 3; i++) { for (var j = 0; j < 3; j++) { if (j == 1) continue outer; } } i",
    # functions, closures, recursion
    "function add(a, b) { return a + b; } add(2, 3) + add('x', 'y')",
    "function fib(n) { return n < 2 ? n : fib(n - 1) + fib(n - 2); } fib(12)",
    "function outer() { var c = 0; return function () { return ++c; }; } var f = outer(); f(); f(); f()",
    "function v() { return arguments.length + ':' + arguments[1]; } v(9, 8, 7)",
    "var f = function me(n) { return n ? n + me(n - 1) : 0; }; f(4)",
    "function noargs() { var arguments_unused = 1; return arguments_unused; } noargs()",
    # objects / arrays / prototypes
    "var o = {a: 1, b: {c: 2}}; o.a + o['b'].c + (o.missing === undefined)",
    "var a = [3, 1, 2]; a.push(0); a.sort(); a.join('')",
    "var a = []; a[5] = 'x'; a.length + ':' + a[2]",
    # keys that are not canonical array indices are plain properties
    (
        "var a = [1, 2, 3]; a[-1] = 9; a['01'] = 7; a['²'] = 5; var e = [];"
        " e[-1] = 4; [a[2], a[-1], a['01'], a[1], a['²'], a.length, e[-1], e.length,"
        " 'abc'['²'], 'abc'['01'], 'abc'['1']].join(',')"
    ),
    "[parseInt('12', 37), parseInt('12', NaN), parseInt('0x' + new Array(300).join('f')),"
    " parseFloat('1\u00b2'), 0x" + "f" * 300 + "].join(',')",
    # ES5 ToInteger: NaN and Infinity in integer arguments
    (
        "[Math.floor(1/0), Math.round(NaN), Math.pow(10, 400), Math.max(1, NaN),"
        " 'abc'.substr(NaN), 'abc'.substring(1, NaN), 'abc'.charCodeAt(Infinity),"
        " [1, 2, 3].slice(Infinity).length, String.fromCharCode(NaN).length].join(',')"
    ),
    "var r = []; var a = [1, 2]; for (var i = 0; i < 3; i++) { try { a.length = [NaN, -1, 1][i]; r.push(a.length); } catch (e) { r.push(e.name); } } r.join(',')",
    "try { new Array(2.5); } catch (e) { 'caught:' + e.name }",
    "try { (1).toFixed(-1); } catch (e) { 'caught:' + e.name }",
    # Number keys: the VM reads and writes array elements keyed by a
    # whole float in 0..2**32-2 directly; every other key takes ToString.
    (
        "var a = [10, 20, 30]; [a[1.0], a[-0], a[1.5], a[NaN], a[-1], a['01'],"
        " a[4294967294], a[4294967295], a[1e21], a[3], a[true], a[null], a.length].join(',')"
    ),
    (
        "var a = [1, 2]; a[1.0] = 'x'; a[-0] = 'z'; a[1.5] = 'f'; a[NaN] = 'n'; a[-1] = 'm';"
        " a['01'] = 'o'; a[4294967295] = 'b'; a[1e21] = 'e'; a[true] = 't';"
        " [a.join(','), a.length, a[1.5], a['NaN'], a['-1'], a['01'], a['4294967295'],"
        " a['1e+21'], a['true'], a[4294967295], a[1e21]].join('|')"
    ),
    # a gap store fills with undefined; length follows every store
    (
        "var a = []; a[0] = 'a'; a[a.length] = 'b'; a[5] = 'c'; var n = a.length;"
        " a[a.length] = 'd'; a['length'] = 8; [n, a.length, a[3] === undefined, a[5], a[6],"
        " a.join('-')].join('|')"
    ),
    (
        "var o = {}; o[1] = 'one'; o[1.0] = 'uno'; o[-0] = 'zero'; o[1.5] = 'x'; o[4294967295] = 'm';"
        " var f = function () {}; f[0] = 'f0'; var args = (function () { return arguments; })(7, 8);"
        " args[1.0] = 9; [o['1'], o[0], o['1.5'], o[1], o['4294967295'], f[0], f[0.0], args[1],"
        " args.length].join(',')"
    ),
    "var s = 'abc'; [s[0], s[1.0], s[-0], s[2], s[3], s[1.5], s[NaN], s[-1], s.length].join(',')",
    "var s = 'abc'; s[0] = 'z'; s[1.0] = 'y'; s",
    "var u; try { u[0] = 1; } catch (e) { e.name + ':' + e.message }",
    "try { null[1.0]; } catch (e) { e.name + ':' + e.message }",
    # a caught engine error is an Error object (ES5 §15.11.4.4)
    "try { null.x } catch (e) { e.name + '|' + e.message + '|' + e }",
    "try { missing; } catch (e) { [e, e.name, e.message, typeof e].join('|') }",
    "'' + new Error('boom') + '|' + Error('x') + '|' + new Error() + '|' + new Error(undefined).message",
    "var e = new Error('m'); e.name = ''; var f = new Error(); f.name = 'N'; [e, f].join('|')",
    "Error('stray'); this + '|' + (new Error('q') instanceof Error)",
    "try { throw new Error('thrown') } catch (e) { e.message + '|' + e }",
    # native error types: each prototype inherits from Error.prototype
    (
        "[typeof TypeError, typeof RangeError, typeof ReferenceError, typeof SyntaxError,"
        " typeof EvalError, typeof URIError, '' + Error.prototype, '' + TypeError.prototype,"
        " String(new RangeError('r')), new URIError('u') instanceof Error].join('|')"
    ),
    (
        "var r = []; try { null.x } catch (e) { r.push(e instanceof TypeError, e instanceof Error,"
        " e instanceof RangeError) } try { missing } catch (e) { r.push(e instanceof ReferenceError) }"
        " try { new Array(-1) } catch (e) { r.push(e instanceof RangeError) } r.join(',')"
    ),
    # a cyclic array joins to '', and a stack overflow is a catchable
    # RangeError (a nested array's ToString overflows without a step,
    # so both engines charge the same)
    "var a = [1]; a.push(a); var b = [a, 2]; a.push(b); [a.join('-'), '' + a, String(b), a + 1].join('|')",
    (
        "var a = []; for (var i = 0; i < 3000; i++) a = [a];"
        " try { '' + a } catch (e) { e.name + ':' + (e instanceof RangeError) }"
    ),
    # ES5 string/number conversions (§9.3.1, §9.8.1)
    (
        "[Number('1_0'), +'infinity', +'\uff11\uff12', +'0x1_0', +'\u00a012\ufeff', +'-0x10',"
        " '' + 0.000001, '' + 1.5e-7, '' + 123456789012345680000, '' + 1e21, '' + -1e-7,"
        " '' + 0.1].join('|')"
    ),
    # an object literal's number key is spelt as a lookup spells it
    (
        "var o = {1e-7: 1, 0.00001: 2, 123456789012345680000: 3, 1e21: 4, 1e400: 5}, r = [];"
        " for (var k in o) r.push(k); r.push(o[1e-7], o[0.00001], o[123456789012345680000],"
        " o[1e21], o[Infinity]); r.join('|')"
    ),
    (
        "[parseFloat('9e'), parseFloat('Infinityx'), parseFloat('1.e5x'), parseFloat('.e1'),"
        " 1 / parseInt('-0'), '\\ufeff a \\u2028'.trim(), '\\x1c a'.trim().length].join('|')"
    ),
    # ES5 split limit, lastIndexOf position and Math.round
    (
        "['a,b,c'.split(',', 1).length, 'a,b,c'.split(',', 0).length, 'a,b,c'.split(',', -1).length,"
        " 'abc'.split('', 2).join(''), 'abc'.split(undefined, 0).length,"
        " 'a,b,c'.split(',', 4294967297).join('')].join(',')"
    ),
    (
        "['abcabc'.lastIndexOf('a', 2), 'abcabc'.lastIndexOf('c', 0), 'abcabc'.lastIndexOf('a', NaN),"
        " 'abcabc'.lastIndexOf('b', -3), 'abcabc'.lastIndexOf('', 2), 'abcabc'.lastIndexOf('bc', 1),"
        " 'abcabc'.lastIndexOf('a')].join(',')"
    ),
    (
        "[Math.round(0.49999999999999994), 1/Math.round(-0.5), 1/Math.round(-0), Math.round(-2.5),"
        " Math.round(2.5), Math.round(-0.51), Math.round(4503599627370497)].join(',')"
    ),
    "var o = {n: 1}; o.n++; ++o.n; o.n",
    "var o = {}; o.x = 1; delete o.x; o.x === undefined",
    "for (var k in {a: 1, b: 2}) { var last = k; } last",
    "var ctor = function (v) { this.v = v; }; new ctor(7).v",
    "typeof 1 + typeof 'a' + typeof undefined + typeof {} + typeof unboundName",
    # exceptions
    "try { null.x; } catch (e) { 'caught:' + e }",
    "try { throw {code: 42}; } catch (e) { e.code }",
    "var r = ''; try { r += 'a'; throw 'x'; } catch (e) { r += 'b'; } finally { r += 'c'; } r",
    "function f() { try { return 'a'; } finally { } } f()",
    "missingFunction()",
    "var o = {}; o.nope()",
    # break/continue unwinding out of a try block, an eval or a call
    "for (var i = 0; i < 3; i++) { try { 1; 2; break; } finally { 3; } } i",
    "var n = 0; while (n < 3) { n++; try { 1; 2; continue; } catch (e) { 3; } } n",
    "function h() { var i = 0; while (i < 5) { i++; eval('1; 2; continue'); } return i; } h()",
    "function f() { var a = 1; a = 2; break; } for (var i = 0; i < 3; i++) { f(); } i",
    # ... and out of a call inside a slot-mode (translated) loop
    (
        "function f() { var a = 1; break; } function g() { var n = 0;"
        " for (var i = 0; i < 9; i++) { n++; if (i == 5) f(); } return n + ':' + i; } g()"
    ),
    (
        "function f() { var a = 1; continue; } function g() { var n = 0;"
        " while (n < 20) { n++; if (n & 1) { f(); } n += 2; } return n; } g()"
    ),
    (
        "function f() { break; } function g() { var n = 0; for (var i = 0; i < 4; i++)"
        " { switch (i) { case 1: f(); n += 5; default: n++; } } return n + ':' + i; } g()"
    ),
    # eval (the instrumentation prologue depends on it)
    "var i = 1; eval('i = i + 41'); i",
    "eval('var hidden = 9; hidden * 2')",
    # update-expression / fused-opcode surface
    "var i = 0; i++; i++; ++i; i--; i",
    "var s = ''; for (var i = 0; i < 4; i++) { s += i; } s",
    "var j = '7'; j++; j",
    "var j; j++; j !== j",
    "var k = {}; k++; k !== k",
    "var i = 0; var got = [i++, i++, ++i]; got.join(',')",
    # typical shellcode-decoder shapes
    (
        "function d(data, key) { var out = ''; for (var i = 0; i < data.length; i++)"
        " { out += String.fromCharCode(data.charCodeAt(i) ^ key); } return out; }"
        " d(d('attack at dawn', 42), 42)"
    ),
    (
        "var sled = unescape('%u9090%u9090'); while (sled.length < 512) sled += sled;"
        " sled.length"
    ),
]


@pytest.mark.parametrize("source", LANGUAGE_CASES, ids=lambda s: s[:48])
def test_language_surface(source: str) -> None:
    assert_equivalent(source)


#: A function declaration at the top of a program, a function body or
#: eval'd code is bound once, at hoisting (ES5 §10.5), so the script
#: sees one function object; one nested in a block is re-created where
#: it stands, as SpiderMonkey's function statements are.  Each source
#: maps to the ES5 value both engines must give.
HOISTED_DECLARATION_CASES = {
    "var g = f; function f() {} g === f": True,
    "f.x = 1; function f() {} f.x": 1.0,
    "function h() { var g = f; function f() {} return g === f; } h()": True,
    "function h() { f.x = 1; function f() {} return f.x; } h()": 1.0,
    "eval('var g = f; function f() {} g === f')": True,
    "if (true) { function f() { return 1; } } else { function f() { return 2; } } f()": 1.0,
}


@pytest.mark.parametrize(
    "source", HOISTED_DECLARATION_CASES, ids=lambda s: s[:48]
)
def test_function_declarations_follow_es5(source: str) -> None:
    assert_equivalent(source)
    status = run_engine(BytecodeInterpreter, source)[0]
    assert status == ("ok", repr(HOISTED_DECLARATION_CASES[source]))


# ---------------------------------------------------------------------------
# Corpus generators (the JS the pipeline actually scans)


def corpus_scripts() -> list:
    payload = Payload.dropper()
    scripts = [
        spray_script(1, payload, random.Random(1), chunk_chars=4096),
        spray_script(
            1, payload, random.Random(2), chunk_chars=4096,
            exploit_call=exploit_call_for("CVE-2008-2992"),
        ),
        spray_script(
            1, payload, random.Random(3), chunk_chars=4096,
            hide_payload_in_title=True,
        ),
        spray_script(
            1, payload, random.Random(4), chunk_chars=4096, export_chunk_as="stage2",
        ),
        egg_hunt_script(1, Payload.egg_hunter(), random.Random(5), "CVE-2009-0927"),
        failing_probe_script("CVE-2009-1492"),
        failing_probe_script("CVE-2013-0640"),
        export_launch_script(),
        version_gated("var ran = 1;", 9),
        benign_report_script(40, 256, random.Random(6)),
        benign_form_script(random.Random(7)),
        benign_date_script(random.Random(8)),
        benign_page_script(),
        benign_soap_script(),
        benign_multiscript_part(3),
    ]
    return scripts


@pytest.mark.parametrize(
    "source", corpus_scripts(), ids=lambda s: s.splitlines()[0][:48]
)
def test_corpus_generators(source: str) -> None:
    # Bare interpreters have no Doc/app surface, so some of these die on
    # a lookup error — the point is that both engines die identically,
    # with identical partial side effects on the host.
    assert_equivalent(source)


# ---------------------------------------------------------------------------
# Step-budget exhaustion: the budget must blow at the same tick, leaving
# the same partial telemetry, for every cutoff — not just the final one.

#: Loops inside function bodies: slot mode, so the VM runs them as
#: translated Python functions (repro.js.hotloop).
SLOT_LOOP_SWEEP_CASES = [
    GOLDEN_SCRIPTS["decoder_loop"],
    (
        "function f(s) { var n = 0; for (var i = 0; i < s.length && n < 3; i++)"
        " { if (s.charAt(i) == 'a') n++; } return n + ':' + i; } f('banana')"
    ),
    (
        "function boom(i) { if (i == 3) throw 'at ' + i; return i; }"
        " function f() { var t = 0; for (var i = 0; i < 6; i++) { t += boom(i); }"
        " return t; } var r; try { f(); } catch (e) { r = e; } r"
    ),
    # Array fills through the number-keyed element paths: appends at
    # a.length, overwrites and reads at a[i], a gap store at a[2 * i].
    (
        "function fill(n) { var a = []; var g = []; for (var i = 0; i < n; i++)"
        " { a[a.length] = i; a[i] = a[i] + 1; g[2 * i] = a[i]; }"
        " return a.length + ':' + a[n - 1] + ':' + a[n] + ':' + g.length + ':' + g[1]; } fill(6)"
    ),
]

#: Loops in program, ``eval`` and non-slot function code: env mode,
#: where names go through ``env`` and program code keeps a completion
#: register, which the translated loop takes in and hands back.
ENV_LOOP_SWEEP_CASES = [
    # A top-level heap spray: a doubling loop, then an array fill.
    (
        "var s = unescape('%u9090%u9090'); while (s.length < 64) s += s;"
        " var a = []; for (var i = 0; i < 6; i++) { a[a.length] = s + i; } a.length"
    ),
    # The last statement is an `if` without `else`: the completion value
    # is undefined on every other iteration.
    (
        "var r = eval('var n = 0; for (var i = 0; i < 6; i++) { n += i; if (i % 2) n; }');"
        " n + ':' + r"
    ),
    "var t = ''; for (var i = 0; i < 5; i++) { var c = String.fromCharCode(65 + i); t += c; } t + c",
    # An implicit global, and a global the callee rebinds every iteration.
    (
        "var k = 1; function twice() { k = k * 2; }"
        " for (var i = 0; i < 6; i++) { total = (i ? total : 0) + k; twice(); } total"
    ),
    # The wrapper decryptor's a[a.length] append and the spray's a[i]
    # copy, at the top level.
    (
        "var c = 'ABCD'; var a = []; var m = [];"
        " for (var i = 0; i < 6; i++) { a[a.length] = String.fromCharCode(65 + i);"
        " m[i] = c.substr(0, c.length) + a[i]; } m[5] + ':' + a.length + ':' + m.length"
    ),
    # A nested function keeps `find` out of slot mode: `return` from
    # inside its loop.
    (
        "function find(s) { function at(i) { return s.charAt(i); }"
        " for (var i = 0; i < s.length; i++) { if (at(i) == 'n') return i; } return -1; }"
        " find('banana')"
    ),
]

SWEEP_CASES = [
    "var s = 0; for (var i = 0; i < 5; i++) s += i; s",
    "function f(n) { return n ? f(n - 1) + 1 : 0; } f(6)",
    "var t = ''; for (var i = 65; i < 70; i++) t += String.fromCharCode(i); t",
    "var i = 0; while (true) i++;",
    "try { for (var i = 0; i < 4; i++) { if (i == 2) throw 'x'; } } catch (e) { e + i }",
    "var i = 1; eval('i++; i++;'); i",
    *SLOT_LOOP_SWEEP_CASES,
    *ENV_LOOP_SWEEP_CASES,
]


def run_vm_counting(source: str, max_steps: int) -> Tuple[Tuple[Any, int, int, int], int]:
    """``run_engine`` on the VM, plus how many loops it ran translated."""
    runs = []

    class CountingVM(BytecodeInterpreter):
        def __init__(self, *args: Any, **kwargs: Any) -> None:
            super().__init__(*args, **kwargs)
            runs.append(self)

    footprint = run_engine(CountingVM, source, max_steps)
    return footprint, sum(vm.translated_loop_runs for vm in runs)


@pytest.mark.parametrize("source", SWEEP_CASES, ids=lambda s: s[:40])
def test_budget_exhaustion_sweep(source: str) -> None:
    _, full_steps, _, _ = run_engine(Interpreter, source, max_steps=2_000)
    translated = 0
    for max_steps in range(1, min(full_steps + 2, 400)):
        ast_run = run_engine(Interpreter, source, max_steps)
        bc_run, runs = run_vm_counting(source, max_steps)
        translated += runs
        assert ast_run == bc_run, (
            f"divergence at max_steps={max_steps} on:\n{source}\n"
            f"  ast: {ast_run}\n  bytecode: {bc_run}"
        )
    if source in SLOT_LOOP_SWEEP_CASES or source in ENV_LOOP_SWEEP_CASES:
        assert translated > 0, "the sweep never ran the loop translated"


#: Two translator pitfalls, as the program fuzzer found them: the budget
#: clamp (a blow inside the loop leaves exactly max_steps + 1 = 3001
#: steps, not 3002), and JUMP_IF_FALSE_KEEP's stack effect (it pops on
#: the fall-through edge only).
TRANSLATOR_REGRESSIONS = [
    "function gen(a, b) { for (a = 0; a < 2; a++) { a = 0; } return 0; } gen(1, 'q')",
    "function gen(a, b) { for (a = 0; a < 2; a++) { a = (0 && 0); } return 0; } gen(1, 'q')",
]


@pytest.mark.parametrize("source", TRANSLATOR_REGRESSIONS, ids=lambda s: s[41:60])
def test_translator_regressions(source: str) -> None:
    ast_run = run_engine(Interpreter, source, max_steps=3_000)
    bc_run, runs = run_vm_counting(source, max_steps=3_000)
    assert ast_run == bc_run
    assert ast_run[1] == 3_001  # the budget blows inside the loop
    assert runs > 0


# ---------------------------------------------------------------------------
# Full pipeline: scan the generated corpus and the Table X tiers end to
# end on both engines.  The reader always builds a BytecodeInterpreter;
# the walker pass swaps in the walker class under that name.


def report_fingerprint(report) -> Tuple[Any, ...]:
    verdict = report.verdict
    return (
        verdict.document,
        verdict.malicious,
        verdict.malscore,
        tuple(verdict.features.bits),
        tuple(verdict.reasons),
        report.errored,
        report.crashed,
        len(report.alerts),
        report.fake_messages,
        tuple(report.quarantined_files),
    )


def _scan_fingerprints(documents, engine: type) -> list:
    pipeline = PipelineSettings().build()
    fingerprints = []
    for name, data in documents:
        report = pipeline.scan(data, name)
        interpreter = getattr(getattr(report.outcome, "handle", None), "interpreter", None)
        assert interpreter is None or type(interpreter) is engine, (name, interpreter)
        fingerprints.append(report_fingerprint(report))
    return fingerprints


@pytest.mark.slow
def test_full_pipeline_corpus_identical(monkeypatch) -> None:
    dataset = build_dataset(corpus_test_scale())
    documents = [(sample.name, sample.data) for sample in dataset.all_samples()]
    assert documents, "corpus generator produced no samples"
    documents += [(f"table-x-js {label}.pdf", data) for label, data in table_x_js_documents()]
    documents += [(f"table-x {label}.pdf", data) for label, data in table_x_documents()]
    bc_fps = _scan_fingerprints(documents, BytecodeInterpreter)
    monkeypatch.setattr(vm_mod, "BytecodeInterpreter", Interpreter)
    ast_fps = _scan_fingerprints(documents, Interpreter)
    mismatches = [
        (name, ast_fp, bc_fp)
        for (name, _), ast_fp, bc_fp in zip(documents, ast_fps, bc_fps)
        if ast_fp != bc_fp
    ]
    assert not mismatches, f"verdict divergence on {len(mismatches)} documents: {mismatches}"


def test_host_text_is_code_units_on_both_engines(monkeypatch) -> None:
    """A PDF text string reaches either engine as UTF-16 code units: the
    dropper gated on a non-BMP Title's surrogate pair fires on both."""
    builder = DocumentBuilder()
    builder.add_page("titled")
    builder.set_info(Title="\U0001f600a")
    builder.add_javascript(
        "var t = this.info.Title;"
        " if (t.length == 3 && t.charCodeAt(0) == 0xD83D && t.charAt(2) == 'a') {\n"
        + spray_script(
            150, Payload.dropper(), random.Random(1),
            exploit_call=exploit_call_for("CVE-2008-2992"),
        )
        + "\n}"
    )
    documents = [("titled.pdf", builder.to_bytes())]
    bc_fps = _scan_fingerprints(documents, BytecodeInterpreter)
    monkeypatch.setattr(vm_mod, "BytecodeInterpreter", Interpreter)
    assert _scan_fingerprints(documents, Interpreter) == bc_fps
    assert bc_fps[0][1], "the gate did not see the Title's code units"


# ---------------------------------------------------------------------------
# One production engine: nothing selects the walker any more.


def test_reader_runs_the_vm_whatever_the_environment(monkeypatch, js_doc_bytes) -> None:
    monkeypatch.setenv("REPRO_JS_ENGINE", "ast")
    report = PipelineSettings().build().scan(js_doc_bytes, "env.pdf")
    assert isinstance(report.outcome.handle.interpreter, BytecodeInterpreter)


def test_js_engine_flag_is_a_usage_error(tmp_path, js_doc_bytes, capsys) -> None:
    path = tmp_path / "doc.pdf"
    path.write_bytes(js_doc_bytes)
    with pytest.raises(SystemExit) as exit_info:
        main(["scan", "--js-engine", "ast", str(path)])
    assert exit_info.value.code == 2
    assert "--js-engine" in capsys.readouterr().err


def test_cache_fingerprint_has_no_engine_component() -> None:
    assert "js:" not in _settings_fingerprint(PipelineSettings())


# ---------------------------------------------------------------------------
# `%` on two floats, in the dispatch loop and in translated loops, against
# `_binary_op`: a regression test for any `%` path either tier takes.

#: Operands of every `%` case: NaN, ±Infinity, ±0, subnormals and the
#: decryptor's `(c - k + 65536) % 65536`.
MOD_OPERANDS = st.floats() | st.sampled_from(
    [0.0, -0.0, 65536.0, -65536.0, 5e-324, 1.5, -1.5, 1e308, math.inf, -math.inf, math.nan]
)

MOD_PROGRAM = (
    "function f(a, b) { var d = a % b, t; for (var i = 0; i < 3; i++) { t = a % b; }"
    " return [d, t]; }"
    " var r = f(A, B), e = A % B, u;"
    " for (var j = 0; j < 3; j++) { u = A % B; }"
    " r.concat([e, u])"
)


def _same_number(left: float, right: float) -> bool:
    if math.isnan(left) or math.isnan(right):
        return math.isnan(left) and math.isnan(right)
    return left == right and math.copysign(1.0, left) == math.copysign(1.0, right)


@given(MOD_OPERANDS, MOD_OPERANDS)
@settings(max_examples=800, deadline=None)
def test_float_modulo_matches_the_generic_operator(left: float, right: float) -> None:
    interp = BytecodeInterpreter()
    interp.define_global("A", left)
    interp.define_global("B", right)
    results = interp.run(MOD_PROGRAM).elements
    expected = Interpreter(install_builtins=False)._binary_op("%", left, right)
    assert len(results) == 4
    assert all(_same_number(result, expected) for result in results), (left, right, results)
    # Every `%` loop above ran translated.
    assert interp.translated_loop_runs == 2


# ---------------------------------------------------------------------------
# Typed loops: a slot-mode loop is translated for the types its frame
# slots hold when it turns hot (here, at its first back-edge), checks
# them on every entry and runs the generic translation when they differ.
# Each case runs three ways: on the walker, on the VM, and on the VM with
# every loop translated generically, the typed tier's oracle.


def _function_codes(code: Code) -> Dict[int, Code]:
    """The Code of every function declared or created in ``code``."""
    found: Dict[int, Code] = {}
    inner = [action[1] for action in code.hoist_actions if action[0] != "var"]
    inner += [arg for op, arg in zip(code.ops, code.args) if op == MAKE_FUNCTION]
    for function in inner:
        found[id(function)] = function
        found.update(_function_codes(function))
    return found


def typed_loops(source: str) -> Tuple[int, int]:
    """How many of ``source``'s function loops were translated typed, and
    how many of those ran their generic translation on some entry."""
    typed = fell_back = 0
    for code in _function_codes(compile_source(source)).values():
        for state in code.loops.values():
            if type(state) is tuple and isinstance(state[1][0], hotloop._Generic):
                typed += 1
                fell_back += state[1][0].translated is not None
    return typed, fell_back


def _generic_hot_loop(code: Code, header: int, frame: Any) -> Any:
    return hotloop.hot_loop(code, header, None)


def assert_typed_equivalent(source: str, max_steps: int = 300_000) -> Tuple[int, int]:
    """Walker, VM and generic-only VM agree; the VM run's typed_loops()."""
    walker = run_engine(Interpreter, source, max_steps)
    clear_code_cache()
    typed = run_engine(BytecodeInterpreter, source, max_steps)
    counts = typed_loops(source)
    clear_code_cache()
    with mock.patch.object(vm_mod, "hot_loop", _generic_hot_loop):
        generic = run_engine(BytecodeInterpreter, source, max_steps)
    clear_code_cache()
    assert walker == typed == generic, (
        f"divergence on:\n{source}\n  ast: {walker}\n  typed: {typed}\n  generic: {generic}"
    )
    return counts


TYPED_LOOP_CASES = {
    # Typed for a string and a number; entered with an array, a numeric
    # string and a fraction, so the entry check fails, then passes again.
    "entry-check-fails": (
        "function f(s, k) { var t = 0; for (var i = 0; i < s.length; i++) { t = t + (s[i] ^ k); }"
        " return t; } f('12345', 3) + ':' + f([1, 2, 3], 3) + ':' + f('99', '4')"
        " + ':' + f([7, 8], 1.5) + ':' + f('678', 3)"
    ),
    # A number slot and a string slot the loop rewrites with other types.
    "slot-rewritten": (
        "function f(n) { var x = 0, y = 'a', z = true; for (var i = 0; i < n; i++) {"
        " if (i == 2) { x = 'x' + x; y = i; } if (i == 4) { z = [i]; } x = x + 1; y = y + i;"
        " z = z + ''; } return x + ':' + y + ':' + z; } f(7)"
    ),
    # The length of a string slot the loop writes is read afresh; the
    # one it never writes is read once per entry.
    "string-lengths": (
        "function f(s) { var p = 'ab', n = 0; while (p.length < 40 && n < s.length) { p = p + p; n++; }"
        " return p.length + ':' + n; } f('0123456789')"
    ),
    # Every kind of constant, in arithmetic, comparisons and branches.
    "constants": (
        "function f(n) { var r = '', c = 0, b = false; for (var i = 0; i < n; i++) {"
        " c = c + (i & 1 ? true : false) + null + (i < 2 ? -0 : 0.5) * 2 - 1e308 * 10 + (1 / -0);"
        " b = !b; if (b === true) { c = c - 1; } if ('x') { r = r + i; } if ('') { r = r + '?'; }"
        " r = r + undefined + 'x' + 'yz' + (c === c) + (i === 'x') + (true === (i < 3)) + (null == i)"
        " + (1 / 0) + (i < 'b') + ('a' < 'b') + typeof c + (i & 2147483648) + (i | 4294967295); }"
        " return r + ':' + c + ':' + (1 / c); } f(5)"
    ),
    # Int32 operators on literals of every type and on a never-written
    # slot outside the int32 range, whose ToInt32 is taken once.
    "int32-operands": (
        "function f(k, n) { var t = 0; for (var i = 0; i < n; i++) {"
        " t = t + (i ^ k) + (k & i) + (i | 4294967296.5) + (i & -2147483649) + (i ^ NaN)"
        " + (i & 'x') + (i | '12') + (i & null) + (i ^ true) + (i & undefined) + (1e10 ^ i)"
        " + (t & 65535) + (k | k) + (2.5 ^ 7); } return t; }"
        " f(2147483648, 4) + ':' + f(NaN, 3) + ':' + f(-1.5, 3) + ':' + f(Infinity, 2)"
        " + ':' + f(-1e300, 2) + ':' + f(4294967301, 2)"
    ),
    # charCodeAt and charAt with indexes the fast path does not take,
    # proven numbers (n) and values of any type (k).
    "char-indexes": (
        "function f(s, idx) { var out = ''; for (var j = 0; j < idx.length; j++) {"
        " var k = idx[j], n = k * 1;"
        " out = out + s.charCodeAt(k) + ',' + s.charCodeAt(n) + ',' + s.charAt(k) + ','"
        " + s.charAt(n) + ',' + s.charCodeAt() + s.charAt(n, 1) + ';'; } return out; }"
        " f('ab\\ud83d\\ude00', [0, 1.5, 2.9, 3, 4, -0, -0.5, -1, NaN, Infinity, -Infinity, 1e300,"
        " -1e300, 4294967296, 4294967297, '1', null, undefined, true, [2]])"
    ),
    # Branches nested deeper than Python's 100 indentation levels, each
    # rejoining before the latch: the deepest blocks get dispatch cases
    # of their own.
    "deep-nesting": (
        "function f(n) { var t = 1, c = 0; for (var i = 0; i < n; i++) { "
        + "if (t) { " * 110 + "c++; " + "} " * 110
        + "c = c + 2; } return c; } f(3)"
    ),
    "fromCharCode-replaced-before": (
        "String.fromCharCode = function (c) { return '<' + c + '>'; };"
        " function f(n) { var out = ''; for (var i = 0; i < n; i++)"
        " { out = out + String.fromCharCode(65 + i); } return out; } f(5)"
    ),
    "fromCharCode-replaced-inside": (
        "function repl(c) { return '#' + c; } var o = {fromCharCode: String.fromCharCode};"
        " function f(n) { var out = ''; for (var i = 0; i < n; i++) {"
        " if (i == 3) String.fromCharCode = repl; if (i == 5) String.fromCharCode = unescape;"
        " if (i == 6) String.fromCharCode = 7;"
        " out = out + o.fromCharCode(67 + i) + String.fromCharCode(65 + i)"
        " + String.fromCharCode('66') + String.fromCharCode(70000 + i) + String.fromCharCode(-1); }"
        " return out; } f(8)"
    ),
}


@pytest.mark.parametrize("source", TYPED_LOOP_CASES.values(), ids=TYPED_LOOP_CASES.keys())
def test_typed_loops(source: str) -> None:
    typed, fell_back = assert_typed_equivalent(source)
    assert typed > 0, "no loop was translated typed"
    if source == TYPED_LOOP_CASES["entry-check-fails"]:
        assert fell_back == typed, "the entry check never failed"


#: Loops the typed tier exists for: the Table X tiers' work() loop on a
#: short string, and the wrapper's three decryptors.
TYPED_SWEEP_CASES = [
    (
        "function work() { var acc = 0; var p = 'ab01cd'; var out = ''; var key = 77;"
        " for (var i = 0; i < p.length; i++) { acc = (acc + (p.charCodeAt(i) ^ key) * 3) & 16777215;"
        " if ((i & 3) === 0) { out += String.fromCharCode(65 + (acc & 15)); } }"
        " return acc + ':' + out.length; } work()"
    ),
    *(
        _decryptor_js("__q", scheme, 1201) + f" __qdec('{text}');"
        for scheme, text in (("xor", "ӶӴӹ"), ("shift", "ӖӗӘ"),
                             ("reverse-shift", "ӘӗӖ"))
    ),
]


@pytest.mark.parametrize("source", TYPED_SWEEP_CASES, ids=lambda s: s[:40])
def test_typed_loop_budget_sweep(source: str) -> None:
    """The budget blows at the same tick, with the same telemetry, at
    every cutoff from the first step to past the last."""
    _, full_steps, _, _ = run_engine(Interpreter, source, max_steps=100_000)
    clear_code_cache()
    for max_steps in range(1, full_steps + 2):
        ast_run = run_engine(Interpreter, source, max_steps)
        bc_run = run_engine(BytecodeInterpreter, source, max_steps)
        assert ast_run == bc_run, (
            f"divergence at max_steps={max_steps} on:\n{source}\n"
            f"  ast: {ast_run}\n  bytecode: {bc_run}"
        )
    assert typed_loops(source) == (1, 0)
    assert_typed_equivalent(source)
