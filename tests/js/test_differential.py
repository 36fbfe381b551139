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
from typing import Any, Tuple
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
from repro.js.compiler import Code, clear_code_cache
from repro.js.interpreter import Host, Interpreter
from repro.js.values import UNDEFINED
from repro.js.vm import BytecodeInterpreter
from repro.pdf.builder import DocumentBuilder
from repro.reader.payload import Payload
from tests.js.golden_disasm import GOLDEN_SCRIPTS
from tests.js.walker_reference import Walker

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
    ast_run = run_engine(Walker, source, max_steps)
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


#: A declaration, an empty statement and a block of only those produce
#: no value, so the statement list keeps the one before them (ES5
#: §12.1, §14): each source maps to the ES5 value both engines must give.
EMPTY_COMPLETION_CASES = {
    "1; function f() {}": 1.0,
    "eval('1; function f() {}')": 1.0,
    "eval('2; var x = 3;')": 2.0,
    "eval('3;;')": 3.0,
    "eval('4; if (true) var y;')": 4.0,
    "eval('5; { var z; }')": 5.0,
    "6; {}": 6.0,
    "7; if (true) { function g() {} }": 7.0,
    "eval('8; var u; 9; var w;')": 9.0,
    "var n = 0; while (n < 3) { n++; var m = n; } eval('10; var v = n;')": 10.0,
    # An untaken `if` without `else` has no value (ES5 §12.5), and a
    # `try` is its taken block's value, which may be none (§12.14).
    "4; if (false) 1;": 4.0,
    "eval('4; if (0) 1;')": 4.0,
    "11; if (false) 1; else var t;": 11.0,
    "8; try { var q; } catch (e) {}": 8.0,
    "eval('8; try { var q; } catch (e) {}')": 8.0,
    "12; try { throw 1; } catch (e) { var c; }": 12.0,
    "13; try { throw 1; } catch (e) { 14; }": 14.0,
    "15; try { 16; } finally { 17; }": 16.0,
    "18; try { } finally { 19; }": 18.0,
    "20; try { try { var d; } finally { } } catch (e) { }": 20.0,
    "try { var q; } catch (e) {}": UNDEFINED,
}


@pytest.mark.parametrize("source", EMPTY_COMPLETION_CASES, ids=lambda s: s[:48])
def test_empty_completions_follow_es5(source: str) -> None:
    assert_equivalent(source)
    status = run_engine(BytecodeInterpreter, source)[0]
    assert status == ("ok", repr(EMPTY_COMPLETION_CASES[source]))


#: ``replace`` with a string search value expands ``$$``, ``$&``,
#: ``$` `` and ``$'`` in its replacement (ES5 §15.5.4.11, Table 22);
#: ``$n`` names a capture a string pattern lacks, so it stays as it is.
REPLACE_PATTERN_CASES = {
    "'abc'.replace('b', '$&$&')": "abbc",
    "'abc'.replace('b', \"[$`|$'|$$|$1|$&|$]\")": "a[a|c|$|$1|b|$]c",
    "'abc'.replace('x', '$&')": "abc",
    "'abc'.replace('', '$&-$`-')": "--abc",
    "'a$c'.replace('$', '$$$$')": "a$$c",
    "'aXbXc'.replace('X', '$$&')": "a$&bXc",
    "'abc'.replace('c', \"$'!\")": "ab!",
    "function f(s) { var t = ''; for (var i = 0; i < 3; i++) { t = t + s.replace('b', '<$&$`>'); }"
    " return t; } f('abc')": "a<ba>ca<ba>ca<ba>c",
}


@pytest.mark.parametrize("source", REPLACE_PATTERN_CASES, ids=lambda s: s[:48])
def test_replace_patterns_follow_es5(source: str) -> None:
    assert_equivalent(source)
    status = run_engine(BytecodeInterpreter, source)[0]
    assert status == ("ok", repr(REPLACE_PATTERN_CASES[source]))


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
    # `%` on two floats whose divisor turns 0, then dividend Infinity:
    # the typed `%`'s slow branch at every cutoff.
    (
        "var t = 0, d = 5, x = 7, nans = 0; for (var i = 0; i < 6; i++) {"
        " if (i == 2) d = 0; if (i == 4) { x = 1 / 0; d = 3; }"
        " var r = x % d; if (r != r) nans++; else t = t + r * i; } t + ':' + nans"
    ),
    # A callee rebinds a global the loop has cached, and changes its
    # type: the loop writes its names back before the call and reads
    # them again after it.
    (
        "var g = 1, t = ''; function flip(i) { if (i == 1) g = 'x' + t.length; if (i == 3) g = [i]; }"
        " for (var i = 0; i < 5; i++) { t = t + (g + 1) + ','; flip(i); } t + typeof g"
    ),
    # The length and ToInt32 of names the loop never writes, which a
    # callee rebinds: after the call neither is known.
    (
        "var c = 'ab', k = 3, t = 0; function grow(i) { if (i == 2) { c = c + 'xyz'; k = 2.5e9; } }"
        " for (var i = 0; i < 5; i++) { t = t + c.length + (i | k); grow(i); } t + ':' + c.length"
    ),
    # A callee creates an implicit global after the loop was translated,
    # which the loop then reads through the bindings dict.
    (
        "function mk(i) { made = i * 2; } var t = 0;"
        " for (var i = 0; i < 5; i++) { if (i == 2) mk(i); if (i > 2) t = t + made; }"
        " t + ':' + made"
    ),
    # `typeof` of an undeclared name, of a cached one, and of an
    # implicit global the loop itself creates.
    (
        "var n = ''; for (var i = 0; i < 4; i++) {"
        " n = n + typeof nope + typeof n + typeof later; if (i == 1) later = i; }"
        " n + typeof later"
    ),
    # `var x = undefined` in the loop body keeps a cached name's value,
    # as it keeps a bound name's (DECLARE_POP).
    (
        "var x = 5, t = ''; for (var i = 0; i < 4; i++) {"
        " var x = undefined; t = t + x; var y = i; t = t + y; x = i; } t + ':' + x + ':' + y"
    ),
    # Host calls between reads: parseInt, and an indirect eval that runs
    # against the global scope and rebinds a cached name.
    (
        "var ev = eval, c = 0, t = 0; for (var i = 0; i < 4; i++) {"
        " t = t + parseInt('1' + i) + c; ev('c = c + 2'); t = t + c; } t + ':' + c"
    ),
    # A callee rebinds a cached name and then throws out of the loop:
    # its binding stands, and the loop writes nothing back over it.
    (
        "var a = 0; function bump(i) { a = 'b' + i; if (i == 2) throw 'stop'; }"
        " try { for (var i = 0; i < 5; i++) { a = a + 1; bump(i); } } catch (e) { a = a + e; } a"
    ),
    # An eval'd loop in a function that calls eval: the function's own
    # names are cached, and the global `g2` is read through lookup().
    (
        "var g2 = 1; function run(s) { var t = '';"
        " eval('for (var i = 0; i < 4; i++) { t = t + s + g2; }'); return t + i; } run('a')"
    ),
]

#: Env-mode loops entered a second time with a variable of another
#: type: the entry check fails, and the dispatch loop runs the loop.
ENV_REENTRY_CASES = [
    # One eval'd Code, typed for a number in `g`.
    (
        "var src = 'for (var i = 0; i < 4; i++) { t = t + g; }', t = 0, g = 1;"
        " eval(src); g = 'x'; eval(src); t"
    ),
    # An env-mode function (it declares a closure) typed for its first
    # call's argument.
    (
        "function f(a) { function id(v) { return v; } var t = 0;"
        " for (var i = 0; i < 3; i++) { t = t + a; } return t; } f(1) + ':' + f('s') + ':' + f(2)"
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
    *ENV_REENTRY_CASES,
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


def _no_translation(code: Code, header: int, frame: Any, env: Any) -> None:
    return None


def run_dispatch_only(source: str, max_steps: int) -> Tuple[Any, int, int, int]:
    """``run_engine`` on the VM with translation off: every loop runs on
    the dispatch loop, the translated tier's oracle beside the walker."""
    with mock.patch.object(vm_mod, "hot_loop", _no_translation):
        return run_engine(BytecodeInterpreter, source, max_steps)


def run_watching_loops(source: str, max_steps: int) -> Tuple[Tuple[Any, int, int, int], list]:
    """``run_engine`` on the VM, logging each translated-loop entry as
    ``(loop, kind)``.  ``kind`` is "ran" when the function ran some of
    the loop; "entry failed" when it returned to the header at once
    with budget to spare for the header's block, so its entry check
    failed; "fallback" when it returned to a pc inside the loop whose
    block does not fit the budget left (a run guard); and "early
    fallback" when it returned inside the loop with the block fitting,
    which no guard may do."""
    events: list = []

    def watching_hot_loop(code: Code, header: int, frame: Any, env: Any) -> Any:
        translated = hotloop.hot_loop(code, header, frame, env)
        if translated is None:
            return None
        function, constants = translated
        end = hotloop._loop_end(code, header)
        blocks = hotloop._blocks(code, header, end)
        assert blocks is not None
        key = (id(code), header)

        def watched(interp: Any, frame: Any, env: Any, this: Any, steps: int, *rest: Any) -> Any:
            try:
                pc, after, value = function(interp, frame, env, this, steps, *rest)
            except BaseException:
                events.append((key, "ran"))
                raise
            if header <= pc <= end:
                stop = next(block.stop for block in blocks if block.start <= pc < block.stop)
                fits = after + sum(code.charges[pc:stop]) <= interp.max_steps
                if pc == header and after == steps:
                    events.append((key, "entry failed" if fits else "fallback"))
                    return pc, after, value
                events.append((key, "ran"))
                events.append((key, "early fallback" if fits else "fallback"))
            else:
                events.append((key, "ran"))
            return pc, after, value

        return watched, constants

    clear_code_cache()
    with mock.patch.object(vm_mod, "hot_loop", watching_hot_loop):
        footprint = run_engine(BytecodeInterpreter, source, max_steps)
    clear_code_cache()
    return footprint, events


def translated_counts(events: list) -> Tuple[int, int]:
    """How many loops ran translated, and how many of those failed an
    entry check on some entry."""
    ran = {key for key, kind in events if kind == "ran"}
    failed = {key for key, kind in events if kind == "entry failed"}
    return len(ran), len(ran & failed)


def assert_fallbacks_exhaust(footprint: Any, kinds: list, where: str) -> bool:
    """A run guard returns to the dispatch loop only when its block does
    not fit the budget left, so the dispatch loop then raises before
    any loop is entered again; whether one did."""
    assert "early fallback" not in kinds, f"a guard fell back early {where}"
    if "fallback" not in kinds:
        return False
    assert kinds[-1] == "fallback", f"a loop ran after a fallback {where}"
    assert footprint[0][:2] == ("err", "ResourceLimitExceeded"), (
        f"a guard fell back with budget to spare {where}: {footprint}"
    )
    return True


@pytest.mark.parametrize("source", SWEEP_CASES, ids=lambda s: s[:40])
def test_budget_exhaustion_sweep(source: str) -> None:
    """At every cutoff the walker, the VM and the VM with translation
    off agree; a guard falls back only when the budget runs out in its
    block; a loop's entry check fails only where the case enters it
    with other types; and every loop case runs translated."""
    _, full_steps, _, _ = run_engine(Walker, source, max_steps=2_000)
    cutoffs = range(1, min(full_steps + 2, 400))
    ran = 0
    for max_steps in cutoffs:
        ast_run = run_engine(Walker, source, max_steps)
        bc_run, events = run_watching_loops(source, max_steps)
        off_run = run_dispatch_only(source, max_steps)
        assert ast_run == bc_run == off_run, (
            f"divergence at max_steps={max_steps} on:\n{source}\n"
            f"  ast: {ast_run}\n  bytecode: {bc_run}\n  dispatch loop: {off_run}"
        )
        kinds = [kind for _, kind in events]
        assert_fallbacks_exhaust(bc_run, kinds, f"at max_steps={max_steps}")
        if source not in ENV_REENTRY_CASES:
            assert "entry failed" not in kinds, f"an entry check failed at {max_steps}"
        ran += kinds.count("ran")
    if source in SLOT_LOOP_SWEEP_CASES or source in ENV_LOOP_SWEEP_CASES or source in ENV_REENTRY_CASES:
        assert ran > 0, "the sweep never ran the loop translated"
        _, events = run_watching_loops(source, max_steps=full_steps + 1)
        ran_full, failed_full = translated_counts(events)
        assert ran_full > 0, "the loop did not run translated on the full budget"
        if source in ENV_REENTRY_CASES:
            assert failed_full == ran_full, "the entry check never failed"


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
    ast_run = run_engine(Walker, source, max_steps=3_000)
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
    monkeypatch.setattr(vm_mod, "BytecodeInterpreter", Walker)
    ast_fps = _scan_fingerprints(documents, Walker)
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
    monkeypatch.setattr(vm_mod, "BytecodeInterpreter", Walker)
    assert _scan_fingerprints(documents, Walker) == bc_fps
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
# Typed loops: a loop is translated for the types its variables hold when
# it turns hot (here, at its first back-edge), checks them on every entry
# and returns to the dispatch loop at its header when they differ.  Each
# case runs three ways: on the walker, on the VM, and on the VM with
# translation off, where the dispatch loop runs every loop.


def assert_typed_equivalent(source: str, max_steps: int = 300_000) -> Tuple[int, int]:
    """Walker, VM and dispatch-only VM agree; the VM run's
    ``translated_counts``."""
    walker = run_engine(Walker, source, max_steps)
    typed, events = run_watching_loops(source, max_steps)
    dispatch = run_dispatch_only(source, max_steps)
    assert walker == typed == dispatch, (
        f"divergence on:\n{source}\n  ast: {walker}\n  typed: {typed}\n  dispatch loop: {dispatch}"
    )
    return translated_counts(events)


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
    assert typed > 0, "no loop ran translated"
    if source == TYPED_LOOP_CASES["entry-check-fails"]:
        assert fell_back == typed, "the entry check never failed"
    else:
        assert fell_back == 0, "an entry check failed"


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
    _, full_steps, _, _ = run_engine(Walker, source, max_steps=100_000)
    clear_code_cache()
    for max_steps in range(1, full_steps + 2):
        ast_run = run_engine(Walker, source, max_steps)
        bc_run = run_engine(BytecodeInterpreter, source, max_steps)
        assert ast_run == bc_run, (
            f"divergence at max_steps={max_steps} on:\n{source}\n"
            f"  ast: {ast_run}\n  bytecode: {bc_run}"
        )
    assert assert_typed_equivalent(source) == (1, 0)


# ---------------------------------------------------------------------------
# Charge runs: a typed loop charges the step budget once per call-free run
# of a block, opening it with one guard, and adds the run's pending charge
# to ``steps`` only where ``steps`` can be seen.  Each case puts one such
# place inside a run: a slow branch that must add the pending charge and
# take it back, a helper call that keeps it, a raise, or a general call
# that ends the run.

TYPED_RUN_SWEEP_CASES = {
    # `| 0` and `& 65535` on a number outside the int32 range: the slow
    # branch calls binary_op inside the run.
    "int32-out-of-range": (
        "function f(n) { var t = 0, u = 0; for (var i = 0; i < n; i++) {"
        " t = (t + 3e9 * i) | 0; u = u + (t & 65535) + i; } return t + ':' + u; } f(4)"
    ),
    # charCodeAt before, inside and past the string: the out-of-range
    # indexes call the builtin inside the run.
    "charCodeAt-out-of-range": (
        "function f(s) { var t = 0; for (var i = -2; i < s.length + 2; i++) {"
        " t = t + s.charCodeAt(i + 1) + (s.charCodeAt(i) | 0); } return t; } f('abc')"
    ),
    # A string `+` charges the reader for the new string inside the run.
    "string-plus": (
        "function f(n) { var s = 'x', c = 'yz'; for (var i = 0; i < n; i++) {"
        " s = s + c + i; c = c + 'w'; } return s + ':' + c.length; } f(4)"
    ),
    # An element read from undefined raises a TypeError from the slow
    # branch of the element fast path, inside the run.
    "slow-branch-raises": (
        "function f(rows) { var t = 0; for (var i = 0; i < 5; i++) { t = t + i * 2 + rows[i][0]; }"
        " return t; } var r; try { r = f([[1], [2], [3]]); } catch (e) { r = e.name; } r + ':' + r.length"
    ),
    # A read of an undeclared global raises a ReferenceError out of the
    # run, which code outside the loop catches and goes on from.
    "undeclared-global": (
        "function f(n) { var t = 0; for (var i = 0; i < n; i++) { t = t + i * 2 + 1;"
        " if (i == 3) { t = t + i + missing; } } return t; }"
        " var r; try { r = f(6); } catch (e) { r = e.name + ':' + 'caught'; } r + ':' + r.length"
    ),
    # The general fromCharCode branch runs JS code that charges the budget
    # and allocates; the instructions after it are charged one by one.
    "general-fromCharCode": (
        "var calls = 0; String.fromCharCode = function (c) { calls++; return 'ab' + c; };"
        " function f(n) { var out = ''; for (var i = 0; i < n; i++) {"
        " out = out + String.fromCharCode(65 + i) + 'cd' + i; } return out + ':' + calls; } f(4)"
    ),
    # `%` on two floats whose divisor turns 0 and dividend Infinity:
    # the typed translation's fmod path takes its slow branch in the run.
    "modulo-slow-branch": (
        "function f(n) { var t = 0, d = 5, x = 7, nans = 0, r; for (var i = 0; i < n; i++) {"
        " if (i == 2) { d = 0; } if (i == 4) { x = 1 / 0; d = 3; }"
        " r = x % d; if (r != r) { nans++; } else { t = t + r * i; } }"
        " return t + ':' + nans; } f(6)"
    ),
    # A general call to a script function ends the run the same way.
    "general-call": (
        "function g(x) { return 'g' + x; }"
        " function f(n) { var t = 0, s = ''; for (var i = 0; i < n; i++) {"
        " t = t + i * 2; s = s + g(i) + 'ab' + t; } return s; } f(4)"
    ),
}


@pytest.mark.parametrize(
    "source", TYPED_RUN_SWEEP_CASES.values(), ids=TYPED_RUN_SWEEP_CASES.keys()
)
def test_typed_run_budget_sweep(source: str) -> None:
    """At every cutoff the walker, the VM and the VM with translation off
    agree; a guard falls back only when the budget runs out in its run,
    so the dispatch loop then raises before any loop is entered again."""
    assert assert_typed_equivalent(source) == (1, 0), "the loop did not run translated"
    _, full_steps, _, _ = run_engine(Walker, source, max_steps=100_000)
    fallbacks = 0
    for max_steps in range(1, full_steps + 2):
        assert_typed_equivalent(source, max_steps)
        footprint, events = run_watching_loops(source, max_steps)
        kinds = [kind for _, kind in events]
        assert "entry failed" not in kinds, f"an entry check failed at {max_steps}"
        fallbacks += assert_fallbacks_exhaust(footprint, kinds, f"at max_steps={max_steps}")
    assert fallbacks > 0, "no guard ever fell back"
