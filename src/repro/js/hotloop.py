"""Hot-loop translator: JS loops run as generated Python.

The bytecode VM (:mod:`repro.js.vm`) counts the back-edges of every
loop, in function bodies and in program or ``eval`` code alike.  Once
a loop's back-edge ``JUMP`` has been taken :data:`HOT_LOOP_THRESHOLD`
times with an empty operand stack and no live for-in iterator,
:func:`hot_loop` translates the loop — the instructions from its
header to its last back-edge within :data:`MAX_LOOP_INSTRS` of it —
into one Python function.  The VM enters that function at the loop
header and resumes its dispatch loop at whatever pc the loop exits to.
Code outside hot loops stays on the dispatch loop.

Translations are cached by their source (below), so at a loop's
second back-edge :func:`hot_loop` generates the source and looks it
up: a loop whose shape some other ``Code`` already made hot (each
document's decryptor, say) runs translated from there on, without a
``compile()``, and the threshold only bounds the compiling of shapes
not seen before.

**Variables.**  Operand-stack slots become Python locals (``s0``,
``s1``, ...), and so do the loop's variables (``l0``, ...):

* in slot mode (a function body whose locals live in a frame only the
  running loop can touch), each frame slot the loop uses, read on
  entry and written back on every way out;
* in env mode (program and ``eval`` code, and functions with closures,
  ``eval`` or ``try``), each name the loop uses that the running
  scope's own bindings hold on entry: a pseudo-slot (:class:`_View`).
  Only a call can run JS code in this engine (conversions never call
  script, and ``eval`` and ``sort``'s comparator are reached only
  through calls), so the loop writes the names it assigns back to the
  bindings before every general call, including the inline
  ``fromCharCode``'s general path, and reads every cached name again
  after it, knowing nothing of their types from there on.  Every way
  out writes them back too, except a call that raised: its callee's
  bindings stand.  A name the scope does not bind on entry is read and
  written through the bindings dict, then ``env.lookup`` or
  ``env.assign``, at every execution.

A loop is translated for the types its variables hold when it is
looked up, and checks them, and in env mode that each cached name is
still bound, once per entry; when one differs the function returns to
the dispatch loop at the header, which runs the loop from there.

A translated loop is observably identical to the dispatch loop:

* the budget runs out on the same instruction, after the same side
  effects, with the same clamp to ``max_steps + 1``: the loop checks
  once per call-free run and falls back to the dispatch loop at the
  run's start when the run does not fit (see :class:`_Generator`);
* ``interp.steps`` is synced around every call exactly where the
  dispatch loop syncs it, and on every way out of the function;
* ``_record_string`` runs at the same points;
* the completion register of program and ``eval`` code comes in as an
  argument and goes back out on every exit to the dispatch loop;
* a ``BreakSignal``/``ContinueSignal`` unwinding out of a call maps
  through the fragment's region table from the call's own pc, and the
  dispatch loop resumes at the target.

**Attacker-controlled values never enter generated source.**  Names,
property names and literals reach the function only through its
constants tuple, which holds the ``Code``'s own literal objects (the
spray pool dedupes by identity).  Operators map through fixed tables.
The only values formatted into the source are compiler-produced ints
(slot indices, pcs and charges); the rest is fixed text, such as the
element fast path's index bound.  The source therefore depends only on
the loop's shape, on the types it was translated for, on which names
the scope bound, and on which of a fixed set of property names an
access uses, and compiled functions are memoised by source text
(:func:`repro.js.compiler.cached_loop_function`).

Generating a loop's source and ``compile()`` time are outside the JS
step budget, so the scan's deadline is checked before each generation,
and two module constants bound it: a loop is compiled only after
:data:`HOT_LOOP_THRESHOLD` back-edges, and a translation reads and
compiles at most :data:`MAX_LOOP_INSTRS` instructions; a loop with no
back-edge that close to its header is never translated.  Loops holding an op
outside the translator's set (``EXEC_TRY``, ``FORIN_*``,
``DIRECT_EVAL``, ``MAKE_FUNCTION``, ``NEW``, ``RAISE_*``, ...) stay on
the dispatch loop.
"""

from __future__ import annotations

import hashlib
import math
from types import FunctionType
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple, cast

from repro.js.builtins import STRING_METHODS, string_from_char_code
from repro.js.compiler import (
    ARRAY,
    BINARY,
    CALL,
    CALL_THIS,
    CALL_THIS_DYN,
    CONST,
    DECLARE,
    DECLARE_POP,
    DECLARE_SLOT_POP,
    DELETE_MEMBER,
    DELETE_MEMBER_EXPR,
    DUP,
    INC_SLOT,
    INCDEC,
    JUMP,
    JUMP_IF_FALSE,
    JUMP_IF_FALSE_KEEP,
    JUMP_IF_STRICT_EQ,
    JUMP_IF_TRUE,
    JUMP_IF_TRUE_KEEP,
    LOAD_NAME,
    LOAD_SLOT,
    LOAD_THIS,
    MEMBER_GET,
    MEMBER_GET_EXPR,
    MEMBER_SET,
    MEMBER_SET_EXPR,
    METHOD_LOOKUP,
    METHOD_LOOKUP_EXPR,
    NOP,
    OBJECT,
    POP,
    RETURN,
    ROT3,
    SET_COMPL,
    SET_COMPL_UNDEF,
    STORE_NAME,
    STORE_SLOT,
    STORE_SLOT_POP,
    STRING,
    SWAP,
    THROW,
    TO_NUMBER,
    TYPEOF,
    TYPEOF_NAME,
    UNARY,
    Code,
    cached_loop_function,
    cached_loop_lookup,
    signal_target,
)
from repro.js.errors import (
    BreakSignal,
    ContinueSignal,
    JSRuntimeError,
    JSThrow,
    ResourceLimitExceeded,
    check_deadline,
)
from repro.js.interpreter import Environment
from repro.js.values import (
    JSArray,
    JSObject,
    NativeFunction,
    UNDEFINED,
    is_callable,
    strict_equals,
    to_int32,
    to_number,
    to_string,
    truthy,
    type_of,
)

#: Back-edges a loop takes on the dispatch loop before it is compiled,
#: when the loop cache does not hold its translation already.
#: Translating a loop costs about as much as ~165 of its iterations on
#: the dispatch loop, so by the 128th back-edge the interpretation
#: already done has paid for most of the compile (docs/JS_ENGINE.md).
HOT_LOOP_THRESHOLD = 128

#: Most instructions one translation reads and compiles, counted from the
#: loop header: ``compile()`` time and memory grow with loop length,
#: outside the step budget and the deadline (docs/JS_ENGINE.md,
#: docs/HARDENING.md).
MAX_LOOP_INSTRS = 256

#: ``(interp, frame, env, this, steps, compl, constants) -> (pc, steps,
#: value)``.  ``pc`` is where the dispatch loop resumes, with ``value``
#: the completion register; or -1 when the loop executed ``RETURN`` with
#: ``value``.
LoopFunction = Callable[..., Tuple[int, int, Any]]
Translated = Tuple[LoopFunction, Tuple[Any, ...]]

#: A pseudo-op of env-mode views: ``typeof`` of a cached name.
TYPEOF_SLOT = -1

_CONDITIONAL = frozenset((
    JUMP_IF_FALSE, JUMP_IF_TRUE, JUMP_IF_FALSE_KEEP, JUMP_IF_TRUE_KEEP,
    JUMP_IF_STRICT_EQ,
))
_TERMINATORS = frozenset((JUMP, RETURN, THROW))

#: Ops with a fixed stack effect ``(pops, pushes)``; the rest are
#: computed from their argument in :func:`_stack_effect`.
_FIXED_EFFECT: Dict[int, Tuple[int, int]] = {
    LOAD_NAME: (0, 1), LOAD_SLOT: (0, 1), CONST: (0, 1), STRING: (0, 1),
    BINARY: (2, 1), STORE_SLOT: (1, 1), STORE_NAME: (1, 1),
    JUMP_IF_FALSE: (1, 0), JUMP: (0, 0), POP: (1, 0), MEMBER_GET: (1, 1),
    METHOD_LOOKUP: (1, 2), DUP: (1, 2), INCDEC: (1, 1), TO_NUMBER: (1, 1),
    JUMP_IF_TRUE: (1, 0), JUMP_IF_STRICT_EQ: (1, 0), SWAP: (2, 2),
    ROT3: (3, 3), MEMBER_GET_EXPR: (2, 1), MEMBER_SET: (2, 1),
    MEMBER_SET_EXPR: (3, 1), METHOD_LOOKUP_EXPR: (2, 3), UNARY: (1, 1),
    TYPEOF: (1, 1), TYPEOF_NAME: (0, 1), TYPEOF_SLOT: (0, 1), DELETE_MEMBER: (1, 1),
    DELETE_MEMBER_EXPR: (2, 1), DECLARE_SLOT_POP: (1, 0), LOAD_THIS: (0, 1),
    RETURN: (1, 0), THROW: (1, 0), NOP: (0, 0), INC_SLOT: (0, 0),
    STORE_SLOT_POP: (1, 0), SET_COMPL: (1, 0), SET_COMPL_UNDEF: (0, 0),
    DECLARE: (0, 0), DECLARE_POP: (1, 0),
    # The KEEP jumps pop on the fall-through edge only; the taken edge
    # keeps the tested value (see _blocks).
    JUMP_IF_FALSE_KEEP: (1, 0), JUMP_IF_TRUE_KEEP: (1, 0),
}

#: Every op the translator handles.  Anything else keeps its loop on
#: the dispatch loop.
_TRANSLATABLE = frozenset(_FIXED_EFFECT) | {CALL, CALL_THIS, CALL_THIS_DYN, ARRAY, OBJECT}

#: All-float BINARY fast paths: the dispatch loop's inline arithmetic.
_FLOAT_OPS: Dict[str, str] = {
    "+": "{l} + {r}", "-": "{l} - {r}", "*": "{l} * {r}",
    "<": "{l} < {r}", ">": "{l} > {r}", "<=": "{l} <= {r}", ">=": "{l} >= {r}",
    "===": "{l} == {r}", "==": "{l} == {r}", "!==": "{l} != {r}", "!=": "{l} != {r}",
}
#: In-range int32 bitwise fast paths.
_INT32_OPS: Dict[str, str] = {"^": "^", "&": "&", "|": "|"}
#: Operators that go to ``_binary_op`` unless ``typed_binary`` proves
#: an inline form (``%`` with a float operand).
_SLOW_OPS = frozenset(("/", "%", "<<", ">>", ">>>", "instanceof", "in"))
#: Canonical operator text, so generated source never echoes an arg.
_OP_TEXT: Dict[str, str] = {
    op: op for op in (*_FLOAT_OPS, *_INT32_OPS, *_SLOW_OPS)
}

_UNARY_OPS: Dict[str, str] = {
    "!": "not truthy({v})",
    "-": "-to_number({v})",
    "+": "to_number({v})",
    "~": "float(~to_int32({v}))",
    "void": "UNDEFINED",
}
#: INC_SLOT / INCDEC deltas.
_DELTAS: Dict[float, str] = {1.0: "1.0", -1.0: "-1.0"}


def hot_loop(
    code: Code, header: int, frame: Optional[List[Any]], env: Environment
) -> Optional[Translated]:
    """Count one back-edge to ``header``; the loop's translation once hot.

    ``frame`` is the fragment's slot-mode frame (``None`` in env mode),
    whose slot types a slot-mode loop is translated for; an env-mode
    loop is translated for the names ``env`` binds itself.  At the
    second back-edge the loop's source is generated and looked up in
    the loop cache, without compiling: a loop some other ``Code``
    already made hot is entered at once, and a loop that cannot be
    translated is marked "never".  Otherwise the loop is translated at
    the :data:`HOT_LOOP_THRESHOLD`-th back-edge.  Both first check the
    scan's deadline, since neither is charged to the step budget.
    Returns ``None`` while the loop is still being counted and for good
    when it cannot be translated.  Threads sharing ``code`` may race on
    the count (a lost increment only delays translation, or repeats
    the lookup) or translate the same loop twice (both get working
    translations).
    """
    loops = code.loops
    state = loops.get(header, 0)
    if type(state) is not int:
        return cast(Optional[Translated], state)
    state += 1
    if state == 2 and state < HOT_LOOP_THRESHOLD:
        check_deadline()
        plan = loop_source(code, header, frame, env)
        if plan is None:
            loops[header] = None
            return None
        function = cached_loop_lookup(plan[0])
        if function is not None:
            translated: Optional[Translated] = (function, plan[1])
            loops[header] = translated
            return translated
    if state < HOT_LOOP_THRESHOLD:
        loops[header] = state
        return None
    check_deadline()
    translated = translate_loop(code, header, frame, env)
    loops[header] = translated
    return translated


def translate_loop(
    code: Code, header: int, frame: Optional[List[Any]], env: Environment
) -> Optional[Translated]:
    """The loop at ``header`` as ``(function, constants)``, or ``None``:
    :func:`loop_source`, compiled once per process."""
    plan = loop_source(code, header, frame, env)
    if plan is None:
        return None
    return cached_loop_function(plan[0], _build), plan[1]


def loop_source(
    code: Code, header: int, frame: Optional[List[Any]], env: Environment
) -> Optional[Tuple[str, Tuple[Any, ...]]]:
    """Generated source and constants tuple for the loop at ``header``,
    typed for the values ``frame``'s slots hold, or in env mode
    (``frame`` is ``None``) the names ``env`` binds itself.

    ``None`` when the loop stays on the dispatch loop: it has no
    back-edge within :data:`MAX_LOOP_INSTRS` of its header, holds an op
    the translator does not handle, or its stack depths do not line up.
    """
    end = _loop_end(code, header)
    if end < 0:
        return None
    blocks = _blocks(code, header, end)
    if blocks is None:
        return None
    if frame is not None:
        return _Generator(code, header, end, blocks, frame, ()).render()
    view = _View(code, header, end, env.bindings)
    values = [env.bindings[name] for name in view.names]
    return _Generator(view, header, end, blocks, values, view.names).render()


def _build(source: str) -> LoopFunction:
    # Profilers key a function by (file, line, name): a digest of the
    # source in the file name keeps every translated loop apart.
    digest = hashlib.sha1(source.encode()).hexdigest()[:12]
    namespace = _namespace()
    exec(compile(source, f"<js-hot-loop {digest}>", "exec"), namespace)
    function: LoopFunction = namespace["_loop"]
    return function


def _namespace() -> Dict[str, Any]:
    # The VM imports this module, so its function class is looked up
    # when the first loop is built rather than at import.
    from repro.js.vm import CompiledFunction

    return {
        "UNDEFINED": UNDEFINED, "FunctionType": FunctionType,
        "JSArray": JSArray, "JSObject": JSObject,
        "NativeFunction": NativeFunction, "CompiledFunction": CompiledFunction,
        # The dispatch loop's own-property fast path covers exactly these
        # (not JSArray, whose get() resolves length and indices itself).
        "PLAIN": frozenset((JSObject, NativeFunction, CompiledFunction)),
        "STRING_METHODS": STRING_METHODS, "from_char_code": string_from_char_code,
        "BreakSignal": BreakSignal, "ContinueSignal": ContinueSignal,
        "JSRuntimeError": JSRuntimeError, "JSThrow": JSThrow,
        "budget_exceeded": _budget_exceeded, "signal_target": signal_target,
        "fmod": math.fmod, "is_callable": is_callable, "strict_equals": strict_equals,
        "to_int32": to_int32, "to_number": to_number, "to_string": to_string, "trunc": math.trunc,
        "truthy": truthy, "type_of": type_of,
    }


#: Locals every loop function binds once on entry, after its checks.
_SETUP = (
    "max_steps = interp.max_steps",
    "get_property = interp.get_property",
    "record_string = interp._record_string",
    "binary_op = interp._binary_op",
    "set_member = interp._set_member_value",
    "call_with_code = interp._call_with_code",
    "call_inner = interp._call_inner",
    "global_this = interp.global_this",
    "lookup = env.lookup",
)


def _budget_exceeded(max_steps: int) -> ResourceLimitExceeded:
    return ResourceLimitExceeded("js-steps", max_steps, "script exceeded its step budget")


# -- analysis ------------------------------------------------------------------


def _loop_end(code: Code, header: int) -> int:
    """The loop's last back-edge to ``header`` within
    :data:`MAX_LOOP_INSTRS` instructions of it, or -1 when there is none
    or the range holds an op the translator does not handle.

    Only that window is read, so an attempt costs O(cap) however long
    the fragment.  In a longer loop whose ``continue`` jumps back from
    within the window, just the window's part runs translated; control
    leaving it returns to the dispatch loop, which is always correct.
    """
    ops, args = code.ops, code.args
    end = -1
    for index in range(header, min(len(ops), header + MAX_LOOP_INSTRS)):
        if ops[index] == JUMP and args[index] == header:
            end = index
    if end < 0:
        return -1
    for index in range(header, end + 1):
        if not _translatable(ops[index], args[index]):
            return -1
    return end


def _translatable(op: int, arg: Any) -> bool:
    if op not in _TRANSLATABLE:
        return False
    if op == BINARY:
        return arg in _OP_TEXT
    if op == UNARY:
        return arg in _UNARY_OPS
    if op == INCDEC:
        return arg in _DELTAS
    if op == INC_SLOT:
        return arg[1] in _DELTAS
    return True


def _stack_effect(op: int, arg: Any) -> Tuple[int, int]:
    fixed = _FIXED_EFFECT.get(op)
    if fixed is not None:
        return fixed
    if op == CALL_THIS:
        return int(arg[1]) + 2, 1
    if op == CALL:
        return int(arg) + 1, 1
    if op == CALL_THIS_DYN:
        return int(arg) + 3, 1
    if op == ARRAY:
        return int(arg), 1
    return len(arg), 1  # OBJECT


class _Block:
    __slots__ = ("start", "stop", "depth")

    def __init__(self, start: int, stop: int, depth: int) -> None:
        self.start = start
        self.stop = stop  # one past the block's last instruction
        self.depth = depth  # operand-stack depth on entry


def _blocks(code: Code, header: int, end: int) -> Optional[List[_Block]]:
    """The loop's reachable basic blocks with their entry stack depths,
    or ``None`` when a depth is inconsistent or a loop exit would leave
    values on the operand stack."""
    ops, args = code.ops, code.args
    leaders: Set[int] = {header}
    for index in range(header, end + 1):
        op = ops[index]
        if op == JUMP or op in _CONDITIONAL:
            if header <= args[index] <= end:
                leaders.add(args[index])
        if (op in _CONDITIONAL or op in _TERMINATORS) and index < end:
            leaders.add(index + 1)
    starts = sorted(leaders)
    stops = {start: stop for start, stop in zip(starts, [*starts[1:], end + 1])}
    depths: Dict[int, int] = {}
    work: List[Tuple[int, int]] = [(header, 0)]
    while work:
        start, depth = work.pop()
        known = depths.get(start)
        if known is not None:
            if known != depth:
                return None
            continue
        depths[start] = depth
        for index in range(start, stops[start]):
            op, arg = ops[index], args[index]
            pops, pushes = _stack_effect(op, arg)
            if depth < pops:
                return None
            taken = -1
            if op == JUMP or op == JUMP_IF_FALSE_KEEP or op == JUMP_IF_TRUE_KEEP:
                taken = depth  # a taken KEEP jump leaves the tested value
            elif op in _CONDITIONAL:
                taken = depth - pops + pushes
            depth = depth - pops + pushes
            if taken >= 0:
                if header <= arg <= end:
                    work.append((arg, taken))
                elif taken != 0:
                    return None
        last = ops[stops[start] - 1]
        if last not in _TERMINATORS:
            work.append((stops[start], depth))
    return [_Block(start, stops[start], depths[start]) for start in starts if start in depths]


#: How an env-mode view reads each name op on a cached name; ``DECLARE``
#: of a name the scope binds already does nothing.
_NAME_AS_SLOT = {
    LOAD_NAME: LOAD_SLOT, STORE_NAME: STORE_SLOT, DECLARE: NOP,
    DECLARE_POP: DECLARE_SLOT_POP, TYPEOF_NAME: TYPEOF_SLOT,
}


class _View:
    """An env-mode loop's instructions, with each name the scope binds
    itself on entry read as a pseudo-slot: its index in :attr:`names`,
    in order of first use.  The view's ops and args map only the
    loop's own pcs, so building it costs O(loop) however long the
    fragment; charges and regions are the ``Code``'s own.  Bindings are
    never removed, so a name bound on entry stays bound for the whole
    run."""

    __slots__ = ("ops", "args", "charges", "regions", "names")

    def __init__(self, code: Code, header: int, end: int, bindings: Dict[str, Any]) -> None:
        window = range(header, end + 1)
        self.ops: Dict[int, int] = {index: code.ops[index] for index in window}
        self.args: Dict[int, Any] = {index: code.args[index] for index in window}
        self.charges = code.charges
        self.regions = code.regions
        self.names: List[str] = []
        slots: Dict[str, int] = {}
        for index in window:
            op, name = self.ops[index], self.args[index]
            if op in _NAME_AS_SLOT and name in bindings:
                if name not in slots:
                    slots[name] = len(self.names)
                    self.names.append(name)
                self.ops[index] = _NAME_AS_SLOT[op]
                self.args[index] = slots[name]


# -- types ---------------------------------------------------------------------
#
# Between two calls, a loop's variables can be touched by the loop
# alone: a slot-mode frame belongs to the running loop (the function
# has no closures, no ``eval`` and no ``try``, and a call gets a frame
# of its own), and a cached name lives in a local until the next write
# back.  So the types its variables hold when the loop turns hot, and
# the types the loop's own instructions produce, are facts the
# generated code can rely on once it has checked them on entry.  After
# a general call a cached name is read again and its type is unknown.
#
# A type is a token: ``float``, ``str``, ``bool`` or ``JSArray`` (the
# value's exact Python type), ``("method", name)`` for the raw
# ``STRING_METHODS`` builtin a string's method lookup yields, or
# ``None`` for a value nothing is known about.  A stack entry is a token,
# the slot it was loaded from when the loop never writes that slot, and
# the pc of the ``CONST`` it came from (-1 when not): such a slot keeps
# its string length and ToInt32 for as long as its type is known, and a
# literal's ToInt32 is known when the loop is translated.

#: Variable types a loop may assume on entry, as spelt in its source.
_TYPE_NAMES: Dict[Any, str] = {float: "float", str: "str", bool: "bool", JSArray: "JSArray"}
#: What each ``STRING_METHODS`` builtin returns.
_METHOD_RESULTS: Dict[str, Any] = {
    "charAt": str, "charCodeAt": float, "indexOf": float, "lastIndexOf": float,
    "substring": str, "substr": str, "slice": str, "toUpperCase": str,
    "toLowerCase": str, "split": JSArray, "replace": str, "concat": str,
    "trim": str, "toString": str, "valueOf": str,
}
#: ``_binary_op`` returns a bool for these and a float for every other
#: operator but ``+``.
_BOOL_OPS = frozenset(("<", ">", "<=", ">=", "==", "!=", "===", "!==", "instanceof", "in"))
#: Comparisons that Python spells the same on two floats or two strings.
_COMPARES = frozenset(_BOOL_OPS - {"instanceof", "in"})
_UNARY_TYPES: Dict[str, Any] = {"!": bool, "-": float, "+": float, "~": float, "void": None}
#: Branches a loop nests before a block gets a dispatch case of its
#: own: Python refuses source indented past 100 levels.
_MAX_NESTING = 24
#: Ops whose code neither raises nor reads ``steps``, so a charge run
#: needs no flush before them: slot and stack moves, and the value
#: helpers (``to_number``, ``to_int32``, ``truthy``, ``type_of``) that
#: never fail.
_PURE = frozenset((
    LOAD_SLOT, STORE_SLOT, STORE_SLOT_POP, DECLARE_SLOT_POP, INC_SLOT, CONST, DUP, SWAP,
    ROT3, POP, NOP, SET_COMPL, SET_COMPL_UNDEF, LOAD_THIS, TO_NUMBER, INCDEC, UNARY, TYPEOF,
    TYPEOF_SLOT, ARRAY, OBJECT,
))

Entry = Tuple[Any, int, int]
_NOTHING: Entry = (None, -1, -1)
State = Tuple[Dict[int, Any], Tuple[Entry, ...]]


def _const_type(value: Any) -> Any:
    kind = type(value)
    return kind if kind is float or kind is str or kind is bool else None


def _binary_type(op: str, left: Any, right: Any) -> Any:
    if op == "+":
        if left is str or right is str:
            return str  # either side a string: ToString on both
        return float if left is float and right is float else None
    return bool if op in _BOOL_OPS else float


def _successors(code: Any, header: int, end: int, block: _Block) -> List[int]:
    """The loop blocks control can pass to from ``block``."""
    last = block.stop - 1
    op = code.ops[last]
    if op == JUMP:
        targets = [code.args[last]]
    elif op in _CONDITIONAL:
        targets = [code.args[last], block.stop]
    elif op in _TERMINATORS:
        targets = []
    else:
        targets = [block.stop]
    return [target for target in targets if header <= target <= end]


def _slot_uses(code: Any, block: _Block) -> Tuple[Set[int], Set[int]]:
    """Slots ``block`` reads before writing them, and slots it writes.
    A ``DECLARE_SLOT_POP`` counts as both: it keeps the old value when
    it stores undefined."""
    used: Set[int] = set()
    written: Set[int] = set()
    for index in range(block.start, block.stop):
        op, arg = code.ops[index], code.args[index]
        if op == LOAD_SLOT or op == DECLARE_SLOT_POP or op == TYPEOF_SLOT:
            if arg not in written:
                used.add(arg)
            if op == DECLARE_SLOT_POP:
                written.add(arg)
        elif op == INC_SLOT:
            if arg[0] not in written:
                used.add(arg[0])
            written.add(arg[0])
        elif op == STORE_SLOT or op == STORE_SLOT_POP:
            written.add(arg)
    return used, written


def _join(old: State, new: State) -> State:
    """What holds on both of two edges into a block."""
    slots = {slot: token if new[0][slot] == token else None for slot, token in old[0].items()}
    stack = tuple(
        (
            a[0] if a[0] == b[0] else None,
            a[1] if a[1] == b[1] else -1,
            a[2] if a[2] == b[2] else -1,
        )
        for a, b in zip(old[1], new[1])
    )
    return slots, stack


class _Analysis:
    """Types at every block entry of one loop, for its variables' values.

    A variable that some path reads before writing it (it is live at
    the header) starts with the type its value has; the rest start
    unknown.  Joining every edge into each block until nothing changes
    leaves, at the header, the types the loop keeps on every iteration:
    those are the ones its entry checks.  With ``names`` (env mode) a
    general call makes every variable unknown.
    """

    def __init__(
        self, code: Any, header: int, end: int, blocks: List[_Block], values: Sequence[Any],
        names: bool,
    ) -> None:
        self.succ = {block.start: _successors(code, header, end, block) for block in blocks}
        uses = {block.start: _slot_uses(code, block) for block in blocks}
        touched: Set[int] = set()
        self.written: Set[int] = set()
        for used, wrote in uses.values():
            touched |= used | wrote
            self.written |= wrote
        self.names = names
        # A variable nothing in the loop writes keeps its value while its
        # type is known: a call that could rebind a cached name leaves
        # its type unknown.
        self.invariant = touched - self.written
        live = self._live_at_header(blocks, uses, header)
        entry: Dict[int, Any] = {}
        for slot in touched:
            kind = type(values[slot])
            entry[slot] = kind if slot in live and kind in _TYPE_NAMES else None
        self.states = self._infer(code, header, end, blocks, entry)
        self.checks = {
            slot: token for slot, token in self.states[header][0].items() if token is not None
        }

    def _live_at_header(
        self, blocks: List[_Block], uses: Dict[int, Tuple[Set[int], Set[int]]], header: int
    ) -> Set[int]:
        live: Dict[int, Set[int]] = {block.start: set() for block in blocks}
        changed = True
        while changed:
            changed = False
            for block in reversed(blocks):
                used, written = uses[block.start]
                after: Set[int] = set()
                for target in self.succ[block.start]:
                    after |= live[target]
                now = used | (after - written)
                if now != live[block.start]:
                    live[block.start] = now
                    changed = True
        return live[header]

    def _infer(
        self, code: Any, header: int, end: int, blocks: List[_Block], entry: Dict[int, Any]
    ) -> Dict[int, State]:
        stops = {block.start: block.stop for block in blocks}
        states: Dict[int, State] = {header: (entry, ())}
        work = [header]

        def flow(target: int, slots: Dict[int, Any], stack: List[Entry]) -> None:
            if not header <= target <= end:
                return
            new: State = (dict(slots), tuple(stack))
            old = states.get(target)
            if old is not None:
                new = _join(old, new)
                if new == old:
                    return
            states[target] = new
            work.append(target)

        while work:
            start = work.pop()
            slots, entries = states[start]
            slots = dict(slots)
            stack = list(entries)
            index = start
            for index in range(start, stops[start]):
                op, arg = code.ops[index], code.args[index]
                if op == JUMP:
                    flow(arg, slots, stack)
                elif op in _CONDITIONAL:
                    if op == JUMP_IF_FALSE_KEEP or op == JUMP_IF_TRUE_KEEP:
                        flow(arg, slots, stack)  # the taken edge keeps the value
                        stack.pop()
                    else:
                        stack.pop()
                        flow(arg, slots, stack)
                elif op != RETURN and op != THROW:
                    self.transfer(index, op, arg, stack, slots)
            if code.ops[index] not in _TERMINATORS:
                flow(stops[start], slots, stack)
        return states

    def transfer(
        self, pc: int, op: int, arg: Any, stack: List[Entry], slots: Dict[int, Any]
    ) -> None:
        """Apply the instruction at ``pc``, which is not a jump, to the types."""
        if op == LOAD_SLOT:
            stack.append((slots[arg], arg if arg in self.invariant else -1, -1))
        elif op == STORE_SLOT:
            slots[arg] = stack[-1][0]
        elif op == STORE_SLOT_POP or op == DECLARE_SLOT_POP:
            # DECLARE_SLOT_POP keeps the old value only when storing
            # undefined, which a known token never is.
            slots[arg] = stack.pop()[0]
        elif op == INC_SLOT:
            slots[arg[0]] = float
        elif op == CONST:
            stack.append((_const_type(arg), -1, pc))
        elif op == STRING or op == TYPEOF_NAME or op == TYPEOF_SLOT:
            stack.append((str, -1, -1))
        elif op == BINARY:
            right = stack.pop()[0]
            stack[-1] = (_binary_type(arg, stack[-1][0], right), -1, -1)
        elif op == MEMBER_GET:
            token = stack[-1][0]
            sized = arg == "length" and (token is str or token is JSArray)
            stack[-1] = (float if sized else None, -1, -1)
        elif op == METHOD_LOOKUP:
            known = stack[-1][0] is str and arg in STRING_METHODS
            stack.append((("method", arg) if known else None, -1, -1))
        elif op == CALL_THIS and type(stack[-int(arg[1]) - 1][0]) is tuple:
            # A proven string's own builtin runs no JS code.
            argc = int(arg[1])
            method = stack[-argc - 1][0][1]
            del stack[-argc - 2:]
            stack.append((_METHOD_RESULTS.get(method), -1, -1))
        elif op == CALL or op == CALL_THIS or op == CALL_THIS_DYN:
            pops, _ = _stack_effect(op, arg)
            del stack[len(stack) - pops:]
            stack.append(_NOTHING)
            if self.names:
                for slot in slots:
                    slots[slot] = None
        elif op == DUP:
            stack.append(stack[-1])
        elif op == SWAP:
            stack[-2], stack[-1] = stack[-1], stack[-2]
        elif op == ROT3:
            stack[-3:] = [stack[-2], stack[-1], stack[-3]]
        elif op == TO_NUMBER:
            stack[-1] = (float, -1, -1)
        elif op == INCDEC:
            stack[-1] = (float if stack[-1][0] is float else None, -1, -1)
        elif op == UNARY:
            stack[-1] = (_UNARY_TYPES[arg], -1, -1)
        elif op == TYPEOF:
            stack[-1] = (str, -1, -1)
        elif op == ARRAY:
            del stack[len(stack) - int(arg):]
            stack.append((JSArray, -1, -1))
        elif op == MEMBER_SET or op == MEMBER_SET_EXPR:
            value = stack[-1][0]
            del stack[-3 if op == MEMBER_SET_EXPR else -2:]
            stack.append((value, -1, -1))
        elif op == STORE_NAME or op == NOP:
            pass
        else:
            pops, pushes = _stack_effect(op, arg)
            del stack[len(stack) - pops:]
            stack.extend([_NOTHING] * pushes)


# -- code generation -------------------------------------------------------------


class _TooDeep(Exception):
    def __init__(self, start: int) -> None:
        super().__init__(start)
        self.start = start


class _Generator:
    """Renders one loop as the source of ``_loop``, for the types its
    variables hold (:class:`_Analysis`).

    Where the analysis proves an operand's type, the ``type()`` test
    goes; where it does not, :meth:`op` emits the dispatch loop's own
    tests.  Blocks reached from one place only (and the short ``i++``
    latch before a back-edge) are inlined where control reaches them,
    so a loop whose only join point is its header has no block
    dispatch at all.

    The step budget is charged per *run*: a stretch of one block that
    starts on an empty operand stack and ends at the block's end or at
    the first instruction that can run JS code (a general call, or the
    inline ``fromCharCode``).  A run opens with one guard, ``if steps +
    total > max_steps: return (first pc, steps, compl)``, after which
    the dispatch loop charges the run instruction by instruction, so an
    exhaustion lands where it would have.  Inside a guarded run the
    charges pile up in :attr:`pending` and reach ``steps`` only where
    ``steps`` can be seen: before a helper call or a raise, a call's
    ``interp.steps`` sync, a branch or an exit.  A fast path's slow
    branch adds them before its call and takes them back after.  A run
    with one charged instruction, and every instruction charged on a
    non-empty stack, is checked at its instruction.
    """

    def __init__(
        self, code: Any, header: int, end: int, blocks: List[_Block], values: Sequence[Any],
        names: Sequence[str],
    ) -> None:
        self.code = code
        self.header = header
        self.end = end
        #: Env mode: the cached names, by pseudo-slot.
        self.names = names
        self.analysis = _Analysis(code, header, end, blocks, values, bool(names))
        self.by_start = {block.start: block for block in blocks}
        preds = {block.start: 0 for block in blocks}
        for targets in self.analysis.succ.values():
            for target in targets:
                preds[target] += 1
        #: The blocks with a dispatch case of their own: the header, and
        #: every join point but a latch, which is short enough to copy
        #: into each block that reaches it.
        self.joins = {header} | {
            block.start for block in blocks
            if preds[block.start] > 1 and not (
                block.stop - block.start <= 3 and self.ends_in_back_edge(block.start)
            )
        }
        self.sections: List[int] = []
        self.section_ids: Dict[int, int] = {}
        self.current = 0
        self.constants: List[Any] = []
        self.lines: List[str] = []
        self.has_calls = False
        #: Variables the loop uses, and those it writes: a slot's local
        #: goes back to the frame on every way out.
        self.slots: Set[int] = set()
        self.written: Set[int] = set()
        #: Variables whose length is read and whose ToInt32 an int32
        #: operator reads, where nothing writes them while the loop runs.
        self.lengths: Set[int] = set()
        self.int32s: Set[int] = set()
        #: Charges of the guarded run so far that ``steps`` lacks.
        self.pending = 0
        #: The constants holding the cached names, by pseudo-slot.
        self.keys: List[str] = []

    # -- plumbing

    def const(self, value: Any) -> str:
        self.constants.append(value)
        return f"k{len(self.constants) - 1}"

    def slot(self, index: Any, written: bool = False) -> str:
        """The local caching variable ``index`` for the loop's run."""
        number = int(index)
        self.slots.add(number)
        if written:
            self.written.add(number)
        return f"l{number}"

    def put(self, level: int, *lines: str) -> None:
        pad = "    " * level
        self.lines.extend(pad + line for line in lines)

    # -- rendering

    def render(self) -> Tuple[str, Tuple[Any, ...]]:
        while True:
            self.sections = sorted(self.joins)
            self.section_ids = {start: sid for sid, start in enumerate(self.sections)}
            self.constants, self.lines, self.has_calls, self.pending = [], [], False, 0
            self.slots, self.written, self.lengths, self.int32s = set(), set(), set(), set()
            self.keys = [self.const(name) for name in self.names]
            try:
                self.body()
            except _TooDeep as deep:
                self.joins.add(deep.start)
                continue
            break
        return self.assemble()

    def assemble(self) -> Tuple[str, Tuple[Any, ...]]:
        """The whole function around the emitted body: constants and
        variables loaded and checked, then the loop and its ways out."""
        back = f"return ({self.header}, steps, compl)"
        handler = self.signal_handler()
        lines = ["def _loop(interp, frame, env, this, steps, compl, K):"]
        if self.constants:
            lines.append(f"    {', '.join(f'k{i}' for i in range(len(self.constants)))}, = K")
        lines.append("    bindings = env.bindings")
        if self.names:
            lines.append("    try:")
            lines += [f"        l{slot} = bindings[{key}]" for slot, key in enumerate(self.keys)]
            lines += ["    except KeyError:", f"        {back}"]
        else:
            lines += [f"    l{slot} = frame[{slot}]" for slot in sorted(self.slots)]
        checks = self.analysis.checks
        if checks:
            test = " or ".join(
                f"type(l{slot}) is not {_TYPE_NAMES[token]}" for slot, token in sorted(checks.items())
            )
            lines += [f"    if {test}:", f"        {back}"]
        lines += [f"    m{slot} = float(len(l{slot}))" for slot in sorted(self.lengths)]
        lines += [f"    i{slot} = to_int32(l{slot})" for slot in sorted(self.int32s)]
        lines += ["    " + line for line in _SETUP]
        if len(self.sections) > 1:
            lines.append("    b = 0")
        lines += ["    ip = -1", "    try:", "        while True:"]
        lines += ["            " + line for line in self.lines]
        lines += ["    " + line for line in handler]
        lines.append("    finally:")
        if self.names:
            # A call that raised left its callee's bindings (ip >= 0).
            stores = self.stores()
            if stores:
                lines += ["        if ip < 0:"] + ["            " + line for line in stores]
        else:
            lines += [f"        frame[{slot}] = l{slot}" for slot in sorted(self.written)]
        lines += [
            "        if interp.steps < steps:",
            "            interp.steps = steps",
        ]
        return "\n".join(lines) + "\n", tuple(self.constants)

    def stores(self) -> List[str]:
        """Write every cached name the loop assigns back to the bindings."""
        return [f"bindings[{self.keys[slot]}] = l{slot}" for slot in sorted(self.analysis.written)]

    def around_call(self, index: int, lines: List[str]) -> List[str]:
        """``lines``, a general call at ``index``, with the cached names
        written back before it and read again after it."""
        if not self.names:
            return [f"ip = {index}", *lines]
        stores = self.stores()
        loads = [f"l{slot} = bindings[{key}]" for slot, key in enumerate(self.keys)]
        return [*stores, f"ip = {index}", *lines, *loads, *(["ip = -1"] if stores else [])]

    def signal_handler(self) -> List[str]:
        """A Break/ContinueSignal out of a call maps through the region
        table from the call's pc, as in the dispatch loop, which then
        resumes at the target; with no region it unwinds further."""
        if not self.has_calls:
            return []
        regions = self.const(self.code.regions)
        return [
            "except (BreakSignal, ContinueSignal) as signal:",
            "    if interp.steps > steps:",
            "        steps = interp.steps",
            f"    t = signal_target({regions}, ip, isinstance(signal, ContinueSignal))[0]",
            "    if t < 0:",
            "        raise",
            "    return (t, steps, compl)",
        ]

    def body(self) -> None:
        if len(self.sections) == 1:
            self.chain(self.header, 0)
            return
        for sid, start in enumerate(self.sections):
            self.current = sid
            self.put(0, f"if b == {sid}:")
            self.chain(start, 1)

    # -- control flow

    def ends_in_back_edge(self, start: int) -> bool:
        last = self.by_start[start].stop - 1
        return self.code.ops[last] == JUMP and self.code.args[last] == self.header

    def leaves(self, target: int) -> bool:
        """Whether going to ``target`` ends in ``return`` or ``continue``."""
        if not self.header <= target <= self.end:
            return True
        sid = self.section_ids.get(target)
        if sid is not None:
            return sid <= self.current
        return self.ends_in_back_edge(target)

    def goto(self, level: int, target: int) -> bool:
        """Transfer control to ``target``; True when the emitted code
        leaves this iteration's straight line (return or continue)."""
        if not self.header <= target <= self.end:
            self.put(level, f"return ({target}, steps, compl)")
            return True
        sid = self.section_ids.get(target)
        if sid is None:
            return self.chain(target, level)
        if len(self.sections) == 1:
            self.put(level, "continue")
            return True
        self.put(level, f"b = {sid}")
        if sid <= self.current:
            self.put(level, "continue")
            return True
        return False

    def branch(self, level: int, test: str, if_true: int, if_false: int) -> bool:
        if self.leaves(if_false) and not self.leaves(if_true):
            test, if_true, if_false = f"not ({test})", if_false, if_true
        self.put(level, f"if {test}:")
        if self.goto(level + 1, if_true):
            return self.goto(level, if_false)
        self.put(level, "else:")
        self.goto(level + 1, if_false)
        return False

    def chain(self, start: int, level: int) -> bool:
        """Emit the block at ``start`` and the blocks it inlines."""
        if level > _MAX_NESTING:
            raise _TooDeep(start)
        code = self.code
        block = self.by_start[start]
        slots, entries = self.analysis.states[start]
        slots = dict(slots)
        stack = list(entries)
        run_stop, guarded = block.start, False
        for index in range(block.start, block.stop):
            op, arg, charge = code.ops[index], code.args[index], code.charges[index]
            if index >= run_stop and not stack:
                run_stop = self.run_stop(index, block.stop, slots)
                guarded = self.guard(level, index, run_stop)
            if guarded and index < run_stop:
                self.pending += charge
            elif charge:
                self.put(
                    level,
                    f"steps += {charge}",
                    "if steps > max_steps:",
                    "    steps = max_steps + 1",
                    "    raise budget_exceeded(max_steps)",
                )
            if op == JUMP or op in _CONDITIONAL or op == RETURN or op == THROW:
                self.flush(level)
            if op == JUMP:
                return self.goto(level, arg)
            if op in _CONDITIONAL:
                return self.conditional(level, index, op, arg, stack)
            if op == RETURN:
                self.put(level, f"return (-1, steps, s{len(stack) - 1})")
                return True
            if op == THROW:
                self.put(level, f"raise JSThrow(s{len(stack) - 1})")
                return True
            if op == BINARY and index + 2 == block.stop and self.fusable(index, stack):
                self.flush(level)
                return self.fused(level, index, arg, len(stack))
            self.typed_op(level, index, op, arg, stack, slots)
            self.analysis.transfer(index, op, arg, stack, slots)
        self.flush(level)
        return self.goto(level, block.stop)

    # -- the step budget

    def run_stop(self, start: int, stop: int, slots: Dict[int, Any]) -> int:
        """One past the run starting at ``start`` on an empty stack: the
        block's ``stop``, or just past the first instruction that can run
        JS code, whose charge is added before its call."""
        code = self.code
        slots = dict(slots)
        stack: List[Entry] = []
        for index in range(start, stop):
            op, arg = code.ops[index], code.args[index]
            if op == CALL or op == CALL_THIS_DYN:
                return index + 1
            if op == CALL_THIS and type(stack[-int(arg[1]) - 1][0]) is not tuple:
                return index + 1  # not a proven string's own builtin
            if op != JUMP and op not in _CONDITIONAL and op != RETURN and op != THROW:
                self.analysis.transfer(index, op, arg, stack, slots)
        return stop

    def guard(self, level: int, start: int, stop: int) -> bool:
        """Open the run ``start..stop`` with one budget comparison; False
        when it charges at most one instruction, which its own check
        covers."""
        charges = [charge for charge in self.code.charges[start:stop] if charge]
        if len(charges) < 2:
            return False
        self.put(
            level, f"if steps + {sum(charges)} > max_steps:", f"    return ({start}, steps, compl)"
        )
        return True

    def flush(self, level: int) -> None:
        """Add the run's pending charge to ``steps`` for good."""
        if self.pending:
            self.put(level, f"steps += {self.pending}")
            self.pending = 0

    def slow(self, line: str) -> List[str]:
        """A fast path's slow branch, indented under its ``else:``: the
        pending charge is in ``steps`` while ``line`` runs."""
        lines = [line]
        if self.pending:
            lines = [f"steps += {self.pending}", line, f"steps -= {self.pending}"]
        return ["    " + text for text in lines]

    def conditional(self, level: int, index: int, op: int, arg: Any, stack: List[Entry]) -> bool:
        d = len(stack)
        top, token = f"s{d - 1}", stack[-1][0]
        if op == JUMP_IF_STRICT_EQ:
            other = stack[-2][0]
            if token is other and (token is float or token is str):
                test = f"s{d - 2} == {top}"
            else:
                test = f"strict_equals(s{d - 2}, {top})"
            return self.branch(level, test, arg, index + 1)
        if token is bool or token is str:
            test = top
        elif token is float:
            test = f"{top} != 0.0 and {top} == {top}"
        else:
            test = f"{top} is True or ({top} is not False and truthy({top}))"
        if op == JUMP_IF_FALSE or op == JUMP_IF_FALSE_KEEP:
            return self.branch(level, test, index + 1, arg)
        return self.branch(level, test, arg, index + 1)

    def fusable(self, index: int, stack: List[Entry]) -> bool:
        """A comparison of two floats feeding the block's closing
        branch, which has no charge of its own."""
        code = self.code
        return (
            code.args[index] in _COMPARES
            and stack[-1][0] is float and stack[-2][0] is float
            and code.ops[index + 1] in (JUMP_IF_FALSE, JUMP_IF_TRUE)
            and not code.charges[index + 1]
        )

    def fused(self, level: int, index: int, arg: str, d: int) -> bool:
        test = _FLOAT_OPS[_OP_TEXT[arg]].format(l=f"s{d - 2}", r=f"s{d - 1}")
        target = self.code.args[index + 1]
        if self.code.ops[index + 1] == JUMP_IF_FALSE:
            return self.branch(level, test, index + 2, target)
        return self.branch(level, test, target, index + 2)

    # -- instructions

    def typed_op(
        self, level: int, index: int, op: int, arg: Any, stack: List[Entry], slots: Dict[int, Any]
    ) -> None:
        d = len(stack)
        top = f"s{d - 1}"
        token = stack[-1][0] if stack else None
        if op == INC_SLOT and slots[arg[0]] is float:
            slot = self.slot(arg[0], written=True)
            self.put(level, f"{slot} = {slot} + {_DELTAS[arg[1]]}")
        elif op == TO_NUMBER and token is float:
            pass
        elif op == DECLARE_SLOT_POP and token is not None:
            self.put(level, f"{self.slot(arg, written=True)} = {top}")
        elif op == BINARY and self.typed_binary(level, arg, stack):
            pass
        elif op == MEMBER_GET and arg == "length" and token is str:
            origin = stack[-1][1]
            if origin >= 0:
                self.lengths.add(origin)
                self.put(level, f"{top} = m{origin}")
            else:
                self.put(level, f"{top} = float(len({top}))")
        elif op == MEMBER_GET and arg == "length" and token is JSArray:
            self.put(level, f"{top} = float(len({top}.elements))")
        elif op == METHOD_LOOKUP and token is str:
            method = STRING_METHODS.get(arg)
            if method is None:
                self.flush(level)
                self.put(level, f"s{d} = get_property({top}, {self.const(arg)})")
            else:
                self.put(level, f"s{d} = {self.const(method)}")
        elif op == CALL_THIS and self.typed_call(level, index, arg, stack):
            pass
        elif op == MEMBER_GET_EXPR:
            obj = f"s{d - 2}"
            self.put(
                level,
                f"if {self.element_test(top, token, obj, stack[-2][0])}:",
                f"    v = {obj}.elements",
                f"    t = trunc({top})",
                f"    {obj} = v[t] if t < len(v) else UNDEFINED",
                "else:",
                *self.slow(f"{obj} = get_property({obj}, to_string({top}))"),
            )
        elif op == MEMBER_SET_EXPR:
            key, obj = f"s{d - 2}", f"s{d - 3}"
            self.put(
                level,
                f"if {self.element_test(key, stack[-2][0], obj, stack[-3][0])}:",
                f"    v = {obj}.elements",
                f"    t = trunc({key})",
                "    if t < len(v):",
                f"        v[t] = {top}",
                "    elif t == len(v):",
                f"        v.append({top})",
                "    else:",
                f"        {obj}.set(str(t), {top})",
                "else:",
                *self.slow(f"set_member({obj}, to_string({key}), {top})"),
                f"{obj} = {top}",
            )
        else:
            if op not in _PURE:
                self.flush(level)
            self.op(level, index, op, arg, d)

    @staticmethod
    def element_test(key: str, key_token: Any, obj: str, obj_token: Any) -> str:
        """The element fast path's test, without the type tests the
        analysis proved: a whole float in 0..2**32-2 (exactly what
        ``to_string`` -> ``array_index`` accepts) keying a ``JSArray``.
        The bound is fixed text, never a value from the ``Code``."""
        tests = []
        if key_token is not float:
            tests.append(f"type({key}) is float")
        if obj_token is not JSArray:
            tests.append(f"type({obj}) is JSArray")
        tests += [f"0.0 <= {key}", f"{key} <= 4294967294.0", f"{key}.is_integer()"]
        return " and ".join(tests)

    def typed_binary(self, level: int, op: str, stack: List[Entry]) -> bool:
        d = len(stack)
        left, right = f"s{d - 2}", f"s{d - 1}"
        ltype, rtype = stack[-2][0], stack[-1][0]
        text = _OP_TEXT[op]
        slow = f"{left} = binary_op({text!r}, {left}, {right})"
        if text in _FLOAT_OPS and (ltype is float or rtype is float):
            fast = f"{left} = {_FLOAT_OPS[text].format(l=left, r=right)}"
            if ltype is float and rtype is float:
                self.put(level, fast)
            else:
                other = right if ltype is float else left
                self.put(
                    level, f"if type({other}) is float:", f"    {fast}", "else:", *self.slow(slow)
                )
            return True
        if text == "+" and (ltype is str or rtype is str):
            self.flush(level)
            concat = f"{left} = record_string({left} + {right})"
            if ltype is str and rtype is str:
                self.put(level, concat)
            else:
                other = right if ltype is str else left
                self.put(
                    level, f"if type({other}) is str:", f"    {concat}", "else:", f"    {slow}"
                )
            return True
        if text == "%" and (ltype is float or rtype is float):
            # fmod is _binary_op's answer for a divisor that is not +-0
            # and a finite dividend (a NaN divisor gives NaN in both).
            operands = ((left, ltype), (right, rtype))
            test = " and ".join(
                [f"type({name}) is float" for name, token in operands if token is not float]
                + [f"{right} != 0.0 and {left} - {left} == 0.0"]
            )
            fast = f"{left} = fmod({left}, {right})"
            self.put(level, f"if {test}:", f"    {fast}", "else:", *self.slow(slow))
            return True
        if text in _COMPARES and ltype is str and rtype is str:
            self.put(level, f"{left} = {_FLOAT_OPS[text].format(l=left, r=right)}")
            return True
        if text in _INT32_OPS and (ltype is float or rtype is float):
            tests: List[str] = []
            first = self.int32_operand(left, stack[-2], tests)
            second = self.int32_operand(right, stack[-1], tests)
            fast = f"{left} = float({first} {_INT32_OPS[text]} {second})"
            if tests:
                self.put(
                    level, f"if {' and '.join(tests)}:", f"    {fast}", "else:", *self.slow(slow)
                )
            else:
                self.put(level, fast)
            return True
        return False

    def int32_operand(self, name: str, entry: Entry, tests: List[str]) -> str:
        """``name``'s ToInt32 as an int, adding to ``tests`` what must
        hold for the inline form: a literal's and an unwritten number
        variable's are computed before the loop runs."""
        token, slot, pc = entry
        if pc >= 0:
            return self.const(to_int32(self.code.args[pc]))
        if slot >= 0 and token is float:
            self.int32s.add(slot)
            return f"i{slot}"
        if token is not float:
            tests.append(f"type({name}) is float")
        tests += [f"-2147483648.0 <= {name}", f"{name} <= 2147483647.0"]
        return f"trunc({name})"

    def typed_call(self, level: int, index: int, arg: Any, stack: List[Entry]) -> bool:
        name, argc = arg[0], int(arg[1])
        d = len(stack)
        receiver = d - argc - 2
        callee = stack[receiver + 1][0]
        recv, fn = f"s{receiver}", f"s{receiver + 1}"
        args = "[" + ", ".join(f"s{slot}" for slot in range(d - argc, d)) + "]"
        last, last_token = f"s{d - 1}", stack[-1][0]
        if type(callee) is tuple:
            # The raw builtin of a proven string: no type dispatch, and
            # no JS code runs.
            method = callee[1]
            if argc == 1 and (method == "charCodeAt" or method == "charAt"):
                test = f"0.0 <= {last} < len({recv})"
                if last_token is not float:
                    test = f"type({last}) is float and {test}"
                fast = f"{recv}[trunc({last})]"
                if method == "charCodeAt":
                    fast = f"float(ord({fast}))"
                self.put(
                    level, f"if {test}:", f"    {recv} = {fast}",
                    "else:", *self.slow(f"{recv} = {fn}(interp, {recv}, {args})"),
                )
            else:
                self.flush(level)
                self.put(level, f"{recv} = {fn}(interp, {recv}, {args})")
            return True
        if name == "fromCharCode" and argc == 1:
            # The callee is a property read a script can rebind: only
            # the builtin itself takes its own fast path inline.  Both
            # paths store steps, and the general one can run JS code.
            self.has_calls = True
            self.flush(level)
            test = "type(f) is NativeFunction and f.fn is from_char_code"
            if last_token is not float:
                test += f" and type({last}) is float"
            message = f"{self.const(name)} + ' is not a function'"
            self.put(
                level, f"f = {fn}", f"if {test} and 0.0 <= {last} < 65536.0:",
                "    interp.steps = steps", f"    {recv} = chr(trunc({last}))", "else:",
            )
            dispatch = self.dispatch(recv, receiver, d, argc, message, True)
            self.put(level + 1, *self.around_call(index, dispatch))
            return True
        return False

    def op(self, level: int, index: int, op: int, arg: Any, depth: int) -> None:
        """Emit one instruction at stack ``depth`` whose operands the
        analysis does not prove: the dispatch loop's own type tests."""
        d = depth
        top = f"s{d - 1}"
        put = self.put
        if op == LOAD_SLOT:
            put(level, f"s{d} = {self.slot(arg)}")
        elif op == INC_SLOT:
            slot = self.slot(arg[0], written=True)
            put(
                level,
                f"v = {slot}",
                "if type(v) is not float:",
                "    v = to_number(v)",
                f"{slot} = v + {_DELTAS[arg[1]]}",
            )
        elif op == STORE_SLOT_POP or op == STORE_SLOT:
            put(level, f"{self.slot(arg, written=True)} = {top}")
        elif op == CONST:
            put(level, f"s{d} = {self.const(arg)}")
        elif op == STRING:
            # The compiler emits STRING only for literals of 2+ chars,
            # and _record_string ignores shorter ones anyway.
            put(level, f"s{d} = record_string({self.const(arg)})")
        elif op == BINARY:
            self.binary(level, arg, f"s{d - 2}", top)
        elif op == LOAD_NAME:
            # The running scope's own bindings are lookup()'s first hop.
            name = self.const(arg)
            put(level, f"s{d} = bindings[{name}] if {name} in bindings else lookup({name})")
        elif op == STORE_NAME:
            name = self.const(arg)
            put(
                level,
                f"if {name} in bindings:",
                f"    bindings[{name}] = {top}",
                "else:",
                f"    env.assign({name}, {top})",
            )
        elif op == POP or op == NOP:
            pass
        elif op == MEMBER_GET:
            name = self.const(arg)
            is_length = self.const(arg == "length")
            put(
                level,
                f"t = type({top})",
                "if t is str:",
                f"    {top} = float(len({top})) if {is_length} else get_property({top}, {name})",
                f"elif t is JSArray and {is_length}:",
                f"    {top} = float(len({top}.elements))",
                f"elif t in PLAIN and {name} in {top}.properties:",
                f"    {top} = {top}.properties[{name}]",
                "else:",
                f"    {top} = get_property({top}, {name})",
            )
        elif op == METHOD_LOOKUP:
            name = self.const(arg)
            method = self.const(STRING_METHODS.get(arg))
            put(
                level,
                f"t = type({top})",
                "if t is str:",
                f"    s{d} = {method}",
                f"    if s{d} is None:",
                f"        s{d} = get_property({top}, {name})",
                f"elif t in PLAIN and {name} in {top}.properties:",
                f"    s{d} = {top}.properties[{name}]",
                "else:",
                f"    s{d} = get_property({top}, {name})",
            )
        elif op == CALL_THIS:
            argc = int(arg[1])
            receiver = d - argc - 2
            message = f"{self.const(arg[0])} + ' is not a function'"
            self.call(level, index, f"s{receiver + 1}", f"s{receiver}", receiver, d, argc, message, True)
        elif op == CALL:
            argc = int(arg)
            callee = d - argc - 1
            self.call(
                level, index, f"s{callee}", "global_this", callee, d, argc,
                "'value is not a function'", False,
            )
        elif op == CALL_THIS_DYN:
            argc = int(arg)
            receiver = d - argc - 3
            message = f"s{receiver + 2} + ' is not a function'"
            self.call(level, index, f"s{receiver + 1}", f"s{receiver}", receiver, d, argc, message, True)
        elif op == DUP:
            put(level, f"s{d} = {top}")
        elif op == INCDEC:
            put(level, f"{top} = {top} + {_DELTAS[arg]}")
        elif op == TO_NUMBER:
            put(level, f"if type({top}) is not float:", f"    {top} = to_number({top})")
        elif op == SWAP:
            put(level, f"{top}, s{d - 2} = s{d - 2}, {top}")
        elif op == ROT3:
            put(level, f"s{d - 3}, s{d - 2}, {top} = s{d - 2}, {top}, s{d - 3}")
        elif op == MEMBER_SET:
            put(level, f"set_member(s{d - 2}, {self.const(arg)}, {top})", f"s{d - 2} = {top}")
        elif op == METHOD_LOOKUP_EXPR:
            put(
                level,
                f"v = to_string({top})",
                f"if type(s{d - 2}) is str:",
                "    f = STRING_METHODS.get(v)",
                "    if f is None:",
                f"        f = get_property(s{d - 2}, v)",
                "else:",
                f"    f = get_property(s{d - 2}, v)",
                f"{top} = f",
                f"s{d} = v",
            )
        elif op == ARRAY:
            count = int(arg)
            items = ", ".join(f"s{slot}" for slot in range(d - count, d))
            put(level, f"s{d - count} = JSArray([{items}])")
        elif op == OBJECT:
            count = len(arg)
            keys = self.const(arg)
            put(level, "o = JSObject()")
            if count:
                values = ", ".join(f"s{slot}" for slot in range(d - count, d))
                put(level, f"for v, f in zip({keys}, ({values},)):", "    o.set(v, f)")
            put(level, f"s{d - count} = o")
        elif op == UNARY:
            put(level, f"{top} = {_UNARY_OPS[arg].format(v=top)}")
        elif op == TYPEOF:
            put(level, f"{top} = type_of({top})")
        elif op == TYPEOF_SLOT:
            put(level, f"s{d} = type_of({self.slot(arg)})")
        elif op == TYPEOF_NAME:
            name = self.const(arg)
            put(level, f"s{d} = type_of(env.lookup({name})) if env.has({name}) else 'undefined'")
        elif op == DELETE_MEMBER:
            put(
                level,
                f"{top} = {top}.delete({self.const(arg)}) "
                f"if isinstance({top}, JSObject) else True",
            )
        elif op == DELETE_MEMBER_EXPR:
            put(
                level,
                f"v = to_string({top})",
                f"s{d - 2} = s{d - 2}.delete(v) if isinstance(s{d - 2}, JSObject) else True",
            )
        elif op == SET_COMPL:
            put(level, f"compl = {top}")
        elif op == SET_COMPL_UNDEF:
            put(level, "compl = UNDEFINED")
        elif op == DECLARE:
            put(level, f"env.declare({self.const(arg)})")
        elif op == DECLARE_POP:
            put(level, f"env.declare({self.const(arg)}, {top})")
        elif op == DECLARE_SLOT_POP:
            put(level, f"if {top} is not UNDEFINED:", f"    {self.slot(arg, written=True)} = {top}")
        elif op == LOAD_THIS:
            put(level, f"s{d} = this")
        else:  # pragma: no cover - _translatable() admits nothing else
            raise AssertionError(f"untranslatable op {op}")

    def binary(self, level: int, op: str, left: str, right: str) -> None:
        text = _OP_TEXT[op]
        slow = f"{left} = binary_op({text!r}, {left}, {right})"
        if text in _FLOAT_OPS:
            fast = _FLOAT_OPS[text].format(l=left, r=right)
            self.put(
                level,
                f"if type({left}) is float and type({right}) is float:",
                f"    {left} = {fast}",
            )
            if text == "+":
                self.put(
                    level,
                    f"elif type({left}) is str and type({right}) is str:",
                    f"    {left} = record_string({left} + {right})",
                )
            self.put(level, "else:", f"    {slow}")
        elif text in _INT32_OPS:
            self.put(
                level,
                f"if (type({left}) is float and type({right}) is float"
                f" and -2147483648.0 <= {left} <= 2147483647.0"
                f" and -2147483648.0 <= {right} <= 2147483647.0):",
                f"    {left} = float(int({left}) {_INT32_OPS[text]} int({right}))",
                "else:",
                f"    {slow}",
            )
        else:
            self.put(level, slow)

    def call(
        self,
        level: int,
        index: int,
        fn: str,
        this: str,
        result: int,
        depth: int,
        argc: int,
        message: str,
        string_methods: bool,
    ) -> None:
        """One general call site: the dispatch loop's CALL/CALL_THIS
        paths, with ``interp.steps`` synced around every call that can
        charge."""
        self.has_calls = True
        dispatch = self.dispatch(this, result, depth, argc, message, string_methods)
        self.put(level, *self.around_call(index, [f"f = {fn}", *dispatch]))

    def dispatch(
        self, this: str, result: int, depth: int, argc: int, message: str, string_methods: bool
    ) -> List[str]:
        """The lines that call ``f`` on the callee's type."""
        args = "[" + ", ".join(f"s{slot}" for slot in range(depth - argc, depth)) + "]"
        out = f"s{result}"
        lines = ["t = type(f)"]
        keyword = "if"
        if string_methods:
            # String-method fast path: f is the raw STRING_METHODS builtin.
            lines += ["if t is FunctionType:", f"    {out} = f(interp, {this}, {args})"]
            keyword = "elif"
        lines += [
            f"{keyword} t is CompiledFunction:",
            "    interp.steps = steps",
            f"    {out} = call_with_code(f.code, f, {this}, {args})",
            "    steps = interp.steps",
            "elif t is NativeFunction:",
            "    interp.steps = steps",
            f"    {out} = f.fn(interp, {this}, {args})",
            "    steps = interp.steps",
            "else:",
            "    if not is_callable(f):",
            f"        raise JSRuntimeError({message}, 'TypeError')",
            "    interp.steps = steps",
            f"    {out} = call_inner(f, {this}, {args})",
            "    steps = interp.steps",
        ]
        return lines
