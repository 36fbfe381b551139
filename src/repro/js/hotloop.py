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

A translated loop is observably identical to the dispatch loop:

* every instruction's charge is added, and the budget checked, at the
  same instruction boundary, with the same clamp to ``max_steps + 1``;
* ``interp.steps`` is synced around every call exactly where the
  dispatch loop syncs it, and on every way out of the function;
* ``_record_string`` runs at the same points;
* names are read, written and declared through the same ``env``
  calls, at every execution: a callee can rebind a global, so no
  binding is ever cached in a local;
* the completion register of program and ``eval`` code comes in as an
  argument and goes back out on every exit to the dispatch loop;
* a ``BreakSignal``/``ContinueSignal`` unwinding out of a call maps
  through the fragment's region table from the call's own pc, and the
  dispatch loop resumes at the target.

Operand-stack slots become Python locals (``s0``, ``s1``, ...), as do
the frame slots the loop touches (``l0``, ...; written back on every
way out), and the loop's basic blocks an ``if b == k`` chain.

**Attacker-controlled values never enter generated source.**  Names,
property names and literals reach the function only through its
constants tuple, which holds the ``Code``'s own literal objects (the
spray pool dedupes by identity).  Operators map through fixed tables.
The only values formatted into the source are compiler-produced ints
(slot indices, pcs and charges); the rest is fixed text, such as the
element fast path's index bound.  The source therefore depends only on
the loop's shape, and compiled functions are memoised by source text
(:func:`repro.js.compiler.cached_loop_function`).

``compile()`` time is outside both the JS step budget and the scan
deadline, so two module constants bound it: a loop is translated only
after :data:`HOT_LOOP_THRESHOLD` back-edges, and a translation reads
and compiles at most :data:`MAX_LOOP_INSTRS` instructions; a loop with
no back-edge that close to its header is never translated.  Loops holding an op
outside the translator's set (``EXEC_TRY``, ``FORIN_*``,
``DIRECT_EVAL``, ``MAKE_FUNCTION``, ``NEW``, ``RAISE_*``, ...) stay on
the dispatch loop.
"""

from __future__ import annotations

from types import FunctionType
from typing import Any, Callable, Dict, List, Optional, Set, Tuple, cast

from repro.js.builtins import STRING_METHODS
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
    signal_target,
)
from repro.js.errors import (
    BreakSignal,
    ContinueSignal,
    JSRuntimeError,
    JSThrow,
    ResourceLimitExceeded,
)
from repro.js.values import (
    JSArray,
    JSFunction,
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

#: Back-edges a loop takes on the dispatch loop before it is translated.
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
    TYPEOF: (1, 1), TYPEOF_NAME: (0, 1), DELETE_MEMBER: (1, 1),
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
#: Operators that always go through ``_binary_op``.
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
#: The element fast path's test: a whole float in 0..2**32-2 (exactly
#: what ``to_string`` -> ``array_index`` accepts) keying a ``JSArray``.
#: The bound is fixed text, never a value from the ``Code``.
_ARRAY_INDEX = (
    "type({key}) is float and type({obj}) is JSArray"
    " and 0.0 <= {key} <= 4294967294.0 and {key}.is_integer()"
)


def hot_loop(code: Code, header: int) -> Optional[Translated]:
    """Count one back-edge to ``header``; the loop's translation once hot.

    Returns ``None`` while the loop is still being counted and for good
    when it cannot be translated.  Threads sharing ``code`` may race on
    the count (a lost increment only delays translation) or translate
    the same loop twice (both get the same cached function).
    """
    loops = code.loops
    state = loops.get(header, 0)
    if type(state) is not int:
        return cast(Optional[Translated], state)
    state += 1
    if state < HOT_LOOP_THRESHOLD:
        loops[header] = state
        return None
    translated = translate_loop(code, header)
    loops[header] = translated
    return translated


def translate_loop(code: Code, header: int) -> Optional[Translated]:
    """The loop at ``header`` as ``(function, constants)``, or ``None``."""
    plan = loop_source(code, header)
    if plan is None:
        return None
    source, constants = plan
    return cached_loop_function(source, _build), constants


def loop_source(code: Code, header: int) -> Optional[Tuple[str, Tuple[Any, ...]]]:
    """Generated source and constants tuple for the loop at ``header``.

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
    return _Generator(code, header, end, blocks).render()


def _build(source: str) -> LoopFunction:
    namespace = _namespace()
    exec(compile(source, "<js-hot-loop>", "exec"), namespace)
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
        "PLAIN": frozenset((JSObject, NativeFunction, JSFunction, CompiledFunction)),
        "STRING_METHODS": STRING_METHODS,
        "BreakSignal": BreakSignal, "ContinueSignal": ContinueSignal,
        "JSRuntimeError": JSRuntimeError, "JSThrow": JSThrow,
        "budget_exceeded": _budget_exceeded, "signal_target": signal_target,
        "is_callable": is_callable, "strict_equals": strict_equals,
        "to_int32": to_int32, "to_number": to_number, "to_string": to_string,
        "truthy": truthy, "type_of": type_of,
    }


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


# -- code generation -------------------------------------------------------------


class _Generator:
    """Renders one loop's blocks as the source of ``_loop``."""

    def __init__(self, code: Code, header: int, end: int, blocks: List[_Block]) -> None:
        self.code = code
        self.header = header
        self.end = end
        self.blocks = blocks
        self.block_ids = {block.start: index for index, block in enumerate(blocks)}
        self.constants: List[Any] = []
        self.lines: List[str] = []
        self.has_calls = False
        #: Frame slots the loop uses, and those it writes: the loop keeps
        #: them in locals and writes them back on every way out (nothing
        #: else can see a slot-mode frame while the loop runs).
        self.slots: Set[int] = set()
        self.written: Set[int] = set()

    # -- plumbing

    def const(self, value: Any) -> str:
        self.constants.append(value)
        return f"k{len(self.constants) - 1}"

    def slot(self, index: Any, written: bool = False) -> str:
        """The local caching frame slot ``index`` for the loop's run."""
        number = int(index)
        self.slots.add(number)
        if written:
            self.written.add(number)
        return f"l{number}"

    def emit(self, indent: int, *lines: str) -> None:
        pad = "    " * indent
        self.lines.extend(pad + line for line in lines)

    def goto(self, indent: int, target: int, here: int) -> None:
        """Transfer control to ``target`` from the block with id ``here``."""
        if not self.header <= target <= self.end:
            self.emit(indent, f"return ({target}, steps, compl)")
            return
        block = self.block_ids[target]
        if block <= here:
            self.emit(indent, f"b = {block}", "continue")
        else:
            self.emit(indent, f"b = {block}")

    # -- rendering

    def render(self) -> Tuple[str, Tuple[Any, ...]]:
        for bid, block in enumerate(self.blocks):
            self.emit(0, f"if b == {bid}:")
            self.block(bid, block)
        body = self.lines
        handlers = self.signal_handler()
        names = [f"k{index}" for index in range(len(self.constants))]
        head = ["def _loop(interp, frame, env, this, steps, compl, K):"]
        if names:
            head.append(f"    {', '.join(names)}, = K")
        head += [f"    l{slot} = frame[{slot}]" for slot in sorted(self.slots)]
        head += [
            "    max_steps = interp.max_steps",
            "    get_property = interp.get_property",
            "    record_string = interp._record_string",
            "    binary_op = interp._binary_op",
            "    set_member = interp._set_member_value",
            "    call_with_code = interp._call_with_code",
            "    call_inner = interp._call_inner",
            "    global_this = interp.global_this",
            "    lookup = env.lookup",
            "    b = 0",
            "    ip = -1",
            "    try:",
            "        while True:",
        ]
        lines = head + ["            " + line for line in body]
        lines += ["    " + line for line in handlers]
        lines += ["    finally:"]
        lines += [f"        frame[{slot}] = l{slot}" for slot in sorted(self.written)]
        lines += [
            "        if interp.steps < steps:",
            "            interp.steps = steps",
        ]
        return "\n".join(lines) + "\n", tuple(self.constants)

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

    def block(self, bid: int, block: _Block) -> None:
        code = self.code
        depth = block.depth
        for index in range(block.start, block.stop):
            op, arg, charge = code.ops[index], code.args[index], code.charges[index]
            if charge:
                self.emit(
                    1,
                    f"steps += {charge}",
                    "if steps > max_steps:",
                    "    steps = max_steps + 1",
                    "    raise budget_exceeded(max_steps)",
                )
            depth = self.op(bid, index, op, arg, depth)
        last = code.ops[block.stop - 1]
        if last not in _TERMINATORS and last not in _CONDITIONAL:
            self.goto(1, block.stop, bid)

    def op(self, bid: int, index: int, op: int, arg: Any, depth: int) -> int:
        """Emit one instruction at stack ``depth``; the depth after it."""
        d = depth
        top = f"s{d - 1}"
        emit = self.emit
        if op == LOAD_SLOT:
            emit(1, f"s{d} = {self.slot(arg)}")
        elif op == INC_SLOT:
            slot = self.slot(arg[0], written=True)
            emit(
                1,
                f"v = {slot}",
                "if type(v) is not float:",
                "    v = to_number(v)",
                f"{slot} = v + {_DELTAS[arg[1]]}",
            )
        elif op == STORE_SLOT_POP:
            emit(1, f"{self.slot(arg, written=True)} = {top}")
        elif op == CONST:
            emit(1, f"s{d} = {self.const(arg)}")
        elif op == STRING:
            # The compiler emits STRING only for literals of 2+ chars,
            # and _record_string ignores shorter ones anyway.
            emit(1, f"s{d} = record_string({self.const(arg)})")
        elif op == BINARY:
            self.binary(arg, f"s{d - 2}", top)
        elif op == STORE_SLOT:
            emit(1, f"{self.slot(arg, written=True)} = {top}")
        elif op == LOAD_NAME:
            emit(1, f"s{d} = lookup({self.const(arg)})")
        elif op == STORE_NAME:
            emit(1, f"env.assign({self.const(arg)}, {top})")
        elif op == JUMP:
            self.goto(1, arg, bid)
        elif op == JUMP_IF_FALSE or op == JUMP_IF_TRUE:
            test = "is False" if op == JUMP_IF_FALSE else "is True"
            other = "is not True" if op == JUMP_IF_FALSE else "is not False"
            negate = "not " if op == JUMP_IF_FALSE else ""
            emit(1, f"if {top} {test} or ({top} {other} and {negate}truthy({top})):")
            self.goto(2, arg, bid)
            emit(1, "else:")
            self.goto(2, index + 1, bid)
        elif op == JUMP_IF_FALSE_KEEP or op == JUMP_IF_TRUE_KEEP:
            emit(1, f"if {top} is True or ({top} is not False and truthy({top})):")
            first, second = (index + 1, arg) if op == JUMP_IF_FALSE_KEEP else (arg, index + 1)
            self.goto(2, first, bid)
            emit(1, "else:")
            self.goto(2, second, bid)
        elif op == JUMP_IF_STRICT_EQ:
            emit(1, f"if strict_equals(s{d - 2}, {top}):")
            self.goto(2, arg, bid)
            emit(1, "else:")
            self.goto(2, index + 1, bid)
        elif op == POP or op == NOP:
            pass
        elif op == MEMBER_GET:
            name = self.const(arg)
            is_length = self.const(arg == "length")
            emit(
                1,
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
            emit(
                1,
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
            self.call(index, f"s{receiver + 1}", f"s{receiver}", receiver, d, argc, message, True)
        elif op == CALL:
            argc = int(arg)
            callee = d - argc - 1
            self.call(
                index, f"s{callee}", "global_this", callee, d, argc,
                "'value is not a function'", False,
            )
        elif op == CALL_THIS_DYN:
            argc = int(arg)
            receiver = d - argc - 3
            message = f"s{receiver + 2} + ' is not a function'"
            self.call(index, f"s{receiver + 1}", f"s{receiver}", receiver, d, argc, message, True)
        elif op == DUP:
            emit(1, f"s{d} = {top}")
        elif op == INCDEC:
            emit(1, f"{top} = {top} + {_DELTAS[arg]}")
        elif op == TO_NUMBER:
            emit(1, f"if type({top}) is not float:", f"    {top} = to_number({top})")
        elif op == SWAP:
            emit(1, f"{top}, s{d - 2} = s{d - 2}, {top}")
        elif op == ROT3:
            emit(1, f"s{d - 3}, s{d - 2}, {top} = s{d - 2}, {top}, s{d - 3}")
        elif op == MEMBER_GET_EXPR:
            obj = f"s{d - 2}"
            emit(
                1,
                f"if {_ARRAY_INDEX.format(key=top, obj=obj)}:",
                f"    v = {obj}.elements",
                f"    t = int({top})",
                f"    {obj} = v[t] if t < len(v) else UNDEFINED",
                "else:",
                f"    {obj} = get_property({obj}, to_string({top}))",
            )
        elif op == MEMBER_SET:
            emit(1, f"set_member(s{d - 2}, {self.const(arg)}, {top})", f"s{d - 2} = {top}")
        elif op == MEMBER_SET_EXPR:
            key, obj = f"s{d - 2}", f"s{d - 3}"
            emit(
                1,
                f"if {_ARRAY_INDEX.format(key=key, obj=obj)}:",
                f"    v = {obj}.elements",
                f"    t = int({key})",
                "    if t < len(v):",
                f"        v[t] = {top}",
                "    elif t == len(v):",
                f"        v.append({top})",
                "    else:",
                f"        {obj}.set(str(t), {top})",
                "else:",
                f"    set_member({obj}, to_string({key}), {top})",
                f"{obj} = {top}",
            )
        elif op == METHOD_LOOKUP_EXPR:
            emit(
                1,
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
            emit(1, f"s{d - count} = JSArray([{items}])")
        elif op == OBJECT:
            count = len(arg)
            keys = self.const(arg)
            emit(1, "o = JSObject()")
            if count:
                values = ", ".join(f"s{slot}" for slot in range(d - count, d))
                emit(1, f"for v, f in zip({keys}, ({values},)):", "    o.set(v, f)")
            emit(1, f"s{d - count} = o")
        elif op == UNARY:
            emit(1, f"{top} = {_UNARY_OPS[arg].format(v=top)}")
        elif op == TYPEOF:
            emit(1, f"{top} = type_of({top})")
        elif op == TYPEOF_NAME:
            name = self.const(arg)
            emit(1, f"s{d} = type_of(env.lookup({name})) if env.has({name}) else 'undefined'")
        elif op == DELETE_MEMBER:
            emit(
                1,
                f"{top} = {top}.delete({self.const(arg)}) "
                f"if isinstance({top}, JSObject) else True",
            )
        elif op == DELETE_MEMBER_EXPR:
            emit(
                1,
                f"v = to_string({top})",
                f"s{d - 2} = s{d - 2}.delete(v) if isinstance(s{d - 2}, JSObject) else True",
            )
        elif op == SET_COMPL:
            emit(1, f"compl = {top}")
        elif op == SET_COMPL_UNDEF:
            emit(1, "compl = UNDEFINED")
        elif op == DECLARE:
            emit(1, f"env.declare({self.const(arg)})")
        elif op == DECLARE_POP:
            emit(1, f"env.declare({self.const(arg)}, {top})")
        elif op == DECLARE_SLOT_POP:
            emit(1, f"if {top} is not UNDEFINED:", f"    {self.slot(arg, written=True)} = {top}")
        elif op == LOAD_THIS:
            emit(1, f"s{d} = this")
        elif op == RETURN:
            emit(1, f"return (-1, steps, {top})")
        elif op == THROW:
            emit(1, f"raise JSThrow({top})")
        else:  # pragma: no cover - _translatable() admits nothing else
            raise AssertionError(f"untranslatable op {op}")
        pops, pushes = _stack_effect(op, arg)
        return d - pops + pushes

    def binary(self, op: str, left: str, right: str) -> None:
        text = _OP_TEXT[op]
        slow = f"{left} = binary_op({text!r}, {left}, {right})"
        if text in _FLOAT_OPS:
            fast = _FLOAT_OPS[text].format(l=left, r=right)
            self.emit(
                1,
                f"if type({left}) is float and type({right}) is float:",
                f"    {left} = {fast}",
            )
            if text == "+":
                self.emit(
                    1,
                    f"elif type({left}) is str and type({right}) is str:",
                    f"    {left} = record_string({left} + {right})",
                )
            self.emit(1, "else:", f"    {slow}")
        elif text in _INT32_OPS:
            self.emit(
                1,
                f"if (type({left}) is float and type({right}) is float"
                f" and -2147483648.0 <= {left} <= 2147483647.0"
                f" and -2147483648.0 <= {right} <= 2147483647.0):",
                f"    {left} = float(int({left}) {_INT32_OPS[text]} int({right}))",
                "else:",
                f"    {slow}",
            )
        else:
            self.emit(1, slow)

    def call(
        self,
        index: int,
        fn: str,
        this: str,
        result: int,
        depth: int,
        argc: int,
        message: str,
        string_methods: bool,
    ) -> None:
        """One call site: the dispatch loop's CALL/CALL_THIS paths, with
        ``interp.steps`` synced around every call that can charge."""
        self.has_calls = True
        args = "[" + ", ".join(f"s{slot}" for slot in range(depth - argc, depth)) + "]"
        out = f"s{result}"
        lines = [f"ip = {index}", f"f = {fn}", "t = type(f)"]
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
        self.emit(1, *lines)
