"""Bytecode VM: executes :class:`repro.js.compiler.Code` fragments.

:class:`BytecodeInterpreter` subclasses the runtime kernel
:class:`~repro.js.interpreter.Interpreter` and reuses its entire value
model, builtins, host wiring, ``_binary_op``, ``get_property`` and
construction/assignment kernels; it adds the evaluation loop and the
engine entries ``run``, ``eval_in_scope`` and ``_call_inner``.  Its
reference semantics is the tree-walker kept as the differential oracle
(``tests/js/walker_reference.py``): the two are required to agree
bit-for-bit on observed API channels, monitor events, step counts and
verdicts.

Hot loops leave the dispatch loop: once a loop's back-edge has been
taken often enough, :mod:`repro.js.hotloop` translates it into a
Python function, which the VM enters at the loop header and which
returns the pc the loop exits to and the completion register.

Step budgets are charged from per-instruction aggregated charges (see
the compiler's charge-aggregation notes).  When the budget blows, the
final ``steps`` value is clamped to ``max_steps + 1`` — exactly the
count the walker's per-node ``_tick`` leaves behind — because the
simulated reader advances its virtual clock by the step delta even for
aborted scripts.
"""

from __future__ import annotations

from types import FunctionType
from typing import Any, List, Optional, Tuple

from repro.js.builtins import STRING_METHODS
from repro.js.compiler import (
    Code,
    INIT_ARG,
    INIT_SELF,
    compile_source,
    signal_target,
)
from repro.js.errors import (
    BreakSignal,
    ContinueSignal,
    JSRuntimeError,
    JSThrow,
    ReaderCrash,
    ResourceLimitExceeded,
    ReturnSignal,
    stack_overflow,
)
from repro.js.hotloop import hot_loop
from repro.js.interpreter import EMPTY, Environment, Interpreter
from repro.js.values import (
    JSArray,
    JSFunction,
    JSObject,
    NativeFunction,
    UNDEFINED,
    error_object,
    is_callable,
    strict_equals,
    to_int32,
    to_number,
    to_string,
    truthy,
    type_of,
)

#: Returned by a function-kind fragment that fell off the end without
#: executing RETURN.  Distinct from UNDEFINED: ``return;`` yields
#: UNDEFINED through RETURN, falling off yields this sentinel.
NO_RETURN = object()


class CompiledFunction(JSFunction):
    """The VM's script function: its compiled Code and its closure."""

    def __init__(self, code: Code, closure: Environment) -> None:
        super().__init__(code.name, closure)
        self.code = code


class BytecodeInterpreter(Interpreter):
    """The JS engine: the runtime kernel plus compiled bytecode."""

    #: Times this interpreter ran a loop as its translated function
    #: (``repro.js.hotloop``).
    translated_loop_runs = 0

    # -- engine entries ----------------------------------------------------

    def run(self, source: str, this: Any = None, env: Optional[Environment] = None) -> Any:
        try:
            code = compile_source(source)
            scope = env if env is not None else self.global_env
            this_value = this if this is not None else self.global_this
            self._exec_hoist(code, scope)
            return self._run_code(code, scope, this_value, None)
        except RecursionError:
            raise stack_overflow() from None

    def eval_in_scope(self, code: Any, env: Environment, this: Any) -> Any:
        if not isinstance(code, str):
            return code
        compiled = compile_source(code)
        self._exec_hoist(compiled, env)
        return self._run_code(compiled, env, this, None)

    # -- calls -----------------------------------------------------------

    def _call_inner(self, fn: Any, this: Any, args: List[Any]) -> Any:
        if isinstance(fn, CompiledFunction):
            return self._call_with_code(fn.code, fn, this, args)
        return super()._call_inner(fn, this, args)

    def _call_with_code(self, code: Code, fn: JSFunction, this: Any, args: List[Any]) -> Any:
        if code.mode == "slot":
            frame: Optional[List[Any]] = [UNDEFINED] * code.nlocals
            assert frame is not None
            nargs = len(args)
            for slot, kind, index, conditional in code.init_plan:
                if kind == INIT_SELF:
                    value: Any = fn
                elif kind == INIT_ARG:
                    value = args[index] if index < nargs else UNDEFINED
                else:
                    value = JSArray(list(args))
                if conditional and value is UNDEFINED:
                    # declare() on an existing binding ignores UNDEFINED.
                    continue
                frame[slot] = value
            env = fn.closure
        else:
            frame = None
            env = Environment(fn.closure)
            if fn.name:
                env.declare(fn.name, fn)
            for index, param in enumerate(code.params):
                env.declare(param, args[index] if index < len(args) else UNDEFINED)
            env.declare("arguments", JSArray(list(args)))
            self._exec_hoist(code, env)
        try:
            out = self._run_code(code, env, this, frame)
        except ReturnSignal as signal:
            # e.g. `eval("return x")` executed one level down.
            return signal.value
        return UNDEFINED if out is NO_RETURN else out

    def _exec_hoist(self, code: Code, env: Environment) -> None:
        for action in code.hoist_actions:
            if action[0] == "var":
                env.declare(action[1])
            else:
                fcode = action[1]
                env.declare(fcode.name, CompiledFunction(fcode, env))

    # -- try/catch/finally ------------------------------------------------

    def _exec_try(
        self,
        spec: Tuple[Code, Optional[str], Optional[Code], Optional[Code]],
        env: Environment,
        this: Any,
        frame: Optional[List[Any]],
    ) -> Any:
        try_code, catch_param, catch_code, finally_code = spec
        result: Any = UNDEFINED
        fatal = False
        # The try and catch blocks start with an empty completion
        # register: a block that produces no value leaves its parent's
        # register alone (ES5 §12.14).
        try:
            result = self._run_code(try_code, env, this, frame, EMPTY)
        except (ReaderCrash, ResourceLimitExceeded):
            # Crash or engine abort: JS-level catch/finally never runs
            # (an instrumented epilogue must not fire after a hijack).
            fatal = True
            raise
        except JSThrow as thrown:
            if catch_code is None:
                raise
            catch_env = Environment(env)
            catch_env.declare(catch_param or "e", thrown.value)
            result = self._run_code(catch_code, catch_env, this, None, EMPTY)
        except (JSRuntimeError, RecursionError) as error:
            if catch_code is None:
                raise
            catch_env = Environment(env)
            catch_env.declare(catch_param or "e", error_object(error, self.error_prototypes))
            result = self._run_code(catch_code, catch_env, this, None, EMPTY)
        finally:
            if finally_code is not None and not fatal:
                fout = self._run_code(finally_code, env, this, frame)
                if fout is not NO_RETURN and not finally_code.completion:
                    # `return` inside finally replaces any in-flight
                    # exception (Python's finally-return does exactly
                    # what the walker's propagating ReturnSignal did).
                    return fout
        return result

    # -- the dispatch loop -------------------------------------------------

    def _run_code(
        self,
        code: Code,
        env: Environment,
        this: Any,
        frame: Optional[List[Any]],
        compl: Any = UNDEFINED,
    ) -> Any:
        instrs = code.instrs
        if instrs is None:
            code.instrs = instrs = tuple(
                zip(code.ops, code.args, code.charges)
            )
        regions = code.regions
        completion = code.completion
        n = len(instrs)
        max_steps = self.max_steps
        steps = self.steps
        stack: List[Any] = []
        iters: List[Any] = []
        pc = 0
        ip = 0
        # Hot-loop locals: every dispatch avoids the attribute walks.
        push = stack.append
        pop = stack.pop
        env_lookup = env.lookup
        get_property = self.get_property
        record_string = self._record_string
        binary_op = self._binary_op
        try:
            while True:
                try:
                    while pc < n:
                        ip = pc
                        op, arg, c = instrs[ip]
                        pc = ip + 1
                        if c:
                            steps += c
                            if steps > max_steps:
                                # Clamp so the final count equals the
                                # walker's (it raises at max+1); the
                                # reader bills virtual time by delta.
                                steps = max_steps + 1
                                self.steps = steps
                                raise ResourceLimitExceeded(
                                    "js-steps", max_steps,
                                    "script exceeded its step budget",
                                )
                        if op == 0:  # LOAD_NAME
                            push(env_lookup(arg))
                        elif op == 1:  # LOAD_SLOT
                            push(frame[arg])  # type: ignore[index]
                        elif op == 55:  # INC_SLOT (fused i++/i-- statement)
                            s, delta = arg
                            value = frame[s]  # type: ignore[index]
                            if type(value) is not float:
                                value = to_number(value)
                            frame[s] = value + delta  # type: ignore[index]
                        elif op == 56:  # STORE_SLOT_POP
                            frame[arg] = pop()  # type: ignore[index]
                        elif op == 2:  # CONST
                            push(arg)
                        elif op == 3:  # STRING
                            # record_string ignores strings under 2 chars.
                            if len(arg) < 2:
                                push(arg)
                            else:
                                push(record_string(arg))
                        elif op == 4:  # BINARY
                            right = pop()
                            left = stack[-1]
                            if type(left) is float and type(right) is float:
                                # All-float arithmetic/comparisons inline;
                                # Python float NaN semantics already match
                                # _binary_op's (NaN compares false, NaN
                                # propagates through + - *).
                                if arg == "+":
                                    stack[-1] = left + right
                                elif arg == "<":
                                    stack[-1] = left < right
                                elif arg == "-":
                                    stack[-1] = left - right
                                elif arg == "*":
                                    stack[-1] = left * right
                                elif arg == ">":
                                    stack[-1] = left > right
                                elif arg == "<=":
                                    stack[-1] = left <= right
                                elif arg == ">=":
                                    stack[-1] = left >= right
                                elif arg == "===" or arg == "==":
                                    stack[-1] = left == right
                                elif arg == "!==" or arg == "!=":
                                    stack[-1] = left != right
                                elif (
                                    (arg == "^" or arg == "&" or arg == "|")
                                    and -2147483648.0 <= left <= 2147483647.0
                                    and -2147483648.0 <= right <= 2147483647.0
                                ):
                                    # In-range int32 operands: int()
                                    # truncation equals to_int32 here
                                    # (NaN fails the range check).
                                    li = int(left)
                                    ri = int(right)
                                    if arg == "^":
                                        stack[-1] = float(li ^ ri)
                                    elif arg == "&":
                                        stack[-1] = float(li & ri)
                                    else:
                                        stack[-1] = float(li | ri)
                                else:
                                    stack[-1] = binary_op(arg, left, right)
                            elif (
                                arg == "+"
                                and type(left) is str
                                and type(right) is str
                            ):
                                stack[-1] = record_string(left + right)
                            else:
                                stack[-1] = binary_op(arg, left, right)
                        elif op == 5:  # STORE_SLOT
                            frame[arg] = stack[-1]  # type: ignore[index]
                        elif op == 6:  # STORE_NAME
                            env.assign(arg, stack[-1])
                        elif op == 7:  # JUMP_IF_FALSE
                            value = pop()
                            if value is False:
                                pc = arg
                            elif value is not True and not truthy(value):
                                pc = arg
                        elif op == 8:  # JUMP
                            pc = arg
                            if arg <= ip and not stack and not iters:
                                # A loop's back-edge: count it, and run a
                                # hot loop as its translation.
                                loop = hot_loop(code, arg, frame, env)
                                if loop is not None:
                                    self.translated_loop_runs += 1
                                    # A signal the loop re-raises found no
                                    # region from its raising pc: none here.
                                    ip = -1
                                    pc, steps, value = loop[0](
                                        self, frame, env, this, steps, compl, loop[1]
                                    )
                                    if pc < 0:
                                        return value
                                    compl = value
                        elif op == 9:  # POP
                            pop()
                        elif op == 10:  # MEMBER_GET
                            obj = stack[-1]
                            tobj = type(obj)
                            if tobj is str:
                                if arg == "length":
                                    stack[-1] = float(len(obj))
                                else:
                                    stack[-1] = get_property(obj, arg)
                            elif tobj is JSArray and arg == "length":
                                stack[-1] = float(len(obj.elements))
                            elif (
                                (
                                    tobj is JSObject
                                    or tobj is NativeFunction
                                    or tobj is CompiledFunction
                                )
                                and arg in obj.properties
                            ):
                                # Own-property hit on a non-array object:
                                # exactly get_property's first branch.
                                stack[-1] = obj.properties[arg]
                            else:
                                stack[-1] = get_property(obj, arg)
                        elif op == 11:  # CALL_THIS
                            name, argc = arg
                            if argc:
                                call_args = stack[-argc:]
                                del stack[-argc:]
                            else:
                                call_args = []
                            fn = pop()
                            receiver = pop()
                            tfn = type(fn)
                            if tfn is FunctionType:
                                # String-method fast path: fn is the raw
                                # builtin from STRING_METHODS.
                                push(fn(self, receiver, call_args))
                            elif tfn is NativeFunction:
                                self.steps = steps
                                result = fn.fn(self, receiver, call_args)
                                steps = self.steps
                                push(result)
                            elif tfn is CompiledFunction:
                                self.steps = steps
                                result = self._call_with_code(
                                    fn.code, fn, receiver, call_args
                                )
                                steps = self.steps
                                push(result)
                            else:
                                if not is_callable(fn):
                                    raise JSRuntimeError(
                                        f"{name} is not a function", "TypeError"
                                    )
                                self.steps = steps
                                result = self._call_inner(fn, receiver, call_args)
                                steps = self.steps
                                push(result)
                        elif op == 12:  # METHOD_LOOKUP
                            receiver = stack[-1]
                            trec = type(receiver)
                            if trec is str:
                                fn = STRING_METHODS.get(arg)
                                if fn is None:
                                    fn = get_property(receiver, arg)
                            elif (
                                (
                                    trec is JSObject
                                    or trec is NativeFunction
                                    or trec is CompiledFunction
                                )
                                and arg in receiver.properties
                            ):
                                fn = receiver.properties[arg]
                            else:
                                fn = get_property(receiver, arg)
                            push(fn)
                        elif op == 13:  # CALL
                            argc = arg
                            if argc:
                                call_args = stack[-argc:]
                                del stack[-argc:]
                            else:
                                call_args = []
                            fn = pop()
                            tfn = type(fn)
                            if tfn is CompiledFunction:
                                self.steps = steps
                                result = self._call_with_code(
                                    fn.code, fn, self.global_this, call_args
                                )
                                steps = self.steps
                                push(result)
                            elif tfn is NativeFunction:
                                self.steps = steps
                                result = fn.fn(self, self.global_this, call_args)
                                steps = self.steps
                                push(result)
                            else:
                                if not is_callable(fn):
                                    raise JSRuntimeError(
                                        "value is not a function", "TypeError"
                                    )
                                self.steps = steps
                                result = self._call_inner(
                                    fn, self.global_this, call_args
                                )
                                steps = self.steps
                                push(result)
                        elif op == 14:  # SET_COMPL
                            compl = pop()
                        elif op == 15:  # SET_COMPL_UNDEF
                            compl = UNDEFINED
                        elif op == 16:  # DUP
                            push(stack[-1])
                        elif op == 17:  # INCDEC
                            stack[-1] = stack[-1] + arg
                        elif op == 18:  # TO_NUMBER
                            value = stack[-1]
                            if type(value) is not float:
                                stack[-1] = to_number(value)
                        elif op == 19:  # JUMP_IF_TRUE
                            value = pop()
                            if value is True:
                                pc = arg
                            elif value is not False and truthy(value):
                                pc = arg
                        elif op == 20:  # JUMP_IF_FALSE_KEEP (&&)
                            value = stack[-1]
                            if value is True or (value is not False and truthy(value)):
                                pop()
                            else:
                                pc = arg
                        elif op == 21:  # JUMP_IF_TRUE_KEEP (||)
                            value = stack[-1]
                            if value is True or (value is not False and truthy(value)):
                                pc = arg
                            else:
                                pop()
                        elif op == 22:  # JUMP_IF_STRICT_EQ
                            test = pop()
                            if strict_equals(stack[-1], test):
                                pc = arg
                        elif op == 23:  # SWAP
                            stack[-1], stack[-2] = stack[-2], stack[-1]
                        elif op == 24:  # ROT3 (third-from-top to top)
                            third = stack[-3]
                            stack[-3] = stack[-2]
                            stack[-2] = stack[-1]
                            stack[-1] = third
                        elif op == 25:  # MEMBER_GET_EXPR
                            key = pop()
                            obj = stack[-1]
                            if (
                                type(key) is float
                                and type(obj) is JSArray
                                and 0.0 <= key <= 4294967294.0
                                and key.is_integer()
                            ):
                                # An array index as a number: the element
                                # to_string -> array_index would reach.
                                elements = obj.elements
                                index = int(key)
                                stack[-1] = (
                                    elements[index] if index < len(elements) else UNDEFINED
                                )
                            else:
                                stack[-1] = get_property(obj, to_string(key))
                        elif op == 26:  # MEMBER_SET
                            value = pop()
                            obj = pop()
                            self._set_member_value(obj, arg, value)
                            push(value)
                        elif op == 27:  # MEMBER_SET_EXPR
                            value = pop()
                            key = pop()
                            obj = pop()
                            if (
                                type(key) is float
                                and type(obj) is JSArray
                                and 0.0 <= key <= 4294967294.0
                                and key.is_integer()
                            ):
                                elements = obj.elements
                                index = int(key)
                                if index < len(elements):
                                    elements[index] = value
                                elif index == len(elements):
                                    elements.append(value)
                                else:
                                    # Past the end: JSArray.set fills the gap.
                                    obj.set(str(index), value)
                            else:
                                self._set_member_value(obj, to_string(key), value)
                            push(value)
                        elif op == 28:  # METHOD_LOOKUP_EXPR
                            name = to_string(pop())
                            receiver = stack[-1]
                            if type(receiver) is str:
                                fn = STRING_METHODS.get(name)
                                if fn is None:
                                    fn = self.get_property(receiver, name)
                            else:
                                fn = self.get_property(receiver, name)
                            push(fn)
                            push(name)
                        elif op == 29:  # CALL_THIS_DYN
                            argc = arg
                            if argc:
                                call_args = stack[-argc:]
                                del stack[-argc:]
                            else:
                                call_args = []
                            name = pop()
                            fn = pop()
                            receiver = pop()
                            tfn = type(fn)
                            if tfn is FunctionType:
                                push(fn(self, receiver, call_args))
                            elif tfn is NativeFunction:
                                self.steps = steps
                                result = fn.fn(self, receiver, call_args)
                                steps = self.steps
                                push(result)
                            elif tfn is CompiledFunction:
                                self.steps = steps
                                result = self._call_with_code(
                                    fn.code, fn, receiver, call_args
                                )
                                steps = self.steps
                                push(result)
                            else:
                                if not is_callable(fn):
                                    raise JSRuntimeError(
                                        f"{name} is not a function", "TypeError"
                                    )
                                self.steps = steps
                                result = self._call_inner(fn, receiver, call_args)
                                steps = self.steps
                                push(result)
                        elif op == 30:  # DIRECT_EVAL
                            argc = arg
                            if argc:
                                call_args = stack[-argc:]
                                del stack[-argc:]
                                value = call_args[0]
                            else:
                                value = UNDEFINED
                            self.steps = steps
                            result = self.eval_in_scope(value, env, this)
                            steps = self.steps
                            push(result)
                        elif op == 31:  # NEW
                            argc = arg
                            if argc:
                                call_args = stack[-argc:]
                                del stack[-argc:]
                            else:
                                call_args = []
                            fn = pop()
                            self.steps = steps
                            result = self._construct(fn, call_args)
                            steps = self.steps
                            push(result)
                        elif op == 32:  # MAKE_FUNCTION
                            push(CompiledFunction(arg, env))
                        elif op == 33:  # ARRAY
                            count = arg
                            if count:
                                elements = stack[-count:]
                                del stack[-count:]
                            else:
                                elements = []
                            push(JSArray(elements))
                        elif op == 34:  # OBJECT
                            keys = arg
                            count = len(keys)
                            obj = JSObject()
                            if count:
                                values = stack[-count:]
                                del stack[-count:]
                                for key, value in zip(keys, values):
                                    obj.set(key, value)
                            push(obj)
                        elif op == 35:  # UNARY
                            value = pop()
                            if arg == "!":
                                push(not truthy(value))
                            elif arg == "-":
                                push(-to_number(value))
                            elif arg == "+":
                                push(to_number(value))
                            elif arg == "~":
                                push(float(~to_int32(value)))
                            elif arg == "void":
                                push(UNDEFINED)
                            else:
                                raise JSRuntimeError(f"unknown unary operator {arg}")
                        elif op == 36:  # TYPEOF
                            stack[-1] = type_of(stack[-1])
                        elif op == 37:  # TYPEOF_NAME
                            if env.has(arg):
                                push(type_of(env.lookup(arg)))
                            else:
                                push("undefined")
                        elif op == 38:  # DELETE_MEMBER
                            obj = pop()
                            if isinstance(obj, JSObject):
                                push(obj.delete(arg))
                            else:
                                push(True)
                        elif op == 39:  # DELETE_MEMBER_EXPR
                            name = to_string(pop())
                            obj = pop()
                            if isinstance(obj, JSObject):
                                push(obj.delete(name))
                            else:
                                push(True)
                        elif op == 40:  # DECLARE
                            env.declare(arg)
                        elif op == 41:  # DECLARE_POP
                            env.declare(arg, pop())
                        elif op == 42:  # DECLARE_SLOT_POP
                            value = pop()
                            if value is not UNDEFINED:
                                frame[arg] = value  # type: ignore[index]
                        elif op == 43:  # LOAD_THIS
                            push(this)
                        elif op == 44:  # RETURN
                            return pop()
                        elif op == 45:  # RAISE_RETURN
                            raise ReturnSignal(pop())
                        elif op == 46:  # RAISE_BREAK
                            raise BreakSignal(arg)
                        elif op == 47:  # RAISE_CONTINUE
                            raise ContinueSignal(arg)
                        elif op == 48:  # THROW
                            raise JSThrow(pop())
                        elif op == 49:  # EXEC_TRY
                            self.steps = steps
                            result = self._exec_try(arg, env, this, frame)
                            steps = self.steps
                            if completion:
                                if result is not EMPTY:
                                    compl = result
                            elif result is not NO_RETURN:
                                return result
                        elif op == 50:  # FORIN_INIT
                            obj = pop()
                            if isinstance(obj, JSObject):
                                keys = obj.keys()
                            elif isinstance(obj, str):
                                keys = [str(index) for index in range(len(obj))]
                            else:
                                keys = ()
                            iters.append(iter(keys))
                        elif op == 51:  # FORIN_NEXT
                            end_pc, mode, payload = arg
                            key = next(iters[-1], _EXHAUSTED)
                            if key is _EXHAUSTED:
                                iters.pop()
                                pc = end_pc
                            else:
                                # Per-iteration target charge (the
                                # documented charging rule).
                                steps += 1
                                if steps > max_steps:
                                    steps = max_steps + 1
                                    self.steps = steps
                                    raise ResourceLimitExceeded(
                                        "js-steps", max_steps,
                                        "script exceeded its step budget",
                                    )
                                if mode == 0:  # FORIN_NAME
                                    env.assign(payload, key)
                                elif mode == 1:  # FORIN_SLOT
                                    frame[payload] = key  # type: ignore[index]
                                else:  # FORIN_PUSH
                                    push(key)
                        elif op == 52:  # POP_ITER
                            iters.pop()
                        elif op == 53:  # RAISE_ERROR
                            raise JSRuntimeError(arg[0], arg[1])
                        else:  # NOP (54) — charge carrier
                            pass
                    # Fell off the end of the fragment.
                    if completion:
                        return compl
                    return NO_RETURN
                except (BreakSignal, ContinueSignal) as signal:
                    target, depth = signal_target(
                        regions, ip, isinstance(signal, ContinueSignal)
                    )
                    if target < 0:
                        raise
                    # The signal unwound out of a call, which charged
                    # self.steps past this frame's count.
                    if self.steps > steps:
                        steps = self.steps
                    # Statement boundaries always leave the value stack
                    # empty, so anything on it is mid-expression debris.
                    del stack[:]
                    del iters[depth:]
                    pc = target
        finally:
            if self.steps < steps:
                self.steps = steps


_EXHAUSTED = object()
