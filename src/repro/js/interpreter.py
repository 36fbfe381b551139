"""Tree-walking evaluator for the JavaScript subset.

Design notes relevant to the reproduction:

* **Allocation accounting.** Every string the program materialises is
  charged to a host callback at two bytes per character (UTF-16, the
  unit real heap-spray arithmetic uses).  The simulated reader wires
  this into the process memory counters, which is how the paper's
  "suspicious memory consumption" feature (F8) observes heap sprays.
* **Spray pool.** Large strings are additionally handed to the host so
  the reader's control-flow-hijack model can scan the "heap" for a NOP
  sled + payload, exactly mirroring the paper's infection model.
* **Step budget.** A step counter bounds runaway scripts (the engine is
  used inside tests and benchmarks; an attacker-controlled infinite
  loop must not hang the harness).
* **`eval`.** Executes in the caller's scope — the instrumentation's
  prologue depends on real `eval` semantics.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, Optional

from repro.js import nodes as ast
from repro.js.errors import (
    BreakSignal,
    ContinueSignal,
    JSRuntimeError,
    JSThrow,
    ResourceLimitExceeded,
    ReturnSignal,
    stack_overflow,
)
from repro.js.parser import parse
from repro.js.values import (
    JSArray,
    JSFunction,
    JSObject,
    NativeFunction,
    UNDEFINED,
    array_index,
    error_object,
    is_callable,
    loose_equals,
    strict_equals,
    to_int32,
    to_number,
    to_string,
    to_uint32,
    truthy,
    type_of,
)

#: Strings at or above this length are reported to the host spray pool.
SPRAY_POOL_THRESHOLD = 4096

#: Bytes per JS string character (UTF-16), used for heap accounting.
BYTES_PER_CHAR = 2

#: The completion of a statement that produces no value: a declaration,
#: an empty statement, or a block of only those.  A statement list
#: keeps the value before it (ES5 §12.1, §14), so it never leaves
#: ``run`` or ``eval``.
EMPTY: Any = object()


class Environment:
    """A lexical scope: bindings plus a parent pointer."""

    __slots__ = ("bindings", "parent")

    def __init__(self, parent: Optional["Environment"] = None) -> None:
        self.bindings: Dict[str, Any] = {}
        self.parent = parent

    def lookup(self, name: str) -> Any:
        env: Optional[Environment] = self
        while env is not None:
            if name in env.bindings:
                return env.bindings[name]
            env = env.parent
        raise JSRuntimeError(f"{name} is not defined", kind="ReferenceError")

    def has(self, name: str) -> bool:
        env: Optional[Environment] = self
        while env is not None:
            if name in env.bindings:
                return True
            env = env.parent
        return False

    def assign(self, name: str, value: Any) -> None:
        env: Optional[Environment] = self
        while env is not None:
            if name in env.bindings:
                env.bindings[name] = value
                return
            env = env.parent
        # Implicit global, as in sloppy-mode JS.
        root = self
        while root.parent is not None:
            root = root.parent
        root.bindings[name] = value

    def declare(self, name: str, value: Any = UNDEFINED) -> None:
        if name not in self.bindings or value is not UNDEFINED:
            self.bindings[name] = value


class Host:
    """Callbacks from the engine to its embedder (the simulated reader).

    The default implementation accumulates counters locally so the
    engine works standalone.
    """

    def __init__(self) -> None:
        self.allocated_bytes = 0
        self.spray_pool: List[str] = []

    def on_string_alloc(self, length: int) -> None:
        self.allocated_bytes += length * BYTES_PER_CHAR

    def on_large_string(self, value: str) -> None:
        self.spray_pool.append(value)

    def on_step(self, count: int) -> None:  # pragma: no cover - default no-op
        del count

    def now_seconds(self) -> float:
        """Wall-clock seconds for Date(); embedders wire virtual time."""
        return 0.0


class Interpreter:
    """Evaluates parsed programs against a global environment."""

    def __init__(
        self,
        host: Optional[Host] = None,
        max_steps: int = 20_000_000,
        install_builtins: bool = True,
    ) -> None:
        self.host = host if host is not None else Host()
        self.max_steps = max_steps
        self.steps = 0
        self.global_env = Environment()
        self.global_this = JSObject(class_name="global")
        #: The prototype of each error type, by name, for the errors the
        #: engine raises (``install_globals`` fills it in).
        self.error_prototypes: Dict[str, JSObject] = {}
        if install_builtins:
            from repro.js.builtins import install_globals

            install_globals(self)

    # -- public API ------------------------------------------------------

    def run(self, source: str, this: Any = None, env: Optional[Environment] = None) -> Any:
        """Parse and execute ``source``; returns the last statement value."""
        try:
            program = parse(source)
            scope = env if env is not None else self.global_env
            this_value = this if this is not None else self.global_this
            self._hoist(program.body, scope)
            return self._exec_body(program.body, scope, this_value)
        except RecursionError:
            raise stack_overflow() from None

    def call_function(self, fn: Any, this: Any, args: List[Any]) -> Any:
        """Invoke a JS or native function from host code."""
        return self._call(fn, this, args)

    def define_global(self, name: str, value: Any) -> None:
        self.global_env.declare(name, value)

    def native(self, name: str, fn: Callable[["Interpreter", Any, List[Any]], Any]) -> NativeFunction:
        return NativeFunction(name, fn)

    # -- bookkeeping ------------------------------------------------------

    def _tick(self) -> None:
        self.steps += 1
        if self.steps > self.max_steps:
            raise ResourceLimitExceeded(
                "js-steps", self.max_steps, "script exceeded its step budget"
            )

    def _record_string(self, value: str) -> str:
        length = len(value)
        if length >= 2:
            host = self.host
            host.on_string_alloc(length)
            if length >= SPRAY_POOL_THRESHOLD:
                host.on_large_string(value)
        return value

    # -- hoisting -----------------------------------------------------------

    def _hoist(self, statements: List[ast.Node], env: Environment) -> None:
        """Hoist ``var`` names and function declarations into ``env``."""
        for statement in statements:
            self._hoist_one(statement, env)

    def _hoist_one(self, node: ast.Node, env: Environment) -> None:
        if isinstance(node, ast.VarDeclaration):
            for name, _init in node.declarations:
                env.declare(name)
        elif isinstance(node, ast.FunctionDeclaration):
            env.declare(node.name, JSFunction(node.name, node.params, node.body, env))
        elif isinstance(node, ast.Block):
            self._hoist(node.statements, env)
        elif isinstance(node, ast.IfStatement):
            self._hoist_one(node.consequent, env)
            if node.alternate is not None:
                self._hoist_one(node.alternate, env)
        elif isinstance(node, (ast.WhileStatement, ast.DoWhileStatement)):
            self._hoist_one(node.body, env)
        elif isinstance(node, ast.ForStatement):
            if node.init is not None:
                self._hoist_one(node.init, env)
            self._hoist_one(node.body, env)
        elif isinstance(node, ast.ForInStatement):
            if isinstance(node.target, ast.VarDeclaration):
                self._hoist_one(node.target, env)
            self._hoist_one(node.body, env)
        elif isinstance(node, ast.TryStatement):
            self._hoist(node.block.statements, env)
            if node.catch_block is not None:
                self._hoist(node.catch_block.statements, env)
            if node.finally_block is not None:
                self._hoist(node.finally_block.statements, env)
        elif isinstance(node, ast.SwitchStatement):
            for case in node.cases:
                self._hoist(case.body, env)

    # -- statements ------------------------------------------------------------

    def _exec_body(self, statements: List[ast.Node], env: Environment, this: Any) -> Any:
        """Run a program or function body; returns the last statement value.

        The body's own function declarations were bound at hoisting
        (ES5 §10.5), so reaching one only ticks.  A declaration nested
        in a block, if, loop, try or switch is re-created when reached
        (:meth:`_exec_FunctionDeclaration`), like SpiderMonkey's
        function statements.
        """
        result: Any = UNDEFINED
        for statement in statements:
            if isinstance(statement, ast.FunctionDeclaration):
                self._tick()
            else:
                value = self.exec_statement(statement, env, this)
                if value is not EMPTY:
                    result = value
        return result

    def exec_statement(self, node: ast.Node, env: Environment, this: Any) -> Any:
        self._tick()
        kind = type(node).__name__
        method = getattr(self, f"_exec_{kind}", None)
        if method is None:
            raise JSRuntimeError(f"cannot execute {kind}")
        return method(node, env, this)

    def _exec_Block(self, node: ast.Block, env: Environment, this: Any) -> Any:
        result: Any = EMPTY
        for statement in node.statements:
            value = self.exec_statement(statement, env, this)
            if value is not EMPTY:
                result = value
        return result

    def _exec_EmptyStatement(self, node: ast.EmptyStatement, env: Environment, this: Any) -> Any:
        return EMPTY

    def _exec_VarDeclaration(self, node: ast.VarDeclaration, env: Environment, this: Any) -> Any:
        for name, init in node.declarations:
            value = self.eval_expression(init, env, this) if init is not None else UNDEFINED
            env.declare(name, value)
        return EMPTY

    def _exec_ExpressionStatement(
        self, node: ast.ExpressionStatement, env: Environment, this: Any
    ) -> Any:
        return self.eval_expression(node.expression, env, this)

    def _exec_FunctionDeclaration(
        self, node: ast.FunctionDeclaration, env: Environment, this: Any
    ) -> Any:
        env.declare(node.name, JSFunction(node.name, node.params, node.body, env))
        return EMPTY

    def _exec_IfStatement(self, node: ast.IfStatement, env: Environment, this: Any) -> Any:
        if truthy(self.eval_expression(node.test, env, this)):
            return self.exec_statement(node.consequent, env, this)
        if node.alternate is not None:
            return self.exec_statement(node.alternate, env, this)
        return EMPTY  # ES5 §12.5: an untaken if has no value

    def _exec_WhileStatement(self, node: ast.WhileStatement, env: Environment, this: Any) -> Any:
        while truthy(self.eval_expression(node.test, env, this)):
            try:
                self.exec_statement(node.body, env, this)
            except BreakSignal:
                break
            except ContinueSignal:
                continue
        return UNDEFINED

    def _exec_DoWhileStatement(
        self, node: ast.DoWhileStatement, env: Environment, this: Any
    ) -> Any:
        while True:
            try:
                self.exec_statement(node.body, env, this)
            except BreakSignal:
                break
            except ContinueSignal:
                pass
            if not truthy(self.eval_expression(node.test, env, this)):
                break
        return UNDEFINED

    def _exec_ForStatement(self, node: ast.ForStatement, env: Environment, this: Any) -> Any:
        if node.init is not None:
            self.exec_statement(node.init, env, this)
        while node.test is None or truthy(self.eval_expression(node.test, env, this)):
            try:
                self.exec_statement(node.body, env, this)
            except BreakSignal:
                break
            except ContinueSignal:
                pass
            if node.update is not None:
                self.eval_expression(node.update, env, this)
        return UNDEFINED

    def _exec_ForInStatement(self, node: ast.ForInStatement, env: Environment, this: Any) -> Any:
        obj = self.eval_expression(node.obj, env, this)
        # Charging rule: binding the key to the loop target costs one
        # step per iteration (a loop over N keys must not be free).
        if isinstance(node.target, ast.VarDeclaration):
            name = node.target.declarations[0][0]
            env.declare(name)

            def assign(v: Any) -> None:
                self._tick()
                env.assign(name, v)
        elif isinstance(node.target, ast.Identifier):
            target_name = node.target.name

            def assign(v: Any) -> None:
                self._tick()
                env.assign(target_name, v)
        else:
            member = node.target

            def assign(v: Any) -> None:
                self._tick()
                self._assign_member(member, v, env, this)  # type: ignore[arg-type]
        if isinstance(obj, JSObject):
            for key in obj.keys():
                assign(key)
                try:
                    self.exec_statement(node.body, env, this)
                except BreakSignal:
                    break
                except ContinueSignal:
                    continue
        elif isinstance(obj, str):
            for index in range(len(obj)):
                assign(str(index))
                try:
                    self.exec_statement(node.body, env, this)
                except BreakSignal:
                    break
                except ContinueSignal:
                    continue
        return UNDEFINED

    def _exec_ReturnStatement(self, node: ast.ReturnStatement, env: Environment, this: Any) -> Any:
        value = self.eval_expression(node.value, env, this) if node.value is not None else UNDEFINED
        raise ReturnSignal(value)

    def _exec_BreakStatement(self, node: ast.BreakStatement, env: Environment, this: Any) -> Any:
        raise BreakSignal(node.label)

    def _exec_ContinueStatement(
        self, node: ast.ContinueStatement, env: Environment, this: Any
    ) -> Any:
        raise ContinueSignal(node.label)

    def _exec_ThrowStatement(self, node: ast.ThrowStatement, env: Environment, this: Any) -> Any:
        raise JSThrow(self.eval_expression(node.value, env, this))

    def _exec_TryStatement(self, node: ast.TryStatement, env: Environment, this: Any) -> Any:
        from repro.js.errors import ReaderCrash

        result: Any = UNDEFINED
        fatal = False
        try:
            result = self._exec_Block(node.block, env, this)
        except (ReaderCrash, ResourceLimitExceeded):
            # The process is gone (crash) or the engine aborted: JS-level
            # catch/finally never runs — crucially, an instrumented
            # script's epilogue must NOT fire after a crashed hijack.
            fatal = True
            raise
        except JSThrow as thrown:
            if node.catch_block is None:
                raise
            catch_env = Environment(env)
            catch_env.declare(node.catch_param or "e", thrown.value)
            result = self._exec_Block(node.catch_block, catch_env, this)
        except (JSRuntimeError, RecursionError) as error:
            if node.catch_block is None:
                raise
            catch_env = Environment(env)
            catch_env.declare(
                node.catch_param or "e", error_object(error, self.error_prototypes)
            )
            result = self._exec_Block(node.catch_block, catch_env, this)
        finally:
            if node.finally_block is not None and not fatal:
                self._exec_Block(node.finally_block, env, this)
        # ES5 §12.14: the try or catch block's value, which may be empty.
        return result

    def _exec_SwitchStatement(
        self, node: ast.SwitchStatement, env: Environment, this: Any
    ) -> Any:
        value = self.eval_expression(node.discriminant, env, this)
        matched = False
        try:
            for case in node.cases:
                if not matched and case.test is not None:
                    if strict_equals(value, self.eval_expression(case.test, env, this)):
                        matched = True
                if matched:
                    for statement in case.body:
                        self.exec_statement(statement, env, this)
            if not matched:
                defaulting = False
                for case in node.cases:
                    if case.test is None:
                        defaulting = True
                    if defaulting:
                        for statement in case.body:
                            self.exec_statement(statement, env, this)
        except BreakSignal:
            pass
        return UNDEFINED

    # -- expressions -------------------------------------------------------------

    def eval_expression(self, node: ast.Node, env: Environment, this: Any) -> Any:
        self._tick()
        kind = type(node).__name__
        method = getattr(self, f"_eval_{kind}", None)
        if method is None:
            raise JSRuntimeError(f"cannot evaluate {kind}")
        return method(node, env, this)

    def _eval_NumberLiteral(self, node: ast.NumberLiteral, env: Environment, this: Any) -> Any:
        return node.value

    def _eval_StringLiteral(self, node: ast.StringLiteral, env: Environment, this: Any) -> Any:
        return self._record_string(node.value)

    def _eval_BooleanLiteral(self, node: ast.BooleanLiteral, env: Environment, this: Any) -> Any:
        return node.value

    def _eval_NullLiteral(self, node: ast.NullLiteral, env: Environment, this: Any) -> Any:
        return None

    def _eval_UndefinedLiteral(
        self, node: ast.UndefinedLiteral, env: Environment, this: Any
    ) -> Any:
        return UNDEFINED

    def _eval_ThisExpression(self, node: ast.ThisExpression, env: Environment, this: Any) -> Any:
        return this

    def _eval_Identifier(self, node: ast.Identifier, env: Environment, this: Any) -> Any:
        return env.lookup(node.name)

    def _eval_ArrayLiteral(self, node: ast.ArrayLiteral, env: Environment, this: Any) -> Any:
        return JSArray([self.eval_expression(el, env, this) for el in node.elements])

    def _eval_ObjectLiteral(self, node: ast.ObjectLiteral, env: Environment, this: Any) -> Any:
        obj = JSObject()
        for key, value_node in node.entries:
            obj.set(key, self.eval_expression(value_node, env, this))
        return obj

    def _eval_FunctionExpression(
        self, node: ast.FunctionExpression, env: Environment, this: Any
    ) -> Any:
        return JSFunction(node.name, node.params, node.body, env)

    def _eval_SequenceExpression(
        self, node: ast.SequenceExpression, env: Environment, this: Any
    ) -> Any:
        result: Any = UNDEFINED
        for expression in node.expressions:
            result = self.eval_expression(expression, env, this)
        return result

    def _eval_ConditionalExpression(
        self, node: ast.ConditionalExpression, env: Environment, this: Any
    ) -> Any:
        if truthy(self.eval_expression(node.test, env, this)):
            return self.eval_expression(node.consequent, env, this)
        return self.eval_expression(node.alternate, env, this)

    def _eval_LogicalExpression(
        self, node: ast.LogicalExpression, env: Environment, this: Any
    ) -> Any:
        left = self.eval_expression(node.left, env, this)
        if node.op == "&&":
            return self.eval_expression(node.right, env, this) if truthy(left) else left
        return left if truthy(left) else self.eval_expression(node.right, env, this)

    def _eval_UnaryExpression(self, node: ast.UnaryExpression, env: Environment, this: Any) -> Any:
        if node.op == "typeof":
            if isinstance(node.operand, ast.Identifier) and not env.has(node.operand.name):
                # Charging rule: the operand node costs one step whether
                # or not the name resolves (an undeclared identifier must
                # not be cheaper than a declared one).
                self._tick()
                return "undefined"
            return type_of(self.eval_expression(node.operand, env, this))
        if node.op == "delete":
            if isinstance(node.operand, ast.MemberExpression):
                # Charging rule: the member node itself costs one step,
                # same as when it is evaluated as an expression.
                self._tick()
                obj = self.eval_expression(node.operand.obj, env, this)
                name = self._member_name(node.operand, env, this)
                if isinstance(obj, JSObject):
                    return obj.delete(name)
            return True
        value = self.eval_expression(node.operand, env, this)
        if node.op == "!":
            return not truthy(value)
        if node.op == "-":
            return -to_number(value)
        if node.op == "+":
            return to_number(value)
        if node.op == "~":
            return float(~to_int32(value))
        if node.op == "void":
            return UNDEFINED
        raise JSRuntimeError(f"unknown unary operator {node.op}")

    def _eval_UpdateExpression(
        self, node: ast.UpdateExpression, env: Environment, this: Any
    ) -> Any:
        old = to_number(self.eval_expression(node.operand, env, this))
        new = old + 1 if node.op == "++" else old - 1
        self._assign_target(node.operand, new, env, this)
        return new if node.prefix else old

    def _eval_BinaryExpression(
        self, node: ast.BinaryExpression, env: Environment, this: Any
    ) -> Any:
        left = self.eval_expression(node.left, env, this)
        right = self.eval_expression(node.right, env, this)
        return self._binary_op(node.op, left, right)

    def _binary_op(self, op: str, left: Any, right: Any) -> Any:
        if op == "+":
            if isinstance(left, str) or isinstance(right, str) or isinstance(left, JSArray) or isinstance(right, JSArray):
                result = to_string(left) + to_string(right)
                return self._record_string(result)
            return to_number(left) + to_number(right)
        if op == "-":
            return to_number(left) - to_number(right)
        if op == "*":
            return to_number(left) * to_number(right)
        if op == "/":
            denominator = to_number(right)
            numerator = to_number(left)
            if denominator == 0:
                if math.isnan(numerator) or numerator == 0:
                    return math.nan
                return math.inf if (numerator > 0) == (math.copysign(1, denominator) > 0) else -math.inf
            return numerator / denominator
        if op == "%":
            denominator = to_number(right)
            numerator = to_number(left)
            if denominator == 0 or math.isnan(denominator) or math.isnan(numerator) or math.isinf(numerator):
                return math.nan
            return math.fmod(numerator, denominator)
        if op == "==":
            return loose_equals(left, right)
        if op == "!=":
            return not loose_equals(left, right)
        if op == "===":
            return strict_equals(left, right)
        if op == "!==":
            return not strict_equals(left, right)
        if op in ("<", ">", "<=", ">="):
            if isinstance(left, str) and isinstance(right, str):
                if op == "<":
                    return left < right
                if op == ">":
                    return left > right
                if op == "<=":
                    return left <= right
                return left >= right
            number_left, number_right = to_number(left), to_number(right)
            if math.isnan(number_left) or math.isnan(number_right):
                return False
            if op == "<":
                return number_left < number_right
            if op == ">":
                return number_left > number_right
            if op == "<=":
                return number_left <= number_right
            return number_left >= number_right
        if op == "&":
            return float(to_int32(left) & to_int32(right))
        if op == "|":
            return float(to_int32(left) | to_int32(right))
        if op == "^":
            return float(to_int32(left) ^ to_int32(right))
        if op == "<<":
            return float(to_int32(to_int32(left) << (to_uint32(right) & 31)))
        if op == ">>":
            return float(to_int32(left) >> (to_uint32(right) & 31))
        if op == ">>>":
            return float(to_uint32(left) >> (to_uint32(right) & 31))
        if op == "instanceof":
            if not is_callable(right):
                raise JSRuntimeError("right side of instanceof is not callable", "TypeError")
            proto = right.get("prototype") if isinstance(right, JSObject) else UNDEFINED
            probe = left.prototype if isinstance(left, JSObject) else None
            while probe is not None:
                if probe is proto:
                    return True
                probe = probe.prototype
            return False
        if op == "in":
            if isinstance(right, JSObject):
                return right.has(to_string(left))
            raise JSRuntimeError("'in' needs an object", "TypeError")
        raise JSRuntimeError(f"unknown binary operator {op}")

    def _eval_AssignmentExpression(
        self, node: ast.AssignmentExpression, env: Environment, this: Any
    ) -> Any:
        if node.op == "=":
            value = self.eval_expression(node.value, env, this)
            # Charging rule: every evaluated AST node costs one step —
            # including the write-only target of a plain assignment.
            # (Compound/update targets are charged on their read
            # instead, so they still cost exactly one.)
            self._tick()
        else:
            current = self.eval_expression(node.target, env, this)
            rhs = self.eval_expression(node.value, env, this)
            value = self._binary_op(node.op[:-1], current, rhs)
        self._assign_target(node.target, value, env, this)
        return value

    def _assign_target(self, target: ast.Node, value: Any, env: Environment, this: Any) -> None:
        if isinstance(target, ast.Identifier):
            env.assign(target.name, value)
            return
        if isinstance(target, ast.MemberExpression):
            self._assign_member(target, value, env, this)
            return
        raise JSRuntimeError("invalid assignment target")

    def _assign_member(
        self, target: ast.MemberExpression, value: Any, env: Environment, this: Any
    ) -> None:
        obj = self.eval_expression(target.obj, env, this)
        name = self._member_name(target, env, this)
        self._set_member_value(obj, name, value)

    def _set_member_value(self, obj: Any, name: str, value: Any) -> None:
        """Property-write kernel shared with the bytecode VM."""
        if isinstance(obj, JSObject):
            obj.set(name, value)
            return
        if obj is UNDEFINED or obj is None:
            raise JSRuntimeError(
                f"cannot set property {name!r} of {to_string(obj)}", "TypeError"
            )
        # Primitive property writes are silently dropped (as in JS).

    def _member_name(self, node: ast.MemberExpression, env: Environment, this: Any) -> str:
        if node.computed:
            return to_string(self.eval_expression(node.prop, env, this))
        assert isinstance(node.prop, ast.Identifier)
        return node.prop.name

    def _eval_MemberExpression(
        self, node: ast.MemberExpression, env: Environment, this: Any
    ) -> Any:
        obj = self.eval_expression(node.obj, env, this)
        name = self._member_name(node, env, this)
        return self.get_property(obj, name)

    def get_property(self, obj: Any, name: str) -> Any:
        from repro.js.builtins import array_method, primitive_property

        if isinstance(obj, JSObject):
            if obj.has(name) or (
                isinstance(obj, JSArray) and (name == "length" or array_index(name) is not None)
            ):
                return obj.get(name)
            if isinstance(obj, JSArray):
                method = array_method(self, obj, name)
                if method is not None:
                    return method
            if name == "hasOwnProperty":
                return self.native(
                    "hasOwnProperty",
                    lambda i, t, a: isinstance(t, JSObject)
                    and to_string(a[0] if a else UNDEFINED) in t.properties,
                )
            if name == "toString":
                return self.native("toString", lambda i, t, a: to_string(t))
            return UNDEFINED
        if obj is UNDEFINED or obj is None:
            raise JSRuntimeError(
                f"cannot read property {name!r} of {to_string(obj)}", "TypeError"
            )
        return primitive_property(self, obj, name)

    def _eval_CallExpression(self, node: ast.CallExpression, env: Environment, this: Any) -> Any:
        if isinstance(node.callee, ast.MemberExpression):
            # Charging rule: the callee member node costs one step, the
            # same as evaluating `obj.m` outside a call position.
            self._tick()
            receiver = self.eval_expression(node.callee.obj, env, this)
            name = self._member_name(node.callee, env, this)
            fn = self.get_property(receiver, name)
            args = [self.eval_expression(arg, env, this) for arg in node.arguments]
            if not is_callable(fn):
                raise JSRuntimeError(f"{name} is not a function", "TypeError")
            return self._call(fn, receiver, args, env=env)
        if isinstance(node.callee, ast.Identifier) and node.callee.name == "eval":
            # Direct eval: execute in the caller's scope.
            args = [self.eval_expression(arg, env, this) for arg in node.arguments]
            return self.eval_in_scope(args[0] if args else UNDEFINED, env, this)
        fn = self.eval_expression(node.callee, env, this)
        args = [self.eval_expression(arg, env, this) for arg in node.arguments]
        if not is_callable(fn):
            raise JSRuntimeError("value is not a function", "TypeError")
        return self._call(fn, self.global_this, args, env=env)

    def eval_in_scope(self, code: Any, env: Environment, this: Any) -> Any:
        """Direct ``eval`` semantics."""
        if not isinstance(code, str):
            return code
        program = parse(code)
        self._hoist(program.body, env)
        return self._exec_body(program.body, env, this)

    def _eval_NewExpression(self, node: ast.NewExpression, env: Environment, this: Any) -> Any:
        fn = self.eval_expression(node.callee, env, this)
        args = [self.eval_expression(arg, env, this) for arg in node.arguments]
        return self._construct(fn, args)

    def _construct(self, fn: Any, args: List[Any]) -> Any:
        """Constructor-call kernel shared with the bytecode VM."""
        if not is_callable(fn):
            raise JSRuntimeError("constructor is not a function", "TypeError")
        prototype = fn.get("prototype") if isinstance(fn, JSObject) else UNDEFINED
        if not isinstance(prototype, JSObject):
            # Every function gets a default prototype object on first
            # construction (so `instanceof` works as in real JS).
            prototype = JSObject()
            if isinstance(fn, JSObject):
                fn.set("prototype", prototype)
        instance = JSObject(prototype=prototype)
        result = self._call(fn, instance, args)
        return result if isinstance(result, JSObject) else instance

    # -- calls -----------------------------------------------------------------

    def _call(
        self,
        fn: Any,
        this: Any,
        args: List[Any],
        env: Optional[Environment] = None,
    ) -> Any:
        del env  # call-site scope is irrelevant to both call kinds
        return self._call_inner(fn, this, args)

    def _call_inner(self, fn: Any, this: Any, args: List[Any]) -> Any:
        if isinstance(fn, NativeFunction):
            return fn.fn(self, this, args)
        if isinstance(fn, JSFunction):
            call_env = Environment(fn.closure)
            if fn.name:
                # Named function expressions can refer to themselves.
                call_env.declare(fn.name, fn)
            for index, param in enumerate(fn.params):
                call_env.declare(param, args[index] if index < len(args) else UNDEFINED)
            call_env.declare("arguments", JSArray(list(args)))
            self._hoist(fn.body.statements, call_env)
            try:
                self._exec_body(fn.body.statements, call_env, this)
            except ReturnSignal as signal:
                return signal.value
            return UNDEFINED
        raise JSRuntimeError("value is not callable", "TypeError")
