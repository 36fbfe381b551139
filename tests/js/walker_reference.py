"""Frozen tree-walking JavaScript evaluator (differential oracle).

This is the AST evaluator the engine ran before the bytecode VM became
the reader's only engine.  It hoists a parsed program's declarations
and evaluates it node by node, charging one step per statement and per
expression it enters, pre-order.  The compiler's charge aggregation is
defined against those ticks (``repro.js.compiler``).

:class:`Walker` subclasses the runtime kernel
:class:`repro.js.interpreter.Interpreter`, so it shares the VM's value
model, builtins, host wiring and property, operator, call and
construction kernels.  Only evaluation is its own: it implements the
engine entries ``run``, ``eval_in_scope`` and ``_call_inner`` over the
AST, and its script functions are :class:`ASTFunction` objects that
carry their parameters and body.

The VM must agree with it on every script: completion values, errors,
step counts and host telemetry, and, run in the reader, verdicts.  The
``-m diff`` suites check that (``tests/js/test_differential.py``,
``tests/property/test_js_engines.py``, ``tests/js/test_hotloop.py``),
MDScan's swap does it for the baseline
(``tests/baselines/test_detectors.py``), and a pipeline-level swap
does it for whole scans.  A swap replaces the VM class with
:class:`Walker` for a whole run; the two engines never call each
other's functions.

Never use this from ``src/``: no scan runs it.
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.js import nodes as ast
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
from repro.js.interpreter import EMPTY, Environment, Interpreter
from repro.js.parser import parse
from repro.js.values import (
    JSArray,
    JSFunction,
    JSObject,
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


class ASTFunction(JSFunction):
    """A script function the walker made: parameters, body and closure."""

    def __init__(
        self,
        name: Optional[str],
        params: List[str],
        body: ast.Block,
        closure: Environment,
    ) -> None:
        super().__init__(name, closure)
        self.params = params
        self.body = body


class Walker(Interpreter):
    """Evaluates parsed programs against a global environment."""

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
            env.declare(node.name, ASTFunction(node.name, node.params, node.body, env))
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
        env.declare(node.name, ASTFunction(node.name, node.params, node.body, env))
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
        return ASTFunction(node.name, node.params, node.body, env)

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
            return self._call(fn, receiver, args)
        if isinstance(node.callee, ast.Identifier) and node.callee.name == "eval":
            # Direct eval: execute in the caller's scope.
            args = [self.eval_expression(arg, env, this) for arg in node.arguments]
            return self.eval_in_scope(args[0] if args else UNDEFINED, env, this)
        fn = self.eval_expression(node.callee, env, this)
        args = [self.eval_expression(arg, env, this) for arg in node.arguments]
        if not is_callable(fn):
            raise JSRuntimeError("value is not a function", "TypeError")
        return self._call(fn, self.global_this, args)

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

    # -- calls -----------------------------------------------------------------

    def _call_inner(self, fn: Any, this: Any, args: List[Any]) -> Any:
        if not isinstance(fn, ASTFunction):
            return super()._call_inner(fn, this, args)
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
