"""Constant folding and string-concat propagation (mini abstract
interpretation).

Obfuscated droppers rarely write ``unescape("%u9090...")`` directly;
they build the argument from concatenated fragments, ``String.
fromCharCode`` runs and single-assignment temporaries.  This pass
evaluates the *provably constant* part of a script so the lint rules
see through exactly that one layer:

* literals, binary operators, ``-``/``+``/``!`` and constant
  conditionals fold bottom-up, as do the length and the characters of a
  constant string;
* ``String.fromCharCode``, the pure globals (``unescape``,
  ``parseInt``, ...), the string methods and ``join`` on an array
  literal fold when every argument (and the receiver) is constant;
* identifiers substitute their initialiser value when the variable is
  assigned exactly once, by a top-level ``var`` declaration — anything
  reassigned, updated, or declared inside a loop/branch/function stays
  opaque (loops are never executed, so a doubling loop cannot blow the
  interpreter up).

The pass is *sound for rules, not for execution*: a node either folds
to the exact runtime constant or is left untouched.  Every value is
computed by the runtime's own code through :mod:`repro.jsast.consts`,
which also caps folded strings at :data:`repro.jsast.consts.MAX_CHARS`.
"""

from __future__ import annotations

import copy
from typing import Any, Callable, Dict, List, Optional, Set

from repro.js import nodes as ast
from repro.jsast import consts
from repro.jsast.consts import Const
from repro.jsast.walk import walk

#: Fixpoint passes: enough for var-to-var constant chains of depth 3.
_MAX_PASSES = 3

class _Wrapped:
    """Box distinguishing "folded to None/null" from "did not fold"."""

    __slots__ = ("value",)

    def __init__(self, value: Const) -> None:
        self.value = value


def _wrap(value: consts.Folded) -> Optional[_Wrapped]:
    return None if value is consts.OPAQUE else _Wrapped(value)


def _collect_stable_names(program: ast.Program) -> Set[str]:
    """Names assigned exactly once, by a top-level ``var`` initialiser.

    Any write anywhere else — assignment, ``++``/``--``, a ``for-in``
    target, a nested ``var``, a function declaration or parameter —
    disqualifies the name.
    """
    writes: Dict[str, int] = {}
    top_level: Set[str] = set()
    top_ids = {id(statement) for statement in program.body}

    def bump(name: str, by: int = 1) -> None:
        writes[name] = writes.get(name, 0) + by

    for statement in program.body:
        if isinstance(statement, ast.VarDeclaration):
            for name, init in statement.declarations:
                bump(name)
                if init is not None:
                    top_level.add(name)

    for node in walk(program):
        if isinstance(node, ast.VarDeclaration):
            # Top-level declarations were counted above; nested ones
            # (inside loops/branches/functions) count as extra writes.
            if id(node) not in top_ids:
                for name, _init in node.declarations:
                    bump(name)
        elif isinstance(node, ast.AssignmentExpression):
            if isinstance(node.target, ast.Identifier):
                bump(node.target.name)
        elif isinstance(node, ast.UpdateExpression):
            if isinstance(node.operand, ast.Identifier):
                bump(node.operand.name)
        elif isinstance(node, ast.ForInStatement):
            target = node.target
            if isinstance(target, ast.Identifier):
                bump(target.name)
            elif isinstance(target, ast.VarDeclaration):
                for name, _init in target.declarations:
                    bump(name)
        elif isinstance(node, (ast.FunctionDeclaration, ast.FunctionExpression)):
            if getattr(node, "name", None):
                bump(node.name)  # type: ignore[arg-type]
            for param in node.params:
                bump(param, by=2)  # params are always runtime-varying

    return {name for name in top_level if writes.get(name, 0) == 1}


class ConstantFolder:
    """Folds one program; reusable helpers are module functions."""

    def __init__(self, program: ast.Program) -> None:
        self.program = program
        self.stable = _collect_stable_names(program)
        self.env: Dict[str, _Wrapped] = {}
        #: Nodes (by ``id``; the program keeps every node alive) that
        #: did not fold in the pass under way.  ``_rewrite`` asks again
        #: for every subtree of an opaque expression, which would fold
        #: an n-term opaque chain O(n²) times over without it.  Folded
        #: values are not kept: a chain's prefixes may each be long.
        self.opaque: Set[int] = set()

    # -- environment -----------------------------------------------------

    def _seed_environment(self) -> None:
        """Bind stable names whose initialisers fold to constants."""
        self.opaque = set()
        for statement in self.program.body:
            if not isinstance(statement, ast.VarDeclaration):
                continue
            for name, init in statement.declarations:
                if name not in self.stable or init is None:
                    continue
                value = self.fold_expr(init)
                if value is not None:
                    self.env[name] = value

    # -- expression folding ----------------------------------------------

    def fold_expr(self, node: ast.Node) -> Optional[_Wrapped]:
        """Fold ``node`` to a constant, or ``None`` when it may vary.
        A node that did not fold is not tried again in the same pass.
        (One frame per tree level: the recursion limit bounds how deep
        a chain folds.)"""
        if id(node) in self.opaque:
            return None
        value: Optional[_Wrapped] = None
        if isinstance(node, ast.StringLiteral):
            value = _Wrapped(node.value)
        elif isinstance(node, ast.NumberLiteral):
            value = _Wrapped(float(node.value))
        elif isinstance(node, ast.BooleanLiteral):
            value = _Wrapped(node.value)
        elif isinstance(node, ast.NullLiteral):
            value = _Wrapped(None)
        elif isinstance(node, ast.UndefinedLiteral):
            value = _Wrapped(consts.UNDEFINED)
        elif isinstance(node, ast.Identifier):
            value = self.env.get(node.name)
        elif isinstance(node, ast.BinaryExpression):
            left = self.fold_expr(node.left)
            right = None if left is None else self.fold_expr(node.right)
            if left is not None and right is not None:
                value = _wrap(consts.binary(node.op, left.value, right.value))
        elif isinstance(node, ast.UnaryExpression):
            operand = self.fold_expr(node.operand)
            if operand is not None:
                value = _wrap(consts.unary(node.op, operand.value))
        elif isinstance(node, ast.ConditionalExpression):
            test = self.fold_expr(node.test)
            if test is not None:
                taken = consts.truthy(test.value)
                value = self.fold_expr(node.consequent if taken else node.alternate)
        elif isinstance(node, ast.SequenceExpression):
            if node.expressions:
                value = self.fold_expr(node.expressions[-1])
        elif isinstance(node, ast.CallExpression):
            value = self._fold_call(node)
        elif isinstance(node, ast.MemberExpression):
            value = self._fold_member(node)
        if value is None:
            self.opaque.add(id(node))
        return value

    def _fold_member(self, node: ast.MemberExpression) -> Optional[_Wrapped]:
        obj = self.fold_expr(node.obj)
        if obj is None or not isinstance(obj.value, str):
            return None
        if not node.computed:
            if not isinstance(node.prop, ast.Identifier):
                return None
            return _wrap(consts.string_property(obj.value, node.prop.name))
        key = self.fold_expr(node.prop)
        if key is None:
            return None
        return _wrap(consts.string_property(obj.value, key.value))

    def _fold_all(self, nodes: List[ast.Node]) -> Optional[List[Const]]:
        values: List[Const] = []
        for node in nodes:
            folded = self.fold_expr(node)
            if folded is None:
                return None
            values.append(folded.value)
        return values

    def _fold_call(self, node: ast.CallExpression) -> Optional[_Wrapped]:
        callee = node.callee
        args = self._fold_all(node.arguments)
        if args is None:
            return None
        if isinstance(callee, ast.Identifier):
            return _wrap(consts.call_global(callee.name, args))
        if not isinstance(callee, ast.MemberExpression) or callee.computed:
            return None
        if not isinstance(callee.prop, ast.Identifier):
            return None
        method = callee.prop.name
        if (
            method == "fromCharCode"
            and isinstance(callee.obj, ast.Identifier)
            and callee.obj.name == "String"
        ):
            return _wrap(consts.from_char_code(args))
        if method == "join" and isinstance(callee.obj, ast.ArrayLiteral):
            elements = self._fold_all(callee.obj.elements)
            if elements is None:
                return None
            return _wrap(consts.join(elements, args))
        receiver = self.fold_expr(callee.obj)
        if receiver is None or not isinstance(receiver.value, str):
            return None
        return _wrap(consts.string_method(receiver.value, method, args))

    # -- tree rewriting ----------------------------------------------------

    def _rewrite(self, node: ast.Node) -> ast.Node:
        """Return ``node`` with every foldable subtree replaced by a
        literal.  Statements and opaque expressions are copied only
        where a descendant folded (the original tree is never
        mutated)."""
        if isinstance(
            node,
            (
                ast.BinaryExpression,
                ast.CallExpression,
                ast.MemberExpression,
                ast.UnaryExpression,
                ast.ConditionalExpression,
                ast.Identifier,
            ),
        ):
            folded = self.fold_expr(node)
            if folded is not None:
                return _constant_to_literal(folded.value)
        return _rebuild(node, self._rewrite)

    def run(self) -> ast.Program:
        for _ in range(_MAX_PASSES):
            before = len(self.env)
            self._seed_environment()
            if len(self.env) == before:
                break
        self.opaque = set()
        rewritten = self._rewrite(self.program)
        assert isinstance(rewritten, ast.Program)
        return rewritten


def _constant_to_literal(value: Const) -> ast.Node:
    if isinstance(value, bool):
        return ast.BooleanLiteral(value)
    if isinstance(value, float):
        return ast.NumberLiteral(value)
    if value is None:
        return ast.NullLiteral()
    if isinstance(value, str):
        return ast.StringLiteral(value)
    return ast.UndefinedLiteral()


def _rebuild(node: ast.Node, transform: Callable[[ast.Node], ast.Node]) -> ast.Node:
    """``node`` with ``transform`` applied to its children: ``node``
    itself when every child comes back unchanged, else a shallow copy
    sharing every field that did not change.  Only the paths above a
    folded node are copied."""
    changes: Dict[str, Any] = {}
    for name in ast.FIELD_NAMES[type(node)]:
        value = getattr(node, name)
        if isinstance(value, ast.Node):
            new = transform(value)
            if new is not value:
                changes[name] = new
        elif isinstance(value, list):
            items = [_rebuild_item(item, transform) for item in value]
            if any(new is not old for new, old in zip(items, value)):
                changes[name] = items
    if not changes:
        return node
    rebuilt = copy.copy(node)
    for name, value in changes.items():
        setattr(rebuilt, name, value)
    return rebuilt


def _rebuild_item(item: Any, transform: Callable[[ast.Node], ast.Node]) -> Any:
    """One list item of a node field: a node, a tuple holding nodes, or
    a plain value, rebuilt like :func:`_rebuild` rebuilds a node."""
    if isinstance(item, ast.Node):
        return transform(item)
    if isinstance(item, tuple):
        parts = tuple(
            transform(part) if isinstance(part, ast.Node) else part for part in item
        )
        if any(new is not old for new, old in zip(parts, item)):
            return parts
    return item


def fold_program(program: ast.Program) -> ast.Program:
    """Public entry point: a folded copy of ``program``.

    The input tree is left untouched; sharing of opaque subtrees
    with the output is allowed (rules only read).
    """
    return ConstantFolder(program).run()
