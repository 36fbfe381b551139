"""AST node definitions for the JavaScript engine.

Plain dataclasses; the interpreter dispatches on the concrete type.
:func:`child_nodes` is the one way every analysis finds a node's
children.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


class Node:
    """Base class for all AST nodes."""

    __slots__ = ()


# --------------------------------------------------------------------------
# Expressions


@dataclass
class NumberLiteral(Node):
    value: float


@dataclass
class StringLiteral(Node):
    value: str


@dataclass
class BooleanLiteral(Node):
    value: bool


@dataclass
class NullLiteral(Node):
    pass


@dataclass
class UndefinedLiteral(Node):
    pass


@dataclass
class ThisExpression(Node):
    pass


@dataclass
class Identifier(Node):
    name: str


@dataclass
class ArrayLiteral(Node):
    elements: List[Node]


@dataclass
class ObjectLiteral(Node):
    entries: List[Tuple[str, Node]]


@dataclass
class FunctionExpression(Node):
    name: Optional[str]
    params: List[str]
    body: "Block"


@dataclass
class UnaryExpression(Node):
    op: str
    operand: Node


@dataclass
class UpdateExpression(Node):
    op: str  # "++" or "--"
    operand: Node
    prefix: bool


@dataclass
class BinaryExpression(Node):
    op: str
    left: Node
    right: Node


@dataclass
class LogicalExpression(Node):
    op: str  # "&&" or "||"
    left: Node
    right: Node


@dataclass
class ConditionalExpression(Node):
    test: Node
    consequent: Node
    alternate: Node


@dataclass
class AssignmentExpression(Node):
    op: str  # "=", "+=", ...
    target: Node
    value: Node


@dataclass
class SequenceExpression(Node):
    expressions: List[Node]


@dataclass
class CallExpression(Node):
    callee: Node
    arguments: List[Node]


@dataclass
class NewExpression(Node):
    callee: Node
    arguments: List[Node]


@dataclass
class MemberExpression(Node):
    obj: Node
    prop: Node  # Identifier (dot) or arbitrary expression (bracket)
    computed: bool


# --------------------------------------------------------------------------
# Statements


@dataclass
class Block(Node):
    statements: List[Node]


@dataclass
class VarDeclaration(Node):
    declarations: List[Tuple[str, Optional[Node]]]


@dataclass
class ExpressionStatement(Node):
    expression: Node


@dataclass
class IfStatement(Node):
    test: Node
    consequent: Node
    alternate: Optional[Node]


@dataclass
class WhileStatement(Node):
    test: Node
    body: Node


@dataclass
class DoWhileStatement(Node):
    body: Node
    test: Node


@dataclass
class ForStatement(Node):
    init: Optional[Node]
    test: Optional[Node]
    update: Optional[Node]
    body: Node


@dataclass
class ForInStatement(Node):
    target: Node  # Identifier or VarDeclaration with one name
    obj: Node
    body: Node


@dataclass
class ReturnStatement(Node):
    value: Optional[Node]


@dataclass
class BreakStatement(Node):
    label: Optional[str] = None


@dataclass
class ContinueStatement(Node):
    label: Optional[str] = None


@dataclass
class ThrowStatement(Node):
    value: Node


@dataclass
class TryStatement(Node):
    block: Block
    catch_param: Optional[str]
    catch_block: Optional[Block]
    finally_block: Optional[Block]


@dataclass
class SwitchCase(Node):
    test: Optional[Node]  # None for "default"
    body: List[Node]


@dataclass
class SwitchStatement(Node):
    discriminant: Node
    cases: List[SwitchCase]


@dataclass
class FunctionDeclaration(Node):
    name: str
    params: List[str]
    body: Block


@dataclass
class EmptyStatement(Node):
    pass


@dataclass
class Program(Node):
    body: List[Node] = field(default_factory=list)


#: Per node class, its field names in declaration order, read once from
#: ``dataclasses.fields``.  Child discovery reads this table instead of
#: introspecting the class on every node.
FIELD_NAMES: Dict[type, Tuple[str, ...]] = {
    cls: tuple(f.name for f in dataclasses.fields(cls))
    for cls in Node.__subclasses__()
}


def child_nodes(node: Node) -> List[Node]:
    """The direct child nodes of ``node``, in field order.

    A field contributes its value when that is a node, and the nodes of
    a list: its node items, and the node parts of its tuple items
    (``ObjectLiteral.entries``, ``VarDeclaration.declarations``).
    """
    children: List[Node] = []
    for name in FIELD_NAMES[type(node)]:
        value = getattr(node, name)
        if isinstance(value, Node):
            children.append(value)
        elif isinstance(value, list):
            for item in value:
                if isinstance(item, Node):
                    children.append(item)
                elif isinstance(item, tuple):
                    for part in item:
                        if isinstance(part, Node):
                            children.append(part)
    return children
