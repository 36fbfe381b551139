"""Generic visitor/walker over the :mod:`repro.js.nodes` AST.

Children are found by :func:`repro.js.nodes.child_nodes`.  The walker
is the substrate every lint rule and the constant folder are built on.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, Type

from repro.js.nodes import Node, child_nodes


def iter_child_nodes(node: Node) -> Iterator[Node]:
    """Yield the direct child nodes of ``node`` in field order."""
    return iter(child_nodes(node))


def walk(node: Node) -> Iterator[Node]:
    """Pre-order traversal of ``node`` and every descendant."""
    stack = [node]
    while stack:
        current = stack.pop()
        yield current
        # Reverse so iteration order matches source order.
        stack.extend(reversed(child_nodes(current)))


class NodeVisitor:
    """`ast.NodeVisitor`-style dispatch on the concrete node type.

    Subclasses define ``visit_<ClassName>`` methods; unhandled types
    fall through to :meth:`generic_visit`, which recurses into
    children.  A per-class method cache keeps dispatch cheap on the
    hot analysis path.
    """

    def __init__(self) -> None:
        self._dispatch_cache: Dict[Type[Node], Callable[[Node], Any]] = {}

    def visit(self, node: Node) -> Any:
        method = self._dispatch_cache.get(type(node))
        if method is None:
            method = getattr(
                self, f"visit_{type(node).__name__}", self.generic_visit
            )
            self._dispatch_cache[type(node)] = method
        return method(node)

    def generic_visit(self, node: Node) -> Any:
        for child in child_nodes(node):
            self.visit(child)
        return None
