"""Walker/visitor framework over the repro.js AST.

The ``diff``-marked tests at the end hold the field table behind
:func:`repro.js.nodes.child_nodes` to the ``dataclasses.fields`` walk it
replaced, on every node class and on every node of every corpus script.
"""

import dataclasses
import inspect

import pytest

from repro.js import nodes as ast
from repro.js.errors import JSSyntaxError
from repro.js.parser import parse
from repro.jsast.walk import NodeVisitor, iter_child_nodes, walk
from tests.js.test_differential import corpus_scripts
from tests.jsast.static_golden import static_golden_layers


def _all_node_kinds():
    """Every concrete Node subclass defined in repro.js.nodes."""
    return sorted(
        (
            cls
            for _name, cls in inspect.getmembers(ast, inspect.isclass)
            if issubclass(cls, ast.Node)
            and cls is not ast.Node
            and dataclasses.is_dataclass(cls)
        ),
        key=lambda cls: cls.__name__,
    )


def _make_node(cls):
    """Minimal instance of ``cls`` with Identifier leaves for children.

    Field values are synthesised from the annotation text, so a new
    node kind with a new child-field shape fails loudly here instead of
    being silently skipped by introspection-based walking."""
    values = []
    for field in dataclasses.fields(cls):
        ann = str(field.type)
        if "List[Tuple[str, Optional[Node]]]" in ann:
            values.append([("a", ast.Identifier("leaf")), ("b", None)])
        elif "List[Tuple[str, Node]]" in ann:
            values.append([("a", ast.Identifier("leaf"))])
        elif "List[str]" in ann:
            values.append(["p"])
        elif "List[SwitchCase]" in ann:
            values.append([ast.SwitchCase(None, [ast.Identifier("leaf")])])
        elif "List[Node]" in ann:
            values.append([ast.Identifier("leaf")])
        elif "Block" in ann:
            values.append(ast.Block([ast.Identifier("leaf")]))
        elif "Optional[Node]" in ann or ann == "Node":
            values.append(ast.Identifier("leaf"))
        elif "Optional[str]" in ann or ann == "str":
            values.append("x")
        elif ann == "bool":
            values.append(False)
        elif ann == "float":
            values.append(0.0)
        else:
            raise AssertionError(
                f"{cls.__name__}.{field.name}: unhandled annotation {ann!r} — "
                "teach _make_node about it"
            )
    return cls(*values)


class TestNodeKindExhaustiveness:
    """Guard: every node kind instantiates, walks, and dispatches.

    The abstract interpreter and the rule walkers rely on the generic
    field-introspection walker reaching every child of every node kind;
    these tests fail on any new node kind whose children the
    conventions here do not cover."""

    @pytest.mark.parametrize(
        "cls", _all_node_kinds(), ids=lambda cls: cls.__name__
    )
    def test_walk_reaches_node_and_its_children(self, cls):
        node = _make_node(cls)
        walked = list(walk(node))
        assert walked[0] is node
        expected_children = list(iter_child_nodes(node))
        for child in expected_children:
            assert child in walked
        leaves = [
            n for n in walked
            if isinstance(n, ast.Identifier) and n.name == "leaf"
        ]
        has_child_field = any(
            isinstance(getattr(node, f.name), (ast.Node, list))
            for f in dataclasses.fields(node)
        )
        if has_child_field and expected_children:
            assert leaves, f"{cls.__name__}: no leaf child was walked"

    def test_visitor_dispatches_every_kind(self):
        kinds = _all_node_kinds()
        program = ast.Program(
            body=[_make_node(cls) for cls in kinds if cls is not ast.Program]
        )
        seen = set()

        class Recorder(NodeVisitor):
            def visit(self, node):
                seen.add(type(node))
                return self.generic_visit(node)

        Recorder().visit(program)
        missing = {cls.__name__ for cls in kinds} - {
            cls.__name__ for cls in seen
        }
        assert not missing, f"visitor never reached: {sorted(missing)}"


class TestIterChildNodes:
    def test_plain_node_fields(self):
        node = ast.BinaryExpression("+", ast.Identifier("a"), ast.Identifier("b"))
        children = list(iter_child_nodes(node))
        assert [c.name for c in children] == ["a", "b"]

    def test_list_fields(self):
        program = parse("f(1, 2, 3);")
        call = program.body[0].expression
        assert len(list(iter_child_nodes(call))) == 4  # callee + 3 args

    def test_tuple_list_fields_var_declaration(self):
        node = parse("var a = 1, b, c = 'x';").body[0]
        inits = list(iter_child_nodes(node))
        # b has no initialiser; only the two init nodes are children.
        assert len(inits) == 2

    def test_tuple_list_fields_object_literal(self):
        obj = parse("x({a: 1, b: y});").body[0].expression.arguments[0]
        assert isinstance(obj, ast.ObjectLiteral)
        assert len(list(iter_child_nodes(obj))) == 2

    def test_none_fields_skipped(self):
        node = parse("if (a) b;").body[0]
        assert all(isinstance(c, ast.Node) for c in iter_child_nodes(node))


class TestWalk:
    def test_yields_root_first(self):
        program = parse("var a = 1;")
        assert next(iter(walk(program))) is program

    def test_reaches_deep_nodes(self):
        program = parse("while (s.length < 10) { s += s; }")
        kinds = {type(n).__name__ for n in walk(program)}
        assert "WhileStatement" in kinds
        assert "AssignmentExpression" in kinds
        assert "MemberExpression" in kinds

    def test_source_order(self):
        program = parse("var a = 1; var b = 2;")
        names = [
            name
            for node in walk(program)
            if isinstance(node, ast.VarDeclaration)
            for name, _init in node.declarations
        ]
        assert names == ["a", "b"]

    def test_counts_every_node_once(self):
        program = parse("f(a + b, c);")
        nodes = list(walk(program))
        assert len(nodes) == len({id(n) for n in nodes})


class TestNodeVisitor:
    def test_dispatch_by_type(self):
        seen = []

        class V(NodeVisitor):
            def visit_Identifier(self, node):
                seen.append(node.name)

        # Unhandled types fall through to generic_visit, which recurses,
        # so every identifier in the tree is reached.
        V().visit(parse("a + b * c;"))
        assert sorted(seen) == ["a", "b", "c"]

    def test_handled_type_stops_recursion_unless_requested(self):
        seen = []

        class V(NodeVisitor):
            def visit_BinaryExpression(self, node):
                seen.append(node.op)  # no generic_visit: no recursion

        V().visit(parse("a + b * c;"))
        assert seen == ["+"]  # the nested * is never reached

    def test_generic_visit_recurses_by_default(self):
        calls = []

        class V(NodeVisitor):
            def visit_CallExpression(self, node):
                calls.append(node)
                self.generic_visit(node)

        V().visit(parse("f(g(h()));"))
        assert len(calls) == 3


# -- the child-table oracle -------------------------------------------------------


def reference_children(node):
    """Child discovery as it was before the field table: introspect
    ``dataclasses.fields`` on every call."""
    children = []
    for field in dataclasses.fields(node):
        value = getattr(node, field.name)
        if isinstance(value, ast.Node):
            children.append(value)
        elif isinstance(value, (list, tuple)):
            for item in value:
                if isinstance(item, ast.Node):
                    children.append(item)
                elif isinstance(item, tuple):
                    for element in item:
                        if isinstance(element, ast.Node):
                            children.append(element)
    return children


def corpus_programs():
    """Every corpus script and every layer the static analysis parses on
    the snapshot corpus, parsed; layers that do not parse are left out."""
    programs = []
    for source in corpus_scripts() + list(static_golden_layers()):
        try:
            programs.append(parse(source))
        except JSSyntaxError:
            continue
    return programs


def _same_objects(left, right):
    return len(left) == len(right) and all(a is b for a, b in zip(left, right))


@pytest.mark.diff
def test_the_field_table_covers_every_node_class():
    assert set(ast.FIELD_NAMES) == set(_all_node_kinds())


@pytest.mark.diff
@pytest.mark.parametrize("cls", _all_node_kinds(), ids=lambda cls: cls.__name__)
def test_child_nodes_match_the_fields_walk_on_every_node_class(cls):
    node = _make_node(cls)
    assert _same_objects(ast.child_nodes(node), reference_children(node))


@pytest.mark.diff
def test_child_nodes_match_the_fields_walk_on_every_corpus_node():
    programs = corpus_programs()
    assert len(programs) > 50
    nodes = 0
    for program in programs:
        stack = [program]
        while stack:
            node = stack.pop()
            nodes += 1
            expected = reference_children(node)
            assert _same_objects(ast.child_nodes(node), expected), node
            stack.extend(expected)
    assert nodes > 1000
