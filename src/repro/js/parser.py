"""Recursive-descent / Pratt parser for the JavaScript subset.

The expression path is flat, because every primary expression takes
it: an assignment parses its binary operands through one
precedence-climbing loop (precedence from one table lookup), and one
operand (prefix operators, primary, member chain, calls and a postfix
``++``/``--``) is one method.  Token tests read the token's ``type``
and ``value`` fields directly, and the statement table is built once.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.js import nodes as ast
from repro.js.errors import JSSyntaxError
from repro.js.lexer import Token, TokenType, tokenize
from repro.js.values import format_number

#: Binary operator precedence (higher binds tighter), keyed by the
#: operator token's or keyword token's value.
_BINARY_PRECEDENCE: Dict[object, int] = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4,
    "&": 5,
    "==": 6, "!=": 6, "===": 6, "!==": 6,
    "<": 7, ">": 7, "<=": 7, ">=": 7, "instanceof": 7, "in": 7,
    "<<": 8, ">>": 8, ">>>": 8,
    "+": 9, "-": 9,
    "*": 10, "/": 10, "%": 10,
}

_ASSIGNMENT_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=", ">>>="}
_PREFIX_OPS = {"!", "~", "+", "-"}
_PREFIX_KEYWORDS = {"typeof", "void", "delete"}
_UPDATE_OPS = {"++", "--"}

# Enum members as module globals: a global lookup is several times
# cheaper than an attribute of the Enum class.
_NUMBER = TokenType.NUMBER
_STRING = TokenType.STRING
_IDENTIFIER = TokenType.IDENTIFIER
_KEYWORD = TokenType.KEYWORD
_OPERATOR = TokenType.OPERATOR
_EOF = TokenType.EOF


class Parser:
    """Parses a token list into a :class:`~repro.js.nodes.Program`."""

    def __init__(self, source: str) -> None:
        self.tokens = tokenize(source)
        self.pos = 0

    # -- token plumbing ---------------------------------------------------

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.type is not _EOF:
            self.pos += 1
        return token

    def error(self, message: str) -> JSSyntaxError:
        token = self.tokens[self.pos]
        return JSSyntaxError(f"{message} (got {token.value!r})", token.line, token.column)

    def at_op(self, op: str) -> bool:
        token = self.tokens[self.pos]
        return token.type is _OPERATOR and token.value == op

    def at_keyword(self, word: str) -> bool:
        token = self.tokens[self.pos]
        return token.type is _KEYWORD and token.value == word

    def expect_op(self, op: str) -> Token:
        token = self.tokens[self.pos]
        if token.type is not _OPERATOR or token.value != op:
            raise self.error(f"expected {op!r}")
        self.pos += 1
        return token

    def eat_op(self, op: str) -> bool:
        token = self.tokens[self.pos]
        if token.type is _OPERATOR and token.value == op:
            self.pos += 1
            return True
        return False

    def eat_keyword(self, word: str) -> bool:
        token = self.tokens[self.pos]
        if token.type is _KEYWORD and token.value == word:
            self.pos += 1
            return True
        return False

    def consume_semicolon(self) -> None:
        """Semicolons are optional at '}' and EOF (simplified ASI)."""
        token = self.tokens[self.pos]
        if token.type is _OPERATOR:
            if token.value == ";":
                self.pos += 1
                return
            if token.value == "}":
                return
        elif token.type is _EOF:
            return
        # Newline-based ASI: accept if the previous token ended a line
        # before this one starts.
        if self.pos > 0 and self.tokens[self.pos - 1].line < token.line:
            return
        raise self.error("expected ';'")

    # -- program ------------------------------------------------------------

    def parse_program(self) -> ast.Program:
        body: List[ast.Node] = []
        while self.tokens[self.pos].type is not _EOF:
            body.append(self.parse_statement())
        return ast.Program(body)

    # -- statements -----------------------------------------------------------

    def parse_statement(self) -> ast.Node:
        token = self.tokens[self.pos]
        if token.type is _OPERATOR:
            if token.value == "{":
                return self.parse_block()
            if token.value == ";":
                self.pos += 1
                return ast.EmptyStatement()
        elif token.type is _KEYWORD:
            handler = _STATEMENTS.get(str(token.value))
            if handler is not None:
                return handler(self)
        expr = self.parse_expression()
        self.consume_semicolon()
        return ast.ExpressionStatement(expr)

    def parse_block(self) -> ast.Block:
        self.expect_op("{")
        statements: List[ast.Node] = []
        while not self.at_op("}"):
            if self.tokens[self.pos].type is _EOF:
                raise self.error("unterminated block")
            statements.append(self.parse_statement())
        self.pos += 1
        return ast.Block(statements)

    def _parse_var(self) -> ast.Node:
        self.pos += 1  # var
        declaration = self._parse_var_declarations()
        self.consume_semicolon()
        return declaration

    def _parse_var_declarations(self) -> ast.VarDeclaration:
        declarations: List[Tuple[str, Optional[ast.Node]]] = []
        while True:
            name_token = self.advance()
            if name_token.type is not _IDENTIFIER:
                raise self.error("expected variable name")
            init: Optional[ast.Node] = None
            if self.eat_op("="):
                init = self.parse_assignment()
            declarations.append((str(name_token.value), init))
            if not self.eat_op(","):
                break
        return ast.VarDeclaration(declarations)

    def _parse_if(self) -> ast.Node:
        self.pos += 1
        self.expect_op("(")
        test = self.parse_expression()
        self.expect_op(")")
        consequent = self.parse_statement()
        alternate = self.parse_statement() if self.eat_keyword("else") else None
        return ast.IfStatement(test, consequent, alternate)

    def _parse_while(self) -> ast.Node:
        self.pos += 1
        self.expect_op("(")
        test = self.parse_expression()
        self.expect_op(")")
        return ast.WhileStatement(test, self.parse_statement())

    def _parse_do_while(self) -> ast.Node:
        self.pos += 1
        body = self.parse_statement()
        if not self.eat_keyword("while"):
            raise self.error("expected 'while' after do-block")
        self.expect_op("(")
        test = self.parse_expression()
        self.expect_op(")")
        self.consume_semicolon()
        return ast.DoWhileStatement(body, test)

    def _parse_for(self) -> ast.Node:
        self.pos += 1
        self.expect_op("(")
        init: Optional[ast.Node] = None
        if not self.at_op(";"):
            if self.at_keyword("var"):
                self.pos += 1
                declaration = self._parse_var_declarations()
                if self.at_keyword("in") and len(declaration.declarations) == 1:
                    self.pos += 1
                    obj = self.parse_expression()
                    self.expect_op(")")
                    return ast.ForInStatement(declaration, obj, self.parse_statement())
                init = declaration
            else:
                expr = self.parse_expression(no_in=True)
                if self.at_keyword("in"):
                    self.pos += 1
                    obj = self.parse_expression()
                    self.expect_op(")")
                    return ast.ForInStatement(expr, obj, self.parse_statement())
                init = ast.ExpressionStatement(expr)
        self.expect_op(";")
        test = None if self.at_op(";") else self.parse_expression()
        self.expect_op(";")
        update = None if self.at_op(")") else self.parse_expression()
        self.expect_op(")")
        return ast.ForStatement(init, test, update, self.parse_statement())

    def _parse_function_declaration(self) -> ast.Node:
        self.pos += 1  # function
        name_token = self.advance()
        if name_token.type is not _IDENTIFIER:
            raise self.error("expected function name")
        params = self._parse_params()
        body = self.parse_block()
        return ast.FunctionDeclaration(str(name_token.value), params, body)

    def _parse_params(self) -> List[str]:
        self.expect_op("(")
        params: List[str] = []
        if not self.at_op(")"):
            while True:
                token = self.advance()
                if token.type is not _IDENTIFIER:
                    raise self.error("expected parameter name")
                params.append(str(token.value))
                if not self.eat_op(","):
                    break
        self.expect_op(")")
        return params

    def _parse_return(self) -> ast.Node:
        keyword = self.tokens[self.pos]
        self.pos += 1
        token = self.tokens[self.pos]
        if (
            (token.type is _OPERATOR and (token.value == ";" or token.value == "}"))
            or token.type is _EOF
            or token.line > keyword.line
        ):
            self.consume_semicolon()
            return ast.ReturnStatement(None)
        value = self.parse_expression()
        self.consume_semicolon()
        return ast.ReturnStatement(value)

    def _parse_break(self) -> ast.Node:
        self.pos += 1
        self.consume_semicolon()
        return ast.BreakStatement()

    def _parse_continue(self) -> ast.Node:
        self.pos += 1
        self.consume_semicolon()
        return ast.ContinueStatement()

    def _parse_throw(self) -> ast.Node:
        self.pos += 1
        value = self.parse_expression()
        self.consume_semicolon()
        return ast.ThrowStatement(value)

    def _parse_try(self) -> ast.Node:
        self.pos += 1
        block = self.parse_block()
        catch_param: Optional[str] = None
        catch_block: Optional[ast.Block] = None
        finally_block: Optional[ast.Block] = None
        if self.eat_keyword("catch"):
            self.expect_op("(")
            param_token = self.advance()
            if param_token.type is not _IDENTIFIER:
                raise self.error("expected catch parameter")
            catch_param = str(param_token.value)
            self.expect_op(")")
            catch_block = self.parse_block()
        if self.eat_keyword("finally"):
            finally_block = self.parse_block()
        if catch_block is None and finally_block is None:
            raise self.error("try needs catch or finally")
        return ast.TryStatement(block, catch_param, catch_block, finally_block)

    def _parse_switch(self) -> ast.Node:
        self.pos += 1
        self.expect_op("(")
        discriminant = self.parse_expression()
        self.expect_op(")")
        self.expect_op("{")
        cases: List[ast.SwitchCase] = []
        while not self.at_op("}"):
            if self.eat_keyword("case"):
                test: Optional[ast.Node] = self.parse_expression()
            elif self.eat_keyword("default"):
                test = None
            else:
                raise self.error("expected 'case' or 'default'")
            self.expect_op(":")
            body: List[ast.Node] = []
            while not (
                self.at_op("}") or self.at_keyword("case") or self.at_keyword("default")
            ):
                body.append(self.parse_statement())
            cases.append(ast.SwitchCase(test, body))
        self.pos += 1
        return ast.SwitchStatement(discriminant, cases)

    # -- expressions -------------------------------------------------------

    def parse_expression(self, no_in: bool = False) -> ast.Node:
        expr = self.parse_assignment(no_in)
        if not self.at_op(","):
            return expr
        expressions = [expr]
        while self.eat_op(","):
            expressions.append(self.parse_assignment(no_in))
        return ast.SequenceExpression(expressions)

    def parse_assignment(self, no_in: bool = False) -> ast.Node:
        left = self._parse_binary(0, no_in)
        token = self.tokens[self.pos]
        if token.type is not _OPERATOR:
            return left
        op = token.value
        if op == "?":
            self.pos += 1
            consequent = self.parse_assignment()
            self.expect_op(":")
            alternate = self.parse_assignment(no_in)
            left = ast.ConditionalExpression(left, consequent, alternate)
            token = self.tokens[self.pos]
            if token.type is not _OPERATOR:
                return left
            op = token.value
        if op in _ASSIGNMENT_OPS:
            self.pos += 1
            if not isinstance(left, (ast.Identifier, ast.MemberExpression)):
                raise self.error("invalid assignment target")
            value = self.parse_assignment(no_in)
            return ast.AssignmentExpression(str(op), left, value)
        return left

    def _parse_binary(self, min_precedence: int, no_in: bool) -> ast.Node:
        """Operators binding at least as tight as ``min_precedence``,
        by precedence climbing."""
        left = self._parse_operand()
        tokens = self.tokens
        while True:
            token = tokens[self.pos]
            # A string literal's value may spell an operator.
            if token.type is _STRING:
                return left
            op = token.value
            precedence = _BINARY_PRECEDENCE.get(op)
            if precedence is None or precedence < min_precedence or (no_in and op == "in"):
                return left
            self.pos += 1
            right = self._parse_binary(precedence + 1, no_in)
            if op == "&&" or op == "||":
                left = ast.LogicalExpression(str(op), left, right)
            else:
                left = ast.BinaryExpression(str(op), left, right)

    def _parse_operand(self) -> ast.Node:
        """One operand of a binary operator: prefix operators, then a
        primary with its member chain and calls, then a postfix
        ``++``/``--`` on the same line."""
        token = self.tokens[self.pos]
        kind = token.type
        value = token.value
        if kind is _OPERATOR:
            if value in _PREFIX_OPS:
                self.pos += 1
                return ast.UnaryExpression(str(value), self._parse_operand())
            if value in _UPDATE_OPS:
                self.pos += 1
                return ast.UpdateExpression(str(value), self._parse_operand(), prefix=True)
        elif kind is _KEYWORD:
            if value in _PREFIX_KEYWORDS:
                self.pos += 1
                return ast.UnaryExpression(str(value), self._parse_operand())
            if value == "new":
                self.pos += 1
                callee = self._parse_member_chain(self._parse_primary(), allow_calls=False)
                arguments = self._parse_arguments() if self.at_op("(") else []
                expr: ast.Node = ast.NewExpression(callee, arguments)
                return self._parse_postfix(self._parse_member_chain(expr, allow_calls=True))
        return self._parse_postfix(self._parse_member_chain(self._parse_primary(), True))

    def _parse_postfix(self, expr: ast.Node) -> ast.Node:
        token = self.tokens[self.pos]
        if (
            token.type is _OPERATOR
            and token.value in _UPDATE_OPS
            and token.line == self.tokens[self.pos - 1].line
        ):
            self.pos += 1
            return ast.UpdateExpression(str(token.value), expr, prefix=False)
        return expr

    def _parse_member_chain(self, expr: ast.Node, allow_calls: bool) -> ast.Node:
        tokens = self.tokens
        while True:
            token = tokens[self.pos]
            if token.type is not _OPERATOR:
                return expr
            op = token.value
            if op == ".":
                self.pos += 1
                name_token = self.advance()
                if name_token.type is not _IDENTIFIER and name_token.type is not _KEYWORD:
                    raise self.error("expected property name")
                expr = ast.MemberExpression(
                    expr, ast.Identifier(str(name_token.value)), computed=False
                )
            elif op == "[":
                self.pos += 1
                prop = self.parse_expression()
                self.expect_op("]")
                expr = ast.MemberExpression(expr, prop, computed=True)
            elif op == "(" and allow_calls:
                expr = ast.CallExpression(expr, self._parse_arguments())
            else:
                return expr

    def _parse_arguments(self) -> List[ast.Node]:
        self.expect_op("(")
        arguments: List[ast.Node] = []
        if not self.at_op(")"):
            while True:
                arguments.append(self.parse_assignment())
                if not self.eat_op(","):
                    break
        self.expect_op(")")
        return arguments

    def _parse_primary(self) -> ast.Node:
        token = self.tokens[self.pos]
        kind = token.type
        value = token.value
        if kind is _IDENTIFIER:
            self.pos += 1
            return ast.Identifier(str(value))
        if kind is _STRING:
            self.pos += 1
            return ast.StringLiteral(str(value))
        if kind is _NUMBER:
            self.pos += 1
            return ast.NumberLiteral(float(token.value))
        if kind is _KEYWORD:
            literal = _KEYWORD_LITERALS.get(str(value))
            if literal is not None:
                self.pos += 1
                return literal()
            if value == "function":
                self.pos += 1
                name: Optional[str] = None
                if self.tokens[self.pos].type is _IDENTIFIER:
                    name = str(self.advance().value)
                params = self._parse_params()
                body = self.parse_block()
                return ast.FunctionExpression(name, params, body)
        elif kind is _OPERATOR:
            if value == "(":
                self.pos += 1
                expr = self.parse_expression()
                self.expect_op(")")
                return expr
            if value == "[":
                self.pos += 1
                elements: List[ast.Node] = []
                if not self.at_op("]"):
                    while True:
                        elements.append(self.parse_assignment())
                        if not self.eat_op(","):
                            break
                self.expect_op("]")
                return ast.ArrayLiteral(elements)
            if value == "{":
                self.pos += 1
                return self._parse_object_literal()
        raise self.error("unexpected token")

    def _parse_object_literal(self) -> ast.Node:
        entries: List[Tuple[str, ast.Node]] = []
        if not self.at_op("}"):
            while True:
                key_token = self.advance()
                kind = key_token.type
                if kind is _IDENTIFIER or kind is _STRING or kind is _KEYWORD:
                    key = str(key_token.value)
                elif kind is _NUMBER:
                    key = format_number(float(key_token.value))
                else:
                    raise self.error("bad object literal key")
                self.expect_op(":")
                entries.append((key, self.parse_assignment()))
                if not self.eat_op(","):
                    break
        self.expect_op("}")
        return ast.ObjectLiteral(entries)


#: Keyword statements, by keyword.
_STATEMENTS: Dict[str, Callable[[Parser], ast.Node]] = {
    "var": Parser._parse_var,
    "if": Parser._parse_if,
    "while": Parser._parse_while,
    "do": Parser._parse_do_while,
    "for": Parser._parse_for,
    "function": Parser._parse_function_declaration,
    "return": Parser._parse_return,
    "break": Parser._parse_break,
    "continue": Parser._parse_continue,
    "throw": Parser._parse_throw,
    "try": Parser._parse_try,
    "switch": Parser._parse_switch,
}

#: Keywords that are a literal or ``this`` on their own.
_KEYWORD_LITERALS: Dict[str, Callable[[], ast.Node]] = {
    "true": lambda: ast.BooleanLiteral(True),
    "false": lambda: ast.BooleanLiteral(False),
    "null": ast.NullLiteral,
    "undefined": ast.UndefinedLiteral,
    "this": ast.ThisExpression,
}


def parse(source: str) -> ast.Program:
    """Parse JavaScript source into an AST."""
    return Parser(source).parse_program()
