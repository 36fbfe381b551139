"""Recursive-descent / Pratt parser for the JavaScript subset."""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.js import nodes as ast
from repro.js.errors import JSSyntaxError
from repro.js.lexer import Token, TokenType, tokenize
from repro.js.values import format_number

#: Binary operator precedence (higher binds tighter).
_BINARY_PRECEDENCE = {
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


class Parser:
    """Parses a token list into a :class:`~repro.js.nodes.Program`."""

    def __init__(self, source: str) -> None:
        self.tokens = tokenize(source)
        self.pos = 0

    # -- token plumbing ---------------------------------------------------

    @property
    def current(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.type is not TokenType.EOF:
            self.pos += 1
        return token

    def error(self, message: str) -> JSSyntaxError:
        token = self.current
        return JSSyntaxError(f"{message} (got {token.value!r})", token.line, token.column)

    def expect_op(self, op: str) -> Token:
        if not self.current.is_op(op):
            raise self.error(f"expected {op!r}")
        return self.advance()

    def eat_op(self, op: str) -> bool:
        if self.current.is_op(op):
            self.advance()
            return True
        return False

    def eat_keyword(self, word: str) -> bool:
        if self.current.is_keyword(word):
            self.advance()
            return True
        return False

    def consume_semicolon(self) -> None:
        """Semicolons are optional at '}' and EOF (simplified ASI)."""
        if self.eat_op(";"):
            return
        if self.current.is_op("}") or self.current.type is TokenType.EOF:
            return
        # Newline-based ASI: accept if the previous token ended a line
        # before this one starts.
        if self.pos > 0 and self.tokens[self.pos - 1].line < self.current.line:
            return
        raise self.error("expected ';'")

    # -- program ------------------------------------------------------------

    def parse_program(self) -> ast.Program:
        body: List[ast.Node] = []
        while self.current.type is not TokenType.EOF:
            body.append(self.parse_statement())
        return ast.Program(body)

    # -- statements -----------------------------------------------------------

    def parse_statement(self) -> ast.Node:
        token = self.current
        if token.is_op("{"):
            return self.parse_block()
        if token.is_op(";"):
            self.advance()
            return ast.EmptyStatement()
        if token.type is TokenType.KEYWORD:
            word = str(token.value)
            handler = {
                "var": self._parse_var,
                "if": self._parse_if,
                "while": self._parse_while,
                "do": self._parse_do_while,
                "for": self._parse_for,
                "function": self._parse_function_declaration,
                "return": self._parse_return,
                "break": self._parse_break,
                "continue": self._parse_continue,
                "throw": self._parse_throw,
                "try": self._parse_try,
                "switch": self._parse_switch,
            }.get(word)
            if handler is not None:
                return handler()
        expr = self.parse_expression()
        self.consume_semicolon()
        return ast.ExpressionStatement(expr)

    def parse_block(self) -> ast.Block:
        self.expect_op("{")
        statements: List[ast.Node] = []
        while not self.current.is_op("}"):
            if self.current.type is TokenType.EOF:
                raise self.error("unterminated block")
            statements.append(self.parse_statement())
        self.advance()
        return ast.Block(statements)

    def _parse_var(self) -> ast.Node:
        self.advance()  # var
        declaration = self._parse_var_declarations()
        self.consume_semicolon()
        return declaration

    def _parse_var_declarations(self) -> ast.VarDeclaration:
        declarations: List[Tuple[str, Optional[ast.Node]]] = []
        while True:
            name_token = self.advance()
            if name_token.type is not TokenType.IDENTIFIER:
                raise self.error("expected variable name")
            init: Optional[ast.Node] = None
            if self.eat_op("="):
                init = self.parse_assignment()
            declarations.append((str(name_token.value), init))
            if not self.eat_op(","):
                break
        return ast.VarDeclaration(declarations)

    def _parse_if(self) -> ast.Node:
        self.advance()
        self.expect_op("(")
        test = self.parse_expression()
        self.expect_op(")")
        consequent = self.parse_statement()
        alternate = self.parse_statement() if self.eat_keyword("else") else None
        return ast.IfStatement(test, consequent, alternate)

    def _parse_while(self) -> ast.Node:
        self.advance()
        self.expect_op("(")
        test = self.parse_expression()
        self.expect_op(")")
        return ast.WhileStatement(test, self.parse_statement())

    def _parse_do_while(self) -> ast.Node:
        self.advance()
        body = self.parse_statement()
        if not self.eat_keyword("while"):
            raise self.error("expected 'while' after do-block")
        self.expect_op("(")
        test = self.parse_expression()
        self.expect_op(")")
        self.consume_semicolon()
        return ast.DoWhileStatement(body, test)

    def _parse_for(self) -> ast.Node:
        self.advance()
        self.expect_op("(")
        init: Optional[ast.Node] = None
        if not self.current.is_op(";"):
            if self.current.is_keyword("var"):
                self.advance()
                declaration = self._parse_var_declarations()
                if self.current.is_keyword("in") and len(declaration.declarations) == 1:
                    self.advance()
                    obj = self.parse_expression()
                    self.expect_op(")")
                    return ast.ForInStatement(declaration, obj, self.parse_statement())
                init = declaration
            else:
                expr = self.parse_expression(no_in=True)
                if self.current.is_keyword("in"):
                    self.advance()
                    obj = self.parse_expression()
                    self.expect_op(")")
                    return ast.ForInStatement(expr, obj, self.parse_statement())
                init = ast.ExpressionStatement(expr)
        self.expect_op(";")
        test = None if self.current.is_op(";") else self.parse_expression()
        self.expect_op(";")
        update = None if self.current.is_op(")") else self.parse_expression()
        self.expect_op(")")
        return ast.ForStatement(init, test, update, self.parse_statement())

    def _parse_function_declaration(self) -> ast.Node:
        self.advance()  # function
        name_token = self.advance()
        if name_token.type is not TokenType.IDENTIFIER:
            raise self.error("expected function name")
        params = self._parse_params()
        body = self.parse_block()
        return ast.FunctionDeclaration(str(name_token.value), params, body)

    def _parse_params(self) -> List[str]:
        self.expect_op("(")
        params: List[str] = []
        if not self.current.is_op(")"):
            while True:
                token = self.advance()
                if token.type is not TokenType.IDENTIFIER:
                    raise self.error("expected parameter name")
                params.append(str(token.value))
                if not self.eat_op(","):
                    break
        self.expect_op(")")
        return params

    def _parse_return(self) -> ast.Node:
        keyword = self.advance()
        if (
            self.current.is_op(";")
            or self.current.is_op("}")
            or self.current.type is TokenType.EOF
            or self.current.line > keyword.line
        ):
            self.consume_semicolon()
            return ast.ReturnStatement(None)
        value = self.parse_expression()
        self.consume_semicolon()
        return ast.ReturnStatement(value)

    def _parse_break(self) -> ast.Node:
        self.advance()
        self.consume_semicolon()
        return ast.BreakStatement()

    def _parse_continue(self) -> ast.Node:
        self.advance()
        self.consume_semicolon()
        return ast.ContinueStatement()

    def _parse_throw(self) -> ast.Node:
        self.advance()
        value = self.parse_expression()
        self.consume_semicolon()
        return ast.ThrowStatement(value)

    def _parse_try(self) -> ast.Node:
        self.advance()
        block = self.parse_block()
        catch_param: Optional[str] = None
        catch_block: Optional[ast.Block] = None
        finally_block: Optional[ast.Block] = None
        if self.eat_keyword("catch"):
            self.expect_op("(")
            param_token = self.advance()
            if param_token.type is not TokenType.IDENTIFIER:
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
        self.advance()
        self.expect_op("(")
        discriminant = self.parse_expression()
        self.expect_op(")")
        self.expect_op("{")
        cases: List[ast.SwitchCase] = []
        while not self.current.is_op("}"):
            if self.eat_keyword("case"):
                test: Optional[ast.Node] = self.parse_expression()
            elif self.eat_keyword("default"):
                test = None
            else:
                raise self.error("expected 'case' or 'default'")
            self.expect_op(":")
            body: List[ast.Node] = []
            while not (
                self.current.is_op("}")
                or self.current.is_keyword("case")
                or self.current.is_keyword("default")
            ):
                body.append(self.parse_statement())
            cases.append(ast.SwitchCase(test, body))
        self.advance()
        return ast.SwitchStatement(discriminant, cases)

    # -- expressions -------------------------------------------------------

    def parse_expression(self, no_in: bool = False) -> ast.Node:
        expr = self.parse_assignment(no_in=no_in)
        if not self.current.is_op(","):
            return expr
        expressions = [expr]
        while self.eat_op(","):
            expressions.append(self.parse_assignment(no_in=no_in))
        return ast.SequenceExpression(expressions)

    def parse_assignment(self, no_in: bool = False) -> ast.Node:
        left = self._parse_conditional(no_in=no_in)
        if self.current.type is TokenType.OPERATOR and self.current.value in _ASSIGNMENT_OPS:
            op = str(self.advance().value)
            if not isinstance(left, (ast.Identifier, ast.MemberExpression)):
                raise self.error("invalid assignment target")
            value = self.parse_assignment(no_in=no_in)
            return ast.AssignmentExpression(op, left, value)
        return left

    def _parse_conditional(self, no_in: bool = False) -> ast.Node:
        test = self._parse_binary(0, no_in=no_in)
        if not self.eat_op("?"):
            return test
        consequent = self.parse_assignment()
        self.expect_op(":")
        alternate = self.parse_assignment(no_in=no_in)
        return ast.ConditionalExpression(test, consequent, alternate)

    def _parse_binary(self, min_precedence: int, no_in: bool = False) -> ast.Node:
        left = self._parse_unary()
        while True:
            token = self.current
            op: Optional[str] = None
            if token.type is TokenType.OPERATOR and token.value in _BINARY_PRECEDENCE:
                op = str(token.value)
            elif token.is_keyword("instanceof"):
                op = "instanceof"
            elif token.is_keyword("in") and not no_in:
                op = "in"
            if op is None:
                return left
            precedence = _BINARY_PRECEDENCE[op]
            if precedence < min_precedence:
                return left
            self.advance()
            right = self._parse_binary(precedence + 1, no_in=no_in)
            if op in ("&&", "||"):
                left = ast.LogicalExpression(op, left, right)
            else:
                left = ast.BinaryExpression(op, left, right)

    def _parse_unary(self) -> ast.Node:
        token = self.current
        if token.is_op("!", "~", "+", "-"):
            self.advance()
            return ast.UnaryExpression(str(token.value), self._parse_unary())
        if token.is_keyword("typeof", "void", "delete"):
            self.advance()
            return ast.UnaryExpression(str(token.value), self._parse_unary())
        if token.is_op("++", "--"):
            self.advance()
            operand = self._parse_unary()
            return ast.UpdateExpression(str(token.value), operand, prefix=True)
        return self._parse_postfix()

    def _parse_postfix(self) -> ast.Node:
        expr = self._parse_call()
        token = self.current
        if token.is_op("++", "--") and token.line == self.tokens[self.pos - 1].line:
            self.advance()
            return ast.UpdateExpression(str(token.value), expr, prefix=False)
        return expr

    def _parse_call(self) -> ast.Node:
        if self.current.is_keyword("new"):
            self.advance()
            callee = self._parse_member_chain(self._parse_primary(), allow_calls=False)
            arguments = self._parse_arguments() if self.current.is_op("(") else []
            expr: ast.Node = ast.NewExpression(callee, arguments)
            return self._parse_member_chain(expr, allow_calls=True)
        return self._parse_member_chain(self._parse_primary(), allow_calls=True)

    def _parse_member_chain(self, expr: ast.Node, allow_calls: bool) -> ast.Node:
        while True:
            if self.eat_op("."):
                name_token = self.advance()
                if name_token.type not in (TokenType.IDENTIFIER, TokenType.KEYWORD):
                    raise self.error("expected property name")
                expr = ast.MemberExpression(
                    expr, ast.Identifier(str(name_token.value)), computed=False
                )
            elif self.current.is_op("["):
                self.advance()
                prop = self.parse_expression()
                self.expect_op("]")
                expr = ast.MemberExpression(expr, prop, computed=True)
            elif allow_calls and self.current.is_op("("):
                expr = ast.CallExpression(expr, self._parse_arguments())
            else:
                return expr

    def _parse_arguments(self) -> List[ast.Node]:
        self.expect_op("(")
        arguments: List[ast.Node] = []
        if not self.current.is_op(")"):
            while True:
                arguments.append(self.parse_assignment())
                if not self.eat_op(","):
                    break
        self.expect_op(")")
        return arguments

    def _parse_primary(self) -> ast.Node:
        token = self.current
        if token.type is TokenType.NUMBER:
            self.advance()
            return ast.NumberLiteral(float(token.value))
        if token.type is TokenType.STRING:
            self.advance()
            return ast.StringLiteral(str(token.value))
        if token.type is TokenType.IDENTIFIER:
            self.advance()
            return ast.Identifier(str(token.value))
        if token.is_keyword("true"):
            self.advance()
            return ast.BooleanLiteral(True)
        if token.is_keyword("false"):
            self.advance()
            return ast.BooleanLiteral(False)
        if token.is_keyword("null"):
            self.advance()
            return ast.NullLiteral()
        if token.is_keyword("undefined"):
            self.advance()
            return ast.UndefinedLiteral()
        if token.is_keyword("this"):
            self.advance()
            return ast.ThisExpression()
        if token.is_keyword("function"):
            self.advance()
            name: Optional[str] = None
            if self.current.type is TokenType.IDENTIFIER:
                name = str(self.advance().value)
            params = self._parse_params()
            body = self.parse_block()
            return ast.FunctionExpression(name, params, body)
        if token.is_op("("):
            self.advance()
            expr = self.parse_expression()
            self.expect_op(")")
            return expr
        if token.is_op("["):
            self.advance()
            elements: List[ast.Node] = []
            if not self.current.is_op("]"):
                while True:
                    elements.append(self.parse_assignment())
                    if not self.eat_op(","):
                        break
            self.expect_op("]")
            return ast.ArrayLiteral(elements)
        if token.is_op("{"):
            self.advance()
            entries: List[Tuple[str, ast.Node]] = []
            if not self.current.is_op("}"):
                while True:
                    key_token = self.advance()
                    if key_token.type in (
                        TokenType.IDENTIFIER,
                        TokenType.STRING,
                        TokenType.KEYWORD,
                    ):
                        key = str(key_token.value)
                    elif key_token.type is TokenType.NUMBER:
                        key = format_number(float(key_token.value))
                    else:
                        raise self.error("bad object literal key")
                    self.expect_op(":")
                    entries.append((key, self.parse_assignment()))
                    if not self.eat_op(","):
                        break
            self.expect_op("}")
            return ast.ObjectLiteral(entries)
        raise self.error("unexpected token")


def parse(source: str) -> ast.Program:
    """Parse JavaScript source into an AST."""
    return Parser(source).parse_program()
