"""AST -> bytecode compiler for the JavaScript engine.

Compiles the tree produced by :mod:`repro.js.parser` into flat
instruction tuples executed by :class:`repro.js.vm.BytecodeInterpreter`.
The tree-walking :class:`repro.js.interpreter.Interpreter` stays the
reference semantics; everything here is defined in terms of it:

* **Charge aggregation.**  The walker charges one step per
  ``exec_statement`` / ``eval_expression`` entry, pre-order.  The
  compiler accrues those ticks into a ``pending`` counter and attaches
  the sum to the *next emitted instruction*, so the interpreter charges
  the budget at exactly the walker's pre-order points (and a budget
  blow happens before the same side effect in both engines).  Pending
  charges are flushed (as a ``NOP``) before any jump label is bound.
* **Scope slots.**  A function whose body contains no nested function,
  no ``eval`` identifier and no ``try``/``catch`` gets its locals
  (self-name, params, ``arguments``, hoisted vars) resolved to frame
  slots at compile time; everything else — and all program/eval
  top-level code — uses the walker's ``Environment`` chain, so closure
  and implicit-global semantics are shared, not re-implemented.
* **Signal regions.**  ``break``/``continue`` compile to jumps inside a
  fragment; region tables map a :class:`BreakSignal`/
  :class:`ContinueSignal` unwinding out of a *call* back to the same
  loop the walker's ``try/except`` would have caught it in.
* **Constant pool.**  Number literals are interned per compile;
  string literals keep the parser's per-literal ``str`` object (the
  host's spray pool dedupes by identity, so equal literals must stay
  distinct objects, exactly as in the walker).

Compiled programs are cached per process, keyed by source text, so a
source that runs again (a layer several documents ``eval``, a document
scanned twice) compiles once.  The instrumentation wrapper does not
hit it: each wrapper embeds its document's key and its script's
ciphertext, so every instrumented script's wrapper is new text and
compiles in full.  The hot-loop translator's Python functions share
that cache's lock and lifetime.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, List, Optional, Tuple, TypeVar

from repro.js import nodes as ast
from repro.js.parser import parse
from repro.js.values import UNDEFINED

# ---------------------------------------------------------------------------
# Opcodes (ints; dispatched by an if/elif chain ordered hot-first)

LOAD_NAME = 0
LOAD_SLOT = 1
CONST = 2
STRING = 3
BINARY = 4
STORE_SLOT = 5
STORE_NAME = 6
JUMP_IF_FALSE = 7
JUMP = 8
POP = 9
MEMBER_GET = 10
CALL_THIS = 11
METHOD_LOOKUP = 12
CALL = 13
SET_COMPL = 14
SET_COMPL_UNDEF = 15
DUP = 16
INCDEC = 17
TO_NUMBER = 18
JUMP_IF_TRUE = 19
JUMP_IF_FALSE_KEEP = 20
JUMP_IF_TRUE_KEEP = 21
JUMP_IF_STRICT_EQ = 22
SWAP = 23
ROT3 = 24
MEMBER_GET_EXPR = 25
MEMBER_SET = 26
MEMBER_SET_EXPR = 27
METHOD_LOOKUP_EXPR = 28
CALL_THIS_DYN = 29
DIRECT_EVAL = 30
NEW = 31
MAKE_FUNCTION = 32
ARRAY = 33
OBJECT = 34
UNARY = 35
TYPEOF = 36
TYPEOF_NAME = 37
DELETE_MEMBER = 38
DELETE_MEMBER_EXPR = 39
DECLARE = 40
DECLARE_POP = 41
DECLARE_SLOT_POP = 42
LOAD_THIS = 43
RETURN = 44
RAISE_RETURN = 45
RAISE_BREAK = 46
RAISE_CONTINUE = 47
THROW = 48
EXEC_TRY = 49
FORIN_INIT = 50
FORIN_NEXT = 51
POP_ITER = 52
RAISE_ERROR = 53
NOP = 54
# Fused superinstructions.  INC_SLOT replaces the full value-discarded
# ``i++``/``i--`` sequence on a slot variable (LOAD_SLOT, TO_NUMBER, DUP,
# INCDEC, STORE_SLOT, POP, POP); STORE_SLOT_POP folds the statement-level
# discard into a trailing slot store.  Both carry the exact charge total
# of the sequence they replace, so step accounting is unchanged.
INC_SLOT = 55
STORE_SLOT_POP = 56

OPCODE_NAMES: Tuple[str, ...] = (
    "LOAD_NAME", "LOAD_SLOT", "CONST", "STRING", "BINARY", "STORE_SLOT",
    "STORE_NAME", "JUMP_IF_FALSE", "JUMP", "POP", "MEMBER_GET", "CALL_THIS",
    "METHOD_LOOKUP", "CALL", "SET_COMPL", "SET_COMPL_UNDEF", "DUP", "INCDEC",
    "TO_NUMBER", "JUMP_IF_TRUE", "JUMP_IF_FALSE_KEEP", "JUMP_IF_TRUE_KEEP",
    "JUMP_IF_STRICT_EQ", "SWAP", "ROT3", "MEMBER_GET_EXPR", "MEMBER_SET",
    "MEMBER_SET_EXPR", "METHOD_LOOKUP_EXPR", "CALL_THIS_DYN", "DIRECT_EVAL",
    "NEW", "MAKE_FUNCTION", "ARRAY", "OBJECT", "UNARY", "TYPEOF",
    "TYPEOF_NAME", "DELETE_MEMBER", "DELETE_MEMBER_EXPR", "DECLARE",
    "DECLARE_POP", "DECLARE_SLOT_POP", "LOAD_THIS", "RETURN", "RAISE_RETURN",
    "RAISE_BREAK", "RAISE_CONTINUE", "THROW", "EXEC_TRY", "FORIN_INIT",
    "FORIN_NEXT", "POP_ITER", "RAISE_ERROR", "NOP", "INC_SLOT",
    "STORE_SLOT_POP",
)

#: FORIN_NEXT binding modes.
FORIN_NAME = 0   # env.assign(payload, key)
FORIN_SLOT = 1   # frame[payload] = key
FORIN_PUSH = 2   # push key; member-store instructions follow

#: init_plan entry kinds (slot-mode call setup).
INIT_SELF = 0
INIT_ARG = 1
INIT_ARGUMENTS = 2


class Code:
    """One compiled fragment: flat ops + parallel args and charges.

    ``kind`` is ``"program"`` (tracks a completion value; ``return``
    raises, exactly like the walker's top level / ``eval``) or
    ``"function"`` (``return`` is an opcode).  ``mode`` is ``"env"`` or
    ``"slot"``.  Try sub-blocks are fragments sharing the parent's kind
    and scope.
    """

    __slots__ = (
        "kind", "mode", "completion", "name", "params", "body",
        "ops", "args", "charges", "nlocals", "slot_names", "init_plan",
        "hoist_actions", "regions", "consts", "instrs", "loops",
    )

    def __init__(
        self,
        kind: str,
        mode: str,
        completion: bool,
        name: str = "",
        params: Tuple[str, ...] = (),
        body: Optional[ast.Block] = None,
    ) -> None:
        self.kind = kind
        self.mode = mode
        self.completion = completion
        self.name = name
        self.params = params
        self.body = body
        self.ops: Tuple[int, ...] = ()
        self.args: Tuple[Any, ...] = ()
        self.charges: Tuple[int, ...] = ()
        self.nlocals = 0
        self.slot_names: Tuple[str, ...] = ()
        self.init_plan: Tuple[Tuple[int, int, int, bool], ...] = ()
        self.hoist_actions: Tuple[Tuple[Any, ...], ...] = ()
        self.regions: Tuple[Tuple[int, int, int, int, int, int], ...] = ()
        self.consts: Tuple[Any, ...] = ()
        #: Fused ``(op, arg, charge)`` triples, built lazily by the VM —
        #: one sequence index + unpack per dispatch instead of three.
        self.instrs: Optional[Tuple[Tuple[int, Any, int], ...]] = None
        #: Per-loop state of the hot-loop translator, keyed by
        #: loop-header pc: the back-edge count so far, then the
        #: translated ``(function, constants)`` pair, or ``None`` for a
        #: loop that stays on the dispatch loop (``repro.js.hotloop``).
        self.loops: Dict[int, Any] = {}

    def __repr__(self) -> str:
        label = self.name or ("<program>" if self.kind == "program" else "<fragment>")
        return f"Code({label}, {self.kind}/{self.mode}, {len(self.ops)} ops)"


class _Loop:
    """Compile-time record of an enclosing loop (or switch)."""

    __slots__ = (
        "kind", "break_patches", "continue_patches", "continue_label",
        "break_depth", "continue_depth",
    )

    def __init__(self, kind: str, break_depth: int, continue_depth: int) -> None:
        self.kind = kind  # "loop" | "forin" | "switch"
        self.break_patches: List[int] = []
        # `continue` sites emitted before the target label is bound
        # (do-while jumps forward to its test, for to its update).
        self.continue_patches: List[int] = []
        self.continue_label: int = -1
        self.break_depth = break_depth
        self.continue_depth = continue_depth


class _Frag:
    """Mutable state for one fragment being emitted."""

    __slots__ = ("ops", "args", "charges", "pending", "loops", "forin_depth", "regions")

    def __init__(self) -> None:
        self.ops: List[int] = []
        self.args: List[Any] = []
        self.charges: List[int] = []
        self.pending = 0
        self.loops: List[_Loop] = []
        self.forin_depth = 0
        self.regions: List[Tuple[int, int, int, int, int, int]] = []


def _slot_eligible(body: ast.Block) -> bool:
    """True when a function body can use frame slots.

    Disqualifiers (each would make compile-time resolution unsound or
    diverge from the walker's dynamic-scope quirks):

    * a nested function anywhere (closures must see an Environment);
    * any ``eval`` identifier (direct eval declares into the caller's
      scope at runtime);
    * a ``try`` with a catch block (the walker gives catch bodies their
      own Environment overlay — ``var`` inside catch lands there).
    """
    stack: List[ast.Node] = [body]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionExpression, ast.FunctionDeclaration)):
            return False
        if isinstance(node, ast.Identifier) and node.name == "eval":
            return False
        if isinstance(node, ast.TryStatement) and node.catch_block is not None:
            return False
        stack.extend(ast.child_nodes(node))
    return True


def _references_arguments(body: ast.Block) -> bool:
    """True when any ``arguments`` identifier appears in the body.

    Only meaningful for slot-eligible bodies (no nested functions, no
    eval), where an unreferenced ``arguments`` binding is unobservable
    and its per-call array need not be built.
    """
    stack: List[ast.Node] = [body]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Identifier) and node.name == "arguments":
            return True
        stack.extend(ast.child_nodes(node))
    return False


class Compiler:
    """Compiles one parsed program (and its nested functions)."""

    def __init__(self) -> None:
        self._frags: List[_Frag] = []
        self._fn_codes: Dict[int, Code] = {}
        self._scope_stack: List[Optional[Dict[str, int]]] = []
        self._completion_stack: List[bool] = []
        self._pool: Dict[str, float] = {}

    # -- fragment plumbing -------------------------------------------------

    @property
    def f(self) -> _Frag:
        return self._frags[-1]

    def _emit(self, op: int, arg: Any = None) -> int:
        frag = self.f
        frag.ops.append(op)
        frag.args.append(arg)
        frag.charges.append(frag.pending)
        frag.pending = 0
        return len(frag.ops) - 1

    def _flush(self) -> None:
        if self.f.pending:
            self._emit(NOP)

    def _mark(self) -> int:
        self._flush()
        return len(self.f.ops)

    def _patch(self, index: int, target: Optional[int] = None) -> None:
        frag = self.f
        frag.args[index] = len(frag.ops) if target is None else target

    # -- entry points ------------------------------------------------------

    def compile_program(self, program: ast.Program) -> Code:
        code = Code("program", "env", completion=True)
        hoist: List[Tuple[Any, ...]] = []
        self._collect_hoist(program.body, hoist)
        code.hoist_actions = tuple(hoist)
        self._compile_into(code, program.body, scope=None, completion=True)
        return code

    def compile_function(
        self, name: Optional[str], params: List[str], body: ast.Block
    ) -> Code:
        key = id(body)
        cached = self._fn_codes.get(key)
        if cached is not None:
            return cached
        hoist: List[Tuple[Any, ...]] = []
        self._collect_hoist(body.statements, hoist)
        if _slot_eligible(body):
            code = self._compile_slot_function(name, params, body, hoist)
        else:
            code = Code(
                "function", "env", completion=False,
                name=name or "", params=tuple(params), body=body,
            )
            code.hoist_actions = tuple(hoist)
            self._compile_into(code, body.statements, scope=None, completion=False)
        self._fn_codes[key] = code
        return code

    def _compile_slot_function(
        self,
        name: Optional[str],
        params: List[str],
        body: ast.Block,
        hoist: List[Tuple[Any, ...]],
    ) -> Code:
        code = Code(
            "function", "slot", completion=False,
            name=name or "", params=tuple(params), body=body,
        )
        slots: Dict[str, int] = {}

        def slot(n: str) -> int:
            if n not in slots:
                slots[n] = len(slots)
            return slots[n]

        plan: List[Tuple[int, int, int, bool]] = []
        bound: set = set()
        if name:
            s = slot(name)
            plan.append((s, INIT_SELF, 0, s in bound))
            bound.add(s)
        for index, param in enumerate(params):
            s = slot(param)
            plan.append((s, INIT_ARG, index, s in bound))
            bound.add(s)
        s = slot("arguments")
        if _references_arguments(body):
            plan.append((s, INIT_ARGUMENTS, 0, s in bound))
        # else: the slot stays UNDEFINED and nothing can read it (slot
        # bodies have no eval), so skip materialising the args array —
        # the walker's always-declared binding is unobservable here.
        bound.add(s)
        for action in hoist:
            # Slot-eligible bodies cannot contain function declarations,
            # so every hoist action is a ("var", name): slots default to
            # UNDEFINED, which is exactly what declare() would install.
            slot(action[1])
        code.init_plan = tuple(plan)
        self._compile_into(code, body.statements, scope=slots, completion=False)
        code.nlocals = len(slots)
        names = [""] * len(slots)
        for n, i in slots.items():
            names[i] = n
        code.slot_names = tuple(names)
        return code

    def _compile_into(
        self,
        code: Code,
        statements: List[ast.Node],
        scope: Optional[Dict[str, int]],
        completion: bool,
        body: bool = True,
    ) -> None:
        """Compile ``statements`` into ``code``.  A program or function
        ``body`` binds its own function declarations at hoisting, so
        reaching one only ticks; a try sub-block (``body=False``)
        re-creates them like any nested declaration."""
        self._frags.append(_Frag())
        self._scope_stack.append(scope)
        self._completion_stack.append(completion)
        try:
            for statement in statements:
                if body and isinstance(statement, ast.FunctionDeclaration):
                    self.f.pending += 1  # the walker's exec_statement tick
                    self._set_compl_undef()
                else:
                    self._stmt(statement)
            self._flush()
            frag = self.f
            code.ops = tuple(frag.ops)
            code.args = tuple(frag.args)
            code.charges = tuple(frag.charges)
            code.regions = tuple(frag.regions)
            code.consts = self._build_const_pool(frag)
            if scope is not None:
                code.nlocals = len(scope)
        finally:
            self._frags.pop()
            self._scope_stack.pop()
            self._completion_stack.pop()

    def _fragment(self, statements: List[ast.Node], completion: bool) -> Code:
        # Try sub-blocks run in the parent's scope with the parent's
        # kind: completion-tracked at program/eval level, plain value
        # flow inside a function body.
        scope = self._scope_stack[-1]
        sub = Code(
            "program" if completion else "function",
            "slot" if scope is not None else "env",
            completion=completion,
        )
        self._compile_into(
            sub, statements, scope=scope, completion=completion, body=False
        )
        return sub

    @staticmethod
    def _build_const_pool(frag: _Frag) -> Tuple[Any, ...]:
        pool: List[Any] = []
        seen: set = set()
        for op, arg in zip(frag.ops, frag.args):
            if op in (CONST, STRING):
                marker = id(arg)
                if marker not in seen:
                    seen.add(marker)
                    pool.append(arg)
        return tuple(pool)

    # scope / completion context (parallel to _frags)
    _scope_stack: List[Optional[Dict[str, int]]]
    _completion_stack: List[bool]

    # -- hoisting (mirrors Interpreter._hoist_one, including order) --------

    def _collect_hoist(self, statements: List[ast.Node], out: List[Tuple[Any, ...]]) -> None:
        for statement in statements:
            self._collect_hoist_one(statement, out)

    def _collect_hoist_one(self, node: ast.Node, out: List[Tuple[Any, ...]]) -> None:
        if isinstance(node, ast.VarDeclaration):
            for name, _init in node.declarations:
                out.append(("var", name))
        elif isinstance(node, ast.FunctionDeclaration):
            out.append(("func", self.compile_function(node.name, node.params, node.body)))
        elif isinstance(node, ast.Block):
            self._collect_hoist(node.statements, out)
        elif isinstance(node, ast.IfStatement):
            self._collect_hoist_one(node.consequent, out)
            if node.alternate is not None:
                self._collect_hoist_one(node.alternate, out)
        elif isinstance(node, (ast.WhileStatement, ast.DoWhileStatement)):
            self._collect_hoist_one(node.body, out)
        elif isinstance(node, ast.ForStatement):
            if node.init is not None:
                self._collect_hoist_one(node.init, out)
            self._collect_hoist_one(node.body, out)
        elif isinstance(node, ast.ForInStatement):
            if isinstance(node.target, ast.VarDeclaration):
                self._collect_hoist_one(node.target, out)
            self._collect_hoist_one(node.body, out)
        elif isinstance(node, ast.TryStatement):
            self._collect_hoist(node.block.statements, out)
            if node.catch_block is not None:
                self._collect_hoist(node.catch_block.statements, out)
            if node.finally_block is not None:
                self._collect_hoist(node.finally_block.statements, out)
        elif isinstance(node, ast.SwitchStatement):
            for case in node.cases:
                self._collect_hoist(case.body, out)

    # -- statements --------------------------------------------------------

    def _stmt(self, node: ast.Node) -> None:
        self.f.pending += 1  # the walker's exec_statement tick
        self._STMT_TABLE[type(node)](self, node)

    def _set_compl_undef(self) -> None:
        if self._completion_stack[-1]:
            self._emit(SET_COMPL_UNDEF)

    def _c_Block(self, node: ast.Block) -> None:
        if not node.statements:
            self._set_compl_undef()
            return
        for statement in node.statements:
            self._stmt(statement)

    def _c_EmptyStatement(self, node: ast.EmptyStatement) -> None:
        self._set_compl_undef()

    def _c_ExpressionStatement(self, node: ast.ExpressionStatement) -> None:
        if not self._completion_stack[-1]:
            if self._fuse_discarded_update(node.expression):
                return
            self._expr(node.expression)
            frag = self.f
            if frag.ops[-1] == STORE_SLOT and not frag.pending:
                # Fold the statement's discard into the store.  The store
                # index is unchanged, so any jump patched to it (the join
                # point of a conditional value) still lands correctly.
                frag.ops[-1] = STORE_SLOT_POP
                return
            self._emit(POP)
            return
        self._expr(node.expression)
        self._emit(SET_COMPL)

    def _fuse_discarded_update(self, node: ast.Node) -> bool:
        """Emit ``i++``/``i--`` on a slot variable, value discarded, as a
        single INC_SLOT.  Charge 2 = the walker's ticks for the update
        node and the identifier read; any outstanding pending (e.g. the
        statement tick) rides along, so a budget blow still lands before
        the store exactly as in the walker."""
        if not isinstance(node, ast.UpdateExpression):
            return False
        target = node.operand
        if not isinstance(target, ast.Identifier):
            return False
        scope = self._scope_stack[-1]
        if scope is None or target.name not in scope:
            return False
        self.f.pending += 2
        self._emit(INC_SLOT, (scope[target.name], 1.0 if node.op == "++" else -1.0))
        return True

    def _c_VarDeclaration(self, node: ast.VarDeclaration) -> None:
        scope = self._scope_stack[-1]
        for name, init in node.declarations:
            if init is not None:
                self._expr(init)
                if scope is not None:
                    self._emit(DECLARE_SLOT_POP, scope[name])
                else:
                    self._emit(DECLARE_POP, name)
            else:
                if scope is None:
                    self._emit(DECLARE, name)
                # slot mode: hoisting already zeroed the slot; declare()
                # with UNDEFINED is a no-op on an existing binding.
        self._set_compl_undef()

    def _c_FunctionDeclaration(self, node: ast.FunctionDeclaration) -> None:
        # Only a declaration nested in a block, if, loop, try or switch
        # gets here: like SpiderMonkey's function statements, it is
        # re-created when reached (on top of the hoisted one).
        code = self.compile_function(node.name, node.params, node.body)
        self._emit(MAKE_FUNCTION, code)
        self._emit(DECLARE_POP, node.name)
        self._set_compl_undef()

    def _c_IfStatement(self, node: ast.IfStatement) -> None:
        self._expr(node.test)
        jump_false = self._emit(JUMP_IF_FALSE)
        self._stmt(node.consequent)
        if node.alternate is not None:
            jump_end = self._emit(JUMP)
            self._flush()
            self._patch(jump_false)
            self._stmt(node.alternate)
            self._flush()
            self._patch(jump_end)
        elif self._completion_stack[-1]:
            jump_end = self._emit(JUMP)
            self._flush()
            self._patch(jump_false)
            self._emit(SET_COMPL_UNDEF)
            self._patch(jump_end)
        else:
            self._flush()
            self._patch(jump_false)

    def _push_loop(self, kind: str) -> _Loop:
        frag = self.f
        depth = frag.forin_depth
        inner = depth + 1 if kind == "forin" else depth
        loop = _Loop(kind, break_depth=depth, continue_depth=inner)
        frag.loops.append(loop)
        return loop

    def _finish_loop(self, loop: _Loop, body_start: int, body_end: int) -> None:
        frag = self.f
        frag.loops.pop()
        end = self._mark()
        for index in loop.break_patches:
            self._patch(index, end)
        frag.regions.append(
            (body_start, body_end, end, loop.continue_label,
             loop.break_depth, loop.continue_depth)
        )
        self._set_compl_undef()

    def _c_WhileStatement(self, node: ast.WhileStatement) -> None:
        test_label = self._mark()
        self._expr(node.test)
        jump_out = self._emit(JUMP_IF_FALSE)
        loop = self._push_loop("loop")
        loop.continue_label = test_label
        body_start = self._mark()
        self._stmt(node.body)
        self._emit(JUMP, test_label)
        body_end = len(self.f.ops)
        self._patch(jump_out)
        self._finish_loop(loop, body_start, body_end)

    def _c_DoWhileStatement(self, node: ast.DoWhileStatement) -> None:
        loop = self._push_loop("loop")
        body_start = self._mark()
        self._stmt(node.body)
        body_end = len(self.f.ops)
        test_label = self._mark()
        loop.continue_label = test_label
        for index in loop.continue_patches:
            self._patch(index, test_label)
        self._expr(node.test)
        self._emit(JUMP_IF_TRUE, body_start)
        self._finish_loop(loop, body_start, body_end)

    def _c_ForStatement(self, node: ast.ForStatement) -> None:
        if node.init is not None:
            # Walker runs init via exec_statement (charged as a
            # statement) and discards its completion value.
            self._completion_stack.append(False)
            try:
                self._stmt(node.init)
            finally:
                self._completion_stack.pop()
        test_label = self._mark()
        jump_out = -1
        if node.test is not None:
            self._expr(node.test)
            jump_out = self._emit(JUMP_IF_FALSE)
        loop = self._push_loop("loop")
        body_start = self._mark()
        self._stmt(node.body)
        body_end = len(self.f.ops)
        update_label = self._mark()
        loop.continue_label = update_label
        for index in loop.continue_patches:
            self._patch(index, update_label)
        if node.update is not None:
            if not self._fuse_discarded_update(node.update):
                self._expr(node.update)
                self._emit(POP)
        self._emit(JUMP, test_label)
        if jump_out >= 0:
            self._patch(jump_out)
        self._finish_loop(loop, body_start, body_end)

    def _c_ForInStatement(self, node: ast.ForInStatement) -> None:
        scope = self._scope_stack[-1]
        self._expr(node.obj)
        mode = FORIN_NAME
        payload: Any = None
        store_member: Optional[ast.MemberExpression] = None
        if isinstance(node.target, ast.VarDeclaration):
            name = node.target.declarations[0][0]
            if scope is not None:
                mode, payload = FORIN_SLOT, scope[name]
            else:
                self._emit(DECLARE, name)
                mode, payload = FORIN_NAME, name
        elif isinstance(node.target, ast.Identifier):
            name = node.target.name
            if scope is not None and name in scope:
                mode, payload = FORIN_SLOT, scope[name]
            else:
                mode, payload = FORIN_NAME, name
        else:
            mode = FORIN_PUSH
            store_member = node.target  # type: ignore[assignment]
        # Push the loop record before counting our own iterator, so
        # break_depth = iterators outside this loop and continue_depth
        # includes our own.
        loop = self._push_loop("forin")
        self._emit(FORIN_INIT)
        self.f.forin_depth += 1
        iter_label = self._mark()
        loop.continue_label = iter_label
        next_index = self._emit(FORIN_NEXT, (0, mode, payload))
        if store_member is not None:
            # Stack: [key].  The walker re-evaluates the member's object
            # (and a computed name) on every iteration.
            self._expr_charge(store_member.obj)
            if store_member.computed:
                self._expr(store_member.prop)
                self._emit(ROT3)  # [key obj name] -> [obj name key]
                self._emit(MEMBER_SET_EXPR)
            else:
                assert isinstance(store_member.prop, ast.Identifier)
                self._emit(SWAP)  # [key obj] -> [obj key]
                self._emit(MEMBER_SET, store_member.prop.name)
            self._emit(POP)
        body_start = self._mark()
        self._stmt(node.body)
        self._emit(JUMP, iter_label)
        body_end = len(self.f.ops)
        end = self._mark()
        frag = self.f
        frag.args[next_index] = (end, mode, payload)
        frag.loops.pop()
        frag.forin_depth -= 1
        for index in loop.break_patches:
            self._patch(index, end)
        frag.regions.append(
            (body_start, body_end, end, iter_label,
             loop.break_depth, loop.continue_depth)
        )
        self._set_compl_undef()

    def _c_BreakStatement(self, node: ast.BreakStatement) -> None:
        frag = self.f
        for loop in reversed(frag.loops):
            for _ in range(frag.forin_depth - loop.break_depth):
                self._emit(POP_ITER)
            loop.break_patches.append(self._emit(JUMP))
            return
        # No enclosing loop in this fragment (top level, or inside a
        # try sub-block): unwind as a signal, as the walker always does.
        self._emit(RAISE_BREAK, node.label)

    def _c_ContinueStatement(self, node: ast.ContinueStatement) -> None:
        frag = self.f
        for loop in reversed(frag.loops):
            if loop.kind == "switch":
                continue
            for _ in range(frag.forin_depth - loop.continue_depth):
                self._emit(POP_ITER)
            if loop.continue_label >= 0:
                self._emit(JUMP, loop.continue_label)
            else:
                loop.continue_patches.append(self._emit(JUMP))
            return
        self._emit(RAISE_CONTINUE, node.label)

    def _c_ReturnStatement(self, node: ast.ReturnStatement) -> None:
        if node.value is not None:
            self._expr(node.value)
        else:
            self._emit(CONST, UNDEFINED)
        # Program-level (and eval-level) return unwinds as a Python
        # exception, exactly like the walker's ReturnSignal.
        self._emit(RAISE_RETURN if self._completion_stack[-1] else RETURN)

    def _c_ThrowStatement(self, node: ast.ThrowStatement) -> None:
        self._expr(node.value)
        self._emit(THROW)

    def _c_TryStatement(self, node: ast.TryStatement) -> None:
        completion = self._completion_stack[-1]
        try_code = self._fragment(node.block.statements, completion)
        catch_code = None
        if node.catch_block is not None:
            catch_code = self._fragment(node.catch_block.statements, completion)
        finally_code = None
        if node.finally_block is not None:
            finally_code = self._fragment(node.finally_block.statements, completion)
        self._emit(EXEC_TRY, (try_code, node.catch_param, catch_code, finally_code))

    def _c_SwitchStatement(self, node: ast.SwitchStatement) -> None:
        self._expr(node.discriminant)
        loop = self._push_loop("switch")
        region_start = self._mark()
        stubs: List[Tuple[int, ast.SwitchCase]] = []
        for case in node.cases:
            if case.test is None:
                continue
            self._expr(case.test)
            stubs.append((self._emit(JUMP_IF_STRICT_EQ), case))
        nomatch = self._emit(JUMP)
        stub_targets: Dict[int, int] = {}
        for index, case in stubs:
            self._patch(index)
            self._emit(POP)
            stub_targets[id(case)] = self._emit(JUMP)
        self._patch(nomatch)
        self._emit(POP)
        default_jump = self._emit(JUMP)
        body_starts: Dict[int, int] = {}
        default_start = -1
        for case in node.cases:
            start = self._mark()
            body_starts[id(case)] = start
            if case.test is None:
                default_start = start
            for statement in case.body:
                self._stmt(statement)
        end = self._mark()
        for index, case in stubs:
            self._patch(stub_targets[id(case)], body_starts[id(case)])
        self._patch(default_jump, default_start if default_start >= 0 else end)
        frag = self.f
        frag.loops.pop()
        for index in loop.break_patches:
            self._patch(index, end)
        frag.regions.append(
            (region_start, end, end, -1, loop.break_depth, loop.continue_depth)
        )
        self._set_compl_undef()

    # -- expressions -------------------------------------------------------

    def _expr(self, node: ast.Node) -> None:
        self.f.pending += 1  # the walker's eval_expression tick
        self._EXPR_TABLE[type(node)](self, node)

    def _expr_charge(self, node: ast.Node) -> None:
        """Alias of :meth:`_expr`; used where the walker re-evaluates a
        subtree (compound member assignment, for-in member targets)."""
        self._expr(node)

    def _c_NumberLiteral(self, node: ast.NumberLiteral) -> None:
        self._emit(CONST, self._intern_number(node.value))

    def _c_StringLiteral(self, node: ast.StringLiteral) -> None:
        if len(node.value) >= 2:
            self._emit(STRING, node.value)
        else:
            # _record_string is a no-op below 2 chars; skip the call.
            self._emit(CONST, node.value)

    def _c_BooleanLiteral(self, node: ast.BooleanLiteral) -> None:
        self._emit(CONST, node.value)

    def _c_NullLiteral(self, node: ast.NullLiteral) -> None:
        self._emit(CONST, None)

    def _c_UndefinedLiteral(self, node: ast.UndefinedLiteral) -> None:
        self._emit(CONST, UNDEFINED)

    def _c_ThisExpression(self, node: ast.ThisExpression) -> None:
        self._emit(LOAD_THIS)

    def _c_Identifier(self, node: ast.Identifier) -> None:
        scope = self._scope_stack[-1]
        if scope is not None and node.name in scope:
            self._emit(LOAD_SLOT, scope[node.name])
        else:
            self._emit(LOAD_NAME, node.name)

    def _c_ArrayLiteral(self, node: ast.ArrayLiteral) -> None:
        for element in node.elements:
            self._expr(element)
        self._emit(ARRAY, len(node.elements))

    def _c_ObjectLiteral(self, node: ast.ObjectLiteral) -> None:
        keys = []
        for key, value in node.entries:
            keys.append(key)
            self._expr(value)
        self._emit(OBJECT, tuple(keys))

    def _c_FunctionExpression(self, node: ast.FunctionExpression) -> None:
        self._emit(MAKE_FUNCTION, self.compile_function(node.name, node.params, node.body))

    def _c_SequenceExpression(self, node: ast.SequenceExpression) -> None:
        for index, expression in enumerate(node.expressions):
            if index:
                self._emit(POP)
            self._expr(expression)
        if not node.expressions:
            self._emit(CONST, UNDEFINED)

    def _c_ConditionalExpression(self, node: ast.ConditionalExpression) -> None:
        self._expr(node.test)
        jump_false = self._emit(JUMP_IF_FALSE)
        self._expr(node.consequent)
        jump_end = self._emit(JUMP)
        self._flush()
        self._patch(jump_false)
        self._expr(node.alternate)
        self._flush()
        self._patch(jump_end)

    def _c_LogicalExpression(self, node: ast.LogicalExpression) -> None:
        self._expr(node.left)
        op = JUMP_IF_FALSE_KEEP if node.op == "&&" else JUMP_IF_TRUE_KEEP
        jump = self._emit(op)
        self._expr(node.right)
        self._flush()
        self._patch(jump)

    def _c_UnaryExpression(self, node: ast.UnaryExpression) -> None:
        if node.op == "typeof":
            if isinstance(node.operand, ast.Identifier):
                scope = self._scope_stack[-1]
                if scope is not None and node.operand.name in scope:
                    self.f.pending += 1  # the identifier's tick
                    self._emit(LOAD_SLOT, scope[node.operand.name])
                    self._emit(TYPEOF)
                else:
                    self.f.pending += 1
                    self._emit(TYPEOF_NAME, node.operand.name)
            else:
                self._expr(node.operand)
                self._emit(TYPEOF)
            return
        if node.op == "delete":
            if isinstance(node.operand, ast.MemberExpression):
                member = node.operand
                self.f.pending += 1  # normalized charge for the member node
                self._expr(member.obj)
                if member.computed:
                    self._expr(member.prop)
                    self._emit(DELETE_MEMBER_EXPR)
                else:
                    assert isinstance(member.prop, ast.Identifier)
                    self._emit(DELETE_MEMBER, member.prop.name)
            else:
                # The walker returns True without evaluating the operand.
                self._emit(CONST, True)
            return
        self._expr(node.operand)
        self._emit(UNARY, node.op)

    def _c_UpdateExpression(self, node: ast.UpdateExpression) -> None:
        target = node.operand
        if isinstance(target, ast.Identifier):
            self._expr(target)
            self._emit(TO_NUMBER)
            if not node.prefix:
                self._emit(DUP)
            self._emit(INCDEC, 1.0 if node.op == "++" else -1.0)
            self._emit_store_identifier(target.name)
            if not node.prefix:
                self._emit(POP)
            return
        if isinstance(target, ast.MemberExpression):
            self._expr(target)  # charges member + obj (+ computed prop)
            self._emit(TO_NUMBER)
            if not node.prefix:
                self._emit(DUP)
            self._emit(INCDEC, 1.0 if node.op == "++" else -1.0)
            # Walker re-evaluates the object (and computed name).
            self._expr_charge(target.obj)
            if target.computed:
                self._expr(target.prop)
                self._emit(ROT3)
                self._emit(MEMBER_SET_EXPR)
            else:
                assert isinstance(target.prop, ast.Identifier)
                self._emit(SWAP)
                self._emit(MEMBER_SET, target.prop.name)
            if not node.prefix:
                self._emit(POP)
            return
        self._expr(target)
        self._emit(RAISE_ERROR, ("invalid assignment target", "Error"))

    def _c_BinaryExpression(self, node: ast.BinaryExpression) -> None:
        self._expr(node.left)
        self._expr(node.right)
        self._emit(BINARY, node.op)

    def _emit_store_identifier(self, name: str) -> None:
        scope = self._scope_stack[-1]
        if scope is not None and name in scope:
            self._emit(STORE_SLOT, scope[name])
        else:
            self._emit(STORE_NAME, name)

    def _c_AssignmentExpression(self, node: ast.AssignmentExpression) -> None:
        target = node.target
        if node.op == "=":
            self._expr(node.value)
            if isinstance(target, ast.Identifier):
                self.f.pending += 1  # normalized charge for the target node
                self._emit_store_identifier(target.name)
                return
            if isinstance(target, ast.MemberExpression):
                self.f.pending += 1
                self._expr(target.obj)
                if target.computed:
                    self._expr(target.prop)
                    self._emit(ROT3)  # [value obj name] -> [obj name value]
                    self._emit(MEMBER_SET_EXPR)
                else:
                    assert isinstance(target.prop, ast.Identifier)
                    self._emit(SWAP)
                    self._emit(MEMBER_SET, target.prop.name)
                return
            self._emit(RAISE_ERROR, ("invalid assignment target", "Error"))
            return
        # Compound assignment: read target, apply, write back (the
        # walker evaluates a member target's object subtree twice).
        binary_op = node.op[:-1]
        if isinstance(target, ast.Identifier):
            self._expr(target)
            self._expr(node.value)
            self._emit(BINARY, binary_op)
            self._emit_store_identifier(target.name)
            return
        if isinstance(target, ast.MemberExpression):
            self._expr(target)
            self._expr(node.value)
            self._emit(BINARY, binary_op)
            self._expr_charge(target.obj)
            if target.computed:
                self._expr(target.prop)
                self._emit(ROT3)
                self._emit(MEMBER_SET_EXPR)
            else:
                assert isinstance(target.prop, ast.Identifier)
                self._emit(SWAP)
                self._emit(MEMBER_SET, target.prop.name)
            return
        self._expr(target)
        self._expr(node.value)
        self._emit(BINARY, binary_op)
        self._emit(RAISE_ERROR, ("invalid assignment target", "Error"))

    def _c_MemberExpression(self, node: ast.MemberExpression) -> None:
        self._expr(node.obj)
        if node.computed:
            self._expr(node.prop)
            self._emit(MEMBER_GET_EXPR)
        else:
            assert isinstance(node.prop, ast.Identifier)
            self._emit(MEMBER_GET, node.prop.name)

    def _c_CallExpression(self, node: ast.CallExpression) -> None:
        callee = node.callee
        if isinstance(callee, ast.MemberExpression):
            self.f.pending += 1  # normalized charge for the callee member
            self._expr(callee.obj)
            if callee.computed:
                self._expr(callee.prop)
                self._emit(METHOD_LOOKUP_EXPR)
                for argument in node.arguments:
                    self._expr(argument)
                self._emit(CALL_THIS_DYN, len(node.arguments))
            else:
                assert isinstance(callee.prop, ast.Identifier)
                self._emit(METHOD_LOOKUP, callee.prop.name)
                for argument in node.arguments:
                    self._expr(argument)
                self._emit(CALL_THIS, (callee.prop.name, len(node.arguments)))
            return
        if isinstance(callee, ast.Identifier) and callee.name == "eval":
            # Direct eval is syntactic in the walker: the binding is
            # never consulted, the callee identifier never charged.
            for argument in node.arguments:
                self._expr(argument)
            self._emit(DIRECT_EVAL, len(node.arguments))
            return
        self._expr(callee)
        for argument in node.arguments:
            self._expr(argument)
        self._emit(CALL, len(node.arguments))

    def _c_NewExpression(self, node: ast.NewExpression) -> None:
        self._expr(node.callee)
        for argument in node.arguments:
            self._expr(argument)
        self._emit(NEW, len(node.arguments))

    # -- misc --------------------------------------------------------------

    def _intern_number(self, value: float) -> float:
        # repr() keys keep NaN and -0.0 as distinct pool entries.
        key = repr(value)
        pool = self._pool
        if key not in pool:
            pool[key] = value
        return pool[key]

    _STMT_TABLE: Dict[type, Callable[["Compiler", Any], None]]
    _EXPR_TABLE: Dict[type, Callable[["Compiler", Any], None]]


Compiler._STMT_TABLE = {
    ast.Block: Compiler._c_Block,
    ast.EmptyStatement: Compiler._c_EmptyStatement,
    ast.ExpressionStatement: Compiler._c_ExpressionStatement,
    ast.VarDeclaration: Compiler._c_VarDeclaration,
    ast.FunctionDeclaration: Compiler._c_FunctionDeclaration,
    ast.IfStatement: Compiler._c_IfStatement,
    ast.WhileStatement: Compiler._c_WhileStatement,
    ast.DoWhileStatement: Compiler._c_DoWhileStatement,
    ast.ForStatement: Compiler._c_ForStatement,
    ast.ForInStatement: Compiler._c_ForInStatement,
    ast.BreakStatement: Compiler._c_BreakStatement,
    ast.ContinueStatement: Compiler._c_ContinueStatement,
    ast.ReturnStatement: Compiler._c_ReturnStatement,
    ast.ThrowStatement: Compiler._c_ThrowStatement,
    ast.TryStatement: Compiler._c_TryStatement,
    ast.SwitchStatement: Compiler._c_SwitchStatement,
}

Compiler._EXPR_TABLE = {
    ast.NumberLiteral: Compiler._c_NumberLiteral,
    ast.StringLiteral: Compiler._c_StringLiteral,
    ast.BooleanLiteral: Compiler._c_BooleanLiteral,
    ast.NullLiteral: Compiler._c_NullLiteral,
    ast.UndefinedLiteral: Compiler._c_UndefinedLiteral,
    ast.ThisExpression: Compiler._c_ThisExpression,
    ast.Identifier: Compiler._c_Identifier,
    ast.ArrayLiteral: Compiler._c_ArrayLiteral,
    ast.ObjectLiteral: Compiler._c_ObjectLiteral,
    ast.FunctionExpression: Compiler._c_FunctionExpression,
    ast.SequenceExpression: Compiler._c_SequenceExpression,
    ast.ConditionalExpression: Compiler._c_ConditionalExpression,
    ast.LogicalExpression: Compiler._c_LogicalExpression,
    ast.UnaryExpression: Compiler._c_UnaryExpression,
    ast.UpdateExpression: Compiler._c_UpdateExpression,
    ast.BinaryExpression: Compiler._c_BinaryExpression,
    ast.AssignmentExpression: Compiler._c_AssignmentExpression,
    ast.MemberExpression: Compiler._c_MemberExpression,
    ast.CallExpression: Compiler._c_CallExpression,
    ast.NewExpression: Compiler._c_NewExpression,
}


def signal_target(
    regions: Tuple[Tuple[int, int, int, int, int, int], ...], ip: int, is_continue: bool
) -> Tuple[int, int]:
    """Where a ``BreakSignal`` (``ContinueSignal`` with ``is_continue``)
    raised at ``ip`` lands: ``(pc, for-in depth)`` from the innermost
    region holding ``ip`` (that has a continue label), or ``(-1, 0)``
    when the signal unwinds out of the fragment."""
    for start, end, break_pc, continue_pc, break_depth, continue_depth in regions:
        if start <= ip < end:
            if not is_continue:
                return break_pc, break_depth
            if continue_pc >= 0:
                return continue_pc, continue_depth
    return -1, 0


# ---------------------------------------------------------------------------
# Per-process compile cache

_CACHE_CAP = 256
_CODE_CACHE: "OrderedDict[str, Code]" = OrderedDict()
_CACHE_LOCK = threading.Lock()
#: Translated hot-loop functions keyed by their generated source, which
#: depends only on a loop's shape and, typed, the types it was
#: translated for (``repro.js.hotloop``).
_LOOP_CACHE_CAP = 256
_LOOP_CACHE: "OrderedDict[str, Any]" = OrderedDict()

_F = TypeVar("_F")


def compile_source(source: str) -> Code:
    """Parse + compile ``source``, memoised per process by source text.

    Only the same text again hits the cache.  An instrumentation
    wrapper never does: it embeds its document's key and its script's
    ciphertext, so each one compiles.  Parse failures are never cached
    (they must re-raise each time, as the walker would re-parse).
    """
    with _CACHE_LOCK:
        cached = _CODE_CACHE.get(source)
        if cached is not None:
            _CODE_CACHE.move_to_end(source)
            return cached
    program = parse(source)
    code = Compiler().compile_program(program)
    with _CACHE_LOCK:
        _CODE_CACHE[source] = code
        _CODE_CACHE.move_to_end(source)
        while len(_CODE_CACHE) > _CACHE_CAP:
            _CODE_CACHE.popitem(last=False)
    return code


def cached_loop_function(source: str, build: Callable[[str], _F]) -> _F:
    """``build(source)``, memoised per process by ``source`` in an LRU.

    ``build`` (Python's ``compile()``) runs outside the lock; two
    threads missing at once both build, and the later insert wins.
    """
    with _CACHE_LOCK:
        cached = _LOOP_CACHE.get(source)
        if cached is not None:
            _LOOP_CACHE.move_to_end(source)
            return cached
    function = build(source)
    with _CACHE_LOCK:
        _LOOP_CACHE[source] = function
        _LOOP_CACHE.move_to_end(source)
        while len(_LOOP_CACHE) > _LOOP_CACHE_CAP:
            _LOOP_CACHE.popitem(last=False)
    return function


def clear_code_cache() -> None:
    """Drop every compiled program and every translated loop function."""
    with _CACHE_LOCK:
        _CODE_CACHE.clear()
        _LOOP_CACHE.clear()


def code_cache_size() -> int:
    with _CACHE_LOCK:
        return len(_CODE_CACHE)


# ---------------------------------------------------------------------------
# Disassembly

def _format_arg(op: int, arg: Any, subcode_names: Dict[int, str]) -> str:
    if arg is None:
        return ""
    if isinstance(arg, Code):
        return subcode_names.get(id(arg), repr(arg))
    if op == EXEC_TRY:
        try_code, catch_param, catch_code, finally_code = arg
        parts = [subcode_names.get(id(try_code), "try")]
        if catch_code is not None:
            parts.append(f"catch({catch_param or 'e'})={subcode_names.get(id(catch_code), '?')}")
        if finally_code is not None:
            parts.append(f"finally={subcode_names.get(id(finally_code), '?')}")
        return " ".join(parts)
    if op == FORIN_NEXT:
        end, mode, payload = arg
        mode_name = ("name", "slot", "push")[mode]
        return f"end={end} {mode_name}={payload!r}" if mode != FORIN_PUSH else f"end={end} push"
    return repr(arg)


def _sub_codes(code: Code) -> List[Tuple[str, Code]]:
    out: List[Tuple[str, Code]] = []
    for action in code.hoist_actions:
        if action[0] == "func":
            sub = action[1]
            out.append((f"function {sub.name or '<anonymous>'}", sub))
    for index, (op, arg) in enumerate(zip(code.ops, code.args)):
        if op == MAKE_FUNCTION:
            out.append((f"function {arg.name or '<anonymous>'}@{index}", arg))
        elif op == EXEC_TRY:
            try_code, _param, catch_code, finally_code = arg
            out.append((f"try@{index}", try_code))
            if catch_code is not None:
                out.append((f"catch@{index}", catch_code))
            if finally_code is not None:
                out.append((f"finally@{index}", finally_code))
    return out


def disassemble(code: Code, name: str = "<program>") -> str:
    """A deterministic, diff-friendly listing of ``code`` and its
    nested function/fragment codes."""
    lines: List[str] = []
    _disassemble_one(code, name, lines)
    return "\n".join(lines) + "\n"


def _disassemble_one(code: Code, name: str, lines: List[str]) -> None:
    header = f"{name} [{code.kind}/{code.mode}]"
    if code.params:
        header += f" params=({', '.join(code.params)})"
    if code.mode == "slot":
        header += f" nlocals={code.nlocals} slots=({', '.join(code.slot_names)})"
    lines.append(header)
    for action in code.hoist_actions:
        if action[0] == "var":
            lines.append(f"  hoist var {action[1]}")
        else:
            lines.append(f"  hoist function {action[1].name}")
    subs = _sub_codes(code)
    subcode_names = {id(sub): label for label, sub in subs}
    for index, (op, arg, charge) in enumerate(zip(code.ops, code.args, code.charges)):
        text = _format_arg(op, arg, subcode_names)
        charge_note = f"  ; charge {charge}" if charge else ""
        lines.append(f"  {index:4d} {OPCODE_NAMES[op]:<18} {text}{charge_note}".rstrip())
    if code.regions:
        for region in code.regions:
            start, end, break_pc, continue_pc, bd, cd = region
            lines.append(
                f"  region [{start},{end}) break->{break_pc}"
                f" continue->{continue_pc} depths={bd}/{cd}"
            )
    seen: set = set()
    for label, sub in subs:
        if id(sub) in seen:
            continue
        seen.add(id(sub))
        lines.append("")
        _disassemble_one(sub, label, lines)
