"""Abstract interpreter over the :mod:`repro.js.nodes` AST.

This is the *proof tier* of static triage.  Where :mod:`repro.jsast.fold`
sees through exactly one obfuscation layer and the lint rules pattern-
match, this module runs the whole script abstractly over the value
lattice of :mod:`repro.jsast.lattice`:

* abstract environments map variable names to lattice values, with
  strong updates on assignment and joins at control-flow merges;
* loops run to a widening fixed point (a doubling spray loop converges
  to a ``repeated-unit`` string shape with an interval length instead
  of being unrolled), and canonical ``for (var i = 0; i < N; i++)``
  loops additionally yield a proven trip-count lower bound;
* a fully-constant argument to ``eval`` / ``Function`` /
  ``document.write`` is *peeled*: parsed and analysed as a nested layer
  with the same machinery, to arbitrary depth (budgeted);
* everything the abstraction cannot pin down is *havocked* to ⊤, and
  every call that could reach a scored host API becomes a **channel**
  fact — the absence of channels is what PROVEN-BENIGN means.

The collected facts (:class:`AbsintResult`) are deliberately dumb data;
the proof rules that turn them into verdicts live in
:mod:`repro.jsast.rules_absint`.

Every constant it computes comes from the runtime's own code, through
:mod:`repro.jsast.consts`.  Soundness is with respect to the runtime
model of :mod:`repro.js` (host API calls do not throw and do not rebind
script variables) and
the scored-API surface of :mod:`repro.jsast.rules`; see
``docs/STATIC_ANALYSIS.md`` for the argument and its boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.js import nodes as ast
from repro.jsast import consts
from repro.jsast import lattice as lat
from repro.jsast.analyzer import LayerScans, scan_layer
from repro.jsast.rules import (
    EXPLOIT_CALL_SUFFIXES,
    SIDE_EFFECT_COMPONENTS,
    SIDE_EFFECT_PREFIXES,
    SPRAY_LENGTH_THRESHOLD,
    RuleContext,
    _self_appends,
    member_path,
)
from repro.jsast.walk import walk

#: Default per-script step budget (see ``repro.limits.max_absint_steps``).
DEFAULT_MAX_STEPS = 200_000

#: Deepest eval nesting the interpreter will peel.
MAX_EVAL_DEPTH = 12

#: Join iterations before widening kicks in.
_MAX_JOIN_ITERS = 3

#: Callees that are pure value constructors/converters — calling them
#: reaches no scored host API and rebinds nothing.
PURE_CALLEES: Tuple[str, ...] = (
    "unescape",
    "escape",
    "parseInt",
    "parseFloat",
    "isNaN",
    "isFinite",
    "String",
    "Number",
    "Boolean",
    "Array",
    "Object",
    "RegExp",
    "Date",
    "Math",
)

#: Member-method names that re-feed code into execution.
_EVAL_METHODS = ("eval",)
_WRITE_METHODS = ("write", "writeln")

#: Host APIs provably off the scored feature surface (no syscall
#: category, no code staging, no scored side effect): calling them
#: does not block a PROVEN-BENIGN verdict.  Deliberately tiny —
#: ``util.printf`` is *not* here (CVE-2008-2992 reaches the exploit
#: through it even though the call itself is unscored).
HARMLESS_HOST_APIS: Tuple[str, ...] = (
    "app.alert",
    "app.beep",
    "console.println",
    "console.show",
    "console.hide",
    "console.clear",
    "util.printd",
    "getField",  # ``this.`` is stripped by member_path
)

#: Channel kinds.
CHANNEL_EXPLOIT = "exploit-api"
CHANNEL_SIDE_EFFECT = "side-effect"
CHANNEL_OPAQUE_CALL = "opaque-call"
CHANNEL_OPAQUE_EVAL = "opaque-eval"


class AbsintBudgetExceeded(Exception):
    """The abstract interpretation step budget ran out."""


class _Budget:
    __slots__ = ("steps", "limit")

    def __init__(self, limit: int) -> None:
        self.steps = 0
        self.limit = limit

    def tick(self, amount: int = 1) -> None:
        self.steps += amount
        if self.steps > self.limit:
            raise AbsintBudgetExceeded(
                f"absint budget exhausted ({self.limit} steps)"
            )


# ---------------------------------------------------------------------------
# Facts


@dataclass(frozen=True)
class ChannelFact:
    """A call site that may reach a scored host API."""

    kind: str
    path: str
    layer: int

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "path": self.path, "layer": self.layer}


@dataclass(frozen=True)
class SprayFill:
    """An in-loop array fill with a proven sled payload lower bound."""

    array: str
    layer: int
    unit: str
    elem_len_lo: int
    sled_lo: int
    trip_lo: int
    #: 2 bytes per JS character × element length × trip count.
    bytes_lo: int
    must: bool

    def to_dict(self) -> Dict[str, Any]:
        return {
            "array": self.array,
            "layer": self.layer,
            "unit": self.unit,
            "elem_len_lo": self.elem_len_lo,
            "sled_lo": self.sled_lo,
            "trip_lo": self.trip_lo,
            "bytes_lo": self.bytes_lo,
            "must": self.must,
        }


@dataclass(frozen=True)
class SledFact:
    """A variable proven to hold ≥ ``lo`` sled characters at layer end."""

    var: str
    layer: int
    unit: str
    lo: int
    must: bool

    def to_dict(self) -> Dict[str, Any]:
        return {
            "var": self.var,
            "layer": self.layer,
            "unit": self.unit,
            "lo": self.lo,
            "must": self.must,
        }


@dataclass(frozen=True)
class ExportFact:
    """An ``exportDataObject`` call with abstractly-resolved arguments."""

    path: str
    layer: int
    launch: Optional[float]
    name: Optional[str]
    must: bool

    def to_dict(self) -> Dict[str, Any]:
        return {
            "path": self.path,
            "layer": self.layer,
            "launch": self.launch,
            "name": self.name,
            "must": self.must,
        }


@dataclass
class EvalLayer:
    """One analysed script layer (the document script or a peeled eval)."""

    label: str
    depth: int
    must: bool
    parse_error: Optional[str] = None
    #: SUSPICIOUS+ classic rules other than ``eval-computed-string``.
    blocking_rules: List[str] = field(default_factory=list)
    side_effect_apis: List[str] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "label": self.label,
            "depth": self.depth,
            "must": self.must,
            "parse_error": self.parse_error,
            "blocking_rules": list(self.blocking_rules),
            "side_effect_apis": list(self.side_effect_apis),
        }


@dataclass
class AbsintResult:
    """Everything abstract interpretation learned about one script."""

    status: str = "ok"  # ok | budget-exhausted | error
    steps: int = 0
    layers: List[EvalLayer] = field(default_factory=list)
    channels: List[ChannelFact] = field(default_factory=list)
    fills: List[SprayFill] = field(default_factory=list)
    sleds: List[SledFact] = field(default_factory=list)
    exports: List[ExportFact] = field(default_factory=list)
    env_summary: Dict[str, str] = field(default_factory=dict)
    error: Optional[str] = None

    @property
    def max_depth(self) -> int:
        return max((layer.depth for layer in self.layers), default=0)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "status": self.status,
            "steps": self.steps,
            "layers": [layer.to_dict() for layer in self.layers],
            "channels": [c.to_dict() for c in self.channels],
            "fills": [f.to_dict() for f in self.fills],
            "sleds": [s.to_dict() for s in self.sleds],
            "exports": [e.to_dict() for e in self.exports],
            "env_summary": dict(self.env_summary),
            "error": self.error,
        }


# ---------------------------------------------------------------------------
# Small AST helpers (scope/effect prescans)


def _is_function(node: ast.Node) -> bool:
    return isinstance(node, (ast.FunctionDeclaration, ast.FunctionExpression))


def _walk_no_functions(node: ast.Node):
    """Pre-order walk that does not descend into function bodies."""
    stack: List[ast.Node] = [node]
    while stack:
        current = stack.pop()
        yield current
        if _is_function(current):
            continue
        stack.extend(reversed(ast.child_nodes(current)))


def _written_names(node: Optional[ast.Node]) -> Set[str]:
    """Names a subtree may (re)bind, excluding function-body internals."""
    out: Set[str] = set()
    if node is None:
        return out
    for current in _walk_no_functions(node):
        if isinstance(current, ast.AssignmentExpression):
            if isinstance(current.target, ast.Identifier):
                out.add(current.target.name)
        elif isinstance(current, ast.UpdateExpression):
            if isinstance(current.operand, ast.Identifier):
                out.add(current.operand.name)
        elif isinstance(current, ast.VarDeclaration):
            out.update(name for name, _init in current.declarations)
        elif isinstance(current, ast.ForInStatement):
            target = current.target
            if isinstance(target, ast.Identifier):
                out.add(target.name)
            elif isinstance(target, ast.VarDeclaration):
                out.update(name for name, _init in target.declarations)
        elif isinstance(current, ast.FunctionDeclaration):
            out.add(current.name)
    return out


def _expr_names(node: ast.Node) -> Set[str]:
    """Identifiers an expression reads (function bodies excluded)."""
    return {
        current.name
        for current in _walk_no_functions(node)
        if isinstance(current, ast.Identifier)
    }


def _scope_declared(body: ast.Node) -> Tuple[Set[str], Set[str]]:
    """``(var_names, function_names)`` declared in one scope body,
    not descending into nested function bodies."""
    var_names: Set[str] = set()
    func_names: Set[str] = set()
    for current in _walk_no_functions(body):
        if isinstance(current, ast.VarDeclaration):
            var_names.update(name for name, _init in current.declarations)
        elif isinstance(current, ast.ForInStatement):
            if isinstance(current.target, ast.Identifier):
                var_names.add(current.target.name)
        elif isinstance(current, ast.FunctionDeclaration):
            func_names.add(current.name)
    return var_names, func_names


def _contains_abrupt(node: ast.Node) -> bool:
    """Break/continue/return/throw anywhere in the subtree (functions
    excluded) — disables trip bounds and exit refinement."""
    for current in _walk_no_functions(node):
        if isinstance(
            current,
            (
                ast.BreakStatement,
                ast.ContinueStatement,
                ast.ReturnStatement,
                ast.ThrowStatement,
            ),
        ):
            return True
    return False


def _may_abort(program: ast.Program) -> bool:
    """Could running this layer raise out of it?  Conservative: any
    ``throw`` outside function bodies counts, caught or not."""
    return any(
        isinstance(current, ast.ThrowStatement)
        for current in _walk_no_functions(program)
    )


def _function_effects(program: ast.Program) -> Tuple[Set[str], bool, bool]:
    """``(written, has_eval, has_throw)`` aggregated over every function
    body in the layer — the havoc set for opaque user-function calls."""
    written: Set[str] = set()
    has_eval = False
    has_throw = False
    for node in walk(program):
        if not _is_function(node):
            continue
        for current in walk(node.body):
            if isinstance(current, ast.AssignmentExpression):
                if isinstance(current.target, ast.Identifier):
                    written.add(current.target.name)
            elif isinstance(current, ast.UpdateExpression):
                if isinstance(current.operand, ast.Identifier):
                    written.add(current.operand.name)
            elif isinstance(current, ast.VarDeclaration):
                written.update(name for name, _init in current.declarations)
            elif isinstance(current, ast.ThrowStatement):
                has_throw = True
            elif isinstance(current, ast.CallExpression):
                callee = current.callee
                if isinstance(callee, ast.Identifier) and callee.name in (
                    "eval",
                    "Function",
                ):
                    has_eval = True
                elif isinstance(callee, ast.MemberExpression) and isinstance(
                    callee.prop, ast.Identifier
                ):
                    if callee.prop.name in _EVAL_METHODS + _WRITE_METHODS:
                        has_eval = True
    return written, has_eval, has_throw


def _truthiness(value: lat.AbsValue) -> Optional[bool]:
    """JS truthiness when abstractly decidable, else ``None``."""
    if isinstance(value, lat.AbsConst):
        return consts.truthy(value.value)
    rng = lat.number_range(value)
    if rng is not None:
        if rng.lo is not None and rng.lo > 0:
            return True
        if rng.hi is not None and rng.hi < 0:
            return True
        if rng.exact_value == 0.0:
            return False
    return None


def _join_env(
    a: Dict[str, lat.AbsValue], b: Dict[str, lat.AbsValue]
) -> Dict[str, lat.AbsValue]:
    """Pointwise join; a name missing on either side is ⊤ (dropped)."""
    out: Dict[str, lat.AbsValue] = {}
    for name, value in a.items():
        other = b.get(name)
        if other is None:
            continue
        joined = lat.join_value(value, other)
        if joined is not lat.TOP:
            out[name] = joined
    return out


def _widen_env(
    a: Dict[str, lat.AbsValue], b: Dict[str, lat.AbsValue]
) -> Dict[str, lat.AbsValue]:
    out: Dict[str, lat.AbsValue] = {}
    for name, value in a.items():
        other = b.get(name)
        if other is None:
            continue
        widened = lat.widen_value(value, other)
        if widened is not lat.TOP:
            out[name] = widened
    return out


def _describe(value: lat.AbsValue) -> str:
    if isinstance(value, lat.AbsConst):
        if isinstance(value.value, str):
            return f"const-str[{len(value.value)}]"
        return f"const:{value.value!r}"
    if isinstance(value, lat.AbsStr):
        return value.describe()
    if isinstance(value, lat.AbsNum):
        lo = "-∞" if value.range.lo is None else str(int(value.range.lo))
        hi = "∞" if value.range.hi is None else str(int(value.range.hi))
        return f"num[{lo}..{hi}]"
    if isinstance(value, lat.AbsFunc):
        return "function"
    if value is lat.LOCAL_OBJ:
        return "object"
    return "⊤"


# ---------------------------------------------------------------------------
# Engine: shared budget + fact sinks + layer recursion


class _Engine:
    def __init__(self, budget: _Budget, scans: LayerScans) -> None:
        self.budget = budget
        self.scans = scans
        self.result = AbsintResult()
        self._channel_keys: Set[Tuple[str, str, int]] = set()

    def channel(self, kind: str, path: str, layer: int) -> None:
        key = (kind, path, layer)
        if key not in self._channel_keys:
            self._channel_keys.add(key)
            self.result.channels.append(ChannelFact(kind, path, layer))

    def analyze_layer(
        self, code: str, depth: int, must: bool, label: str
    ) -> Tuple[Optional[Set[str]], bool]:
        """Scan and abstractly run one script layer.

        Returns ``(written_names, may_abort)``; ``written_names`` is
        ``None`` when the caller must havoc everything (depth cap).
        """
        self.budget.tick(max(1, len(code) // 32))
        if depth > MAX_EVAL_DEPTH:
            self.channel(
                CHANNEL_OPAQUE_EVAL, f"eval-depth>{MAX_EVAL_DEPTH}", depth
            )
            return None, True
        layer = EvalLayer(label=label, depth=depth, must=must)
        self.result.layers.append(layer)
        scan = scan_layer(code, self.scans)
        program = scan.program
        if program is None:
            layer.parse_error = scan.parse_exception
            # A syntax error in eval'd code throws at runtime: the code
            # never runs (no writes) and the caller may abort.
            return set(), True
        layer.blocking_rules = list(scan.blocking_rules)
        layer.side_effect_apis = list(scan.side_effect_apis)

        interp = _Interp(self, program, depth, label)
        interp.must = must
        interp.run()

        walker = _ChannelWalker(self, interp, program, depth, label, scan.ctx)
        walker.run()

        for name in sorted(interp.env):
            value = interp.env[name]
            sled_lo = lat.sled_prefix_of(value).lo or 0.0
            if sled_lo >= SPRAY_LENGTH_THRESHOLD:
                self.result.sleds.append(
                    SledFact(
                        var=name,
                        layer=depth,
                        unit=lat.sled_unit_of(value) or "",
                        lo=int(sled_lo),
                        must=must and interp.must_now,
                    )
                )
        if depth == 0:
            self.result.env_summary = {
                name: _describe(value)
                for name, value in sorted(interp.env.items())
            }
        return interp.written, interp.aborted or _may_abort(program)


# ---------------------------------------------------------------------------
# The abstract interpreter proper


class _Interp:
    """Abstractly executes one layer's top-level code.

    Responsibilities: environment tracking, loop fixed points, trip
    bounds, eval peeling at reached sites, and fact recording (fills /
    exports).  Channel classification is the walker's job.
    """

    def __init__(
        self,
        engine: _Engine,
        program: ast.Program,
        depth: int,
        label: str,
    ) -> None:
        self.engine = engine
        self.program = program
        self.depth = depth
        self.label = label
        self.env: Dict[str, lat.AbsValue] = {}
        self.written: Set[str] = set()
        #: Names that were ever assigned an unknown (⊤) value — only
        #: these could alias a host object.  A declared, never-tainted
        #: name provably holds a layer-local value even when a join
        #: dropped it from the environment.
        self.tainted: Set[str] = set()
        #: Layer-level declarations (vars + function decls outside
        #: function bodies) — used for eval-shadowing checks.
        var_names, func_names = _scope_declared(program)
        self.declared = var_names | func_names
        self.declared_funcs = func_names
        (
            self.func_written,
            self.func_has_eval,
            self.func_has_throw,
        ) = _function_effects(program)
        self.must = True
        #: Latches — only ever flip one way; both kill later must-facts.
        self.aborted = False
        self.diverged = False
        #: While False (loop fixpoint iterations), facts are not
        #: recorded and eval sites havoc instead of peeling.
        self.record = True
        #: Trip-count lower bounds of enclosing recording-pass loops.
        self.trips: List[int] = []
        #: Ids of this layer's eval/export sites already handled: per
        #: layer, as ids are unique only among live nodes and every peel
        #: of one source shares its AST.
        self.handled_evals: Set[int] = set()
        self.handled_exports: Set[int] = set()

    @property
    def must_now(self) -> bool:
        return self.must and not self.aborted and not self.diverged

    # -- environment -----------------------------------------------------

    def lookup(self, name: str) -> lat.AbsValue:
        value = self.env.get(name)
        return value if value is not None else lat.TOP

    def assign(self, name: str, value: lat.AbsValue) -> None:
        self.written.add(name)
        if value is lat.TOP:
            self.tainted.add(name)
            self.env.pop(name, None)
        else:
            self.env[name] = value

    def havoc(self, names: Set[str]) -> None:
        for name in names:
            self.written.add(name)
            self.tainted.add(name)
            self.env.pop(name, None)

    def havoc_all(self) -> None:
        self.written.update(self.env)
        self.tainted.update(self.declared)
        self.tainted.update(self.env)
        self.env.clear()

    # -- driver ----------------------------------------------------------

    def run(self) -> None:
        for statement in self.program.body:
            if isinstance(statement, ast.FunctionDeclaration):
                self.env[statement.name] = lat.AbsFunc(statement.name)
        for statement in self.program.body:
            self.exec_stmt(statement)

    # -- statements ------------------------------------------------------

    def exec_stmt(self, node: ast.Node) -> None:
        self.engine.budget.tick()
        if isinstance(node, ast.Block):
            for statement in node.statements:
                self.exec_stmt(statement)
        elif isinstance(node, ast.VarDeclaration):
            for name, init in node.declarations:
                value = (
                    self.eval_expr(init)
                    if init is not None
                    else lat.AbsConst(consts.UNDEFINED)
                )
                self.assign(name, value)
                self._note_sled_assign(name, value)
        elif isinstance(node, ast.ExpressionStatement):
            self.eval_expr(node.expression)
        elif isinstance(node, ast.IfStatement):
            self._exec_if(node)
        elif isinstance(node, ast.WhileStatement):
            self._exec_while(node)
        elif isinstance(node, ast.DoWhileStatement):
            self._exec_dowhile(node)
        elif isinstance(node, ast.ForStatement):
            self._exec_for(node)
        elif isinstance(node, ast.ForInStatement):
            self._exec_forin(node)
        elif isinstance(node, ast.TryStatement):
            self._exec_try(node)
        elif isinstance(node, ast.SwitchStatement):
            self._exec_switch(node)
        elif isinstance(node, (ast.ReturnStatement, ast.ThrowStatement)):
            if getattr(node, "value", None) is not None:
                self.eval_expr(node.value)  # type: ignore[arg-type]
            self.aborted = True
        elif isinstance(node, ast.FunctionDeclaration):
            pass  # hoisted in run()
        elif isinstance(
            node,
            (ast.BreakStatement, ast.ContinueStatement, ast.EmptyStatement),
        ):
            pass
        else:  # unknown statement kind: havoc its writes, stay sound
            self.havoc(_written_names(node))

    def _exec_if(self, node: ast.IfStatement) -> None:
        test = self.eval_expr(node.test)
        taken = _truthiness(test)
        if taken is True:
            self.exec_stmt(node.consequent)
            return
        if taken is False:
            if node.alternate is not None:
                self.exec_stmt(node.alternate)
            return
        saved_must = self.must
        self.must = False
        entry = dict(self.env)
        self.exec_stmt(node.consequent)
        then_env = self.env
        self.env = dict(entry)
        if node.alternate is not None:
            self.exec_stmt(node.alternate)
        self.env = _join_env(then_env, self.env)
        self.written.update(set(entry) - set(self.env))
        self.must = saved_must

    def _fixpoint(self, step: Callable[[], None]) -> None:
        """Run ``step`` (one abstract loop iteration) to stabilisation:
        bounded joins, then widening, then one stabilising pass."""
        for _ in range(_MAX_JOIN_ITERS):
            before = dict(self.env)
            step()
            merged = _join_env(before, self.env)
            self.env = merged
            if merged == before:
                return
        before = dict(self.env)
        step()
        self.env = _widen_env(before, self.env)
        before = dict(self.env)
        step()
        self.env = _join_env(before, self.env)

    def _run_loop(
        self,
        step: Callable[[], None],
        trip_lo: int,
        terminates: bool,
    ) -> None:
        """Shared loop driver: fixpoint (no recording), one recording
        pass on the stabilised env, divergence accounting."""
        saved_record, self.record = self.record, False
        saved_must, self.must = self.must, False
        self._fixpoint(step)
        self.record = saved_record
        if self.record:
            stable = dict(self.env)
            self.trips.append(trip_lo)
            self.must = saved_must and trip_lo >= 1
            step()
            self.trips.pop()
            self.env = _join_env(stable, self.env)
        self.must = saved_must
        if not terminates:
            self.diverged = True

    def _exec_while(self, node: ast.WhileStatement) -> None:
        def step() -> None:
            self.eval_expr(node.test)
            self.exec_stmt(node.body)

        entry_env = dict(self.env)
        self._run_loop(
            step,
            trip_lo=0,
            terminates=self._doubling_terminates(node, entry_env),
        )
        if not _contains_abrupt(node.body):
            self._refine_exit(node.test)

    def _exec_dowhile(self, node: ast.DoWhileStatement) -> None:
        def step() -> None:
            self.exec_stmt(node.body)
            self.eval_expr(node.test)

        self._run_loop(
            step,
            trip_lo=1,
            terminates=False,
        )
        if not _contains_abrupt(node.body):
            self._refine_exit(node.test)

    def _exec_for(self, node: ast.ForStatement) -> None:
        if node.init is not None:
            if isinstance(node.init, ast.VarDeclaration):
                self.exec_stmt(node.init)
            else:
                self.eval_expr(node.init)
        trip_lo = self._trip_bound(node)

        def step() -> None:
            if node.test is not None:
                self.eval_expr(node.test)
            self.exec_stmt(node.body)
            if node.update is not None:
                self.eval_expr(node.update)

        self._run_loop(step, trip_lo=trip_lo, terminates=trip_lo >= 1)
        if node.test is not None and not _contains_abrupt(node.body):
            self._refine_exit(node.test)

    def _exec_forin(self, node: ast.ForInStatement) -> None:
        self.eval_expr(node.obj)
        if isinstance(node.target, ast.Identifier):
            self.assign(node.target.name, lat.TOP)
        elif isinstance(node.target, ast.VarDeclaration):
            for name, _init in node.target.declarations:
                self.assign(name, lat.TOP)

        def step() -> None:
            self.exec_stmt(node.body)

        self._run_loop(step, trip_lo=0, terminates=True)

    def _exec_try(self, node: ast.TryStatement) -> None:
        saved_must, self.must = self.must, False
        saved_aborted = self.aborted
        entry = dict(self.env)
        self.exec_stmt(node.block)
        if node.catch_block is not None:
            # The catch handler recovers control; its effects (and the
            # partially-executed block's) are covered by havocking every
            # name either may write.
            self.aborted = saved_aborted
            havocked = dict(entry)
            for name in _written_names(node.block) | _written_names(
                node.catch_block
            ):
                havocked.pop(name, None)
            self.env = _join_env(self.env, havocked)
        self.must = saved_must
        if node.finally_block is not None:
            self.exec_stmt(node.finally_block)

    def _exec_switch(self, node: ast.SwitchStatement) -> None:
        self.eval_expr(node.discriminant)
        saved_must, self.must = self.must, False
        entry = dict(self.env)
        written: Set[str] = set()
        for case in node.cases:
            if case.test is not None:
                self.eval_expr(case.test)
            # Execute each case body on a scratch copy (peels evals,
            # records non-must facts); the real env effect is a havoc.
            self.env = dict(entry)
            for statement in case.body:
                self.exec_stmt(statement)
                written |= _written_names(statement)
        self.env = dict(entry)
        self.havoc(written)
        self.must = saved_must

    # -- loop precision helpers ------------------------------------------

    def _trip_bound(self, node: ast.ForStatement) -> int:
        """Proven trip-count lower bound of a canonical counting loop;
        0 when unknown."""
        init = node.init
        test = node.test
        update = node.update
        if init is None or test is None or update is None:
            return 0
        # init: var i = c0  /  i = c0
        if isinstance(init, ast.VarDeclaration) and len(init.declarations) == 1:
            ivar, init_expr = init.declarations[0]
            if init_expr is None:
                return 0
        elif isinstance(init, ast.AssignmentExpression) and isinstance(
            init.target, ast.Identifier
        ):
            ivar, init_expr = init.target.name, init.value
        else:
            return 0
        start = lat.number_range(self.eval_expr(init_expr))
        if start is None or start.hi is None:
            return 0
        # test: i < N  /  i <= N
        if not (
            isinstance(test, ast.BinaryExpression)
            and test.op in ("<", "<=")
            and isinstance(test.left, ast.Identifier)
            and test.left.name == ivar
        ):
            return 0
        bound = lat.number_range(self.eval_expr(test.right))
        if bound is None or bound.lo is None:
            return 0
        # update: i++ / ++i / i += k / i = i + k   (k a positive const)
        step = self._step_of(update, ivar)
        if step is None or step <= 0:
            return 0
        # The body must not touch the counter or the bound's inputs and
        # must run to completion (no abrupt exits).
        if ivar in _written_names(node.body):
            return 0
        if _contains_abrupt(node.body):
            return 0
        bound_inputs = _expr_names(test.right)
        if bound_inputs & (_written_names(node.body) | {ivar}):
            return 0
        span = bound.lo - start.hi
        if test.op == "<=":
            span += 1.0
        if span <= 0 or math.isinf(span):
            return 0
        return int(math.ceil(span / step))

    def _step_of(self, update: ast.Node, ivar: str) -> Optional[float]:
        if isinstance(update, ast.UpdateExpression):
            if (
                isinstance(update.operand, ast.Identifier)
                and update.operand.name == ivar
            ):
                return 1.0 if update.op == "++" else -1.0
            return None
        if isinstance(update, ast.AssignmentExpression) and isinstance(
            update.target, ast.Identifier
        ):
            if update.target.name != ivar:
                return None
            if update.op == "+=":
                rng = lat.number_range(self.eval_expr(update.value))
                if rng is not None and rng.exact_value is not None:
                    return rng.exact_value
                return None
            if update.op == "=" and isinstance(
                update.value, ast.BinaryExpression
            ):
                value = update.value
                if value.op != "+":
                    return None
                for side, other in (
                    (value.left, value.right),
                    (value.right, value.left),
                ):
                    if isinstance(side, ast.Identifier) and side.name == ivar:
                        rng = lat.number_range(self.eval_expr(other))
                        if rng is not None and rng.exact_value is not None:
                            return rng.exact_value
                return None
        return None

    def _doubling_terminates(
        self, node: ast.WhileStatement, entry_env: Dict[str, lat.AbsValue]
    ) -> bool:
        """Provable termination for the canonical doubling idiom
        ``while (s.length < B) s += s`` with ``s`` non-empty at entry."""
        test = node.test
        if not (
            isinstance(test, ast.BinaryExpression)
            and test.op in ("<", "<=")
            and isinstance(test.left, ast.MemberExpression)
            and not test.left.computed
            and isinstance(test.left.prop, ast.Identifier)
            and test.left.prop.name == "length"
            and isinstance(test.left.obj, ast.Identifier)
        ):
            return False
        grown = test.left.obj.name
        bound = lat.number_range(self.eval_expr(test.right))
        if bound is None or bound.hi is None:
            return False
        if _contains_abrupt(node.body) or _written_names(node.body) != {grown}:
            return False
        if not _self_appends(node.body, grown):
            return False
        entry_len = lat.length_of(entry_env.get(grown, lat.TOP))
        return entry_len.lo is not None and entry_len.lo >= 1

    def _refine_exit(self, test: ast.Node) -> None:
        """At normal loop exit the test is false; refine lower bounds
        from ``¬(x < B)`` ⇒ ``x ≥ B``."""
        if not (
            isinstance(test, ast.BinaryExpression) and test.op in ("<", "<=")
        ):
            return
        bound = lat.number_range(self.eval_expr(test.right))
        if bound is None or bound.lo is None:
            return
        floor = bound.lo
        left = test.left
        # s.length < B  ⇒  s.length ≥ B afterwards.
        if (
            isinstance(left, ast.MemberExpression)
            and not left.computed
            and isinstance(left.prop, ast.Identifier)
            and left.prop.name == "length"
            and isinstance(left.obj, ast.Identifier)
        ):
            name = left.obj.name
            shape = lat.as_str_shape(self.env.get(name, lat.TOP))
            if shape is None:
                return
            length = shape.length.clamp_lo(floor)
            sled = shape.sled_chars
            if shape.kind == lat.SHAPE_REPEATED and shape.unit is not None:
                if lat.is_sled_unit(shape.unit):
                    sled = length  # a pure repeated sled is all sled
            self.env[name] = lat.AbsStr(
                shape.kind, length, unit=shape.unit, sled_chars=sled
            )
            return
        # i < N  ⇒  i ≥ N afterwards.
        if isinstance(left, ast.Identifier):
            current = lat.number_range(self.env.get(left.name, lat.TOP))
            if current is not None:
                self.env[left.name] = lat.AbsNum(current.clamp_lo(floor))

    # -- expressions -----------------------------------------------------

    def eval_expr(self, node: ast.Node) -> lat.AbsValue:
        self.engine.budget.tick()
        if isinstance(node, ast.NumberLiteral):
            return lat.AbsConst(float(node.value))
        if isinstance(node, ast.StringLiteral):
            return lat.AbsConst(node.value)
        if isinstance(node, ast.BooleanLiteral):
            return lat.AbsConst(node.value)
        if isinstance(node, ast.NullLiteral):
            return lat.AbsConst(None)
        if isinstance(node, ast.UndefinedLiteral):
            return lat.AbsConst(consts.UNDEFINED)
        if isinstance(node, ast.ThisExpression):
            return lat.TOP
        if isinstance(node, ast.Identifier):
            return self.lookup(node.name)
        if isinstance(node, ast.ArrayLiteral):
            for element in node.elements:
                self.eval_expr(element)
            return lat.LOCAL_OBJ
        if isinstance(node, ast.ObjectLiteral):
            for _key, value in node.entries:
                self.eval_expr(value)
            return lat.LOCAL_OBJ
        if isinstance(node, ast.FunctionExpression):
            return lat.AbsFunc(node.name or "")
        if isinstance(node, ast.UnaryExpression):
            return self._eval_unary(node)
        if isinstance(node, ast.UpdateExpression):
            return self._eval_update(node)
        if isinstance(node, ast.BinaryExpression):
            return self._eval_binary(node)
        if isinstance(node, ast.LogicalExpression):
            return self._eval_logical(node)
        if isinstance(node, ast.ConditionalExpression):
            return self._eval_conditional(node)
        if isinstance(node, ast.AssignmentExpression):
            return self._eval_assignment(node)
        if isinstance(node, ast.SequenceExpression):
            value: lat.AbsValue = lat.AbsConst(consts.UNDEFINED)
            for expression in node.expressions:
                value = self.eval_expr(expression)
            return value
        if isinstance(node, (ast.CallExpression, ast.NewExpression)):
            return self._eval_call(node)
        if isinstance(node, ast.MemberExpression):
            return self._eval_member(node)
        return lat.TOP

    def _eval_unary(self, node: ast.UnaryExpression) -> lat.AbsValue:
        operand = self.eval_expr(node.operand)
        if isinstance(operand, lat.AbsConst):
            value = consts.unary(node.op, operand.value)
            if value is not consts.OPAQUE:
                return lat.AbsConst(value)
        if node.op in ("-", "+"):
            rng = lat.number_range(operand)
            if rng is None:
                return lat.TOP
            if node.op == "+":
                return lat.AbsNum(rng)
            lo = None if rng.hi is None else -rng.hi
            hi = None if rng.lo is None else -rng.lo
            return lat.AbsNum(lat.Interval(lo, hi))
        if node.op == "!":
            taken = _truthiness(operand)
            return lat.AbsConst(not taken) if taken is not None else lat.TOP
        if node.op == "void":
            return lat.AbsConst(consts.UNDEFINED)
        if node.op == "typeof":
            return lat.AbsStr(lat.SHAPE_TEXT, lat.Interval(0.0, 16.0))
        return lat.TOP

    def _eval_update(self, node: ast.UpdateExpression) -> lat.AbsValue:
        operand = self.eval_expr(node.operand)
        rng = lat.number_range(operand)
        delta = 1.0 if node.op == "++" else -1.0
        if rng is None:
            updated: lat.AbsValue = lat.TOP
        else:
            updated = lat.AbsNum(rng.add(lat.Interval.exact(delta)))
            exact = lat.number_range(updated)
            if exact is not None and exact.exact_value is not None:
                updated = lat.AbsConst(exact.exact_value)
        if isinstance(node.operand, ast.Identifier):
            self.assign(node.operand.name, updated)
        return updated if node.prefix else operand

    def _eval_binary(self, node: ast.BinaryExpression) -> lat.AbsValue:
        left = self.eval_expr(node.left)
        right = self.eval_expr(node.right)
        return self._binary_value(node.op, left, right)

    def _binary_value(
        self, op: str, left: lat.AbsValue, right: lat.AbsValue
    ) -> lat.AbsValue:
        if isinstance(left, lat.AbsConst) and isinstance(right, lat.AbsConst):
            value = consts.binary(op, left.value, right.value)
            if value is not consts.OPAQUE:
                return lat.AbsConst(value)
            if op != "+":
                return lat.TOP
            # A concatenation past the cap generalises to a shape.
            return lat.concat(
                lat.classify_string(consts.to_string(left.value)),
                lat.classify_string(consts.to_string(right.value)),
            )
        if op == "+":
            return self._abstract_add(left, right)
        lrng = lat.number_range(left)
        rrng = lat.number_range(right)
        if op in ("-", "*", "/", "%"):
            if lrng is not None and rrng is not None:
                if op == "-":
                    neg = lat.Interval(
                        None if rrng.hi is None else -rrng.hi,
                        None if rrng.lo is None else -rrng.lo,
                    )
                    return lat.AbsNum(lrng.add(neg))
                if op == "*":
                    return lat.AbsNum(lrng.mul_nonneg(rrng))
            return lat.TOP
        if op in ("<", "<=", ">", ">="):
            if lrng is not None and rrng is not None:
                flipped = op in (">", ">=")
                a, b = (rrng, lrng) if flipped else (lrng, rrng)
                strict = op in ("<", ">")
                # a < b (or a <= b): decide when the intervals separate.
                if a.hi is not None and b.lo is not None:
                    if a.hi < b.lo or (not strict and a.hi <= b.lo):
                        return lat.AbsConst(True)
                if a.lo is not None and b.hi is not None:
                    if a.lo > b.hi or (strict and a.lo >= b.hi):
                        return lat.AbsConst(False)
        return lat.TOP

    def _abstract_add(
        self, left: lat.AbsValue, right: lat.AbsValue
    ) -> lat.AbsValue:
        """``left + right`` where at least one side is not a constant."""
        # Numeric addition when both sides are numeric.
        lrng, rrng = lat.number_range(left), lat.number_range(right)
        if lrng is not None and rrng is not None:
            return lat.AbsNum(lrng.add(rrng))
        # String-ish concatenation otherwise.
        if (
            lat.as_str_shape(left) is not None
            or lat.as_str_shape(right) is not None
        ):
            return lat.concat(left, right)
        return lat.TOP

    def _eval_logical(self, node: ast.LogicalExpression) -> lat.AbsValue:
        left = self.eval_expr(node.left)
        taken = _truthiness(left)
        if node.op == "&&":
            if taken is False:
                return left
            if taken is True:
                return self.eval_expr(node.right)
        else:
            if taken is True:
                return left
            if taken is False:
                return self.eval_expr(node.right)
        saved_must, self.must = self.must, False
        entry = dict(self.env)
        right = self.eval_expr(node.right)
        self.env = _join_env(entry, self.env)
        self.must = saved_must
        return lat.join_value(left, right)

    def _eval_conditional(
        self, node: ast.ConditionalExpression
    ) -> lat.AbsValue:
        test = self.eval_expr(node.test)
        taken = _truthiness(test)
        if taken is True:
            return self.eval_expr(node.consequent)
        if taken is False:
            return self.eval_expr(node.alternate)
        saved_must, self.must = self.must, False
        entry = dict(self.env)
        then_value = self.eval_expr(node.consequent)
        then_env = self.env
        self.env = dict(entry)
        else_value = self.eval_expr(node.alternate)
        self.env = _join_env(then_env, self.env)
        self.must = saved_must
        return lat.join_value(then_value, else_value)

    def _eval_assignment(self, node: ast.AssignmentExpression) -> lat.AbsValue:
        value = self.eval_expr(node.value)
        target = node.target
        if isinstance(target, ast.Identifier):
            if node.op != "=":
                old = self.lookup(target.name)
                value = self._binary_value(node.op[:-1], old, value)
            self.assign(target.name, value)
            self._note_sled_assign(target.name, value)
            return value
        if isinstance(target, ast.MemberExpression):
            obj = self.eval_expr(target.obj)
            if target.computed:
                self.eval_expr(target.prop)
            if (
                node.op == "="
                and target.computed
                and obj is lat.LOCAL_OBJ
                and isinstance(target.obj, ast.Identifier)
            ):
                self._record_fill(target.obj.name, value)
            return value
        return value

    def _note_sled_assign(self, name: str, value: lat.AbsValue) -> None:
        # End-of-layer env scanning catches surviving sleds; nothing to
        # do eagerly, but keep the hook for symmetry/debugging.
        return None

    def _record_fill(self, array: str, value: lat.AbsValue) -> None:
        """A ``m[e] = value`` store on a local array inside a loop."""
        if not self.record or not self.trips:
            return
        shape = lat.as_str_shape(value)
        if shape is None:
            return
        sled_lo = shape.sled_chars.lo or 0.0
        if isinstance(value, lat.AbsConst) and isinstance(value.value, str):
            sled_lo = lat.sled_prefix_of(value).lo or 0.0
        if sled_lo < SPRAY_LENGTH_THRESHOLD:
            return
        elem_lo = shape.length.lo or 0.0
        trip_lo = 1
        for trip in self.trips:
            trip_lo *= max(0, trip)
        bytes_lo = int(2 * elem_lo * trip_lo)
        self.engine.result.fills.append(
            SprayFill(
                array=array,
                layer=self.depth,
                unit=lat.sled_unit_of(value) or "",
                elem_len_lo=int(elem_lo),
                sled_lo=int(sled_lo),
                trip_lo=trip_lo,
                bytes_lo=bytes_lo,
                must=self.must_now,
            )
        )

    def _eval_member(self, node: ast.MemberExpression) -> lat.AbsValue:
        obj = self.eval_expr(node.obj)
        name = self._prop_name(node)
        if name == "length":
            shape = lat.as_str_shape(obj)
            if shape is not None:
                return lat.AbsNum(lat.length_of(obj))
            return lat.AbsNum(lat.NONNEG) if obj is lat.LOCAL_OBJ else lat.TOP
        if node.computed:
            index = self.eval_expr(node.prop)
            if (
                isinstance(obj, lat.AbsConst)
                and isinstance(obj.value, str)
                and isinstance(index, lat.AbsConst)
            ):
                value = consts.string_property(obj.value, index.value)
                if value is not consts.OPAQUE:
                    return lat.AbsConst(value)
        return lat.TOP

    # -- calls -----------------------------------------------------------

    def _eval_call(self, node: ast.Node) -> lat.AbsValue:
        """CallExpression / NewExpression dispatch."""
        callee = node.callee  # type: ignore[attr-defined]
        arguments: List[ast.Node] = node.arguments  # type: ignore[attr-defined]
        if isinstance(callee, ast.Identifier):
            return self._call_named(node, callee.name, arguments)
        if isinstance(callee, ast.MemberExpression):
            return self._call_member(node, callee, arguments)
        # Computed/unknown callee: could alias eval — havoc everything.
        for argument in arguments:
            self.eval_expr(argument)
        self.havoc_all()
        self.aborted = True
        return lat.TOP

    def _call_named(
        self, node: ast.Node, name: str, arguments: List[ast.Node]
    ) -> lat.AbsValue:
        bound = self.env.get(name)
        if isinstance(bound, lat.AbsFunc) or (
            bound is None and name in self.declared_funcs
        ):
            return self._call_user_function(arguments)
        if name not in self.declared:
            if name == "eval":
                args = [self.eval_expr(a) for a in arguments]
                if not args:
                    return lat.AbsConst(consts.UNDEFINED)
                return self._eval_site(node, args[-1], "eval")
            if name == "Function":
                args = [self.eval_expr(a) for a in arguments]
                if args:
                    # Constructing compiles but does not run the body;
                    # analyse it as a non-must layer.
                    self._eval_site(node, args[-1], "Function", ran=False)
                return lat.AbsFunc("Function")
            if name in PURE_CALLEES:
                return self._call_pure(name, arguments)
        # Unknown or shadowed global — may alias eval, may rebind
        # anything through the global object, may be undefined
        # (ReferenceError).
        for argument in arguments:
            self.eval_expr(argument)
        self.havoc_all()
        self.aborted = True
        return lat.TOP

    def _call_user_function(self, arguments: List[ast.Node]) -> lat.AbsValue:
        for argument in arguments:
            self.eval_expr(argument)
        if self.func_has_eval:
            self.havoc_all()
        else:
            self.havoc(set(self.func_written))
        if self.func_has_throw:
            self.aborted = True
        return lat.TOP

    def _call_pure(
        self, name: str, arguments: List[ast.Node]
    ) -> lat.AbsValue:
        args = [self.eval_expr(a) for a in arguments]
        values = _const_values(args)
        if values is not None:
            value = consts.call_global(name, values)
            if value is not consts.OPAQUE:
                return lat.AbsConst(value)
        if name in ("unescape", "escape"):
            return lat.AbsStr(lat.SHAPE_TEXT, lat.NONNEG)
        if name in ("parseInt", "parseFloat", "Number"):
            return lat.AbsNum(lat.Interval.top())
        first = args[0] if args else lat.AbsConst(consts.UNDEFINED)
        if name == "String":
            shape = lat.as_str_shape(first)
            return shape if shape is not None else lat.AbsStr(
                lat.SHAPE_TEXT, lat.NONNEG
            )
        if name == "Boolean":
            taken = _truthiness(first)
            return lat.AbsConst(taken) if taken is not None else lat.TOP
        if name in ("Array", "Object"):
            return lat.LOCAL_OBJ
        return lat.TOP

    def _call_member(
        self,
        node: ast.Node,
        callee: ast.MemberExpression,
        arguments: List[ast.Node],
    ) -> lat.AbsValue:
        method = self._prop_name(callee)
        receiver = self.eval_expr(callee.obj)
        args = [self.eval_expr(a) for a in arguments]

        # String.fromCharCode(...)
        if (
            method == "fromCharCode"
            and isinstance(callee.obj, ast.Identifier)
            and callee.obj.name == "String"
            and "String" not in self.declared
        ):
            return _from_char_code(args)

        # Methods on known-local values (strings, arrays, consts).
        if lat.as_str_shape(receiver) is not None and method is not None:
            return self._string_method(receiver, method, args)
        if receiver is lat.LOCAL_OBJ:
            # Local array/object methods (push, join, sort, ...) touch
            # no host API, but a method *could* be a stored function
            # expression — account for its body's effects.
            if self.func_has_eval:
                self.havoc_all()
            else:
                self.havoc(set(self.func_written))
            if self.func_has_throw:
                self.aborted = True
            # LOCAL_OBJ conflates arrays and object literals: the
            # method may not exist on this receiver → TypeError.  The
            # abort latch only weakens later must-facts; it never
            # blocks a benign proof.
            self.aborted = True
            if method == "join":
                return lat.AbsStr(lat.SHAPE_TEXT, lat.NONNEG)
            return lat.TOP

        path = self._abs_member_path(callee)
        if path is not None:
            last = path.rsplit(".", 1)[-1]
            if last in _EVAL_METHODS or (
                last in _WRITE_METHODS and "document" in path.split(".")
            ):
                if args:
                    return self._eval_site(node, args[-1], path)
                return lat.AbsConst(consts.UNDEFINED)
            if last == "exportDataObject":
                self._record_export(node, path, arguments)
            # Resolved host API call: returns an unknown value, rebinds
            # nothing (runtime model) — channels are the walker's job.
            return lat.TOP
        # Unresolved member callee on an unknown receiver: could alias
        # eval through the global object.
        self.havoc_all()
        return lat.TOP

    def _string_method(
        self,
        receiver: lat.AbsValue,
        method: str,
        args: List[lat.AbsValue],
    ) -> lat.AbsValue:
        values = _const_values(args)
        if (
            values is not None
            and isinstance(receiver, lat.AbsConst)
            and isinstance(receiver.value, str)
        ):
            value = consts.string_method(receiver.value, method, values)
            if value is not consts.OPAQUE:
                return lat.AbsConst(value)
        # Abstract prefix slicing: substring/substr/slice from 0.
        if method in ("substring", "substr", "slice"):
            start = lat.number_range(args[0]) if args else lat.ZERO
            if start is not None and start.exact_value == 0.0:
                if len(args) > 1:
                    count = lat.number_range(args[1])
                    if count is not None and count.lo is not None:
                        return lat.prefix_slice(receiver, count)
                else:
                    shape = lat.as_str_shape(receiver)
                    if shape is not None:
                        return shape
            shape = lat.as_str_shape(receiver)
            length = shape.length if shape is not None else lat.NONNEG
            return lat.AbsStr(
                lat.SHAPE_TEXT, lat.Interval(0.0, length.hi)
            )
        if method in ("charAt", "charCodeAt"):
            return lat.TOP
        if method == "concat":
            joined: lat.AbsValue = receiver
            for arg in args:
                joined = self._binary_value("+", joined, arg)
            return joined
        if method in ("toLowerCase", "toUpperCase", "replace", "split"):
            return lat.AbsStr(lat.SHAPE_TEXT, lat.NONNEG)
        if method in ("indexOf", "lastIndexOf", "search"):
            return lat.AbsNum(lat.Interval(-1.0, None))
        # Unknown string method: may not exist → TypeError at runtime.
        self.aborted = True
        return lat.TOP

    def _prop_name(self, member: ast.MemberExpression) -> Optional[str]:
        if not member.computed and isinstance(member.prop, ast.Identifier):
            return member.prop.name
        if member.computed:
            value = self.eval_expr(member.prop)
            if isinstance(value, lat.AbsConst) and isinstance(
                value.value, str
            ):
                return value.value
        return None

    def _abs_member_path(
        self, member: ast.MemberExpression
    ) -> Optional[str]:
        """Dotted path of a member chain whose root is a host object
        (``this`` or an undeclared global); ``None`` otherwise."""
        parts: List[str] = []
        current: ast.Node = member
        while isinstance(current, ast.MemberExpression):
            name = self._prop_name(current)
            if name is None:
                return None
            parts.append(name)
            current = current.obj
        if isinstance(current, ast.Identifier):
            if current.name in self.declared or current.name in self.env:
                return None
            parts.append(current.name)
        elif not isinstance(current, ast.ThisExpression):
            return None
        parts.reverse()
        return ".".join(parts)

    def _record_export(
        self, node: ast.Node, path: str, arguments: List[ast.Node]
    ) -> None:
        if not self.record or id(node) in self.handled_exports:
            return
        self.handled_exports.add(id(node))
        launch: Optional[float] = None
        name: Optional[str] = None
        if arguments and isinstance(arguments[0], ast.ObjectLiteral):
            for key, value_node in arguments[0].entries:
                value = self.eval_expr(value_node)
                if isinstance(value, lat.AbsConst):
                    if key == "nLaunch" and isinstance(value.value, float):
                        launch = value.value
                    elif key == "cName" and isinstance(value.value, str):
                        name = value.value
        self.engine.result.exports.append(
            ExportFact(
                path=path,
                layer=self.depth,
                launch=launch,
                name=name,
                must=self.must_now,
            )
        )

    # -- eval peeling ----------------------------------------------------

    def _eval_site(
        self,
        node: ast.Node,
        arg: lat.AbsValue,
        label: str,
        ran: bool = True,
    ) -> lat.AbsValue:
        """An eval-family call with abstract argument ``arg``."""
        # eval of a non-string value returns it unchanged.
        if isinstance(arg, lat.AbsConst) and not isinstance(arg.value, str):
            return arg
        if not self.record:
            # Mid-fixpoint: defer peeling to the recording pass, stay
            # sound by assuming the layer may write anything.
            self.havoc_all()
            return lat.TOP
        if isinstance(arg, lat.AbsConst) and isinstance(arg.value, str):
            self.handled_evals.add(id(node))
            written, may_abort = self.engine.analyze_layer(
                arg.value,
                self.depth + 1,
                self.must_now and ran,
                f"{self.label}::{label}@{self.depth + 1}",
            )
            if not ran:
                return lat.TOP
            if written is None:
                self.havoc_all()
            else:
                self.havoc(written)
            if may_abort:
                self.aborted = True
            return lat.TOP
        # Runtime-computed code: the one thing the abstraction cannot
        # peel.  Havoc everything; the walker records the channel.
        self.havoc_all()
        return lat.TOP


def _const_values(args: List[lat.AbsValue]) -> Optional[List[consts.Const]]:
    """The constants ``args`` hold, or ``None`` unless all are constant."""
    values: List[consts.Const] = []
    for arg in args:
        if not isinstance(arg, lat.AbsConst):
            return None
        values.append(arg.value)
    return values


def _from_char_code(args: List[lat.AbsValue]) -> lat.AbsValue:
    """``String.fromCharCode``: a constant when every code is exact (a
    constant, or a number interval of one value)."""
    codes: List[consts.Const] = []
    for arg in args:
        if isinstance(arg, lat.AbsConst):
            codes.append(arg.value)
            continue
        rng = lat.number_range(arg)
        if rng is None or rng.exact_value is None:
            return lat.AbsStr(
                lat.SHAPE_TEXT, lat.Interval.exact(float(len(args)))
            )
        codes.append(rng.exact_value)
    value = consts.from_char_code(codes)
    if value is consts.OPAQUE:
        return lat.AbsStr(lat.SHAPE_TEXT, lat.Interval.exact(float(len(args))))
    return lat.AbsConst(value)


# ---------------------------------------------------------------------------
# Channel walker: every call site the interpreter did not prove harmless
# becomes a *channel* — a way the abstraction could be escaped.  The
# proven-benign verdict requires zero channels, so this walk must be
# exhaustive over the whole layer including code the interpreter never
# reached (function bodies, dead branches, catch blocks).


class _ChannelWalker:
    def __init__(
        self,
        engine: _Engine,
        interp: _Interp,
        program: ast.Program,
        depth: int,
        label: str,
        ctx: Optional[RuleContext],
    ) -> None:
        self.engine = engine
        self.interp = interp
        self.program = program
        self.depth = depth
        self.label = label
        self.ctx = ctx

    def run(self) -> None:
        mask = set(self.interp.declared)
        local_funcs = set(self.interp.declared_funcs)
        for node in self.program.body:
            self._visit(node, mask, local_funcs)

    def _visit(
        self, node: ast.Node, mask: Set[str], local_funcs: Set[str]
    ) -> None:
        self.engine.budget.tick()
        if _is_function(node):
            body = node.body  # type: ignore[attr-defined]
            params = node.params  # type: ignore[attr-defined]
            var_names, func_names = _scope_declared(body)
            inner_mask = mask | set(params) | var_names | func_names
            name = getattr(node, "name", None)
            if isinstance(node, ast.FunctionExpression) and name:
                inner_mask.add(name)
            inner_funcs = local_funcs | func_names
            self._visit(body, inner_mask, inner_funcs)
            return
        if isinstance(node, (ast.CallExpression, ast.NewExpression)):
            self._classify_call(node, mask, local_funcs)
        for child in ast.child_nodes(node):
            self._visit(child, mask, local_funcs)

    # -- classification --------------------------------------------------

    def _classify_call(
        self, node: ast.Node, mask: Set[str], local_funcs: Set[str]
    ) -> None:
        if id(node) in self.interp.handled_evals:
            return
        callee = node.callee  # type: ignore[attr-defined]
        arguments: List[ast.Node] = node.arguments  # type: ignore[attr-defined]
        if isinstance(callee, ast.Identifier):
            name = callee.name
            if name in local_funcs:
                return
            if name in mask:
                # Calling a local variable: harmless only if it provably
                # holds a layer-local function.
                bound = self.interp.env.get(name)
                if isinstance(bound, lat.AbsFunc):
                    return
                self.engine.channel(
                    CHANNEL_OPAQUE_CALL, name, self.depth
                )
                return
            if name in ("eval", "Function"):
                self._peel_or_channel(node, arguments, name)
                return
            if name in PURE_CALLEES:
                return
            if name in SIDE_EFFECT_COMPONENTS:
                self.engine.channel(CHANNEL_SIDE_EFFECT, name, self.depth)
                return
            self.engine.channel(CHANNEL_OPAQUE_CALL, name, self.depth)
            return
        if isinstance(callee, ast.MemberExpression):
            self._classify_member_call(node, callee, arguments, mask)
            return
        # Computed callee expression — opaque by construction.
        self.engine.channel(CHANNEL_OPAQUE_CALL, "<computed>", self.depth)

    def _classify_member_call(
        self,
        node: ast.Node,
        callee: ast.MemberExpression,
        arguments: List[ast.Node],
        mask: Set[str],
    ) -> None:
        method = self._method_name(callee)
        root = callee.obj
        while isinstance(root, ast.MemberExpression):
            root = root.obj
        root_local = isinstance(root, ast.Identifier) and root.name in mask

        if method is None:
            self.engine.channel(
                CHANNEL_OPAQUE_CALL, "<computed-member>", self.depth
            )
            return

        if root_local:
            assert isinstance(root, ast.Identifier)
            bound = self.interp.env.get(root.name)
            if bound is not None and not isinstance(bound, lat.AbsFunc):
                # Known layer-local value (string/number/array/object):
                # its methods cannot reach a host API.
                return
            if (
                root.name in self.interp.declared
                and root.name not in self.interp.tainted
            ):
                # Declared and only ever assigned provably-local values
                # (a join may have dropped it from the env, but it can
                # never alias a host object).
                return
            self.engine.channel(
                CHANNEL_OPAQUE_CALL, f"{root.name}.{method}", self.depth
            )
            return

        if self.ctx is not None:
            path = member_path(callee, self.ctx.folder) or method
        else:
            path = method

        if method in _EVAL_METHODS or (
            method in _WRITE_METHODS and "document" in path.split(".")
        ):
            self._peel_or_channel(node, arguments, path)
            return
        if method == "fromCharCode" and path.startswith("String."):
            return
        if path in HARMLESS_HOST_APIS:
            return
        if any(
            _suffix_matches(path, suffix) for suffix in EXPLOIT_CALL_SUFFIXES
        ):
            self.engine.channel(CHANNEL_EXPLOIT, path, self.depth)
            return
        if method in SIDE_EFFECT_COMPONENTS or any(
            path.startswith(prefix) for prefix in SIDE_EFFECT_PREFIXES
        ):
            self.engine.channel(CHANNEL_SIDE_EFFECT, path, self.depth)
            if method == "exportDataObject":
                self.interp._record_export(node, path, arguments)
            return
        # Any other host-object call is an opaque channel: we cannot
        # prove it stays off the scored API surface.
        self.engine.channel(CHANNEL_OPAQUE_CALL, path, self.depth)

    def _peel_or_channel(
        self, node: ast.Node, arguments: List[ast.Node], path: str
    ) -> None:
        """An eval-family call the interpreter never executed: peel it
        if the argument folds to a constant, else record the channel."""
        code: Optional[str] = None
        if arguments:
            last = arguments[-1]
            if isinstance(last, ast.StringLiteral):
                code = last.value
            elif self.ctx is not None:
                code = self.ctx.const_str(last)
        if code is None:
            self.engine.channel(CHANNEL_OPAQUE_EVAL, path, self.depth)
            return
        self.interp.handled_evals.add(id(node))
        self.engine.analyze_layer(
            code,
            self.depth + 1,
            False,
            f"{self.label}::{path}@{self.depth + 1}",
        )

    def _method_name(self, member: ast.MemberExpression) -> Optional[str]:
        if not member.computed and isinstance(member.prop, ast.Identifier):
            return member.prop.name
        if member.computed:
            if isinstance(member.prop, ast.StringLiteral):
                return member.prop.value
            if self.ctx is not None:
                return self.ctx.const_str(member.prop)
        return None


def _suffix_matches(path: str, suffix: str) -> bool:
    if "." in suffix:
        return path == suffix or path.endswith("." + suffix)
    return path.rsplit(".", 1)[-1] == suffix


# ---------------------------------------------------------------------------
# Entry point


def interpret_script(
    code: str,
    *,
    max_steps: int = DEFAULT_MAX_STEPS,
    label: str = "script",
    scans: Optional[LayerScans] = None,
) -> AbsintResult:
    """Abstractly interpret ``code`` and every constant layer it stages.

    Every layer is read through ``scans``
    (:func:`repro.jsast.analyzer.scan_layer`); ``analyze_script`` passes
    its own, so a layer it already scanned is not scanned again.

    Raises :class:`AbsintBudgetExceeded` only internally — budget
    exhaustion is reported via ``status == "budget-exhausted"``.  Other
    exceptions propagate; :func:`repro.jsast.rules_absint.run_absint`
    wraps this with a never-raises guarantee.
    """
    budget = _Budget(max_steps)
    engine = _Engine(budget, {} if scans is None else scans)
    try:
        engine.analyze_layer(code, 0, True, label)
    except AbsintBudgetExceeded:
        engine.result.status = "budget-exhausted"
    engine.result.steps = budget.steps
    return engine.result
