"""Lint-rule registry for static JS analysis.

Each rule is a function ``(RuleContext) -> Iterable[Finding]`` wrapped
by the :func:`rule` decorator.  Rules operate on the *raw* AST with a
constant folder on tap (``ctx.const_of``), plus the folded program's
constant-string pool (``ctx.const_strings``) — so a rule sees both the
``unescape("%u9090…")`` call shape and the strings an obfuscator built
out of fragments.

The registry hash feeds :func:`ruleset_version`, which the batch
verdict-cache fingerprint incorporates: editing or adding a rule
invalidates every cached verdict produced under the old rule-set.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.js import nodes as ast
from repro.jsast.fold import ConstantFolder
from repro.jsast.report import Finding, Severity
from repro.jsast.walk import walk

#: Bump on semantic changes that do not alter the rule-id list.
_RULESET_EPOCH = 1

#: Doubling loops below this bound are normal string building; the
#: corpus's benign report scripts double up to 3 072 chars, sprays to
#: 0x20000 (131 072).
SPRAY_LENGTH_THRESHOLD = 0x4000

#: Known-exploited Acrobat JavaScript APIs (matched on dotted suffix).
EXPLOIT_CALL_SUFFIXES: Tuple[str, ...] = (
    "Collab.getIcon",
    "Collab.collectEmailInfo",
    "media.newPlayer",
    "printSeps",
)

#: Rarely-used API surfaces whose mere *access* is version probing
#: (targeted samples feel out the reader before exploiting).
PROBE_COMPONENTS: Tuple[str, ...] = ("hostContainer", "xfaHost")

#: Methods that install or schedule scripts at runtime (Table IV).
STAGING_METHODS: Tuple[str, ...] = (
    "addScript",
    "setAction",
    "setPageAction",
    "setTimeOut",
    "setInterval",
)

#: APIs whose invocation has side effects the runtime detector scores
#: (network, file drops, script staging).  A script touching any of
#: these is triage-ineligible even with zero suspicious findings: its
#: runtime verdict cannot be synthesised statically.
SIDE_EFFECT_COMPONENTS: Tuple[str, ...] = STAGING_METHODS + (
    "exportDataObject",
    "importDataObject",
    "launchURL",
    "getURL",
    "submitForm",
    "saveAs",
    "mailMsg",
    "mailDoc",
)
SIDE_EFFECT_PREFIXES: Tuple[str, ...] = ("SOAP.", "Net.")

_EXECUTABLE_SUFFIXES = (".exe", ".dll", ".scr", ".bat", ".cmd", ".pif")

_PCT_U_RE = re.compile(r"%u[0-9a-fA-F]{4}")
_PRINTF_WIDTH_RE = re.compile(r"%-?\d{4,}")
_SOURCE_ESCAPE_RE = re.compile(r"\\x[0-9a-fA-F]{2}|\\u[0-9a-fA-F]{4}")

_HEX_CHARS = set("0123456789abcdefABCDEF")


def shannon_entropy(text: str) -> float:
    """Bits per character; 0.0 for empty strings."""
    if not text:
        return 0.0
    counts: Dict[str, int] = {}
    for char in text:
        counts[char] = counts.get(char, 0) + 1
    total = len(text)
    return -sum(
        (count / total) * math.log2(count / total) for count in counts.values()
    )


@dataclass(frozen=True)
class CallInfo:
    """One call/new site with its resolved dotted path (``this.``
    stripped)."""

    path: Optional[str]
    #: CallExpression or NewExpression — both carry callee/arguments.
    node: ast.Node

    def suffix_matches(self, target: str) -> bool:
        if self.path is None:
            return False
        return self.path == target or self.path.endswith("." + target)

    @property
    def last(self) -> Optional[str]:
        if self.path is None:
            return None
        return self.path.rsplit(".", 1)[-1]


@dataclass
class RuleContext:
    """Everything a rule may inspect, precomputed once per script."""

    source: str
    program: ast.Program
    folded: ast.Program
    folder: ConstantFolder
    calls: List[CallInfo] = field(default_factory=list)
    member_paths: Set[str] = field(default_factory=set)
    loops: List[ast.Node] = field(default_factory=list)
    #: Constant strings visible after folding (literals + folded concat
    #: chains / fromCharCode runs / unescape results).
    const_strings: List[str] = field(default_factory=list)
    #: (label, source) pairs queued for one more analysis layer
    #: (constant eval arguments).
    nested: List[Tuple[str, str]] = field(default_factory=list)

    # -- helpers ---------------------------------------------------------

    def const_of(self, node: ast.Node):
        """Fold a raw-AST node; returns the constant (``UNDEFINED`` for
        ``undefined``) or ``None``."""
        wrapped = self.folder.fold_expr(node)
        return wrapped.value if wrapped is not None else None

    def const_str(self, node: ast.Node) -> Optional[str]:
        value = self.const_of(node)
        return value if isinstance(value, str) else None

    def object_entries(self, node: ast.Node) -> Dict[str, object]:
        """Folded ``{key: const}`` view of an object literal argument."""
        if not isinstance(node, ast.ObjectLiteral):
            return {}
        out: Dict[str, object] = {}
        for key, value in node.entries:
            folded = self.const_of(value)
            if folded is not None:
                out[key] = folded
        return out


def member_path(node: ast.Node, folder: ConstantFolder) -> Optional[str]:
    """Dotted path of a member chain, ``this.`` stripped.

    Computed accesses resolve through the folder, so
    ``this["exportData" + "Object"]`` still yields ``exportDataObject``.
    """
    parts: List[str] = []
    current = node
    while isinstance(current, ast.MemberExpression):
        if current.computed:
            wrapped = folder.fold_expr(current.prop)
            if wrapped is None or not isinstance(wrapped.value, str):
                return None
            parts.append(wrapped.value)
        elif isinstance(current.prop, ast.Identifier):
            parts.append(current.prop.name)
        else:
            return None
        current = current.obj
    if isinstance(current, ast.Identifier):
        parts.append(current.name)
    elif not isinstance(current, ast.ThisExpression):
        return None
    parts.reverse()
    return ".".join(parts) if parts else None


def build_context(source: str, program: ast.Program) -> RuleContext:
    """Precompute the shared per-script analysis context."""
    folder = ConstantFolder(program)
    folded = folder.run()
    ctx = RuleContext(
        source=source, program=program, folded=folded, folder=folder
    )
    for node in walk(program):
        if isinstance(node, (ast.CallExpression, ast.NewExpression)):
            path = None
            if isinstance(node.callee, ast.Identifier):
                path = node.callee.name
            elif isinstance(node.callee, ast.MemberExpression):
                path = member_path(node.callee, folder)
            ctx.calls.append(CallInfo(path=path, node=node))
        elif isinstance(node, ast.MemberExpression):
            path = member_path(node, folder)
            if path is not None:
                ctx.member_paths.add(path)
        elif isinstance(
            node, (ast.WhileStatement, ast.DoWhileStatement, ast.ForStatement)
        ):
            ctx.loops.append(node)
    for node in walk(folded):
        if isinstance(node, ast.StringLiteral):
            ctx.const_strings.append(node.value)
    return ctx


# -- registry ----------------------------------------------------------------

RuleFn = Callable[[RuleContext], Iterable[Finding]]

RULES: "Dict[str, RuleFn]" = {}


def rule(rule_id: str) -> Callable[[RuleFn], RuleFn]:
    """Register a rule under ``rule_id`` (unique, kebab-case)."""

    def decorator(fn: RuleFn) -> RuleFn:
        if rule_id in RULES:
            raise ValueError(f"duplicate rule id {rule_id!r}")
        RULES[rule_id] = fn
        return fn

    return decorator


def ruleset_version() -> str:
    """Stable identifier of the registered rule-set.

    Changes whenever a rule is added/removed/renamed or the epoch is
    bumped; the batch verdict cache embeds it in its settings
    fingerprint so stale verdicts are discarded when rules change.
    """
    digest = hashlib.sha256(",".join(sorted(RULES)).encode("utf-8")).hexdigest()
    return f"{_RULESET_EPOCH}.{digest[:10]}"


# -- the rules ---------------------------------------------------------------


@rule("unescape-sled")
def _unescape_sled(ctx: RuleContext) -> Iterable[Finding]:
    """``unescape`` of ``%uXXXX`` data is the canonical shellcode/NOP
    decoder; no benign generator emits it."""
    for call in ctx.calls:
        if call.path != "unescape" or not call.node.arguments:
            continue
        arg = ctx.const_str(call.node.arguments[0])
        if arg is None:
            yield Finding(
                rule="unescape-sled",
                severity=Severity.SUSPICIOUS,
                message="unescape() of a runtime-computed string",
                score=2.0,
            )
        elif _PCT_U_RE.search(arg):
            count = len(_PCT_U_RE.findall(arg))
            yield Finding(
                rule="unescape-sled",
                severity=Severity.STRONG,
                message=f"unescape() decodes {count} %uXXXX unit(s) "
                "(shellcode/NOP-sled idiom)",
                evidence=arg,
                score=3.0,
            )


@rule("heap-spray-loop")
def _heap_spray_loop(ctx: RuleContext) -> Iterable[Finding]:
    """A self-append doubling loop growing a string past
    :data:`SPRAY_LENGTH_THRESHOLD` characters."""
    for loop in ctx.loops:
        test = getattr(loop, "test", None)
        if not isinstance(test, ast.BinaryExpression) or test.op not in ("<", "<="):
            continue
        length = test.left
        if not (
            isinstance(length, ast.MemberExpression)
            and not length.computed
            and isinstance(length.prop, ast.Identifier)
            and length.prop.name == "length"
            and isinstance(length.obj, ast.Identifier)
        ):
            continue
        bound = ctx.const_of(test.right)
        if not isinstance(bound, (int, float)) or bound < SPRAY_LENGTH_THRESHOLD:
            continue
        grown = length.obj.name
        body = getattr(loop, "body", None)
        if body is None or not _self_appends(body, grown):
            continue
        yield Finding(
            rule="heap-spray-loop",
            severity=Severity.STRONG,
            message=f"doubling loop grows '{grown}' to ≥ {int(bound)} chars "
            "(heap-spray block construction)",
            score=2.0,
        )


def _self_appends(body: ast.Node, name: str) -> bool:
    for node in walk(body):
        if not isinstance(node, ast.AssignmentExpression):
            continue
        target = node.target
        if not (isinstance(target, ast.Identifier) and target.name == name):
            continue
        if node.op == "+=":
            return True
        if node.op == "=" and isinstance(node.value, ast.BinaryExpression):
            value = node.value
            if value.op == "+" and any(
                isinstance(side, ast.Identifier) and side.name == name
                for side in (value.left, value.right)
            ):
                return True
    return False


@rule("spray-block-copy")
def _spray_block_copy(ctx: RuleContext) -> Iterable[Finding]:
    """Array-fill loops copying ``substr``/``substring`` blocks — the
    re-allocation idiom sprays use.  Advisory only (INFO): benign report
    builders share the shape at small scale."""
    for loop in ctx.loops:
        body = getattr(loop, "body", None)
        if body is None:
            continue
        for node in walk(body):
            if (
                isinstance(node, ast.AssignmentExpression)
                and node.op == "="
                and isinstance(node.target, ast.MemberExpression)
                and node.target.computed
                and isinstance(node.value, ast.CallExpression)
                and isinstance(node.value.callee, ast.MemberExpression)
                and isinstance(node.value.callee.prop, ast.Identifier)
                and node.value.callee.prop.name in ("substr", "substring", "slice")
            ):
                yield Finding(
                    rule="spray-block-copy",
                    severity=Severity.INFO,
                    message="loop fills an array with substring block copies",
                    score=0.5,
                )
                return


@rule("fromcharcode-density")
def _fromcharcode_density(ctx: RuleContext) -> Iterable[Finding]:
    calls = [c for c in ctx.calls if c.suffix_matches("String.fromCharCode")]
    if not calls:
        return
    total_args = sum(len(c.node.arguments) for c in calls)
    if len(calls) >= 8 or total_args >= 32:
        yield Finding(
            rule="fromcharcode-density",
            severity=Severity.SUSPICIOUS,
            message=f"{len(calls)} String.fromCharCode call(s) decoding "
            f"{total_args} character(s)",
            score=2.0,
        )


@rule("eval-computed-string")
def _eval_computed(ctx: RuleContext) -> Iterable[Finding]:
    """``eval``/``Function`` of anything but a constant literal.  A
    constant argument is queued for one more analysis layer instead."""
    for call in ctx.calls:
        is_eval = call.path == "eval" or call.suffix_matches("app.eval")
        is_function = isinstance(call.node.callee, ast.Identifier) and (
            call.node.callee.name == "Function"
        )
        if not (is_eval or is_function) or not call.node.arguments:
            continue
        label = "eval" if is_eval else "Function"
        code_arg = call.node.arguments[-1]
        constant = ctx.const_str(code_arg)
        if constant is None:
            yield Finding(
                rule="eval-computed-string",
                severity=Severity.STRONG,
                message=f"{label}() of a runtime-computed string",
                score=3.0,
            )
        else:
            ctx.nested.append((f"{label}-arg", constant))
            yield Finding(
                rule="eval-computed-string",
                severity=Severity.INFO,
                message=f"{label}() of a constant string "
                "(argument re-analysed)",
                evidence=constant,
                score=1.0,
            )


@rule("long-string-obfuscation")
def _long_string(ctx: RuleContext) -> Iterable[Finding]:
    """Post-fold constant strings that look like packed data: long
    high-entropy blobs, hex blobs, or embedded %uXXXX runs."""
    for text in ctx.const_strings:
        if len(text) >= 64:
            units = _PCT_U_RE.findall(text)
            if len(units) >= 8:
                yield Finding(
                    rule="long-string-obfuscation",
                    severity=Severity.STRONG,
                    message=f"string carries {len(units)} %uXXXX unit(s)",
                    evidence=text,
                    score=3.0,
                )
                continue
        if len(text) >= 256:
            hex_ratio = sum(1 for ch in text if ch in _HEX_CHARS) / len(text)
            if hex_ratio >= 0.9:
                yield Finding(
                    rule="long-string-obfuscation",
                    severity=Severity.SUSPICIOUS,
                    message=f"{len(text)}-char hex blob",
                    evidence=text,
                    score=2.0,
                )
                continue
        # English prose measures ≈ 4.2–4.4 bits/char; packed/encoded
        # payload blocks sit well above 5.
        if len(text) >= 800 and shannon_entropy(text) >= 5.0:
            yield Finding(
                rule="long-string-obfuscation",
                severity=Severity.SUSPICIOUS,
                message=f"{len(text)}-char high-entropy string "
                f"({shannon_entropy(text):.2f} bits/char)",
                evidence=text,
                score=2.0,
            )


@rule("source-escape-density")
def _source_escape_density(ctx: RuleContext) -> Iterable[Finding]:
    escapes = _SOURCE_ESCAPE_RE.findall(ctx.source)
    if len(escapes) >= 64:
        yield Finding(
            rule="source-escape-density",
            severity=Severity.SUSPICIOUS,
            message=f"{len(escapes)} \\xNN/\\uNNNN escapes in source",
            score=2.0,
        )


@rule("suspicious-acrobat-api")
def _suspicious_api(ctx: RuleContext) -> Iterable[Finding]:
    """Calls into the known-exploited Acrobat API set."""
    for call in ctx.calls:
        for target in EXPLOIT_CALL_SUFFIXES:
            if call.suffix_matches(target):
                yield Finding(
                    rule="suspicious-acrobat-api",
                    severity=Severity.STRONG,
                    message=f"call to exploit-prone API {target}",
                    score=0.0,
                )
                break


@rule("getannots-overflow")
def _getannots_overflow(ctx: RuleContext) -> Iterable[Finding]:
    for call in ctx.calls:
        if not call.suffix_matches("getAnnots") or not call.node.arguments:
            continue
        entries = ctx.object_entries(call.node.arguments[0])
        page = entries.get("nPage")
        if isinstance(page, (int, float)) and abs(page) >= (1 << 24):
            yield Finding(
                rule="getannots-overflow",
                severity=Severity.STRONG,
                message=f"getAnnots with out-of-range nPage={int(page)} "
                "(CVE-2009-1492 idiom)",
                score=0.0,
            )


@rule("printf-width-overflow")
def _printf_width(ctx: RuleContext) -> Iterable[Finding]:
    for call in ctx.calls:
        if not call.suffix_matches("util.printf") or not call.node.arguments:
            continue
        fmt = ctx.const_str(call.node.arguments[0])
        if fmt is not None and _PRINTF_WIDTH_RE.search(fmt):
            yield Finding(
                rule="printf-width-overflow",
                severity=Severity.STRONG,
                message="util.printf format with huge field width "
                "(CVE-2008-2992 idiom)",
                evidence=fmt,
                score=0.0,
            )


@rule("script-staging")
def _script_staging(ctx: RuleContext) -> Iterable[Finding]:
    """Runtime script installation/scheduling (Doc.addScript,
    app.setTimeOut, ...) — the static scan cannot see the staged code."""
    seen: Set[str] = set()
    for call in ctx.calls:
        last = call.last
        if last in STAGING_METHODS and last not in seen:
            seen.add(last)
            yield Finding(
                rule="script-staging",
                severity=Severity.SUSPICIOUS,
                message=f"runtime script staging via {last}()",
                score=1.0,
            )


@rule("export-launch")
def _export_launch(ctx: RuleContext) -> Iterable[Finding]:
    for call in ctx.calls:
        if call.last != "exportDataObject":
            continue
        entries = (
            ctx.object_entries(call.node.arguments[0])
            if call.node.arguments
            else {}
        )
        launch = entries.get("nLaunch")
        name = entries.get("cName")
        launches = isinstance(launch, (int, float)) and launch >= 1
        executable = isinstance(name, str) and name.lower().endswith(
            _EXECUTABLE_SUFFIXES
        )
        if launches or executable:
            yield Finding(
                rule="export-launch",
                severity=Severity.STRONG,
                message="exportDataObject drops and launches an attachment"
                + (f" ({name})" if isinstance(name, str) else ""),
                score=0.0,
            )
        else:
            yield Finding(
                rule="export-launch",
                severity=Severity.SUSPICIOUS,
                message="exportDataObject writes an attachment to disk",
                score=0.0,
            )


@rule("api-probe")
def _api_probe(ctx: RuleContext) -> Iterable[Finding]:
    """Access to exotic API surfaces (hostContainer, xfaHost) used to
    fingerprint the reader version before exploitation."""
    seen: Set[str] = set()
    for path in sorted(ctx.member_paths):
        for component in PROBE_COMPONENTS:
            if component in path.split(".") and component not in seen:
                seen.add(component)
                yield Finding(
                    rule="api-probe",
                    severity=Severity.SUSPICIOUS,
                    message=f"probes rare API surface '{component}'",
                    evidence=path,
                    score=1.0,
                )


def side_effect_apis(ctx: RuleContext) -> List[str]:
    """Dotted paths of side-effect-capable APIs the script touches.

    Checked over *member accesses*, not just calls: even referencing
    ``this.hostContainer.postMessage`` proves nothing executes, but
    referencing ``SOAP.request`` then calling it through an alias would
    evade a call-only check.
    """
    found: Set[str] = set()
    paths = set(ctx.member_paths)
    for call in ctx.calls:
        if call.path is not None:
            paths.add(call.path)
    for path in paths:
        last = path.rsplit(".", 1)[-1]
        if last in SIDE_EFFECT_COMPONENTS:
            found.add(path)
            continue
        for prefix in SIDE_EFFECT_PREFIXES:
            if path.startswith(prefix) or f".{prefix}" in path + ".":
                found.add(path)
                break
    return sorted(found)


#: Version of the built-in rule-set at import time.
RULESET_VERSION = ruleset_version()
