"""Static lint for the protocol *implementations* (the ``PRT0xx`` checks).

Where :mod:`repro.analysis.lint` checks application code against the DSM
programming discipline, this pass checks the runtime itself -- the
message protocols and the simulator -- for implementation mistakes that
produce hangs or non-reproducible runs rather than crashes:

* **PRT001** -- a message category is sent but no handler is ever
  registered for it anywhere in the linted sources: the message would
  arrive and raise (or worse, be dropped), and the sender waiting on its
  reply would deadlock.
* **PRT002** -- a handler is registered for a category that is never
  sent: dead protocol surface, usually a renamed category constant.
* **PRT003** -- a blocking effect (``.wait()`` / ``Block(...)``) is
  reachable from a registered message handler through same-class method
  calls.  Handlers run in event context on the receiving processor;
  blocking there wedges the engine.
* **PRT004** -- a blocking synchronization (``barrier``/``recv``/
  ``.wait()``) between ``lock_acquire`` and ``lock_release`` in one
  function: a classic simulated-lock-order deadlock shape.
* **PRT005** -- use of the *shared* ``random`` module state (module-level
  functions, or ``random.Random()`` with no seed) in protocol code.
  Protocol decisions must be replayable; randomness must come from an
  explicitly seeded generator (``random.Random(seed)``).
* **PRT006** -- wall-clock reads (``time.time``/``perf_counter``/
  ``monotonic``, ``datetime.now``) in protocol code: the simulator's only
  clock is virtual time.
* **PRT007** -- ``id()`` used as a container key or subscript: CPython
  object addresses vary run to run, so any iteration order or tie-break
  derived from them is non-deterministic.
* **PRT008** -- iteration directly over a set expression (``set(...)``,
  a set literal, a set comprehension) in protocol code; set order is
  insertion/hash dependent -- sort first.

The exhaustiveness pair (PRT001/PRT002) is aggregated across *all*
linted files: categories are resolved through each module's own
constant table (module-level ``ALL_CAPS = "literal"`` assignments), and
a send whose category cannot be resolved statically (a forwarded
variable) is simply skipped.  The determinism checks (PRT005--PRT008)
apply only to protocol paths (``sim/``, ``tmk/``, ``ivy/``, ``scabd/``,
``pvm/``); benchmarks and analysis tooling may legitimately read the
wall clock.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis.lint import LintFinding

__all__ = ["lint_paths", "lint_source", "lint_sources"]

_CONST_NAME = re.compile(r"^_?[A-Z][A-Z0-9_]*$")
_PROTOCOL_DIRS = ("sim/", "tmk/", "ivy/", "scabd/", "pvm/")
#: Send-shaped calls: ``<chan>.send(src, dst, CATEGORY, payload, nbytes)``
_SEND_ATTRS = {"send", "forward"}
#: Blocking synchronization illegal while holding a simulated lock.
_SYNC_WHILE_LOCKED = {"barrier", "recv", "wait"}
_WALL_CLOCK_TIME = {"time", "perf_counter", "monotonic", "process_time"}
_RANDOM_FNS = {"random", "randrange", "randint", "choice", "choices",
               "shuffle", "sample", "uniform", "gauss", "betavariate",
               "expovariate", "getrandbits", "seed"}


def _is_blocking(node: ast.AST) -> Optional[str]:
    """``".wait()"`` / ``"Block()"`` if ``node`` builds a blocking effect."""
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Attribute) and node.func.attr == "wait":
            return ".wait()"
        if isinstance(node.func, ast.Name) and node.func.id == "Block":
            return "Block()"
    return None


def _is_protocol_path(path: str) -> bool:
    posix = path.replace("\\", "/")
    return any(d in posix for d in _PROTOCOL_DIRS)


def _attr_chain(expr: ast.expr) -> Optional[str]:
    """``a.b.c`` -> ``"a.b.c"`` (None for anything fancier)."""
    parts: List[str] = []
    while isinstance(expr, ast.Attribute):
        parts.append(expr.attr)
        expr = expr.value
    if isinstance(expr, ast.Name):
        parts.append(expr.id)
        return ".".join(reversed(parts))
    return None


class _ModuleFacts:
    """Everything one module contributes to the cross-file checks."""

    def __init__(self, path: str) -> None:
        self.path = path
        #: ALL_CAPS module-level name -> string value.
        self.consts: Dict[str, str] = {}
        #: (category value, finding-site node) for every resolvable send.
        self.sends: List[Tuple[str, ast.AST]] = []
        #: (category value, finding-site node) for every register call.
        self.registers: List[Tuple[str, ast.AST]] = []

    def resolve(self, expr: ast.expr) -> Optional[str]:
        if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
            return expr.value
        if isinstance(expr, ast.Name):
            return self.consts.get(expr.id)
        return None


def _collect_facts(tree: ast.Module, path: str) -> _ModuleFacts:
    facts = _ModuleFacts(path)
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
            if (isinstance(target, ast.Name)
                    and _CONST_NAME.match(target.id)
                    and isinstance(stmt.value, ast.Constant)
                    and isinstance(stmt.value.value, str)):
                facts.consts[target.id] = stmt.value.value
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or \
                not isinstance(node.func, ast.Attribute):
            continue
        attr = node.func.attr
        if attr in _SEND_ATTRS and len(node.args) >= 4:
            value = facts.resolve(node.args[2])
            if value is not None:
                facts.sends.append((value, node))
        elif attr == "register" and len(node.args) == 2:
            value = facts.resolve(node.args[0])
            if value is not None:
                facts.registers.append((value, node))
    return facts


# ----------------------------------------------------------------------
# PRT003: blocking reachable from a registered handler
# ----------------------------------------------------------------------
def _lint_handler_blocking(tree: ast.Module, path: str,
                           findings: List[LintFinding]) -> None:
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        methods: Dict[str, ast.FunctionDef] = {
            m.name: m for m in cls.body
            if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))}
        # Handlers: second argument of any proc.register(CAT, self.X)
        # call anywhere in the class.
        handlers: Set[str] = set()
        for node in ast.walk(cls):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "register"
                    and len(node.args) == 2
                    and isinstance(node.args[1], ast.Attribute)
                    and isinstance(node.args[1].value, ast.Name)
                    and node.args[1].value.id == "self"):
                handlers.add(node.args[1].attr)
        if not handlers:
            continue
        # Same-class call graph closure from the handlers.
        reachable: Set[str] = set()
        frontier = [h for h in handlers if h in methods]
        while frontier:
            name = frontier.pop()
            if name in reachable:
                continue
            reachable.add(name)
            for node in ast.walk(methods[name]):
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and isinstance(node.func.value, ast.Name)
                        and node.func.value.id == "self"
                        and node.func.attr in methods):
                    frontier.append(node.func.attr)
        for name in sorted(reachable):
            for node in ast.walk(methods[name]):
                blocking = _is_blocking(node)
                if blocking is not None:
                    findings.append(LintFinding(
                        path=path, line=node.lineno, col=node.col_offset,
                        code="PRT003",
                        message=f"blocking {blocking} in "
                                f"{cls.name}.{name}, reachable from a "
                                "registered message handler; handlers run "
                                "in event context and must never block"))


# ----------------------------------------------------------------------
# PRT004: blocking sync while holding a simulated lock
# ----------------------------------------------------------------------
def _lint_sync_under_lock(tree: ast.Module, path: str,
                          findings: List[LintFinding]) -> None:
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        held: Optional[ast.Call] = None
        for node in ast.walk(fn):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)):
                continue
            attr = node.func.attr
            if attr == "lock_acquire":
                held = node
            elif attr == "lock_release":
                held = None
            elif held is not None and attr in _SYNC_WHILE_LOCKED:
                findings.append(LintFinding(
                    path=path, line=node.lineno, col=node.col_offset,
                    code="PRT004",
                    message=f"blocking .{attr}() while holding the "
                            f"simulated lock acquired at line "
                            f"{held.lineno}; release the lock before any "
                            "other blocking synchronization"))


# ----------------------------------------------------------------------
# PRT005-PRT008: determinism (protocol paths only)
# ----------------------------------------------------------------------
def _lint_determinism(tree: ast.Module, path: str,
                      findings: List[LintFinding]) -> None:
    def report(code: str, node: ast.AST, message: str) -> None:
        findings.append(LintFinding(path=path, line=node.lineno,
                                    col=node.col_offset, code=code,
                                    message=message))

    def is_id_call(node: ast.AST) -> bool:
        return (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "id")

    def is_set_expr(node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        return (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("set", "frozenset"))

    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            chain = _attr_chain(node.func)
            if chain is not None:
                root, _, rest = chain.partition(".")
                if root == "random" and rest in _RANDOM_FNS:
                    report("PRT005", node,
                           f"shared-state random.{rest}() in protocol "
                           "code; use an explicitly seeded "
                           "random.Random(seed) so runs replay")
                elif (chain.endswith(".Random") or chain == "Random") \
                        and root == "random" and not node.args:
                    report("PRT005", node,
                           "unseeded random.Random() in protocol code; "
                           "pass an explicit seed so runs replay")
                elif root == "time" and rest in _WALL_CLOCK_TIME:
                    report("PRT006", node,
                           f"wall-clock time.{rest}() in protocol code; "
                           "the simulator's only clock is virtual time "
                           "(proc.now)")
                elif rest.endswith("now") and "datetime" in chain:
                    report("PRT006", node,
                           f"wall-clock {chain}() in protocol code; the "
                           "simulator's only clock is virtual time")
        if isinstance(node, ast.Subscript):
            for sub in ast.walk(node.slice):
                if is_id_call(sub):
                    report("PRT007", sub,
                           "id() used as a subscript key; object "
                           "addresses vary between runs, making ordering "
                           "derived from them non-deterministic")
        keys: List[Optional[ast.expr]] = []
        if isinstance(node, ast.Dict):
            keys.extend(node.keys)
        elif isinstance(node, ast.DictComp):
            keys.append(node.key)
        for key in keys:
            if key is None:
                continue
            for sub in ast.walk(key):
                if is_id_call(sub):
                    report("PRT007", sub,
                           "id() used as a dict key; object addresses "
                           "vary between runs")
        iters: List[ast.expr] = []
        if isinstance(node, (ast.For, ast.AsyncFor)):
            iters.append(node.iter)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            iters.extend(gen.iter for gen in node.generators)
        for it in iters:
            if is_set_expr(it):
                report("PRT008", it,
                       "iteration directly over a set expression in "
                       "protocol code; set order is hash/insertion "
                       "dependent -- sort first (sorted(...))")


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def lint_sources(sources: Dict[str, str]) -> List[LintFinding]:
    """Lint several modules together (exhaustiveness is cross-module)."""
    findings: List[LintFinding] = []
    all_facts: List[_ModuleFacts] = []
    for path, source in sources.items():
        tree = ast.parse(source, filename=path)
        all_facts.append(_collect_facts(tree, path))
        _lint_handler_blocking(tree, path, findings)
        _lint_sync_under_lock(tree, path, findings)
        if _is_protocol_path(path):
            _lint_determinism(tree, path, findings)
    sent = {value for facts in all_facts for value, _ in facts.sends}
    registered = {value for facts in all_facts
                  for value, _ in facts.registers}
    for facts in all_facts:
        for value, node in facts.sends:
            if value not in registered:
                findings.append(LintFinding(
                    path=facts.path, line=node.lineno, col=node.col_offset,
                    code="PRT001",
                    message=f"message category {value!r} is sent but no "
                            "handler is registered for it anywhere; the "
                            "receiver would reject it and the sender "
                            "would hang"))
        for value, node in facts.registers:
            if value not in sent:
                findings.append(LintFinding(
                    path=facts.path, line=node.lineno, col=node.col_offset,
                    code="PRT002",
                    message=f"handler registered for category {value!r} "
                            "but nothing ever sends it; dead protocol "
                            "surface (renamed constant?)"))
    findings.sort(key=lambda f: (f.path, f.line, f.col))
    return findings


def lint_source(source: str, path: str = "<string>") -> List[LintFinding]:
    """Lint one module in isolation (exhaustiveness within it only)."""
    return lint_sources({path: source})


def lint_paths(paths: Iterable[Path]) -> List[LintFinding]:
    """Lint files and directories together (recursing into ``*.py``)."""
    sources: Dict[str, str] = {}
    for path in paths:
        path = Path(path)
        if path.is_dir():
            for sub in sorted(path.rglob("*.py")):
                sources[str(sub)] = sub.read_text()
        else:
            sources[str(path)] = path.read_text()
    return lint_sources(sources)
