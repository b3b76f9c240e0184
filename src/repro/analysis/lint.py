"""Static lint for DSM application code (the ``DSM0xx`` checks).

The TreadMarks programming discipline ("with TreadMarks it is imperative
to use explicit synchronization") has a few failure modes the runtime
cannot always catch, because they produce *stale values* rather than
crashes.  This AST pass flags them in application source:

* **DSM001** -- a view obtained from ``yield from`` a
  ``SharedArray.read``/``read_racy`` is used after a synchronization
  operation (``barrier``/``lock_acquire``/``lock_release``) without
  being re-read.  A DSM moves data only at synchronization; a cached
  view is the register-allocated stale copy the paper warns about.
* **DSM002** -- element assignment into such a view.  Views are
  read-only; writes must go through ``SharedArray.write``/``add`` so
  the runtime can twin the page and produce diffs.
* **DSM003** -- direct ``SharedArray(...)`` construction in application
  code.  Shared memory must come from ``Tmk.shared_array``/``array_at``
  (the Tmk_malloc analogue) so allocations are in the shared segment
  and visible to every processor.
* **DSM004** -- a view escapes into an object attribute.  Attributes
  outlive the synchronization scope of the function, so the runtime
  cannot tell when the cached view goes stale.
* **DSM005** -- a blocking runtime call whose generator is built and
  dropped: an expression statement or plain assignment whose value is
  ``tmk.barrier(0)`` / ``arr.write(k, v)`` / ``pvm.recv()`` *without*
  ``yield from``.  Every blocking operation is a generator the engine's
  trampoline must drive; the bare call silently does nothing.  Covers
  the synchronization methods on any receiver, the ``SharedArray``
  accessors on a tracked shared-array name, and the message calls on a
  receiver chain ending in ``pvm``; ``return tmk.barrier(0)`` from a
  helper (the caller delegates) is fine.

The pass is a per-function linear scan in source order; loop bodies are
processed twice so a synchronization at the bottom of a loop staleness-
marks uses at the top of the next iteration.  Branches are scanned
sequentially (a deliberate over-approximation: a sync in *either* arm
marks views stale afterwards).  Binding a fresh read to the same name
clears its staleness; ``.copy()`` results are never tracked, because a
copy is a private snapshot, not an alias of shared memory.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple

__all__ = ["LintFinding", "lint_file", "lint_paths", "lint_source"]

#: Method names that are synchronization operations on any receiver.
SYNC_METHODS = {"barrier", "lock_acquire", "lock_release"}
#: Method names whose result is a view of shared memory.
VIEW_METHODS = {"read", "read_racy"}
#: Method names whose result is a shared array handle.
ALLOC_METHODS = {"shared_array", "array_at"}
#: Blocking accessors of a shared array handle (generators).
ARRAY_METHODS = VIEW_METHODS | {"write", "add", "get", "get_racy", "set"}
#: Blocking message-passing calls (generators) on a ``pvm`` endpoint.
PVM_METHODS = {"send", "recv", "nrecv", "probe", "mcast"}


@dataclass(frozen=True)
class LintFinding:
    """One diagnostic, in the usual path:line:col tool format."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


class _View:
    """Tracking state for one name bound to a shared-memory view."""

    __slots__ = ("read_line", "stale_sync")

    def __init__(self, read_line: int) -> None:
        self.read_line = read_line
        #: (line, method) of the sync that invalidated it, or None.
        self.stale_sync: Optional[Tuple[int, str]] = None


def _method_name(call: ast.Call) -> Optional[str]:
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def _callee_name(call: ast.Call) -> Optional[str]:
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


class _FunctionLinter:
    """Linear scan over one function (or the module top level)."""

    def __init__(self, path: str, findings: List[LintFinding]) -> None:
        self.path = path
        self.findings = findings
        self.shared: Set[str] = set()
        self.views: Dict[str, _View] = {}
        #: (name, sync line) pairs already reported, to keep one finding
        #: per cached view per sync even though loops scan twice.
        self._reported: Set[Tuple[str, str, int]] = set()

    # ------------------------------------------------------------------
    def _report(self, code: str, node: ast.AST, message: str,
                dedup: Optional[Tuple] = None) -> None:
        if dedup is not None:
            if dedup in self._reported:
                return
            self._reported.add(dedup)
        self.findings.append(LintFinding(
            path=self.path, line=node.lineno, col=node.col_offset,
            code=code, message=message))

    # ------------------------------------------------------------------
    # Expression classification
    # ------------------------------------------------------------------
    def _is_view_expr(self, expr: ast.expr) -> bool:
        """Does this expression yield a shared-memory view?"""
        if isinstance(expr, ast.YieldFrom):
            call = expr.value
            return (isinstance(call, ast.Call)
                    and _method_name(call) in VIEW_METHODS)
        if isinstance(expr, ast.Name):
            return expr.id in self.views
        return False

    def _check_undelegated(self, value: Optional[ast.expr]) -> None:
        """DSM005 on a statement's value: a bare blocking call."""
        if not (isinstance(value, ast.Call)
                and isinstance(value.func, ast.Attribute)):
            return
        method = value.func.attr
        receiver = value.func.value
        # The last link of the receiver chain: ``pvm`` / ``proc.pvm``.
        tail = (receiver.id if isinstance(receiver, ast.Name)
                else getattr(receiver, "attr", None))
        if not (method in SYNC_METHODS
                or (method in ARRAY_METHODS and isinstance(receiver, ast.Name)
                    and receiver.id in self.shared)
                or (method in PVM_METHODS and tail == "pvm")):
            return
        self._report(
            "DSM005", value,
            f"{method}() builds a generator that is never driven; write "
            f"'yield from ...{method}(...)' -- every blocking runtime "
            "call must be delegated to the engine")

    # ------------------------------------------------------------------
    # Expression scan: uses, syncs, direct construction
    # ------------------------------------------------------------------
    def _scan_expr(self, expr: Optional[ast.expr]) -> None:
        if expr is None:
            return
        for node in ast.walk(expr):
            if isinstance(node, ast.Call):
                callee = _callee_name(node)
                if callee == "SharedArray":
                    self._report(
                        "DSM003", node,
                        "direct SharedArray construction; allocate with "
                        "tmk.shared_array()/tmk.array_at() (Tmk_malloc) "
                        "so the memory is in the shared segment")
                method = _method_name(node)
                if method in SYNC_METHODS:
                    self._mark_stale(node.lineno, method)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                view = self.views.get(node.id)
                if view is not None and view.stale_sync is not None:
                    sync_line, sync = view.stale_sync
                    self._report(
                        "DSM001", node,
                        f"view {node.id!r} (read at line {view.read_line}) "
                        f"used after {sync}() at line {sync_line} without "
                        "re-reading; a DSM only moves data at "
                        "synchronization, so this is a stale cached copy",
                        dedup=(node.id, sync, sync_line))

    def _mark_stale(self, line: int, method: str) -> None:
        for view in self.views.values():
            if view.stale_sync is None:
                view.stale_sync = (line, method)

    # ------------------------------------------------------------------
    # Statement walk
    # ------------------------------------------------------------------
    def _bind(self, target: ast.expr, value: ast.expr) -> None:
        """Apply the effect of ``target = value`` after scanning both."""
        if isinstance(target, ast.Name):
            name = target.id
            if isinstance(value, ast.Call) and \
                    _method_name(value) in ALLOC_METHODS:
                self.shared.add(name)
                self.views.pop(name, None)
            elif self._is_view_expr(value):
                self.views[name] = _View(read_line=value.lineno)
                self.shared.discard(name)
            else:
                # Rebound to something else: stop tracking.
                self.views.pop(name, None)
                self.shared.discard(name)
        elif isinstance(target, ast.Attribute):
            if isinstance(value, ast.Name) and value.id in self.views:
                self._report(
                    "DSM004", target,
                    f"view {value.id!r} escapes into attribute "
                    f"{target.attr!r}; attributes outlive the function's "
                    "synchronization scope, so the cached view cannot be "
                    "invalidated at the next barrier/lock")
        elif isinstance(target, ast.Subscript):
            base = target.value
            if isinstance(base, ast.Name) and base.id in self.views:
                self._report(
                    "DSM002", target,
                    f"assignment into read-only view {base.id!r}; write "
                    "through SharedArray.write()/add() so the runtime can "
                    "twin the page and diff the change")
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                # Tuple unpack of a non-view value: just clear bindings.
                self._bind(elt, ast.Constant(value=None))

    def run(self, body: Iterable[ast.stmt]) -> None:
        for stmt in body:
            self._stmt(stmt)

    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return  # nested definitions are linted separately
        if isinstance(stmt, ast.Assign):
            self._check_undelegated(stmt.value)
            self._scan_expr(stmt.value)
            for target in stmt.targets:
                self._bind(target, stmt.value)
        elif isinstance(stmt, ast.AnnAssign):
            self._scan_expr(stmt.value)
            if stmt.value is not None:
                self._bind(stmt.target, stmt.value)
        elif isinstance(stmt, ast.AugAssign):
            self._scan_expr(stmt.value)
            target = stmt.target
            if isinstance(target, ast.Subscript) and \
                    isinstance(target.value, ast.Name) and \
                    target.value.id in self.views:
                self._report(
                    "DSM002", target,
                    f"augmented assignment into read-only view "
                    f"{target.value.id!r}; use SharedArray.add()")
            elif isinstance(target, ast.Name):
                self._scan_expr(ast.Name(id=target.id, ctx=ast.Load(),
                                         lineno=stmt.lineno,
                                         col_offset=stmt.col_offset))
        elif isinstance(stmt, ast.Expr):
            self._check_undelegated(stmt.value)
            self._scan_expr(stmt.value)
        elif isinstance(stmt, (ast.Return, ast.Raise)):
            self._scan_expr(getattr(stmt, "value", None)
                            or getattr(stmt, "exc", None))
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._scan_expr(stmt.iter)
            self._bind(stmt.target, ast.Constant(value=None))
            for _ in range(2):  # second pass: loop-carried staleness
                self.run(stmt.body)
            self.run(stmt.orelse)
        elif isinstance(stmt, ast.While):
            for _ in range(2):
                self._scan_expr(stmt.test)
                self.run(stmt.body)
            self.run(stmt.orelse)
        elif isinstance(stmt, ast.If):
            self._scan_expr(stmt.test)
            self.run(stmt.body)
            self.run(stmt.orelse)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._scan_expr(item.context_expr)
            self.run(stmt.body)
        elif isinstance(stmt, ast.Try):
            self.run(stmt.body)
            for handler in stmt.handlers:
                self.run(handler.body)
            self.run(stmt.orelse)
            self.run(stmt.finalbody)
        elif isinstance(stmt, (ast.Assert, ast.Delete)):
            self._scan_expr(getattr(stmt, "test", None))
        # Pass/Break/Continue/Import/Global: no shared-memory effect.


def lint_source(source: str, path: str = "<string>") -> List[LintFinding]:
    """Lint one module's source text; returns findings in source order."""
    tree = ast.parse(source, filename=path)
    findings: List[LintFinding] = []
    # Module top level, then every function (at any nesting depth).
    _FunctionLinter(path, findings).run(tree.body)
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            _FunctionLinter(path, findings).run(node.body)
    findings.sort(key=lambda f: (f.line, f.col))
    return findings


def lint_file(path: Path) -> List[LintFinding]:
    return lint_source(path.read_text(), str(path))


def lint_paths(paths: Iterable[Path]) -> List[LintFinding]:
    """Lint files and directories (recursing into ``*.py``)."""
    findings: List[LintFinding] = []
    for path in paths:
        path = Path(path)
        if path.is_dir():
            for sub in sorted(path.rglob("*.py")):
                findings.extend(lint_file(sub))
        else:
            findings.extend(lint_file(path))
    return findings
