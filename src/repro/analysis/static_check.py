"""AST-based static checker for systolic designs and fabric idioms.

Two layers of rules run over a Python source file:

**Design rules** — active inside *PE loops* (loops whose body acts as one
PE at a time), they prove the discipline the dynamic sanitizer
(:mod:`repro.analysis.hazards`) checks at runtime, without running the
design:

* ``non-neighbor-link`` — a PE-scoped *read* of another PE's register at
  an offset the module's declared topology does not link (``line``:
  ``±1`` on the chain; ``grid``: one step on one axis; ``complete``:
  anything goes).
* ``cross-pe-write`` — a PE-scoped *write* to a register at a nonzero
  (or unresolvable) offset; systolic PEs drive only their own registers.
* ``write-write`` — the same register staged twice on one straight-line
  path with no latch (``machine.end_tick()`` / ``machine.latch()``)
  between the writes.
* ``read-after-staged-write`` — a register read on a path after its own
  staged write and before the latch; the read returns stale pre-tick
  state.

**Idiom rules** — active everywhere (repo-wide fabric discipline):

* ``register-internals`` — touching ``Register`` internals
  (``._current`` / ``._next`` / ``._dirty`` / ``._staged_scope`` /
  ``._staged``) outside the fabric itself.
* ``latch-bypass`` — calling ``.end_tick()`` / ``.latch()`` on anything
  but the machine (per-PE latching desynchronizes the array clock).
* ``silent-op`` — a function that calls ``.count_op(`` but never
  ``.emit(``: under tracing its state changes are invisible to every
  telemetry sink.
* ``forced-write`` — a ``.force(`` call outside :mod:`repro.faults`.
* ``bare-allow`` — a suppression comment with no justification text.

Suppressions
------------
A finding on line *L* is suppressed by a comment on line *L* or *L-1*::

    pe["M"].value  # systolic: allow(non-neighbor-link) broadcast bus, Sec. 6.2

    # systolic: allow(cross-pe-write, write-write) controller-owned scoreboard
    target["K"].set(v)

The justification text is mandatory (``bare-allow`` otherwise).  A file
containing the pragma ``# systolic: fabric-internal`` is exempt from
``register-internals`` and ``latch-bypass`` — it *is* the
implementation those rules protect.
"""

from __future__ import annotations

import ast
import dataclasses
import re
from pathlib import Path
from typing import Any, Iterable

__all__ = [
    "STATIC_RULES",
    "StaticFinding",
    "check_file",
    "check_source",
    "extract_link_graph",
]

#: Every rule this checker can report.
STATIC_RULES = (
    "write-write",
    "read-after-staged-write",
    "cross-pe-write",
    "non-neighbor-link",
    "forced-write",
    "silent-op",
    "register-internals",
    "latch-bypass",
    "bare-allow",
)

#: ``Register`` attributes nothing outside the fabric may touch.
_REGISTER_INTERNALS = frozenset(
    {"_current", "_next", "_dirty", "_staged_scope", "_staged"}
)

_ALLOW_RE = re.compile(
    r"#\s*systolic:\s*allow\(\s*([a-z\-]+(?:\s*,\s*[a-z\-]+)*)\s*\)\s*(.*)"
)
_PRAGMA_RE = re.compile(r"#\s*systolic:\s*fabric-internal")


@dataclasses.dataclass(frozen=True)
class StaticFinding:
    """One rule violation found in source, with suppression state."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    suppressed: bool = False
    justification: str = ""

    def as_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)

    def __str__(self) -> str:
        tag = " (suppressed)" if self.suppressed else ""
        return f"{self.path}:{self.line}:{self.col}: [{self.rule}]{tag} {self.message}"


# ----------------------------------------------------------------------
# Small AST helpers
# ----------------------------------------------------------------------


def _dotted(node: ast.AST) -> str:
    """Best-effort dotted name of an expression (``machine.pes`` …)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return f"{base}.{node.attr}" if base else node.attr
    return ""


def _machine_like(node: ast.AST) -> bool:
    """Heuristic: does this expression denote the machine (or self)?"""
    name = _dotted(node)
    if not name:
        return False
    last = name.rsplit(".", 1)[-1]
    return last in ("self",) or "machine" in last


def _is_pes_expr(node: ast.AST) -> bool:
    """Does this expression denote the PE list (``pes`` / ``machine.pes``)?"""
    name = _dotted(node)
    last = name.rsplit(".", 1)[-1] if name else ""
    return last in ("pes", "pe_list", "pe_row", "row_pes")


def _const_int(node: ast.AST) -> int | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, int):
        return node.value
    if (
        isinstance(node, ast.UnaryOp)
        and isinstance(node.op, ast.USub)
        and isinstance(node.operand, ast.Constant)
        and isinstance(node.operand.value, int)
    ):
        return -node.operand.value
    return None


# Offset of a subscript index relative to the loop axes.
# int  -> resolved offset from the axis variable
# None -> unresolvable (opaque index)
def _axis_offset(index: ast.AST, axes: dict[str, int]) -> int | None:
    if isinstance(index, ast.Name) and index.id in axes:
        return 0
    if isinstance(index, ast.BinOp) and isinstance(index.op, (ast.Add, ast.Sub)):
        left, right = index.left, index.right
        if isinstance(left, ast.Name) and left.id in axes:
            k = _const_int(right)
            if k is not None:
                return k if isinstance(index.op, ast.Add) else -k
        if (
            isinstance(index.op, ast.Add)
            and isinstance(right, ast.Name)
            and right.id in axes
        ):
            k = _const_int(left)
            if k is not None:
                return k
    return None


# ----------------------------------------------------------------------
# The checker
# ----------------------------------------------------------------------


class _Checker:
    def __init__(self, source: str, path: str):
        self.source = source
        self.path = path
        self.findings: list[StaticFinding] = []
        self.link_graph: list[dict[str, Any]] = []
        self.lines = source.splitlines()
        # line -> (rules, justification) for every allow() comment
        self.allows: dict[int, tuple[frozenset[str], str]] = {}
        self.fabric_internal = False
        for lineno, text in enumerate(self.lines, start=1):
            if _PRAGMA_RE.search(text):
                self.fabric_internal = True
            m = _ALLOW_RE.search(text)
            if m:
                rules = frozenset(r.strip() for r in m.group(1).split(","))
                self.allows[lineno] = (rules, m.group(2).strip())
        self.topology: Any = "line"

    # -- reporting -------------------------------------------------------
    def report(self, rule: str, node: ast.AST, message: str) -> None:
        line = getattr(node, "lineno", 0)
        col = getattr(node, "col_offset", 0)
        suppressed = False
        justification = ""
        for at in (line, line - 1):
            allow = self.allows.get(at)
            if allow is not None and rule in allow[0]:
                suppressed = True
                justification = allow[1]
                break
        self.findings.append(
            StaticFinding(
                rule=rule,
                path=self.path,
                line=line,
                col=col,
                message=message,
                suppressed=suppressed,
                justification=justification,
            )
        )

    # -- entry -----------------------------------------------------------
    def run(self) -> None:
        try:
            tree = ast.parse(self.source, filename=self.path)
        except SyntaxError as exc:
            self.report(
                "register-internals",
                ast.Module(body=[], type_ignores=[]),
                f"could not parse: {exc}",
            )
            return
        self._detect_topology(tree)
        self._check_bare_allows()
        self._idiom_pass(tree)
        for fn in (
            n for n in ast.walk(tree)
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
        ):
            self._design_pass(fn)

    def _check_bare_allows(self) -> None:
        for lineno, (rules, justification) in sorted(self.allows.items()):
            if not justification:
                anchor = ast.Module(body=[], type_ignores=[])
                anchor.lineno = lineno  # type: ignore[attr-defined]
                anchor.col_offset = 0  # type: ignore[attr-defined]
                self.report(
                    "bare-allow",
                    anchor,
                    f"allow({', '.join(sorted(rules))}) without a "
                    "justification; say why the rule does not apply here",
                )

    def _detect_topology(self, tree: ast.Module) -> None:
        """Find the topology the module's machine construction declares.

        Takes the most permissive topology any ``SystolicMachine(...)``
        call in the module declares (``complete`` > ``grid`` > ``line``):
        the static rules must not be stricter than the declared wiring.
        """
        best = "line"
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and _dotted(node.func).endswith(
                "SystolicMachine"
            )):
                continue
            for kw in node.keywords:
                if kw.arg != "topology":
                    continue
                if isinstance(kw.value, ast.Constant) and kw.value.value == "complete":
                    best = "complete"
                elif isinstance(kw.value, ast.Tuple) and best != "complete":
                    elts = kw.value.elts
                    if elts and isinstance(elts[0], ast.Constant) and elts[0].value == "grid":
                        best = "grid"
        self.topology = best

    # -- idiom rules -----------------------------------------------------
    def _idiom_pass(self, tree: ast.Module) -> None:
        in_faults = "faults" in Path(self.path).parts
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in _REGISTER_INTERNALS:
                if not self.fabric_internal:
                    self.report(
                        "register-internals",
                        node,
                        f"access to Register internal {node.attr!r}; use the "
                        "public value/set/pending/cancel API",
                    )
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                attr = node.func.attr
                recv = node.func.value
                if attr in ("end_tick", "latch") and not self.fabric_internal:
                    if not _machine_like(recv):
                        self.report(
                            "latch-bypass",
                            node,
                            f"{_dotted(node.func) or attr}() latches outside "
                            "the machine clock; use machine.end_tick() / "
                            "machine.latch() so every PE latches together",
                        )
                if attr == "force" and not in_faults and not self.fabric_internal:
                    self.report(
                        "forced-write",
                        node,
                        f"{_dotted(node.func) or 'force'}() bypasses the "
                        "clock; only the fault layer (repro.faults) forces "
                        "registers",
                    )
        # silent-op: a function that counts work but never emits.
        for fn in (
            n for n in ast.walk(tree)
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
        ):
            count_site: ast.AST | None = None
            emits = False
            for node in ast.walk(fn):
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                    if node.func.attr == "count_op" and count_site is None:
                        count_site = node
                    if node.func.attr == "emit":
                        emits = True
            if count_site is not None and not emits:
                self.report(
                    "silent-op",
                    count_site,
                    f"function {fn.name!r} calls count_op() but never "
                    "emit(); under tracing its work is invisible to every "
                    "telemetry sink",
                )

    # -- design rules ----------------------------------------------------
    def _design_pass(self, fn: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        reads: set[tuple[str, str]] = set()
        writes: set[str] = set()
        self._scan_block(fn.body, axes={}, aliases={}, staged=set(),
                         reads=reads, writes=writes)
        if reads or writes:
            self.link_graph.append(
                {
                    "function": fn.name,
                    "line": fn.lineno,
                    "reads": sorted([reg, off] for reg, off in reads),
                    "writes": sorted(writes),
                }
            )

    # A "PE loop" establishes axes (loop index vars) and aliases
    # (names bound to the acting PE).  Alias values are offset tuples;
    # () means "the acting PE reached through an opaque index".
    def _scan_block(
        self,
        stmts: Iterable[ast.stmt],
        *,
        axes: dict[str, int],
        aliases: dict[str, tuple[int, ...]],
        staged: set[str],
        reads: set[tuple[str, str]],
        writes: set[str],
    ) -> None:
        for stmt in stmts:
            if isinstance(stmt, ast.For):
                new_axes = dict(axes)
                new_aliases = dict(aliases)
                # for i, pe in enumerate(pes):
                if (
                    isinstance(stmt.target, ast.Tuple)
                    and len(stmt.target.elts) == 2
                    and isinstance(stmt.iter, ast.Call)
                    and _dotted(stmt.iter.func) == "enumerate"
                    and stmt.iter.args
                    and _is_pes_expr(stmt.iter.args[0])
                ):
                    ivar, pevar = stmt.target.elts
                    if isinstance(ivar, ast.Name):
                        new_axes[ivar.id] = len(axes)
                    if isinstance(pevar, ast.Name):
                        new_aliases[pevar.id] = (0,) * max(1, len(new_axes))
                elif isinstance(stmt.target, ast.Name) and _is_pes_expr(stmt.iter):
                    # for pe in pes:  — each iteration acts as one PE
                    new_aliases[stmt.target.id] = (0,)
                elif isinstance(stmt.target, ast.Name):
                    # for i in range(...)  /  for key in <opaque>
                    new_axes[stmt.target.id] = len(axes)
                self._bind_aliases(stmt.body, new_axes, new_aliases)
                self._scan_block(
                    stmt.body, axes=new_axes, aliases=new_aliases,
                    staged=set(), reads=reads, writes=writes,
                )
                if stmt.orelse:
                    self._scan_block(
                        stmt.orelse, axes=axes, aliases=aliases,
                        staged=staged, reads=reads, writes=writes,
                    )
                continue
            if isinstance(stmt, ast.While):
                self._scan_expr(stmt.test, axes, aliases, staged, reads, writes)
                self._scan_block(
                    stmt.body, axes=axes, aliases=aliases, staged=set(),
                    reads=reads, writes=writes,
                )
                continue
            if isinstance(stmt, ast.If):
                self._scan_expr(stmt.test, axes, aliases, staged, reads, writes)
                body_staged = set(staged)
                else_staged = set(staged)
                self._scan_block(
                    stmt.body, axes=axes, aliases=aliases, staged=body_staged,
                    reads=reads, writes=writes,
                )
                self._scan_block(
                    stmt.orelse, axes=axes, aliases=aliases, staged=else_staged,
                    reads=reads, writes=writes,
                )
                # Conservative join: only registers staged on *both* paths
                # stay staged (avoids false write-write positives).
                joined = body_staged & else_staged
                staged.clear()
                staged.update(joined)
                continue
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # Closures run at call time with their own scope; analyzed
                # as independent functions by _design_pass via ast.walk.
                continue
            if isinstance(stmt, (ast.With,)):
                self._scan_block(
                    stmt.body, axes=axes, aliases=aliases, staged=staged,
                    reads=reads, writes=writes,
                )
                continue
            # Plain statement: walk its expressions in evaluation order.
            for expr in ast.iter_child_nodes(stmt):
                self._scan_expr(expr, axes, aliases, staged, reads, writes)

    def _bind_aliases(
        self,
        body: list[ast.stmt],
        axes: dict[str, int],
        aliases: dict[str, tuple[int, ...]],
    ) -> None:
        """Register ``pe = pes[i]`` / ``pe = pes[i][j]`` / opaque aliases."""
        for stmt in body:
            if not (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
            ):
                continue
            offsets = self._pe_offsets(stmt.value, axes)
            if offsets is not None:
                aliases[stmt.targets[0].id] = offsets

    def _pe_offsets(
        self, node: ast.AST, axes: dict[str, int]
    ) -> tuple[int, ...] | None:
        """Offsets of a ``pes[...]`` (or ``pes[...][...]``) chain.

        Returns a tuple of per-axis offsets, ``()`` for an opaque index
        (the acting PE reached through a lookup table), or ``None`` when
        the expression is not a PE subscript at all.
        """
        chain: list[ast.AST] = []
        cur = node
        while isinstance(cur, ast.Subscript):
            chain.append(cur.slice)
            cur = cur.value
        if not chain or not _is_pes_expr(cur):
            return None
        chain.reverse()
        offsets: list[int] = []
        for index in chain:
            off = _axis_offset(index, axes)
            if off is None:
                return ()  # opaque index: treat as the acting PE itself
            offsets.append(off)
        return tuple(offsets)

    def _scan_expr(
        self,
        node: ast.AST,
        axes: dict[str, int],
        aliases: dict[str, tuple[int, ...]],
        staged: set[str],
        reads: set[tuple[str, str]],
        writes: set[str],
    ) -> None:
        in_pe_loop = bool(aliases) or bool(axes)

        # Latch calls reset the staged-write tracking.
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("end_tick", "latch")
            and _machine_like(node.func.value)
        ):
            staged.clear()
            return

        # A .set(...) call on a register expression: arguments are
        # evaluated (read) before the write is staged.
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "set"
        ):
            target = self._register_ref(node.func.value, axes, aliases)
            if target is not None:
                for arg in node.args:
                    self._scan_expr(arg, axes, aliases, staged, reads, writes)
                offsets, regname, key = target
                writes.add(regname)
                if in_pe_loop and any(offsets):
                    self.report(
                        "cross-pe-write",
                        node,
                        f"write to {regname!r} at offset {offsets} from the "
                        "acting PE; systolic PEs drive only their own "
                        "registers",
                    )
                if not any(offsets):
                    if key in staged:
                        self.report(
                            "write-write",
                            node,
                            f"{regname!r} staged twice with no latch between "
                            "the writes (two drivers on one net)",
                        )
                    staged.add(key)
                return

        # A .value read on a register expression.
        if isinstance(node, ast.Attribute) and node.attr == "value":
            target = self._register_ref(node.value, axes, aliases)
            if target is not None:
                offsets, regname, key = target
                reads.add((regname, self._offset_repr(offsets)))
                if not any(offsets) and key in staged:
                    self.report(
                        "read-after-staged-write",
                        node,
                        f"{regname!r} read after its staged write on the "
                        "same path; the read returns stale pre-tick state",
                    )
                if (
                    in_pe_loop
                    and self.topology != "complete"
                    and not self._offsets_linked(offsets)
                ):
                    self.report(
                        "non-neighbor-link",
                        node,
                        f"read of {regname!r} at offset {offsets} is not a "
                        f"neighbor link under topology {self.topology!r}",
                    )
                return

        for child in ast.iter_child_nodes(node):
            self._scan_expr(child, axes, aliases, staged, reads, writes)

    def _offsets_linked(self, offsets: tuple[int, ...]) -> bool:
        """Is a read at these offsets a legal link (self or neighbor)?"""
        return sum(abs(k) for k in offsets) <= 1

    @staticmethod
    def _offset_repr(offsets: tuple[int, ...]) -> str:
        if not offsets:
            return "self"
        if len(offsets) == 1:
            return f"{offsets[0]:+d}" if offsets[0] else "0"
        return "(" + ",".join(str(k) for k in offsets) + ")"

    def _register_ref(
        self,
        node: ast.AST,
        axes: dict[str, int],
        aliases: dict[str, tuple[int, ...]],
    ) -> tuple[tuple[int, ...], str, str] | None:
        """Resolve ``pe["R"]`` / ``pes[i-1]["R"]`` to (offsets, name, key).

        ``key`` identifies the register for staged-write tracking: the
        acting PE's own register keys as ``R@self``; a register reached
        through a non-loop index keys by the index's source text, so
        ``pes[0]["R"]`` and ``pes[1]["R"]`` never collide.
        """
        if not (
            isinstance(node, ast.Subscript)
            and isinstance(node.slice, ast.Constant)
            and isinstance(node.slice.value, str)
        ):
            return None
        regname = node.slice.value
        base = node.value
        if isinstance(base, ast.Name) and base.id in aliases:
            return aliases[base.id], regname, f"{regname}@self"
        offsets = self._pe_offsets(base, axes)
        if offsets is None:
            return None
        if offsets == () and isinstance(base, ast.Subscript):
            key = f"{regname}@{ast.unparse(base)}"
        else:
            key = f"{regname}@{self._offset_repr(offsets)}"
        return offsets, regname, key


# ----------------------------------------------------------------------
# Public entry points
# ----------------------------------------------------------------------


def check_source(
    source: str,
    path: str = "<memory>",
    *,
    include_suppressed: bool = False,
) -> list[StaticFinding]:
    """Run every static rule over ``source``.

    Returns active findings; with ``include_suppressed=True`` the
    suppressed ones are included too (marked, with their justification).
    """
    checker = _Checker(source, path)
    checker.run()
    if include_suppressed:
        return checker.findings
    return [f for f in checker.findings if not f.suppressed]


def check_file(
    path: str | Path, *, include_suppressed: bool = False
) -> list[StaticFinding]:
    """Run :func:`check_source` on a file."""
    p = Path(path)
    return check_source(
        p.read_text(encoding="utf-8"), str(p),
        include_suppressed=include_suppressed,
    )


def extract_link_graph(source: str, path: str = "<memory>") -> list[dict[str, Any]]:
    """Per-function register read/write summary (the design's link graph).

    Each entry lists the registers a function reads (with the offset
    from the acting PE: ``"0"``, ``"-1"``, ``"+1"``, ``"(0,-1)"`` …) and
    the registers it writes, proving the neighbor-only wiring claim at
    a glance.
    """
    checker = _Checker(source, path)
    checker.run()
    return checker.link_graph
