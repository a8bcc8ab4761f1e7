"""SIM004 — event-priority registry.

Same-timestamp events resolve by a per-type integer ``PRIORITY``; the whole
determinism story of the engine rests on that ordering being total and the
heap key having a pinned shape.  Within any module that declares event
classes:

* every ``PRIORITY`` must be a literal ``int`` and unique module-wide;
* every member of the module's ``Event`` union must declare one;
* where the module declares a literal ``ROUND`` (the rank stride of one
  same-instant round), every ``PRIORITY`` must lie in ``[0, ROUND)``, or
  an event's round-0 rank would pass for a later round's;
* any heap push whose key tuple carries the priority (``.PRIORITY``
  itself, or a name the enclosing function binds to it, such as a rank)
  must use the pinned shape ``(time, priority, sequence, event)``:
  priority in slot 1, a monotone sequence counter in slot 2.  An
  accidental reordering of the key is then caught at lint time, not as a
  Heisenbug under load.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from tools.simlint.astutil import const_int, dotted_name
from tools.simlint.framework import Finding, ModuleInfo, Project, Rule, register


def _priority_assignment(cls: ast.ClassDef) -> tuple[ast.stmt, ast.AST] | None:
    """The (statement, value) declaring PRIORITY in a class body, if any."""
    for stmt in cls.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            if stmt.target.id == "PRIORITY" and stmt.value is not None:
                return stmt, stmt.value
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name) and target.id == "PRIORITY":
                    return stmt, stmt.value
    return None


def _event_union_members(tree: ast.Module) -> tuple[ast.stmt | None, list[str]]:
    """Names in a module-level ``Event = Union[...]`` / ``Event = A | B``."""
    for stmt in tree.body:
        if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
            continue
        target = stmt.targets[0]
        if not (isinstance(target, ast.Name) and target.id == "Event"):
            continue
        value = stmt.value
        names: list[str] = []
        if isinstance(value, ast.Subscript) and dotted_name(value.value) in (
            "Union",
            "typing.Union",
        ):
            elts = (
                value.slice.elts
                if isinstance(value.slice, ast.Tuple)
                else [value.slice]
            )
            names = [elt.id for elt in elts if isinstance(elt, ast.Name)]
        else:  # A | B | C
            node: ast.AST = value
            while isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
                if isinstance(node.right, ast.Name):
                    names.append(node.right.id)
                node = node.left
            if isinstance(node, ast.Name):
                names.append(node.id)
            names.reverse()
        return stmt, names
    return None, []


def _round_stride(tree: ast.Module) -> int | None:
    """The literal of a module-level ``ROUND = <int>``, if declared."""
    for stmt in tree.body:
        if (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and stmt.targets[0].id == "ROUND"
        ):
            return const_int(stmt.value)
    return None


def _is_priority(node: ast.AST) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "PRIORITY"


def _priority_names(function: ast.AST) -> set[str]:
    """Names ``function`` binds straight to a ``.PRIORITY`` attribute."""
    return {
        target.id
        for node in ast.walk(function)
        if isinstance(node, ast.Assign) and _is_priority(node.value)
        for target in node.targets
        if isinstance(target, ast.Name)
    }


def _heap_pushes(
    node: ast.AST, names: set[str]
) -> Iterator[tuple[ast.Call, set[str]]]:
    """Every ``heapq.heappush`` call under ``node``, with the priority
    names bound by the functions enclosing it."""
    for child in ast.iter_child_nodes(node):
        scope = names
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = names | _priority_names(child)
        if (
            isinstance(child, ast.Call)
            and dotted_name(child.func) == "heapq.heappush"
        ):
            yield child, scope
        yield from _heap_pushes(child, scope)


@register
class EventPriorityRule(Rule):
    code = "SIM004"
    name = "event-priority-registry"
    summary = (
        "unique literal int PRIORITY per event type; heap key pinned to "
        "(time, PRIORITY, sequence, event)"
    )

    def check(self, module: ModuleInfo, project: Project) -> list[Finding]:
        findings: list[Finding] = []
        priorities: dict[int, str] = {}
        declared: set[str] = set()
        stride = _round_stride(module.tree)
        for stmt in module.tree.body:
            if not isinstance(stmt, ast.ClassDef):
                continue
            assignment = _priority_assignment(stmt)
            if assignment is None:
                continue
            declared.add(stmt.name)
            node, value = assignment
            priority = const_int(value)
            if priority is None:
                findings.append(
                    self.finding(
                        module,
                        node,
                        f"`{stmt.name}.PRIORITY` must be a literal int "
                        "(got a non-constant expression)",
                    )
                )
                continue
            if stride is not None and not 0 <= priority < stride:
                findings.append(
                    self.finding(
                        module,
                        node,
                        f"`{stmt.name}.PRIORITY = {priority}` is outside "
                        f"[0, ROUND={stride}) — its rank would collide with "
                        "a later same-instant round's",
                    )
                )
            if priority in priorities:
                findings.append(
                    self.finding(
                        module,
                        node,
                        f"`{stmt.name}.PRIORITY = {priority}` collides with "
                        f"`{priorities[priority]}` — same-timestamp ordering "
                        "between them falls through to insertion order only",
                    )
                )
            else:
                priorities[priority] = stmt.name
        union_stmt, members = _event_union_members(module.tree)
        if union_stmt is not None and declared:
            for member in members:
                if member not in declared:
                    findings.append(
                        self.finding(
                            module,
                            union_stmt,
                            f"event type `{member}` is in the Event union "
                            "but declares no PRIORITY",
                        )
                    )
        findings.extend(self._check_key_shape(module))
        return findings

    def _check_key_shape(self, module: ModuleInfo) -> list[Finding]:
        findings = []
        for node, names in _heap_pushes(module.tree, set()):
            if len(node.args) < 2 or not isinstance(node.args[1], ast.Tuple):
                continue
            key = node.args[1]
            priority_slots = [
                i
                for i, elt in enumerate(key.elts)
                if _is_priority(elt)
                or (isinstance(elt, ast.Name) and elt.id in names)
            ]
            if not priority_slots:
                continue
            ok = (
                len(key.elts) == 4
                and priority_slots == [1]
                and "seq" in (dotted_name(key.elts[2]) or "").lower()
            )
            if not ok:
                findings.append(
                    self.finding(
                        module,
                        node,
                        "event heap key must be pinned to "
                        "(time, event.PRIORITY, sequence, event)",
                    )
                )
        return findings
