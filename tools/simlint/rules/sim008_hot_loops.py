"""SIM008 — no per-slot or per-row Python loops in the hot paths.

The serving hot path evaluates all of a window's slots in single array
expressions (:func:`repro.backends.noise.pipelined_fidelities`, the
adapters' vectorized ``_window_offsets``), and the streaming aggregator
folds each 1024-row observation block in array operations; a
per-element Python loop over slot offsets, fidelities or latencies in one
of those modules silently reverts the vectorization — the tests still
pass (the scalar result is bit-identical by contract) but the throughput
trajectory regresses.

The rule watches the designated hot modules (``noise`` / ``fat_tree`` /
``bucket_brigade`` / ``analytic`` / ``encoded`` under ``repro/backends``,
and ``repro/metrics/streaming.py``) and flags a ``for`` loop or
comprehension that

* iterates a slot-valued sequence directly (a name containing ``offset``,
  ``fidelit`` or ``latenc``), bare or wrapped in ``zip`` / ``enumerate`` /
  ``reversed`` / ``sorted``, or
* indexes a slot-valued sequence element-by-element with its own loop
  variable (``start_offsets[s]`` inside ``for s in range(count)``).

Pinned scalar oracles are the sanctioned exception: a function whose name
ends in ``_scalar`` or ``_reference`` is exempt wholesale (the parity
tests need a loop whose evaluation order is self-evident).  Anything else
that genuinely must loop carries an explicit
``# simlint: disable=SIM008`` with a justification.
"""

from __future__ import annotations

import ast
from pathlib import Path

from tools.simlint.astutil import dotted_name
from tools.simlint.framework import Finding, ModuleInfo, Project, Rule, register

#: File names of the designated hot modules (the window-slot math).
_HOT_MODULE_NAMES = frozenset(
    {
        "noise.py",
        "fat_tree.py",
        "bucket_brigade.py",
        "analytic.py",
        "encoded.py",
    }
)

#: Hot modules outside ``repro/backends``, by path suffix.
_HOT_MODULE_PATHS = ("repro/metrics/streaming.py",)

#: Name fragments marking a slot-valued (or block-column) sequence.
_SLOT_FRAGMENTS = ("offset", "fidelit", "latenc")

#: Sequence-shaped wrappers whose arguments keep per-element iteration.
_ITER_WRAPPERS = frozenset({"zip", "enumerate", "reversed", "sorted"})

#: Function-name suffixes exempting a pinned scalar oracle.
_EXEMPT_SUFFIXES = ("_scalar", "_reference")

_LOOP_NODES = (ast.For, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _is_slot_name(name: str | None) -> bool:
    if name is None:
        return False
    terminal = name.rsplit(".", 1)[-1].lower()
    return any(fragment in terminal for fragment in _SLOT_FRAGMENTS)


def _slot_iterable(node: ast.AST) -> str | None:
    """The slot-valued name an iterable expression walks, if any."""
    name = dotted_name(node)
    if _is_slot_name(name):
        return name
    if isinstance(node, ast.Call):
        callee = dotted_name(node.func)
        if callee is not None and callee.rsplit(".", 1)[-1] in _ITER_WRAPPERS:
            for arg in node.args:
                inner = _slot_iterable(arg)
                if inner is not None:
                    return inner
    return None


def _loop_variables(target: ast.AST) -> set[str]:
    """Bare names bound by a loop/comprehension target."""
    return {
        child.id
        for child in ast.walk(target)
        if isinstance(child, ast.Name)
    }


def _targets_and_iters(
    node: ast.AST,
) -> list[tuple[ast.AST, ast.AST, list[ast.AST]]]:
    """(target, iterable, body) triples of a For node or comprehension."""
    if isinstance(node, ast.For):
        return [(node.target, node.iter, list(node.body))]
    if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
        body: list[ast.AST] = (
            [node.key, node.value]
            if isinstance(node, ast.DictComp)
            else [node.elt]
        )
        return [(gen.target, gen.iter, body) for gen in node.generators]
    return []


@register
class HotLoopRule(Rule):
    code = "SIM008"
    name = "hot-path-slot-loops"
    summary = (
        "window-slot math and observation-block folds in the designated "
        "hot modules stay vectorized: no per-element Python loops over "
        "offsets/fidelities/latencies (scalar oracles named "
        "*_scalar/*_reference are exempt)"
    )

    def check(self, module: ModuleInfo, project: Project) -> list[Finding]:
        path = Path(module.rel)
        if path.name not in _HOT_MODULE_NAMES and not path.as_posix().endswith(
            _HOT_MODULE_PATHS
        ):
            return []
        findings: list[Finding] = []
        for fn, node in self._loops_by_function(module.tree):
            if fn is not None and fn.name.endswith(_EXEMPT_SUFFIXES):
                continue
            for target, iterable, body in _targets_and_iters(node):
                slot_name = _slot_iterable(iterable)
                if slot_name is not None:
                    findings.append(
                        self.finding(
                            module,
                            node,
                            f"per-slot loop over `{slot_name}` in hot module "
                            "— evaluate the window in one array expression "
                            "(or name the function *_scalar/*_reference if "
                            "it is a pinned oracle)",
                        )
                    )
                    continue
                bound = _loop_variables(target)
                indexed = self._per_element_subscript(body, bound)
                if indexed is not None:
                    findings.append(
                        self.finding(
                            module,
                            node,
                            f"loop indexes `{indexed}` element by element "
                            "in hot module — evaluate the window in one "
                            "array expression (or name the function "
                            "*_scalar/*_reference if it is a pinned oracle)",
                        )
                    )
        return findings

    @staticmethod
    def _loops_by_function(
        tree: ast.Module,
    ) -> list[tuple[ast.FunctionDef | ast.AsyncFunctionDef | None, ast.AST]]:
        """Every loop node paired with its innermost enclosing function."""
        pairs: list[
            tuple[ast.FunctionDef | ast.AsyncFunctionDef | None, ast.AST]
        ] = []

        def walk(
            node: ast.AST, fn: ast.FunctionDef | ast.AsyncFunctionDef | None
        ) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    walk(child, child)
                    continue
                if isinstance(child, _LOOP_NODES):
                    pairs.append((fn, child))
                walk(child, fn)

        walk(tree, None)
        return pairs

    @staticmethod
    def _per_element_subscript(
        body: list[ast.AST], loop_vars: set[str]
    ) -> str | None:
        """A slot-valued name subscripted by a bare loop variable, if any."""
        if not loop_vars:
            return None
        for stmt in body:
            for node in ast.walk(stmt):
                if not isinstance(node, ast.Subscript):
                    continue
                name = dotted_name(node.value)
                if not _is_slot_name(name):
                    continue
                index = node.slice
                if isinstance(index, ast.Name) and index.id in loop_vars:
                    return name
        return None
