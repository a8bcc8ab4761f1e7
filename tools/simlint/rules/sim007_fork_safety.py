"""SIM007 — fork-safety of worker-dispatched state.

The parallel serving core (:mod:`repro.engine.parallel`) runs partitions
in ``fork``-start worker processes: children inherit the parent's memory
copy-on-write, then diverge.  Two classes of state silently break under
that model:

* **module-global mutable caches** — a dict/list/set named like a cache
  (``*cache*`` / ``*registry*`` / ``*memo*``) that the code mutates:
  every forked worker fills its own private copy (no sharing, no
  prewarm benefit) and the parent never observes invalidations a worker
  performs.  Shared derived state must be routed through
  :class:`repro.schedule_cache.ScheduleCacheRegistry`, which is built to
  be fork-aware: prewarmed before the fork and keyed by memory image.
* **fork-divergent RNG** — an RNG constructed without an explicit seed
  (``numpy.random.default_rng()``; the stdlib twin is SIM001's), or
  seeded from process identity or host wall time (``os.getpid()``,
  ``time.time()``...): each worker draws a different stream, so results
  depend on the worker count — exactly the nondeterminism the
  ``workers=N`` bit-identity contract forbids.  Per-worker seeds must
  derive from stable simulation ids (the shard id), never from the
  process.
"""

from __future__ import annotations

import ast

from tools.simlint.astutil import call_name
from tools.simlint.framework import Finding, ModuleInfo, Project, Rule, register
from tools.simlint.rules.sim005_shared_state import (
    _module_globals,
    _mutations_of,
)

#: Module-level names treated as caches (substring match, case-insensitive).
_CACHE_NAME_HINTS = ("cache", "registry", "memo")

#: RNG constructors that draw a fork-divergent stream when unseeded.
#: (``random.Random()`` is already SIM001's; this is the numpy twin.)
_NUMPY_RNG_CALLS = {
    "numpy.random.default_rng",
    "np.random.default_rng",
    "random.default_rng",
    "default_rng",
    "numpy.random.RandomState",
    "np.random.RandomState",
    "RandomState",
}

#: Callees whose arguments are RNG seeds.
_SEED_SINK_SUFFIXES = ("Random", "default_rng", "RandomState", "seed")

#: Calls producing process-identity or host-time values: seeding from any
#: of these makes every forked worker draw a different stream.
_FORK_DIVERGENT_SOURCES = {
    "os.getpid",
    "getpid",
    "os.getppid",
    "multiprocessing.current_process",
    "threading.get_ident",
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "datetime.now",
    "datetime.datetime.now",
    "datetime.utcnow",
    "datetime.datetime.utcnow",
    "uuid.uuid1",
    "uuid.uuid4",
    "uuid1",
    "uuid4",
}


def _is_cache_name(name: str) -> bool:
    lowered = name.lower()
    return any(hint in lowered for hint in _CACHE_NAME_HINTS)


def _divergent_source(node: ast.AST) -> str | None:
    """Dotted name of the first fork-divergent call inside ``node``."""
    for child in ast.walk(node):
        if isinstance(child, ast.Call):
            name = call_name(child)
            if name is None:
                continue
            tail = ".".join(name.split(".")[-2:])
            if name in _FORK_DIVERGENT_SOURCES or tail in _FORK_DIVERGENT_SOURCES:
                return name
    return None


@register
class ForkSafetyRule(Rule):
    code = "SIM007"
    name = "fork-safety"
    summary = (
        "state that diverges across forked workers: mutated module-global "
        "caches outside ScheduleCacheRegistry, unseeded or pid/time-seeded "
        "RNG"
    )

    def check(self, module: ModuleInfo, project: Project) -> list[Finding]:
        findings: list[Finding] = []
        for name, stmt, kind in _module_globals(module.tree):
            if not _is_cache_name(name):
                continue
            sites = _mutations_of(project, name)
            if not sites:
                continue  # read-only tables are fork-safe (inherited as-is)
            where = sites[0]
            findings.append(
                self.finding(
                    module,
                    stmt,
                    f"module-level {kind} `{name}` is a mutated cache "
                    f"({where[0].rel}:{where[1].lineno}) — fork-unsafe: "
                    "each worker fills a private copy-on-write copy and "
                    "invalidations never cross the process boundary; route "
                    "it through repro.schedule_cache.ScheduleCacheRegistry",
                )
            )
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node)
            if name is None:
                continue
            if name in _NUMPY_RNG_CALLS and not node.args and not node.keywords:
                findings.append(
                    self.finding(
                        module,
                        node,
                        f"`{name}()` without a seed is fork-divergent: "
                        "every worker draws a different stream, so results "
                        "depend on the worker count — seed it from a stable "
                        "simulation id (e.g. the shard id)",
                    )
                )
                continue
            if name.rsplit(".", 1)[-1] in _SEED_SINK_SUFFIXES:
                for arg in [*node.args, *(kw.value for kw in node.keywords)]:
                    source = _divergent_source(arg)
                    if source is not None:
                        findings.append(
                            self.finding(
                                module,
                                node,
                                f"RNG seeded from `{source}()` is "
                                "fork-divergent: process identity and host "
                                "time differ per worker — derive per-worker "
                                "seeds from stable simulation ids instead",
                            )
                        )
                        break
        return findings
