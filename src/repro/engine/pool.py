"""A persistent pool of fork-start worker processes.

Both process-parallel layers of this repository need the same plumbing:
fork a handful of workers, feed each a stream of picklable tasks, collect
picklable results without deadlocking on pipe buffers, and re-raise
worker failures deterministically.  Before this module the plumbing lived
inline in :mod:`repro.engine.parallel` (one ephemeral worker per shard
group, one task each); the sweep engine (:mod:`repro.sweep`) needs the
*persistent* form — long-lived workers executing hundreds of scenario
runs so the process-wide :class:`~repro.schedule_cache.ScheduleCacheRegistry`
each worker accumulates is reused across runs instead of being rebuilt by
a fresh fork every time.  :class:`ForkWorkerPool` is the shared core.

Design points:

* **Fork start, nothing pickled on the way in but the task payload.**
  The handler callable (and everything it closes over — fleet objects,
  warm caches) is inherited copy-on-write at fork, exactly like the
  parallel serving workers.  Task payloads and results cross the pipe and
  must pickle.
* **Deterministic routing.**  ``submit(task_id, payload, worker=i)`` pins
  a task to worker ``i % workers`` (cache affinity: the sweep engine
  routes every scenario sharing a fleet fingerprint to the same worker);
  without a hint tasks round-robin in submission order.  Routing affects
  only *where* a task runs, never its result.
* **No submit/collect deadlocks.**  :meth:`map_unordered` interleaves
  submission with collection and bounds the number of in-flight tasks per
  worker (:data:`MAX_INFLIGHT`), so a worker blocked sending a large
  result never faces a parent blocked sending it another task.
* **Worker recycling.**  ``recycle_after=k`` retires each worker after
  ``k`` tasks and forks a fresh one for the next — ``recycle_after=1`` is
  exactly the fork-per-run execution model the persistent pool replaces,
  kept as the honest cold baseline for the sweep benchmarks.
* **Failures are data.**  A task whose handler raises yields an
  ``("error", ...)`` outcome carrying the exception (or a summary when it
  does not pickle); a worker that dies mid-task yields one for every task
  it still owed.  Callers decide how to surface them — both call sites
  collect every outcome first and raise the lowest-task-id failure so the
  raised error is independent of completion order.

Platforms without the ``fork`` start method cannot host the pool;
:func:`fork_available` lets callers degrade to in-process execution (both
call sites do, producing identical results).
"""

from __future__ import annotations

import multiprocessing
from collections import deque
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from multiprocessing.connection import Connection, wait
from typing import Any

__all__ = ["ForkWorkerPool", "PoolTaskError", "TaskOutcome", "fork_available"]

#: Most unfinished tasks outstanding per worker before
#: :meth:`ForkWorkerPool.map_unordered` waits for results; bounds pipe
#: buffering in both directions.
MAX_INFLIGHT = 4


def fork_available() -> bool:
    """Whether this platform can fork pool workers at all."""
    return "fork" in multiprocessing.get_all_start_methods()


@dataclass(frozen=True)
class TaskOutcome:
    """One task's terminal state, as collected from a worker.

    Attributes:
        task_id: the caller's identifier for the task.
        error: ``None`` on success, the worker-side exception otherwise
            (or a ``RuntimeError`` summary when the original would not
            pickle, or when the worker died without reporting).
        result: the handler's return value (``None`` on error).
    """

    task_id: int
    error: BaseException | None
    result: Any = None


class PoolTaskError(RuntimeError):
    """A worker process died without reporting a result for its task."""


def _worker_main(
    task_conn: Connection,
    result_conn: Connection,
    handler: Callable[[Any], Any],
) -> None:
    """Worker body: execute tasks off the pipe until the ``None`` sentinel."""
    try:
        while True:
            message = task_conn.recv()
            if message is None:
                break
            task_id, payload = message
            try:
                result = handler(payload)
            except BaseException as exc:  # noqa: BLE001 - shipped to parent
                try:
                    result_conn.send((task_id, "error", exc))
                except Exception:
                    # The exception itself would not pickle; ship a summary
                    # that still names the failure.
                    result_conn.send(
                        (
                            task_id,
                            "error",
                            RuntimeError(f"{type(exc).__name__}: {exc}"),
                        )
                    )
            else:
                result_conn.send((task_id, "ok", result))
    except EOFError:
        pass
    finally:
        task_conn.close()
        result_conn.close()


@dataclass
class _Worker:
    """Parent-side handle on one live worker process."""

    process: Any
    task_conn: Connection
    result_conn: Connection
    inflight: deque[int]
    tasks_started: int = 0


class ForkWorkerPool:
    """A fixed-size pool of persistent fork-start worker processes.

    Args:
        handler: the function every worker runs per task; called as
            ``handler(payload)`` in the worker and inherited at fork (so
            it may close over arbitrarily heavy state without pickling).
        workers: worker process count (>= 1).
        recycle_after: retire each worker after this many tasks and fork
            a replacement (``None`` = workers live for the pool's whole
            life).  ``recycle_after=1`` reproduces fork-per-task
            execution — every task pays a cold start.

    Use as a context manager (``with ForkWorkerPool(...) as pool``) or
    call :meth:`close` explicitly.
    """

    def __init__(
        self,
        handler: Callable[[Any], Any],
        workers: int,
        *,
        recycle_after: int | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if recycle_after is not None and recycle_after < 1:
            raise ValueError("recycle_after must be None or >= 1")
        if not fork_available():
            raise RuntimeError(
                "ForkWorkerPool requires the 'fork' start method; gate on "
                "fork_available() and run in-process instead"
            )
        self._ctx = multiprocessing.get_context("fork")
        self._handler = handler
        self._recycle_after = recycle_after
        self._rr_next = 0
        self._closed = False
        self._workers: list[_Worker] = [self._spawn() for _ in range(workers)]

    # ------------------------------------------------------------ lifecycle
    def _spawn(self) -> _Worker:
        task_parent, task_child = self._ctx.Pipe(duplex=False)
        result_parent, result_child = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=_worker_main,
            args=(task_parent, result_child, self._handler),
        )
        process.start()
        # The child holds its own ends; the parent must drop them so a dead
        # worker surfaces as EOF instead of a hang.
        task_parent.close()
        result_child.close()
        return _Worker(
            process=process,
            task_conn=task_child,
            result_conn=result_parent,
            inflight=deque(),
        )

    def _retire(self, worker: _Worker) -> None:
        """Shut one worker down (sentinel, join, close pipes)."""
        try:
            worker.task_conn.send(None)
        except (BrokenPipeError, OSError):
            pass
        worker.process.join()
        worker.task_conn.close()
        worker.result_conn.close()

    def close(self) -> None:
        """Retire every worker.  Outstanding tasks are abandoned."""
        if self._closed:
            return
        self._closed = True
        for worker in self._workers:
            self._retire(worker)
        self._workers = []

    def __enter__(self) -> "ForkWorkerPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------ execution
    def _slot(self, worker_hint: int | None) -> int:
        if worker_hint is not None:
            return worker_hint % len(self._workers)
        slot = self._rr_next
        self._rr_next = (self._rr_next + 1) % len(self._workers)
        return slot

    def _send(self, slot: int, task_id: int, payload: Any) -> None:
        worker = self._workers[slot]
        if (
            self._recycle_after is not None
            and worker.tasks_started >= self._recycle_after
        ):
            # The worker reached its recycle budget with no work in
            # flight (map_unordered drains before recycling); replace it
            # with a cold fork.
            assert not worker.inflight
            self._retire(worker)
            worker = self._workers[slot] = self._spawn()
        worker.task_conn.send((task_id, payload))
        worker.tasks_started += 1
        worker.inflight.append(task_id)

    def _collect_ready(self, timeout: float | None) -> list[TaskOutcome]:
        """Receive every result currently available (blocking per ``timeout``)."""
        connections = {
            worker.result_conn: worker
            for worker in self._workers
            if worker.inflight
        }
        if not connections:
            return []
        outcomes: list[TaskOutcome] = []
        for connection in wait(list(connections), timeout=timeout):
            worker = connections[connection]  # type: ignore[index]
            try:
                task_id, status, value = worker.result_conn.recv()
            except EOFError:
                # The worker died.  Every task it still owed is an error;
                # replace the corpse so later submissions have a worker.
                owed = list(worker.inflight)
                worker.inflight.clear()
                worker.process.join()
                slot = self._workers.index(worker)
                worker.task_conn.close()
                worker.result_conn.close()
                self._workers[slot] = self._spawn()
                for task_id in owed:
                    outcomes.append(
                        TaskOutcome(
                            task_id=task_id,
                            error=PoolTaskError(
                                f"pool worker died without reporting a "
                                f"result for task {task_id}"
                            ),
                        )
                    )
                continue
            worker.inflight.remove(task_id)
            if status == "ok":
                outcomes.append(TaskOutcome(task_id=task_id, error=None, result=value))
            else:
                outcomes.append(TaskOutcome(task_id=task_id, error=value))
        return outcomes

    def map_unordered(
        self, tasks: Iterable[tuple[int, Any, int | None]]
    ) -> Iterator[TaskOutcome]:
        """Run tasks across the pool, yielding outcomes as they complete.

        Args:
            tasks: ``(task_id, payload, worker_hint)`` triples.  The hint
                pins the task to ``worker_hint % workers`` (cache
                affinity); ``None`` round-robins.

        Yields one :class:`TaskOutcome` per task, in *completion* order —
        callers needing determinism must reorder by ``task_id`` (both
        call sites do).  Submission interleaves with collection so
        neither direction's pipe can fill while the other end is
        blocked.
        """
        if self._closed:
            raise RuntimeError("the pool is closed")
        pending: dict[int, deque[tuple[int, Any]]] = {
            slot: deque() for slot in range(len(self._workers))
        }
        outstanding = 0
        for task_id, payload, worker_hint in tasks:
            pending[self._slot(worker_hint)].append((task_id, payload))
            outstanding += 1
        while outstanding:
            progressed = False
            for slot, queue in pending.items():
                worker = self._workers[slot]
                recycling = (
                    self._recycle_after is not None
                    and worker.tasks_started >= self._recycle_after
                    and worker.inflight
                )
                while (
                    queue
                    and len(self._workers[slot].inflight) < MAX_INFLIGHT
                    and not recycling
                ):
                    task_id, payload = queue.popleft()
                    self._send(slot, task_id, payload)
                    progressed = True
                    worker = self._workers[slot]
                    recycling = (
                        self._recycle_after is not None
                        and worker.tasks_started >= self._recycle_after
                        and bool(worker.inflight)
                    )
            # Block for results only when nothing could be submitted —
            # otherwise just sweep up whatever is already waiting.
            for outcome in self._collect_ready(
                timeout=None if not progressed else 0
            ):
                outstanding -= 1
                yield outcome

    def run(
        self, tasks: Iterable[tuple[int, Any, int | None]]
    ) -> list[TaskOutcome]:
        """:meth:`map_unordered`, collected and sorted by ``task_id``."""
        outcomes = list(self.map_unordered(tasks))
        outcomes.sort(key=lambda outcome: outcome.task_id)
        return outcomes
