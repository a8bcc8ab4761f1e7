"""Pluggable admission policies for queued QRAM requests.

This is the one policy abstraction the scheduler and the serving layer
use; :func:`as_policy` maps plain names onto policy objects.

Policies:

* :class:`FIFOPolicy` — arrival order; provably latency-optimal on a
  pipelined shared QRAM (Sec. A.2).
* :class:`LIFOPolicy` — newest first (the adversarial comparison).
* :class:`RandomPolicy` — uniformly random admission (seeded).
* :class:`PriorityPolicy` — highest :attr:`QueryRequest.priority` first,
  FIFO within a priority level.
* :class:`EDFPolicy` — earliest :attr:`QueryRequest.deadline` first
  (best-effort requests last), the admission order for SLO-bounded
  serving through the discrete-event engine.

Shard *placement* (which backend a request runs on) is a separate
decision: address-interleaved services derive it from the address, while
replicated fleets use shortest-queue placement — see
``QRAMService(placement="shortest-queue")``.
"""

from __future__ import annotations

import math
import random

from repro.core.query import QueryRequest


class AdmissionPolicy:
    """Selects which queued requests enter the next pipeline window.

    ``select`` removes up to ``count`` requests from ``queue`` (in place)
    and returns them in admission order.
    """

    name: str = "admission"

    def select(
        self, queue: list[QueryRequest], count: int, now: float
    ) -> list[QueryRequest]:
        raise NotImplementedError


class FIFOPolicy(AdmissionPolicy):
    """Admit in arrival order (latency-optimal, Sec. A.2)."""

    name = "fifo"

    def select(
        self, queue: list[QueryRequest], count: int, now: float
    ) -> list[QueryRequest]:
        batch = queue[:count]
        del queue[:count]
        return batch


class LIFOPolicy(AdmissionPolicy):
    """Admit newest first."""

    name = "lifo"

    def select(
        self, queue: list[QueryRequest], count: int, now: float
    ) -> list[QueryRequest]:
        return [queue.pop() for _ in range(min(count, len(queue)))]


class RandomPolicy(AdmissionPolicy):
    """Admit uniformly at random (seeded for reproducibility)."""

    name = "random"

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)

    def select(
        self, queue: list[QueryRequest], count: int, now: float
    ) -> list[QueryRequest]:
        return [
            queue.pop(self._rng.randrange(len(queue)))
            for _ in range(min(count, len(queue)))
        ]


class PriorityPolicy(AdmissionPolicy):
    """Admit highest :attr:`QueryRequest.priority` first, FIFO within a level."""

    name = "priority"

    def select(
        self, queue: list[QueryRequest], count: int, now: float
    ) -> list[QueryRequest]:
        order = sorted(
            range(len(queue)),
            key=lambda i: (
                -getattr(queue[i], "priority", 0),
                queue[i].request_time,
                queue[i].query_id,
            ),
        )
        picked = order[: min(count, len(queue))]
        batch = [queue[i] for i in picked]
        for i in sorted(picked, reverse=True):
            del queue[i]
        return batch


class EDFPolicy(AdmissionPolicy):
    """Admit earliest deadline first; best-effort requests (no deadline)
    are served after every deadline-carrying one, FIFO among themselves."""

    name = "edf"

    def select(
        self, queue: list[QueryRequest], count: int, now: float
    ) -> list[QueryRequest]:
        order = sorted(
            range(len(queue)),
            key=lambda i: (
                queue[i].deadline if queue[i].deadline is not None else math.inf,
                queue[i].request_time,
                queue[i].query_id,
            ),
        )
        picked = order[: min(count, len(queue))]
        batch = [queue[i] for i in picked]
        for i in sorted(picked, reverse=True):
            del queue[i]
        return batch


_BY_NAME: dict[str, type[AdmissionPolicy]] = {
    "fifo": FIFOPolicy,
    "lifo": LIFOPolicy,
    "random": RandomPolicy,
    "priority": PriorityPolicy,
    "edf": EDFPolicy,
}


def policy_names() -> tuple[str, ...]:
    """The accepted admission-policy names, sorted (the ``WorkloadSpec`` /
    CLI vocabulary)."""
    return tuple(sorted(_BY_NAME))


def as_policy(
    policy: AdmissionPolicy | str, seed: int = 0
) -> AdmissionPolicy:
    """Coerce any accepted policy designation into an :class:`AdmissionPolicy`.

    Args:
        policy: a policy object (returned as-is) or a name
            ("fifo" / "lifo" / "random" / "priority" / "edf").
        seed: RNG seed used when a :class:`RandomPolicy` must be built.

    Raises:
        KeyError: for unknown policy names.
        TypeError: for unsupported designations.
    """
    if isinstance(policy, AdmissionPolicy):
        return policy
    if isinstance(policy, str):
        name = policy.casefold()
        if name not in _BY_NAME:
            raise KeyError(
                f"unknown policy {policy!r}; expected one of {sorted(_BY_NAME)}"
            )
        cls = _BY_NAME[name]
        return cls(seed) if cls is RandomPolicy else cls()
    raise TypeError(f"cannot interpret {policy!r} as an admission policy")
