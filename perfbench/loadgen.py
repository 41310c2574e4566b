"""Single-thread open-loop load generator.

Jobs are submitted when they are due, whether or not earlier jobs have
finished (independent users: an open loop).  Between submissions the
generator polls its outstanding jobs and fetches each result document
once the job is done.  Latency runs from a job's *due* time to the moment
its result document has been fetched, so a stall in the generator or the
system is charged to every job it delays; how late the generator sent
each job is reported separately.

The clock, the sleep and the transport are injected, so the timing rules
can be tested under a fake clock.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Protocol

TERMINAL = ("done", "failed", "cancelled", "poisoned")
#: status-poll interval for queued jobs.
POLL_S = 0.05
#: A job's first poll comes ``POLL_S * frac(index * GOLDEN)`` after its
#: submission.  With one shared phase, jobs of similar run time are all
#: seen on the same poll, their latencies cluster on ``POLL_S`` steps, and
#: a median sitting between two clusters jumps a whole step from run to
#: run; golden-ratio phases spread the polls evenly over the interval.
GOLDEN = 0.6180339887498949
#: how long outstanding jobs may stay unfinished after the last arrival.
DRAIN_TIMEOUT_S = 60.0


class Transport(Protocol):
    """What the generator needs from a service client."""

    def submit(self, spec: dict[str, Any]) -> dict[str, Any]: ...
    def status(self, job_id: str) -> dict[str, Any]: ...
    def result(self, job_id: str) -> dict[str, Any]: ...


@dataclass
class JobOutcome:
    """One arrival's fate.  ``latency_s`` is ``inf`` for a failed job, so
    it misses every latency limit."""

    index: int
    due_s: float
    spec: dict[str, Any]
    late_s: float = 0.0
    job_id: Optional[str] = None
    hit: bool = False
    shard: Optional[str] = None
    latency_s: float = math.inf
    error: Optional[str] = None
    doc: Optional[dict[str, Any]] = field(default=None, repr=False)
    #: clock reading at which the generator next polls this job.
    next_poll_s: float = 0.0

    @property
    def failed(self) -> bool:
        return self.error is not None


class OpenLoop:
    """Drive ``arrivals`` (``(due_s, spec)`` pairs, due times relative to
    the start of :meth:`run`) through ``transport``.

    ``check(outcome)`` is called with every fetched document and returns
    an error message (the job then fails) or ``None``.
    """

    def __init__(
        self,
        arrivals: list[tuple[float, dict[str, Any]]],
        transport: Transport,
        clock: Callable[[], float],
        sleep: Callable[[float], None],
        check: Optional[Callable[[JobOutcome], Optional[str]]] = None,
    ) -> None:
        self.outcomes = [JobOutcome(i, due, spec) for i, (due, spec) in enumerate(arrivals)]
        self.transport = transport
        self.clock = clock
        self.sleep = sleep
        self.check = check
        self.start_s = 0.0

    # Deadlines are kept as absolute clock readings: sleeping for
    # ``deadline - clock()`` then always reaches the deadline, where a
    # time relative to the start could stay a rounding step short of it.
    def _due_at(self, job: JobOutcome) -> float:
        return self.start_s + job.due_s

    def _fetch(self, job: JobOutcome) -> None:
        job.doc = self.transport.result(job.job_id)
        job.latency_s = self.clock() - self._due_at(job)
        if self.check is not None:
            job.error = self.check(job)
            if job.error is not None:
                job.latency_s = math.inf

    def _settle(self, job: JobOutcome, record: dict[str, Any]) -> None:
        if record["state"] == "done":
            self._fetch(job)
        else:
            job.error = f"job ended {record['state']}: {record.get('error')}"

    def _guard(self, job: JobOutcome, step: Callable[[], None]) -> bool:
        """Run one transport step; any exception fails the job."""
        try:
            step()
        except Exception as exc:  # noqa: BLE001 - every failure is counted
            job.error = f"{type(exc).__name__}: {exc}"
            job.latency_s = math.inf
            return False
        return True

    def _submit(self, job: JobOutcome, outstanding: list[JobOutcome]) -> None:
        job.late_s = self.clock() - self._due_at(job)

        def step() -> None:
            record = self.transport.submit(job.spec)
            job.job_id = record["job_id"]
            job.shard = record.get("shard")
            job.hit = record["state"] == "done"
            if record["state"] in TERMINAL:
                self._settle(job, record)
            else:
                job.next_poll_s = self.clock() + POLL_S * (job.index * GOLDEN % 1.0)
                outstanding.append(job)

        self._guard(job, step)

    def _poll(self, job: JobOutcome, outstanding: list[JobOutcome]) -> None:
        def step() -> None:
            record = self.transport.status(job.job_id)
            if record["state"] in TERMINAL:
                outstanding.remove(job)
                self._settle(job, record)
            else:
                job.next_poll_s = self.clock() + POLL_S

        if not self._guard(job, step) and job in outstanding:
            outstanding.remove(job)

    def run(self) -> list[JobOutcome]:
        self.start_s = self.clock()
        pending = list(reversed(self.outcomes))
        outstanding: list[JobOutcome] = []
        drain_deadline = math.inf
        while pending or outstanding:
            now = self.clock()
            if pending and self._due_at(pending[-1]) <= now:
                self._submit(pending.pop(), outstanding)
                continue
            if not pending and drain_deadline == math.inf:
                drain_deadline = now + DRAIN_TIMEOUT_S
            if now > drain_deadline:
                for job in outstanding:
                    job.error = f"still pending {DRAIN_TIMEOUT_S:.0f}s after the last arrival"
                break
            ready = [j for j in outstanding if j.next_poll_s <= now]
            if ready:
                self._poll(min(ready, key=lambda j: j.next_poll_s), outstanding)
                continue
            wake = [j.next_poll_s for j in outstanding]
            wake.append(self._due_at(pending[-1]) if pending else drain_deadline)
            self.sleep(max(0.0, min(wake) - now))
        return self.outcomes
