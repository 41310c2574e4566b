"""The GPU block scheduler model.

Section IV-B (Fig. 7, "regular" pattern): *"the GPU scheduler will prefer
lower-numbered blocks during access, but there is no fixed ordering due
to the nondeterminism of the GPU parallelism."*

The scheduler therefore dispatches streams in an order that is mostly
ascending with seeded local jitter, keeps at most ``max_active`` streams
resident on SMs at once (occupancy limit), assigns SM ids round-robin,
and backfills as streams retire.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

from repro.errors import SimulationError
from repro.gpu.table import StreamTable
from repro.gpu.warp import StreamState, WarpStream
from repro.sim.rng import SimRng


class BlockScheduler:
    """Dispatches warp streams onto SMs with bounded occupancy."""

    def __init__(
        self,
        streams: StreamTable | Sequence[WarpStream],
        rng: SimRng,
        max_active: int = 2048,
        n_sms: int = 80,
        jitter: float = 0.08,
    ) -> None:
        if max_active <= 0:
            raise SimulationError(f"max_active must be positive, got {max_active}")
        if n_sms <= 0:
            raise SimulationError(f"n_sms must be positive, got {n_sms}")
        # a table is unpacked into per-stream views; explicit stream
        # objects are driven as given
        self.streams = (
            streams.streams() if isinstance(streams, StreamTable) else list(streams)
        )
        self.max_active = max_active
        self.n_sms = n_sms
        # Dispatch order: ascending with nondeterministic local jitter.
        # The reorder window is physical (bounded by how many blocks are
        # in flight), so it scales with occupancy rather than grid size.
        order = rng.jitter_order(
            len(self.streams), window=max(8.0, jitter * 4 * max_active)
        )
        self._dispatch_order: list[int] = [int(i) for i in order]
        self._next_dispatch = 0
        self._active: list[WarpStream] = []
        self._dispatch_counter = 0

    # -- dispatch -----------------------------------------------------------
    def _dispatch_one(self) -> Optional[WarpStream]:
        while self._next_dispatch < len(self._dispatch_order):
            stream = self.streams[self._dispatch_order[self._next_dispatch]]
            self._next_dispatch += 1
            if stream.state is StreamState.PENDING:
                stream.state = StreamState.RUNNABLE
                stream.sm_id = self._dispatch_counter % self.n_sms
                self._dispatch_counter += 1
                return stream
        return None

    def refill(self) -> int:
        """Dispatch pending streams up to the occupancy limit.

        Returns the number of streams newly dispatched.
        """
        self._active = [s for s in self._active if s.state is not StreamState.DONE]
        dispatched = 0
        while len(self._active) < self.max_active:
            stream = self._dispatch_one()
            if stream is None:
                break
            self._active.append(stream)
            dispatched += 1
        return dispatched

    # -- queries ------------------------------------------------------------
    def active(self) -> list[WarpStream]:
        """Streams currently resident on SMs (RUNNABLE or STALLED)."""
        return [s for s in self._active if s.state is not StreamState.DONE]

    def runnable(self) -> list[WarpStream]:
        return [s for s in self._active if s.state is StreamState.RUNNABLE]

    def stalled(self) -> list[WarpStream]:
        return [s for s in self._active if s.state is StreamState.STALLED]

    def has_stalled(self) -> bool:
        return any(s.state is StreamState.STALLED for s in self._active)

    def all_done(self) -> bool:
        return self._next_dispatch >= len(self._dispatch_order) and all(
            s.state is StreamState.DONE for s in self._active
        ) and all(s.state is not StreamState.PENDING for s in self.streams)

    def wake_all_stalled(self) -> int:
        """Deliver a replay notification: every stalled warp retries.

        Replays are broadcast - "the replay will cause all faulting warps
        to resume, even if the faults are not satisfied" (Section III-E).
        Returns the number of streams woken.
        """
        woken = 0
        for s in self._active:
            if s.state is StreamState.STALLED:
                s.wake()
                woken += 1
        return woken

    def progress(self) -> tuple[int, int]:
        """(streams done, total streams) - for progress reporting."""
        done = sum(1 for s in self.streams if s.state is StreamState.DONE)
        return done, len(self.streams)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        done, total = self.progress()
        return f"BlockScheduler(done={done}/{total}, active={len(self.active())})"
