"""Pipeline-affinity batching of queued requests.

Switching the PE array between micro-operator pipelines costs
``reconfigure_cycles`` (Sec. VII-E), so the dispatcher coalesces queued
requests of the *same* pipeline into one batch: only the first frame of
a batch can trigger a pipeline switch on its chip, and every subsequent
frame rides the already-configured array. Batches are anchored at the
oldest queued request, so head-of-line requests are never starved by
younger traffic of a hotter pipeline.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.serve.request import RenderRequest


@dataclass(frozen=True)
class Batch:
    """Same-pipeline requests dispatched to one chip back to back."""

    batch_id: int
    pipeline: str
    requests: tuple[RenderRequest, ...]

    def __len__(self) -> int:
        return len(self.requests)


@dataclass
class BatcherStats:
    batches: int = 0
    requests: int = 0
    sizes: list[int] = field(default_factory=list)


class PipelineBatcher:
    """Forms batches from the pending queue at dispatch time.

    ``max_batch`` bounds how many requests one chip grabs at once, which
    caps the queueing delay a batch can inflict on other pipelines'
    traffic; ``max_batch=1`` degenerates to plain FIFO dispatch.
    """

    def __init__(self, max_batch: int = 8) -> None:
        if max_batch < 1:
            raise ConfigError("max_batch must be >= 1")
        self.max_batch = max_batch
        self.stats = BatcherStats()
        self._next_batch_id = 0

    def next_batch(self, pending: "deque[RenderRequest]") -> Batch:
        """Pop the head request plus queued same-pipeline followers.

        The queue order of untaken requests is preserved.
        """
        if not pending:
            raise ConfigError("cannot batch an empty queue")
        pipeline = pending[0].pipeline
        taken: list[RenderRequest] = []
        kept: list[RenderRequest] = []
        while pending:
            request = pending.popleft()
            if request.pipeline == pipeline and len(taken) < self.max_batch:
                taken.append(request)
            else:
                kept.append(request)
        pending.extend(kept)
        return self.make_batch(pipeline, taken)

    def make_batch(self, pipeline: str,
                   taken: list[RenderRequest]) -> Batch:
        """Stamp an id onto already-selected requests and count them.

        The event engine selects batch members through its indexed
        pending lanes (same selection rule as :meth:`next_batch`:
        oldest-ready anchor plus queued same-pipeline followers, up to
        ``max_batch``) and hands them here so batch ids and statistics
        stay in one place.
        """
        if not taken:
            raise ConfigError("cannot form an empty batch")
        batch = Batch(self._next_batch_id, pipeline, tuple(taken))
        self._next_batch_id += 1
        self.stats.batches += 1
        self.stats.requests += len(taken)
        self.stats.sizes.append(len(taken))
        return batch

    def retract(self, batch: Batch) -> None:
        """Un-count a staged batch that preemption displaced.

        The members go back to the pending queue and will form a new
        batch (with a new id) later, so leaving the displaced batch in
        the statistics would double-count its requests.
        """
        self.stats.batches -= 1
        self.stats.requests -= len(batch)
        # Any equal-sized entry is interchangeable in the size histogram.
        self.stats.sizes.remove(len(batch))
