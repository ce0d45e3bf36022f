"""Bounded worker pool with backpressure.

The daemon's sessions parse requests on their reader threads but run
handlers on this shared pool, so one slow ``speedup_sweep`` never
blocks another session's ``analyze``.  Admission is bounded: once
``max_inflight`` jobs are queued-or-running, :meth:`WorkerPool.submit`
raises :class:`PoolSaturated` and the session answers with the
``OVERLOADED`` (-32029) error instead of buffering unboundedly -- the
JSON-RPC analogue of HTTP 429.
"""

from __future__ import annotations

import queue
import threading
from typing import Callable, List, Optional

#: Queue sentinel that tells a worker to exit.
_STOP = object()


class PoolSaturated(Exception):
    """Raised by :meth:`WorkerPool.submit` once ``max_inflight`` is hit."""

    def __init__(self, max_inflight: int):
        super().__init__(f"worker pool saturated ({max_inflight} in flight)")
        self.max_inflight = max_inflight


class WorkerPool:
    """``workers`` daemon threads draining a bounded job queue.

    Jobs are zero-argument callables that own their whole lifecycle
    (dispatch + response write + error handling); a job that raises
    is swallowed after accounting so one bad request never kills a
    worker.  A job may return a follow-up callable -- the response
    write -- which runs after the job's admission slot is released, so
    a client that sends its next request as soon as it reads a
    response is never refused for the slot of the request it just saw
    answered.
    """

    def __init__(self, workers: int = 4, max_inflight: int = 8):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        self.max_inflight = max_inflight
        self._queue: "queue.Queue" = queue.Queue()
        self._lock = threading.Lock()
        self._inflight = 0
        self._closed = False
        self._threads: List[threading.Thread] = []
        for i in range(workers):
            thread = threading.Thread(
                target=self._worker, name=f"serve-worker-{i}", daemon=True
            )
            thread.start()
            self._threads.append(thread)

    # ------------------------------------------------------------------
    @property
    def inflight(self) -> int:
        """Jobs currently queued or running."""
        with self._lock:
            return self._inflight

    @property
    def workers(self) -> int:
        return len(self._threads)

    def submit(self, job: Callable[[], Optional[Callable[[], None]]]) -> None:
        """Enqueue ``job``; raise :class:`PoolSaturated` over the bound."""
        with self._lock:
            if self._closed:
                raise RuntimeError("pool is closed")
            if self._inflight >= self.max_inflight:
                raise PoolSaturated(self.max_inflight)
            self._inflight += 1
        self._queue.put(job)

    def close(self, wait: bool = True) -> None:
        """Stop accepting jobs; with ``wait`` drain and join the workers."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        for _ in self._threads:
            self._queue.put(_STOP)
        if wait:
            for thread in self._threads:
                thread.join(timeout=10)

    # ------------------------------------------------------------------
    def _worker(self) -> None:
        while True:
            job = self._queue.get()
            if job is _STOP:
                return
            then = None
            try:
                then = job()
            except Exception:  # noqa: BLE001 -- jobs own their errors;
                # a late write to a disconnected client must not kill
                # the worker thread.
                pass
            finally:
                with self._lock:
                    self._inflight -= 1
            if then is not None:
                try:
                    then()
                except Exception:  # noqa: BLE001 -- as above
                    pass
