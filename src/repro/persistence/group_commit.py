"""Group commit: one ``fsync`` shared by a batch of concurrent writers.

Under ``fsync=always`` every committed statement pays a full disk
flush before it is acknowledged -- the P6 benchmark puts that at
~13.7x the in-memory cost, and it serialises the whole server behind
the disk.  But durability only requires that a statement's WAL record
is on disk *before the client sees the acknowledgement*; it does not
require a private flush.  Group commit exploits that:

* writers append their WAL record without syncing (the manager runs
  with the ``off`` policy, so appends are buffered writes);
* each writer then awaits :meth:`GroupCommitter.wait_durable` with the
  store LSN its commit reached (= the LSN of its record);
* the first waiter starts a drain task which captures the newest
  appended LSN, runs one ``fsync`` in a worker thread, and releases
  every waiter at or below the captured LSN.

While the fsync runs in the worker thread the event loop keeps
executing other sessions' statements, whose records pile up behind it;
the next fsync covers all of them at once.  Under load the batch size
approaches the number of concurrent writers, and the per-statement
fsync cost shrinks by the same factor -- with exactly the same
guarantee as ``fsync=always``: an acknowledged statement is on disk.

The drain loop and the waiters all live on one asyncio event loop;
only the ``fsync`` itself runs in a thread (appending to the WAL from
the loop thread while the worker thread fsyncs it is safe -- the file
is unbuffered, so both are single system calls on one descriptor, and
records appended mid-fsync are simply not counted as durable until the
next batch).
"""

from __future__ import annotations

import asyncio

from repro.errors import PersistenceError
from repro.persistence.manager import PersistenceManager


class GroupCommitter:
    """Batches durability waits for one :class:`PersistenceManager`."""

    def __init__(self, manager: PersistenceManager):
        self._manager = manager
        self._durable_lsn = manager.store.lsn
        self._waiters: list[tuple[int, asyncio.Future]] = []
        self._drain_task: asyncio.Task | None = None
        #: number of fsync batches issued
        self.batches = 0
        #: total waiters released (== durable statements acknowledged)
        self.synced_waiters = 0
        #: largest number of waiters released by a single fsync
        self.max_batch = 0

    @property
    def durable_lsn(self) -> int:
        """Highest LSN known to be on disk."""
        return self._durable_lsn

    def stats(self) -> dict[str, int]:
        """Batch counters (for the admin/stats endpoint)."""
        return {
            "batches": self.batches,
            "synced_waiters": self.synced_waiters,
            "max_batch": self.max_batch,
            "durable_lsn": self._durable_lsn,
            "pending_waiters": len(self._waiters),
        }

    async def wait_durable(self, lsn: int) -> None:
        """Block until the record with *lsn* is on disk.

        Returns immediately when a previous batch already covered the
        LSN; otherwise joins the next batch.
        """
        if lsn <= self._durable_lsn:
            return
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._waiters.append((lsn, future))
        if self._drain_task is None or self._drain_task.done():
            self._drain_task = loop.create_task(self._drain())
        await future

    async def _drain(self) -> None:
        loop = asyncio.get_running_loop()
        while self._waiters:
            # Yield once so statements already scheduled on the loop
            # can commit and enqueue before the fsync is issued --
            # they ride this batch instead of paying for their own.
            await asyncio.sleep(0)
            target = self._manager.store.lsn
            try:
                await loop.run_in_executor(None, self._manager.sync)
            except Exception as error:  # pragma: no cover - disk failure
                failure = PersistenceError(
                    f"group commit fsync failed: {error}"
                )
                for __, future in self._waiters:
                    if not future.done():
                        future.set_exception(failure)
                self._waiters.clear()
                return
            self._durable_lsn = max(self._durable_lsn, target)
            released = [
                future for lsn, future in self._waiters if lsn <= target
            ]
            self._waiters = [
                (lsn, future)
                for lsn, future in self._waiters
                if lsn > target
            ]
            self.batches += 1
            self.synced_waiters += len(released)
            self.max_batch = max(self.max_batch, len(released))
            for future in released:
                if not future.done():
                    future.set_result(None)

    async def close(self) -> None:
        """Flush any pending batch and stop the drain task."""
        task = self._drain_task
        if task is not None and not task.done():
            await task
