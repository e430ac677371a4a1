"""Parallel execution of batched I/O streams: rounds are barriers, the
serialized trace stays canonical.

The batched engine (:meth:`repro.em.machine.EMMachine.io_rounds` and its
siblings) models ``t`` independent round-robin streams of ``k`` rounds.
The streams are independent by construction — all reads observe the
pre-call state, writes land on declared index sets — so the *data
movement* of one engine call can fan out across a worker pool exactly
like the SPAA'21 stepping-algorithms framework executes its bucketed
rounds of independent relaxations: rounds are barriers, work within a
round fans out.

:class:`ParallelIOEngine` is that pool.  It parallelizes only the numpy
gather/scatter kernels (NumPy releases the GIL on slice copies); the
machine keeps everything that defines the adversary view — bounds
checks, payload evaluation, ciphertext-version clocks, I/O counters,
trace records, and the ``io_observer`` hook — in the calling thread, in the
exact order of the sequential engine.  The recorded transcript is
therefore **byte-identical** to the sequential engine's; parallelism is
a simulation detail the adversary cannot see, as pinned by
``tests/test_parallel_engine.py`` and the obliviousness harness.

Determinism rules (the reason each task shape below exists):

* *reads shard freely* — a gather never aliases the backing store, so
  range and fancy gathers split into per-worker shards;
* *range scatters shard freely* — a ``(lo, hi):step`` write touches each
  destination once, so shards are disjoint;
* *fancy scatters never shard* — duplicate indices follow last-wins
  sequential semantics, which sharding would race away.  A fancy scatter
  is one task unless the caller vouches the indices are duplicate-free
  (``"ufancy"``, e.g. ``swap_many``'s ``np.unique`` scatter);
* *same-array write streams serialize in stream order* — a later stream
  overwriting an earlier one's range must observe it, so tasks against
  one backing buffer chain while distinct arrays fan out.

The optional ``mode="process"`` path models CPU-bound re-encryption: for
file-backed (memmap) arrays, freshly written shards are mixed through a
keyed splitmix64 kernel (:func:`repro.em.crypto.mix_digest`) inside a
``ProcessPoolExecutor`` — workers open the shared file read-only, so no
array bytes cross process boundaries.  The digest is an engine-level
accumulator (:attr:`ParallelIOEngine.mix_digest`); versions, counters
and the trace are untouched.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait

import numpy as np

__all__ = [
    "ParallelIOEngine",
    "resolve_workers",
    "DEFAULT_MIN_BLOCKS",
    "MIN_SHARD_BLOCKS",
]

#: Blocks of data movement one engine call must cover before the
#: parallel path engages (below it, task-submission overhead dominates
#: the copy itself).  Overridable per machine and via
#: ``REPRO_PARALLEL_MIN_BLOCKS``.
DEFAULT_MIN_BLOCKS = 16384

#: A stream is split into at most ``workers`` shards, but never shards
#: smaller than this — tiny shards are pure overhead.
MIN_SHARD_BLOCKS = 1024

#: Valid :class:`ParallelIOEngine` modes.
MODES = ("thread", "process")


def resolve_workers(parallel_workers: int | None) -> int:
    """Resolve a worker count: an explicit value wins; ``None`` reads
    ``REPRO_PARALLEL_WORKERS`` (unset/empty → 1, the sequential engine).

    The env hook is what lets CI run the whole tier-1 suite under the
    parallel engine without touching any call site.
    """
    if parallel_workers is None:
        env = os.environ.get("REPRO_PARALLEL_WORKERS", "").strip()
        parallel_workers = int(env) if env else 1
    workers = int(parallel_workers)
    if workers < 1:
        raise ValueError(f"parallel_workers must be >= 1, got {workers}")
    return workers


class ParallelIOEngine:
    """A worker pool for the data-movement phase of batched engine calls.

    Parameters
    ----------
    workers:
        Pool size (>= 2; a 1-worker machine never builds an engine).
    mode:
        ``"thread"`` (default) fans the gather/scatter kernels over a
        ``ThreadPoolExecutor``; ``"process"`` additionally routes the
        CPU-bound re-encryption mixing of freshly written *memmap*
        shards through a ``ProcessPoolExecutor`` (shared files, no
        pickled array payloads).
    min_blocks:
        Work threshold per engine call; ``None`` reads
        ``REPRO_PARALLEL_MIN_BLOCKS`` and falls back to
        :data:`DEFAULT_MIN_BLOCKS`.

    The engine keeps busy/span accounting so
    :attr:`repro.em.machine.EMMachine.worker_utilization` and the
    ``CostReport`` counters can report how well the fan-out filled the
    pool — ``busy_seconds`` sums task durations, ``span_seconds`` the
    wall-clock of the parallel phases.
    """

    def __init__(
        self,
        workers: int,
        *,
        mode: str = "thread",
        min_blocks: int | None = None,
    ) -> None:
        if workers < 2:
            raise ValueError(f"ParallelIOEngine needs >= 2 workers, got {workers}")
        if mode not in MODES:
            raise ValueError(f"unknown parallel mode {mode!r}; choose from {MODES}")
        if min_blocks is None:
            env = os.environ.get("REPRO_PARALLEL_MIN_BLOCKS", "").strip()
            min_blocks = int(env) if env else DEFAULT_MIN_BLOCKS
        if min_blocks < 1:
            raise ValueError(f"min_blocks must be >= 1, got {min_blocks}")
        self.workers = workers
        self.mode = mode
        self.min_blocks = min_blocks
        self._pool: ThreadPoolExecutor | None = None
        self._procs = None  # lazy ProcessPoolExecutor (mode="process")
        #: Batched engine calls that took the parallel path.
        self.calls = 0
        #: Summed task durations across all parallel phases.
        self.busy_seconds = 0.0
        #: Summed wall-clock of all parallel phases.
        self.span_seconds = 0.0
        #: XOR-fold of the process-path re-encryption digests (see
        #: :func:`repro.em.crypto.mix_digest`); 0 until ``mode="process"``
        #: mixes its first shard.
        self.mix_digest = 0

    # -- gating ------------------------------------------------------------

    def engages(self, total_blocks: int) -> bool:
        """Whether one call moving ``total_blocks`` blocks is worth
        fanning out."""
        return total_blocks >= self.min_blocks

    # -- gather phase ------------------------------------------------------

    def gather(self, tasks: list[tuple]) -> list[np.ndarray]:
        """Run every gather task, sharded across the pool; one barrier.

        Task shapes: ``("range", data, lo, hi, st, k)`` or
        ``("fancy", data, idx)``.  Bounds were checked by the caller.
        Returns one fresh output array per task, in task order.
        """
        outs: list[np.ndarray] = []
        jobs: list = []
        for task in tasks:
            if task[0] == "range":
                _, data, lo, hi, st, k = task
                out = np.empty((k,) + data.shape[1:], dtype=data.dtype)
                for i0, i1 in self._shards(k):
                    jobs.append(
                        _copy_range_job(out, i0, i1, data, lo + i0 * st, st)
                    )
            else:
                _, data, idx = task
                k = len(idx)
                out = np.empty((k,) + data.shape[1:], dtype=data.dtype)
                for i0, i1 in self._shards(k):
                    jobs.append(_copy_fancy_job(out, i0, i1, data, idx))
            outs.append(out)
        self._run(jobs)
        return outs

    # -- scatter phase -----------------------------------------------------

    def scatter(self, tasks: list[tuple]) -> None:
        """Run every scatter task; same-buffer tasks stay in task order.

        Task shapes: ``("range", data, lo, st, blocks)``,
        ``("fancy", data, idx, blocks)`` (duplicates allowed — one
        unsharded task, last-wins preserved), or
        ``("ufancy", data, idx, blocks)`` (caller-guaranteed unique
        indices — shardable).  Bounds and block shapes were checked by
        the caller; ciphertext versions are the caller's epilogue.
        """
        groups: dict[int, list[tuple]] = {}
        order: list[int] = []
        for task in tasks:
            key = id(task[1])
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append(task)
        jobs: list = []
        for key in order:
            group = groups[key]
            if len(group) == 1:
                task = group[0]
                if task[0] == "range":
                    _, data, lo, st, blocks = task
                    for i0, i1 in self._shards(len(blocks)):
                        jobs.append(
                            _write_range_job(
                                data, lo + i0 * st, st, blocks, i0, i1
                            )
                        )
                elif task[0] == "ufancy":
                    _, data, idx, blocks = task
                    for i0, i1 in self._shards(len(idx)):
                        jobs.append(_write_fancy_job(data, idx, blocks, i0, i1))
                else:
                    jobs.append(_apply_group_job(group))
            else:
                # Several streams write one array: sequential semantics
                # (a later stream overwrites an earlier one) — one task,
                # applied in stream order.
                jobs.append(_apply_group_job(group))
        self._run(jobs)

    # -- process-path re-encryption ---------------------------------------

    def mix_memmap(self, path, shape: tuple, lo: int, hi: int, key: int = 0) -> None:
        """Model CPU-bound re-encryption of freshly written blocks
        ``[lo, hi)`` of the memmap file at ``path`` (``mode="process"``).

        Shards the keyed splitmix64 mixing across worker processes —
        each opens the shared file read-only, so nothing but the digest
        crosses the process boundary — and XOR-folds the results into
        :attr:`mix_digest`.  ``key`` is per *call* (never per shard), so
        the folded digest is independent of the sharding and therefore
        of the worker count.  A no-op outside process mode.
        """
        if self.mode != "process" or hi <= lo:
            return
        from repro.em.crypto import _memmap_mix_shard

        if self._procs is None:
            from concurrent.futures import ProcessPoolExecutor

            self._procs = ProcessPoolExecutor(max_workers=self.workers)
        start = time.perf_counter()
        futures = [
            self._procs.submit(
                _memmap_mix_shard, str(path), tuple(shape), lo + i0, lo + i1, key
            )
            for i0, i1 in self._shards(hi - lo)
        ]
        for fut in futures:
            self.mix_digest ^= fut.result()
        elapsed = time.perf_counter() - start
        self.span_seconds += elapsed
        self.busy_seconds += elapsed  # processes: duration ≈ busy

    # -- teardown ----------------------------------------------------------

    def close(self) -> None:
        """Shut the pools down (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        if self._procs is not None:
            self._procs.shutdown(wait=True)
            self._procs = None

    # -- internals ---------------------------------------------------------

    def _shards(self, k: int) -> list[tuple[int, int]]:
        """Split ``k`` rounds into at most ``workers`` contiguous shards
        of at least :data:`MIN_SHARD_BLOCKS` each."""
        if k <= 0:
            return []
        n = min(self.workers, max(1, k // MIN_SHARD_BLOCKS))
        if n <= 1:
            return [(0, k)]
        step = -(-k // n)
        return [(i, min(i + step, k)) for i in range(0, k, step)]

    def _run(self, jobs: list) -> None:
        """Submit ``jobs`` to the thread pool and barrier on them all,
        accumulating busy/span accounting; errors propagate."""
        if not jobs:
            return
        self.calls += 1
        start = time.perf_counter()
        if len(jobs) == 1:
            # One shard: run inline, no pool round trip.
            jobs[0]()
        else:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.workers,
                    thread_name_prefix="repro-io",
                )
            futures = [self._pool.submit(_timed, job) for job in jobs]
            done, _ = wait(futures, return_when=FIRST_EXCEPTION)
            for fut in futures:
                self.busy_seconds += fut.result()  # re-raises worker errors
        elapsed = time.perf_counter() - start
        self.span_seconds += elapsed
        if len(jobs) == 1:
            self.busy_seconds += elapsed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ParallelIOEngine(workers={self.workers}, mode={self.mode!r}, "
            f"min_blocks={self.min_blocks}, calls={self.calls})"
        )


def _timed(job) -> float:
    t0 = time.perf_counter()
    job()
    return time.perf_counter() - t0


# Job builders: plain closures over ndarray views.  All slicing below is
# shard-disjoint by construction, so concurrent execution is safe on any
# ndarray-backed storage (RAM and memmap alike).


def _copy_range_job(out, i0, i1, data, src_lo, st):
    def job():
        out[i0:i1] = data[src_lo : src_lo + (i1 - i0) * st : st]

    return job


def _copy_fancy_job(out, i0, i1, data, idx):
    def job():
        out[i0:i1] = data[idx[i0:i1]]

    return job


def _write_range_job(data, dst_lo, st, blocks, i0, i1):
    def job():
        data[dst_lo : dst_lo + (i1 - i0) * st : st] = blocks[i0:i1]

    return job


def _write_fancy_job(data, idx, blocks, i0, i1):
    def job():
        data[idx[i0:i1]] = blocks[i0:i1]

    return job


def _apply_group_job(group):
    def job():
        for task in group:
            if task[0] == "range":
                _, data, lo, st, blocks = task
                data[lo : lo + len(blocks) * st : st] = blocks
            else:
                _, data, idx, blocks = task
                data[idx] = blocks

    return job
