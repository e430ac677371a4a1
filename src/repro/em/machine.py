"""The external-memory machine: Alice's view of the world.

``EMMachine(M, B)`` bundles the client cache, the server-side arrays, the
I/O counters and the access trace.  Every algorithm in the library takes a
machine (or an array belonging to one) and performs all server access via
:meth:`read` / :meth:`write` or their batched counterparts, so I/O counts
and traces are complete by construction.

The batched engine
------------------

The scalar :meth:`read`/:meth:`write` pair models one I/O per Python call;
at scale the interpreter overhead of that call dominates the simulation.
The batched entry points amortize it into vectorized gather/scatter
kernels (:meth:`repro.em.storage.StorageBackend.gather` / ``scatter``)
while emitting *exactly* the event sequence the equivalent scalar loop
would have produced:

* :meth:`read_many` / :meth:`write_many` — one operation over many
  indices, events in index order;
* :meth:`copy_many` — the fused ``write(dst, read(src))`` loop, events
  interleaved ``R, W, R, W, ...``;
* :meth:`swap_many` — the fused sequential swap loop of the Knuth
  shuffle, events ``R i, R j, W i, W j`` per pair;
* :meth:`io_rounds` — the general form: ``t`` parallel I/O streams
  interleaved round-robin, exactly the trace of a scalar loop running one
  operation per stream per iteration.

Because the trace and the counters are identical to the scalar
formulation, obliviousness arguments transfer verbatim.

Each bulk call appends *one* descriptor to the trace log
(:mod:`repro.em.trace`): its round count plus, per stream, the op, the
array id and ``(lo, step)`` — or, for an index-array stream, a copy of
the indices.  No event rows are built while the algorithm runs; they are
expanded only when a window of the transcript is read or hashed, and
they come out byte-identical to the rows the scalar loop would have
recorded, so every fingerprint is unchanged.  An all-range
:meth:`io_rounds` batch on the sequential engine is parsed once: its
bounds and shape checks ride along in the gather and scatter passes.

The *modeled*
private-memory residency is what the cache leases account for — the
algorithm's claim of how many blocks it holds at once, which the scans
keep within ``M/B``.  The engine itself may stage more blocks physically
while replaying a fixed event pattern (the same affordance the
historical ``read_range`` provided); that is a simulation detail, never
part of the model.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.em.block import RECORD_WIDTH
from repro.em.cache import ClientCache
from repro.em.errors import EMError
from repro.em.parallel import MODES, ParallelIOEngine, resolve_workers
from repro.em.storage import EMArray, MemoryBackend, StorageBackend
from repro.em.trace import FANCY, AccessTrace, Op

__all__ = ["EMMachine", "IOMeter", "IOStep"]

#: One stream of a fused :meth:`EMMachine.io_rounds` batch: ``("r", arr,
#: indices)`` or ``("w", arr, indices, blocks_or_fn)``.
IOStep = tuple

_OP_READ = int(Op.READ)
_OP_WRITE = int(Op.WRITE)


def _first_read(reads: list) -> np.ndarray:
    """:meth:`EMMachine.copy_many`'s payload: the blocks its read stream
    gathered."""
    return reads[0]


@dataclass
class IOMeter:
    """Counts of I/Os observed between two points in time.

    ``batches``/``batched_ios`` describe how much of the traffic went
    through the batched engine (one "batch" per bulk call; ``batched_ios``
    is the number of I/Os those calls covered).  ``parallel_rounds``
    counts the rounds whose data movement fanned out across the
    parallel engine's workers (0 on a sequential machine);
    ``worker_utilization`` is the measured busy/(span·workers) fraction
    of those fan-outs — wall-clock derived, so never part of any
    byte-equality contract.
    """

    reads: int = 0
    writes: int = 0
    batches: int = 0
    batched_ios: int = 0
    parallel_rounds: int = 0
    busy_seconds: float = 0.0
    span_seconds: float = 0.0
    workers: int = 1

    @property
    def total(self) -> int:
        return self.reads + self.writes

    @property
    def mean_batch_size(self) -> float:
        """Average I/Os per batched call (0.0 when nothing was batched)."""
        return self.batched_ios / self.batches if self.batches else 0.0

    @property
    def worker_utilization(self) -> float:
        """Fraction of the worker pool kept busy during parallel phases
        (0.0 when nothing ran parallel)."""
        if self.span_seconds <= 0.0 or self.workers < 1:
            return 0.0
        return min(1.0, self.busy_seconds / (self.span_seconds * self.workers))


class EMMachine:
    """An external-memory machine with cache size ``M`` and block size ``B``.

    Parameters
    ----------
    M:
        Client private memory, in *words* (records).  Must be at least
        ``2 * B`` (the weakest assumption any algorithm in the paper makes).
    B:
        Words per block, ``B >= 1``.
    trace:
        Record the adversary-visible access trace (default True).  Large
        benchmark runs may disable it; I/O counters are always maintained.
    backend:
        Storage backend providing the server-side buffers (default:
        :class:`repro.em.storage.MemoryBackend`).  Backends change where
        the bytes live, never the I/O counts or the trace.
    owns_backend:
        Whether :meth:`close` closes the backend (default True).  The
        service layer shares one backend across many machines and passes
        ``False`` so a session teardown frees its own arrays without
        destroying its neighbours' storage.
    parallel_workers:
        Fan the data movement of large batched calls across this many
        workers (:class:`repro.em.parallel.ParallelIOEngine`).  ``None``
        (default) reads ``REPRO_PARALLEL_WORKERS`` and falls back to 1
        — the sequential engine.  Counters, ciphertext versions and the
        trace are maintained by the calling thread in sequential order
        either way, so the adversary view is byte-identical for every
        worker count.
    parallel_mode:
        ``"thread"`` (default) or ``"process"`` — see
        :class:`repro.em.parallel.ParallelIOEngine`.
    parallel_min_blocks:
        Blocks one batched call must move before it fans out (``None``:
        ``REPRO_PARALLEL_MIN_BLOCKS`` or the module default).
    """

    def __init__(
        self,
        M: int,
        B: int,
        *,
        trace: bool = True,
        backend: StorageBackend | None = None,
        owns_backend: bool = True,
        parallel_workers: int | None = None,
        parallel_mode: str = "thread",
        parallel_min_blocks: int | None = None,
    ) -> None:
        if B < 1:
            raise ValueError(f"block size B must be >= 1, got {B}")
        if M < 2 * B:
            raise ValueError(f"private memory M={M} violates M >= 2B (B={B})")
        self.M = M
        self.B = B
        if parallel_mode not in MODES:
            raise ValueError(
                f"unknown parallel mode {parallel_mode!r}; choose from {MODES}"
            )
        self.parallel_workers = resolve_workers(parallel_workers)
        self.parallel_mode = parallel_mode
        self._parallel = (
            ParallelIOEngine(
                self.parallel_workers,
                mode=parallel_mode,
                min_blocks=parallel_min_blocks,
            )
            if self.parallel_workers > 1
            else None
        )
        #: Rounds whose data movement took the parallel engine (one unit
        #: per round of an engaged batch, mirroring how ``reads`` counts
        #: I/Os); always 0 on a sequential machine.
        self.parallel_rounds = 0
        self.cache = ClientCache(M // B)
        self.trace = AccessTrace()
        self.trace.enabled = trace
        self.backend = backend if backend is not None else MemoryBackend()
        self.owns_backend = owns_backend
        #: Optional ``fn(rounds, streams)`` called once per I/O entry
        #: point with the round-robin shape of the batch (``rounds``
        #: iterations of ``streams`` parallel streams).  The service's
        #: cross-session batcher listens here; the hook observes only
        #: batch *shapes* — public schedule information — never data.
        self.io_observer = None
        self.reads = 0
        self.writes = 0
        self.batch_count = 0
        self.batched_io_count = 0
        #: Largest single client→server upload, in records — the peak
        #: client-side residency a plan demanded.  Streamed sources keep
        #: this at one chunk where a one-shot upload pays the full ``n``.
        self.peak_upload_records = 0
        #: Client↔server round trips: bulk uploads of problem instances
        #: (:meth:`load_records`) and bulk downloads of final outputs
        #: (:meth:`extract_records`).  Server-local handoffs
        #: (:meth:`repack_resident`) move nothing across the link and are
        #: not counted — this is what lets a pipeline prove it paid for
        #: exactly one load and one extract.
        self.client_loads = 0
        self.client_extracts = 0
        self._arrays: dict[int, EMArray] = {}
        self._next_id = 0

    # -- model parameters -------------------------------------------------

    @property
    def m(self) -> int:
        """Number of blocks that fit in private memory (``M // B``)."""
        return self.M // self.B

    @property
    def total_ios(self) -> int:
        """Total I/Os performed since construction."""
        return self.reads + self.writes

    @property
    def resident_bytes(self) -> int:
        """Bytes of server storage held by this machine's live arrays."""
        return sum(arr._data.nbytes for arr in self._arrays.values())

    # -- allocation --------------------------------------------------------

    def alloc(self, num_blocks: int, name: str = "") -> EMArray:
        """Allocate a server-side array of ``num_blocks`` blocks.

        Allocation is adversary-visible (Bob provisions the space), so an
        ``ALLOC`` event carrying the length is traced.
        """
        arr = EMArray(
            self._next_id,
            name or f"arr{self._next_id}",
            num_blocks,
            self.B,
            backend=self.backend,
        )
        self._arrays[arr.array_id] = arr
        self._next_id += 1
        self.trace.record(Op.ALLOC, arr.array_id, num_blocks)
        return arr

    def alloc_cells(self, num_cells: int, name: str = "") -> EMArray:
        """Allocate an array with room for at least ``num_cells`` records."""
        num_blocks = -(-num_cells // self.B) if num_cells > 0 else 0
        return self.alloc(num_blocks, name)

    def free(self, arr: EMArray) -> None:
        """Release a server-side array (adversary-visible)."""
        if arr.array_id not in self._arrays:
            raise EMError(f"array {arr.name!r} is not owned by this machine")
        del self._arrays[arr.array_id]
        self.backend.release(arr._data)
        self.trace.record(Op.FREE, arr.array_id, arr.num_blocks)

    # -- client↔server bulk transfer and server-local handoff -------------
    #
    # These are *setup/teardown* affordances, like ``EMArray.load_flat``:
    # they move whole problem instances across the client↔server link (or,
    # for ``repack_resident``, within the server) outside the I/O model —
    # the model's block-I/O cost only covers the algorithms themselves.
    # The round-trip counters make the data-movement story auditable.

    def load_records(self, records: np.ndarray, name: str = "") -> EMArray:
        """Upload ``records`` from the client into a fresh minimally-sized
        server array (one client→server round trip).

        Allocates ``ceil(max(1, len(records)) / B)`` blocks and bulk-loads
        the records, preserving their layout (``NULL_KEY`` rows included,
        so sparse compaction instances survive the trip).
        """
        arr = self.alloc_cells(max(1, len(records)), name)
        arr.load_flat(records)
        self.client_loads += 1
        self.peak_upload_records = max(self.peak_upload_records, len(records))
        return arr

    def begin_chunked_load(self, total_records: int, name: str = "") -> EMArray:
        """Provision the server array for a chunked upload.

        Emits exactly the ``ALLOC`` event :meth:`load_records` would for
        ``total_records`` records — the adversary sees the same public
        total either way — but moves no data yet: chunks arrive via
        :meth:`load_chunk`.  The fresh array's cells are all empty
        (``NULL_KEY``), matching a one-shot upload padded to the total.
        """
        if total_records < 0:
            raise ValueError(
                f"total_records must be non-negative, got {total_records}"
            )
        return self.alloc_cells(max(1, total_records), name)

    def load_chunk(
        self, arr: EMArray, offset_records: int, records: np.ndarray
    ) -> None:
        """Upload one mini-batch into cells ``[offset, offset+len)`` of a
        :meth:`begin_chunked_load` array (one client→server round trip).

        Like :meth:`load_records` this is a setup affordance outside the
        block-I/O model: nothing is traced (the ``ALLOC`` already pinned
        the public total, and the chunk *schedule* is public via
        :attr:`client_loads`), but each chunk pays one round trip and
        only ``len(records)`` records ever sit client-side.
        """
        self._own(arr)
        records = np.asarray(records, dtype=np.int64)
        if records.ndim != 2 or records.shape[1] != RECORD_WIDTH:
            raise ValueError(
                f"records must have shape (n, 2), got {records.shape}"
            )
        end = offset_records + len(records)
        if offset_records < 0 or end > arr.num_cells:
            raise ValueError(
                f"chunk cells [{offset_records}, {end}) out of range for "
                f"array '{arr.name}' of {arr.num_cells} cells"
            )
        flat = arr._data.reshape(-1, RECORD_WIDTH)
        flat[offset_records:end] = records
        self.client_loads += 1
        self.peak_upload_records = max(self.peak_upload_records, len(records))

    def extract_records(self, arr: EMArray) -> np.ndarray:
        """Download the non-empty records of ``arr`` to the client (one
        server→client round trip)."""
        self.client_extracts += 1
        return arr.nonempty()

    def repack_resident(
        self, arr: EMArray, name: str = "", *, keep_layout: bool = False
    ) -> np.ndarray:
        """Server-local handoff: return ``arr``'s records and free it,
        *without* a client round trip.

        The pipeline executor uses this between steps: the server packs an
        intermediate's records (a server-local operation in a real
        deployment — the data never crosses the client↔server link, so
        :attr:`client_loads` / :attr:`client_extracts` are untouched) and
        the executor immediately re-stages them into the next step's input
        array via :meth:`stage_records`.

        ``keep_layout=True`` returns *every* cell — NULL padding included
        — so the handoff size is the layout's public cell count rather
        than the data-dependent surviving count.  This is the
        selectivity-hiding path for padded intermediates (masking scans,
        joins, group-by, streamed sources): the adversary-visible size of
        the next step stays a function of public bounds only.
        """
        records = arr.flat() if keep_layout else arr.nonempty()
        self.free(arr)
        return records

    def stage_records(self, records: np.ndarray, name: str = "") -> EMArray:
        """Stage already-server-resident ``records`` into a fresh
        minimally-sized array (the second half of a server-local handoff;
        no client round trip, no modeled I/O)."""
        arr = self.alloc_cells(max(1, len(records)), name)
        arr.load_flat(records)
        return arr

    # -- scalar block I/O --------------------------------------------------

    def read(self, arr: EMArray, index: int) -> np.ndarray:
        """Read block ``index`` of ``arr`` into private memory (1 I/O)."""
        self._own(arr)
        block = arr._read(index)
        self.reads += 1
        self._notify_io(1, 1)
        self.trace.record(Op.READ, arr.array_id, index)
        return block

    def write(self, arr: EMArray, index: int, block: np.ndarray) -> None:
        """Write ``block`` to block ``index`` of ``arr`` (1 I/O).

        The server stores a fresh ciphertext regardless of whether the
        plaintext changed — the version bump in
        :class:`repro.em.crypto.CiphertextVersions` models re-encryption.
        """
        self._own(arr)
        arr._write(index, np.asarray(block, dtype=np.int64))
        self.writes += 1
        self._notify_io(1, 1)
        self.trace.record(Op.WRITE, arr.array_id, index)

    # -- batched block I/O -------------------------------------------------
    #
    # Every batched entry point accepts either an explicit 1-D int64 index
    # array or a contiguous ``(lo, hi)`` tuple.  Ranges are the fast path:
    # O(1) bounds checks and slice-based gather/scatter instead of fancy
    # indexing — the dominant case, since hot loops scan in chunks.

    def read_many(self, arr: EMArray, indices) -> np.ndarray:
        """Read the indexed blocks (``k`` I/Os) as ``(k, B, 2)``.

        ``indices`` is a 1-D index array or a ``(lo, hi)`` range tuple.
        The trace records one READ per index, in index order — identical
        to a scalar ``read`` loop.  Callers must chunk requests so the
        returned blocks fit the private memory they have reserved.
        """
        blocks = self._rounds((("r", arr, indices),))[0][0]
        if blocks is None:
            blocks = self._check_empty(arr, indices)
        return blocks

    def write_many(self, arr: EMArray, indices, blocks: np.ndarray) -> None:
        """Write ``blocks[t]`` to block ``indices[t]`` (``k`` I/Os).

        One WRITE event per index, in index order; duplicate indices
        behave like the equivalent sequential loop (last write wins).
        """
        blocks = np.asarray(blocks, dtype=np.int64)
        if not self._rounds((("w", arr, indices, blocks),))[1]:
            self._check_empty(arr, indices, blocks)

    def copy_many(self, src: EMArray, src_indices, dst: EMArray, dst_indices) -> None:
        """Fused ``write(dst, d[t], read(src, s[t]))`` loop (``2k`` I/Os).

        Trace: ``R src s[0], W dst d[0], R src s[1], W dst d[1], ...`` —
        byte-identical to the scalar copy loop.  ``src`` and ``dst`` may
        be the same array as long as no destination index is also a
        *later* source index (the gather happens before the scatter).
        """
        steps = (("r", src, src_indices), ("w", dst, dst_indices, _first_read))
        if not self._rounds(steps)[1]:
            self._check_empty(dst, dst_indices, self._check_empty(src, src_indices))

    def swap_many(self, arr: EMArray, left, right) -> None:
        """Fused sequential swap loop: for each ``t``, swap blocks
        ``left[t]`` and ``right[t]`` of ``arr`` (``4k`` I/Os).

        Semantics are *sequential*: swap ``t`` observes the effect of
        swaps ``0..t-1`` (the Knuth-shuffle contract).  The engine applies
        the composed permutation in one gather/scatter; the trace is the
        scalar loop's ``R l, R r, W l, W r`` per pair and every touched
        position is re-encrypted per write, in write order.
        """
        self._own(arr)
        if type(left) is tuple:
            left = np.arange(*left, dtype=np.int64)
        if type(right) is tuple:
            right = np.arange(*right, dtype=np.int64)
        lidx = self._as_indices(left)
        ridx = self._as_indices(right)
        if len(lidx) != len(ridx):
            raise ValueError(
                f"left and right counts differ ({len(lidx)} != {len(ridx)})"
            )
        k = len(lidx)
        if k == 0:
            return
        arr._check_many(lidx)
        arr._check_many(ridx)
        uniq, inv = np.unique(np.concatenate([lidx, ridx]), return_inverse=True)
        engine = self._engine_for(2 * len(uniq))
        if engine is None:
            values = arr.backend.gather(arr._data, uniq)
        else:
            values = engine.gather([("fancy", arr._data, uniq)])[0]
        # Compose the swaps on private index labels (cheap ints, no block
        # movement), then apply the permutation to the gathered blocks.
        cur = np.arange(len(uniq), dtype=np.int64)
        li, ri = inv[:k], inv[k:]
        for t in range(k):
            a, b = li[t], ri[t]
            cur[a], cur[b] = cur[b], cur[a]
        if engine is None:
            arr.backend.scatter(arr._data, uniq, values[cur])
        else:
            # ``uniq`` is duplicate-free by construction, so the scatter
            # may shard ("ufancy") without racing last-wins semantics.
            engine.scatter([("ufancy", arr._data, uniq, values[cur])])
            self.parallel_rounds += k
            self._par_mix(engine, arr, int(uniq[0]), int(uniq[-1]) + 1)
        widx = np.empty(2 * k, dtype=np.int64)
        widx[0::2] = lidx
        widx[1::2] = ridx
        arr.versions.reencrypt_many(widx)
        self.reads += 2 * k
        self.writes += 2 * k
        self._count_batch(4 * k)
        self._notify_io(k, 4)
        if self.trace.enabled:
            left = self._desc(_OP_READ, arr, 0, 0, lidx)
            right = self._desc(_OP_READ, arr, 0, 0, ridx)
            self.trace.record_rounds(
                k, left + right + (_OP_WRITE,) + left[1:] + (_OP_WRITE,) + right[1:]
            )

    def io_rounds(self, steps: Sequence[IOStep]) -> list[np.ndarray | None]:
        """Run ``t`` parallel I/O streams interleaved round-robin.

        ``steps`` is a sequence of ``("r", arr, indices)`` read streams
        and ``("w", arr, indices, blocks)`` write streams whose index
        arrays (1-D int64, or contiguous ``(lo, hi)`` tuples) all share
        one length ``k``.  The emitted events are::

            step0[0], step1[0], ..., stepT[0], step0[1], step1[1], ...

        — exactly the trace of the scalar loop ``for j in range(k): <one
        op per stream>``, which is how every rewritten hot loop proves its
        transcript unchanged.

        A write stream's ``blocks`` may be a ``(k, B, 2)`` array or a
        callable ``fn(reads) -> (k, B, 2)`` invoked after all gathers,
        where ``reads`` is this function's return value (entries are the
        gathered blocks for read streams, ``None`` for write streams).
        All reads observe the machine state *before* the call; a caller
        whose later rounds depend on earlier rounds' writes must
        compensate in the payload callable (see ``thinning_pass``) or
        split the batch.

        If a payload callable raises, the whole batch is abandoned —
        nothing is counted or traced.  Error transcripts therefore are
        not byte-stable against the scalar engine (which recorded events
        up to the failing block); every such error aborts the attempt,
        so only success transcripts carry obliviousness claims.

        Returns the per-step list of gathered read results.
        """
        return self._rounds(steps)[0] if steps else []

    def _rounds(self, steps: Sequence[IOStep]) -> tuple[list, int]:
        """The one bulk-I/O path behind every batched entry point: runs
        ``steps`` as :meth:`io_rounds` documents and returns ``(results,
        k)``.  With ``k == 0`` nothing is moved, counted, traced or
        validated beyond stream parsing."""
        if self._parallel is not None:
            k = self._span(steps[0][2])[4]
            engine = self._engine_for(k * len(steps))
            if engine is not None:
                return self._rounds_parallel(engine, steps), k
        # Sequential engine: one pass parses, bounds-checks and gathers
        # every stream (reads see the pre-call state) and builds its trace
        # descriptor; a second runs the payloads and scatters the write
        # streams in stream order.  Range checks are inline predicates
        # that defer to EMArray's checkers only to raise their errors.
        arrays = self._arrays
        trace = self.trace
        desc: list | None = [] if trace.enabled else None
        k = -1
        results: list[np.ndarray | None] = []
        writes: list[tuple] = []
        for step in steps:
            kind = step[0]
            arr = step[1]
            if arrays.get(arr.array_id) is not arr:
                self._own(arr)
            indices = step[2]
            if type(indices) is tuple:
                lo, hi, st = indices if len(indices) == 3 else (*indices, 1)
                idx = None
                kk = 0 if hi <= lo else hi - lo if st == 1 else len(range(lo, hi, st))
            else:
                lo, hi, st, idx, kk = self._span(indices)
            if kk != k:
                if k >= 0:
                    raise ValueError(
                        f"io_rounds streams disagree on length ({kk} != {k})"
                    )
                k = kk
            if kind == "r":
                op = _OP_READ
                if not k:
                    results.append(None)
                elif idx is None:
                    if lo < 0 or st < 1 or lo + (k - 1) * st >= arr.num_blocks:
                        arr._check_range(lo, hi, st)
                    results.append(arr._data[lo:hi:st].copy())
                else:
                    results.append(arr._gather(idx))
            elif kind == "w":
                op = _OP_WRITE
                results.append(None)
                writes.append((arr, lo, hi, st, idx, step[3]))
            else:
                raise ValueError(f"unknown io_rounds step kind {kind!r}")
            if desc is not None:
                desc += (
                    (op, arr.array_id, lo, st)
                    if idx is None
                    else self._desc(op, arr, lo, st, idx)
                )
        if k == 0:
            return results, 0
        shape = (k, self.B, RECORD_WIDTH)
        for arr, lo, hi, st, idx, payload in writes:
            blocks = payload(results) if callable(payload) else payload
            blocks = np.asarray(blocks, dtype=np.int64)
            if idx is None:
                if (
                    lo < 0 or st < 1 or lo + (k - 1) * st >= arr.num_blocks
                    or blocks.shape != shape
                ):
                    arr._check_scatter_range(lo, hi, blocks, st)
                arr._data[lo:hi:st] = blocks
                arr.versions.reencrypt_range(lo, hi, st)
            else:
                arr._scatter(idx, blocks)
        t = len(steps)
        self.reads += k * (t - len(writes))
        self.writes += k * len(writes)
        self._count_batch(k * t)
        self._notify_io(k, t)
        if desc is not None:
            trace.record_rounds(k, desc)
        return results, k

    def _rounds_parallel(self, engine, steps) -> list[np.ndarray | None]:
        """:meth:`_rounds` through the parallel engine: one barrier per
        phase.  All reads observe the pre-call state, so every gather
        fans out together; payloads then run in the calling thread in
        stream order; the scatters fan out with same-array streams kept
        in stream order by the engine; and the ciphertext-version
        epilogue replays the sequential engine's per-stream re-encryption
        order exactly."""
        k = -1
        parsed: list[tuple] = []
        for step in steps:
            kind = step[0]
            if kind not in ("r", "w"):
                raise ValueError(f"unknown io_rounds step kind {kind!r}")
            arr = step[1]
            self._own(arr)
            lo, hi, st, idx, kk = self._span(step[2])
            if k >= 0 and kk != k:
                raise ValueError(
                    f"io_rounds streams disagree on length ({kk} != {k})"
                )
            k = kk
            parsed.append((kind, arr, lo, hi, st, idx, step[3] if kind == "w" else None))
        gather_tasks: list[tuple] = []
        for kind, arr, lo, hi, st, idx, _ in parsed:
            if kind == "r":
                if idx is None:
                    arr._check_range(lo, hi, st)
                    gather_tasks.append(("range", arr._data, lo, hi, st, k))
                else:
                    arr._check_many(idx)
                    gather_tasks.append(("fancy", arr._data, idx))
        gathered = iter(engine.gather(gather_tasks))
        results = [next(gathered) if p[0] == "r" else None for p in parsed]
        write_streams: list[tuple] = []
        scatter_tasks: list[tuple] = []
        for kind, arr, lo, hi, st, idx, payload in parsed:
            if kind != "w":
                continue
            blocks = payload(results) if callable(payload) else payload
            blocks = np.asarray(blocks, dtype=np.int64)
            if idx is None:
                arr._check_scatter_range(lo, hi, blocks, st)
                scatter_tasks.append(("range", arr._data, lo, st, blocks))
            else:
                arr._check_scatter(idx, blocks)
                scatter_tasks.append(("fancy", arr._data, idx, blocks))
            write_streams.append((arr, lo, hi, st, idx))
        engine.scatter(scatter_tasks)
        for arr, lo, hi, st, idx in write_streams:
            if idx is None:
                arr.versions.reencrypt_range(lo, hi, st)
                self._par_mix(engine, arr, lo, hi)
            elif len(idx):
                arr.versions.reencrypt_many(idx)
                self._par_mix(engine, arr, int(idx.min()), int(idx.max()) + 1)
        self.parallel_rounds += k
        self.reads += k * (len(parsed) - len(write_streams))
        self.writes += k * len(write_streams)
        self._count_batch(k * len(parsed))
        self._notify_io(k, len(parsed))
        if self.trace.enabled:
            desc: list[int] = []
            for kind, arr, lo, _, st, idx, _ in parsed:
                desc += self._desc(_OP_READ if kind == "r" else _OP_WRITE, arr, lo, st, idx)
            self.trace.record_rounds(k, desc)
        return results

    def read_range(self, arr: EMArray, start: int, count: int) -> np.ndarray:
        """Read ``count`` consecutive blocks (``count`` I/Os) as one array.

        Returns shape ``(count, B, 2)``.  A thin wrapper over
        :meth:`read_many`; the trace records each block read
        individually, as the adversary would see them.
        """
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        return self.read_many(arr, (start, start + count))

    def write_range(self, arr: EMArray, start: int, blocks: np.ndarray) -> None:
        """Write consecutive ``blocks`` starting at ``start`` (len I/Os)."""
        blocks = np.asarray(blocks, dtype=np.int64)
        if blocks.ndim != 3 or blocks.shape[1:] != (self.B, RECORD_WIDTH):
            raise ValueError(
                f"blocks must have shape (k, {self.B}, {RECORD_WIDTH}), "
                f"got {blocks.shape}"
            )
        count = blocks.shape[0]
        self.write_many(arr, (start, start + count), blocks)

    # -- metering ------------------------------------------------------------

    def reset_counters(self) -> None:
        """Zero the cumulative I/O, batch and round-trip counters (the
        trace is untouched)."""
        self.reads = 0
        self.writes = 0
        self.batch_count = 0
        self.batched_io_count = 0
        self.client_loads = 0
        self.client_extracts = 0
        self.peak_upload_records = 0
        self.parallel_rounds = 0

    @property
    def worker_utilization(self) -> float:
        """Cumulative busy/(span·workers) of the parallel engine (0.0 on
        a sequential machine or before the first fan-out)."""
        eng = self._parallel
        if eng is None or eng.span_seconds <= 0.0:
            return 0.0
        return min(1.0, eng.busy_seconds / (eng.span_seconds * eng.workers))

    @contextmanager
    def metered(self) -> Iterator[IOMeter]:
        """Measure the I/Os performed inside a ``with`` body.

        Yields an :class:`IOMeter` whose ``reads``/``writes`` (and batch
        statistics) are filled in when the body exits (normally or via an
        exception) — no hand-subtraction of ``total_ios`` snapshots
        required.
        """
        start_r, start_w = self.reads, self.writes
        start_b, start_bio = self.batch_count, self.batched_io_count
        start_pr = self.parallel_rounds
        eng = self._parallel
        start_busy = eng.busy_seconds if eng is not None else 0.0
        start_span = eng.span_seconds if eng is not None else 0.0
        m = IOMeter()
        try:
            yield m
        finally:
            m.reads = self.reads - start_r
            m.writes = self.writes - start_w
            m.batches = self.batch_count - start_b
            m.batched_ios = self.batched_io_count - start_bio
            m.parallel_rounds = self.parallel_rounds - start_pr
            if eng is not None:
                m.busy_seconds = eng.busy_seconds - start_busy
                m.span_seconds = eng.span_seconds - start_span
                m.workers = eng.workers

    # -- teardown ------------------------------------------------------------

    def close(self) -> None:
        """Release every server array, then close the storage backend if
        this machine owns it (shared service backends stay open)."""
        for arr in list(self._arrays.values()):
            self.free(arr)
        if self._parallel is not None:
            self._parallel.close()
        if self.owns_backend:
            self.backend.close()

    # -- internals -------------------------------------------------------------

    @staticmethod
    def _as_indices(indices) -> np.ndarray:
        idx = np.asarray(indices, dtype=np.int64)
        if idx.ndim != 1:
            raise ValueError(f"indices must be 1-D, got shape {idx.shape}")
        return idx

    @staticmethod
    def _span(indices) -> tuple:
        """``(lo, hi, step, idx, k)`` of one stream's ``indices``: a
        ``(lo, hi[, step])`` range (``idx`` None) or a 1-D index array
        (``lo, hi, step`` unused)."""
        if type(indices) is tuple:
            lo, hi, step = indices if len(indices) == 3 else (*indices, 1)
            if hi <= lo:
                return lo, hi, step, None, 0
            return lo, hi, step, None, hi - lo if step == 1 else len(range(lo, hi, step))
        idx = EMMachine._as_indices(indices)
        return 0, 0, 1, idx, len(idx)

    def _desc(self, op: int, arr: EMArray, lo: int, step: int, idx) -> tuple:
        """The trace descriptor ``(op, array_id, lo, step)`` of one stream
        as :meth:`_span` parsed it; a fancy stream's indices are copied
        into the trace log (see :mod:`repro.em.trace`)."""
        if idx is None:
            return (op, arr.array_id, lo, step)
        return (op, arr.array_id, self.trace.store_indices(idx), FANCY)

    def _engine_for(self, total_blocks: int) -> ParallelIOEngine | None:
        """The parallel engine, iff one exists and ``total_blocks`` of
        data movement clears its engagement threshold."""
        eng = self._parallel
        if eng is not None and eng.engages(total_blocks):
            return eng
        return None

    def _check_empty(self, arr: EMArray, indices, blocks=None):
        """Validate a bulk request that turned out to cover no blocks the
        way a non-empty one is validated (nothing is moved, counted or
        traced); returns the empty gather of a read."""
        lo, hi, st, idx, _ = self._span(indices)
        if blocks is None:
            return arr._gather_range(lo, hi, st) if idx is None else arr._gather(idx)
        if idx is None:
            arr._check_scatter_range(lo, hi, blocks, st)
        else:
            arr._check_scatter(idx, blocks)

    def _par_mix(self, engine, arr, lo, hi) -> None:
        """Process-mode hook: model CPU-bound re-encryption of the
        freshly written block envelope ``[lo, hi)`` for file-backed
        arrays.  The envelope depends only on the call's index set —
        never on sharding — so the folded digest is worker-independent."""
        if engine.mode != "process" or hi <= lo:
            return
        path_of = getattr(arr.backend, "path_of", None)
        if path_of is None:
            return
        path = path_of(arr._data)
        if path is not None:
            engine.mix_memmap(path, arr._data.shape, lo, hi)

    def _count_batch(self, ios: int) -> None:
        if ios > 0:
            self.batch_count += 1
            self.batched_io_count += ios

    def _notify_io(self, rounds: int, streams: int) -> None:
        if self.io_observer is not None and rounds > 0:
            self.io_observer(rounds, streams)

    def _own(self, arr: EMArray) -> None:
        if self._arrays.get(arr.array_id) is not arr:
            raise EMError(f"array {arr.name!r} is not owned by this machine")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"EMMachine(M={self.M}, B={self.B}, reads={self.reads}, "
            f"writes={self.writes}, arrays={len(self._arrays)})"
        )
