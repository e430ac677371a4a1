"""Access traces — the adversary's transcript.

Bob observes, for each of Alice's I/Os, the operation kind (read or write),
which array it touched, and the block address.  He does *not* observe block
contents (they are semantically encrypted, see :mod:`repro.em.crypto`).

The obliviousness contract of the paper (§1) says the *distribution* of
this transcript must be independent of the data values; because all of our
randomized algorithms draw from an explicit seeded generator, fixing the
seed makes the transcript a deterministic function of ``(P, N, M, B)``, so
the verifier can demand byte-identical transcripts across adversarially
chosen inputs.

What is stored
--------------

The transcript is kept as a *descriptor log*, one entry per bulk call,
not one row per event.  A call of ``k`` rounds over ``t`` streams emits
the events ``s0[0], s1[0], …, s(t-1)[0], s0[1], …`` (the round-robin
order of :meth:`repro.em.machine.EMMachine.io_rounds`).  The log holds:

* per call, its first event number, its first stream and ``(k, t)``;
* per stream, ``(op, array_id, lo, step)``: event ``j`` of a range
  stream touches block ``lo + j * step``.  A scalar event is a one-round
  stream with ``step = 0``, and consecutive scalar events share one call;
* a copy of the index array of every *fancy* stream (``step`` is
  :data:`FANCY` and ``lo`` is the offset of the copy), and the rows of
  fully general batches (``step`` is :data:`ROWS`; op and array id then
  come from the row, too).

Call and stream columns are flat ``array('q')`` buffers, so an append is
O(1) Python work however many blocks the call moves, and a retained
session costs a few words per call instead of 24 bytes per event.

When rows exist
---------------

Never at append time.  Reading a window — :meth:`as_array`, the
fingerprints, ``__getitem__``, ``__iter__``, :meth:`address_histogram` —
expands just the calls overlapping it, in one vectorized pass, into the
same ``(n, 3)`` C-contiguous int64 ``(op, array_id, index)`` rows the
historical row store held.  The rows are transient: they are returned
or hashed, never retained.

Why the exported bytes are unchanged
------------------------------------

The expansion reproduces the event order the scalar loop would have
emitted, row for row, so every export, digest and canonical renaming is
byte-identical to the eager row store's; the differential tests in
``tests/test_em_trace_log.py`` compare the two on random call mixes.
"""

from __future__ import annotations

import hashlib
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from enum import IntEnum
from typing import Iterator, Sequence

import numpy as np

__all__ = ["Op", "TraceEvent", "AccessTrace", "FANCY", "ROWS"]

#: ``step`` of a stream whose indices were copied into the index store.
FANCY = -1
#: ``step`` of a stream whose whole rows were copied into the row store.
ROWS = -2


class Op(IntEnum):
    """Operation kinds visible to the adversary."""

    READ = 0
    WRITE = 1
    ALLOC = 2
    FREE = 3


@dataclass(frozen=True)
class TraceEvent:
    """One adversary-visible event: ``op`` on block ``index`` of ``array_id``.

    For ``ALLOC`` events, ``index`` carries the array length in blocks (the
    adversary can see how much space Alice provisions).
    """

    op: Op
    array_id: int
    index: int


def _grown(buf: np.ndarray, need: int) -> np.ndarray:
    """``buf`` reallocated (contents kept) to hold at least ``need`` rows."""
    out = np.empty((max(need, 2 * len(buf), 1024),) + buf.shape[1:], dtype=np.int64)
    out[: len(buf)] = buf
    return out


class AccessTrace:
    """Append-only transcript of adversary-visible events, stored as a
    descriptor log and expanded to rows only when a window is read (see
    the module docstring)."""

    __slots__ = (
        "_starts", "_calls", "_streams", "_idx", "_nidx", "_rows", "_nrows",
        "_n", "_open", "enabled",
    )

    def __init__(self) -> None:
        #: When False, the ``record*`` methods are no-ops.  Benchmarks that
        #: only need I/O counts can disable tracing to cut overhead.
        self.enabled: bool = True
        self.clear()

    # -- appending ---------------------------------------------------------

    def record_rounds(self, rounds: int, streams: Sequence[int]) -> None:
        """Append one bulk call: ``rounds`` rounds over the streams in
        ``streams``, a flat ``(op, array_id, lo, step)`` sequence per
        stream (see the module docstring for ``lo``/``step``)."""
        width = len(streams) >> 2
        if not self.enabled or rounds <= 0 or not width:
            return
        s = self._streams
        self._starts.append(self._n)
        self._calls.extend((len(s) >> 2, rounds, width))
        s.extend(streams)
        self._n += rounds * width

    def store_indices(self, indices: np.ndarray) -> int:
        """Copy a fancy stream's index array into the log; returns the
        ``lo`` of its :data:`FANCY` stream descriptor."""
        off = self._nidx
        end = off + len(indices)
        if end > len(self._idx):
            self._idx = _grown(self._idx, end)
        self._idx[off:end] = indices
        self._nidx = end
        return off

    def record(self, op: Op, array_id: int, index: int) -> None:
        """Append one event (no-op when tracing is disabled)."""
        if not self.enabled:
            return
        calls = self._calls
        if self._open == len(calls):
            calls[-1] += 1  # widen the open run of scalar events
        else:
            self._starts.append(self._n)
            calls.extend((len(self._streams) >> 2, 1, 1))
            self._open = len(calls)
        self._streams.extend((op, array_id, index, 0))
        self._n += 1

    def record_batch(self, op: Op, array_id: int, indices: np.ndarray) -> None:
        """Append one event per index, all with the same ``op``/``array_id``,
        in the order of ``indices`` — as if :meth:`record` had been called
        once per index."""
        if not self.enabled:
            return
        indices = np.asarray(indices, dtype=np.int64).ravel()
        if len(indices):
            self.record_rounds(
                len(indices), (op, array_id, self.store_indices(indices), FANCY)
            )

    def record_events(
        self,
        ops: np.ndarray | int,
        array_ids: np.ndarray | int,
        indices: np.ndarray,
    ) -> None:
        """Append fully general event columns (each scalar or length-k);
        the emitted order is the row order of the columns."""
        if not self.enabled:
            return
        indices = np.asarray(indices, dtype=np.int64).ravel()
        k = len(indices)
        if k == 0:
            return
        rows = np.empty((k, 3), dtype=np.int64)
        rows[:, 0] = ops
        rows[:, 1] = array_ids
        rows[:, 2] = indices
        self.append_rows(rows)

    def append_rows(self, rows: np.ndarray) -> None:
        """Append pre-built ``(k, 3)`` int64 event rows (copied; no-op when
        tracing is disabled)."""
        if not self.enabled:
            return
        k = len(rows)
        if k == 0:
            return
        off = self._nrows
        end = off + k
        if end > len(self._rows):
            self._rows = _grown(self._rows, end)
        self._rows[off:end] = rows
        self._nrows = end
        self.record_rounds(k, (0, 0, off, ROWS))

    # -- reading -----------------------------------------------------------

    def __len__(self) -> int:
        return self._n

    def __iter__(self) -> Iterator[TraceEvent]:
        for op, arr, idx in self.as_array().tolist():
            yield TraceEvent(Op(op), arr, idx)

    def __getitem__(self, i: int) -> TraceEvent:
        n = self._n
        if i < 0:
            i += n
        if not (0 <= i < n):
            raise IndexError(f"event {i} out of range for trace of {n}")
        op, arr, idx = self._expand(i, i + 1)[0][0].tolist()
        return TraceEvent(Op(op), arr, idx)

    def mark(self) -> int:
        """Return the current transcript position (event count).

        Pass the returned value to :meth:`as_array` / :meth:`fingerprint`
        as ``since`` to export or digest only the events recorded after
        the mark.  This is how the session facade and the pipeline
        executor snapshot *per-call* fingerprints without clearing the
        transcript — earlier history (e.g. ORAM traffic on the same
        machine) is preserved.
        """
        self._open = -1  # a window starting here starts at a call
        return self._n

    def _expand(self, lo: int, hi: int, canonical: bool = False) -> tuple:
        """Rows ``[lo, hi)`` (``0 <= lo < hi <= len``) as a C-contiguous
        ``(hi - lo, 3)`` int64 array, expanded from the calls overlapping
        the window; with ``canonical``, also the window's canonical
        array-id column (see :meth:`as_array`), else ``None``."""
        c0 = bisect_right(self._starts, lo) - 1
        c1 = bisect_right(self._starts, hi - 1)
        # Copy the window's descriptors out of the append buffers, binding
        # no name to a buffer view: an array('q') whose buffer is exported
        # cannot grow, so no view may outlive this call.
        base = self._starts[c0]
        first, rounds, width = (
            np.frombuffer(self._calls, dtype=np.int64).reshape(-1, 3)[c0:c1].T.copy()
        )
        s0 = int(first[0])
        first -= s0
        table = np.frombuffer(self._streams, dtype=np.int64).reshape(-1, 4)[s0:]
        step = table[:, 3].copy()
        table = table[:, :3].copy()
        # Per round of every call: its width, first stream and round number.
        width = np.repeat(width, rounds)
        stream = np.repeat(first, rounds)
        j = np.arange(len(width), dtype=np.int64)
        j -= np.repeat(np.cumsum(rounds) - rounds, rounds)
        # Per event: round-robin over the round's streams.
        offset = np.cumsum(width)
        offset -= width
        stream -= offset
        e = np.repeat(stream, width)
        e += np.arange(len(e), dtype=np.int64)
        j = np.repeat(j, width)
        out = np.take(table, e, axis=0)  # op, array id, lo
        idx = out[:, 2]
        jstep = np.take(step, e)
        jstep *= j
        idx += jstep
        irregular = step < 0
        rows_logged = False
        if irregular.any():
            at = np.flatnonzero(np.take(irregular, e))
            kind = np.take(step, e[at])
            pos = np.take(table[:, 2], e[at]) + j[at]
            fancy = kind == FANCY
            idx[at[fancy]] = self._idx[pos[fancy]]
            rows = np.flatnonzero(~fancy)
            rows_logged = len(rows) > 0
            out[at[rows]] = self._rows[pos[rows]]
        out = out[lo - base : hi - base]
        if not canonical:
            return out, None
        if lo == base and hi == self._n and not rows_logged:
            # Every stream of the window's calls occurs in it, and round 0
            # of each call visits its streams in order, so first
            # appearances follow the stream table: rename the (short)
            # table's ids, then spread them over the events.
            return out, np.take(self._rename(table[:, 1].copy()), e)
        return out, self._rename(out[:, 1].copy())

    @staticmethod
    def _rename(ids: np.ndarray) -> np.ndarray:
        """Renumber a 1-D id sequence in place by first appearance (0, 1,
        2, …) — O(n + id span), no sort of the sequence."""
        n = len(ids)
        ids -= int(ids.min())
        if int(ids.max()) > 4 * n:
            # Sparse ids (a short window late in a long session): compact
            # them first; sorting a short sequence is cheap.
            ids[:] = np.unique(ids, return_inverse=True)[1]
        first = np.full(int(ids.max()) + 1, n, dtype=np.int64)
        np.minimum.at(first, ids, np.arange(n, dtype=np.int64))
        seen = np.flatnonzero(first < n)
        rank = np.empty(len(first), dtype=np.int64)
        rank[seen[np.argsort(first[seen])]] = np.arange(len(seen))
        ids[:] = rank[ids]
        return ids

    def as_array(self, since: int = 0, *, canonical: bool = False) -> np.ndarray:
        """Export the transcript (from event ``since`` on) as an
        ``(n, 3)`` int64 array.

        ``canonical=True`` renumbers the array-id column by first
        appearance within the exported window (0, 1, 2, …): the
        adversary view *up to array renaming*.  Two windows with
        identical operations, sizes and block indices but shifted
        absolute allocation counters — e.g. the same pipeline step run
        after a different number of earlier allocations — export
        identically.
        """
        since = max(0, since)
        if self._n <= since:
            return np.empty((0, 3), dtype=np.int64)
        arr, ids = self._expand(since, self._n, canonical)
        if canonical:
            arr[:, 1] = ids
        return arr

    def fingerprint_pair(self, since: int = 0) -> tuple[str, str]:
        """``(fingerprint, canonical fingerprint)`` of one window, from a
        single expansion — the pipeline executor computes both per step."""
        since = max(0, since)
        if self._n <= since:
            empty = hashlib.sha256(b"").hexdigest()
            return empty, empty
        arr, ids = self._expand(since, self._n, True)
        plain = hashlib.sha256(arr).hexdigest()
        arr[:, 1] = ids
        return plain, hashlib.sha256(arr).hexdigest()

    def fingerprint(self, since: int = 0, *, canonical: bool = False) -> str:
        """Return a SHA-256 digest of the transcript.

        Two runs are indistinguishable to the adversary iff their
        fingerprints match (up to the negligible collision probability).
        ``since`` (a :meth:`mark` value) digests only the suffix recorded
        after the mark — the digest of that suffix equals the digest an
        empty trace would have produced for the same events.
        ``canonical=True`` digests the renamed-array view (see
        :meth:`as_array`) — equal across runs that differ only in how
        many arrays existed before the window.
        """
        return hashlib.sha256(self.as_array(since, canonical=canonical)).hexdigest()

    def shape_fingerprint(self) -> str:
        """Digest of the transcript's *shape*: ops and array ids, without
        block indices.

        ORAM-based algorithms are oblivious in distribution rather than
        trace-identical under a fixed seed (their probe positions are
        fresh randomness), but their shape — which arrays are touched, in
        what order, by which operation — is a fixed function of the
        public parameters and must match exactly.
        """
        arr = self.as_array()[:, :2]
        return hashlib.sha256(np.ascontiguousarray(arr)).hexdigest()

    def clear(self) -> None:
        """Forget all recorded events."""
        self._starts = array("q")
        self._calls = array("q")
        self._streams = array("q")
        self._idx = np.empty(0, dtype=np.int64)
        self._nidx = 0
        self._rows = np.empty((0, 3), dtype=np.int64)
        self._nrows = 0
        self._n = 0
        #: ``len(_calls)`` while the last call is a run of scalar events.
        self._open = -1

    def address_histogram(self) -> dict[tuple[int, int, int], int]:
        """Return counts of each distinct event — used by the statistical
        (cross-seed) obliviousness checks."""
        arr = self.as_array()
        if not len(arr):
            return {}
        uniq, counts = np.unique(arr, axis=0, return_counts=True)
        return {
            (int(op), int(a), int(i)): int(c)
            for (op, a, i), c in zip(uniq, counts)
        }
