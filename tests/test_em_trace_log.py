"""The descriptor-log trace must read back exactly what an eager row store
would have recorded.

Random programs — scalar, range, strided, fancy, ``copy_many``,
``swap_many``, ``io_rounds``, alloc/free, direct ``record*`` calls,
``mark`` and ``clear`` — run on machines of several ``(M, B)``, including
the forced-parallel engine.  A test-local eager recorder appends, per
operation, the ``(op, array_id, index)`` rows the equivalent scalar loop
emits, and every reader of :class:`~repro.em.trace.AccessTrace` is
compared against it.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.em import AccessTrace, EMMachine
from repro.em.trace import Op, TraceEvent

R, W, A, F = int(Op.READ), int(Op.WRITE), int(Op.ALLOC), int(Op.FREE)


def _canonical(rows: np.ndarray) -> np.ndarray:
    """Reference renaming: array ids by first appearance, via a sort."""
    out = rows.copy()
    if len(out):
        uniq, first = np.unique(out[:, 1], return_index=True)
        ranks = np.empty(len(uniq), dtype=np.int64)
        ranks[np.argsort(first, kind="stable")] = np.arange(len(uniq))
        out[:, 1] = ranks[np.searchsorted(uniq, out[:, 1])]
    return out


def _sha(rows: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(rows).tobytes()).hexdigest()


class Eager:
    """The reference recorder: a plain list of rows."""

    def __init__(self) -> None:
        self.rows: list[tuple[int, int, int]] = []

    def add(self, op: int, array_id: int, indices) -> None:
        self.rows.extend((op, array_id, int(i)) for i in indices)

    def rounds(self, streams: list[tuple[int, int, list[int]]]) -> None:
        for j in range(len(streams[0][2])):
            self.rows.extend((op, aid, idx[j]) for op, aid, idx in streams)

    def array(self) -> np.ndarray:
        return np.asarray(self.rows, dtype=np.int64).reshape(-1, 3)


def _indices(draw, n_blocks: int, k: int):
    """A stream's index spec of length ``k``: a range, a strided range or
    an index array (with repeats)."""
    kind = draw(st.sampled_from(["range", "strided", "fancy"]))
    if kind == "range" and k <= n_blocks:
        lo = draw(st.integers(0, n_blocks - k))
        return (lo, lo + k), list(range(lo, lo + k))
    if kind == "strided" and k:
        step = draw(st.integers(1, 3))
        span = (k - 1) * step + 1
        if span <= n_blocks:
            lo = draw(st.integers(0, n_blocks - span))
            return (lo, lo + span, step), list(range(lo, lo + span, step))
    idx = draw(st.lists(st.integers(0, n_blocks - 1), min_size=k, max_size=k))
    return np.asarray(idx, dtype=np.int64), idx


@st.composite
def programs(draw):
    ops = []
    for _ in range(draw(st.integers(1, 14))):
        kind = draw(
            st.sampled_from(
                [
                    "read", "write", "read_many", "write_many", "copy_many",
                    "swap_many", "io_rounds", "alloc", "free", "mark",
                    "clear", "record", "record_batch", "record_events",
                    "append_rows",
                ]
            )
        )
        ops.append((kind, draw(st.randoms(use_true_random=False))))
    return ops


def _run(machine: EMMachine, program, draw) -> tuple[Eager, list[int]]:
    """Execute ``program`` on ``machine``, mirroring every event into an
    eager recorder; returns it and the marks taken."""
    eager = Eager()
    trace = machine.trace
    arrays = [machine.alloc(12, "a"), machine.alloc(12, "b")]
    for arr in arrays:
        eager.add(A, arr.array_id, [12])
    marks: list[int] = []
    B = machine.B
    for kind, rnd in program:
        pick = arrays[rnd.randrange(len(arrays))]
        n = pick.num_blocks
        if kind == "read" and n:
            i = rnd.randrange(n)
            machine.read(pick, i)
            eager.add(R, pick.array_id, [i])
        elif kind == "write" and n:
            i = rnd.randrange(n)
            machine.write(pick, i, np.full((B, 2), 7, dtype=np.int64))
            eager.add(W, pick.array_id, [i])
        elif kind in ("read_many", "write_many") and n:
            spec, idx = _indices(draw, n, draw(st.integers(0, 6)))
            if kind == "read_many":
                machine.read_many(pick, spec)
                eager.add(R, pick.array_id, idx)
            else:
                machine.write_many(pick, spec, np.ones((len(idx), B, 2), dtype=np.int64))
                eager.add(W, pick.array_id, idx)
        elif kind == "copy_many" and n:
            other = arrays[rnd.randrange(len(arrays))]
            if other.num_blocks == 0:
                continue
            k = draw(st.integers(0, min(n, other.num_blocks)))
            sspec, sidx = _indices(draw, n, k)
            dspec, didx = _indices(draw, other.num_blocks, k)
            machine.copy_many(pick, sspec, other, dspec)
            eager.rounds([(R, pick.array_id, sidx), (W, other.array_id, didx)])
        elif kind == "swap_many" and n:
            k = draw(st.integers(0, 5))
            left = [rnd.randrange(n) for _ in range(k)]
            right = [rnd.randrange(n) for _ in range(k)]
            machine.swap_many(pick, np.asarray(left, dtype=np.int64), np.asarray(right, dtype=np.int64))
            aid = pick.array_id
            eager.rounds([(R, aid, left), (R, aid, right), (W, aid, left), (W, aid, right)])
        elif kind == "io_rounds":
            live = [a for a in arrays if a.num_blocks]
            k = draw(st.integers(0, min(a.num_blocks for a in live)))
            steps, streams = [], []
            for _ in range(draw(st.integers(1, 4))):
                arr = live[rnd.randrange(len(live))]
                spec, idx = _indices(draw, arr.num_blocks, k)
                if rnd.random() < 0.5:
                    steps.append(("r", arr, spec))
                    streams.append((R, arr.array_id, idx))
                else:
                    blocks = np.full((k, B, 2), 3, dtype=np.int64)
                    steps.append(("w", arr, spec, (lambda reads, b=blocks: b) if rnd.random() < 0.5 else blocks))
                    streams.append((W, arr.array_id, idx))
            machine.io_rounds(steps)
            if k:
                eager.rounds(streams)
        elif kind == "alloc":
            size = rnd.randrange(0, 10)
            arr = machine.alloc(size, "x")
            arrays.append(arr)
            eager.add(A, arr.array_id, [size])
        elif kind == "free" and len(arrays) > 2:
            arr = arrays.pop(rnd.randrange(2, len(arrays)))
            machine.free(arr)
            eager.add(F, arr.array_id, [arr.num_blocks])
        elif kind == "mark":
            marks.append(trace.mark())
            assert marks[-1] == (len(eager.rows) if trace.enabled else 0)
        elif kind == "clear":
            trace.clear()
            eager.rows.clear()
            marks.clear()
        elif kind == "record":
            op, aid, i = rnd.randrange(4), rnd.randrange(50), rnd.randrange(100)
            trace.record(Op(op), aid, i)
            eager.add(op, aid, [i])
        elif kind == "record_batch":
            idx = [rnd.randrange(100) for _ in range(rnd.randrange(6))]
            trace.record_batch(Op.READ, pick.array_id, np.asarray(idx, dtype=np.int64))
            eager.add(R, pick.array_id, idx)
        elif kind == "record_events":
            k = rnd.randrange(6)
            ops = [rnd.randrange(2) for _ in range(k)]
            aids = [rnd.randrange(50) for _ in range(k)]
            idx = [rnd.randrange(100) for _ in range(k)]
            trace.record_events(np.asarray(ops), np.asarray(aids), np.asarray(idx))
            eager.rows.extend(zip(ops, aids, idx))
        elif kind == "append_rows":
            rows = np.asarray(
                [(rnd.randrange(4), rnd.randrange(50), rnd.randrange(100)) for _ in range(rnd.randrange(6))],
                dtype=np.int64,
            ).reshape(-1, 3)
            trace.append_rows(rows)
            eager.rows.extend(map(tuple, rows.tolist()))
    return eager, marks


def _assert_same(trace: AccessTrace, eager: Eager, marks: list[int], rnd) -> None:
    ref = eager.array()
    n = len(ref)
    assert len(trace) == n == trace.mark()
    windows = sorted(set(marks) | {0, n, n + 3, -2, rnd.randrange(n + 1)})
    for since in windows:
        window = ref[max(0, since):]
        for canonical in (False, True):
            want = _canonical(window) if canonical else window
            got = trace.as_array(since, canonical=canonical)
            assert got.dtype == np.int64 and got.shape == want.shape
            assert np.array_equal(got, want)
            assert trace.fingerprint(since, canonical=canonical) == _sha(want)
        assert trace.fingerprint_pair(since) == (_sha(window), _sha(_canonical(window)))
    assert trace.shape_fingerprint() == _sha(ref[:, :2])
    events = [TraceEvent(Op(op), a, i) for op, a, i in ref.tolist()]
    assert list(trace) == events
    for i in range(-n, n):
        assert trace[i] == events[i]
    for i in (n, -n - 1):
        with pytest.raises(IndexError):
            trace[i]
    hist: dict = {}
    for row in map(tuple, ref.tolist()):
        hist[row] = hist.get(row, 0) + 1
    assert trace.address_histogram() == hist


MACHINES = [(8, 2, {}), (64, 4, {}), (48, 8, {}), (64, 4, {"parallel_workers": 2, "parallel_min_blocks": 1})]


@pytest.mark.parametrize("M,B,kw", MACHINES, ids=["M8B2", "M64B4", "M48B8", "parallel"])
@settings(max_examples=40, deadline=None)
@given(program=programs(), data=st.data())
def test_descriptor_log_matches_eager_rows(M, B, kw, program, data):
    machine = EMMachine(M, B, **kw)
    try:
        eager, marks = _run(machine, program, data.draw)
        _assert_same(machine.trace, eager, marks, data.draw(st.randoms(use_true_random=False)))
    finally:
        machine.close()


@settings(max_examples=20, deadline=None)
@given(program=programs(), data=st.data())
def test_disabled_trace_records_nothing(program, data):
    machine = EMMachine(64, 4, trace=False)
    try:
        _run(machine, program, data.draw)
        trace = machine.trace
        assert len(trace) == 0 == trace.mark()
        assert trace.as_array().shape == (0, 3)
        assert trace.fingerprint() == _sha(np.empty((0, 3), dtype=np.int64))
        assert list(trace) == []
    finally:
        machine.close()


def test_window_inside_a_scalar_run_and_across_long_calls():
    """Windows that start mid-call (scalar runs, long range calls) expand
    only their suffix, and a mark taken inside a scalar run starts the
    next window at a call boundary."""
    machine = EMMachine(64, 4)
    eager = Eager()
    a = machine.alloc(4000, "big")
    eager.add(A, a.array_id, [4000])
    machine.read_many(a, (0, 4000, 1))
    eager.add(R, a.array_id, range(4000))
    for i in range(5):
        machine.read(a, i)
        eager.add(R, a.array_id, [i])
    mark = machine.trace.mark()
    for i in range(5):
        machine.write(a, i, np.zeros((4, 2), dtype=np.int64))
        eager.add(W, a.array_id, [i])
    ref = eager.array()
    trace = machine.trace
    for since in (mark, 1, 2500, 4003, len(ref) - 1):
        assert np.array_equal(trace.as_array(since), ref[since:])
        assert trace.fingerprint(since, canonical=True) == _sha(_canonical(ref[since:]))
    assert trace[2500] == TraceEvent(Op.READ, a.array_id, 2499)
    machine.close()
