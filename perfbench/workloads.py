"""The benchmark's three closed-loop workloads: ``sort``, ``query``, ``oram_kv``.

Each workload is one client issuing one request at a time to the
program through its public API.  A workload object splits every request
into three parts so that only the program's work is timed:

* :meth:`prepare` (untimed) derives the request's inputs from the
  workload seed and marks the transcript;
* :meth:`call` (timed) is the program call and nothing else;
* :meth:`finish` (untimed) checks the answer against a plaintext
  reference and digests the request's transcript window.

:meth:`open` builds the long-lived state (service, sessions, ORAM); it is
timed together with the first request as set-up.  Every input is a pure
function of ``(seed, request index)``, so a run is reproducible
byte-for-byte, and no seed is ever filtered for success.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.api import EMConfig, ObliviousSession
from repro.em.block import NULL_KEY, RECORD_WIDTH
from repro.service import ObliviousService

#: Mask window of the ``query`` workload (keys in ``[0, MASK_HI]`` survive).
MASK_HI = 10**4


@dataclass
class Outcome:
    """What one request did, as the benchmark records it."""

    #: The program returned an answer (no RetryExhausted / ServiceBusy).
    ok: bool
    #: The answer matched the plaintext reference (False only when ok).
    wrong: bool = False
    error: str = ""
    #: Block I/Os of the successful attempts (the paper's metric).
    block_ios: int = 0
    #: Every block I/O the request caused, failed attempts included.
    machine_ios: int = 0
    attempts: int = 0
    #: Adversary-visible events the request appended to its trace.
    events: int = 0
    #: SHA-256 of the request's transcript window.
    fingerprint: str = ""
    #: Digest that must match across set-up twins (same seed, other data).
    twin: str = ""
    #: ``(algorithm, attempts, canonical fingerprint)`` per plan step.
    steps: tuple = ()

    def digest_line(self, index: int) -> str:
        return (
            f"{index} {int(self.ok)} {self.error} {self.block_ios} "
            f"{self.machine_ios} {self.attempts} {self.fingerprint}\n"
        )


def _seed(*words: int) -> int:
    """A 63-bit seed derived from the workload seed and a path of words."""
    return int(np.random.SeedSequence(list(words)).generate_state(1, np.uint64)[0] >> 1)


def _rng(*words: int) -> np.random.Generator:
    return np.random.default_rng(list(words))


# Sub-stream tags of the seed derivation.
_SETUP, _REQUEST, _SESSION, _TWIN = 0, 1, 2, 3


class SortWorkload:
    """Two long-lived tenant sessions of one :class:`ObliviousService`
    take turns streaming ``N`` records in ``CHUNK``-record chunks and
    sorting them (Theorem 21).  The sessions are replaced every
    ``LIFETIME`` requests (``LIFETIME // 2`` each), so the trace they
    retain is bounded by the workload's shape, not by the run length."""

    name = "sort"
    N = 4096
    CHUNK = 512
    LIFETIME = 6
    #: Leading requests whose digest must agree across run lengths.
    DIGEST_PREFIX = 4
    TRACE_BLOCK = 1
    #: A request's time grows as the reference slice's slowness to this
    #: power (run._Reference; fitted in NOTES.md).
    SPEED_EXPONENT = 0.8
    config = EMConfig(M=128, B=4)

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.service: ObliviousService | None = None
        self.sessions: list = []

    def open(self) -> None:
        self.service = ObliviousService(self.config, seed=_seed(self.seed, _SESSION))
        self._open_sessions(0)

    def _open_sessions(self, cycle: int) -> None:
        self.sessions = [
            self.service.session(f"tenant-{t}", seed=_seed(self.seed, _SESSION, cycle, t))
            for t in range(2)
        ]

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None

    def live_bytes(self) -> int:
        return self.service.backend.live_bytes

    def retained_events(self) -> int:
        return sum(len(s.machine.trace) for s in self.sessions)

    def prepare(self, index: int, rep: int | None = None) -> dict:
        if index and index % self.LIFETIME == 0:
            self.service.evict_idle(timeout=0.0)
            self._open_sessions(index // self.LIFETIME)
        rng = _rng(self.seed, _SETUP, rep) if rep is not None else _rng(self.seed, _REQUEST, index)
        records = np.stack(
            [rng.permutation(self.N), rng.integers(0, 10**6, size=self.N)], axis=1
        ).astype(np.int64)
        tenant = index % 2
        session = self.sessions[tenant]
        return {
            "records": records,
            "chunks": [records[i : i + self.CHUNK] for i in range(0, self.N, self.CHUNK)],
            "tenant": f"tenant-{tenant}",
            "session": session,
            "mark": session.machine.trace.mark(),
            "ios": session.machine.total_ios,
            "input_bytes": records.nbytes,
        }

    def call(self, req: dict):
        plan = req["session"].stream(req["chunks"]).sort().plan()
        return self.service.execute(req["tenant"], plan)

    def finish(self, req: dict, result) -> Outcome:
        machine = req["session"].machine
        out = _window(machine, req)
        if result is None:
            return out
        records = req["records"]
        expected = records[np.argsort(records[:, 0], kind="stable")]
        out.ok = True
        out.wrong = not np.array_equal(result.records, expected)
        return _plan_costs(out, result)


class QueryWorkload:
    """A fresh :class:`ObliviousSession` per request runs
    ``mask → join(fanout=2, product) → group_by(sum)`` over two
    ``N``-row relations with ``optimize=True``; the number of rows
    surviving the mask is drawn per request."""

    name = "query"
    N = 1024
    FANOUT = 2
    LIFETIME = None
    DIGEST_PREFIX = 3
    TRACE_BLOCK = 1
    SPEED_EXPONENT = 0.8
    config = EMConfig(M=128, B=4)

    def __init__(self, seed: int) -> None:
        self.seed = seed
        # Set-up twins share a session seed but differ in data and in
        # the number of mask survivors.
        self._setup_survivors = _rng(self.seed, _SETUP).permutation(np.arange(1, self.N))

    def open(self) -> None:
        """Nothing outlives a request."""

    def close(self) -> None:
        """Nothing outlives a request."""

    def live_bytes(self) -> int:
        return 0

    def retained_events(self) -> int:
        return 0

    def prepare(self, index: int, rep: int | None = None) -> dict:
        if rep is not None:
            rng = _rng(self.seed, _SETUP, rep)
            survivors = int(self._setup_survivors[rep])
            session_seed = _seed(self.seed, _SESSION, 0)
        else:
            rng = _rng(self.seed, _REQUEST, index)
            survivors = int(rng.integers(1, self.N))
            session_seed = _seed(self.seed, _SESSION, index)
        key_space = self.N // 8
        keep = rng.integers(0, key_space, size=survivors)
        drop = rng.integers(10**5, 10**5 + key_space, size=self.N - survivors)
        left = np.stack(
            [rng.permutation(np.concatenate([keep, drop])),
             rng.integers(0, 10**6, size=self.N)],
            axis=1,
        ).astype(np.int64)
        right = np.stack(
            [rng.integers(0, key_space, size=self.N),
             rng.integers(0, 10**6, size=self.N)],
            axis=1,
        ).astype(np.int64)
        return {
            "left": left,
            "right": right,
            "seed": session_seed,
            "mark": 0,
            "ios": 0,
            "input_bytes": left.nbytes + right.nbytes,
        }

    def call(self, req: dict):
        with ObliviousSession(self.config, seed=req["seed"]) as session:
            req["session"] = session
            ds = (
                session.dataset(req["left"])
                .apply("mask", hi=MASK_HI)
                .join(session.dataset(req["right"]), fanout=self.FANOUT, combine="product")
                .group_by("sum")
            )
            return ds.run(optimize=True)

    def finish(self, req: dict, result) -> Outcome:
        session = req.get("session")
        out = _window(session.machine, req) if session is not None else Outcome(ok=False)
        if result is None:
            return out
        got = sorted((int(k), int(v)) for k, v in result.records)
        out.ok = True
        out.wrong = got != self._reference(req["left"], req["right"])
        return _plan_costs(out, result)

    def _reference(self, left, right) -> list[tuple[int, int]]:
        """Per-key sum of products over the first ``FANOUT`` right
        matches (in right-relation order) of each surviving left row."""
        matches: dict[int, list[int]] = {}
        for k, v in right.tolist():
            matches.setdefault(k, []).append(v)
        groups: dict[int, int] = {}
        for k, v in left.tolist():
            if 0 <= k <= MASK_HI:
                for rv in matches.get(k, [])[: self.FANOUT]:
                    groups[k] = groups.get(k, 0) + v * rv
        return sorted(groups.items())


class OramKvWorkload:
    """One session's :class:`~repro.oram.SquareRootORAM` of ``CELLS``
    cells serves uniform 50/50 reads and writes (the E9 shape).  The
    session and its ORAM are replaced every ``LIFETIME`` requests: the
    session's trace retains every access (≈88 KB each), so an unbounded
    session would grow by ≈175 MB/s."""

    name = "oram_kv"
    CELLS = 1024
    LIFETIME = 4096
    DIGEST_PREFIX = 1024
    #: Requests per traced/untraced block of a ``--trace 1`` run.
    TRACE_BLOCK = 256
    SPEED_EXPONENT = 1.0
    TWIN_OPS = 100
    config = EMConfig(M=4096, B=4)

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.session: ObliviousSession | None = None
        self.oram = None
        self.shadow: dict[int, np.ndarray] = {}
        self._ops = _rng(self.seed, _REQUEST)
        self._empty = np.zeros((self.config.B, RECORD_WIDTH), dtype=np.int64)
        self._empty[:, 0] = NULL_KEY

    def open(self, lifetime: int = 0) -> None:
        self.session = ObliviousSession(self.config, seed=_seed(self.seed, _SESSION, lifetime))
        self.oram = self.session.oram(self.CELLS)
        self.shadow = {}

    def close(self) -> None:
        if self.session is not None:
            self.session.close()
            self.session = None

    def live_bytes(self) -> int:
        return self.session.machine.backend.live_bytes

    def retained_events(self) -> int:
        return len(self.session.machine.trace)

    def prepare(self, index: int, rep: int | None = None) -> dict:
        if index and index % self.LIFETIME == 0:
            self.close()
            self.open(index // self.LIFETIME)
        rng = _rng(self.seed, _SETUP, rep) if rep is not None else self._ops
        return dict(self._op(rng, self.session.machine), setup=rep is not None)

    def _op(self, rng: np.random.Generator, machine) -> dict:
        cell = int(rng.integers(0, self.CELLS))
        block = None
        if rng.random() < 0.5:
            block = np.empty((self.config.B, RECORD_WIDTH), dtype=np.int64)
            block[:, 0] = cell
            block[:, 1] = rng.integers(0, 10**6, size=self.config.B)
        return {
            "cell": cell,
            "block": block,
            "mark": machine.trace.mark(),
            "ios": machine.total_ios,
            "input_bytes": self.CELLS * self.config.B * RECORD_WIDTH * 8,
        }

    def call(self, req: dict):
        if req["block"] is None:
            return self.oram.read(req["cell"])
        return self.oram.write(req["cell"], req["block"])

    def finish(self, req: dict, result) -> Outcome:
        machine = self.session.machine
        out = _window(machine, req)
        out.ok = True
        out.wrong = not self._check(self.shadow, req, result)
        out.block_ios = out.machine_ios
        out.attempts = 1
        if req["setup"]:
            out.twin = machine.trace.shape_fingerprint()
        return out

    def _check(self, shadow: dict, req: dict, result) -> bool:
        """Reads and writes both return the cell's previous value."""
        cell = req["cell"]
        right = np.array_equal(result, shadow.get(cell, self._empty))
        if req["block"] is not None:
            shadow[cell] = req["block"]
        return right

    def twin_check(self) -> bool:
        """Same session seed, different index/kind sequences: the
        transcript *shape* must be identical (ORAM obliviousness is
        distributional, so exact fingerprints legitimately differ)."""
        shapes = []
        right = True
        for variant in range(2):
            with ObliviousSession(self.config, seed=_seed(self.seed, _TWIN)) as session:
                oram = session.oram(self.CELLS)
                rng = _rng(self.seed, _TWIN, variant)
                shadow: dict[int, np.ndarray] = {}
                for _ in range(self.TWIN_OPS):
                    req = self._op(rng, session.machine)
                    if req["block"] is None:
                        result = oram.read(req["cell"])
                    else:
                        result = oram.write(req["cell"], req["block"])
                    right &= self._check(shadow, req, result)
                shapes.append(session.machine.trace.shape_fingerprint())
        return right and shapes[0] == shapes[1]


def _window(machine, req: dict) -> Outcome:
    """Counts and digest of the transcript since ``req['mark']``."""
    trace = machine.trace
    fingerprint = trace.fingerprint(since=req["mark"])
    return Outcome(
        ok=False,
        machine_ios=machine.total_ios - req["ios"],
        events=len(trace) - req["mark"],
        fingerprint=fingerprint,
        twin=fingerprint,
    )


def _plan_costs(out: Outcome, result) -> Outcome:
    """Fill ``out`` from a :class:`~repro.api.PlanResult`."""
    out.block_ios = result.total.total
    out.attempts = result.total.attempts
    out.steps = tuple(
        (s.algorithm, s.cost.attempts, s.cost.trace_canonical) for s in result.steps
    )
    return out


WORKLOADS = {w.name: w for w in (SortWorkload, QueryWorkload, OramKvWorkload)}


def digest(lines: list[str]) -> str:
    return hashlib.sha256("".join(lines).encode()).hexdigest()
