"""Simulated semantically-secure re-encryption.

The paper assumes block contents are encrypted under a semantically secure
scheme "such that re-encryption of the same value is indistinguishable from
an encryption of a different value" (§1).  We do not need real cryptography
to reproduce the algorithmic claims; what matters is the *information
available to Bob*: for every write he sees only that a fresh ciphertext
replaced the old one, never whether the plaintext changed.

``CiphertextVersions`` models this by assigning every block a monotonically
increasing opaque version on each write.  The invariant enforced (and
tested) is that the version sequence is a deterministic function of the
write *pattern*, never of the written *values* — i.e. the simulated
ciphertexts leak nothing beyond the trace itself.
"""

from __future__ import annotations

import threading

import numpy as np

__all__ = ["CiphertextVersions", "splitmix64", "mix_digest"]


class CiphertextVersions:
    """Per-block opaque ciphertext version counters for one array.

    The version sequence must be a deterministic function of the write
    *pattern*, so callers that overlap writes (the parallel engine)
    must still invoke the ``reencrypt*`` methods in the sequential
    engine's stream order — that ordering is their contract, not this
    class's.  What the lock guarantees is the weaker safety property
    pinned by the concurrency stress tests: concurrent calls never tear
    the shared clock (each advance-and-assign is atomic), so the clock
    always equals the total number of recorded writes.  One lock serves
    every instance, so allocating an array creates none.
    """

    __slots__ = ("_versions", "_clock")

    _lock = threading.Lock()

    def __init__(self, num_blocks: int) -> None:
        if num_blocks < 0:
            raise ValueError(f"num_blocks must be non-negative, got {num_blocks}")
        self._versions = np.zeros(num_blocks, dtype=np.int64)
        self._clock = 0

    def reencrypt(self, index: int) -> int:
        """Record that block ``index`` was overwritten with a fresh ciphertext.

        Returns the new version.  Called on *every* write — including
        writes that put back unchanged plaintext, which is precisely how
        the algorithms hide whether a cell was modified (e.g. the IBLT
        insertion pass of Theorem 4).
        """
        with self._lock:
            self._clock += 1
            self._versions[index] = self._clock
            return self._clock

    def reencrypt_many(self, indices: np.ndarray) -> None:
        """Record a fresh ciphertext for every index, in sequence order.

        Equivalent to calling :meth:`reencrypt` once per entry of
        ``indices``: the clock advances by ``len(indices)`` and duplicate
        indices keep the version of their *last* write.
        """
        indices = np.asarray(indices, dtype=np.int64).ravel()
        k = len(indices)
        if k == 0:
            return
        with self._lock:
            self._versions[indices] = np.arange(
                self._clock + 1, self._clock + k + 1, dtype=np.int64
            )
            self._clock += k

    def reencrypt_range(self, lo: int, hi: int, step: int = 1) -> None:
        """:meth:`reencrypt_many` for the (strided) range ``[lo, hi)``
        (``step >= 1``)."""
        if hi <= lo:
            return
        k = (hi - lo - 1) // step + 1
        with self._lock:
            clock = self._clock
            self._versions[lo:hi:step] = np.arange(clock + 1, clock + k + 1)
            self._clock = clock + k

    def version(self, index: int) -> int:
        """Return the current version of block ``index`` (adversary-visible)."""
        return int(self._versions[index])

    def snapshot(self) -> np.ndarray:
        """Return a copy of all current versions."""
        return self._versions.copy()


# ---------------------------------------------------------------------------
# CPU-bound re-encryption kernel (the parallel engine's process path)
# ---------------------------------------------------------------------------
#
# Real re-encryption pays a per-byte CPU cost the version counters do not
# model.  The parallel engine's ``mode="process"`` path stands in for it
# with a keyed splitmix64 mix over freshly written blocks, executed in
# worker processes against the shared memmap file — CPU-bound, GIL-free,
# and verifiable: the XOR-folded digest must be independent of how the
# work was sharded, which ``tests/test_parallel_engine.py`` pins against
# the single-process computation.

_SM64_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SM64_M1 = np.uint64(0xBF58476D1CE4E5B9)
_SM64_M2 = np.uint64(0x94D049BB133111EB)


def splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer over a uint64 array."""
    z = np.asarray(x, dtype=np.uint64) + _SM64_GAMMA
    z = (z ^ (z >> np.uint64(30))) * _SM64_M1
    z = (z ^ (z >> np.uint64(27))) * _SM64_M2
    return z ^ (z >> np.uint64(31))


def mix_digest(cells: np.ndarray, key: int) -> int:
    """Keyed mixing digest of ``cells``: XOR-fold of splitmix64 over
    every word, offset by ``key`` — the simulated re-encryption work.

    Commutative across disjoint shards under XOR, so a sharded
    computation with per-shard keys derived the same way reproduces the
    unsharded digest exactly.
    """
    flat = np.ascontiguousarray(cells, dtype=np.int64).view(np.uint64).ravel()
    if flat.size == 0:
        return 0
    return int(np.bitwise_xor.reduce(splitmix64(flat ^ np.uint64(key))))


def _memmap_mix_shard(path: str, shape: tuple, lo: int, hi: int, key: int) -> int:
    """Process-pool worker: mix blocks ``[lo, hi)`` of the memmap file.

    Opens the shared backing file read-only — the page cache makes the
    parent's writes visible without any pickled array payloads.
    Module-level (not a closure) so it survives the pickle round trip.
    """
    data = np.memmap(path, dtype=np.int64, mode="r", shape=tuple(shape))
    return mix_digest(np.asarray(data[lo:hi]), key)
