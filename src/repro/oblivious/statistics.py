"""Cross-seed statistical obliviousness checks.

The exact same-seed check in :mod:`repro.oblivious.verifier` is the primary
tool.  This module adds a distributional sanity check: across many seeds,
the *distribution* of trace lengths (the only scalar allowed to vary, and
only with the randomness, never the data) must match between two inputs.
A Kolmogorov–Smirnov two-sample test flags mismatches.  SciPy is imported
only when a test actually runs, so importing :mod:`repro` needs numpy
alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.oblivious.verifier import AlgorithmRunner, run_traced

__all__ = ["DistributionTestResult", "trace_length_distribution_test"]


@dataclass(frozen=True)
class DistributionTestResult:
    """Two-sample KS test outcome on trace-length distributions."""

    statistic: float
    pvalue: float
    lengths_a: tuple[int, ...]
    lengths_b: tuple[int, ...]

    def consistent(self, alpha: float = 0.01) -> bool:
        """True when the test does *not* reject equality at level ``alpha``.

        Identical distributions (the common case for our algorithms, whose
        trace length is seed-deterministic) give p-value 1.0.
        """
        return self.pvalue > alpha


def trace_length_distribution_test(
    runner: AlgorithmRunner,
    records_a: np.ndarray,
    records_b: np.ndarray,
    *,
    M: int,
    B: int,
    seeds: Sequence[int],
) -> DistributionTestResult:
    """Compare trace-length distributions for two inputs across seeds."""
    if len(records_a) != len(records_b):
        raise ValueError("inputs must have equal size")
    lengths_a = []
    lengths_b = []
    for seed in seeds:
        _, view_a = run_traced(runner, records_a, M=M, B=B, seed=seed)
        _, view_b = run_traced(runner, records_b, M=M, B=B, seed=seed)
        lengths_a.append(view_a.num_events)
        lengths_b.append(view_b.num_events)
    if lengths_a == lengths_b:
        # Degenerate-but-ideal case: identical samples.  scipy's KS test is
        # well-defined here, but short-circuiting keeps p-value exactly 1.
        return DistributionTestResult(0.0, 1.0, tuple(lengths_a), tuple(lengths_b))
    from scipy import stats

    ks = stats.ks_2samp(lengths_a, lengths_b)
    return DistributionTestResult(
        float(ks.statistic), float(ks.pvalue), tuple(lengths_a), tuple(lengths_b)
    )
