#!/usr/bin/env python3
"""Closed-loop benchmark of the oblivious external-memory simulator.

One process, one thread, one client: each request is sent only after
the previous one completed.  Set-up also times the program's import in
short child processes, one at a time, before the timed loop.  Run from
the repository root::

    python3 perfbench/run.py --workload sort --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` wraps the
layers' entry points (``tracer.py``) on alternate blocks of requests and
reports per-layer metrics plus the tracing overhead.  Stdout ends with
two JSON lines: a self-describing report (environment, twin check, run
digests and every metric with its unit, direction, kind and sample
count), then the result object ``{"correct", "attempted", "failed",
"metrics"}``.

Exit status: 0 on success, 1 when a correctness, twin or attribution
check failed (the result is still printed), 2 when the program cannot
be imported (nothing is printed).  See ``NOTES.md`` for the workloads
and the meaning of every metric.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Set-ups per run: ``setup_s`` is their median; their first requests
#: are the twin check of ``sort`` and ``query``.
SETUP_REPS = 3

#: Times the program's import in a fresh interpreter, the way ``main``
#: imports it; argv is the two directories put on ``sys.path``.
_IMPORT_PROBE = """
import sys, time
start = time.perf_counter()
sys.path[:0] = sys.argv[1:]
import numpy, workloads
print(time.perf_counter() - start)
"""

#: Share of the loop's wall time spent in reference slices (see _Reference).
REFERENCE_DUTY = 0.05

#: The import's time grows as the reference slice's slowness to this
#: power (fitted in NOTES.md); set-up normalises it separately.
IMPORT_EXPONENT = 0.5

#: name -> (unit, better, kind).  ``kind`` is "exact" for counts that a
#: fixed seed reproduces exactly, "measured" for times and memory.  These
#: are the gated end-to-end metrics: defined, non-zero and steady across
#: seeds on every workload.  Their times are normalised to a nominal
#: machine speed (see _Reference).
END_TO_END = {
    "setup_s": ("s", "lower", "measured"),
    "norm_us_per_block_io": ("us", "lower", "measured"),
    "block_ios_per_op": ("count", "lower", "exact"),
    "success_share": ("ratio", "higher", "exact"),
}

#: Reported in the report line only: raw wall-clock readings, which
#: drift with the machine's speed, and metrics that Las Vegas retries
#: make vary across seeds by more than any bound the benchmark could
#: keep at its run length, or that are not defined on every workload
#: (see NOTES.md).
REPORTED = {
    "setup_wall_s": ("s", "lower", "measured"),
    "us_per_block_io": ("us", "lower", "measured"),
    "latency_p50_ms": ("ms", "lower", "measured"),
    "latency_p99_ms": ("ms", "lower", "measured"),
    "throughput_ops_s": ("1/s", "higher", "measured"),
    "attempts_per_op": ("count", "lower", "exact"),
    "failed_share": ("ratio", "lower", "exact"),
    "peak_rss_mb": ("MB", "lower", "measured"),
    "rss_growth_mb": ("MB", "lower", "measured"),
    "machine_slowness": ("ratio", "lower", "measured"),
}

#: Per-layer metrics of a ``--trace 1`` run, per traced request unless
#: the unit says otherwise.
PER_LAYER = {
    "em.dispatch.calls": ("count/op", "lower", "exact"),
    "em.dispatch.blocks_per_call": ("count", "higher", "exact"),
    "em.dispatch.self_s": ("s/op", "lower", "measured"),
    "em.dispatch.us_per_call": ("us", "lower", "measured"),
    "em.alloc.calls": ("count/op", "lower", "exact"),
    "em.alloc.self_s": ("s/op", "lower", "measured"),
    "em.transfer_s": ("s/op", "lower", "measured"),
    "em.trace.append_s": ("s/op", "lower", "measured"),
    "em.trace.fingerprint_s": ("s/op", "lower", "measured"),
    "em.trace.events_per_op": ("count/op", "lower", "exact"),
    "em.trace.retained_events": ("count", "lower", "exact"),
    "em.crypto.calls": ("count/op", "lower", "exact"),
    "em.crypto.reencrypt_s": ("s/op", "lower", "measured"),
    "em.storage.space_amplification": ("ratio", "lower", "exact"),
    "networks.butterfly.self_s": ("s/op", "lower", "measured"),
    "core.runner.self_s": ("s/op", "lower", "measured"),
    "core.block_sort.self_s": ("s/op", "lower", "measured"),
    "relational.self_s": ("s/op", "lower", "measured"),
    "api.executor.self_s": ("s/op", "lower", "measured"),
    "api.attempts": ("count/op", "lower", "exact"),
    "api.useful_attempt_share": ("ratio", "higher", "exact"),
    "api.failed_attempt_s": ("s/op", "lower", "measured"),
    "api.optimizer.explain_s": ("s/op", "lower", "measured"),
    "oram.access_self_s": ("s/op", "lower", "measured"),
    "oram.rebuilds": ("count/op", "lower", "exact"),
    "oram.rebuild_access_s": ("s", "lower", "measured"),
    "service.admit_s": ("s/op", "lower", "measured"),
    "service.rejections": ("count/op", "lower", "exact"),
    "bench.traced_wall_s": ("s/op", "lower", "measured"),
    "bench.unattributed_s": ("s/op", "lower", "measured"),
    "bench.trace_overhead_share": ("ratio", "lower", "measured"),
}

#: Layer whose self time each per-layer ``*_s`` metric reports.
SELF_TIME_OF = {
    "em.dispatch.self_s": "em.dispatch",
    "em.alloc.self_s": "em.alloc",
    "em.transfer_s": "em.transfer",
    "em.trace.append_s": "em.trace.append",
    "em.trace.fingerprint_s": "em.trace.fingerprint",
    "em.crypto.reencrypt_s": "em.crypto",
    "networks.butterfly.self_s": "networks.butterfly",
    "core.runner.self_s": "core.runner",
    "core.block_sort.self_s": "core.block_sort",
    "relational.self_s": "relational",
    "api.executor.self_s": "api.executor",
    "api.optimizer.explain_s": "api.optimizer",
    "oram.access_self_s": "oram",
    "service.admit_s": "service",
}

#: Variables that would change the measured program's threading.
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("sort", "query", "oram_kv"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


class _Reference:
    """A fixed slice of CPU work, run between requests.

    On a shared virtual machine the vCPU's speed drifts by ±20% over
    seconds to minutes as neighbours come and go, and no affordable run
    length averages that away.  A slice does the same work every time,
    independently of the program: small numpy gathers and a Python loop,
    the instruction mix of the simulator's dispatch.  Slices fill
    ``REFERENCE_DUTY`` of the loop's time.  Each request's time is
    divided by :meth:`factor`: the median duration of the ``WINDOW``
    slices on either side of it over :attr:`NOMINAL_S`, raised to the
    workload's ``SPEED_EXPONENT`` (how strongly its requests slow down
    when the slices do), so normalised times read as if every slice had
    taken :attr:`NOMINAL_S`.
    """

    NOMINAL_S = 0.01
    WINDOW = 16

    def __init__(self, exponent: float) -> None:
        import numpy as np

        self.exponent = exponent
        self._np = np
        self._blocks = np.arange(4096 * 4 * 2, dtype=np.int64).reshape(4096, 4, 2)
        self.samples: list[float] = []
        self.begin()

    def begin(self) -> None:
        """Start the duty-cycle accounting of :meth:`slice_if_due`."""
        self._start = time.perf_counter()
        self._spent = 0.0

    def slice(self, count: int = 1) -> None:
        np = self._np
        for _ in range(count):
            start = time.perf_counter()
            total = 0
            for i in range(2000):
                lo = (i * 37) % 4000
                total += int(self._blocks[np.arange(lo, lo + 40)][:, :, 0].sum())
                for j in range(20):
                    total += i * j
            took = time.perf_counter() - start
            self.samples.append(took)
            self._spent += took

    def slice_if_due(self) -> None:
        """Run slices until they fill ``REFERENCE_DUTY`` of the time
        since :meth:`begin`."""
        while self._spent < REFERENCE_DUTY * (time.perf_counter() - self._start):
            self.slice()

    def mark(self) -> int:
        """Index of the next slice: call right after a request."""
        return len(self.samples)

    def slowness(self, mark: int | None = None) -> float:
        """Median slice duration over the nominal one, around ``mark``
        (or over the whole run)."""
        w = self.WINDOW
        window = self.samples if mark is None else self.samples[max(0, mark - w) : mark + w]
        return statistics.median(window) / self.NOMINAL_S

    def factor(self, mark: int) -> float:
        """What a request's time is divided by, around ``mark``."""
        return self.slowness(mark) ** self.exponent


@dataclass
class _Loop:
    """What the timed loop recorded, one entry per request."""

    outcomes: list = field(default_factory=list)
    seconds: list = field(default_factory=list)
    traced: list = field(default_factory=list)
    marks: list = field(default_factory=list)
    amplification: list = field(default_factory=list)
    rss_lifetime: float | None = None


def _rss_mb() -> float:
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _timed(workload, req, tracer=None):
    """Run one request; returns ``(result or None, seconds, error)``.
    Las Vegas exhaustion and admission refusals are counted, not raised."""
    from repro.errors import RetryExhausted, ServiceBusy

    start = time.perf_counter()
    try:
        if tracer is None:
            result = workload.call(req)
        else:
            result, _ = tracer.request(workload.call, req)
    except (RetryExhausted, ServiceBusy) as exc:
        return None, time.perf_counter() - start, type(exc).__name__
    return result, time.perf_counter() - start, ""


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (no interpolation)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _finite(value):
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _metric(catalog: dict, name: str, value, samples: int) -> dict:
    unit, better, kind = catalog[name]
    return {"value": _finite(value), "unit": unit, "better": better, "kind": kind, "samples": samples}


def _retried(out) -> bool:
    """The request had a failed Las Vegas attempt."""
    return not out.ok or any(a > 1 for _, a, _ in out.steps)


def _twin_check(twins: list, problems: list[str]) -> dict:
    """Set-up twins share a session seed and differ in data.  Each Las
    Vegas attempt must be data-oblivious, so twins in which no attempt
    failed must leave identical transcripts, and a step whose successful
    attempt has the same index in both must leave the same canonical
    transcript (that attempt alone).  Twins with a failed attempt whose
    full transcripts differ show that *whether* or *where* an attempt
    fails depends on the data: reported as ``retry_leak``."""
    base = twins[0]
    attempts = [[a for _, a, _ in t.steps] for t in twins]
    leak = False
    for other in twins[1:]:
        if other.twin == base.twin:
            continue
        if not (_retried(base) or _retried(other)):
            problems.append("twin check: same seed, no failed attempt, other data, different transcripts")
            continue
        leak = True
        for (name, a, fp), (_, b, other_fp) in zip(base.steps, other.steps):
            if a == b and fp != other_fp:
                problems.append(f"twin check: step {name!r} succeeded at the same attempt but left a different transcript")
    return {
        "reps": len(twins),
        "identical": len({t.twin for t in twins}) == 1,
        "retry_leak": leak,
        "attempts": attempts,
    }


def _import_s() -> float:
    """Seconds a fresh interpreter takes to import the program.  A run
    imports it once, so each set-up measures the import in a child
    process of its own (run to completion before the set-up goes on)."""
    probe = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(SRC), str(HERE)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(probe.stdout)


def _setup(workload, reference, problems):
    """Import the program and build the workload ``SETUP_REPS`` times,
    each followed by its first request; returns ``(normalised s, wall s,
    twin report, outcome)``.  The import and the rest are normalised
    with their own exponents, and an answered first request counts at
    the cost of its successful attempt: the twins share a session seed,
    so their retries are one draw per run (NOTES.md)."""
    imports, built, marks, twins = [], [], [], []
    for rep in range(SETUP_REPS):
        workload.close()
        reference.slice(3)
        imports.append(_import_s())
        t0 = time.perf_counter()
        workload.open()
        opened = time.perf_counter() - t0
        req = workload.prepare(0, rep)
        result, seconds, error = _timed(workload, req)
        marks.append(reference.mark())
        first = workload.finish(req, result)
        first.error = error
        if first.ok:
            seconds *= first.block_ios / first.machine_ios
        built.append(opened + seconds)
        twins.append(first)
        if first.wrong:
            problems.append(f"set-up {rep}: wrong answer")
    reference.slice(3)
    norm = [
        i / reference.slowness(m) ** IMPORT_EXPONENT + b / reference.factor(m)
        for i, b, m in zip(imports, built, marks)
    ]
    wall = [i + b for i, b in zip(imports, built)]
    return norm, wall, _twin_check(twins, problems), first


def _loop(workload, seconds, tracer, reference, problems, lines) -> _Loop:
    """The timed closed loop.  With a tracer, alternate blocks of
    ``workload.TRACE_BLOCK`` requests run traced."""
    rec = _Loop()
    index = 1
    reference.begin()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        reference.slice_if_due()
        req = workload.prepare(index)
        traced = tracer is not None and (index // workload.TRACE_BLOCK) % 2 == 1
        if tracer is not None and traced != tracer.installed:
            tracer.install() if traced else tracer.uninstall()
        if traced:
            tracer.peak_live_bytes = workload.live_bytes()
        result, took, error = _timed(workload, req, tracer if traced else None)
        rec.marks.append(reference.mark())
        out = workload.finish(req, result)
        out.error = error
        if out.wrong:
            problems.append(f"request {index}: wrong answer")
        rec.outcomes.append(out)
        rec.seconds.append(took)
        rec.traced.append(traced)
        if traced:
            rec.amplification.append(tracer.peak_live_bytes / req["input_bytes"])
        lines.append(out.digest_line(index))
        if index + 1 == workload.LIFETIME:
            rec.rss_lifetime = _rss_mb()
        index += 1
    reference.slice(3)
    if tracer is not None and tracer.installed:
        tracer.uninstall()
    return rec


def main(argv=None) -> int:
    args = _args(argv)
    for var in [v for v in os.environ if v.startswith("REPRO_PARALLEL_")]:
        del os.environ[var]
    for var in _THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]

    import numpy as np
    import workloads
    from tracer import LAYERS, Tracer

    workload = workloads.WORKLOADS[args.workload](args.seed)
    reference = _Reference(workload.SPEED_EXPONENT)
    problems: list[str] = []
    setup_norm, setup_wall, twin, first = _setup(workload, reference, problems)
    lines = [first.digest_line(0)]
    rss_first = _rss_mb()
    tracer = Tracer() if args.trace else None
    rec = _loop(workload, args.seconds, tracer, reference, problems, lines)
    retained = workload.retained_events()
    rss_last = _rss_mb()
    if hasattr(workload, "twin_check"):
        same_shape = workload.twin_check()
        twin["identical"] &= same_shape
        if not same_shape:
            problems.append("twin check: ORAM twins differ in shape or answer")
    workload.close()

    # -- metrics -----------------------------------------------------------
    outs = rec.outcomes
    n = len(outs)
    good = [o for o in outs if o.ok and not o.wrong]
    per_io = [(s / o.machine_ios, m) for s, o, m in zip(rec.seconds, outs, rec.marks) if o.machine_ios]
    # A failed request misses every latency limit.
    latencies = [s if o.ok and not o.wrong else math.inf for s, o in zip(rec.seconds, outs)]
    end_to_end = {
        "setup_s": (statistics.median(setup_norm), SETUP_REPS),
        "norm_us_per_block_io": (
            1e6 * statistics.median(r / reference.factor(m) for r, m in per_io),
            len(per_io),
        ),
        "block_ios_per_op": (statistics.fmean(o.block_ios for o in good) if good else math.inf, len(good)),
        "success_share": (len(good) / n, n),
    }
    reported = {
        "setup_wall_s": (statistics.median(setup_wall), SETUP_REPS),
        "us_per_block_io": (1e6 * statistics.median(r for r, _ in per_io), len(per_io)),
        "latency_p50_ms": (1e3 * _percentile(latencies, 0.5), n),
        # Needs ten samples beyond the 99th percentile.
        "latency_p99_ms": (1e3 * _percentile(latencies, 0.99) if n >= 1000 else None, n),
        "throughput_ops_s": (len(good) / sum(rec.seconds), n),
        "attempts_per_op": (statistics.fmean(o.attempts for o in good) if good else math.inf, len(good)),
        "failed_share": ((n - len(good)) / n, n),
        "peak_rss_mb": (_peak_rss_mb(), 1),
        "rss_growth_mb": ((rec.rss_lifetime or rss_last) - rss_first, 2),
        "machine_slowness": (reference.slowness(), len(reference.samples)),
    }
    metrics = {k: _metric(END_TO_END, k, *v) for k, v in end_to_end.items()}
    metrics.update({k: _metric(REPORTED, k, *v) for k, v in reported.items()})
    chosen, catalog = {k: v for k, (v, _) in end_to_end.items()}, END_TO_END
    if tracer is not None:
        chosen, catalog = _per_layer(tracer, rec, retained), PER_LAYER
        drift = abs(sum(tracer.self_s[layer] for layer in LAYERS) + tracer.unattributed_s - tracer.wall_s)
        if drift > 1e-6 * max(1.0, tracer.wall_s):
            problems.append(f"attribution: layer self times miss wall time by {drift:.3g} s")
        metrics = {k: _metric(PER_LAYER, k, v, tracer.requests) for k, v in chosen.items()}

    prefix = workload.DIGEST_PREFIX
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
        },
        "requests": n + 1,
        "digest_prefix_requests": prefix,
        "digest_prefix": workloads.digest(lines[:prefix]) if len(lines) >= prefix else None,
        "digest_all": workloads.digest(lines),
        "twin": twin,
        "problems": problems,
        "metrics": metrics,
    }
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": not problems,
        "attempted": n,
        "failed": n - len(good),
        "metrics": {k: {"value": _finite(v), "unit": catalog[k][0]} for k, v in chosen.items()},
    }))
    return 0 if not problems else 1


def _per_layer(tracer, rec: _Loop, retained: int) -> dict:
    """Per-layer metrics over the traced requests."""
    n = max(1, tracer.requests)
    traced = [o for o, t in zip(rec.outcomes, rec.traced) if t]
    traced_s = [s for s, t in zip(rec.seconds, rec.traced) if t]
    untraced_s = [s for s, t in zip(rec.seconds, rec.traced) if not t]
    dispatch_calls = max(1, tracer.layer_calls["em.dispatch"])
    attempts = tracer.runner_attempts
    values = {name: tracer.self_s[layer] / n for name, layer in SELF_TIME_OF.items()}
    values.update({
        "em.dispatch.calls": tracer.layer_calls["em.dispatch"] / n,
        "em.dispatch.blocks_per_call": sum(o.machine_ios for o in traced) / dispatch_calls,
        "em.dispatch.us_per_call": 1e6 * tracer.dispatch_total_s / dispatch_calls,
        "em.alloc.calls": (tracer.calls["EMMachine.alloc"] + tracer.calls["EMMachine.free"]) / n,
        "em.trace.events_per_op": sum(o.events for o in traced) / n,
        "em.trace.retained_events": retained,
        "em.crypto.calls": tracer.layer_calls["em.crypto"] / n,
        "em.storage.space_amplification": statistics.median(rec.amplification) if rec.amplification else 0.0,
        "api.attempts": attempts / n,
        "api.useful_attempt_share": (attempts - tracer.runner_failures) / attempts if attempts else 0.0,
        "api.failed_attempt_s": tracer.failed_attempt_s / n,
        "oram.rebuilds": tracer.rebuilding_accesses / n,
        "oram.rebuild_access_s": (
            tracer.rebuild_access_s / tracer.rebuilding_accesses if tracer.rebuilding_accesses else 0.0
        ),
        "service.rejections": tracer.rejections / n,
        "bench.traced_wall_s": tracer.wall_s / n,
        "bench.unattributed_s": tracer.unattributed_s / n,
        "bench.trace_overhead_share": (
            statistics.median(traced_s) / statistics.median(untraced_s) - 1
            if traced_s and untraced_s
            else 0.0
        ),
    })
    return {name: values[name] for name in PER_LAYER}


if __name__ == "__main__":
    sys.exit(main())
