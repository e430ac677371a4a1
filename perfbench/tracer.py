"""Outside-in span tracing of the simulator's layers.

The tracer wraps the public entry points of each layer — EMMachine
dispatch and allocation, the AccessTrace, the ciphertext-version clock,
the butterfly router at its binding sites, registered algorithm runners,
the relational kernels, the plan executor and optimizer, the square-root
ORAM and the service's admission gate — from this directory, without
editing the program.  A span is opened only inside a request (a root
span opened by :meth:`Tracer.request`), so work the benchmark does
around requests is never attributed to a layer.

Spans are aggregated as they close rather than stored: each span's
*self* time (its duration minus the time its child spans cover) is added
to its layer, and its full duration is added to its parent's child time.
The root's self time is the unattributed remainder, so per request

    sum(layer self times) + unattributed == request wall time

holds by construction, up to float rounding.

:meth:`Tracer.install` patches the program and :meth:`Tracer.uninstall`
restores every original, so untraced requests run the unmodified code.
"""

from __future__ import annotations

import dataclasses
import functools
import time
from collections import defaultdict

#: Layer of each wrapped entry point: ``(module, owner, attribute)``
#: where ``owner`` is a class name or ``None`` for a module-level
#: binding.  Module-level functions are wrapped where their callers
#: imported them (``from x import f`` binds ``f`` in the caller).
ENTRY_POINTS = {
    "em.dispatch": [
        ("repro.em.machine", "EMMachine", name)
        for name in (
            "io_rounds", "read_many", "write_many", "copy_many",
            "swap_many", "read", "write",
        )
    ],
    "em.alloc": [
        ("repro.em.machine", "EMMachine", "alloc"),
        ("repro.em.machine", "EMMachine", "free"),
        ("repro.em.storage", "StorageBackend", "allocate"),
        ("repro.em.storage", "StorageBackend", "release"),
    ],
    "em.transfer": [
        ("repro.em.machine", "EMMachine", name)
        for name in (
            "load_records", "begin_chunked_load", "load_chunk",
            "extract_records", "stage_records", "repack_resident",
        )
    ],
    "em.trace.append": [
        ("repro.em.trace", "AccessTrace", name)
        for name in ("record", "record_batch", "record_events", "append_rows")
    ],
    "em.trace.fingerprint": [
        ("repro.em.trace", "AccessTrace", name)
        for name in (
            "fingerprint", "fingerprint_pair", "as_array", "shape_fingerprint",
        )
    ],
    "em.crypto": [
        ("repro.em.crypto", "CiphertextVersions", name)
        for name in ("reencrypt", "reencrypt_many", "reencrypt_range")
    ],
    "networks.butterfly": [
        ("repro.core.compaction", None, "butterfly_compact"),
        ("repro.core.failure_sweep", None, "butterfly_compact"),
        ("repro.core.failure_sweep", None, "butterfly_expand"),
    ],
    "core.block_sort": [
        ("repro.core.compaction", None, "oblivious_block_sort"),
        ("repro.core.failure_sweep", None, "oblivious_block_sort"),
        ("repro.oram.square_root", None, "oblivious_block_sort"),
    ],
    # Core algorithm code called from outside a runner span; registered
    # runners join this layer in :meth:`Tracer.install`.
    "core.runner": [
        ("repro.relational.join", None, "oblivious_sort"),
        ("repro.relational.groupby", None, "oblivious_sort"),
    ],
    "relational": [
        ("repro.api.registry", None, "equi_join_em"),
        ("repro.api.registry", None, "group_by_em"),
    ],
    "api.executor": [("repro.api.executor", "Executor", "execute")],
    "api.optimizer": [("repro.api.executor", None, "optimize_plan")],
    "oram": [
        ("repro.oram.square_root", "SquareRootORAM", name)
        for name in ("read", "write", "update")
    ],
    "service": [("repro.service.service", "ObliviousService", "admit")],
}

#: Every layer a span can be attributed to, in report order.
LAYERS = tuple(ENTRY_POINTS)


class Tracer:
    """Aggregates layer spans of the requests it is asked to trace."""

    def __init__(self) -> None:
        #: Child-time accumulators of the open spans, root first.
        self._stack: list[list[float]] = []
        #: ``(owner, attribute, original, wrapper)`` per entry point.
        self._patches: list[tuple] = []
        #: ``(registered spec, spec with a traced runner)`` pairs.
        self._runner_specs: list[tuple] = []
        self._installed = False
        self.self_s: dict[str, float] = defaultdict(float)
        #: Calls per entry point (``Owner.attr``) and per layer.
        self.calls: dict[str, int] = defaultdict(int)
        self.layer_calls: dict[str, int] = defaultdict(int)
        #: Inclusive seconds of em.dispatch spans (dispatch never nests).
        self.dispatch_total_s = 0.0
        self.requests = 0
        self.wall_s = 0.0
        self.unattributed_s = 0.0
        self.runner_attempts = 0
        self.runner_failures = 0
        self.failed_attempt_s = 0.0
        self.rejections = 0
        self.rebuilding_accesses = 0
        self.rebuild_access_s = 0.0
        self.peak_live_bytes = 0

    # -- requests -----------------------------------------------------------

    def request(self, fn, *args):
        """Run ``fn(*args)`` as one traced request (the root span);
        returns ``(result, wall seconds)``.  The caller sets
        :attr:`peak_live_bytes` to the live bytes before the request."""
        frame = [0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            wall = time.perf_counter() - start
            self._stack.pop()
            self.requests += 1
            self.wall_s += wall
            self.unattributed_s += wall - frame[0]
        return result, wall

    # -- patching -----------------------------------------------------------

    @property
    def installed(self) -> bool:
        return self._installed

    def install(self) -> None:
        """Wrap every entry point in :data:`ENTRY_POINTS` and every
        registered algorithm runner (wrappers are built once and reused
        by later installs)."""
        from repro.api import registry

        if self._installed:
            raise RuntimeError("tracer is already installed")
        if not self._patches:
            self._build_patches()
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        for _, wrapped in self._runner_specs:
            registry.register(wrapped, replace=True)
        self._installed = True

    def uninstall(self) -> None:
        """Restore every original entry point and runner."""
        from repro.api import registry

        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)
        for spec, _ in self._runner_specs:
            registry.register(spec, replace=True)
        self._installed = False

    def _build_patches(self) -> None:
        import importlib

        from repro.api import registry

        hooks = self._hooks()
        for layer, points in ENTRY_POINTS.items():
            for module_name, owner_name, attr in points:
                module = importlib.import_module(module_name)
                owner = module if owner_name is None else getattr(module, owner_name)
                original = owner.__dict__[attr]
                key = f"{owner_name or module_name}.{attr}"
                wrapper = self._wrap(layer, key, original, *hooks.get(key, (None, None)))
                self._patches.append((owner, attr, original, wrapper))
        for name in registry.names():
            spec = registry.get(name)
            wrapped = dataclasses.replace(spec, runner=self._wrap_runner(spec.runner))
            self._runner_specs.append((spec, wrapped))

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, layer: str, key: str, fn, before=None, after=None):
        """A span around ``fn``; ``before(args) -> state`` and
        ``after(args, exception, state, duration)`` observe the call."""
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        layer_calls = self.layer_calls

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            state = before(args) if before is not None else None
            frame = [0.0]
            stack.append(frame)
            start = time.perf_counter()
            exc = None
            try:
                return fn(*args, **kwargs)
            except BaseException as err:
                exc = err
                raise
            finally:
                dur = time.perf_counter() - start
                stack.pop()
                stack[-1][0] += dur
                self_s[layer] += dur - frame[0]
                calls[key] += 1
                layer_calls[layer] += 1
                if layer == "em.dispatch":
                    self.dispatch_total_s += dur
                if after is not None:
                    after(args, exc, state, dur)

        return traced

    def _wrap_runner(self, runner):
        from repro.errors import LasVegasFailure

        wrapped = self._wrap("core.runner", "runner", runner)

        @functools.wraps(runner)
        def traced_runner(*args, **kwargs):
            if not self._stack:
                return runner(*args, **kwargs)
            self.runner_attempts += 1
            start = time.perf_counter()
            try:
                return wrapped(*args, **kwargs)
            except LasVegasFailure:
                self.runner_failures += 1
                self.failed_attempt_s += time.perf_counter() - start
                raise

        return traced_runner

    def _hooks(self) -> dict:
        """``(before, after)`` observers of single entry points, keyed
        like :attr:`calls`."""
        from repro.errors import ServiceBusy

        def note_live(args, exc, state, dur):
            self.peak_live_bytes = max(self.peak_live_bytes, args[0].live_bytes)

        def note_rejection(args, exc, state, dur):
            if isinstance(exc, ServiceBusy):
                self.rejections += 1

        def rebuilds(args):
            return args[0].rebuilds

        def note_rebuild(args, exc, state, dur):
            if args[0].rebuilds > state:
                self.rebuilding_accesses += 1
                self.rebuild_access_s += dur

        hooks = {
            "StorageBackend.allocate": (None, note_live),
            "ObliviousService.admit": (None, note_rejection),
        }
        for name in ("read", "write", "update"):
            hooks[f"SquareRootORAM.{name}"] = (rebuilds, note_rebuild)
        return hooks
