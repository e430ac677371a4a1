"""Pass 3: parallel-safety of ParallelIOEngine worker shards.

PR 7's worker pool moves bytes in parallel but keeps every piece of
*accounting* — trace rows, ciphertext version bumps, I/O meters,
storage ledgers — in the calling thread's sequential epilogue.  That
invariant is what makes the adversary-visible transcript (and the
counters the benchmarks report) deterministic under any worker
interleaving.  This pass encodes it as three checkable rules over the
code reachable from worker entry points:

* ``PAR301`` — attribute mutation of shared objects (closure/engine
  state).  Workers may store into array *elements* (that is the job),
  never rebind attributes or bump counters on shared objects;
* ``PAR302`` — calls into epilogue-only APIs (``AccessTrace``
  recording, ``CiphertextVersions`` re-encryption bumps, machine
  ``_notify_io``/observer hooks);
* ``PAR303`` — machine I/O entry points or storage-ledger calls from
  a worker (workers receive raw ndarray views, they do not re-enter
  the machine).

Worker entries are found structurally: nested functions named ``job``
inside ``_*_job`` builders, call targets passed to ``.submit(...)``,
and the process-pool shard ``_memmap_mix_shard``.
"""

from __future__ import annotations

import ast

from repro.lint.conformance import reachable
from repro.lint.findings import Finding
from repro.lint.model import FunctionInfo, ModuleInfo, Project
from repro.lint.taint import MACHINE_OPS

__all__ = ["check_parallel_safety", "worker_entries"]

#: Epilogue-only API names (sequential-side accounting).
EPILOGUE_ATTRS = {
    "record",
    "record_rounds",
    "record_batch",
    "record_events",
    "append_rows",
    "store_indices",
    "reencrypt",
    "reencrypt_many",
    "reencrypt_range",
    "_notify_io",
    "_count_batch",
    "on_io",
    "io_observer",
}

#: Machine/storage entry points workers must not re-enter.  Scalar
#: read/write are included: inside a worker there is no ORAM frontend,
#: so any read/write attribute call is a machine re-entry.
IO_ATTRS = (
    set(MACHINE_OPS)
    | {"read", "write", "allocate", "release", "live_bytes", "_ledger"}
) - {"raw", "flat"}


def worker_entries(mod: ModuleInfo) -> list[FunctionInfo]:
    """Worker-side entry points of one module."""
    entries: dict[str, FunctionInfo] = {}
    for qual, info in mod.functions.items():
        parts = qual.split(".")
        if info.name == "job" and len(parts) >= 2 and parts[-2].endswith("_job"):
            entries[qual] = info
        if info.name == "_memmap_mix_shard":
            entries[qual] = info
    # Call targets handed to pool.submit(fn, ...): the submitted fn
    # (and its callable args) run on a worker thread.
    for node in ast.walk(mod.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr == "submit"):
            continue
        for arg in node.args:
            name = None
            if isinstance(arg, ast.Name):
                name = arg.id
            elif isinstance(arg, ast.Attribute):
                name = arg.attr
            if name is None:
                continue
            for qual, info in mod.functions.items():
                if qual == name or qual.endswith(f".{name}") or info.name == name:
                    entries.setdefault(qual, info)
    return sorted(entries.values(), key=lambda f: f.line)


def _check_worker(project: Project, entry: FunctionInfo) -> list[Finding]:
    findings: list[Finding] = []
    for func in reachable(project, entry):
        local_objs = set(func.params)
        # Objects constructed inside the worker are private to it.
        created = {
            t.id
            for stmt in ast.walk(func.node)
            if isinstance(stmt, ast.Assign)
            for t in stmt.targets
            if isinstance(t, ast.Name) and isinstance(stmt.value, ast.Call)
        }
        chain = (
            (f"worker entry {entry.qualname}",)
            if func is not entry
            else ()
        )
        for node in ast.walk(func.node):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for t in targets:
                    if not isinstance(t, ast.Attribute):
                        continue
                    base = t.value
                    base_name = base.id if isinstance(base, ast.Name) else None
                    if base_name in created:
                        continue
                    findings.append(
                        Finding(
                            rule="PAR301",
                            path=func.module.relpath,
                            line=node.lineno,
                            message=(
                                f"worker-reachable '{func.name}' mutates "
                                f"shared attribute "
                                f"'{base_name or '<expr>'}.{t.attr}'; "
                                "accounting belongs in the sequential "
                                "epilogue"
                            ),
                            chain=chain,
                        )
                    )
            elif isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ):
                attr = node.func.attr
                if attr in EPILOGUE_ATTRS:
                    findings.append(
                        Finding(
                            rule="PAR302",
                            path=func.module.relpath,
                            line=node.lineno,
                            message=(
                                f"worker-reachable '{func.name}' calls "
                                f"epilogue-only API '.{attr}()'; trace/"
                                "version/meter updates must stay sequential"
                            ),
                            chain=chain,
                        )
                    )
                elif attr in IO_ATTRS and not _is_local_elementwise(node, local_objs):
                    findings.append(
                        Finding(
                            rule="PAR303",
                            path=func.module.relpath,
                            line=node.lineno,
                            message=(
                                f"worker-reachable '{func.name}' calls "
                                f"machine/storage entry point '.{attr}()'; "
                                "workers only move bytes between buffers"
                            ),
                            chain=chain,
                        )
                    )
    return findings


def _is_local_elementwise(node: ast.Call, local_objs: set[str]) -> bool:
    """``buf.read()`` on a worker-local file object is not a machine
    re-entry; only flag calls whose receiver is plausibly shared —
    conservatively, anything that is not a call result."""
    recv = node.func.value
    return isinstance(recv, ast.Call)


def check_parallel_safety(
    project: Project, modules: list[ModuleInfo]
) -> list[Finding]:
    findings: list[Finding] = []
    for mod in modules:
        for entry in worker_entries(mod):
            findings.extend(_check_worker(project, entry))
    # Deduplicate (several entries can reach the same helper).
    seen: set[tuple] = set()
    out: list[Finding] = []
    for f in sorted(findings, key=lambda f: (f.path, f.line, f.rule)):
        key = (f.rule, f.path, f.line)
        if key not in seen:
            seen.add(key)
            out.append(f)
    return out
