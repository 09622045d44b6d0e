"""Run ``repro serve`` with timers and counters around named layer functions.

Usage::

    PYTHONPATH=src python blogbench/traced_server.py COUNTERS.json serve ARGS...

The launcher times ``import repro.cli`` in its own fresh interpreter,
replaces a fixed set of the service's functions, where their callers
look them up, with wrappers that count calls and add up their time, then hands ``ARGS`` to ``repro.cli.main``.  When
the server exits, the totals go to ``COUNTERS.json``.  Process lanes are
forked from the server and inherit the wrappers; each lane writes its
own totals to ``COUNTERS.json.lane-<pid>`` when it shuts down.

The service's own spans (``--trace-log``) cover the request phases; the
wrappers cover what runs inside them.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time

_local = threading.local()
_tables: list[dict] = []  # one per thread that recorded anything
_tables_lock = threading.Lock()


def _slot(name: str) -> list:
    """This thread's ``[calls, seconds, extra]`` for ``name``; per-thread
    tables keep the counts exact without a lock on every call."""
    table = getattr(_local, "table", None)
    if table is None:
        table = _local.table = {}
        with _tables_lock:
            _tables.append(table)
    slot = table.get(name)
    if slot is None:
        slot = table[name] = [0, 0.0, 0.0]
    return slot


def totals() -> dict:
    out: dict = {}
    with _tables_lock:
        for table in _tables:
            for name, (calls, seconds, extra) in table.items():
                t = out.setdefault(name, {"calls": 0, "seconds": 0.0, "extra": 0.0})
                t["calls"] += calls
                t["seconds"] += seconds
                t["extra"] += extra
    return out


def timed(name: str, fn, extra=None):
    """Wrap ``fn``: count calls, add up wall time, and add
    ``extra(result, args)`` to the slot's third field."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t = time.perf_counter()
        result = fn(*args, **kwargs)
        elapsed = time.perf_counter() - t
        slot = _slot(name)
        slot[0] += 1
        slot[1] += elapsed
        if extra is not None:
            slot[2] += extra(result, args)
        return result

    return wrapper


def timed_async(name: str, fn):
    @functools.wraps(fn)
    async def wrapper(*args, **kwargs):
        t = time.perf_counter()
        try:
            return await fn(*args, **kwargs)
        finally:
            slot = _slot(name)
            slot[0] += 1
            slot[1] += time.perf_counter() - t

    return wrapper


def dump(path: str, extra: dict) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump({**extra, "layers": totals()}, fh)
    os.replace(tmp, path)


def install(counters_path: str) -> None:
    """Replace the measured functions where their callers look them up."""
    from repro.core import engine, procpool
    from repro.logic import builtins
    from repro.logic.program import Program
    from repro.ortree import tree
    from repro.service import server, workers
    from repro.weights.wal import WeightWal

    from_source = Program.from_source.__func__
    Program.from_source = classmethod(timed("program.from_source", from_source))
    workers.WorkerPool.start = timed_async("workers.pool_start", workers.WorkerPool.start)
    server.parse_query = timed("parser.parse_query", server.parse_query)
    tree.OrTree.expand = timed(
        "ortree.expand", tree.OrTree.expand, lambda children, _: len(children)
    )
    tree.unify = timed("unify.unify", tree.unify)
    builtins.unify = timed("unify.unify", builtins.unify)
    tree._rename_clause = timed("unify.rename_clause", tree._rename_clause)
    engine.on_success_policy = timed("policies.update", engine.on_success_policy)
    engine.on_failure_policy = timed("policies.update", engine.on_failure_policy)
    server.store_delta = timed(
        "persist.store_delta", server.store_delta, lambda delta, _: len(delta["entries"])
    )
    WeightWal.append = timed(
        "wal.append", WeightWal.append, lambda _, args: args[0].last_fsync_s
    )

    lane_main = procpool.lane_worker_main

    @functools.wraps(lane_main)
    def traced_lane_main(conn, lane):
        # a forked lane starts with a copy of the server's tables
        with _tables_lock:
            _tables.clear()
        _local.__dict__.pop("table", None)
        try:
            lane_main(conn, lane)
        finally:
            dump(f"{counters_path}.lane-{os.getpid()}", {"lane": lane})

    procpool.lane_worker_main = traced_lane_main


def main(argv: list[str]) -> int:
    counters_path, serve_args = argv[0], argv[1:]
    t = time.perf_counter()
    import repro.cli

    import_s = time.perf_counter() - t
    install(counters_path)
    try:
        return repro.cli.main(serve_args)
    finally:
        dump(counters_path, {"import_s": import_s})


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
