"""The B-LOG service benchmark: one workload, one seed, one run.

Usage (from the repository root)::

    python3 blogbench/run.py --workload search-cold --seed 1 --seconds 40 --trace 0

The run boots ``python -m repro serve`` on a fresh data directory, drives
it over TCP from one closed-loop connection, checks every reply against
answers computed apart from the engine, checks the acknowledged merges
against an offline recovery of a copy of the data directory, and stops
the server with SIGTERM.  The last line of standard output is the result
as JSON: end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1`` (see README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import inputs  # noqa: E402
import layers  # noqa: E402
from harness import (  # noqa: E402
    Conn, ProcessTree, Record, Server, drive, host_cpu_ticks, quantile,
)
from oracle import check_answers  # noqa: E402

#: boots per untraced run; ``setup_s`` is their median
BOOTS = 5
LANES = 2

END_TO_END = {
    "setup_s": "s",
    "throughput_qps": "1/s",
    "query_p50_ms": "ms",
    "expansions_per_query": "count",
    "server_cpu_ms_per_query": "ms",
    "server_rss_mb": "MB",
    "wal_bytes_per_merge": "bytes",
}


def git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
            # a checkout that is not a repository must not report the sha
            # of some repository above it
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def reference_loop_ms() -> float:
    """Median time of a fixed pure-Python loop: how fast this machine ran
    just before the timed phase, recorded so that run-to-run spread can
    be told apart from the program's own."""
    times = []
    for _ in range(5):
        t = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i
        times.append(time.perf_counter() - t)
    return statistics.median(times) * 1000.0


class Run:
    """One workload run's files, server and client state."""

    def __init__(self, workload: inputs.Workload, work: Path, traced: bool):
        self.w = workload
        self.work = work
        self.traced = traced
        self.env = {**os.environ, "PYTHONPATH": str(SRC)}
        self.sources = []
        for stem, text in workload.programs.items():
            path = work / f"{stem}.pl"
            path.write_text(text)
            self.sources += ["--source", str(path)]
        self.boots = 0

    def boot(self) -> tuple[Server, Path]:
        """A server on a fresh data dir (traced: through the launcher)."""
        self.boots += 1
        data_dir = self.work / f"data{self.boots}"
        serve = [
            "serve", *self.sources, "--port", "0", "--workers", str(LANES),
            "--backend", self.w.backend, "--data-dir", str(data_dir),
        ]
        if self.traced:
            argv = [
                sys.executable, "-u", str(HERE / "traced_server.py"),
                str(self.work / "counters.json"), *serve,
                "--trace-log", str(self.work / "trace.jsonl"),
                "--trace-log-max-bytes", str(1 << 40),
            ]
        else:
            argv = [sys.executable, "-u", "-m", "repro", *serve]
        return Server(argv, ROOT, self.env, self.work / f"server{self.boots}.log"), data_dir


def check(records: list[Record]) -> tuple[list[dict], list[tuple[str, str]]]:
    """Parse and check every reply: the parsed replies (None where
    unreadable) and ``(kind, why)`` for each failed operation."""
    replies, failures = [], []
    for rec in records:
        op = rec.op
        try:
            reply = json.loads(rec.reply)
        except json.JSONDecodeError as exc:
            replies.append(None)
            failures.append((op.kind, f"{rec.rid}: bad json ({exc})"))
            continue
        replies.append(reply)
        if reply.get("ok") is not True:
            failures.append((op.kind, f"{rec.rid}: {reply.get('error')}"))
        elif op.kind == "query":
            why = (
                f"reply id {reply.get('id')!r}" if reply.get("id") != rec.rid
                else check_answers(reply.get("answers"), op.var, op.expected, op.max_solutions)
            )
            if why:
                failures.append((op.kind, f"{rec.rid} {op.query}: {why}"))
    return replies, failures


def store_changed(reply: Optional[dict]) -> bool:
    """Whether an end_session reply reports a merge that wrote the store."""
    merged = (reply or {}).get("merged")
    return bool(merged) and merged["adopted"] + merged["averaged"] + merged["retracted"] > 0


def acked_merges(
    records: list[Record], replies: list[dict]
) -> tuple[dict[str, dict[str, set[int]]], dict[str, dict[str, int]]]:
    """Per program and session: the generations of every acknowledged
    merge, and the highest generation of a merge that changed the store
    (which must be journaled before its reply)."""
    acked: dict[str, dict[str, set[int]]] = {}
    changed: dict[str, dict[str, int]] = {}
    for rec, reply in zip(records, replies):
        merged = (reply or {}).get("merged") if rec.op.kind == "merge" else None
        if merged:
            generation = merged["generation"]
            acked.setdefault(rec.op.program, {}).setdefault(rec.op.session, set()).add(generation)
            if store_changed(reply):
                sessions = changed.setdefault(rec.op.program, {})
                sessions[rec.op.session] = max(generation, sessions.get(rec.op.session, 0))
    return acked, changed


def check_durability(
    data_dir: Path,
    copy: Path,
    acked: dict[str, dict[str, set[int]]],
    changed: dict[str, dict[str, int]],
) -> tuple[list[str], float]:
    """Recover a copy of the live data dir offline.  Every merge that
    changed the store must be replayed, each session's last replayed
    merge must be one that was acknowledged, and the store must reach
    the highest acknowledged generation.  Returns problems and the
    recovery time."""
    from repro.weights.wal import DurableStore

    shutil.copytree(data_dir, copy)
    problems = []
    recover_s = 0.0
    for program_dir in sorted(p for p in copy.iterdir() if p.is_dir()):
        program = program_dir.name
        must, may = changed.get(program, {}), acked.get(program, {})
        durable = DurableStore(program_dir)
        t = time.perf_counter()
        store, info = durable.recover()
        recover_s += time.perf_counter() - t
        durable.close()
        applied = durable.applied
        lost = {s: g for s, g in must.items() if applied.get(s, -1) < g}
        phantom = {s: g for s, g in applied.items() if g not in may.get(s, ())}
        if lost or phantom:
            problems.append(
                f"{program}: acknowledged merges not recovered {lost}, "
                f"recovered merges never acknowledged {phantom}"
            )
        if store.generation != max(must.values(), default=0):
            problems.append(
                f"{program}: recovered generation {store.generation}, highest "
                f"acknowledged {max(must.values(), default=0)}"
            )
    return problems, recover_s


def run(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    # The client, the server and its lanes all run on one core (children
    # inherit the affinity).  With one closed-loop connection the work is
    # a chain of hops that never overlap, and on a shared host each hop
    # to a sleeping second vCPU waits for the hypervisor to wake it: that
    # wait followed host load and spread learn-merge's throughput by 45%
    # between runs.  On one core a hop is an ordinary context switch.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    w = inputs.build(workload, seed)
    work = ROOT / ".blogbench" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    servers: list[Server] = []
    conn: Optional[Conn] = None
    try:
        r = Run(w, work, traced)
        setups = []
        problems: list[str] = []
        for _ in range(0 if traced else BOOTS - 1):
            srv, _ = r.boot()
            servers.append(srv)
            setups.append(srv.setup_s)
            rc, out = srv.stop()
            if rc != 0 or "drained." not in out:
                problems.append(f"boot probe shutdown: rc={rc}")
        srv, data_dir = r.boot()
        servers.append(srv)
        setups.append(srv.setup_s)
        conn = Conn(srv.port)

        records, _ = drive(conn, lambda i: w.prime, "p")
        records += drive(conn, w.round, "w")[0]
        calibration_ms = reference_loop_ms()
        steal0, total0 = host_cpu_ticks()
        tree = ProcessTree(srv.proc.pid)
        block_rounds = max(1, round(seconds * w.rounds_per_s / inputs.BLOCKS))
        blocks = []
        for b in range(inputs.BLOCKS):
            cpu0 = tree.cpu_s()
            block, block_s = drive(
                conn, lambda i: w.round(i, b), "t", block_rounds,
                first_round=1 + b * block_rounds,
            )
            cpu1 = tree.cpu_s()
            window, _ = drive(conn, lambda i: w.window(b, inputs.BLOCKS), f"m{b}-")
            blocks.append({
                "records": block,
                "window": window,
                "seconds": block_s,
                "cpu_s": sum(cpu1[pid] - cpu0.get(pid, 0.0) for pid in cpu1),
            })
        timed = [rec for blk in blocks for rec in blk["records"]]
        windows = [rec for blk in blocks for rec in blk["window"]]
        elapsed = sum(blk["seconds"] for blk in blocks)
        rss_mb = tree.hwm_mb()
        steal1, total1 = host_cpu_ticks()
        # end every session the timed phase may have left open
        closing, _ = drive(conn, lambda i: w.closing, "c")
        stats = conn.ask({"op": "stats"})["stats"]
        records += timed + windows + closing

        replies, failures = check(records)
        acked, changed = acked_merges(records, replies)
        durable_problems, recover_s = check_durability(
            data_dir, work / "recovered", acked, changed
        )
        problems += durable_problems
        conn.close()
        conn = None
        rc, out = srv.stop()
        if rc != 0 or "drained." not in out:
            problems.append(f"shutdown: rc={rc}, drained={'drained.' in out}")

        reply_of = {rec.rid: reply for rec, reply in zip(records, replies)}
        ok_queries = [
            (rec, reply) for rec, reply in zip(records, replies)
            if rec.op.kind == "query" and reply and reply.get("ok")
        ]
        executed = [reply["expansions"] for _, reply in ok_queries if not reply["cached"]]
        per_block = []  # (queries/s, p50 s, p99 s, server cpu s per query, merge rtts)
        for blk in blocks:
            rtts = [
                rec.rtt_s for rec in blk["records"]
                if rec.op.kind == "query" and (reply_of[rec.rid] or {}).get("ok")
            ]
            if not rtts:  # every query of the block failed; counted in failed
                continue
            merge_rtts = [
                rec.rtt_s for rec in blk["records"] + blk["window"]
                if rec.op.kind == "merge" and store_changed(reply_of[rec.rid])
            ]
            per_block.append((
                len(rtts) / blk["seconds"],
                quantile(rtts, 0.50),
                quantile(rtts, 0.99),
                blk["cpu_s"] / len(rtts),
                merge_rtts,
            ))
        changing_merges = sum(len(sessions) for sessions in changed.values())
        wal_bytes = sum(d["wal_bytes"] for d in stats["durability"].values())
        # each timing is the median over the blocks of the block's own
        # figure, so a slow stretch of the machine that spans fewer than
        # half of the blocks does not move it
        throughput = statistics.median(b[0] for b in per_block)
        p99_ms = statistics.median(b[2] for b in per_block) * 1000.0
        merge_ms = statistics.median(quantile(b[4], 0.50) for b in per_block if b[4]) * 1000.0
        if traced:
            from repro.service.telemetry import read_trace_log

            metrics = layers.reduce(
                read_trace_log(str(work / "trace.jsonl")),
                layers.read_counters(work / "counters.json"),
                {rec.rid: rec.rtt_s for rec in timed if rec.op.kind == "query"},
                stats,
                changing_merges,
                recover_s,
            )
            metrics.update({
                "traced.throughput_qps": throughput,
                "traced.query_p99_ms": p99_ms,
                "traced.merge_p50_ms": merge_ms,
            })
            units = layers.PER_LAYER
        else:
            metrics = {
                "setup_s": statistics.median(setups),
                "throughput_qps": throughput,
                "query_p50_ms": statistics.median(b[1] for b in per_block) * 1000.0,
                "expansions_per_query": sum(executed) / len(executed),
                "server_cpu_ms_per_query": statistics.median(b[3] for b in per_block) * 1000.0,
                "server_rss_mb": rss_mb,
                "wal_bytes_per_merge": wal_bytes / changing_merges,
            }
            units = END_TO_END
        by_kind = {
            kind: {
                "attempted": sum(1 for rec in records if rec.op.kind == kind),
                "failed": sum(1 for k, _ in failures if k == kind),
            }
            for kind in ("query", "merge")
        }
        return {
            "record": {
                "workload": workload,
                "seed": seed,
                "traced": traced,
                "ops": by_kind,
                "timed_queries": sum(1 for rec in timed if rec.op.kind == "query"),
                "timed_s": elapsed,
                "engine_queries": len(executed),
                "timed_merges": sum(len(b[4]) for b in per_block),
                "block_qps": [round(b[0], 2) for b in per_block],
                "query_p99_ms": p99_ms,
                "merge_p50_ms": merge_ms,
                "changing_merges": changing_merges,
                "wal_appends": sum(d["wal_appends"] for d in stats["durability"].values()),
                "boots": setups,
                "env": {
                    "reference_loop_ms": calibration_ms,
                    "steal_share": (steal1 - steal0) / max(1, total1 - total0),
                    "cpus": os.cpu_count(),
                    "pinned_cpu": cpu,
                    "python": platform.python_version(),
                    "git_sha": git_sha(),
                },
                "problems": ([why for _, why in failures] + problems)[:20],
            },
            "result": {
                "correct": not problems,
                "attempted": len(records),
                "failed": len(failures),
                "metrics": {
                    name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
                },
            },
        }
    finally:
        if conn is not None:
            conn.close()
        for srv in servers:
            srv.kill()
        shutil.rmtree(work, ignore_errors=True)


def main(argv: list[str]) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument(
        "--seconds", type=float, required=True,
        help="sizes the timed phase: a fixed number of rounds per second, "
        "set so that the phase lasts about this long on a 2-core machine",
    )
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("run-record " + json.dumps(out["record"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
