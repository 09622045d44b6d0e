"""Driving a real ``repro serve`` process: boot, closed-loop load, /proc.

The server is a subprocess; the load comes from one client process over
one blocking socket.  It sends its next line only after the previous
reply arrived (closed loop), and stores the raw reply so that checking
it costs nothing inside the timed phase.
"""

from __future__ import annotations

import json
import os
import select
import signal
import socket
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

__all__ = ["quantile", "Server", "Conn", "Record", "drive", "ProcessTree", "host_cpu_ticks"]

TIMEOUT_S = 60.0


def quantile(samples: Sequence[float], q: float) -> float:
    """The ``q`` quantile of ``samples``, interpolated linearly between the
    two nearest ranks (ranks 0..n-1, position ``q * (n - 1)``)."""
    if not samples:
        raise ValueError("quantile of no samples")
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must lie in [0, 1]")
    xs = sorted(samples)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


class Conn:
    """One line-JSON connection to the server."""

    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port), TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.rfile = self.sock.makefile("rb")

    def send(self, line: bytes) -> bytes:
        self.sock.sendall(line)
        reply = self.rfile.readline()
        if not reply:
            raise ConnectionError("server closed the connection")
        return reply

    def ask(self, msg: dict) -> dict:
        return json.loads(self.send(json.dumps(msg).encode() + b"\n"))

    def close(self) -> None:
        self.rfile.close()
        self.sock.close()


class Server:
    """A ``repro serve`` subprocess on an ephemeral port.

    ``setup_s`` is the time from launch to the first ``ready`` reply that
    says ready.
    """

    def __init__(self, argv: list[str], cwd: Path, env: dict, log: Path):
        self.log = log
        t0 = time.perf_counter()
        with open(log, "wb") as err:
            self.proc = subprocess.Popen(
                argv, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=err
            )
        try:
            self.port = self._await_banner()
            conn = Conn(self.port)
            try:
                while not conn.ask({"op": "ready"}).get("ready"):
                    time.sleep(0.005)
            finally:
                conn.close()
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - t0

    def _await_banner(self) -> int:
        stdout = self.proc.stdout
        assert stdout is not None
        deadline = time.monotonic() + TIMEOUT_S
        while time.monotonic() < deadline:
            ready, _, _ = select.select([stdout], [], [], deadline - time.monotonic())
            if not ready:
                break
            line = stdout.readline().decode()
            if not line:
                raise RuntimeError(
                    f"server exited before serving (rc={self.proc.wait()}): "
                    + self.log.read_text(errors="replace")[-2000:]
                )
            if line.startswith("serving "):
                # "serving kin on 127.0.0.1:PORT (...)"
                return int(line.split(" on ", 1)[1].split()[0].rsplit(":", 1)[1])
        raise RuntimeError("timed out waiting for the serving banner")

    def stop(self) -> tuple[int, str]:
        """SIGTERM (graceful drain); returns the exit code and stdout."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            out, _ = self.proc.communicate(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            return -1, ""
        return self.proc.returncode, out.decode(errors="replace")

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()


class ProcessTree:
    """CPU time and peak memory of a process and its children, from /proc."""

    def __init__(self, pid: int):
        self.pid = pid
        self.tick = os.sysconf("SC_CLK_TCK")

    def pids(self) -> list[int]:
        found = [self.pid]
        i = 0
        while i < len(found):
            for task in Path(f"/proc/{found[i]}/task").iterdir():
                text = (task / "children").read_text()
                found.extend(int(p) for p in text.split())
            i += 1
        return found

    def cpu_s(self) -> dict[int, float]:
        """utime + stime of each live process, in seconds."""
        out = {}
        for pid in self.pids():
            stat = Path(f"/proc/{pid}/stat").read_text()
            fields = stat[stat.rindex(")") + 2:].split()
            out[pid] = (int(fields[11]) + int(fields[12])) / self.tick
        return out

    def hwm_mb(self) -> float:
        """Sum of VmHWM (peak resident set) over the tree, in MiB."""
        total_kb = 0
        for pid in self.pids():
            for line in Path(f"/proc/{pid}/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
        return total_kb / 1024.0


def host_cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies of all CPUs from /proc/stat: the share of
    time the host ran other guests while this one wanted to run."""
    fields = [int(x) for x in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]
    return fields[7], sum(fields[:8])


@dataclass
class Record:
    """One operation as the client saw it."""

    op: object  # inputs.Op
    rid: str
    rtt_s: float
    reply: bytes


def drive(
    conn: Conn,
    round_ops: Callable[[int], list],
    phase: str,
    rounds: int = 1,
    first_round: int = 0,
) -> tuple[list[Record], float]:
    """Closed-loop load on one connection: the operations of
    ``round_ops(r)`` for ``rounds`` rounds from ``first_round`` on, each
    sent after the previous reply arrived.  Every round is built before
    the clock starts.  Returns the records and the wall time."""
    plan = [
        (f"{phase}{r}.{i}", op)
        for r in range(first_round, first_round + rounds)
        for i, op in enumerate(round_ops(r))
    ]
    records = []
    send = conn.send
    clock = time.perf_counter
    start = clock()
    for rid, op in plan:
        line = op.line(rid)
        t = clock()
        reply = send(line)
        records.append(Record(op, rid, clock() - t, reply))
    return records, clock() - start
