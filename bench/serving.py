"""The system under test as a real subprocess, and its one closed-loop client.

The server is always the shipped ``python -m repro serve`` in its own process
group, so the whole tree (router, spawned workers, multiprocessing's helper)
can be measured through ``/proc`` and killed on any exit path. The client is
one process, one thread, one TCP connection: it writes a step, reads every
reply due, and only then writes the next step.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from workloads import ServeInput, Step

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SHIM = Path(__file__).resolve().parent / "shim"
_CLOCK_TICK = os.sysconf("SC_CLK_TCK")
_REPLY_TIMEOUT_S = 30.0


class RunFailed(RuntimeError):
    """The system under test did not do what the workload asked of it."""


class Deadline:
    """The hard per-workload time limit: nothing waits past it."""

    def __init__(self, seconds: float) -> None:
        self.at = time.monotonic() + seconds

    def remaining(self) -> float:
        left = self.at - time.monotonic()
        if left <= 0:
            raise RunFailed("hard workload timeout reached")
        return left


def system_environment(trace_dir: Optional[Path]) -> Dict[str, str]:
    """Environment of every process of the system under test.

    ``PYTHONHASHSEED`` is pinned because string-hash randomisation alone
    moves the recognition rate by several percent from one process to the
    next (set and dict orders change the work done); pinning it makes runs
    of one commit comparable, it does not favour any commit.
    """
    env = dict(os.environ)
    path = [str(SRC)]
    if trace_dir is not None:
        path.insert(0, str(SHIM))
        env["REPRO_BENCH_TRACE_DIR"] = str(trace_dir)
    else:
        env.pop("REPRO_BENCH_TRACE_DIR", None)
    env["PYTHONPATH"] = os.pathsep.join(path)
    env["PYTHONHASHSEED"] = "0"
    env.pop("REPRO_KERNEL_BACKEND", None)
    env.pop("REPRO_TELEMETRY", None)
    return env


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _read_proc(pid: int, name: str) -> Optional[str]:
    try:
        return Path("/proc/%d/%s" % (pid, name)).read_text()
    except OSError:
        return None


def _stat_fields(pid: int) -> Optional[List[str]]:
    text = _read_proc(pid, "stat")
    if text is None:
        return None
    # The command name may hold spaces; the fields after it start at state.
    return text.rsplit(")", 1)[1].split()


def process_stats(pid: int) -> Optional[Dict[str, Any]]:
    fields = _stat_fields(pid)
    status = _read_proc(pid, "status")
    cmdline = _read_proc(pid, "cmdline")
    if fields is None or status is None or cmdline is None:
        return None
    peak_kb = 0
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            peak_kb = int(line.split()[1])
    return {
        "pid": pid,
        "cpu_s": (int(fields[11]) + int(fields[12])) / _CLOCK_TICK,
        "peak_rss_kb": peak_kb,
        "helper": "resource_tracker" in cmdline,
    }


def cpu_seconds(pids: Sequence[int]) -> float:
    """User plus system CPU seconds consumed so far by the live ``pids``."""
    ticks = 0
    for pid in pids:
        fields = _stat_fields(pid)
        if fields is not None:
            ticks += int(fields[11]) + int(fields[12])
    return ticks / _CLOCK_TICK


def steal_seconds() -> float:
    """CPU seconds the hypervisor has withheld from this machine so far."""
    with open("/proc/stat") as stat:
        fields = stat.readline().split()
    return int(fields[8]) / _CLOCK_TICK if len(fields) > 8 else 0.0


class Connection:
    """Blocking JSON-lines client socket with a buffered line reader."""

    def __init__(self, sock: socket.socket, deadline: Deadline) -> None:
        self.sock = sock
        self.reader = sock.makefile("rb")
        self.deadline = deadline

    def send(self, payload: bytes) -> None:
        self.sock.settimeout(min(_REPLY_TIMEOUT_S, self.deadline.remaining()))
        self.sock.sendall(payload)

    def read(self) -> Dict[str, Any]:
        self.sock.settimeout(min(_REPLY_TIMEOUT_S, self.deadline.remaining()))
        try:
            line = self.reader.readline()
        except socket.timeout:
            raise RunFailed("missing reply: nothing arrived within %.0f s" % _REPLY_TIMEOUT_S)
        if not line:
            raise RunFailed("missing reply: the service closed the connection")
        return json.loads(line)

    def request(self, message: Dict[str, Any]) -> Dict[str, Any]:
        self.send(json.dumps(message, separators=(",", ":")).encode() + b"\n")
        return self.read()

    def close(self) -> None:
        try:
            self.reader.close()
            self.sock.close()
        except OSError:
            pass


class ServerProcess:
    """One ``python -m repro serve`` tree in its own process group."""

    def __init__(
        self, args: Sequence[str], workdir: Path, trace_dir: Optional[Path], label: str
    ) -> None:
        self.args = list(args)
        self.workdir = workdir
        self.trace_dir = trace_dir
        self.log_path = workdir / ("%s.log" % label)
        self.port = 0
        self.process: Optional[subprocess.Popen] = None
        self.spawned_at = 0.0

    def start(self) -> None:
        self.port = _free_port()
        command = [sys.executable, "-m", "repro", "serve", *self.args,
                   "--tcp", "127.0.0.1:%d" % self.port]
        with open(self.log_path, "ab") as log:
            self.spawned_at = time.perf_counter()
            self.process = subprocess.Popen(
                command, cwd=str(self.workdir), env=system_environment(self.trace_dir),
                stdin=subprocess.DEVNULL, stdout=log, stderr=log, start_new_session=True,
            )

    def connect(self, sessions: Sequence[str], deadline: Deadline) -> "tuple[Connection, float]":
        """Connect and wait until ``status`` lists every session.

        Returns the connection and the set-up time: spawn to that reply.
        """
        assert self.process is not None
        while True:
            if self.process.poll() is not None:
                raise RunFailed("server exited with code %s during start-up:\n%s"
                                % (self.process.returncode, self.log_tail()))
            deadline.remaining()
            try:
                sock = socket.create_connection(("127.0.0.1", self.port), timeout=1.0)
                break
            except OSError:
                time.sleep(0.005)
        connection = Connection(sock, deadline)
        while True:
            reply = connection.request({"type": "status"})
            if reply.get("ok") and all(name in reply.get("sessions", {}) for name in sessions):
                return connection, time.perf_counter() - self.spawned_at
            time.sleep(0.005)

    def tree(self) -> List[Dict[str, Any]]:
        """``/proc`` statistics of every live process of the server's group."""
        assert self.process is not None
        group = self.process.pid  # start_new_session made it the group leader
        found = []
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            fields = _stat_fields(int(entry))
            if fields is None or int(fields[2]) != group:
                continue
            stats = process_stats(int(entry))
            if stats is not None:
                stats["main"] = int(entry) == self.process.pid
                found.append(stats)
        return found

    def shutdown(self, connection: Optional[Connection], deadline: Deadline) -> int:
        """Ask for a graceful stop and wait for the whole tree to leave."""
        assert self.process is not None
        try:
            if connection is not None:
                connection.request({"type": "shutdown"})
                connection.close()
            return self.process.wait(timeout=min(60.0, deadline.remaining()))
        except (subprocess.TimeoutExpired, OSError, RunFailed):
            self.kill()
            raise RunFailed("server did not stop after 'shutdown':\n%s" % self.log_tail())

    def kill(self) -> None:
        if self.process is None:
            return
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        try:
            self.process.wait(timeout=10.0)
        except subprocess.TimeoutExpired:
            pass

    def log_tail(self, lines: int = 12) -> str:
        try:
            return "\n".join(self.log_path.read_text(errors="replace").splitlines()[-lines:])
        except OSError:
            return ""


@dataclass
class StepTimings:
    """What the generator's own clock saw over a range of steps."""

    latencies_s: List[float] = field(default_factory=list)
    ack_s: List[float] = field(default_factory=list)
    events: int = 0
    lines: int = 0
    error_replies: int = 0
    wall_s: float = 0.0

    def extend(self, other: "StepTimings") -> None:
        self.latencies_s += other.latencies_s
        self.ack_s += other.ack_s
        self.events += other.events
        self.lines += other.lines
        self.error_replies += other.error_replies
        self.wall_s += other.wall_s


def drive_steps(
    connection: Connection, sessions: Sequence[str], steps: Sequence[Step]
) -> StepTimings:
    """Step-synchronous closed loop over ``steps``; see the module docstring."""
    timings = StepTimings()
    clock = time.perf_counter
    session_count = len(sessions)
    began = clock()
    for step in steps:
        written = clock()
        connection.send(step.payload)
        acks_due = step.acks
        results_due = session_count
        while acks_due or results_due:
            reply = connection.read()
            if not reply.get("ok"):
                # Not one of the replies this step is owed; the step keeps
                # waiting, and a reply that never comes ends the run.
                timings.error_replies += 1
            elif reply.get("type") == "result":
                results_due -= 1
            else:
                if acks_due == step.acks:
                    timings.ack_s.append(clock() - written)
                acks_due -= 1
        timings.latencies_s.append(clock() - written)
        timings.events += step.events
        timings.lines += step.lines
    timings.wall_s = clock() - began
    return timings


def deliver_fluents(connection: Connection, lines: Sequence[bytes]) -> None:
    if not lines:
        return
    connection.send(b"".join(lines))
    for _ in lines:
        reply = connection.read()
        if not reply.get("ok"):
            raise RunFailed("input fluent refused: %r" % reply)


def full_query(connection: Connection, serve_input: ServeInput, boundary: int) -> List[Dict[str, Any]]:
    """Every session's amalgamated detections at ``boundary``, in session order."""
    connection.send(serve_input.full_query_lines(boundary))
    by_session: Dict[str, Dict[str, Any]] = {}
    while len(by_session) < len(serve_input.sessions):
        reply = connection.read()
        if not reply.get("ok") or reply.get("type") != "result":
            raise RunFailed("full query failed: %r" % reply)
        by_session[reply["session"]] = reply["fvps"]
    return [by_session[name] for name in serve_input.sessions]


def checkpoint_bytes_per_file(directory: Path) -> float:
    """Mean size of the checkpoint files under ``directory``."""
    sizes = [path.stat().st_size for path in directory.glob("*.json")]
    return sum(sizes) / len(sizes) if sizes else 0.0
