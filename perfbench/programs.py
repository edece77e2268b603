"""Launch, probe and stop the programs under test, each in its own process.

Both programs run from the checkout's ``src`` tree with no install
step.  Set-up time is measured from ``Popen`` to the program's first
ready signal, and peak memory is the child's ``VmHWM``, so neither
includes the benchmark process's own work.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / ".out"
LAUNCH = HERE / "launch.py"
SWEEP_PROG = HERE / "sweep_prog.py"
KEEP_AWAKE = HERE / "keep_awake.py"

#: Longest a program may take to become ready or to exit.
_START_TIMEOUT_S = 120.0
_STOP_TIMEOUT_S = 60.0


def split_cpus() -> tuple[set[int], set[int]] | None:
    """(program CPUs, load-generator CPUs), or ``None`` on one CPU.

    The program under test gets one CPU to itself and the benchmark
    process the rest, so the load generator never competes with the
    service for a core and the scheduler cannot spread the service's
    threads (which share one interpreter lock) across CPUs.  In
    interleaved pinned/unpinned pairs on a 2-CPU box, pinned runs were
    as fast or faster on both service workloads.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None
    return {cpus[0]}, set(cpus[1:])


@contextlib.contextmanager
def _pinned(cpus: set[int] | None):
    """Run the block on *cpus* (``None``: unchanged).

    A child inherits its parent thread's CPUs, so a program launched in
    the block starts pinned.  Pinning this way rather than with a
    ``preexec_fn`` lets ``subprocess`` spawn with ``vfork``, whose cost
    does not grow with the benchmark process's memory; set-up time then
    measures the program, not the benchmark's ``fork``.
    """
    if cpus is None:
        yield
        return
    saved = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)
    try:
        yield
    finally:
        os.sched_setaffinity(0, saved)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _argv(program: list[str], spans: Path | None) -> list[str]:
    """*program* (args after ``python3``), under the launcher if traced."""
    if spans is None:
        return [sys.executable, *program]
    return [sys.executable, str(LAUNCH), "--spans", str(spans), *program]


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def vmhwm_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of process *pid*, in MiB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def _stop(proc: subprocess.Popen, sig: int) -> None:
    if proc.poll() is None:
        proc.send_signal(sig)
        try:
            proc.wait(timeout=_STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


class KeepAwake:
    """A ``keep_awake.py`` loop on each of *cpus* while the block runs.

    The service workloads sleep and wake on every request: the client
    waits for its response, the batcher for its linger timer.  Measured
    on a 2-vCPU guest, serve-hot answered 6.7k-8.3k words/s with the
    CPUs free to halt and 9.7k-10.4k words/s with these loops running:
    the difference was the host's wake-up latency, not the service.
    """

    def __init__(self, cpus: set[int]) -> None:
        self._cpus = sorted(cpus)
        self._procs: list[subprocess.Popen] = []

    def __enter__(self) -> "KeepAwake":
        try:
            for cpu in self._cpus:
                self._procs.append(subprocess.Popen(
                    [sys.executable, str(KEEP_AWAKE), str(cpu),
                     str(os.getpid())],
                    stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                    cwd=ROOT))
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc) -> None:
        for proc in self._procs:
            _stop(proc, signal.SIGTERM)
        self._procs.clear()

    @property
    def pids(self) -> list[int]:
        return [proc.pid for proc in self._procs]


class Service:
    """``python3 -m repro serve-recovery --preload mcf`` on a free port.

    Shipped defaults otherwise: ``workers=0``, ``max_batch=256``,
    linger 2 ms, precompiled engines.
    """

    def __init__(self, log: Path, spans: Path | None = None,
                 cpus: set[int] | None = None) -> None:
        self.port = _free_port()
        self._log_path = log
        self._spans = spans
        self._cpus = cpus
        self.proc: subprocess.Popen | None = None

    def start(self) -> float:
        """Launch; returns seconds until ``/healthz`` first answers 200.

        The CLI preloads ``mcf`` before it binds, so the first 200 means
        the context is built and the engine precompiled.
        """
        argv = _argv(["-m", "repro", "serve-recovery", "--preload", "mcf",
                      "--port", str(self.port)], self._spans)
        with open(self._log_path, "w") as log, _pinned(self._cpus):
            started = time.perf_counter()
            self.proc = subprocess.Popen(
                argv, stdout=log, stderr=subprocess.STDOUT,
                stdin=subprocess.DEVNULL, env=child_env(), cwd=ROOT)
        deadline = started + _START_TIMEOUT_S
        while True:
            if self._healthz_ok():
                return time.perf_counter() - started
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"service exited with {self.proc.returncode} before "
                    f"it was ready; see {self._log_path}")
            if time.perf_counter() > deadline:
                raise RuntimeError("service did not become ready in time")
            time.sleep(0.002)

    def _healthz_ok(self) -> bool:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=5)
        try:
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            response.read()
            return response.status == 200
        except (ConnectionError, OSError, http.client.HTTPException):
            return False
        finally:
            conn.close()

    def counters(self) -> dict[str, float]:
        """Counter values from ``GET /metrics.json``."""
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request("GET", "/metrics.json")
            snapshot = json.loads(conn.getresponse().read())
        finally:
            conn.close()
        return {name: entry["value"] for name, entry in snapshot.items()
                if isinstance(entry, dict) and entry.get("type") == "counter"}

    def peak_rss_mb(self) -> float:
        return vmhwm_mb(self.proc.pid)

    def stop(self) -> None:
        """SIGINT (the CLI's graceful shutdown), then wait."""
        if self.proc is not None:
            _stop(self.proc, signal.SIGINT)


class Sweep:
    """``python3 perfbench/sweep_prog.py`` (see its protocol)."""

    def __init__(self, log: Path, spans: Path | None = None,
                 cpus: set[int] | None = None) -> None:
        self._log_path = log
        self._spans = spans
        self._cpus = cpus
        self.proc: subprocess.Popen | None = None

    def start(self) -> float:
        """Launch; returns seconds until the program prints ``ready``."""
        argv = _argv([str(SWEEP_PROG)], self._spans)
        with open(self._log_path, "w") as log, _pinned(self._cpus):
            started = time.perf_counter()
            self.proc = subprocess.Popen(
                argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                stderr=log, env=child_env(), cwd=ROOT, text=True)
        line = self.proc.stdout.readline()
        elapsed = time.perf_counter() - started
        if line.strip() != "ready":
            self.stop()
            raise RuntimeError(
                f"sweep program failed to start; see {self._log_path}")
        return elapsed

    def run(self, seconds: float, out: Path) -> dict:
        self.proc.stdin.write(f"run {seconds} {out}\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        self.stop()
        if line.strip() != "done" or self.proc.returncode != 0:
            raise RuntimeError(
                f"sweep program failed; see {self._log_path}")
        with open(out) as handle:
            return json.load(handle)

    def stop(self) -> None:
        proc = self.proc
        if proc is None:
            return
        try:
            if proc.poll() is None:
                proc.stdin.write("stop\n")
            proc.stdin.close()
        except OSError:  # the program already exited
            pass
        try:
            proc.wait(timeout=_STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()
