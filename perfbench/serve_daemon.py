"""The ``serve-daemon`` section: ``python -m repro serve --daemon`` as a
child process with one session of 2 workers, fed JSON-lines ``submit``s by
an open-loop generator in this process.

The generator is single-threaded and out of process on purpose: inside
the daemon it would share the interpreter lock with the session workers
and measure itself.  It writes each request when it is due, whatever
happened to earlier ones (independent clients, so an open loop), reads
responses as they arrive, and times each request from its *due* time.

Checks: at shutdown the session's delivery log and durable book pass the
daemon's own exactly-once audit (``repro.serve.crashtest.audit_session``):
every ``ok`` acknowledgement delivered exactly once, nothing else
delivered, the book in sequence and equal to the log.
``rejected``/``timeout`` and error responses count as failures.
"""

from __future__ import annotations

import gc
import json
import os
import selectors
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import stats

#: Fixed offered rates (requests per second).  A 2-worker session on a
#: 2-core host saturates near 5.5k/s when the host is quiet, but on a busy
#: shared host the same daemon saturated at 4.1k/s; these stay well below.
RATES = {"low": 700.0, "high": 2000.0}
SESSION, WORKERS = "s", 2
READY_TIMEOUT = 30.0
DRAIN_TIMEOUT = 30.0


class Daemon:
    """One daemon child: started, opened, driven, audited, shut down."""

    def __init__(self, root: Path, state_dir: Path, argv: list[str]):
        self.state_dir = state_dir
        shutil.rmtree(state_dir, ignore_errors=True)
        state_dir.mkdir(parents=True)
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, *argv, "--state-dir", str(state_dir)],
            cwd=root, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        self._buf = b""
        try:
            ready = self._read_line(READY_TIMEOUT)
            if json.loads(ready).get("event") != "ready":
                raise RuntimeError(f"daemon did not start: {ready!r}")
            self.request({"op": "open", "name": SESSION, "workers": WORKERS})
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - t0

    def _read_line(self, timeout: float) -> bytes:
        deadline = time.monotonic() + timeout
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buf:
            left = deadline - time.monotonic()
            if left <= 0:
                raise TimeoutError("daemon did not answer")
            with selectors.SelectSelector() as sel:
                sel.register(fd, selectors.EVENT_READ)
                if not sel.select(left):
                    continue
            chunk = os.read(fd, 65536)
            if not chunk:
                raise RuntimeError("daemon exited")
            self._buf += chunk
        line, self._buf = self._buf.split(b"\n", 1)
        return line

    def request(self, req: dict, timeout: float = DRAIN_TIMEOUT) -> dict:
        self.proc.stdin.write(json.dumps(req).encode() + b"\n")
        self.proc.stdin.flush()
        resp = json.loads(self._read_line(timeout))
        if not resp.get("ok"):
            raise RuntimeError(f"daemon refused {req['op']}: {resp}")
        return resp

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def open_loop(self, rate: float, seconds: float, first_value: int):
        """Submit ``rate`` requests per second for ``seconds``; returns
        ``(latencies, lateness, results, values)`` in request order."""
        n = max(1, int(rate * seconds))
        rfd, wfd = self.proc.stdout.fileno(), self.proc.stdin.fileno()
        # A collection in the generator would show up as lateness charged
        # to the daemon; the loop allocates little, so pause the collector.
        gc.collect()
        gc.disable()
        os.set_blocking(rfd, False)
        os.set_blocking(wfd, False)
        start = time.perf_counter() + 0.01
        due = [start + i / rate for i in range(n)]
        done: list[float] = []
        late: list[float] = []
        results: list[str] = []
        values = list(range(first_value, first_value + n))
        pending = b""
        sent = 0
        hard_stop = start + seconds + DRAIN_TIMEOUT
        try:
            # select(2) takes microsecond timeouts; epoll and poll round
            # up to whole milliseconds, which would make every send late.
            with selectors.SelectSelector() as sel:
                sel.register(rfd, selectors.EVENT_READ)
                while len(done) < n:
                    now = time.perf_counter()
                    if now > hard_stop:
                        raise TimeoutError("daemon stopped answering")
                    while sent < n and due[sent] <= now:
                        late.append(now - due[sent])
                        pending += (
                            b'{"op":"submit","name":"%s","value":%d}\n'
                            % (SESSION.encode(), values[sent]))
                        sent += 1
                    if pending:
                        try:
                            pending = pending[os.write(wfd, pending):]
                        except BlockingIOError:
                            pass
                    wait = due[sent] - time.perf_counter() if sent < n else 0.05
                    if pending:
                        wait = min(wait, 0.0005)
                    if not sel.select(max(0.0, wait)):
                        continue
                    chunk = os.read(rfd, 1 << 16)
                    t = time.perf_counter()
                    if not chunk:
                        raise RuntimeError("daemon exited")
                    self._buf += chunk
                    *lines, self._buf = self._buf.split(b"\n")
                    for line in lines:
                        resp = json.loads(line)
                        results.append(resp.get("result", "error")
                                       if resp.get("ok") else "error")
                        done.append(t)
        finally:
            gc.enable()
            os.set_blocking(rfd, True)
            os.set_blocking(wfd, True)
        return stats.open_loop_latencies(due, done), late, results, values

    def audit(self, acked: list) -> int:
        """Close the session (drains it), read its delivery log and durable
        book, and return the number of violations the daemon's own
        exactly-once audit finds (lost, duplicated or never-admitted
        values; a book out of order or disagreeing with the log)."""
        from repro.serve.crashtest import audit_session

        self.request({"op": "close", "name": SESSION})
        resp = self.request({"op": "delivered", "name": SESSION})
        violations: list[str] = []
        audit_session(SESSION, acked, set(), resp["values"], resp["book"],
                      violations)
        for v in violations:
            print(f"serve audit: {v}", file=sys.stderr)
        return len(violations)

    def shutdown(self) -> None:
        try:
            if self.proc.poll() is None:
                self.request({"op": "shutdown"})
                self.proc.stdin.close()
                self.proc.wait(timeout=DRAIN_TIMEOUT)
        finally:
            self.kill()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            try:
                pipe.close()
            except OSError:
                pass
        shutil.rmtree(self.state_dir, ignore_errors=True)


UNTRACED_ARGV = ["-m", "repro", "serve", "--daemon"]


@dataclass
class Load:
    latency: dict = field(default_factory=lambda: {k: [] for k in RATES})
    late: dict = field(default_factory=lambda: {k: [] for k in RATES})
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0

    def metrics(self) -> dict:
        return {
            f"submit_p50_us.{k}": stats.median(v) * 1e6
            for k, v in self.latency.items()
        }


class Section:
    """One daemon under load: each :meth:`chunk` offers both rates, low
    then high; :meth:`finish` audits and shuts the daemon down."""

    def __init__(self, daemon: Daemon, seed: int, load: Load):
        self.daemon = daemon
        self.load = load
        self.acked: list = []
        self.next_value = seed * 10_000_000

    def chunk(self, seconds_per_rate: float) -> None:
        load = self.load
        for name, rate in RATES.items():
            lat, late, results, values = self.daemon.open_loop(
                rate, seconds_per_rate, self.next_value)
            self.next_value += len(values)
            load.latency[name].extend(lat)
            load.late[name].extend(late)
            load.attempted += len(results)
            load.failed += sum(1 for r in results if r != "ok")
            self.acked.extend(v for v, r in zip(values, results) if r == "ok")

    def finish(self) -> None:
        try:
            self.load.peak_rss_mb = self.daemon.peak_rss_mb()
            self.load.failed += self.daemon.audit(self.acked)
        finally:
            self.daemon.shutdown()
