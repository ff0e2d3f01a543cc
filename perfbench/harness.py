"""Shared pieces of the three workloads: op records, phase results,
percentiles, the host-speed probe and the server process's lifecycle.

The shared host runs at two speeds that alternate every few hundred
milliseconds (in the slow one a fixed loop takes about 1.7 times as
long), and the share of slow time drifts by 15-25 % between half-minute
windows.  Every workload therefore times a short fixed loop, the probe,
around each set-up and throughout its timed loop, under the load its
ops run under, and the end-to-end timings are reported at a reference
host speed: an op's or a set-up's time is divided by the slowdown of the
probes taken just before and while it ran (their mean time over
:data:`REFERENCE_PROBE_MS`), a run's rate multiplied by the slowdown of
all its probes.  The measured times are kept on the detail line."""

from __future__ import annotations

import bisect
import dataclasses
import json
import multiprocessing
import os
import select
import signal
import statistics
import subprocess
import time
from typing import Any

__all__ = ["Op", "Phase", "median", "p90", "calibrate_ms", "probe_ms",
           "probe", "BackgroundProbe", "SetupClock", "peak_rss_mb",
           "ServerProcess", "child_env"]

#: Iterations of the host-drift probe loop (about 0.1 s on a 2-core
#: sandbox); fixed so its time compares across runs and commits.
CALIBRATION_ITERATIONS = 1_000_000

#: Iterations of one probe: a few milliseconds, short enough to fall
#: within one of the host's speed spells.
PROBE_ITERATIONS = 50_000

#: What the probe takes at the reference host speed (about its mean on a
#: 2-vCPU x86-64 sandbox); fixed, so that normalized timings compare
#: across runs and commits.
REFERENCE_PROBE_MS = 3.5

#: Probes run back to back before and after each set-up.
SETUP_PROBES = 5

#: How long before an op a probe may start and still count as the op's:
#: the workloads probe just before each op, or during it.
PROBE_LEAD_S = 0.05


@dataclasses.dataclass
class Op:
    """One timed operation: a request, a registration or a batch."""

    index: int
    started: float
    ended: float
    items: int
    #: Cleared by the workload's output checks.
    ok: bool = True

    @property
    def latency_ms(self) -> float:
        return (self.ended - self.started) * 1000.0


@dataclasses.dataclass
class Phase:
    """What one setup-plus-timed-loop of a workload produced.

    Times are as measured; the ``*_norm`` methods give them at the
    reference host speed (see the module docstring).
    """

    setup_s: list[float]
    #: Mean probe time around each set-up, in ms.
    setup_probe_ms: list[float]
    ops: list[Op]
    #: ``(start, ms)`` of each probe taken in the timed loop, start on
    #: the ops' ``perf_counter`` clock.
    probes: list[tuple[float, float]]
    wall_s: float
    peak_rss_mb: float
    f_measure: float
    #: Checks that are not about one op (store counters, LRU loads).
    checks_ok: bool = True
    #: Per-layer metric values; filled only by a traced phase.
    layers: dict[str, float] = dataclasses.field(default_factory=dict)
    #: Workload-specific facts for the detail line.
    detail: dict[str, Any] = dataclasses.field(default_factory=dict)

    @property
    def failed(self) -> int:
        return sum(1 for op in self.ops if not op.ok)

    def slowdown(self) -> float:
        """How much slower than the reference the host ran the timed
        loop."""
        return (statistics.fmean(ms for _, ms in self.probes)
                / REFERENCE_PROBE_MS)

    def op_p50_ms(self) -> float:
        return median([op.latency_ms for op in self.ops])

    def items_per_s(self) -> float:
        return sum(op.items for op in self.ops) / self.wall_s

    def setup_s_norm(self) -> float:
        """Median set-up time, each set-up scaled by its own probes."""
        return median([seconds * REFERENCE_PROBE_MS / ms
                       for seconds, ms in zip(self.setup_s,
                                              self.setup_probe_ms)])

    def op_p50_ms_norm(self) -> float:
        """Median op latency, each op scaled by its own probes: those
        started from :data:`PROBE_LEAD_S` before it to its end, else the
        last one before it.  The host switches speed within a run, so a
        run-wide slowdown would scale fast and slow ops alike."""
        probes = sorted(self.probes)
        starts = [start for start, _ in probes]
        latencies = []
        for op in self.ops:
            first = bisect.bisect_left(starts, op.started - PROBE_LEAD_S)
            last = bisect.bisect_right(starts, op.ended)
            own = [ms for _, ms in probes[first:last]] or [
                probes[max(first - 1, 0)][1]]
            latencies.append(op.latency_ms * REFERENCE_PROBE_MS
                             / statistics.fmean(own))
        return median(latencies)

    def items_per_s_norm(self) -> float:
        return self.items_per_s() * self.slowdown()


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def p90(values: list[float]) -> float | None:
    """The 90th percentile, or None below 100 samples — with fewer, fewer
    than ten samples lie beyond it and it is not reported."""
    if len(values) < 100:
        return None
    return statistics.quantiles(values, n=10)[8]


def calibrate_ms(iterations: int = CALIBRATION_ITERATIONS) -> float:
    """Milliseconds of a fixed pure-Python loop: a run slowed by the
    shared host shows here, a program change does not."""
    started = time.perf_counter()
    total = 0
    for i in range(iterations):
        total += i & 7
    return (time.perf_counter() - started) * 1000.0


def probe_ms(count: int = 1) -> float:
    """Mean milliseconds of *count* probe loops run back to back."""
    return statistics.fmean(calibrate_ms(PROBE_ITERATIONS)
                            for _ in range(count))


def probe() -> tuple[float, float]:
    """One probe as ``(start, ms)``, for :attr:`Phase.probes`."""
    return time.perf_counter(), probe_ms()


def _probe_every(conn: Any, interval: float) -> None:
    """Run :func:`probe` every *interval* seconds until *conn* sends
    anything, then send back the probes.

    Runs at the highest priority the process may take, so that a probe
    takes a core at once instead of sharing it with a busy op: it then
    times the core, not the scheduler.
    """
    try:
        os.nice(-20)
    except OSError:
        pass  # without the privilege the probe still runs, less exactly
    probes: list[tuple[float, float]] = []
    while not conn.poll(interval):
        probes.append(probe())
    conn.send(probes)


class BackgroundProbe:
    """:func:`probe` every *interval* seconds, in a process of its own,
    from construction to :meth:`stop`.  ``perf_counter`` reads the
    system-wide monotonic clock on Linux, so the probes' start times
    compare with the ops'.

    For ops that keep every core busy and leave too few gaps between them
    to sample the host's speed spells in: each probe briefly takes a core
    from the ops and times it as they see it.
    """

    def __init__(self, interval: float):
        # Spawned, not forked: the caller may hold executor threads and
        # shared-memory segments that a forked child would inherit.
        context = multiprocessing.get_context("spawn")
        self._conn, theirs = context.Pipe()
        self._proc = context.Process(
            target=_probe_every, args=(theirs, interval), daemon=True)
        self._proc.start()
        theirs.close()

    def stop(self) -> list[tuple[float, float]]:
        """Stop and reap the process; the probes it took."""
        try:
            self._conn.send(None)
            return self._conn.recv()
        finally:
            self._conn.close()
            self._proc.join(timeout=10)
            if self._proc.is_alive():
                self._proc.kill()
                self._proc.join()


class SetupClock:
    """Times set-ups, each with probes run just before and after it.

    ``with clock: ...`` records one set-up's seconds in :attr:`seconds`
    and the mean of its probes in :attr:`probe_ms`.
    """

    def __init__(self) -> None:
        self.seconds: list[float] = []
        self.probe_ms: list[float] = []

    def __enter__(self) -> "SetupClock":
        self._before = probe_ms(SETUP_PROBES)
        self._started = time.perf_counter()
        return self

    def __exit__(self, kind: Any, *_: Any) -> None:
        if kind is None:
            self.seconds.append(time.perf_counter() - self._started)
            self.probe_ms.append((self._before + probe_ms(SETUP_PROBES)) / 2)


def peak_rss_mb(pid: int | None = None) -> float:
    """Peak resident set size (VmHWM) of a live process, in MB."""
    with open(f"/proc/{pid or 'self'}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid or 'self'}")


class ServerProcess:
    """A match server in its own process, stopped and reaped on exit.

    *argv* must print a JSON object holding ``"serving":
    "http://host:port"`` on stdout (``repro serve --json`` does) before
    it starts answering.
    """

    def __init__(self, argv: list[str], *, env: dict[str, str],
                 log_path: str, timeout: float = 60.0):
        self._log = open(log_path, "ab")
        self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                     stderr=self._log, env=env)
        try:
            self.port = self._read_port(timeout)
        except BaseException:
            self.stop()
            raise

    def _read_port(self, timeout: float) -> int:
        # Raw reads: a buffered readline could hold the object's tail in
        # its buffer while select() waits on the pipe.
        fd = self.proc.stdout.fileno()
        deadline = time.monotonic() + timeout
        text = b""
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise RuntimeError("server did not report its address")
            ready, _, _ = select.select([fd], [], [], remaining)
            if not ready:
                continue
            chunk = os.read(fd, 65536)
            if not chunk:
                raise RuntimeError(
                    f"server exited with {self.proc.wait()} before serving")
            text += chunk
            try:
                startup = json.loads(text)
            except ValueError:
                continue  # the startup object spans several writes
            return int(startup["serving"].rsplit(":", 1)[1])

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        """Interrupt (the serve loop's clean shutdown), then reap."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


def child_env(src: str) -> dict[str, str]:
    """The environment for a child that imports repro from *src*."""
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ,
                PYTHONPATH=src + (os.pathsep + path if path else ""))
