"""The served path: a ``repro serve`` daemon and a closed-loop load.

The daemon runs as its own process, started through the CLI exactly as
an operator would start it.  The load is one process (this one) with
one thread per keep-alive connection: each thread sends its next
``/fetch`` batch only after the previous reply arrived, the shape of
file-system clients that block on ``open``.

Daemon and load threads are pinned to one CPU (:func:`serve_cpu`).  In
a closed loop only one side runs at a time, so nothing waits for the
CPU; what pinning removes is the cross-CPU wake-up of an idle virtual
CPU on every request, which on a shared host swung runs' p99 by up to
three times.
"""

from __future__ import annotations

import functools
import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

PORT_WAIT_S = 30.0
EXIT_WAIT_S = 15.0
BATCH = 16
#: Spans retained per process in a traced run (five per request).
SPAN_CAPACITY = 1 << 19
#: Requests per window, summed over connections: the load pauses
#: between windows to calibrate the host's speed, and reports medians
#: over windows.  A window's p99 has ten requests beyond it.
WINDOW_REQUESTS = 1000

#: The benchmark's own scenario: the paper geometry with a journal far
#: larger than any run fills, so every run's served counters can be
#: checked against a replay of the complete journal.
SCENARIO = Path(__file__).resolve().parent / "serve-scenario.json"


def serve_cpu() -> int:
    """The CPU the daemon and the load share."""
    return min(os.sched_getaffinity(0))


class Daemon:
    """One ``repro serve`` process on an ephemeral port, pinned to a CPU."""

    def __init__(self, root: Path, workdir: Path, spans: Optional[Path] = None):
        workdir.mkdir(parents=True, exist_ok=True)
        port_file = workdir / f"port-{time.monotonic_ns()}"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        command = [
            sys.executable, "-m", "repro", "serve", str(SCENARIO),
            "--port", "0", "--port-file", str(port_file),
        ]
        if spans is not None:
            command += ["--spans", str(spans), "--span-capacity", str(SPAN_CAPACITY)]
        self.log = workdir / f"daemon-{port_file.name}.log"
        with self.log.open("wb") as log:
            self.process = subprocess.Popen(
                command,
                cwd=str(root),
                env=env,
                stdout=log,
                stderr=subprocess.STDOUT,
                preexec_fn=functools.partial(os.sched_setaffinity, 0, {serve_cpu()}),
            )
        try:
            self.port = self._wait_port(port_file)
            self._wait_healthy()
        except BaseException:
            self.stop()
            raise
        self.url = f"http://127.0.0.1:{self.port}"

    def _wait_port(self, port_file: Path) -> int:
        deadline = time.monotonic() + PORT_WAIT_S
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"daemon exited with code {self.process.returncode}: "
                    f"{self.log.read_text(errors='replace')[-2000:]}"
                )
            try:
                text = port_file.read_text(encoding="utf-8").strip()
            except OSError:
                text = ""
            if text:
                return int(text)
            time.sleep(0.01)
        raise RuntimeError(f"daemon announced no port within {PORT_WAIT_S:.0f}s")

    def _wait_healthy(self) -> None:
        deadline = time.monotonic() + PORT_WAIT_S
        while True:
            try:
                status, _body = get_json(self.port, "/healthz")
                if status == 200:
                    return
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise RuntimeError("daemon never answered /healthz")
            time.sleep(0.01)

    def stop(self) -> int:
        """SIGTERM, wait for a clean exit; kill after a timeout."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            code = self.process.wait(timeout=EXIT_WAIT_S)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
            code = -9
        return code


def get_json(port: int, path: str, timeout: float = 30.0):
    """One GET on a fresh connection; returns (status, decoded body)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, json.loads(response.read() or b"{}")
    finally:
        conn.close()


def make_batches(file_ids: Sequence[str], connections: int) -> List[List[List[str]]]:
    """Contiguous shards of ``BATCH``-event batches, one per connection."""
    size = len(file_ids) // connections
    shards = []
    for index in range(connections):
        shard = file_ids[index * size : (index + 1) * size]
        shards.append(
            [list(shard[low : low + BATCH]) for low in range(0, len(shard), BATCH)]
        )
    return shards


def request_body(files: Sequence[str], client: str) -> bytes:
    """The ``/fetch`` body ``ServeConnection.fetch`` sends for one batch."""
    return json.dumps({"files": list(files), "client": client}).encode("utf-8")


class LoadResult:
    """What a closed-loop run measured, summed over its connections.

    ``seconds`` and ``latencies_ms`` are in reference-host time (see
    :class:`measure.HostClock`); ``wall_seconds`` is what the clock on
    the wall said.
    """

    def __init__(self) -> None:
        self.latencies_ms: List[float] = []
        self.events = 0
        self.requests = 0
        self.failures = 0
        self.retries = 0
        self.errors: List[str] = []
        self.seconds = 0.0
        self.wall_seconds = 0.0
        self.bodies: List[bytes] = []
        #: Per window: (events, reference seconds, latencies in ms).
        self.windows: List[Tuple[int, float, List[float]]] = []


def closed_loop(
    url: str,
    shards: Sequence[Sequence[Sequence[str]]],
    requests_each: int,
    max_seconds: float,
    span_buffer=None,
) -> LoadResult:
    """Send ``requests_each`` ``/fetch`` batches from one thread per shard.

    A shard that runs out starts over.  The work is fixed, not the time,
    so the daemon's journal -- and with it its memory -- does not grow
    with its throughput; ``max_seconds`` only bounds a stalled run.

    The load runs in windows of ``WINDOW_REQUESTS``; between windows the
    connections idle while the host's speed is calibrated on the CPU the
    daemon and the load share, and each window's time is scaled by it.
    With ``span_buffer`` every request carries an ``X-Repro-Trace``
    header joined to a client span, so the daemon's ``--spans`` export
    pairs with the benchmark's.
    """
    from measure import HostClock

    from repro.serve import ServeConnection
    from repro.serve.client import SlamError

    if span_buffer is not None:
        from repro.obs.spans import TRACE_HEADER, format_header
    result = LoadResult()
    lock = threading.Lock()
    connections = [ServeConnection(url, timeout=30.0) for _shard in shards]
    positions = [0] * len(shards)
    window: List[float] = []

    def drive(index: int, count: int) -> None:
        os.sched_setaffinity(0, {cpu})
        client = f"bench{index:02d}"
        batches = shards[index]
        connection = connections[index]
        latencies: List[float] = []
        events = requests = failures = 0
        errors: List[str] = []
        bodies: List[bytes] = []
        for _ in range(count):
            files = batches[positions[index] % len(batches)]
            positions[index] += 1
            headers = span = None
            if span_buffer is not None:
                span = span_buffer.start_span("client /fetch", kind="client")
                headers = {TRACE_HEADER: format_header(span.trace, span.span)}
                if len(result.bodies) + len(bodies) < 4096:
                    bodies.append(request_body(files, client))
            requests += 1
            began = time.perf_counter_ns()
            try:
                body = connection.fetch(files, client=client, headers=headers)
            except SlamError as error:
                failures += 1
                errors.append(str(error))
                connection.close()
                continue
            latencies.append((time.perf_counter_ns() - began) / 1e6)
            if span is not None:
                span.finish()
                span.annotate("endpoint", "/fetch")
                span.annotate("events", len(files))
            if body.get("count") != len(files):
                failures += 1
                errors.append(f"acknowledged {body.get('count')} of {len(files)}")
            events += int(body.get("count", 0))
        with lock:
            window.extend(latencies)
            result.events += events
            result.requests += requests
            result.failures += failures
            result.errors.extend(errors)
            result.bodies.extend(bodies)

    cpu = serve_cpu()
    clock = HostClock(cpus=[cpu])
    started = time.perf_counter()
    try:
        sent = 0
        while sent < requests_each:
            if time.perf_counter() - started > max_seconds:
                result.failures += (requests_each - sent) * len(shards)
                result.errors.append(f"stopped after {max_seconds:.0f}s")
                break
            count = min(WINDOW_REQUESTS // len(shards), requests_each - sent)
            events_before = result.events
            threads = [
                threading.Thread(target=drive, args=(index, count), daemon=True)
                for index in range(len(shards))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(max_seconds + 120.0)
                if thread.is_alive():
                    raise RuntimeError("a load connection did not finish")
            scaled = clock.lap()
            scale = scaled / clock.last_raw
            latencies = [latency * scale for latency in window]
            result.windows.append((result.events - events_before, scaled, latencies))
            result.seconds += scaled
            result.wall_seconds += clock.last_raw
            result.latencies_ms.extend(latencies)
            window.clear()
            sent += count
    finally:
        for connection in connections:
            result.retries += connection.retries
            connection.close()
    return result


def check_journal(port: int, acked_events: int) -> Tuple[List[str], dict, List[str]]:
    """Served counters must equal a replay of the daemon's full journal.

    Returns the mismatches found (empty when the daemon is correct), the
    daemon's ``/stats`` and its journal entries.
    """
    from repro.serve import load_scenario
    from repro.serve.schema import replay_journal

    problems = []
    _status, stats = get_json(port, "/stats")
    _status, journal = get_json(port, "/journal")
    entries = journal.get("entries", [])
    if journal.get("truncated"):
        problems.append("journal truncated: raise journal.max_events in the scenario")
        return problems, stats, entries
    if stats.get("accesses") != acked_events:
        problems.append(
            f"daemon counted {stats.get('accesses')} accesses, "
            f"load acknowledged {acked_events}"
        )
    fresh = load_scenario(SCENARIO).build_cache()
    replay_journal(fresh, entries)
    local = fresh.stats_dict()
    for key in ("hits", "misses", "accesses", "evictions", "group_fetches"):
        if stats["cache"].get(key) != local.get(key):
            problems.append(
                f"served {key}={stats['cache'].get(key)} but journal replay "
                f"gives {local.get(key)}"
            )
    return problems, stats, entries
