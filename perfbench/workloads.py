"""The benchmark's four workloads.

Each workload sets itself up cold (``setup``), runs timed operations
for a given number of seconds (``measure``), and checks every output it
produced.  ``layer_input`` names the stream the traced run's layer table
replays for it.

* ``figures`` -- the Figure 3 and Figure 4 sweeps behind ``repro
  headline``: aggregating client caches and two-level hierarchies,
  neither the replay kernels nor the daemon.
* ``replay-server`` -- a hit-dominated Figure-2 replay from a ``.ctrace``
  file, on the columnar fast path.
* ``replay-write`` -- a miss-heavy Figure-2 replay with write
  invalidation from a text trace, on the generic reference path.
* ``serve-fetch`` -- the ``repro serve`` daemon under a closed loop of
  ``/fetch`` batches.
"""

from __future__ import annotations

import gc
import os
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import served
from layers import make_system, span
from measure import ErrorTally, HostClock, connection_count

FIGURE_EVENTS = 60_000
REPLAY_EVENTS = 200_000
SERVE_EVENTS = 100_000
#: One connection: with two, three busy threads share the two cores and
#: the run-to-run spread of p99 reached 0.5 of its median on a shared
#: host; with one it stays under 0.1.
SERVE_CONNECTIONS = 1
#: Events per second of ``--seconds`` that serve-fetch sends: about the
#: pinned, one-connection served rate on a 2-core Xeon, so a run lasts
#: about ``--seconds``.
SERVE_RATE = 35_000


@dataclass
class Measured:
    """One timed region: events completed, operation latencies, checks."""

    events: int = 0
    seconds: float = 0.0
    latencies_ms: List[float] = field(default_factory=list)
    tally: ErrorTally = field(default_factory=ErrorTally)
    problems: List[str] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    #: (kind, events, reference seconds) of each timed operation.
    operations: List[Tuple[str, int, float]] = field(default_factory=list)
    #: Served runs only: the load's own record, and for traced runs what
    #: the served layers need.
    load: Optional[served.LoadResult] = None
    daemon_stats: Optional[dict] = None
    daemon_spans: Optional[Path] = None
    served_files: Optional[List[str]] = None


def reset_peak_rss() -> None:
    """Restart this process's peak-RSS count (Linux), after freeing garbage.

    Set-up builds whole traces in memory; without the reset the timed
    region's peak would be the set-up's.  Where the kernel refuses, the
    peak stays the process's lifetime peak.
    """
    gc.collect()
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as stream:
            stream.write("5")
    except OSError:
        pass


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def workload_seed(seed: int) -> Optional[int]:
    """Seed 0 selects each paper workload's default seed (``None``)."""
    return None if seed == 0 else seed


class Workload:
    """Shared driver: repeat ``operation`` until the clock runs out."""

    name = ""
    #: Timed regions end on a whole number of cycles of this many
    #: operations, so every run measures the same mix.
    cycle = 1

    def __init__(self, root: Path, workdir: Path, seed: int):
        self.root = root
        self.workdir = workdir
        self.seed = workload_seed(seed)
        self.setups = 0
        self.clock = HostClock()

    def setup(self, spans=None) -> Dict[str, float]:
        """One cold set-up; returns its parts' seconds by layer name."""
        raise NotImplementedError

    def operation(self, spans) -> Tuple[str, int, float, List[float], object]:
        """One timed operation, ended by a lap of ``self.clock``.

        Returns its kind, events, reference seconds, latency samples in
        reference milliseconds, and its output for ``check``.
        """
        raise NotImplementedError

    def check(self, outputs: List[object]) -> List[bool]:
        """Whether each operation's output is correct."""
        raise NotImplementedError

    def layer_input(self):
        """(trace, invalidate_on_write) for the traced layer table."""
        raise NotImplementedError

    def close(self) -> None:
        pass

    def warm_up(self) -> None:
        """One untimed operation: first-call costs stay out of the timing."""
        self.clock.start()
        self.operation(None)

    def fresh_dir(self, label: str) -> Path:
        self.setups += 1
        path = self.workdir / f"{label}-{self.setups}"
        path.mkdir(parents=True)
        return path

    def measure(self, seconds: float, spans=None) -> Measured:
        measured = Measured()
        outputs: List[Tuple[int, object]] = []
        reset_peak_rss()
        deadline = time.perf_counter() + seconds
        self.clock.start()
        while True:
            kind, events, elapsed, samples, output = self.operation(spans)
            measured.operations.append((kind, events, elapsed))
            measured.seconds += elapsed
            measured.events += events
            measured.latencies_ms.extend(samples)
            outputs.append((events, output))
            if time.perf_counter() >= deadline and len(outputs) % self.cycle == 0:
                break
        measured.peak_rss_mb = self_peak_rss_mb()
        verdicts = self.check([output for _events, output in outputs])
        for (events, _output), ok in zip(outputs, verdicts):
            measured.tally.record(events, ok)
        failed = sum(1 for ok in verdicts if not ok)
        if failed:
            measured.problems.append(
                f"{failed} of {len(verdicts)} operations failed their check"
            )
        return measured


def generate(name: str, events: int, seed: Optional[int], spans=None):
    from repro.workloads.synthetic import make_workload

    with span(spans, "workloads.generate", None, workload=name, events=events):
        began = time.perf_counter()
        trace = make_workload(name, events, seed)
        return trace, time.perf_counter() - began


class Figures(Workload):
    """Figure 3 (server) and Figure 4 (workstation, users, server)."""

    name = "figures"
    JOBS = (
        ("fig3", "server"),
        ("fig4", "workstation"),
        ("fig4", "users"),
        ("fig4", "server"),
    )
    #: Points re-run through an independent path after the timed region
    #: when no committed CSV applies (non-default seeds).
    RECHECK_POINTS = 2
    cycle = len(JOBS)

    def __init__(self, root, workdir, seed):
        super().__init__(root, workdir, seed)
        self.next_job = 0

    def setup(self, spans=None):
        # The sweep modules are imported here, not in the first timed job.
        import repro.experiments.fig3  # noqa: F401
        import repro.experiments.fig4  # noqa: F401
        from repro.experiments import common
        from repro.traces.artifacts import artifact_path, store_columnar_artifact
        from repro.traces.columnar import ColumnarTrace
        from repro.workloads.synthetic import GENERATOR_VERSION

        # A fresh artifact directory and empty memo caches: every set-up
        # pays generation and packing, as a first `repro headline` does.
        os.environ["REPRO_TRACE_CACHE"] = str(self.fresh_dir("traces"))
        for memo in (
            common.workload_columnar,
            common.workload_trace,
            common.workload_sequence,
            common.workload_codes,
        ):
            memo.cache_clear()
        parts = {"workloads.generate_s": 0.0, "traces.pack_s": 0.0}
        for name in sorted({workload for _figure, workload in self.JOBS}):
            trace, seconds = generate(name, FIGURE_EVENTS, self.seed, spans)
            parts["workloads.generate_s"] += seconds
            with span(spans, "traces.pack", None, workload=name):
                began = time.perf_counter()
                path = artifact_path(name, FIGURE_EVENTS, self.seed, GENERATOR_VERSION)
                if not store_columnar_artifact(path, ColumnarTrace.from_trace(trace)):
                    raise RuntimeError(f"could not store the {name} artifact")
                common.workload_codes(name, FIGURE_EVENTS, self.seed)
                parts["traces.pack_s"] += time.perf_counter() - began
        return parts

    def operation(self, spans):
        from repro.experiments.fig3 import run_fig3
        from repro.experiments.fig4 import run_fig4

        figure_kind, workload = self.JOBS[self.next_job % len(self.JOBS)]
        self.next_job += 1
        run = run_fig3 if figure_kind == "fig3" else run_fig4
        # The sweep calls ``progress`` before each point: one lap per
        # point, the first covering the sweep's own set-up.
        laps: List[float] = []
        with span(spans, f"{figure_kind}.{workload}", None) as job:
            figure = run(
                workload=workload,
                events=FIGURE_EVENTS,
                seed=self.seed,
                workers=1,
                progress=lambda *_args: laps.append(self.clock.lap()),
            )
        laps.append(self.clock.lap())
        points = laps[1:]
        if job is not None:
            job.annotate("points", len(points))
        return (
            figure.figure_id,
            len(points) * FIGURE_EVENTS,
            sum(laps),
            [seconds * 1e3 for seconds in points],
            figure,
        )

    def check(self, outputs):
        from repro.analysis.export import figure_to_csv

        if self.seed is None:
            verdicts = []
            for figure in outputs:
                committed = self.root / "results" / "csv" / f"{figure.figure_id}.csv"
                verdicts.append(
                    committed.read_text(encoding="utf-8").splitlines()
                    == figure_to_csv(figure).splitlines()
                )
            return verdicts
        return [self.recheck(figure) for figure in outputs]

    def recheck(self, figure) -> bool:
        """Recompute a few points of ``figure`` through another path.

        Figure 3 points use the per-access reference loop of the
        aggregating client cache (the sweep uses its fused replay);
        Figure 4 points are replayed again from scratch.
        """
        from repro.core.aggregating_cache import AggregatingClientCache
        from repro.experiments.common import workload_codes
        from repro.experiments.fig4 import make_server_cache, server_hit_rate

        kind, _, workload = figure.figure_id.partition("-")
        codes = workload_codes(workload, FIGURE_EVENTS, self.seed)
        rows = [
            (series.label, x, y)
            for series in figure.series
            for x, y in series.points
        ]
        step = max(len(rows) // self.RECHECK_POINTS, 1)
        for label, x, y in rows[self.seed % step :: step][: self.RECHECK_POINTS]:
            if kind == "fig3":
                group = 1 if label == "lru" else int(label[1:])
                cache = AggregatingClientCache(
                    capacity=int(x), group_size=group, successor_capacity=8
                )
                for code in codes:
                    cache.access(code)
                if cache.demand_fetches != y:
                    return False
            else:
                rate = server_hit_rate(
                    codes, int(x), make_server_cache(label, 300, successor_capacity=8)
                )
                if rate != y:
                    return False
        return True

    def layer_input(self):
        from repro.experiments.common import workload_trace

        return workload_trace("server", FIGURE_EVENTS, self.seed), False


class ReplayServer(Workload):
    """Figure-2 replay of the ``server`` workload from a ``.ctrace``."""

    name = "replay-server"

    def setup(self, spans=None):
        from repro.traces.columnar import ColumnarTrace, write_columnar

        directory = self.fresh_dir("replay")
        trace, generate_s = generate("server", REPLAY_EVENTS, self.seed, spans)
        with span(spans, "traces.pack", None):
            began = time.perf_counter()
            self.path = directory / "server.ctrace"
            write_columnar(ColumnarTrace.from_trace(trace), self.path)
            pack_s = time.perf_counter() - began
        return {"workloads.generate_s": generate_s, "traces.pack_s": pack_s}

    def operation(self, spans):
        from repro.traces.columnar import read_columnar

        with span(spans, "replay-server", None) as root:
            with span(spans, "traces.read_columnar", root):
                trace = read_columnar(self.path)
            with span(spans, "sim.replay", root):
                metrics = make_system(False).replay(trace)
        elapsed = self.clock.lap()
        return self.name, len(trace), elapsed, [elapsed * 1e3], metrics

    def check(self, outputs):
        from repro.traces.columnar import read_columnar

        oracle = make_system(False)
        oracle.use_fast_replay = False
        expected = oracle.replay(read_columnar(self.path))
        return [metrics == expected for metrics in outputs]

    def layer_input(self):
        from repro.traces.columnar import read_columnar

        return read_columnar(self.path).to_trace(), False


class ReplayWrite(Workload):
    """Figure-2 replay with write invalidation from a DFSTrace text file."""

    name = "replay-write"

    def setup(self, spans=None):
        from repro.traces.writer import write_trace

        directory = self.fresh_dir("replay")
        trace, generate_s = generate("write", REPLAY_EVENTS, self.seed, spans)
        with span(spans, "traces.write_trace", None):
            began = time.perf_counter()
            self.path = directory / "write.trace"
            write_trace(trace, self.path)
            pack_s = time.perf_counter() - began
        return {"workloads.generate_s": generate_s, "traces.pack_s": pack_s}

    def operation(self, spans):
        from repro.traces.reader import read_trace

        # Two laps: each call takes about a second, long enough for the
        # host's speed to change within it.
        with span(spans, "replay-write", None) as root:
            with span(spans, "traces.read_trace", root):
                trace = read_trace(self.path)
            elapsed = self.clock.lap()
            with span(spans, "sim.replay", root):
                metrics = make_system(True).replay(trace)
            elapsed += self.clock.lap()
        return self.name, len(trace), elapsed, [elapsed * 1e3], metrics

    def check(self, outputs):
        # Every event is one client access, and the counts repeat exactly.
        first = outputs[0]
        return [
            metrics.total_client_accesses == REPLAY_EVENTS
            and sum(
                stats.hits + stats.misses for stats in metrics.client_stats.values()
            )
            == REPLAY_EVENTS
            and metrics.remote_requests == first.remote_requests
            and metrics.invalidations == first.invalidations
            and metrics == first
            for metrics in outputs
        ]

    def layer_input(self):
        from repro.traces.reader import read_trace

        return read_trace(self.path), True


class ServeFetch(Workload):
    """The ``repro serve`` daemon under a closed loop of ``/fetch``."""

    name = "serve-fetch"

    def __init__(self, root, workdir, seed):
        super().__init__(root, workdir, seed)
        self.daemon: Optional[served.Daemon] = None
        self.connections = connection_count(
            SERVE_CONNECTIONS, len(os.sched_getaffinity(0))
        )

    def setup(self, spans=None):
        trace, generate_s = generate("server", SERVE_EVENTS, self.seed, spans)
        self.files = trace.file_ids()
        self.shards = served.make_batches(self.files, self.connections)
        with span(spans, "serve.spawn", None):
            began = time.perf_counter()
            self.daemon = served.Daemon(self.root, self.fresh_dir("daemon"))
            spawn_s = time.perf_counter() - began
        return {"workloads.generate_s": generate_s, "serve.spawn_s": spawn_s}

    def measure(self, seconds, spans=None):
        measured = Measured()
        daemon = self.daemon
        self.daemon = None
        if spans is not None:
            # Traced: a fresh daemon with its own span export, and every
            # request joined to a client span.
            if daemon is not None:
                daemon.stop()
            measured.daemon_spans = self.fresh_dir("spans") / "daemon.jsonl"
            daemon = served.Daemon(self.root, self.workdir, measured.daemon_spans)
        try:
            # Whole windows only, so every window's p99 has ten beyond it.
            per_window = served.WINDOW_REQUESTS // self.connections
            windows = -(-int(SERVE_RATE * seconds) // (served.BATCH * self.connections * per_window))
            load = served.closed_loop(
                daemon.url, self.shards, windows * per_window, 4 * seconds + 30, spans
            )
            problems, stats, measured.served_files = served.check_journal(
                daemon.port, load.events
            )
        finally:
            code = daemon.stop()
        if code != 0:
            problems.append(f"daemon exited with code {code} on SIGTERM")
        measured.events = load.events
        measured.seconds = load.seconds
        measured.latencies_ms = load.latencies_ms
        measured.problems = problems + load.errors
        failed = load.failures + load.retries
        measured.tally.attempted = load.requests
        measured.tally.failed = load.requests if problems else failed
        measured.load = load
        measured.daemon_stats = stats
        # The daemon's high-water mark: children's peak RSS, read once
        # the daemon has exited and been waited for.
        measured.peak_rss_mb = (
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        )
        return measured

    def layer_input(self):
        """The stream the daemon sees: file ids only."""
        from repro.traces.events import Trace

        return Trace.from_file_ids(self.files), False

    def warm_up(self) -> None:
        pass

    def close(self):
        if self.daemon is not None:
            self.daemon.stop()
            self.daemon = None


WORKLOADS = {
    cls.name: cls for cls in (Figures, ReplayServer, ReplayWrite, ServeFetch)
}


def traced_serve_segment(root: Path, workdir: Path, trace, seconds: float, spans):
    """A short traced daemon run on ``trace``, for the served layers."""
    segment = ServeFetch(root, workdir, 0)
    segment.files = trace.file_ids()
    segment.shards = served.make_batches(segment.files, segment.connections)
    return segment.measure(seconds, spans)

