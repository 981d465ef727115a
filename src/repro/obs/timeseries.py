"""Windowed time-series telemetry: ``repro.ts/1``.

The registry answers *how many* at the end of a run and the flight
recorder answers *why this one*; this module answers *how the cache
behaves over time*.  A :class:`WindowedCollector` splits a replay into
fixed-size event windows and records one :class:`WindowSample` per
window — hit/miss ratio, prefetch efficiency, wasted-fetch share,
eviction rate, bytes fetched, replay throughput, and the window's
successor entropy (the paper's predictability metric, computed per
window so workload-phase shifts show up as entropy regime changes).

Design constraints, matching the rest of :mod:`repro.obs`:

* **Free when dormant.**  The replay engine reads one module attribute
  (:data:`ACTIVE`) per ``replay()`` *call* — never per event — so the
  strict ``check_bench.py`` dormant-overhead gate is unaffected.
* **Batched post-loop, never per event.**  Windowing drives the
  existing replay loops chunk by chunk: each window is replayed by the
  unmodified fast (or generic) path, and the sample is computed from
  counter *deltas* at the window boundary.  Because both replay paths
  are already count-identical, the windowed series is sample-identical
  whichever loop ran (asserted by ``tests/test_timeseries.py``).
* **Counter-derived ratios.**  Per-window ``prefetch_efficiency`` is
  the fraction of requested companion slots that produced an install
  (``installs / (remote_requests * (g - 1))``) and
  ``wasted_fetch_share`` is the *speculative* share of store traffic
  (companion fetches / all store fetches) — an upper bound on waste.
  The flight recorder remains the source of exact retrospective
  provenance; the time-series trades that for zero per-event cost.

Sweeps stream through the same collector: :func:`repro.sim.sweep.run_sweep`
emits one ``source="sweep"`` sample per completed grid point, collected
in the parent process, so parallel sweeps aggregate across workers with
no extra plumbing.

Exports: schema-tagged ``repro.ts/1`` JSONL (one meta line, one sample
per line), a Prometheus/OpenMetrics text rendering of the cumulative
counters plus latest-window gauges, and an optional stdlib
``http.server`` ``/metrics`` endpoint (:class:`MetricsServer`) for
long-running runs.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    IO,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from .export import TS_SCHEMA
from .registry import ObservabilityError

Pathish = Union[str, Path]

#: Sample fields that depend on wall-clock time.  Excluded from
#: :meth:`WindowSample.deterministic_dict`, which is what the fast ==
#: generic equivalence contract covers (throughput legitimately
#: differs between the two loops).
WALL_CLOCK_FIELDS = ("seconds", "events_per_sec")


@dataclass
class WindowSample:
    """One window's telemetry.

    ``source`` is ``"replay"`` (a window of trace events), ``"sweep"``
    (one completed grid point) or ``"serve"`` (one daemon telemetry
    window).  ``start`` is the first
    event index the window covers for replay samples, and the point's
    position within its sweep for sweep samples; ``index`` is the
    sample's global position within its source stream and is strictly
    increasing per collector.
    """

    source: str = "replay"
    index: int = 0
    start: int = 0
    events: int = 0
    seconds: float = 0.0
    hits: int = 0
    misses: int = 0
    remote_requests: int = 0
    store_fetches: int = 0
    bytes_fetched: int = 0
    group_installs: int = 0
    companion_slots: int = 0
    speculative_fetches: int = 0
    evictions: int = 0
    invalidations: int = 0
    entropy: Optional[float] = None
    label: str = ""

    @property
    def hit_ratio(self) -> float:
        """Client hit fraction of this window's demand accesses."""
        accesses = self.hits + self.misses
        return self.hits / accesses if accesses else 0.0

    @property
    def eviction_rate(self) -> float:
        """Evictions per replayed event (client + server caches)."""
        return self.evictions / self.events if self.events else 0.0

    @property
    def events_per_sec(self) -> float:
        """Replay throughput over this window (wall clock)."""
        return self.events / self.seconds if self.seconds > 0 else 0.0

    @property
    def prefetch_efficiency(self) -> float:
        """Installed companions per requested companion slot.

        Group size ``g`` gives every remote request ``g - 1`` companion
        slots; slots lost to singleton builds, already-resident members,
        or capacity trims lower the ratio.  0.0 when the window had no
        slots (``g = 1`` or no misses).
        """
        return (
            self.group_installs / self.companion_slots
            if self.companion_slots
            else 0.0
        )

    @property
    def wasted_fetch_share(self) -> float:
        """Speculative share of this window's store traffic.

        Companion (prefetch) fetches over all store fetches — the
        traffic that *can* be wasted.  This is an upper bound on the
        exact wasted-bytes share the flight recorder computes
        retrospectively; demanded fetches are never wasted.
        """
        return (
            self.speculative_fetches / self.store_fetches
            if self.store_fetches
            else 0.0
        )

    def deterministic_dict(self) -> Dict[str, Any]:
        """Every field except wall-clock ones, for equivalence checks."""
        payload = self.to_dict()
        for key in WALL_CLOCK_FIELDS:
            payload.pop(key, None)
        return payload

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready record, derived ratios included for external tools."""
        return {
            "kind": "sample",
            "source": self.source,
            "index": self.index,
            "start": self.start,
            "events": self.events,
            "seconds": self.seconds,
            "hits": self.hits,
            "misses": self.misses,
            "hit_ratio": self.hit_ratio,
            "remote_requests": self.remote_requests,
            "store_fetches": self.store_fetches,
            "bytes_fetched": self.bytes_fetched,
            "group_installs": self.group_installs,
            "companion_slots": self.companion_slots,
            "speculative_fetches": self.speculative_fetches,
            "prefetch_efficiency": self.prefetch_efficiency,
            "wasted_fetch_share": self.wasted_fetch_share,
            "evictions": self.evictions,
            "eviction_rate": self.eviction_rate,
            "invalidations": self.invalidations,
            "entropy": self.entropy,
            "events_per_sec": self.events_per_sec,
            "label": self.label,
        }

    @classmethod
    def from_dict(cls, record: Mapping[str, Any]) -> "WindowSample":
        """Rebuild a sample from a ``to_dict`` record (derived keys ignored)."""
        return cls(
            source=record.get("source", "replay"),
            index=int(record.get("index", 0)),
            start=int(record.get("start", 0)),
            events=int(record.get("events", 0)),
            seconds=float(record.get("seconds", 0.0)),
            hits=int(record.get("hits", 0)),
            misses=int(record.get("misses", 0)),
            remote_requests=int(record.get("remote_requests", 0)),
            store_fetches=int(record.get("store_fetches", 0)),
            bytes_fetched=int(record.get("bytes_fetched", 0)),
            group_installs=int(record.get("group_installs", 0)),
            companion_slots=int(record.get("companion_slots", 0)),
            speculative_fetches=int(record.get("speculative_fetches", 0)),
            evictions=int(record.get("evictions", 0)),
            invalidations=int(record.get("invalidations", 0)),
            entropy=(
                float(record["entropy"])
                if record.get("entropy") is not None
                else None
            ),
            label=str(record.get("label", "")),
        )


class WindowedCollector:
    """Accumulates :class:`WindowSample` records for one run.

    Parameters
    ----------
    window:
        Events per replay window (the telemetry resolution).
    bytes_per_file:
        Byte weight of one store fetch.  The model ships whole files,
        so files are the byte proxy; 1 keeps ``bytes_fetched`` in file
        units, a mean file size turns it into approximate bytes.
    entropy:
        Compute each window's successor entropy (costs one
        :func:`~repro.analysis.predictability.entropy_timeline` pass
        per window; disable for maximum-throughput monitoring).
    on_sample:
        Optional callback invoked with each appended sample — the live
        ``repro top`` dashboard and the ``/metrics`` endpoint hang off
        this hook.
    """

    def __init__(
        self,
        window: int = 2000,
        bytes_per_file: int = 1,
        entropy: bool = True,
        on_sample: Optional[Callable[[WindowSample], None]] = None,
    ):
        if window < 1:
            raise ObservabilityError(f"window must be >= 1, got {window}")
        if bytes_per_file < 1:
            raise ObservabilityError(
                f"bytes_per_file must be >= 1, got {bytes_per_file}"
            )
        self.window = window
        self.bytes_per_file = bytes_per_file
        self.entropy = entropy
        self.on_sample = on_sample
        self.samples: List[WindowSample] = []
        # Source-stream cursors: replay starts accumulate across
        # successive replays into one collector so exported series keep
        # strictly monotone starts; sweep points count globally.
        self._replay_windows = 0
        self._replay_events = 0
        self._sweep_points = 0

    def __len__(self) -> int:
        return len(self.samples)

    def append(self, sample: WindowSample) -> None:
        """Record one sample and fan it out to ``on_sample``."""
        self.samples.append(sample)
        if self.on_sample is not None:
            self.on_sample(sample)

    def record_point(
        self,
        index: int,
        params: Mapping[str, Any],
        measured: Mapping[str, Any],
        seconds: float,
    ) -> WindowSample:
        """Record one completed sweep point as a ``source="sweep"`` sample.

        Called by the sweep runner in the *parent* process for both the
        serial and the process-pool paths, so parallel sweeps aggregate
        across workers by construction.  ``events`` is taken from the
        measured record when the point reports it.
        """
        events = measured.get("events", 0)
        sample = WindowSample(
            source="sweep",
            index=self._sweep_points,
            start=index,
            events=int(events) if isinstance(events, (int, float)) else 0,
            seconds=seconds,
            label=",".join(f"{key}={value}" for key, value in params.items()),
        )
        self._sweep_points += 1
        self.append(sample)
        return sample

    def replay_samples(self) -> List[WindowSample]:
        """The replay-source samples, in order."""
        return [s for s in self.samples if s.source == "replay"]

    def sweep_samples(self) -> List[WindowSample]:
        """The sweep-source samples, in order."""
        return [s for s in self.samples if s.source == "sweep"]

    def series(self, metric: str, source: str = "replay") -> List[float]:
        """One metric as a plain list (sparklines, drift detection).

        ``metric`` may be any sample field or derived property;
        ``entropy`` samples of short windows (``None``) are skipped.
        """
        values: List[float] = []
        for sample in self.samples:
            if sample.source != source:
                continue
            value = getattr(sample, metric)
            if value is None:
                continue
            values.append(float(value))
        return values

    def totals(self) -> Dict[str, int]:
        """Cumulative counters over every sample (both sources)."""
        keys = (
            "events",
            "hits",
            "misses",
            "remote_requests",
            "store_fetches",
            "bytes_fetched",
            "group_installs",
            "evictions",
            "invalidations",
        )
        sums = {key: 0 for key in keys}
        for sample in self.samples:
            for key in keys:
                sums[key] += getattr(sample, key)
        return sums


#: The collector windowed replays and sweeps currently stream into.
#: Read once per replay/sweep *call* (never per event), so the dormant
#: cost is one module attribute load.
ACTIVE: Optional[WindowedCollector] = None


def get_collector() -> Optional[WindowedCollector]:
    """The active collector, or None when windowing is off."""
    return ACTIVE


def set_collector(
    collector: Optional[WindowedCollector],
) -> Optional[WindowedCollector]:
    """Swap the active collector; returns the previous one."""
    global ACTIVE
    previous = ACTIVE
    ACTIVE = collector
    return previous


@contextmanager
def windowing(
    window: int = 2000,
    collector: Optional[WindowedCollector] = None,
    bytes_per_file: int = 1,
    entropy: bool = True,
    on_sample: Optional[Callable[[WindowSample], None]] = None,
) -> Iterator[WindowedCollector]:
    """Activate windowed telemetry for a block.

    Replays and sweeps inside the block stream samples into the yielded
    collector; the previous collector (usually None) is restored on
    exit.  Windowing is independent of the metrics master switch — it
    changes how the replay is *driven* (chunk by chunk), not what the
    per-event loops do, so it composes with :func:`repro.obs.collecting`
    and :func:`repro.obs.tracing.recording` freely.
    """
    target = (
        collector
        if collector is not None
        else WindowedCollector(
            window=window,
            bytes_per_file=bytes_per_file,
            entropy=entropy,
            on_sample=on_sample,
        )
    )
    previous = set_collector(target)
    try:
        yield target
    finally:
        set_collector(previous)


# -- windowed replay driver -------------------------------------------------


def _system_totals(system) -> Tuple[int, ...]:
    """Cumulative counters of a :class:`DistributedFileSystem`.

    Read at window boundaries only; the deltas between two snapshots
    are exact for both replay paths because both maintain these same
    stats objects (the fast-path equivalence tests hold them to it).
    """
    hits = misses = evictions = installs = 0
    for cache in system.clients.values():
        stats = cache.stats
        hits += stats.hits
        misses += stats.misses
        evictions += stats.evictions
        installs += stats.installs
    server = system.server_cache
    if server is not None:
        server_stats = server.stats
        server_misses = server_stats.misses
        server_evictions = server_stats.evictions
    else:
        server_misses = server_evictions = 0
    return (
        hits,
        misses,
        evictions,
        installs,
        server_misses,
        server_evictions,
        system.store.fetches,
        system.remote_requests,
        system.invalidations,
    )


def _chunk_entropy(file_ids: Sequence[Any]) -> Optional[float]:
    """Successor entropy of one window, via the predictability tooling."""
    if len(file_ids) < 2:
        return None
    # Deferred: keeps repro.obs import-light (analysis pulls in the
    # charting stack) and avoids any import-order coupling.
    from ..analysis.predictability import entropy_timeline

    samples = entropy_timeline(file_ids, window=len(file_ids))
    return samples[0][1] if samples else None


def windowed_replay(
    system,
    trace,
    intern: bool = False,
    collector: Optional[WindowedCollector] = None,
    progress: Optional[Callable[..., None]] = None,
):
    """Replay ``trace`` window by window, sampling at each boundary.

    Drives ``system``'s own replay machinery over consecutive
    ``collector.window``-event chunks — the per-event loops (fast or
    generic, traced or not) run unmodified, and every piece of
    simulation state carries across chunk boundaries, so the final
    :class:`~repro.sim.engine.SystemMetrics` is identical to an
    unwindowed replay of the same trace.

    ``intern=True`` is handled here (one symbol table over the whole
    trace, then plain chunk replays) so codes stay consistent across
    windows.  ``progress`` follows the shared
    :func:`~repro.sim.progress.normalize_progress` contract, with
    ``params = {"window": w, "start": event_index}`` per window.

    Columnar traces window via zero-copy slices — each chunk is a view
    into the same mmap, never materialized events — and ``intern`` is
    moot for them (their file ids are already dense codes).

    Returns the system's end-of-run metrics, like ``replay`` itself.
    """
    # Deferred: repro.sim imports repro.obs at module load; importing
    # back at call time avoids the package-init cycle.
    from ..sim.progress import normalize_progress
    from ..traces.columnar import ColumnarTrace
    from ..traces.events import Trace

    chosen = collector if collector is not None else ACTIVE
    if chosen is None:
        raise ObservabilityError(
            "windowed_replay needs a collector (pass one or activate "
            "windowing())"
        )
    columnar = isinstance(trace, ColumnarTrace)
    events = trace if columnar else trace.events
    if intern and not columnar and events:
        import dataclasses

        from ..traces.symbols import SymbolTable

        table = SymbolTable()
        codes = table.encode([event.file_id for event in events])
        events = [
            dataclasses.replace(event, file_id=code)
            for event, code in zip(events, codes)
        ]
        previous_key = system.tracker._previous
        if previous_key is not None:
            system.tracker._previous = table.intern(previous_key)

    notify = normalize_progress(progress)
    window = chosen.window
    total = (len(events) + window - 1) // window
    started = time.perf_counter()
    # Columnar replays keep ONE array-kernel state across every chunk:
    # eligibility is decided on the full trace, the per-chunk replays
    # share the imported arrays (stats objects and counters are synced
    # at every chunk boundary, which is all the sampling below reads),
    # and the cache OrderedDicts are written back once at the end.
    # Without the session, the kernel's import/export would run per
    # window and a small window would lose its entire speedup to it.
    v2_state = None
    if columnar and system._kernel_ok():
        from ..sim.kernel import replay_columns_v2, v2_import

        v2_state = v2_import(system, trace)
    # Suspend the global hook while chunks replay so a collector-driven
    # replay() call cannot recurse into itself.
    previous = set_collector(None)
    try:
        for index in range(total):
            low = index * window
            high = min(low + window, len(events))
            if notify is not None:
                notify(
                    index,
                    total,
                    {"window": index, "start": low},
                    time.perf_counter() - started,
                )
            if columnar:
                sub_trace = trace.slice(low, high)
            else:
                chunk = events[low:high]
                sub_trace = Trace(
                    events=chunk, name=f"{trace.name}[{low}:{high}]"
                )
            before = _system_totals(system)
            chunk_started = time.perf_counter()
            if v2_state is not None:
                replay_columns_v2(system, sub_trace, state=v2_state)
            else:
                system._replay_trace(sub_trace, intern=False)
            seconds = time.perf_counter() - chunk_started
            after = _system_totals(system)
            if not chosen.entropy:
                file_ids = ()
            elif columnar:
                # Codes, not strings: entropy is invariant under the
                # bijective relabelling, so the sample matches the
                # event-object path (asserted by tests/test_kernel.py).
                file_ids = sub_trace.file_codes
            else:
                file_ids = [event.file_id for event in chunk]
            chosen.append(
                _window_sample(
                    chosen, system, high - low, file_ids, low,
                    before, after, seconds,
                )
            )
    finally:
        set_collector(previous)
        if v2_state is not None:
            v2_state.export()
    chosen._replay_windows += total
    chosen._replay_events += len(events)
    return system.metrics()


def _window_sample(
    collector: WindowedCollector,
    system,
    count: int,
    file_ids: Sequence[Any],
    start: int,
    before: Tuple[int, ...],
    after: Tuple[int, ...],
    seconds: float,
) -> WindowSample:
    """Fold one window's counter deltas into a :class:`WindowSample`.

    ``file_ids`` is the window's access sequence (strings or columnar
    codes — entropy only cares about the successor distribution) and may
    be empty when the collector skips entropy.
    """
    (
        hits,
        misses,
        evictions,
        installs,
        server_misses,
        server_evictions,
        store_fetches,
        remote_requests,
        invalidations,
    ) = (a - b for a, b in zip(after, before))
    # A demanded file hits the store only on a server-cache miss (with
    # no server cache, every remote request reaches the store); the
    # rest of the store traffic is speculative companion shipping.
    demanded_fetches = server_misses if system.server_cache is not None else remote_requests
    speculative = max(store_fetches - demanded_fetches, 0)
    entropy = _chunk_entropy(file_ids) if collector.entropy else None
    return WindowSample(
        source="replay",
        index=collector._replay_windows + (start // collector.window),
        start=collector._replay_events + start,
        events=count,
        seconds=seconds,
        hits=hits,
        misses=misses,
        remote_requests=remote_requests,
        store_fetches=store_fetches,
        bytes_fetched=store_fetches * collector.bytes_per_file,
        group_installs=installs,
        companion_slots=remote_requests * max(system.group_size - 1, 0),
        speculative_fetches=speculative,
        evictions=evictions + server_evictions,
        invalidations=invalidations,
        entropy=entropy,
    )


# -- JSONL export / import --------------------------------------------------


def ts_records(
    collector: WindowedCollector, meta: Optional[Dict[str, Any]] = None
) -> List[Dict[str, Any]]:
    """The collector's samples as JSON-ready records, meta line first."""
    header: Dict[str, Any] = {
        "kind": "meta",
        "schema": TS_SCHEMA,
        "window": collector.window,
        "bytes_per_file": collector.bytes_per_file,
        "samples": len(collector.samples),
    }
    if meta:
        header.update(meta)
    return [header] + [sample.to_dict() for sample in collector.samples]


def dump_ts_jsonl(
    collector: WindowedCollector,
    stream: IO[str],
    meta: Optional[Dict[str, Any]] = None,
) -> int:
    """Write the series to an open text stream; returns lines written."""
    records = ts_records(collector, meta)
    for record in records:
        stream.write(json.dumps(record, sort_keys=True))
        stream.write("\n")
    return len(records)


def write_ts_jsonl(
    collector: WindowedCollector,
    path: Pathish,
    meta: Optional[Dict[str, Any]] = None,
) -> int:
    """Write the series to ``path``; returns lines written."""
    target = Path(path)
    if target.parent and not target.parent.exists():
        target.parent.mkdir(parents=True, exist_ok=True)
    with target.open("w", encoding="utf-8") as stream:
        return dump_ts_jsonl(collector, stream, meta)


#: Numeric fields every sample record must carry.
_REQUIRED_SAMPLE_FIELDS = ("index", "start", "events", "hits", "misses")


def _parse_ts_lines(
    lines: Iterable[str], source: str
) -> Dict[str, Any]:
    meta: Dict[str, Any] = {}
    samples: List[WindowSample] = []
    saw_meta = False
    for number, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as error:
            raise ObservabilityError(f"{source}:{number}: not valid JSON ({error})")
        kind = record.get("kind")
        if kind == "meta":
            if record.get("schema") != TS_SCHEMA:
                raise ObservabilityError(
                    f"{source}:{number}: unsupported schema "
                    f"{record.get('schema')!r} (expected {TS_SCHEMA})"
                )
            saw_meta = True
            meta = {
                key: value
                for key, value in record.items()
                if key not in ("kind", "schema")
            }
        elif kind == "sample":
            for fieldname in _REQUIRED_SAMPLE_FIELDS:
                if not isinstance(record.get(fieldname), (int, float)):
                    raise ObservabilityError(
                        f"{source}:{number}: sample missing numeric "
                        f"{fieldname!r}"
                    )
            if record.get("source") not in ("replay", "sweep", "serve"):
                raise ObservabilityError(
                    f"{source}:{number}: unknown sample source "
                    f"{record.get('source')!r}"
                )
            samples.append(WindowSample.from_dict(record))
        else:
            raise ObservabilityError(
                f"{source}:{number}: unknown record kind {kind!r}"
            )
    if not saw_meta:
        raise ObservabilityError(f"{source}: no {TS_SCHEMA} meta line found")
    return {"meta": meta, "samples": samples}


def load_ts_jsonl(path: Pathish) -> Dict[str, Any]:
    """Read a ``repro.ts/1`` export back.

    Returns ``{"meta": dict, "samples": [WindowSample, ...]}``; every
    line is validated against the schema vocabulary and malformed input
    raises :class:`ObservabilityError`.
    """
    source = str(path)
    with Path(path).open("r", encoding="utf-8") as stream:
        return _parse_ts_lines(stream, source)


# -- Prometheus / OpenMetrics exporter --------------------------------------

#: (metric suffix, help text) for the cumulative counters.
_PROM_COUNTERS = (
    ("events", "replayed trace events"),
    ("hits", "client cache hits"),
    ("misses", "client cache misses"),
    ("remote_requests", "client misses forwarded to the server"),
    ("store_fetches", "files shipped from the backing store"),
    ("bytes_fetched", "store fetch volume (bytes_per_file proxy)"),
    ("group_installs", "companions installed by group fetches"),
    ("evictions", "cache evictions (client + server)"),
    ("invalidations", "entries dropped by mutations"),
)

#: (metric suffix, sample attribute, help text) for latest-window gauges.
_PROM_GAUGES = (
    ("hit_ratio", "hit_ratio", "latest window client hit ratio"),
    ("events_per_second", "events_per_sec", "latest window replay throughput"),
    ("entropy_bits", "entropy", "latest window successor entropy"),
    (
        "prefetch_efficiency",
        "prefetch_efficiency",
        "latest window installed companions per companion slot",
    ),
    (
        "wasted_fetch_share",
        "wasted_fetch_share",
        "latest window speculative share of store fetches (upper bound on waste)",
    ),
    ("eviction_rate", "eviction_rate", "latest window evictions per event"),
)


def prometheus_text(
    source: Union[WindowedCollector, Sequence[WindowSample]],
    prefix: str = "repro_ts",
) -> str:
    """Render the series in Prometheus/OpenMetrics text exposition format.

    Cumulative fields become ``<prefix>_<name>_total`` counters; the
    most recent replay sample's ratios become gauges.  The output is
    scrape-ready for a stock Prometheus (text format 0.0.4) and parses
    as OpenMetrics minus the terminating ``# EOF`` marker, which is
    appended here for strict parsers.
    """
    if isinstance(source, WindowedCollector):
        samples = source.samples
        totals = source.totals()
    else:
        samples = list(source)
        scratch = WindowedCollector(window=1)
        scratch.samples = samples
        totals = scratch.totals()
    lines: List[str] = []
    for name, help_text in _PROM_COUNTERS:
        metric = f"{prefix}_{name}_total"
        lines.append(f"# HELP {metric} Cumulative {help_text}.")
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {totals[name]}")
    windows = f"{prefix}_windows_total"
    lines.append(f"# HELP {windows} Cumulative samples recorded.")
    lines.append(f"# TYPE {windows} counter")
    lines.append(f"{windows} {len(samples)}")
    latest = next(
        (sample for sample in reversed(samples) if sample.source == "replay"),
        None,
    )
    if latest is not None:
        for name, attribute, help_text in _PROM_GAUGES:
            value = getattr(latest, attribute)
            if value is None:
                continue
            metric = f"{prefix}_{name}"
            lines.append(f"# HELP {metric} {help_text[:1].upper()}{help_text[1:]}.")
            lines.append(f"# TYPE {metric} gauge")
            lines.append(f"{metric} {float(value):.6g}")
        window_gauge = f"{prefix}_window_index"
        lines.append(f"# HELP {window_gauge} Index of the latest replay window.")
        lines.append(f"# TYPE {window_gauge} gauge")
        lines.append(f"{window_gauge} {latest.index}")
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


class MetricsServer:
    """A stdlib ``/metrics`` endpoint for long-running runs.

    Serves whatever ``render`` returns (typically
    ``lambda: prometheus_text(collector)``) from a daemon thread, so a
    Prometheus scraper can watch a multi-hour sweep live.

    The default port is **0** — the kernel picks a free one — and the
    bound address is read back into ``.host`` / ``.port`` / ``.url``
    after binding.  Tests and parallel CI legs must keep that default
    and dial the reported port instead of hard-coding one; two suites
    scraping fixed ports is exactly the flaky collision this contract
    eliminates (``repro.serve.CacheDaemon`` follows the same rule).
    ``close()`` is idempotent and the server is a context manager, so
    teardown paths can never leak the socket or double-shutdown.
    """

    def __init__(
        self,
        render: Callable[[], str],
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        server_ref = self

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self):  # noqa: N802 - http.server API
                if self.path.rstrip("/") not in ("", "/metrics".rstrip("/")):
                    self.send_error(404, "only /metrics is served")
                    return
                body = server_ref.render().encode("utf-8")
                self.send_response(200)
                self.send_header(
                    "Content-Type", "text/plain; version=0.0.4; charset=utf-8"
                )
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, format, *args):  # noqa: A002 - API name
                pass  # scrapes must not spam the dashboard's terminal

        self.render = render
        self._httpd = ThreadingHTTPServer((host, port), Handler)
        self.host, self.port = self._httpd.server_address[:2]
        self._closed = False
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-metrics", daemon=True
        )

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}/metrics"

    def start(self) -> "MetricsServer":
        self._thread.start()
        return self

    def close(self) -> None:
        """Stop serving and release the socket; safe to call twice.

        ``shutdown()`` is only issued when the serve loop actually ran
        (it blocks forever otherwise); the socket is released either
        way, so a constructed-but-never-started server still cleans up.
        """
        if self._closed:
            return
        self._closed = True
        if self._thread.is_alive():
            self._httpd.shutdown()
            self._thread.join(timeout=5)
        self._httpd.server_close()

    def __enter__(self) -> "MetricsServer":
        if not self._thread.is_alive():
            self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def serve_metrics(
    collector: WindowedCollector, host: str = "127.0.0.1", port: int = 0
) -> MetricsServer:
    """Start a daemon-thread ``/metrics`` endpoint for a collector."""
    return MetricsServer(lambda: prometheus_text(collector), host, port).start()
