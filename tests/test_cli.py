"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_fig_commands_registered(self):
        parser = build_parser()
        for command in ("fig3", "fig4", "fig5", "fig7", "fig8", "headline"):
            args = parser.parse_args([command])
            assert callable(args.handler)

    def test_workload_choices_enforced(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["fig3", "--workload", "cray"])


class TestMain:
    def test_fig5_runs(self, capsys):
        code = main(["fig5", "--workload", "server", "--events", "2500"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 5" in out
        assert "Oracle" in out
        assert "| Number of Successors |" in out

    def test_fig7_runs(self, capsys):
        code = main(["fig7", "--events", "2500"])
        assert code == 0
        assert "successor entropy" in capsys.readouterr().out.lower()

    def test_fig3_with_csv(self, capsys, tmp_path):
        csv_path = tmp_path / "fig3.csv"
        code = main(
            [
                "fig3",
                "--workload",
                "server",
                "--events",
                "2500",
                "--csv",
                str(csv_path),
            ]
        )
        assert code == 0
        assert csv_path.exists()
        assert csv_path.read_text().startswith("Cache Capacity")

    def test_headline_runs(self, capsys):
        code = main(["headline", "--events", "2500"])
        assert code == 0
        assert "claim" in capsys.readouterr().out

    def test_generate_and_inspect(self, capsys, tmp_path):
        trace_path = tmp_path / "server.trace"
        code = main(
            [
                "generate",
                "--workload",
                "server",
                "--events",
                "1000",
                "--out",
                str(trace_path),
            ]
        )
        assert code == 0
        assert trace_path.exists()
        code = main(["inspect", str(trace_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "| events | 1000 |" in out

    def test_inspect_missing_file(self, capsys):
        with pytest.raises(FileNotFoundError):
            main(["inspect", "/nonexistent/trace.txt"])

    def test_placement_runs(self, capsys):
        code = main(["placement", "--workload", "server", "--events", "2500"])
        assert code == 0
        assert "Mean Seek Distance" in capsys.readouterr().out

    def test_hoard_runs(self, capsys):
        code = main(["hoard", "--workload", "server", "--events", "4000"])
        assert code == 0
        assert "group-closure" in capsys.readouterr().out

    def test_cooperation_runs(self, capsys):
        code = main(["cooperation", "--workload", "server", "--events", "2500"])
        assert code == 0
        out = capsys.readouterr().out
        assert "cooperative" in out
        assert "filtered" in out

    def test_profile_workload(self, capsys):
        code = main(["profile", "--workload", "server", "--events", "2500"])
        assert code == 0
        out = capsys.readouterr().out
        assert "predictability profile" in out
        assert "bits" in out

    def test_profile_trace_file(self, capsys, tmp_path):
        trace_path = tmp_path / "t.trace"
        main(
            [
                "generate",
                "--workload",
                "workstation",
                "--events",
                "2000",
                "--out",
                str(trace_path),
            ]
        )
        capsys.readouterr()
        code = main(["profile", "--trace", str(trace_path)])
        assert code == 0
        assert "predictability profile" in capsys.readouterr().out

    def test_error_reporting(self, capsys, tmp_path):
        bad = tmp_path / "bad.trace"
        bad.write_text("frobnicate x\n", encoding="utf-8")
        code = main(["inspect", str(bad)])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestCompareAndAnonymize:
    def test_compare_runs(self, capsys):
        code = main(
            [
                "compare",
                "--workload",
                "server",
                "--events",
                "3000",
                "--capacity",
                "150",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "aggregating g5" in out
        assert "| lru |" in out

    def test_anonymize_keyed(self, capsys, tmp_path):
        source = tmp_path / "raw.trace"
        target = tmp_path / "anon.trace"
        main(
            [
                "generate",
                "--workload",
                "server",
                "--events",
                "500",
                "--out",
                str(source),
            ]
        )
        capsys.readouterr()
        code = main(["anonymize", str(source), "--out", str(target), "--key", "k"])
        assert code == 0
        assert target.exists()
        assert "server/" not in target.read_text().splitlines()[5]

    def test_anonymize_enumerated(self, capsys, tmp_path):
        source = tmp_path / "raw.trace"
        target = tmp_path / "enum.trace"
        main(
            [
                "generate",
                "--workload",
                "users",
                "--events",
                "500",
                "--out",
                str(source),
            ]
        )
        capsys.readouterr()
        code = main(["anonymize", str(source), "--out", str(target)])
        assert code == 0
        assert "enumeration" in capsys.readouterr().out


class TestWorkloadsCommand:
    def test_catalog_table(self, capsys):
        code = main(["workloads"])
        assert code == 0
        out = capsys.readouterr().out
        assert "mozart" in out
        assert "barber" in out

    def test_single_workload_detail(self, capsys):
        code = main(["workloads", "server"])
        assert code == 0
        out = capsys.readouterr().out
        assert "calibration targets" in out

    def test_unknown_workload_errors(self, capsys):
        code = main(["workloads", "vax"])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestGraphAndReportCommands:
    def test_graph_runs(self, capsys):
        code = main(["graph", "--workload", "server", "--events", "2500"])
        assert code == 0
        out = capsys.readouterr().out
        assert "relationship graph" in out
        assert "hub files" in out
        assert "covering set" in out

    def test_report_command_registered(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["report", "--events", "2500"])
        assert callable(args.handler)

    def test_report_drift_flag_registered(self):
        args = build_parser().parse_args(["report", "--drift"])
        assert args.drift is True


class TestTimeseriesCommands:
    def test_metrics_windowed_exports_ts_jsonl(self, capsys, tmp_path):
        from repro.obs import load_ts_jsonl

        path = tmp_path / "series.jsonl"
        code = main(
            [
                "metrics",
                "--workload",
                "server",
                "--events",
                "3000",
                "--window",
                "500",
                "--ts-out",
                str(path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "windowed series: 6 windows of 500 events" in out
        assert "hit ratio" in out
        assert f"wrote 7 repro.ts/1 JSONL lines to {path}" in out
        loaded = load_ts_jsonl(path)
        assert loaded["meta"]["workload"] == "server"
        assert len(loaded["samples"]) == 6

    def test_metrics_baselines_note_when_obs_disabled(self, capsys, monkeypatch):
        # If the master switch never comes on, the baseline table would
        # be all zeros; the command must say so instead.
        from repro.obs import registry as obs_registry

        monkeypatch.setattr(obs_registry, "enable", lambda: None)
        code = main(
            [
                "metrics",
                "--workload",
                "server",
                "--events",
                "1000",
                "--baselines",
                "lru",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "metric collection was disabled" in out
        assert "baseline lru" not in out

    def test_top_plain_replay(self, capsys, tmp_path):
        path = tmp_path / "top.jsonl"
        code = main(
            [
                "top",
                "--workload",
                "server",
                "--events",
                "3000",
                "--window",
                "1000",
                "--plain",
                "--ts-out",
                str(path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "window 1/3" in out
        assert "window 3/3" in out
        assert "hit=" in out
        assert "ev/s=" in out
        assert path.exists()

    def test_top_sweep_plain_with_workers(self, capsys):
        code = main(
            [
                "top",
                "--sweep",
                "--workers",
                "2",
                "--workload",
                "server",
                "--events",
                "800",
                "--plain",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "point 1/48" in out
        assert "point 48/48" in out
        assert "group_size=" in out

    def test_drift_steady_series(self, capsys, tmp_path):
        path = tmp_path / "series.jsonl"
        main(
            [
                "metrics",
                "--workload",
                "server",
                "--events",
                "3000",
                "--window",
                "500",
                "--ts-out",
                str(path),
            ]
        )
        capsys.readouterr()
        code = main(["drift", str(path), "--history", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "scanned 6 windows" in out
        assert "no drift detected" in out

    def test_drift_fail_on_drift_exits_2(self, capsys, tmp_path):
        from repro.obs import WindowSample, WindowedCollector, write_ts_jsonl

        collector = WindowedCollector(window=100)
        for index in range(16):
            hits = 90 if index < 10 else 0
            collector.append(
                WindowSample(
                    index=index,
                    start=index * 100,
                    events=100,
                    hits=hits,
                    misses=100 - hits,
                )
            )
        path = tmp_path / "shift.jsonl"
        write_ts_jsonl(collector, path)
        code = main(
            ["drift", str(path), "--history", "4", "--fail-on-drift"]
        )
        assert code == 2
        out = capsys.readouterr().out
        assert "hit_ratio collapsed at window 10 (event 1000)" in out
        assert "| hit_ratio |" in out

    def test_drift_replay_mode(self, capsys):
        code = main(
            [
                "drift",
                "--workload",
                "server",
                "--events",
                "3000",
                "--window",
                "500",
                "--history",
                "4",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "scanned 6 windows of server" in out

    def test_drift_rejects_bad_listen_free_of_charge(self):
        from repro.cli import _parse_listen
        from repro.errors import ReproError

        assert _parse_listen(":0") == ("127.0.0.1", 0)
        assert _parse_listen("0.0.0.0:9100") == ("0.0.0.0", 9100)
        with pytest.raises(ReproError):
            _parse_listen("9100")


class TestTraceTooling:
    def test_trace_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace"])

    def test_pack_and_info_round_trip(self, capsys, tmp_path):
        text = tmp_path / "w.trace"
        packed = tmp_path / "w.ctrace"
        assert main(
            ["generate", "--workload", "write", "--events", "1500",
             "--out", str(text)]
        ) == 0
        assert main(["trace", "pack", str(text), str(packed)]) == 0
        out = capsys.readouterr().out
        assert "packed 1500 events" in out
        assert "repro-ctrace v1" in out
        assert packed.exists()

        assert main(["trace", "info", str(packed)]) == 0
        out = capsys.readouterr().out
        assert "| events | 1500 |" in out
        assert "| format | repro-ctrace |" in out
        assert "| version | 1 |" in out
        assert "column bytes (file)" in out

        # The packed file decodes back to the text trace exactly.
        from repro.traces.columnar import read_columnar
        from repro.traces.reader import read_trace

        assert read_columnar(packed).to_trace().events == read_trace(text).events

    def test_text_pack_and_info_never_decode_events(
        self, capsys, tmp_path, monkeypatch
    ):
        # Text parses straight into columns; pack writes them and info
        # reports them without building one event object, and the
        # packed bytes are what packing the events themselves gives.
        import io

        from repro.traces import reader
        from repro.traces.columnar import ColumnarTrace, dump_columnar
        from repro.traces.events import EventKind, Trace, TraceEvent
        from repro.traces.writer import write_trace

        kinds = list(EventKind)
        events = Trace(
            events=[
                TraceEvent(
                    f"f{index % 37}",
                    kinds[index % len(kinds)],
                    index,
                    client_id=f"c{index % 3}",
                    user_id=f"u{index % 2}" if index % 50 == 1 else "",
                    process_id="p1" if index % 70 == 0 else "",
                )
                for index in range(400)
            ],
            name="mixed",
        )
        text = tmp_path / "m.trace"
        out = tmp_path / "m.ctrace"
        write_trace(events, text)
        expected = io.BytesIO()
        dump_columnar(events, expected)

        def no_decoding(self, *args, **kwargs):
            raise AssertionError("a text trace was decoded to events")

        # Only the lines carrying user= or process= build an event, in
        # parse_event_line; every other line goes straight to columns.
        built = []
        event_class = reader.TraceEvent

        def counted(*args, **kwargs):
            built.append(args)
            return event_class(*args, **kwargs)

        monkeypatch.setattr(ColumnarTrace, "iter_events", no_decoding)
        monkeypatch.setattr(reader, "TraceEvent", counted)
        assert main(["trace", "pack", str(text), str(out)]) == 0
        assert main(["trace", "info", str(text)]) == 0
        assert "| events | 400 |" in capsys.readouterr().out
        assert out.read_bytes() == expected.getvalue()
        attributed = sum(1 for event in events if event.user_id or event.process_id)
        assert len(built) == 2 * attributed

    def test_info_bench_times_every_kernel_path(self, capsys, tmp_path):
        text = tmp_path / "b.trace"
        packed = tmp_path / "b.ctrace"
        main(
            ["generate", "--workload", "server", "--events", "1200",
             "--out", str(text)]
        )
        main(["trace", "pack", str(text), str(packed)])
        capsys.readouterr()
        assert main(["trace", "info", str(packed), "--bench"]) == 0
        out = capsys.readouterr().out
        assert "| events | 1200 |" in out
        assert "| path | seconds | events/s |" in out
        assert "| scan |" in out
        assert "| kernel_v2 (array LRU) |" in out
        # The dict-LRU kernel is gone; no row times it.
        assert "dict LRU" not in out

    def test_info_bench_accepts_text_traces(self, capsys, tmp_path):
        text = tmp_path / "bt.trace"
        main(
            ["generate", "--workload", "users", "--events", "700",
             "--out", str(text)]
        )
        capsys.readouterr()
        assert main(["trace", "info", str(text), "--bench"]) == 0
        out = capsys.readouterr().out
        assert "unpacked text" in out
        assert "| kernel_v2 (array LRU) |" in out

    def test_info_accepts_text_traces(self, capsys, tmp_path):
        text = tmp_path / "s.trace"
        main(
            ["generate", "--workload", "server", "--events", "800",
             "--out", str(text)]
        )
        capsys.readouterr()
        assert main(["trace", "info", str(text)]) == 0
        out = capsys.readouterr().out
        assert "| events | 800 |" in out
        assert "unpacked text" in out

    def test_pack_repacks_columnar_input(self, capsys, tmp_path):
        text = tmp_path / "u.trace"
        first = tmp_path / "u1.ctrace"
        second = tmp_path / "u2.ctrace"
        main(
            ["generate", "--workload", "users", "--events", "600",
             "--out", str(text)]
        )
        main(["trace", "pack", str(text), str(first)])
        assert main(["trace", "pack", str(first), str(second)]) == 0
        assert second.read_bytes() == first.read_bytes()
