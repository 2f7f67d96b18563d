"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_render_defaults(self):
        args = build_parser().parse_args(["render", "lego"])
        assert args.scene == "lego"
        assert args.pipeline == "hashgrid"
        assert args.size == 48

    def test_simulate_scaling_flags(self):
        args = build_parser().parse_args(
            ["simulate", "room", "hashgrid", "--pe-scale", "2", "--sram-scale", "2"]
        )
        assert args.pe_scale == 2 and args.sram_scale == 2


class TestCommands:
    def test_simulate_prints_summary(self, capsys):
        code = main(["simulate", "room", "hashgrid", "--timeline"])
        out = capsys.readouterr().out
        assert code == 0
        assert "FPS" in out
        assert "#" in out  # timeline bars

    def test_simulate_scaled_design(self, capsys):
        code = main(["simulate", "room", "hashgrid",
                     "--pe-scale", "2", "--sram-scale", "2"])
        assert code == 0
        assert "FPS" in capsys.readouterr().out

    def test_render_small_frame(self, capsys):
        code = main(["render", "lego", "--pipeline", "gaussian", "--size", "16"])
        out = capsys.readouterr().out
        assert code == 0
        assert "workload counters" in out

    def test_report_selected(self, capsys):
        code = main(["report", "table3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "module status" in out.lower() or "Table III" in out

    def test_unknown_scene_is_clean_error(self, capsys):
        code = main(["simulate", "atlantis", "hashgrid"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_experiment_is_clean_error(self, capsys):
        code = main(["report", "table99"])
        assert code == 2
        assert "unknown experiments" in capsys.readouterr().err


class TestServeCommand:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.chips == 4
        assert args.requests == 200
        assert args.traffic == "mixed"
        assert args.policy == "pipeline-affinity"

    def test_serve_prints_service_metrics(self, capsys):
        code = main(["serve", "--chips", "2", "--requests", "20",
                     "--width", "64", "--height", "64",
                     "--scenes", "lego", "--pipelines", "hashgrid,gaussian"])
        out = capsys.readouterr().out
        assert code == 0
        assert "throughput" in out
        assert "latency p99" in out
        assert "SLO attainment" in out
        assert "cache hit rate" in out

    def test_serve_compare_policies(self, capsys):
        code = main(["serve", "--chips", "2", "--requests", "12",
                     "--width", "64", "--height", "64",
                     "--scenes", "lego", "--pipelines", "hashgrid",
                     "--compare-policies"])
        out = capsys.readouterr().out
        assert code == 0
        for policy in ("round-robin", "least-loaded", "pipeline-affinity"):
            assert f"policy={policy}" in out

    def test_serve_unknown_traffic_is_clean_error(self, capsys):
        code = main(["serve", "--traffic", "tsunami", "--requests", "5"])
        assert code == 2
        assert "unknown traffic pattern" in capsys.readouterr().err

    def test_serve_unknown_policy_is_clean_error(self, capsys):
        code = main(["serve", "--policy", "chaos", "--requests", "5",
                     "--width", "64", "--height", "64"])
        assert code == 2
        assert "unknown sharding policy" in capsys.readouterr().err


class TestElasticServeFlags:
    def test_elastic_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.autoscale is None
        assert args.min_chips == 2
        assert args.admission == "admit-all"
        assert args.fleet_spec is None
        assert args.trace_library is None

    def test_autoscale_flag_modes(self):
        # Bare --autoscale keeps the pre-predictive behaviour (reactive);
        # the optional value selects the forecast-led controller.
        assert build_parser().parse_args(
            ["serve", "--autoscale"]).autoscale == "reactive"
        assert build_parser().parse_args(
            ["serve", "--autoscale", "predictive"]).autoscale == "predictive"

    def test_serve_autoscale_compares_fleets(self, capsys):
        code = main(["serve", "--chips", "3", "--requests", "24",
                     "--traffic", "bursty", "--width", "64", "--height", "64",
                     "--scenes", "lego", "--pipelines", "hashgrid,gaussian",
                     "--autoscale", "--min-chips", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "autoscaled vs static" in out
        assert "chip-seconds" in out
        assert "fleet size timeline" in out

    def test_serve_fleet_spec_builds_heterogeneous_fleet(self, capsys):
        code = main(["serve", "--requests", "12",
                     "--width", "64", "--height", "64",
                     "--scenes", "lego", "--pipelines", "hashgrid",
                     "--fleet-spec", "1*1x1,1*2x2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "16x16pe" in out and "16x32pe" in out

    def test_serve_admission_policy_runs(self, capsys):
        code = main(["serve", "--chips", "2", "--requests", "20",
                     "--traffic", "bursty", "--width", "64", "--height", "64",
                     "--scenes", "lego", "--pipelines", "hashgrid,gaussian",
                     "--admission", "slo-shed"])
        out = capsys.readouterr().out
        assert code == 0
        assert "admission=slo-shed" in out

    def test_serve_bad_fleet_spec_is_clean_error(self, capsys):
        code = main(["serve", "--fleet-spec", "2y2", "--requests", "5"])
        assert code == 2
        assert "fleet-spec" in capsys.readouterr().err

    def test_serve_unknown_admission_is_clean_error(self, capsys):
        code = main(["serve", "--admission", "bouncer", "--requests", "5",
                     "--width", "64", "--height", "64",
                     "--scenes", "lego", "--pipelines", "hashgrid"])
        assert code == 2
        assert "unknown admission policy" in capsys.readouterr().err


class TestEngineServeFlags:
    def test_engine_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.compile_workers == 0
        assert args.prefetch is False

    def test_serve_compile_workers_reports_pool_and_prefetch(self, capsys):
        code = main(["serve", "--chips", "2", "--requests", "20",
                     "--traffic", "bursty", "--width", "64", "--height", "64",
                     "--scenes", "lego", "--pipelines", "hashgrid,gaussian",
                     "--compile-workers", "2", "--prefetch"])
        out = capsys.readouterr().out
        assert code == 0
        assert "compile workers" in out
        assert "prefetch accuracy" in out

    def test_serve_prefetch_without_workers_is_clean_error(self, capsys):
        code = main(["serve", "--requests", "5", "--prefetch",
                     "--width", "64", "--height", "64",
                     "--scenes", "lego", "--pipelines", "hashgrid"])
        assert code == 2
        assert "--compile-workers" in capsys.readouterr().err


class TestObservabilityFlags:
    def test_obs_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.trace_out is None
        assert args.trace_sample == 1.0
        assert args.trace_capacity == 65536
        assert args.metrics_out is None
        assert args.flight_recorder is False

    def test_trace_out_writes_schema_valid_artifact(self, tmp_path, capsys):
        from repro.obs import load_chrome_trace, validate_chrome_trace

        out_path = tmp_path / "serve.trace.json"
        code = main(["serve", "--chips", "2", "--requests", "20",
                     "--traffic", "bursty", "--width", "64", "--height", "64",
                     "--scenes", "lego", "--pipelines", "hashgrid,gaussian",
                     "--trace-out", str(out_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "trace" in out and str(out_path) in out
        assert validate_chrome_trace(load_chrome_trace(out_path)) > 0

    def test_trace_subcommand_summarizes_artifact(self, tmp_path, capsys):
        out_path = tmp_path / "serve.trace.json"
        assert main(["serve", "--chips", "2", "--requests", "12",
                     "--width", "64", "--height", "64",
                     "--scenes", "lego", "--pipelines", "hashgrid",
                     "--trace-out", str(out_path)]) == 0
        capsys.readouterr()
        code = main(["trace", str(out_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "trace events" in out
        assert "recorder:" in out

    def test_trace_subcommand_missing_file_is_clean_error(self, capsys):
        code = main(["trace", "/nonexistent/trace.json"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_metrics_out_writes_csv_timeline(self, tmp_path, capsys):
        out_path = tmp_path / "metrics.csv"
        code = main(["serve", "--chips", "2", "--requests", "12",
                     "--width", "64", "--height", "64",
                     "--scenes", "lego", "--pipelines", "hashgrid",
                     "--metrics-out", str(out_path)])
        assert code == 0
        assert "metrics" in capsys.readouterr().out
        header = out_path.read_text().splitlines()[0]
        assert header.startswith("t_s,")
        assert "engine.arrivals" in header

    def test_flight_recorder_reports_armed_state(self, capsys):
        # A gentle run: armed, but nothing should trigger.
        code = main(["serve", "--chips", "2", "--requests", "12",
                     "--width", "64", "--height", "64",
                     "--scenes", "lego", "--pipelines", "hashgrid",
                     "--flight-recorder"])
        out = capsys.readouterr().out
        assert code == 0
        assert "flight recorder" in out

    def test_comparison_runs_stay_untraced(self, tmp_path, capsys):
        # --compare-policies: the artifact must describe exactly the
        # first (primary) policy's schedule, not an accumulation.
        from repro.obs import load_chrome_trace

        solo_path = tmp_path / "solo.json"
        assert main(["serve", "--chips", "2", "--requests", "12",
                     "--width", "64", "--height", "64",
                     "--scenes", "lego", "--pipelines", "hashgrid",
                     "--policy", "cost-aware",
                     "--trace-out", str(solo_path)]) == 0
        compare_path = tmp_path / "compare.json"
        assert main(["serve", "--chips", "2", "--requests", "12",
                     "--width", "64", "--height", "64",
                     "--scenes", "lego", "--pipelines", "hashgrid",
                     "--compare-policies",
                     "--trace-out", str(compare_path)]) == 0
        capsys.readouterr()
        solo = load_chrome_trace(solo_path)["otherData"]["recorded"]
        compared = load_chrome_trace(compare_path)["otherData"]["recorded"]
        assert solo == compared


class TestFederateCommand:
    @pytest.mark.parametrize("flag, value", [
        ("--sync-ms", "nan"), ("--sync-ms", "inf"),
        ("--gossip-delay-ms", "nan"), ("--failover-ms", "nan")])
    def test_non_finite_knob_is_a_clean_error(self, capsys, flag, value):
        code = main(["federate", "--regions", "a:chips=1",
                     "--requests", "2", "--width", "32", "--height", "32",
                     flag, value])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("sync_ms", ["1e-320", "1e-300"])
    def test_epoch_count_past_the_cap_is_a_clean_error(self, capsys,
                                                       sync_ms):
        # 1e-320 ms overflows horizon / cadence to inf; 1e-300 ms asks
        # for ~1e302 epochs. Both must refuse before the first epoch.
        code = main(["federate", "--regions", "a:chips=1",
                     "--requests", "2", "--width", "32", "--height", "32",
                     "--sync-ms", sync_ms])
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "sync_cadence_s" in err
