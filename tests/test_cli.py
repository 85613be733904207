import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main

#: CLI JSON outputs captured as compact JSON; :func:`golden` expands them
#: with the CLI's own ``indent=2, sort_keys=True`` layout, so comparisons
#: stay byte-for-byte.  Regenerate after an intentional change with
#: ``PYTHONPATH=src python -m repro chaos --seed 0 --format json | python
#: -c "import json,sys; print(json.dumps(json.load(sys.stdin),
#: separators=(',', ':'), sort_keys=True))" > tests/golden/chaos_seed0.json``
#: (likewise ``analyze --format json`` into ``analyze.json``, ``sanitize
#: --seed 0 --format json`` into ``sanitize_seed0.json`` and ``sanitize
#: fixtures --format json`` into ``sanitize_fixtures.json``).  Text
#: outputs (``replay_*.txt``, from ``chaos --replay
#: tests/faults/regressions/<name>.json``) are stored verbatim.
GOLDEN = Path(__file__).parent / "golden"
REGRESSIONS = Path(__file__).parent / "faults" / "regressions"


def golden(name):
    data = json.loads((GOLDEN / name).read_text())
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


@pytest.fixture
def shared_fuzz(monkeypatch, fuzz_search):
    """``repro fuzz`` answered from the session's shared searches."""
    import repro.fuzz.machine

    monkeypatch.setattr(repro.fuzz.machine, "run_fuzz", fuzz_search)


class TestCli:
    def test_platforms_listing(self, capsys):
        assert main(["platforms"]) == 0
        out = capsys.readouterr().out
        assert "x-container" in out
        assert "gvisor" in out

    def test_tcb_table(self, capsys):
        assert main(["tcb"]) == 0
        out = capsys.readouterr().out
        assert "x-container" in out
        assert "surface vs docker" in out

    def test_abom_demo_shows_patched_call(self, capsys):
        assert main(["abom-demo", "--iterations", "2"]) == 0
        out = capsys.readouterr().out
        assert "callq  *0xffffffffff600008" in out
        assert "before:" in out and "after ABOM:" in out

    def test_experiments_single_id(self, capsys):
        assert main(["experiments", "spawn"]) == 0
        out = capsys.readouterr().out
        assert "Section 4.5" in out

    def test_unknown_experiment_errors(self):
        with pytest.raises(KeyError):
            main(["experiments", "fig99"])

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestAnalyzeCommand:
    def test_default_run_is_safe_and_exits_zero(self, capsys):
        assert main(["analyze"]) == 0
        out = capsys.readouterr().out
        # Per-site classification and safety verdicts are reported.
        assert "mov_eax_imm" in out
        assert "SAFE" in out
        assert "static model and online ABOM agree" in out
        assert "0 unsafe" in out

    def test_unsafe_example_exits_nonzero(self, capsys):
        assert main(["analyze", "interior_jump"]) == 1
        out = capsys.readouterr().out
        assert "UNSAFE" in out
        assert "interior-target" in out
        assert "1 unsafe" in out

    def test_tail_jump_reports_fixup_not_unsafe(self, capsys):
        assert main(["analyze", "tail_jump"]) == 0
        out = capsys.readouterr().out
        assert "needs #UD fixup" in out

    def test_no_differential_flag(self, capsys):
        assert main(["analyze", "figure2", "--no-differential"]) == 0
        out = capsys.readouterr().out
        assert "differential" not in out

    def test_list_examples(self, capsys):
        assert main(["analyze", "--list"]) == 0
        out = capsys.readouterr().out
        assert "figure2" in out
        assert "[unsafe demo]" in out

    def test_unknown_example_errors(self):
        with pytest.raises(SystemExit, match="unknown example"):
            main(["analyze", "nonesuch"])


class TestChaosCommand:
    def test_full_catalog_recovers_and_exits_zero(self, capsys):
        assert main(["chaos", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "ALL RECOVERED" in out
        assert "core substrate coverage: complete" in out

    def test_output_is_byte_identical_for_same_seed(self, capsys):
        main(["chaos", "--seed", "11"])
        first = capsys.readouterr().out
        main(["chaos", "--seed", "11"])
        assert capsys.readouterr().out == first

    def test_single_scenario_run(self, capsys):
        assert main(["chaos", "nginx-packet-loss", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "nginx-packet-loss" in out
        assert "backend-death-memcached" not in out

    def test_list_scenarios(self, capsys):
        assert main(["chaos", "--list"]) == 0
        out = capsys.readouterr().out
        assert "backend-death-memcached" in out
        assert "abom-cmpxchg-contention" in out

    def test_list_is_sorted_by_name(self, capsys):
        assert main(["chaos", "--list"]) == 0
        names = [
            line.split()[0]
            for line in capsys.readouterr().out.splitlines()
            if line.strip()
        ]
        assert names == sorted(names)

    def test_unknown_scenario_errors(self):
        with pytest.raises(SystemExit, match="unknown scenario"):
            main(["chaos", "nonesuch"])

    def test_unknown_scenario_error_lists_names_sorted(self):
        with pytest.raises(SystemExit) as caught:
            main(["chaos", "nonesuch"])
        message = str(caught.value)
        listed = message.split("known: ")[1].split(", ")
        assert listed == sorted(listed)
        assert "fuzz-notify-drop-burst" in listed

    def test_replay_of_serialized_steps(self, tmp_path, capsys):
        from repro.fuzz.steps import dumps, step

        path = tmp_path / "steps.json"
        path.write_text(
            dumps(
                (
                    step("spawn", memory_mb=64, lightvm=True),
                    step("net_burst", count=2, size=10, batched=False),
                ),
                world_seed=4,
            )
        )
        assert main(["chaos", "--replay", str(path)]) == 0
        out = capsys.readouterr().out
        assert "fuzz world seed=4 steps=2" in out
        assert "outcome: clean" in out

    def test_replay_is_byte_identical(self, tmp_path, capsys):
        from repro.fuzz.steps import dumps, step

        path = tmp_path / "steps.json"
        path.write_text(
            dumps((step("remus_epoch", dirty_pages=5, packets=1),))
        )
        main(["chaos", "--replay", str(path)])
        first = capsys.readouterr().out
        main(["chaos", "--replay", str(path)])
        assert capsys.readouterr().out == first

    def test_replay_rejects_malformed_file(self, tmp_path):
        path = tmp_path / "steps.json"
        path.write_text('{"version": 99, "steps": []}')
        with pytest.raises(ValueError, match="version"):
            main(["chaos", "--replay", str(path)])

    def test_json_format_names_the_selected_scenario(self, capsys):
        assert main(
            ["chaos", "nginx-packet-loss", "--seed", "3",
             "--format", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["all_recovered"] is True
        assert payload["scenarios"][0]["name"] == "nginx-packet-loss"


class TestFuzzCommand:
    def test_clean_bounded_run_exits_zero(self, capsys):
        assert main(
            ["fuzz", "--seed", "0", "--max-examples", "3", "--steps", "10"]
        ) == 0
        out = capsys.readouterr().out
        assert "result: clean" in out
        assert "rule kinds: 14" in out

    def test_json_format(self, capsys):
        assert main(
            ["fuzz", "--seed", "0", "--max-examples", "2", "--steps", "8",
             "--format", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["rules"] >= 8
        assert payload["invariants"] >= 5

    def test_seeded_defect_is_found_and_exits_one(self, shared_fuzz, capsys):
        assert main(
            ["fuzz", "--seed", "7", "--max-examples", "15", "--steps", "15",
             "--defect", "blk-lost-write"]
        ) == 1
        out = capsys.readouterr().out
        assert "FAILED" in out
        assert "replay byte-identical" in out
        assert '"op": "blk_burst"' in out

    def test_fuzz_steps_feed_chaos_replay(
        self, shared_fuzz, tmp_path, capsys
    ):
        assert main(
            ["fuzz", "--seed", "7", "--max-examples", "15", "--steps", "15",
             "--defect", "blk-lost-write", "--format", "json"]
        ) == 1
        payload = json.loads(capsys.readouterr().out)
        path = tmp_path / "steps.json"
        path.write_text(payload["steps_json"])
        # Honest stack (no defect hook): the sequence replays clean.
        assert main(["chaos", "--replay", str(path)]) == 0

    def test_exit_codes_mention_fuzz(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        assert "fuzz: no invariant violation found" in out


class TestCountArguments:
    """Counts that must be positive are argparse usage errors (exit 2),
    never a traceback, a budget spin or a silent fallback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["fuzz", "--max-examples", "0"],
            ["fuzz", "--steps", "-1"],
            ["metrics", "--requests", "0"],
            ["trace", "--requests", "0"],
            ["abom-demo", "--iterations", "0"],
            ["abom-demo", "--iterations", "-2"],
            ["serve", "--workers", "0"],
            ["serve", "--workers", "-3"],
        ],
    )
    def test_non_positive_count_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, dest, value",
        [
            (["fuzz", "--max-examples", "1"], "max_examples", 1),
            (["fuzz", "--steps", "3"], "steps", 3),
            (["metrics", "--requests", "1"], "requests", 1),
            (["trace", "--requests", "2"], "requests", 2),
            (["abom-demo", "--iterations", "1"], "iterations", 1),
            (["serve", "--workers", "1"], "workers", 1),
        ],
    )
    def test_positive_count_is_accepted(self, argv, dest, value):
        assert getattr(build_parser().parse_args(argv), dest) == value


class TestSharedOutputSurface:
    """--format/--output behave identically on all four subcommands."""

    def test_exit_codes_documented_in_help(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        assert "exit codes:" in out
        assert "usage error" in out

    def test_analyze_json_format(self, capsys):
        assert main(["analyze", "figure2", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["unsafe"] == 0
        assert payload["reports"][0]["has_unsafe"] is False
        assert payload["reports"][0]["sites"]

    def test_output_writes_file_instead_of_stdout(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        assert main(
            ["chaos", "nginx-packet-loss", "--format", "json",
             "--output", str(path)]
        ) == 0
        assert capsys.readouterr().out == ""
        assert json.loads(path.read_text())["all_recovered"] is True

    def test_every_subcommand_accepts_the_shared_flags(self):
        parser = build_parser()
        for command in ("analyze", "chaos", "fuzz", "metrics", "trace"):
            args = parser.parse_args([command, "--format", "json"])
            assert args.format == "json"
            assert args.output is None


class TestGoldenOutputs:
    """Reports whose bytes pin every probe subscriber: the chaos and
    analyze reports read flat ``Tracer`` events (the abom-contention
    fault-event check, the online-vs-offline ABOM differential); the
    sanitize reports pin every sanitizer event count (event sends and
    drops, ring consumes, grant maps, race edges) and that each seeded
    fixture still fires; the replays pin the fuzz world's fault and
    sanitizer wiring."""

    def test_chaos_seed0_json_is_byte_identical(self, capsys):
        assert main(["chaos", "--seed", "0", "--format", "json"]) == 0
        out = capsys.readouterr().out
        assert out == golden("chaos_seed0.json")

    def test_analyze_json_is_byte_identical(self, capsys):
        assert main(["analyze", "--format", "json"]) == 0
        out = capsys.readouterr().out
        assert out == golden("analyze.json")

    def test_sanitize_seed0_json_is_byte_identical(self, capsys):
        assert main(["sanitize", "--seed", "0", "--format", "json"]) == 0
        out = capsys.readouterr().out
        assert out == golden("sanitize_seed0.json")

    def test_sanitize_fixtures_json_is_byte_identical(self, capsys):
        assert main(["sanitize", "fixtures", "--format", "json"]) == 0
        out = capsys.readouterr().out
        assert out == golden("sanitize_fixtures.json")

    @pytest.mark.parametrize("name", ["blk_lost_write", "fleet_skew"])
    def test_regression_replay_is_byte_identical(self, name, capsys):
        path = REGRESSIONS / f"{name}.json"
        assert main(["chaos", "--replay", str(path)]) == 0
        out = capsys.readouterr().out
        assert out == (GOLDEN / f"replay_{name}.txt").read_text()


class TestMetricsCommand:
    def test_table_lists_unified_metrics(self, capsys):
        assert main(["metrics"]) == 0
        out = capsys.readouterr().out
        assert "arch_icache_hits_total{cpu=0,domain=demo}" in out
        assert "xen_ring_batches_total{domain=demo,driver=net0}" in out
        assert "faults_injected_total" in out

    def test_json_snapshot(self, capsys):
        assert main(["metrics", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["spans"]["finished"] > 0
        assert (
            payload["histograms"]
            ["net_http_request_latency_ns{component=http,domain=demo}"]
            ["count"] == 8
        )

    def test_prometheus_exposition(self, capsys):
        assert main(["metrics", "--prometheus"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE arch_icache_hits_total counter" in out
        assert "net_http_request_latency_ns_bucket" in out

    def test_same_seed_is_byte_identical(self, capsys):
        main(["metrics", "--format", "json", "--seed", "9"])
        first = capsys.readouterr().out
        main(["metrics", "--format", "json", "--seed", "9"])
        assert capsys.readouterr().out == first


class TestTraceCommand:
    def test_table_shows_span_tree(self, capsys):
        assert main(["trace"]) == 0
        out = capsys.readouterr().out
        assert "demo.syscall_bench" in out
        assert "netfront.tx" in out
        assert "http.request" in out

    def test_json_is_chrome_trace_format(self, capsys):
        assert main(["trace", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["traceEvents"]
        assert all(e["ph"] == "X" for e in payload["traceEvents"])

    def test_limit_bounds_the_table(self, capsys):
        assert main(["trace", "--limit", "2"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 3  # header + 2 spans

    def test_limit_zero_prints_only_the_header(self, capsys):
        assert main(["trace", "--limit", "0"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 1 and out[0].split()[0] == "id"

    def test_negative_limit_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["trace", "--limit", "-2"])
        assert exc.value.code == 2
        assert "--limit" in capsys.readouterr().err


class TestServeCommand:
    def test_list_scenarios(self, capsys):
        assert main(["serve", "--list"]) == 0
        out = capsys.readouterr().out
        assert "ci-small" in out
        assert "fleet-100" in out
        assert "fleet-nat" in out

    def test_default_scenario_passes_slo(self, capsys):
        assert main(["serve"]) == 0
        out = capsys.readouterr().out
        assert "serve report — scenario=ci-small seed=0" in out
        assert "PASS" in out
        assert "conservation=ok" in out

    def test_unknown_scenario_errors(self):
        with pytest.raises(SystemExit, match="unknown serve scenario"):
            main(["serve", "fleet-9000"])

    def test_json_format(self, capsys):
        assert main(["serve", "ci-small", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scenario"] == "ci-small"
        assert payload["slo"]["ok"] is True
        assert payload["ipvs"]["conservation_ok"] is True
        assert len(payload["intervals"]) == 12

    def test_prometheus_export_has_latency_histogram(self, capsys):
        assert main(["serve", "ci-small", "--prometheus"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE serve_request_latency_ns histogram" in out
        assert (
            'serve_request_latency_ns_bucket{scenario="ci-small",'
            'le="+Inf"}' in out
        )
        assert "serve_requests_total" in out
        assert "serve_ipvs_backend_deaths_total" in out

    def test_same_seed_is_byte_identical(self, capsys):
        main(["serve", "ci-small", "--seed", "3", "--format", "json"])
        first = capsys.readouterr().out
        main(["serve", "ci-small", "--seed", "3", "--format", "json"])
        assert capsys.readouterr().out == first
