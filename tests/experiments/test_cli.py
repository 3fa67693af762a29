"""Tests for the repro-experiments command-line interface."""

from dataclasses import replace

import pytest

from repro.experiments.cli import build_parser, main, resolve_run
from repro.experiments.figures import FIGURES, FINDINGS, FigureBuilder
from repro.experiments.runner import DEFAULT_RUN, QUICK_RUN


class TestParser:
    def test_figure_choices(self):
        parser = build_parser()
        args = parser.parse_args(["--figure", "8"])
        assert args.figure == 8

    def test_figure_all(self):
        assert build_parser().parse_args(["--figure", "all"]).figure == "all"

    def test_figure_out_of_range_rejected(self):
        parser = build_parser()
        for value in ("2", "22", "every"):
            with pytest.raises(SystemExit):
                parser.parse_args(["--figure", value])

    def test_figure_accepts_finding_names(self):
        parser = build_parser()
        for name in FINDINGS:
            assert parser.parse_args(["--figure", name]).figure == name

    def test_unknown_finding_exits_2_listing_the_names(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--figure", "no_such_finding"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "no_such_finding" in err
        for name in FINDINGS:
            assert name in err

    def test_finding_rejects_sweep_flags(self, capsys):
        for flags in (
            ["--mpl", "5"], ["--algorithm", "blocking"], ["--trace"],
            ["--timeseries", "2"], ["--csv", "out.csv"],
        ):
            with pytest.raises(SystemExit) as exit_info:
                main(["--figure", "victim_policy", *flags])
            assert exit_info.value.code == 2
            err = capsys.readouterr().err
            assert f"{flags[0]} applies to figure sweeps" in err

    def test_experiment_and_figure_mutually_exclusive(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(
                ["--figure", "8", "--experiment", "exp3_finite"]
            )

    def test_repeatable_mpl_and_algorithm(self):
        args = build_parser().parse_args(
            ["--all", "--mpl", "5", "--mpl", "25",
             "--algorithm", "blocking"]
        )
        assert args.mpls == [5, 25]
        assert args.algorithms == ["blocking"]


class TestResolveRun:
    def test_default(self):
        args = build_parser().parse_args(["--all"])
        assert resolve_run(args) == DEFAULT_RUN

    def test_quick(self):
        args = build_parser().parse_args(["--all", "--quick"])
        assert resolve_run(args) == QUICK_RUN

    def test_no_run_flag_keeps_the_default(self):
        # --figure passes None: each figure then runs at its pinned run.
        parse = build_parser().parse_args
        assert resolve_run(parse(["--figure", "8"]), default=None) is None
        assert resolve_run(
            parse(["--figure", "8", "--seed", "42"]), default=None
        ) == DEFAULT_RUN.with_changes(seed=42)
        assert resolve_run(
            parse(["--figure", "8", "--quick"]), default=None
        ) == QUICK_RUN

    def test_overrides(self):
        args = build_parser().parse_args(
            ["--all", "--batches", "9", "--batch-time", "7.5",
             "--warmup-batches", "2", "--seed", "123"]
        )
        run = resolve_run(args)
        assert run.batches == 9
        assert run.batch_time == 7.5
        assert run.warmup_batches == 2
        assert run.seed == 123


class TestMain:
    def test_no_arguments_prints_help(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().out

    def test_figure_run_prints_report(self, capsys):
        code = main([
            "--figure", "8",
            "--batches", "1", "--batch-time", "3", "--warmup-batches", "0",
            "--mpl", "5",
            "--algorithm", "blocking",
            "--no-plots",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 8" in out
        assert "blocking" in out

    def test_unpinned_figure_run_is_not_checked(self, capsys):
        code = main([
            "--figure", "8", "--quick", "--mpl", "5",
            "--algorithm", "blocking",
        ])
        assert code == 0
        err = capsys.readouterr().err
        assert (
            "figure 8: claim not checked: not the pinned reproduction" in err
        )

    @pytest.mark.parametrize("claim, code, verdict", [
        (lambda data, builder: [], 0, "figure 8: claim holds; all 1 points"),
        (lambda data, builder: ["Figure 8: forced"], 1,
         "FAILED Figure 8: forced"),
    ])
    def test_pinned_figure_run_reports_its_verdict(
        self, capsys, monkeypatch, claim, code, verdict
    ):
        # Stand in a tiny grid for the pinned one: the verdict and the
        # exit status are what is under test, not the paper's numbers.
        monkeypatch.setattr(FigureBuilder, "pinned", property(lambda _: True))
        monkeypatch.setitem(FIGURES, 8, replace(FIGURES[8], claim=claim))
        assert main([
            "--figure", "8", "--quick", "--mpl", "5",
            "--algorithm", "blocking",
        ]) == code
        captured = capsys.readouterr()
        assert verdict in captured.err
        assert "claim not checked" not in captured.err
        assert captured.out.startswith("=" * 72)

    def test_finding_checkpoint_is_one_sweep_file(self, capsys, tmp_path):
        directory = str(tmp_path / "ckpt")
        args = [
            "--figure", "upgrade_policy", "--checkpoint", directory,
            "--batches", "1", "--batch-time", "3", "--warmup-batches", "0",
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        path = f"{directory}/upgrade_policy.ckpt.jsonl"
        assert main(["--verify-checkpoint", path]) == 0
        assert "valid points:  2" in capsys.readouterr().out
        assert main([*args, "--resume"]) == 0
        captured = capsys.readouterr()
        assert captured.out == first
        assert "upgrade_policy: resumed 2 point(s)" in captured.err

    def test_finding_arm_past_its_deadline_exits_1(self, capsys):
        assert main([
            "--figure", "upgrade_policy", "--deadline", "1e-9",
            "--batches", "1", "--batch-time", "3", "--warmup-batches", "0",
        ]) == 1
        captured = capsys.readouterr()
        assert "upgrade [blocking] failed after 1 attempt(s)" in captured.err

    def test_unpinned_finding_run_is_not_checked(self, capsys):
        code = main([
            "--figure", "upgrade_policy",
            "--batches", "1", "--batch-time", "3", "--warmup-batches", "0",
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert "Finding upgrade_policy: " in captured.out
        assert (
            "upgrade_policy: claim not checked: not the pinned reproduction"
            in captured.err
        )

    @pytest.mark.parametrize("claim, code, verdict", [
        (lambda data: [], 0,
         "upgrade_policy: claim holds; all 2 arms within the operational "
         "bounds"),
        (lambda data: ["upgrade_policy: forced"], 1,
         "FAILED upgrade_policy: forced"),
    ])
    def test_pinned_finding_run_reports_its_verdict(
        self, capsys, monkeypatch, claim, code, verdict
    ):
        # A tiny pinned run stands in for the real one: the verdict and
        # the exit status are under test, not the finding's numbers.
        monkeypatch.setitem(FINDINGS, "upgrade_policy", replace(
            FINDINGS["upgrade_policy"], claim=claim,
            run=QUICK_RUN.with_changes(
                batches=2, batch_time=3.0, warmup_batches=0
            ),
        ))
        assert main(["--figure", "upgrade_policy"]) == code
        captured = capsys.readouterr()
        assert verdict in captured.err
        assert captured.out.startswith("=" * 72)

    def test_experiment_run(self, capsys):
        code = main([
            "--experiment", "exp3_finite",
            "--batches", "1", "--batch-time", "3", "--warmup-batches", "0",
            "--mpl", "5",
            "--algorithm", "blocking",
            "--no-plots",
        ])
        assert code == 0
        assert "Resource-Limited" in capsys.readouterr().out

    def test_csv_export(self, capsys, tmp_path):
        import csv

        path = tmp_path / "out.csv"
        code = main([
            "--figure", "8",
            "--batches", "1", "--batch-time", "3", "--warmup-batches", "0",
            "--mpl", "5",
            "--algorithm", "blocking",
            "--no-plots",
            "--csv", str(path),
        ])
        assert code == 0
        rows = list(csv.DictReader(path.open()))
        assert rows
        assert rows[0]["experiment"] == "exp3_finite"
        assert any(row["metric"] == "throughput" for row in rows)


class TestObservabilityFlags:
    def test_defaults_are_off(self):
        args = build_parser().parse_args(["--all"])
        assert args.trace is False
        assert args.trace_out is None
        assert args.trace_kinds is None
        assert args.timeseries is None
        assert args.timeseries_csv is None

    def test_flags_parsed(self):
        args = build_parser().parse_args([
            "--all", "--trace", "--trace-out", "tr",
            "--trace-kinds", "submit,commit",
            "--timeseries", "2.5", "--timeseries-csv", "ts.csv",
        ])
        assert args.trace is True
        assert args.trace_out == "tr"
        assert args.trace_kinds == "submit,commit"
        assert args.timeseries == 2.5
        assert args.timeseries_csv == "ts.csv"

    def test_trace_option_builds_point_trace(self):
        from repro.experiments.cli import _trace_option

        args = build_parser().parse_args([
            "--all", "--trace", "--trace-out", "tr",
            "--trace-kinds", "submit, commit ,",
        ])
        trace = _trace_option(args)
        assert trace.directory == "tr"
        assert trace.kinds == ("submit", "commit")
        # Without --trace there is no trace option at all.
        assert _trace_option(build_parser().parse_args(["--all"])) is None

    def test_trace_out_requires_trace(self):
        with pytest.raises(SystemExit):
            main(["--all", "--trace-out", "tr"])

    def test_trace_kinds_requires_trace(self):
        with pytest.raises(SystemExit):
            main(["--all", "--trace-kinds", "commit"])

    def test_unknown_trace_kind_rejected(self, capsys):
        # Regression: a typo like "comit" used to pass through silently
        # and produce an empty trace; now it is a usage error that
        # names the valid kinds.
        with pytest.raises(SystemExit):
            main(["--all", "--trace", "--trace-kinds", "submit,comit"])
        err = capsys.readouterr().err
        assert "comit" in err
        assert "commit" in err  # the valid-kind list is shown

    def test_known_trace_kinds_accepted_by_validation(self):
        from repro.experiments.cli import _parse_trace_kinds
        from repro.obs.events import ALL_KINDS

        kinds = _parse_trace_kinds("submit,block,restart,commit")
        assert kinds is not None
        for kind in kinds:
            assert kind in ALL_KINDS

    def test_nonpositive_timeseries_rejected(self):
        with pytest.raises(SystemExit):
            main(["--all", "--timeseries", "0"])

    def test_timeseries_csv_requires_timeseries(self):
        with pytest.raises(SystemExit):
            main(["--all", "--timeseries-csv", "ts.csv"])

    def test_single_unknown_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            main(["--single", "no_such_algorithm"])

    def test_single_excludes_experiment_selection(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--single", "blocking", "--all"])


class TestRegistryNameValidation:
    def test_inject_typo_gets_did_you_mean(self, capsys):
        # Regression: --inject used argparse choices, whose error is a
        # bare list; now a typo suggests the closest scenario name.
        with pytest.raises(SystemExit):
            main(["--all", "--inject", "disk_strom"])
        err = capsys.readouterr().err
        assert "disk_strom" in err
        assert "did you mean 'disk_storm'?" in err
        assert "disk_crash" in err  # full choice list still shown

    def test_inject_valid_name_accepted_by_parser(self):
        args = build_parser().parse_args(["--all", "--inject", "disk_storm"])
        assert args.inject == "disk_storm"

    def test_resource_model_typo_gets_did_you_mean(self, capsys):
        with pytest.raises(SystemExit):
            main(["--all", "--resource-model", "bufered"])
        err = capsys.readouterr().err
        assert "did you mean 'buffered'?" in err
        assert "classic" in err

    def test_resource_model_hopeless_typo_lists_choices(self, capsys):
        with pytest.raises(SystemExit):
            main(["--all", "--resource-model", "zzz"])
        err = capsys.readouterr().err
        assert "did you mean" not in err
        assert "classic" in err and "skewed_disks" in err

    def test_resource_model_defaults_to_none(self):
        assert build_parser().parse_args(["--all"]).resource_model is None

    def test_figure_run_with_buffered_overlay(self, capsys):
        code = main([
            "--figure", "8",
            "--batches", "1", "--batch-time", "3", "--warmup-batches", "0",
            "--mpl", "5",
            "--algorithm", "blocking",
            "--no-plots",
            "--resource-model", "buffered",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "[resource model: buffered" in out
        assert "Buffer pool" in out
        assert "hit ratio" in out

    def test_single_run_with_resource_model(self, capsys):
        code = main([
            "--single", "blocking", "--mpl", "5",
            "--batches", "1", "--batch-time", "3", "--warmup-batches", "0",
            "--resource-model", "buffered",
        ])
        assert code == 0
        assert "whole run: commits=" in capsys.readouterr().out


class TestSingleRun:
    def test_single_run_with_observability(self, capsys, tmp_path):
        import csv

        trace_dir = tmp_path / "traces"
        ts_csv = tmp_path / "ts.csv"
        code = main([
            "--single", "blocking", "--mpl", "5",
            "--batches", "1", "--batch-time", "3", "--warmup-batches", "0",
            "--trace", "--trace-out", str(trace_dir),
            "--trace-kinds", "submit,restart,commit",
            "--timeseries", "1", "--timeseries-csv", str(ts_csv),
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert "blocking" in captured.out
        assert "whole run: commits=" in captured.out
        assert "[trace:" in captured.err
        assert "[timeseries:" in captured.err

        trace_path = trace_dir / "single.blocking.mpl005.jsonl"
        assert trace_path.exists()
        from repro.obs import read_jsonl

        events = read_jsonl(str(trace_path))
        assert events
        assert {e["kind"] for e in events} <= {"submit", "restart", "commit"}

        rows = list(csv.DictReader(ts_csv.open()))
        assert rows
        assert rows[0]["time"] == "0.0"
        assert "active" in rows[0] and "commits" in rows[0]


    def test_single_timeseries_csv_carries_the_point_columns(
            self, capsys, tmp_path):
        import csv

        from repro.experiments.export import TIMESERIES_COLUMNS

        ts_csv = tmp_path / "ts.csv"
        code = main([
            "--single", "optimistic", "--mpl", "7",
            "--batches", "1", "--batch-time", "3", "--warmup-batches", "0",
            "--timeseries", "1", "--timeseries-csv", str(ts_csv),
        ])
        assert code == 0
        rows = list(csv.DictReader(ts_csv.open()))
        assert rows
        assert list(rows[0]) == list(TIMESERIES_COLUMNS)
        assert {(r["experiment"], r["algorithm"], r["mpl"])
                for r in rows} == {("single", "optimistic", "7")}
        assert f"[wrote {len(rows)} time-series rows to" in (
            capsys.readouterr().err
        )

    def test_single_unfiltered_trace_lines_carry_the_layout(self, tmp_path):
        from repro.obs import read_jsonl

        trace_dir = tmp_path / "traces"
        code = main([
            "--single", "blocking", "--mpl", "5",
            "--batches", "1", "--batch-time", "3", "--warmup-batches", "0",
            "--trace", "--trace-out", str(trace_dir),
        ])
        assert code == 0
        events = read_jsonl(str(trace_dir / "single.blocking.mpl005.jsonl"))
        commits = [e for e in events if e["kind"] == "commit"]
        assert commits
        for event in commits:
            assert event["attempt"] >= 1
            assert event["response"] > 0.0
        assert "cc_grant" in {e["kind"] for e in events}


    def test_single_applies_deadline_and_retries(self, capsys, tmp_path):
        csv_path = tmp_path / "single.csv"
        code = main([
            "--single", "blocking", "--mpl", "5", "--quick",
            "--deadline", "0.000001", "--retries", "1",
            "--csv", str(csv_path),
        ])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "failed after 2 attempt(s) (PointDeadlineExceeded" in (
            captured.err
        )
        assert csv_path.read_text().count("\n") == 1  # header only

    def test_single_writes_its_csv_row(self, tmp_path):
        import csv

        csv_path = tmp_path / "single.csv"
        code = main([
            "--single", "blocking", "--mpl", "5",
            "--batches", "1", "--batch-time", "3", "--warmup-batches", "0",
            "--csv", str(csv_path),
        ])
        assert code == 0
        rows = list(csv.DictReader(csv_path.open()))
        assert [
            (r["experiment"], r["algorithm"], r["mpl"], r["metric"],
             r["batches"])
            for r in rows
        ] == [("single", "blocking", "5", "throughput", "1")]

    @pytest.mark.parametrize("flags", [
        ["--algorithm", "optimistic"],
        ["--mpl", "5", "--mpl", "10"],
        ["--replications", "2"],
        ["--invariants", "spot"],
    ])
    def test_single_refuses_what_a_point_cannot_take(self, flags, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--single", "blocking", *flags])
        assert exit_info.value.code == 2
        assert "--single" in capsys.readouterr().err


class TestFigureObservability:
    def test_figure_run_writes_traces_and_timeseries(self, capsys, tmp_path):
        import csv

        trace_dir = tmp_path / "traces"
        ts_csv = tmp_path / "ts.csv"
        code = main([
            "--figure", "8",
            "--batches", "1", "--batch-time", "3", "--warmup-batches", "0",
            "--mpl", "5",
            "--algorithm", "blocking",
            "--no-plots",
            "--trace", "--trace-out", str(trace_dir),
            "--timeseries", "1", "--timeseries-csv", str(ts_csv),
        ])
        assert code == 0
        traces = sorted(p.name for p in trace_dir.iterdir())
        assert traces == ["exp3_finite.blocking.mpl005.jsonl"]

        rows = list(csv.DictReader(ts_csv.open()))
        assert rows
        assert rows[0]["experiment"] == "exp3_finite"
        assert rows[0]["algorithm"] == "blocking"
        assert rows[0]["mpl"] == "5"

        # The conflict-ratio diagnostics table rides along in every
        # sweep report.
        assert "blocks/commit" in capsys.readouterr().out
    def test_default_is_sequential(self):
        args = build_parser().parse_args(["--all"])
        assert args.workers == 1

    def test_workers_parsed(self):
        args = build_parser().parse_args(["--all", "--workers", "4"])
        assert args.workers == 4

    def test_zero_means_all_cores(self):
        # 0 is accepted by the parser; run_sweep expands it.
        args = build_parser().parse_args(["--all", "--workers", "0"])
        assert args.workers == 0

    def test_negative_workers_rejected(self):
        with pytest.raises(SystemExit):
            main(["--all", "--workers", "-2"])


class TestBackendFlags:
    """--replications / --invariants spot wiring (one sweep lane)."""

    def test_defaults(self):
        args = build_parser().parse_args(["--all"])
        assert args.replications == 1
        assert not hasattr(args, "backend")

    def test_replications_must_be_positive(self):
        with pytest.raises(SystemExit):
            main(["--all", "--replications", "0"])

    def test_negative_retries_rejected(self):
        with pytest.raises(SystemExit):
            main(["--all", "--retries", "-1"])

    def test_single_refuses_spot_invariants(self):
        with pytest.raises(SystemExit):
            main(["--single", "blocking", "--invariants", "spot"])

    def test_batched_replicated_sweep_runs(self, capsys, tmp_path):
        # Replications, worker fan-out, spot invariants and per-point
        # traces all combine on the one lane.
        code = main([
            "--figure", "8",
            "--batches", "1", "--batch-time", "3", "--warmup-batches", "0",
            "--mpl", "5", "--mpl", "10",
            "--algorithm", "blocking",
            "--replications", "2", "--workers", "2",
            "--invariants", "spot",
            "--trace", "--trace-out", str(tmp_path),
            "--no-plots",
        ])
        assert code == 0
        assert "Figure 8" in capsys.readouterr().out
        assert len(list(tmp_path.glob("*.jsonl"))) == 2


class TestSurrogateCommands:
    """The analytic-surrogate ``calibrate``/``explore`` commands."""

    def test_calibrate_parses(self):
        args = build_parser().parse_args(["calibrate", "--quick"])
        assert args.command == "calibrate"

    def test_explore_parses_with_options(self):
        args = build_parser().parse_args([
            "explore", "--space", "smoke", "--spot-checks", "3",
            "--uncertainty-threshold", "0.5",
        ])
        assert args.command == "explore"
        assert args.space == "smoke"
        assert args.spot_checks == 3
        assert args.uncertainty_threshold == 0.5

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["calibrat"])

    def test_command_excludes_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["calibrate", "--experiment", "exp3_finite"]
            )

    def test_command_excludes_figure(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["explore", "--figure", "8"])

    def test_surrogate_flags_require_command(self):
        with pytest.raises(SystemExit):
            main(["--all", "--out", "report.json"])
        with pytest.raises(SystemExit):
            main(["--figure", "8", "--spot-checks", "1"])

    def test_no_fit_is_calibrate_only(self):
        with pytest.raises(SystemExit):
            main(["explore", "--no-fit"])

    def test_explore_flags_are_explore_only(self):
        with pytest.raises(SystemExit):
            main(["calibrate", "--space", "smoke"])
        with pytest.raises(SystemExit):
            main(["calibrate", "--spot-checks", "1"])

    def test_threshold_must_be_positive(self):
        with pytest.raises(SystemExit):
            main(["explore", "--uncertainty-threshold", "0"])

    def test_spot_checks_must_be_non_negative(self):
        with pytest.raises(SystemExit):
            main(["explore", "--spot-checks", "-1"])

    def test_explore_smoke_runs(self, capsys, tmp_path):
        out = tmp_path / "exploration.json"
        code = main(["explore", "--space", "smoke", "--out", str(out)])
        assert code == 0
        assert out.exists()
        captured = capsys.readouterr().out
        assert "explored" in captured
        assert "flagged" in captured
