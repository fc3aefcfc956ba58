"""CLI tests (driving main() directly, checking stdout)."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_commands_registered(self):
        parser = build_parser()
        for command in (
            "fig2a",
            "fig2b",
            "fig2c",
            "recognise",
            "generate",
            "lint",
            "profile",
        ):
            assert parser.parse_args([command]).command == command


class TestSizesAndCountsMustBePositive:
    """Through ``main`` and not a subprocess with a timeout: the first two
    used to spin forever (a query time advancing by 0; a batch that never
    fills), the others ended in a traceback or were silently accepted."""

    @pytest.mark.parametrize(
        "argv, option",
        [
            (["profile", "--session", "--step", "0"], "--step"),
            (["replay", "--gold", "fleet", "--batch-size", "0"], "--batch-size"),
            (["recognise", "--window", "0"], "--window"),
            (["recognise", "--window", "-3"], "--window"),
            (["replay", "--workers", "0"], "--workers"),
            (["serve", "--workers", "-1"], "--workers"),
            (["profile", "--window", "0"], "--window"),
            (["profile", "--session", "--step", "-5"], "--step"),
            (["replay", "--repeat", "0"], "--repeat"),
            (["replay", "--step", "0"], "--step"),
            (["replay", "--window", "0"], "--window"),
            (["replay", "--sessions", "0"], "--sessions"),
            (["replay", "--limit", "0"], "--limit"),
            (["serve", "--sessions", "0"], "--sessions"),
            (["fig2c", "--window", "x"], "--window"),
            (["replay", "--repeat", "-2"], "--repeat"),
            # every event was rejected and retried forever
            (["replay", "--gold", "fleet", "--limit", "200", "--high-water", "0"], "--high-water"),
            (["serve", "--high-water", "-1"], "--high-water"),
            (["replay", "--checkpoint-every", "-1"], "--checkpoint-every"),
            (["serve", "--checkpoint-every", "-1"], "--checkpoint-every"),
            (["replay", "--kill-at", "1.5"], "--kill-at"),
            (["replay", "--kill-at", "-0.5"], "--kill-at"),
            (["replay", "--kill-at", "nan"], "--kill-at"),
        ],
    )
    def test_usage_error_names_the_argument(self, argv, option, capsys):
        with pytest.raises(SystemExit) as raised:
            main(argv)
        assert raised.value.code == 2
        assert "argument %s: expected a " % option in capsys.readouterr().err

    def test_zero_is_a_checkpoint_cadence_and_the_ends_are_kill_points(self):
        args = build_parser().parse_args(
            ["replay", "--checkpoint-every", "0", "--kill-at", "1"]
        )
        assert (args.checkpoint_every, args.kill_at) == (0, 1.0)
        assert build_parser().parse_args(["replay", "--kill-at", "0"]).kill_at == 0.0

    def test_the_optimiser_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as raised:
            main(["recognise", "--optimise"])
        assert raised.value.code == 2
        assert "unrecognized arguments: --optimise" in capsys.readouterr().err

    def test_the_checkpoint_keep_flag_is_gone(self, capsys):
        # Every session keeps its newest two checkpoint files; nothing to set.
        for command in ("serve", "replay"):
            with pytest.raises(SystemExit) as raised:
                main([command, "--checkpoint-keep", "3"])
            assert raised.value.code == 2
            assert "unrecognized arguments: --checkpoint-keep 3" in capsys.readouterr().err

    def test_the_certify_flag_is_gone(self, capsys):
        # Both golds certify clean: the setting only changed status fields.
        for command in ("serve", "replay"):
            with pytest.raises(SystemExit) as raised:
                main([command, "--certify", "off"])
            assert raised.value.code == 2
            assert "unrecognized arguments: --certify off" in capsys.readouterr().err

    def test_the_jobs_flag_is_gone(self, capsys):
        for command in ("recognise", "profile"):
            with pytest.raises(SystemExit) as raised:
                main([command, "--jobs", "4"])
            assert raised.value.code == 2
            assert "unrecognized arguments: --jobs 4" in capsys.readouterr().err


class TestDatasetArgumentsAreValidated:
    """A dataset scale is a finite positive number and vessel traffic and a
    repair budget are non-negative counts, on every command that takes
    them: nan and inf used to end in a traceback, the rest in a silently
    clamped dataset or a budget exhausted after no iteration."""

    @pytest.mark.parametrize(
        "argv, option",
        [
            (["recognise", "--scale", "nan"], "--scale"),
            (["recognise", "--scale", "inf"], "--scale"),
            (["recognise", "--scale", "0"], "--scale"),
            (["profile", "--scale", "-1"], "--scale"),
            (["fig2b", "--scale", "0"], "--scale"),
            (["fig2c", "--scale", "nan"], "--scale"),
            (["repair", "--scale", "inf"], "--scale"),
            (["serve", "--scale", "0"], "--scale"),
            (["replay", "--scale", "x"], "--scale"),
            (["recognise", "--traffic", "-2"], "--traffic"),
            (["profile", "--traffic", "-1"], "--traffic"),
            (["serve", "--traffic", "-2"], "--traffic"),
            (["replay", "--traffic", "1.5"], "--traffic"),
            (["repair", "--budget", "-1"], "--budget"),
        ],
    )
    def test_usage_error_names_the_argument(self, argv, option, capsys):
        with pytest.raises(SystemExit) as raised:
            main(argv)
        assert raised.value.code == 2
        assert "argument %s: expected a " % option in capsys.readouterr().err

    def test_small_scales_and_zero_counts_are_accepted(self):
        args = build_parser().parse_args(["recognise", "--scale", "0.05", "--traffic", "0"])
        assert (args.scale, args.traffic) == (0.05, 0)
        assert build_parser().parse_args(["repair", "--budget", "0"]).budget == 0

    @pytest.mark.parametrize("endpoint", ["70000", "-5", "127.0.0.1:65536", "host:", "x"])
    def test_tcp_port_out_of_range_is_a_usage_error(self, endpoint, capsys):
        # 70000 and -5 used to reach sock.bind and end in an OverflowError.
        with pytest.raises(SystemExit) as raised:
            main(["serve", "--tcp", endpoint])
        assert raised.value.code == 2
        assert "argument --tcp: expected [HOST:]PORT" in capsys.readouterr().err

    def test_tcp_endpoint_is_parsed_once(self):
        parse = build_parser().parse_args
        assert parse(["serve", "--tcp", "7700"]).tcp == ("127.0.0.1", 7700)
        assert parse(["serve", "--tcp", "0.0.0.0:65535"]).tcp == ("0.0.0.0", 65535)


class TestGenerate:
    def test_prints_rules_and_similarity(self, capsys):
        assert main(["generate", "--model", "o1"]) == 0
        out = capsys.readouterr().out
        assert "average-similarity" in out
        assert "initiatedAt(withinArea" in out

    def test_explicit_scheme(self, capsys):
        assert main(["generate", "--model", "gemma-2", "--scheme", "few-shot"]) == 0
        assert "scheme=few-shot" in capsys.readouterr().out


class TestErrors:
    def test_o1_has_one_naming_finding_and_no_wrong_fluent_type(self, capsys):
        assert main(["errors", "--model", "o1"]) == 0
        out = capsys.readouterr().out
        naming = [line for line in out.splitlines() if "[naming-divergence]" in line]
        assert len(naming) == 1 and "'trawlingArea'" in naming[0]
        assert "  wrong-fluent-type    0" in out.splitlines()


class TestReplay:
    def test_a_batch_above_the_high_water_mark_is_a_one_line_error(self):
        """In a subprocess with a timeout: this replay used to retry forever."""
        import os
        import subprocess
        import sys

        import repro

        src = os.path.dirname(os.path.dirname(repro.__file__))
        done = subprocess.run(
            [sys.executable, "-m", "repro", "replay", "--gold", "fleet", "--limit", "200",
             "--high-water", "10", "--batch-size", "20"],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 1
        assert done.stdout == ""
        assert len(done.stderr.splitlines()) == 1
        assert done.stderr.startswith("error: ") and "batch-too-large" in done.stderr

    @pytest.mark.parametrize(
        "extra, status",
        [([], 0), (["--high-water", "2", "--batch-size", "50"], 1)],
        ids=["verified", "refused"],
    )
    def test_a_kill_drill_removes_its_checkpoint_directory(
        self, tmp_path, monkeypatch, extra, status
    ):
        import tempfile

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        argv = ["replay", "--gold", "fleet", "--sessions", "2", "--repeat", "3",
                "--limit", "200", "--checkpoint-every", "2", "--kill-at", "0.6", "--verify"]
        assert main(argv + extra) == status
        assert [p.name for p in tmp_path.iterdir() if p.name.startswith("repro-serve-ckpt-")] == []


class TestServeStdio:
    """``serve --stdio`` over a descriptor the event loop cannot poll: a
    regular file or ``/dev/null`` is read and written with blocking calls."""

    @staticmethod
    def _repro(argv, stdin, stdout):
        import os
        import subprocess
        import sys

        import repro

        src = os.path.dirname(os.path.dirname(repro.__file__))
        return subprocess.run(
            [sys.executable, "-m", "repro"] + argv, stdin=stdin, stdout=stdout,
            stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=src), timeout=120,
        )

    SERVE = ["serve", "--stdio", "--gold", "fleet", "--window", "600", "--step", "300"]

    def test_a_file_on_stdin_and_on_stdout(self, tmp_path):
        import json
        import subprocess

        recorded, served = tmp_path / "recorded.jsonl", tmp_path / "served.jsonl"
        with open(recorded, "w") as stdout:
            emitted = self._repro(
                ["replay", "--gold", "fleet", "--limit", "100", "--emit"],
                subprocess.DEVNULL, stdout,
            )
        assert emitted.returncode == 0
        with open(recorded) as stdin, open(served, "w") as stdout:
            done = self._repro(self.SERVE, stdin, stdout)
        assert done.returncode == 0, done.stderr.decode()
        replies = [json.loads(line) for line in served.read_text().splitlines()]
        results = [reply for reply in replies if reply.get("type") == "result"]
        assert len(results) == 1 and results[0]["ok"] and results[0]["fvps"]
        assert replies[-1]["type"] == "shutdown"

    @pytest.fixture(scope="class")
    def fleet_lines(self, tmp_path_factory):
        import subprocess

        recorded = tmp_path_factory.mktemp("stdio") / "fleet.jsonl"
        with open(recorded, "w") as stdout:
            emitted = self._repro(
                ["replay", "--gold", "fleet", "--repeat", "25", "--limit", "1000", "--emit"],
                subprocess.DEVNULL, stdout,
            )
        assert emitted.returncode == 0
        return recorded

    def _results(self, recorded, extra):
        import subprocess

        with open(recorded) as stdin:
            done = self._repro(self.SERVE + extra, stdin, subprocess.PIPE)
        assert done.returncode == 0, done.stderr.decode()
        assert b"backpressure" not in done.stdout
        return [line for line in done.stdout.splitlines() if b'"type":"result"' in line]

    @pytest.mark.parametrize("high_water", ["16", "1"])
    def test_backpressure_is_waited_out(self, fleet_lines, high_water):
        # A stdio peer cannot retry: rejected events used to be lost.
        whole = self._results(fleet_lines, [])
        assert len(whole) == 1
        assert self._results(fleet_lines, ["--high-water", high_water]) == whole

    def test_dev_null_on_stdin(self, tmp_path):
        import subprocess

        done = self._repro(self.SERVE, subprocess.DEVNULL, subprocess.PIPE)
        assert done.returncode == 0, done.stderr.decode()
        assert done.stdout == b""
        assert b"Traceback" not in done.stderr


class TestLint:
    def test_gold_maritime_is_error_clean(self, capsys):
        assert main(["lint", "--gold", "maritime"]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_gold_fleet_is_error_clean(self, capsys):
        assert main(["lint", "--gold", "fleet"]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_file_with_error_diagnostic_fails(self, tmp_path, capsys):
        path = tmp_path / "rules.prolog"
        path.write_text(
            "initiatedAt(f(V)=true, T) :- happensAt(gap_start(V), T), X > 1.\n"
            "terminatedAt(f(V)=true, T) :- happensAt(gap_end(V), T).\n"
        )
        assert main(["lint", str(path)]) == 1
        out = capsys.readouterr().out
        assert "RTEC007" in out
        assert str(path) in out

    def test_fail_on_never_reports_but_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "rules.prolog"
        path.write_text(
            "initiatedAt(f(V)=true, T) :- happensAt(gap_start(V), T), X > 1.\n"
        )
        assert main(["lint", str(path), "--fail-on", "never"]) == 0

    def test_json_format(self, tmp_path, capsys):
        import json

        path = tmp_path / "rules.prolog"
        path.write_text(
            "initiatedAt(f(V)=true, T) :- happensAt(gap_start(V), T).\n"
        )
        assert main(["lint", str(path), "--format", "json"]) in (0, 1)
        data = json.loads(capsys.readouterr().out)
        assert "diagnostics" in data and "summary" in data

    def test_sarif_format(self, capsys):
        import json

        assert main(["lint", "--gold", "maritime", "--format", "sarif"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["version"] == "2.1.0"

    def test_requires_exactly_one_target(self, capsys):
        assert main(["lint"]) == 2
        assert main(["lint", "x", "--gold", "maritime"]) == 2

    def test_missing_file(self):
        assert main(["lint", "/nonexistent/rules.prolog"]) == 2

    def test_no_vocabulary_flag(self, tmp_path, capsys):
        path = tmp_path / "rules.prolog"
        path.write_text(
            "initiatedAt(f(V)=true, T) :- happensAt(teleport(V), T).\n"
        )
        assert main(["lint", str(path)]) == 1
        assert "undefined-event" in capsys.readouterr().out
        assert main(["lint", str(path), "--no-vocabulary"]) == 0

    def test_parse_error_is_a_diagnostic(self, tmp_path, capsys):
        path = tmp_path / "rules.prolog"
        path.write_text("this is not prolog @@@\n")
        assert main(["lint", str(path)]) == 1
        assert "RTEC001" in capsys.readouterr().out


def _renamed_mutation(tmp_path):
    from repro.maritime import gold_event_description

    text = gold_event_description().to_text().replace("gap_start", "gapStart")
    path = tmp_path / "mutated.prolog"
    path.write_text(text)
    return path


class TestCertify:
    """Certification is part of ``repro lint``: the delta-safety and
    memory-boundedness passes (RTEC025-028) run on every description whose
    analysis reports no error. There is no ``certify`` command."""

    CERTIFICATION_CODES = ("RTEC025", "RTEC026", "RTEC027", "RTEC028")

    def test_golds_certify_clean_at_warning(self, capsys):
        for gold in ("maritime", "fleet"):
            assert main(["lint", "--gold", gold, "--fail-on", "warning"]) == 0
            assert "0 error(s), 0 warning(s)" in capsys.readouterr().out

    def test_json_format_reports_no_certification_findings(self, capsys):
        import json

        select = ",".join(self.CERTIFICATION_CODES)
        for gold in ("maritime", "fleet"):
            argv = ["lint", "--gold", gold, "--format", "json", "--select", select]
            assert main(argv + ["--fail-on", "info"]) == 0
            assert json.loads(capsys.readouterr().out)["diagnostics"] == []

    def test_sarif_format_validates(self, capsys):
        import json

        assert main(["lint", "--gold", "maritime", "--format", "sarif"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["version"] == "2.1.0"
        rule_ids = {rule["id"] for rule in data["runs"][0]["tool"]["driver"]["rules"]}
        assert set(self.CERTIFICATION_CODES) <= rule_ids
        assert "RTEC030" not in rule_ids

    def test_leaky_file_fails_on_warning(self, tmp_path, capsys):
        path = tmp_path / "rules.prolog"
        path.write_text(
            "initiatedAt(hot(V)=true, T) :- happensAt(gap_start(V), T).\n"
        )
        argv = ["lint", str(path), "--select", "RTEC027,RTEC028", "--fail-on", "warning"]
        assert main(argv) == 1
        out = capsys.readouterr().out
        assert "[RTEC027 leaky-fluent]" in out
        assert "hot/1=true" in out

    def test_requires_exactly_one_target(self, capsys):
        select = ["--select", ",".join(self.CERTIFICATION_CODES)]
        assert main(["lint"] + select) == 2
        assert main(["lint", "x", "--gold", "maritime"] + select) == 2
        assert capsys.readouterr().out == ""

    def test_missing_file(self, capsys):
        argv = ["lint", "/nonexistent/rules.prolog", "--select", "RTEC027,RTEC028"]
        assert main(argv + ["--fail-on", "never"]) == 2
        assert capsys.readouterr().out == ""

    def test_the_certify_command_is_gone(self, capsys):
        with pytest.raises(SystemExit) as raised:
            main(["certify", "--gold", "maritime"])
        assert raised.value.code == 2
        assert "invalid choice: 'certify'" in capsys.readouterr().err

    def test_explain_covers_certification_codes(self, capsys):
        for code in self.CERTIFICATION_CODES:
            assert main(["lint", "--explain", code]) == 0
            out = capsys.readouterr().out
            assert code in out
            assert code.lower() in out  # the docs anchor
        assert main(["lint", "--explain", "RTEC030"]) == 2


class TestLintFix:
    def test_select_filters_diagnostics(self, tmp_path, capsys):
        path = _renamed_mutation(tmp_path)
        assert main(
            ["lint", str(path), "--select", "RTEC016", "--fail-on", "never"]
        ) == 0
        out = capsys.readouterr().out
        assert "RTEC016" in out
        assert "RTEC003" not in out
        # Selecting a code the report does not contain yields a clean report.
        assert main(
            ["lint", str(path), "--select", "RTEC018", "--fail-on", "warning"]
        ) == 0

    @pytest.mark.parametrize("codes", ["RTEC999,RTEC18", "RTEC016,RTEC021", "RTEC027,RTEC030"])
    def test_select_rejects_unknown_codes(self, codes, capsys):
        # A typo or a retired code would otherwise turn a CI gate into a no-op.
        argv = ["lint", "--gold", "maritime", "--select", codes, "--fail-on", "info"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "error: unknown diagnostic code" in captured.err
        assert captured.out == ""

    def test_fix_diff_prints_without_writing(self, tmp_path, capsys):
        path = _renamed_mutation(tmp_path)
        before = path.read_text()
        assert main(["lint", str(path), "--fix", "--diff", "--fail-on", "never"]) == 0
        out = capsys.readouterr().out
        assert "-    happensAt(gapStart(Vessel), T)" in out
        assert "+    happensAt(gap_start(Vessel), T)" in out
        assert path.read_text() == before

    def test_fix_rewrites_the_file(self, tmp_path, capsys):
        path = _renamed_mutation(tmp_path)
        assert main(["lint", str(path), "--fix", "--fail-on", "never"]) == 0
        assert "applied" in capsys.readouterr().out
        # The fixed file lints clean of the naming divergence.
        assert main(["lint", str(path), "--fail-on", "warning"]) == 0

    def test_diff_requires_fix(self, tmp_path, capsys):
        path = _renamed_mutation(tmp_path)
        assert main(["lint", str(path), "--diff"]) == 2

    def test_gold_fix_requires_diff(self, capsys):
        assert main(["lint", "--gold", "maritime", "--fix"]) == 2
        assert main(["lint", "--gold", "maritime", "--fix", "--diff"]) == 0
        assert "no applicable fixes" in capsys.readouterr().out


class TestRecognise:
    def test_prints_activity_summary(self, capsys):
        assert main(["recognise", "--scale", "0.15", "--traffic", "1"]) == 0
        out = capsys.readouterr().out
        assert "trawling" in out
        assert "drifting" in out


class TestProfile:
    def test_batch_span_tree(self, capsys):
        from repro import telemetry

        assert main(["profile", "--scale", "0.05", "--traffic", "1"]) == 0
        out = capsys.readouterr().out
        assert "batch recognise" in out
        assert "rtec.window" in out
        assert "rtec.simple" in out
        assert "fluent=" in out
        # The CLI restores the disabled default afterwards.
        assert not telemetry.is_enabled()

    def test_session_json(self, capsys):
        import json

        assert main(
            ["profile", "--scale", "0.05", "--traffic", "1", "--session", "--json"]
        ) == 0
        data = json.loads(capsys.readouterr().out)
        names = [span["name"] for span in data["spans"]]
        assert "rtec.advance" in names


class TestFigures:
    def test_fig2a(self, capsys):
        assert main(["fig2a"]) == 0
        out = capsys.readouterr().out
        assert "o1□" in out
        assert "top-3:" in out


class TestLintExplain:
    def test_explain_prints_registry_entry(self, capsys):
        assert main(["lint", "--explain", "RTEC016"]) == 0
        out = capsys.readouterr().out
        assert "RTEC016" in out
        assert "naming" in out
        assert "severity" in out
        assert "auto-fix" in out and "yes" in out
        assert "repair" in out and "auto" in out

    def test_explain_not_repairable_code(self, capsys):
        assert main(["lint", "--explain", "RTEC015"]) == 0
        out = capsys.readouterr().out
        assert "not repairable" in out

    def test_explain_unknown_code_exits_2(self, capsys):
        assert main(["lint", "--explain", "RTEC999"]) == 2
        assert "unknown diagnostic code" in capsys.readouterr().err


class TestRepair:
    def test_single_model_table(self, capsys):
        assert main(
            ["repair", "--model", "gemma-2", "--scheme", "few-shot",
             "--scale", "0.1"]
        ) == 0
        out = capsys.readouterr().out
        assert "gemma-2" in out
        assert "trajectory" in out
        assert "all >= single-shot baseline: yes" in out
        assert "iteration 1" in out

    def test_json_output(self, capsys):
        import json

        assert main(
            ["repair", "--model", "mistral", "--scheme", "chain-of-thought",
             "--scale", "0.1", "--json"]
        ) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["all_at_least_baseline"] is True
        (entry,) = data["entries"]
        assert entry["model"] == "mistral"
        assert entry["repair"]["status"] in ("clean", "converged", "fixpoint")
        assert len(entry["trajectory"]) == len(entry["repair"]["iterations"]) + 1
