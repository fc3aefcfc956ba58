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
            (["serve", "--checkpoint-keep", "0"], "--checkpoint-keep"),
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

    def test_the_jobs_flag_is_gone(self, capsys):
        for command in ("recognise", "profile"):
            with pytest.raises(SystemExit) as raised:
                main([command, "--jobs", "4"])
            assert raised.value.code == 2
            assert "unrecognized arguments: --jobs 4" in capsys.readouterr().err


class TestGenerate:
    def test_prints_rules_and_similarity(self, capsys):
        assert main(["generate", "--model", "o1"]) == 0
        out = capsys.readouterr().out
        assert "average-similarity" in out
        assert "initiatedAt(withinArea" in out

    def test_explicit_scheme(self, capsys):
        assert main(["generate", "--model", "gemma-2", "--scheme", "few-shot"]) == 0
        assert "scheme=few-shot" in capsys.readouterr().out


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


def _subsumed_mutation(tmp_path):
    from repro.maritime import gold_event_description

    text = gold_event_description().to_text().replace(
        "    Speed>=MovingMin,",
        "    Speed>=MovingMin,\n    Speed>MovingMin,",
        1,
    )
    path = tmp_path / "mutated.prolog"
    path.write_text(text)
    return path


class TestCertify:
    def test_golds_certify_clean_at_warning(self, capsys):
        assert main(["certify", "--gold", "maritime", "--fail-on", "warning"]) == 0
        out = capsys.readouterr().out
        assert "certified, delta-safe, memory-bounded" in out
        assert main(["certify", "--gold", "fleet", "--fail-on", "warning"]) == 0
        assert "certified, delta-safe, memory-bounded" in capsys.readouterr().out

    def test_json_format_is_a_signed_certificate(self, capsys):
        import json

        from repro.analysis import AnalysisCertificate

        assert main(["certify", "--gold", "fleet", "--format", "json"]) == 0
        certificate = AnalysisCertificate.from_json(capsys.readouterr().out)
        assert certificate.verify()
        assert certificate.delta_safe and certificate.memory_bounded
        assert json.loads(certificate.to_json())["signature"] == certificate.signature

    def test_sarif_format_validates(self, capsys):
        import json

        assert main(["certify", "--gold", "maritime", "--format", "sarif"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["version"] == "2.1.0"
        assert data["runs"][0]["tool"]["driver"]["rules"] is not None

    def test_leaky_file_fails_on_warning(self, tmp_path, capsys):
        path = tmp_path / "rules.prolog"
        path.write_text(
            "initiatedAt(hot(V)=true, T) :- happensAt(gap_start(V), T).\n"
        )
        assert main(["certify", str(path), "--fail-on", "warning"]) == 1
        out = capsys.readouterr().out
        assert "RTEC027" in out
        assert "LEAKY" in out

    def test_output_writes_certificate_json(self, tmp_path, capsys):
        from repro.analysis import AnalysisCertificate

        target = tmp_path / "certificate.json"
        assert main(
            ["certify", "--gold", "fleet", "--output", str(target)]
        ) == 0
        certificate = AnalysisCertificate.from_json(target.read_text())
        assert certificate.verify()

    def test_requires_exactly_one_target(self, capsys):
        assert main(["certify"]) == 2
        assert main(["certify", "x", "--gold", "maritime"]) == 2

    def test_missing_file(self):
        assert main(["certify", "/nonexistent/rules.prolog"]) == 2

    def test_explain_covers_certification_codes(self, capsys):
        for code in ("RTEC025", "RTEC026", "RTEC027", "RTEC028", "RTEC029",
                     "RTEC030"):
            assert main(["lint", "--explain", code]) == 0
            out = capsys.readouterr().out
            assert code in out
            assert code.lower() in out  # the docs anchor


class TestLintFix:
    def test_select_filters_diagnostics(self, tmp_path, capsys):
        path = _subsumed_mutation(tmp_path)
        assert main(
            ["lint", str(path), "--select", "RTEC021", "--fail-on", "never"]
        ) == 0
        out = capsys.readouterr().out
        assert "RTEC021" in out
        assert "RTEC007" not in out
        # Selecting a code the report does not contain yields a clean report.
        assert main(
            ["lint", str(path), "--select", "RTEC019", "--fail-on", "warning"]
        ) == 0

    def test_fix_diff_prints_without_writing(self, tmp_path, capsys):
        path = _subsumed_mutation(tmp_path)
        before = path.read_text()
        assert main(["lint", str(path), "--fix", "--diff", "--fail-on", "never"]) == 0
        out = capsys.readouterr().out
        assert "-    Speed>=MovingMin," in out
        assert path.read_text() == before

    def test_fix_rewrites_the_file(self, tmp_path, capsys):
        path = _subsumed_mutation(tmp_path)
        assert main(["lint", str(path), "--fix", "--fail-on", "never"]) == 0
        assert "applied" in capsys.readouterr().out
        # The fixed file lints clean of the subsumption.
        assert main(["lint", str(path), "--fail-on", "warning"]) == 0

    def test_diff_requires_fix(self, tmp_path, capsys):
        path = _subsumed_mutation(tmp_path)
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
        # Which seed path each rule took: the gold has both shapes.
        assert "kernel.rule_filter.columnar=" in out
        assert "kernel.rule_filter.fallback=" in out
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
        assert "paper category" in out
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
