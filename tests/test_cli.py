"""The ``python -m repro`` command-line interface."""

import json

import pytest

from repro.cli import run


def lines(capsys):
    return [
        line for line in capsys.readouterr().out.splitlines() if line.strip()
    ]


class TestExtraction:
    def test_extract_from_stdin(self, capsys):
        code = run([".*x{a+}.*"], stdin="baab")
        assert code == 0
        records = [json.loads(line) for line in lines(capsys)]
        assert {"x": "aa"} in records

    def test_extract_from_file(self, tmp_path, capsys):
        path = tmp_path / "doc.txt"
        path.write_text("Seller: John, ID75\n")
        code = run([".*Seller: x{[^,\n]*},.*", str(path)])
        assert code == 0
        assert json.loads(lines(capsys)[0]) == {"x": "John"}

    def test_spans_mode(self, capsys):
        run(["x{a}b", "--spans"], stdin="ab")
        assert json.loads(lines(capsys)[0]) == {"x": [1, 2]}

    def test_optional_fields_missing_keys(self, capsys):
        run(["x{a}(y{b}|ε)c*"], stdin="ac")
        assert json.loads(lines(capsys)[0]) == {"x": "a"}

    def test_count_mode(self, capsys):
        run([".*x{a}.*", "--count"], stdin="aaa")
        assert lines(capsys) == ["3"]

    def test_no_matches_prints_nothing(self, capsys):
        code = run(["x{z}"], stdin="ab")
        assert code == 0
        assert lines(capsys) == []

    def test_seed_engine_agrees(self, capsys):
        run([".*x{a+}.*", "--engine", "seed"], stdin="baab")
        seed_records = [json.loads(line) for line in lines(capsys)]
        run([".*x{a+}.*", "--engine", "compiled"], stdin="baab")
        compiled_records = [json.loads(line) for line in lines(capsys)]
        assert seed_records == compiled_records


class TestBatchMode:
    def test_multiple_files_tag_records(self, tmp_path, capsys):
        first = tmp_path / "one.txt"
        second = tmp_path / "two.txt"
        first.write_text("Seller: John, ID75\n")
        second.write_text("Seller: Mark, ID7\n")
        code = run(
            [".*Seller: x{[^,\n]*},.*", str(first), str(second)]
        )
        assert code == 0
        records = [json.loads(line) for line in lines(capsys)]
        assert {"x": "John", "_file": str(first)} in records
        assert {"x": "Mark", "_file": str(second)} in records

    def test_single_file_keeps_plain_format(self, tmp_path, capsys):
        path = tmp_path / "doc.txt"
        path.write_text("Seller: John, ID75\n")
        run([".*Seller: x{[^,\n]*},.*", str(path)])
        assert json.loads(lines(capsys)[0]) == {"x": "John"}

    def test_count_sums_over_files(self, tmp_path, capsys):
        first = tmp_path / "one.txt"
        second = tmp_path / "two.txt"
        first.write_text("aa")
        second.write_text("a")
        run([".*x{a}.*", str(first), str(second), "--count"])
        assert lines(capsys) == ["3"]


class TestCorpusFlags:
    PATTERN = ".*Seller: x{[^,\n]*},.*"

    def _write(self, tmp_path):
        first = tmp_path / "one.csv"
        second = tmp_path / "two.csv"
        first.write_text("Seller: John, ID75\n")
        second.write_text("Seller: Mark, ID7\n")
        return first, second

    def test_glob_expands_sorted(self, tmp_path, capsys):
        self._write(tmp_path)
        code = run([self.PATTERN, "--glob", str(tmp_path / "*.csv")])
        assert code == 0
        records = [json.loads(line) for line in lines(capsys)]
        assert [r["x"] for r in records] == ["John", "Mark"]
        assert records[0]["_file"].endswith("one.csv")

    def test_glob_deduplicates_against_files(self, tmp_path, capsys):
        first, _ = self._write(tmp_path)
        run([self.PATTERN, str(first), "--glob", str(tmp_path / "*.csv")])
        records = [json.loads(line) for line in lines(capsys)]
        assert sum(r["x"] == "John" for r in records) == 1

    def test_workers_output_identical_to_serial(self, tmp_path, capsys):
        first, second = self._write(tmp_path)
        run([self.PATTERN, str(first), str(second)])
        serial = lines(capsys)
        run([self.PATTERN, str(first), str(second), "--workers", "2"])
        assert lines(capsys) == serial

    def test_ndjson_groups_per_document(self, tmp_path, capsys):
        first, second = self._write(tmp_path)
        code = run([self.PATTERN, str(first), str(second), "--ndjson"])
        assert code == 0
        records = [json.loads(line) for line in lines(capsys)]
        assert [r["doc"] for r in records] == [str(first), str(second)]
        assert records[0]["mappings"] == [{"x": "John"}]
        assert records[0]["error"] is None

    def test_ndjson_reports_unreadable_file(self, tmp_path, capsys):
        first, _ = self._write(tmp_path)
        missing = tmp_path / "absent.csv"
        code = run([self.PATTERN, str(first), str(missing), "--ndjson"])
        assert code == 0  # errors are records, not aborts
        records = [json.loads(line) for line in lines(capsys)]
        by_doc = {r["doc"]: r for r in records}
        assert by_doc[str(first)]["error"] is None
        assert by_doc[str(missing)]["mappings"] is None
        assert by_doc[str(missing)]["error"]

    def test_ndjson_from_stdin(self, capsys):
        run([".*x{a+}.*", "--ndjson"], stdin="ba")
        record = json.loads(lines(capsys)[0])
        assert record == {"doc": "<stdin>", "error": None, "mappings": [{"x": "a"}]}

    def test_count_sums_with_workers(self, tmp_path, capsys):
        first, second = self._write(tmp_path)
        run([self.PATTERN, str(first), str(second), "--count", "--workers", "2"])
        assert lines(capsys) == ["2"]

    def test_spans_mode_through_service(self, tmp_path, capsys):
        first, _ = self._write(tmp_path)
        run([self.PATTERN, str(first), "--spans"])
        record = json.loads(lines(capsys)[0])
        assert record == {"x": [9, 13]}


class TestCheckMode:
    def test_satisfiable_pattern(self, capsys):
        code = run(["x{ab}c", "--check"])
        assert code == 0
        output = "\n".join(lines(capsys))
        assert "satisfiable:  True" in output
        assert "witness:" in output
        assert "sequential:   True" in output

    def test_unsatisfiable_pattern(self, capsys):
        run(["x{a}x{b}", "--check"])
        output = "\n".join(lines(capsys))
        assert "satisfiable:  False" in output
        assert "witness" not in output


class TestVersion:
    def test_version_prints_package_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run(["--version"])
        assert excinfo.value.code == 0
        output = capsys.readouterr().out
        assert output.startswith("repro ")
        from repro import __version__

        assert __version__ in output


class TestPlannerFlags:
    def test_explain_prints_pass_log(self, capsys):
        code = run([".*x{a+}.*", "--explain"])
        assert code == 0
        output = "\n".join(lines(capsys))
        assert "opt level 1" in output
        for name in ("eliminate-epsilon", "trim", "fuse-predicates", "sequentialize"):
            assert name in output
        assert "states" in output and "result:" in output

    def test_explain_respects_opt_level(self, capsys):
        run([".*x{a+}.*", "--explain", "--opt-level", "2"])
        output = "\n".join(lines(capsys))
        assert "opt level 2" in output
        assert "determinize" in output
        run([".*x{a+}.*", "--explain", "--opt-level", "0"])
        assert "passes: none" in "\n".join(lines(capsys))

    def test_opt_levels_produce_identical_output(self, capsys):
        outputs = []
        for level in ("0", "1", "2"):
            assert run([".*x{a+}.*", "--opt-level", level], stdin="baab") == 0
            outputs.append(lines(capsys))
        assert outputs[0] == outputs[1] == outputs[2]

    def test_invalid_opt_level_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run(["x{a}", "--opt-level", "3"], stdin="a")
        assert excinfo.value.code == 2


class TestWorkersValidation:
    @pytest.mark.parametrize("value", ["0", "-1", "-4"])
    def test_non_positive_workers_is_an_argparse_error(self, value, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run(["x{a}", "--workers", value], stdin="a")
        assert excinfo.value.code == 2
        assert "must be a positive integer" in capsys.readouterr().err

    def test_non_integer_workers_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run(["x{a}", "--workers", "two"], stdin="a")
        assert excinfo.value.code == 2

    def test_workers_one_still_accepted(self, capsys):
        assert run(["x{a}", "--workers", "1"], stdin="a") == 0


class TestErrors:
    def test_parse_error_exit_code(self, capsys):
        assert run(["(((", "--check"]) == 2
        assert "error" in capsys.readouterr().err

    def test_seed_engine_rejects_service_flags(self, capsys):
        assert run(["x{a}", "--engine", "seed", "--workers", "2"]) == 2
        assert "--engine seed" in capsys.readouterr().err
        assert run(["x{a}", "--engine", "seed", "--ndjson"]) == 2
        assert "--engine seed" in capsys.readouterr().err

    def test_count_rejects_ndjson(self, capsys):
        assert run(["x{a}", "--count", "--ndjson"]) == 2
        assert "--count" in capsys.readouterr().err


class TestStatsFlag:
    def test_stats_prints_counters_to_stderr(self, capsys):
        code = run([".*x{a+}.*", "--stats"], stdin="baa")
        assert code == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out.splitlines()[0]) == {"x": "a"}
        stats_lines = [
            line for line in captured.err.splitlines() if line.startswith("stats:")
        ]
        assert any("kernel" in line and "classes=" in line for line in stats_lines)
        kernel_line = next(line for line in stats_lines if line.startswith("stats: kernel"))
        counters = dict(field.split("=") for field in kernel_line.split()[2:])
        # The enumeration's backward pass left its level descriptions in
        # the shared store, and nothing flushed.
        assert int(counters["dag_levels"]) > 0
        assert int(counters["flushes"]) == 0
        assert any("engine" in line and "index_misses=" in line for line in stats_lines)
        assert any("spanner-cache" in line and "hits=" in line for line in stats_lines)

    def test_stats_counts_the_engine_that_did_the_work(self, capsys):
        # A pattern no other test compiles: its cache entry (and the
        # engine's counters) are born in this very run.
        run([".*stats_q{a+}_flag.*", "--stats"], stdin="xstats_aa_flagx")
        err = capsys.readouterr().err
        engine_line = next(
            line for line in err.splitlines() if line.startswith("stats: engine")
        )
        # The run enumerated one document through this very engine.
        assert "dags=1" in engine_line

    def test_stats_merges_worker_counters(self, tmp_path, capsys):
        first = tmp_path / "a.txt"
        second = tmp_path / "b.txt"
        first.write_text("ba")
        second.write_text("aa")
        code = run(
            [".*x{a+}.*", str(first), str(second), "--workers", "2", "--stats"]
        )
        assert code == 0
        err = capsys.readouterr().err
        # Worker-side counters come back through the pool and are merged
        # into the report, so the kernel line reflects real work even
        # though every document ran in another process.
        assert "merged counters from" in err
        assert "worker process(es)" in err
        kernel_line = next(
            line for line in err.splitlines() if line.startswith("stats: kernel")
        )
        counters = dict(field.split("=") for field in kernel_line.split()[2:])
        assert int(counters["interned"]) > 0
        assert int(counters["flat_states"]) > 1  # more than the dead state

    def test_stats_rejected_with_seed_engine(self, capsys):
        assert run(["x{a}", "--engine", "seed", "--stats"]) == 2
        assert "--stats" in capsys.readouterr().err


class TestServeDispatch:
    def test_serve_help_mentions_endpoints(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run(["serve", "--help"])
        assert excinfo.value.code == 0
        assert "/evaluate" in capsys.readouterr().out

    def test_serve_rejects_bad_port(self, capsys):
        assert run(["serve", "--port", "70000"]) == 2
        assert "--port" in capsys.readouterr().err

    def test_serve_parser_defaults_match_server_config(self):
        from repro.cli import build_serve_parser
        from repro.server import ServerConfig

        defaults = build_serve_parser().parse_args([])
        config = ServerConfig()
        assert defaults.host == config.host
        assert defaults.port == config.port
        assert defaults.workers == config.workers
        assert defaults.batch_size == config.batch_max_size
        assert defaults.batch_delay == config.batch_max_delay
        assert defaults.max_pending == config.max_pending
        assert defaults.drain_grace == config.drain_grace
        assert defaults.task_timeout == config.task_timeout
        assert defaults.max_rebuilds == config.max_rebuilds
        assert defaults.degraded_reset == config.degraded_reset

    def test_serve_pattern_still_usable_as_pattern(self, capsys):
        # Only the *first* argument dispatches to serving; a pattern named
        # "serve" elsewhere keeps working.
        assert run(["x{serve}", "--count"], stdin="serve") == 0
        assert lines(capsys) == ["1"]


class TestDurationFlagValidation:
    """Timeout-ish knobs reject zero/negative at the argparse layer."""

    @pytest.mark.parametrize("value", ["0", "-1", "soon"])
    def test_task_timeout_must_be_positive(self, value, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run(["x{a}", "--task-timeout", value], stdin="a")
        assert excinfo.value.code == 2

    def test_task_timeout_accepted_on_run(self, capsys):
        assert run(["x{a}", "--task-timeout", "5"], stdin="a") == 0
        assert run(
            ["x{a}", "--task-timeout", "5", "--workers", "2"], stdin="a"
        ) == 0

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--drain-grace", "0"),
            ("--drain-grace", "-1"),
            ("--task-timeout", "0"),
            ("--task-timeout", "-0.5"),
            ("--batch-delay", "-0.001"),
            ("--degraded-reset", "0"),
            ("--max-rebuilds", "-1"),
        ],
    )
    def test_serve_rejects_bad_durations(self, flag, value, capsys):
        from repro.cli import build_serve_parser

        with pytest.raises(SystemExit) as excinfo:
            build_serve_parser().parse_args([flag, value])
        assert excinfo.value.code == 2

    def test_serve_accepts_zero_batch_delay(self):
        from repro.cli import build_serve_parser

        arguments = build_serve_parser().parse_args(["--batch-delay", "0"])
        assert arguments.batch_delay == 0.0


class TestStatsResilienceLine:
    def test_parallel_stats_include_resilience(self, tmp_path, capsys):
        target = tmp_path / "a.txt"
        target.write_text("baa")
        code = run([".*x{a+}.*", str(target), "--workers", "2", "--stats"])
        assert code == 0
        err = capsys.readouterr().err
        resilience_line = next(
            (
                line
                for line in err.splitlines()
                if line.startswith("stats: resilience")
            ),
            None,
        )
        assert resilience_line is not None
        assert "restarts=0" in resilience_line
        assert "failed=False" in resilience_line
