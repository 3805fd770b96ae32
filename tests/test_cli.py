"""Tests for the command-line interface (repro.cli)."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, run

CATALOG = "<catalog><book id='b1'><price>55</price></book><book id='b2'><price>30</price></book></catalog>"


@pytest.fixture
def catalog_file(tmp_path):
    path = tmp_path / "catalog.xml"
    path.write_text(CATALOG, encoding="utf-8")
    return str(path)


class TestCli:
    def test_scalar_query_from_file(self, catalog_file, capsys):
        assert run(["count(//book)", catalog_file]) == 0
        assert capsys.readouterr().out.strip() == "2"

    def test_node_set_query_output(self, catalog_file, capsys):
        assert run(["//book[price < 60]", catalog_file]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert all("book" in line for line in lines)

    def test_stdin_input(self, capsys):
        assert run(["string(//b)"], stdin="<a><b>hi</b></a>") == 0
        assert capsys.readouterr().out.strip() == "hi"

    def test_xml_output(self, catalog_file, capsys):
        assert run(["//book[1]", catalog_file, "--xml"]) == 0
        assert capsys.readouterr().out.startswith("<book")

    def test_engine_selection(self, catalog_file, capsys):
        assert run(["//book", catalog_file, "--engine", "mincontext"]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 2

    def test_auto_engine(self, catalog_file, capsys):
        assert run(["//book/price", catalog_file, "--engine", "auto"]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 2

    def test_classify_flag(self, catalog_file, capsys):
        assert run(["//book", catalog_file, "--classify"]) == 0
        out = capsys.readouterr().out
        assert "fragment:" in out and "Core XPath" in out

    def test_stats_flag(self, catalog_file, capsys):
        assert run(["count(//book)", catalog_file, "--stats"]) == 0
        captured = capsys.readouterr()
        assert "expression_evaluations" in captured.err

    def test_bad_query_returns_error_code(self, catalog_file, capsys):
        assert run(["//book[", catalog_file]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_file_returns_error_code(self, capsys):
        assert run(["//a", "/nonexistent/file.xml"]) == 2

    def test_malformed_document_returns_error_code(self, tmp_path, capsys):
        path = tmp_path / "bad.xml"
        path.write_text("<a><b></a>", encoding="utf-8")
        assert run(["//a", str(path)]) == 1

    def test_parser_help_mentions_engines(self):
        parser = build_parser()
        assert any(
            "engine" in action.dest for action in parser._actions
        )


class TestCliStream:
    def test_stream_prints_matches(self, capsys):
        assert run(["//b", "--stream"], stdin="<a><b>x</b><b/></a>") == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("2\tb")

    def test_stream_classify_reports_streamable(self, capsys):
        assert run(["//b", "--stream", "--classify"], stdin="<a><b/></a>") == 0
        assert "streaming: yes" in capsys.readouterr().out

    def test_stream_falls_back_for_non_streamable_node_set(self, capsys):
        # Reverse axis: not streamable, but the tree fallback prints the
        # same match shape.
        assert run(["//b/parent::a", "--stream"], stdin="<a><b/></a>") == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("1\ta")

    def test_stream_falls_back_for_scalar_query(self, capsys):
        # Scalars cannot stream; --stream must still print the value, not
        # fail (the advertised automatic fallback).
        assert run(["count(//b)", "--stream"], stdin="<a><b/><b/></a>") == 0
        assert capsys.readouterr().out.strip() == "2"

    def test_stream_respects_limits(self, capsys):
        assert (
            run(["//b", "--stream", "--max-ops", "2"], stdin="<a><b/><b/></a>")
            == 3
        )
        assert "limit exceeded" in capsys.readouterr().err

    def test_batch_stream_flag(self, tmp_path, capsys, cli_batch_mode):
        paths = []
        for index, source in enumerate(["<a><b/><b/></a>", "<a/>"]):
            path = tmp_path / f"s{index}.xml"
            path.write_text(source, encoding="utf-8")
            paths.append(str(path))
        assert run(["batch", "//b", *paths, "--stream", *cli_batch_mode.cli]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].endswith("2 node(s)")
        assert lines[1].endswith("0 node(s)")


class TestCliLimits:
    def test_max_ops_breach_exits_3(self, catalog_file, capsys):
        assert run(["//book", catalog_file, "--engine", "naive", "--max-ops", "1"]) == 3
        assert "limit exceeded:" in capsys.readouterr().err

    def test_max_nodes_breach_exits_3(self, catalog_file, capsys):
        assert run(["//book", catalog_file, "--max-nodes", "1"]) == 3
        assert "limit exceeded:" in capsys.readouterr().err

    def test_within_limits_succeeds(self, catalog_file, capsys):
        assert run(
            ["//book", catalog_file, "--max-ops", "100000", "--max-nodes", "10"]
        ) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 2


class TestCliExplain:
    def test_explain_with_file_reports_everything(self, catalog_file, capsys):
        assert run(["explain", "//book", catalog_file]) == 0
        out = capsys.readouterr().out
        assert "query:      //book" in out
        assert "fragment:   Core XPath" in out
        assert "engine:     topdown" in out
        assert "result:     node-set, 2 node(s)" in out
        assert "stats:" in out
        assert "time:" in out

    def test_explain_from_stdin(self, capsys):
        assert run(["explain", "//b"], stdin="<a><b/></a>") == 0
        assert "result:     node-set, 1 node(s)" in capsys.readouterr().out

    def test_explain_plan_only_needs_no_document(self, capsys):
        assert run(["explain", "//a/b[child::c]", "--plan-only"]) == 0
        out = capsys.readouterr().out
        assert "fragment:   Core XPath" in out
        assert "result:" not in out
        assert "time:" not in out

    def test_explain_compiled_golden(self, capsys):
        query = "count(//book[price > 40][last()]/preceding-sibling::book[1])"
        assert run(["explain", query, "--plan-only", "--engine", "compiled"]) == 0
        lines = capsys.readouterr().out.splitlines()
        # The cache line depends on what this process compiled before.
        assert [line for line in lines if not line.startswith("cache:")] == [
            f"query:      {query}",
            "normalized: count(/descendant-or-self::node()/child::book"
            "[(child::price > 40)][(position() = last())]"
            "/preceding-sibling::book[(position() = 1)])",
            "fragment:   Full XPath  [time O(|D|⁴·|Q|²), space O(|D|²·|Q|²)]",
            "streaming:  no (FunctionCall is not a streamable location path)",
            "compiled:   yes (9-instruction array program)",
            "              r0 = root()",
            "              r1 = axis-test[descendant](r0, T(book))",
            "              r2 = test[child](T(price))",
            "              r3 = numfilter(r2, > 40)",
            "              r4 = inverse-axis[child](r3)",
            "              r5 = intersect(r1, r4)",
            "              r6 = position[child](r5, last)",
            "              r7 = axis-test[preceding-sibling](r6, T(book))",
            "              r8 = position[preceding-sibling](r6, r7, 1)",
            "              result: count(r8)",
            "engine:     compiled  (recommended for this fragment)",
            "limits:     unlimited",
        ]

    def test_explain_names_the_refused_shape(self, capsys):
        assert run(["explain", "//book[price[1]]", "--plan-only"]) == 0
        assert "compiled:   no (position inside a predicate" in capsys.readouterr().out

    def test_explain_auto_engine(self, catalog_file, capsys):
        assert run(["explain", "//book", catalog_file, "--engine", "auto"]) == 0
        assert "resolved from 'auto'" in capsys.readouterr().out

    def test_explain_limit_breach_exits_3(self, catalog_file, capsys):
        assert (
            run(["explain", "//book", catalog_file, "--engine", "naive", "--max-ops", "1"])
            == 3
        )
        assert "limit exceeded:" in capsys.readouterr().err

    def test_explain_bad_query_exits_1(self, capsys):
        assert run(["explain", "//book[", "--plan-only"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_double_dash_evaluates_query_named_explain(self, capsys):
        # "--" is the escape hatch for a query literally named "explain".
        assert run(["--", "explain"], stdin="<explain>x</explain>") == 0
        assert "explain\tx" in capsys.readouterr().out


class TestCliBatch:
    """``repro batch`` under each CLI-spelled batch mode (serial, --jobs
    on both backends, --stream)."""

    @pytest.fixture
    def files(self, tmp_path):
        sources = ["<a><b/><b/></a>", "<a/>", "<a><b>x</b></a>"]
        paths = []
        for index, source in enumerate(sources):
            path = tmp_path / f"doc{index}.xml"
            path.write_text(source, encoding="utf-8")
            paths.append(str(path))
        return paths

    @pytest.fixture
    def flags(self, cli_batch_mode):
        return list(cli_batch_mode.cli)

    def test_batch_serial(self, files, flags, capsys):
        assert run(["batch", "//b", *files, *flags]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        assert lines[0].endswith("2 node(s)")
        assert lines[1].endswith("0 node(s)")
        assert lines[2].endswith("1 node(s)")

    def test_batch_mode_matches_serial(self, files, flags, capsys):
        assert run(["batch", "//b", *files]) == 0
        serial = capsys.readouterr().out
        assert run(["batch", "//b", *files, *flags]) == 0
        assert capsys.readouterr().out == serial

    def test_batch_scalar_query(self, files, flags, capsys):
        assert run(["batch", "count(//b)", *files, *flags]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert [line.split("\t")[1] for line in lines] == ["2", "0", "1"]

    def test_batch_isolates_parse_failure(self, files, flags, tmp_path, capsys):
        bad = tmp_path / "bad.xml"
        bad.write_text("<a><b>", encoding="utf-8")
        assert run(["batch", "//b", files[0], str(bad), files[2], *flags]) == 1
        captured = capsys.readouterr()
        assert len(captured.out.strip().splitlines()) == 2  # the good files
        assert "parse error" in captured.err

    def test_batch_limit_breach_exits_3_and_isolates(self, files, flags, capsys):
        big = files[0]
        assert run(["batch", "//b", *files, "--max-ops", "4", *flags]) in (1, 3)
        # Deterministic split whichever backend runs: the two-b file costs 12
        # tree ops (7 streamed), the empty one 6 (2 streamed) — a budget of 6
        # breaches exactly the first under both accountings.
        capsys.readouterr()
        code = run(["batch", "//b", big, files[1], "--max-ops", "6", *flags])
        captured = capsys.readouterr()
        assert code == 3
        assert "operation budget" in captured.err
        assert captured.out.strip().splitlines()  # sibling still reported

    def test_batch_missing_file_is_isolated(self, files, flags, capsys):
        assert run(["batch", "//b", files[0], "/nonexistent.xml", *flags]) == 1
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert len(captured.out.strip().splitlines()) == 1

    def test_batch_engine_flag(self, files, flags, capsys):
        assert run(["batch", "//b", *files, "--engine", "corexpath", *flags]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 3

    def test_batch_compiled_engine(self, files, flags, capsys):
        assert run(["batch", "//b", *files, "--engine", "compiled", *flags]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 3

    @pytest.mark.parametrize(
        "payload",
        ["<a>&#xZZ;</a>", "<a>&#x110000;</a>", "<a n='&#2;'/>"],
        ids=["malformed", "out-of-range", "illegal-in-attr"],
    )
    def test_batch_isolates_character_reference_failures(
        self, payload, files, flags, tmp_path, capsys
    ):
        # ISSUE-7 regression: these used to escape as raw ValueError,
        # crashing the whole batch instead of isolating one file (exit 1).
        bad = tmp_path / "bad-ref.xml"
        bad.write_text(payload, encoding="utf-8")
        assert run(["batch", "//b", files[0], str(bad), files[2], *flags]) == 1
        captured = capsys.readouterr()
        assert len(captured.out.strip().splitlines()) == 2  # the good files
        assert "error" in captured.err

    def test_batch_resolves_internal_subset_entities(self, flags, tmp_path, capsys):
        path = tmp_path / "dblp.xml"
        path.write_text(
            "<!DOCTYPE dblp [<!ENTITY uuml '&#252;'>]>"
            "<dblp><article>M&uuml;ller</article></dblp>",
            encoding="utf-8",
        )
        assert run(["batch", "//article", str(path), *flags]) == 0
        assert capsys.readouterr().out.strip()


class TestCliBatchFaults:
    """The batch subcommand under injected faults (ISSUE-6 satellite):
    worker crashes, hangs and cancellations drive the exit codes —
    4 = degraded success, 3 = limit breach, 1 = per-file failure."""

    @pytest.fixture
    def files(self, tmp_path):
        sources = ["<a><b/><b/></a>", "<a/>", "<a><b>x</b></a>"]
        paths = []
        for index, source in enumerate(sources):
            path = tmp_path / f"doc{index}.xml"
            path.write_text(source, encoding="utf-8")
            paths.append(str(path))
        return paths

    def test_recovered_crash_exits_4_with_fault_summary(
        self, files, capsys, monkeypatch
    ):
        # The env spec is inherited by worker processes — no plumbing.
        monkeypatch.setenv(
            "REPRO_FAULT_PLAN", "kill@chunk:index=0,max_attempt=1"
        )
        code = run(
            ["batch", "//b", *files, "--jobs", "2", "--backend", "process",
             "--retries", "2"]
        )
        captured = capsys.readouterr()
        assert code == 4  # every file succeeded, but recovery stepped in
        lines = captured.out.strip().splitlines()
        assert len(lines) == 3
        assert lines[0].endswith("2 node(s)")
        assert "# faults:" in captured.err

    def test_mixed_parse_failure_and_limit_breach_exits_3(
        self, files, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv(
            "REPRO_FAULT_PLAN", "kill@chunk:index=0,max_attempt=1"
        )
        bad = tmp_path / "bad.xml"
        bad.write_text("<a><b>", encoding="utf-8")
        code = run(
            ["batch", "//b", files[0], str(bad), files[1], "--max-ops", "6",
             "--jobs", "2", "--backend", "process", "--retries", "2"]
        )
        captured = capsys.readouterr()
        assert code == 3  # limit breach outranks plain failure and degraded
        assert "operation budget" in captured.err
        assert "parse error" in captured.err

    def test_deadline_converts_hang_to_limit_breach(
        self, files, capsys, monkeypatch
    ):
        monkeypatch.setenv(
            "REPRO_FAULT_PLAN", "hang@document:index=0,seconds=2.0"
        )
        code = run(
            ["batch", "//b", *files, "--jobs", "2", "--backend", "process",
             "--deadline", "0.4"]
        )
        captured = capsys.readouterr()
        assert code == 3
        assert "batch deadline" in captured.err

    def test_fail_fast_reports_cancelled_files(self, files, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_PLAN", "raise@document:index=0")
        code = run(["batch", "//b", *files, "--fail-fast"])
        captured = capsys.readouterr()
        assert code == 1
        assert "cancelled" in captured.err
        assert "InjectedFault" in captured.err
