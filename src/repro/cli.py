"""Command-line interface: evaluate and explain XPath queries on XML files.

Usage::

    python -m repro.cli QUERY [FILE] [--engine NAME] [--classify] [--stats]
                        [--stream] [--max-ops N] [--max-nodes N] [--timeout S]
    python -m repro.cli explain QUERY [FILE] [--engine NAME] [--plan-only]
    python -m repro.cli batch QUERY FILE [FILE ...] [--jobs N]
                        [--backend thread|process] [--stream] [--count]
                        [--retries N] [--deadline S] [--fail-fast]
    python -m repro.cli store build STORE FILE [FILE ...]
    python -m repro.cli store info STORE
    python -m repro.cli store query QUERY STORE [--jobs N] [--backend B] ...
    python -m repro.cli serve STORE [--host H] [--port P] [--tenants FILE]
                        [--max-queue N] [--max-concurrency N] [--deadline S]
    python -m repro.cli edit SCRIPT [FILE] [--query QUERY] [--engine NAME]
                        [--stats]

The first form reads the XML document from FILE (or stdin when omitted),
evaluates QUERY through the default session and prints the result: one line
per node for node-set results (element name, document-order position and
string value), or the scalar value otherwise.  The ``explain`` subcommand
prints the query's plan / fragment / engine decision instead — with a
document it also evaluates and reports counters and timing; with
``--plan-only`` it stops after compilation and needs no document.

``--stream`` evaluates streamable queries (forward downward axes,
start-event-decidable predicates) in a single pass over the input without
building a tree, printing one ``order<TAB>label<TAB>value`` line per match;
non-streamable queries silently fall back to the tree engine with the same
output shape.

The ``batch`` subcommand evaluates one query over *many* files as a source
collection: the plan is compiled once, each file is one isolated batch
entry (parsed — or streamed, with ``--stream`` — one at a time, so the
corpus is never resident as trees), and ``--jobs N`` fans the files out
over N parallel workers (``--backend process`` for CPU-bound scaling; the
default is the thread backend).  One summary line is printed per file;
per-file failures are reported inline and turn the exit code to 1 without
stopping the batch.

Resource limits (``--max-ops``, ``--max-nodes``, ``--timeout``) abort
over-budget evaluations with exit code 3 (per file, in ``batch``).

``batch`` is fault tolerant: a worker that dies mid-batch has its files
retried (``--retries N``, default 2) and, as a last resort, re-evaluated
serially in-process; ``--deadline S`` bounds the whole batch's wall clock,
failing (not stalling on) files that run past it; ``--fail-fast`` stops at
the first failed file and reports the rest as cancelled.  A batch whose
files all succeeded but which needed fault recovery prints a ``# faults:``
summary to stderr and exits with code 4 (degraded success) — distinct from
0 (clean), 1 (per-file failures), 2 (I/O error) and 3 (limit breach).

The ``store`` subcommands manage persistent document stores — the on-disk
columnar form of the pre/post accelerator arrays.  ``store build`` parses
XML files once and serialises them into one store file; ``store info``
prints the store's header summary and verifies every checksum; ``store
query`` evaluates a query over the stored documents, rebuilding each tree
from the memory-mapped columns instead of re-parsing, with the same
per-document isolation, parallelism flags, output shape and exit codes as
``batch``.  A corrupt or truncated store is a positioned error (exit code
1), never a crash.

The ``edit`` subcommand applies a JSON edit script (an array of op
objects — ``insert``, ``remove``, ``rename``, ``set_text``,
``set_attribute``; targets are document orders in the evolving document)
to an XML document and prints the edited document as XML.  With
``--query`` it evaluates the query against the *edited* document and
prints the result instead — exercising the incremental index-repair path
rather than a reparse.  ``--stats`` reports the mutation counters (edits
applied, incremental index repairs) on stderr.

A first argument of ``explain``, ``batch``, ``store``, ``serve`` or
``edit`` selects the subcommand; to *evaluate* a query literally so
named, put ``--`` in front of it (``python -m repro.cli -- explain
doc.xml``).

Examples::

    python -m repro.cli "count(//item)" data.xml
    python -m repro.cli "//book[price < 60]/title" catalog.xml --engine corexpath
    python -m repro.cli "//a//a//a" huge.xml --engine naive --timeout 2.5
    python -m repro.cli explain "//book[price < 60]" catalog.xml
    python -m repro.cli explain "//a/b[child::c]" --plan-only
    python -m repro.cli batch "//item[@id]" a.xml b.xml c.xml --jobs 4
    python -m repro.cli store build corpus.reproxs a.xml b.xml c.xml
    python -m repro.cli store query "//item[@id]" corpus.reproxs --jobs 4
    python -m repro.cli edit edits.json doc.xml --query "count(//item)" --stats
    echo "<a><b/></a>" | python -m repro.cli "//b" --classify --stats
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .api import DEFAULT_ENGINE, default_session, engine_names
from .engines.base import EvalLimits
from .errors import BatchAborted, ReproError, ResourceLimitExceeded, XMLSyntaxError
from .parallel import BACKENDS
from .xmlmodel.parser import parse_xml
from .xmlmodel.serializer import serialize_node
from .xpath.values import NodeSet, ValueType, to_string


_ENGINE_HELP = (
    f"evaluation engine (default: {DEFAULT_ENGINE}; 'auto' picks 'compiled' "
    "for compilable queries, else by fragment)"
)


def _add_common_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("query", help="the XPath query")
    parser.add_argument(
        "file",
        nargs="?",
        help="XML input file (reads standard input when omitted)",
    )
    parser.add_argument(
        "--engine",
        default=None,
        choices=sorted(engine_names()) + ["auto"],
        help=_ENGINE_HELP,
    )
    parser.add_argument(
        "--max-ops",
        type=int,
        default=None,
        metavar="N",
        help="abort evaluation after N counted operations (exit code 3)",
    )
    parser.add_argument(
        "--max-nodes",
        type=int,
        default=None,
        metavar="N",
        help="abort when a node-set result exceeds N nodes (exit code 3)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="abort evaluation after this wall-clock budget (exit code 3)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-xpath",
        description="Evaluate an XPath 1.0 query against an XML document.",
    )
    _add_common_arguments(parser)
    parser.add_argument(
        "--classify",
        action="store_true",
        help="print the query's Figure-1 fragment and recommended engine",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print the engine's operation counters after evaluation",
    )
    parser.add_argument(
        "--xml",
        action="store_true",
        help="print node-set results as serialised XML instead of summaries",
    )
    parser.add_argument(
        "--stream",
        action="store_true",
        help="evaluate in a single pass over the input without building a "
        "tree (streamable queries only; others parse and fall back to the "
        "tree engine); prints order, label and textual value per match "
        "(--xml does not apply)",
    )
    return parser


def build_explain_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-xpath explain",
        description="Explain how a query would be (or was) evaluated: "
        "normalised form, Figure-1 fragment, chosen engine, cache state, "
        "operation counters and timing.",
    )
    _add_common_arguments(parser)
    parser.add_argument(
        "--plan-only",
        action="store_true",
        help="stop after plan compilation (no document needed, no evaluation)",
    )
    return parser


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1 (got {value})")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0 (got {value})")
    return value


def build_batch_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-xpath batch",
        description="Evaluate one XPath query over many XML files as a "
        "collection: the plan is compiled once, every file is an isolated "
        "batch entry, and --jobs fans the files out over parallel workers.",
    )
    parser.add_argument("query", help="the XPath query")
    parser.add_argument(
        "files", nargs="+", metavar="FILE", help="XML input files (one batch entry each)"
    )
    parser.add_argument(
        "--engine",
        default=None,
        choices=sorted(engine_names()) + ["auto"],
        help=_ENGINE_HELP,
    )
    parser.add_argument(
        "--jobs",
        type=_positive_int,
        default=None,
        metavar="N",
        help="evaluate the files on N parallel workers (default: serial)",
    )
    parser.add_argument(
        "--backend",
        default=None,
        choices=list(BACKENDS),
        help="worker backend for --jobs (default: thread; "
        "process scales CPU-bound batches across cores)",
    )
    parser.add_argument(
        "--stream",
        action="store_true",
        help="stream streamable queries in a single pass per file (zero "
        "trees in memory); non-streamable queries parse one file at a time",
    )
    parser.add_argument(
        "--max-ops", type=int, default=None, metavar="N",
        help="per-file operation budget (breaches fail the file, exit code 3)",
    )
    parser.add_argument(
        "--max-nodes", type=int, default=None, metavar="N",
        help="per-file cap on node-set result size",
    )
    parser.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-file wall-clock budget",
    )
    parser.add_argument(
        "--retries", type=_nonnegative_int, default=None, metavar="N",
        help="resubmit a chunk lost to a dead worker up to N times before "
        "degrading it to serial in-process evaluation (default: 2)",
    )
    parser.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget for the whole batch: files still running at "
        "the deadline fail individually with a limit error (exit code 3) "
        "instead of stalling the batch",
    )
    parser.add_argument(
        "--fail-fast", action="store_true",
        help="stop after the first failed file; remaining files are "
        "reported as cancelled",
    )
    return parser


def build_store_build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-xpath store build",
        description="Parse XML files once and serialise them into a "
        "persistent store file (columnar, mmap-able).  Later runs open the "
        "store and query it without re-parsing.",
    )
    parser.add_argument("store", help="store file to create")
    parser.add_argument(
        "files", nargs="+", metavar="FILE", help="XML input files (one document each)"
    )
    parser.add_argument(
        "--strip-whitespace",
        action="store_true",
        help="drop whitespace-only text nodes while parsing",
    )
    return parser


def build_store_info_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-xpath store info",
        description="Print a store file's header summary and verify every "
        "checksum (header, table of contents, per-document blocks, full "
        "payload).  Damage is reported with its file offset.",
    )
    parser.add_argument("store", help="store file to inspect")
    return parser


def build_store_query_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-xpath store query",
        description="Evaluate one XPath query over every document of a "
        "persistent store.  The file is memory-mapped, not parsed; each "
        "document's tree is rebuilt from its columns at most once, when the "
        "query first reaches it.  Output shape and exit codes match 'batch'.",
    )
    parser.add_argument("query", help="the XPath query")
    parser.add_argument("store", help="store file to query")
    parser.add_argument(
        "--engine",
        default=None,
        choices=sorted(engine_names()) + ["auto"],
        help=_ENGINE_HELP,
    )
    parser.add_argument(
        "--jobs",
        type=_positive_int,
        default=None,
        metavar="N",
        help="evaluate the documents on N parallel workers (default: serial)",
    )
    parser.add_argument(
        "--backend",
        default=None,
        choices=list(BACKENDS),
        help="worker backend for --jobs (process workers reopen the store "
        "by path — the documents are never pickled)",
    )
    parser.add_argument(
        "--max-ops", type=int, default=None, metavar="N",
        help="per-document operation budget (breaches fail the document)",
    )
    parser.add_argument(
        "--max-nodes", type=int, default=None, metavar="N",
        help="per-document cap on node-set result size",
    )
    parser.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-document wall-clock budget",
    )
    parser.add_argument(
        "--retries", type=_nonnegative_int, default=None, metavar="N",
        help="resubmit a chunk lost to a dead worker up to N times",
    )
    parser.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget for the whole batch",
    )
    parser.add_argument(
        "--fail-fast", action="store_true",
        help="stop after the first failed document",
    )
    return parser


def build_edit_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-xpath edit",
        description="Apply a JSON edit script to an XML document and print "
        "the edited document (or, with --query, evaluate a query against "
        "the edited document through the incremental index-repair path).  "
        "A script is a JSON array of op objects: {\"op\": \"rename\", "
        "\"target\": 3, \"name\": \"b\"} — targets are document orders in "
        "the evolving document, so ops apply strictly in order.",
    )
    parser.add_argument(
        "script",
        help="JSON edit-script file ('-' reads the script from stdin; the "
        "XML must then come from FILE)",
    )
    parser.add_argument(
        "file",
        nargs="?",
        help="XML input file (reads standard input when omitted)",
    )
    parser.add_argument(
        "--query",
        default=None,
        metavar="QUERY",
        help="after editing, evaluate this XPath query against the edited "
        "document and print its result instead of the document",
    )
    parser.add_argument(
        "--engine",
        default=None,
        choices=sorted(engine_names()) + ["auto"],
        help=f"evaluation engine for --query (default: {DEFAULT_ENGINE})",
    )
    parser.add_argument(
        "--xml",
        action="store_true",
        help="with --query, print node-set results as serialised XML",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print mutation counters (edits, index repairs) on stderr",
    )
    return parser


def _limits_from_args(args: argparse.Namespace) -> Optional[EvalLimits]:
    if args.max_ops is None and args.max_nodes is None and args.timeout is None:
        return None
    return EvalLimits(
        max_result_nodes=args.max_nodes,
        max_operations=args.max_ops,
        timeout_seconds=args.timeout,
    )


def _read_source(args: argparse.Namespace, stdin: Optional[str]) -> str:
    if args.file:
        with open(args.file, "r", encoding="utf-8") as handle:
            return handle.read()
    return stdin if stdin is not None else sys.stdin.read()


def _read_document(args: argparse.Namespace, stdin: Optional[str]):
    return parse_xml(_read_source(args, stdin))


def _print_classification(info) -> None:
    print(f"fragment:  {info.fragment.value}")
    print(f"engine:    {info.recommended_engine}")
    print(f"bound:     {info.complexity}")
    print(f"streaming: {'yes' if info.streamable else 'no'}")
    for violation in info.wadler_violations:
        print(f"           {violation}")


def _print_stats(stats) -> None:
    print("-- stats --", file=sys.stderr)
    for name, count in stats.as_dict().items():
        if count:
            print(f"{name}: {count}", file=sys.stderr)


def run(argv: Optional[Sequence[str]] = None, stdin: Optional[str] = None) -> int:
    """Entry point; returns the process exit code (0 on success)."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "explain":
        return _run_explain(list(argv[1:]), stdin)
    if argv and argv[0] == "batch":
        return _run_batch(list(argv[1:]))
    if argv and argv[0] == "store":
        return _run_store(list(argv[1:]))
    if argv and argv[0] == "serve":
        return _run_serve(list(argv[1:]))
    if argv and argv[0] == "edit":
        return _run_edit(list(argv[1:]), stdin)
    return _run_evaluate(list(argv), stdin)


def _run_evaluate(argv: Sequence[str], stdin: Optional[str]) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    try:
        session = default_session()
        requested = args.engine if args.engine is not None else DEFAULT_ENGINE
        limits = _limits_from_args(args)

        if args.stream:
            source = _read_source(args, stdin)
            plan = session.compile(args.query, engine=requested)
            if plan.streamable or plan.static_type is ValueType.NODE_SET:
                matches = session.stream(plan, source, limits=limits)
                if args.classify:
                    _print_classification(matches.plan.classification)
                for match in matches:
                    print(f"{match.order}\t{match.label}\t{match.value or ''}")
                if args.stats and matches.stats is not None:
                    _print_stats(matches.stats)
                return 0
            # Scalar queries cannot stream; fall back to the ordinary
            # evaluate-and-print path on the already-read source.
            document = parse_xml(source)
        else:
            document = _read_document(args, stdin)
        result = session.run(args.query, document, engine=requested, limits=limits)

        if args.classify:
            _print_classification(result.classification)

        _print_value(result.value, as_xml=args.xml)

        if args.stats:
            _print_stats(result.stats)
        return 0
    except ResourceLimitExceeded as error:
        print(f"limit exceeded: {error}", file=sys.stderr)
        return 3
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


def _run_explain(argv: Sequence[str], stdin: Optional[str]) -> int:
    parser = build_explain_parser()
    args = parser.parse_args(argv)

    try:
        session = default_session()
        requested = args.engine if args.engine is not None else DEFAULT_ENGINE
        limits = _limits_from_args(args)

        if args.plan_only:
            print(session.explain(args.query, engine=requested, limits=limits))
            return 0

        document = _read_document(args, stdin)
        print(
            session.explain(
                args.query, document, engine=requested, limits=limits
            )
        )
        return 0
    except ResourceLimitExceeded as error:
        print(f"limit exceeded: {error}", file=sys.stderr)
        return 3
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


def _run_edit(argv: Sequence[str], stdin: Optional[str]) -> int:
    import json

    from .workloads.edits import apply_script, script_from_json

    parser = build_edit_parser()
    args = parser.parse_args(argv)

    try:
        if args.script == "-":
            if args.file is None:
                print(
                    "error: with SCRIPT '-', the XML must come from FILE",
                    file=sys.stderr,
                )
                return 2
            script_text = stdin if stdin is not None else sys.stdin.read()
        else:
            with open(args.script, "r", encoding="utf-8") as handle:
                script_text = handle.read()
        script = script_from_json(json.loads(script_text))

        session = default_session()
        document = session.watch(_read_document(args, stdin))
        applied = apply_script(document, script)

        if args.query is not None:
            requested = args.engine if args.engine is not None else DEFAULT_ENGINE
            result = session.run(args.query, document, engine=requested)
            _print_value(result.value, as_xml=args.xml)
        else:
            print(serialize_node(document.root))
        if args.stats:
            print(f"# edits applied: {applied}", file=sys.stderr)
            _print_stats(session.stats)
        return 0
    except json.JSONDecodeError as error:
        print(f"error: invalid edit script: {error}", file=sys.stderr)
        return 1
    except (ValueError, TypeError, IndexError) as error:
        # The edit API's validation errors: unknown op, bad target order,
        # text beside text, removing the root, ... — user input, exit 1.
        print(f"error: {error}", file=sys.stderr)
        return 1
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


def _run_batch(argv: Sequence[str]) -> int:
    parser = build_batch_parser()
    args = parser.parse_args(argv)

    session = default_session()
    requested = args.engine if args.engine is not None else DEFAULT_ENGINE
    limits = _limits_from_args(args)

    # Per-file isolation starts at reading; parsing happens inside the batch
    # (one tree per worker at a time, zero when streaming), where a
    # malformed file fails only its own entry.
    sources, names, failures = [], [], {}
    for path in args.files:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                sources.append(handle.read())
            names.append(path)
        except OSError as error:
            failures[path] = f"error: {error}"

    results = {}
    limit_breached = False
    degraded = False
    if sources:
        collection = session.stream_collection(sources, names=names)
        # --jobs/--backend imply parallel; with neither the batch is serial
        # (resolve_executor's parallel=None semantics).  --stream prefers
        # the single-pass backend for streamable queries.
        batch = collection.evaluate(
            args.query,
            engine=requested,
            limits=limits,
            stream=args.stream,
            max_workers=args.jobs,
            backend=args.backend,
            deadline=args.deadline,
            fail_fast=args.fail_fast,
            retries=args.retries,
        )
        degraded = batch.failure_report is not None
        for result in batch:
            if not result.ok:
                limit_breached |= isinstance(result.error, ResourceLimitExceeded)
                if isinstance(result.error, XMLSyntaxError):
                    prefix = "parse error"
                elif isinstance(result.error, BatchAborted):
                    prefix = "cancelled"
                else:
                    prefix = "error"
                failures[result.name] = f"{prefix}: {result.error}"
            elif result.matches is not None:
                results[result.name] = f"{len(result.matches)} node(s)"
            else:
                results[result.name] = to_string(result.value)
        if degraded:
            print(f"# faults: {batch.failure_report.summary()}", file=sys.stderr)

    for path in args.files:
        if path in failures:
            print(f"{path}\t{failures[path]}", file=sys.stderr)
        else:
            print(f"{path}\t{results[path]}")
    if failures:
        return 3 if limit_breached else 1
    return 4 if degraded else 0


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-xpath serve",
        description="Serve a document store over HTTP/JSON: per-tenant "
        "sessions (own plan cache and limits), one shared read-only store "
        "mapping, one shared process pool for /batch, and a bounded "
        "request queue for backpressure (429 when full).  SIGTERM drains "
        "in-flight requests before exiting.",
    )
    parser.add_argument("store", help="store file to serve (see 'store build')")
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=8300, help="bind port (0 for ephemeral)"
    )
    parser.add_argument(
        "--tenants", default=None, metavar="FILE",
        help="JSON tenants file: a list of {name, limits, cache_size, "
        "engine} objects (default: one unrestricted 'default' tenant)",
    )
    parser.add_argument(
        "--max-queue", type=_nonnegative_int, default=64, metavar="N",
        help="admitted requests that may wait behind the running ones "
        "before new arrivals get 429 (default: 64)",
    )
    parser.add_argument(
        "--max-concurrency", type=_positive_int, default=8, metavar="N",
        help="evaluations running at once (default: 8)",
    )
    parser.add_argument(
        "--max-ops", type=int, default=None, metavar="N",
        help="default per-query operation budget for every tenant without "
        "explicit limits",
    )
    parser.add_argument(
        "--max-nodes", type=int, default=None, metavar="N",
        help="default per-query cap on node-set result size",
    )
    parser.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="default per-query wall-clock budget",
    )
    parser.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="default per-request deadline (maps breaches to 408)",
    )
    parser.add_argument(
        "--drain-grace", type=float, default=5.0, metavar="SECONDS",
        help="how long SIGTERM waits for in-flight requests (default: 5)",
    )
    return parser


def _run_serve(argv: Sequence[str]) -> int:
    from .server import ServerConfig, TenantConfig, load_tenants, serve

    parser = build_serve_parser()
    args = parser.parse_args(argv)
    try:
        if args.tenants is not None:
            tenants = load_tenants(args.tenants)
        else:
            limits = _limits_from_args(args)
            tenants = (
                (TenantConfig(name="default", limits=limits),)
                if limits is not None else ()
            )
        config = ServerConfig(
            store_path=args.store,
            host=args.host,
            port=args.port,
            tenants=tenants,
            max_queue=args.max_queue,
            max_concurrency=args.max_concurrency,
            default_deadline=args.deadline,
            drain_grace=args.drain_grace,
        )
        serve(config)
        return 0
    except (ValueError, ReproError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:  # pragma: no cover - interactive stop
        return 0


def _run_store(argv: Sequence[str]) -> int:
    if not argv or argv[0] not in ("build", "info", "query"):
        print(
            "usage: repro-xpath store {build,info,query} ...", file=sys.stderr
        )
        return 2
    action, rest = argv[0], list(argv[1:])
    try:
        if action == "build":
            return _run_store_build(build_store_build_parser().parse_args(rest))
        if action == "info":
            return _run_store_info(build_store_info_parser().parse_args(rest))
        return _run_store_query(build_store_query_parser().parse_args(rest))
    except ResourceLimitExceeded as error:
        print(f"limit exceeded: {error}", file=sys.stderr)
        return 3
    except ReproError as error:
        # Includes StoreCorruptError: a damaged store file is a positioned
        # diagnostic (path, document, offset), never a traceback.
        print(f"error: {error}", file=sys.stderr)
        return 1
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


def _run_store_build(args: argparse.Namespace) -> int:
    from .store import DocumentStore

    documents = []
    for path in args.files:
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
        try:
            documents.append(
                parse_xml(source, strip_whitespace=args.strip_whitespace)
            )
        except XMLSyntaxError as error:
            # The store is one artifact: a malformed input fails the build
            # (unlike 'batch', there is no per-file result to isolate into).
            print(f"parse error: {path}: {error}", file=sys.stderr)
            return 1
    store = DocumentStore.build(args.store, documents, names=list(args.files))
    try:
        info = store.info()
        print(
            f"{args.store}\t{info['documents']} document(s), "
            f"{info['nodes']} node(s), {info['file_bytes']} bytes"
        )
    finally:
        store.close()
    return 0


def _run_store_info(args: argparse.Namespace) -> int:
    from .store import DocumentStore

    with DocumentStore.open(args.store) as store:
        info = store.info()
        for key in ("path", "version", "file_bytes", "documents", "nodes",
                    "strings", "string_blob_bytes"):
            print(f"{key}: {info[key]}")
        store.verify()  # raises a positioned StoreCorruptError on damage
        print("checksums: ok")
        for position, document in enumerate(store.documents):
            name = document.name if document.name is not None else f"doc[{position}]"
            print(f"  [{position}] {name}: {document.node_count} node(s)")
    return 0


def _run_store_query(args: argparse.Namespace) -> int:
    from .store import DocumentStore, StoredCollection

    session = default_session()
    requested = args.engine if args.engine is not None else DEFAULT_ENGINE
    limits = _limits_from_args(args)

    with DocumentStore.open(args.store) as store:
        collection = StoredCollection(store, session=session)
        batch = collection.evaluate(
            args.query,
            engine=requested,
            limits=limits,
            max_workers=args.jobs,
            backend=args.backend,
            deadline=args.deadline,
            fail_fast=args.fail_fast,
            retries=args.retries,
        )
        degraded = batch.failure_report is not None
        limit_breached = False
        failed = False
        for result in batch:
            if not result.ok:
                failed = True
                limit_breached |= isinstance(result.error, ResourceLimitExceeded)
                prefix = (
                    "cancelled" if isinstance(result.error, BatchAborted) else "error"
                )
                print(f"{result.name}\t{prefix}: {result.error}", file=sys.stderr)
            elif isinstance(result.value, NodeSet):
                print(f"{result.name}\t{len(result.value)} node(s)")
            else:
                print(f"{result.name}\t{to_string(result.value)}")
        if degraded:
            print(f"# faults: {batch.failure_report.summary()}", file=sys.stderr)
    if failed:
        return 3 if limit_breached else 1
    return 4 if degraded else 0


def _print_value(value, *, as_xml: bool) -> None:
    if isinstance(value, NodeSet):
        for node in value:
            if as_xml and (node.is_element or node.is_root):
                print(serialize_node(node))
            else:
                label = node.name if node.name is not None else node.node_type.value
                print(f"{node.order}\t{label}\t{node.string_value()}")
        return
    print(to_string(value))


def main() -> None:  # pragma: no cover - thin wrapper
    sys.exit(run())


if __name__ == "__main__":  # pragma: no cover
    main()
