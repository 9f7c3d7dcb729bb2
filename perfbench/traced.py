"""The traced run: per-layer times and counts around each module's public functions.

Nothing inside ``src/`` is instrumented. Spans are recorded here, around
the calls into each layer:

* harvest: ``harvest_into_store`` runs with its public helpers
  (``parse_listing_feed``, ``classify_payload``, ``unpack``,
  ``CorpusStore.save``) wrapped for the duration of the call;
* extraction: the stages of ``extract_document`` are replayed through their
  public functions, in the order it calls them, next to one
  ``extract_document`` call per document as the parent span;
* analysis: the subcommands run in-process with the ``stats`` and
  ``classify`` functions they call wrapped;
* the oracle: each ``partition_maximal_comments`` call.

Spans (name, start, end, parent) stay in memory and are written out at the
end. The tracing overhead is the replay's span count times the cost of one
span, measured against the same calls made without timers.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import time
from pathlib import Path

import corpus
import stages

# (name, unit) of every per-layer metric.
PER_LAYER = (
    ("harvest.parse_listing_feed.s", "s"),
    ("harvest.classify_payload.s", "s"),
    ("harvest.unpack.s", "s"),
    ("harvest.unpack.mb", "MB"),
    ("harvest.store_save.s", "s"),
    ("harvest.store_save.files", "count"),
    ("harvest.store_load.s", "s"),
    ("harvest.listing_retries", "count"),
    # seconds the harvester asked the fake sleep for: set by the server's
    # Retry-After values, not a measured duration
    ("harvest.backoff_requested_s", "s-requested"),
    ("harvest.failed", "count"),
    ("harvest.unsupported", "count"),
    ("lexer.tokenize.s", "s"),
    ("lexer.tokenize.mb_per_s", "MB/s"),
    ("lexer.tokens", "count"),
    ("lexer.detect_main_file.s", "s"),
    ("features.inline_sources.s", "s"),
    ("features.collect_words.s", "s"),
    ("features.extract_packages.s", "s"),
    ("features.extract_authors.s", "s"),
    ("features.extract_theorems.s", "s"),
    ("features.count_figures.s", "s"),
    ("features.extract_document.s", "s"),
    ("features.extract_document.mb_per_s", "MB/s"),
    ("features.replay_coverage", "ratio"),
    ("comments.extract_line_comments.s", "s"),
    ("comments.detect_ignore_macros.s", "s"),
    ("comments.extract_macro_comments.s", "s"),
    ("comments.macro_spans", "count"),
    ("comments.unbalanced", "count"),
    ("comments.partition.s", "s"),
    ("comments.partition.oracle_calls", "count"),
    ("comments.partition.us_per_call", "us"),
    ("cli.import_s", "s"),
    ("cli.extract.speedup", "ratio"),
    ("cli.extract.out_mb", "MB"),
    ("cli.read_features.s", "s"),
    ("cli.read_words.s", "s"),
    ("stats.summarize.s", "s"),
    ("stats.build_table.s", "s"),
    ("stats.build_table.words", "count"),
    ("stats.discriminative.s", "s"),
    ("stats.linear_trend.s", "s"),
    ("classify.train_classifier.s", "s"),
    ("classify.epochs_run", "count"),
    ("classify.evaluate.s", "s"),
    ("trace.overhead_s", "s"),
)
IMPORT_REPEATS = 5


class Tracer:
    """Spans kept in memory: (id, trace, name, start, end, parent)."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.stack: list[int] = []
        self.trace = ""
        self.totals: dict[str, float] = {}

    def call(self, name: str, fn, *args, **kwargs):
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append(None)
        self.stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans[sid] = (sid, self.trace, name, start, end, parent)
            self.totals[name] = self.totals.get(name, 0.0) + (end - start)

    def record(self, name: str, start: float, end: float) -> None:
        """A span timed elsewhere, under the current parent."""
        parent = self.stack[-1] if self.stack else None
        self.spans.append((len(self.spans), self.trace, name, start, end, parent))
        self.totals[name] = self.totals.get(name, 0.0) + (end - start)

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def total(self, name: str) -> float:
        return self.totals.get(name, 0.0)

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


class Untimed:
    """The same interface as Tracer, calling straight through."""

    @staticmethod
    def call(name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)


@contextlib.contextmanager
def wrapped(tracer: Tracer, targets: list[tuple]):
    """Replace attributes with traced wrappers for the duration of a block.

    Each target is (owner, attribute, span name) or, to count something
    about each call as well, (owner, attribute, span name, function) where
    the function stands in for the original and calls it itself.
    """
    saved = [(target[0], target[1], getattr(target[0], target[1])) for target in targets]
    try:
        for target, (owner, attr, original) in zip(targets, saved):
            fn = target[3] if len(target) > 3 else original
            setattr(owner, attr, tracer.wrap(target[2], fn))
        yield
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


# ---------------------------------------------------------------- harvest


def traced_harvest(tracer: Tracer, inputs: corpus.Inputs, store_dir: Path, add, tally: stages.Tally) -> None:
    from texcorpus import harvest as harvest_mod

    unpacked = [0, 0]  # bytes unpacked, files saved
    unpack = harvest_mod.unpack
    save = harvest_mod.CorpusStore.save

    def measured_unpack(*args, **kwargs):
        doc = unpack(*args, **kwargs)
        unpacked[0] += sum(len(data) for _, data in doc.files)
        return doc

    def measured_save(store, doc):
        unpacked[1] += len(doc.files)
        return save(store, doc)

    tracer.trace = "harvest"
    with wrapped(tracer, [
        (harvest_mod, "harvest_into_store", "harvest.harvest_into_store"),
        (harvest_mod, "parse_listing_feed", "harvest.parse_listing_feed"),
        (harvest_mod, "classify_payload", "harvest.classify_payload"),
        (harvest_mod, "unpack", "harvest.unpack", measured_unpack),
        (harvest_mod.CorpusStore, "save", "harvest.store_save", measured_save),
    ]):
        result = stages.harvest(inputs, store_dir)
    stages.check_harvest(inputs, store_dir, result, tally)
    for name in ("parse_listing_feed", "classify_payload", "unpack", "store_save"):
        add(f"harvest.{name}.s", tracer.total(f"harvest.{name}"))
    add("harvest.unpack.mb", unpacked[0] / 1e6)
    add("harvest.store_save.files", unpacked[1])
    add("harvest.listing_retries", result.server.listing_retries)
    add("harvest.backoff_requested_s", sum(result.server.sleeps))
    add("harvest.failed", sum(r.failed for r in result.reports))
    add("harvest.unsupported", sum(r.unsupported for r in result.reports))


# ---------------------------------------------------------------- extraction replay


def replay(t, store, doc_id: str) -> tuple[int, int, int, int]:
    """The stages of ``extract_document`` through their public functions, in its order.

    Returns (source characters, tokens, macro spans, unbalanced-brace
    diagnostics) of the assembled document.
    """
    from texcorpus.comments import comment_words, detect_ignore_macros, extract_line_comments, extract_macro_comments
    from texcorpus.features import (
        analyze_graphics,
        collect_words,
        count_figures,
        count_newcommands,
        extract_authors,
        extract_packages,
        extract_theorems,
        inline_sources,
    )
    from texcorpus.lexer import detect_main_file, tokenize

    doc = t.call("harvest.store_load", store.load, doc_id)
    main = doc.main_file or t.call("lexer.detect_main_file", detect_main_file, doc.files)
    diagnostics: list = []
    source = t.call("features.inline_sources", inline_sources, doc.texts(), main, diagnostics)
    tokens = t.call("lexer.tokenize", tokenize, source)
    line_spans = t.call("comments.extract_line_comments", extract_line_comments, source, tokens)
    ignore = t.call("comments.detect_ignore_macros", detect_ignore_macros, tokens)
    macro_spans = t.call("comments.extract_macro_comments", extract_macro_comments, source, tokens, ignore, diagnostics)
    exclude = sorted((span.start - 1, span.end) for span in macro_spans)
    t.call("features.collect_words", collect_words, tokens, exclude)
    t.call("comments.comment_words", comment_words, sorted(line_spans + macro_spans, key=lambda s: (s.start, s.end)))
    packages = t.call("features.extract_packages", extract_packages, source, tokens)
    t.call("features.analyze_graphics", analyze_graphics, tokens, packages)
    t.call("features.extract_theorems", extract_theorems, source, tokens)
    t.call("features.extract_authors", extract_authors, source, tokens)
    t.call("features.count_figures", count_figures, source, tokens)
    t.call("features.count_newcommands", count_newcommands, tokens)
    unbalanced = sum(1 for d in diagnostics if d.stage == "macro-comments")
    return len(source), len(tokens), len(macro_spans), unbalanced


REPLAYED = (
    "lexer.detect_main_file", "features.inline_sources", "lexer.tokenize",
    "comments.extract_line_comments", "comments.detect_ignore_macros",
    "comments.extract_macro_comments", "features.collect_words",
    "comments.comment_words", "features.extract_packages",
    "features.analyze_graphics", "features.extract_theorems",
    "features.extract_authors", "features.count_figures",
    "features.count_newcommands",
)


def traced_extraction(tracer: Tracer, store_dir: Path, shapes: dict[str, str], add, tally: stages.Tally) -> tuple[list, dict]:
    """Parent spans and the traced replay.

    Returns the extraction results and the ``extract_document`` seconds
    per document shape.
    """
    from texcorpus.features import extract_document
    from texcorpus.harvest import CorpusStore

    store = CorpusStore(store_dir)
    ids = store.ids()
    results = []
    failed = []
    source_bytes = 0
    by_shape: dict[str, float] = {}
    for doc_id in ids:
        doc = store.load(doc_id)
        tracer.trace = doc_id
        before = tracer.total("features.extract_document")
        try:
            results.append(tracer.call("features.extract_document", extract_document, doc))
            source_bytes += sum(len(data) for _, data in doc.files)
        except Exception as exc:  # noqa: BLE001 - one document's crash is counted, not fatal
            tally.error(f"extract_document {doc_id}: {exc!r}")
            failed.append(doc_id)
        shape = shapes[doc_id]
        by_shape[shape] = by_shape.get(shape, 0.0) + tracer.total("features.extract_document") - before
    tally.add("extract_document", ids, failed)

    counts = [0, 0, 0, 0]
    unreplayed = []
    spans_before = len(tracer.spans)
    for doc_id in ids:
        tracer.trace = doc_id
        try:
            counts = [a + b for a, b in zip(counts, replay(tracer, store, doc_id))]
        except Exception as exc:  # noqa: BLE001
            tally.error(f"replay {doc_id}: {exc!r}")
            unreplayed.append(doc_id)
    tally.add("replay", ids, unreplayed)
    replay_spans = len(tracer.spans) - spans_before

    parent = tracer.total("features.extract_document")
    tokenize_s = tracer.total("lexer.tokenize")
    for name in (
        "harvest.store_load", "lexer.tokenize", "lexer.detect_main_file",
        "features.inline_sources", "features.collect_words", "features.extract_packages",
        "features.extract_authors", "features.extract_theorems", "features.count_figures",
        "features.extract_document", "comments.extract_line_comments",
        "comments.detect_ignore_macros", "comments.extract_macro_comments",
    ):
        add(f"{name}.s", tracer.total(name))
    add("lexer.tokenize.mb_per_s", counts[0] / 1e6 / tokenize_s if tokenize_s else None)
    add("lexer.tokens", counts[1])
    add("comments.macro_spans", counts[2])
    add("comments.unbalanced", counts[3])
    add("features.extract_document.mb_per_s", source_bytes / 1e6 / parent if parent else None)
    add("features.replay_coverage", sum(tracer.total(n) for n in REPLAYED) / parent if parent else None)
    add("trace.overhead_s", replay_spans * span_cost_s())
    return results, by_shape


def span_cost_s(blocks: int = 7, calls: int = 20000) -> float:
    """Seconds one span adds to a call.

    Times ``Tracer.call`` and ``Untimed.call`` around the same no-op in
    alternating blocks and returns the median over block pairs of the
    difference per call. A whole replay cannot resolve this: a document's
    replay time varies by milliseconds between repeats, a span costs about
    a microsecond.
    """

    def noop() -> None:
        return None

    diffs = []
    for _ in range(blocks):
        tracer = Tracer()
        start = time.perf_counter()
        for _ in range(calls):
            tracer.call("noop", noop)
        timed = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            Untimed.call("noop", noop)
        diffs.append((timed - (time.perf_counter() - start)) / calls)
    return statistics.median(diffs)


# ---------------------------------------------------------------- analysis


def write_extraction(results: list, features: Path, words: Path) -> None:
    """The features and words files ``extract`` would write for these results."""
    from texcorpus.cli import FEATURES_SCHEMA, WORDS_SCHEMA, NdjsonWriter, feature_record

    with NdjsonWriter(features, FEATURES_SCHEMA) as out:
        for result in results:
            out.write(feature_record(result.features))
    with NdjsonWriter(words, WORDS_SCHEMA) as out:
        for result in results:
            out.write({"doc_id": result.features.doc_id, "words": result.text_words, "comment_words": result.comment_words})


def traced_analysis(tracer: Tracer, features: Path, words: Path, out_dir: Path, add, tally: stages.Tally) -> None:
    from texcorpus import classify as classify_mod
    from texcorpus import cli

    tracer.trace = "analysis"
    tracer.call("cli.read_features", cli.read_features, features)
    tracer.call("cli.read_words", cli.read_ndjson, words, cli.WORDS_SCHEMA)
    fed = [0]
    epochs = [0]
    build_table = cli.build_table
    train = classify_mod.train_classifier

    def counted_build_table(words_in, *args, **kwargs):
        def counting():
            for word in words_in:
                fed[0] += 1
                yield word

        return build_table(counting(), *args, **kwargs)

    def counted_train(*args, **kwargs):
        model = train(*args, **kwargs)
        epochs[0] += model.epochs_run
        return model

    with wrapped(tracer, [
        (cli, "summarize", "stats.summarize"),
        (cli, "build_table", "stats.build_table", counted_build_table),
        (cli, "discriminative", "stats.discriminative"),
        (cli, "linear_trend", "stats.linear_trend"),
        (classify_mod, "train_classifier", "classify.train_classifier", counted_train),
        (classify_mod, "evaluate", "classify.evaluate"),
    ]), contextlib.redirect_stderr(io.StringIO()):
        for _, argv in stages.analysis_commands(features, words, out_dir):
            command = argv[argv.index("texcorpus.cli") + 1 :]
            code = tracer.call(f"cli.{command[0]}", cli.main, command)
            if code != 0:
                tally.error(f"{command[0]} in-process: exit {code}")
            tally.one(f"{command[0]} in-process", code == 0)
    for name in (
        "cli.read_features", "cli.read_words", "stats.summarize", "stats.build_table",
        "stats.discriminative", "stats.linear_trend", "classify.train_classifier", "classify.evaluate",
    ):
        add(f"{name}.s", tracer.total(name))
    add("stats.build_table.words", fed[0])
    add("classify.epochs_run", epochs[0])


# ---------------------------------------------------------------- run


def traced_run(args, work: Path, src: Path, out_dir: Path):
    samples = stages.Samples()
    units = dict(PER_LAYER)
    tally = stages.Tally()
    tracer = Tracer()

    def add(name: str, value) -> None:
        samples.add(name, value, units[name])

    inputs = corpus.generate(args.workload, args.seed)
    store_dir = work / "store"
    traced_harvest(tracer, inputs, store_dir, add, tally)

    env = stages.child_env(src)
    log = work / "children.log"
    from texcorpus.harvest import CorpusStore

    docs = {doc.id: doc for doc in inputs.valid_docs()}
    stored = CorpusStore(store_dir).ids()
    extracted = stages.extract_both(store_dir, work, docs, stored, env, log, tally)
    runs = extracted.runs
    add("cli.extract.speedup", runs[1].seconds / runs[stages.JOBS_N].seconds)
    add("cli.extract.out_mb", sum((extracted.outs[1] / name).stat().st_size for name in stages.EXTRACT_OUTPUTS if (extracted.outs[1] / name).exists()) / 1e6)
    imports = [stages.run_child([stages.cli()[0], "-c", "import texcorpus.cli"], env, log).seconds for _ in range(IMPORT_REPEATS)]
    add("cli.import_s", statistics.median(imports))

    shapes = {doc.id: doc.shape for doc in inputs.valid_docs()}
    results, by_shape = traced_extraction(tracer, store_dir, shapes, add, tally)
    features, words = work / "replay-features.ndjson", work / "replay-words.ndjson"
    write_extraction(results, features, words)
    if runs[1].code == 0:
        # the replay's parent spans must reproduce what the CLI wrote
        for mine, cli_out in ((features, "features.ndjson"), (words, "words.ndjson")):
            same = mine.read_bytes() == (extracted.outs[1] / cli_out).read_bytes()
            if not same:
                tally.wrong_output(f"extract_document output differs from the CLI's {cli_out}")
            tally.one("replay-matches-cli", same)
    traced_analysis(tracer, features, words, work / "analysis", add, tally)

    tracer.trace = "oracle"
    strings = inputs.oracle_strings
    times, partitions, calls = stages.partition_all(strings)
    stages.check_partition(strings, partitions, calls, partitions, tally)
    by_length = {}
    for s, (start, end) in zip(strings, times):
        tracer.record("comments.partition", start, end)
        by_length[len(s)] = end - start
    add("comments.partition.s", tracer.total("comments.partition"))
    add("comments.partition.oracle_calls", sum(calls))
    add("comments.partition.us_per_call", tracer.total("comments.partition") / sum(calls) * 1e6)

    tracer.write(out_dir / f"spans-{args.workload}-seed{args.seed}.ndjson")
    extra = {
        "spans": len(tracer.spans),
        "words_written": sum(len(r.text_words) + len(r.comment_words) for r in results),
        "extract_document_s_by_shape": by_shape,
        "partition_s_by_length": by_length,
    }
    return samples, tally, inputs, extra
