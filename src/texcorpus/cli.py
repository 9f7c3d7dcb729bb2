"""Command-line interface.

Subcommands mirror the pipeline: harvest a corpus, extract features and
comments, then compute summaries, discriminative vocabularies, trends, or
train the classifier. All file outputs are deterministic: fixed field
order, compact JSON, newline-delimited records with a schema line first,
CSV fully quoted with LF line endings. Exit codes: 0 success, 1 internal
error, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import re
import reprlib
import sys
from collections.abc import Iterable, Iterator
from contextlib import ExitStack
from dataclasses import fields
from functools import partial
from itertools import chain
from operator import attrgetter
from pathlib import Path

from .errors import Diagnostic, TexcorpusError
from .records import FeatureVector, iso_date

FEATURES_SCHEMA = "texcorpus.features"
COMMENTS_SCHEMA = "texcorpus.comments"
WORDS_SCHEMA = "texcorpus.words"
STATS_SCHEMA = "texcorpus.stats"
DISCRIMINATIVE_SCHEMA = "texcorpus.discriminative"
TRENDS_SCHEMA = "texcorpus.trends"
CLASSIFY_SCHEMA = "texcorpus.classification"


class UsageError(TexcorpusError):
    """Bad arguments or unusable input files."""


def _dump(obj: dict) -> str:
    return json.dumps(obj, separators=(",", ":"), ensure_ascii=False)


def _cannot_write(path: str | Path, exc: OSError) -> UsageError:
    return UsageError(f"cannot write {path}: {exc.strerror or exc}")


class NdjsonWriter:
    """Newline-delimited JSON with a schema record on the first line.

    The file is written whole or not at all. Records go to a temporary
    file beside the target; leaving the ``with`` block moves it onto the
    target, or deletes it when the block raised, so the target is never
    left truncated. A target that exists but is not a regular file, such
    as ``/dev/null``, cannot be replaced and is written in place. A target
    that cannot be written is a usage error naming it.
    """

    def __init__(self, path: str | Path, schema_name: str):
        target = Path(path).resolve()
        if target.is_dir():
            raise UsageError(f"cannot write {path}: Is a directory")
        if target.exists() and not target.is_file():
            self._target = None
            written = target
        else:
            self._target = target
            written = target.with_name(f".{target.name}.{os.getpid()}.tmp")
        try:
            self._handle = open(written, "w", encoding="utf-8", newline="\n")
        except OSError as exc:
            raise _cannot_write(path, exc) from exc
        self.write({"record": "schema", "name": schema_name, "version": 1})

    def write(self, obj: dict) -> None:
        self._handle.write(_dump(obj) + "\n")

    def write_lines(self, text: str) -> None:
        """Append records already serialized as finished lines."""
        self._handle.write(text)

    def close(self) -> None:
        """Finish the file: move what was written onto the target."""
        try:
            self._handle.close()
            if self._target is not None:
                os.replace(self._handle.name, self._target)
        except BaseException:
            self._discard()
            raise

    def _discard(self) -> None:
        """Drop what was written; the target is left as it was."""
        self._handle.close()
        if self._target is not None:
            Path(self._handle.name).unlink(missing_ok=True)

    def __enter__(self) -> "NdjsonWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self._discard()


def _json_object(line: str, where: str) -> dict:
    try:
        value = json.loads(line)
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
        raise UsageError(f"{where}: bad JSON") from exc
    if not isinstance(value, dict):
        raise UsageError(f"{where}: not a JSON object")
    return value


def _text_lines(
    handle: Iterable[bytes], path: str | Path
) -> Iterator[tuple[str, str]]:
    """Yield ("path:line", text) for each line of a binary handle.

    Lines are decoded one by one, so a decoding error names its own line.
    """
    for lineno, raw in enumerate(handle, start=1):
        where = f"{path}:{lineno}"
        try:
            yield where, raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise UsageError(f"{where}: not UTF-8 text") from exc


def _numbered_records(
    path: str | Path, schema_name: str
) -> Iterator[tuple[str, dict]]:
    """Yield ("path:line", record) for each record, checking the schema line."""
    try:
        handle = open(path, "rb")
    except OSError as exc:
        raise UsageError(f"cannot open {path}: {exc}") from exc
    with handle:
        lines = _text_lines(handle, path)
        where, first = next(lines, (f"{path}:1", ""))
        schema = _json_object(first, where) if first.strip() else {}
        if schema.get("record") != "schema" or schema.get("name") != schema_name:
            raise UsageError(
                f"{path}: expected a {schema_name} file, found "
                f"{schema.get('name')!r}"
            )
        for where, line in lines:
            if line.strip():
                yield where, _json_object(line, where)


def read_ndjson(path: str | Path, schema_name: str) -> list[dict]:
    """Load records, checking the schema line and that each is an object."""
    return [record for _, record in _numbered_records(path, schema_name)]


def _same(value):
    return value


def _decoder(accept, requirement: str, convert=_same):
    """A feature-record decode: reject a JSON value not accepted, else convert."""

    def decode(value):
        if not accept(value):
            raise ValueError(f"{reprlib.repr(value)} is not {requirement}")
        return convert(value)

    return decode


def _is_count(value) -> bool:
    # A bool is an int to Python but not a count. Below 2**53 a count is
    # exact as a float, and a mean of such counts cannot overflow one.
    return type(value) is int and 0 <= value < 2**53


# JSON escapes such as \ud800 decode to lone surrogates, which no UTF-8
# output file can hold.
_SURROGATE = re.compile("[\ud800-\udfff]")


def _is_text(value) -> bool:
    return isinstance(value, str) and not _SURROGATE.search(value)


_string = _decoder(_is_text, "a string of Unicode text")
_flag = _decoder(lambda v: isinstance(v, bool), "true or false")
_count = _decoder(_is_count, "an integer from 0 to 2**53 - 1")
_pages = _decoder(
    lambda v: v is None or (_is_count(v) and v >= 1),
    "null or an integer from 1 to 2**53 - 1",
)
_timestamp = _decoder(
    lambda v: v is None or isinstance(v, str),
    "a date string or null",
    lambda text: iso_date(text) if text else None,
)
_names = _decoder(
    lambda v: isinstance(v, list) and all(map(_is_text, v)), "a list of strings", tuple
)

# One row per key of a feature record, in output order: (wire name,
# FeatureVector attribute, encode, decode). A row whose decode is None is
# derived from its attribute on writing and ignored on reading.
FEATURE_WIRE = (
    ("id", "doc_id", _same, _string),
    ("category", "category", _same, _string),
    (
        "timestamp",
        "timestamp",
        lambda stamp: stamp.isoformat() if stamp else None,
        _timestamp,
    ),
    ("multi_file", "multi_file", _same, _flag),
    ("words", "word_count", _same, _count),
    ("comment_words", "comment_word_count", _same, _count),
    ("pages", "page_count", _same, _pages),
    ("packages", "package_count", _same, _count),
    ("package_names", "package_names", list, _names),
    ("newcommands", "newcommand_count", _same, _count),
    ("theorems", "theorem_count", _same, _count),
    ("theorem_like", "theorem_like_count", _same, _count),
    ("figures", "figure_count", _same, _count),
    ("includegraphics", "includegraphics_count", _same, _count),
    ("epsfig_commands", "epsfig_command_count", _same, _count),
    ("authors", "author_count", _same, _count),
    ("author_block_found", "author_block_found", _same, _flag),
    ("graphicx_declared", "graphicx_declared", _same, _flag),
    ("graphicx_used", "includegraphics_count", lambda count: count > 0, None),
    ("epsfig_declared", "epsfig_declared", _same, _flag),
    ("epsfig_used", "epsfig_command_count", lambda count: count > 0, None),
)


def feature_record(fv: FeatureVector) -> dict:
    """A feature vector as an ordered plain record."""
    return {wire: encode(getattr(fv, attr)) for wire, attr, encode, _ in FEATURE_WIRE}


def parse_feature_record(record: dict) -> FeatureVector:
    """A feature vector from a plain record, checking each value's JSON type."""
    values = {}
    for wire, attr, _, decode in FEATURE_WIRE:
        if decode is None:
            continue
        if wire not in record:
            raise UsageError(f"feature record lacks {wire!r}")
        try:
            values[attr] = decode(record[wire])
        except ValueError as exc:
            raise UsageError(f"feature record {wire!r}: {exc}") from exc
    return FeatureVector(**values)


def read_features(path: str | Path) -> list[FeatureVector]:
    features = []
    for where, record in _numbered_records(path, FEATURES_SCHEMA):
        try:
            features.append(parse_feature_record(record))
        except UsageError as exc:
            raise UsageError(f"{where}: {exc}") from exc
    return features


def _stderr_diagnostics(diagnostics: list[Diagnostic]) -> None:
    for diag in diagnostics:
        print(str(diag), file=sys.stderr)


# ---------------------------------------------------------------- extract

def _extract_one(root: str, comments: bool, words: bool, doc_id: str) -> dict:
    """Worker: extract one stored document into the finished ndjson lines
    of its features record, and of its comments and words records when
    asked for, so the parent only writes text."""
    from .features import extract_document
    from .store import CorpusStore

    store = CorpusStore(root)
    try:
        doc = store.load(doc_id)
        result = extract_document(doc)
    except TexcorpusError as exc:
        return {"id": doc_id, "error": str(exc)}
    features = result.features
    lines = {
        "id": doc_id,
        "features": _dump(feature_record(features)) + "\n",
        "diagnostics": [str(d) for d in result.diagnostics],
    }
    if comments:
        lines["comments"] = "".join(
            _dump(
                {
                    "doc_id": features.doc_id,
                    "kind": span.kind,
                    "macro": span.macro,
                    "start": span.start,
                    "end": span.end,
                    "text": span.text,
                }
            )
            + "\n"
            for span in result.comments
        )
    if words:
        lines["words"] = _dump(
            {
                "doc_id": features.doc_id,
                "words": result.text_words,
                "comment_words": result.comment_words,
            }
        ) + "\n"
    return lines


def _distinct_outputs(*paths: str | None) -> None:
    """Refuse two outputs that resolve to one regular file. A target that
    exists but is not a regular file, such as ``/dev/null``, is written in
    place and may be given more than once."""
    seen: set[Path] = set()
    for path in paths:
        if not path:
            continue
        target = Path(path).resolve()
        if target.exists() and not target.is_file():
            continue
        if target in seen:
            raise UsageError(f"{path} is given for two outputs")
        seen.add(target)


def cmd_extract(args: argparse.Namespace) -> int:
    # Imported before the pool starts, so that forked workers inherit the
    # extraction code; _extract_one imports it again for workers that start
    # from a fresh interpreter.
    from . import features  # noqa: F401
    from .store import CorpusStore

    corpus = Path(args.corpus)
    if not corpus.is_dir():
        problem = "is not a directory" if corpus.exists() else "does not exist"
        raise UsageError(f"corpus {args.corpus} {problem}")
    ids = CorpusStore(corpus).ids()
    if not ids:
        raise UsageError(f"no documents under {args.corpus}")
    root = str(corpus)
    _distinct_outputs(args.out, args.comments, args.words)

    # Writers first, so an unwritable output fails before any extraction;
    # then each result is written as it arrives, in input order.
    with ExitStack() as stack:
        features_out = stack.enter_context(NdjsonWriter(args.out, FEATURES_SCHEMA))
        comments_out = words_out = None
        if args.comments:
            comments_out = stack.enter_context(
                NdjsonWriter(args.comments, COMMENTS_SCHEMA)
            )
        if args.words:
            words_out = stack.enter_context(NdjsonWriter(args.words, WORDS_SCHEMA))

        extract = partial(_extract_one, root, bool(args.comments), bool(args.words))
        # the pool starts every worker at the first submit, so never more
        # workers than documents
        workers = min(args.jobs, len(ids))
        if workers > 1:
            from concurrent.futures import ProcessPoolExecutor

            pool = stack.enter_context(ProcessPoolExecutor(max_workers=workers))
            # about four chunks a worker: few round trips, balanced ends
            chunksize = max(1, len(ids) // (4 * workers))
            results = pool.map(extract, ids, chunksize=chunksize)
        else:
            results = map(extract, ids)

        failures = 0
        for result in results:
            if "error" in result:
                failures += 1
                print(f"[extract] {result['id']}: {result['error']}", file=sys.stderr)
                continue
            features_out.write_lines(result["features"])
            if comments_out is not None:
                comments_out.write_lines(result["comments"])
            if words_out is not None:
                words_out.write_lines(result["words"])
            for line in result["diagnostics"]:
                print(f"[extract] {result['id']}: {line}", file=sys.stderr)
        if failures == len(ids):
            raise UsageError("every document failed to extract")
    return 0


# ---------------------------------------------------------------- stats

# The stats functions that perfbench/traced.py times by replacing them as
# attributes of this module. The analysis commands look them up here, so a
# replacement is what they call, and stats is imported only when a command
# runs one of them.
_STATS_CALLS = ("build_table", "discriminative", "linear_trend", "summarize")


def __getattr__(name: str):
    if name in _STATS_CALLS:
        from . import stats

        return getattr(stats, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _stats(name: str):
    """The stats function ``name``, or what replaced it in this module."""
    return globals().get(name) or __getattr__(name)


def cmd_stats(args: argparse.Namespace) -> int:
    from .stats import CorpusSummary

    summarize = _stats("summarize")
    scalars = tuple(
        f.name for f in fields(CorpusSummary) if not f.name.endswith("_histogram")
    )
    features = read_features(args.features)
    diagnostics: list[Diagnostic] = []
    summaries = summarize(features, diagnostics)
    _stderr_diagnostics(diagnostics)

    if args.format == "csv":
        try:
            handle = open(args.out, "w", encoding="utf-8", newline="")
        except OSError as exc:
            raise _cannot_write(args.out, exc) from exc
        with handle:
            handle.write(f"#schema={STATS_SCHEMA}.v1\n")
            writer = csv.writer(handle, quoting=csv.QUOTE_ALL, lineterminator="\n")
            writer.writerow(scalars)
            for category in sorted(summaries):
                values = (getattr(summaries[category], n) for n in scalars)
                writer.writerow("" if value is None else value for value in values)
        return 0

    with NdjsonWriter(args.out, STATS_SCHEMA) as out:
        for category in sorted(summaries):
            summary = summaries[category]
            record = {"record": "summary"}
            for name in scalars:
                record[name] = getattr(summary, name)
            record["page_histogram"] = {
                str(k): v for k, v in summary.page_histogram.items()
            }
            record["monthly_histogram"] = list(summary.monthly_histogram)
            record["yearly_histogram"] = {
                str(k): v for k, v in summary.yearly_histogram.items()
            }
            out.write(record)
    return 0


# ---------------------------------------------------------------- discriminate

def _words_by_doc(path: str | Path) -> dict[str, dict]:
    by_doc = {}
    for where, record in _numbered_records(path, WORDS_SCHEMA):
        doc_id = record.get("doc_id")
        if not isinstance(doc_id, str) or not all(
            isinstance(record.get(key), list) for key in ("words", "comment_words")
        ):
            raise UsageError(
                f"{where}: a words record needs a doc_id string and "
                "words and comment_words lists"
            )
        for key in ("words", "comment_words"):
            # One join per list, not a check per word: a non-string raises
            # TypeError, a lone surrogate UnicodeEncodeError.
            try:
                "".join(record[key]).encode("utf-8")
            except (TypeError, UnicodeEncodeError) as exc:
                raise UsageError(
                    f"{where}: {key!r} must be a list of strings of Unicode text"
                ) from exc
        by_doc[doc_id] = record
    return by_doc


def _pick_categories(features: list[FeatureVector], names: str | None) -> tuple[str, str]:
    present = sorted({fv.category for fv in features})
    if names:
        parts = [part.strip() for part in names.split(",") if part.strip()]
        if len(parts) != 2:
            raise UsageError("--categories needs exactly two comma-separated names")
        if parts[0] == parts[1]:
            raise UsageError(f"--categories names {parts[0]!r} twice; pick two")
        for part in parts:
            if part not in present:
                raise UsageError(f"category {part!r} not present in features")
        return parts[0], parts[1]
    if len(present) != 2:
        raise UsageError(
            f"features hold {len(present)} categories; pick two with --categories"
        )
    return present[0], present[1]


def cmd_discriminate(args: argparse.Namespace) -> int:
    from .stats import FilterSpec, package_incidence

    build_table, discriminative = _stats("build_table"), _stats("discriminative")
    features = read_features(args.features)
    filters = FilterSpec(
        drop_stopwords=not args.keep_stopwords, min_length=args.min_length
    )

    if args.between == "regions":
        if args.basis == "packages":
            raise UsageError("packages have no text/comment regions")
        if not args.words:
            raise UsageError("--between regions needs --words")
        by_doc = _words_by_doc(args.words)
        text_words = chain.from_iterable(r["words"] for r in by_doc.values())
        comment_words = chain.from_iterable(
            r["comment_words"] for r in by_doc.values()
        )
        table_a = build_table(text_words, filters)
        table_b = build_table(comment_words, filters)
        name_a, name_b = "text", "comments"
    else:
        name_a, name_b = _pick_categories(features, args.categories)
        docs_a = [fv for fv in features if fv.category == name_a]
        docs_b = [fv for fv in features if fv.category == name_b]
        if args.basis == "packages":
            table_a = package_incidence(docs_a)
            table_b = package_incidence(docs_b)
        else:
            if not args.words:
                raise UsageError(f"--basis {args.basis} needs --words")
            by_doc = _words_by_doc(args.words)
            key = "words" if args.basis == "text" else "comment_words"

            def words_of(docs: list[FeatureVector]) -> Iterator[str]:
                return chain.from_iterable(
                    by_doc[fv.doc_id][key] for fv in docs if fv.doc_id in by_doc
                )

            table_a = build_table(words_of(docs_a), filters)
            table_b = build_table(words_of(docs_b), filters)

    with NdjsonWriter(args.out, DISCRIMINATIVE_SCHEMA) as out:
        for direction, first, second in (
            (f"{name_a}>{name_b}", table_a, table_b),
            (f"{name_b}>{name_a}", table_b, table_a),
        ):
            for rank, item in enumerate(discriminative(first, second, args.k), 1):
                out.write(
                    {
                        "record": "discriminative",
                        "basis": args.basis,
                        "direction": direction,
                        "rank": rank,
                        "item": item.item,
                        "score": item.score,
                        "freq_a": item.frequency_a,
                        "freq_b": item.frequency_b,
                    }
                )
    return 0


# ---------------------------------------------------------------- trends

_WIRE_ATTRIBUTES = {wire: attr for wire, attr, _, _ in FEATURE_WIRE}


def _trend_pairs(
    features: list[FeatureVector], x_name: str, y_name: str, figure_basis: str
) -> list[tuple[float, float]]:
    """(x, y) of each paper that has both measures; a measure is a feature
    wire name, or "year" of the timestamp."""

    def reader(name: str):
        if name == "year":
            return lambda fv: fv.timestamp.year if fv.timestamp else None
        if name == "figures" and figure_basis == "includegraphics":
            name = "includegraphics"
        return attrgetter(_WIRE_ATTRIBUTES[name])

    x_of, y_of = reader(x_name), reader(y_name)
    pairs = []
    for fv in features:
        x, y = x_of(fv), y_of(fv)
        if x is not None and y is not None:
            pairs.append((float(x), float(y)))
    return pairs


TREND_PAIRINGS = (
    ("year", "pages"),
    ("year", "words"),
    ("year", "packages"),
    ("figures", "words"),
    ("theorems", "words"),
    ("packages", "words"),
    ("authors", "words"),
)


def cmd_trends(args: argparse.Namespace) -> int:
    from .stats import DegenerateX, grouped_means

    linear_trend = _stats("linear_trend")
    features = read_features(args.features)
    scopes = [("all", features)]
    for category in sorted({fv.category for fv in features}):
        scopes.append((category, [fv for fv in features if fv.category == category]))

    with NdjsonWriter(args.out, TRENDS_SCHEMA) as out:
        for x_name, y_name in TREND_PAIRINGS:
            for scope, members in scopes:
                pairs = _trend_pairs(members, x_name, y_name, args.figure_basis)
                bases = [("raw", pairs)]
                if x_name == "year":
                    bases.append(("year_means", grouped_means(pairs)))
                for basis, points in bases:
                    try:
                        fit = linear_trend(
                            [p[0] for p in points], [p[1] for p in points]
                        )
                    except DegenerateX as exc:
                        print(
                            f"[trends] {x_name}/{y_name} ({scope}, {basis}): {exc}",
                            file=sys.stderr,
                        )
                        continue
                    out.write(
                        {
                            "record": "trend",
                            "x": x_name,
                            "y": y_name,
                            "scope": scope,
                            "basis": basis,
                            "slope": fit.slope,
                            "intercept": fit.intercept,
                            "r": fit.r,
                            "n": fit.n,
                        }
                    )
    return 0


# ---------------------------------------------------------------- classify

def cmd_classify(args: argparse.Namespace) -> int:
    from . import classify as classify_mod

    features = read_features(args.features)
    categories = {fv.category for fv in features}
    if args.positive not in categories:
        raise UsageError(f"category {args.positive!r} not present in features")
    train_set, test_set = classify_mod.train_test_split(
        features, test_fraction=args.test_fraction, seed=args.seed
    )
    config = classify_mod.TrainConfig(
        l2=args.l2,
        max_epochs=args.max_epochs,
    )
    # The report first, so an unwritable one fails before training and
    # before the model is saved.
    _distinct_outputs(args.model, args.report)
    with NdjsonWriter(args.report, CLASSIFY_SCHEMA) as out:
        model = classify_mod.train_classifier(train_set, args.positive, config)
        _stderr_diagnostics(model.diagnostics)
        report = classify_mod.evaluate(model, test_set)
        try:
            classify_mod.save_model(model, args.model)
        except OSError as exc:
            raise _cannot_write(args.model, exc) from exc

        out.write(
            {
                "record": "classification",
                "positive": args.positive,
                "n_train": len(train_set),
                "n_test": report.n,
                "accuracy": report.accuracy,
                "majority_fraction": report.majority_fraction,
                "true_positive": report.true_positive,
                "true_negative": report.true_negative,
                "false_positive": report.false_positive,
                "false_negative": report.false_negative,
                "epochs_run": model.epochs_run,
                "final_loss": model.final_loss,
            }
        )
        for rank, (name, weight) in enumerate(report.weight_report, 1):
            out.write(
                {
                    "record": "weight",
                    "rank": rank,
                    "feature": name,
                    "weight": weight,
                }
            )
    return 0


# ---------------------------------------------------------------- harvest

_CATEGORY_RE = re.compile(r"^[a-z-]+(\.[A-Za-z0-9-]+)?$")


def cmd_harvest(args: argparse.Namespace) -> int:
    if not _CATEGORY_RE.match(args.category):
        raise UsageError(f"{args.category!r} does not look like a category")
    from_date = to_date = None
    if args.from_date or args.to_date:
        if not (args.from_date and args.to_date):
            raise UsageError("--from and --to must be given together")
        try:
            from_date = iso_date(args.from_date)
            to_date = iso_date(args.to_date)
        except ValueError as exc:
            raise UsageError(f"bad date: {exc}") from exc
        if to_date < from_date:
            raise UsageError("--to is before --from")

    from . import harvest as harvest_mod
    from .store import CorpusStore

    report = harvest_mod.harvest_into_store(
        args.category,
        args.max_records,
        CorpusStore(args.store),
        from_date=from_date,
        to_date=to_date,
        page_size=args.page_size,
        delay=harvest_mod.DEFAULT_DELAY if args.delay is None else args.delay,
    )
    _stderr_diagnostics(report.diagnostics)
    print(
        _dump(
            {
                "record": "harvest",
                "category": args.category,
                "listed": report.listed,
                "stored": report.stored,
                "already_present": report.already_present,
                "unsupported": report.unsupported,
                "failed": report.failed,
            }
        )
    )
    return 0


# ---------------------------------------------------------------- wiring

def _checked(convert, accept, requirement: str):
    """An argparse ``type=`` that converts, then rejects values not accepted."""

    def parse(text: str):
        try:
            value = convert(text)
            if accept(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"{text!r} is not {requirement}")

    return parse


_positive_int = _checked(int, lambda v: v >= 1, "an integer of at least 1")
_non_negative_int = _checked(int, lambda v: v >= 0, "an integer of at least 0")
_open_fraction = _checked(
    float, lambda v: 0 < v < 1, "a number strictly between 0 and 1"
)
_delay = _checked(float, lambda v: 0 <= v <= 86400, "a number from 0 to 86400")
_l2_weight = _checked(float, lambda v: 0 <= v < math.inf, "a finite number of at least 0")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="texcorpus",
        description="Analyze LaTeX paper corpora: comments, structure, trends.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("harvest", help="download papers into a corpus store")
    p.add_argument("--category", required=True)
    p.add_argument("--max", dest="max_records", type=_positive_int, required=True)
    p.add_argument("--store", required=True)
    p.add_argument("--from", dest="from_date", default=None)
    p.add_argument("--to", dest="to_date", default=None)
    p.add_argument("--page-size", type=_positive_int, default=100)
    p.add_argument("--delay", type=_delay, default=None)
    p.set_defaults(func=cmd_harvest)

    p = sub.add_parser("extract", help="extract features and comments")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--comments", default=None)
    p.add_argument("--words", default=None)
    p.add_argument("--jobs", type=_positive_int, default=1)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("stats", help="per-category corpus summaries")
    p.add_argument("--features", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("ndjson", "csv"), default="ndjson")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser(
        "discriminate", help="most characteristic words or packages"
    )
    p.add_argument("--features", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--basis", choices=("text", "comments", "packages"), default="text")
    p.add_argument("--between", choices=("categories", "regions"), default="categories")
    p.add_argument("--words", default=None)
    p.add_argument("--categories", default=None)
    p.add_argument("-k", type=_non_negative_int, default=10)
    p.add_argument("--keep-stopwords", action="store_true")
    p.add_argument("--min-length", type=int, default=3)
    p.set_defaults(func=cmd_discriminate)

    p = sub.add_parser("trends", help="least-squares trends between measures")
    p.add_argument("--features", required=True)
    p.add_argument("--out", required=True)
    p.add_argument(
        "--figure-basis",
        choices=("includegraphics", "environments"),
        default="includegraphics",
    )
    p.set_defaults(func=cmd_trends)

    p = sub.add_parser("classify", help="train and evaluate the subject classifier")
    p.add_argument("--features", required=True)
    p.add_argument("--positive", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--report", required=True)
    p.add_argument("--test-fraction", type=_open_fraction, default=0.25)
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--l2", type=_l2_weight, default=1e-3)
    p.add_argument("--max-epochs", type=_positive_int, default=5000)
    p.set_defaults(func=cmd_classify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except TexcorpusError as exc:
        print(_dump({"record": "error", "message": str(exc)}), file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - last-resort boundary
        print(
            _dump({"record": "error", "message": f"internal: {exc!r}"}),
            file=sys.stderr,
        )
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
