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
import re
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import fields
from datetime import date
from pathlib import Path

from . import classify as classify_mod
from . import harvest as harvest_mod
from .errors import Diagnostic, TexcorpusError
from .features import FeatureVector, extract_document
from .stats import (
    CorpusSummary,
    DegenerateX,
    FilterSpec,
    build_table,
    discriminative,
    grouped_means,
    linear_trend,
    package_incidence,
    summarize,
)

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


class NdjsonWriter:
    """Newline-delimited JSON with a schema record on the first line."""

    def __init__(self, path: str | Path, schema_name: str):
        self._handle = open(path, "w", encoding="utf-8", newline="\n")
        self.write({"record": "schema", "name": schema_name, "version": 1})

    def write(self, obj: dict) -> None:
        self._handle.write(_dump(obj) + "\n")

    def close(self) -> None:
        self._handle.close()

    def __enter__(self) -> "NdjsonWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_ndjson(path: str | Path, schema_name: str) -> list[dict]:
    """Load records, checking the schema line."""
    try:
        handle = open(path, encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot open {path}: {exc}") from exc
    with handle:
        first = handle.readline()
        try:
            schema = json.loads(first) if first.strip() else {}
        except ValueError as exc:
            raise UsageError(f"{path}: first line is not JSON") from exc
        if schema.get("record") != "schema" or schema.get("name") != schema_name:
            raise UsageError(
                f"{path}: expected a {schema_name} file, found "
                f"{schema.get('name')!r}"
            )
        records = []
        for lineno, line in enumerate(handle, start=2):
            if not line.strip():
                continue
            try:
                records.append(json.loads(line))
            except ValueError as exc:
                raise UsageError(f"{path}:{lineno}: bad JSON") from exc
        return records


def _same(value):
    return value


# One row per key of a feature record, in output order: (wire name,
# FeatureVector attribute, encode, decode). A row whose decode is None is
# derived from its attribute on writing and ignored on reading.
FEATURE_WIRE = (
    ("id", "doc_id", _same, _same),
    ("category", "category", _same, _same),
    (
        "timestamp",
        "timestamp",
        lambda stamp: stamp.isoformat() if stamp else None,
        lambda text: date.fromisoformat(text) if text else None,
    ),
    ("multi_file", "multi_file", _same, bool),
    ("words", "word_count", _same, int),
    ("comment_words", "comment_word_count", _same, int),
    ("pages", "page_count", _same, _same),
    ("packages", "package_count", _same, int),
    ("package_names", "package_names", list, tuple),
    ("newcommands", "newcommand_count", _same, int),
    ("theorems", "theorem_count", _same, int),
    ("theorem_like", "theorem_like_count", _same, int),
    ("figures", "figure_count", _same, int),
    ("includegraphics", "includegraphics_count", _same, int),
    ("epsfig_commands", "epsfig_command_count", _same, int),
    ("authors", "author_count", _same, int),
    ("author_block_found", "author_block_found", _same, bool),
    ("graphicx_declared", "graphicx_declared", _same, bool),
    ("graphicx_used", "includegraphics_count", lambda count: count > 0, None),
    ("epsfig_declared", "epsfig_declared", _same, bool),
    ("epsfig_used", "epsfig_command_count", lambda count: count > 0, None),
)


def feature_record(fv: FeatureVector) -> dict:
    """A feature vector as an ordered plain record."""
    return {wire: encode(getattr(fv, attr)) for wire, attr, encode, _ in FEATURE_WIRE}


def parse_feature_record(record: dict) -> FeatureVector:
    try:
        return FeatureVector(
            **{
                attr: decode(record[wire])
                for wire, attr, _, decode in FEATURE_WIRE
                if decode is not None
            }
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"bad feature record for {record.get('id')!r}: {exc}")


def read_features(path: str | Path) -> list[FeatureVector]:
    return [parse_feature_record(r) for r in read_ndjson(path, FEATURES_SCHEMA)]


def _stderr_diagnostics(diagnostics: list[Diagnostic]) -> None:
    for diag in diagnostics:
        print(str(diag), file=sys.stderr)


# ---------------------------------------------------------------- extract

def _extract_one(root: str, doc_id: str) -> dict:
    """Worker: extract one stored document into plain records."""
    store = harvest_mod.CorpusStore(root)
    try:
        doc = store.load(doc_id)
        result = extract_document(doc)
    except TexcorpusError as exc:
        return {"id": doc_id, "error": str(exc)}
    return {
        "id": doc_id,
        "features": feature_record(result.features),
        "comments": [
            {
                "doc_id": result.features.doc_id,
                "kind": span.kind,
                "macro": span.macro,
                "start": span.start,
                "end": span.end,
                "text": span.text,
            }
            for span in result.comments
        ],
        "words": {
            "doc_id": result.features.doc_id,
            "words": result.text_words,
            "comment_words": result.comment_words,
        },
        "diagnostics": [str(d) for d in result.diagnostics],
    }


def cmd_extract(args: argparse.Namespace) -> int:
    store = harvest_mod.CorpusStore(args.corpus)
    ids = store.ids()
    if not ids:
        raise UsageError(f"no documents under {args.corpus}")
    root = str(store.root)

    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_extract_one, [root] * len(ids), ids))
    else:
        results = [_extract_one(root, doc_id) for doc_id in ids]

    failures = 0
    with NdjsonWriter(args.out, FEATURES_SCHEMA) as features_out:
        comments_out = (
            NdjsonWriter(args.comments, COMMENTS_SCHEMA) if args.comments else None
        )
        words_out = NdjsonWriter(args.words, WORDS_SCHEMA) if args.words else None
        try:
            for result in results:
                if "error" in result:
                    failures += 1
                    print(
                        f"[extract] {result['id']}: {result['error']}",
                        file=sys.stderr,
                    )
                    continue
                features_out.write(result["features"])
                if comments_out is not None:
                    for record in result["comments"]:
                        comments_out.write(record)
                if words_out is not None:
                    words_out.write(result["words"])
                for line in result["diagnostics"]:
                    print(f"[extract] {result['id']}: {line}", file=sys.stderr)
        finally:
            if comments_out is not None:
                comments_out.close()
            if words_out is not None:
                words_out.close()
    if failures == len(ids):
        raise UsageError("every document failed to extract")
    return 0


# ---------------------------------------------------------------- stats

_SUMMARY_SCALARS = tuple(
    f.name for f in fields(CorpusSummary) if not f.name.endswith("_histogram")
)


def cmd_stats(args: argparse.Namespace) -> int:
    features = read_features(args.features)
    diagnostics: list[Diagnostic] = []
    summaries = summarize(features, diagnostics)
    _stderr_diagnostics(diagnostics)

    if args.format == "csv":
        with open(args.out, "w", encoding="utf-8", newline="") as handle:
            handle.write(f"#schema={STATS_SCHEMA}.v1\n")
            writer = csv.writer(handle, quoting=csv.QUOTE_ALL, lineterminator="\n")
            writer.writerow(_SUMMARY_SCALARS)
            for category in sorted(summaries):
                values = (getattr(summaries[category], n) for n in _SUMMARY_SCALARS)
                writer.writerow("" if value is None else value for value in values)
        return 0

    with NdjsonWriter(args.out, STATS_SCHEMA) as out:
        for category in sorted(summaries):
            summary = summaries[category]
            record = {"record": "summary"}
            for name in _SUMMARY_SCALARS:
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
    records = read_ndjson(path, WORDS_SCHEMA)
    return {record["doc_id"]: record for record in records}


def _pick_categories(features: list[FeatureVector], names: str | None) -> tuple[str, str]:
    present = sorted({fv.category for fv in features})
    if names:
        parts = [part.strip() for part in names.split(",") if part.strip()]
        if len(parts) != 2:
            raise UsageError("--categories needs exactly two comma-separated names")
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
        text_words = (w for r in by_doc.values() for w in r["words"])
        comment_words = (w for r in by_doc.values() for w in r["comment_words"])
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

            def words_of(docs: list[FeatureVector]):
                for fv in docs:
                    record = by_doc.get(fv.doc_id)
                    if record is not None:
                        yield from record[key]

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

def _trend_pairs(
    features: list[FeatureVector], x_name: str, y_name: str, figure_basis: str
) -> list[tuple[float, float]]:
    def value(fv: FeatureVector, name: str) -> float | None:
        if name == "year":
            return float(fv.timestamp.year) if fv.timestamp else None
        if name == "pages":
            return float(fv.page_count) if fv.page_count is not None else None
        if name == "words":
            return float(fv.word_count)
        if name == "packages":
            return float(fv.package_count)
        if name == "theorems":
            return float(fv.theorem_count)
        if name == "authors":
            return float(fv.author_count)
        if name == "figures":
            if figure_basis == "environments":
                return float(fv.figure_count)
            return float(fv.includegraphics_count)
        raise ValueError(name)

    pairs = []
    for fv in features:
        x = value(fv, x_name)
        y = value(fv, y_name)
        if x is not None and y is not None:
            pairs.append((x, y))
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
                    if len(points) < 2:
                        print(
                            f"[trends] {x_name}/{y_name} ({scope}, {basis}): "
                            "not enough points",
                            file=sys.stderr,
                        )
                        continue
                    try:
                        fit = linear_trend(
                            [p[0] for p in points], [p[1] for p in points]
                        )
                    except DegenerateX:
                        print(
                            f"[trends] {x_name}/{y_name} ({scope}, {basis}): "
                            "x has no variance",
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
    features = read_features(args.features)
    categories = {fv.category for fv in features}
    if args.positive not in categories:
        raise UsageError(f"category {args.positive!r} not present in features")
    train_set, test_set = classify_mod.train_test_split(
        features, test_fraction=args.test_fraction, seed=args.seed
    )
    config = classify_mod.TrainConfig(
        learning_rate=args.learning_rate,
        l2=args.l2,
        max_epochs=args.max_epochs,
    )
    model = classify_mod.train_classifier(train_set, args.positive, config)
    _stderr_diagnostics(model.diagnostics)
    report = classify_mod.evaluate(model, test_set)
    classify_mod.save_model(model, args.model)

    with NdjsonWriter(args.report, CLASSIFY_SCHEMA) as out:
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
            from_date = date.fromisoformat(args.from_date)
            to_date = date.fromisoformat(args.to_date)
        except ValueError as exc:
            raise UsageError(f"bad date: {exc}") from exc
        if to_date < from_date:
            raise UsageError("--to is before --from")
    if args.max_records < 1:
        raise UsageError("--max must be at least 1")

    store = harvest_mod.CorpusStore(args.store)
    report = harvest_mod.harvest_into_store(
        args.category,
        args.max_records,
        store,
        from_date=from_date,
        to_date=to_date,
        page_size=args.page_size,
        delay=args.delay,
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

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="texcorpus",
        description="Analyze LaTeX paper corpora: comments, structure, trends.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("harvest", help="download papers into a corpus store")
    p.add_argument("--category", required=True)
    p.add_argument("--max", dest="max_records", type=int, required=True)
    p.add_argument("--store", required=True)
    p.add_argument("--from", dest="from_date", default=None)
    p.add_argument("--to", dest="to_date", default=None)
    p.add_argument("--page-size", type=int, default=100)
    p.add_argument("--delay", type=float, default=None)
    p.set_defaults(func=cmd_harvest)

    p = sub.add_parser("extract", help="extract features and comments")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--comments", default=None)
    p.add_argument("--words", default=None)
    p.add_argument("--jobs", type=int, default=1)
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
    p.add_argument("-k", type=int, default=10)
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
    p.add_argument("--test-fraction", type=float, default=0.25)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--learning-rate", type=float, default=0.5)
    p.add_argument("--l2", type=float, default=1e-3)
    p.add_argument("--max-epochs", type=int, default=5000)
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
    except UsageError as exc:
        print(_dump({"record": "error", "message": str(exc)}), file=sys.stderr)
        return 2
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
