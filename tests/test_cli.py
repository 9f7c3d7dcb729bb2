"""End-to-end runs of the command line against small temp corpora."""

import csv
import json
from datetime import date

import pytest

from texcorpus.cli import (
    CLASSIFY_SCHEMA,
    FEATURES_SCHEMA,
    NdjsonWriter,
    feature_record,
    main,
    parse_feature_record,
    read_ndjson,
)
from texcorpus.harvest import CorpusStore
from texcorpus.lexer import SourceDocument
from texcorpus.synth import two_class_corpus

DOCS = [
    (
        "cs/0001",
        "cs.AI",
        date(2001, 3, 10),
        7,
        b"\\documentclass{article}\n"
        b"\\usepackage{graphicx,amsmath}\n"
        b"\\author{Ada Lovelace \\and Alan Turing}\n"
        b"\\begin{document}\\maketitle\n"
        b"% seed for the optimizer\n"
        b"We study search. \\includegraphics{fig1}\n"
        b"\\begin{figure}x\\end{figure}\n"
        b"\\end{document}\n",
    ),
    (
        "math/0002",
        "math.CO",
        date(2002, 7, 1),
        11,
        b"\\documentclass{article}\n"
        b"\\newtheorem{thm}{Theorem}\n"
        b"\\author{Emmy Noether}\n"
        b"\\begin{document}\\maketitle\n"
        b"\\begin{thm}Graphs are large.\\end{thm}\n"
        b"Counting argument follows.\n"
        b"\\end{document}\n",
    ),
    (
        "math/0003",
        "math.CO",
        date(2003, 1, 20),
        None,
        b"\\documentclass{article}\n"
        b"\\begin{document}\n"
        b"Lattice paths. % rough draft\n"
        b"\\end{document}\n",
    ),
]


@pytest.fixture()
def corpus(tmp_path):
    store = CorpusStore(tmp_path / "corpus")
    for doc_id, category, stamp, pages, body in DOCS:
        store.save(
            SourceDocument(
                id=doc_id,
                files=[("main.tex", body)],
                category=category,
                timestamp=stamp,
                page_count=pages,
            )
        )
    return tmp_path


def run_extract(root, jobs=1):
    out = root / "features.ndjson"
    comments = root / "comments.ndjson"
    words = root / "words.ndjson"
    code = main(
        [
            "extract",
            "--corpus", str(root / "corpus"),
            "--out", str(out),
            "--comments", str(comments),
            "--words", str(words),
            "--jobs", str(jobs),
        ]
    )
    assert code == 0
    return out, comments, words


class TestExtract:
    def test_writes_schema_and_records(self, corpus):
        out, comments, words = run_extract(corpus)
        first = json.loads(out.read_text().splitlines()[0])
        assert first == {"record": "schema", "name": "texcorpus.features", "version": 1}
        records = read_ndjson(out, FEATURES_SCHEMA)
        assert [r["id"] for r in records] == ["cs/0001", "math/0002", "math/0003"]
        by_id = {r["id"]: r for r in records}
        assert by_id["cs/0001"]["authors"] == 2
        assert by_id["cs/0001"]["packages"] == 2
        assert by_id["cs/0001"]["graphicx_used"] is True
        assert by_id["math/0002"]["theorems"] == 1
        assert by_id["math/0003"]["pages"] is None

        comment_records = read_ndjson(comments, "texcorpus.comments")
        texts = [r["text"] for r in comment_records]
        assert " seed for the optimizer" in texts
        assert " rough draft" in texts

        word_records = read_ndjson(words, "texcorpus.words")
        assert len(word_records) == 3
        cs_words = next(r for r in word_records if r["doc_id"] == "cs/0001")
        assert "search" in cs_words["words"]
        assert "optimizer" in cs_words["comment_words"]

    def test_round_trip_through_parse(self, corpus):
        out, _, _ = run_extract(corpus)
        for record in read_ndjson(out, FEATURES_SCHEMA):
            fv = parse_feature_record(record)
            assert feature_record(fv) == record

    def test_parallel_matches_serial(self, corpus, tmp_path):
        out1, comments1, words1 = run_extract(corpus, jobs=1)
        serial = (out1.read_bytes(), comments1.read_bytes(), words1.read_bytes())
        for path in (out1, comments1, words1):
            path.unlink()
        out2, comments2, words2 = run_extract(corpus, jobs=2)
        assert (out2.read_bytes(), comments2.read_bytes(), words2.read_bytes()) == serial

    def test_empty_corpus_is_usage_error(self, tmp_path):
        (tmp_path / "corpus").mkdir()
        code = main(
            ["extract", "--corpus", str(tmp_path / "corpus"), "--out", str(tmp_path / "f")]
        )
        assert code == 2

    def test_corrupt_entry_is_reported_and_skipped(self, corpus, capsys):
        bad = corpus / "corpus" / "bad_1"
        bad.mkdir()
        (bad / "meta.json").write_text("{ not json")
        out, _, words = run_extract(corpus)
        errors = capsys.readouterr().err.splitlines()
        assert len(errors) == 1 and errors[0].startswith("[extract] bad_1: ")
        records = read_ndjson(out, FEATURES_SCHEMA)
        assert [r["id"] for r in records] == ["cs/0001", "math/0002", "math/0003"]
        assert len(read_ndjson(words, "texcorpus.words")) == 3

    def test_repeat_runs_byte_identical(self, corpus):
        out, _, _ = run_extract(corpus)
        first = out.read_bytes()
        out2, _, _ = run_extract(corpus)
        assert out2.read_bytes() == first


class TestStats:
    def test_ndjson_summaries(self, corpus):
        out, _, _ = run_extract(corpus)
        stats_path = corpus / "stats.ndjson"
        code = main(["stats", "--features", str(out), "--out", str(stats_path)])
        assert code == 0
        records = read_ndjson(stats_path, "texcorpus.stats")
        assert [r["category"] for r in records] == ["cs.AI", "math.CO"]
        math_row = records[1]
        assert math_row["paper_count"] == 2
        assert math_row["fraction_no_comments"] == 0.5
        assert math_row["mean_pages"] == 11.0
        assert records[0]["monthly_histogram"][2] == 1  # March submission

    def test_csv_quotes_everything(self, corpus):
        out, _, _ = run_extract(corpus)
        stats_path = corpus / "stats.csv"
        code = main(
            ["stats", "--features", str(out), "--out", str(stats_path), "--format", "csv"]
        )
        assert code == 0
        raw = stats_path.read_bytes()
        assert raw.startswith(b"#schema=texcorpus.stats.v1\n")
        assert b"\r" not in raw
        lines = raw.decode().splitlines()[1:]
        for field in next(csv.reader([lines[0]])):
            assert lines[0].count(f'"{field}"') >= 1
        rows = list(csv.reader(lines))
        assert rows[0][0] == "category"
        assert [row[0] for row in rows[1:]] == ["cs.AI", "math.CO"]

    def test_wrong_schema_rejected(self, corpus):
        bogus = corpus / "bogus.ndjson"
        with NdjsonWriter(bogus, "texcorpus.words"):
            pass
        code = main(["stats", "--features", str(bogus), "--out", str(corpus / "x")])
        assert code == 2


class TestDiscriminate:
    def test_text_basis_between_categories(self, corpus):
        out, _, words = run_extract(corpus)
        disc = corpus / "disc.ndjson"
        code = main(
            [
                "discriminate",
                "--features", str(out),
                "--words", str(words),
                "--out", str(disc),
                "--min-length", "3",
                "-k", "5",
            ]
        )
        assert code == 0
        records = read_ndjson(disc, "texcorpus.discriminative")
        directions = {r["direction"] for r in records}
        assert directions == {"cs.AI>math.CO", "math.CO>cs.AI"}
        top_cs = next(
            r for r in records if r["direction"] == "cs.AI>math.CO" and r["rank"] == 1
        )
        assert top_cs["score"] > 0

    def test_packages_basis_needs_no_words(self, corpus):
        out, _, _ = run_extract(corpus)
        disc = corpus / "disc.ndjson"
        code = main(
            [
                "discriminate",
                "--features", str(out),
                "--out", str(disc),
                "--basis", "packages",
            ]
        )
        assert code == 0
        records = read_ndjson(disc, "texcorpus.discriminative")
        items = {r["item"] for r in records}
        assert "graphicx" in items

    def test_regions_compare_text_to_comments(self, corpus):
        out, _, words = run_extract(corpus)
        disc = corpus / "disc.ndjson"
        code = main(
            [
                "discriminate",
                "--features", str(out),
                "--words", str(words),
                "--out", str(disc),
                "--between", "regions",
            ]
        )
        assert code == 0
        records = read_ndjson(disc, "texcorpus.discriminative")
        assert {r["direction"] for r in records} == {"text>comments", "comments>text"}

    def test_text_basis_without_words_is_usage_error(self, corpus):
        out, _, _ = run_extract(corpus)
        code = main(
            ["discriminate", "--features", str(out), "--out", str(corpus / "d")]
        )
        assert code == 2

    def test_unknown_category_is_usage_error(self, corpus):
        out, _, words = run_extract(corpus)
        code = main(
            [
                "discriminate",
                "--features", str(out),
                "--words", str(words),
                "--out", str(corpus / "d"),
                "--categories", "cs.AI,astro-ph",
            ]
        )
        assert code == 2


class TestTrends:
    def test_trend_records(self, corpus):
        out, _, _ = run_extract(corpus)
        trends = corpus / "trends.ndjson"
        code = main(["trends", "--features", str(out), "--out", str(trends)])
        assert code == 0
        records = read_ndjson(trends, "texcorpus.trends")
        year_words_all = [
            r for r in records if r["x"] == "year" and r["y"] == "words"
            and r["scope"] == "all"
        ]
        bases = {r["basis"] for r in year_words_all}
        assert bases == {"raw", "year_means"}
        for record in records:
            assert record["n"] >= 2


class TestClassify:
    def write_features(self, path, vectors):
        with NdjsonWriter(path, FEATURES_SCHEMA) as out:
            for fv in vectors:
                out.write(feature_record(fv))

    def test_train_and_report(self, tmp_path):
        vectors = two_class_corpus(400, seed=3)
        features = tmp_path / "features.ndjson"
        self.write_features(features, vectors)
        model_path = tmp_path / "model.json"
        report_path = tmp_path / "report.ndjson"
        code = main(
            [
                "classify",
                "--features", str(features),
                "--positive", "cs",
                "--model", str(model_path),
                "--report", str(report_path),
                "--max-epochs", "800",
            ]
        )
        assert code == 0
        records = read_ndjson(report_path, CLASSIFY_SCHEMA)
        head = records[0]
        assert head["record"] == "classification"
        assert head["n_train"] + head["n_test"] == 400
        assert head["accuracy"] > head["majority_fraction"] - 0.05
        weight_rows = [r for r in records if r["record"] == "weight"]
        assert len(weight_rows) == 8
        saved = json.loads(model_path.read_text())
        assert saved["schema"] == "texcorpus.model.v1"

    def test_deterministic_outputs(self, tmp_path):
        vectors = two_class_corpus(120, seed=9)
        features = tmp_path / "features.ndjson"
        self.write_features(features, vectors)
        blobs = []
        for run in ("a", "b"):
            model_path = tmp_path / f"model-{run}.json"
            report_path = tmp_path / f"report-{run}.ndjson"
            code = main(
                [
                    "classify",
                    "--features", str(features),
                    "--positive", "cs",
                    "--model", str(model_path),
                    "--report", str(report_path),
                    "--max-epochs", "300",
                ]
            )
            assert code == 0
            blobs.append((model_path.read_bytes(), report_path.read_bytes()))
        assert blobs[0] == blobs[1]

    def test_unknown_positive_is_usage_error(self, tmp_path):
        vectors = two_class_corpus(20, seed=1)
        features = tmp_path / "features.ndjson"
        self.write_features(features, vectors)
        code = main(
            [
                "classify",
                "--features", str(features),
                "--positive", "bio",
                "--model", str(tmp_path / "m"),
                "--report", str(tmp_path / "r"),
            ]
        )
        assert code == 2


class TestHarvestCommand:
    def test_bad_category_is_usage_error(self, tmp_path, capsys):
        code = main(
            [
                "harvest",
                "--category", "not a category!",
                "--max", "5",
                "--store", str(tmp_path),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert json.loads(err.splitlines()[-1])["record"] == "error"

    def test_lopsided_dates_are_usage_error(self, tmp_path):
        code = main(
            [
                "harvest",
                "--category", "cs.AI",
                "--max", "5",
                "--store", str(tmp_path),
                "--from", "2001-01-01",
            ]
        )
        assert code == 2


class TestWiring:
    def test_missing_subcommand_exits_2(self):
        assert main([]) == 2

    def test_unknown_flag_exits_2(self):
        assert main(["stats", "--bogus"]) == 2

    def test_missing_file_is_usage_error(self, tmp_path):
        code = main(
            ["stats", "--features", str(tmp_path / "nope"), "--out", str(tmp_path / "o")]
        )
        assert code == 2
