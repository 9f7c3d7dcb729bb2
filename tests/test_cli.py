"""End-to-end runs of the command line against small temp corpora."""

import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import re
import tempfile
from datetime import date
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from synth import two_class_corpus
from texcorpus import cli, harvest
from texcorpus.cli import (
    CLASSIFY_SCHEMA,
    FEATURES_SCHEMA,
    NdjsonWriter,
    feature_record,
    main,
    parse_feature_record,
    read_ndjson,
)
from texcorpus.features import FeatureVector
from texcorpus.harvest import CorpusStore
from texcorpus.lexer import MAX_PAGE_COUNT, SourceDocument

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


@pytest.fixture()
def corpus40(tmp_path):
    """Forty documents: enough for chunks larger than one at --jobs 2 and 3."""
    store = CorpusStore(tmp_path / "corpus")
    for i in range(40):
        _, category, stamp, pages, body = DOCS[i % len(DOCS)]
        store.save(
            SourceDocument(
                id=f"doc/{i:04d}",
                files=[("main.tex", body + f"% note {i}\nWord{i} here\n".encode())],
                category=category,
                timestamp=stamp,
                page_count=pages,
            )
        )
    return tmp_path


def valid_feature_records():
    """Eight valid feature records, four in each of two categories."""
    return [
        feature_record(
            FeatureVector(
                doc_id=f"d/{i}",
                category="cs" if i % 2 else "math",
                timestamp=None if i == 6 else date(2000 + i, 1 + i, 1),
                multi_file=i % 3 == 0,
                word_count=100 + 37 * i,
                comment_word_count=5 * (i % 4),
                page_count=None if i == 5 else 3 + i,
                package_count=i % 3,
                package_names=("amsmath", "graphicx")[: i % 3],
                newcommand_count=i % 4,
                theorem_count=i * 7 % 5,
                theorem_like_count=i % 2,
                figure_count=i % 2,
                includegraphics_count=i % 3,
                epsfig_command_count=0,
                graphicx_declared=i % 2 == 0,
                epsfig_declared=i == 4,
                author_count=1 + i % 3,
                author_block_found=i != 3,
            )
        )
        for i in range(8)
    ]


def ndjson_bytes(schema_name, records):
    schema = {"record": "schema", "name": schema_name, "version": 1}
    return "".join(json.dumps(r) + "\n" for r in [schema, *records]).encode()


def write_features(path, records):
    path.write_bytes(ndjson_bytes(FEATURES_SCHEMA, records))
    return path


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

    def test_largest_page_count_is_read_back(self, tmp_path):
        CorpusStore(tmp_path / "corpus").save(
            SourceDocument(
                id="cs/0001",
                files=[("main.tex", DOCS[0][4])],
                category="cs.AI",
                page_count=MAX_PAGE_COUNT,
            )
        )
        out, _, _ = run_extract(tmp_path)
        [record] = read_ndjson(out, FEATURES_SCHEMA)
        assert record["pages"] == MAX_PAGE_COUNT
        assert feature_record(parse_feature_record(record)) == record
        assert main(["stats", "--features", str(out), "--out", str(tmp_path / "s")]) == 0

    def test_page_count_above_the_largest_is_corrupt_meta(self, corpus, capsys):
        # a features record cannot hold it, so the store must not load it
        entry = corpus / "corpus" / "big_1"
        (entry / "files").mkdir(parents=True)
        (entry / "files" / "main.tex").write_bytes(DOCS[0][4])
        meta = {
            "schema": "texcorpus.corpus.v1",
            "id": "big/1",
            "category": "cs.AI",
            "timestamp": "2001-01-02",
            "page_count": 10000000000000000,
            "main_file": None,
            "files": ["main.tex"],
        }
        (entry / "meta.json").write_text(json.dumps(meta))
        out, _, _ = run_extract(corpus)
        errors = capsys.readouterr().err.splitlines()
        assert errors == [
            f"[extract] big_1: big_1: page_count must be from 1 to {MAX_PAGE_COUNT} "
            "when present"
        ]
        records = read_ndjson(out, FEATURES_SCHEMA)
        assert [r["id"] for r in records] == ["cs/0001", "math/0002", "math/0003"]
        assert main(["stats", "--features", str(out), "--out", str(corpus / "s")]) == 0

    def test_parallel_matches_serial(self, corpus40):
        # 40 documents make chunks of 5 at --jobs 2 and of 3 at --jobs 3
        outputs = run_extract(corpus40, jobs=1)
        serial = tuple(path.read_bytes() for path in outputs)
        assert len(read_ndjson(outputs[0], FEATURES_SCHEMA)) == 40
        for jobs in (2, 3):
            for path in outputs:
                path.unlink()
            outputs = run_extract(corpus40, jobs=jobs)
            assert tuple(path.read_bytes() for path in outputs) == serial

    def test_pool_has_no_more_workers_than_documents(self, corpus, monkeypatch):
        import concurrent.futures

        serial = tuple(path.read_bytes() for path in run_extract(corpus, jobs=1))
        real_pool = concurrent.futures.ProcessPoolExecutor
        sizes = []

        def guarded_pool(max_workers=None, **kwargs):
            sizes.append(max_workers)
            if max_workers is None or max_workers > len(DOCS):
                raise AssertionError(f"{max_workers} workers for {len(DOCS)} documents")
            return real_pool(max_workers=max_workers, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", guarded_pool)
        outputs = run_extract(corpus, jobs=64)
        assert sizes == [len(DOCS)]
        assert tuple(path.read_bytes() for path in outputs) == serial

    @pytest.mark.parametrize("flag", ["--out", "--comments", "--words"])
    def test_unwritable_output_fails_before_extracting(
        self, corpus, monkeypatch, capsys, flag
    ):
        calls = []
        monkeypatch.setattr(
            cli, "extract_document", lambda doc: calls.append(doc.id)
        )
        paths = {
            name: str(corpus / f"{name[2:]}.ndjson")
            for name in ("--out", "--comments", "--words")
        }
        paths[flag] = str(corpus / "no" / "dir" / "x.ndjson")
        argv = ["extract", "--corpus", str(corpus / "corpus")]
        for name, path in paths.items():
            argv += [name, path]
        assert main(argv) == 2
        assert calls == []
        assert f"cannot write {paths[flag]}" in capsys.readouterr().err
        assert sorted(os.listdir(corpus)) == ["corpus"]

    @pytest.mark.parametrize("second", ["--comments", "--words"])
    def test_two_outputs_on_one_file_fail_before_extracting(
        self, corpus, monkeypatch, capsys, second
    ):
        calls = []
        monkeypatch.setattr(
            cli, "extract_document", lambda doc: calls.append(doc.id)
        )
        same = str(corpus / "same.ndjson")
        alias = f"{corpus}/corpus/../same.ndjson"
        argv = ["extract", "--corpus", str(corpus / "corpus"), "--out", same]
        assert main(argv + [second, alias]) == 2
        assert calls == []
        assert f"{alias} is given for two outputs" in capsys.readouterr().err
        assert sorted(os.listdir(corpus)) == ["corpus"]

    def test_a_device_may_take_two_outputs(self, corpus):
        code = main(
            [
                "extract",
                "--corpus", str(corpus / "corpus"),
                "--out", str(corpus / "features.ndjson"),
                "--comments", os.devnull,
                "--words", os.devnull,
            ]
        )
        assert code == 0
        assert len(read_ndjson(corpus / "features.ndjson", FEATURES_SCHEMA)) == 3

    def test_crash_leaves_outputs_as_they_were(self, corpus40, monkeypatch):
        real = cli.extract_document
        calls = []

        def third_one_breaks(doc):
            calls.append(doc.id)
            if len(calls) == 3:
                raise RuntimeError("boom")
            return real(doc)

        monkeypatch.setattr(cli, "extract_document", third_one_breaks)
        out = corpus40 / "features.ndjson"
        out.write_bytes(b"earlier run\n")
        code = main(
            [
                "extract",
                "--corpus", str(corpus40 / "corpus"),
                "--out", str(out),
                "--comments", str(corpus40 / "comments.ndjson"),
                "--words", str(corpus40 / "words.ndjson"),
            ]
        )
        assert code == 1
        assert len(calls) == 3
        assert out.read_bytes() == b"earlier run\n"
        assert sorted(os.listdir(corpus40)) == ["corpus", "features.ndjson"]

    def test_empty_corpus_is_usage_error(self, tmp_path):
        (tmp_path / "corpus").mkdir()
        code = main(
            ["extract", "--corpus", str(tmp_path / "corpus"), "--out", str(tmp_path / "f")]
        )
        assert code == 2

    def test_missing_corpus_is_usage_error_and_not_created(self, tmp_path, capsys):
        missing = tmp_path / "no" / "such"
        code = main(["extract", "--corpus", str(missing), "--out", str(tmp_path / "f")])
        assert code == 2
        assert f"corpus {missing} does not exist" in capsys.readouterr().err
        assert not (tmp_path / "no").exists()

    def test_corpus_that_is_a_file_is_usage_error(self, tmp_path, capsys):
        regular = tmp_path / "corpus"
        regular.write_text("not a store")
        code = main(["extract", "--corpus", str(regular), "--out", str(tmp_path / "f")])
        assert code == 2
        assert f"corpus {regular} is not a directory" in capsys.readouterr().err

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

    @pytest.mark.parametrize("form", ["ndjson", "csv"])
    def test_output_in_missing_directory_is_usage_error(self, corpus, capsys, form):
        out, _, _ = run_extract(corpus)
        target = corpus / "no" / "dir" / "s.out"
        code = main(
            ["stats", "--features", str(out), "--out", str(target), "--format", form]
        )
        assert code == 2
        assert f"cannot write {target}: " in capsys.readouterr().err

    def test_output_that_is_a_directory_is_usage_error(self, corpus, capsys):
        out, _, _ = run_extract(corpus)
        code = main(["stats", "--features", str(out), "--out", str(corpus)])
        assert code == 2
        assert f"cannot write {corpus}: Is a directory" in capsys.readouterr().err

    def test_symlinked_output_writes_the_file_it_names(self, corpus):
        out, _, _ = run_extract(corpus)
        real = corpus / "real.ndjson"
        real.write_text("old\n")
        link = corpus / "link.ndjson"
        link.symlink_to(real)
        assert main(["stats", "--features", str(out), "--out", str(link)]) == 0
        assert link.is_symlink()
        assert read_ndjson(real, "texcorpus.stats")

    def test_output_to_a_pipe_is_written_in_place(self, corpus):
        out, _, _ = run_extract(corpus)
        fifo = corpus / "pipe"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            assert main(["stats", "--features", str(out), "--out", str(fifo)]) == 0
            received = os.read(reader, 1 << 16)
        finally:
            os.close(reader)
        assert fifo.is_fifo()
        assert received.startswith(b'{"record":"schema","name":"texcorpus.stats"')
        assert sorted(os.listdir(corpus)) == sorted(
            ["corpus", "pipe", "features.ndjson", "comments.ndjson", "words.ndjson"]
        )

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

    def test_same_category_twice_is_usage_error(self, corpus, capsys):
        out, _, words = run_extract(corpus)
        code = main(
            [
                "discriminate",
                "--features", str(out),
                "--words", str(words),
                "--out", str(corpus / "d"),
                "--categories", "cs.AI, cs.AI",
            ]
        )
        assert code == 2
        assert "--categories names 'cs.AI' twice" in capsys.readouterr().err
        assert not (corpus / "d").exists()

    def test_negative_k_is_usage_error(self, corpus, capsys):
        out, _, _ = run_extract(corpus)
        code = main(
            [
                "discriminate",
                "--features", str(out),
                "--out", str(corpus / "d"),
                "--basis", "packages",
                "-k", "-1",
            ]
        )
        assert code == 2
        assert "'-1' is not an integer of at least 0" in capsys.readouterr().err
        assert not (corpus / "d").exists()


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
        assert saved["schema"] == "texcorpus.model.v2"

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

    @pytest.mark.parametrize(
        "categories, message",
        [
            ([], "the training split is empty"),
            (["cs"] * 4, "the training split holds only category 'cs'"),
            (
                ["math", "bio", "math", "bio"],
                "the training split holds no document of category 'cs'",
            ),
        ],
    )
    def test_training_split_without_two_classes_is_usage_error(
        self, tmp_path, capsys, categories, message
    ):
        from texcorpus.classify import train_test_split

        # one record more than `categories`: the default split holds it out
        # for testing, and it is the one positive document
        vectors = two_class_corpus(len(categories) + 1, seed=4)
        _, (held_out,) = train_test_split(vectors)
        named = iter(categories)
        vectors = [
            dataclasses.replace(
                fv, category="cs" if fv is held_out else next(named)
            )
            for fv in vectors
        ]
        features = tmp_path / "features.ndjson"
        self.write_features(features, vectors)
        code = main(
            [
                "classify",
                "--features", str(features),
                "--positive", "cs",
                "--model", str(tmp_path / "m"),
                "--report", str(tmp_path / "r"),
            ]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert message in err
        assert "labels contain" not in err
        assert sorted(os.listdir(tmp_path)) == ["features.ndjson"]

    def test_test_fraction_outside_zero_one_is_usage_error(self, tmp_path, capsys):
        code = main(
            [
                "classify",
                "--features", str(tmp_path / "f"),
                "--positive", "cs",
                "--model", str(tmp_path / "m"),
                "--report", str(tmp_path / "r"),
                "--test-fraction", "1.5",
            ]
        )
        assert code == 2
        assert "'1.5' is not a number strictly between 0 and 1" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize(
        "flag, value, requirement",
        [
            ("--l2", l2, "a finite number of at least 0")
            for l2 in ("nan", "inf", "1e400", "-1")
        ]
        + [
            ("--max-epochs", epochs, "an integer of at least 1")
            for epochs in ("0", "-5")
        ],
    )
    def test_training_option_out_of_range_is_usage_error(
        self, tmp_path, capsys, flag, value, requirement
    ):
        code = main(
            [
                "classify",
                "--features", str(tmp_path / "f"),
                "--positive", "cs",
                "--model", str(tmp_path / "m"),
                "--report", str(tmp_path / "r"),
                flag, value,
            ]
        )
        assert code == 2
        assert f"{value!r} is not {requirement}" in capsys.readouterr().err

    def test_separable_data_without_penalty_fits_finite_weights(
        self, tmp_path, capsys
    ):
        # theorems alone tell the classes apart, so at --l2 0 the loss has
        # no minimum and the weights would grow without bound
        vectors = [
            dataclasses.replace(fv, theorem_count=0 if fv.category == "cs" else 3)
            for fv in two_class_corpus(40, seed=2)
        ]
        features = tmp_path / "features.ndjson"
        self.write_features(features, vectors)
        model_path = tmp_path / "model.json"
        code = main(
            [
                "classify",
                "--features", str(features),
                "--positive", "cs",
                "--model", str(model_path),
                "--report", str(tmp_path / "r.ndjson"),
                "--l2", "0",
                "--max-epochs", "50",
            ]
        )
        assert code == 0
        assert "internal:" not in capsys.readouterr().err
        saved = json.loads(model_path.read_text())
        assert all(math.isfinite(w) for w in saved["weights"] + [saved["bias"]])
        assert 1 <= saved["epochs_run"] <= 50
        head = read_ndjson(tmp_path / "r.ndjson", CLASSIFY_SCHEMA)[0]
        assert head["accuracy"] == 1.0

    def test_model_in_missing_directory_is_usage_error(self, tmp_path, capsys):
        features = tmp_path / "features.ndjson"
        self.write_features(features, two_class_corpus(40, seed=2))
        model = tmp_path / "no" / "dir" / "model.json"
        code = main(
            [
                "classify",
                "--features", str(features),
                "--positive", "cs",
                "--model", str(model),
                "--report", str(tmp_path / "r"),
                "--max-epochs", "50",
            ]
        )
        assert code == 2
        assert f"cannot write {model}: " in capsys.readouterr().err

    def test_report_in_missing_directory_fails_before_training(
        self, tmp_path, monkeypatch, capsys
    ):
        from texcorpus import classify as classify_mod

        features = tmp_path / "features.ndjson"
        self.write_features(features, two_class_corpus(40, seed=2))
        trained = []
        monkeypatch.setattr(
            classify_mod, "train_classifier", lambda *args: trained.append(args)
        )
        model = tmp_path / "model.json"
        report = tmp_path / "no" / "dir" / "r.ndjson"
        code = main(
            [
                "classify",
                "--features", str(features),
                "--positive", "cs",
                "--model", str(model),
                "--report", str(report),
                "--max-epochs", "50",
            ]
        )
        assert code == 2
        assert f"cannot write {report}: " in capsys.readouterr().err
        assert trained == []
        assert sorted(os.listdir(tmp_path)) == ["features.ndjson"]

    def test_model_and_report_on_one_file_is_usage_error(self, tmp_path, capsys):
        features = tmp_path / "features.ndjson"
        self.write_features(features, two_class_corpus(40, seed=2))
        same = str(tmp_path / "same.json")
        code = main(
            [
                "classify",
                "--features", str(features),
                "--positive", "cs",
                "--model", same,
                "--report", same,
                "--max-epochs", "50",
            ]
        )
        assert code == 2
        assert f"{same} is given for two outputs" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["features.ndjson"]


def refuse_fetch(*args, **kwargs):
    raise AssertionError("harvest fetched despite a bad option")


class TestHarvestCommand:
    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--delay", "-1", "'-1' is not a number from 0 to 86400"),
            ("--delay", "nan", "'nan' is not a number from 0 to 86400"),
            ("--page-size", "0", "'0' is not an integer of at least 1"),
            ("--max", "0", "'0' is not an integer of at least 1"),
        ],
    )
    def test_bad_option_is_usage_error_before_any_fetch(
        self, tmp_path, capsys, monkeypatch, flag, value, message
    ):
        monkeypatch.setattr(harvest, "http_fetch", refuse_fetch)
        code = main(
            [
                "harvest",
                "--category", "cs.AI",
                "--max", "5",
                "--store", str(tmp_path / "store"),
                flag, value,
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert message in err and "internal:" not in err
        assert not (tmp_path / "store").exists()

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

    def test_zero_jobs_is_usage_error(self, corpus, capsys):
        code = main(
            [
                "extract",
                "--corpus", str(corpus / "corpus"),
                "--out", str(corpus / "f"),
                "--jobs", "0",
            ]
        )
        assert code == 2
        assert "'0' is not an integer of at least 1" in capsys.readouterr().err
        assert not (corpus / "f").exists()

    def test_missing_file_is_usage_error(self, tmp_path):
        code = main(
            ["stats", "--features", str(tmp_path / "nope"), "--out", str(tmp_path / "o")]
        )
        assert code == 2


class TestMalformedRecords:
    """Input records of the wrong shape are usage errors naming file and line."""

    def write(self, path, *lines):
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        return path

    def test_schema_line_not_an_object(self, tmp_path, capsys):
        features = self.write(tmp_path / "f.ndjson", "[1]")
        code = main(["stats", "--features", str(features), "--out", str(tmp_path / "o")])
        assert code == 2
        assert f"{features}:1: not a JSON object" in capsys.readouterr().err

    def test_feature_line_not_an_object(self, tmp_path, capsys):
        schema = json.dumps({"record": "schema", "name": FEATURES_SCHEMA, "version": 1})
        features = self.write(tmp_path / "f.ndjson", schema, "[1,2]")
        code = main(["stats", "--features", str(features), "--out", str(tmp_path / "o")])
        assert code == 2
        assert f"{features}:2: not a JSON object" in capsys.readouterr().err

    def test_words_record_without_doc_id(self, corpus, capsys):
        out, _, _ = run_extract(corpus)
        schema = json.dumps({"record": "schema", "name": "texcorpus.words", "version": 1})
        words = self.write(corpus / "w.ndjson", schema, '{"x":1}')
        code = main(
            [
                "discriminate",
                "--features", str(out),
                "--words", str(words),
                "--out", str(corpus / "d"),
            ]
        )
        assert code == 2
        assert f"{words}:2: a words record needs" in capsys.readouterr().err

    @pytest.mark.parametrize("selection", [["--between", "regions"], ["--basis", "text"]])
    @pytest.mark.parametrize(
        "key, word",
        [("words", 5), ("comment_words", "\ud800kernel"), ("words", ["nested"])],
        ids=["int", "lone-surrogate", "nested-list"],
    )
    def test_mistyped_word(self, corpus, capsys, selection, key, word):
        out, _, words = run_extract(corpus)
        lines = words.read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[2])
        record[key].append(word)
        lines[2] = json.dumps(record)  # ASCII: the surrogate stays a \u escape
        self.write(words, *lines)
        argv = ["discriminate", "--features", str(out), "--words", str(words)]
        code = main([*argv, "--out", str(corpus / "d"), *selection])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{words}:3: {key!r} must be a list of strings" in err
        assert "internal:" not in err
        assert not (corpus / "d").exists()

    @pytest.mark.parametrize(
        "key, value",
        [
            ("multi_file", "false"),
            ("words", "120"),
            ("comment_words", 3.9),
            ("pages", "12"),
            ("pages", 0),
            ("words", -1),
            ("theorems", True),
            ("figures", 2**53),
            ("authors", 10**400),
            ("package_names", ["amsmath", 1]),
            ("package_names", "amsmath"),
            ("id", 7),
            ("category", None),
            ("category", "\ud800"),
            ("timestamp", 20010310),
            ("timestamp", "2001-13-40"),
            ("graphicx_declared", 1),
        ],
    )
    def test_mistyped_feature_value(self, tmp_path, capsys, key, value):
        records = valid_feature_records()
        records[0][key] = value
        features = write_features(tmp_path / "f.ndjson", records)
        code = main(["stats", "--features", str(features), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{features}:2: feature record {key!r}" in err
        assert "internal:" not in err
        assert not (tmp_path / "o").exists()

    def test_missing_feature_key(self, tmp_path, capsys):
        records = valid_feature_records()
        del records[3]["pages"]
        features = write_features(tmp_path / "f.ndjson", records)
        code = main(["stats", "--features", str(features), "--out", str(tmp_path / "o")])
        assert code == 2
        assert f"{features}:5: feature record lacks 'pages'" in capsys.readouterr().err

    def test_valid_records_pass(self, tmp_path):
        features = write_features(tmp_path / "f.ndjson", valid_feature_records())
        assert main(["stats", "--features", str(features), "--out", str(tmp_path / "o")]) == 0

    def test_feature_line_not_utf8(self, tmp_path, capsys):
        schema = json.dumps({"record": "schema", "name": FEATURES_SCHEMA, "version": 1})
        features = tmp_path / "f.ndjson"
        features.write_bytes(schema.encode() + b"\n\xff\xfe\n")
        code = main(["stats", "--features", str(features), "--out", str(tmp_path / "o")])
        assert code == 2
        assert f"{features}:2: not UTF-8 text" in capsys.readouterr().err

    def test_words_line_not_utf8(self, corpus, capsys):
        out, _, _ = run_extract(corpus)
        schema = json.dumps({"record": "schema", "name": "texcorpus.words", "version": 1})
        record = json.dumps({"doc_id": "cs/0001", "words": [], "comment_words": []})
        words = corpus / "w.ndjson"
        words.write_bytes(f"{schema}\n{record}\n".encode() + b'{"doc_id":"\xe9"}\n')
        code = main(
            [
                "discriminate",
                "--features", str(out),
                "--words", str(words),
                "--out", str(corpus / "d"),
            ]
        )
        assert code == 2
        assert f"{words}:3: not UTF-8 text" in capsys.readouterr().err


# Any JSON value: lone surrogates, NaN, infinities and integers far past
# 2**64 included.
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**400), max_value=10**400)
    | st.floats()
    | st.text(st.characters(exclude_categories=()), max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


class TestFeatureRecordFuzz:
    """One field of one feature record replaced by any JSON value: every
    analysis command exits 0 or 2, never through the internal-error branch."""

    @given(
        index=st.integers(0, 7),
        key=st.sampled_from([wire for wire, *_ in cli.FEATURE_WIRE]),
        value=JSON_VALUES,
    )
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_analysis_commands_never_fail_internally(self, tmp_path, index, key, value):
        records = valid_feature_records()
        records[index][key] = value
        features = str(write_features(tmp_path / "f.ndjson", records))
        for argv in (
            ["stats", "--features", features, "--out", str(tmp_path / "stats")],
            ["trends", "--features", features, "--out", str(tmp_path / "trends")],
            [
                "discriminate",
                "--basis", "packages",
                "--features", features,
                "--out", str(tmp_path / "discriminate"),
            ],
            [
                "classify",
                "--features", features,
                "--positive", "cs",
                "--model", str(tmp_path / "model"),
                "--report", str(tmp_path / "report"),
                "--max-epochs", "20",
            ],
        ):
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (0, 2), (argv[0], err.getvalue())
            assert "internal:" not in err.getvalue(), argv[0]


def valid_words_records():
    """Word lists for the eight records of ``valid_feature_records``."""
    return [
        {
            "doc_id": f"d/{i}",
            "words": ["lattice", "proof", "network", "graph"][: 1 + i % 4] * (1 + i),
            "comment_words": ["todo", "fix"][: i % 3],
        }
        for i in range(8)
    ]


def edit_bytes(data: bytes, edit: tuple) -> bytes:
    """Apply one generated edit to an input file's bytes."""
    kind, *arg = edit
    if kind == "cut":
        return data[: arg[0] % (len(data) + 1)]
    if kind == "insert":
        at = arg[0] % (len(data) + 1)
        return data[:at] + arg[1] + data[at:]
    if kind == "nest":
        lines = data.split(b"\n")
        lines[arg[0] % len(lines)] = b"[" * arg[1] + b"]" * arg[1]
        return b"\n".join(lines)
    if kind == "schema":
        return re.sub(rb"texcorpus\.\w+", arg[0], data, count=1)
    if kind == "no schema line":
        return data.split(b"\n", 1)[-1]
    if kind == "crlf":
        return data.replace(b"\n", b"\r\n")
    if kind == "bom":
        return b"\xef\xbb\xbf" + data
    assert kind == "bytes"
    return arg[0]


def write_input(path: Path, data: bytes, edits: list[tuple]) -> None:
    """Write the edited bytes to path, or make a directory there."""
    if ("directory",) in edits:
        path.mkdir()
        return
    for edit in edits:
        data = edit_bytes(data, edit)
    path.write_bytes(data)


# A file is a list of edits applied to the valid file in turn; the
# "directory" edit puts a directory in place of the file.
INPUT_FILES = st.lists(
    st.tuples(st.just("cut"), st.integers(0, 10_000))
    | st.tuples(st.just("insert"), st.integers(0, 10_000), st.binary(min_size=1, max_size=4))
    | st.tuples(st.just("nest"), st.integers(0, 8), st.integers(1, 3000))
    | st.tuples(st.just("schema"), st.sampled_from([b"texcorpus.features", b"texcorpus.words"]))
    | st.tuples(st.sampled_from(["no schema line", "crlf", "bom", "directory"]))
    | st.tuples(st.just("bytes"), st.binary(max_size=64)),
    max_size=3,
)


def option(*listed):
    """Mostly one of the listed values, sometimes any short text."""
    return st.one_of(*[st.sampled_from(listed)] * 3, st.text(max_size=6))


@st.composite
def analysis_argv(draw):
    """An analysis subcommand with generated options, and the names of the
    input files it reads."""
    command = draw(st.sampled_from(["stats", "trends", "discriminate", "classify"]))
    argv = [command]
    if command == "stats":
        argv += ["--format", draw(option("ndjson", "csv"))]
    elif command == "trends":
        argv += ["--figure-basis", draw(option("includegraphics", "environments"))]
    elif command == "discriminate":
        argv += ["--basis", draw(option("text", "comments", "packages"))]
        argv += ["--between", draw(option("categories", "regions"))]
        if draw(st.booleans()):
            argv += ["--categories", draw(option("cs,math", "math,cs", "cs,zz", "cs"))]
        argv += ["-k", draw(option("0", "3", "-1"))]
        argv += ["--min-length", draw(option("-2", "0", "3", "9"))]
        if draw(st.booleans()):
            argv.append("--keep-stopwords")
    else:
        argv += ["--positive", draw(option("cs", "math", "zz"))]
        argv += ["--test-fraction", draw(option("0.25", "0.5", "1"))]
        argv += ["--seed", draw(option("-2", "-1", "0", "7", str(2**70)))]
        argv += ["--max-epochs", draw(option("-1", "0", "20"))]
        argv += ["--l2", draw(option("0.001", "0", "1e308", "-1", "nan", "1e400"))]
    inputs = ["features"]
    if command == "discriminate" and draw(st.booleans()):
        inputs.append("words")
    return argv, inputs


class TestMainFuzz:
    """Generated argv and input bytes through ``main``: every run exits 0 or
    2, never through the internal-error branch."""

    @given(
        command=analysis_argv(),
        features_edit=INPUT_FILES,
        words_edit=INPUT_FILES,
    )
    @settings(max_examples=500, deadline=None)
    def test_analysis_commands_exit_0_or_2(self, command, features_edit, words_edit):
        argv, inputs = list(command[0]), command[1]
        originals = {
            "features": ndjson_bytes(FEATURES_SCHEMA, valid_feature_records()),
            "words": ndjson_bytes("texcorpus.words", valid_words_records()),
        }
        edits = {"features": features_edit, "words": words_edit}
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            for name in inputs:
                path = root / f"{name}.ndjson"
                write_input(path, originals[name], edits[name])
                argv += [f"--{name}", str(path)]
            if argv[0] == "classify":
                argv += ["--model", str(root / "model"), "--report", str(root / "report")]
            else:
                argv += ["--out", str(root / "out")]
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(argv)
        assert code in (0, 2), (argv, err.getvalue())
        assert "internal:" not in err.getvalue()
