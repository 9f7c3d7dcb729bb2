"""Acceptance gate: one test per criterion, each printing a verdict line.

Every expected value here is either computed by an oracle that shares no
code with the unit under test (brute-force enumeration, finite
differences, independent recounts) or was hand-derived and committed in
golden_expected.json.
"""

import gzip
import io
import json
import pathlib
import random
import re
import tarfile
import time
from collections import Counter
from contextlib import contextmanager
from datetime import date

import numpy as np

import golden_docs
from synth import regression_corpus, two_class_corpus
from texcorpus.classify import (
    TrainConfig,
    evaluate,
    loss_and_gradient,
    train_classifier,
    train_test_split,
)
from texcorpus.cli import feature_record, main
from texcorpus.comments import (
    OverlappingMaximalComments,
    is_comment,
    partition_maximal_comments,
    reference_oracle,
)
from texcorpus.features import extract_document
from texcorpus.harvest import (
    FileType,
    PaperRecord,
    SizeCapExceeded,
    classify_payload,
    parse_listing_feed,
    unpack,
)
from texcorpus.lexer import SourceDocument, TokenKind, tokenize
from texcorpus.store import CorpusStore, PathTraversal
from texcorpus.stats import (
    FilterSpec,
    build_table,
    discriminative,
    linear_trend,
    load_stopwords,
)

HERE = pathlib.Path(__file__).parent


@contextmanager
def verdict(record, number, label):
    try:
        yield
    except BaseException:
        record(f"criterion {number} ({label}): FAIL")
        raise
    record(f"criterion {number} ({label}): PASS")


def golden_documents():
    for doc in golden_docs.DOCS:
        yield SourceDocument(
            id=doc["id"],
            files=[(name, data) for name, data in doc["files"]],
            timestamp=date.fromisoformat(doc["timestamp"]),
            category=doc["category"],
            page_count=doc["pages"],
        )


# ------------------------------------------------- 1: comment partition

def brute_force_outcome(s, oracle):
    """Enumerate the definition directly: maximal means comment and
    unextendable on both sides; overlapping results are an error state."""
    n = len(s)
    memo = {}

    def comment(i, j):
        if (i, j) not in memo:
            memo[(i, j)] = is_comment(s, i, j, oracle)
        return memo[(i, j)]

    maximal = []
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            if not comment(i, j):
                continue
            if i > 1 and comment(i - 1, j):
                continue
            if j < n and comment(i, j + 1):
                continue
            maximal.append((i, j))
    for a in range(len(maximal)):
        for b in range(a + 1, len(maximal)):
            (i1, j1), (i2, j2) = maximal[a], maximal[b]
            if max(i1, i2) <= min(j1, j2):
                return ("overlap",)
    return ("spans", maximal)


def partition_outcome(s):
    try:
        return ("spans", partition_maximal_comments(s, reference_oracle()))
    except OverlappingMaximalComments:
        return ("overlap",)


def test_criterion_1_partition_matches_brute_force(acceptance_verdict):
    with verdict(acceptance_verdict, 1, "maximal-comment partition vs brute force"):
        rng = random.Random(1711)
        alphabet = "ab%\n "
        started = time.monotonic()
        overlaps = 0
        for case in range(1000):
            s = "".join(
                rng.choice(alphabet) for _ in range(rng.randint(0, 24))
            )
            got = partition_outcome(s)
            want = brute_force_outcome(s, reference_oracle())
            assert got == want, f"case {case}: {s!r}: {got} != {want}"
            if got == ("overlap",):
                overlaps += 1
        elapsed = time.monotonic() - started
        assert elapsed < 10.0, f"took {elapsed:.1f}s"
        # the corpus must actually exercise both outcomes
        assert overlaps > 0


# ------------------------------------------------- 2: golden corpus

def test_criterion_2_golden_corpus_exact(acceptance_verdict):
    with verdict(acceptance_verdict, 2, "golden corpus features and comments"):
        entries = []
        for doc in golden_documents():
            result = extract_document(doc)
            entries.append(
                {
                    "id": doc.id,
                    "features": feature_record(result.features),
                    "comments": [
                        {
                            "kind": span.kind,
                            "macro": span.macro,
                            "start": span.start,
                            "end": span.end,
                            "text": span.text,
                        }
                        for span in result.comments
                    ],
                }
            )
        produced = (json.dumps(entries, indent=2, ensure_ascii=False) + "\n").encode(
            "utf-8"
        )
        committed = (HERE / "golden_expected.json").read_bytes()
        assert produced == committed


# ------------------------------------------------- 3: lexer round trip

PIECES = list("ab %\\\n{}[]$*|_0é.") + [
    "\\%",
    "\\\\",
    "\\verb|x y|",
    "\\verb*+a+",
    "\\begin{verbatim}",
    "\\end{verbatim}",
    "\\begin{verbatim*}",
    "\\end{verbatim*}",
    "\\begin{lstlisting}",
    "\\end{lstlisting}",
    "%note",
]

_VERBATIM_BEGIN_RE = re.compile(r"\\begin\{(verbatim\*?|lstlisting)\}")


def verbatim_regions(s):
    """Sequential reference model of where verbatim content lies.

    Walks the source once: backslash pairs are opaque, a live ``%`` skips
    to the newline, and an opener jumps straight to its literal closer, so
    openers inside comments or inside other verbatim regions do not count.
    """
    regions = []
    i, n = 0, len(s)
    while i < n:
        c = s[i]
        if c == "\\":
            m = _VERBATIM_BEGIN_RE.match(s, i)
            if m:
                closer = "\\end{" + m.group(1) + "}"
                stop = s.find(closer, m.end())
                if stop < 0:
                    regions.append((m.end(), n))
                    break
                regions.append((m.end(), stop))
                i = stop + len(closer)
            else:
                i += 2
        elif c == "%":
            nl = s.find("\n", i)
            i = n if nl < 0 else nl + 1
        else:
            i += 1
    return regions


def test_criterion_3_lexer_round_trip(acceptance_verdict):
    with verdict(acceptance_verdict, 3, "lexer round trip on fuzzed input"):
        rng = random.Random(40921)
        for case in range(10_000):
            s = "".join(
                rng.choice(PIECES) for _ in range(rng.randint(0, 12))
            )
            tokens = tokenize(s)
            pos = 0
            for tok in tokens:
                assert tok.start == pos, f"case {case}: gap in {s!r}"
                assert tok.end > tok.start
                pos = tok.end
            assert pos == len(s)
            assert "".join(s[t.start : t.end] for t in tokens) == s

            regions = verbatim_regions(s)
            for tok in tokens:
                if tok.kind is not TokenKind.LINE_COMMENT:
                    continue
                k = 0
                while tok.start - 1 - k >= 0 and s[tok.start - 1 - k] == "\\":
                    k += 1
                assert k % 2 == 0, f"case {case}: escaped %% lexed in {s!r}"
                for lo, hi in regions:
                    assert not (lo <= tok.start < hi), (
                        f"case {case}: comment inside verbatim in {s!r}"
                    )


# ------------------------------------------------- 4: discriminative words

def brute_discriminative(words_a, words_b, k, min_length, drop_stop, stop):
    def recount(words):
        passing = [
            w
            for w in words
            if len(w) >= min_length and not (drop_stop and w in stop)
        ]
        return Counter(passing), len(passing)

    counts_a, total_a = recount(words_a)
    counts_b, total_b = recount(words_b)

    def score(item):
        return counts_a.get(item, 0) / total_a - counts_b.get(item, 0) / total_b

    universe = set(counts_a) | set(counts_b)
    ranked = sorted(universe, key=lambda w: (-score(w), w))
    return [(w, score(w)) for w in ranked[:k]]


def test_criterion_4_discriminative_matches_recount(acceptance_verdict):
    with verdict(acceptance_verdict, 4, "discriminative words vs brute recount"):
        rng = random.Random(77003)
        stop = load_stopwords()
        letters = "abcde"
        for case in range(1000):
            vocab_size = rng.randint(1, 50)
            vocab = list(
                {
                    "".join(
                        rng.choice(letters) for _ in range(rng.randint(1, 8))
                    )
                    for _ in range(vocab_size)
                }
            )
            # one guaranteed survivor per corpus keeps tables non-empty
            words_a = [rng.choice(vocab) for _ in range(rng.randint(0, 200))]
            words_a.append("zygote")
            words_b = [rng.choice(vocab) for _ in range(rng.randint(0, 200))]
            words_b.append("quorum")
            min_length = rng.choice((1, 3))
            drop_stop = rng.random() < 0.3
            filters = FilterSpec(drop_stopwords=drop_stop, min_length=min_length)
            table_a = build_table(words_a, filters)
            table_b = build_table(words_b, filters)
            k = rng.randint(1, len(vocab) + 2)

            got = [
                (d.item, d.score) for d in discriminative(table_a, table_b, k)
            ]
            want = brute_discriminative(
                words_a, words_b, k, min_length, drop_stop, stop
            )
            assert got == want, f"case {case}"

            # exact antisymmetry over the full universe
            universe_k = len(set(table_a.counts) | set(table_b.counts))
            forward = {
                d.item: d.score
                for d in discriminative(table_a, table_b, universe_k)
            }
            backward = {
                d.item: d.score
                for d in discriminative(table_b, table_a, universe_k)
            }
            assert set(forward) == set(backward)
            for item, s in forward.items():
                assert backward[item] == -s, f"case {case}: {item}"


# ------------------------------------------------- 5: slope recovery

def fitted_slope(target, feature, seed):
    vectors = regression_corpus(target, feature, n=5000, sigma=500.0, seed=seed)
    attr = "package_count" if feature == "packages" else "theorem_count"
    xs = [float(getattr(fv, attr)) for fv in vectors]
    ys = [float(fv.word_count) for fv in vectors]
    return linear_trend(xs, ys).slope


def test_criterion_5_regression_recovers_slopes(acceptance_verdict):
    with verdict(acceptance_verdict, 5, "trend slopes recovered within 5%"):
        for target, feature, seed in (
            (370.0, "packages", 52001),
            (600.0, "theorems", 52002),
        ):
            slope = fitted_slope(target, feature, seed)
            assert abs(slope - target) <= 0.05 * target, (
                f"{feature}: fitted {slope:.2f} vs {target}"
            )


# ------------------------------------------------- 6: classifier

def numeric_gradient(weights, bias, X, y, l2, h=1e-6):
    def loss_at(w, b):
        return loss_and_gradient(w, b, X, y, l2)[0]

    grad_w = np.zeros_like(weights)
    for idx in range(weights.size):
        up = weights.copy()
        up[idx] += h
        down = weights.copy()
        down[idx] -= h
        grad_w[idx] = (loss_at(up, bias) - loss_at(down, bias)) / (2 * h)
    grad_b = (loss_at(weights, bias + h) - loss_at(weights, bias - h)) / (2 * h)
    return grad_w, grad_b


def test_criterion_6_classifier(acceptance_verdict):
    with verdict(acceptance_verdict, 6, "gradient check and held-out accuracy"):
        started = time.monotonic()
        rng = np.random.default_rng(88431)
        for _ in range(100):
            m = int(rng.integers(1, 9))
            d = int(rng.integers(1, 6))
            X = rng.normal(size=(m, d))
            y = rng.integers(0, 2, size=m).astype(float)
            w = rng.normal(size=d)
            b = float(rng.normal())
            l2 = float(rng.choice((0.0, 1e-3, 0.1)))
            _, grad_w, grad_b = loss_and_gradient(w, b, X, y, l2)
            num_w, num_b = numeric_gradient(w, b, X, y, l2)
            analytic = np.concatenate([grad_w, [grad_b]])
            numeric = np.concatenate([num_w, [num_b]])
            err = np.linalg.norm(analytic - numeric) / max(
                np.linalg.norm(numeric), 1e-8
            )
            assert err <= 1e-5, f"relative error {err:.2e}"

        vectors = two_class_corpus(10_000, seed=0)
        train_set, test_set = train_test_split(vectors)
        model = train_classifier(train_set, "cs", TrainConfig())
        report = evaluate(model, test_set)
        assert report.accuracy >= 0.75, f"accuracy {report.accuracy:.3f}"
        assert report.accuracy > report.majority_fraction
        weights = dict(model.weight_report())
        # more theorems should pull a paper away from the cs-positive class
        assert weights["theorem_count"] < 0
        elapsed = time.monotonic() - started
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


# ------------------------------------------------- 7: harvest fixtures

FEED_FIXTURE = b"""<?xml version="1.0" encoding="UTF-8"?>
<feed xmlns="http://www.w3.org/2005/Atom" xmlns:opensearch="http://a9.com/-/spec/opensearch/1.1/" xmlns:arxiv="http://arxiv.org/schemas/atom">
<opensearch:totalResults>2</opensearch:totalResults>
<opensearch:startIndex>0</opensearch:startIndex>
<opensearch:itemsPerPage>2</opensearch:itemsPerPage>
<entry>
<id>http://arxiv.org/abs/cs/0101001v2</id>
<published>2001-01-05T10:30:00Z</published>
<title>Learning to Search</title>
<arxiv:comment>12 pages, 3 figures</arxiv:comment>
<arxiv:primary_category term="cs.AI"/>
<category term="cs.AI"/>
<category term="cs.LG"/>
</entry>
<entry>
<id>http://arxiv.org/abs/2204.00123v3</id>
<published>2022-04-02T00:00:00Z</published>
<title>Graphs and Words</title>
<arxiv:primary_category term="math.CO"/>
<category term="math.CO"/>
</entry>
</feed>
"""

EXPECTED_RECORDS = (
    PaperRecord(
        id="cs/0101001",
        title="Learning to Search",
        primary_category="cs.AI",
        categories=("cs.AI", "cs.LG"),
        timestamp=date(2001, 1, 5),
        page_count=12,
    ),
    PaperRecord(
        id="2204.00123",
        title="Graphs and Words",
        primary_category="math.CO",
        categories=("math.CO",),
        timestamp=date(2022, 4, 2),
        page_count=None,
    ),
)


def tar_gz_members(members):
    buf = io.BytesIO()
    with tarfile.open(fileobj=buf, mode="w") as tf:
        for name, data in members:
            info = tarfile.TarInfo(name)
            info.size = len(data)
            tf.addfile(info, io.BytesIO(data))
    return gzip.compress(buf.getvalue())


PAYLOAD_FIXTURES = (
    (b"%PDF-1.4 fake body", FileType.PDF),
    (gzip.compress(b"\\documentclass{article} hi"), FileType.EPRINT),
    (tar_gz_members([("main.tex", b"\\documentclass{article}")]), FileType.EPRINT_TAR),
    (b"%!PS-Adobe-2.0 fake", FileType.POSTSCRIPT),
    (b"<html><body>abstract only</body></html>", FileType.HTML),
    (b"PK\x03\x04 then [Content_Types].xml marker", FileType.DOCX),
)


def test_criterion_7_harvest_fixtures(acceptance_verdict):
    with verdict(acceptance_verdict, 7, "harvest safety and feed fixtures"):
        evil_absolute = tar_gz_members([("/etc/passwd", b"x")])
        evil_dotdot = tar_gz_members([("../../escape.tex", b"x")])
        bomb = tar_gz_members(
            [(f"f{i:04}.tex", b"A" * 2048) for i in range(1000)]
        )
        for payload, error in (
            (evil_absolute, PathTraversal),
            (evil_dotdot, PathTraversal),
            (bomb, SizeCapExceeded),
        ):
            try:
                unpack(
                    payload,
                    FileType.EPRINT_TAR,
                    doc_id="evil",
                    size_cap=1_000_000,
                )
            except error:
                pass
            else:
                raise AssertionError(f"{error.__name__} not raised")

        page = parse_listing_feed(FEED_FIXTURE)
        assert page.records == EXPECTED_RECORDS
        assert page.total_results == 2

        for payload, expected in PAYLOAD_FIXTURES:
            assert classify_payload(payload) is expected


# ------------------------------------------------- 8: determinism

def run_pipeline(store_dir, out_dir):
    out_dir.mkdir()
    paths = {
        "features": out_dir / "features.ndjson",
        "comments": out_dir / "comments.ndjson",
        "words": out_dir / "words.ndjson",
        "stats": out_dir / "stats.ndjson",
        "model": out_dir / "model.json",
        "report": out_dir / "report.ndjson",
    }
    assert (
        main(
            [
                "extract",
                "--corpus", str(store_dir),
                "--out", str(paths["features"]),
                "--comments", str(paths["comments"]),
                "--words", str(paths["words"]),
            ]
        )
        == 0
    )
    assert (
        main(
            [
                "stats",
                "--features", str(paths["features"]),
                "--out", str(paths["stats"]),
            ]
        )
        == 0
    )
    assert (
        main(
            [
                "classify",
                "--features", str(paths["features"]),
                "--positive", "cs.AI",
                "--model", str(paths["model"]),
                "--report", str(paths["report"]),
                "--seed", "0",
            ]
        )
        == 0
    )
    return {name: path.read_bytes() for name, path in paths.items()}


def test_criterion_8_pipeline_determinism(acceptance_verdict, tmp_path):
    with verdict(acceptance_verdict, 8, "end-to-end byte determinism"):
        store = CorpusStore(tmp_path / "corpus")
        for doc in golden_documents():
            store.save(doc)
        first = run_pipeline(tmp_path / "corpus", tmp_path / "run1")
        second = run_pipeline(tmp_path / "corpus", tmp_path / "run2")
        assert first == second
        assert first["features"]  # sanity: outputs are not empty
