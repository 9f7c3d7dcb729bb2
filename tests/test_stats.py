"""Frequency tables, discriminative scores, summaries and trend fits."""

import math
import random
from collections import Counter
from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synth import regression_corpus
from texcorpus.errors import Diagnostic
from texcorpus.features import FeatureVector
from texcorpus.stats import (
    DegenerateX,
    EmptyCorpus,
    FilterMismatch,
    FilterSpec,
    FrequencyTable,
    build_table,
    discriminative,
    grouped_means,
    linear_trend,
    load_stopwords,
    package_incidence,
    summarize,
)

NO_FILTERS = FilterSpec(drop_stopwords=False, min_length=1)


def loop_build_table(words, filters):
    """The per-word loop build_table used to be: the reference its
    count-then-filter form is checked against."""
    stopwords = load_stopwords() if filters.drop_stopwords else frozenset()
    counts = Counter()
    total = 0
    for word in words:
        if len(word) < filters.min_length or word in stopwords:
            continue
        counts[word] += 1
        total += 1
    if total == 0:
        raise EmptyCorpus("no words passed the filters")
    return FrequencyTable(counts=dict(counts), total=total, filters=filters)


def make_fv(**overrides):
    base = dict(
        doc_id="d/1",
        category="cs",
        timestamp=date(2001, 3, 15),
        multi_file=False,
        word_count=1000,
        comment_word_count=50,
        page_count=8,
        package_count=2,
        package_names=("amsmath", "graphicx"),
        newcommand_count=3,
        theorem_count=1,
        theorem_like_count=0,
        figure_count=2,
        includegraphics_count=2,
        epsfig_command_count=0,
        graphicx_declared=True,
        epsfig_declared=False,
        author_count=2,
        author_block_found=True,
    )
    base.update(overrides)
    return FeatureVector(**base)


class TestFrequencyTable:
    def test_counts_and_frequencies(self):
        table = build_table(["x", "y", "x"], NO_FILTERS)
        assert table.total == 3
        assert table.frequency("x") == 2 / 3
        assert table.frequency("missing") == 0.0

    def test_frequencies_sum_to_one(self):
        table = build_table("the quick brown fox the lazy dog".split(), NO_FILTERS)
        assert math.isclose(
            sum(table.frequency(w) for w in table.counts), 1.0
        )

    def test_stopwords_dropped(self):
        table = build_table(["the", "protocol", "of", "kernels"])
        assert "the" not in table.counts
        assert table.total == 2

    def test_min_length(self):
        table = build_table(
            ["a", "ab", "abc"], FilterSpec(drop_stopwords=False, min_length=3)
        )
        assert list(table.counts) == ["abc"]

    def test_empty_raises(self):
        with pytest.raises(EmptyCorpus):
            build_table([], NO_FILTERS)
        with pytest.raises(EmptyCorpus):
            build_table(["the", "of"])  # everything filtered

    @settings(max_examples=300)
    @given(
        words=st.lists(
            st.sampled_from(["the", "of", "a", "ab", "kernel", "protocol", ""])
            | st.text(alphabet="abt", max_size=4),
            max_size=30,
        ),
        drop_stopwords=st.booleans(),
        min_length=st.integers(-1, 5),
    )
    def test_matches_word_loop(self, words, drop_stopwords, min_length):
        filters = FilterSpec(drop_stopwords=drop_stopwords, min_length=min_length)
        try:
            expected = loop_build_table(words, filters)
        except EmptyCorpus:
            with pytest.raises(EmptyCorpus):
                build_table(iter(words), filters)
            return
        got = build_table(iter(words), filters)
        assert got == expected
        assert list(got.counts) == list(expected.counts)

    def test_stopword_list_is_plausible(self):
        stops = load_stopwords()
        assert "the" in stops and "of" in stops
        assert len(stops) > 100
        assert all(w == w.lower() for w in stops)


class TestDiscriminative:
    def test_known_scores(self):
        a = build_table(["x", "x", "y", "z"], NO_FILTERS)
        b = build_table(["y", "y", "z", "z"], NO_FILTERS)
        top = discriminative(a, b, k=2)
        assert top[0].item == "x"
        assert top[0].score == 0.5
        assert top[0].frequency_b == 0.0

    def test_filter_mismatch(self):
        a = build_table(["xyz"], NO_FILTERS)
        b = build_table(["xyz"], FilterSpec(drop_stopwords=False, min_length=2))
        with pytest.raises(FilterMismatch):
            discriminative(a, b)

    def test_ties_rank_alphabetically(self):
        a = build_table(["m", "z", "a"], NO_FILTERS)
        b = build_table(["q", "q", "q"], NO_FILTERS)
        top = discriminative(a, b, k=3)
        assert [d.item for d in top] == ["a", "m", "z"]

    def test_exact_antisymmetry_random(self):
        rng = random.Random(42)
        vocabulary = [f"w{i}" for i in range(30)]
        for _ in range(200):
            words_a = rng.choices(vocabulary, k=rng.randint(1, 50))
            words_b = rng.choices(vocabulary, k=rng.randint(1, 50))
            a = build_table(words_a, NO_FILTERS)
            b = build_table(words_b, NO_FILTERS)
            forward = {d.item: d.score for d in discriminative(a, b, k=1000)}
            backward = {d.item: d.score for d in discriminative(b, a, k=1000)}
            assert set(forward) == set(backward)
            for item, score in forward.items():
                assert backward[item] == -score  # bitwise, not approximately

    def test_k_limits_output(self):
        a = build_table(list("abcdef"), NO_FILTERS)
        b = build_table(list("abc"), NO_FILTERS)
        assert len(discriminative(a, b, k=2)) == 2


class TestPackageIncidence:
    def test_counts_papers_not_declarations(self):
        features = [
            make_fv(package_names=("a", "a", "b")),
            make_fv(package_names=("a",)),
            make_fv(package_names=()),
        ]
        table = package_incidence(features)
        assert table.total == 3
        assert table.counts["a"] == 2
        assert table.counts["b"] == 1

    def test_comparable_between_categories(self):
        table_a = package_incidence([make_fv(package_names=("x",))])
        table_b = package_incidence([make_fv(package_names=("y",))])
        top = discriminative(table_a, table_b, k=1)
        assert top[0].item == "x" and top[0].score == 1.0

    def test_empty(self):
        with pytest.raises(EmptyCorpus):
            package_incidence([])


class TestSummaries:
    def test_basic_summary(self):
        features = [
            make_fv(multi_file=True, comment_word_count=100),
            make_fv(multi_file=False, comment_word_count=0, theorem_count=0),
        ]
        summary = summarize(features)["cs"]
        assert summary.paper_count == 2
        assert summary.fraction_multi_file == 0.5
        assert summary.fraction_no_comments == 0.5
        assert summary.mean_comment_words == 50.0
        assert summary.fraction_with_theorems == 0.5
        assert summary.mean_theorems_when_present == 1.0

    def test_conditional_means_none_when_absent(self):
        features = [make_fv(package_count=0, package_names=(), page_count=None)]
        summary = summarize(features)["cs"]
        assert summary.mean_packages_when_present is None
        assert summary.mean_pages is None
        assert summary.modal_pages is None

    def test_unused_graphics_fractions(self):
        features = [
            make_fv(graphicx_declared=True, includegraphics_count=0),
            make_fv(graphicx_declared=True, includegraphics_count=3),
            make_fv(graphicx_declared=False, includegraphics_count=0),
        ]
        summary = summarize(features)["cs"]
        assert summary.fraction_graphicx_unused == 0.5
        assert summary.fraction_epsfig_unused is None

    def test_category_split(self):
        features = [make_fv(category="cs"), make_fv(category="math")]
        summaries = summarize(features)
        assert sorted(summaries) == ["cs", "math"]

    def test_histograms(self):
        features = [
            make_fv(timestamp=date(2000, 1, 5), page_count=6),
            make_fv(timestamp=date(2001, 1, 7), page_count=6),
            make_fv(timestamp=date(2001, 6, 2), page_count=9),
            make_fv(timestamp=None, page_count=None),
        ]
        diagnostics: list[Diagnostic] = []
        summary = summarize(features, diagnostics)["cs"]
        assert summary.monthly_histogram == (2, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0)
        assert len(diagnostics) == 1 and "1 papers" in diagnostics[0].message
        assert summary.yearly_histogram == {2000: 1, 2001: 2}
        assert summary.page_histogram == {6: 2, 9: 1}
        assert summary.modal_pages == 6

    def test_empty_raises(self):
        with pytest.raises(EmptyCorpus):
            summarize([])

    def test_order_does_not_change_summaries(self):
        rng = random.Random(9)
        features = [
            make_fv(
                doc_id=f"d/{i}",
                category=rng.choice(["cs", "math"]),
                multi_file=rng.random() < 0.5,
                word_count=rng.randint(100, 20000),
                comment_word_count=rng.choice([0, rng.randint(1, 3000)]),
                package_count=rng.randint(0, 9),
                newcommand_count=rng.randint(0, 80),
                theorem_count=rng.randint(0, 12),
                figure_count=rng.randint(0, 9),
                includegraphics_count=rng.randint(0, 2),
                graphicx_declared=rng.random() < 0.5,
                author_count=rng.randint(1, 6),
                page_count=rng.choice([None, rng.randint(2, 40)]),
                timestamp=rng.choice(
                    [None, date(rng.randint(1995, 2003), rng.randint(1, 12), 3)]
                ),
            )
            for i in range(300)
        ]
        shuffled = features[:]
        rng.shuffle(shuffled)
        assert shuffled != features
        assert summarize(shuffled) == summarize(features)


class TestLinearTrend:
    def test_exact_line(self):
        fit = linear_trend([1, 2, 3], [10, 20, 30])
        assert fit.slope == pytest.approx(10.0)
        assert fit.intercept == pytest.approx(0.0)
        assert fit.r == pytest.approx(1.0)
        assert fit.n == 3

    def test_flat_y_has_zero_r(self):
        fit = linear_trend([1, 2, 3], [5, 5, 5])
        assert fit.slope == 0.0
        assert fit.r == 0.0

    def test_degenerate_x(self):
        with pytest.raises(DegenerateX):
            linear_trend([2, 2, 2], [1, 2, 3])
        with pytest.raises(DegenerateX):
            linear_trend([1], [1])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            linear_trend([1, 2], [1])

    @pytest.mark.parametrize(
        "xs, ys",
        [
            # the product of the two variances underflows to zero
            ([0.0, 1.3548625690935062e-131], [0.0, 1.3548625690935062e-131]),
            # subnormal sums, where cov / scale alone comes out as 2.0
            (
                [-6.021811682993518e-163, 3.951330465003351e-162, 3.9813031468371147e-162],
                [7.318910088399118e-163, 1.0017209268844363e-162, 3.5882633061633255e-162],
            ),
        ],
    )
    def test_tiny_variances_keep_r_bounded(self, xs, ys):
        assert -1.0 <= linear_trend(xs, ys).r <= 1.0

    def test_matches_polyfit_on_random_data(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            xs = rng.uniform(-10, 10, size=50)
            ys = 3.7 * xs + rng.normal(0, 2.0, size=50)
            fit = linear_trend(xs, ys)
            slope_np, intercept_np = np.polyfit(xs, ys, 1)
            assert fit.slope == pytest.approx(slope_np, rel=1e-9)
            assert fit.intercept == pytest.approx(intercept_np, rel=1e-9)
            r_np = np.corrcoef(xs, ys)[0, 1]
            assert fit.r == pytest.approx(r_np, rel=1e-9)

    @given(
        st.lists(
            st.tuples(
                st.floats(-1e6, 1e6, allow_nan=False),
                st.floats(-1e6, 1e6, allow_nan=False),
            ),
            min_size=2,
            max_size=40,
        )
    )
    @settings(max_examples=100)
    def test_r_bounded(self, pairs):
        xs = [p[0] for p in pairs]
        ys = [p[1] for p in pairs]
        try:
            fit = linear_trend(xs, ys)
        except DegenerateX:
            return
        assert -1.0 - 1e-9 <= fit.r <= 1.0 + 1e-9


class TestGroupedMeans:
    def test_means_by_key(self):
        pairs = [(1, 10.0), (1, 20.0), (2, 30.0)]
        assert grouped_means(pairs) == [(1, 15.0), (2, 30.0)]

    def test_sorted_by_key(self):
        assert [x for x, _ in grouped_means([(3, 1.0), (1, 1.0)])] == [1, 3]


class TestRegressionCorpus:
    def test_unknown_feature_rejected(self):
        with pytest.raises(ValueError):
            regression_corpus(100.0, "figures")

    def test_planted_slope_recovered(self):
        vectors = regression_corpus(250.0, "theorems", n=2000, sigma=100.0, seed=5)
        xs = [float(fv.theorem_count) for fv in vectors]
        ys = [float(fv.word_count) for fv in vectors]
        fit = linear_trend(xs, ys)
        assert abs(fit.slope - 250.0) < 5.0
        assert all(fv.package_count == 0 for fv in vectors)
        assert all(fv.word_count >= 0 for fv in vectors)
