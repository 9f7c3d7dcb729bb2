"""Corpus-level statistics: word and package frequency tables, discriminative
scoring between corpora, per-category summaries and simple least-squares
trend fits.

Summaries are built through mergeable accumulators holding integer sums, so
splitting a corpus into chunks, accumulating each and merging gives results
identical to a single pass in any order.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field, fields
from importlib import resources
from typing import Iterable

from .errors import Diagnostic, TexcorpusError
from .features import FeatureVector


class EmptyCorpus(TexcorpusError):
    """A statistic was requested over zero observations."""


class FilterMismatch(TexcorpusError):
    """Two frequency tables built under different filters were compared."""


class DegenerateX(TexcorpusError):
    """A trend fit was requested with no variance in the predictor."""


@dataclass(frozen=True)
class FilterSpec:
    """Which words enter a frequency table."""

    drop_stopwords: bool = True
    min_length: int = 1


DEFAULT_FILTERS = FilterSpec()


def load_stopwords() -> frozenset[str]:
    """The bundled English stop-word list, one lowercase word per line."""
    text = (
        resources.files("texcorpus").joinpath("data/stopwords.txt").read_text("utf-8")
    )
    return frozenset(line.strip() for line in text.splitlines() if line.strip())


@dataclass(frozen=True)
class FrequencyTable:
    """Relative frequencies of items in a corpus.

    ``total`` is the number of item occurrences that passed the filters,
    so frequencies over the table's own vocabulary sum to one. For package
    incidence tables the items are package names and ``total`` is the
    number of papers.
    """

    counts: dict[str, int]
    total: int
    filters: FilterSpec

    def frequency(self, item: str) -> float:
        return self.counts.get(item, 0) / self.total

    def entries(self) -> list[tuple[str, int]]:
        """(item, count) pairs, most frequent first, ties alphabetical."""
        return sorted(self.counts.items(), key=lambda kv: (-kv[1], kv[0]))


def build_table(
    words: Iterable[str],
    filters: FilterSpec = DEFAULT_FILTERS,
    stopwords: frozenset[str] | None = None,
) -> FrequencyTable:
    """Count filter-passing words into a frequency table.

    Raises EmptyCorpus when nothing passes, since frequencies would be
    undefined.
    """
    if stopwords is None and filters.drop_stopwords:
        stopwords = load_stopwords()
    counts: Counter[str] = Counter()
    total = 0
    for word in words:
        if len(word) < filters.min_length:
            continue
        if filters.drop_stopwords and word in stopwords:
            continue
        counts[word] += 1
        total += 1
    if total == 0:
        raise EmptyCorpus("no words passed the filters")
    return FrequencyTable(counts=dict(counts), total=total, filters=filters)


def package_incidence(features: Iterable[FeatureVector]) -> FrequencyTable:
    """Fraction of papers declaring each package.

    A package is counted once per paper regardless of how many times it is
    declared there.
    """
    counts: Counter[str] = Counter()
    papers = 0
    for fv in features:
        papers += 1
        for name in set(fv.package_names):
            counts[name] += 1
    if papers == 0:
        raise EmptyCorpus("no papers given")
    no_filters = FilterSpec(drop_stopwords=False, min_length=0)
    return FrequencyTable(counts=dict(counts), total=papers, filters=no_filters)


@dataclass(frozen=True)
class DiscriminativeItem:
    item: str
    score: float
    frequency_a: float
    frequency_b: float


def discriminative(
    a: FrequencyTable, b: FrequencyTable, k: int = 10
) -> list[DiscriminativeItem]:
    """Items most characteristic of corpus a relative to corpus b.

    The score is the plain frequency difference freq_a - freq_b, so
    swapping the corpora negates every score exactly. Ties rank
    alphabetically. Both tables must have been built under the same
    filters.
    """
    if a.filters != b.filters:
        raise FilterMismatch(f"{a.filters} != {b.filters}")
    vocabulary = set(a.counts) | set(b.counts)
    scored = [
        DiscriminativeItem(
            item=item,
            score=a.frequency(item) - b.frequency(item),
            frequency_a=a.frequency(item),
            frequency_b=b.frequency(item),
        )
        for item in vocabulary
    ]
    scored.sort(key=lambda d: (-d.score, d.item))
    return scored[:k]


@dataclass
class CategoryAccumulator:
    """Mergeable integer sums behind a per-category summary."""

    category: str
    papers: int = 0
    multi_file: int = 0
    no_comments: int = 0
    comment_words: int = 0
    words: int = 0
    with_packages: int = 0
    packages: int = 0
    with_newcommands: int = 0
    newcommands: int = 0
    with_theorems: int = 0
    theorems: int = 0
    figures: int = 0
    authors: int = 0
    with_pages: int = 0
    pages: int = 0
    graphicx_declared: int = 0
    graphicx_unused: int = 0
    epsfig_declared: int = 0
    epsfig_unused: int = 0
    page_histogram: Counter = field(default_factory=Counter)
    monthly: Counter = field(default_factory=Counter)  # month index 0-11
    yearly: Counter = field(default_factory=Counter)

    def add(self, fv: FeatureVector) -> None:
        self.papers += 1
        self.multi_file += fv.multi_file
        self.no_comments += fv.comment_word_count == 0
        self.comment_words += fv.comment_word_count
        self.words += fv.word_count
        self.with_packages += fv.package_count > 0
        self.packages += fv.package_count
        self.with_newcommands += fv.newcommand_count > 0
        self.newcommands += fv.newcommand_count
        self.with_theorems += fv.theorem_count > 0
        self.theorems += fv.theorem_count
        self.figures += fv.figure_count
        self.authors += fv.author_count
        if fv.page_count is not None:
            self.with_pages += 1
            self.pages += fv.page_count
            self.page_histogram[fv.page_count] += 1
        self.graphicx_declared += fv.graphicx_declared
        self.graphicx_unused += fv.graphicx_unused
        self.epsfig_declared += fv.epsfig_declared
        self.epsfig_unused += fv.epsfig_unused
        if fv.timestamp is not None:
            self.monthly[fv.timestamp.month - 1] += 1
            self.yearly[fv.timestamp.year] += 1

    def merge(self, other: "CategoryAccumulator") -> None:
        if other.category != self.category:
            raise ValueError(
                f"cannot merge {other.category!r} into {self.category!r}"
            )
        for f in fields(self):
            if f.name != "category":
                setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    def summary(self) -> "CorpusSummary":
        if self.papers == 0:
            raise EmptyCorpus(f"no papers in category {self.category!r}")
        n = self.papers

        def ratio(part: int, whole: int) -> float | None:
            return part / whole if whole else None

        return CorpusSummary(
            category=self.category,
            paper_count=n,
            fraction_multi_file=self.multi_file / n,
            fraction_no_comments=self.no_comments / n,
            mean_comment_words=self.comment_words / n,
            mean_words=self.words / n,
            fraction_with_packages=self.with_packages / n,
            mean_packages_when_present=ratio(self.packages, self.with_packages),
            fraction_with_newcommands=self.with_newcommands / n,
            mean_newcommands_when_present=ratio(
                self.newcommands, self.with_newcommands
            ),
            fraction_with_theorems=self.with_theorems / n,
            mean_theorems_when_present=ratio(self.theorems, self.with_theorems),
            mean_figures=self.figures / n,
            mean_authors=self.authors / n,
            mean_pages=ratio(self.pages, self.with_pages),
            modal_pages=(
                min(
                    self.page_histogram,
                    key=lambda p: (-self.page_histogram[p], p),
                )
                if self.page_histogram
                else None
            ),
            fraction_graphicx_unused=ratio(
                self.graphicx_unused, self.graphicx_declared
            ),
            fraction_epsfig_unused=ratio(self.epsfig_unused, self.epsfig_declared),
            page_histogram=dict(sorted(self.page_histogram.items())),
            monthly_histogram=tuple(self.monthly[m] for m in range(12)),
            yearly_histogram=dict(sorted(self.yearly.items())),
        )


@dataclass(frozen=True)
class CorpusSummary:
    """Per-category aggregate statistics.

    Means conditioned on a feature being present are None when no paper in
    the category has it, as are page statistics when no page counts were
    harvested.
    """

    category: str
    paper_count: int
    fraction_multi_file: float
    fraction_no_comments: float
    mean_comment_words: float
    mean_words: float
    fraction_with_packages: float
    mean_packages_when_present: float | None
    fraction_with_newcommands: float
    mean_newcommands_when_present: float | None
    fraction_with_theorems: float
    mean_theorems_when_present: float | None
    mean_figures: float
    mean_authors: float
    mean_pages: float | None
    modal_pages: int | None
    fraction_graphicx_unused: float | None
    fraction_epsfig_unused: float | None
    page_histogram: dict[int, int]
    monthly_histogram: tuple[int, ...]
    yearly_histogram: dict[int, int]


def summarize(
    features: Iterable[FeatureVector],
    diagnostics: list[Diagnostic] | None = None,
) -> dict[str, CorpusSummary]:
    """Summaries keyed by category, categories sorted."""
    accumulators: dict[str, CategoryAccumulator] = {}
    undated = 0
    for fv in features:
        acc = accumulators.get(fv.category)
        if acc is None:
            acc = CategoryAccumulator(category=fv.category)
            accumulators[fv.category] = acc
        acc.add(fv)
        if fv.timestamp is None:
            undated += 1
    if not accumulators:
        raise EmptyCorpus("no feature vectors given")
    if undated and diagnostics is not None:
        diagnostics.append(
            Diagnostic("summarize", f"{undated} papers lack a timestamp")
        )
    return {
        category: accumulators[category].summary()
        for category in sorted(accumulators)
    }


@dataclass(frozen=True)
class TrendFit:
    """Least-squares line y = slope * x + intercept with correlation r."""

    slope: float
    intercept: float
    r: float
    n: int


def linear_trend(xs: Iterable[float], ys: Iterable[float]) -> TrendFit:
    """Ordinary least squares over paired observations.

    Raises DegenerateX when fewer than two points or all x equal. When y
    has no variance the line is flat and r is reported as 0.0.
    """
    xs = [float(x) for x in xs]
    ys = [float(y) for y in ys]
    if len(xs) != len(ys):
        raise ValueError(f"{len(xs)} x values but {len(ys)} y values")
    n = len(xs)
    if n < 2:
        raise DegenerateX("need at least two points")
    mean_x = math.fsum(xs) / n
    mean_y = math.fsum(ys) / n
    var_x = math.fsum((x - mean_x) ** 2 for x in xs)
    var_y = math.fsum((y - mean_y) ** 2 for y in ys)
    cov = math.fsum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    if var_x == 0.0:
        raise DegenerateX("x has no variance")
    slope = cov / var_x
    intercept = mean_y - slope * mean_x
    r = 0.0
    if var_y != 0.0:
        # the product of two tiny variances can underflow to zero, and
        # rounding in subnormal sums can carry |r| past 1
        scale = math.sqrt(var_x * var_y) or math.sqrt(var_x) * math.sqrt(var_y)
        r = max(-1.0, min(1.0, cov / scale))
    return TrendFit(slope=slope, intercept=intercept, r=r, n=n)


def grouped_means(
    pairs: Iterable[tuple[float, float]]
) -> list[tuple[float, float]]:
    """Mean y per distinct x, sorted by x."""
    sums: dict[float, list[float]] = {}
    for x, y in pairs:
        sums.setdefault(x, []).append(y)
    return [
        (x, math.fsum(values) / len(values)) for x, values in sorted(sums.items())
    ]
