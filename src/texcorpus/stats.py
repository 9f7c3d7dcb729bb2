"""Corpus-level statistics: word and package frequency tables, discriminative
scoring between corpora, per-category summaries and simple least-squares
trend fits.

Each category's summary is read straight from its feature vectors. Every
statistic divides one integer sum by another, so the order of the vectors
does not change a result.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
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


def build_table(
    words: Iterable[str], filters: FilterSpec = DEFAULT_FILTERS
) -> FrequencyTable:
    """Count filter-passing words into a frequency table.

    Raises EmptyCorpus when nothing passes, since frequencies would be
    undefined.
    """
    stopwords = load_stopwords() if filters.drop_stopwords else frozenset()
    # counted before filtering, so each distinct word is tested once; the
    # survivors keep their first-occurrence order
    counts = {
        word: count
        for word, count in Counter(words).items()
        if len(word) >= filters.min_length and word not in stopwords
    }
    total = sum(counts.values())
    if total == 0:
        raise EmptyCorpus("no words passed the filters")
    return FrequencyTable(counts=counts, total=total, filters=filters)


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
    groups: dict[str, list[FeatureVector]] = {}
    undated = 0
    for fv in features:
        groups.setdefault(fv.category, []).append(fv)
        undated += fv.timestamp is None
    if not groups:
        raise EmptyCorpus("no feature vectors given")
    if undated and diagnostics is not None:
        diagnostics.append(
            Diagnostic("summarize", f"{undated} papers lack a timestamp")
        )
    return {
        category: _summary(category, groups[category]) for category in sorted(groups)
    }


def _mean(values: Iterable[int]) -> float | None:
    """The integer sum of the values over their number; None for no values."""
    values = list(values)
    return sum(values) / len(values) if values else None


def _summary(category: str, group: list[FeatureVector]) -> CorpusSummary:
    """One category's summary, read straight from its feature vectors.

    Every statistic divides one integer sum by another, so the order of
    ``group`` does not change a result.
    """
    comment_words = [fv.comment_word_count for fv in group]
    packages = [fv.package_count for fv in group]
    newcommands = [fv.newcommand_count for fv in group]
    theorems = [fv.theorem_count for fv in group]
    pages = [fv.page_count for fv in group if fv.page_count is not None]
    page_histogram = Counter(pages)
    stamps = [fv.timestamp for fv in group if fv.timestamp is not None]
    months = Counter(stamp.month for stamp in stamps)
    return CorpusSummary(
        category=category,
        paper_count=len(group),
        fraction_multi_file=_mean(fv.multi_file for fv in group),
        fraction_no_comments=_mean(count == 0 for count in comment_words),
        mean_comment_words=_mean(comment_words),
        mean_words=_mean(fv.word_count for fv in group),
        fraction_with_packages=_mean(count > 0 for count in packages),
        mean_packages_when_present=_mean(count for count in packages if count),
        fraction_with_newcommands=_mean(count > 0 for count in newcommands),
        mean_newcommands_when_present=_mean(count for count in newcommands if count),
        fraction_with_theorems=_mean(count > 0 for count in theorems),
        mean_theorems_when_present=_mean(count for count in theorems if count),
        mean_figures=_mean(fv.figure_count for fv in group),
        mean_authors=_mean(fv.author_count for fv in group),
        mean_pages=_mean(pages),
        modal_pages=min(
            page_histogram, key=lambda p: (-page_histogram[p], p), default=None
        ),
        fraction_graphicx_unused=_mean(
            fv.graphicx_unused for fv in group if fv.graphicx_declared
        ),
        fraction_epsfig_unused=_mean(
            fv.epsfig_unused for fv in group if fv.epsfig_declared
        ),
        page_histogram=dict(sorted(page_histogram.items())),
        monthly_histogram=tuple(months[m] for m in range(1, 13)),
        yearly_histogram=dict(sorted(Counter(stamp.year for stamp in stamps).items())),
    )


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
        raise DegenerateX("not enough points")
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
