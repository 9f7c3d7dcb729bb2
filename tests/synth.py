"""Synthetic data generators for validating the statistics and classifier.

The two-class corpus draws feature vectors whose per-class distributions
mirror the contrasts seen between computer-science and mathematics papers
(multi-file archives, comment volume, theorem use, figure and author
counts), so a sound classifier must beat the majority class on it. The
regression corpus plants a known words-per-package (or per-theorem) slope
under noise so trend fitting can be checked against the truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date, timedelta

import numpy as np

from texcorpus.records import FeatureVector


@dataclass(frozen=True)
class ClassProfile:
    """Distribution parameters for one category of synthetic papers."""

    category: str
    p_multi_file: float
    p_no_comments: float
    mean_comment_words: float
    mean_words: float
    sd_words: float
    p_packages: float
    mean_packages: float
    p_newcommands: float
    mean_newcommands: float
    p_theorems: float
    mean_theorems: float
    mean_figures: float
    mean_authors: float


CS_PROFILE = ClassProfile(
    category="cs",
    p_multi_file=0.84,
    p_no_comments=0.047,
    mean_comment_words=772.0,
    mean_words=9011.0,
    sd_words=2000.0,
    p_packages=0.87,
    mean_packages=6.7,
    p_newcommands=0.64,
    mean_newcommands=39.7,
    p_theorems=0.48,
    mean_theorems=4.85,
    mean_figures=4.0,
    mean_authors=1.72,
)

MATH_PROFILE = ClassProfile(
    category="math",
    p_multi_file=0.34,
    p_no_comments=0.096,
    mean_comment_words=395.0,
    mean_words=9345.0,
    sd_words=2000.0,
    p_packages=0.75,
    mean_packages=5.0,
    p_newcommands=0.66,
    mean_newcommands=36.1,
    p_theorems=0.71,
    mean_theorems=5.51,
    mean_figures=2.5,
    mean_authors=1.24,
)


def _positive_poisson(rng: np.random.Generator, mean: float) -> int:
    """A Poisson draw conditioned on being at least one."""
    return 1 + int(rng.poisson(max(mean - 1.0, 0.0)))


def _draw_paper(
    rng: np.random.Generator, profile: ClassProfile, index: int
) -> FeatureVector:
    multi = bool(rng.random() < profile.p_multi_file)
    if rng.random() < profile.p_no_comments:
        comment_words = 0
    else:
        comment_words = max(1, int(round(rng.exponential(profile.mean_comment_words))))
    words = max(200, int(round(rng.normal(profile.mean_words, profile.sd_words))))
    packages = (
        _positive_poisson(rng, profile.mean_packages)
        if rng.random() < profile.p_packages
        else 0
    )
    newcommands = (
        max(1, int(round(rng.exponential(profile.mean_newcommands))))
        if rng.random() < profile.p_newcommands
        else 0
    )
    theorems = (
        _positive_poisson(rng, profile.mean_theorems)
        if rng.random() < profile.p_theorems
        else 0
    )
    figures = int(rng.poisson(profile.mean_figures))
    authors = _positive_poisson(rng, profile.mean_authors)
    timestamp = date(1998, 1, 1) + timedelta(days=int(rng.integers(0, 5 * 365)))
    return FeatureVector(
        doc_id=f"synth/{profile.category}.{index:05d}",
        category=profile.category,
        timestamp=timestamp,
        multi_file=multi,
        word_count=words,
        comment_word_count=comment_words,
        page_count=max(2, int(round(words / 700.0))),
        package_count=packages,
        package_names=tuple(f"pkg{j:02d}" for j in range(packages)),
        newcommand_count=newcommands,
        theorem_count=theorems,
        theorem_like_count=int(rng.poisson(1.0)) if theorems else 0,
        figure_count=figures,
        includegraphics_count=figures,
        epsfig_command_count=0,
        graphicx_declared=figures > 0,
        epsfig_declared=False,
        author_count=authors,
        author_block_found=True,
    )


def two_class_corpus(
    n: int,
    seed: int = 0,
    profiles: tuple[ClassProfile, ClassProfile] = (CS_PROFILE, MATH_PROFILE),
) -> list[FeatureVector]:
    """n synthetic papers, alternating between the two class profiles."""
    rng = np.random.default_rng(seed)
    papers = []
    for i in range(n):
        profile = profiles[i % 2]
        papers.append(_draw_paper(rng, profile, i))
    return papers


def regression_corpus(
    slope: float,
    feature: str,
    n: int = 5000,
    sigma: float = 500.0,
    base_words: float = 5000.0,
    seed: int = 0,
    x_max: int = 20,
) -> list[FeatureVector]:
    """Papers whose word count follows a known line in one count feature.

    ``feature`` is "packages" or "theorems". The driving count cycles over
    0..x_max and word_count is base_words + slope * count plus centered
    normal noise, floored at zero, so a trend fit should recover the slope.
    """
    if feature not in ("packages", "theorems"):
        raise ValueError(f"unsupported regression feature {feature!r}")
    rng = np.random.default_rng(seed)
    papers = []
    for i in range(n):
        x = i % (x_max + 1)
        words = max(
            0, int(round(base_words + slope * x + rng.normal(0.0, sigma)))
        )
        packages = x if feature == "packages" else 0
        papers.append(
            FeatureVector(
                doc_id=f"synth/reg.{i:05d}",
                category="synthetic",
                timestamp=None,
                multi_file=False,
                word_count=words,
                comment_word_count=0,
                page_count=None,
                package_count=packages,
                package_names=tuple(f"pkg{j:02d}" for j in range(packages)),
                newcommand_count=0,
                theorem_count=x if feature == "theorems" else 0,
                theorem_like_count=0,
                figure_count=0,
                includegraphics_count=0,
                epsfig_command_count=0,
                graphicx_declared=False,
                epsfig_declared=False,
                author_count=1,
                author_block_found=True,
            )
        )
    return papers
