"""The per-document feature vector, apart from the code that extracts it.

Extraction produces a ``FeatureVector`` per document; the analysis
commands read them back from a features file. This module imports
neither the lexer nor the comment extractors, so a command that only
reads feature records does not load them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from datetime import date

_ISO_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


def iso_date(text: str) -> date:
    """A ``YYYY-MM-DD`` date of ASCII digits, and no other form.

    ``date.fromisoformat`` also reads forms such as ``20240101`` and
    ``2024-W01-1``, on Python 3.11 and later only; refusing them here
    makes a date read the same on every supported Python. Raises
    ValueError.
    """
    if not _ISO_DATE.fullmatch(text):
        raise ValueError(f"Invalid isoformat string: {text!r}")
    return date.fromisoformat(text)


@dataclass(frozen=True)
class FeatureVector:
    """Everything measured about one document."""

    doc_id: str
    category: str
    timestamp: date | None
    multi_file: bool
    word_count: int
    comment_word_count: int
    page_count: int | None
    package_count: int
    package_names: tuple[str, ...]
    newcommand_count: int
    theorem_count: int
    theorem_like_count: int
    figure_count: int
    includegraphics_count: int
    epsfig_command_count: int
    graphicx_declared: bool
    epsfig_declared: bool
    author_count: int
    author_block_found: bool

    @property
    def graphicx_unused(self) -> bool:
        return self.graphicx_declared and self.includegraphics_count == 0

    @property
    def epsfig_unused(self) -> bool:
        return self.epsfig_declared and self.epsfig_command_count == 0
