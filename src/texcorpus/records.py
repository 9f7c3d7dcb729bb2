"""The per-document feature vector and its record codec, apart from the
code that extracts it.

Extraction produces a ``FeatureVector`` per document, written by
``feature_record``; the analysis commands read it back with
``parse_feature_record``. This module imports neither the lexer nor the
comment extractors, so a command that only reads feature records does
not load them.
"""

from __future__ import annotations

import re
import reprlib
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
    lambda text: None if text is None else iso_date(text),
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
            raise ValueError(f"feature record lacks {wire!r}")
        try:
            values[attr] = decode(record[wire])
        except ValueError as exc:
            raise ValueError(f"feature record {wire!r}: {exc}") from exc
    return FeatureVector(**values)
