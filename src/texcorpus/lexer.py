"""Tokenizer for TeX/LaTeX source text, plus the source-document container.

The token stream is lossless: concatenating the source spans of all tokens
reproduces the input exactly. Escapes (``\\%``) and verbatim regions
(``verbatim``/``verbatim*``/``lstlisting`` environments and ``\\verb``) are
resolved here, so downstream extractors never see a ``%`` that the compiler
would not treat as a comment.

Spans are offsets into the decoded source string (0-based, half-open).
Byte input is decoded as UTF-8 with replacement characters, never fatally.
"""

from __future__ import annotations

import posixpath
import re
from collections.abc import Collection, Iterable, Iterator
from dataclasses import dataclass
from datetime import date
from enum import Enum
from functools import cached_property
from itertools import accumulate, islice
from operator import itemgetter

from .errors import TexcorpusError

WORD_RE = re.compile(r"[^\W\d_]+", re.UNICODE)


def alphabetic_words(text: str) -> list[str]:
    """Split text into words: maximal alphabetic runs, case-folded.

    Digits, underscores and punctuation separate words, so "utf8x" yields
    ["utf"] + ["x"] and "don't" yields ["don", "t"].
    """
    return [m.group(0).casefold() for m in WORD_RE.finditer(text)]


def decode_source(data: bytes | str) -> str:
    """Decode raw source bytes as UTF-8, replacing invalid sequences."""
    if isinstance(data, str):
        return data
    return data.decode("utf-8", errors="replace")


class TokenKind(Enum):
    COMMAND = "command"
    LINE_COMMENT = "line_comment"
    WORD = "word"
    GROUP_OPEN = "group_open"
    GROUP_CLOSE = "group_close"
    OPT_OPEN = "opt_open"
    OPT_CLOSE = "opt_close"
    MATH_SHIFT = "math_shift"
    WHITESPACE = "whitespace"
    OTHER = "other"


# The members as module constants for per-token loops: on Python 3.11 a
# ``TokenKind.X`` lookup runs EnumType.__getattr__ and costs about 0.2 us.
COMMAND = TokenKind.COMMAND
LINE_COMMENT = TokenKind.LINE_COMMENT
WORD = TokenKind.WORD
GROUP_OPEN = TokenKind.GROUP_OPEN
GROUP_CLOSE = TokenKind.GROUP_CLOSE
OPT_OPEN = TokenKind.OPT_OPEN
OPT_CLOSE = TokenKind.OPT_CLOSE
MATH_SHIFT = TokenKind.MATH_SHIFT
WHITESPACE = TokenKind.WHITESPACE
OTHER = TokenKind.OTHER


@dataclass(slots=True, unsafe_hash=True)
class Token:
    """One lexical unit, as a view of one position of a ``TokenStream``.

    ``value`` holds the payload: the command name (without backslash), the
    comment text (without the ``%`` or the terminating newline), or the raw
    text for word/whitespace/other tokens. ``start``/``end`` delimit the
    token's span in the source (0-based, half-open); spans of consecutive
    tokens tile the source with no gaps or overlaps.

    The stream stores its tokens as columns and builds a Token only when
    it is indexed or iterated. Tokens compare and hash by value, so treat
    them as immutable.
    """

    kind: TokenKind
    value: str
    start: int
    end: int


VERBATIM_ENVIRONMENTS = ("verbatim", "verbatim*", "lstlisting")

# One lexeme per match: a command (letters, one other character, or a lone
# trailing backslash), a comment with its newline, a single-character
# token, a whitespace run, an alphanumeric run, or any other character.
# ``\s`` matches exactly the characters for which ``str.isspace`` is true,
# and ``[^\W_]`` those for which ``str.isalnum`` is.
_LEXEME_RE = re.compile(r"\\[A-Za-z]+|\\.?|%[^\n]*\n?|[{}\[\]$]|\s+|[^\W_]+|.", re.S)
_PLAIN_RUN_RE = re.compile(r"\s+|\S+")


class _KindByFirstChar(dict):
    """The kind of a ``_LEXEME_RE`` match by its first character, except a
    lone backslash. ASCII is in the table; other characters are classified
    when met."""

    def __missing__(self, c: str) -> TokenKind:
        return WHITESPACE if c.isspace() else WORD if c.isalnum() else OTHER


_KIND_BY_FIRST_CHAR = _KindByFirstChar(
    {
        "\\": COMMAND,
        "%": LINE_COMMENT,
        "{": GROUP_OPEN,
        "}": GROUP_CLOSE,
        "[": OPT_OPEN,
        "]": OPT_CLOSE,
        "$": MATH_SHIFT,
    }
)
_KIND_BY_FIRST_CHAR.update({c: _KIND_BY_FIRST_CHAR[c] for c in map(chr, range(128))})
_first_char = itemgetter(0)

_BEGIN_VERBATIM_RE = re.compile(
    r"[ \t]*\{(" + "|".join(re.escape(name) for name in VERBATIM_ENVIRONMENTS) + r")\}"
)
# Text without a match holds no \verb argument and no verbatim body.
_MAY_CUT_RE = re.compile(r"\\verb|\\begin" + _BEGIN_VERBATIM_RE.pattern)


def _lex(text: str, start: int, end: int, lexemes: list[str], kinds: list[TokenKind]) -> None:
    """Append the lexemes of text[start:end] and their kinds."""
    found = _LEXEME_RE.findall(text, start, end)
    kinds += map(_KIND_BY_FIRST_CHAR.__getitem__, map(_first_char, found))
    if found and found[-1] == "\\":
        kinds[-1] = OTHER  # a lone trailing backslash names no command
    lexemes += found


def _lex_plain_runs(
    text: str, start: int, end: int, lexemes: list[str], kinds: list[TokenKind]
) -> None:
    """Append text[start:end], a verbatim region, as alternating
    word/whitespace runs."""
    runs = _PLAIN_RUN_RE.findall(text, start, end)
    kinds += [WHITESPACE if run[0].isspace() else WORD for run in runs]
    lexemes += runs


def tokenize(source: str | bytes) -> TokenStream:
    """Convert LaTeX source into a lossless token stream.

    Total over arbitrary input: malformed constructs degrade to OTHER
    tokens, they never raise. ``\\%`` yields a COMMAND token, not a
    comment. Text inside verbatim environments and ``\\verb`` arguments is
    emitted as WORD/WHITESPACE tokens, so no LINE_COMMENT can start there:
    those regions are cut out first, and the text between them is lexed by
    one ``_LEXEME_RE`` pass.
    """
    text = decode_source(source)
    lexemes: list[str] = []
    kinds: list[TokenKind] = []
    done = 0  # text[:done] is lexed
    if _MAY_CUT_RE.search(text) is not None:
        for name, _, end in scan_commands(text, _OPENERS):
            region = _opaque_region(text, name, end)
            if region is None:
                continue
            cut, body, body_end, done_to = region
            _lex(text, done, cut, lexemes, kinds)
            if body > cut:
                lexemes.append(text[cut])
                kinds.append(OTHER)
            _lex_plain_runs(text, body, body_end, lexemes, kinds)
            if done_to > body_end:
                lexemes.append(text[body_end])
                kinds.append(OTHER)
            done = done_to
    _lex(text, done, len(text), lexemes, kinds)

    # a command drops its backslash, a comment its % and newline
    values = [
        lexeme[1:] if kind is COMMAND
        else (lexeme[1:-1] if lexeme[-1] == "\n" else lexeme[1:]) if kind is LINE_COMMENT
        else lexeme
        for kind, lexeme in zip(kinds, lexemes)
    ]
    return TokenStream(kinds, values, list(accumulate(map(len, lexemes), initial=0)))


def _verb_extent(text: str, i: int) -> tuple[int, int, int]:
    """Where the tail of a \\verb command, starting right after its name,
    lies.

    Returns (delim, stop, end): the index of the opening delimiter, past an
    optional ``*``; where the verbatim text stops; and the index just past
    the command. There is no argument when delim == end (end of input or a
    newline), and no closing delimiter when stop == end.
    """
    n = len(text)
    if i < n and text[i] == "*":
        i += 1
    if i >= n or text[i] == "\n":
        return i, i, i
    delim = text[i]
    j = i + 1
    while j < n and text[j] != delim and text[j] != "\n":
        j += 1
    return i, j, j + 1 if j < n and text[j] == delim else j


# the commands that can open a region the tokenizer does not lex as TeX
_OPENERS = ("verb", "begin")


def _opaque_region(text: str, name: str, i: int) -> tuple[int, int, int, int] | None:
    """The region that the command ``name``, ending at i, makes opaque.

    Returns (cut, body, body_end, end): text[cut:body] and
    text[body_end:end] are the \\verb delimiters, each one OTHER token or
    absent; text[body:body_end] is lexed as plain runs; TeX lexing resumes
    at end. None when the command opens no region: it is not \\verb or a
    \\begin of a verbatim environment, or it is a \\verb with no argument,
    whose optional ``*`` lexes as OTHER anyway.
    """
    if name == "verb":
        delim, stop, end = _verb_extent(text, i)
        return None if delim == end else (delim, delim + 1, stop, end)
    if name == "begin":
        m = _BEGIN_VERBATIM_RE.match(text, i)
        if m is not None:
            stop = text.find("\\end{" + m.group(1) + "}", m.end())
            if stop == -1:
                stop = len(text)
            return m.end(), m.end(), stop, stop
    return None


# a command (letters, one other character, or a lone trailing backslash)
# or a comment up to, not including, its newline
_SCAN_RE = re.compile(r"\\([A-Za-z]+|.)?|%[^\n]*", re.S)


def scan_commands(text: str, names: Collection[str]) -> Iterator[tuple[str, int, int]]:
    """(name, start, end) of each COMMAND token of ``tokenize(text)`` named
    in ``names``, in order, with no lexing.

    One regex search jumps from each backslash or ``%`` to the next:
    comments are skipped to their newline, escapes such as ``\\\\`` and
    ``\\%`` are stepped over, and \\verb arguments and verbatim bodies are
    skipped by the tokenizer's own rules.
    """
    search = _SCAN_RE.search
    i = 0
    while (m := search(text, i)) is not None:
        name = m.group(1)
        i = m.end()
        if name is None:
            continue
        if name in names:
            yield name, m.start(), i
        if name in _OPENERS:
            region = _opaque_region(text, name, i)
            if region is not None:
                i = region[3]


class TokenStream:
    """The tokens of one source as three parallel columns, with its brace
    table and its command index.

    Token i has kind ``kinds[i]`` and value ``values[i]``, and spans
    ``starts[i]:starts[i + 1]`` of the source: ``starts`` has one entry
    more than the others, the length of the source, since the tokens tile
    it. The pipeline reads the columns. Indexing, slicing and iteration
    build ``Token`` views on demand.

    ``closers`` is ``group_closers`` of ``kinds`` and ``commands`` maps
    each command name to the positions of its COMMAND tokens, in order.
    Both are built on first use and then kept, so the extractors share one
    table and one index per document, and a reader of a few named commands
    visits only those. They describe the stream as tokenized: treat the
    stream as immutable.
    """

    def __init__(self, kinds: list[TokenKind], values: list[str], starts: list[int]):
        self.kinds = kinds
        self.values = values
        self.starts = starts

    def __len__(self) -> int:
        return len(self.kinds)

    def __getitem__(self, index: int | slice) -> Token | list[Token]:
        if isinstance(index, slice):
            return [self[i] for i in range(len(self.kinds))[index]]
        i = range(len(self.kinds))[index]
        return Token(self.kinds[i], self.values[i], self.starts[i], self.starts[i + 1])

    def __iter__(self) -> Iterator[Token]:
        starts = self.starts
        return map(Token, self.kinds, self.values, starts, islice(starts, 1, None))

    @cached_property
    def closers(self) -> list[int]:
        return group_closers(self.kinds)

    @cached_property
    def commands(self) -> dict[str, list[int]]:
        index: dict[str, list[int]] = {}
        values = self.values
        for i, kind in enumerate(self.kinds):
            if kind is COMMAND:
                index.setdefault(values[i], []).append(i)
        return index

    def command_positions(self, names: Iterable[str]) -> list[int]:
        """Positions of the COMMAND tokens named in ``names``, in order."""
        index = self.commands
        return sorted(i for name in names for i in index.get(name, ()))


def group_closers(kinds: list[TokenKind]) -> list[int]:
    """The brace table of a token stream's kinds, built in one pass.

    Entry i is the index of the GROUP_CLOSE matching a GROUP_OPEN at i, or
    of the first OPT_CLOSE after an OPT_OPEN at i (options do not nest).
    It is -1 for an opener that never closes and for every other token.
    Stray closers match nothing. Extractors read group extents from this
    table, so none of them rescans past a closer or to the end of input.
    """
    closers = [-1] * len(kinds)
    open_groups: list[int] = []
    open_options: list[int] = []
    for i, kind in enumerate(kinds):
        if kind is GROUP_OPEN:
            open_groups.append(i)
        elif kind is GROUP_CLOSE:
            if open_groups:
                closers[open_groups.pop()] = i
        elif kind is OPT_OPEN:
            open_options.append(i)
        elif kind is OPT_CLOSE:
            for j in open_options:
                closers[j] = i
            open_options.clear()
    return closers


_SKIPPABLE = (WHITESPACE, LINE_COMMENT)


def _next_significant(kinds: list[TokenKind], idx: int) -> int:
    """Index of the next token that is not whitespace or a line comment."""
    n = len(kinds)
    while idx < n and kinds[idx] in _SKIPPABLE:
        idx += 1
    return idx


class NoMainFile(TexcorpusError):
    """No file in the document declares a document class or style."""


@dataclass
class SourceDocument:
    """One paper: its files, main file, and harvest metadata."""

    id: str
    files: list[tuple[str, bytes]]
    main_file: str | None = None
    timestamp: date | None = None
    category: str = ""
    page_count: int | None = None

    def __post_init__(self) -> None:
        paths = [path for path, _ in self.files]
        if self.main_file is not None and self.main_file not in paths:
            raise ValueError(f"main_file {self.main_file!r} not among files")
        if self.page_count is not None and self.page_count < 1:
            raise ValueError("page_count must be >= 1 when present")

    @property
    def multi_file(self) -> bool:
        return len(self.files) > 1

    def texts(self) -> dict[str, str]:
        return {path: decode_source(data) for path, data in self.files}


_CLASS_MARKER_RE = re.compile(r"\\document(?:class|style)\b")
_BRACED_INPUT_RE = re.compile(r"\\(?:input|include)\s*\{([^{}%\n]+)\}")
_BARE_INPUT_RE = re.compile(r"\\input[ \t]+([A-Za-z0-9_\-./]+)")


def _input_targets(text: str) -> set[str]:
    targets = set(m.group(1).strip() for m in _BRACED_INPUT_RE.finditer(text))
    targets.update(m.group(1) for m in _BARE_INPUT_RE.finditer(text))
    return {t for t in targets if t}


def _names_for(path: str) -> set[str]:
    names = {path}
    if path.endswith(".tex"):
        names.add(path[:-4])
    base = posixpath.basename(path)
    names.add(base)
    if base.endswith(".tex"):
        names.add(base[:-4])
    return names


def detect_main_file(files: list[tuple[str, bytes]]) -> str:
    """Pick the file that declares \\documentclass or \\documentstyle.

    Ties are broken by preferring candidates that fewer other files pull in
    via \\input/\\include, then by lexicographically smallest path.
    """
    if not files:
        raise NoMainFile("document has no files")
    texts = {path: decode_source(data) for path, data in files}
    candidates = [path for path, text in texts.items() if _CLASS_MARKER_RE.search(text)]
    if not candidates:
        raise NoMainFile("no file contains \\documentclass or \\documentstyle")
    if len(candidates) == 1:
        return candidates[0]

    def inbound_references(candidate: str) -> int:
        names = _names_for(candidate)
        count = 0
        for path, text in texts.items():
            if path == candidate:
                continue
            if _input_targets(text) & names:
                count += 1
        return count

    return min(candidates, key=lambda path: (inbound_references(path), path))
