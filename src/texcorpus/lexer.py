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
from collections import Counter
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


# One code character per kind, TeX's special characters standing for
# themselves. ``TokenStream.kinds`` is a string of codes, one per token, so
# that a pass over the tokens of a kind is a regex search over that string,
# not a walk in Python over every token.
_CODES = "\\%w{}[]$ ."
(COMMAND, LINE_COMMENT, WORD, GROUP_OPEN, GROUP_CLOSE, OPT_OPEN, OPT_CLOSE,
 MATH_SHIFT, WHITESPACE, OTHER) = _CODES
_KIND_OF_CODE = dict(zip(_CODES, TokenKind))  # the members, in the codes' order


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


class _CodeTable(dict):
    """A ``str.translate`` table from the first character of a lexeme to
    its kind's code: ``fixed`` gives the codes of some characters, and any
    other character is classified by ``classify`` when first met."""

    def __init__(self, classify, fixed: dict[str, str] | None = None):
        super().__init__({ord(c): code for c, code in (fixed or {}).items()})
        self._classify = classify

    def __missing__(self, ordinal: int) -> str:
        code = self[ordinal] = self._classify(chr(ordinal))
        return code

    def codes(self, lexemes: list[str]) -> str:
        return "".join(map(itemgetter(0), lexemes)).translate(self)


# for a _LEXEME_RE match, except a lone backslash, and a _PLAIN_RUN_RE match
_LEXEME_CODES = _CodeTable(
    lambda c: WHITESPACE if c.isspace() else WORD if c.isalnum() else OTHER,
    {"\\": COMMAND, "%": LINE_COMMENT, "{": GROUP_OPEN, "}": GROUP_CLOSE,
     "[": OPT_OPEN, "]": OPT_CLOSE, "$": MATH_SHIFT},
)
_PLAIN_RUN_CODES = _CodeTable(lambda c: WHITESPACE if c.isspace() else WORD)

_BEGIN_VERBATIM_RE = re.compile(
    r"[ \t]*\{(" + "|".join(re.escape(name) for name in VERBATIM_ENVIRONMENTS) + r")\}"
)
# Text without a match holds no \verb argument and no verbatim body.
_MAY_CUT_RE = re.compile(r"\\verb|\\begin" + _BEGIN_VERBATIM_RE.pattern)


def _lex(text: str, start: int, end: int, lexemes: list[str], codes: list[str]) -> None:
    """Append the lexemes of text[start:end] and their kinds' codes."""
    found = _LEXEME_RE.findall(text, start, end)
    code = _LEXEME_CODES.codes(found)
    if found and found[-1] == "\\":
        code = code[:-1] + OTHER  # a lone trailing backslash names no command
    codes.append(code)
    lexemes += found


def _lex_plain_runs(
    text: str, start: int, end: int, lexemes: list[str], codes: list[str]
) -> None:
    """Append text[start:end], a verbatim region, as alternating
    word/whitespace runs."""
    runs = _PLAIN_RUN_RE.findall(text, start, end)
    codes.append(_PLAIN_RUN_CODES.codes(runs))
    lexemes += runs


def kind_positions(kinds: str, codes: str) -> list[int]:
    """Positions of the tokens whose kind's code is among ``codes``, in order."""
    return [m.start() for m in re.finditer(f"[{re.escape(codes)}]", kinds)]


def tokenize(source: str | bytes) -> TokenStream:
    """Convert LaTeX source into a lossless token stream.

    Total over arbitrary input: malformed constructs degrade to OTHER
    tokens, they never raise. ``\\%`` yields a COMMAND token, not a
    comment. Text inside verbatim environments and ``\\verb`` arguments is
    emitted as WORD/WHITESPACE tokens, so no LINE_COMMENT can start there:
    those regions are cut out first, and the text between them is lexed by
    one ``_LEXEME_RE`` pass. Each pass codes its lexemes' kinds with one
    ``str.translate`` of their first characters.
    """
    text = decode_source(source)
    lexemes: list[str] = []
    codes: list[str] = []
    done = 0  # text[:done] is lexed
    if _MAY_CUT_RE.search(text) is not None:
        for name, _, end in scan_commands(text, _OPENERS):
            region = _opaque_region(text, name, end)
            if region is None:
                continue
            cut, body, body_end, done_to = region
            _lex(text, done, cut, lexemes, codes)
            if body > cut:
                lexemes.append(text[cut])
                codes.append(OTHER)
            _lex_plain_runs(text, body, body_end, lexemes, codes)
            if done_to > body_end:
                lexemes.append(text[body_end])
                codes.append(OTHER)
            done = done_to
    _lex(text, done, len(text), lexemes, codes)
    kinds = "".join(codes)
    starts = list(accumulate(map(len, lexemes), initial=0))

    # the lexemes become the values: a command drops its backslash, a
    # comment its % and newline
    values = lexemes
    for i in kind_positions(kinds, COMMAND + LINE_COMMENT):
        lexeme = values[i]
        values[i] = lexeme[1:] if lexeme[0] == "\\" else lexeme[1:].removesuffix("\n")
    return TokenStream(kinds, values, starts)


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


_BRACED_ARG_RE = re.compile(r"[ \t]*\{([^{}%\n]*)\}")
_BARE_ARG_RE = re.compile(r"[ \t]+([A-Za-z0-9_\-./]+)")


def _resolve_target(name: str, current: str, texts: dict[str, str]) -> str | None:
    """Map an \\input argument to a file path present in texts."""
    candidates = [name]
    if not name.endswith(".tex"):
        candidates.append(name + ".tex")
    directory = posixpath.dirname(current)
    if directory:
        joined = posixpath.normpath(posixpath.join(directory, name))
        candidates.append(joined)
        if not joined.endswith(".tex"):
            candidates.append(joined + ".tex")
    for candidate in candidates:
        if candidate in texts:
            return candidate
    return None


def input_references(
    texts: dict[str, str], path: str
) -> Iterator[tuple[str, int, int, str, str | None]]:
    """(command, start, end, name, target) of each \\input/\\include in
    ``texts[path]`` that names a file, in order.

    text[start:end] is the command with its argument, ``{name}`` or, for
    \\input only, a bare name. ``target`` is the path in ``texts`` that
    ``name`` resolves to from ``path``, or None. References are found by
    ``scan_commands``, so none inside a comment or verbatim text counts,
    and none inside the argument of another.
    """
    text = texts[path]
    if "\\input" not in text and "\\include" not in text:
        return
    last = 0
    for command, start, end in scan_commands(text, ("input", "include")):
        if start < last:
            continue
        m = _BRACED_ARG_RE.match(text, end)
        if m is None and command == "input":
            m = _BARE_ARG_RE.match(text, end)
        if m is None:
            continue
        name = m.group(1).strip()
        if not name:
            continue
        last = m.end()
        yield command, start, last, name, _resolve_target(name, path, texts)


class TokenStream:
    """The tokens of one source as three parallel columns, with its brace
    table and its command index.

    Token i has the kind coded by the character ``kinds[i]`` (``COMMAND``,
    ``WORD`` and the other code constants of this module) and the value
    ``values[i]``, and spans ``starts[i]:starts[i + 1]`` of the source:
    ``starts`` has one entry more than the others, the length of the
    source, since the tokens tile it. The pipeline reads the columns, and
    finds the tokens of a kind by a regex search of ``kinds``. Indexing,
    slicing and iteration build ``Token`` views on demand, with each code
    mapped back to its ``TokenKind``.

    ``closers`` is ``group_closers`` of ``kinds`` and ``commands`` maps
    each command name to the positions of its COMMAND tokens, in order.
    Both are built on first use and then kept, so the extractors share one
    table and one index per document, and a reader of a few named commands
    visits only those. They describe the stream as tokenized: treat the
    stream as immutable.
    """

    def __init__(self, kinds: str, values: list[str], starts: list[int]):
        self.kinds = kinds
        self.values = values
        self.starts = starts

    def __len__(self) -> int:
        return len(self.kinds)

    def __getitem__(self, index: int | slice) -> Token | list[Token]:
        if isinstance(index, slice):
            return [self[i] for i in range(len(self.kinds))[index]]
        i = range(len(self.kinds))[index]
        return Token(
            _KIND_OF_CODE[self.kinds[i]], self.values[i], self.starts[i], self.starts[i + 1]
        )

    def __iter__(self) -> Iterator[Token]:
        starts = self.starts
        kinds = map(_KIND_OF_CODE.__getitem__, self.kinds)
        return map(Token, kinds, self.values, starts, islice(starts, 1, None))

    @cached_property
    def closers(self) -> list[int]:
        return group_closers(self.kinds)

    @cached_property
    def commands(self) -> dict[str, list[int]]:
        index: dict[str, list[int]] = {}
        values = self.values
        for i in kind_positions(self.kinds, COMMAND):
            index.setdefault(values[i], []).append(i)
        return index

    def command_positions(self, names: Iterable[str]) -> list[int]:
        """Positions of the COMMAND tokens named in ``names``, in order."""
        index = self.commands
        return sorted(i for name in names for i in index.get(name, ()))


def group_closers(kinds: str) -> list[int]:
    """The brace table of a token stream's kind codes, built in one pass
    over its brackets.

    Entry i is the index of the GROUP_CLOSE matching a GROUP_OPEN at i, or
    of the first OPT_CLOSE after an OPT_OPEN at i (options do not nest).
    It is -1 for an opener that never closes and for every other token.
    Stray closers match nothing. Extractors read group extents from this
    table, so none of them rescans past a closer or to the end of input.
    """
    closers = [-1] * len(kinds)
    open_groups: list[int] = []
    open_options: list[int] = []
    for i in kind_positions(kinds, GROUP_OPEN + GROUP_CLOSE + OPT_OPEN + OPT_CLOSE):
        kind = kinds[i]
        if kind == GROUP_OPEN:
            open_groups.append(i)
        elif kind == GROUP_CLOSE:
            if open_groups:
                closers[open_groups.pop()] = i
        elif kind == OPT_OPEN:
            open_options.append(i)
        else:
            for j in open_options:
                closers[j] = i
            open_options.clear()
    return closers


_SKIPPABLE_RE = re.compile(f"[{re.escape(WHITESPACE + LINE_COMMENT)}]*")


def _next_significant(kinds: str, idx: int) -> int:
    """Index of the next token that is not whitespace or a line comment."""
    return _SKIPPABLE_RE.match(kinds, idx).end()


class NoMainFile(TexcorpusError):
    """No file in the document declares a document class or style."""


# the largest page count a features record holds: above 2**53 a float
# cannot hold every integer
MAX_PAGE_COUNT = 2**53 - 1


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
        if self.page_count is not None and not 1 <= self.page_count <= MAX_PAGE_COUNT:
            raise ValueError(
                f"page_count must be from 1 to {MAX_PAGE_COUNT} when present"
            )

    @property
    def multi_file(self) -> bool:
        return len(self.files) > 1

    def texts(self) -> dict[str, str]:
        return {path: decode_source(data) for path, data in self.files}


_CLASS_MARKER_RE = re.compile(r"\\document(?:class|style)\b")


def detect_main_file(files: list[tuple[str, bytes]]) -> str:
    """Pick the file that declares \\documentclass or \\documentstyle.

    Ties are broken by preferring candidates that fewer other files pull in,
    counting a reference exactly when ``input_references`` resolves it to
    the candidate, as inlining does; then by lexicographically smallest
    path.
    """
    if not files:
        raise NoMainFile("document has no files")
    texts = {path: decode_source(data) for path, data in files}
    candidates = [path for path, text in texts.items() if _CLASS_MARKER_RE.search(text)]
    if not candidates:
        raise NoMainFile("no file contains \\documentclass or \\documentstyle")
    if len(candidates) == 1:
        return candidates[0]
    inbound: Counter[str] = Counter()
    for path in texts:
        targets = {target for *_, target in input_references(texts, path)}
        inbound.update(targets - {path, None})
    return min(candidates, key=lambda path: (inbound[path], path))
