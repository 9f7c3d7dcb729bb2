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
from string import ascii_letters

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
    """One lexical unit.

    ``value`` holds the payload: the command name (without backslash), the
    comment text (without the ``%`` or the terminating newline), or the raw
    text for word/whitespace/other tokens. ``start``/``end`` delimit the
    token's span in the source (0-based, half-open); spans of consecutive
    tokens tile the source with no gaps or overlaps.

    Slotted and not frozen: a document holds one Token per lexical unit, and
    a frozen ``__init__`` costs over three times as much. Tokens compare and
    hash by value, so treat them as immutable.
    """

    kind: TokenKind
    value: str
    start: int
    end: int


VERBATIM_ENVIRONMENTS = ("verbatim", "verbatim*", "lstlisting")

_WS_RE = re.compile(r"\s+")
_PLAIN_RUN_RE = re.compile(r"(\s+)|\S+")
_ALNUM_RE = re.compile(r"[^\W_]+", re.UNICODE)

_SINGLE_CHAR_KINDS = {
    "{": GROUP_OPEN,
    "}": GROUP_CLOSE,
    "[": OPT_OPEN,
    "]": OPT_CLOSE,
    "$": MATH_SHIFT,
}


_BEGIN_VERBATIM_RE = re.compile(
    r"[ \t]*\{(" + "|".join(re.escape(name) for name in VERBATIM_ENVIRONMENTS) + r")\}"
)


def _emit_plain_runs(text: str, start: int, end: int, out: list[Token]) -> None:
    """Tokenize a verbatim region as alternating word/whitespace runs.

    ``\\s`` matches exactly the characters for which ``str.isspace`` is true.
    """
    for m in _PLAIN_RUN_RE.finditer(text, start, end):
        kind = WHITESPACE if m.lastindex == 1 else WORD
        out.append(Token(kind, m.group(), m.start(), m.end()))


def tokenize(source: str | bytes) -> TokenStream:
    """Convert LaTeX source into a lossless token stream.

    Total over arbitrary input: malformed constructs degrade to OTHER
    tokens, they never raise. ``\\%`` yields a COMMAND token, not a
    comment. Text inside verbatim environments and ``\\verb`` arguments is
    emitted as WORD/WHITESPACE tokens, so no LINE_COMMENT can start there.
    """
    text = decode_source(source)
    tokens: list[Token] = []
    i = 0
    n = len(text)
    # (content_start, environment name) once a \begin{verbatim...} was seen
    pending_verbatim: tuple[int, str] | None = None

    while i < n:
        if pending_verbatim is not None and i == pending_verbatim[0]:
            env = pending_verbatim[1]
            pending_verbatim = None
            closer = "\\end{" + env + "}"
            stop = text.find(closer, i)
            if stop == -1:
                stop = n
            _emit_plain_runs(text, i, stop, tokens)
            i = stop
            continue

        c = text[i]
        if c == "\\":
            if i + 1 < n and text[i + 1] in ascii_letters:
                j = i + 2
                while j < n and text[j] in ascii_letters:
                    j += 1
                name = text[i + 1 : j]
                tokens.append(Token(COMMAND, name, i, j))
                i = j
                if name == "verb":
                    i = _lex_verb(text, i, tokens)
                elif name == "begin":
                    m = _BEGIN_VERBATIM_RE.match(text, i)
                    if m:
                        pending_verbatim = (m.end(), m.group(1))
            elif i + 1 < n:
                tokens.append(Token(COMMAND, text[i + 1], i, i + 2))
                i += 2
            else:
                # lone trailing backslash: not a valid command name
                tokens.append(Token(OTHER, "\\", i, n))
                i = n
        elif c == "%":
            stop = text.find("\n", i)
            if stop == -1:
                tokens.append(Token(LINE_COMMENT, text[i + 1 :], i, n))
                i = n
            else:
                tokens.append(Token(LINE_COMMENT, text[i + 1 : stop], i, stop + 1))
                i = stop + 1
        elif c in _SINGLE_CHAR_KINDS:
            tokens.append(Token(_SINGLE_CHAR_KINDS[c], c, i, i + 1))
            i += 1
        elif c.isspace():
            m = _WS_RE.match(text, i)
            tokens.append(Token(WHITESPACE, m.group(0), i, m.end()))
            i = m.end()
        elif c.isalnum():
            m = _ALNUM_RE.match(text, i)
            if m:
                tokens.append(Token(WORD, m.group(0), i, m.end()))
                i = m.end()
            else:
                # isalnum but not \w-matched (rare unicode edge): keep as OTHER
                tokens.append(Token(OTHER, c, i, i + 1))
                i += 1
        else:
            tokens.append(Token(OTHER, c, i, i + 1))
            i += 1

    # built as a plain list: appending to the subclass in the loop is slower
    return TokenStream(tokens)


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


def _lex_verb(text: str, i: int, tokens: list[Token]) -> int:
    """Lex the tail of a \\verb command starting right after its name."""
    delim, stop, end = _verb_extent(text, i)
    if delim > i:
        tokens.append(Token(OTHER, "*", i, delim))
    if delim == end:
        return end
    tokens.append(Token(OTHER, text[delim], delim, delim + 1))
    _emit_plain_runs(text, delim + 1, stop, tokens)
    if end > stop:
        tokens.append(Token(OTHER, text[stop], stop, end))
    return end


# a command (letters, one other character, or a lone trailing backslash)
# or a comment up to, not including, its newline
_SCAN_RE = re.compile(r"\\([A-Za-z]+|.)?|%[^\n]*", re.S)


def scan_commands(text: str, names: Collection[str]) -> Iterator[tuple[str, int, int]]:
    """(name, start, end) of each COMMAND token of ``tokenize(text)`` named
    in ``names``, in order, without building any Token.

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
        if name == "verb":
            i = _verb_extent(text, i)[2]
        elif name == "begin":
            begin = _BEGIN_VERBATIM_RE.match(text, i)
            if begin is not None:
                i = text.find("\\end{" + begin.group(1) + "}", begin.end())
                if i == -1:
                    return


class TokenStream(list):
    """The tokens of one source, in order, with its brace table and its
    command index.

    ``closers`` is ``group_closers`` of the stream and ``commands`` maps
    each command name to the positions of its COMMAND tokens, in order.
    Both are built on first use and then kept, so the extractors share one
    table and one index per document, and a reader of a few named commands
    visits only those. They describe the stream as tokenized: treat the
    stream as immutable. Scan it with ``for``, not an index loop: the
    interpreter's fast path for ``tokens[i]`` takes exact lists only, so
    indexing the subclass costs about 50 % more per token.
    """

    @cached_property
    def closers(self) -> list[int]:
        return group_closers(self)

    @cached_property
    def commands(self) -> dict[str, list[int]]:
        index: dict[str, list[int]] = {}
        for i, tok in enumerate(self):
            if tok.kind is COMMAND:
                index.setdefault(tok.value, []).append(i)
        return index

    def command_positions(self, names: Iterable[str]) -> list[int]:
        """Positions of the COMMAND tokens named in ``names``, in order."""
        index = self.commands
        return sorted(i for name in names for i in index.get(name, ()))


def group_closers(tokens: list[Token]) -> list[int]:
    """The brace table of a token stream, built in one pass.

    Entry i is the index of the GROUP_CLOSE matching a GROUP_OPEN at i, or
    of the first OPT_CLOSE after an OPT_OPEN at i (options do not nest).
    It is -1 for an opener that never closes and for every other token.
    Stray closers match nothing. Extractors read group extents from this
    table, so none of them rescans past a closer or to the end of input.
    """
    closers = [-1] * len(tokens)
    open_groups: list[int] = []
    open_options: list[int] = []
    for i, tok in enumerate(tokens):
        kind = tok.kind
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


def _next_significant(tokens: list[Token], idx: int) -> int:
    """Index of the next token that is not whitespace or a line comment."""
    while idx < len(tokens) and tokens[idx].kind in _SKIPPABLE:
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
