"""Comment extraction: line comments, no-op macro arguments, and a formal
model of comments as deletions a compilation oracle cannot observe.

The formal definitions operate on 1-based closed index pairs [i, j] into a
source string. A substring is a comment when deleting it leaves the oracle's
view of the document unchanged, and a maximal comment when it cannot be
extended by one character in either direction and still be a comment. The
partition routine finds all maximal comments of a string by filling the full
comment matrix, so maximality costs no oracle calls beyond the matrix itself.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import Diagnostic, TexcorpusError
from .lexer import (
    _SKIPPABLE,
    COMMAND,
    GROUP_CLOSE,
    GROUP_OPEN,
    LINE_COMMENT,
    OPT_CLOSE,
    OPT_OPEN,
    OTHER,
    WORD,
    TokenStream,
    _next_significant,
    alphabetic_words,
)


@dataclass(frozen=True)
class CommentSpan:
    """One extracted comment.

    ``start``/``end`` are 1-based closed character indices into the source
    the comment was found in. For line comments the span covers the ``%``
    through the last character before the newline; for macro comments it
    covers the whole invocation while ``text`` holds just the argument.
    """

    kind: str  # "line", "macro" or "semantic"
    start: int
    end: int
    text: str
    macro: str | None = None


class IndexOutOfRange(TexcorpusError):
    """A queried [i, j] pair does not denote a substring of the source."""


class OracleBudgetExceeded(TexcorpusError):
    """Partitioning would need more oracle calls than the caller allowed."""


class OverlappingMaximalComments(TexcorpusError):
    """The oracle admits maximal comments that overlap, so no partition exists."""

    def __init__(self, first: tuple[int, int], second: tuple[int, int]):
        super().__init__(f"maximal comments {first} and {second} overlap")
        self.first = first
        self.second = second


class NormalizingOracle:
    """Decides whether two sources compile to the same output by comparing
    them through a normalization function.

    Tracks how many equivalence queries were made, which the budgeted
    partition routine relies on.
    """

    def __init__(self, normalize):
        self._normalize = normalize
        self.calls = 0
        # (first, normalized first) of the last call, keyed on identity:
        # partitioning compares one unchanged string against n(n+1)/2 edits
        self._last_first: tuple[str, object] | None = None

    def equivalent(self, first: str, second: str) -> bool:
        self.calls += 1
        cached = self._last_first
        if cached is None or cached[0] is not first:
            cached = self._last_first = (first, self._normalize(first))
        return cached[1] == self._normalize(second)


# An escape pair, a run of ordinary text or a lone trailing backslash is
# kept; a comment (% up to, not including, the newline) matches no group.
_KEEP_RE = re.compile(r"(\\.|[^\\%]+|\\)|%[^\n]*", re.S)


def strip_line_comments(text: str) -> str:
    """Remove %-to-end-of-line comments, honoring backslash escapes.

    The newline terminating a comment is kept, since TeX treats it as the
    line break of the (now shorter) line.
    """
    return "".join(_KEEP_RE.findall(text))


_WS_RUN_RE = re.compile(r"\s+")


def _normalize_tex(text: str) -> str:
    return _WS_RUN_RE.sub(" ", strip_line_comments(text))


def reference_oracle() -> NormalizingOracle:
    """Oracle modeling a compiler that ignores comments and collapses
    whitespace runs to a single space."""
    return NormalizingOracle(_normalize_tex)


def _check_span(s: str, i: int, j: int) -> None:
    if not (1 <= i <= j <= len(s)):
        raise IndexOutOfRange(f"span [{i}, {j}] invalid for length {len(s)}")


def _delete(s: str, i: int, j: int) -> str:
    """Remove the 1-based closed span [i, j] from s."""
    return s[: i - 1] + s[j:]


def is_comment(s: str, i: int, j: int, oracle: NormalizingOracle) -> bool:
    """True when deleting s[i..j] (1-based, inclusive) is unobservable."""
    _check_span(s, i, j)
    return oracle.equivalent(s, _delete(s, i, j))


def is_maximal_comment(s: str, i: int, j: int, oracle: NormalizingOracle) -> bool:
    """True when s[i..j] is a comment that cannot grow in either direction.

    At the string boundary there is no room to grow, so a comment touching
    position 1 or len(s) is maximal on that side by definition.
    """
    _check_span(s, i, j)
    if not is_comment(s, i, j, oracle):
        return False
    if i > 1 and is_comment(s, i - 1, j, oracle):
        return False
    if j < len(s) and is_comment(s, i, j + 1, oracle):
        return False
    return True


def partition_maximal_comments(
    s: str,
    oracle: NormalizingOracle,
    max_calls: int | None = None,
) -> list[tuple[int, int]]:
    """All maximal comments of s, in increasing position order.

    Fills the whole comment matrix (n(n+1)/2 oracle calls), then reads
    maximality off the matrix: extending [i, j] left tests entry
    (i-1, j), extending right tests (i, j+1). Raises
    OverlappingMaximalComments when two maximal comments share characters,
    since then they do not form a partition of anything. ``max_calls``
    defaults to 10 * n**2.
    """
    n = len(s)
    if n == 0:
        return []
    if max_calls is None:
        max_calls = 10 * n * n
    needed = n * (n + 1) // 2
    budget_left = max_calls - oracle.calls
    if needed > budget_left:
        raise OracleBudgetExceeded(
            f"need {needed} oracle calls but only {budget_left} remain"
        )

    # comment[i][j] for 1 <= i <= j <= n, stored sparsely as a set of pairs
    is_com: set[tuple[int, int]] = set()
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            if oracle.equivalent(s, _delete(s, i, j)):
                is_com.add((i, j))

    maximal: list[tuple[int, int]] = []
    for i, j in sorted(is_com):
        if i > 1 and (i - 1, j) in is_com:
            continue
        if j < n and (i, j + 1) in is_com:
            continue
        maximal.append((i, j))

    for (i1, j1), (i2, j2) in zip(maximal, maximal[1:]):
        if i2 <= j1:
            raise OverlappingMaximalComments((i1, j1), (i2, j2))
    return maximal


def semantic_comments(
    s: str,
    oracle: NormalizingOracle | None = None,
    max_calls: int | None = None,
) -> list[CommentSpan]:
    """Maximal comments of s as CommentSpan records."""
    if oracle is None:
        oracle = reference_oracle()
    spans = partition_maximal_comments(s, oracle, max_calls=max_calls)
    return [
        CommentSpan(kind="semantic", start=i, end=j, text=s[i - 1 : j])
        for i, j in spans
    ]


def extract_line_comments(source: str, tokens: TokenStream) -> list[CommentSpan]:
    """Line comments from the token stream as 1-based closed spans.

    The span covers ``%`` through the last character before the newline;
    a bare ``%\\n`` yields an empty-text span covering just the ``%``.
    """
    values, starts = tokens.values, tokens.starts
    spans: list[CommentSpan] = []
    for i, kind in enumerate(tokens.kinds):
        if kind is LINE_COMMENT:
            text = values[i]
            start = starts[i] + 1
            spans.append(
                CommentSpan(kind="line", start=start, end=start + len(text), text=text)
            )
    return spans


def _is_empty_body(tokens: TokenStream, open_idx: int) -> tuple[bool, int]:
    """Whether the group starting at open_idx has no significant content.

    Returns (empty, index just past the closing brace). Nested groups make
    the body non-empty. An unclosed group is non-empty and swallows the
    rest of the stream, so the index is then the stream's length.
    """
    close = tokens.closers[open_idx]
    if close == -1:
        return False, len(tokens)
    kinds = tokens.kinds
    empty = all(kinds[k] in _SKIPPABLE for k in range(open_idx + 1, close))
    return empty, close + 1


def detect_ignore_macros(tokens: TokenStream) -> set[str]:
    """Names of macros defined to swallow one argument and expand to nothing.

    Recognizes ``\\newcommand{\\x}[1]{}`` (brace-wrapped or bare control
    sequence, optional ``*``), ``\\renewcommand`` likewise, and
    ``\\def\\x#1{}``. A name bound by \\newcommand keeps its first
    definition; \\renewcommand and \\def rebind.
    """
    ignore: set[str] = set()
    defined: set[str] = set()
    resume = 0  # index just past the last definition parsed
    for i in tokens.command_positions(("newcommand", "renewcommand", "def")):
        if i < resume:
            continue
        command = tokens.values[i]
        if command in ("newcommand", "renewcommand"):
            name, empty, nxt = _parse_newcommand(tokens, i + 1)
            if name is not None:
                if command == "newcommand":
                    if name not in defined:
                        defined.add(name)
                        if empty:
                            ignore.add(name)
                else:
                    defined.add(name)
                    if empty:
                        ignore.add(name)
                    else:
                        ignore.discard(name)
                resume = nxt
        else:
            name, empty, nxt = _parse_def(tokens, i + 1)
            if name is not None:
                defined.add(name)
                if empty:
                    ignore.add(name)
                else:
                    ignore.discard(name)
                resume = nxt
    return ignore


def _parse_newcommand(tokens: TokenStream, idx: int) -> tuple[str | None, bool, int]:
    """Parse the tail of \\newcommand/\\renewcommand.

    Returns (macro name, body-is-empty, resume index); name is None when
    the shape does not match a one-argument definition.
    """
    kinds, values = tokens.kinds, tokens.values
    n = len(kinds)
    idx = _next_significant(kinds, idx)
    if idx < n and kinds[idx] is OTHER and values[idx] == "*":
        idx = _next_significant(kinds, idx + 1)
    if idx >= n:
        return None, False, idx

    # the \x being defined: either {\x} or bare \x
    if kinds[idx] is GROUP_OPEN:
        inner = _next_significant(kinds, idx + 1)
        if inner >= n or kinds[inner] is not COMMAND:
            return None, False, idx
        name = values[inner]
        close = _next_significant(kinds, inner + 1)
        if close >= n or kinds[close] is not GROUP_CLOSE:
            return None, False, idx
        idx = close + 1
    elif kinds[idx] is COMMAND:
        name = values[idx]
        idx += 1
    else:
        return None, False, idx

    # require exactly [1]: one mandatory argument, no optional default
    idx = _next_significant(kinds, idx)
    if not (idx < n and kinds[idx] is OPT_OPEN):
        return None, False, idx
    arg = _next_significant(kinds, idx + 1)
    if not (arg < n and kinds[arg] is WORD and values[arg] == "1"):
        return None, False, idx
    close = _next_significant(kinds, arg + 1)
    if not (close < n and kinds[close] is OPT_CLOSE):
        return None, False, idx
    idx = _next_significant(kinds, close + 1)
    if idx < n and kinds[idx] is OPT_OPEN:
        # a default value makes the first argument optional; not a plain
        # one-argument swallower
        return None, False, idx

    if not (idx < n and kinds[idx] is GROUP_OPEN):
        return None, False, idx
    empty, nxt = _is_empty_body(tokens, idx)
    return name, empty, nxt


def _parse_def(tokens: TokenStream, idx: int) -> tuple[str | None, bool, int]:
    """Parse the tail of \\def\\x#1{...}."""
    kinds, values = tokens.kinds, tokens.values
    n = len(kinds)
    idx = _next_significant(kinds, idx)
    if idx >= n or kinds[idx] is not COMMAND:
        return None, False, idx
    name = values[idx]
    idx = _next_significant(kinds, idx + 1)
    if not (idx < n and kinds[idx] is OTHER and values[idx] == "#"):
        return None, False, idx
    idx += 1
    if not (idx < n and kinds[idx] is WORD and values[idx] == "1"):
        return None, False, idx
    idx = _next_significant(kinds, idx + 1)
    if not (idx < n and kinds[idx] is GROUP_OPEN):
        return None, False, idx
    empty, nxt = _is_empty_body(tokens, idx)
    return name, empty, nxt


def extract_macro_comments(
    source: str,
    tokens: TokenStream,
    ignore_macros: set[str],
    diagnostics: list[Diagnostic] | None = None,
) -> list[CommentSpan]:
    """Arguments of no-op macros, as comment spans covering the invocation.

    ``ignore_macros`` names the no-op macros, as ``detect_ignore_macros``
    finds them. Invocations with unbalanced braces are skipped with a
    diagnostic. Invocations never nest in the result: scanning resumes after
    each extracted argument.
    """
    if not ignore_macros:
        return []
    kinds, values, starts = tokens.kinds, tokens.values, tokens.starts
    n = len(kinds)
    spans: list[CommentSpan] = []
    resume = 0  # index just past the last invocation extracted
    for i in tokens.command_positions(ignore_macros):
        if i < resume:
            continue
        open_idx = _next_significant(kinds, i + 1)
        if not (open_idx < n and kinds[open_idx] is GROUP_OPEN):
            continue
        close = tokens.closers[open_idx]
        if close == -1:
            if diagnostics is not None:
                diagnostics.append(
                    Diagnostic(
                        "macro-comments",
                        f"\\{values[i]} at offset {starts[i]} has unbalanced "
                        "braces; skipped",
                    )
                )
            continue
        spans.append(
            CommentSpan(
                kind="macro",
                start=starts[i] + 1,
                end=starts[close + 1],
                text=source[starts[open_idx + 1] : starts[close]],
                macro=values[i],
            )
        )
        resume = close + 1
    return spans


def comment_words(spans: list[CommentSpan]) -> list[str]:
    words: list[str] = []
    for span in spans:
        words.extend(alphabetic_words(span.text))
    return words
