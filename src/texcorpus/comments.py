"""Comment extraction: line comments, no-op macro arguments, and a formal
model of comments as deletions a compilation oracle cannot observe.

The formal definitions operate on 1-based closed index pairs [i, j] into a
source string. A substring is a comment when deleting it leaves the oracle's
view of the document unchanged, and a maximal comment when it cannot be
extended by one character in either direction and still be a comment. The
partition routine finds all maximal comments of a string by filling the full
comment matrix, so maximality costs no oracle calls beyond the matrix itself.

The oracle fills the matrix (``NormalizingOracle.comment_pairs``). A
general oracle asks one equivalence query per entry, each normalizing a
deletion of up to n characters, so O(n^3) for a string of length n. The
reference oracle's normalization is a finite-state transducer, which lets
it answer every entry in one forward and one backward pass, in time linear
in n plus the number of comments found; it still counts n(n+1)/2 calls.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import repeat

from .errors import Diagnostic, TexcorpusError
from .lexer import (
    GROUP_OPEN,
    LINE_COMMENT,
    TokenStream,
    _next_significant,
    alphabetic_words,
    kind_positions,
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

    def comment_pairs(self, s: str) -> set[tuple[int, int]]:
        """The comment matrix of s: every 1-based closed pair (i, j) whose
        deletion from s is equivalent to s.

        Asks ``equivalent`` once per pair, row by row (i ascending, then j),
        so it makes exactly n(n+1)/2 calls for a string of length n.
        """
        n = len(s)
        equivalent = self.equivalent
        pairs: set[tuple[int, int]] = set()
        for i in range(1, n + 1):
            head = s[: i - 1]
            for j in range(i, n + 1):
                if equivalent(s, head + s[j:]):
                    pairs.add((i, j))
        return pairs


# An escape pair, a run of ordinary text or a lone trailing backslash is
# kept; a comment (% up to, not including, the newline) matches no group.
_KEEP_RE = re.compile(r"(\\.|[^\\%]+|\\)|%[^\n]*", re.S)


def strip_line_comments(text: str) -> str:
    """Remove %-to-end-of-line comments, honoring backslash escapes.

    The newline terminating a comment is kept, since TeX treats it as the
    line break of the (now shorter) line.
    """
    return "".join(_KEEP_RE.findall(text))


def _normalize_tex(text: str) -> str:
    """Strip line comments, then make each whitespace run one space.

    ``str.split()`` and ``str.isspace()`` test the same characters as
    ``\\s`` in a ``str`` pattern, so this equals ``re.sub(r"\\s+", " ", t)``
    on the stripped text ``t``, at about half the cost.
    """
    t = strip_line_comments(text)
    if not t:
        return t
    collapsed = " ".join(t.split())
    if not collapsed:
        return " "
    if t[0].isspace():
        collapsed = " " + collapsed
    if t[-1].isspace():
        collapsed += " "
    return collapsed


# _normalize_tex as a left-to-right transducer. Its state after a prefix is
# one of: in text, or in a % comment, each knowing whether the last kept
# character was whitespace; or just past a kept backslash, whose next
# character is kept whatever it is (the last kept character is then the
# backslash, so this state needs no whitespace bit). Each character moves
# to one next state and emits at most one character: a space for the first
# of a whitespace run, otherwise the character itself.
_STATES = 5
_TEXT, _TEXT_WS, _ESCAPE, _COMMENT, _COMMENT_WS = range(_STATES)
_BACKSLASH, _PERCENT, _NEWLINE, _SPACE, _OTHER = range(5)
_CLASSES = {"\\": _BACKSLASH, "%": _PERCENT, "\n": _NEWLINE}
# _TRANSITIONS[class][state] is next state << 1 | 1 if a character is emitted
_TRANSITIONS = tuple(
    tuple(next_state << 1 | emits for next_state, emits in row)
    for row in (
        # each row lists the steps from _TEXT, _TEXT_WS, _ESCAPE, _COMMENT
        # and _COMMENT_WS, in that order; _BACKSLASH:
        ((_ESCAPE, 1), (_ESCAPE, 1), (_TEXT, 1), (_COMMENT, 0), (_COMMENT_WS, 0)),
        # _PERCENT:
        ((_COMMENT, 0), (_COMMENT_WS, 0), (_TEXT, 1), (_COMMENT, 0), (_COMMENT_WS, 0)),
        # _NEWLINE, which ends a comment, then counts as whitespace:
        ((_TEXT_WS, 1), (_TEXT_WS, 0), (_TEXT_WS, 1), (_TEXT_WS, 1), (_TEXT_WS, 0)),
        # _SPACE, any other whitespace:
        ((_TEXT_WS, 1), (_TEXT_WS, 0), (_TEXT_WS, 1), (_COMMENT, 0), (_COMMENT_WS, 0)),
        # _OTHER:
        ((_TEXT, 1), (_TEXT, 1), (_TEXT, 1), (_COMMENT, 0), (_COMMENT_WS, 0)),
    )
)


class _ReferenceOracle(NormalizingOracle):
    """NormalizingOracle over ``_normalize_tex``, which never lengthens its
    input: a second string shorter than the first's normal form cannot
    normalize to it, so it is answered False without being normalized.

    ``comment_pairs`` answers the whole matrix at once through the
    transducer above, in time linear in len(s) plus the number of pairs.
    """

    def __init__(self):
        super().__init__(_normalize_tex)

    def equivalent(self, first: str, second: str) -> bool:
        self.calls += 1
        cached = self._last_first
        if cached is None or cached[0] is not first:
            cached = self._last_first = (first, _normalize_tex(first))
        target = cached[1]
        return len(second) >= len(target) and _normalize_tex(second) == target

    def comment_pairs(self, s: str) -> set[tuple[int, int]]:
        """The same pairs as the per-query loop, and the same n(n+1)/2 calls
        counted, without normalizing any deletion.

        Deleting s[a:b] leaves s[:a] + s[b:], whose normal form is the
        output of s[:a] followed by the output of s[b:] run from the state
        s[:a] ends in. The output of s[:a] is always a prefix of the normal
        form T of s, so the deletion is a comment exactly when the output of
        s[b:] from that state is the rest of T. A forward pass files each
        row i = a + 1 by (state, characters of T left after s[:a]); a
        backward pass carries, for every state, the length of the output of
        s[b:] when that output is a suffix of T, and pairs b with the rows
        i <= b filed under it.
        """
        n = len(s)
        self.calls += n * (n + 1) // 2
        target = _normalize_tex(s)
        left = len(target)
        classes = [
            _CLASSES.get(c, _SPACE if c.isspace() else _OTHER) for c in s
        ]

        # rows[state][left]: the rows i = a + 1, ascending, whose s[:a] ends
        # in state with left characters of target still to come
        rows: list[dict[int, list[int]]] = [{} for _ in range(_STATES)]
        filed_in = []  # filed_in[i - 1]: the list row i is in
        state = _TEXT
        for i, cls in enumerate(classes, 1):
            filed = rows[state].setdefault(left, [])
            filed.append(i)
            filed_in.append(filed)
            step = _TRANSITIONS[cls][state]
            state = step >> 1
            left -= step & 1

        pairs: set[tuple[int, int]] = set()
        size = len(target)
        # tail[state]: length of the output of s[b:] from state, or -1 when
        # that output is not a suffix of target
        tail = [0] * _STATES
        for b in range(n, 0, -1):
            for by_left, length in zip(rows, tail):
                found = by_left.get(length)
                if found:
                    pairs.update(zip(found, repeat(b)))
            # row b is the last in its list, and pairs with no smaller b
            filed_in[b - 1].pop()
            cls = classes[b - 1]
            emitted = " " if cls in (_NEWLINE, _SPACE) else s[b - 1]
            shifted = []
            for step in _TRANSITIONS[cls]:
                length = tail[step >> 1]
                if step & 1 and length >= 0:
                    length += 1
                    if length > size or target[-length] != emitted:
                        length = -1
                shifted.append(length)
            tail = shifted
        return pairs


def reference_oracle() -> NormalizingOracle:
    """Oracle modeling a compiler that ignores comments and collapses
    whitespace runs to a single space."""
    return _ReferenceOracle()


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

    Has the oracle fill the whole comment matrix (``comment_pairs``,
    n(n+1)/2 oracle calls), then reads maximality off the matrix: extending
    [i, j] left tests entry (i-1, j), extending right tests (i, j+1). With
    ``reference_oracle()`` the matrix costs time linear in len(s) plus the
    number of comments; an oracle built on another normalization answers
    each entry with one query. Raises
    OverlappingMaximalComments when two maximal comments share characters,
    since then they do not form a partition of anything.

    ``max_calls`` caps the oracle's total ``calls``, those made before this
    partition included; OracleBudgetExceeded is raised, before any call,
    when the matrix does not fit under it. The default, None, sets no cap.
    """
    n = len(s)
    if n == 0:
        return []
    needed = n * (n + 1) // 2
    if max_calls is not None:
        budget_left = max_calls - oracle.calls
        if needed > budget_left:
            raise OracleBudgetExceeded(
                f"need {needed} oracle calls but only {budget_left} remain"
            )

    is_com = oracle.comment_pairs(s)
    maximal = sorted(
        (i, j)
        for i, j in is_com
        if (i == 1 or (i - 1, j) not in is_com)
        and (j == n or (i, j + 1) not in is_com)
    )

    for (i1, j1), (i2, j2) in zip(maximal, maximal[1:]):
        if i2 <= j1:
            raise OverlappingMaximalComments((i1, j1), (i2, j2))
    return maximal


def semantic_comments(
    s: str,
    oracle: NormalizingOracle | None = None,
    max_calls: int | None = None,
) -> list[CommentSpan]:
    """Maximal comments of s as CommentSpan records.

    ``oracle`` defaults to a fresh ``reference_oracle()``; ``max_calls`` is
    passed to ``partition_maximal_comments``.
    """
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
    for i in kind_positions(tokens.kinds, LINE_COMMENT):
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
    return _next_significant(tokens.kinds, open_idx + 1) == close, close + 1


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
        definition = _one_argument_definition(tokens, i)
        if definition is None:
            continue
        name, empty, resume = definition
        if command == "newcommand" and name in defined:
            continue
        defined.add(name)
        if empty:
            ignore.add(name)
        else:
            ignore.discard(name)
    return ignore


# The tails of one-argument definitions, up to the body's opening brace,
# as patterns over the lexer's kind codes: ``\\`` is a command, ``w`` a
# word, ``.`` other, and a space or ``%`` a token that may separate two
# significant ones. For \\newcommand and \\renewcommand: an optional
# ``*``, then ``{\\x}`` or ``\\x``, then exactly ``[1]``; for \\def:
# ``\\x#1``. The groups are the tokens whose values are read.
_NEWCOMMAND_TAIL_RE = re.compile(
    r"[ %]*(?:(\.)[ %]*)?(\{[ %]*)?(\\)(?(2)[ %]*\})[ %]*\[[ %]*(w)[ %]*\][ %]*\{"
)
_DEF_TAIL_RE = re.compile(r"[ %]*(\\)[ %]*(\.)(w)[ %]*\{")


def _one_argument_definition(
    tokens: TokenStream, i: int
) -> tuple[str, bool, int] | None:
    """(macro name, body is empty, index past the body) of the definition
    whose command is at i, or None when it does not define a macro of one
    mandatory argument."""
    kinds, values = tokens.kinds, tokens.values
    if values[i] == "def":
        m = _DEF_TAIL_RE.match(kinds, i + 1)
        if m is None or values[m.start(2)] != "#" or values[m.start(3)] != "1":
            return None
        name = values[m.start(1)]
    else:
        m = _NEWCOMMAND_TAIL_RE.match(kinds, i + 1)
        if m is None or values[m.start(4)] != "1":
            return None
        if m.start(1) != -1 and values[m.start(1)] != "*":
            return None
        name = values[m.start(3)]
    return name, *_is_empty_body(tokens, m.end() - 1)


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
        if not (open_idx < n and kinds[open_idx] == GROUP_OPEN):
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
