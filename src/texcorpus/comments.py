"""Comment extraction: line comments, no-op macro arguments, and a formal
model of comments as deletions a compilation oracle cannot observe.

The formal definitions operate on 1-based closed index pairs [i, j] into a
source string. A substring is a comment when deleting it leaves the oracle's
view of the document unchanged, and a maximal comment when it cannot be
extended by one character in either direction and still be a comment. The
partition routine asks the oracle for all maximal comments of a string
(``NormalizingOracle.maximal_pairs``), which costs n(n+1)/2 oracle calls for
a string of length n: maximality costs no calls beyond the comment matrix.

A general oracle fills the matrix with one equivalence query per entry, each
normalizing a deletion of up to n characters, so O(n^3), and reads the
maximal comments off it. The reference oracle's normalization is a
finite-state transducer, which lets it find them in one forward and one
backward pass over the string, in time linear in n plus the number of
maximal comments; it still counts n(n+1)/2 calls.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import Diagnostic, TexcorpusError
from .lexer import (
    GROUP_OPEN,
    LINE_COMMENT,
    TokenStream,
    _CodeTable,
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
    partition routine relies on. ``maximal_pairs`` asks one query per
    deletion, n(n+1)/2 for a string of length n; ``reference_oracle()``
    answers it without queries, in time linear in n plus the number of
    maximal comments, and still counts n(n+1)/2 calls.
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

    def maximal_pairs(self, s: str) -> list[tuple[int, int]]:
        """The maximal comments of s, in increasing order: the 1-based closed
        pairs (i, j) whose deletion from s is equivalent to s, where neither
        (i - 1, j) nor (i, j + 1) is, as far as s leaves room for them.

        Asks ``equivalent`` once per pair, row by row (i ascending, then j),
        so it makes exactly n(n+1)/2 calls for a string of length n.
        """
        n = len(s)
        equivalent = self.equivalent
        is_com = {
            (i, j)
            for i in range(1, n + 1)
            for j in range(i, n + 1)
            if equivalent(s, s[: i - 1] + s[j:])
        }
        return sorted(
            (i, j)
            for i, j in is_com
            if (i == 1 or (i - 1, j) not in is_com)
            and (j == n or (i, j + 1) not in is_com)
        )


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
# character classes, as multiples of _STATES so that class + state indexes
# _TRANSITIONS
_BACKSLASH, _PERCENT, _NEWLINE, _SPACE, _OTHER = range(0, 5 * _STATES, _STATES)
_CLASS_CODES = _CodeTable(
    lambda c: chr(_SPACE if c.isspace() else _OTHER),
    {"\\": chr(_BACKSLASH), "%": chr(_PERCENT), "\n": chr(_NEWLINE)},
)
# _TRANSITIONS[class + state] is next state << 1 | 1 if a character is emitted
_TRANSITIONS = tuple(
    next_state << 1 | emits
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
    for next_state, emits in row
)
# A step that changes the state and emits nothing enters each state from
# one state only: a % enters a comment from text, and a newline ends a
# comment that followed whitespace.
_SILENT_FROM = {
    step >> 1: move % _STATES
    for move, step in enumerate(_TRANSITIONS)
    if not step & 1 and step >> 1 != move % _STATES
}
# the states a character of each class can move out of their place in the
# output: all but those it leaves in the same state without emitting
_MOVABLE = {
    code: tuple(
        state for state in range(_STATES) if _TRANSITIONS[code + state] != state << 1
    )
    for code in (_BACKSLASH, _PERCENT, _NEWLINE, _SPACE, _OTHER)
}


class _ReferenceOracle(NormalizingOracle):
    """NormalizingOracle over ``_normalize_tex``. ``maximal_pairs`` answers
    through the transducer above, in time linear in len(s) plus the number
    of maximal pairs; every other query goes through the base class.
    """

    def __init__(self):
        super().__init__(_normalize_tex)

    def maximal_pairs(self, s: str) -> list[tuple[int, int]]:
        """The same pairs as the base method, and the same n(n+1)/2 calls
        counted, without normalizing any deletion.

        Row a holds the pairs (a + 1, j). Deleting s[a:j] leaves
        s[:a] + s[j:], whose normal form is the output of s[:a] followed by
        the output of s[j:] run from the state s[:a] ends in. The output of
        s[:a] is the first k characters of the normal form T of s, so
        (a + 1, j) is a comment exactly when the output of s[j:] from that
        state is T[k:].

        (a + 1, j) is not maximal at the right when (a + 1, j + 1) is a
        comment too, as it is whenever the outputs of s[j:] and s[j + 1:]
        from row a's state start at one place in T; so for each j only the
        states whose place moved are looked up. It is not maximal at the
        left when (a, j) is a comment too, as it is whenever row a - 1 has
        row a's state and k; so only rows that start a run of equal
        (state, k) are filed. k never falls, so the rows with one k are
        consecutive: the first is entered by the step that emits T[k - 1],
        and each later run by a step that emits nothing, from the state
        ``_SILENT_FROM`` names, at the same k. So the rows filed under one
        (state, k) are the first row alone, or later runs whose rows before
        them share one (state, k): either way they are all maximal at the
        left or none are, and each maximal pair costs O(1).
        """
        n = len(s)
        self.calls += n * (n + 1) // 2
        if not n:
            return []
        target = _normalize_tex(s)
        codes = s.translate(_CLASS_CODES).encode()

        # starts[k]: the first row a with k characters of target emitted by
        # s[:a], as a << 5 | the _TRANSITIONS index of the step entering it
        # (row 0 counts as entered from text by an ordinary character);
        # later[k * _STATES + state]: the rows after it that start a run in
        # state, ascending
        starts = [_OTHER + _TEXT]
        later: dict[int, list[int]] = {}
        state = _TEXT
        for a, code in enumerate(codes, 1):
            move = code + state
            step = _TRANSITIONS[move]
            if step & 1:
                starts.append(a << 5 | move)
            elif step >> 1 != state:
                key = (len(starts) - 1) * _STATES + (step >> 1)
                later.setdefault(key, []).append(a)
            state = step >> 1

        found = []
        # at[state]: where in target the output of s[j:] run from state
        # starts, or -1 when that output is not a suffix of target; was:
        # the same for s[j + 1:], None past the end
        at = [len(target)] * _STATES
        was = [None] * _STATES
        movable = range(_STATES)
        j = n
        while True:
            for state in movable:
                k = at[state]
                if k < 0 or k == was[state]:
                    continue
                first = starts[k]
                move = first & 31
                if _TRANSITIONS[move] >> 1 == state:
                    a = first >> 5
                    if a < j and (a == 0 or at[move % _STATES] != k - 1):
                        found.append((a + 1, j))
                rows = later and later.get(k * _STATES + state)
                if rows and at[_SILENT_FROM[state]] != k:
                    while rows and rows[-1] >= j:
                        rows.pop()  # a row a >= j has no pair ending at j
                    found.extend((a + 1, j) for a in rows)
            j -= 1
            if not j:
                break
            # each branch reads a column of _TRANSITIONS backward: a state
            # takes the place of the state it steps to, one earlier when the
            # step emits the character target holds there
            code = codes[j]
            t0, t1, t2, t3, t4 = was = at
            if code == _OTHER:
                text = t0 - 1 if t0 > 0 and target[t0 - 1] == s[j] else -1
                at = [text, text, text, t3, t4]
            elif code == _SPACE:
                space = t1 - 1 if t1 > 0 and target[t1 - 1] == " " else -1
                at = [space, t1, space, t3, t4]
            elif code == _NEWLINE:
                space = t1 - 1 if t1 > 0 and target[t1 - 1] == " " else -1
                at = [space, t1, space, space, t1]
            elif code == _PERCENT:
                text = t0 - 1 if t0 > 0 and target[t0 - 1] == "%" else -1
                at = [t3, t4, text, t3, t4]
            else:
                escape = t2 - 1 if t2 > 0 and target[t2 - 1] == "\\" else -1
                text = t0 - 1 if t0 > 0 and target[t0 - 1] == "\\" else -1
                at = [escape, escape, text, t3, t4]
            movable = _MOVABLE[code]
        found.sort()
        return found


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

    Asks the oracle for them (``maximal_pairs``), which costs n(n+1)/2
    oracle calls: an oracle built on another normalization answers one
    query per deletion and reads maximality off the comment matrix, while
    ``reference_oracle()`` finds them in time linear in len(s) plus their
    number and counts the same calls. Raises OverlappingMaximalComments
    when two maximal comments share characters, since then they do not
    form a partition of anything.

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

    maximal = oracle.maximal_pairs(s)
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

    ``oracle`` defaults to a fresh ``reference_oracle()``, which finds them
    in time linear in len(s) plus their number and counts n(n+1)/2 calls;
    ``max_calls`` is passed to ``partition_maximal_comments``.
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
