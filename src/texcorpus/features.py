"""Per-document structure extraction: packages, graphics, theorems, authors,
macro definitions and word counts, combined into one ``FeatureVector``.
The graphics, theorem and author extractors return its fields by name.

All extractors walk the token stream from the lexer, so constructs inside
line comments or verbatim regions are never miscounted. Documents made of
several files are flattened first by splicing \\input/\\include targets into
the main file.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import compress

from .comments import (
    CommentSpan,
    comment_words,
    detect_ignore_macros,
    extract_line_comments,
    extract_macro_comments,
)
from .errors import Diagnostic
from .lexer import (
    COMMAND,
    GROUP_OPEN,
    OPT_OPEN,
    OTHER,
    WORD,
    NoMainFile,
    SourceDocument,
    TokenStream,
    _next_significant,
    alphabetic_words,
    detect_main_file,
    input_references,
    tokenize,
)
from .records import FeatureVector


def inline_sources(
    texts: dict[str, str],
    main: str,
    diagnostics: list[Diagnostic] | None = None,
) -> str:
    """Splice \\input/\\include targets into the main file's source.

    Each file is inlined at most once; repeated references and cycles are
    dropped with a diagnostic. References to files not in the document are
    kept verbatim, also with a diagnostic. The references are those of
    ``input_references``, so \\input inside comments or verbatim text is
    never expanded, and files are not tokenized.
    """
    visited: set[str] = set()

    def process(path: str) -> str:
        visited.add(path)
        source = texts[path]
        parts: list[str] = []
        last = 0
        for command, start, end, name, target in input_references(texts, path):
            parts.append(source[last:start])
            last = end
            if target is None:
                parts.append(source[start:end])
                if diagnostics is not None:
                    diagnostics.append(
                        Diagnostic(
                            "inline",
                            f"\\{command} target {name!r} not found in "
                            f"{path}; kept as-is",
                        )
                    )
            elif target in visited:
                if diagnostics is not None:
                    diagnostics.append(
                        Diagnostic(
                            "inline",
                            f"\\{command} of {target!r} in {path} skipped: "
                            "already inlined",
                        )
                    )
            else:
                parts.append(process(target))
        parts.append(source[last:])
        return "".join(parts)

    return process(main)


def _read_group(
    source: str, tokens: TokenStream, idx: int, opener: str = GROUP_OPEN
) -> tuple[str, int] | None:
    """Read a {…} group, or a [...] one when ``opener`` is OPT_OPEN,
    starting at the next significant token.

    Returns (inner text, index just past the closer), or None when no
    well-formed group is there. Extents come from the stream's brace
    table, so a [...] group ends at the first ``]``.
    """
    kinds = tokens.kinds
    idx = _next_significant(kinds, idx)
    if idx >= len(kinds) or kinds[idx] != opener:
        return None
    close = tokens.closers[idx]
    if close == -1:
        return None
    starts = tokens.starts
    return source[starts[idx + 1] : starts[close]], close + 1


def extract_packages(source: str, tokens: TokenStream) -> list[str]:
    """Package names of all \\usepackage and \\RequirePackage declarations,
    in order, duplicates preserved.

    \\usepackage[opts]{a, b} yields "a" then "b"; the option group is skipped.
    """
    names: list[str] = []
    for i in tokens.command_positions(("usepackage", "RequirePackage")):
        idx = i + 1
        opt = _read_group(source, tokens, idx, OPT_OPEN)
        if opt is not None:
            idx = opt[1]
        group = _read_group(source, tokens, idx)
        if group is None:
            continue
        names.extend(name.strip() for name in group[0].split(",") if name.strip())
    return names


def analyze_graphics(tokens: TokenStream, packages: list[str]) -> dict:
    """The ``FeatureVector`` graphics fields: packages declared, commands used."""
    declared = set(packages)
    commands = tokens.commands
    return {
        "graphicx_declared": "graphicx" in declared,
        "epsfig_declared": "epsfig" in declared,
        "includegraphics_count": len(commands.get("includegraphics", ())),
        "epsfig_command_count": len(commands.get("epsfig", ())),
    }


_THEOREM_TITLES = {"theorem", "lemma", "proposition", "corollary"}
_BUILTIN_THEOREM_RE = re.compile(r"(theorem|lemma|proposition|corollary)\*?\Z", re.IGNORECASE)


def extract_theorems(source: str, tokens: TokenStream) -> dict:
    """Count \\begin{...} uses of theorem environments, as ``FeatureVector`` fields.

    \\newtheorem{env}{Title} binds env to the class of its title when the
    title is Theorem/Lemma/Proposition/Corollary; standard environment
    names count without a binding. theorem_count covers theorems proper,
    theorem_like_count the other three classes.
    """
    kinds, values = tokens.kinds, tokens.values
    bound: dict[str, str] = {}
    n = len(kinds)
    resume = 0  # index just past the last declaration read
    for i in tokens.commands.get("newtheorem", ()):
        if i < resume:
            continue
        idx = i + 1
        nxt = _next_significant(kinds, idx)
        if nxt < n and kinds[nxt] == OTHER and values[nxt] == "*":
            idx = nxt + 1
        group = _read_group(source, tokens, idx)
        if group is not None:
            env_name, idx = group
            opt = _read_group(source, tokens, idx, OPT_OPEN)
            if opt is not None:
                _, idx = opt
            title_group = _read_group(source, tokens, idx)
            if title_group is not None:
                title, idx = title_group
                normalized = title.strip().lower()
                if normalized in _THEOREM_TITLES:
                    bound[env_name.strip()] = normalized
            resume = idx

    theorem = 0
    theorem_like = 0
    resume = 0  # index just past the last environment name read
    for i in tokens.commands.get("begin", ()):
        if i < resume:
            continue
        group = _read_group(source, tokens, i + 1)
        if group is not None:
            env, resume = group
            env = env.strip()
            cls = bound.get(env)
            if cls is None:
                m = _BUILTIN_THEOREM_RE.match(env)
                if m:
                    cls = m.group(1).lower()
            if cls == "theorem":
                theorem += 1
            elif cls is not None:
                theorem_like += 1
    return {"theorem_count": theorem, "theorem_like_count": theorem_like}


def count_figures(source: str, tokens: TokenStream) -> int:
    """Number of figure/figure* environments."""
    count = 0
    for i in tokens.commands.get("begin", ()):
        group = _read_group(source, tokens, i + 1)
        if group is not None and group[0].strip() in ("figure", "figure*"):
            count += 1
    return count


def count_newcommands(tokens: TokenStream) -> int:
    """Number of \\newcommand and \\renewcommand definitions."""
    return len(tokens.command_positions(("newcommand", "renewcommand")))


_AUTHOR_NOISE_MACROS = {"thanks", "affil", "affiliation"}


def _segment_has_words(tokens: TokenStream, start: int, stop: int) -> bool:
    """Whether tokens[start:stop], one name segment, has visible words
    outside noise macros. tokens[stop] must be significant: a separator or
    the closing brace of the block."""
    kinds, values = tokens.kinds, tokens.values
    i = start
    while i < stop:
        kind = kinds[i]
        if kind == COMMAND and values[i] in _AUTHOR_NOISE_MACROS:
            idx = _next_significant(kinds, i + 1)
            if idx < stop and kinds[idx] == GROUP_OPEN:  # closed, as the block is
                i = tokens.closers[idx] + 1
                continue
            i += 1
            continue
        if kind == WORD and alphabetic_words(values[i]):
            return True
        i += 1
    return False


def _count_block_authors(tokens: TokenStream, open_idx: int) -> int:
    """Authors inside the \\author{...} group opening at open_idx: segments
    split on \\and or \\\\ at brace depth zero, counting segments that
    carry a name. The group is closed, so every group inside it is too."""
    kinds, values, closers = tokens.kinds, tokens.values, tokens.closers
    close = closers[open_idx]
    count = 0
    start = i = open_idx + 1
    while i < close:
        kind = kinds[i]
        if kind == GROUP_OPEN:
            i = closers[i] + 1
            continue
        if kind == COMMAND and values[i] in ("and", "\\"):
            count += _segment_has_words(tokens, start, i)
            start = i + 1
        i += 1
    return count + _segment_has_words(tokens, start, close)


def extract_authors(source: str, tokens: TokenStream) -> dict:
    """The ``FeatureVector`` author fields: the author count from \\author
    declarations, and whether a non-empty one was found.

    Several \\author blocks before \\maketitle mean one author per block
    (the affiliation-package convention). A single block is split on \\and
    and on line breaks.
    """
    maketitle_at = tokens.commands.get("maketitle", [None])[0]

    blocks: list[int] = []  # token index of each block's opening brace
    for i in tokens.commands.get("author", ()):
        if maketitle_at is not None and i > maketitle_at:
            break
        idx = i + 1
        opt = _read_group(source, tokens, idx, OPT_OPEN)
        if opt is not None:
            _, idx = opt
        idx = _next_significant(tokens.kinds, idx)
        group = _read_group(source, tokens, idx)
        if group is None:
            continue
        if group[0].strip():
            blocks.append(idx)

    if len(blocks) == 1:
        count = _count_block_authors(tokens, blocks[0])
    else:
        count = len(blocks)
    return {"author_count": count, "author_block_found": bool(blocks)}


def _to_char_ranges(spans: list[CommentSpan]) -> list[tuple[int, int]]:
    """CommentSpan 1-based closed spans as 0-based half-open ranges."""
    return sorted((span.start - 1, span.end) for span in spans)


# 1 at the code of each kind whose tokens are words, else 0
_COUNTED = bytes(chr(b) in (WORD, COMMAND) for b in range(256))


def collect_words(
    tokens: TokenStream, exclude_spans: list[tuple[int, int]] | None = None
) -> list[str]:
    """Visible words of the token stream, in order.

    Command names count as words (without the backslash); line comments
    never do. ``exclude_spans`` removes tokens lying inside any of the
    given 0-based half-open character ranges, which is how no-op macro
    invocations are kept out of the text.
    """
    starts = tokens.starts
    counted = bytearray(tokens.kinds, "ascii").translate(_COUNTED)
    for lo, hi in exclude_spans or ():
        # tokens first to last - 1 start at or after lo and end by hi
        first = bisect_left(starts, lo)
        last = bisect_right(starts, hi) - 1
        if first < last:
            counted[first:last] = bytes(last - first)
    words: list[str] = []
    for value in compress(tokens.values, counted):
        # A string of letters only is exactly one alphabetic_words match.
        if value.isalpha():
            words.append(value.casefold())
        else:
            words.extend(alphabetic_words(value))
    return words


@dataclass
class ExtractionResult:
    """Features plus the underlying comments, words and soft failures."""

    features: FeatureVector
    comments: list[CommentSpan]
    text_words: list[str]
    comment_words: list[str]
    diagnostics: list[Diagnostic] = field(default_factory=list)


def extract_document(doc: SourceDocument) -> ExtractionResult:
    """Run the whole extraction pipeline on one document.

    Comment spans in the result index into the document's assembled source
    (main file with inputs spliced in).
    """
    diagnostics: list[Diagnostic] = []
    texts = doc.texts()
    main = doc.main_file
    if main is None:
        try:
            main = detect_main_file(doc.files)
        except NoMainFile:
            if len(doc.files) == 1:
                main = doc.files[0][0]
                diagnostics.append(
                    Diagnostic(
                        "main-file",
                        f"{doc.id}: no \\documentclass found; using the only "
                        f"file {main!r}",
                    )
                )
            else:
                raise

    source = inline_sources(texts, main, diagnostics)
    tokens = tokenize(source)

    line_spans = extract_line_comments(source, tokens)
    macro_spans = extract_macro_comments(
        source, tokens, detect_ignore_macros(tokens), diagnostics
    )
    comments = sorted(line_spans + macro_spans, key=lambda s: (s.start, s.end))

    text_words = collect_words(tokens, _to_char_ranges(macro_spans))
    c_words = comment_words(comments)

    packages = extract_packages(source, tokens)
    distinct_packages = tuple(sorted(set(packages)))

    features = FeatureVector(
        doc_id=doc.id,
        category=doc.category,
        timestamp=doc.timestamp,
        multi_file=doc.multi_file,
        word_count=len(text_words),
        comment_word_count=len(c_words),
        page_count=doc.page_count,
        package_count=len(distinct_packages),
        package_names=distinct_packages,
        newcommand_count=count_newcommands(tokens),
        figure_count=count_figures(source, tokens),
        **analyze_graphics(tokens, packages),
        **extract_theorems(source, tokens),
        **extract_authors(source, tokens),
    )
    return ExtractionResult(
        features=features,
        comments=comments,
        text_words=text_words,
        comment_words=c_words,
        diagnostics=diagnostics,
    )

