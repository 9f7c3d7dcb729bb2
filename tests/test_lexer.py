"""Lexer invariants: lossless spans, escape handling, verbatim opacity."""

import re
from string import ascii_letters, digits

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import golden_docs
from texcorpus import lexer
from texcorpus.features import inline_sources
from texcorpus.lexer import (
    COMMAND,
    GROUP_CLOSE,
    GROUP_OPEN,
    LINE_COMMENT,
    MATH_SHIFT,
    NoMainFile,
    OPT_CLOSE,
    OPT_OPEN,
    OTHER,
    SourceDocument,
    WHITESPACE,
    WORD,
    alphabetic_words,
    decode_source,
    detect_main_file,
    group_closers,
    scan_commands,
    tokenize,
)

# both plain prose characters and everything structurally meaningful to TeX
LATEXISH = st.lists(
    st.sampled_from(list("ab %\\\n{}[]$*|_0é") + ["\\%", "\\verb", "\\begin{verbatim}"]),
    max_size=40,
).map("".join)


def token_tuples(text):
    """The tokens of ``text`` as (kind code, value, start, end) tuples."""
    ts = tokenize(text)
    return list(zip(ts.kinds, ts.values, ts.starts, ts.starts[1:]))


def spans(tokens):
    return list(zip(tokens.starts, tokens.starts[1:]))


class TestRoundTrip:
    @given(st.text(max_size=200))
    @settings(max_examples=300)
    def test_arbitrary_text_reassembles(self, source):
        tokens = tokenize(source)
        assert "".join(source[a:b] for a, b in spans(tokens)) == source
        assert set(tokens.kinds) <= set(lexer._CODES)

    @given(LATEXISH)
    @settings(max_examples=300)
    def test_latexish_text_reassembles(self, source):
        tokens = tokenize(source)
        assert "".join(source[a:b] for a, b in spans(tokens)) == source
        assert set(tokens.kinds) <= set(lexer._CODES)

    @given(LATEXISH)
    def test_spans_tile_without_gaps(self, source):
        tokens = tokenize(source)
        assert tokens.starts[0] == 0 and tokens.starts[-1] == len(source)
        assert all(a < b for a, b in spans(tokens))

    def test_the_ten_kind_codes_are_distinct(self):
        codes = (COMMAND, LINE_COMMENT, WORD, GROUP_OPEN, GROUP_CLOSE, OPT_OPEN,
                 OPT_CLOSE, MATH_SHIFT, WHITESPACE, OTHER)
        assert len(set(codes)) == len(codes) == len(lexer._CODES)
        assert set(codes) == set(lexer._CODES)


_REF_BEGIN_VERBATIM_RE = re.compile(r"[ \t]*\{(verbatim|verbatim\*|lstlisting)\}")
_REF_PLAIN_RUN_RE = re.compile(r"(\s+)|\S+")
_REF_WS_RE = re.compile(r"\s+")
_REF_ALNUM_RE = re.compile(r"[^\W_]+")
_REF_SINGLE_CHAR_KINDS = {
    "{": GROUP_OPEN,
    "}": GROUP_CLOSE,
    "[": OPT_OPEN,
    "]": OPT_CLOSE,
    "$": MATH_SHIFT,
}


def loop_tokenize(text):
    """The per-character loop tokenize used to be, as (kind, value, start,
    end) tuples: the reference the columnar tokenizer is checked against."""
    tokens = []

    def plain_runs(start, end):
        for m in _REF_PLAIN_RUN_RE.finditer(text, start, end):
            kind = WHITESPACE if m.lastindex == 1 else WORD
            tokens.append((kind, m.group(), m.start(), m.end()))

    def lex_verb(i):
        n = len(text)
        if i < n and text[i] == "*":
            tokens.append((OTHER, "*", i, i + 1))
            i += 1
        if i >= n or text[i] == "\n":
            return i
        delim = text[i]
        tokens.append((OTHER, delim, i, i + 1))
        j = i + 1
        while j < n and text[j] != delim and text[j] != "\n":
            j += 1
        plain_runs(i + 1, j)
        if j < n and text[j] == delim:
            tokens.append((OTHER, delim, j, j + 1))
            j += 1
        return j

    i = 0
    n = len(text)
    pending_verbatim = None  # (content start, environment) after \begin{verbatim}
    while i < n:
        if pending_verbatim is not None and i == pending_verbatim[0]:
            stop = text.find("\\end{" + pending_verbatim[1] + "}", i)
            pending_verbatim = None
            if stop == -1:
                stop = n
            plain_runs(i, stop)
            i = stop
            continue
        c = text[i]
        if c == "\\":
            if i + 1 < n and text[i + 1] in ascii_letters:
                j = i + 2
                while j < n and text[j] in ascii_letters:
                    j += 1
                name = text[i + 1 : j]
                tokens.append((COMMAND, name, i, j))
                i = j
                if name == "verb":
                    i = lex_verb(i)
                elif name == "begin":
                    m = _REF_BEGIN_VERBATIM_RE.match(text, i)
                    if m:
                        pending_verbatim = (m.end(), m.group(1))
            elif i + 1 < n:
                tokens.append((COMMAND, text[i + 1], i, i + 2))
                i += 2
            else:
                tokens.append((OTHER, "\\", i, n))
                i = n
        elif c == "%":
            stop = text.find("\n", i)
            if stop == -1:
                tokens.append((LINE_COMMENT, text[i + 1 :], i, n))
                i = n
            else:
                tokens.append((LINE_COMMENT, text[i + 1 : stop], i, stop + 1))
                i = stop + 1
        elif c in _REF_SINGLE_CHAR_KINDS:
            tokens.append((_REF_SINGLE_CHAR_KINDS[c], c, i, i + 1))
            i += 1
        elif c.isspace():
            m = _REF_WS_RE.match(text, i)
            tokens.append((WHITESPACE, m.group(0), i, m.end()))
            i = m.end()
        elif c.isalnum():
            m = _REF_ALNUM_RE.match(text, i)
            tokens.append((WORD, m.group(0), i, m.end()))
            i = m.end()
        else:
            tokens.append((OTHER, c, i, i + 1))
            i += 1
    return tokens


# TeX's special characters, ASCII letters and digits, line ends, non-ASCII
# letters, digits, a combining mark and characters str.isspace counts as
# space, and the fragments that open or close a verbatim region
DIFFERENTIAL = st.lists(
    st.sampled_from(
        list("\\%{}[]$*|#_ \n\t\r" + ascii_letters + digits)
        + ["\u00e9", "\u0663", "\u0301", "\x1c", "\x85", "\u2028", "\u00b2"]
        + ["\\verb", "\\verb*", "\\begin{verbatim}", "\\end{verbatim}",
           "\\begin{lstlisting}", "\\begin {verbatim*}"]
    ),
    max_size=60,
).map("".join)


class TestAgainstLoopTokenizer:
    @given(DIFFERENTIAL)
    @settings(max_examples=1000)
    def test_same_tokens(self, text):
        assert token_tuples(text) == loop_tokenize(text)

    @pytest.mark.parametrize("doc", golden_docs.DOCS, ids=lambda doc: doc["id"])
    def test_same_tokens_on_the_golden_corpus(self, doc):
        texts = [golden_docs.assembled_text(doc)]
        texts += [data.decode("utf-8", errors="replace") for _, data in doc["files"]]
        for text in texts:
            assert token_tuples(text) == loop_tokenize(text)

    def test_views_read_the_columns(self):
        text = "\\verb|%x| a{b}\\\\ %c\n\\begin{verbatim}%v\\end{verbatim}\\"
        tokens = tokenize(text)
        assert len(tokens.values) == len(tokens) == len(tokens.kinds)
        assert len(tokens.starts) == len(tokens) + 1
        assert tokens.starts[-1] == len(text)
        assert token_tuples(text)[-1] == (OTHER, "\\", len(text) - 1, len(text))


class TestComments:
    def test_comment_token_stops_at_newline(self):
        tokens = tokenize("x %note\ny")
        assert tokens.kinds == WORD + WHITESPACE + LINE_COMMENT + WORD
        # span covers the newline so the stream stays lossless
        assert token_tuples("x %note\ny")[2] == (LINE_COMMENT, "note", 2, 8)

    def test_escaped_percent_is_a_command(self):
        tokens = tokenize(r"100\% sure")
        assert LINE_COMMENT not in tokens.kinds
        assert tokens.kinds[1] == COMMAND and tokens.values[1] == "%"

    def test_comment_at_end_of_input(self):
        assert token_tuples("a %tail")[-1] == (LINE_COMMENT, "tail", 2, 7)

    def test_empty_comment(self):
        assert token_tuples("%\nx")[0] == (LINE_COMMENT, "", 0, 2)

    @given(st.text(alphabet="ab% \\\n", max_size=60))
    def test_comment_only_after_even_backslash_run(self, source):
        # \% is escaped, \\% is not (the backslashes pair up), \\\% is again
        for kind, _, start, _ in token_tuples(source):
            if kind == LINE_COMMENT:
                assert source[start] == "%"
                run = 0
                while start - 1 - run >= 0 and source[start - 1 - run] == "\\":
                    run += 1
                assert run % 2 == 0


class TestCommands:
    def test_letter_run_command(self):
        assert token_tuples(r"\textbf{x}")[0] == (COMMAND, "textbf", 0, 7)

    def test_single_nonletter_command(self):
        tokens = tokenize("\\$5")
        assert tokens.kinds == COMMAND + WORD
        assert tokens.values[0] == "$"

    def test_lone_trailing_backslash(self):
        assert token_tuples("end\\")[-1] == (OTHER, "\\", 3, 4)

    def test_double_backslash(self):
        tokens = tokenize(r"a\\b")
        assert tokens.kinds == WORD + COMMAND + WORD
        assert tokens.values[1] == "\\"


def values_of(tokens, kind):
    return [v for k, v in zip(tokens.kinds, tokens.values) if k == kind]


class TestVerbatim:
    def test_percent_inside_verbatim_is_not_a_comment(self):
        source = "\\begin{verbatim}\n% kept\n\\end{verbatim}\n"
        tokens = tokenize(source)
        assert LINE_COMMENT not in tokens.kinds
        assert "%" in values_of(tokens, WORD)

    def test_starred_verbatim_and_lstlisting(self):
        for env in ("verbatim*", "lstlisting"):
            source = f"\\begin{{{env}}}x % y\\end{{{env}}}"
            assert LINE_COMMENT not in tokenize(source).kinds

    def test_unclosed_verbatim_runs_to_end(self):
        source = "\\begin{verbatim}\n% a\n% b"
        tokens = tokenize(source)
        assert LINE_COMMENT not in tokens.kinds
        assert "".join(source[a:b] for a, b in spans(tokens)) == source

    def test_comment_resumes_after_verbatim(self):
        source = "\\begin{verbatim}%in\\end{verbatim}\n%out\n"
        assert values_of(tokenize(source), LINE_COMMENT) == ["out"]

    def test_verb_argument_is_opaque(self):
        tokens = tokenize(r"\verb|% x| tail")
        assert LINE_COMMENT not in tokens.kinds
        assert values_of(tokens, WORD)[-1] == "tail"

    def test_verb_star_and_unusual_delimiter(self):
        tokens = tokenize(r"\verb*+%+rest")
        assert LINE_COMMENT not in tokens.kinds

    def test_verb_stops_at_newline(self):
        # an unterminated \verb cannot swallow the next line
        tokens = tokenize("\\verb|abc\n%real\n")
        assert LINE_COMMENT in tokens.kinds

    @given(st.text(alphabet="ab%{ \t\n\x1c\xa0\u2003", max_size=40))
    @settings(max_examples=200)
    def test_verbatim_body_is_alternating_runs(self, body):
        # unicode whitespace too: runs split exactly where str.isspace does
        tokens = tokenize("\\begin{verbatim}" + body)
        kinds, values = tokens.kinds[4:], tokens.values[4:]
        assert "".join(values) == body
        assert set(kinds) <= {WORD, WHITESPACE}
        for kind, value in zip(kinds, values):
            assert all(c.isspace() == (kind == WHITESPACE) for c in value)
        assert all(a != b for a, b in zip(kinds, kinds[1:]))


def rescan_closers(kinds):
    """The brace table as found by rescanning from every opener."""
    closers = []
    for i, kind in enumerate(kinds):
        close = -1
        if kind == GROUP_OPEN:
            depth = 0
            for j in range(i, len(kinds)):
                if kinds[j] == GROUP_OPEN:
                    depth += 1
                elif kinds[j] == GROUP_CLOSE:
                    depth -= 1
                    if depth == 0:
                        close = j
                        break
        elif kind == OPT_OPEN:
            for j in range(i + 1, len(kinds)):
                if kinds[j] == OPT_CLOSE:
                    close = j
                    break
        closers.append(close)
    return closers


BRACKETED = st.lists(
    st.sampled_from(["{", "}", "[", "]", " ", "\n", "word", "x"]), max_size=60
).map("".join)


class TestGroupClosers:
    def test_nested_stray_and_unclosed(self):
        tokens = tokenize("}{a{b}[c[d]]{")
        # index:  0  1  2  3  4  5  6  7  8  9 10 11 12
        # token:  }  {  a  {  b  }  [  c  [  d  ]  ]  {
        expected = [-1, -1, -1, 5, -1, -1, 10, -1, 10, -1, -1, -1, -1]
        assert group_closers(tokens.kinds) == expected

    @given(BRACKETED)
    @settings(max_examples=500)
    def test_matches_rescan(self, source):
        tokens = tokenize(source)
        assert group_closers(tokens.kinds) == rescan_closers(tokens.kinds)


# the pieces that decide whether a backslash starts \input: escapes,
# comments, \verb and verbatim bodies, longer names, non-ASCII text
SCANNABLE = st.lists(
    st.sampled_from(
        [
            "\\input", "\\include", "\\inputx", "\\", "\\\\", "\\%", "%", "\n",
            "\\verb", "\\verb*", "|", "\\begin", "{verbatim}", "{lstlisting}",
            "\\end{verbatim}", "{", "}", "é", " ", "a",
        ]
    ),
    max_size=40,
).map("".join)

INPUTS = ("input", "include")


def filtered_commands(text, names):
    return [
        (value, start, end)
        for kind, value, start, end in token_tuples(text)
        if kind == COMMAND and value in names
    ]


class TestScanCommands:
    @given(SCANNABLE)
    @settings(max_examples=1000)
    def test_matches_the_token_stream(self, text):
        assert list(scan_commands(text, INPUTS)) == filtered_commands(text, INPUTS)

    @given(LATEXISH, st.sets(st.sampled_from(["verb", "begin", "end", "%", "\\", "a"])))
    @settings(max_examples=500)
    def test_matches_the_token_stream_for_any_names(self, text, names):
        assert list(scan_commands(text, names)) == filtered_commands(text, names)

    @pytest.mark.parametrize(
        "text",
        [
            "\\\\input{a}",
            "\\\\%\\input{a}",
            "% \\input{a}",
            "\\inputx{a}",
            "\\verb|\\input{a}|",
            "\\verb*+\\input+",
            "\\begin{verbatim}\\input{a}\\end{verbatim}",
            "\\begin {lstlisting}\\input{a}",
        ],
    )
    def test_not_a_command_there(self, text):
        assert list(scan_commands(text, INPUTS)) == []

    def test_found_after_the_skipped_regions(self):
        text = "%c\n\\verb|x|\\begin{verbatim*}v\\end{verbatim*}\\input{a}\\include{b}"
        start = text.index("\\input")
        assert list(scan_commands(text, INPUTS)) == [
            ("input", start, start + 6),
            ("include", start + 9, start + 17),
        ]


class TestWordsAndDecode:
    def test_alphabetic_words_casefold_and_splits(self):
        assert alphabetic_words("Hello don't utf8x") == [
            "hello",
            "don",
            "t",
            "utf",
            "x",
        ]

    def test_alphabetic_words_unicode(self):
        assert alphabetic_words("Gödel naïve") == ["gödel", "naïve"]

    def test_decode_replaces_invalid_bytes(self):
        text = decode_source(b"caf\xe9 latin1")
        assert "caf" in text and "\ufffd" in text

    def test_underscore_is_not_a_word_character(self):
        assert tokenize("a_b").kinds == WORD + OTHER + WORD


class TestMainFileDetection:
    def test_single_candidate(self):
        files = [
            ("main.tex", b"\\documentclass{article}"),
            ("body.tex", b"just text"),
        ]
        assert detect_main_file(files) == "main.tex"

    def test_documentstyle_counts(self):
        files = [("old.tex", b"\\documentstyle[12pt]{article}")]
        assert detect_main_file(files) == "old.tex"

    def test_tie_broken_by_inbound_references(self):
        # both declare a class, but chapter.tex is pulled in by main.tex
        files = [
            ("chapter.tex", b"\\documentclass{book}"),
            ("main.tex", b"\\documentclass{book}\\input{chapter}"),
        ]
        assert detect_main_file(files) == "main.tex"

    def test_tie_broken_lexicographically(self):
        files = [
            ("b.tex", b"\\documentclass{article}"),
            ("a.tex", b"\\documentclass{article}"),
        ]
        assert detect_main_file(files) == "a.tex"

    def test_no_candidate_raises(self):
        with pytest.raises(NoMainFile):
            detect_main_file([("a.tex", b"plain"), ("b.tex", b"text")])
        with pytest.raises(NoMainFile):
            detect_main_file([])

    def test_commented_reference_does_not_count(self):
        files = [
            ("main.tex", b"\\documentclass{article}\n\\input{body}\n"),
            ("body.tex", b"Body text.\n"),
            ("reply.tex", b"\\documentclass{letter} % old: \\input{main}\n"),
        ]
        assert detect_main_file(files) == "main.tex"

    def test_verbatim_reference_does_not_count(self):
        files = [
            ("main.tex", b"\\documentclass{article}\nText.\n"),
            (
                "notes.tex",
                b"\\documentclass{article}\n"
                b"\\begin{verbatim}\\input{main}\\end{verbatim}\n",
            ),
        ]
        assert detect_main_file(files) == "main.tex"

    def test_reference_counts_only_where_it_resolves(self):
        # from z.tex, "main" names main.tex or main, never a/main.tex
        files = [
            ("a/main.tex", b"\\documentclass{article}\n"),
            ("z.tex", b"\\documentclass{article}\n\\input{main}\n"),
        ]
        assert detect_main_file(files) == "a/main.tex"

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(
                    [
                        "\\input{a}",
                        "% \\input{a}",
                        "\\begin{verbatim}\\input{a}\\end{verbatim}",
                        "\\verb|\\input{a}|",
                        "\\input{x/a}",
                        "\\input a",
                        "text",
                    ]
                ),
                st.sampled_from(["\n", " ", ""]),
            ),
            max_size=6,
        )
    )
    @settings(max_examples=300)
    def test_reference_counts_exactly_when_inlining_follows_it(self, pieces):
        a = "\\documentclass{article}\nMARKER\n"
        b = "\\documentclass{article}\n" + "".join(p + sep for p, sep in pieces)
        texts = {"a.tex": a, "b.tex": b}
        files = [(path, text.encode()) for path, text in texts.items()]
        followed = "MARKER" in inline_sources(texts, "b.tex")
        assert (detect_main_file(files) == "b.tex") == followed


class TestSourceDocument:
    def test_main_file_must_be_member(self):
        with pytest.raises(ValueError):
            SourceDocument(id="x", files=[("a.tex", b"")], main_file="b.tex")

    def test_page_count_must_be_positive(self):
        with pytest.raises(ValueError):
            SourceDocument(id="x", files=[("a.tex", b"")], page_count=0)

    def test_multi_file_flag(self):
        single = SourceDocument(id="x", files=[("a.tex", b"")])
        double = SourceDocument(id="y", files=[("a.tex", b""), ("b.tex", b"")])
        assert not single.multi_file
        assert double.multi_file
