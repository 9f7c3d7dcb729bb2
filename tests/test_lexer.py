"""Lexer invariants: lossless spans, escape handling, verbatim opacity."""

import re
from string import ascii_letters, digits

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import golden_docs
from texcorpus.lexer import (
    NoMainFile,
    SourceDocument,
    Token,
    TokenKind,
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


def kinds(tokens):
    return [t.kind for t in tokens]


class TestRoundTrip:
    @given(st.text(max_size=200))
    @settings(max_examples=300)
    def test_arbitrary_text_reassembles(self, source):
        tokens = tokenize(source)
        assert "".join(source[t.start : t.end] for t in tokens) == source

    @given(LATEXISH)
    @settings(max_examples=300)
    def test_latexish_text_reassembles(self, source):
        tokens = tokenize(source)
        assert "".join(source[t.start : t.end] for t in tokens) == source

    @given(LATEXISH)
    def test_spans_tile_without_gaps(self, source):
        tokens = tokenize(source)
        position = 0
        for tok in tokens:
            assert tok.start == position
            assert tok.end > tok.start
            position = tok.end
        assert position == len(source)


_REF_BEGIN_VERBATIM_RE = re.compile(r"[ \t]*\{(verbatim|verbatim\*|lstlisting)\}")
_REF_PLAIN_RUN_RE = re.compile(r"(\s+)|\S+")
_REF_WS_RE = re.compile(r"\s+")
_REF_ALNUM_RE = re.compile(r"[^\W_]+")
_REF_SINGLE_CHAR_KINDS = {
    "{": TokenKind.GROUP_OPEN,
    "}": TokenKind.GROUP_CLOSE,
    "[": TokenKind.OPT_OPEN,
    "]": TokenKind.OPT_CLOSE,
    "$": TokenKind.MATH_SHIFT,
}


def loop_tokenize(text):
    """The per-character loop tokenize used to be, as (kind, value, start,
    end) tuples: the reference the columnar tokenizer is checked against."""
    tokens = []

    def plain_runs(start, end):
        for m in _REF_PLAIN_RUN_RE.finditer(text, start, end):
            kind = TokenKind.WHITESPACE if m.lastindex == 1 else TokenKind.WORD
            tokens.append((kind, m.group(), m.start(), m.end()))

    def lex_verb(i):
        n = len(text)
        if i < n and text[i] == "*":
            tokens.append((TokenKind.OTHER, "*", i, i + 1))
            i += 1
        if i >= n or text[i] == "\n":
            return i
        delim = text[i]
        tokens.append((TokenKind.OTHER, delim, i, i + 1))
        j = i + 1
        while j < n and text[j] != delim and text[j] != "\n":
            j += 1
        plain_runs(i + 1, j)
        if j < n and text[j] == delim:
            tokens.append((TokenKind.OTHER, delim, j, j + 1))
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
                tokens.append((TokenKind.COMMAND, name, i, j))
                i = j
                if name == "verb":
                    i = lex_verb(i)
                elif name == "begin":
                    m = _REF_BEGIN_VERBATIM_RE.match(text, i)
                    if m:
                        pending_verbatim = (m.end(), m.group(1))
            elif i + 1 < n:
                tokens.append((TokenKind.COMMAND, text[i + 1], i, i + 2))
                i += 2
            else:
                tokens.append((TokenKind.OTHER, "\\", i, n))
                i = n
        elif c == "%":
            stop = text.find("\n", i)
            if stop == -1:
                tokens.append((TokenKind.LINE_COMMENT, text[i + 1 :], i, n))
                i = n
            else:
                tokens.append((TokenKind.LINE_COMMENT, text[i + 1 : stop], i, stop + 1))
                i = stop + 1
        elif c in _REF_SINGLE_CHAR_KINDS:
            tokens.append((_REF_SINGLE_CHAR_KINDS[c], c, i, i + 1))
            i += 1
        elif c.isspace():
            m = _REF_WS_RE.match(text, i)
            tokens.append((TokenKind.WHITESPACE, m.group(0), i, m.end()))
            i = m.end()
        elif c.isalnum():
            m = _REF_ALNUM_RE.match(text, i)
            tokens.append((TokenKind.WORD, m.group(0), i, m.end()))
            i = m.end()
        else:
            tokens.append((TokenKind.OTHER, c, i, i + 1))
            i += 1
    return tokens


def token_tuples(text):
    return [(t.kind, t.value, t.start, t.end) for t in tokenize(text)]


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
        assert len(tokens.starts) == len(tokens) + 1
        assert tokens.starts[-1] == len(text)
        assert list(tokens) == [tokens[i] for i in range(len(tokens))]
        assert tokens[-1] == Token(TokenKind.OTHER, "\\", len(text) - 1, len(text))
        assert tokens[1:3] == list(tokens)[1:3]
        with pytest.raises(IndexError):
            tokens[len(tokens)]


class TestComments:
    def test_comment_token_stops_at_newline(self):
        tokens = tokenize("x %note\ny")
        assert kinds(tokens) == [
            TokenKind.WORD,
            TokenKind.WHITESPACE,
            TokenKind.LINE_COMMENT,
            TokenKind.WORD,
        ]
        comment = tokens[2]
        assert comment.value == "note"
        # span covers the newline so the stream stays lossless
        assert "x %note\ny"[comment.start : comment.end] == "%note\n"

    def test_escaped_percent_is_a_command(self):
        tokens = tokenize(r"100\% sure")
        assert TokenKind.LINE_COMMENT not in kinds(tokens)
        percent = [t for t in tokens if t.kind is TokenKind.COMMAND]
        assert percent and percent[0].value == "%"

    def test_comment_at_end_of_input(self):
        tokens = tokenize("a %tail")
        assert tokens[-1].kind is TokenKind.LINE_COMMENT
        assert tokens[-1].value == "tail"

    def test_empty_comment(self):
        tokens = tokenize("%\nx")
        assert tokens[0].kind is TokenKind.LINE_COMMENT
        assert tokens[0].value == ""

    @given(st.text(alphabet="ab% \\\n", max_size=60))
    def test_comment_only_after_even_backslash_run(self, source):
        # \% is escaped, \\% is not (the backslashes pair up), \\\% is again
        for tok in tokenize(source):
            if tok.kind is TokenKind.LINE_COMMENT:
                assert source[tok.start] == "%"
                run = 0
                while tok.start - 1 - run >= 0 and source[tok.start - 1 - run] == "\\":
                    run += 1
                assert run % 2 == 0


class TestCommands:
    def test_letter_run_command(self):
        tokens = tokenize(r"\textbf{x}")
        assert tokens[0].kind is TokenKind.COMMAND
        assert tokens[0].value == "textbf"

    def test_single_nonletter_command(self):
        tokens = tokenize("\\$5")
        assert tokens[0].kind is TokenKind.COMMAND
        assert tokens[0].value == "$"
        assert tokens[1].kind is TokenKind.WORD

    def test_lone_trailing_backslash(self):
        tokens = tokenize("end\\")
        assert tokens[-1].kind is TokenKind.OTHER
        assert tokens[-1].value == "\\"

    def test_double_backslash(self):
        tokens = tokenize(r"a\\b")
        assert kinds(tokens) == [TokenKind.WORD, TokenKind.COMMAND, TokenKind.WORD]
        assert tokens[1].value == "\\"


class TestVerbatim:
    def test_percent_inside_verbatim_is_not_a_comment(self):
        source = "\\begin{verbatim}\n% kept\n\\end{verbatim}\n"
        tokens = tokenize(source)
        assert TokenKind.LINE_COMMENT not in kinds(tokens)
        words = [t.value for t in tokens if t.kind is TokenKind.WORD]
        assert "%" in words

    def test_starred_verbatim_and_lstlisting(self):
        for env in ("verbatim*", "lstlisting"):
            source = f"\\begin{{{env}}}x % y\\end{{{env}}}"
            assert TokenKind.LINE_COMMENT not in kinds(tokenize(source))

    def test_unclosed_verbatim_runs_to_end(self):
        source = "\\begin{verbatim}\n% a\n% b"
        tokens = tokenize(source)
        assert TokenKind.LINE_COMMENT not in kinds(tokens)
        assert "".join(source[t.start : t.end] for t in tokens) == source

    def test_comment_resumes_after_verbatim(self):
        source = "\\begin{verbatim}%in\\end{verbatim}\n%out\n"
        tokens = tokenize(source)
        comments = [t for t in tokens if t.kind is TokenKind.LINE_COMMENT]
        assert [t.value for t in comments] == ["out"]

    def test_verb_argument_is_opaque(self):
        tokens = tokenize(r"\verb|% x| tail")
        assert TokenKind.LINE_COMMENT not in kinds(tokens)
        assert [t.value for t in tokens if t.kind is TokenKind.WORD][-1] == "tail"

    def test_verb_star_and_unusual_delimiter(self):
        tokens = tokenize(r"\verb*+%+rest")
        assert TokenKind.LINE_COMMENT not in kinds(tokens)

    def test_verb_stops_at_newline(self):
        # an unterminated \verb cannot swallow the next line
        tokens = tokenize("\\verb|abc\n%real\n")
        assert TokenKind.LINE_COMMENT in kinds(tokens)

    @given(st.text(alphabet="ab%{ \t\n\x1c\xa0\u2003", max_size=40))
    @settings(max_examples=200)
    def test_verbatim_body_is_alternating_runs(self, body):
        # unicode whitespace too: runs split exactly where str.isspace does
        tokens = tokenize("\\begin{verbatim}" + body)[4:]
        assert "".join(t.value for t in tokens) == body
        for tok in tokens:
            assert tok.kind in (TokenKind.WORD, TokenKind.WHITESPACE)
            space = tok.kind is TokenKind.WHITESPACE
            assert all(c.isspace() == space for c in tok.value)
        assert all(a.kind is not b.kind for a, b in zip(tokens, tokens[1:]))


def rescan_closers(tokens):
    """The brace table as found by rescanning from every opener."""
    closers = []
    for i, tok in enumerate(tokens):
        close = -1
        if tok.kind is TokenKind.GROUP_OPEN:
            depth = 0
            for j in range(i, len(tokens)):
                if tokens[j].kind is TokenKind.GROUP_OPEN:
                    depth += 1
                elif tokens[j].kind is TokenKind.GROUP_CLOSE:
                    depth -= 1
                    if depth == 0:
                        close = j
                        break
        elif tok.kind is TokenKind.OPT_OPEN:
            for j in range(i + 1, len(tokens)):
                if tokens[j].kind is TokenKind.OPT_CLOSE:
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
        assert group_closers(tokens.kinds) == rescan_closers(tokens)


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
        (t.value, t.start, t.end)
        for t in tokenize(text)
        if t.kind is TokenKind.COMMAND and t.value in names
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


class TestToken:
    def test_value_semantics(self):
        tok = Token(TokenKind.WORD, "x", 0, 1)
        assert tok == Token(TokenKind.WORD, "x", 0, 1)
        assert tok != Token(TokenKind.WORD, "x", 0, 2)
        assert hash(tok) == hash((TokenKind.WORD, "x", 0, 1))
        assert repr(tok) == (
            "Token(kind=<TokenKind.WORD: 'word'>, value='x', start=0, end=1)"
        )

    def test_slotted(self):
        assert not hasattr(Token(TokenKind.WORD, "x", 0, 1), "__dict__")


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
        tokens = tokenize("a_b")
        assert [t.kind for t in tokens] == [
            TokenKind.WORD,
            TokenKind.OTHER,
            TokenKind.WORD,
        ]


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
