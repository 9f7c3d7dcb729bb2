"""Structure extraction: inlining, packages, graphics, theorems, authors,
word counting and the assembled feature vector."""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import golden_docs
from test_lexer import loop_tokenize
from texcorpus import features, lexer
from texcorpus.comments import (
    CommentSpan,
    detect_ignore_macros,
    extract_line_comments,
    extract_macro_comments,
)
from texcorpus.errors import Diagnostic
from texcorpus.features import (
    analyze_graphics,
    collect_words,
    count_figures,
    count_newcommands,
    extract_authors,
    extract_document,
    extract_packages,
    extract_theorems,
    inline_sources,
)
from texcorpus.lexer import (
    NoMainFile,
    SourceDocument,
    TokenKind,
    alphabetic_words,
    group_closers,
    tokenize,
)


class TestInlining:
    def test_basic_input(self):
        texts = {
            "main.tex": "start \\input{body} end",
            "body.tex": "MIDDLE",
        }
        assert inline_sources(texts, "main.tex") == "start MIDDLE end"

    def test_include_and_extension_given(self):
        texts = {
            "main.tex": "\\include{part.tex}",
            "part.tex": "P",
        }
        assert inline_sources(texts, "main.tex") == "P"

    def test_file_without_input_is_not_tokenized(self, monkeypatch):
        monkeypatch.setattr(features, "tokenize", lambda source: pytest.fail(source))
        texts = {"main.tex": "plain % no inclusion here\n"}
        assert inline_sources(texts, "main.tex") == texts["main.tex"]

    def test_nested_inputs(self):
        texts = {
            "a.tex": "1 \\input{b} 4",
            "b.tex": "2 \\input{c} 3",
            "c.tex": "X",
        }
        assert inline_sources(texts, "a.tex") == "1 2 X 3 4"

    def test_unbraced_input(self):
        texts = {"main.tex": "see \\input body here", "body.tex": "B"}
        assert inline_sources(texts, "main.tex") == "see B here"

    def test_directory_relative_resolution(self):
        texts = {
            "paper/main.tex": "\\input{sections/intro}",
            "paper/sections/intro.tex": "I",
        }
        assert inline_sources(texts, "paper/main.tex") == "I"

    def test_cycle_is_cut(self):
        texts = {
            "a.tex": "A\\input{b}",
            "b.tex": "B\\input{a}",
        }
        diagnostics = []
        assert inline_sources(texts, "a.tex", diagnostics) == "AB"
        assert any("already inlined" in d.message for d in diagnostics)

    def test_each_file_spliced_once(self):
        texts = {
            "main.tex": "\\input{x} \\input{x}",
            "x.tex": "X",
        }
        diagnostics = []
        assert inline_sources(texts, "main.tex", diagnostics) == "X "
        assert len(diagnostics) == 1

    def test_missing_target_kept_verbatim(self):
        texts = {"main.tex": "a \\input{gone} b"}
        diagnostics = []
        assert inline_sources(texts, "main.tex", diagnostics) == "a \\input{gone} b"
        assert any("not found" in d.message for d in diagnostics)

    def test_commented_input_not_expanded(self):
        texts = {
            "main.tex": "a % \\input{x}\nb",
            "x.tex": "NO",
        }
        assert inline_sources(texts, "main.tex") == "a % \\input{x}\nb"

    def test_verbatim_input_not_expanded(self):
        texts = {
            "main.tex": "\\begin{verbatim}\\input{x}\\end{verbatim}",
            "x.tex": "NO",
        }
        assert "NO" not in inline_sources(texts, "main.tex")


class TestPackages:
    def extract(self, source):
        return extract_packages(source, tokenize(source))

    def test_single_package(self):
        assert self.extract(r"\usepackage{amsmath}") == ["amsmath"]

    def test_comma_list_shares_options(self):
        # the option group is skipped, and each listed name is one entry
        assert self.extract(r"\usepackage[draft, final]{foo, bar}") == ["foo", "bar"]

    def test_requirepackage(self):
        assert self.extract(r"\RequirePackage{snapshot}") == ["snapshot"]

    def test_duplicates_preserved_in_order(self):
        source = "\\usepackage{a}\n\\usepackage{b}\n\\usepackage{a}"
        assert self.extract(source) == ["a", "b", "a"]

    def test_commented_declaration_ignored(self):
        source = "% \\usepackage{ghost}\n\\usepackage{real}"
        assert self.extract(source) == ["real"]

    def test_missing_braces_skipped(self):
        assert self.extract(r"\usepackage") == []


class TestGraphics:
    def analyze(self, source):
        tokens = tokenize(source)
        return analyze_graphics(tokens, extract_packages(source, tokens))

    def features(self, source):
        doc = SourceDocument(id="g/1", files=[("main.tex", source.encode())])
        return extract_document(doc).features

    def test_declared_and_used(self):
        source = "\\usepackage{graphicx}\\includegraphics{a}\\includegraphics{b}"
        use = self.analyze(source)
        assert use.graphicx_declared and use.includegraphics_count == 2
        assert not self.features(source).graphicx_unused

    def test_declared_unused(self):
        source = r"\usepackage{graphicx}"
        assert self.analyze(source).graphicx_declared
        assert self.features(source).graphicx_unused

    def test_epsfig(self):
        source = r"\usepackage{epsfig}\epsfig{file=x.eps}"
        use = self.analyze(source)
        assert use.epsfig_declared and use.epsfig_command_count == 1
        assert not self.features(source).epsfig_unused

    def test_epsfig_declared_unused(self):
        assert self.features(r"\usepackage{epsfig}").epsfig_unused

    def test_used_without_declaration(self):
        source = r"\includegraphics{a}"
        use = self.analyze(source)
        assert not use.graphicx_declared
        assert use.includegraphics_count == 1
        assert not self.features(source).graphicx_unused


class TestTheorems:
    def count(self, source):
        return extract_theorems(source, tokenize(source))

    def test_builtin_environment(self):
        counts = self.count(
            "\\begin{theorem}a\\end{theorem}\\begin{theorem}b\\end{theorem}"
        )
        assert counts.theorem_count == 2

    def test_lemma_grade_environments(self):
        counts = self.count(
            "\\begin{lemma}x\\end{lemma}\\begin{corollary}y\\end{corollary}"
            "\\begin{proposition}z\\end{proposition}"
        )
        assert counts.theorem_count == 0
        assert counts.theorem_like_count == 3

    def test_newtheorem_binding(self):
        counts = self.count(
            "\\newtheorem{thm}{Theorem}\\begin{thm}x\\end{thm}\\begin{thm}y\\end{thm}"
        )
        assert counts.theorem_count == 2

    def test_binding_with_shared_counter(self):
        counts = self.count(
            "\\newtheorem{thm}{Theorem}\\newtheorem{lem}[thm]{Lemma}"
            "\\begin{lem}x\\end{lem}"
        )
        assert counts.theorem_like_count == 1

    def test_binding_with_within_suffix(self):
        counts = self.count(
            "\\newtheorem{thm}{Theorem}[section]\\begin{thm}x\\end{thm}"
        )
        assert counts.theorem_count == 1

    def test_starred_newtheorem(self):
        counts = self.count("\\newtheorem*{thm}{Theorem}\\begin{thm}x\\end{thm}")
        assert counts.theorem_count == 1

    def test_unrelated_title_not_bound(self):
        counts = self.count(
            "\\newtheorem{rem}{Remark}\\begin{rem}x\\end{rem}"
        )
        assert counts.theorem_count == 0
        assert counts.theorem_like_count == 0

    def test_starred_builtin(self):
        counts = self.count("\\begin{theorem*}x\\end{theorem*}")
        assert counts.theorem_count == 1

    def test_commented_environment_ignored(self):
        counts = self.count("% \\begin{theorem}x\\end{theorem}\n")
        assert counts.theorem_count == 0


class TestFigures:
    def test_figure_environments(self):
        source = "\\begin{figure}a\\end{figure}\\begin{figure*}b\\end{figure*}"
        assert count_figures(source, tokenize(source)) == 2

    def test_no_figures(self):
        source = "\\begin{table}a\\end{table}"
        assert count_figures(source, tokenize(source)) == 0


class TestAuthors:
    def authors(self, source):
        return extract_authors(source, tokenize(source))

    def test_and_separator(self):
        info = self.authors(r"\author{Ann One \and Bob Two}\maketitle")
        assert info.count == 2 and info.block_found

    def test_linebreak_separator(self):
        info = self.authors("\\author{Ann One \\\\ Bob Two \\\\ Cid Three}")
        assert info.count == 3

    def test_single_author(self):
        assert self.authors(r"\author{Ann One}").count == 1

    def test_repeated_author_blocks(self):
        source = (
            r"\author[1]{Ann}\author[2]{Bob}\author[1]{Cid}\maketitle"
        )
        info = self.authors(source)
        assert info.count == 3 and info.block_found

    def test_thanks_not_an_author(self):
        info = self.authors(r"\author{Ann One\thanks{funded by X} \and Bob}")
        assert info.count == 2

    def test_separator_with_only_affiliation_macro(self):
        info = self.authors(r"\author{Ann \\ \affil{Somewhere}}")
        assert info.count == 1

    def test_blocks_after_maketitle_ignored(self):
        info = self.authors(r"\author{Ann}\maketitle\author{Ghost}")
        assert info.count == 1

    def test_no_author(self):
        info = self.authors("no declaration here")
        assert info.count == 0 and not info.block_found

    def test_empty_author_block(self):
        info = self.authors(r"\author{}")
        assert info.count == 0 and not info.block_found

    def test_nested_braces_do_not_split(self):
        info = self.authors("\\author{Ann {One \\and Still One}}")
        assert info.count == 1


class TestWords:
    def test_command_names_count_as_words(self):
        tokens = tokenize(r"\alpha beta")
        assert collect_words(tokens) == ["alpha", "beta"]

    def test_comments_never_count(self):
        tokens = tokenize("real %ghost words\n")
        assert collect_words(tokens) == ["real"]

    def test_excluded_spans_drop_whole_invocations(self):
        source = "\\hide{secret} kept"
        tokens = tokenize(source)
        # exclusion ranges are 0-based half-open over the source
        assert collect_words(tokens, [(0, 13)]) == ["kept"]

    def test_digits_split_words(self):
        tokens = tokenize("utf8x b2b")
        assert collect_words(tokens) == ["utf", "x", "b", "b"]

    @staticmethod
    def reference_collect_words(tokens, exclude_spans=None):
        """collect_words as one alphabetic_words call per token."""
        ranges = exclude_spans or []
        words = []
        ri = 0
        for tok in tokens:
            if tok.kind not in (TokenKind.COMMAND, TokenKind.WORD):
                continue
            while ri < len(ranges) and ranges[ri][1] <= tok.start:
                ri += 1
            if ri < len(ranges):
                lo, hi = ranges[ri]
                if tok.start >= lo and tok.end <= hi:
                    continue
            words.extend(alphabetic_words(tok.value))
        return words

    # ASCII and other letters, ASCII, Arabic-Indic and superscript digits,
    # a combining acute (not a letter), letters whose case folding changes
    # their length, and \commands with letter and non-letter names.
    WORDY = st.lists(
        st.sampled_from(
            ["a", "Zq", "ö", "жи", "1", "٣", "²", "_", "'", "é",
             "ß", "İ", "ﬁ", "\\", "\\alpha", "\\é", "\\1", " ", "\n", "%",
             "{", "}"]
        ),
        max_size=40,
    ).map("".join)

    @settings(max_examples=500, deadline=None)
    @given(WORDY, st.data())
    def test_matches_per_token_reference(self, text, data):
        tokens = tokenize(text)
        assert collect_words(tokens) == self.reference_collect_words(tokens)
        bounds = data.draw(
            st.lists(st.integers(0, len(text)), unique=True, max_size=6).map(sorted)
        )
        spans = list(zip(bounds[::2], bounds[1::2]))
        assert collect_words(tokens, spans) == self.reference_collect_words(
            tokens, spans
        )

    def test_newcommand_counting(self):
        tokens = tokenize(
            "\\newcommand{\\a}{1}\\renewcommand{\\b}{2}\\newenvironment{c}{}{}"
        )
        assert count_newcommands(tokens) == 2


class TestExtractDocument:
    def test_multi_file_document(self):
        doc = SourceDocument(
            id="t/2",
            files=[
                (
                    "main.tex",
                    b"\\documentclass{article}\n"
                    b"\\usepackage{amsmath}\n"
                    b"% main comment\n"
                    b"\\begin{document}\nalpha beta \\input{extra}\n"
                    b"\\end{document}\n",
                ),
                ("extra.tex", b"gamma % extra comment\n"),
            ],
            category="math.CO",
        )
        result = extract_document(doc)
        fv = result.features
        assert fv.multi_file
        assert fv.package_names == ("amsmath",)
        assert "gamma" in result.text_words
        texts = [c.text for c in result.comments]
        assert " main comment" in texts and " extra comment" in texts
        assert fv.comment_word_count == 4

    def test_macro_comments_excluded_from_text(self):
        doc = SourceDocument(
            id="t/3",
            files=[
                (
                    "main.tex",
                    b"\\documentclass{article}\n"
                    b"\\newcommand{\\hide}[1]{}\n"
                    b"\\begin{document}\nkeep \\hide{drop these} keep\n"
                    b"\\end{document}\n",
                )
            ],
        )
        result = extract_document(doc)
        assert result.text_words.count("keep") == 2
        assert "drop" not in result.text_words
        assert "drop" in result.comment_words
        assert any(c.kind == "macro" for c in result.comments)

    def test_single_file_without_class_falls_back(self):
        doc = SourceDocument(id="t/4", files=[("raw.tex", b"plain words")])
        result = extract_document(doc)
        assert result.features.word_count == 2
        assert any(d.stage == "main-file" for d in result.diagnostics)

    def test_multi_file_without_class_raises(self):
        doc = SourceDocument(
            id="t/5", files=[("a.tex", b"one"), ("b.tex", b"two")]
        )
        with pytest.raises(NoMainFile):
            extract_document(doc)

    def test_declared_main_file_wins(self):
        doc = SourceDocument(
            id="t/6",
            files=[
                ("a.tex", b"\\documentclass{article} nope"),
                ("b.tex", b"bee words"),
            ],
            main_file="b.tex",
        )
        assert extract_document(doc).features.word_count == 2

    def test_distinct_packages_counted_once(self):
        doc = SourceDocument(
            id="t/7",
            files=[
                (
                    "main.tex",
                    b"\\documentclass{article}\\usepackage{a}\\usepackage{a}"
                    b"\\usepackage{b}",
                )
            ],
        )
        fv = extract_document(doc).features
        assert fv.package_count == 2
        assert fv.package_names == ("a", "b")


class TestBraceTable:
    SOURCE = (
        "\\usepackage[a]{b}\\newtheorem{thm}{Theorem}\\begin{thm}\\begin{figure}"
        "\\author{Ann\\thanks{x} \\and Bob}\\usepackage[open{c}\\begin{"
    )

    @pytest.mark.parametrize(
        "extract", [extract_packages, extract_theorems, count_figures, extract_authors]
    )
    def test_given_table_gives_same_result(self, extract):
        # a table built apart from the stream and handed to it reads the
        # same as the one the stream builds on first use
        given = tokenize(self.SOURCE)
        given.closers = group_closers(given.kinds)
        assert extract(self.SOURCE, given) == extract(self.SOURCE, tokenize(self.SOURCE))

    def test_one_table_per_token_stream(self, monkeypatch):
        builds = []

        def counting_group_closers(tokens):
            builds.append(len(tokens))
            return group_closers(tokens)

        monkeypatch.setattr(lexer, "group_closers", counting_group_closers)
        labels = next(d for d in golden_docs.DOCS if d["id"] == "g05-hide")
        doc = SourceDocument(id=labels["id"], files=labels["files"])
        assert extract_document(doc).comments
        assert len(builds) == 1

        # the six brace readers one at a time, as the benchmark's traced
        # replay of extract_document calls them
        builds.clear()
        source = inline_sources(doc.texts(), "main.tex")
        tokens = tokenize(source)
        extract_macro_comments(source, tokens, detect_ignore_macros(tokens))
        extract_packages(source, tokens)
        extract_theorems(source, tokens)
        extract_authors(source, tokens)
        count_figures(source, tokens)
        assert len(builds) == 1


GOLDEN_IDS = [d["id"] for d in golden_docs.DOCS]


def golden_document(doc_id):
    labels = next(d for d in golden_docs.DOCS if d["id"] == doc_id)
    return labels, SourceDocument(id=labels["id"], files=labels["files"])


class TestOneTokenization:
    @pytest.mark.parametrize("doc_id", GOLDEN_IDS)
    def test_command_index_matches_a_filter_walk(self, doc_id):
        labels, _ = golden_document(doc_id)
        tokens = tokenize(golden_docs.assembled_text(labels))
        walk = {}
        for i, tok in enumerate(tokens):
            if tok.kind is TokenKind.COMMAND:
                walk.setdefault(tok.value, []).append(i)
        assert tokens.commands == walk
        names = set(sorted(walk)[::2]) | {"absent"}
        assert tokens.command_positions(names) == [
            i
            for i, tok in enumerate(tokens)
            if tok.kind is TokenKind.COMMAND and tok.value in names
        ]

    def test_one_tokenize_per_document_none_in_inlining(self, monkeypatch):
        calls = []

        def counting_tokenize(source):
            calls.append(source)
            return tokenize(source)

        def no_token(*args):
            raise AssertionError("inline_sources built a Token")

        monkeypatch.setattr(lexer, "tokenize", counting_tokenize)
        monkeypatch.setattr(features, "tokenize", counting_tokenize)
        docs = [golden_document(doc_id)[1] for doc_id in GOLDEN_IDS]
        multi = [doc for doc in docs if doc.multi_file]
        assert multi
        with monkeypatch.context() as patch:
            patch.setattr(lexer, "Token", no_token)
            for doc in multi:
                inline_sources(doc.texts(), lexer.detect_main_file(doc.files))
        assert calls == []

        for doc in docs:
            extract_document(doc)
        assert len(calls) == len(docs)

    def test_extraction_reads_the_columns_and_builds_no_token(self, monkeypatch):
        def no_token(*args):
            raise AssertionError("extract_document built a Token")

        monkeypatch.setattr(lexer, "Token", no_token)
        for doc_id in GOLDEN_IDS:
            labels, doc = golden_document(doc_id)
            assert extract_document(doc).features.doc_id == labels["id"]


def walk_closers(tokens):
    """The brace table by one walk over the Token views."""
    closers = [-1] * len(tokens)
    groups, options = [], []
    for i, tok in enumerate(tokens):
        if tok.kind is TokenKind.GROUP_OPEN:
            groups.append(i)
        elif tok.kind is TokenKind.GROUP_CLOSE:
            if groups:
                closers[groups.pop()] = i
        elif tok.kind is TokenKind.OPT_OPEN:
            options.append(i)
        elif tok.kind is TokenKind.OPT_CLOSE:
            for j in options:
                closers[j] = i
            options.clear()
    return closers


def value_from_span(source, tok):
    """A token's value cut from its span of the source."""
    text = source[tok.start : tok.end]
    if tok.kind is TokenKind.COMMAND:
        return text[1:]
    if tok.kind is TokenKind.LINE_COMMENT:
        return text[1:].removesuffix("\n")
    return text


# \verb and verbatim regions, a % or { opening a verbatim run, a backslash
# that may end the text, non-ASCII whitespace, letters and digits; half of
# the pieces are brackets, so groups nest and options close more than once
CODED = st.lists(
    st.sampled_from(
        ["\\verb|", "\\verb*+", "|", "+", "\\verb|%x|", "\\verb|{",
         "\\begin{verbatim}", "\\begin{verbatim}%", "\\begin{verbatim}{",
         "\\end{verbatim}", "\\", "\\\\", "\\%", "%", "$", "#", "_", "*", " ",
         "\n", "\u00a0", "\u2028", "\x1c", "\u00e9", "\u0436", "\u0663", "\u00b2",
         "a", "Zq", "1", "\\alpha", "\\hide"]
    )
    | st.sampled_from("{}[]"),
    max_size=40,
).map("".join)


class TestCodeStringAgainstViews:
    """Each structure read off the kind codes equals a walk over the Token
    views, which map every code back to its TokenKind; the views' kinds
    are those of the loop tokenizer."""

    @settings(max_examples=1000, deadline=None)
    @given(CODED, st.data())
    def test_structures_match_a_walk(self, source, data):
        tokens = tokenize(source)
        views = list(tokens)
        assert isinstance(tokens.kinds, str) and len(tokens.kinds) == len(views)
        assert [tok.kind for tok in views] == [kind for kind, *_ in loop_tokenize(source)]
        assert tokens.values == [value_from_span(source, tok) for tok in views]
        assert tokens.closers == walk_closers(views)
        walk = {}
        for i, tok in enumerate(views):
            if tok.kind is TokenKind.COMMAND:
                walk.setdefault(tok.value, []).append(i)
        assert tokens.commands == walk
        assert extract_line_comments(source, tokens) == [
            CommentSpan(
                kind="line", start=tok.start + 1, end=tok.start + 1 + len(tok.value),
                text=tok.value,
            )
            for tok in views
            if tok.kind is TokenKind.LINE_COMMENT
        ]
        reference = TestWords.reference_collect_words
        assert collect_words(tokens) == reference(views)
        bounds = data.draw(
            st.lists(st.integers(0, len(source)), unique=True, max_size=6).map(sorted)
        )
        spans = list(zip(bounds[::2], bounds[1::2]))
        assert collect_words(tokens, spans) == reference(views, spans)


class TestLinearTime:
    """An unclosed group must not make extraction rescan to the end of
    input, nor a verbatim region or its opener make tokenizing rescan."""

    SHAPES = {
        "no-op macro": ("\\newcommand{\\hide}[1]{}\n", "\\hide{ x\n"),
        "begin": ("", "\\begin{ x\n"),
        "newtheorem": ("", "\\newtheorem{ x\n"),
        "usepackage options": ("", "\\usepackage[ x\n"),
    }
    TOKENIZE_SHAPES = {
        "verb": ("", "\\verb|x| "),
        "unclosed verb": ("", "\\verb|x\n"),
        "verbatim": ("", "\\begin{verbatim}x\\end{verbatim}"),
        "commented verbatim": ("", "%\\begin{verbatim}\n"),
        "unclosed verbatim": ("\\begin{verbatim}\n", "x %y \\verb|z\n"),
    }

    @staticmethod
    def best_cpu_times(run, inputs):
        """The least CPU time of run on each input.

        CPU time, not wall time, so that time other processes hold the CPU
        is not counted; the inputs take turns, so that a quiet or a busy
        spell of the machine falls on all of them alike.
        """
        best = [float("inf")] * len(inputs)
        for _ in range(15):
            for k, given in enumerate(inputs):
                start = time.process_time()
                run(given)
                best[k] = min(best[k], time.process_time() - start)
        return best

    @classmethod
    def best_times(cls, sources):
        """The least CPU time of extract_document on each source."""
        docs = [
            SourceDocument(id="t/scale", files=[("main.tex", source.encode())])
            for source in sources
        ]
        return cls.best_cpu_times(extract_document, docs)

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_four_times_the_input_takes_at_most_eight_times_as_long(self, shape):
        # linear code measures about 4x; one rescan per opener, about 15x
        head, unclosed = self.SHAPES[shape]
        small, large = self.best_times(
            "\\documentclass{article}\n" + head + unclosed * repeats
            for repeats in (500, 2000)
        )
        assert large / small <= 8, f"{shape}: {large / small:.1f}x"

    @pytest.mark.parametrize("shape", sorted(TOKENIZE_SHAPES))
    def test_tokenize_four_times_the_input_at_most_eight_times_as_long(self, shape):
        head, repeated = self.TOKENIZE_SHAPES[shape]
        small, large = self.best_cpu_times(
            tokenize,
            ["\\documentclass{article}\n" + head + repeated * repeats
             for repeats in (500, 2000)],
        )
        assert large / small <= 8, f"{shape}: {large / small:.1f}x"
