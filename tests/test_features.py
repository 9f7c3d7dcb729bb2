"""Structure extraction: inlining, packages, graphics, theorems, authors,
word counting and the assembled feature vector."""

import time

import pytest

from texcorpus import features
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
from texcorpus.lexer import NoMainFile, SourceDocument, group_closers, tokenize


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
        uses = self.extract(r"\usepackage{amsmath}")
        assert [u.name for u in uses] == ["amsmath"]
        assert uses[0].options == ()

    def test_comma_list_shares_options(self):
        uses = self.extract(r"\usepackage[draft, final]{foo, bar}")
        assert [(u.name, u.options) for u in uses] == [
            ("foo", ("draft", "final")),
            ("bar", ("draft", "final")),
        ]

    def test_requirepackage(self):
        uses = self.extract(r"\RequirePackage{snapshot}")
        assert [u.name for u in uses] == ["snapshot"]

    def test_duplicates_preserved_in_order(self):
        uses = self.extract("\\usepackage{a}\n\\usepackage{b}\n\\usepackage{a}")
        assert [u.name for u in uses] == ["a", "b", "a"]

    def test_commented_declaration_ignored(self):
        uses = self.extract("% \\usepackage{ghost}\n\\usepackage{real}")
        assert [u.name for u in uses] == ["real"]

    def test_declaration_offset_recorded(self):
        source = "x \\usepackage{a}"
        assert self.extract(source)[0].declared_at == 2

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
        tokens = tokenize(self.SOURCE)
        given = extract(self.SOURCE, tokens, closers=group_closers(tokens))
        assert given == extract(self.SOURCE, tokens)


class TestLinearTime:
    """An unclosed group must not make extraction rescan to the end of input."""

    SHAPES = {
        "no-op macro": ("\\newcommand{\\hide}[1]{}\n", "\\hide{ x\n"),
        "begin": ("", "\\begin{ x\n"),
        "newtheorem": ("", "\\newtheorem{ x\n"),
        "usepackage options": ("", "\\usepackage[ x\n"),
    }

    @staticmethod
    def best_time(source):
        doc = SourceDocument(id="t/scale", files=[("main.tex", source.encode())])
        times = []
        for _ in range(5):
            start = time.perf_counter()
            extract_document(doc)
            times.append(time.perf_counter() - start)
        return min(times)

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_four_times_the_input_takes_at_most_eight_times_as_long(self, shape):
        # linear code measures about 4x; one rescan per opener, about 15x
        head, unclosed = self.SHAPES[shape]
        small, large = (
            self.best_time("\\documentclass{article}\n" + head + unclosed * repeats)
            for repeats in (500, 2000)
        )
        assert large / small <= 8, f"{shape}: {large / small:.1f}x"
