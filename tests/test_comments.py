"""Comment extraction: the formal oracle model and both syntactic methods."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from texcorpus.comments import (
    CommentSpan,
    IndexOutOfRange,
    NormalizingOracle,
    OracleBudgetExceeded,
    OverlappingMaximalComments,
    comment_words,
    detect_ignore_macros,
    extract_line_comments,
    extract_macro_comments,
    is_comment,
    is_maximal_comment,
    partition_maximal_comments,
    reference_oracle,
    semantic_comments,
    strip_line_comments,
)
from texcorpus.errors import Diagnostic
from texcorpus.lexer import tokenize

COMMENTISH = st.text(alphabet="ab%\n ", max_size=12)


def loop_strip_line_comments(text):
    """The per-character loop strip_line_comments used to be: the
    reference its regex is checked against."""
    out = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\\" and i + 1 < n:
            out.append(text[i : i + 2])
            i += 2
        elif c == "%":
            stop = text.find("\n", i)
            if stop == -1:
                i = n
            else:
                i = stop
        else:
            out.append(c)
            i += 1
    return "".join(out)


def brute_force_maximal(s, oracle):
    """Maximal comments straight from the definition, one oracle per check."""
    n = len(s)
    found = []
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            if is_maximal_comment(s, i, j, oracle):
                found.append((i, j))
    return found


class TestReferenceOracle:
    def test_strip_removes_comment_keeps_newline(self):
        assert strip_line_comments("a %x\nb") == "a \nb"

    def test_strip_honors_escapes(self):
        assert strip_line_comments(r"100\% sure") == r"100\% sure"
        assert strip_line_comments("\\\\% gone\nx") == "\\\\\nx"

    def test_unterminated_comment_stripped_to_end(self):
        assert strip_line_comments("a%xyz") == "a"

    @settings(max_examples=500)
    @given(st.text(alphabet="a \\%\n\t{é", max_size=60))
    def test_strip_matches_character_loop(self, text):
        assert strip_line_comments(text) == loop_strip_line_comments(text)

    def test_equivalence_collapses_whitespace(self):
        oracle = reference_oracle()
        assert oracle.equivalent("a  b", "a b")
        assert oracle.equivalent("a\t\nb", "a b")
        assert not oracle.equivalent("ab", "a b")

    def test_reused_oracle_normalizes_each_first_string(self):
        oracle = reference_oracle()
        assert oracle.equivalent("a%x\nb", "a\nb")
        assert not oracle.equivalent("ab", "a\nb")
        assert oracle.equivalent("a%x\nb", "a b")
        assert oracle.calls == 3

    def test_one_oracle_partitions_two_strings(self):
        shared = reference_oracle()
        for s in ("%x\n%y", "a%b\ncd"):
            fresh = partition_maximal_comments(s, reference_oracle())
            assert partition_maximal_comments(s, shared) == fresh
        assert shared.calls == 15 + 21

    def test_call_counting(self):
        oracle = reference_oracle()
        oracle.equivalent("a", "a")
        oracle.equivalent("a", "b")
        assert oracle.calls == 2


class TestIsComment:
    def test_simple_comment(self):
        oracle = reference_oracle()
        assert is_comment("a%b\nc", 2, 3, oracle)

    def test_not_a_comment(self):
        oracle = reference_oracle()
        assert not is_comment("abc", 2, 2, oracle)

    def test_whole_string(self):
        oracle = reference_oracle()
        assert is_comment("%gone", 1, 5, oracle)

    @pytest.mark.parametrize("i,j", [(0, 1), (1, 0), (3, 2), (1, 6), (6, 6)])
    def test_bad_indices_raise(self, i, j):
        oracle = reference_oracle()
        with pytest.raises(IndexOutOfRange):
            is_comment("abcde", i, j, oracle)

    def test_empty_string_has_no_valid_span(self):
        with pytest.raises(IndexOutOfRange):
            is_comment("", 1, 1, reference_oracle())


class TestIsMaximal:
    def test_full_comment_body_is_maximal(self):
        oracle = reference_oracle()
        assert is_maximal_comment("a%b\nc", 2, 3, oracle)

    def test_partial_comment_body_is_not(self):
        # "bc" deletes cleanly but extends left to "%bc", so not maximal
        oracle = reference_oracle()
        assert is_comment("a%bc\nd", 3, 4, oracle)
        assert not is_maximal_comment("a%bc\nd", 3, 4, oracle)

    def test_boundary_counts_as_unextendable(self):
        oracle = reference_oracle()
        assert is_maximal_comment("%x", 1, 2, oracle)

    def test_non_comment_is_never_maximal(self):
        oracle = reference_oracle()
        assert not is_maximal_comment("abc", 1, 1, oracle)


class TestPartition:
    def test_two_comment_lines(self):
        spans = partition_maximal_comments("%x\n%y", reference_oracle())
        assert spans == [(1, 2), (4, 5)]

    def test_no_comments(self):
        assert partition_maximal_comments("ab", reference_oracle()) == []

    def test_empty_string(self):
        assert partition_maximal_comments("", reference_oracle()) == []

    def test_overlap_detected(self):
        # both the lone space and " %hidden" delete cleanly and are maximal
        with pytest.raises(OverlappingMaximalComments):
            partition_maximal_comments("a %x\nb", reference_oracle())

    def test_budget_enforced(self):
        oracle = reference_oracle()
        with pytest.raises(OracleBudgetExceeded):
            partition_maximal_comments("%abcdef", oracle, max_calls=3)
        # nothing was spent once the budget check failed
        assert oracle.calls == 0

    def test_budget_counts_prior_calls_on_shared_oracle(self):
        oracle = reference_oracle()
        for _ in range(8):
            oracle.equivalent("a", "a")
        with pytest.raises(OracleBudgetExceeded):
            partition_maximal_comments("%abc", oracle, max_calls=17)

    def test_exactly_matrix_many_calls(self):
        # maximality must come from the comment matrix, not extra queries
        s = "a%b\ncd"
        oracle = reference_oracle()
        partition_maximal_comments(s, oracle)
        n = len(s)
        assert oracle.calls == n * (n + 1) // 2

    def test_default_budget_is_ten_n_squared(self):
        s = "ab%c"
        oracle = reference_oracle()
        for _ in range(10 * len(s) ** 2 - len(s) * (len(s) + 1) // 2):
            oracle.equivalent("x", "x")
        # exactly enough budget left
        partition_maximal_comments(s, oracle)

    @given(COMMENTISH)
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force(self, s):
        expected = brute_force_maximal(s, reference_oracle())
        overlapping = any(
            b_start <= a_end
            for (_, a_end), (b_start, _) in zip(expected, expected[1:])
        )
        if overlapping:
            with pytest.raises(OverlappingMaximalComments):
                partition_maximal_comments(s, reference_oracle())
        else:
            got = partition_maximal_comments(s, reference_oracle())
            assert got == expected

    @given(COMMENTISH)
    @settings(max_examples=100, deadline=None)
    def test_partition_spans_are_disjoint_and_increasing(self, s):
        try:
            spans = partition_maximal_comments(s, reference_oracle())
        except OverlappingMaximalComments:
            return
        for (i1, j1), (i2, j2) in zip(spans, spans[1:]):
            assert j1 < i2
        for i, j in spans:
            assert 1 <= i <= j <= len(s)
            assert is_maximal_comment(s, i, j, reference_oracle())


class TestSemanticSpans:
    def test_span_record(self):
        spans = semantic_comments("a%hidden\nb")
        assert spans == [
            CommentSpan(kind="semantic", start=2, end=8, text="%hidden")
        ]

    def test_custom_oracle(self):
        # an oracle blind to the letter b makes every b-run a comment
        oracle = NormalizingOracle(lambda s: s.replace("b", ""))
        spans = semantic_comments("abba", oracle=oracle)
        assert [(s.start, s.end) for s in spans] == [(2, 3)]


class TestLineComments:
    def test_spans_are_one_based_inclusive(self):
        source = "x %note\ny"
        spans = extract_line_comments(source, tokenize(source))
        assert spans == [CommentSpan(kind="line", start=3, end=7, text="note")]
        assert source[2:7] == "%note"

    def test_bare_comment_sign(self):
        source = "%\nx"
        spans = extract_line_comments(source, tokenize(source))
        assert spans[0].start == 1 and spans[0].end == 1
        assert spans[0].text == ""

    def test_escaped_percent_yields_nothing(self):
        source = r"50\% of cases"
        assert extract_line_comments(source, tokenize(source)) == []

    def test_verbatim_percent_yields_nothing(self):
        source = "\\begin{verbatim}%x\\end{verbatim}"
        assert extract_line_comments(source, tokenize(source)) == []

    def test_comment_words_order(self):
        spans = [CommentSpan(kind="line", start=1, end=3, text="B a")]
        assert comment_words(spans) == ["b", "a"]


class TestIgnoreMacroDetection:
    def test_braced_newcommand(self):
        tokens = tokenize(r"\newcommand{\hide}[1]{}")
        assert detect_ignore_macros(tokens) == {"hide"}

    def test_bare_newcommand(self):
        tokens = tokenize(r"\newcommand\hide[1]{}")
        assert detect_ignore_macros(tokens) == {"hide"}

    def test_starred_newcommand(self):
        tokens = tokenize(r"\newcommand*{\hide}[1]{}")
        assert detect_ignore_macros(tokens) == {"hide"}

    def test_def_form(self):
        tokens = tokenize(r"\def\ignore#1{}")
        assert detect_ignore_macros(tokens) == {"ignore"}

    def test_whitespace_and_comments_between_parts(self):
        tokens = tokenize("\\newcommand {\\hide} % why\n [1] {}")
        assert detect_ignore_macros(tokens) == {"hide"}

    def test_nonempty_body_not_detected(self):
        tokens = tokenize(r"\newcommand{\emph2}[1]{\textit{#1}}")
        assert detect_ignore_macros(tokens) == set()

    def test_body_with_only_a_comment_counts_as_empty(self):
        tokens = tokenize("\\newcommand{\\hide}[1]{% empty\n}")
        assert detect_ignore_macros(tokens) == {"hide"}

    def test_wrong_arity_not_detected(self):
        for form in (
            r"\newcommand{\x}{}",
            r"\newcommand{\x}[2]{}",
            r"\def\x#1#2{}",
            r"\def\x{}",
        ):
            assert detect_ignore_macros(tokenize(form)) == set(), form

    def test_optional_default_not_detected(self):
        tokens = tokenize(r"\newcommand{\x}[1][default]{}")
        assert detect_ignore_macros(tokens) == set()

    def test_newcommand_keeps_first_definition(self):
        tokens = tokenize("\\newcommand{\\x}[1]{#1}\n\\newcommand{\\x}[1]{}")
        assert detect_ignore_macros(tokens) == set()

    def test_renewcommand_overrides(self):
        tokens = tokenize("\\newcommand{\\x}[1]{#1}\n\\renewcommand{\\x}[1]{}")
        assert detect_ignore_macros(tokens) == {"x"}

    def test_renewcommand_can_remove(self):
        tokens = tokenize("\\newcommand{\\x}[1]{}\n\\renewcommand{\\x}[1]{#1}")
        assert detect_ignore_macros(tokens) == set()


class TestMacroComments:
    def source_spans(self, source, **kwargs):
        tokens = tokenize(source)
        return extract_macro_comments(source, tokens, **kwargs)

    def test_basic_invocation(self):
        source = "\\newcommand{\\hide}[1]{}\nbefore \\hide{secret words} after"
        spans = self.source_spans(source)
        assert len(spans) == 1
        span = spans[0]
        assert span.kind == "macro"
        assert span.macro == "hide"
        assert span.text == "secret words"
        assert source[span.start - 1 : span.end] == "\\hide{secret words}"

    def test_nested_braces_in_argument(self):
        source = "\\newcommand{\\hide}[1]{}\n\\hide{a {b c} d}"
        spans = self.source_spans(source)
        assert spans[0].text == "a {b c} d"

    def test_invocations_do_not_nest(self):
        source = "\\newcommand{\\hide}[1]{}\n\\hide{x \\hide{y} z}"
        spans = self.source_spans(source)
        assert len(spans) == 1
        assert spans[0].text == "x \\hide{y} z"

    def test_unbalanced_argument_skipped_with_diagnostic(self):
        source = "\\newcommand{\\hide}[1]{}\n\\hide{never closes"
        diagnostics: list[Diagnostic] = []
        spans = self.source_spans(source, diagnostics=diagnostics)
        assert spans == []
        assert len(diagnostics) == 1
        assert "unbalanced" in diagnostics[0].message

    def test_bare_invocation_without_braces_skipped(self):
        source = "\\newcommand{\\hide}[1]{}\n\\hide x"
        assert self.source_spans(source) == []

    def test_explicit_macro_set(self):
        source = "\\note{aside} \\other{kept}"
        spans = self.source_spans(source, ignore_macros={"note"})
        assert [s.macro for s in spans] == ["note"]

    def test_no_macros_no_scan(self):
        assert self.source_spans("plain text") == []

