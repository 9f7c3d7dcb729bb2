"""Comment extraction: the formal oracle model and both syntactic methods."""

import re
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_lexer import token_tuples
from texcorpus.comments import (
    CommentSpan,
    IndexOutOfRange,
    NormalizingOracle,
    OracleBudgetExceeded,
    OverlappingMaximalComments,
    _delete,
    _normalize_tex,
    _one_argument_definition,
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
from texcorpus.lexer import (
    COMMAND,
    GROUP_CLOSE,
    GROUP_OPEN,
    LINE_COMMENT,
    OPT_CLOSE,
    OPT_OPEN,
    OTHER,
    WHITESPACE,
    WORD,
    tokenize,
)

COMMENTISH = st.text(alphabet="ab%\n ", max_size=12)
# what the reference normalizer treats specially: comment and escape
# characters, the newline that ends a comment, ASCII and Unicode
# whitespace; and letters and braces, which it keeps as they are
ORACLE_TEXT = st.text(alphabet="%\\\n\r\t \x85\u3000ab{}", max_size=30)
# ASCII, C1 and Unicode whitespace, the zero-width space (not whitespace),
# comment and escape characters, letters and NUL
WHITESPACE_TEX = st.text(
    alphabet=" \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u2028\u3000\u200b%\\ab\x00",
    max_size=40,
)


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


def partition_or_overlap(s, oracle):
    """The maximal comments, or the overlapping pair the partition raised on."""
    try:
        return partition_maximal_comments(s, oracle)
    except OverlappingMaximalComments as exc:
        return exc.first, exc.second


class RecordingOracle(NormalizingOracle):
    """The reference oracle, keeping every (first, second) pair it is asked."""

    def __init__(self):
        super().__init__(_normalize_tex)
        self.queries = []

    def equivalent(self, first, second):
        self.queries.append((first, second))
        return super().equivalent(first, second)


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

    @settings(max_examples=1000)
    @given(WHITESPACE_TEX)
    def test_normalize_matches_regex_collapse(self, text):
        assert _normalize_tex(text) == re.sub(r"\s+", " ", strip_line_comments(text))

    @settings(max_examples=1000)
    @given(WHITESPACE_TEX)
    def test_normalize_never_lengthens(self, text):
        # the reference oracle's length check rests on this
        assert len(_normalize_tex(text)) <= len(text)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(WHITESPACE_TEX, min_size=1, max_size=3), st.data())
    def test_oracle_answers_as_normal_forms_compare(self, firsts, data):
        oracle = reference_oracle()
        queries = 0
        for s in firsts:
            spans = data.draw(
                st.lists(
                    st.tuples(
                        st.integers(1, max(1, len(s))), st.integers(0, len(s))
                    ),
                    max_size=20,
                )
            )
            for i, j in spans:
                d = s[: i - 1] + s[max(i - 1, j) :]
                assert oracle.equivalent(s, d) == (
                    _normalize_tex(s) == _normalize_tex(d)
                )
                queries += 1
            assert oracle.calls == queries

    def test_custom_normalize_sees_every_query(self):
        # a normalization that expands a macro lengthens its input, so a
        # NormalizingOracle given one must not reject by length
        seen = []

        def expand(text):
            seen.append(text)
            return text.replace("\\x", "xxxx")

        oracle = NormalizingOracle(expand)
        assert oracle.equivalent("axxxx", "a\\x")
        assert seen == ["axxxx", "a\\x"]

    def test_split_and_regex_agree_on_whitespace(self):
        # _normalize_tex relies on str.split() and str.isspace() splitting on
        # exactly the characters \s matches in a str pattern
        every = "".join(
            chr(c) for c in range(sys.maxunicode + 1) if not 0xD800 <= c <= 0xDFFF
        )
        spaces = [c for c in every if c.isspace()]
        assert re.findall(r"\s", every) == spaces
        assert "".join(every.split()) == "".join(re.split(r"\s", every))

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

    def test_no_default_budget_on_shared_oracle(self):
        # the 406 calls spent on the long string exceed 10 * n**2 for the
        # short one, which must not count against it
        shared = reference_oracle()
        partition_maximal_comments("a%first line\nb%second line\nc", shared)
        short = "a%b\nc"
        fresh = partition_maximal_comments(short, reference_oracle())
        assert partition_maximal_comments(short, shared) == fresh == [(2, 3)]
        assert shared.calls == 406 + 15

    def test_reference_oracle_normalizes_only_the_input_and_counts_every_deletion(
        self, monkeypatch
    ):
        normalized = []

        def counting(text):
            normalized.append(text)
            return _normalize_tex(text)

        monkeypatch.setattr("texcorpus.comments._normalize_tex", counting)
        s = "a%first line\nb%second  line\n\tc"
        n = len(s)
        oracle = reference_oracle()
        spans = partition_maximal_comments(s, oracle)
        # the maximal pairs at once normalize no deletion, only s
        assert normalized == [s]
        assert spans == partition_maximal_comments(s, NormalizingOracle(_normalize_tex))
        assert oracle.calls == n * (n + 1) // 2

    @given(COMMENTISH)
    @settings(max_examples=100, deadline=None)
    def test_queries_every_deletion_once_in_row_major_order(self, s):
        oracle = RecordingOracle()
        try:
            partition_maximal_comments(s, oracle)
        except OverlappingMaximalComments:
            pass
        n = len(s)
        assert oracle.queries == [
            (s, _delete(s, i, j)) for i in range(1, n + 1) for j in range(i, n + 1)
        ]

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

    def test_reference_oracle_matrix_grows_linearly(self):
        # four times the length: linear code measures about 4x; reading the
        # maximal comments off all comment pairs, about n^2/2 of them in all
        # but the first shape, measured 19x to 35x from n = 200 to 800
        shapes = {
            "text and comments": lambda n: ("one%two\n\\%three four{x}\n" * n)[:n],
            "one long comment": lambda n: "a%" + "x" * (n - 4) + "\nb",
            "comment lines": lambda n: ("%xy\n" * n)[:n],
            "blank and comment lines": lambda n: ("  % c\n" * n)[:n],
            "one long blank run": lambda n: "a" + " " * (n - 2) + "b",
        }
        strings = [make(n) for make in shapes.values() for n in (200, 800)]
        # least CPU time of each, taking turns so the machine's busy spells
        # fall on all alike
        best = [float("inf")] * len(strings)
        for _ in range(15):
            for k, s in enumerate(strings):
                start = time.process_time()
                partition_or_overlap(s, reference_oracle())
                best[k] = min(best[k], time.process_time() - start)
        growth = {
            name: round(best[2 * k + 1] / best[2 * k], 1)
            for k, name in enumerate(shapes)
        }
        assert max(growth.values()) <= 10, growth


class TestCommentPairs:
    """The reference oracle's maximal pairs against the per-query loop they
    replace, and the call contract it keeps."""

    @settings(max_examples=500, deadline=None)
    @given(ORACLE_TEXT)
    def test_reference_matches_the_per_query_loop(self, s):
        loop = NormalizingOracle(_normalize_tex)
        fast = reference_oracle()
        assert fast.maximal_pairs(s) == loop.maximal_pairs(s)
        assert fast.calls == loop.calls == len(s) * (len(s) + 1) // 2
        assert partition_or_overlap(s, reference_oracle()) == partition_or_overlap(
            s, NormalizingOracle(_normalize_tex)
        )

    @staticmethod
    def used_oracle():
        oracle = reference_oracle()
        for second in ("a", "b", "a b"):
            oracle.equivalent("a", second)
        return oracle

    def test_shared_oracle_counts_the_matrix_of_a_partition(self):
        s = "a%x\nb%y\nc"
        oracle = self.used_oracle()
        spans = partition_maximal_comments(s, oracle)
        assert spans == partition_maximal_comments(s, NormalizingOracle(_normalize_tex))
        n = len(s)
        assert oracle.calls == 3 + n * (n + 1) // 2

    def test_shared_oracle_counts_the_matrix_of_an_overlap(self):
        s = "a %x\nb"
        oracle = self.used_oracle()
        with pytest.raises(OverlappingMaximalComments):
            partition_maximal_comments(s, oracle)
        n = len(s)
        assert oracle.calls == 3 + n * (n + 1) // 2

    def test_budget_of_exactly_the_need_passes(self):
        s = "a%x\nb"
        need = len(s) * (len(s) + 1) // 2
        oracle = self.used_oracle()
        spans = partition_maximal_comments(s, oracle, max_calls=3 + need)
        assert spans == [(2, 3)]
        assert oracle.calls == 3 + need

    def test_budget_one_below_the_need_spends_nothing(self):
        s = "a%x\nb"
        need = len(s) * (len(s) + 1) // 2
        oracle = self.used_oracle()
        with pytest.raises(OracleBudgetExceeded):
            partition_maximal_comments(s, oracle, max_calls=3 + need - 1)
        assert oracle.calls == 3


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

    def test_def_rebinds_a_newcommand(self):
        tokens = tokenize("\\newcommand{\\x}[1]{}\n\\def\\x#1{#1}")
        assert detect_ignore_macros(tokens) == set()

    def test_newcommand_does_not_rebind_a_def(self):
        tokens = tokenize("\\def\\x#1{}\n\\newcommand{\\x}[1]{#1}")
        assert detect_ignore_macros(tokens) == {"x"}


def walk_one_argument_definition(views, i):
    """_one_argument_definition by a walk over (kind, value, start, end)
    tokens, one token at a time."""
    n = len(views)
    skippable = (WHITESPACE, LINE_COMMENT)

    def significant(k):
        while k < n and views[k][0] in skippable:
            k += 1
        return k

    def at(k, kind, value=None):
        return k < n and views[k][0] == kind and value in (None, views[k][1])

    k = significant(i + 1)
    if views[i][1] == "def":
        if not at(k, COMMAND):
            return None
        name = views[k][1]
        k = significant(k + 1)
        if not (at(k, OTHER, "#") and at(k + 1, WORD, "1")):
            return None
        k = significant(k + 2)
    else:
        if at(k, OTHER, "*"):
            k = significant(k + 1)
        if at(k, GROUP_OPEN):
            k = significant(k + 1)
            if not at(k, COMMAND):
                return None
            name = views[k][1]
            k = significant(k + 1)
            if not at(k, GROUP_CLOSE):
                return None
        elif at(k, COMMAND):
            name = views[k][1]
        else:
            return None
        for kind, value in ((OPT_OPEN, None), (WORD, "1"), (OPT_CLOSE, None)):
            k = significant(k + 1)
            if not at(k, kind, value):
                return None
        k = significant(k + 1)
    if not at(k, GROUP_OPEN):
        return None
    depth = 0
    for close in range(k, n):
        depth += {GROUP_OPEN: 1, GROUP_CLOSE: -1}.get(views[close][0], 0)
        if depth == 0:
            empty = all(views[j][0] in skippable for j in range(k + 1, close))
            return name, empty, close + 1
    return name, False, n


SKIP = st.sampled_from(["", " ", "\n", "%c\n"])
NEWCOMMAND = st.tuples(
    st.sampled_from(["\\newcommand", "\\renewcommand"]), SKIP,
    st.sampled_from(["", "*", "+"]), SKIP,
    st.sampled_from(["{\\x}", "\\x", "{ \\x }", "{\\x", "x", "{\\x a}"]), SKIP,
    st.sampled_from(["[1]", "[ 1 ]", "[%c\n1]", "[2]", "[11]", "[1", ""]), SKIP,
    st.sampled_from(["", "[d]"]), SKIP,
    st.sampled_from(["{}", "{ }", "{%c\n}", "{a}", "{{}}", "{", "}"]),
).map("".join)
DEF = st.tuples(
    st.just("\\def"), SKIP, st.sampled_from(["\\x", "x"]), SKIP,
    st.sampled_from(["#1", "# 1", "#2", "#", "+1"]), SKIP, st.sampled_from(["{}", "{a}", "{"]),
).map("".join)
# definitions, whole and broken, between uses, stray braces and \verb
DEFINITIONS = st.lists(
    NEWCOMMAND | DEF | st.sampled_from(["\\x{a}", "{", "}", " ", "a", "\\verb|", "|"]),
    max_size=5,
).map("".join)


class TestDefinitionTails:
    @given(DEFINITIONS)
    @settings(max_examples=1000, deadline=None)
    def test_match_a_walk_over_the_token_views(self, source):
        tokens = tokenize(source)
        views = token_tuples(source)
        for i in tokens.command_positions(("newcommand", "renewcommand", "def")):
            assert _one_argument_definition(tokens, i) == walk_one_argument_definition(
                views, i
            )


class TestMacroComments:
    def source_spans(self, source, ignore_macros=None, diagnostics=None):
        tokens = tokenize(source)
        if ignore_macros is None:
            ignore_macros = detect_ignore_macros(tokens)
        return extract_macro_comments(source, tokens, ignore_macros, diagnostics)

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

