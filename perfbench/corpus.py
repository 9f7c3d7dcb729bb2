"""Seeded inputs for the benchmark: TeX documents, their payloads, and oracle strings.

Everything here is self-contained on purpose. The templates are not shared
with the package's tests or with ``texcorpus.synth``, so editing either can
never shift the benchmark's inputs. The same (workload, seed) pair always
yields byte-identical documents, payloads and feed pages.

Every document carries the counts that were planted in it (packages,
figures, theorems, ``\\newcommand``s, line comments, no-op macro spans,
authors, multi-file, category). The benchmark checks each extracted
features record against them.
"""

from __future__ import annotations

import gzip
import io
import random
import re
import tarfile
from dataclasses import dataclass, field
from datetime import date
from xml.sax.saxutils import escape

CATEGORIES = ("cs.AI", "math.CO")
WORKLOADS = ("papers", "hostile")
PAGE_SIZE = 100

# Lengths of the oracle strings. Fixed, so the oracle-call count of a run is
# the same for every seed; only the characters change. The time of one
# string still depends on its characters, so each string is the median of
# ORACLE_DRAFTS drafts by the text its oracle walks, and the short strings
# of papers come four to a length; together these keep the time of a whole
# set nearly the same from seed to seed.
ORACLE_LENGTHS = {
    "papers": (40,) * 4 + (60,) * 4 + (80,) * 4,
    "hostile": (40, 80, 120, 160, 200),
}
ORACLE_DRAFTS = 9

_FIRST = (
    "Ann", "Bo", "Carla", "Dmitri", "Eva", "Farid", "Grace", "Hiro", "Ines",
    "Jonas", "Kemal", "Lena", "Marco", "Nadia", "Omar", "Priya", "Quinn",
    "Rosa", "Sven", "Tara", "Umar", "Vera", "Wen", "Yusuf", "Zoe",
)
_LAST = (
    "Abbott", "Brandt", "Chen", "Duarte", "Eriksen", "Fischer", "Garcia",
    "Haddad", "Ito", "Jansen", "Kowalski", "Larsen", "Moreau", "Novak",
    "Okafor", "Petrov", "Quiroga", "Rossi", "Sato", "Tanaka", "Ueda",
    "Varga", "Weber", "Xu", "Young", "Zhang",
)
_SHARED_WORDS = (
    "the", "of", "we", "show", "that", "result", "paper", "section", "case",
    "number", "following", "given", "new", "method", "approach", "problem",
    "general", "simple", "known", "first", "second", "main", "several",
    "using", "which", "where", "under", "bound", "example", "recent", "work",
    "prove", "study", "present", "consider", "describe", "each", "every",
)
_TOPIC_WORDS = {
    "cs.AI": (
        "agent", "learning", "policy", "reward", "search", "planning",
        "inference", "network", "neural", "belief", "heuristic", "ontology",
        "reasoning", "classifier", "training", "robot", "dataset", "feature",
        "probabilistic", "knowledge", "logic", "constraint", "solver",
        "reinforcement", "bayesian", "markov", "decision", "uncertainty",
        "semantic", "language", "vision", "perception", "memory", "attention",
        "benchmark", "accuracy", "prediction", "optimization", "gradient",
    ),
    "math.CO": (
        "graph", "vertex", "edge", "chromatic", "matroid", "partition",
        "permutation", "lattice", "bijection", "polynomial", "tableau",
        "hypergraph", "coloring", "tree", "cycle", "clique", "poset",
        "generating", "enumeration", "subset", "integer", "sequence",
        "combinatorial", "bipartite", "planar", "matching", "design",
        "symmetric", "function", "identity", "recurrence", "asymptotic",
        "extremal", "ramsey", "spanning", "degree", "theorem", "lemma",
        "inequality",
    ),
}
_PACKAGES = {
    "cs.AI": (
        "graphicx", "algorithm", "algorithmic", "amsmath", "booktabs",
        "hyperref", "natbib", "url", "xcolor", "subcaption", "multirow",
        "times", "caption", "float", "listings", "enumitem",
    ),
    "math.CO": (
        "amsmath", "amssymb", "amsthm", "tikz", "enumerate", "hyperref",
        "mathrsfs", "bbm", "graphicx", "geometry", "cite", "fullpage",
        "latexsym", "xypic", "mathtools", "stmaryrd",
    ),
}
_NOOP_MACROS = ("hide", "ignore", "omitted", "comm")


@dataclass(frozen=True)
class Profile:
    """How one category's papers are built, per kilobyte of body text."""

    packages: tuple[int, int]
    figures_per_kb: float
    theorems_per_kb: float
    lemmas_per_kb: float
    newcommands: tuple[int, int]
    comments_per_kb: float
    hides_per_kb: float
    authors: tuple[int, int]


# Assumed rates, not measured on real sources: see "The content rates are
# assumptions" in README.md.
_PROFILES = {
    "cs.AI": Profile((5, 12), 0.12, 0.01, 0.01, (0, 3), 1.6, 0.15, (2, 5)),
    "math.CO": Profile((6, 15), 0.02, 0.12, 0.14, (2, 8), 0.7, 0.05, (1, 3)),
}


@dataclass
class Planted:
    """Counts planted in one document, in features-record terms."""

    category: str
    multi_file: bool
    packages: int = 0
    figures: int = 0
    theorems: int = 0
    theorem_like: int = 0
    newcommands: int = 0
    authors: int = 0
    line_comments: int = 0
    macro_spans: int = 0

    def as_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass
class Doc:
    """One listed paper: metadata, source files, payload and planted counts.

    ``valid`` is False for payloads the harvester must reject (PDF,
    corrupt gzip, path traversal); those carry no planted counts.
    """

    id: str
    category: str
    timestamp: date
    pages: int
    files: list[tuple[str, bytes]]
    planted: Planted | None
    payload: bytes = b""
    content_type: str = ""
    valid: bool = True
    shape: str = "paper"

    @property
    def source_bytes(self) -> int:
        return sum(len(data) for _, data in self.files)


@dataclass
class Faults:
    """What the fake server does wrong, by listing page or paper id."""

    rate_limited_pages: set[tuple[str, int]] = field(default_factory=set)
    transient_503: set[str] = field(default_factory=set)
    connection_error: set[str] = field(default_factory=set)


@dataclass
class Inputs:
    """Everything one benchmark run consumes, built from (workload, seed)."""

    workload: str
    seed: int
    listings: dict[str, list[Doc]]
    pages: dict[tuple[str, int], bytes]
    faults: Faults
    oracle_strings: list[str]

    def docs(self) -> list[Doc]:
        return [doc for category in CATEGORIES for doc in self.listings[category]]

    def valid_docs(self) -> list[Doc]:
        return [doc for doc in self.docs() if doc.valid]

    def rejected_docs(self) -> list[Doc]:
        return [doc for doc in self.docs() if not doc.valid]


# ---------------------------------------------------------------- text


class _Text:
    """Sentence and paragraph maker for one category."""

    def __init__(self, rng: random.Random, category: str):
        self.rng = rng
        topic = _TOPIC_WORDS[category]
        self.words = _SHARED_WORDS * 2 + topic * 3

    def sentence(self, lo: int = 6, hi: int = 16) -> str:
        rng = self.rng
        words = [rng.choice(self.words) for _ in range(rng.randint(lo, hi))]
        roll = rng.random()
        if roll < 0.15:
            words.insert(rng.randrange(len(words)), f"$x_{rng.randint(1, 9)}$")
        elif roll < 0.25:
            words.insert(rng.randrange(len(words)), f"\\emph{{{rng.choice(self.words)}}}")
        elif roll < 0.32:
            words.insert(rng.randrange(len(words)), f"{rng.randint(2, 99)}\\%")
        elif roll < 0.38:
            words.append(f"\\cite{{ref{rng.randint(1, 60)}}}")
        words[0] = words[0].capitalize()
        return " ".join(words) + "."

    def plain(self, lo: int = 4, hi: int = 10) -> str:
        """Words only: safe inside macro arguments and comments."""
        return " ".join(self.rng.choice(self.words) for _ in range(self.rng.randint(lo, hi)))


# ---------------------------------------------------------------- papers


def _authors(rng: random.Random, count: int) -> str:
    if count == 0:
        return ""
    names = [f"{rng.choice(_FIRST)} {rng.choice(_LAST)}" for _ in range(count)]
    if count > 1 and rng.random() < 0.3:
        # affiliation-package style: one \author block per author
        return "".join(f"\\author{{{name}}}\n" for name in names)
    if rng.random() < 0.4:
        names[0] += "\\thanks{Supported by grant " + str(rng.randint(10, 999)) + ".}"
    return "\\author{" + " \\and ".join(names) + "}\n"


def _count_between(rng: random.Random, rate: float, kb: float) -> int:
    expected = rate * kb
    base = int(expected)
    return base + (1 if rng.random() < expected - base else 0)


def _paper(rng: random.Random, category: str, size: int, n_files: int) -> tuple[list[tuple[str, bytes]], Planted]:
    """One well-formed paper of about ``size`` bytes over ``n_files`` files."""
    prof = _PROFILES[category]
    text = _Text(rng, category)
    kb = size / 1024
    planted = Planted(category=category, multi_file=n_files > 1)

    small = size < 4096
    n_packages = rng.randint(1, 3) if small else rng.randint(*prof.packages)
    packages = rng.sample(_PACKAGES[category], n_packages)
    planted.packages = n_packages
    figures = _count_between(rng, prof.figures_per_kb, kb)
    theorems = _count_between(rng, prof.theorems_per_kb, kb)
    lemmas = _count_between(rng, prof.lemmas_per_kb, kb)
    hides = _count_between(rng, prof.hides_per_kb, kb)
    if figures and "graphicx" not in packages:
        packages.append("graphicx")
        planted.packages += 1

    pre: list[str] = ["\\documentclass[11pt]{article}\n"]
    i = 0
    while i < len(packages):
        group = packages[i : i + rng.choice((1, 1, 2))]
        opts = "[numbers]" if group[0] == "natbib" else ""
        pre.append(f"\\usepackage{opts}{{{','.join(group)}}}\n")
        i += len(group)
    if rng.random() < 0.5:
        pre.append(f"% preamble: {text.plain()}\n")
        planted.line_comments += 1

    n_new = rng.randint(0, 1) if small else rng.randint(*prof.newcommands)
    for k in range(n_new):
        suffix = "abcdefghij"[k]
        style = k % 3
        if style == 0:
            pre.append(f"\\newcommand{{\\R{suffix}}}{{\\mathbb{{R}}^{{{k + 1}}}}}\n")
        elif style == 1:
            pre.append(f"\\newcommand{{\\norm{suffix}}}[1]{{\\lVert #1 \\rVert}}\n")
        else:
            pre.append(f"\\renewcommand{{\\vec{suffix}}}[1]{{\\mathbf{{#1}}}}\n")
    planted.newcommands = n_new
    noop = None
    if hides:
        noop = rng.choice(_NOOP_MACROS)
        if rng.random() < 0.7:
            pre.append(f"\\newcommand{{\\{noop}}}[1]{{}}\n")
            planted.newcommands += 1
        else:
            pre.append(f"\\def\\{noop}#1{{}}\n")
    if theorems or lemmas:
        pre.append("\\newtheorem{theorem}{Theorem}\n")
        pre.append("\\newtheorem{lem}[theorem]{Lemma}\n")
    n_authors = rng.randint(*prof.authors) if rng.random() < 0.9 else 0
    if small:
        n_authors = min(n_authors, 2)
    else:
        pre.append(f"\\title{{{text.plain(3, 7).title()}}}\n")
    pre.append(_authors(rng, n_authors))
    planted.authors = n_authors
    pre.append("\\begin{document}\n\\maketitle\n")

    # Structured pieces, shuffled into the body, then prose up to the size.
    pieces: list[str] = []
    for k in range(figures):
        star = "*" if rng.random() < 0.2 else ""
        pieces.append(
            f"\\begin{{figure{star}}}[t]\n\\centering\n"
            f"\\includegraphics[width=0.8\\linewidth]{{fig{k + 1}}}\n"
            f"\\caption{{{text.sentence(4, 9)}}}\n\\label{{fig:{k + 1}}}\n"
            f"\\end{{figure{star}}}\n"
        )
    planted.figures = figures
    for _ in range(theorems):
        pieces.append(f"\\begin{{theorem}}\n{text.sentence()}\n\\end{{theorem}}\n\\begin{{proof}}\n{text.sentence()}\n\\end{{proof}}\n")
    for _ in range(lemmas):
        env = rng.choice(("lem", "lemma", "corollary"))
        pieces.append(f"\\begin{{{env}}}\n{text.sentence()}\n\\end{{{env}}}\n")
    planted.theorems = theorems
    planted.theorem_like = lemmas
    for _ in range(hides):
        pieces.append(f"\\{noop}{{{text.plain(3, 12)}}}\n")
    planted.macro_spans = hides
    rng.shuffle(pieces)

    bodies: list[list[str]] = [[] for _ in range(n_files)]
    for k, piece in enumerate(pieces):
        bodies[k % n_files].append(piece)
    head = "".join(pre)
    tail = "\\end{document}\n"
    budget = size - len(head) - len(tail) - sum(len(p) for p in pieces)
    comment_rate = prof.comments_per_kb / 1024
    k = 0
    while budget > 0:
        # about 90 bytes a sentence; short budgets get short paragraphs
        para = [text.sentence() for _ in range(min(rng.randint(2, 6), 1 + budget // 90))]
        if rng.random() < 0.2:
            para.insert(0, f"\\section{{{text.plain(2, 5).title()}}}")
        chunk = "\n".join(para) + "\n"
        # comments arrive at the profile's rate per byte of prose
        extra = _count_between(rng, comment_rate, len(chunk))
        for _ in range(extra):
            last_line = chunk.rstrip("\n").rsplit("\n", 1)[-1]
            if rng.random() < 0.5 or "%" in last_line:
                chunk = f"% {text.plain()}\n" + chunk
            else:
                chunk = chunk.rstrip("\n") + f" % {text.plain(2, 6)}\n"
        planted.line_comments += extra
        bodies[k % n_files].append(chunk)
        budget -= len(chunk) + 1
        k += 1

    main_name = rng.choice(("main.tex", "paper.tex", "ms.tex"))
    files: list[tuple[str, bytes]] = []
    main_body = list(bodies[0])
    for f in range(1, n_files):
        name = f"sec{f}"
        command = "\\include" if rng.random() < 0.2 else "\\input"
        main_body.insert(rng.randint(0, len(main_body)), f"{command}{{{name}}}\n")
        files.append((f"{name}.tex", "\n".join(bodies[f]).encode()))
    main = head + "\n".join(main_body) + tail
    files.insert(0, (main_name, main.encode()))
    return files, planted


# ---------------------------------------------------------------- hostile shapes


def _hostile(rng: random.Random, category: str, shape: str, scale: int) -> tuple[list[tuple[str, bytes]], Planted]:
    """A document built around one pathological shape.

    ``scale`` is the repetition count of the shape. The planted counts are
    what a correct extractor reports: unclosed groups yield nothing, and
    nothing inside verbatim is a comment.
    """
    text = _Text(rng, category)
    planted = Planted(category=category, multi_file=False)
    head = "\\documentclass{article}\n\\begin{document}\n"
    tail = "\\end{document}\n"
    if shape == "unclosed-hide":
        # a no-op macro, then many invocations whose braces never close
        head = "\\documentclass{article}\n\\newcommand{\\hide}[1]{}\n\\begin{document}\n"
        planted.newcommands = 1
        body = "".join(f"\\hide{{ {text.plain(2, 5)}\n" for _ in range(scale))
    elif shape == "unclosed-begin":
        body = "".join(f"\\begin{{ {text.plain(2, 5)}\n" for _ in range(scale))
    elif shape == "verbatim":
        lines = []
        while sum(len(line) for line in lines) < scale:
            lines.append(f"{text.plain()} % not a comment {{ \\hide{{ x\n")
        body = f"{text.sentence()}\n\\begin{{verbatim}}\n{''.join(lines)}\\end{{verbatim}}\n{text.sentence()}\n"
    elif shape == "percent-lines":
        body = "".join("%" * rng.randint(40, 80) + "\n" for _ in range(scale))
        planted.line_comments = scale
    else:
        raise ValueError(shape)
    return [("main.tex", (head + body + tail).encode())], planted


def _input_chain(rng: random.Random, category: str, length: int) -> tuple[list[tuple[str, bytes]], Planted]:
    """A main file that pulls in ``length`` files, each including the next."""
    text = _Text(rng, category)
    planted = Planted(category=category, multi_file=True)
    files = [("main.tex", f"\\documentclass{{article}}\n\\begin{{document}}\n\\input{{c1}}\n\\end{{document}}\n".encode())]
    for k in range(1, length + 1):
        nxt = f"\\input{{c{k + 1}}}\n" if k < length else ""
        files.append((f"c{k}.tex", f"{text.plain(2, 6)}\n{nxt}".encode()))
    return files, planted


# ---------------------------------------------------------------- payloads


def _gzip(data: bytes) -> bytes:
    return gzip.compress(data, compresslevel=6, mtime=0)


def _tar_gz(files: list[tuple[str, bytes]]) -> bytes:
    buf = io.BytesIO()
    with tarfile.open(fileobj=buf, mode="w", format=tarfile.USTAR_FORMAT) as tf:
        for name, data in files:
            info = tarfile.TarInfo(name)
            info.size = len(data)
            info.mtime = 946684800
            info.mode = 0o644
            tf.addfile(info, io.BytesIO(data))
    return _gzip(buf.getvalue())


def _attach_payload(doc: Doc) -> None:
    """Serve multi-file papers as gzipped tar, single files as gzipped TeX."""
    if len(doc.files) > 1:
        doc.payload = _tar_gz(doc.files)
        doc.content_type = "application/x-eprint-tar"
    else:
        doc.payload = _gzip(doc.files[0][1])
        doc.content_type = "application/x-eprint"


def _rejected(doc: Doc, kind: str) -> None:
    """Turn a listed record into one whose payload must be rejected."""
    doc.valid = False
    doc.planted = None
    doc.shape = kind
    if kind == "pdf":
        doc.payload = b"%PDF-1.4\n" + bytes(range(256)) * 4
        doc.content_type = "application/pdf"
    elif kind == "corrupt-gzip":
        # gzip header, then a deflate block of the reserved type 3
        doc.payload = b"\x1f\x8b\x08\x00\x00\x00\x00\x00\x00\x03" + b"\xff" * 64
        doc.content_type = "application/x-eprint-tar"
    elif kind == "path-traversal":
        doc.payload = _tar_gz(doc.files + [("../../escaped.tex", b"\\input{main}\n")])
        doc.content_type = "application/x-eprint-tar"
    else:
        raise ValueError(kind)


# ---------------------------------------------------------------- feed


def _feed_page(docs: list[Doc], start: int, total: int) -> bytes:
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<feed xmlns="http://www.w3.org/2005/Atom"'
        ' xmlns:opensearch="http://a9.com/-/spec/opensearch/1.1/"'
        ' xmlns:arxiv="http://arxiv.org/schemas/atom">\n',
        f"<opensearch:totalResults>{total}</opensearch:totalResults>\n",
        f"<opensearch:startIndex>{start}</opensearch:startIndex>\n",
        f"<opensearch:itemsPerPage>{PAGE_SIZE}</opensearch:itemsPerPage>\n",
    ]
    for doc in docs:
        parts.append(
            f"<entry><id>http://arxiv.org/abs/{doc.id}v1</id>"
            f"<published>{doc.timestamp.isoformat()}T12:00:00Z</published>"
            f"<title>{escape('Paper ' + doc.id)}</title>"
            f"<arxiv:comment>{doc.pages} pages</arxiv:comment>"
            f'<arxiv:primary_category term="{doc.category}"/>'
            f'<category term="{doc.category}"/></entry>\n'
        )
    parts.append("</feed>\n")
    return "".join(parts).encode()


# ---------------------------------------------------------------- oracle strings


def _oracle_draft(rng: random.Random, length: int) -> str:
    words = _SHARED_WORDS + _TOPIC_WORDS["math.CO"][:10]
    parts: list[str] = []
    size = 0
    while size < length:
        roll = rng.random()
        if roll < 0.12:
            piece = f"% {rng.choice(words)}\n"
        elif roll < 0.2:
            piece = f"{rng.randint(1, 99)}\\% "
        elif roll < 0.28:
            piece = rng.choice(words) + "\n"
        else:
            piece = rng.choice(words) + " "
        parts.append(piece)
        size += len(piece)
    return "".join(parts)[:length]


def _visible_chars(s: str) -> int:
    """Characters outside ``%`` comments."""
    return len(re.sub(r"(?<!\\)%[^\n]*", "", s))


def oracle_string(rng: random.Random, length: int, overlapping: bool) -> str:
    """A TeX-like string of exactly ``length`` characters.

    Made of words, spaces, ``%`` comments, ``\\%`` escapes and newlines.
    The oracle's normalisation walks the text outside comments, so its cost
    follows that text's length; of ORACLE_DRAFTS random drafts the one with
    the median amount of it is kept, which keeps a string's cost nearly the
    same for every seed. With ``overlapping``, a run of three blanks is
    planted, whose two two-blank deletions are overlapping maximal comments.
    """
    drafts = sorted((_oracle_draft(rng, length) for _ in range(ORACLE_DRAFTS)), key=_visible_chars)
    s = drafts[len(drafts) // 2]
    if overlapping:
        # only where the line so far holds no "%", so the blanks are visible
        spots = [i for i in range(1, length - 4) if "%" not in s[s.rfind("\n", 0, i) + 1 : i + 3]]
        at = rng.choice(spots) if spots else 1
        s = s[:at] + "   " + s[at + 3 :]
    return s


# ---------------------------------------------------------------- workloads


def _stratified(rng: random.Random, count: int, lo: int, hi: int) -> list[int]:
    """``count`` sizes spread evenly over [lo, hi] on a log scale, in random order.

    Even spreading keeps a workload's total bytes nearly the same for every
    seed, so run-to-run differences come from the program, not the draw.
    """
    ratio = hi / lo
    sizes = [int(lo * ratio ** ((k + rng.random()) / count)) for k in range(count)]
    rng.shuffle(sizes)
    return sizes


def _date(rng: random.Random) -> date:
    return date(rng.randint(1995, 2012), rng.randint(1, 12), rng.randint(1, 28))


def _papers(rng: random.Random, count: int, lo: int, hi: int, multi_share: float, max_sections: int) -> list[Doc]:
    docs = []
    for k, size in enumerate(_stratified(rng, count, lo, hi)):
        category = CATEGORIES[k % 2]
        n_files = 1 + rng.randint(1, max_sections) if rng.random() < multi_share else 1
        files, planted = _paper(rng, category, size, n_files)
        docs.append(Doc("", category, _date(rng), max(1, size // 3000 + rng.randint(1, 6)), files, planted))
    return docs


def _hostile_docs(rng: random.Random) -> list[Doc]:
    """A few dozen documents, each built around one pathological shape."""
    docs = []
    shapes = (
        ("unclosed-hide", (175, 245, 315, 385)),
        ("unclosed-begin", (140, 200, 250, 310)),
        ("verbatim", (20_000, 30_000, 40_000, 50_000)),
        ("percent-lines", (1000, 1500, 2000, 2500)),
    )
    k = 0
    for shape, scales in shapes:
        for scale in scales:
            category = CATEGORIES[k % 2]
            files, planted = _hostile(rng, category, shape, scale)
            docs.append(Doc("", category, _date(rng), rng.randint(1, 30), files, planted, shape=shape))
            k += 1
    files, planted = _input_chain(rng, "cs.AI", 900)
    docs.append(Doc("", "cs.AI", _date(rng), 9, files, planted, shape="input-chain-900"))
    return docs


def generate(workload: str, seed: int) -> Inputs:
    """Build every input of one workload from its seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    faults = Faults()
    lengths = ORACLE_LENGTHS[workload]
    oracle_strings = [oracle_string(rng, n, overlapping=k % 3 == 1) for k, n in enumerate(lengths)]

    tail: dict[str, list[Doc]] = {c: [] for c in CATEGORIES}
    rejects: list[tuple[Doc, str]] = []
    if workload == "papers":
        docs = _papers(rng, 1000, 300, 2000, multi_share=0.4, max_sections=2)
        docs += _papers(rng, 20, 20_000, 60_000, multi_share=0.85, max_sections=6)
    else:
        docs = _hostile_docs(rng)
        papers = _papers(rng, 12, 600, 1500, multi_share=0.0, max_sections=1)
        docs += papers[:8]
        rejects = [(papers[8], "pdf"), (papers[10], "corrupt-gzip"), (papers[9], "path-traversal")]
        docs += [doc for doc, _ in rejects]
        # The 1,200-file chain recurses past the interpreter's limit. Its id
        # sorts last in the store, so extraction reaches it after all other
        # work; the connection error hits the very last listed download.
        files, planted = _input_chain(rng, "math.CO", 1200)
        tail["math.CO"].append(Doc("", "math.CO", date(2012, 12, 30), 12, files, planted, shape="input-chain-1200"))
        tail["math.CO"].append(papers[11])

    # Listing order is submission order within each category.
    listings: dict[str, list[Doc]] = {}
    serial = 0
    for category in CATEGORIES:
        listed = sorted((d for d in docs if d.category == category), key=lambda d: d.timestamp)
        listed += tail[category]
        for doc in listed:
            serial += 1
            doc.id = f"tc.{serial:06d}"
            _attach_payload(doc)
        listings[category] = listed
    for doc, kind in rejects:
        _rejected(doc, kind)

    if workload == "hostile":
        cs, math = listings["cs.AI"], listings["math.CO"]
        faults.rate_limited_pages.add(("cs.AI", 0))
        normal = [d for d in cs + math if d.valid and d.shape == "paper" and d is not math[-1]]
        faults.transient_503.update(d.id for d in normal[:3])
        faults.connection_error.add(math[-1].id)

    pages: dict[tuple[str, int], bytes] = {}
    for category in CATEGORIES:
        listed = listings[category]
        for start in range(0, max(1, len(listed)), PAGE_SIZE):
            pages[(category, start)] = _feed_page(listed[start : start + PAGE_SIZE], start, len(listed))
    return Inputs(workload, seed, listings, pages, faults, oracle_strings)
