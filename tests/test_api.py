"""What importing the package, its CLI and its classifier loads."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import texcorpus
from synth import two_class_corpus
from texcorpus.cli import FEATURES_SCHEMA, NdjsonWriter, feature_record
from texcorpus.lexer import SourceDocument
from texcorpus.store import CorpusStore

SRC = Path(texcorpus.__file__).resolve().parent.parent
HEAVY = {"numpy", "urllib.request", "http.client"}
# what only harvesting runs
HARVEST = {"texcorpus.harvest", "tarfile", "xml.etree.ElementTree"}
# what only extraction runs
EXTRACTION = {"texcorpus.lexer", "texcorpus.comments", "texcorpus.features"}


def modules_after(code: str, names: set[str] = HEAVY) -> list[str]:
    """Which of ``names`` a fresh interpreter holds after running code."""
    probe = f"{code}\nimport sys\nprint(sorted({names!r} & sys.modules.keys()))"
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    return ast.literal_eval(result.stdout.splitlines()[-1])


def running(argv: list[str]) -> str:
    """Code that runs the CLI on argv and checks that it succeeds."""
    return f"from texcorpus.cli import main\nassert main({argv!r}) == 0"


@pytest.fixture
def corpus(tmp_path):
    """Arguments that extract a two-document store."""
    store = CorpusStore(tmp_path / "corpus")
    for doc_id in ("cs/1", "cs/2"):
        text = b"\\documentclass{article}\\begin{document}Hi.\\end{document}"
        store.save(SourceDocument(id=doc_id, files=[("main.tex", text)]))
    return ["extract", "--corpus", str(store.root), "--out", str(tmp_path / "f")]


@pytest.fixture
def features_file(tmp_path):
    features = tmp_path / "features.ndjson"
    with NdjsonWriter(features, FEATURES_SCHEMA) as out:
        for fv in two_class_corpus(40, seed=0):
            out.write(feature_record(fv))
    return features


class TestLazyImports:
    def test_cli_import_loads_neither(self):
        assert modules_after("import texcorpus.cli") == []

    def test_package_import_loads_neither(self):
        assert modules_after("import texcorpus") == []

    def test_extract_command_loads_neither(self, corpus):
        assert modules_after(running(corpus)) == []
        assert len(Path(corpus[-1]).read_text().splitlines()) == 3  # schema, 2 docs

    def test_extract_command_loads_neither_harvest_nor_stats(self, corpus):
        unloaded = HARVEST | {"texcorpus.stats"}
        assert modules_after(running(corpus), unloaded) == []

    @pytest.mark.parametrize(
        "command",
        [
            ["stats"],
            ["trends"],
            ["discriminate", "--basis", "packages"],
            ["classify", "--positive", "cs", "--model", "m", "--report", "r"],
        ],
        ids=lambda command: command[0],
    )
    def test_analysis_command_loads_no_extraction(self, tmp_path, features_file, command):
        argv = [*command, "--features", str(features_file)]
        if command[0] != "classify":
            argv += ["--out", str(tmp_path / "o")]
        code = f"import os\nos.chdir({str(tmp_path)!r})\n{running(argv)}"
        assert modules_after(code, EXTRACTION | HARVEST) == []

    def test_stats_command_loads_neither(self, tmp_path, features_file):
        argv = ["stats", "--features", str(features_file), "--out", str(tmp_path / "o")]
        assert modules_after(running(argv)) == []

    def test_classifier_name_loads_numpy(self):
        assert modules_after("import texcorpus.classify") == ["numpy"]
