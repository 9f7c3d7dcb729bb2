"""Byte pin for the analysis outputs of the golden corpus.

Criterion 8 compares two runs of the same code, so on its own it cannot
tell when `stats`, `trends` or `discriminate` start writing different
bytes. The files under analysis_outputs/ were written by the commands
below and are compared byte for byte. The golden corpus has two
categories, dated papers, papers with and without page counts, and
graphicx and epsfig declarations, so every summary field is exercised.
`classify` is left out: its weights are numpy floats whose last digits
depend on the platform.

After an intended output change, rewrite the files from the repository
root with

    PYTHONPATH=src python3 tests/test_analysis_outputs.py
"""

import pathlib
import sys

import pytest

from texcorpus.cli import main
from texcorpus.harvest import CorpusStore

sys.path.insert(0, str(pathlib.Path(__file__).parent))

from test_acceptance import golden_documents  # noqa: E402

PINNED = pathlib.Path(__file__).parent / "analysis_outputs"

COMMANDS = {
    "stats.ndjson": ["stats", "--features", "{features}"],
    "stats.csv": ["stats", "--features", "{features}", "--format", "csv"],
    "trends.ndjson": ["trends", "--features", "{features}"],
    "discriminate_text.ndjson": [
        "discriminate", "--features", "{features}", "--basis", "text",
        "--words", "{words}",
    ],
}


def run_analysis(work: pathlib.Path) -> dict[str, bytes]:
    """Extract the golden corpus under work, then run every pinned command."""
    store = CorpusStore(work / "corpus")
    for doc in golden_documents():
        store.save(doc)
    paths = {"features": work / "features.ndjson", "words": work / "words.ndjson"}
    code = main(
        [
            "extract",
            "--corpus", str(work / "corpus"),
            "--out", str(paths["features"]),
            "--words", str(paths["words"]),
        ]
    )
    assert code == 0
    outputs = {}
    for name, argv in COMMANDS.items():
        out = work / name
        code = main([arg.format(**paths) for arg in argv] + ["--out", str(out)])
        assert code == 0, name
        outputs[name] = out.read_bytes()
    return outputs


@pytest.fixture(scope="module")
def produced(tmp_path_factory):
    return run_analysis(tmp_path_factory.mktemp("analysis"))


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_output_matches_pinned_bytes(name, produced):
    assert produced[name] == (PINNED / name).read_bytes()


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        PINNED.mkdir(exist_ok=True)
        for name, data in run_analysis(pathlib.Path(scratch)).items():
            (PINNED / name).write_bytes(data)
            print(f"wrote {PINNED / name} ({len(data)} bytes)")
