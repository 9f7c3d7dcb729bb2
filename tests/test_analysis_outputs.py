"""Byte pin for the extract and analysis outputs of the golden corpus.

Criterion 8 compares two runs of the same code, so on its own it cannot
tell when `extract`, `stats`, `trends` or `discriminate` start writing
different bytes. The files under analysis_outputs/ were written by the
commands below and are compared byte for byte; `extract`'s three outputs
are compared at `--jobs 1`, at `--jobs 2`, and at `--jobs 2` in a fresh
interpreter whose pool starts its workers by spawn or forkserver. The golden corpus has two
categories, dated papers, papers with and without page counts, and
graphicx and epsfig declarations, so every summary field is exercised.
`classify` is left out: its weights are numpy floats whose last digits
depend on the platform.

After an intended output change, rewrite the files from the repository
root with

    PYTHONPATH=src python3 tests/test_analysis_outputs.py
"""

import os
import pathlib
import subprocess
import sys

import pytest

import texcorpus
from texcorpus.cli import main
from texcorpus.harvest import CorpusStore

sys.path.insert(0, str(pathlib.Path(__file__).parent))

from test_acceptance import golden_documents  # noqa: E402

PINNED = pathlib.Path(__file__).parent / "analysis_outputs"
SRC = pathlib.Path(texcorpus.__file__).resolve().parent.parent

EXTRACT_OUTPUTS = {
    "features.ndjson": "--out",
    "comments.ndjson": "--comments",
    "words.ndjson": "--words",
}

COMMANDS = {
    "stats.ndjson": ["stats", "--features", "{features}"],
    "stats.csv": ["stats", "--features", "{features}", "--format", "csv"],
    "trends.ndjson": ["trends", "--features", "{features}"],
    "discriminate_text.ndjson": [
        "discriminate", "--features", "{features}", "--basis", "text",
        "--words", "{words}",
    ],
}


def extract_argv(corpus: pathlib.Path, out: pathlib.Path, jobs: int) -> list[str]:
    """`extract` of corpus at ``jobs``, writing all three outputs into out."""
    argv = ["extract", "--corpus", str(corpus), "--jobs", str(jobs)]
    for name, option in EXTRACT_OUTPUTS.items():
        argv += [option, str(out / name)]
    return argv


def extracted(out: pathlib.Path) -> dict[str, bytes]:
    return {name: (out / name).read_bytes() for name in EXTRACT_OUTPUTS}


def golden_store(work: pathlib.Path) -> pathlib.Path:
    store = CorpusStore(work / "corpus")
    for doc in golden_documents():
        store.save(doc)
    return work / "corpus"


def run_analysis(work: pathlib.Path) -> dict[str, bytes]:
    """Extract the golden corpus under work, then run every pinned command."""
    assert main(extract_argv(golden_store(work), work, jobs=1)) == 0
    outputs = extracted(work)
    paths = {"features": work / "features.ndjson", "words": work / "words.ndjson"}
    for name, argv in COMMANDS.items():
        out = work / name
        code = main([arg.format(**paths) for arg in argv] + ["--out", str(out)])
        assert code == 0, name
        outputs[name] = out.read_bytes()
    return outputs


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("analysis")


@pytest.fixture(scope="module")
def produced(work):
    return run_analysis(work)


@pytest.mark.parametrize("name", sorted([*COMMANDS, *EXTRACT_OUTPUTS]))
def test_output_matches_pinned_bytes(name, produced):
    assert produced[name] == (PINNED / name).read_bytes()


def pinned_extract() -> dict[str, bytes]:
    return {name: (PINNED / name).read_bytes() for name in EXTRACT_OUTPUTS}


def test_parallel_extract_matches_pinned_bytes(work, produced, tmp_path):
    # produced: run_analysis has stored the golden corpus under work
    assert main(extract_argv(work / "corpus", tmp_path, jobs=2)) == 0
    assert extracted(tmp_path) == pinned_extract()


# `extract --jobs 2` in a fresh interpreter whose pool starts workers that
# share no memory with the parent, so what a worker takes and returns must
# pickle; forkserver is the default start method on Linux from Python 3.14
_WITH_START_METHOD = """\
import multiprocessing, sys
multiprocessing.set_start_method(sys.argv.pop(1))
from texcorpus.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_extract_under_start_method_matches_pinned_bytes(method, work, produced, tmp_path):
    subprocess.run(
        [sys.executable, "-c", _WITH_START_METHOD, method,
         *extract_argv(work / "corpus", tmp_path, jobs=2)],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        check=True,
        timeout=120,
    )
    assert extracted(tmp_path) == pinned_extract()


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        PINNED.mkdir(exist_ok=True)
        for name, data in run_analysis(pathlib.Path(scratch)).items():
            (PINNED / name).write_bytes(data)
            print(f"wrote {PINNED / name} ({len(data)} bytes)")
