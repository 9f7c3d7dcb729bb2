"""The pipeline stages the benchmark drives, and the checks on their outputs.

Harvest runs in-process through ``harvest_into_store`` with the fake server.
Every CLI subcommand runs as its own child process, the way a user starts
it, so interpreter start-up, imports and memory count.
"""

from __future__ import annotations

import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from corpus import CATEGORIES, PAGE_SIZE, Doc, Inputs
from fake_arxiv import FakeArxiv

JOBS_N = os.cpu_count() or 1

# A child that runs longer than this is killed and counted as failed, so one
# hung stage cannot push a run past its time limit.
CHILD_TIMEOUT_S = 120.0


@dataclass
class Tally:
    """Operations attempted and failed, per stage, plus what went wrong.

    An operation is one named unit of a stage's work, such as extracting one
    document. A run repeats its operations for timing; each counts once, as
    failed if any repetition failed, so the counts depend on the workload
    and the program but not on how many repetitions fit in the run.
    """

    attempted: dict[str, set] = field(default_factory=dict)
    failed: dict[str, set] = field(default_factory=dict)
    wrong: list[str] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    def add(self, stage: str, items, failed=()) -> None:
        """Record the named operations of a stage and those of them that failed."""
        self.attempted.setdefault(stage, set()).update(items)
        self.failed.setdefault(stage, set()).update(failed)

    def one(self, stage: str, ok: bool) -> None:
        """Record a stage that is a single operation."""
        self.add(stage, [stage], [] if ok else [stage])

    def wrong_output(self, message: str) -> None:
        """A check found an output that exists but is incorrect."""
        if len(self.wrong) < 50:
            self.wrong.append(message)

    def error(self, message: str) -> None:
        """A stage failed to produce its output."""
        if len(self.errors) < 50:
            self.errors.append(message)


class Samples:
    """Per-metric samples; a run reports each metric's mean.

    A run holds only 4 to 20 samples of a metric, since its stages take
    seconds each. Over such few samples the mean varies less from run to
    run than the median does (on the machine the README describes, the
    spread of ten runs was about a quarter smaller), and the mean is also
    what a user pays on average. The median is printed beside it.
    """

    def __init__(self) -> None:
        self.values: dict[str, list[float]] = {}
        self.units: dict[str, str] = {}

    def add(self, name: str, value: float | None, unit: str) -> None:
        if value is None:
            return
        self.values.setdefault(name, []).append(value)
        self.units[name] = unit

    def value(self, name: str) -> float:
        return statistics.mean(self.values[name])

    def line(self, name: str) -> str:
        values = self.values[name]
        return (
            f"{name:24s} {self.value(name):12.6g} {self.units[name]:6s}"
            f" n={len(values):<3d} min={min(values):.6g} median={statistics.median(values):.6g} max={max(values):.6g}"
        )


# ---------------------------------------------------------------- harvest


@dataclass
class Harvested:
    seconds: float
    server: FakeArxiv
    reports: list
    aborted: list[str]


def harvest(inputs: Inputs, store_dir: Path) -> Harvested:
    """Harvest both categories into an empty store from the fake server.

    An exception escaping ``harvest_into_store`` ends that category's
    harvest; it is recorded and the next category still runs.
    """
    from texcorpus.harvest import CorpusStore, harvest_into_store

    server = FakeArxiv(inputs)
    reports = []
    aborted = []
    start = time.perf_counter()
    store = CorpusStore(store_dir)
    for category in CATEGORIES:
        try:
            reports.append(
                harvest_into_store(
                    category,
                    len(inputs.listings[category]),
                    store,
                    page_size=PAGE_SIZE,
                    fetch=server.fetch,
                    delay=0,
                    sleep=server.sleep,
                )
            )
        except Exception as exc:  # noqa: BLE001 - a crashed stage is counted, not fatal
            aborted.append(f"harvest {category}: {exc!r}")
    return Harvested(time.perf_counter() - start, server, reports, aborted)


def check_harvest(inputs: Inputs, store_dir: Path, result: Harvested, tally: Tally) -> float | None:
    """Count valid payloads that did not reach the store, and rejected ones that did.

    Returns harvest_failed_ratio: valid records missing from the store over
    valid records listed. Correct rejections are not failures.
    """
    from texcorpus.harvest import CorpusStore

    store = CorpusStore(store_dir)
    valid = inputs.valid_docs()
    missing = []
    for doc in valid:
        if not store.contains(doc.id):
            missing.append(doc.id)
            continue
        stored = store.load(doc.id).files
        # a single gzipped file is stored as main.tex whatever its name was
        same = sorted(stored) == sorted(doc.files) if len(doc.files) > 1 else [d for _, d in stored] == [doc.files[0][1]]
        if not same:
            tally.wrong_output(f"harvest {doc.id}: stored files differ from the payload")
            missing.append(doc.id)
    leaked = []
    for doc in inputs.rejected_docs():
        if store.contains(doc.id):
            tally.wrong_output(f"harvest {doc.id}: rejected {doc.shape} payload reached the store")
            leaked.append(doc.id)
    escaped = next(store_dir.parent.rglob("escaped.tex"), None)
    if escaped is not None:
        tally.wrong_output(f"harvest: archive member escaped the store: {escaped.name}")
    tally.one("harvest-contained", escaped is None)
    for message in result.aborted:
        tally.error(message)
    tally.add("harvest", [doc.id for doc in inputs.docs()], missing + leaked)
    return len(missing) / len(valid) if valid else None


# ---------------------------------------------------------------- CLI children


@dataclass
class ChildRun:
    code: int
    seconds: float


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list[str], env: dict, log: Path) -> ChildRun:
    """Run one child to completion and time it.

    The child gets its own process group, so a timeout kills any workers
    it started along with it.
    """
    with open(log, "ab") as handle:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=handle, stderr=handle, env=env, start_new_session=True)
        timer = threading.Timer(CHILD_TIMEOUT_S, _kill_group, (proc.pid,))
        timer.start()
        try:
            code = proc.wait()
        finally:
            timer.cancel()
        return ChildRun(code, time.perf_counter() - start)


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def cli(*args: str) -> list[str]:
    return [sys.executable, "-m", "texcorpus.cli", *args]


# Runs the CLI as ``python -m texcorpus.cli`` does, then writes the process's
# own peak RSS (VmHWM, in kB) to the file named by its first argument. The
# peak that wait4 reports is no use here: on Linux it also counts the
# parent's memory at the time of the fork.
_PEAK_RSS_MAIN = """\
import runpy, sys
out = sys.argv.pop(1)
try:
    runpy.run_module("texcorpus.cli", run_name="__main__", alter_sys=True)
finally:
    with open("/proc/self/status") as status, open(out, "w") as dest:
        dest.write(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
"""


def peak_rss_mb(path: Path) -> float | None:
    """The peak RSS a child recorded through the wrapper, or None if it did not."""
    try:
        return int(path.read_text()) / 1024
    except (OSError, ValueError):
        return None


# ---------------------------------------------------------------- extract


EXTRACT_OUTPUTS = ("features.ndjson", "comments.ndjson", "words.ndjson")


def extract_argv(store_dir: Path, out_dir: Path, jobs: int, peak_rss_file: Path | None = None) -> list[str]:
    """``texcorpus extract`` into out_dir; with peak_rss_file, through the RSS wrapper."""
    out_dir.mkdir(parents=True, exist_ok=True)
    head = [sys.executable, "-c", _PEAK_RSS_MAIN, str(peak_rss_file)] if peak_rss_file else cli()
    return head + [
        "extract",
        "--corpus", str(store_dir),
        "--out", str(out_dir / "features.ndjson"),
        "--comments", str(out_dir / "comments.ndjson"),
        "--words", str(out_dir / "words.ndjson"),
        "--jobs", str(jobs),
    ]


def read_records(path: Path, schema: str) -> list[dict] | None:
    """Records after the schema line, or None when the file is missing or mislabeled."""
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError:
        return None
    if not lines or json.loads(lines[0]).get("name") != schema:
        return None
    return [json.loads(line) for line in lines[1:] if line]


def _planted_view(record: dict, lines: int, macros: int) -> dict:
    return {
        "category": record["category"],
        "multi_file": record["multi_file"],
        "packages": record["packages"],
        "figures": record["figures"],
        "theorems": record["theorems"],
        "theorem_like": record["theorem_like"],
        "newcommands": record["newcommands"],
        "authors": record["authors"],
        "line_comments": lines,
        "macro_spans": macros,
    }


def check_extract(docs: dict[str, Doc], stored_ids: list[str], out_dir: Path, run: ChildRun, tally: Tally, label: str) -> tuple[int, int]:
    """Failed documents of one extract run, and the words it wrote.

    A document fails on a missing or error record, or when any planted
    count differs from its features record; a non-zero exit fails them all.
    """
    features = read_records(out_dir / "features.ndjson", "texcorpus.features") if run.code == 0 else None
    comments = read_records(out_dir / "comments.ndjson", "texcorpus.comments") if run.code == 0 else None
    words = read_records(out_dir / "words.ndjson", "texcorpus.words") if run.code == 0 else None
    if features is None or comments is None or words is None:
        tally.error(f"{label}: exit {run.code}, no complete output")
        tally.add(label, stored_ids, stored_ids)
        return len(stored_ids), 0
    by_id = {record["id"]: record for record in features}
    counts: dict[str, list[int]] = {}
    for span in comments:
        pair = counts.setdefault(span["doc_id"], [0, 0])
        pair[0 if span["kind"] == "line" else 1] += 1
    failed = []
    for doc_id in stored_ids:
        record = by_id.get(doc_id)
        if record is None:
            tally.error(f"{label} {doc_id}: no features record")
            failed.append(doc_id)
            continue
        lines, macros = counts.get(doc_id, (0, 0))
        got = _planted_view(record, lines, macros)
        want = docs[doc_id].planted.as_dict()
        if got != want:
            diff = {k: (got[k], want[k]) for k in want if got[k] != want[k]}
            tally.wrong_output(f"{label} {doc_id} ({docs[doc_id].shape}): got/planted {diff}")
            failed.append(doc_id)
    tally.add(label, stored_ids, failed)
    written = sum(len(r["words"]) + len(r["comment_words"]) for r in words)
    return len(failed), written


@dataclass
class Extracted:
    """Both extract runs of a pass: their children, outputs and failures."""

    runs: dict[int, ChildRun]
    outs: dict[int, Path]
    failed_docs: int
    words: int
    peak_rss_mb: float | None


def extract_both(store_dir: Path, out_root: Path, docs: dict[str, Doc], stored_ids: list[str], env: dict, log: Path, tally: Tally, between=None) -> Extracted:
    """``extract`` at ``--jobs 1`` (through the peak-RSS wrapper) and at ``--jobs N``.

    Each run's output is checked against the planted counts, and the two
    outputs must be byte-identical. ``between`` is called after each run.
    """
    runs: dict[int, ChildRun] = {}
    outs: dict[int, Path] = {}
    failed_docs = 0
    words = 0
    rss_file = out_root / "extract-j1.rss"
    for jobs in (1, JOBS_N):
        out = out_root / f"extract-j{jobs}"
        runs[jobs] = run_child(extract_argv(store_dir, out, jobs, rss_file if jobs == 1 else None), env, log)
        failed, written = check_extract(docs, stored_ids, out, runs[jobs], tally, f"extract --jobs {jobs}")
        failed_docs += failed
        words = words or written
        outs[jobs] = out
        if between is not None:
            between()
    identical = same_outputs(outs[1], outs[JOBS_N])
    if not identical:
        tally.wrong_output(f"extract: --jobs 1 and --jobs {JOBS_N} outputs differ")
    tally.one("extract-identical", identical)
    return Extracted(runs, outs, failed_docs, words, peak_rss_mb(rss_file))


def same_outputs(first: Path, second: Path) -> bool:
    """Whether two extract runs wrote byte-identical files (or both wrote none)."""
    for name in EXTRACT_OUTPUTS:
        a, b = first / name, second / name
        if a.exists() != b.exists():
            return False
        if a.exists() and a.read_bytes() != b.read_bytes():
            return False
    return True


# ---------------------------------------------------------------- analysis commands


def analysis_commands(features: Path, words: Path, out_dir: Path) -> list[tuple[str, list[str]]]:
    """(metric name, argv) of each analysis subcommand, in pipeline order."""
    out_dir.mkdir(parents=True, exist_ok=True)
    return [
        ("stats_s", cli("stats", "--features", str(features), "--out", str(out_dir / "stats.ndjson"))),
        ("discriminate_s", cli("discriminate", "--features", str(features), "--words", str(words), "--out", str(out_dir / "disc.ndjson"), "--basis", "text")),
        ("trends_s", cli("trends", "--features", str(features), "--out", str(out_dir / "trends.ndjson"))),
        ("classify_s", cli("classify", "--features", str(features), "--positive", "cs.AI", "--model", str(out_dir / "model.json"), "--report", str(out_dir / "report.ndjson"))),
    ]


def check_analysis(metric: str, out_dir: Path, n_features: int) -> str | None:
    """What is wrong with one analysis command's output, or None when it is right."""
    if metric == "stats_s":
        records = read_records(out_dir / "stats.ndjson", "texcorpus.stats") or []
        if sorted(r["category"] for r in records) != sorted(CATEGORIES):
            return "stats: summaries do not cover both categories"
        if sum(r["paper_count"] for r in records) != n_features:
            return "stats: paper counts do not add up to the features records"
    elif metric == "discriminate_s":
        records = read_records(out_dir / "disc.ndjson", "texcorpus.discriminative") or []
        if len({r["direction"] for r in records}) != 2:
            return "discriminate: both directions expected"
        for direction in {r["direction"] for r in records}:
            scores = [r["score"] for r in records if r["direction"] == direction]
            if scores != sorted(scores, reverse=True) or scores[0] < 0:
                return f"discriminate: {direction} not ranked by descending score"
    elif metric == "trends_s":
        records = read_records(out_dir / "trends.ndjson", "texcorpus.trends") or []
        if not any(r["scope"] == "all" and r["x"] == "year" for r in records):
            return "trends: no year trend over the whole corpus"
    elif metric == "classify_s":
        records = read_records(out_dir / "report.ndjson", "texcorpus.classification") or []
        head = [r for r in records if r.get("record") == "classification"]
        if len(head) != 1 or head[0]["n_train"] + head[0]["n_test"] != n_features:
            return "classify: train and test sizes do not add up to the features records"
        if not (out_dir / "model.json").is_file():
            return "classify: no model file"
    return None


# ---------------------------------------------------------------- oracle


def partition_all(strings: list[str]) -> tuple[list[tuple[float, float]], list, list[int]]:
    """Partition every string with a fresh reference oracle.

    Returns each string's (start, end) ``perf_counter`` times, its result
    (the maximal comments, the overlapping pair the routine raised on, or
    the error it raised) and its oracle's calls.
    """
    from texcorpus.comments import OverlappingMaximalComments, partition_maximal_comments, reference_oracle
    from texcorpus.errors import TexcorpusError

    times = []
    results = []
    calls = []
    for s in strings:
        oracle = reference_oracle()
        start = time.perf_counter()
        try:
            result = ("maximal", partition_maximal_comments(s, oracle))
        except OverlappingMaximalComments as exc:
            result = ("overlap", exc.first, exc.second)
        except TexcorpusError as exc:
            result = ("error", repr(exc))
        times.append((start, time.perf_counter()))
        results.append(result)
        calls.append(oracle.calls)
    return times, results, calls


def check_partition(strings: list[str], results: list, calls: list[int], reference: list, tally: Tally) -> None:
    """Exactly n(n+1)/2 oracle calls per string, and the same result every time.

    Each string is an operation, named by its text.
    """
    failed = []
    for k, s in enumerate(strings):
        n = len(s)
        if results[k][0] == "error":
            tally.error(f"partition n={n}: {results[k][1]}")
            failed.append(s)
        elif calls[k] != n * (n + 1) // 2:
            tally.wrong_output(f"partition n={n}: {calls[k]} oracle calls, expected {n * (n + 1) // 2}")
            failed.append(s)
        elif results[k] != reference[k]:
            tally.wrong_output(f"partition n={n}: result changed between passes")
            failed.append(s)
    tally.add("partition", strings, failed)
