"""texcorpus benchmark: harvest, extract and analyse seeded corpora.

    python3 perfbench/run.py --workload papers --seed 1 --seconds 60 --trace 0

Run it from the root of a source checkout; it imports the package from
``src/`` there and nowhere else. With ``--trace 0`` it times the pipeline
end to end: set-up, one harvest, then repeated passes of ``extract`` at
``--jobs 1`` and ``--jobs N`` (N = CPUs) and the four analysis subcommands,
until ``--seconds`` have passed. Between every two stages, partitioning
the oracle strings and repeating the set-up each keep a fixed share of the
run's time. Each metric is the mean of its samples. With ``--trace 1``
it makes the traced run of ``traced.py`` instead and reports per-layer
metrics.

Every metric is printed by name with its unit and sample count. The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. Full results, run metadata and any spans go to
``.perfbench_out/`` in the checkout; scratch files go to
``.perfbench_work/`` and are removed on exit.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import shutil
import sys
import time
from pathlib import Path

import corpus
import stages

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORK_DIR = ROOT / ".perfbench_work"
# Set-up runs this often before anything else, then again in the slots
# between two stages while it has had less than SETUP_SHARE of the time
# since the first pass began; setup_s is the mean of all its samples.
SETUP_FIRST_REPEATS = 5
SETUP_SHARE = 0.04
# Per workload: rounds of the four analysis commands after each extract
# pair, and the share of the run's time the slots give to partitioning.
# On hostile the analysis commands fail fast (extract writes nothing), so
# two rounds fit, and its long oracle strings need the larger share.
ANALYSIS_ROUNDS = {"papers": 1, "hostile": 2}
PARTITION_SHARE = {"papers": 0.08, "hostile": 0.15}

# Every end-to-end metric, in pipeline order. Three are printed but not
# listed in BENCHMARK.json: the two failure ratios are 0 on healthy input
# (failures are gated through the result's ``failed`` count), and harvest_s
# is mostly file creation, whose cost on a shared virtual disk varies
# several-fold from run to run.
END_TO_END = (
    "setup_s",
    "harvest_s",
    "harvest_failed_ratio",
    "extract_s",
    "extract_par_s",
    "extract_peak_rss_mb",
    "extract_failed_ratio",
    "stats_s",
    "discriminate_s",
    "trends_s",
    "classify_s",
    "partition_s",
)


def load_package() -> None:
    """Put the checkout's ``src/`` first on the path and check it is what imports."""
    if not (SRC / "texcorpus" / "__init__.py").is_file():
        raise SystemExit(f"error: no texcorpus sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import texcorpus

    if Path(texcorpus.__file__).resolve().parent != (SRC / "texcorpus").resolve():
        raise SystemExit(f"error: texcorpus imported from {texcorpus.__file__}, not {SRC}")


def inputs_digest(inputs: corpus.Inputs) -> str:
    digest = hashlib.sha256()
    for key in sorted(inputs.pages):
        digest.update(inputs.pages[key])
    for doc in inputs.docs():
        digest.update(doc.id.encode() + doc.payload)
    for s in inputs.oracle_strings:
        digest.update(s.encode())
    return digest.hexdigest()


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "texcorpus").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + path.read_bytes())
    return digest.hexdigest()[:16]


def commit() -> str | None:
    """HEAD of the checkout when it is a git repository, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def metadata(args: argparse.Namespace, inputs: corpus.Inputs) -> dict:
    import numpy

    valid = inputs.valid_docs()
    return {
        "record": "meta",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "jobs_n": stages.JOBS_N,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit(),
        "src_sha256": source_digest(),
        "documents_listed": len(inputs.docs()),
        "documents_valid": len(valid),
        "files": sum(len(doc.files) for doc in valid),
        "source_mb": round(sum(doc.source_bytes for doc in valid) / 1e6, 4),
        "oracle_strings": [len(s) for s in inputs.oracle_strings],
    }


# ---------------------------------------------------------------- end to end


class OracleRotation:
    """Partitions the oracle strings one at a time, in order, between stages.

    Each full round over the strings is one ``partition_s`` sample, the sum
    of their times, so a round's strings are timed at different moments of
    the run and the mean over rounds averages the machine's phases.
    """

    def __init__(self, strings: list[str], samples: stages.Samples, tally: stages.Tally):
        self.strings = strings
        self.samples = samples
        self.tally = tally
        self.reference: list = [None] * len(strings)
        self.next = 0
        self.round_s = 0.0
        self.rounds = 0
        self.spent_s = 0.0

    def step(self) -> None:
        k = self.next
        times, results, calls = stages.partition_all([self.strings[k]])
        if self.reference[k] is None:
            self.reference[k] = results[0]
        stages.check_partition([self.strings[k]], results, calls, [self.reference[k]], self.tally)
        seconds = times[0][1] - times[0][0]
        self.round_s += seconds
        self.spent_s += seconds
        self.next = (k + 1) % len(self.strings)
        if self.next == 0:
            self.samples.add("partition_s", self.round_s, "s")
            self.round_s = 0.0
            self.rounds += 1

    def finish(self) -> None:
        """Complete the round in progress, or make the first one."""
        while self.next or not self.rounds:
            self.step()


def extract_pass(store_dir: Path, docs: dict, stored: list[str], pass_dir: Path, env: dict, samples: stages.Samples, tally: stages.Tally, slot) -> stages.Extracted:
    """``extract`` at ``--jobs 1`` and ``--jobs N`` into a fresh pass directory."""
    shutil.rmtree(pass_dir, ignore_errors=True)
    pass_dir.mkdir(parents=True)
    extracted = stages.extract_both(store_dir, pass_dir, docs, stored, env, pass_dir / "children.log", tally, between=slot)
    samples.add("extract_s", extracted.runs[1].seconds, "s")
    samples.add("extract_par_s", extracted.runs[stages.JOBS_N].seconds, "s")
    samples.add("extract_peak_rss_mb", extracted.peak_rss_mb, "MB")
    if stored:
        samples.add("extract_failed_ratio", extracted.failed_docs / (2 * len(stored)), "ratio")
    return extracted


def analysis_round(extracted: stages.Extracted, pass_dir: Path, env: dict, samples: stages.Samples, tally: stages.Tally, slot) -> None:
    """The four analysis commands, each checked, on the pass's ``--jobs 1`` output."""
    features = extracted.outs[1] / "features.ndjson"
    n_features = len(stages.read_records(features, "texcorpus.features") or [])
    out_dir = pass_dir / "analysis"
    for metric, argv in stages.analysis_commands(features, extracted.outs[1] / "words.ndjson", out_dir):
        run = stages.run_child(argv, env, pass_dir / "children.log")
        samples.add(metric, run.seconds, "s")
        problem = stages.check_analysis(metric, out_dir, n_features) if run.code == 0 else None
        if run.code != 0:
            tally.error(f"{metric[:-2]}: exit {run.code}")
        elif problem:
            tally.wrong_output(problem)
        tally.one(metric[:-2], run.code == 0 and problem is None)
        slot()


def timed_setup(args: argparse.Namespace, samples: stages.Samples, digests: set[str]) -> tuple[corpus.Inputs, float]:
    """Generate the inputs once, as a setup_s sample; record their digest."""
    start = time.perf_counter()
    inputs = corpus.generate(args.workload, args.seed)
    seconds = time.perf_counter() - start
    samples.add("setup_s", seconds, "s")
    digests.add(inputs_digest(inputs))
    return inputs, seconds


def end_to_end(args: argparse.Namespace, work: Path) -> tuple[stages.Samples, stages.Tally, corpus.Inputs, dict]:
    from texcorpus.harvest import CorpusStore

    samples = stages.Samples()
    tally = stages.Tally()
    digests: set[str] = set()
    for _ in range(SETUP_FIRST_REPEATS):
        inputs = timed_setup(args, samples, digests)[0]
    # The inputs live for the whole run; keep the collector from walking
    # them during the in-process stages, which a user's process would not do.
    gc.collect()
    gc.freeze()

    # One harvest a run: every pass extracts from its store.
    store_dir = work / "store"
    harvested = stages.harvest(inputs, store_dir)
    samples.add("harvest_s", harvested.seconds, "s")
    samples.add("harvest_failed_ratio", stages.check_harvest(inputs, store_dir, harvested, tally), "ratio")
    docs = {doc.id: doc for doc in inputs.valid_docs()}
    stored = CorpusStore(store_dir).ids()

    oracle = OracleRotation(inputs.oracle_strings, samples, tally)
    partition_share = PARTITION_SHARE[args.workload]
    setup_s = [0.0]
    start = time.perf_counter()

    def slot() -> None:
        # set-up and partitioning keep their shares of the time so far
        elapsed = time.perf_counter() - start
        if setup_s[0] < SETUP_SHARE * elapsed:
            setup_s[0] += timed_setup(args, samples, digests)[1]
        while oracle.spent_s < partition_share * elapsed:
            oracle.step()

    # Passes of extract then analysis while a whole pass fits in the
    # window (the first always runs), then analysis rounds alone while
    # they fit.
    env = stages.child_env(SRC)
    pass_dir = work / "pass"
    deadline = start + args.seconds
    extracted = None
    extract_cost = analysis_cost = 0.0
    passes = rounds = 0
    words = 0
    while True:
        now = time.perf_counter()
        if extracted is None or now + extract_cost + analysis_cost <= deadline:
            extracted = extract_pass(store_dir, docs, stored, pass_dir, env, samples, tally, slot)
            words = extracted.words or words
            passes += 1
            extract_cost = time.perf_counter() - now
        elif now + analysis_cost > deadline:
            break
        begun = time.perf_counter()
        for _ in range(ANALYSIS_ROUNDS[args.workload]):
            analysis_round(extracted, pass_dir, env, samples, tally, slot)
            rounds += 1
        analysis_cost = time.perf_counter() - begun
    oracle.finish()
    if len(digests) != 1:
        tally.wrong_output("setup: the same seed generated different inputs")
    tally.one("setup", len(digests) == 1)
    extra = {"passes": passes, "analysis_rounds": rounds, "oracle_rounds": oracle.rounds, "words_written": words}
    return samples, tally, inputs, extra


# ---------------------------------------------------------------- main


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    load_package()
    OUT_DIR.mkdir(exist_ok=True)
    work = WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.trace:
            import traced

            samples, tally, inputs, extra = traced.traced_run(args, work, SRC, OUT_DIR)
            names = [name for name, _ in traced.PER_LAYER]
        else:
            samples, tally, inputs, extra = end_to_end(args, work)
            names = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass

    meta = metadata(args, inputs) | extra
    print(f"# texcorpus benchmark: workload={args.workload} seed={args.seed} trace={args.trace}")
    for name in names:
        if name in samples.values:
            print(samples.line(name))
        else:
            print(f"{name:24s} {'n/a':>12s}")
    for stage in tally.attempted:
        print(f"ops {stage:22s} attempted={len(tally.attempted[stage])} failed={len(tally.failed[stage])}")
    for message in tally.errors:
        print(f"error: {message}")
    for message in tally.wrong:
        print(f"WRONG: {message}")
    print(json.dumps(meta))

    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    declared = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    result = {
        "correct": not tally.wrong,
        "attempted": sum(map(len, tally.attempted.values())),
        "failed": sum(map(len, tally.failed.values())),
        "metrics": {
            name: {"value": samples.value(name), "unit": samples.units[name]}
            for name in declared
            if name in samples.values
        },
    }
    full = result | {"meta": meta, "samples": samples.values, "units": samples.units, "errors": tally.errors, "wrong": tally.wrong}
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(full, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
