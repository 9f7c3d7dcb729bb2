"""Self-tests of the benchmark. Run from the root of a checkout:

    python3 -m pytest perfbench/selftest.py

They cover the generator's determinism, the correctness checks, and a
one-pass run of every workload in both modes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import corpus  # noqa: E402
import stages  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def store_bytes(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_same_seed_gives_byte_identical_store(workload, tmp_path):
    stores = {}
    for name, seed in (("a", 7), ("b", 7), ("c", 8)):
        stages.harvest(corpus.generate(workload, seed), tmp_path / name / "store")
        stores[name] = store_bytes(tmp_path / name / "store")
    assert stores["a"] == stores["b"]
    assert stores["a"] != stores["c"]


def test_hostile_faults_sit_where_their_stage_reaches_them_last():
    inputs = corpus.generate("hostile", 3)
    math = inputs.listings["math.CO"]
    assert math[-1].id in inputs.faults.connection_error
    stored_ids = sorted(doc.id for doc in inputs.valid_docs() if doc.id not in inputs.faults.connection_error)
    chain = [doc for doc in inputs.valid_docs() if doc.shape == "input-chain-1200"]
    assert chain and stored_ids[-1] == chain[0].id
    assert sorted(doc.shape for doc in inputs.rejected_docs()) == ["corrupt-gzip", "path-traversal", "pdf"]


def test_oracle_strings_have_fixed_lengths_and_some_overlaps():
    from texcorpus.comments import OverlappingMaximalComments, partition_maximal_comments, reference_oracle

    strings = corpus.generate("hostile", 5).oracle_strings
    assert [len(s) for s in strings] == list(corpus.ORACLE_LENGTHS["hostile"])
    overlaps = 0
    for s in strings[:4]:
        try:
            partition_maximal_comments(s, reference_oracle())
        except OverlappingMaximalComments:
            overlaps += 1
    assert overlaps >= 1


def test_check_extract_counts_a_wrong_planted_count(tmp_path):
    inputs = corpus.generate("papers", 2)
    store_dir = tmp_path / "store"
    stages.harvest(inputs, store_dir)
    out = tmp_path / "out"
    run = stages.run_child(stages.extract_argv(store_dir, out, 1), stages.child_env(ROOT / "src"), tmp_path / "log")
    docs = {doc.id: doc for doc in inputs.valid_docs()}
    ids = sorted(docs)
    tally = stages.Tally()
    assert stages.check_extract(docs, ids, out, run, tally, "extract")[0] == 0
    assert not tally.wrong

    lines = (out / "features.ndjson").read_text().splitlines()
    record = json.loads(lines[1])
    record["packages"] += 1
    lines[1] = json.dumps(record)
    (out / "features.ndjson").write_text("\n".join(lines) + "\n")
    tally = stages.Tally()
    assert stages.check_extract(docs, ids, out, run, tally, "extract")[0] == 1
    assert tally.wrong and len(tally.failed["extract"]) == 1
    # a repetition counts the same operations again, not new ones
    stages.check_extract(docs, ids, out, run, tally, "extract")
    assert len(tally.attempted["extract"]) == len(ids) and len(tally.failed["extract"]) == 1


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_one_pass_reports_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "1", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    assert list(result["metrics"]) == list(declared)
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    if trace:
        assert result["metrics"]["trace.overhead_s"]["value"] > 0
        lengths = corpus.ORACLE_LENGTHS[workload]
        assert result["metrics"]["comments.partition.oracle_calls"]["value"] == sum(n * (n + 1) // 2 for n in lengths)


def test_refuses_to_run_without_sources(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "papers", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
