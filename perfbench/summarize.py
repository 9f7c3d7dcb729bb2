"""Summarize benchmark results into one BENCH file.

    python3 perfbench/summarize.py .perfbench_out > BENCH_<date>.json
    python3 perfbench/summarize.py set-a set-b > BENCH_<date>.json

Reads every ``<workload>-seed<n>-trace<t>.json`` the runs left in the
directory and writes, per workload, the median over the runs of each
metric's run value (the mean of the run's samples, as ``run.py`` reports
it), its quartiles and its spread (the distance between the quartiles as a
share of the median), with the runs' metadata and failure counts. Every
sampled metric is included, also those BENCHMARK.json does not bound.

Given several directories, one set of runs each, it writes each set's
summary under ``sets`` and, under ``shift``, how far each end-to-end
metric's median in every later set lies from the first set's, as a share
of the first.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def summarize(results: list[dict]) -> dict:
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    for result in results:
        units.update(result.get("units", {}))
        units.update({name: metric["unit"] for name, metric in result["metrics"].items()})
        for name, samples in result["samples"].items():
            values.setdefault(name, []).append(statistics.mean(samples))
    metrics = {}
    for name, vals in values.items():
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        metrics[name] = {
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else None,
            "unit": units.get(name),
            "runs": len(vals),
        }
    meta = results[0]["meta"]
    return {
        "seeds": sorted(r["meta"]["seed"] for r in results),
        "correct": all(r["correct"] for r in results),
        "attempted": [r["attempted"] for r in results],
        "failed": [r["failed"] for r in results],
        "metrics": metrics,
        "meta": {k: v for k, v in meta.items() if k not in ("seed", "record")},
        "errors": sorted({e for r in results for e in r["errors"]}),
        "wrong": sorted({w for r in results for w in r["wrong"]}),
    }


def summarize_dir(directory: str) -> dict:
    groups: dict[tuple[str, int], list[dict]] = {}
    for path in sorted(Path(directory).glob("*-seed*-trace*.json")):
        result = json.loads(path.read_text())
        groups.setdefault((result["meta"]["workload"], result["meta"]["trace"]), []).append(result)
    out: dict = {}
    for (workload, trace), results in sorted(groups.items()):
        out.setdefault(workload, {})["per_layer" if trace else "end_to_end"] = summarize(results)
    return out


def shifts(first: dict, later: dict) -> dict:
    out: dict = {}
    for workload, modes in later.items():
        base = first.get(workload, {}).get("end_to_end", {}).get("metrics", {})
        for name, metric in modes.get("end_to_end", {}).get("metrics", {}).items():
            if base.get(name, {}).get("median"):
                out.setdefault(workload, {})[name] = metric["median"] / base[name]["median"] - 1
    return out


def main(directories: list[str]) -> int:
    sets = [summarize_dir(d) for d in directories]
    if len(sets) == 1:
        out = sets[0]
    else:
        out = {"sets": dict(zip(directories, sets)), "shift": [shifts(sets[0], later) for later in sets[1:]]}
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or [".perfbench_out"]))
