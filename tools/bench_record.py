"""Summarise benchmark runs per commit into one JSON file.

    python3 tools/bench_record.py OUT.json DIR [DIR ...]

Each DIR is a ``.perfbench/`` directory written by ``perfbench/run.py``.
The untraced records (``*-trace0.json``) are grouped by the ``git_sha`` of
the checkout that ran them; for every workload, end-to-end metric and
commit, OUT.json gets the median, the quartiles and the number of runs.
``setup_s`` is recomputed from each record's set-up samples the way
``run.py`` computes it.  Stdlib only.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from calibration import START_REFERENCE_S  # noqa: E402


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "runs": len(values)}


def main(out_path: str, *dirs: str) -> None:
    runs = defaultdict(lambda: defaultdict(lambda: defaultdict(list)))  # workload -> metric -> sha -> values
    seeds, sources, hosts = defaultdict(set), {}, set()
    for path in sorted(p for d in dirs for p in Path(d).glob("*-trace0.json")):
        record = json.loads(path.read_text())
        env = record["environment"]
        sha = env["git_sha"] or "unknown"
        metrics = dict(record["metrics"], fail_ratio=record["fail_ratio"])
        metrics["setup_s"] = (
            statistics.median(record["setup_samples_s"])
            * START_REFERENCE_S
            / statistics.median(record["setup_calibration_starts_s"])
        )
        for name, value in metrics.items():
            runs[record["workload"]][name][sha].append(value)
        seeds[sha].add(env["seed"])
        sources[sha] = env["src_sha256"]
        hosts.add((env["nproc"], env["python"]))
    doc = {
        "commits": {sha: {"src_sha256": sources[sha], "seeds": sorted(seeds[sha])} for sha in sorted(sources)},
        "hosts": [{"nproc": nproc, "python": python} for nproc, python in sorted(hosts)],
        "workloads": {
            workload: {name: {sha: summary(v) for sha, v in sorted(by_sha.items())} for name, by_sha in sorted(m.items())}
            for workload, m in sorted(runs.items())
        },
    }
    Path(out_path).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if len(sys.argv) < 3:
        raise SystemExit(__doc__)
    main(*sys.argv[1:])
