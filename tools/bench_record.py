"""Summarise benchmark runs per commit into one JSON file.

    python3 tools/bench_record.py OUT.json DIR [DIR ...]

Each DIR is a ``.perfbench/`` directory written by ``perfbench/run.py``.
The untraced records (``*-trace0.json``) are grouped by the ``git_sha`` of
the checkout that ran them; for every workload, end-to-end metric and
commit, OUT.json gets the median, the quartiles and the number of runs.
Records of one commit whose ``src_sha256`` differ (a checkout with
uncommitted changes) stop the tool with an error naming both hashes.
``setup_s`` is recomputed from each record's set-up samples the way
``run.py`` computes it.

When the runs come from exactly two commits, OUT.json also gets ``pairs``:
the commit of the first DIR is the base, the k-th run of each commit (in
the order the DIRs are given) form the k-th pair, and for every workload
and end-to-end metric of ``BENCHMARK.json`` it counts the pairs the other
commit won, lost and tied, reading which way is better from that file.
Stdlib only.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
from calibration import START_REFERENCE_S  # noqa: E402


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "runs": len(values)}


def pair_wins(runs: dict, base: str, other: str, better: dict) -> dict:
    """Per workload and metric: pairs where ``other`` did better, worse, or the same as ``base``."""
    out = {}
    for workload, metrics in sorted(runs.items()):
        for name, direction in sorted(better.items()):
            by_sha = metrics.get(name, {})
            pairs = list(zip(by_sha.get(base, ()), by_sha.get(other, ())))
            sign = 1 if direction == "higher" else -1
            won = sum(sign * (b - a) > 0 for a, b in pairs)
            lost = sum(sign * (b - a) < 0 for a, b in pairs)
            out.setdefault(workload, {})[name] = {"won": won, "lost": lost, "tied": len(pairs) - won - lost}
    return out


def main(out_path: str, *dirs: str) -> None:
    runs = defaultdict(lambda: defaultdict(lambda: defaultdict(list)))  # workload -> metric -> sha -> values
    seeds, sources, hosts, order = defaultdict(set), {}, set(), []
    for path in (p for d in dirs for p in sorted(Path(d).glob("*-trace0.json"))):
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
        if sources.setdefault(sha, env["src_sha256"]) != env["src_sha256"]:  # an uncommitted change in that checkout
            raise SystemExit(f"{path}: commit {sha} ran two sources, {sources[sha]} and {env['src_sha256']}")
        hosts.add((env["nproc"], env["python"]))
        if sha not in order:
            order.append(sha)
    doc = {
        "commits": {sha: {"src_sha256": sources[sha], "seeds": sorted(seeds[sha])} for sha in sorted(sources)},
        "hosts": [{"nproc": nproc, "python": python} for nproc, python in sorted(hosts)],
        "workloads": {
            workload: {name: {sha: summary(v) for sha, v in sorted(by_sha.items())} for name, by_sha in sorted(m.items())}
            for workload, m in sorted(runs.items())
        },
    }
    if len(order) == 2:
        base, other = order
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        better = {m["name"]: m["better"] for m in spec["end_to_end"]}
        doc["pairs"] = {"base": base, "other": other, "workloads": pair_wins(runs, base, other, better)}
    Path(out_path).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if len(sys.argv) < 3:
        raise SystemExit(__doc__)
    main(*sys.argv[1:])
