"""capatree benchmark: one seeded, closed-loop workload per run, outputs checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--workload all`` runs every workload one after another, and its last line
keys each metric as ``workload/metric``.

Run from the root of a source checkout; the package is imported from
``src/`` (nothing is installed).  Workloads and metrics are declared in
``BENCHMARK.json``; which end-to-end metric each per-layer metric should
move is recorded in ``perfbench/per_layer_moves.json``.

``--trace 0`` measures the end-to-end metrics with tracing off.  Set-up is
timed from outside: two set-up-only worker processes and the measuring
worker each report ``ready`` once interpreter start, ``import capatree``,
input generation and warm-up are done.  ``setup_s`` is the median of the
three, scaled to a reference speed like the item timings (see
``calibration.py``) by the median of interpreter starts timed right before
each set-up.  ``--trace 1`` runs the layer pass instead (see ``worker.py``)
and reports the per-layer metrics and, per workload, the tracing overhead.

Human-readable lines come first; the last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record
(environment, input properties, failures, spans) is written under
``.perfbench/``.  Exit status is nonzero, with no result line, when the
package sources are missing or a worker fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibration import START_REFERENCE_S, interpreter_start

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 170.0
SETUP_SAMPLES = 3
STARTS_PER_SETUP = 3


class BenchError(RuntimeError):
    pass


def source_fingerprint() -> dict:
    """Identify the measured code: git HEAD when present, and a hash of src/."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():  # else git would report an enclosing repository
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.SubprocessError):
            proc = None  # no git on this host
        if proc is not None and proc.returncode == 0:
            sha = proc.stdout.strip()
    return {"git_sha": sha, "src_sha256": digest.hexdigest()[:16]}


def start_worker(name: str, args, out_dir: Path, setup_only: bool) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its ``ready`` line; returns it and the set-up time."""
    env = {k: v for k, v in os.environ.items() if k != "CAPATREE_THREADS"}
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", name, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--out-dir", str(out_dir),
    ]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup_s = time.perf_counter() - t0
    if line.strip() != "ready":
        finish(proc, 5.0)
        raise BenchError(f"worker did not get ready (exit status {proc.returncode})")
    return proc, setup_s


def finish(proc: subprocess.Popen, timeout: float) -> str:
    """Read the rest of a worker's stdout and reap it, killing it past ``timeout``."""
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker exceeded the deadline and was stopped")
    return out


def measure(name: str, args, out_dir: Path) -> tuple[dict, list[float], list[float]]:
    """Run the workload's worker; returns its report, set-up times and calibration starts."""
    started = time.perf_counter()
    setups: list[float] = []
    starts: list[float] = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            starts += [interpreter_start() for _ in range(STARTS_PER_SETUP)]
            proc, setup_s = start_worker(name, args, out_dir, setup_only=True)
            finish(proc, DEADLINE_S - (time.perf_counter() - started))
            if proc.returncode != 0:
                raise BenchError(f"set-up worker failed with status {proc.returncode}")
            setups.append(setup_s)
        starts += [interpreter_start() for _ in range(STARTS_PER_SETUP)]
    proc, setup_s = start_worker(name, args, out_dir, setup_only=False)
    setups.append(setup_s)
    out = finish(proc, DEADLINE_S - (time.perf_counter() - started))
    if proc.returncode != 0:
        raise BenchError(f"worker failed with status {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no report")
    return json.loads(lines[-1]), setups, starts


def run_workload(name: str, args, declared: list[dict], out_dir: Path) -> dict:
    """Measure one workload, print its human-readable lines, return its result object."""
    report, setups, starts = measure(name, args, out_dir)
    measured = dict(report["metrics"])
    if not args.trace:
        measured["setup_s"] = statistics.median(setups) * START_REFERENCE_S / statistics.median(starts)
    missing = [m["name"] for m in declared if m["name"] not in measured]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")

    failures = report["failures"]
    attempted = report["attempted"]
    env = report["environment"] | source_fingerprint()
    record = {
        "workload": name,
        "trace": args.trace,
        "seconds": args.seconds,
        "setup_samples_s": setups,
        "setup_calibration_starts_s": starts,
        "fail_ratio": len(failures) / attempted,
    } | report | {"environment": env}
    tag = f"{name}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{tag}.json").write_text(json.dumps(record, indent=1, default=str))

    print(f"# capatree benchmark: workload={name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    if "input" in report:
        print("# input: " + json.dumps(report["input"], sort_keys=True))
    detail = report["detail"]
    if not args.trace:
        print(f"# timed: {detail['passes']} pass(es) of {detail['items_per_pass']} items, "
              f"{detail['timed_seconds']:.2f} s; tail at p{detail['tail_percentile']:.1f} "
              f"of {detail['samples']} samples ({detail['samples_beyond_tail']} beyond); "
              f"setup samples {', '.join(f'{s:.3f}' for s in setups)} s raw "
              f"(interpreter start median {1e3 * statistics.median(starts):.1f} ms); "
              f"peak RSS of the {detail['peak_rss_of']}")
        raw = detail["raw_wall_clock"]
        ref = detail["calibration_ms"]
        print("# raw wall clock: " + " ".join(f"{k}={v:.6g}" for k, v in raw.items())
              + f"; calibration min/median/max {ref[0]:.3f}/{ref[1]:.3f}/{ref[2]:.3f} ms"
              + f" (timings below are scaled to a {detail['calibration_at_reference_speed_ms']:.1f} ms calibration)")
    untraced = detail.get("tracer", {}).get("missing")
    if untraced:
        print("# not traced, no longer in the package (their metrics read 0): " + ", ".join(untraced))
    for m in declared:
        print(f"{m['name']:42s} {measured[m['name']]:>16.6g} {m['unit']}")
    print(f"{'fail_ratio':42s} {len(failures)}/{attempted}")
    for line in failures[:20]:
        print(f"# FAILED {line}")
    print(f"# record: {out_dir.relative_to(ROOT) / (tag + '.json')}")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in declared},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload of BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "capatree" / "__init__.py").is_file():
        print(f"perfbench: no capatree sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.workload != "all":
        names = [args.workload]
    elif args.trace:
        names = names[:1]  # the layer pass already runs a slice of every workload
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)

    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args, declared, out_dir)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
