"""One benchmark process: set up a workload, time it, check it, report.

Started by ``run.py``; not meant to be run by hand.  It prints ``ready`` once
set-up (interpreter start, ``import capatree``, input generation, warm-up) is
done, so the parent can time set-up from outside, and then, unless
``--setup-only``, one JSON report as its last stdout line.  The process
itself is the single caller of every closed loop: an item starts only after
the previous one returned.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import capatree  # noqa: E402
from capatree.capacity import phi_apply  # noqa: E402
from capatree.exponents import Exponents, LogValue  # noqa: E402

import tracer  # noqa: E402
from workloads import ORACLE_TOL, WORKLOADS, tree_shape  # noqa: E402

TAIL_BEYOND = 10

# The host's speed swings (see calibration.py), so the workload's fixed
# calibration work runs before each item, outside its timing, and the
# end-to-end timings are scaled to a fixed reference speed: latency *
# workload.calibration_s / (median duration of the calibration over the
# surrounding 2 * REF_WINDOW + 1 items).  Raw wall-clock values are reported
# alongside.
REF_WINDOW = 5


def run_items(workload, items, records, outputs=None) -> None:
    """Run ``items`` once in order; append (index, failure, seconds, calibration seconds).

    Each output is checked right after its timed span and then dropped, so
    the worker's memory does not grow with the number of passes that fit in
    the run; ``failure`` is None or a one-line reason.  The traced run passes
    ``outputs`` instead: outputs are kept there (None for an item that
    raised) and checked later by ``check_outputs``, after the tracer is
    removed, so the checks' own calls are not traced.
    """
    clock = time.perf_counter
    for index, item in enumerate(items):
        r0 = clock()
        workload.calibrate()
        t0 = clock()
        try:
            out, err = workload.run(item), None
        except Exception as exc:  # an item that raises is a failed item, not a failed run
            out, err = None, f"{type(exc).__name__}: {exc}"
        t1 = clock()
        if outputs is not None:
            outputs.append(out)
        elif err is None:
            err = workload.check(item, out)
        failure = None if err is None else f"{workload.name}[{index}] {item.kind}: {err}"
        records.append((index, failure, t1 - t0, t0 - r0))


def check_outputs(workload, items, records, outputs) -> None:
    """Fill in the failures of records whose outputs ``run_items`` kept unchecked."""
    for k, ((index, failure, *times), out) in enumerate(zip(records, outputs)):
        if failure is None:
            err = workload.check(items[index], out)
            if err is not None:
                records[k] = (index, f"{workload.name}[{index}] {items[index].kind}: {err}", *times)
                outputs[k] = None


def at_reference_speed(records, reference_s: float) -> list[float]:
    refs = [r[3] for r in records]
    return [
        r[2] * reference_s / statistics.median(refs[max(0, i - REF_WINDOW) : i + REF_WINDOW + 1])
        for i, r in enumerate(records)
    ]


def failures_of(records) -> list[str]:
    return [r[1] for r in records if r[1] is not None]


def tail_percentile(workload) -> float:
    """Percentile with TAIL_BEYOND of ``workload.tail_samples`` samples beyond it.

    Fixed per workload, never taken from how many passes fit in the run, so a
    faster program is not measured at a higher percentile.  Every run takes
    at least ``tail_samples`` samples, so at least TAIL_BEYOND lie beyond.
    """
    assert workload.tail_samples <= workload.min_passes * len(workload.items)
    return 100.0 * (1.0 - TAIL_BEYOND / workload.tail_samples)


def quantile(ordered: list[float], q: float) -> float:
    """Linear interpolation between order statistics (q in [0, 1])."""
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def timed_run(workload, seconds: float) -> dict:
    """Closed loop over whole passes of the workload's input set."""
    items = workload.items
    n = len(items)
    records: list = []
    limit = min(6 * seconds, 120.0)  # guard so a much slower program still ends in time
    start = time.perf_counter()
    while True:
        run_items(workload, items, records)
        # the timed phase: items and their calibrations, not the checks between them
        elapsed = sum(r[2] + r[3] for r in records)
        passes = len(records) // n
        if passes >= workload.min_passes and elapsed * (passes + 1) / passes > seconds:
            break
        if time.perf_counter() - start > limit:
            break
    rss_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rss_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    pct = tail_percentile(workload)

    def summary(latency: list[float]) -> dict:
        ordered = sorted(latency)
        pass_s = [sum(latency[k * n : (k + 1) * n]) for k in range(passes)]
        return {
            "items_per_s": statistics.median(n / t for t in pass_s),
            "item_p50_ms": 1e3 * quantile(ordered, 0.5),
            "item_tail_ms": 1e3 * quantile(ordered, pct / 100.0),
        }

    raw = [r[2] for r in records]
    scaled = at_reference_speed(records, workload.calibration_s)
    tail = quantile(sorted(scaled), pct / 100.0)
    in_children = workload.runs_in_children
    refs = [r[3] for r in records]
    return {
        "metrics": summary(scaled)
        | {"peak_rss_mb": (rss_children if in_children else rss_self) / 1024.0},
        "detail": {
            "passes": passes,
            "items_per_pass": n,
            "timed_seconds": elapsed,
            "tail_percentile": pct,
            "samples": len(records),
            "samples_beyond_tail": sum(t > tail for t in scaled),
            "raw_wall_clock": summary(raw),
            "calibration_ms": [1e3 * min(refs), 1e3 * statistics.median(refs), 1e3 * max(refs)],
            "calibration_at_reference_speed_ms": 1e3 * workload.calibration_s,
            "latency_s": raw,
            "calibration_s": refs,
            "peak_rss_of": "largest child process" if in_children else "worker process",
        },
        "attempted": len(records),
        "failures": failures_of(records),
    }


def microbench(fn, loops: int = 20000, repeats: int = 5) -> float:
    """Median ns per call of ``fn`` over fixed-input loops (tracing off)."""
    per_call = []
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        for _ in range(loops):
            fn()
        per_call.append((time.perf_counter_ns() - t0) / loops)
    return statistics.median(per_call)


def traced_run(workloads: dict, out_dir: Path) -> dict:
    """The layer pass: each workload's slice, once untraced and once traced."""
    x, y = LogValue.from_log2(1.5), LogValue.from_log2(-2.25)
    one, e = LogValue.one(), Exponents("1/2", 2)
    metrics = {
        "exponents.logvalue_add_ns": microbench(lambda: x + y),
        "capacity.phi_apply_ns": microbench(lambda: phi_apply(one, x, e)),
    }
    rec = tracer.Tracer()
    outputs_by: dict[str, list] = {}
    failures: list[str] = []
    attempted = 0
    child_imports: list[float] = []
    child_spans: list = []
    untraced_s: dict[str, float] = {}
    for name, workload in workloads.items():
        items = workload.items[: workload.slice_size]
        plain: list = []
        if not workload.runs_in_children:
            # a discarded pass, so first-touch costs do not land on the untraced side
            run_items(workload, items, [])
        run_items(workload, items, plain)
        untraced_s[name] = sum(r[2] for r in plain)
        traced: list = []
        outputs: list = []
        if workload.runs_in_children:
            with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
                workload.trace_dir = Path(tmp)
                run_items(workload, items, traced, outputs)
                workload.trace_dir = None
                for path in sorted(Path(tmp).glob("child-*.json")):
                    child = json.loads(path.read_text())
                    rec.merge(child)
                    child_imports.append(child["import_s"])
                    child_spans.append(child["spans"])
        else:
            undo = tracer.install(rec)
            try:
                run_items(workload, items, traced, outputs)
            finally:
                undo()
        check_outputs(workload, items, traced, outputs)
        traced_s = sum(r[2] for r in traced)
        failures += failures_of(plain + traced)
        attempted += len(plain) + len(traced)
        outputs_by[name] = outputs
        n = len(items)
        metrics[f"trace.{name}.items_per_s_delta"] = n / untraced_s[name] - n / traced_s

    cyl = workloads["cylinder_exact"]
    cyl_items = cyl.items[: cyl.slice_size]
    shapes = [tree_shape(item.args[0]) for item in cyl_items]
    nodes = sum(s[0] for s in shapes)
    oracle_rows = [
        (item.facts["depth"], out)
        for item, out in zip(workloads["oracle_battery"].items, outputs_by["oracle_battery"])
        if out is not None
    ]
    bounds = [
        (item, out)
        for item, out in zip(workloads["limsup_bounds"].items, outputs_by["limsup_bounds"])
        if out is not None and item.kind.startswith("bounds")
    ]
    # capacity_bounds makes one cap_component call per n <= n_max for its
    # lower bound; every further call under it is a tail term
    bounds_calls = rec.edges[("dobinski.capacity_bounds", "capacity.cap_component")]
    solves = len(oracle_rows)
    metrics |= {
        "exponents.logvalue_add.calls": rec.counts["exponents.logvalue_add"],
        "tree.from_words.self_s": rec.self_s("tree.from_words"),
        "tree.spanning_nodes.self_s": rec.self_s("tree.spanning_nodes"),
        "capacity.phi_apply.calls": rec.calls("capacity.phi_apply"),
        "capacity.phi_apply.self_s": rec.self_s("capacity.phi_apply"),
        "capacity.capacity_recursive.calls": rec.calls("capacity.capacity_recursive"),
        "capacity.capacity_recursive.self_s": rec.self_s("capacity.capacity_recursive"),
        "capacity.spanning_nodes": nodes,
        "capacity.chain_node_share": sum(s[1] for s in shapes) / nodes,
        "capacity.ns_per_node": 1e9 * untraced_s["cylinder_exact"] / nodes,
        "capacity.finite_tree_capacity.self_s": rec.self_s("capacity.finite_tree_capacity"),
        "capacity.cap_component.calls": rec.calls("capacity.cap_component"),
        "capacity.cap_component.self_s": rec.self_s("capacity.cap_component"),
        "oracle.solve_capacity.calls": rec.calls("oracle.solve_capacity"),
        "oracle.solve_capacity.self_s": rec.self_s("oracle.solve_capacity"),
        "oracle.evaluations": sum(out["iterations"] for _, out in oracle_rows),
        "oracle.evals_per_solve": sum(out["iterations"] for _, out in oracle_rows) / max(solves, 1),
        "oracle.minimize.calls": rec.calls("oracle.minimize"),
        "oracle.rel_diff_max": max((out["rel_diff"] for _, out in oracle_rows), default=0.0),
        "oracle.ok_ratio": sum(out["rel_diff"] <= 5 * ORACLE_TOL for _, out in oracle_rows) / max(solves, 1),
        "dobinski.classify.self_s": rec.self_s("dobinski.classify"),
        "dobinski.capacity_bounds.self_s": rec.self_s("dobinski.capacity_bounds"),
        "dobinski.comparability_report.self_s": rec.self_s("dobinski.comparability_report"),
        "dobinski.dimension_profile.self_s": rec.self_s("dobinski.dimension_profile"),
        "dobinski.kappa_value.calls": rec.calls("dobinski.kappa_value"),
        "dobinski.kappa_value.self_s": rec.self_s("dobinski.kappa_value"),
        "dobinski.tail_terms": bounds_calls - sum(item.args[2] for item, _ in bounds),
        "dobinski.upper_none_share": sum(out[1] is None for _, out in bounds) / max(len(bounds), 1),
        "circle.kernel_integral.self_s": rec.self_s("circle.kernel_integral"),
        "circle.quad.calls": rec.calls("circle.quad"),
        "circle.product_identity.self_s": rec.self_s("circle.product_identity"),
        "circle.run_lengths.self_s": rec.self_s("circle.run_lengths"),
        "cli.import_s": statistics.median(child_imports) if child_imports else 0.0,
        "cli.main.self_s": rec.self_s("cli.main"),
    }
    for depth in range(1, 9):
        times = [out["solve_s"] for d, out in oracle_rows if d == depth]
        metrics[f"oracle.solve_ms.depth_{depth}"] = 1e3 * statistics.median(times) if times else 0.0
    return {
        "metrics": metrics,
        "detail": {
            "slices": {n: w.slice_size for n, w in workloads.items()},
            "tracer": rec.dump(),
            "cli_child_spans": child_spans,
        },
        "attempted": attempted,
        "failures": failures,
    }


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "capatree": capatree.__version__,
        "CAPATREE_THREADS": os.environ.get("CAPATREE_THREADS"),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    if args.trace:
        # the layer pass reaches every layer, so it sets up every workload
        workloads = {name: cls(args.seed, ROOT) for name, cls in WORKLOADS.items()}
    else:
        workloads = {args.workload: WORKLOADS[args.workload](args.seed, ROOT)}
    for workload in workloads.values():
        workload.warm_up()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    if args.trace:
        report = traced_run(workloads, args.out_dir)
    else:
        workload = workloads[args.workload]
        report = timed_run(workload, args.seconds)
        report["input"] = workload.properties()
    report["environment"] = environment(args.seed)
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
