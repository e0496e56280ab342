"""tools/bench_record.py on synthetic benchmark records."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"


@pytest.fixture
def bench_record(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool prepends perfbench/
    spec = importlib.util.spec_from_file_location("bench_record", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_record(directory: Path, sha: str, seed: int, items_per_s: float, setup_samples, starts, trace=0):
    record = {
        "workload": "limsup_bounds",
        "environment": {"git_sha": sha, "seed": seed, "src_sha256": f"src-{sha}", "nproc": 2, "python": "3.11.7"},
        "metrics": {"items_per_s": items_per_s},
        "fail_ratio": 0.0,
        "setup_samples_s": setup_samples,
        "setup_calibration_starts_s": starts,
    }
    (directory / f"limsup_bounds-seed{seed}-trace{trace}.json").write_text(json.dumps(record))


def test_summarises_runs_per_commit(bench_record, tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    for seed, rate in enumerate((1.0, 4.0, 2.0, 3.0)):
        write_record(parent, "aaa", seed, rate, [1.0, 3.0, 2.0], [0.5, 0.25, 1.0])
    for seed, rate in enumerate((60.0, 10.0, 20.0)):
        write_record(change, "bbb", seed, rate, [2.0], [2.0])
    # traced runs are not end-to-end measurements
    write_record(change, "bbb", 7, 1e9, [9.0], [1.0], trace=1)
    write_record(change, "ccc", 8, 1e9, [9.0], [1.0], trace=1)
    out = tmp_path / "out.json"

    bench_record.main(str(out), str(parent), str(change))

    doc = json.loads(out.read_text())
    assert doc["commits"] == {
        "aaa": {"src_sha256": "src-aaa", "seeds": [0, 1, 2, 3]},
        "bbb": {"src_sha256": "src-bbb", "seeds": [0, 1, 2]},
    }
    assert doc["hosts"] == [{"nproc": 2, "python": "3.11.7"}]
    metrics = doc["workloads"]["limsup_bounds"]
    assert metrics["items_per_s"] == {
        "aaa": {"median": 2.5, "q1": 1.75, "q3": 3.25, "runs": 4},
        "bbb": {"median": 20.0, "q1": 15.0, "q3": 40.0, "runs": 3},
    }
    # setup_s = median(samples) * START_REFERENCE_S / median(interpreter starts)
    ref = bench_record.START_REFERENCE_S
    assert metrics["setup_s"]["aaa"]["median"] == pytest.approx(4 * ref, rel=1e-15)
    assert metrics["setup_s"]["bbb"] == {"median": ref, "q1": ref, "q3": ref, "runs": 3}
    assert metrics["fail_ratio"]["aaa"]["runs"] == 4
