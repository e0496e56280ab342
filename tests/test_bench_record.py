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


def write_record(directory: Path, sha: str, seed: int, items_per_s: float, setup_samples, starts, trace=0, src=None,
                 **metrics):
    record = {
        "workload": "limsup_bounds",
        "environment": {"git_sha": sha, "seed": seed, "src_sha256": src or f"src-{sha}", "nproc": 2, "python": "3.11.7"},
        "metrics": {"items_per_s": items_per_s, **metrics},
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


def test_no_pairs_unless_two_commits(bench_record, tmp_path):
    dirs = []
    for k, sha in enumerate(("aaa", "bbb", "ccc")):
        dirs.append(tmp_path / f"run{k}")
        dirs[-1].mkdir()
        write_record(dirs[-1], sha, 7, 1.0, [1.0], [1.0])
    out = tmp_path / "out.json"
    for given in (dirs[:1], dirs):
        bench_record.main(str(out), *map(str, given))
        assert "pairs" not in json.loads(out.read_text())


def test_counts_pair_wins_in_the_order_the_dirs_are_given(bench_record, tmp_path):
    # (directory, commit, items_per_s, item_p50_ms); path order would pair the runs differently
    runs = [("c", "aaa", 10.0, 5.0), ("b", "bbb", 15.0, 4.0), ("a", "aaa", 20.0, 5.0), ("d", "bbb", 25.0, 5.0),
            ("f", "aaa", 30.0, 5.0), ("e", "bbb", 30.0, 6.0)]
    for name, sha, rate, p50 in runs:
        (tmp_path / name).mkdir()
        write_record(tmp_path / name, sha, 7, rate, [1.0], [1.0], item_p50_ms=p50)
    # a traced run of a third commit does not count
    write_record(tmp_path / "a", "ccc", 7, 1e9, [1.0], [1.0], trace=1)
    out = tmp_path / "out.json"
    dirs = [str(tmp_path / name) for name, *_ in runs]

    bench_record.main(str(out), *dirs)

    pairs = json.loads(out.read_text())["pairs"]
    assert (pairs["base"], pairs["other"]) == ("aaa", "bbb")
    spec = json.loads((TOOL.parents[1] / "BENCHMARK.json").read_text())
    counts = pairs["workloads"]["limsup_bounds"]
    assert set(counts) == {m["name"] for m in spec["end_to_end"]}
    # higher is better: 15 > 10 and 25 > 20 are wins, 30 = 30 a tie
    assert counts["items_per_s"] == {"won": 2, "lost": 0, "tied": 1}
    # lower is better: 4 < 5 wins, 5 = 5 ties, 6 > 5 loses
    assert counts["item_p50_ms"] == {"won": 1, "lost": 1, "tied": 1}
    # every run's setup_s is the same: three ties; a metric with no runs has no pairs
    assert counts["setup_s"] == {"won": 0, "lost": 0, "tied": 3}
    assert counts["peak_rss_mb"] == {"won": 0, "lost": 0, "tied": 0}

    # the first DIR's commit is the base
    bench_record.main(str(out), *dirs[1:], dirs[0])
    pairs = json.loads(out.read_text())["pairs"]
    assert (pairs["base"], pairs["other"]) == ("bbb", "aaa")
    # pairs now (15, 20), (25, 30), (30, 10): aaa wins the first two
    assert pairs["workloads"]["limsup_bounds"]["items_per_s"] == {"won": 2, "lost": 1, "tied": 0}


def test_one_commit_measured_from_two_sources_is_an_error(bench_record, tmp_path):
    # an uncommitted change measured in the parent's checkout carries the parent's git_sha
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    write_record(parent, "aaa", 7, 1.0, [1.0], [1.0])
    write_record(change, "aaa", 7, 2.0, [1.0], [1.0], src="src-edited")
    out = tmp_path / "out.json"

    with pytest.raises(SystemExit) as info:
        bench_record.main(str(out), str(parent), str(change))

    message = str(info.value.code)
    assert "aaa" in message and "src-aaa" in message and "src-edited" in message
    assert not out.exists()
    # the same source in both directories is one commit's runs, as before
    write_record(change, "aaa", 7, 2.0, [1.0], [1.0])
    bench_record.main(str(out), str(parent), str(change))
    assert json.loads(out.read_text())["workloads"]["limsup_bounds"]["items_per_s"]["aaa"]["runs"] == 2
