import csv
import importlib
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from capatree import ConvergenceError, Exponents, Growth, cli, kappa_value
from conftest import comparability_reference, ratio_reference


def run_cli(capsys, argv):
    status = cli.main(argv)
    out = capsys.readouterr().out
    return status, out


def cli_process(argv, timeout=20):
    """``python -m capatree.cli argv`` in a fresh interpreter, killed after ``timeout`` seconds."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "capatree.cli", *argv], env=env, capture_output=True,
                          text=True, timeout=timeout)


def run_json(capsys, argv):
    status, out = run_cli(capsys, argv)
    return status, json.loads(out)


class TestSubcommands:
    def test_classify_geometric(self, capsys):
        status, doc = run_json(
            capsys, ["classify", "--a", "1/2", "--p", "2", "--family", "geometric", "--m", "1"]
        )
        assert status == 0
        assert doc["schema"] == "capatree/1"
        assert doc["result"]["outcome"] == "Positive"
        assert doc["result"]["condition"] == "(i)"
        assert doc["config"]["a"] == "1/2"

    def test_classify_full_union(self, capsys):
        status, doc = run_json(capsys, ["classify", "--a", "1/3", "--p", "3", "--family", "dobinski"])
        assert status == 0
        assert doc["result"]["outcome"] == "Zero"

    def test_cap_component_value(self, capsys):
        status, doc = run_json(
            capsys, ["cap-component", "--a", "1/2", "--p", "2", "--n", "1", "--kappa", "1"]
        )
        assert status == 0
        assert doc["result"]["value_linear"] == pytest.approx(0.4, rel=1e-12)

    def test_cap_cylinder(self, capsys):
        status, doc = run_json(
            capsys, ["cap-cylinder", "--a", "1/2", "--p", "2", "--set", '["0"]']
        )
        assert status == 0
        assert doc["result"]["value_linear"] == pytest.approx(1 / 3, rel=1e-12)
        assert doc["result"]["method"] == "recursion"

    def test_cap_cylinder_generators_round_trip(self, capsys):
        argv = ["cap-cylinder", "--a", "1/2", "--p", "2", "--set", '["1", "000", "01", "0110"]']
        _, doc = run_json(capsys, argv)
        assert doc["result"]["generators"] == ["000", "01", "1"]
        _, again = run_json(capsys, argv[:-1] + [json.dumps(doc["result"]["generators"])])
        assert again["result"] == doc["result"]

    def test_bounds(self, capsys):
        status, doc = run_json(
            capsys,
            ["bounds", "--a", "1/3", "--p", "3", "--family", "geometric", "--m", "1", "--n-max", "12"],
        )
        assert status == 0
        assert doc["result"]["upper_is_finite"] is True
        assert doc["result"]["lower"]["bound_kind"] == "lower"

    def test_ratios(self, capsys):
        status, doc = run_json(
            capsys,
            ["ratios", "--a", "1/2", "--p", "2", "--family", "geometric", "--m", "1", "--n-to", "16"],
        )
        assert status == 0
        assert doc["result"]["ratio_min"] == pytest.approx(1 / 3, rel=1e-12)
        assert doc["result"]["ratio_max"] == pytest.approx(1 / 3, rel=1e-12)

    def test_ratios_match_mpmath_for_kappa_past_2_to_the_798(self, capsys):
        # kappa_n = n 2**n: cap's log2 and the proxy's are both about -b kappa_n,
        # so the ratio cannot come from their difference
        argv = ["ratios", "--a", "3/25", "--p", "5/2", "--family", "growth", "--C", "1",
                "--beta", "1", "--gamma", "1", "--n-from", "789", "--n-to", "856"]
        status, doc = run_json(capsys, argv)
        assert status == 0
        e, spec = Exponents("3/25", "5/2"), Growth(1, 1, 1)
        rows = doc["result"]["rows"]
        ratios = [row.pop("ratio") for row in rows]
        assert rows == comparability_reference(e, (789, 856), spec)["rows"]
        for n, ratio in enumerate(ratios, 789):
            assert ratio == pytest.approx(ratio_reference(e, n, kappa_value(spec, n)), rel=1e-13, abs=0)
        assert (doc["result"]["ratio_min"], doc["result"]["ratio_max"]) == (min(ratios), max(ratios))

    def test_dimension(self, capsys):
        status, doc = run_json(
            capsys,
            [
                "dimension",
                "--family", "geometric", "--m", "2",
                "--ap-grid", "1/4,1/2,3/4,1",
                "--p-grid", "2,3",
            ],
        )
        assert status == 0
        assert doc["result"]["lower"] == "0"
        assert doc["result"]["upper"] == "0"
        assert len(doc["result"]["points"]) == 8

    def test_oracle_check(self, capsys):
        status, doc = run_json(capsys, ["oracle-check", "--seed", "3", "--count", "4", "--max-depth", "4"])
        assert status == 0
        assert doc["result"]["mismatches"] == 0
        assert doc["result"]["max_rel_diff"] <= 5e-5

    def test_circle_capacity(self, capsys):
        status, doc = run_json(capsys, ["circle-capacity", "--a", "1/2", "--p", "2"])
        assert status == 0
        assert doc["result"]["value"] == pytest.approx(0.71777, rel=1e-4)
        assert doc["result"]["quad_error"] < 1e-8

    def test_circle_capacity_has_no_tolerance_flag(self, capsys):
        # the closed form is exact to rounding, so there is nothing to tune
        _, doc = run_json(capsys, ["circle-capacity", "--a", "1/2", "--p", "2"])
        assert doc["config"] == {"command": "circle-capacity", "a": "1/2", "p": "2"}
        with pytest.raises(SystemExit) as exc:
            cli.main(["circle-capacity", "--a", "1/2", "--p", "2", "--tol", "1e-8"])
        assert exc.value.code == 2

    def test_product_identity(self, capsys):
        status, doc = run_json(capsys, ["product-identity", "--x", "1/3", "--N", "32"])
        assert status == 0
        assert doc["result"]["lhs_partial"] == pytest.approx(3.0, abs=1e-8)
        assert doc["result"]["rhs"] == pytest.approx(3.0, rel=1e-14)

    def test_run_lengths(self, capsys):
        status, doc = run_json(capsys, ["run-lengths", "--x", "7/16", "--N", "6"])
        assert status == 0
        entries = doc["result"]["entries"]
        assert entries[1] == {"n": 2, "s": 2}
        assert entries[4]["s"] == "inf"
        assert doc["result"]["score"] == "inf"


class TestOutputContract:
    def test_json_round_trips_through_own_schema(self, capsys):
        commands = [
            ["classify", "--a", "1/2", "--p", "2", "--family", "geometric", "--m", "3"],
            ["cap-component", "--a", "1/4", "--p", "2", "--n", "2", "--kappa", "2"],
            ["run-lengths", "--x", "1/5", "--N", "8"],
            ["dimension", "--family", "linear", "--C", "1", "--ap-grid", "1/2,1", "--p-grid", "2"],
        ]
        for argv in commands:
            _, out = run_cli(capsys, argv)
            reparsed = json.dumps(json.loads(out), sort_keys=True, indent=2)
            assert reparsed == out.strip()

    def test_csv_has_config_header(self, capsys):
        status, out = run_cli(
            capsys,
            ["ratios", "--a", "1/2", "--p", "2", "--family", "linear", "--C", "1",
             "--n-to", "4", "--format", "csv"],
        )
        assert status == 0
        lines = out.splitlines()
        assert lines[0] == "# schema=capatree/1"
        assert any(line.startswith("# a=1/2") for line in lines)
        assert "cap_log2" in lines[len([l for l in lines if l.startswith('#')])]

    def test_csv_null_kappa_is_an_empty_cell(self, capsys):
        # kappa_60 = 2**60 is past 2**53, so the JSON row carries "kappa": null
        status, out = run_cli(capsys, ["ratios", "--a", "1/2", "--p", "2", "--family", "geometric", "--m", "1",
                                       "--n-from", "60", "--n-to", "61", "--format", "csv"])
        assert status == 0
        rows = list(csv.DictReader(line for line in out.splitlines() if not line.startswith("#")))
        assert [(row["n"], row["kappa"]) for row in rows] == [("60", ""), ("61", "")]
        assert float(rows[0]["kappa_log2"]) == 60.0

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        status = cli.main(
            ["cap-component", "--a", "1/2", "--p", "2", "--n", "1", "--kappa", "1",
             "--output", str(target)]
        )
        assert status == 0
        doc = json.loads(target.read_text())
        assert doc["schema"] == "capatree/1"

    def test_oracle_check_deterministic(self, capsys):
        _, first = run_cli(capsys, ["oracle-check", "--seed", "5", "--count", "3", "--max-depth", "4"])
        _, second = run_cli(capsys, ["oracle-check", "--seed", "5", "--count", "3", "--max-depth", "4"])
        assert first == second


class TestExitCodes:
    def test_malformed_rational(self, capsys):
        assert cli.main(["cap-component", "--a", "half", "--p", "2", "--n", "1", "--kappa", "1"]) == 2

    def test_kappa_below_one(self, capsys):
        assert cli.main(["cap-component", "--a", "1/2", "--p", "2", "--n", "1", "--kappa", "0"]) == 2

    def test_dyadic_product_point(self, capsys):
        assert cli.main(["product-identity", "--x", "1/4", "--N", "8"]) == 2

    @pytest.mark.parametrize(
        "x", [f"{(1 << bits - 1) - 1}/{(1 << bits - 1) + 1}" for bits in (1023, 1024, 1025, 1330)]
        + [f"{10 ** 400 // 3}/{10 ** 400}"],
        ids=["1023-bits", "1024-bits", "1025-bits", "1330-bits", "third-of-10**400"],
    )
    def test_product_point_past_1022_denominator_bits(self, capsys, x):
        # pi * rem raised OverflowError (a traceback, exit 1) or met tan(inf)
        assert cli.main(["product-identity", "--x", x, "--N", "5"]) == 2
        assert capsys.readouterr().err.startswith("capatree: error: need a denominator of at most 1022 bits")

    def test_invalid_exponent_pair(self, capsys):
        assert cli.main(["classify", "--a", "3/4", "--p", "2", "--family", "geometric", "--m", "1"]) == 2

    @pytest.mark.parametrize(
        "table, tail_rule, field",
        [
            ("[[2, 3]]", '{"family": "geometric"}', "'m'"),
            ("[[2, 3]]", '{"family": "growth", "C": "1", "beta": "0"}', "'gamma'"),
            ("[[2, 3]]", '{"family": "power", "C": "1", "beta": [0]}', "'beta'"),
            ("[[2.5, 3]]", '{"family": "geometric", "m": 1}', "table n"),
            ("[[2, 3], [2.0, 4]]", '{"family": "geometric", "m": 1}', "duplicate"),
            ("[[2, true]]", '{"family": "geometric", "m": 1}', "table kappa"),
            ("[2, 3]", '{"family": "geometric", "m": 1}', "pairs"),
            ("[[2, 3]]", None, "'tail_rule'"),  # no --tail-rule
        ],
    )
    def test_bad_custom_family_is_an_error(self, capsys, table, tail_rule, field):
        argv = ["classify", "--a", "1/2", "--p", "2", "--family", "custom", "--table", table]
        if tail_rule is not None:
            argv += ["--tail-rule", tail_rule]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("capatree: error:") and field in err

    @pytest.mark.parametrize(
        "flags, field",
        [
            (["--family", "geometric"], "'m'"),
            (["--family", "growth", "--C", "1", "--beta", "0"], "'gamma'"),
            (["--family", "power", "--C", "1/0", "--beta", "0"], "'C'"),
        ],
        ids=["geometric-without-m", "growth-without-gamma", "malformed-C"],
    )
    def test_missing_or_malformed_family_flag_is_an_error(self, capsys, flags, field):
        assert cli.main(["classify", "--a", "1/2", "--p", "2", *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("capatree: error:") and field in err

    def test_run_lengths_past_the_double_exponent_range(self, capsys):
        status, doc = run_json(capsys, ["run-lengths", "--x", "1/5", "--N", "1030"])
        assert status == 0
        assert doc["result"]["score"] == 0.5

    @pytest.mark.parametrize("pair", [["--a", "1/2", "--p", "1." + "0" * 400 + "1"], ["--a", "1e-400", "--p", "1e400"],
                                      ["--a", "1e-400", "--p", "2"]], ids=["p'", "p", "ap"])
    @pytest.mark.parametrize("command", [["cap-component", "--n", "3", "--kappa", "2"], ["cap-cylinder", "--set", '["01"]'],
                                         ["classify", "--family", "geometric", "--m", "2"],
                                         ["bounds", "--family", "geometric", "--m", "2", "--n-max", "5"],
                                         ["ratios", "--family", "geometric", "--m", "2", "--n-to", "4"]],
                             ids=lambda argv: argv[0])
    def test_pair_past_the_double_range_is_an_error(self, capsys, command, pair):
        assert cli.main(command + pair) == 2
        err = capsys.readouterr().err
        assert err.startswith("capatree: error:") and "double range" in err

    @pytest.mark.parametrize("command", [["cap-component", "--n", "1", "--kappa", str(2**1010)],
                                         ["ratios", "--family", "geometric", "--m", "1", "--n-to", "3"],
                                         ["bounds", "--family", "geometric", "--m", "1", "--n-max", "3"]],
                             ids=lambda argv: argv[0])
    def test_run_rate_below_the_double_range_is_an_error(self, capsys, command):
        p = 1 + 2**1000
        pair = ["--a", str(Fraction(2**80 - 1, 2**81) / p), "--p", str(p)]
        assert cli.main(command + pair) == 2
        err = capsys.readouterr().err
        assert err.startswith("capatree: error: run rate q/v")
        status, doc = run_json(capsys, ["classify", "--family", "geometric", "--m", "1"] + pair)
        assert status == 0 and doc["result"]["outcome"] == "Zero"

    def test_run_lengths_of_a_cycle_past_the_digit_budget(self, capsys):
        assert cli.main(["run-lengths", "--x", "1/200003", "--N", "10"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("capatree: error:") and "binary digits" in err

    def test_run_lengths_count_is_capped(self, capsys):
        assert cli.main(["run-lengths", "--x", "1/3", "--N", "10001"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("capatree: error:") and "10000" in err

    @pytest.mark.parametrize("word, shown", [("10", "10"), ("1", "1"), ("1.5", "1.5"), ("true", "True"), ("null", "None")])
    def test_non_string_cylinder_word_is_an_error(self, capsys, word, shown):
        argv = ["cap-cylinder", "--a", "1/2", "--p", "2", "--set", f'["0", {word}]']
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("capatree: error:") and err.rstrip().endswith(f"got {shown}")

    @pytest.mark.parametrize("text", ['{"0": 1}', '"0"', "7"])
    def test_cylinder_set_must_be_a_json_array(self, capsys, text):
        assert cli.main(["cap-cylinder", "--a", "1/2", "--p", "2", "--set", text]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "capatree: error: cylinder set JSON must be an array of bit strings\n"

    @pytest.mark.parametrize(
        "flags",
        [
            ["cap-cylinder", "--a", "1/2", "--p", "2", "--set", '["0", '],
            ["classify", "--a", "1/2", "--p", "2", "--family", "custom", "--table", "[[2, 3]",
             "--tail-rule", '{"family": "geometric", "m": 1}'],
            ["classify", "--a", "1/2", "--p", "2", "--family", "custom", "--table", "[[2, 3]]",
             "--tail-rule", '{"family": "geometric", "m": '],
        ],
        ids=["set", "table", "tail-rule"],
    )
    def test_malformed_json_flag_is_an_error(self, capsys, flags):
        assert cli.main(flags) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("capatree: error: Expecting")

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--family", "geometric", "--m", "1", "--beta", "7"], "'beta'"),
            (["--family", "geometric", "--m", "1", "--tail-rule", '{"family": "linear", "C": "1"}'], "'tail_rule'"),
            (["--family", "linear", "--C", "1", "--m", "2"], "'m'"),
            (["--family", "power", "--C", "1", "--beta", "2", "--gamma", "1"], "'gamma'"),
            (["--family", "custom", "--table", "[[1, 2]]", "--C", "1",
              "--tail-rule", '{"family": "linear", "C": "1"}'], "'C'"),
            (["--family", "custom", "--table", "[[1, 2]]",
              "--tail-rule", '{"family": "linear", "C": "1", "beta": "2"}'], "'beta'"),
            (["--family", "dobinski", "--m", "1"], "--m"),
            (["--family", "dobinski", "--tail-rule", '{"family": "linear", "C": "1"}'], "--tail-rule"),
            (["--family", "dobinski", "--C", "1", "--gamma", "1"], "--C, --gamma"),
        ],
        ids=["geometric-beta", "geometric-tail-rule", "linear-m", "power-gamma", "custom-C",
             "tail-rule-beta", "dobinski-m", "dobinski-tail-rule", "dobinski-two"],
    )
    def test_family_flags_the_family_does_not_use_are_errors(self, capsys, flags, named):
        assert cli.main(["classify", "--a", "1/2", "--p", "2", *flags]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("capatree: error:") and named in err

    def test_empty_dimension_grid_is_an_error(self, capsys):
        argv = ["dimension", "--family", "geometric", "--m", "1", "--ap-grid", ",", "--p-grid", "2"]
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("capatree: error: empty exponent grid")

    def test_unwritable_output_is_a_usage_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "out.json"
        argv = ["cap-component", "--a", "1/2", "--p", "2", "--n", "1", "--kappa", "1", "--output", str(target)]
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("capatree: error:") and str(target) in err
        assert not target.exists()

    def test_unknown_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["classify", "--a", "1/2", "--p", "2", "--family", "geometric", "--m", "1", "--bogus"])
        assert exc.value.code == 2

    def test_oracle_mismatch_exits_three(self, capsys, monkeypatch):
        from capatree import oracle as oracle_module

        def fake_battery(**kwargs):
            return [
                {"index": 0, "depth": 2, "n_targets": 1, "a": "1/2", "p": "2",
                 "recursion": 0.5, "oracle": 0.7, "rel_diff": 0.4, "iterations": 10, "ok": False}
            ]

        monkeypatch.setattr(oracle_module, "agreement_battery", fake_battery)
        assert cli.main(["oracle-check", "--seed", "1", "--count", "1"]) == 3

    def test_oracle_convergence_failure_exits_three(self, capsys, monkeypatch):
        from capatree import oracle as oracle_module

        def no_convergence(*args, **kwargs):
            raise ConvergenceError("oracle gap 0.5 exceeds tol 1e-06")

        monkeypatch.setattr(oracle_module, "solve_capacity", no_convergence)
        assert cli.main(["oracle-check", "--seed", "1", "--count", "1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "capatree: oracle failure: oracle gap 0.5 exceeds tol 1e-06\n"

    @pytest.mark.parametrize(
        "command",
        [["classify"], ["bounds", "--n-max", "5"], ["dimension", "--ap-grid", "1/2,1", "--p-grid", "2"]],
        ids=["classify", "bounds", "dimension"],
    )
    def test_kappa_past_the_double_range_gives_a_null_trace_row(self, capsys, command):
        # kappa_16 = 2**1040 puts the subcritical statistic (16 - kappa_16)/2 past the double range
        family = ["--family", "growth", "--C", "1", "--beta", "0", "--gamma", "65"]
        exponents = [] if command[0] == "dimension" else ["--a", "1/4", "--p", "2"]
        status, out = run_cli(capsys, [*command, *exponents, *family])
        assert status == 0
        if command[0] == "classify":
            assert json.loads(out)["result"]["evidence"][-1] == {"exponent": None, "n": 16}

    def test_huge_power_exponent_fails_fast(self):
        # beta = 1e400 is the exact integer 10**400; n**beta ran without end
        proc = cli_process(["classify", "--a", "1/2", "--p", "2", "--family", "power", "--C", "1", "--beta", "1e400"])
        assert proc.returncode == 2
        assert proc.stderr.startswith("capatree: error: power family needs |beta| <= 2**16")

    def test_irrational_kappa_with_a_large_root_index_is_quick(self):
        # kappa_n = n**(65535/256) 2**(257 n) is the 256-th integer root of an integer of over a million bits
        proc = cli_process(["classify", "--a", "1/4", "--p", "2", "--family", "growth", "--C", "1",
                            "--beta", "65535/256", "--gamma", "257"])
        assert proc.returncode == 0
        result = json.loads(proc.stdout)["result"]
        assert result["outcome"] == "Zero"
        # from n = 3 on log2 kappa_n > 1170: those rows read null, and kappa_n is not formed
        assert [row["exponent"] is None for row in result["evidence"]] == [False] * 2 + [True] * 14

    def test_irrational_kappa_by_square_roots_is_quick(self):
        # kappa_n = n**(1/2) 2**(65535 n / 2) is the integer square root of an integer of up to a million bits
        proc = cli_process(["classify", "--a", "1/4", "--p", "2", "--family", "growth", "--C", "1",
                            "--beta", "1/2", "--gamma", "65535/2"], timeout=20)
        assert proc.returncode == 0
        result = json.loads(proc.stdout)["result"]
        assert result["outcome"] == "Zero"
        assert [row["exponent"] for row in result["evidence"]] == [None] * 16

    @pytest.mark.parametrize("beta, gamma", [("65535/256", "257"), ("1/2", "65535/2")])
    def test_critical_trace_past_the_double_range_is_quick(self, beta, gamma):
        # at ap = 1 a row with log2 kappa_n > 1088 reads n - (p-1) log2 kappa_n from its bound, unformed
        proc = cli_process(["classify", "--a", "1/2", "--p", "2", "--family", "growth", "--C", "1",
                            "--beta", beta, "--gamma", gamma], timeout=20)
        assert proc.returncode == 0
        rows = json.loads(proc.stdout)["result"]["evidence"]
        assert [row["n"] for row in rows] == list(range(1, 17))
        assert all(isinstance(row["log2_stat"], float) and math.isfinite(row["log2_stat"]) for row in rows)

    @pytest.mark.parametrize("command", [["ratios", "--n-to", "10000"], ["bounds", "--n-max", "10000"]],
                             ids=["ratios", "bounds"])
    def test_kappa_past_a_million_bits_fails_fast(self, command):
        # kappa_n = 2**(65536 n) has 2**20 bits at n = 16: past it no row is formed
        flags = ["--a", "1/2", "--p", "2", "--family", "growth", "--C", "1", "--beta", "0"]
        proc = cli_process([command[0], *flags, "--gamma", "65536", *command[1:]], timeout=20)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith("capatree: error: kappa_n reaches 2**6.5536e+08 for n in 1..10000")
        ends = {"ratios": ["--n-from", "16", "--n-to", "16"], "bounds": ["--n-max", "16"]}[command[0]]
        proc = cli_process([command[0], *flags, "--gamma", "65536", *ends], timeout=20)
        assert (proc.returncode, proc.stderr) == (0, "")

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--count", "0"], "count must be >= 1, got 0"),
            (["--max-depth", "0"], "max_depth must be in [1, 20], got 0"),
            (["--count", "1", "--max-depth", "21"], "max_depth must be in [1, 20], got 21"),
        ],
    )
    def test_oracle_check_arguments_are_checked_first(self, capsys, flags, message):
        assert cli.main(["oracle-check", *flags]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"capatree: error: {message}\n"

    @pytest.mark.parametrize("grid", ["0", "2,0", "1"])
    def test_dimension_p_at_most_one_is_an_error(self, capsys, grid):
        argv = ["dimension", "--family", "geometric", "--m", "1", "--ap-grid", "1", "--p-grid", grid]
        assert cli.main(argv) == 2
        bad = grid.split(",")[-1]
        assert capsys.readouterr().err == f"capatree: error: need p > 1, got p={bad}\n"

    def test_huge_n_max_is_rejected_at_once(self, capsys):
        argv = ["bounds", "--a", "1/3", "--p", "3", "--family", "geometric", "--m", "1", "--n-max", "100000000"]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith("capatree: error: n_max")

    @pytest.mark.parametrize(
        "argv",
        [
            ["cap-component", "--a", "1/2", "--p", "2", "--n", "1", "--kappa", "1"],
            ["ratios", "--a", "1/2", "--p", "2", "--family", "geometric", "--m", "1", "--n-to", "1000"],
        ],
        ids=["buffered", "longer-than-a-pipe"],
    )
    def test_closed_stdout_exits_one_without_a_traceback(self, argv):
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader is gone before the first write
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "capatree.cli", *argv],
                stdout=write_end, stderr=subprocess.PIPE, env=env, text=True, timeout=120,
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (1, "")

    def test_reader_closing_stdout_mid_stream_exits_one(self):
        # the reader takes one line of a 10 000-row document, then closes the pipe
        argv = ["ratios", "--a", "1/2", "--p", "2", "--family", "geometric", "--m", "1", "--n-to", "10000"]
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.Popen([sys.executable, "-m", "capatree.cli", *argv], stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, env=env, text=True)
        try:
            assert proc.stdout.readline() == "{\n"
            proc.stdout.close()
            stderr = proc.stderr.read()
            assert (proc.wait(timeout=120), stderr) == (1, "")
        finally:
            proc.kill()
            proc.wait()


def modules_after(code: str, packages: tuple[str, ...] = ("numpy", "scipy")) -> list[str]:
    """Run ``code`` in a fresh interpreter and return the modules of ``packages`` it loaded."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code += (
        "\nimport json, sys"
        f"\nprint(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] in {packages!r})))"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


# every subcommand but oracle-check, the one that needs numpy
NUMPY_FREE_COMMANDS = [
    ["cap-cylinder", "--a", "1/2", "--p", "2", "--set", '["0","10"]'],
    ["cap-component", "--a", "1/2", "--p", "2", "--n", "3", "--kappa", "2"],
    ["classify", "--a", "1/3", "--p", "3", "--family", "dobinski"],
    ["bounds", "--a", "1/3", "--p", "3", "--family", "geometric", "--m", "1", "--n-max", "12"],
    ["ratios", "--a", "1/2", "--p", "2", "--family", "geometric", "--m", "1", "--n-to", "16"],
    ["dimension", "--family", "geometric", "--m", "2", "--ap-grid", "1/2,1", "--p-grid", "2"],
    ["circle-capacity", "--a", "1/3", "--p", "2"],
    ["product-identity", "--x", "1/3", "--N", "32", "--format", "csv"],
    ["run-lengths", "--x", "7/16", "--N", "6"],
]


# the engine modules each subcommand runs, beyond the CLI's own
CLI_MODULES = {"capatree", "capatree.cli", "capatree.errors", "capatree.exponents"}
COMMAND_ENGINES = {
    "cap-cylinder": {"capatree.capacity", "capatree.tree"},
    "cap-component": {"capatree.capacity", "capatree.tree"},
    **dict.fromkeys(
        ("classify", "bounds", "ratios", "dimension"),
        {"capatree.capacity", "capatree.dobinski", "capatree.tree"},
    ),
    **dict.fromkeys(("circle-capacity", "product-identity", "run-lengths"), {"capatree.circle"}),
}

# every name the package root exports, by defining module
ROOT_EXPORTS = {
    "capacity": "BoundKind CapacityReport Method cap_component capacity_recursive finite_tree_capacity "
                "full_tree_capacity phi_apply sigma_closed_form truncated_tree_capacity",
    "circle": "DigitStream DyadicDensity RunLength circle_full_capacity kernel_integral membership_score "
              "product_identity riesz_potential run_lengths",
    "dobinski": "Custom DimensionBracket Geometric Growth Linear Outcome Power Verdict capacity_bounds classify "
                "comparability_report dimension_profile dobinski_full kappa_value spec_from_json spec_to_json",
    "errors": "ConvergenceError DomainError DyadicTangentPole",
    "exponents": "ApBranch Exponents LogValue as_fraction conjugate rel_error",
    "tree": "CylinderSet d_cylinder_set",
    "oracle": "FiniteProblem OracleResult agreement_battery emulated_infinite_problem solve_capacity",
}


class TestStartup:
    def test_import_loads_no_numpy_or_scipy(self):
        assert modules_after("import capatree\nimport capatree.cli") == []

    def test_import_loads_no_engine_module(self):
        assert modules_after("import capatree", ("capatree",)) == ["capatree"]

    @pytest.mark.parametrize("argv", NUMPY_FREE_COMMANDS, ids=lambda argv: argv[0])
    def test_command_loads_no_numpy_or_scipy(self, argv):
        code = f"import capatree.cli\nassert capatree.cli.main({argv!r}) == 0"
        assert modules_after(code) == []

    @pytest.mark.parametrize("argv", NUMPY_FREE_COMMANDS, ids=lambda argv: argv[0])
    def test_command_loads_no_dataclasses_or_inspect(self, argv):
        code = f"import capatree.cli\nassert capatree.cli.main({argv!r}) == 0"
        assert modules_after(code, ("dataclasses", "inspect")) == []

    @pytest.mark.parametrize("argv", NUMPY_FREE_COMMANDS, ids=lambda argv: argv[0])
    def test_command_loads_only_the_modules_it_runs(self, argv):
        code = f"import capatree.cli\nassert capatree.cli.main({argv!r}) == 0"
        assert modules_after(code, ("capatree",)) == sorted(CLI_MODULES | COMMAND_ENGINES[argv[0]])

    @pytest.mark.parametrize("module", sorted(ROOT_EXPORTS))
    def test_root_names_follow_their_modules(self, module, monkeypatch):
        import capatree

        owner = importlib.import_module(f"capatree.{module}")
        for name in ROOT_EXPORTS[module].split():
            assert getattr(capatree, name) is getattr(owner, name)
            assert name in dir(capatree)
            patched = object()
            monkeypatch.setattr(owner, name, patched)
            assert getattr(capatree, name) is patched

    def test_star_import_binds_the_root_names_without_numpy(self):
        expected = sorted(
            {name for module, names in ROOT_EXPORTS.items() if module != "oracle" for name in names.split()}
            | set(ROOT_EXPORTS) - {"oracle"}
        )
        code = (
            "ns = {}\nexec('from capatree import *', ns)"
            f"\nassert sorted(set(ns) - {{'__builtins__'}}) == {expected!r}"
        )
        assert modules_after(code) == []

    def test_oracle_names_resolve_and_load_numpy(self):
        loaded = modules_after("from capatree import solve_capacity\nassert callable(solve_capacity)")
        assert "numpy" in loaded

    def test_oracle_names_follow_the_oracle_module(self, monkeypatch):
        import capatree
        from capatree import oracle as oracle_module

        assert capatree.solve_capacity is oracle_module.solve_capacity
        monkeypatch.setattr(oracle_module, "solve_capacity", lambda *args, **kwargs: "patched")
        assert capatree.solve_capacity() == "patched"
        with pytest.raises(AttributeError):
            getattr(capatree, "no_such_name")

    def test_oracle_solve_does_not_load_scipy(self):
        code = (
            "from capatree import Exponents, FiniteProblem, solve_capacity; "
            "solve_capacity(FiniteProblem(3, ('000', '011', '101'), Exponents('1/3', 3)), tol=1e-8)"
        )
        assert modules_after(code, ("scipy",)) == []

    def test_riesz_potential_does_not_load_scipy(self):
        code = (
            "from capatree import DyadicDensity, riesz_potential; "
            "assert riesz_potential(DyadicDensity.indicator(0, 1, 2), 0.3, '1/3') > 0"
        )
        assert modules_after(code, ("scipy",)) == []
