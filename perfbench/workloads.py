"""Seeded inputs, the timed call and the output checks of each workload.

Every input comes from the generators here, seeded by ``--seed``; none comes
from the package's own generators (``oracle.random_problem``,
``tree.d_cylinder_set``), so a later change to the package cannot change what
a workload feeds it.  A workload is a fixed list of items, one pass; the timed
loop repeats passes.  The composition of a pass is fixed (the seed only draws
parameters inside each stratum), so run-to-run spread reflects the program,
not a change of input mix.  The first ``slice_size`` items cover every input
class; the traced run uses them.

Checks run outside the timed span and hold for any correct implementation:
identities from the paper's acceptance criteria, symmetries, and agreement
with the in-process library.  A failed check counts against ``fail_ratio``;
it never aborts the run.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction as F
from pathlib import Path

from capatree import capacity, circle, dobinski, oracle, tree
from capatree.exponents import Exponents, LogValue

from calibration import REFERENCE_S, START_REFERENCE_S, interpreter_start, reference_loop

_LN2 = math.log(2.0)

# The criterion-3 exponent grid: p in {3/2, 2, 3} x ap in {1, 1/2}.
GRID = tuple((ap / p, p) for p in (F(3, 2), F(2), F(3)) for ap in (F(1), F(1, 2)))


def rel(u: LogValue, v: LogValue) -> float:
    """|u/v - 1| for two positive log-domain values."""
    return abs(math.expm1((u.log2 - v.log2) * _LN2))


def antichain(words) -> list[str]:
    """Drop every word that has a kept prefix (independent of ``CylinderSet``)."""
    kept: list[str] = []
    for w in sorted(set(words)):
        if not (kept and w.startswith(kept[-1])):
            kept.append(w)
    return kept


def tree_shape(words) -> tuple[int, int]:
    """(spanning nodes, nodes with exactly one child) of a generator antichain."""
    gens = antichain(words)
    nodes = {""}
    for g in gens:
        nodes.update(g[:i] for i in range(1, len(g) + 1))
    generators = set(gens)
    one_child = sum(
        1
        for x in nodes
        if x not in generators and ((x + "0") in nodes) != ((x + "1") in nodes)
    )
    return len(nodes), one_child


@dataclass
class Item:
    kind: str
    args: tuple
    facts: dict = field(default_factory=dict)


class Workload:
    name = ""
    slice_size = 0
    # every timed run repeats the whole input set at least this often
    min_passes = 3
    # item_tail_ms is read at the percentile with 10 of this many samples
    # beyond it: one pass, unless a pass holds too few slow items
    tail_samples = 0
    # duration of ``calibrate`` at the reference speed (see calibration.py)
    calibration_s = REFERENCE_S
    # items run in child processes, traced through cli_child.py
    runs_in_children = False

    def __init__(self, seed: int, root: Path):
        self.root = root
        self.rng = random.Random(f"{self.name}:{seed}")
        self.items: list[Item] = self.generate()
        self._refs: dict[int, object] = {}

    def generate(self) -> list[Item]:
        raise NotImplementedError

    def warm_up(self) -> None:
        """Fill caches and finish lazy imports before anything is timed."""

    def calibrate(self) -> None:
        """Fixed work timed before each item, to scale timings to a reference speed."""
        reference_loop()

    def run(self, item: Item):
        raise NotImplementedError

    def check(self, item: Item, out) -> str | None:
        """None when ``out`` is correct, else a one-line reason."""
        raise NotImplementedError

    def properties(self) -> dict:
        """Shares of the input with the properties later optimisations depend on."""
        return {}

    def expected(self, item: Item, compute):
        key = id(item)
        if key not in self._refs:
            self._refs[key] = compute()
        return self._refs[key]


# ----------------------------------------------------------------------
# cylinder_exact: capacity_recursive on generated finite unions of cylinders
# ----------------------------------------------------------------------

class CylinderExact(Workload):
    name = "cylinder_exact"
    slice_size = 18
    tail_samples = 54

    def generate(self) -> list[Item]:
        rng = self.rng
        exps = [Exponents(a, p) for a, p in GRID]
        items = []
        for k in range(3 * len(exps)):
            e = exps[k % len(exps)]
            # D(n, kappa) with kappa >> n: every n-bit word followed by kappa zeros
            n = 4 + k % 4
            kappa = rng.randint(4 * n, 8 * n)
            words = tuple(format(i, f"0{n}b") + "0" * kappa for i in range(2 ** n))
            items.append(Item("run", (words, e), {"n": n, "kappa": kappa}))
            # antichain of random words of length 16..40
            words = tuple(
                "".join(rng.choice("01") for _ in range(rng.randint(16, 40)))
                for _ in range(rng.randint(60, 140))
            )
            items.append(Item("antichain", (words, e)))
            # dense: half of all depth-10..13 words
            d = 10 + k % 4
            words = tuple(format(i, f"0{d}b") for i in sorted(rng.sample(range(2 ** d), 2 ** (d - 1))))
            items.append(Item("dense", (words, e)))
        return items

    def warm_up(self) -> None:
        for a, p in GRID:
            capacity.full_tree_capacity(Exponents(a, p))

    def run(self, item: Item):
        words, e = item.args
        return capacity.capacity_recursive(tree.CylinderSet.from_words(words), e).value

    def check(self, item: Item, out) -> str | None:
        words, e = item.args
        if out.is_zero:
            return "capacity of a nonempty set is zero"
        flipped = self.expected(
            item,
            lambda: capacity.capacity_recursive(
                tree.CylinderSet.from_words(words).bit_flip(), e
            ).value,
        )
        if rel(out, flipped) > 1e-12:
            return f"bit_flip image differs by {rel(out, flipped):.3g}"
        full = capacity.full_tree_capacity(e).value
        if out.log2 > full.log2 + 1e-12:
            return "value exceeds full_tree_capacity"
        if item.kind == "run":
            closed = capacity.cap_component(item.facts["n"], item.facts["kappa"], e).value
            if rel(out, closed) > 1e-10:
                return f"D(n,kappa) differs from cap_component by {rel(out, closed):.3g}"
        return None

    def properties(self) -> dict:
        items = self.items
        per_kind: dict[str, list[int]] = {}
        for item in items:
            nodes, one_child = tree_shape(item.args[0])
            acc = per_kind.setdefault(item.kind, [0, 0])
            acc[0] += nodes
            acc[1] += one_child
        nodes = sum(v[0] for v in per_kind.values())
        one_child = sum(v[1] for v in per_kind.values())
        return {
            "spanning_nodes": nodes,
            "chain_node_share": one_child / nodes,
            "chain_node_share_by_class": {k: v[1] / v[0] for k, v in per_kind.items()},
        }


# ----------------------------------------------------------------------
# oracle_battery: recursion and convex-program oracle on one random problem
# ----------------------------------------------------------------------

DENSITIES = (0.9, 0.5, 0.25, 0.1)
ORACLE_TOL = 1e-5
MAX_DEPTH = 8


class OracleBattery(Workload):
    """Criterion 2's problems: depth 1..8, densities {0.9, 0.5, 0.25, 0.1}, six pairs.

    Every (pair, depth) cell appears three times per pass with densities
    cycled, and a density d places exactly max(1, round(d * 2**depth))
    target leaves at random: the seed draws only where they go, so the cost
    of a pass moves little with the seed.
    """

    name = "oracle_battery"
    slice_size = 16
    min_passes = 1
    # 10 of 96, i.e. 15 of a pass's 144: the 11th-slowest of 144 sits at the
    # edge of the few dense depth-8 solves and moved by up to 20% between runs
    tail_samples = 96

    def generate(self) -> list[Item]:
        rng = self.rng
        items = []
        for rep in range(3):
            for j, (a, p) in enumerate(GRID):
                e = Exponents(a, p)
                for depth in range(1, MAX_DEPTH + 1):
                    density = DENSITIES[(depth + j + rep) % len(DENSITIES)]
                    count = max(1, round(density * 2 ** depth))
                    leaves = tuple(
                        format(i, f"0{depth}b") for i in sorted(rng.sample(range(2 ** depth), count))
                    )
                    problem = oracle.FiniteProblem(depth, leaves, e)
                    items.append(Item("depth", (problem,), {"depth": depth, "density": density}))
        return items

    def warm_up(self) -> None:
        # first solve imports scipy.optimize
        e = Exponents(F(1, 2), 2)
        oracle.solve_capacity(oracle.FiniteProblem(1, ("0",), e), tol=ORACLE_TOL)

    def run(self, item: Item):
        (problem,) = item.args
        recursion = capacity.finite_tree_capacity(
            problem.depth, problem.target_leaves, problem.exponents
        ).to_float()
        t0 = time.perf_counter()
        solved = oracle.solve_capacity(problem, tol=ORACLE_TOL)
        solve_s = time.perf_counter() - t0
        return {
            "rel_diff": abs(solved.value - recursion) / recursion,
            "iterations": solved.iterations,
            "solve_s": solve_s,
        }

    def check(self, item: Item, out) -> str | None:
        if not out["rel_diff"] <= 5 * ORACLE_TOL:
            return f"oracle and recursion differ by {out['rel_diff']:.3g} > 5*tol"
        return None

    def properties(self) -> dict:
        items = self.items
        hist = {d: 0 for d in range(1, MAX_DEPTH + 1)}
        for item in items:
            hist[item.facts["depth"]] += 1
        return {"depth_histogram": hist, "depth_share": {d: c / len(items) for d, c in hist.items()}}


# ----------------------------------------------------------------------
# limsup_bounds: dobinski queries on symbolic run-length families
# ----------------------------------------------------------------------

def _critical(rng) -> Exponents:
    p = rng.choice((F(3, 2), F(2), F(3), F(5, 2), F(4, 3)))
    return Exponents(1 / p, p)


def _subcritical(rng) -> Exponents:
    p = rng.choice((F(3, 2), F(2), F(3)))
    return Exponents(rng.choice((F(1, 4), F(1, 2), F(3, 4))) / p, p)


def _polynomial(rng) -> dobinski.SequenceSpec:
    """A kappa_n of polynomial growth (small integers, so kappa_value stays cheap)."""
    c = F(rng.randint(1, 3), rng.randint(1, 2))
    betas = (F(0), F(1, 2), F(1), F(2))
    kind = rng.randrange(3)
    if kind == 0:
        return dobinski.Power(c, rng.choice(betas))
    if kind == 1:
        return dobinski.Linear(c)
    table = tuple((n, rng.randint(1, 9)) for n in sorted(rng.sample(range(1, 12), 3)))
    return dobinski.Custom(table, dobinski.Power(c, rng.choice(betas)))


def _equivalent(spec) -> dobinski.Growth:
    """The growth form C * n**beta * 2**(gamma*n) of a named family, from its definition."""
    if isinstance(spec, dobinski.Custom):
        return _equivalent(spec.tail_rule)
    if isinstance(spec, dobinski.Geometric):
        return dobinski.Growth(F(1, spec.m), F(0), F(1))
    if isinstance(spec, dobinski.Power):
        return dobinski.Growth(spec.C, spec.beta, F(0))
    if isinstance(spec, dobinski.Linear):
        return dobinski.Growth(spec.C, F(1), F(0))
    return spec


# criterion 7: the 8-point (ap, p) grid
DIMENSION_GRID = tuple(
    (ap / p, p) for ap in (F(1, 4), F(1, 2), F(3, 4), F(1)) for p in (F(2), F(3))
)


class LimsupBounds(Workload):
    """Twenty queries per pass; sizes are fixed so the seed moves costs little.

    The four budget-exhausting bounds queries are a fifth of the items, more
    than the share beyond the tail percentile, so they set item_tail_ms; the
    eight ratio reports, all 400 rows long, hold the median.
    """

    name = "limsup_bounds"
    slice_size = 8
    tail_samples = 60  # three passes: 12 budget-exhausting samples

    def generate(self) -> list[Item]:
        rng = self.rng
        half = F(1, 2)

        def table() -> tuple:
            return tuple((n, rng.randint(1, 9)) for n in sorted(rng.sample(range(1, 12), 3)))

        def n_max() -> int:
            return rng.randint(8, 40)

        def grid() -> tuple:
            return tuple(rng.sample(DIMENSION_GRID, rng.randint(4, len(DIMENSION_GRID))))

        # Divergent tails: Positive families, whose tail sums use the whole
        # budget.  Their cost sets the pass time, so the families are fixed and
        # the seed moves only n_max and the custom table.
        divergent = [
            Item("bounds_divergent", (dobinski.Power(F(2), F(1)), Exponents(half, 2), n_max())),
            Item("bounds_divergent", (dobinski.Linear(F(1)), Exponents(F(1, 3), 3), n_max())),
            Item("bounds_divergent", (dobinski.Custom(table(), dobinski.Power(F(1), F(2))),
                                      Exponents(F(2, 3), F(3, 2)), n_max())),
            # subcritical, slope ap - (1 - ap) C = 0: bounded, so positive
            Item("bounds_divergent", (dobinski.Linear(F(1)), Exponents(F(1, 4), 2), n_max())),
        ]
        p_zero = rng.choice((F(5, 2), F(3), F(4)))
        convergent = [
            Item("bounds_convergent", (dobinski.Geometric(rng.randint(1, 5)), _subcritical(rng), n_max())),
            Item("bounds_convergent", (dobinski.Geometric(rng.randint(1, 5)), Exponents(1 / p_zero, p_zero), n_max())),
            Item("bounds_convergent", (dobinski.Growth(F(rng.randint(1, 3)), F(1), F(1)), _subcritical(rng), n_max())),
        ]
        # criterion 4: geometric runs on the critical branch are Positive iff p <= 2
        p_pos = 1 + F(rng.randint(1, 10), 10)
        p_neg = 2 + F(3 * rng.randint(1, 10), 10)
        # the normalized (growth) form of a named family must get the named family's verdict
        named = _polynomial(rng) if rng.random() < 0.5 else dobinski.Geometric(rng.randint(1, 6))
        classify = [
            Item("classify", (dobinski.Geometric(rng.randint(1, 6)), Exponents(1 / p_pos, p_pos)), {"outcome": "Positive"}),
            Item("classify", (dobinski.Geometric(rng.randint(1, 6)), Exponents(1 / p_neg, p_neg)), {"outcome": "Zero"}),
            Item("classify", (_equivalent(named), rng.choice((_critical, _subcritical))(rng)), {"named": named}),
        ]
        ratios = []
        for k in range(8):
            lo = rng.randint(1, 600)
            e = Exponents(half, 2)
            if k < 2:
                spec, facts = dobinski.Geometric(1), {"balanced": True}
            elif k < 4:
                # criterion 5 bands hold from n = 1
                spec, facts, lo = (dobinski.Power(F(1), F(0)), dobinski.Linear(F(1)))[k % 2], {"band": True}, 1
            else:
                spec, facts = _polynomial(rng), {}
                e = (Exponents(F(1, 3), 3), Exponents(F(1, 4), 2))[k % 2]
            ratios.append(Item("ratios", (spec, e, (lo, lo + 399)), facts))
        dimension = [
            # criterion 7: the geometric bracket collapses to [0, 0]
            Item("dimension", (dobinski.Geometric(rng.randint(1, 8)), grid()), {"zero": True}),
            Item("dimension", (_polynomial(rng), grid())),
        ]
        # the slice (first 8 items) holds one query of every kind
        items = [divergent.pop(0), convergent.pop(), classify.pop(0), classify.pop(),
                 ratios.pop(0), ratios.pop(), dimension.pop(0), dimension.pop()]
        rest = divergent + convergent + classify + ratios
        rng.shuffle(rest)
        return items + rest

    def warm_up(self) -> None:
        e = Exponents(F(1, 2), 2)
        dobinski.classify(dobinski.Geometric(1), e)
        dobinski.capacity_bounds(dobinski.Geometric(1), Exponents(F(1, 3), 3), 4)

    def run(self, item: Item):
        kind = item.kind
        if kind.startswith("bounds"):
            spec, e, n_max = item.args
            lower, upper = dobinski.capacity_bounds(spec, e, n_max)
            return lower.value, None if upper is None else upper.value
        if kind == "classify":
            spec, e = item.args
            return dobinski.classify(spec, e).outcome.value
        if kind == "ratios":
            spec, e, n_range = item.args
            return dobinski.comparability_report(e, n_range, spec)
        spec, grid = item.args
        return dobinski.dimension_profile(spec, grid)

    def check(self, item: Item, out) -> str | None:
        kind = item.kind
        if kind.startswith("bounds"):
            spec, e, n_max = item.args
            lower, upper = out
            first = self.expected(
                item,
                lambda: capacity.cap_component(n_max, dobinski.kappa_value(spec, n_max), e).value,
            )
            if lower.log2 < first.log2 - 1e-12:
                return "lower bound is below the component at n_max"
            if upper is not None and upper.log2 < first.log2 - 1e-12:
                return "upper bound is below its own first tail term"
            return None
        if kind == "classify":
            spec, e = item.args
            expected = item.facts.get("outcome") or self.expected(
                item, lambda: dobinski.classify(item.facts["named"], e).outcome.value
            )
            if out != expected:
                return f"verdict {out}, expected {expected}"
            return None
        if kind == "ratios":
            lo, hi = item.args[2]
            rows = out["rows"]
            if [r["n"] for r in rows] != list(range(lo, hi + 1)):
                return "rows do not cover the requested n range"
            if not 0 < out["ratio_min"] <= out["ratio_max"]:
                return "ratio range is empty or nonpositive"
            if item.facts.get("balanced") and any(abs(r["ratio"] - 1 / 3) > 1e-12 for r in rows):
                return "balanced geometric ratio is not 1/3 to 1e-12"
            if item.facts.get("band") and not 1e-3 <= out["ratio_min"] <= out["ratio_max"] <= 1.0:
                return "comparability band leaves [1e-3, 1]"
            return None
        if not 0 <= out.lower <= out.upper < 1:
            return f"dimension bracket [{out.lower}, {out.upper}] is not ordered in [0, 1)"
        if item.facts.get("zero") and (out.lower, out.upper) != (0, 0):
            return "geometric dimension bracket is not [0, 0]"
        return None

    def properties(self) -> dict:
        items = self.items
        kinds = [item.kind for item in items]
        bounds = sum(k.startswith("bounds") for k in kinds)
        divergent = kinds.count("bounds_divergent")
        return {
            "query_mix": {k: kinds.count(k) for k in sorted(set(kinds))},
            "divergent_share_of_bounds": divergent / bounds if bounds else 0.0,
            "divergent_share_of_items": divergent / len(items),
        }


# ----------------------------------------------------------------------
# cli_oneshot: one fresh `python -m capatree.cli` process per item
# ----------------------------------------------------------------------

class CliOneshot(Workload):
    """Every subcommand but oracle-check, twice, with seeded arguments."""

    name = "cli_oneshot"
    slice_size = 4
    runs_in_children = True
    min_passes = 1  # a pass already takes about 20 s of process start-ups
    tail_samples = 20
    # a child's cost is start-up and imports, which an interpreter start
    # tracks and the in-process loop does not (see calibration.py)
    calibration_s = START_REFERENCE_S

    def __init__(self, seed: int, root: Path):
        super().__init__(seed, root)
        self.env = {k: v for k, v in os.environ.items() if k != "CAPATREE_THREADS"}
        self.env["PYTHONPATH"] = str(root / "src")
        # set by the worker in traced runs: directory for the children's span files
        self.trace_dir: Path | None = None
        self._trace_files = 0

    def generate(self) -> list[Item]:
        rng = self.rng
        ps = (F(3, 2), F(2), F(3))

        def exps():
            p = rng.choice(ps)
            a = rng.choice((F(1), F(1, 2))) / p
            return ["--a", str(a), "--p", str(p)]

        def critical():
            p = rng.choice((F(6, 5), F(3, 2), F(2), F(5, 2), F(3), F(4)))
            return ["--a", str(1 / p), "--p", str(p)]

        def odd_rational():
            den = rng.choice((3, 5, 7, 11, 13))
            return f"{rng.randrange(1, den)}/{den}"

        def any_rational():
            # dyadic points too, as in the README's run-lengths example
            return odd_rational() if rng.random() < 0.5 else f"{2 * rng.randrange(8) + 1}/16"

        make_args = {
            "circle-capacity": lambda: ["circle-capacity", *rng.choice(CIRCLE_EXPONENTS)],
            "product-identity": lambda: ["product-identity", "--x", odd_rational(), "--N", str(rng.randint(20, 60))],
            "run-lengths": lambda: ["run-lengths", "--x", any_rational(), "--N", str(rng.randint(10, 60))],
            "ratios": lambda: ["ratios", "--a", "1/2", "--p", "2", "--family", "geometric",
                               "--m", str(rng.randint(1, 4)), "--n-to", str(rng.randint(200, 1000))],
            "classify": lambda: ["classify", *exps(), "--family", "geometric", "--m", str(rng.randint(1, 5))],
            "classify-dobinski": lambda: ["classify", *critical(), "--family", "dobinski"],
            "cap-component": lambda: ["cap-component", *exps(), "--n", str(rng.randint(1, 40)),
                                      "--kappa", str(rng.randint(1, 1000))],
            "cap-cylinder": lambda: ["cap-cylinder", *exps(), "--set", json.dumps(
                ["".join(rng.choice("01") for _ in range(rng.randint(1, 12))) for _ in range(rng.randint(2, 8))])],
            "bounds": lambda: ["bounds", "--a", "1/3", "--p", "3", "--family", "geometric",
                               "--m", str(rng.randint(1, 4)), "--n-max", str(rng.randint(10, 40))],
            "dimension": lambda: ["dimension", "--family", "geometric", "--m", str(rng.randint(1, 5)),
                                  "--ap-grid", "1/4,1/2,3/4,1", "--p-grid", "2,3"],
        }
        # the slice: the three circle commands and one dobinski command
        order = list(make_args)
        items = [Item(name, tuple(make_args[name]())) for name in order]
        second = [Item(name, tuple(make_args[name]())) for name in order]
        for item in (second[4], second[6]):
            item.args += ("--format", "csv")
        rng.shuffle(second)
        return items + second

    def calibrate(self) -> None:
        interpreter_start(self.env)

    def command(self, item: Item) -> list[str]:
        if self.trace_dir is None:
            return [sys.executable, "-m", "capatree.cli", *item.args]
        self._trace_files += 1
        out = self.trace_dir / f"child-{self._trace_files}.json"
        return [sys.executable, str(Path(__file__).with_name("cli_child.py")), str(out), "--", *item.args]

    def run(self, item: Item):
        env = self.env
        if self.trace_dir is not None:
            env = dict(env, PERFBENCH_SPAWN_NS=str(time.time_ns()))
        proc = subprocess.run(
            self.command(item), env=env, cwd=self.root, capture_output=True, text=True, timeout=120
        )
        return proc.returncode, proc.stdout, proc.stderr

    def check(self, item: Item, out) -> str | None:
        status, stdout, stderr = out
        if status != 0:
            return f"exit status {status}: {stderr.strip()[-200:]}"
        args = list(item.args)
        if "--format" in args:
            lines = stdout.splitlines()
            if not lines or lines[0] != "# schema=capatree/1":
                return "CSV output lacks the schema line"
            rows = list(csv.DictReader(io.StringIO("\n".join(l for l in lines if not l.startswith("#")))))
            got = rows[0]["outcome"] if item.kind == "classify" else float(rows[0]["value_log2"])
        else:
            try:
                doc = json.loads(stdout)
            except json.JSONDecodeError:
                return "stdout is not one JSON document"
            if doc.get("schema") != "capatree/1":
                return "JSON output lacks schema capatree/1"
            got = self._from_json(item.kind, doc["result"])
        expected = self.expected(item, lambda: self._library(item.kind, _options(args)))
        if not _same(got, expected):
            return f"result {got!r} differs from the library value {expected!r}"
        return None

    @staticmethod
    def _from_json(kind: str, result: dict):
        if kind in ("classify", "classify-dobinski"):
            return result["outcome"]
        if kind in ("cap-component", "cap-cylinder"):
            return result["value_log2"]
        if kind == "bounds":
            upper = result["upper"]
            return result["lower"]["value_log2"], None if upper is None else upper["value_log2"]
        if kind == "ratios":
            return result["ratio_min"], result["ratio_max"]
        if kind == "dimension":
            return result["lower"], result["upper"]
        if kind == "circle-capacity":
            return result["value"]
        if kind == "product-identity":
            return result["lhs_partial"], result["rhs"]
        return result["entries"]

    @staticmethod
    def _library(kind: str, o: dict):
        """The value the command must print, computed in-process."""
        def exps() -> Exponents:
            return Exponents(o["--a"], o["--p"])

        if kind == "classify":
            return dobinski.classify(dobinski.Geometric(int(o["--m"])), exps()).outcome.value
        if kind == "classify-dobinski":
            return dobinski.dobinski_full(exps()).outcome.value
        if kind == "cap-component":
            return capacity.cap_component(int(o["--n"]), int(o["--kappa"]), exps()).value.log2
        if kind == "cap-cylinder":
            cyl = tree.CylinderSet.from_words(json.loads(o["--set"]))
            return capacity.capacity_recursive(cyl, exps()).value.log2
        if kind == "bounds":
            lower, upper = dobinski.capacity_bounds(dobinski.Geometric(int(o["--m"])), exps(), int(o["--n-max"]))
            return lower.value.log2, None if upper is None else upper.value.log2
        if kind == "ratios":
            report = dobinski.comparability_report(
                exps(), (1, int(o["--n-to"])), dobinski.Geometric(int(o["--m"]))
            )
            return report["ratio_min"], report["ratio_max"]
        if kind == "dimension":
            grid = [(F(ap) / F(p), F(p)) for ap in o["--ap-grid"].split(",") for p in o["--p-grid"].split(",")]
            bracket = dobinski.dimension_profile(dobinski.Geometric(int(o["--m"])), grid)
            return str(bracket.lower), str(bracket.upper)
        if kind == "circle-capacity":
            integral, _ = circle.kernel_integral(F(o["--a"]), 1e-10)
            return integral ** (-exps().p_f)
        if kind == "product-identity":
            return circle.product_identity(F(o["--x"]), int(o["--N"]))
        stream = circle.DigitStream.from_rational(F(o["--x"]))
        return [rl.to_json() for rl in circle.run_lengths(stream, int(o["--N"]))]


# (a, p) pairs with 0 < a < 1 and a*p <= 1
CIRCLE_EXPONENTS = tuple(
    ("--a", a, "--p", p) for a, p in (("1/2", "2"), ("1/3", "2"), ("1/4", "2"), ("2/3", "3/2"), ("1/3", "3/2"))
)


def _options(args: list[str]) -> dict:
    return {args[i]: args[i + 1] for i in range(1, len(args) - 1) if args[i].startswith("--")}


def _same(got, expected) -> bool:
    if isinstance(expected, float):
        return isinstance(got, (int, float)) and math.isclose(got, expected, rel_tol=1e-12, abs_tol=1e-12)
    if isinstance(expected, (tuple, list)) and isinstance(got, (tuple, list)):
        return len(got) == len(expected) and all(_same(g, x) for g, x in zip(got, expected))
    return got == expected


WORKLOADS = {w.name: w for w in (CylinderExact, OracleBattery, LimsupBounds, CliOneshot)}
