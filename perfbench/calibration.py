"""Fixed work that scales the benchmark's timings to a reference speed.

The host's speed drifts by up to ~50% over minutes on a shared 2-vCPU
machine, and the drift hits every CPU-bound process, interpreter start-up
and imports included.  So each timing is divided by how long a fixed piece
of work takes next to it and multiplied by that work's duration at the
reference speed.  Two kinds of fixed work are used, each for the timings it
tracks:

- ``reference_loop``, in process, for items that run inside the worker;
- ``interpreter_start``, a stdlib-only child interpreter, for timings made of
  process start-up and imports: ``cli_oneshot`` items and set-up time.  On a
  2-vCPU host, 18 windows of 20 CLI items spread over 12 minutes (the host
  sped up by a third in the middle) gave a window-median spread
  (interquartile range / median) of 0.225 raw, 0.152 divided by the
  reference loop and 0.040 divided by the interpreter start; for set-up
  time, groups of three samples gave 0.097 raw and 0.043 divided by it.

Stdlib only: run.py imports this module without importing capatree.
"""

from __future__ import annotations

import math
import subprocess
import sys
import time
from fractions import Fraction as F

# durations of the two kinds of fixed work at the reference speed, by definition
REFERENCE_S = 2.0e-3
START_REFERENCE_S = 60e-3

START_COMMAND = ("-c", "import argparse, csv, decimal, fractions, json, statistics")


def reference_loop() -> float:
    """Fixed in-process work; shares no code with capatree.

    It does what the workloads do (string-keyed dicts, sorting, float math,
    Fraction arithmetic), because a plain integer loop suffers less from a
    busy sibling core than they do: on 13 to 40 s windows of cylinder_exact
    items, scaling by this loop cut the spread from 17% to 2%, by an integer
    loop only to 6%.
    """
    table = {format(i * 7919 % 4096, "014b"): i * 0.5 for i in range(1200)}
    total = 0.0
    for key in sorted(table, key=len, reverse=True):
        total += math.log1p(2.0 ** -table[key])
    x = F(1, 3)
    for i in range(1, 160):
        x = (x * 3 + F(1, i)) / 4
        total += math.log2(float(x) + 1.0)
    return total


def interpreter_start(env: dict | None = None) -> float:
    """Run a stdlib-only interpreter to completion; returns its wall time in seconds.

    Its output is captured so that ``subprocess.run`` waits on the pipe: with
    a timeout and no pipe, it polls for the child's exit in steps of up to
    50 ms, which rounded this ~100 ms timing to 65, 115 or 166 ms.
    """
    t0 = time.perf_counter()
    subprocess.run([sys.executable, *START_COMMAND], env=env, capture_output=True, check=True, timeout=60)
    return time.perf_counter() - t0
