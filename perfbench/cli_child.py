"""Traced CLI child: ``capatree.cli.main`` under the benchmark's span wrappers.

Usage: python perfbench/cli_child.py OUT_JSON -- CLI_ARGS...

Runs with PYTHONPATH=src like an untraced ``python -m capatree.cli`` child.
The spawning process puts its wall-clock spawn time (ns) in
PERFBENCH_SPAWN_NS, so ``import_s`` covers interpreter start-up plus
``import capatree``.  Aggregates and spans go to OUT_JSON.
"""

import json
import os
import sys
import time

import capatree

IMPORT_S = (time.time_ns() - int(os.environ["PERFBENCH_SPAWN_NS"])) / 1e9

import capatree.cli  # noqa: E402

import tracer  # noqa: E402


def main() -> int:
    out_path, sep, *cli_args = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: cli_child.py OUT_JSON -- CLI_ARGS...")
    rec = tracer.Tracer()
    undo = tracer.install(rec)
    try:
        status = capatree.cli.main(cli_args)
    finally:
        undo()
        with open(out_path, "w") as fh:
            json.dump(rec.dump() | {"import_s": IMPORT_S, "version": capatree.__version__}, fh)
    return status


if __name__ == "__main__":
    sys.exit(main())
