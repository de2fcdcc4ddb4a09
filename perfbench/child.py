"""One traced workload iteration in a fresh interpreter.

    python3 perfbench/child.py --trace FILE WORKLOAD SEED OUT_DIR

Wraps the layer functions, runs `fusionsim.cli.main` on the workload's
command line and writes the per-layer metrics to FILE as JSON.
`fusionsim` must be importable (the benchmark puts the checkout's `src`
on PYTHONPATH).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

# This script's directory leads sys.path, so its siblings import directly.
import workloads
from tracer import Tracer


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", type=Path, required=True, help="write per-layer metrics here")
    parser.add_argument("workload", choices=workloads.WORKLOADS)
    parser.add_argument("seed", type=int)
    parser.add_argument("out", type=Path)
    args = parser.parse_args()

    tracer = Tracer()
    tracer.install()
    from fusionsim import cli

    status = cli.main(workloads.cli_argv(args.workload, args.seed, args.out))
    metrics = tracer.metrics(workloads.RESULTS_PER_SWEEP.get(args.workload, 0))
    args.trace.write_text(json.dumps(metrics, sort_keys=True) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
