"""Record the output references that perfbench/run.py checks against.

    python3 perfbench/record_references.py [--seeds 64]

Run it only from a commit whose outputs are known to be right.  It
rewrites references/fusion-v95/*.csv from one iteration, and
references/perc-sitebond.json with the sha256 of
curves.csv, spanning.csv and threshold.json (plus the threshold estimate)
for seeds 0..N-1; 64 seeds take about 20 minutes.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from run import CLI_SHIM, ROOT, SRC, TMP_ROOT
from workloads import FUSION_FILES, REFERENCES, cli_argv, perc_record


def run_child(workload: str, seed: int, out: Path) -> None:
    subprocess.run(
        [sys.executable, "-c", CLI_SHIM, *cli_argv(workload, seed, out)],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": str(SRC)}, check=True,
        stdout=subprocess.DEVNULL,
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=64)
    args = parser.parse_args()
    TMP_ROOT.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=TMP_ROOT) as tmp:
            out = Path(tmp) / "fusion"
            run_child("fusion-v95", 0, out)
            for name in FUSION_FILES:
                shutil.copyfile(out / name, REFERENCES / "fusion-v95" / name)
            recorded = {}
            for seed in range(args.seeds):
                out = Path(tmp) / f"perc-{seed}"
                run_child("perc-sitebond", seed, out)
                recorded[str(seed)] = perc_record(out)
                print(f"seed {seed}: threshold {recorded[str(seed)]['estimate']!r}", flush=True)
        (REFERENCES / "perc-sitebond.json").write_text(json.dumps(recorded, indent=1) + "\n")
    finally:
        with contextlib.suppress(OSError):
            TMP_ROOT.rmdir()
    return 0


if __name__ == "__main__":
    sys.exit(main())
