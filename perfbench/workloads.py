"""The benchmark's workloads: what each iteration runs and how its outputs
are checked.

Both run the `fusionsim` CLI at the sizes users run it: `fusion-v95`
loads the fusion layers (`fock`, `experiment`, `detection`) and
`perc-sitebond` loads `percolation`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

REFERENCES = Path(__file__).resolve().parent / "references"
WORKLOADS = ("fusion-v95", "perc-sitebond")

PROB_TOL = 1e-12
OVERLAP = 0.95
FUSION_FILES = ("outcomes.csv", "patterns.csv", "factors.csv")

PERC_SIZES = (10, 100)
PERC_TRIALS = 200
PERC_GRID = "0.6:0.8:0.002"
PERC_THRESHOLD = 0.7404  # equal-probability site-bond, square lattice
PERC_THRESHOLD_TOL = 0.02
PERC_FILES = ("curves.csv", "spanning.csv", "threshold.json")


def _lattice_elements(length: int) -> int:
    """Sites plus open-boundary bonds of an L x L square lattice."""
    return length * length + 2 * length * (length - 1)


#: Input elements of one iteration, counted once whatever the program
#: sweeps: the four Bell inputs characterised, and the lattice elements of
#: every percolation trial.
ELEMENTS = {
    "fusion-v95": 4,
    "perc-sitebond": PERC_TRIALS * sum(_lattice_elements(L) for L in PERC_SIZES),
}
#: Results one percolate run delivers per observable: trials x sizes.
RESULTS_PER_SWEEP = {"perc-sitebond": PERC_TRIALS * len(PERC_SIZES)}


def cli_argv(workload: str, seed: int, out: Path) -> list[str]:
    """The `fusionsim` command line of a CLI workload."""
    if workload == "fusion-v95":
        return ["fusion", "--visibility", str(OVERLAP), "--threads", "1", "--out", str(out)]
    return [
        "percolate",
        "--sizes", ",".join(map(str, PERC_SIZES)),
        "--trials", str(PERC_TRIALS),
        "--grid", PERC_GRID,
        "--seed", str(seed),
        "--threads", "1",
        "--out", str(out),
    ]


# --------------------------------------------------------------------------
# Output checks
# --------------------------------------------------------------------------


@dataclass
class Check:
    ok: bool
    max_abs_err: float
    detail: str = ""


def _reference(name: str) -> dict:
    return json.loads((REFERENCES / f"{name}.json").read_text())


def _compare_tables(got: str, ref: str) -> tuple[float, str]:
    """Largest numeric deviation of two CSV texts that must agree cell by
    cell; non-numeric cells must match exactly (inf on a mismatch)."""
    got_rows, ref_rows = got.splitlines(), ref.splitlines()
    if len(got_rows) != len(ref_rows):
        return float("inf"), f"{len(got_rows)} lines, reference has {len(ref_rows)}"
    worst = 0.0
    for line, (g_row, r_row) in enumerate(zip(got_rows, ref_rows), start=1):
        g_cells, r_cells = g_row.split(","), r_row.split(",")
        if len(g_cells) != len(r_cells):
            return float("inf"), f"line {line}: cell count differs"
        for g, r in zip(g_cells, r_cells):
            if g == r:
                continue
            try:
                worst = max(worst, abs(float(g) - float(r)))
            except ValueError:
                return float("inf"), f"line {line}: {g!r} != {r!r}"
    return worst, ""


def check_fusion(seed: int, out: Path) -> Check:
    worst = 0.0
    for name in FUSION_FILES:
        reference = (REFERENCES / "fusion-v95" / name).read_text()
        err, why = _compare_tables((out / name).read_text(), reference)
        if why:
            return Check(False, err, f"{name}: {why}")
        worst = max(worst, err)
    return Check(worst <= PROB_TOL, worst, f"{', '.join(FUSION_FILES)}: max |err| {worst:.3g}")


def perc_record(out: Path) -> dict:
    """sha256 of the percolate artifacts plus the threshold estimate."""
    record = {n: hashlib.sha256((out / n).read_bytes()).hexdigest() for n in PERC_FILES}
    record["estimate"] = json.loads((out / "threshold.json").read_text())["estimate"]
    return record


def check_perc(seed: int, out: Path) -> Check:
    record = perc_record(out)
    estimate = record["estimate"]
    detail = f"threshold {estimate!r}; sha256 " + " ".join(
        f"{n}={record[n][:16]}" for n in PERC_FILES
    )
    reference = _reference("perc-sitebond").get(str(seed))
    if reference is not None:
        same = all(record[n] == reference[n] for n in PERC_FILES)
        err = abs(estimate - reference["estimate"])
        return Check(same, err, detail + ("" if same else "; differs from reference"))
    err = abs(estimate - PERC_THRESHOLD)
    return Check(err <= PERC_THRESHOLD_TOL, err, detail + " (no recorded reference)")


CHECKS = {"fusion-v95": check_fusion, "perc-sitebond": check_perc}
