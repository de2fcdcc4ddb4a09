"""Command-line front end: validated JSON/flag configs in, CSV/JSON out.

Subcommands
    fusion      exact fusion-gate statistics (outcomes.csv, patterns.csv,
                factors.csv)
    sweep       phase fringe or overlap sweeps (sweep.csv)
    percolate   connectivity curves and threshold (curves.csv, spanning.csv
                with open boundaries, threshold.json)
    ppnrd       multiplexed-detector click statistics (ppnrd.json)
    rate        n-fold coincidence rate (rate.json)

Each subcommand's parameters are the fields of one frozen run-config
dataclass, and a field has one name everywhere: it is the --config key, the
argparse dest of its flag and the key in run_config.json.  Every run writes
run_config.json with the fully resolved parameters; rerun with the same seed
(any --threads) and the outputs are byte-identical.  A run's files appear in
--out together or not at all, and replace every artifact of its subcommand
that an earlier run left there (see _staged_output).
Exit codes: 0 success, 1 runtime failure, 2 invalid configuration.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
import tempfile
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Optional, Sequence, get_args, get_type_hints

import numpy as np

from . import detection, experiment, percolation
from .experiment import BellLabel, ExperimentConfig

CSV_SCHEMA_PREFIX = "# fusionsim"

#: Most points a sweep or percolate grid may hold, checked before any grid
#: array is built: 100x the default percolate grid, and 0:1:0.0001 fits.
MAX_GRID_POINTS = 10_001


class ConfigError(ValueError):
    """Invalid or out-of-range run configuration."""


def _fmt(x: float) -> str:
    return repr(float(x))


def _checked(name: str, hint, value):
    """``value`` checked against the field annotation ``hint``.

    int, bool and str fields take exactly that type; float fields take
    any number but a bool and store it as a float; tuple fields take a
    list or tuple and check each element.  An Optional field is checked as
    its inner type: its None default cannot be set from outside.
    """
    if type(None) in get_args(hint):
        hint = get_args(hint)[0]
    if hint is float:
        if type(value) not in (int, float):
            raise ConfigError(f"{name} must be a number, not {value!r}")
        return float(value)
    if hint in (int, bool, str):
        if type(value) is not hint:
            raise ConfigError(f"{name} must be of type {hint.__name__}, not {value!r}")
        return value
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{name} must be a list, not {value!r}")
    item = get_args(hint)[0]  # tuple[item, ...]
    return tuple(_checked(name, item, v) for v in value)


def _merge_config(cls, args, **parsed):
    """``cls`` built from the --config file, overridden by every flag given.

    Each flag is read from ``args`` under its field name; ``parsed`` holds
    the fields of flags whose text is parsed first.  Unknown config keys
    are rejected and every value is checked against its field's annotation.
    """
    merged = {}
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                merged = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file {args.config}: {exc}") from exc
        if not isinstance(merged, dict):
            raise ConfigError("config file must hold a JSON object")
    known = {f.name for f in fields(cls)}
    unknown = set(merged) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    flags = {f.name: getattr(args, f.name, None) for f in fields(cls)}
    merged.update({k: v for k, v in {**flags, **parsed}.items() if v is not None})
    hints = get_type_hints(cls)
    checked = {k: _checked(k, hints[k], v) for k, v in merged.items()}
    try:
        return cls(**checked)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _parse_grid(text: str) -> list[float]:
    """Grid syntax: 'start:stop:count' (inclusive) or comma-separated values."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(f"bad grid {text!r}; want start:stop:count")
        try:
            start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError as exc:
            raise ConfigError(f"bad grid {text!r}: {exc}") from exc
        if not 1 <= count <= MAX_GRID_POINTS:
            raise ConfigError(f"grid count must lie in [1, {MAX_GRID_POINTS}]")
        return [float(x) for x in np.linspace(start, stop, count)]
    try:
        return [float(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad grid {text!r}: {exc}") from exc


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _cell(value) -> str:
    if isinstance(value, float):
        return _fmt(value)
    return str(value)


def _write_table(
    out_dir: Path, stem: str, schema: str, header: Sequence[str], rows, fmt: str
) -> Path:
    """One tabular artifact, as versioned CSV or an equivalent JSON object."""
    rows = [tuple(row) for row in rows]
    if fmt == "json":
        path = out_dir / f"{stem}.json"
        _write_json(
            path,
            {"schema": schema, "columns": list(header), "rows": [list(r) for r in rows]},
        )
        return path
    path = out_dir / f"{stem}.csv"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{CSV_SCHEMA_PREFIX} {schema}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_cell(v) for v in row) + "\n")
    return path


#: Artifact stems of each subcommand, written as .csv or .json.
_ARTIFACTS = {
    "fusion": ("outcomes", "patterns", "factors"),
    "sweep": ("sweep",),
    "percolate": ("curves", "spanning", "threshold"),
    "ppnrd": ("ppnrd",),
    "rate": ("rate",),
}


@contextmanager
def _staged_output(out: str, subcommand: str, run_config: dict):
    """Directory for a run's files, moved into ``out`` once all are written.

    The block writes into a temporary directory made in the nearest
    directory that exists: ``out`` itself, or else its closest existing
    parent.  Commands enter it before their work, so an ``out`` that is,
    or lies under, something other than a directory fails at once, with a
    message naming ``out``.  After the block completes, run_config.json is
    added, ``out`` (and any missing parent) is created and every file is
    moved into it.  Then each ``.csv`` or ``.json`` of the subcommand's
    artifacts that this run did not write is deleted from ``out``, so an
    earlier run's file (another format, or a table this configuration
    lacks) is not read as this run's; other files stay.  If anything fails
    before the moves, the temporary directory is removed and no directory
    is created, so ``out`` is left as it was.
    """
    out_dir = Path(out)
    base = out_dir
    while not base.exists():
        base = base.parent
    if not base.is_dir():
        raise NotADirectoryError(f"--out {out}: {base} is not a directory")
    staging = Path(tempfile.mkdtemp(prefix=".fusionsim-", dir=base.absolute()))
    try:
        yield staging
        payload = {"subcommand": subcommand, **run_config}
        _write_json(staging / "run_config.json", payload)
        out_dir.mkdir(parents=True, exist_ok=True)
        files = sorted(staging.iterdir())
        # A file cannot replace a directory, so refuse before the first move.
        for path in files:
            if (out_dir / path.name).is_dir():
                raise IsADirectoryError(f"{out_dir / path.name} is a directory")
        for path in files:
            os.replace(path, out_dir / path.name)
        written = {path.name for path in files}
        for stem in _ARTIFACTS[subcommand]:
            for name in (f"{stem}.csv", f"{stem}.json"):
                stale = out_dir / name
                if name not in written and not stale.is_dir():
                    stale.unlink(missing_ok=True)
    finally:
        shutil.rmtree(staging, ignore_errors=True)


# --------------------------------------------------------------------------
# fusion
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class FusionRunConfig:
    visibility: float = 1.0
    ancilla: bool = True
    phase: float = 0.0
    seed: int = 0
    ppnrd_fanout: int = 4
    ppnrd_efficiency: float = 1.0

    def __post_init__(self):
        # Build the physics configs eagerly so range errors surface as
        # configuration failures (exit code 2) before any work starts.
        self.experiment()
        detection.PPNRDConfig(self.ppnrd_fanout, self.ppnrd_efficiency)

    def experiment(self) -> ExperimentConfig:
        return ExperimentConfig(
            overlap=self.visibility,
            ancilla_enabled=self.ancilla,
            phase=self.phase,
        )


def cmd_fusion(args) -> int:
    cfg = _merge_config(FusionRunConfig, args)
    with _staged_output(args.out, "fusion", asdict(cfg)) as staging:
        stats = detection.success_probability(cfg.experiment())
        ppnrd = detection.PPNRDConfig(cfg.ppnrd_fanout, cfg.ppnrd_efficiency)
        factors = detection.normalization_factors(stats.table, ppnrd)

        rows = []
        for label in BellLabel:
            rows.append((label.value, float(stats.outcome_probs[label]), 0.0))
        rows.append(("fail", float(stats.outcome_probs[None]), 0.0))
        rows.append(("total_success", float(stats.total_success), 0.0))
        pattern_rows = []
        for label in BellLabel:
            for pattern, prob in sorted(stats.results[label].pattern_probs.items()):
                pattern_rows.append(
                    (label.value, "|" + "".join(str(n) for n in pattern) + "|", float(prob))
                )
        factor_rows = [
            ("|" + "".join(str(n) for n in pattern) + "|", float(factor))
            for pattern, factor in sorted(factors.items())
        ]
        tables = (
            ("outcomes", "outcomes v1", ("outcome", "probability", "stderr"), rows),
            ("patterns", "patterns v1", ("input", "pattern", "probability"), pattern_rows),
            ("factors", "normalization-factors v1", ("pattern", "factor"), factor_rows),
        )
        for stem, schema, header, table in tables:
            _write_table(staging, stem, schema, header, table, args.format)
    print(f"fusion: total success {stats.total_success:.6f} -> {Path(args.out)}")
    return 0


# --------------------------------------------------------------------------
# sweep
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepRunConfig:
    kind: str = "phase"
    grid: Optional[tuple[float, ...]] = None  # None: the kind's default grid
    visibility: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("phase", "visibility"):
            raise ValueError("sweep kind must be 'phase' or 'visibility'")
        if self.grid is not None and not 1 <= len(self.grid) <= MAX_GRID_POINTS:
            raise ValueError(f"sweep grid must hold 1 to {MAX_GRID_POINTS} values")
        # The physics configs check the ranges, as for fusion.
        ExperimentConfig(overlap=self.visibility)
        for v in self.grid or ():
            if self.kind == "phase":
                ExperimentConfig(phase=v)
            else:
                ExperimentConfig(overlap=v)


def cmd_sweep(args) -> int:
    grid = None if args.grid is None else tuple(_parse_grid(args.grid))
    cfg = _merge_config(SweepRunConfig, args, grid=grid)
    defaults = {
        "phase": tuple(float(x) for x in np.linspace(0.0, 2.2 * math.pi, 23)),
        "visibility": (1.0, 0.98, 0.96, 0.94, 0.92, 0.90),
    }
    grid = cfg.grid or defaults[cfg.kind]

    with _staged_output(args.out, "sweep", {**asdict(cfg), "grid": list(grid)}) as staging:
        if cfg.kind == "phase":
            points = detection.phase_sweep(grid, ExperimentConfig(overlap=cfg.visibility))
            schema = "phase-sweep v1"
            header: tuple[str, ...] = ("phase", "pp", "pm", "mp", "mm")
            rows = [
                (
                    float(pt.phase),
                    float(pt.coincidences["++"]),
                    float(pt.coincidences["+-"]),
                    float(pt.coincidences["-+"]),
                    float(pt.coincidences["--"]),
                )
                for pt in points
            ]
        else:
            schema = "visibility-sweep v1"
            header = ("overlap", "hom_visibility", "total_success")
            rows = []
            for overlap in grid:
                stats = detection.success_probability(ExperimentConfig(overlap=overlap))
                rows.append(
                    (
                        float(overlap),
                        float(experiment.hom_visibility(overlap)),
                        float(stats.total_success),
                    )
                )
        _write_table(staging, "sweep", schema, header, rows, args.format)
    print(f"sweep ({cfg.kind}): {len(grid)} points -> {Path(args.out)}")
    return 0


# --------------------------------------------------------------------------
# percolate
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class PercolateRunConfig:
    sizes: tuple[int, ...] = (10, 100)
    mode: str = "site-bond"
    boundary: str = "open"
    trials: int = 200
    p_start: float = 0.0
    p_stop: float = 1.0
    p_step: float = 0.01
    seed: int = 0
    threads: int = 1

    def __post_init__(self):
        if (not self.sizes or len(set(self.sizes)) < len(self.sizes)
                or not 2 <= min(self.sizes) <= max(self.sizes) <= percolation.MAX_SIDE):
            raise ValueError(f"sizes must be distinct and lie in [2, {percolation.MAX_SIDE}]")
        if self.mode not in percolation.MODES:
            raise ValueError(f"mode must be one of {percolation.MODES}")
        if self.boundary not in percolation.BOUNDARIES:
            raise ValueError(f"boundary must be one of {percolation.BOUNDARIES}")
        if self.trials < 1:
            raise ValueError("trials must be positive")
        if not 0.0 <= self.p_start < self.p_stop <= 1.0:
            raise ValueError("need 0 <= p_start < p_stop <= 1")
        if not 0.0 < self.p_step <= 1.0:
            raise ValueError("p_step must lie in (0, 1]")
        steps = (self.p_stop - self.p_start) / self.p_step
        # round(steps) + 1 points; an infinite count stops here, not in round().
        if not steps < MAX_GRID_POINTS - 0.5:
            raise ValueError(f"the grid would hold more than {MAX_GRID_POINTS} points")
        if abs(steps - round(steps)) > 1e-6:
            raise ValueError("p_step must divide p_stop - p_start")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.threads < 1:
            raise ValueError("threads must be positive")

    def grid(self) -> np.ndarray:
        count = int(round((self.p_stop - self.p_start) / self.p_step)) + 1
        return np.round(np.linspace(self.p_start, self.p_stop, count), 12)


def _parse_sizes(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad sizes {text!r}: {exc}") from exc


def _curve_rows(curves: dict[int, percolation.SweepCurve]):
    for length in sorted(curves):
        curve = curves[length]
        for p, mean, err in zip(curve.p_grid, curve.mean, curve.stderr):
            yield (
                curve.length,
                curve.boundary,
                curve.mode,
                float(p),
                float(mean),
                float(err),
                curve.trials,
                curve.seed,
            )


def cmd_percolate(args) -> int:
    sizes = None if args.sizes is None else _parse_sizes(args.sizes)
    grid = {}
    if args.grid is not None:
        parts = args.grid.split(":")
        if len(parts) != 3:
            raise ConfigError("percolate --grid wants start:stop:step")
        try:
            grid = dict(zip(("p_start", "p_stop", "p_step"), map(float, parts)))
        except ValueError as exc:
            raise ConfigError(f"bad grid {args.grid!r}: {exc}") from exc
    cfg = _merge_config(PercolateRunConfig, args, sizes=sizes, **grid)
    with _staged_output(args.out, "percolate", asdict(cfg)) as staging:
        sweeps = percolation.size_sweeps(
            cfg.sizes,
            cfg.trials,
            cfg.grid(),
            cfg.seed,
            mode=cfg.mode,
            boundary=cfg.boundary,
            workers=cfg.threads,
        )
        fraction_curves = {L: curves["fraction"] for L, curves in sweeps.items()}
        spanning_curves = {L: curves["spanning"] for L, curves in sweeps.items()}

        try:
            estimate = percolation.estimate_threshold(list(spanning_curves.values()))
        except percolation.NoThresholdError as exc:
            threshold_payload = {
                "estimate": None,
                "method": f"unavailable ({exc})",
                "sizes": sorted(cfg.sizes),
            }
        else:
            threshold_payload = {
                **asdict(estimate),
                "observable": "spanning",
                # String keys: json sorts int keys as ints (8 before 12).
                "crossings": {str(k): v for k, v in estimate.crossings.items()},
            }

        header = ("L", "boundary", "mode", "p", "mean_fraction", "stderr", "trials", "seed")
        tables = [("curves", "largest-cluster v1", fraction_curves)]
        if cfg.boundary == "open":
            tables.append(("spanning", "spanning-probability v1", spanning_curves))
        for stem, schema, curves in tables:
            rows = _curve_rows(curves)
            _write_table(staging, stem, schema, header, rows, args.format)
        _write_json(staging / "threshold.json", threshold_payload)
    print(
        f"percolate: sizes {list(cfg.sizes)} mode {cfg.mode} "
        f"threshold {threshold_payload.get('estimate')} -> {Path(args.out)}"
    )
    return 0


# --------------------------------------------------------------------------
# ppnrd / rate
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class PPNRDRunConfig:
    photons: int = 4
    fanout: int = 4
    eta_det: float = 1.0

    def __post_init__(self):
        if self.photons < 0:
            raise ValueError("photon number must be non-negative")
        # Range errors of the detector surface as configuration failures.
        detection.PPNRDConfig(self.fanout, self.eta_det)


def cmd_ppnrd(args) -> int:
    cfg = _merge_config(PPNRDRunConfig, args)
    with _staged_output(args.out, "ppnrd", asdict(cfg)) as staging:
        ppnrd = detection.PPNRDConfig(cfg.fanout, cfg.eta_det)
        clicks = detection.ppnrd_response(cfg.photons, ppnrd)
        payload = {
            "photons": cfg.photons,
            "fanout": cfg.fanout,
            "eta_det": cfg.eta_det,
            "click_distribution": clicks,
            "resolve_probability": detection.resolve_probability(cfg.photons, ppnrd),
        }
        _write_json(staging / "ppnrd.json", payload)
    resolve = payload["resolve_probability"]
    print(f"ppnrd: resolve probability {resolve} -> {Path(args.out)}")
    return 0


@dataclass(frozen=True)
class RateRunConfig:
    attempts: float = 7.1e6
    eta: float = 0.16
    fold: int = 8

    def __post_init__(self):
        # The rate function checks the ranges.
        detection.nfold_rate(self.attempts, self.eta, self.fold)


def cmd_rate(args) -> int:
    cfg = _merge_config(RateRunConfig, args)
    with _staged_output(args.out, "rate", asdict(cfg)) as staging:
        rate = detection.nfold_rate(cfg.attempts, cfg.eta, cfg.fold)
        payload = {
            "attempts_per_second": cfg.attempts,
            "eta": cfg.eta,
            "fold": cfg.fold,
            "rate_hz": rate,
        }
        _write_json(staging / "rate.json", payload)
    print(f"rate: {rate} Hz -> {Path(args.out)}")
    return 0


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fusionsim",
        description="Fusion-gate simulation and cluster-state percolation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--format", choices=("csv", "json"), default="csv",
                       help="tabular output format (csv output is canonical)")
        p.add_argument("--threads", type=int, default=None,
                       help="worker processes for Monte Carlo trials; exact "
                            "computations ignore it and every value yields "
                            "identical output")

    p = sub.add_parser("fusion", help="exact fusion-gate statistics")
    common(p)
    p.add_argument("--visibility", type=float, help="pairwise photon overlap")
    p.add_argument("--no-ancilla", dest="ancilla", action="store_false", default=None,
                   help="conventional gate only")
    p.add_argument("--phase", type=float, help="H/V phase on the port-2 arm")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_fusion)

    p = sub.add_parser("sweep", help="phase fringe or overlap sweep")
    common(p)
    p.add_argument("--kind", choices=("phase", "visibility"))
    p.add_argument("--grid", help="start:stop:count or comma list")
    p.add_argument("--visibility", type=float, help="overlap for phase sweeps")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("percolate", help="connectivity curves and threshold")
    common(p)
    p.add_argument("--sizes", help="comma-separated lattice sides")
    p.add_argument("--mode", choices=percolation.MODES)
    p.add_argument("--boundary", choices=percolation.BOUNDARIES)
    p.add_argument("--trials", type=int)
    p.add_argument("--grid", help="start:stop:step occupation grid")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_percolate)

    p = sub.add_parser("ppnrd", help="multiplexed detector click statistics")
    common(p)
    p.add_argument("--n", dest="photons", type=int, help="photons on the group")
    p.add_argument("--k", dest="fanout", type=int, help="sub-detectors per group")
    p.add_argument("--eta-det", dest="eta_det", type=float, help="sub-detector efficiency")
    p.set_defaults(func=cmd_ppnrd)

    p = sub.add_parser("rate", help="n-fold coincidence rate")
    common(p)
    p.add_argument("--attempts", type=float, help="attempts per second")
    p.add_argument("--eta", type=float, help="per-photon efficiency")
    p.add_argument("--fold", type=int, help="coincidence order")
    p.set_defaults(func=cmd_rate)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.threads is not None and args.threads < 1:
            raise ConfigError("threads must be positive")
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
