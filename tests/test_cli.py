"""Command-line interface: configs, outputs, exit codes, determinism."""

import json
import math
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusionsim import cli, detection, experiment, percolation
from fusionsim.cli import (
    FusionRunConfig,
    PercolateRunConfig,
    PPNRDRunConfig,
    RateRunConfig,
    SweepRunConfig,
    main,
)
from fusionsim.experiment import BellLabel


DATA = Path(__file__).parent / "data"


def read(path):
    return path.read_bytes()


def outcome_map(csv_path):
    rows = csv_path.read_text().splitlines()[2:]
    return {name: float(value) for name, value, _ in (r.split(",") for r in rows)}


class TestFusionCommand:
    def test_default_run(self, tmp_path):
        out = tmp_path / "run"
        assert main(["fusion", "--out", str(out)]) == 0
        outcomes = outcome_map(out / "outcomes.csv")
        assert abs(outcomes["total_success"] - 0.75) < 1e-9
        assert abs(outcomes["psi-"] - 0.25) < 1e-9
        assert abs(outcomes["phi+"] - 0.125) < 1e-9
        assert (out / "patterns.csv").exists()
        assert (out / "factors.csv").exists()
        config = json.loads((out / "run_config.json").read_text())
        assert config["subcommand"] == "fusion"
        assert config["visibility"] == 1.0

    def test_unboosted_run(self, tmp_path):
        out = tmp_path / "run"
        assert main(["fusion", "--no-ancilla", "--out", str(out)]) == 0
        outcomes = outcome_map(out / "outcomes.csv")
        assert abs(outcomes["total_success"] - 0.5) < 1e-9
        assert outcomes["phi+"] < 1e-9

    def test_malformed_config_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        out = tmp_path / "run"
        assert main(["fusion", "--config", str(bad), "--out", str(out)]) == 2
        assert not (out / "outcomes.csv").exists()

    def test_unknown_config_key_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"visiblity": 0.9}))
        assert main(["fusion", "--config", str(bad), "--out", str(tmp_path / "x")]) == 2

    def test_out_of_range_visibility_exits_2(self, tmp_path):
        assert main(["fusion", "--visibility", "1.5", "--out", str(tmp_path)]) == 2

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"ancilla": False, "visibility": 1.0}))
        out = tmp_path / "run"
        assert main(["fusion", "--config", str(cfg), "--out", str(out)]) == 0
        outcomes = outcome_map(out / "outcomes.csv")
        assert abs(outcomes["total_success"] - 0.5) < 1e-9

    def test_rerun_is_byte_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["fusion", "--out", str(out_a)]) == 0
        assert main(["fusion", "--out", str(out_b)]) == 0
        for name in ("outcomes.csv", "patterns.csv", "factors.csv"):
            assert read(out_a / name) == read(out_b / name)

    def test_each_input_runs_once_per_table(self, tmp_path, monkeypatch):
        calls = []
        run_fusion = experiment.run_fusion

        def counting(inputs, config):
            calls.append((inputs, config.phase))
            return run_fusion(inputs, config)

        monkeypatch.setattr(detection, "run_fusion", counting)
        monkeypatch.setattr(experiment, "run_fusion", counting)
        out = tmp_path / "run"
        assert main(["fusion", "--phase", "0.5", "--out", str(out)]) == 0
        # the four inputs in one call for the ideal table, one at the configured phase
        assert sorted(calls, key=lambda call: call[1]) == [
            (tuple(BellLabel), 0.0),
            (tuple(BellLabel), 0.5),
        ]

    def test_json_format(self, tmp_path):
        out = tmp_path / "run"
        assert main(["fusion", "--format", "json", "--out", str(out)]) == 0
        assert not (out / "outcomes.csv").exists()
        payload = json.loads((out / "outcomes.json").read_text())
        assert payload["columns"] == ["outcome", "probability", "stderr"]
        totals = [r for r in payload["rows"] if r[0] == "total_success"]
        assert abs(totals[0][1] - 0.75) < 1e-9


@pytest.mark.parametrize(
    "name, argv",
    [
        ("fusion", ["fusion"]),
        ("fusion-no-ancilla", ["fusion", "--no-ancilla"]),
        ("phase-sweep", ["sweep", "--kind", "phase", "--grid", "0:6.9:24"]),
        ("fusion-v95", ["fusion", "--visibility", "0.95"]),
        ("visibility-sweep", ["sweep", "--kind", "visibility", "--grid", "1.0,0.96,0.92"]),
        ("percolate-site-bond", ["percolate", "--sizes", "8,12", "--trials", "10",
                                 "--grid", "0.4:0.9:0.05", "--seed", "17"]),
        ("percolate-bond", ["percolate", "--mode", "bond", "--sizes", "6,10",
                            "--trials", "8", "--grid", "0:1:0.1", "--seed", "3"]),
    ],
)
def test_artifacts_match_recorded_bytes(tmp_path, name, argv):
    """Artifacts pinned byte for byte against the copies in tests/data: a
    change in term order or rounding that reaches an artifact shows here
    first.  The V=1 artifacts round the same under most reorderings of a
    sum; the V=0.95 run, which sums over 256 wave-packet branches, does
    not.  The visibility sweep pins the ideal table and three overlaps
    through one shared path.  The percolate runs pin the sweep, the
    binomial windows, the convolution and the aggregation: the site-bond
    run's first window starts after some bonds are in effect, the bond
    run's at step 0."""
    out = tmp_path / "run"
    assert main([*argv, "--out", str(out)]) == 0
    recorded = sorted((DATA / name).iterdir())
    assert recorded
    for ref in recorded:
        assert read(out / ref.name) == read(ref), ref.name


class TestSweepCommand:
    def test_phase_sweep(self, tmp_path):
        out = tmp_path / "run"
        code = main(
            ["sweep", "--kind", "phase", "--grid", f"0:{math.pi}:3", "--out", str(out)]
        )
        assert code == 0
        rows = (out / "sweep.csv").read_text().splitlines()
        assert rows[0].startswith("# fusionsim phase-sweep")
        assert rows[1] == "phase,pp,pm,mp,mm"
        first = rows[2].split(",")
        assert abs(float(first[1])) < 1e-12  # singlet: ++ dark at zero phase

    def test_visibility_sweep(self, tmp_path):
        out = tmp_path / "run"
        code = main(
            ["sweep", "--kind", "visibility", "--grid", "1.0,0.95", "--out", str(out)]
        )
        assert code == 0
        rows = (out / "sweep.csv").read_text().splitlines()[2:]
        totals = [float(r.split(",")[2]) for r in rows]
        assert abs(totals[0] - 0.75) < 1e-9
        assert totals[1] < totals[0]

    def test_bad_kind_exits_2(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["sweep", "--kind", "spectral", "--out", str(tmp_path)])

    def test_empty_grid_flag_exits_2(self, tmp_path):
        out = tmp_path / "run"
        assert main(["sweep", "--kind", "phase", "--grid", ",", "--out", str(out)]) == 2
        assert not out.exists()

    def test_empty_grid_in_config_exits_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "phase", "grid": []}))
        out = tmp_path / "run"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, config",
        [
            (["--grid", "0:1"], None),
            (["--grid", "a:b:3"], None),
            (["--grid", "1,x"], None),
            ([], {"kind": "x"}),
        ],
    )
    def test_malformed_config_exits_2(self, tmp_path, flags, config):
        args = ["sweep", *flags, "--out", str(tmp_path / "run")]
        if config is not None:
            args += ["--config", write_config(tmp_path, config)]
        assert main(args) == 2
        assert not (tmp_path / "run").exists()

    def test_grid_over_the_point_cap_exits_2(self, tmp_path, monkeypatch):
        """A count just over ``MAX_GRID_POINTS`` is refused before any grid
        array is built, so a count of 10**9 cannot exhaust memory."""
        def no_linspace(*args, **kwargs):
            raise AssertionError("a grid array was built")

        monkeypatch.setattr(cli.np, "linspace", no_linspace)
        out = tmp_path / "run"
        grid = f"0:1:{cli.MAX_GRID_POINTS + 1}"
        assert main(["sweep", "--kind", "visibility", "--grid", grid, "--out", str(out)]) == 2
        assert not out.exists()


class TestPercolateCommand:
    ARGS = [
        "percolate",
        "--sizes", "8,12",
        "--trials", "12",
        "--grid", "0.4:0.9:0.05",
        "--seed", "9",
    ]

    def test_outputs(self, tmp_path):
        out = tmp_path / "run"
        assert main(self.ARGS + ["--out", str(out)]) == 0
        curves = (out / "curves.csv").read_text().splitlines()
        assert curves[0].startswith("# fusionsim largest-cluster")
        assert curves[1] == "L,boundary,mode,p,mean_fraction,stderr,trials,seed"
        assert (out / "spanning.csv").exists()
        threshold = json.loads((out / "threshold.json").read_text())
        assert threshold["observable"] == "spanning"
        assert 0.0 < threshold["estimate"] < 1.0
        assert threshold["sizes"] == [8, 12]

    def test_crossings_keyed_by_size_strings(self, tmp_path):
        """Sizes key the crossings as strings, so the sorted file lists
        "12" before "8"; int keys would sort as numbers."""
        out = tmp_path / "run"
        assert main(self.ARGS + ["--out", str(out)]) == 0
        threshold = json.loads((out / "threshold.json").read_text())
        assert list(threshold["crossings"]) == ["12", "8"]

    def test_same_seed_byte_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(self.ARGS + ["--out", str(out_a)]) == 0
        assert main(self.ARGS + ["--out", str(out_b)]) == 0
        for name in ("curves.csv", "spanning.csv", "threshold.json"):
            assert read(out_a / name) == read(out_b / name)

    def test_thread_count_does_not_change_bytes(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(self.ARGS + ["--threads", "1", "--out", str(out_a)]) == 0
        assert main(self.ARGS + ["--threads", "3", "--out", str(out_b)]) == 0
        for name in ("curves.csv", "spanning.csv", "threshold.json"):
            assert read(out_a / name) == read(out_b / name)

    def test_bond_mode(self, tmp_path):
        out = tmp_path / "run"
        args = [
            "percolate", "--sizes", "8,16", "--mode", "bond",
            "--trials", "30", "--grid", "0.3:0.7:0.02", "--seed", "4",
            "--out", str(out),
        ]
        assert main(args) == 0
        threshold = json.loads((out / "threshold.json").read_text())
        assert abs(threshold["estimate"] - 0.5) < 0.08  # tiny lattices, loose

    def test_json_format(self, tmp_path):
        out = tmp_path / "run"
        assert main(self.ARGS + ["--format", "json", "--out", str(out)]) == 0
        payload = json.loads((out / "curves.json").read_text())
        assert payload["schema"] == "largest-cluster v1"
        assert payload["columns"][0] == "L"
        assert {row[0] for row in payload["rows"]} == {8, 12}

    def test_invalid_sizes_exit_2(self, tmp_path):
        assert main(["percolate", "--sizes", "1,4", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("sizes", ["70000", "37838", "8,37838"])
    def test_side_over_the_cap_exits_2(self, tmp_path, monkeypatch, sizes):
        """A side above ``percolation.MAX_SIDE`` is refused by the config,
        before any sweep could ask for gigabytes of lattice."""

        def no_sweeps(*args, **kwargs):
            pytest.fail("size_sweeps ran for a side over the cap")

        monkeypatch.setattr(percolation, "size_sweeps", no_sweeps)
        out = tmp_path / "run"
        assert main(["percolate", "--sizes", sizes, "--out", str(out)]) == 2
        assert not out.exists()

    def test_side_at_the_cap_is_valid(self):
        assert PercolateRunConfig(sizes=(37837,)).sizes == (percolation.MAX_SIDE,)

    def test_invalid_grid_exit_2(self, tmp_path):
        assert main(["percolate", "--grid", "0.9:0.1:0.05", "--out", str(tmp_path)]) == 2

    def test_empty_sizes_flag_exits_2(self, tmp_path):
        out = tmp_path / "run"
        args = ["percolate", "--sizes", "", "--trials", "1",
                "--grid", "0.4:0.6:0.1", "--out", str(out)]
        assert main(args) == 2
        assert not out.exists()

    def test_empty_grid_flag_exits_2(self, tmp_path):
        out = tmp_path / "run"
        args = ["percolate", "--grid", "", "--sizes", "4,6", "--trials", "1",
                "--out", str(out)]
        assert main(args) == 2
        assert not out.exists()

    def test_step_must_divide_grid_range(self, tmp_path):
        out = tmp_path / "run"
        assert main(["percolate", "--grid", "0.4:0.9:0.03", "--out", str(out)]) == 2
        assert not out.exists()

    def test_grid_over_the_point_cap_exits_2(self, tmp_path):
        """A step just too fine for ``MAX_GRID_POINTS`` is refused before any
        grid array is built; 0:1:0.0001 holds exactly the cap."""
        assert len(PercolateRunConfig(p_step=0.0001).grid()) == cli.MAX_GRID_POINTS
        out = tmp_path / "run"
        step = 1 / cli.MAX_GRID_POINTS  # MAX_GRID_POINTS + 1 points
        assert main(["percolate", "--grid", f"0:1:{step!r}", "--out", str(out)]) == 2
        assert not out.exists()
        # A subnormal step makes the count infinite, which round() cannot take.
        assert main(["percolate", "--grid", "0:1:5e-324", "--out", str(out)]) == 2

    def test_never_crossing_grid_writes_null_threshold(self, tmp_path):
        out = tmp_path / "run"
        args = ["percolate", "--sizes", "6,8", "--trials", "2",
                "--grid", "0.1:0.2:0.05", "--out", str(out)]
        assert main(args) == 0
        threshold = json.loads((out / "threshold.json").read_text())
        assert threshold["estimate"] is None
        assert "never crosses" in threshold["method"]
        for name in ("curves.csv", "spanning.csv", "run_config.json"):
            assert (out / name).exists()

    def test_periodic_boundary_reports_no_threshold(self, tmp_path):
        """Wrap bonds make the first and last rows neighbours, so a
        periodic run has no spanning curve to cross: it writes the
        largest-cluster curves, no spanning.csv and a null estimate."""
        out = tmp_path / "run"
        args = ["percolate", "--mode", "bond", "--boundary", "periodic",
                "--sizes", "8,12", "--trials", "10", "--grid", "0:1:0.1",
                "--seed", "3", "--out", str(out)]
        assert main(args) == 0
        threshold = json.loads((out / "threshold.json").read_text())
        assert threshold["estimate"] is None
        assert "periodic" in threshold["method"]
        assert (out / "curves.csv").exists()
        assert not (out / "spanning.csv").exists()

    PERIODIC = "periodic boundary: the first and last rows are neighbours"

    @pytest.mark.parametrize(
        "flags, reason, sizes",
        [
            (["--sizes", "8"], "need at least two sizes", [8]),
            (["--sizes", "6,8", "--boundary", "periodic"], PERIODIC, [6, 8]),
            (["--sizes", "8", "--boundary", "periodic"], PERIODIC, [8]),
            (["--sizes", "8,6", "--boundary", "periodic"], PERIODIC, [6, 8]),
            (["--sizes", "6,8", "--grid", "0.1:0.2:0.05"],
             "spanning curve never crosses 0.5 on the grid", [6, 8]),
        ],
        ids=["one-size", "periodic", "periodic-one-size", "periodic-descending",
             "never-crossing"],
    )
    def test_no_threshold_file_is_exact(self, tmp_path, flags, reason, sizes):
        """Every reason a run has no threshold, with the periodic one first,
        pinned byte for byte."""
        out = tmp_path / "run"
        args = ["percolate", "--trials", "2", "--grid", "0.4:0.9:0.1", *flags]
        assert main(args + ["--out", str(out)]) == 0
        listed = ",\n".join(f"    {L}" for L in sizes)
        assert (out / "threshold.json").read_text() == (
            '{\n  "estimate": null,\n'
            f'  "method": "unavailable ({reason})",\n'
            f'  "sizes": [\n{listed}\n  ]\n}}\n'
        )

    SMALL = ["percolate", "--sizes", "6,8", "--trials", "2", "--grid", "0.4:0.9:0.1"]

    def test_periodic_rerun_removes_the_open_run_spanning_table(self, tmp_path):
        out = tmp_path / "run"
        out.mkdir()
        (out / "notes.txt").write_text("mine")
        (out / "sweep.csv").write_text("another subcommand's")
        assert main(self.SMALL + ["--out", str(out)]) == 0
        assert (out / "spanning.csv").exists()
        assert main(self.SMALL + ["--boundary", "periodic", "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "curves.csv", "notes.txt", "run_config.json", "sweep.csv", "threshold.json"
        ]
        assert (out / "notes.txt").read_text() == "mine"

    def test_json_rerun_removes_the_csv_tables(self, tmp_path):
        out = tmp_path / "run"
        assert main(self.SMALL + ["--out", str(out)]) == 0
        assert main(self.SMALL + ["--format", "json", "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "curves.json", "run_config.json", "spanning.json", "threshold.json"
        ]

    @pytest.mark.parametrize(
        "flags, config",
        [
            (["--sizes", "10,abc"], None),
            ([], {"trials": 2.5}),
            ([], {"sizes": 5}),
            (["--sizes", "4,6", "--seed", "-20"], None),
            (["--grid", "0.4:x:0.1"], None),
            (["--sizes", "4,4", "--trials", "2", "--grid", "0.2:0.8:0.3"], None),
            (["--sizes", "4,4,6", "--trials", "2", "--grid", "0.2:0.8:0.3"], None),
            ([], [1, 2]),
            ([], {"mode": "x"}),
            ([], {"boundary": "x"}),
            ([], {"threads": 0}),
            (["--grid", "0:1:1.5"], None),
        ],
    )
    def test_malformed_config_exits_2(self, tmp_path, flags, config):
        args = ["percolate", *flags, "--out", str(tmp_path / "run")]
        if config is not None:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(config))
            args += ["--config", str(path)]
        assert main(args) == 2
        assert not (tmp_path / "run").exists()


class TestSmallCommands:
    def test_ppnrd_resolve_probability(self, tmp_path):
        out = tmp_path / "run"
        assert main(["ppnrd", "--n", "4", "--k", "4", "--out", str(out)]) == 0
        payload = json.loads((out / "ppnrd.json").read_text())
        assert payload["resolve_probability"] == 0.09375
        assert abs(sum(payload["click_distribution"]) - 1.0) < 1e-12

    def test_ppnrd_past_float_range(self, tmp_path):
        out = tmp_path / "run"
        assert main(["ppnrd", "--n", "200", "--k", "1000", "--out", str(out)]) == 0
        payload = json.loads((out / "ppnrd.json").read_text())
        assert 0.0 < payload["resolve_probability"] < 1e-9

    def test_rate(self, tmp_path):
        out = tmp_path / "run"
        args = ["rate", "--attempts", "7.1e6", "--eta", "0.16", "--fold", "8"]
        assert main(args + ["--out", str(out)]) == 0
        payload = json.loads((out / "rate.json").read_text())
        assert abs(payload["rate_hz"] - 3.05) < 0.01

    def test_rate_validation_exit_2(self, tmp_path):
        assert main(["rate", "--eta", "1.2", "--out", str(tmp_path)]) == 2

    def test_ppnrd_validation_exit_2(self, tmp_path):
        assert main(["ppnrd", "--n", "-2", "--out", str(tmp_path)]) == 2

    def test_failure_without_a_message_names_its_type(self, tmp_path, monkeypatch, capsys):
        """A fanout too large for memory raises a bare MemoryError; stderr
        names the type rather than printing an empty message."""
        def out_of_memory(n, config):
            raise MemoryError()

        monkeypatch.setattr(detection, "ppnrd_response", out_of_memory)
        out = tmp_path / "run"
        assert main(["ppnrd", "--n", "3", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: MemoryError\n"
        assert not out.exists()


def write_config(tmp_path, config):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    return str(path)


@pytest.mark.parametrize(
    "command, config",
    [
        ("rate", {"fold": 2.5}),
        ("rate", {"eta": True}),
        ("ppnrd", {"photons": 2.5}),
        ("ppnrd", {"fanout": 0}),
        ("fusion", {"seed": "1"}),
        ("fusion", {"ancilla": 1}),
        ("sweep", {"grid": [0.1, "x"]}),
        ("percolate", {"sizes": [10, 12.0]}),
    ],
)
def test_config_value_of_wrong_type_exits_2(tmp_path, command, config):
    out = tmp_path / "run"
    args = [command, "--config", write_config(tmp_path, config), "--out", str(out)]
    assert main(args) == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "command, flags, config",
    [
        ("sweep", ["--kind", "phase", "--grid", "nan"], None),
        ("sweep", ["--kind", "phase", "--grid", "inf"], None),
        ("sweep", [], {"kind": "phase", "grid": [0.0, math.nan]}),
        ("rate", ["--attempts", "nan"], None),
        ("rate", ["--attempts", "inf"], None),
        ("rate", [], {"attempts": math.inf}),
    ],
)
def test_non_finite_value_exits_2(tmp_path, command, flags, config):
    out = tmp_path / "run"
    args = [command, *flags, "--out", str(out)]
    if config is not None:
        args += ["--config", write_config(tmp_path, config)]
    assert main(args) == 2
    assert not out.exists()


#: One quick run per subcommand.
QUICK_RUNS = {
    "fusion": ["fusion", "--no-ancilla"],
    "sweep": ["sweep", "--kind", "phase", "--grid", "0,1"],
    "percolate": ["percolate", "--sizes", "4,6", "--trials", "2",
                  "--grid", "0.4:0.8:0.2"],
    "ppnrd": ["ppnrd", "--n", "2"],
    "rate": ["rate"],
}


@pytest.mark.parametrize("command", sorted(QUICK_RUNS))
@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_exits_2(tmp_path, command, threads):
    out = tmp_path / "run"
    assert main([*QUICK_RUNS[command], "--threads", threads, "--out", str(out)]) == 2
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", sorted(QUICK_RUNS))
@pytest.mark.parametrize("existing", [False, True, "nested"])
def test_failed_write_leaves_out_untouched(tmp_path, monkeypatch, command, existing):
    """A run whose second file write fails exits 1 and leaves --out as it
    was (absent, or holding its earlier files), no staging directory and,
    for a nested --out, none of its missing parents."""
    out = tmp_path / "a" / "b" / "run" if existing == "nested" else tmp_path / "run"
    if existing is True:
        out.mkdir()
        (out / "old.txt").write_text("kept")
    before = sorted(p.name for p in tmp_path.iterdir())
    writes = []
    real_open = open

    def failing_open(path, mode="r", *args, **kwargs):
        if "w" in mode:
            writes.append(path)
            if len(writes) == 2:
                raise OSError("disk full")
        return real_open(path, mode, *args, **kwargs)

    monkeypatch.setattr(cli, "open", failing_open, raising=False)
    assert main([*QUICK_RUNS[command], "--out", str(out)]) == 1
    assert len(writes) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == before
    if existing is True:
        assert [p.name for p in out.iterdir()] == ["old.txt"]

    monkeypatch.undo()
    assert main([*QUICK_RUNS[command], "--out", str(out)]) == 0
    top = out.relative_to(tmp_path).parts[0]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(set(before) | {top})
    assert "run_config.json" in {p.name for p in out.iterdir()}


#: The library call doing each QUICK_RUNS command's work, and how often its
#: run config calls it to check ranges before any work starts.
WORK = {
    "fusion": (detection, "success_probability", 0),
    "sweep": (detection, "phase_sweep", 0),
    "percolate": (percolation, "size_sweeps", 0),
    "ppnrd": (detection, "ppnrd_response", 0),
    "rate": (detection, "nfold_rate", 1),
}


@pytest.mark.parametrize("command", sorted(QUICK_RUNS))
@pytest.mark.parametrize("under", [False, True])
def test_out_that_is_a_file_fails_before_the_work(tmp_path, monkeypatch, capsys,
                                                  command, under):
    """An --out that is a file, or lies under one, exits 1 naming --out
    before the work starts, and leaves the file as it was."""
    afile = tmp_path / "afile"
    afile.write_text("kept")
    out = afile / "run" if under else afile
    module, name, checks = WORK[command]
    calls = []
    work = getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return work(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    assert main([*QUICK_RUNS[command], "--out", str(out)]) == 1
    assert f"--out {out}" in capsys.readouterr().err
    assert len(calls) == checks
    assert afile.read_text() == "kept"
    assert [p.name for p in tmp_path.iterdir()] == ["afile"]
    # The spy sees the work of a run that can write.
    calls.clear()
    assert main([*QUICK_RUNS[command], "--out", str(tmp_path / "ok")]) == 0
    assert len(calls) == checks + 1


@pytest.mark.parametrize("command", sorted(QUICK_RUNS))
def test_default_out_stages_inside_the_working_directory(tmp_path, monkeypatch, command):
    """With the default --out ".", the run stages inside "." and never
    touches its parent, which may not be writable."""
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    staged_in = []
    real_mkdtemp = cli.tempfile.mkdtemp

    def spying_mkdtemp(*args, **kwargs):
        staged_in.append(Path(kwargs["dir"]))
        return real_mkdtemp(*args, **kwargs)

    monkeypatch.setattr(cli.tempfile, "mkdtemp", spying_mkdtemp)
    assert main(QUICK_RUNS[command]) == 0
    assert staged_in == [work]
    assert [p.name for p in tmp_path.iterdir()] == ["work"]
    assert "run_config.json" in {p.name for p in work.iterdir()}
    assert not list(work.glob(".fusionsim-*"))


#: Every flag of each subcommand set to a non-default value, with the
#: run-config class and the run_config.json entries the flags must reach.
EVERY_FLAG = {
    "fusion": (
        FusionRunConfig,
        ["--visibility", "0.99", "--no-ancilla", "--phase", "0.1", "--seed", "5"],
        {"visibility": 0.99, "ancilla": False, "phase": 0.1, "seed": 5},
    ),
    "sweep": (
        SweepRunConfig,
        ["--kind", "visibility", "--grid", "1", "--visibility", "0.99", "--seed", "2"],
        {"kind": "visibility", "grid": [1.0], "visibility": 0.99, "seed": 2},
    ),
    "percolate": (
        PercolateRunConfig,
        ["--sizes", "4,6", "--mode", "bond", "--boundary", "periodic",
         "--trials", "2", "--grid", "0.4:0.8:0.2", "--seed", "3", "--threads", "2"],
        {"sizes": [4, 6], "mode": "bond", "boundary": "periodic", "trials": 2,
         "p_start": 0.4, "p_stop": 0.8, "p_step": 0.2, "seed": 3, "threads": 2},
    ),
    "ppnrd": (
        PPNRDRunConfig,
        ["--n", "3", "--k", "5", "--eta-det", "0.5"],
        {"photons": 3, "fanout": 5, "eta_det": 0.5},
    ),
    "rate": (
        RateRunConfig,
        ["--attempts", "1e6", "--eta", "0.5", "--fold", "3"],
        {"attempts": 1e6, "eta": 0.5, "fold": 3},
    ),
}


@pytest.mark.parametrize("command", sorted(EVERY_FLAG))
def test_every_flag_reaches_its_field(tmp_path, command):
    """A flag that parsed but never reached its field would leave the
    field's default in run_config.json."""
    cls, flags, expected = EVERY_FLAG[command]
    defaults = {f.name: f.default for f in fields(cls)}
    assert all(expected[name] != defaults[name] for name in expected)
    out = tmp_path / "run"
    assert main([command, *flags, "--out", str(out)]) == 0
    recorded = json.loads((out / "run_config.json").read_text())
    assert {name: recorded[name] for name in expected} == expected


@pytest.mark.parametrize("command", sorted(QUICK_RUNS))
def test_directory_in_place_of_an_output_leaves_out_untouched(tmp_path, command):
    """A directory named like one of the run's files fails the run before
    any file is moved: --out keeps its names and bytes, and no staging
    directory is left."""
    out = tmp_path / "run"
    (out / "run_config.json").mkdir(parents=True)
    (out / "old.txt").write_text("kept")
    assert main([*QUICK_RUNS[command], "--out", str(out)]) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run"]
    assert sorted(p.name for p in out.iterdir()) == ["old.txt", "run_config.json"]
    assert (out / "old.txt").read_text() == "kept"
    assert list((out / "run_config.json").iterdir()) == []


def test_integer_in_float_field_is_accepted(tmp_path):
    out = tmp_path / "run"
    config = write_config(tmp_path, {"attempts": 1000, "eta": 1, "fold": 2})
    assert main(["rate", "--config", config, "--out", str(out)]) == 0
    payload = json.loads((out / "rate.json").read_text())
    assert payload["rate_hz"] == 1000.0


def hostile(max_int=8):
    """A fixed pool of malformed JSON values plus small integers."""
    return st.one_of(
        st.sampled_from([2.5, "x", None, True, -1, [], {}]),
        st.integers(min_value=0, max_value=max_int),
    )


def hostile_configs(cls, required=(), **limits):
    """JSON objects over the fields of ``cls`` with hostile values, always
    holding the fields named in ``required``; ``limits`` caps the integers
    drawn for a field."""
    values = {f.name: hostile(limits.get(f.name, 8)) for f in fields(cls)}
    return st.fixed_dictionaries(
        {name: values.pop(name) for name in required}, optional=values
    )


@pytest.mark.parametrize(
    "command, configs, flags",
    [
        ("rate", hostile_configs(RateRunConfig), []),
        ("ppnrd", hostile_configs(PPNRDRunConfig), []),
        (
            "percolate",
            # A config without a valid trials count runs the default 200.
            hostile_configs(PercolateRunConfig, required=["trials"], trials=3),
            ["--grid", "0.5:0.9:0.2"],
        ),
    ],
)
def test_hostile_config_exits_0_or_2(tmp_path_factory, command, configs, flags):
    @settings(max_examples=30, deadline=None)
    @given(config=configs)
    def run(config):
        tmp = tmp_path_factory.mktemp(command)
        args = [command, *flags, "--config", write_config(tmp, config),
                "--out", str(tmp / "run")]
        assert main(args) in (0, 2)

    run()
