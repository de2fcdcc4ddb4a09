"""Command-line interface: configs, outputs, exit codes, determinism."""

import json
import math
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusionsim import cli, detection, experiment
from fusionsim.cli import (
    PercolateRunConfig,
    PPNRDRunConfig,
    RateRunConfig,
    main,
)


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

        def counting(label, config):
            calls.append(config.phase)
            return run_fusion(label, config)

        monkeypatch.setattr(detection, "run_fusion", counting)
        monkeypatch.setattr(experiment, "run_fusion", counting)
        out = tmp_path / "run"
        assert main(["fusion", "--phase", "0.5", "--out", str(out)]) == 0
        # four ideal inputs for the table, four at the configured phase
        assert sorted(calls) == [0.0] * 4 + [0.5] * 4

    def test_json_format(self, tmp_path):
        out = tmp_path / "run"
        assert main(["fusion", "--format", "json", "--out", str(out)]) == 0
        assert not (out / "outcomes.csv").exists()
        payload = json.loads((out / "outcomes.json").read_text())
        assert payload["columns"] == ["outcome", "probability", "stderr"]
        totals = [r for r in payload["rows"] if r[0] == "total_success"]
        assert abs(totals[0][1] - 0.75) < 1e-9


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

    @pytest.mark.parametrize(
        "flags, config",
        [
            (["--sizes", "10,abc"], None),
            ([], {"trials": 2.5}),
            ([], {"sizes": 5}),
            (["--sizes", "4,6", "--seed", "-20"], None),
            (["--grid", "0.4:x:0.1"], None),
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
@pytest.mark.parametrize("existing", [False, True])
def test_failed_write_leaves_out_untouched(tmp_path, monkeypatch, command, existing):
    """A run whose second file write fails exits 1 and leaves --out as it
    was (absent, or holding its earlier files) and no staging directory."""
    out = tmp_path / "run"
    if existing:
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
    if existing:
        assert [p.name for p in out.iterdir()] == ["old.txt"]

    monkeypatch.undo()
    assert main([*QUICK_RUNS[command], "--out", str(out)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(set(before) | {"run"})
    assert "run_config.json" in {p.name for p in out.iterdir()}


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


def hostile_configs(cls, **limits):
    """JSON objects over the fields of ``cls`` with hostile values;
    ``limits`` caps the integers drawn for a field."""
    return st.fixed_dictionaries(
        {}, optional={f.name: hostile(limits.get(f.name, 8)) for f in fields(cls)}
    )


@pytest.mark.parametrize(
    "command, configs, flags",
    [
        ("rate", hostile_configs(RateRunConfig), []),
        ("ppnrd", hostile_configs(PPNRDRunConfig), []),
        (
            "percolate",
            hostile_configs(PercolateRunConfig, trials=3),
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
