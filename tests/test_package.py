"""The package's public surface."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import fusionsim


def test_star_import_and_all_names_resolve():
    namespace: dict = {}
    exec("from fusionsim import *", namespace)
    for name in fusionsim.__all__:
        assert namespace[name] is getattr(fusionsim, name), name


def test_readme_quick_start_prints_what_its_comments_say():
    """README's first python block runs, and the values it prints are the
    ones its comments give."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    namespace: dict = {}
    exec(readme.split("```python\n")[1].split("```")[0], namespace)
    success = {label.value: p for label, p in namespace["stats"].per_input_success.items()}
    expected = {"phi+": 0.5, "phi-": 0.5, "psi+": 1.0, "psi-": 1.0}
    assert list(success) == list(expected)
    assert all(abs(success[label] - p) < 1e-12 for label, p in expected.items())
    assert abs(namespace["stats"].total_success - 0.75) < 1e-12
    assert abs(sum(namespace["result"].pattern_probs.values()) - 1.0) < 1e-12
    assert abs(namespace["singlet_fidelity"](namespace["mix"]) - 1.0) < 1e-12


def test_cli_import_leaves_the_process_pool_unloaded():
    """The pool module is imported only by a parallel sweep, so it adds
    nothing to the start-up of every other run."""
    code = (
        "import sys, fusionsim.cli; "
        "print([m for m in sys.modules if m.split('.')[:2] == ['concurrent', 'futures']])"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(fusionsim.__file__).parents[1])}
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"


def test_module_entry_point_keeps_the_exit_codes(tmp_path):
    """``python -m fusionsim.cli`` exits 0 on a run, 2 on a bad
    configuration and 1 on a runtime failure."""
    env = {**os.environ, "PYTHONPATH": str(Path(fusionsim.__file__).parents[1])}

    def run(*args):
        return subprocess.run(
            [sys.executable, "-m", "fusionsim.cli", "rate", *args],
            env=env, capture_output=True, text=True, timeout=120,
        )

    assert run("--out", str(tmp_path / "ok")).returncode == 0
    assert (tmp_path / "ok" / "rate.json").is_file()
    bad = run("--eta", "2", "--out", str(tmp_path / "bad"))
    assert bad.returncode == 2
    assert "config error:" in bad.stderr
    afile = tmp_path / "afile"
    afile.write_text("kept")
    failed = run("--out", str(afile))
    assert failed.returncode == 1
    assert failed.stderr.startswith("error:")
    assert afile.read_text() == "kept"


def sibling_imports(path: Path) -> set[str]:
    """Package modules that ``path`` imports relatively, at any depth,
    function-level imports included."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                names.add(node.module.split(".")[0])
            else:
                names.update(alias.name for alias in node.names)
    return names


def test_module_layering():
    """fock is the base, experiment builds on it and detection on
    experiment; percolation stands alone.  Only cli and __init__ may
    import anything."""
    package = Path(fusionsim.__file__).parent
    graph = {path.stem: sibling_imports(path) for path in package.glob("*.py")}
    del graph["cli"], graph["__init__"]
    assert graph == {
        "fock": set(),
        "experiment": {"fock"},
        "detection": {"experiment"},
        "percolation": set(),
    }
