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
