"""The package's public surface."""

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
