import os
import subprocess
import sys
from pathlib import Path

import maxgrowth


def test_every_exported_name_resolves():
    assert len(set(maxgrowth.__all__)) == len(maxgrowth.__all__)
    assert [name for name in maxgrowth.__all__ if not hasattr(maxgrowth, name)] == []


def test_star_import():
    namespace = {}
    exec("from maxgrowth import *", namespace)
    assert set(maxgrowth.__all__) <= namespace.keys()


def test_import_leaves_sympy_out():
    # sympy is the tests' independent check on factoring, never a dependency
    code = "import sys, maxgrowth; print('sympy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(maxgrowth.__file__).resolve().parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert done.stdout.strip() == "False"


def test_cli_import_loads_numpy():
    # bench/run.py's machine_facts reads sys.modules["numpy"], so deferring or
    # dropping the numpy import in derivations would fail every benchmark run;
    # ROADMAP item 4 step 1 deletes this test together with that read
    code = "import sys, maxgrowth.cli; print('numpy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(maxgrowth.__file__).resolve().parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert done.stdout.strip() == "True"
