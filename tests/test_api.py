"""Public API surface stays importable."""

import os
import pathlib
import subprocess
import sys

import zenosim


def test_all_names_resolve():
    for name in zenosim.__all__:
        assert getattr(zenosim, name) is not None


def test_version():
    assert zenosim.__version__


def test_cli_import_leaves_scipy_signal_unloaded():
    # importing scipy.signal adds about half a second to every CLI start
    src = pathlib.Path(zenosim.__file__).resolve().parent.parent
    code = "import sys, zenosim.cli; print(sorted(m for m in sys.modules if m.startswith('scipy.signal')))"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
