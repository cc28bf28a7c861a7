"""Public API surface stays importable."""

import os
import pathlib
import subprocess
import sys

import pytest

import zenosim


def test_all_names_resolve():
    for name in zenosim.__all__:
        assert getattr(zenosim, name) is not None


def test_version():
    assert zenosim.__version__


@pytest.mark.parametrize("module", ["scipy.signal", "scipy.integrate"])
def test_cli_import_leaves_module_unloaded(module):
    # importing scipy.signal adds about half a second to every CLI start and
    # scipy.integrate about a sixth of one
    src = pathlib.Path(zenosim.__file__).resolve().parent.parent
    code = ("import sys, zenosim.cli; "
            f"print(sorted(m for m in sys.modules if m.startswith({module!r})))")
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
