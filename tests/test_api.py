"""Public API surface stays importable."""

import json
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


SRC = pathlib.Path(zenosim.__file__).resolve().parent.parent
CONFIGS = SRC.parent / "configs"


def _loaded(code: str, prefixes) -> list:
    """Modules under any of the prefixes loaded after running code in a fresh interpreter."""
    listing = f"sorted(m for m in sys.modules if m.startswith({tuple(prefixes)!r}))"
    code = f"import json, sys; {code}; print(json.dumps({listing}))"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("module", ["scipy.signal", "scipy.integrate", "scipy.fft",
                                    "scipy.special"])
def test_cli_import_leaves_module_unloaded(module):
    # a cold `import zenosim.cli` takes about 0.2 s with numpy and the top-level
    # scipy package; scipy.signal would add about half a second, scipy.integrate
    # and scipy.fft about 0.1 s each, and scipy.special about 0.2 s
    assert _loaded("import zenosim.cli", [module]) == []


def test_decay_sweep_leaves_scipy_fft_and_special_unloaded(tmp_path):
    # the sweep's rate ladder calls neither; only the Faddeeva closed form,
    # a test oracle, loads scipy.special, on first use
    out = tmp_path / "sweep.csv"
    config = CONFIGS / "decay_sweep_anti_zeno.json"
    code = (f"from zenosim.cli import main; "
            f"assert main(['decay', '--config', {str(config)!r}, '--out', {str(out)!r}]) == 0")
    assert _loaded(code, ["scipy.fft", "scipy.special"]) == []
    assert out.stat().st_size > 0


@pytest.mark.parametrize("command, name", [("spectrum", "spectrum_strong"),
                                           ("twolevel", "fig3_weak")])
def test_cli_run_leaves_scipy_special_unloaded(tmp_path, command, name):
    # spectrum reaches line_mass (Si), twolevel build_exact (Gauss-Hermite nodes)
    out = tmp_path / f"{name}.csv"
    config = CONFIGS / f"{name}.json"
    code = (f"from zenosim.cli import main; "
            f"assert main([{command!r}, '--config', {str(config)!r}, '--out', {str(out)!r}]) == 0")
    assert _loaded(code, ["scipy.special"]) == []
    assert out.stat().st_size > 0


@pytest.mark.parametrize("module", ["scipy.linalg", "scipy.special"])
def test_second_order_leaves_module_unloaded(module):
    # the small system of the `channels` benchmark job takes the node path, whose
    # Dyson blocks are numpy only; a cold `import scipy.linalg` costs about 0.3 s
    code = ("import numpy as np, zenosim as z; "
            "rng = np.random.default_rng(1); "
            "m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)); "
            "v = 0.5 * (m + m.conj().T); np.fill_diagonal(v, 0.0); "
            "sys_ = z.SystemSpec(levels=tuple(np.linspace(-2.5, 2.5, 6)), v=0.2 * v / abs(v).max()); "
            "ch = z.build_second_order(sys_, z.gaussian_detector(1.0, 20.0, 0.1), steps=256); "
            "assert ch.meta['nodes'] > 0")
    assert _loaded(code, [module]) == []
