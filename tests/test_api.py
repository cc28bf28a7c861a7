"""Public API surface stays importable."""

import ast
import json
import math
import os
import pathlib
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest

import zenosim
from zenosim import decay, dynamics, qmat, superop


def test_all_names_resolve():
    for name in zenosim.__all__:
        assert getattr(zenosim, name) is not None


def test_version():
    assert zenosim.__version__


SRC = pathlib.Path(zenosim.__file__).resolve().parent.parent
CONFIGS = SRC.parent / "configs"


@pytest.mark.parametrize("path", sorted(p.name for p in (SRC / "zenosim").glob("*.py")
                                        if p.name != "__init__.py"))
def test_module_uses_every_name_it_imports(path):
    # __init__.py imports to re-export; every other module imports to use
    tree = ast.parse((SRC / "zenosim" / path).read_text(encoding="utf-8"))
    imported = {(alias.asname or alias.name).split(".")[0]
                for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


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
    # the sweep's rate ladder calls neither; no module of the package imports
    # scipy.special
    out = tmp_path / "sweep.csv"
    config = CONFIGS / "decay_sweep_anti_zeno.json"
    code = (f"from zenosim.cli import main; "
            f"assert main(['decay', '--config', {str(config)!r}, '--out', {str(out)!r}]) == 0")
    assert _loaded(code, ["scipy.fft", "scipy.special"]) == []
    assert out.stat().st_size > 0


@pytest.mark.parametrize("command, name", [("spectrum", "spectrum_strong"),
                                           ("twolevel", "fig3_weak")])
def test_cli_run_leaves_scipy_special_unloaded(tmp_path, command, name):
    # spectrum reaches line_mass (Si), twolevel build_exact (its node ladder)
    out = tmp_path / f"{name}.csv"
    config = CONFIGS / f"{name}.json"
    code = (f"from zenosim.cli import main; "
            f"assert main([{command!r}, '--config', {str(config)!r}, '--out', {str(out)!r}]) == 0")
    assert _loaded(code, ["scipy.special"]) == []
    assert out.stat().st_size > 0


@pytest.mark.parametrize("module", ["scipy.linalg", "scipy.special"])
def test_second_order_leaves_module_unloaded(module):
    # the small system of the `channels` benchmark job takes the node path, whose
    # Dyson blocks are numpy only, at its phase scale 10 and at 300; a cold
    # `import scipy.linalg` costs about 0.3 s
    code = ("import numpy as np, zenosim as z; "
            "rng = np.random.default_rng(1); "
            "m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)); "
            "v = 0.5 * (m + m.conj().T); np.fill_diagonal(v, 0.0); "
            "sys_ = z.SystemSpec(levels=tuple(np.linspace(-2.5, 2.5, 6)), v=0.2 * v / abs(v).max()); "
            "ch = z.build_second_order(sys_, z.gaussian_detector(1.0, 20.0, 0.1), steps=256); "
            "assert ch.meta['nodes'] > 0; "
            "strong = z.build_second_order(sys_, z.gaussian_detector(1.0 / 30.0, 20.0, 0.1)); "
            "assert 'nodes' in strong.meta")
    assert _loaded(code, [module]) == []


_FIG1_SYS = zenosim.TwoLevelPreset(omega=2.0, v=1.0).to_system()
_FIG1_TIME_SYS = zenosim.SystemSpec(levels=(-1.0, 1.0), v=lambda t: _FIG1_SYS.v_at(0.0))
_FIG1_DET = zenosim.gaussian_detector(1.0, 50.0, 0.1)
_RES = zenosim.ReservoirSpectrum.lorentzian(b=0.05, omega_r=2.5, gamma=0.4)
_HALF = np.eye(2, dtype=complex) / 2.0

# each tolerance argument: (module, the function its work starts with, the call)
_TOLERANCE_CASES = {
    "repeat.trace_tol": (superop, "apply_super", lambda tol: zenosim.repeat(
        lambda t0: zenosim.build_unperturbed(_FIG1_SYS, _FIG1_DET), _HALF, 3, trace_tol=tol)),
    "check_density_matrix.trace_tol": (qmat, "hermiticity_defect", lambda tol: (
        zenosim.check_density_matrix(1.2 * _HALF, trace_tol=tol))),
    "check_density_matrix.herm_tol": (qmat, "hermiticity_defect", lambda tol: (
        zenosim.check_density_matrix(_HALF, herm_tol=tol))),
    "decay_rate.rel_tol": (decay, "_filon_transform", lambda tol: zenosim.decay_rate(
        _RES, 2.0, _FIG1_DET, 0.1, 1.0, rel_tol=tol)),
    "jump_probability_general.rel_tol": (dynamics, "_line_transform", lambda tol: (
        zenosim.jump_probability_general(_FIG1_SYS, _FIG1_DET, 1, 0, 0, 0, rel_tol=tol))),
    "jump_probability_general.rel_tol.time_dependent_v": (dynamics, "_romberg", lambda tol: (
        zenosim.jump_probability_general(_FIG1_TIME_SYS, _FIG1_DET, 1, 0, 0, 0, rel_tol=tol))),
    "jump_table.rel_tol": (dynamics, "jump_probability_general", lambda tol: (
        zenosim.jump_table(_FIG1_SYS, _FIG1_DET, rel_tol=tol))),
    "LineShape.build.mass_tol": (decay, "line_shape", lambda tol: zenosim.LineShape.build(
        2.0, _FIG1_DET, 0.1, mass_tol=tol)),
}


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
@pytest.mark.parametrize("case", sorted(_TOLERANCE_CASES))
def test_bad_tolerance_rejected_before_any_work(case, tol):
    # a NaN tolerance used to skip its check silently, and a zero or negative one
    # to climb the whole refinement ladder before failing
    module, work, call = _TOLERANCE_CASES[case]
    with mock.patch.object(module, work) as spy, pytest.raises(ValueError, match="finite and > 0"):
        call(tol)
    spy.assert_not_called()
