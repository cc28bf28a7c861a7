"""Public API surface stays importable."""

import ast
import inspect
import json
import math
import os
import pathlib
import re
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest

import zenosim
from zenosim import decay, dynamics, model, qmat, superop


def test_all_names_resolve():
    for name in zenosim.__all__:
        assert getattr(zenosim, name) is not None


def test_version():
    assert zenosim.__version__


def test_tau_and_hbar_have_one_source():
    # tau lives on the DetectorModel and hbar on the ReservoirSpectrum; a
    # callable that took either a second time could be handed two values that
    # disagree, and would say nothing
    doubled = []
    for name in zenosim.__all__:
        params = inspect.signature(getattr(zenosim, name)).parameters
        annotations = " ".join(str(p.annotation) for p in params.values())
        for owner, value in (("DetectorModel", "tau"), ("ReservoirSpectrum", "hbar")):
            if re.search(rf"\b{owner}\b", annotations) and value in params:
                doubled.append(f"{name}({owner}, {value})")
    assert doubled == []


SRC = pathlib.Path(zenosim.__file__).resolve().parent.parent
CONFIGS = SRC.parent / "configs"


def test_readme_library_tour_runs():
    # the one python block of README's "Library tour", run as written
    tour = (SRC.parent / "README.md").read_text(encoding="utf-8").split("## Library tour")[1]
    blocks = re.findall(r"^```python\n(.*?)^```", tour.split("\n## ")[0], re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})


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
    # the package is numpy only: a cold `import zenosim.cli` took about 19 ms
    # more with the top-level scipy package, and scipy.special or scipy.fft
    # another 0.1 to 0.2 s each
    assert _loaded("import zenosim.cli", ["scipy"]) == []
    assert _loaded("import zenosim.cli", [module]) == []


@pytest.mark.parametrize("command, name", [
    ("twolevel", "fig1_twolevel"), ("twolevel", "fig3_weak"),
    ("dump-channel", "channel_fig1"), ("decay", "decay_sweep_anti_zeno"),
    ("spectrum", "spectrum_strong")])
def test_cli_loads_no_scipy(tmp_path, command, name):
    # no CLI run loads any scipy module either
    out = tmp_path / "out"
    code = (f"from zenosim.cli import main; assert main([{command!r}, '--config', "
            f"{str(CONFIGS / name) + '.json'!r}, '--out', {str(out)!r}]) == 0")
    assert _loaded(code, ["scipy"]) == []
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
            "ch = z.build_second_order(sys_, z.gaussian_detector(1.0, 20.0, 0.1)); "
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
        _RES, 2.0, _FIG1_DET, rel_tol=tol)),
    "jump_probability_general.rel_tol": (dynamics, "_line_transform", lambda tol: (
        zenosim.jump_probability_general(_FIG1_SYS, _FIG1_DET, 1, 0, 0, 0, rel_tol=tol))),
    "jump_probability_general.rel_tol.time_dependent_v": (dynamics, "_romberg", lambda tol: (
        zenosim.jump_probability_general(_FIG1_TIME_SYS, _FIG1_DET, 1, 0, 0, 0, rel_tol=tol))),
    "jump_table.rel_tol": (dynamics, "jump_probability_general", lambda tol: (
        zenosim.jump_table(_FIG1_SYS, _FIG1_DET, rel_tol=tol))),
}


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0,
                                 pytest.param(10 ** 400, id="huge_int")])
@pytest.mark.parametrize("case", sorted(_TOLERANCE_CASES))
def test_bad_tolerance_rejected_before_any_work(case, tol):
    # a NaN tolerance used to skip its check silently, a zero or negative one
    # to climb the whole refinement ladder before failing, and an integer
    # beyond the float range to raise OverflowError
    module, work, call = _TOLERANCE_CASES[case]
    with mock.patch.object(module, work) as spy, pytest.raises(ValueError, match="finite and > 0"):
        call(tol)
    spy.assert_not_called()


@pytest.mark.parametrize("call", [
    lambda: zenosim.emitted_spectrum(2.0, _FIG1_DET, 0.1, 1.0, np.linspace(-900.0, 900.0, 64)),
    lambda: zenosim.decay_rate(_RES, 2.0, _FIG1_DET, 0.1),
    lambda: zenosim.measured_decay_channel(1.0, -1.0, _RES, _FIG1_DET, 1.0),
], ids=["emitted_spectrum", "decay_rate", "measured_decay_channel"])
def test_a_positional_tau_or_hbar_is_a_type_error(call):
    # the options after det are keyword-only, so a call written for the
    # signatures that took tau or hbar fails instead of binding it to the next
    # parameter
    with pytest.raises(TypeError):
        call()


# removed public names and the module each lived in: the detector rule, which
# every exact channel sizes from its phase scale; the closed forms of the
# strong-measurement limit, whose one evaluator is rate_matrix with
# inhibition_time; DetectorModel.C and .Lambda, which replace strength; and
# helpers no module called
_REMOVED = {"QuadratureRule": superop, "default_rule": superop,
            "jump_probability_strong": dynamics, "two_level_inhibition_time": dynamics,
            "measured_exponential": dynamics, "herm_eig": qmat, "unitary_exp": qmat,
            "required_duration": model, "MeasurementStrength": model, "strength": model}


@pytest.mark.parametrize("name", sorted(_REMOVED))
def test_removed_name_is_gone(name):
    assert name not in zenosim.__all__ and not hasattr(zenosim, name)
    assert not hasattr(_REMOVED[name], name)


def test_detector_rule_is_not_an_option():
    # every exact channel takes the one rule sized from its phase scale, so no
    # rule can be passed, and every channel reports its bound
    with pytest.raises(TypeError):
        zenosim.build_exact(_FIG1_SYS, _FIG1_DET, rule=None)
    for sys_ in (_FIG1_SYS, _FIG1_TIME_SYS):
        bound = zenosim.build_exact(sys_, _FIG1_DET).meta["quad_bound"]
        assert isinstance(bound, float) and 0.0 < bound <= 1e-8
