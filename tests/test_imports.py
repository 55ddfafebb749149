"""What importing the package loads: scipy only once a solver needs it."""

import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.optimize import OptimizeResult

import refbilliard
from refbilliard import orbits

SRC = os.path.dirname(os.path.dirname(refbilliard.__file__))

CONFIG = """\
[params]
energy_E = 2.5
offset_h = 2.0
mass_mu = 2.0
stiffness_om = 1.0

[profile]
epsilon = 0.01
fourier_cos = 2:1.0

[command]
command = {command}
seeds = 2
iterations = 3
"""


def _fresh_python(code, cwd):
    """Run ``code`` in a new interpreter that imports refbilliard from SRC;
    returns its standard output."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, cwd=cwd, env=env, timeout=120,
                          check=False)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_does_not_load_scipy(tmp_path):
    out = _fresh_python(
        "import sys\nimport refbilliard\nimport refbilliard.cli\n"
        "print(refbilliard.__file__)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
        tmp_path)
    assert out.split() == [refbilliard.__file__, "[]"]


@pytest.mark.parametrize("command",
                         ["section", "orbit", "shift-profile", "caustics"])
def test_command_without_solvers_does_not_load_scipy(tmp_path, command):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CONFIG.format(command=command))
    argv = ["--config", str(cfg), "--out", str(tmp_path)]
    out = _fresh_python(
        "import sys\nfrom refbilliard.cli import main\n"
        f"code = main({argv!r})\n"
        "print(code, 'scipy' in sys.modules)", tmp_path)
    assert out.split()[-2:] == ["0", "False"]


def test_discrete_action_does_not_load_quadrature(tmp_path):
    # Jacobi lengths are closed-form: the variational layer needs root
    # brackets from scipy.optimize, never scipy.integrate
    out = _fresh_python(
        "import sys\nfrom refbilliard import (PerturbationProfile, "
        "PhysParams, discrete_action)\n"
        "params = PhysParams(2.5, 2.0, 2.0, 1.0)\n"
        "prof = PerturbationProfile.cos_profile(2, 0.01)\n"
        "W, grad = discrete_action([0.0], 0, 1, prof, params)\n"
        "print(W > 0, 'scipy.integrate' in sys.modules)", tmp_path)
    assert out.split() == ["True", "False"]


def test_orbits_solvers_are_module_level_and_return_scipy_results():
    # the benchmark's traced runs wrap these two names to count solver work
    assert callable(vars(orbits)["minimize"])
    assert callable(vars(orbits)["root"])
    res = orbits.minimize(lambda x: (float(x @ x), 2.0 * x),
                          np.array([1.0, -2.0]), jac=True, method="L-BFGS-B")
    assert isinstance(res, OptimizeResult) and res.nit >= 1
    assert np.allclose(res.x, 0.0, atol=1e-6)
    sol = orbits.root(lambda x: x - np.array([1.0, 2.0]), [0.0, 0.0],
                      method="hybr")
    assert isinstance(sol, OptimizeResult) and sol.nfev >= 1
    assert np.allclose(sol.x, [1.0, 2.0])
