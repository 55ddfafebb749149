"""What importing and running the package loads: scipy only once the ODE
oracle integrates; every other command and library path, whose solvers are
Brent's method and Newton's, loads none.  No command but the oracle's loads
csv, multiprocessing or concurrent.futures."""

import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.optimize import OptimizeResult

import refbilliard
from refbilliard import cli, orbits

SRC = os.path.dirname(os.path.dirname(refbilliard.__file__))

PARAMS = """\
[params]
energy_E = 2.5
offset_h = 2.0
mass_mu = 2.0
stiffness_om = 1.0

"""

PROFILE = """\
[profile]
epsilon = 0.01
fourier_cos = 2:1.0

"""

COMMAND = """\
[command]
command = {command}
seeds = 2
iterations = 3
"""

CONFIG = PARAMS + PROFILE + COMMAND
CIRCLE = PARAMS + COMMAND


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


def test_cli_and_its_commands_load_no_csv_or_process_pool(tmp_path):
    # oracle-check is left out: scipy's integrators load csv themselves
    commands = sorted(set(cli._PIPELINES) - {"oracle-check"})
    for command in commands:
        (tmp_path / f"{command}.cfg").write_text(
            CONFIG.format(command=command))
    out = _fresh_python(
        "import sys\nfrom refbilliard.cli import main\n"
        "def loaded(step, code=0):\n"
        "    names = ('csv', 'multiprocessing', 'concurrent.futures')\n"
        "    print('loaded', step, code,\n"
        "          [m for m in names if m in sys.modules])\n"
        "loaded('import')\n"
        f"for command in {commands!r}:\n"
        "    loaded(command, main(['--config', command + '.cfg',\n"
        "                          '--out', command]))", tmp_path)
    assert [line for line in out.splitlines()
            if line.startswith("loaded ")] == [
        f"loaded {step} 0 []" for step in ["import", *commands]]


def _loads_scipy(tmp_path, config, command):
    """Whether running ``command`` on ``config`` in a fresh interpreter
    loads any scipy module (the run must succeed)."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config.format(command=command))
    argv = ["--config", str(cfg), "--out", str(tmp_path)]
    out = _fresh_python(
        "import sys\nfrom refbilliard.cli import main\n"
        f"code = main({argv!r})\n"
        "print(code, 'scipy' in sys.modules)", tmp_path)
    assert out.split()[-2] == "0"
    return out.split()[-1] == "True"


@pytest.mark.parametrize("command", ["section", "orbit", "shift-profile",
                                     "caustics", "params-report", "twist"])
def test_command_without_solvers_does_not_load_scipy(tmp_path, command):
    assert not _loads_scipy(tmp_path, CONFIG, command)


@pytest.mark.parametrize("command", ["params-report", "twist", "periodic"])
def test_command_on_the_circle_does_not_load_scipy(tmp_path, command):
    assert not _loads_scipy(tmp_path, CIRCLE, command)


# the n >= 2 classes are found by Newton on the discrete action's exact
# Hessian, which needs numpy only; the light mass reaches (+-1, 3)
@pytest.mark.parametrize("mass", ["2.0", "0.5"])
def test_periodic_on_a_perturbed_interface_does_not_load_scipy(tmp_path,
                                                               mass):
    config = CONFIG.replace("mass_mu = 2.0", f"mass_mu = {mass}")
    assert not _loads_scipy(tmp_path, config, "periodic")


def test_discrete_action_does_not_load_quadrature(tmp_path):
    # Jacobi lengths are closed-form and the shift inverse seeding the
    # shots is found by the package's own Brent: the variational layer
    # loads no scipy module at all
    out = _fresh_python(
        "import sys\nfrom refbilliard import (PerturbationProfile, "
        "PhysParams, discrete_action)\n"
        "params = PhysParams(2.5, 2.0, 2.0, 1.0)\n"
        "prof = PerturbationProfile.cos_profile(2, 0.01)\n"
        "W, grad = discrete_action([0.0], 0, 1, prof, params)\n"
        "print(W > 0, 'scipy' in sys.modules)", tmp_path)
    assert out.split() == ["True", "False"]


def test_light_mass_period_search_does_not_load_scipy(tmp_path):
    # the period-1 search and the (-1, 3) action along a path, as the
    # periodic-wavy benchmark runs them
    out = _fresh_python(
        "import math, sys\nfrom refbilliard import (PerturbationProfile, "
        "PhysParams, discrete_action, find_periodic)\n"
        "params = PhysParams(2.5, 2.0, 0.5, 1.0)\n"
        "prof = PerturbationProfile.cos_profile(2, 0.01)\n"
        "orbits = find_periodic(0, 1, prof, params)\n"
        "xis = [0.3, 0.3 - 2 * math.pi / 3, 0.3 - 4 * math.pi / 3]\n"
        "W, grad = discrete_action(xis, -1, 3, prof, params)\n"
        "print(len(orbits) > 0, math.isfinite(W), 'scipy' in sys.modules)",
        tmp_path)
    assert out.split() == ["True", "True", "False"]


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
