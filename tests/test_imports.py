"""What importing and running the package loads: no submodule on import, and
only what a config needs when one is loaded; no scipy module, on import
or in any CLI command or library path.  The solvers are the package's own
Brent's method and Newton's, and the ODE oracle is a Taylor integrator in
numpy with its own root polishing; scipy is a test dependency only, a
reference for those solvers.  No command loads csv, multiprocessing or
concurrent.futures.  Each export resolves lazily to the object of the
submodule that defines it."""

import ast
import glob
import importlib
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from scipy.optimize import OptimizeResult

import refbilliard
from refbilliard import cli, orbits

SRC = os.path.dirname(os.path.dirname(refbilliard.__file__))
README = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")

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


def test_import_loads_no_submodule_and_a_config_loads_four(tmp_path):
    # a cold run that only loads a config imports what the config needs;
    # an eager import added to the package root fails here
    (tmp_path / "run.cfg").write_text(CONFIG.format(command="section"))
    out = _fresh_python(
        "import sys\nimport refbilliard\n"
        "def loaded():\n"
        "    print(sorted(m for m in sys.modules\n"
        "                 if m.startswith('refbilliard.')))\n"
        "loaded()\nrefbilliard.load_config('run.cfg')\nloaded()\n"
        "print(refbilliard.boundary.__module__)", tmp_path)
    assert out.splitlines() == [
        "[]", "['refbilliard.boundary', 'refbilliard.config', "
        "'refbilliard.errors', 'refbilliard.params']", "refbilliard.boundary"]


EXPORTS = [
    "ArcSegment", "BilliardError", "BoundaryGeometry", "BoundaryState",
    "COMMANDS", "CRITICAL_TOL", "CausticCurve", "ConfigError", "CurveProbe",
    "CyclesUnresolved", "DegenerateEnvelope", "DegenerateStationarity",
    "DescentStalled", "DomainError", "EnergyMismatch", "EventDetectionFailed",
    "GeneratingEval", "InnerConic", "InsufficientLength", "MapResult",
    "OracleReturn", "OrbitTerminated", "OrbitTrace", "OutOfActionRange",
    "OuterConic", "PeriodicOrbit", "PerturbationProfile", "PhysParams",
    "RangeEmpty", "RefractionResult", "ResidualTooLarge", "RunConfig",
    "ShiftProfile", "ShootingDiverged", "SingularityError", "StabilityReport",
    "TangentialCrossing", "TotalReflectionTermination", "arcs", "boundary",
    "caustics", "circular_caustic_radii", "circular_shift", "config",
    "critical_angle", "curve_eval", "cycle_distance", "discrete_action",
    "envelope_equations", "errors", "find_nonhomothetic_fixed_point",
    "find_periodic", "fixed_point_thresholds", "generating_function",
    "golden_target", "inner", "inner_arc_fixed_ends", "invariant_curve_probe",
    "iterate", "jacobi_length", "kepler_elements", "levi_civita_propagate",
    "linear_stability", "load_config", "ode_return_map", "oracle", "orbits",
    "outer", "outer_arc_fixed_ends", "outer_conic_of", "outer_shift_inverse",
    "outer_transit", "outgoing_state", "outgoing_velocity", "params",
    "parse_config", "perturbed_caustic", "potential", "refract_in",
    "refract_out", "refraction", "return_map", "returnmap", "rotation_number",
    "shift_inverse_all", "tangency_check", "tangent_map", "total_shift_grid",
    "twist_at_zero", "twist_critical_set", "variational"]


def _defining_modules(package_dir):
    """Each public name a submodule of ``package_dir`` binds at top level,
    with the submodules that bind it."""
    owners = {}
    for path in sorted(glob.glob(os.path.join(package_dir, "*.py"))):
        module = os.path.basename(path)[:-3]
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in tree.body:
            for name in _bound_names(node):
                owners.setdefault(name, []).append(module)
    return owners


def test_each_export_is_its_defining_submodules_object():
    assert refbilliard.__all__ == EXPORTS
    owners = _defining_modules(os.path.dirname(refbilliard.__file__))
    for name in EXPORTS:
        value = getattr(refbilliard, name)
        if name in owners:
            # a name defined in one submodule only, including the function
            # boundary, which its submodule of the same name defines
            [module] = owners[name]
            assert value is vars(sys.modules[f"refbilliard.{module}"])[name]
        else:
            assert value is sys.modules[f"refbilliard.{name}"]
    assert set(EXPORTS) <= set(dir(refbilliard))
    with pytest.raises(AttributeError, match="'no_such_export'"):
        getattr(refbilliard, "no_such_export")


def test_star_import_binds_every_export_in_a_fresh_interpreter(tmp_path):
    out = _fresh_python(
        "import refbilliard\n"
        "print(sorted(set(refbilliard.__all__) - set(dir(refbilliard))))\n"
        "print(sorted(name for name in dir(refbilliard) if name[0] != '_'\n"
        "             and name not in refbilliard.__all__))\n"
        "from refbilliard import *\n"
        "print(sorted(name for name in refbilliard.__all__\n"
        "             if globals().get(name) is not\n"
        "             getattr(refbilliard, name)))", tmp_path)
    assert out.splitlines() == ["[]", "[]", "[]"]


def test_only_the_boundary_submodule_is_kept_off_its_export(monkeypatch):
    # importing refbilliard.boundary binds the module over the function of
    # that name; any other value, a module included, is bound as given
    module = importlib.import_module("refbilliard.boundary")
    monkeypatch.setattr(refbilliard, "boundary", module)
    assert refbilliard.boundary is module.boundary
    monkeypatch.setattr(refbilliard, "iterate", module)
    assert refbilliard.iterate is module
    monkeypatch.setattr(refbilliard, "boundary", len)
    assert refbilliard.boundary is len


def test_cli_and_its_commands_load_no_csv_or_process_pool(tmp_path):
    commands = sorted(cli._PIPELINES)
    assert len(commands) == 8
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
                                     "caustics", "params-report", "twist",
                                     "oracle-check"])
def test_command_without_solvers_does_not_load_scipy(tmp_path, command):
    assert not _loads_scipy(tmp_path, CONFIG, command)


@pytest.mark.parametrize("command", ["params-report", "twist", "periodic",
                                     "oracle-check"])
def test_command_on_the_circle_does_not_load_scipy(tmp_path, command):
    assert not _loads_scipy(tmp_path, CIRCLE, command)


def test_ode_oracle_does_not_load_scipy(tmp_path):
    # one return by the Taylor integrator, through both legs and both
    # refractions, on r = 1 + 0.01 cos 2 xi
    out = _fresh_python(
        "import sys\nfrom refbilliard import (PerturbationProfile, "
        "PhysParams, ode_return_map)\n"
        "params = PhysParams(2.5, 2.0, 2.0, 1.0)\n"
        "prof = PerturbationProfile.cos_profile(2, 0.01)\n"
        "orc = ode_return_map(0.3, 0.5, prof, params)\n"
        "print(orc.t_outer > 0 and orc.t_inner > 0,\n"
        "      [m for m in sys.modules if m.split('.')[0] == 'scipy'])",
        tmp_path)
    assert out.split() == ["True", "[]"]


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


def _bound_names(node):
    """Names a top-level statement of a module binds."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else []
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _public_members(node):
    """The public methods and properties a class statement defines."""
    return [item for item in node.body
            if isinstance(item, ast.FunctionDef) and
            not item.name.startswith("_")]


def _unreferenced_exports(package_dir, readme):
    """Names of ``refbilliard.__all__``, and ``Class.member`` for each
    public method and property of an exported class, that no module in
    ``package_dir`` but ``__init__.py`` mentions outside the statement
    defining them, and that ``readme`` does not mention either.  A member
    counts as mentioned where ``.member`` appears."""
    texts = []
    members = []
    for path in sorted(glob.glob(os.path.join(package_dir, "*.py"))):
        if os.path.basename(path) == "__init__.py":
            continue
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
        lines = source.splitlines()
        for node in ast.parse(source).body:
            for name in _bound_names(node):
                if name not in refbilliard.__all__:
                    continue
                own = [(name, node)]
                if isinstance(node, ast.ClassDef):
                    public = _public_members(node)
                    own += [(item.name, item) for item in public]
                    members += [(name, item.name) for item in public]
                for word, statement in own:
                    pattern = re.compile(rf"\b{word}\b")
                    for i in range(statement.lineno - 1,
                                   statement.end_lineno):
                        lines[i] = pattern.sub("", lines[i])
        texts.append("\n".join(lines))
    text = "\n".join([readme] + texts)
    names = [name for name in refbilliard.__all__
             if not re.search(rf"\b{name}\b", text)]
    names += [f"{cls}.{member}" for cls, member in members
              if not re.search(rf"\.{member}\b", text)]
    return sorted(names)


def _record_fields(package_dir):
    """``(Class, field)`` for each annotated class attribute, the fields of
    a dataclass or named tuple, of an exported class in ``package_dir``."""
    fields = []
    for path in sorted(glob.glob(os.path.join(package_dir, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        fields += [(node.name, item.target.id) for node in tree.body
                   if isinstance(node, ast.ClassDef) and
                   node.name in refbilliard.__all__
                   for item in node.body
                   if isinstance(item, ast.AnnAssign) and
                   isinstance(item.target, ast.Name)]
    return fields


def _unread_fields(package_dir, roots, readme):
    """``Class.field`` for each field of an exported record that no Python
    file under ``roots`` reads as ``.field`` and that ``readme`` names
    neither as ``.field`` nor as `field`."""
    texts = [readme]
    for root in roots:
        for path in sorted(glob.glob(os.path.join(root, "**", "*.py"),
                                     recursive=True)):
            with open(path, encoding="utf-8") as fh:
                texts.append(fh.read())
    text = "\n".join(texts)
    return sorted(f"{cls}.{field}" for cls, field in
                  _record_fields(package_dir)
                  if not re.search(rf"\.{field}\b", text) and
                  f"`{field}`" not in readme)


def test_every_export_is_used_in_the_package_or_documented():
    # an exported name, or a public method or property of an exported
    # class, that nothing in the package reads and the README does not
    # name is test-only code, which belongs under tests/; a field of an
    # exported record that nothing reads, in the package, its tests, tools
    # or benchmark, and that the README does not name is a value computed
    # for no one
    with open(README, encoding="utf-8") as fh:
        readme = fh.read()
    package_dir = os.path.dirname(refbilliard.__file__)
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    roots = [os.path.join(repo, d)
             for d in ("src", "tests", "tools", "perfbench")]
    assert _unreferenced_exports(package_dir, readme) + \
        _unread_fields(package_dir, roots, readme) == []
