"""The Taylor-series ODE oracle: its exterior event time near grazing, held
against a 40-digit closed form, and its code-disjointness from the map it
checks."""

import ast
import inspect
import math

import mpmath
import pytest

from refbilliard import boundary, oracle, potential


def _reentry_time(xi0, alpha, circle, params):
    """The exterior leg's re-entry time on the unit circle, at 40 digits.

    The launch is built in floats exactly as the oracle builds it.  Along
    z(s) = z0 cos ws + (v0/w) sin ws, |z(s)|^2 = m + R cos(2ws - phi); of the
    two roots of |z|^2 = 1 in a half period, one is the departure s = 0.
    Returns the other root and |v0|.
    """
    geom = boundary(xi0, circle)
    z0 = geom.point_c
    speed = math.sqrt(2.0 * potential(z0, "outer", params))
    v0 = speed * (math.cos(alpha) * geom.normal_c +
                  math.sin(alpha) * geom.tangent_c)
    with mpmath.workdps(40):
        w = mpmath.sqrt(mpmath.mpf(params.stiffness_om))
        x, y, vx, vy = map(mpmath.mpf, (z0.real, z0.imag, v0.real, v0.imag))
        a = x * x + y * y
        b = (vx * vx + vy * vy) / w ** 2
        c = (x * vx + y * vy) / w
        m = (a + b) / 2
        R = mpmath.sqrt(((a - b) / 2) ** 2 + c * c)
        phi = mpmath.atan2(c, (a - b) / 2)
        half = mpmath.acos((1 - m) / R)
        two_pi = 2 * mpmath.pi
        roots = sorted(((phi + half) % two_pi, (phi - half) % two_pi),
                       key=lambda r: min(r, two_pi - r))
        return float(roots[1] / (2 * w)), abs(v0)


@pytest.mark.parametrize("side", [1.0, -1.0])
@pytest.mark.parametrize("delta", [1e-3, 1e-4, 1e-5, 1e-6])
def test_exterior_time_near_grazing(fig1, circle, delta, side):
    # the clearance is rounded to a few ulp and re-crosses zero with slope
    # about |v0| delta, so 1e-14 / (|v0| delta) is 25 times the rounding
    # floor.  The exterior leg is read directly: at fig1 the launches at
    # delta <= 1e-5 carry an action within 1e-10 of I_c and reflect totally
    # on their way out, in the oracle as in the map.
    alpha = side * (math.pi / 2 - delta)
    exact, speed = _reentry_time(0.4, alpha, circle, fig1)
    t_outer, _, _ = oracle._outer_leg(0.4, alpha, circle, fig1)
    assert abs(t_outer - exact) <= 1e-14 / (speed * delta)


#: production modules and helpers the oracle must not use: it checks them
FORBIDDEN_MODULES = {"outer", "inner", "returnmap", "variational"}
FORBIDDEN_NAMES = {"brentq", "march_to_zero", "osc_flow", "lc_flow"}


def test_oracle_shares_no_code_with_the_map():
    tree = ast.parse(inspect.getsource(oracle))
    modules, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            modules.add(node.module or "")
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Name):
            names.add(node.id)
    parts = {part for module in modules for part in module.split(".")}
    assert not parts & (FORBIDDEN_MODULES | {"scipy"}), modules
    assert not names & (FORBIDDEN_NAMES | FORBIDDEN_MODULES), names
    # what it does share: the boundary, the refraction law, the potentials
    # and the angle wrap
    assert {"boundary", "refraction", "params", "_util"} <= parts
    assert {"boundary", "refract_in", "refract_out", "potential",
            "wrap_pi"} <= names
