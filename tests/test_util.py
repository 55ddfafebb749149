"""Angle wrapping: the range [-pi, pi) and idempotence, on both branches.
Brent's method: bit parity with scipy's brentq, alone and at every
production call site.  Shooting: its two typed failures."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq as scipy_brentq

from refbilliard import _util, returnmap, variational
from refbilliard._util import brentq, shoot, sign_change_brackets, wrap_pi
from refbilliard.errors import NoFixedPoint, ShootingDiverged

#: the parameter fixtures of conftest.py
PARAM_SETS = ("fig1", "fig2_mu44", "fig2_mu55", "fig4", "light_mass",
              "stiff_well")

#: the largest float below -pi: x + pi is -ulp(pi), whose remainder modulo
#: 2 pi rounds up to 2 pi
BELOW_MINUS_PI = float(np.nextafter(-math.pi, -4.0))


def test_wrap_pi_maps_just_below_minus_pi_to_minus_pi():
    assert wrap_pi(BELOW_MINUS_PI) == -math.pi
    assert wrap_pi(np.array([BELOW_MINUS_PI]))[0] == -math.pi
    assert wrap_pi(np.float64(BELOW_MINUS_PI)) == -math.pi
    assert wrap_pi(math.pi) == -math.pi


@given(x=st.floats(-1e12, 1e12) | st.floats(-1e300, 1e300))
@example(x=BELOW_MINUS_PI)
@example(x=math.pi)
@example(x=-math.pi)
@example(x=float(np.nextafter(math.pi, 0.0)))
@example(x=-0.0)
def test_wrap_pi_range_and_idempotence(x):
    w = wrap_pi(x)
    assert type(w) is float
    assert -math.pi <= w < math.pi
    assert wrap_pi(w) == w
    # the array branch gives the same bits
    arr = wrap_pi(np.array([x, w]))
    assert arr[0] == w and arr[1] == w
    assert math.copysign(1.0, arr[0]) == math.copysign(1.0, w)


# -- Brent's method -------------------------------------------------------------

#: increasing functions with their zero at r, of steepness s > 0
FAMILIES = (
    lambda s, r: lambda x: s * (x - r),
    lambda s, r: lambda x: math.tanh(s * (x - r)),
    lambda s, r: lambda x: math.expm1(s * (x - r)),
    lambda s, r: lambda x: (x - r) ** 3 + s * (x - r),
    lambda s, r: lambda x: math.atan(s * x) - math.atan(s * r),
    lambda s, r: lambda x: math.sinh(x) - math.sinh(r) + 1e-3 * s * (x - r),
    # values so small that the extrapolation's divisor underflows to zero
    lambda s, r: lambda x: 1e-160 * math.tanh(s * (x - r)),
)


def _outcome(solver, f, a, b, **kw):
    """The root ``solver`` returns, or the class of what it raises."""
    try:
        return solver(f, a, b, **kw)
    except (ValueError, RuntimeError) as exc:
        return type(exc)


@settings(max_examples=500)
@given(family=st.sampled_from(range(len(FAMILIES))),
       s=st.floats(0.05, 10.0), r=st.floats(-3.0, 3.0),
       u=st.floats(1e-9, 3.0), v=st.floats(1e-9, 3.0), flip=st.booleans(),
       xtol=st.sampled_from((2e-12, 1e-13, 1e-14, 1e-15)) |
       st.floats(1e-15, 1e-6),
       rtol=st.sampled_from((4.0 * _util.EPS, 8.9e-16)))
# zero at a; zero at b; zero at the midpoint, where the first step lands;
# zero at the grid point 1/4, hit exactly after ten steps
@example(family=0, s=1.0, r=0.5, u=0.0, v=0.5, flip=False, xtol=1e-14,
         rtol=8.9e-16)
@example(family=0, s=1.0, r=0.5, u=0.5, v=0.0, flip=False, xtol=1e-14,
         rtol=8.9e-16)
@example(family=0, s=2.0, r=0.5, u=0.5, v=0.5, flip=True, xtol=1e-14,
         rtol=8.9e-16)
@example(family=3, s=0.05, r=0.25, u=0.25, v=0.75, flip=False, xtol=2e-12,
         rtol=4.0 * _util.EPS)
def test_brentq_matches_scipy_bit_for_bit(family, s, r, u, v, flip, xtol,
                                          rtol):
    f = FAMILIES[family](s, r)
    a, b = (r + v, r - u) if flip else (r - u, r + v)
    kw = dict(xtol=xtol, rtol=rtol)
    ours = _outcome(brentq, f, a, b, **kw)
    theirs = _outcome(scipy_brentq, f, a, b, **kw)
    assert type(ours) is float and ours == theirs
    assert math.copysign(1.0, ours) == math.copysign(1.0, theirs)


def _nan_inside(x):
    return math.nan if 0.4 < x < 0.6 else x - 0.45


@pytest.mark.parametrize("f, a, b, kw", [
    (lambda x: x * x + 1.0, -1.0, 1.0, {}),          # same-sign bracket
    (lambda x: math.nan if x > 0.5 else -1.0, 0.0, 1.0, {}),  # NaN at b
    (_nan_inside, 0.0, 1.0, {}),                     # NaN during the search
    (lambda x: x - 1.0 / 3.0, 0.0, 1.0, {"maxiter": 1}),   # out of steps
    (lambda x: x - 1.0 / 3.0, 0.0, 1.0, {"maxiter": 0}),
    (lambda x: x - 1.0 / 3.0, 0.0, 1.0, {"maxiter": -1}),
    (lambda x: x - 1.0 / 3.0, 0.0, 1.0, {"xtol": 0.0}),
    (lambda x: x - 1.0 / 3.0, 0.0, 1.0, {"rtol": 1e-16}),
])
def test_brentq_raises_as_scipy_does(f, a, b, kw):
    ours = _outcome(brentq, f, a, b, **kw)
    assert ours in (ValueError, RuntimeError)
    assert ours is _outcome(scipy_brentq, f, a, b, **kw)


def test_sign_change_brackets_one_per_root():
    grid = np.arange(7.0)
    # a crossing, an exact zero with a sign change, a touching zero, and an
    # exact zero at the last point
    vals = np.array([1.0, -1.0, 0.0, 2.0, 0.0, 3.0, 0.0])
    assert sign_change_brackets(grid, vals) == [
        (0.0, 1.0), (2.0, 2.0), (4.0, 4.0), (6.0, 6.0)]
    assert sign_change_brackets(grid, np.full(7, 0.5)) == []
    assert sign_change_brackets(grid, grid - 2.5) == [(2.0, 3.0)]


@pytest.fixture
def scipy_checked(monkeypatch):
    """Makes every production call of the port also call scipy's brentq on
    the same arguments and require the same root; returns those roots."""
    roots = []

    def checked(f, a, b, **kw):
        x = brentq(f, a, b, **kw)
        assert x == scipy_brentq(f, a, b, **kw)
        roots.append(x)
        return x
    for module in (variational, returnmap):
        assert module.brentq is brentq
        monkeypatch.setattr(module, "brentq", checked)
    return roots


def _each_param_set(request):
    return [request.getfixturevalue(name) for name in PARAM_SETS]


def test_shift_inverse_roots_match_scipy(request, scipy_checked):
    for params in _each_param_set(request):
        _, shifts = variational._shift_scan(params)
        for i in (500, 2000, 4095, 6000, 7500):
            # midway between grid values: no exact grid root
            delta = 0.5 * (shifts[i] + shifts[i + 1])
            assert variational.shift_inverse_all(delta, params)
    assert len(scipy_checked) >= 5 * len(PARAM_SETS)


def test_twist_critical_set_matches_scipy(request, scipy_checked):
    found = [returnmap.twist_critical_set(p) for p in _each_param_set(request)]
    assert any(found) and scipy_checked


def test_fixed_point_matches_scipy(request, scipy_checked):
    sets = _each_param_set(request)
    for params in sets:
        # the scan polishes its twist folds once per parameter set; count
        # only what the fixed point polishes, whatever the cache holds
        variational._shift_scan(params)
    scipy_checked.clear()
    for params in sets:
        try:
            variational.find_nonhomothetic_fixed_point(params)
        except NoFixedPoint:
            pass
    polished = sum(a < b for params in sets
                   for a, b in variational._shift_brackets(0.0, params))
    # the collision root of each set, and +-I at fig2_mu44 and fig4
    assert len(scipy_checked) == polished == 6 + 4


# -- shooting -------------------------------------------------------------------


def test_shoot_raises_on_a_flat_residual():
    with pytest.raises(ShootingDiverged, match="flat residual in test"):
        shoot(lambda x: (1.0, 0.0), 0.0, -1.0, 1.0, 1e-12, "test")


def test_shoot_raises_after_forty_steps():
    # a constant residual: every Newton step lands on the clip bound
    with pytest.raises(ShootingDiverged,
                       match="test shooting did not converge"):
        shoot(lambda x: (1.0, 1.0), 0.0, -1.0, 1.0, 1e-12, "test")
