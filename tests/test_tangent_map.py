"""The exact tangent map of one return against difference quotients of the
map and of the ODE oracle, and against area preservation.

Profiles carry harmonics 1-4 with sup |eps f| <= 0.05.  Launches cover
generic, near-radial and ejection-collision interior arcs.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from refbilliard import (PerturbationProfile, PhysParams, circular_shift,
                         ode_return_map, outgoing_state, return_map,
                         tangent_map)
from refbilliard._util import wrap_pi
from refbilliard.errors import BilliardError
from refbilliard.returnmap import _action_bound

FIG1 = PhysParams(energy_E=2.5, offset_h=2.0, mass_mu=2.0, stiffness_om=1.0)
LIGHT_MASS = PhysParams(energy_E=2.5, offset_h=2.0, mass_mu=0.5,
                        stiffness_om=1.0)


@st.composite
def _profiles(draw):
    """Random profile with harmonics 1-4 and sup |eps f| <= 0.05."""
    cos = [0.0] + [draw(st.floats(-1.0, 1.0)) for _ in range(4)]
    sin = [0.0] + [draw(st.floats(-1.0, 1.0)) for _ in range(4)]
    norm = sum(map(abs, cos)) + sum(map(abs, sin))
    if norm == 0.0:
        cos[1] = norm = 1.0
    return PerturbationProfile(tuple(cos), tuple(sin),
                               draw(st.floats(1e-4, 0.05)) / norm)


def _lifted(xi, I, profile, params):
    res = return_map(outgoing_state(xi, I, profile, params), profile,
                     params)
    return np.array([xi + res.delta_xi, res.state.action_I])


def _central(xi, I, profile, params, h=1e-6):
    return np.column_stack([
        (_lifted(xi + h, I, profile, params) -
         _lifted(xi - h, I, profile, params)) / (2.0 * h),
        (_lifted(xi, I + h, profile, params) -
         _lifted(xi, I - h, profile, params)) / (2.0 * h)])


def _launch(xi, share, profile, params):
    """Geometric return from ``xi`` at ``share`` of the local action bound,
    with its state."""
    state = outgoing_state(xi, share * _action_bound(xi, profile, params),
                           profile, params)
    return state, return_map(state, profile, params)


def _close(D, C, rel):
    return np.max(np.abs(D - C)) <= rel * max(1.0, np.max(np.abs(C)))


@settings(max_examples=40)
@given(profile=_profiles(), params=st.sampled_from((FIG1, LIGHT_MASS)),
       xi=st.floats(-math.pi, math.pi), share=st.floats(-0.9, 0.9))
def test_tangent_map_matches_central_differences(profile, params, xi, share):
    try:
        state, res = _launch(xi, share, profile, params)
        C = _central(state.xi, state.action_I, profile, params)
    except BilliardError:
        return
    D = tangent_map(state, res, profile, params)
    assert _close(D, C, 1e-6), (D, C)


@settings(max_examples=60)
@given(profile=_profiles(), params=st.sampled_from((FIG1, LIGHT_MASS)),
       xi=st.floats(-math.pi, math.pi), share=st.floats(-0.97, 0.97))
def test_tangent_map_preserves_area(profile, params, xi, share):
    try:
        state, res = _launch(xi, share, profile, params)
    except BilliardError:
        return
    D = tangent_map(state, res, profile, params)
    assert abs(D[0, 0] * D[1, 1] - D[0, 1] * D[1, 0] - 1.0) < 1e-11


@pytest.mark.parametrize("params, harmonic, eps, xi, I, collision", [
    (FIG1, 2, 0.01, 0.0, 0.0, True),
    (FIG1, 3, 0.02, math.pi / 3, 0.0, True),
    (FIG1, 2, 0.01, 0.4, 0.0, False),
    (FIG1, 2, 0.01, 0.4, 0.003, False),
    (FIG1, 3, 0.02, 1.3, -0.004, False),
    (FIG1, 3, 0.02, 2.0, 1e-5, False),
    (LIGHT_MASS, 2, 0.01, 0.0, 0.0, True),
    (LIGHT_MASS, 3, 0.02, math.pi / 3, 0.0, True),
    (LIGHT_MASS, 2, 0.01, 0.4, 0.0, False),
    (LIGHT_MASS, 3, 0.02, 2.0, 1e-5, False),
])
def test_tangent_map_on_levi_civita_arcs(params, harmonic, eps, xi, I,
                                         collision):
    # near-radial entries run in the Levi-Civita chart; a launch along a
    # symmetry axis is an ejection-collision ray
    profile = PerturbationProfile.cos_profile(harmonic, eps)
    state = outgoing_state(xi, I, profile, params)
    res = return_map(state, profile, params)
    inner = res.arcs[1]
    assert inner.chart == "lc"
    assert inner.conic.is_collision == collision
    D = tangent_map(state, res, profile, params)
    assert _close(D, _central(xi, I, profile, params), 1e-8)
    assert abs(np.linalg.det(D) - 1.0) < 1e-11


@pytest.mark.parametrize("xi, I", [(0.5, 0.6), (2.0, -0.4), (-1.0, 1.1)])
def test_tangent_map_matches_ode_oracle_differences(xi, I):
    profile = PerturbationProfile.cos_profile(2, 0.02)
    h = 1e-5

    def oracle(x, a):
        alpha = outgoing_state(x, a, profile, FIG1).alpha
        ret = ode_return_map(x, alpha, profile, FIG1)
        return np.array([ret.xi1, ret.action_I1])

    def column(dx, dI):
        diff = oracle(xi + dx, I + dI) - oracle(xi - dx, I - dI)
        diff[0] = wrap_pi(diff[0])
        return diff / (2.0 * h)

    C = np.column_stack([column(h, 0.0), column(0.0, h)])
    state = outgoing_state(xi, I, profile, FIG1)
    D = tangent_map(state, return_map(state, profile, FIG1), profile, FIG1)
    assert _close(D, C, 1e-5), (D, C)


@pytest.mark.parametrize("I", [-1.3, -0.4, 0.0, 0.7, 1.2])
def test_tangent_map_closed_form_shear(fig1, circle, I):
    state = outgoing_state(0.4, I, circle, fig1)
    D = tangent_map(state, return_map(state, circle, fig1), circle, fig1)
    shear = np.array([[1.0, circular_shift(I, fig1).total_prime],
                      [0.0, 1.0]])
    assert np.max(np.abs(D - shear)) <= 1e-12 * np.max(np.abs(shear))
