"""The reflection symmetry (xi, I) -> (-xi, -I) of cosine-only profiles.

On r = 1 + eps sum a_k cos k xi the mirror xi -> -xi maps the interface to
itself and reverses every angular momentum, so it conjugates the return map
F with R(xi, I) = (-xi, -I): F(R x) = R F(x).  Since R = -Id is linear,
DF(R x) = DF(x), and the generating function, a sum of mirror-invariant
Jacobi lengths, has S(-xi0, -xi1) = S(xi0, xi1).  Profiles carry harmonics
1-4 with sup |eps f| <= 0.05.
"""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from refbilliard import (PerturbationProfile, PhysParams, generating_function,
                         outgoing_state, return_map, tangent_map)
from refbilliard._util import wrap_pi
from refbilliard.errors import BilliardError
from refbilliard.returnmap import _action_bound

FIG1 = PhysParams(energy_E=2.5, offset_h=2.0, mass_mu=2.0, stiffness_om=1.0)
LIGHT_MASS = PhysParams(energy_E=2.5, offset_h=2.0, mass_mu=0.5,
                        stiffness_om=1.0)


@st.composite
def _cos_profiles(draw):
    """Random cos-only profile with harmonics 1-4 and sup |eps f| <= 0.05."""
    cos = [0.0] + [draw(st.floats(-1.0, 1.0)) for _ in range(4)]
    norm = sum(map(abs, cos))
    if norm == 0.0:
        cos[1] = norm = 1.0
    return PerturbationProfile(tuple(cos), (0.0,) * 5,
                               draw(st.floats(1e-4, 0.05)) / norm)


def _step(xi, I, profile, params):
    """One geometric return from (xi, I): its state, result and DF."""
    state = outgoing_state(xi, I, profile, params)
    res = return_map(state, profile, params)
    return state, res, tangent_map(state, res, profile, params)


def _forward(xi, share, profile, params):
    """(xi, I, step) at ``share`` of the local action bound, or no example
    when that return fails."""
    I = share * _action_bound(xi, profile, params)
    try:
        return xi, I, _step(xi, I, profile, params)
    except BilliardError:
        assume(False)


@settings(max_examples=160)
@given(profile=_cos_profiles(), params=st.sampled_from((FIG1, LIGHT_MASS)),
       xi=st.floats(-math.pi, math.pi), share=st.floats(-0.9, 0.9))
def test_return_map_commutes_with_the_reflection(profile, params, xi, share):
    xi, I, (_, res, D) = _forward(xi, share, profile, params)
    _, mirror, D_mirror = _step(-xi, -I, profile, params)
    assert abs(wrap_pi(mirror.state.xi + res.state.xi)) <= 1e-13
    assert abs(mirror.state.action_I + res.state.action_I) <= 1e-13
    assert abs(mirror.delta_xi + res.delta_xi) <= 1e-13
    assert np.max(np.abs(D_mirror - D)) <= 1e-12 * max(1.0,
                                                       np.max(np.abs(D)))


@settings(max_examples=60)
@given(profile=_cos_profiles(), params=st.sampled_from((FIG1, LIGHT_MASS)),
       xi=st.floats(-math.pi, math.pi), share=st.floats(-0.9, 0.9))
def test_generating_function_is_reflection_invariant(profile, params, xi,
                                                     share):
    xi, I, (_, res, _) = _forward(xi, share, profile, params)
    xi1 = xi + res.delta_xi
    try:
        S = generating_function(xi, xi1, profile, params, action_hint=I)
    except BilliardError:
        assume(False)
    S_mirror = generating_function(-xi, -xi1, profile, params,
                                   action_hint=-I)
    assert abs(S_mirror.S_value - S.S_value) <= 1e-10
