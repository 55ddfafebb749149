"""ODE-integrated reference map versus the closed-form/geometric map."""

import math

import pytest

from refbilliard import (PerturbationProfile, boundary, ode_return_map,
                         outgoing_state, potential, return_map)
from refbilliard._util import wrap_pi
from refbilliard.errors import EventDetectionFailed


def action_of_alpha(xi0, alpha, profile, params):
    g = boundary(xi0, profile)
    return math.sqrt(potential(g.point_c, "outer", params)) * \
        math.sin(alpha) * g.metric


def test_oracle_matches_closed_form_on_circle(fig1, circle):
    for alpha in (0.35, -0.9, 1.2):
        I0 = action_of_alpha(0.6, alpha, circle, fig1)
        res = return_map(outgoing_state(0.6, I0, circle, fig1), circle, fig1)
        orc = ode_return_map(0.6, alpha, circle, fig1)
        assert abs(wrap_pi(res.state.xi - orc.xi1)) < 1e-9
        assert orc.action_I1 == pytest.approx(I0, abs=1e-10)
        assert orc.t_outer > 0 and orc.t_inner > 0


def test_oracle_matches_geometric_map_when_perturbed(fig1):
    prof = PerturbationProfile.cos_profile(2, 0.01)
    for alpha in (0.5, -0.8):
        I0 = action_of_alpha(0.3, alpha, prof, fig1)
        res = return_map(outgoing_state(0.3, I0, prof, fig1), prof, fig1)
        orc = ode_return_map(0.3, alpha, prof, fig1)
        assert abs(wrap_pi(res.state.xi - orc.xi1)) < 1e-8
        assert res.state.action_I == pytest.approx(orc.action_I1, abs=1e-9)


def test_oracle_travel_times_match_arcs(fig1, circle):
    alpha = 0.7
    I0 = action_of_alpha(0.0, alpha, circle, fig1)
    res = return_map(outgoing_state(0.0, I0, circle, fig1), circle, fig1)
    orc = ode_return_map(0.0, alpha, circle, fig1)
    outer, inner = res.arcs
    assert orc.t_outer == pytest.approx(outer.duration, abs=1e-9)
    assert orc.t_inner == pytest.approx(inner.duration, abs=1e-9)


def test_oracle_cannot_integrate_collision(fig1, circle):
    # the radial ray reaches the singularity; only the regularized chart
    # passes through, so the plain integration reports a detection failure
    with pytest.raises(EventDetectionFailed):
        ode_return_map(0.0, 0.0, circle, fig1)
