"""First return map on the interface: shifts, twist, fixed points."""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies
from scipy.optimize import brentq as scipy_brentq

from refbilliard import (PerturbationProfile, PhysParams, action_of_velocity,
                         circular_shift, find_nonhomothetic_fixed_point,
                         fixed_point_thresholds, outgoing_state,
                         outgoing_velocity, return_map, total_shift_grid,
                         twist_at_zero, twist_critical_set)
from refbilliard._util import wrap_pi
from refbilliard.errors import (DomainError, NoFixedPoint, OutOfActionRange,
                                TangentialCrossing)
from refbilliard.returnmap import _fixed_point_bracket


def test_outgoing_state_and_velocity_round_trip(fig1, circle):
    st = outgoing_state(0.8, 0.9, circle, fig1)
    assert st.xi == pytest.approx(0.8, abs=1e-15)
    assert st.action_I == 0.9
    # I = sqrt(V_E) sin(alpha) * metric, metric = 1 on the circle
    assert math.sin(st.alpha) == pytest.approx(0.9 / math.sqrt(2.0), abs=1e-15)
    v = outgoing_velocity(st, circle, fig1)
    assert action_of_velocity(0.8, v, circle, fig1) == pytest.approx(
        0.9, abs=1e-13)


def test_action_recovery_on_perturbed_boundary(fig1):
    prof = PerturbationProfile.cos_profile(3, 0.04)
    st = outgoing_state(1.1, -0.7, prof, fig1)
    v = outgoing_velocity(st, prof, fig1)
    assert action_of_velocity(1.1, v, prof, fig1) == pytest.approx(
        -0.7, abs=1e-13)


def test_outgoing_state_validates_action_bound(fig1, circle):
    # on the unit circle the bound is sqrt(V_E) = sqrt(2)
    with pytest.raises(OutOfActionRange):
        outgoing_state(0.0, math.sqrt(2.0) + 1e-12, circle, fig1)
    outgoing_state(0.0, math.sqrt(2.0) - 1e-9, circle, fig1)  # just inside


# -- non-finite inputs get a typed error, not a NaN orbit ----------------------


def test_outgoing_state_rejects_a_nan_action_on_the_circle(fig1, circle):
    # a NaN action used to give a NaN state, which iterate then ran with
    # status "running"
    with pytest.raises(OutOfActionRange):
        outgoing_state(0.0, math.nan, circle, fig1)


def test_outgoing_state_rejects_a_nan_action_on_a_perturbed_profile(fig1):
    # a NaN action used to surface in the first return as a misleading
    # EventDetectionFailed
    prof = PerturbationProfile.cos_profile(2, 0.01)
    with pytest.raises(OutOfActionRange):
        outgoing_state(0.3, math.nan, prof, fig1)


@pytest.mark.parametrize("xi", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("eps", [0.0, 0.01])
def test_outgoing_state_rejects_a_non_finite_angle(fig1, xi, eps):
    # an infinite angle used to raise a bare ValueError (math domain error),
    # which is no BilliardError
    prof = PerturbationProfile.cos_profile(2, eps)
    with pytest.raises(DomainError):
        outgoing_state(xi, 0.5, prof, fig1)


def test_circular_shift_rejects_a_nan_action(fig1):
    with pytest.raises(OutOfActionRange):
        circular_shift(math.nan, fig1)
    with pytest.raises(OutOfActionRange):
        total_shift_grid(np.array([0.0, math.nan]), fig1)


def test_circular_shift_anchor_values(fig1):
    prof = circular_shift(1.0, fig1)
    assert prof.f_val == pytest.approx(math.atan(4.0), abs=1e-12)
    assert prof.g_val == pytest.approx(-math.pi, abs=1e-12)
    assert prof.total == pytest.approx(prof.f_val + prof.g_val, abs=1e-15)


def test_circular_shift_is_odd(fig1):
    for I in (0.2, 0.8, 1.25):
        plus = circular_shift(I, fig1)
        minus = circular_shift(-I, fig1)
        assert plus.f_val == pytest.approx(-minus.f_val, abs=1e-14)
        assert plus.g_val == pytest.approx(-minus.g_val, abs=1e-14)
        assert plus.total_prime == pytest.approx(minus.total_prime, abs=1e-13)
    zero = circular_shift(0.0, fig1)
    assert zero.f_val == zero.g_val == 0.0


def test_circular_shift_derivatives_match_finite_differences(fig1):
    h = 1e-6
    for I in (0.15, 0.6, 1.0, 1.3, -0.9):
        prof = circular_shift(I, fig1)
        fd_f = (circular_shift(I + h, fig1).f_val -
                circular_shift(I - h, fig1).f_val) / (2 * h)
        fd_g = (circular_shift(I + h, fig1).g_val -
                circular_shift(I - h, fig1).g_val) / (2 * h)
        assert prof.f_prime == pytest.approx(fd_f, abs=5e-7)
        assert prof.g_prime == pytest.approx(fd_g, abs=5e-7)
        assert prof.total_prime == pytest.approx(fd_f + fd_g, abs=1e-6)


def test_circular_shift_rejects_action_bound(fig1):
    Ic = fig1.action_bound_Ic
    with pytest.raises(OutOfActionRange):
        circular_shift(Ic, fig1)
    with pytest.raises(OutOfActionRange):
        circular_shift(-Ic - 0.1, fig1)


def test_total_shift_grid_matches_scalar_form(fig1):
    grid = np.linspace(-1.35, 1.35, 101)
    vec = total_shift_grid(grid, fig1)
    scal = np.array([circular_shift(I, fig1).total for I in grid])
    assert np.allclose(vec, scal, atol=1e-14)
    with pytest.raises(OutOfActionRange):
        total_shift_grid(np.array([0.0, fig1.action_bound_Ic]), fig1)


# the trajectory-example set and its light-mass variant (mu = 0.5)
_CIRCLE_PARAMS = [PhysParams(energy_E=2.5, offset_h=2.0, mass_mu=mu,
                             stiffness_om=1.0) for mu in (2.0, 0.5)]


@given(params=strategies.sampled_from(_CIRCLE_PARAMS),
       xi=strategies.floats(-math.pi, math.pi),
       share=strategies.floats(-0.9999, 0.9999))
@example(params=_CIRCLE_PARAMS[0], xi=0.37, share=0.0)
@example(params=_CIRCLE_PARAMS[1], xi=-3.0, share=-0.9999)
@example(params=_CIRCLE_PARAMS[1], xi=0.37, share=1e-12)
def test_fast_and_geometric_paths_agree_on_circle(params, xi, share):
    """The geometric map marches the circle like any profile; it lands on
    the closed form f + g, at every action (near-collision interior arcs
    keep their O(I) sweep)."""
    I = share * params.action_bound_Ic
    circle = PerturbationProfile.circle()
    state = outgoing_state(xi, I, circle, params)
    shift = circular_shift(I, params).total
    geo = return_map(state, circle, params)
    assert abs(wrap_pi(geo.state.xi - (state.xi + shift))) < 1e-12
    assert geo.delta_xi == pytest.approx(shift, abs=1e-12)
    assert geo.state.action_I == pytest.approx(I, abs=1e-12)
    assert len(geo.arcs) == 2


@pytest.mark.parametrize("eps", [0.0, 0.01])
def test_geometric_map_rejects_a_tangential_launch(fig1, eps):
    """The exterior transit refuses a launch within 1e-9 of the tangent, so
    the geometric map raises its TangentialCrossing, on the circle too."""
    prof = PerturbationProfile.cos_profile(2, eps)
    for alpha in (math.pi / 2 - 5e-10, -math.pi / 2):
        state = outgoing_state(0.4, 0.0, prof, fig1)._replace(alpha=alpha)
        with pytest.raises(TangentialCrossing):
            return_map(state, prof, fig1)


def test_return_map_rotates_by_total_shift(fig1, circle):
    st = outgoing_state(1.2, 0.8, circle, fig1)
    res = return_map(st, circle, fig1)
    shift = circular_shift(0.8, fig1).total
    assert res.delta_xi == pytest.approx(shift, abs=1e-15)
    assert res.state.action_I == pytest.approx(0.8, abs=1e-14)


def test_geometric_map_preserves_area_on_perturbed_boundary(fig1):
    prof = PerturbationProfile.cos_profile(2, 0.02)
    h = 1e-6

    def lifted(xi, I):
        res = return_map(outgoing_state(xi, I, prof, fig1), prof, fig1)
        return xi + res.delta_xi, res.state.action_I

    for xi0, I0 in ((0.5, 0.6), (2.0, -0.4), (4.1, 1.0)):
        fpx = lifted(xi0 + h, I0)
        fmx = lifted(xi0 - h, I0)
        fpi = lifted(xi0, I0 + h)
        fmi = lifted(xi0, I0 - h)
        J = np.array([[(fpx[0] - fmx[0]) / (2 * h), (fpi[0] - fmi[0]) / (2 * h)],
                      [(fpx[1] - fmx[1]) / (2 * h), (fpi[1] - fmi[1]) / (2 * h)]])
        assert np.linalg.det(J) == pytest.approx(1.0, abs=1e-5)


def test_twist_at_zero_matches_shift_derivative(fig1, fig2_mu44, fig2_mu55):
    for params in (fig1, fig2_mu44, fig2_mu55):
        h = 1e-5
        fd = circular_shift(h, params).total / h  # odd function
        assert twist_at_zero(params) == pytest.approx(fd, abs=1e-6)
    assert twist_at_zero(fig2_mu44) < 0 < twist_at_zero(fig2_mu55)


def test_twist_critical_set_roots_change_sign(fig1, fig4, stiff_well):
    for params in (fig1, fig4, stiff_well):
        roots = twist_critical_set(params)
        assert len(roots) <= 10
        assert roots == sorted(roots)
        for r in roots:
            if r == 0.0:
                continue
            h = 1e-5
            lo = circular_shift(r - h, params).total_prime
            hi = circular_shift(r + h, params).total_prime
            assert lo * hi < 0
            assert abs(circular_shift(r, params).total_prime) < 1e-10


def test_twist_critical_set_symmetry(stiff_well):
    roots = twist_critical_set(stiff_well)
    assert len(roots) == 2
    assert roots[0] == pytest.approx(-roots[1], abs=1e-14)
    assert roots[1] == pytest.approx(0.9249875019575851, abs=1e-9)


def test_fixed_point_thresholds_closed_form(fig4):
    mu_bar, h_bar = fixed_point_thresholds(fig4)
    E, om, mu = fig4.energy_E, fig4.stiffness_om, fig4.mass_mu
    # mu_bar solves (2E - om) mu^2 = 8 E^2 (E + mu)
    assert (2 * E - om) * mu_bar ** 2 == pytest.approx(
        8 * E * E * (E + mu_bar), rel=1e-12)
    assert h_bar == pytest.approx((2 * E - om) * mu * mu / (8 * E * E)
                                  - (E + mu), abs=1e-12)


def test_find_nonhomothetic_fixed_point(fig4, fig1):
    I = find_nonhomothetic_fixed_point(fig4)
    assert 0 < I < fig4.action_bound_Ic
    assert circular_shift(I, fig4).total == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(NoFixedPoint):
        find_nonhomothetic_fixed_point(fig1)


@pytest.mark.parametrize("name", ["fig1", "fig2_mu44", "fig2_mu55", "fig4",
                                  "light_mass", "stiff_well"])
def test_fixed_point_scan_matches_the_scalar_scan(request, name):
    # the vectorised scan picks the cell a scan of the scalar closed form
    # picks, so the polished root keeps its bits
    from scipy.optimize import brentq
    params = request.getfixturevalue(name)
    Ic = params.action_bound_Ic
    grid = np.linspace(Ic * 1e-6, Ic * (1 - 1e-9), 4096)
    vals = np.array([circular_shift(I, params).total for I in grid])
    idx = np.nonzero(vals[1:] * vals[:-1] < 0)[0]
    bracket = _fixed_point_bracket(params)
    if idx.size == 0:
        assert bracket is None
        with pytest.raises(NoFixedPoint):
            find_nonhomothetic_fixed_point(params)
        return
    i = int(idx[0])
    assert bracket == (grid[i], grid[i + 1])
    assert find_nonhomothetic_fixed_point(params) == scipy_brentq(
        lambda I: circular_shift(I, params).total, grid[i], grid[i + 1],
        xtol=1e-15, rtol=8.9e-16)
