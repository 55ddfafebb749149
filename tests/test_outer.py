"""Exterior oscillator arcs: propagation, shift inverse, transit maps."""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from refbilliard import (circular_shift, outer_arc_fixed_ends, outer_conic_of,
                         outer_shift_inverse, outer_transit, potential)
from refbilliard.arcs import osc_flow
from refbilliard.errors import (DomainError, EnergyMismatch,
                                TangentialCrossing)


def launch(xi, alpha, params):
    """Unit-circle point and zero-energy exterior velocity at angle alpha."""
    n = complex(math.cos(xi), math.sin(xi))
    t = 1j * n
    speed = math.sqrt(2.0 * potential(n, "outer", params))
    return n, speed * (math.cos(alpha) * n + math.sin(alpha) * t)


def shift_f(alpha, params):
    """Polar advance f of the unit-circle arc launched at ``alpha``: the
    circle's shift at I = I_c sin(alpha)."""
    return circular_shift(params.action_bound_Ic * math.sin(alpha),
                          params).f_val


def test_outer_propagate_matches_ode_integration(fig1):
    p0, v0 = launch(0.7, 0.5, fig1)
    om = fig1.stiffness_om

    def rhs(_, y):
        return [y[2], y[3], -om * y[0], -om * y[1]]

    s1 = 1.3
    sol = solve_ivp(rhs, (0.0, s1), [p0.real, p0.imag, v0.real, v0.imag],
                    rtol=1e-12, atol=1e-14, dense_output=True)
    z, v = osc_flow(p0, v0, fig1.omega, s1)
    yf = sol.sol(s1)
    assert z.real == pytest.approx(yf[0], abs=1e-10)
    assert z.imag == pytest.approx(yf[1], abs=1e-10)
    assert v.real == pytest.approx(yf[2], abs=1e-10)
    assert v.imag == pytest.approx(yf[3], abs=1e-10)


def test_outer_propagate_conserves_energy(fig1):
    p0, v0 = launch(2.1, -0.9, fig1)
    ss = np.linspace(0.0, 2.0, 41)
    z, v = osc_flow(p0, v0, fig1.omega, ss)
    energy = 0.5 * np.abs(v) ** 2 + 0.5 * fig1.stiffness_om * np.abs(z) ** 2
    assert np.allclose(energy, fig1.energy_E, atol=1e-12)


def test_osc_flow_float_and_array_paths_agree(fig1):
    # the math-only path serves the exit march, the array path the samples
    p0, v0 = launch(0.4, 0.8, fig1)
    w = fig1.omega
    ss = np.linspace(-1.0, 9.0, 37)
    zs, vs = osc_flow(p0, v0, w, ss)
    for s, z, v in zip(ss.tolist(), zs, vs):
        zf, vf = osc_flow(p0, v0, w, s)
        assert type(zf) is complex and type(vf) is complex
        assert abs(zf - z) < 1e-14 and abs(vf - v) < 1e-14
    # the ellipse is centred: half a period later the state is reversed
    zh, vh = osc_flow(p0, v0, w, math.pi / w)
    assert abs(zh + p0) < 1e-14 and abs(vh + v0) < 1e-14


def test_outer_propagate_rejects_wrong_speed(fig1):
    # the exterior energy check, as every caller given a state meets it
    p0, _ = launch(0.0, 0.0, fig1)
    with pytest.raises(EnergyMismatch):
        outer_conic_of(p0, 1.0 + 0.0j, fig1)
    with pytest.raises(DomainError):
        outer_conic_of(4.0 + 0.0j, 0.0j, fig1)


def test_outer_shift_is_odd_and_monotone(fig1):
    alphas = np.linspace(0.01, math.pi / 2 - 0.01, 30)
    vals = np.array([shift_f(a, fig1) for a in alphas])
    negs = np.array([shift_f(-a, fig1) for a in alphas])
    assert np.allclose(vals, -negs, atol=1e-15)
    assert np.all(np.diff(vals) > 0)
    assert shift_f(0.0, fig1) == 0.0


def test_outer_shift_against_transit_geometry(fig1, circle):
    # oracle: sweep of the closed-form flow to the first unit-circle return
    for alpha in (0.2, 0.8, 1.3, -0.5):
        arc = outer_transit(0.0, alpha, circle, fig1)
        assert arc.sweep == pytest.approx(shift_f(alpha, fig1), abs=1e-12)
        assert abs(arc.p1) == pytest.approx(1.0, abs=1e-12)


def test_outer_shift_anchor_value(fig1):
    # at E = 2.5, om = 1 the launch angle pi/4 sweeps arctan(4)
    assert outer_shift_inverse(math.atan(4.0), fig1) == pytest.approx(
        math.pi / 4, abs=1e-12)


def test_outer_shift_inverse_round_trip(fig1):
    for theta in np.linspace(-3.0, 3.0, 21):
        alpha = outer_shift_inverse(theta, fig1)
        assert shift_f(alpha, fig1) == pytest.approx(theta, abs=1e-12)
    with pytest.raises(DomainError):
        outer_shift_inverse(math.pi, fig1)


def test_outer_conic_contains_trajectory(fig1):
    p0, v0 = launch(1.1, 0.6, fig1)
    conic = outer_conic_of(p0, v0, fig1)
    assert not conic.degenerate
    a2, b2, tilt = conic.semi_major_sq, conic.semi_minor_sq, conic.tilt_angle
    # semi-axes satisfy om(a^2 + b^2) = 2E and a >= b
    om = fig1.stiffness_om
    assert om * (a2 + b2) == pytest.approx(2.0 * fig1.energy_E, abs=1e-12)
    assert a2 >= b2 > 0
    zs, _ = osc_flow(p0, v0, fig1.omega, np.linspace(0.0, 5.0, 200))
    rot = zs * np.exp(-1j * tilt)
    on_conic = rot.real ** 2 / a2 + rot.imag ** 2 / b2
    assert np.allclose(on_conic, 1.0, atol=1e-10)


def test_outer_conic_radial_arc_degenerates(fig1):
    p0 = 1.0 + 0.0j
    v0 = complex(math.sqrt(2.0 * potential(p0, "outer", fig1)), 0.0)
    conic = outer_conic_of(p0, v0, fig1)
    assert conic.degenerate
    assert conic.semi_minor_sq == 0.0
    assert conic.tilt_angle == pytest.approx(0.0, abs=1e-14)


def test_outer_transit_returns_to_boundary(fig1, circle):
    arc = outer_transit(0.4, 0.9, circle, fig1)
    assert arc.region == "outer"
    assert abs(arc.p0) == pytest.approx(1.0, abs=1e-14)
    assert abs(arc.p1) == pytest.approx(1.0, abs=1e-12)
    assert arc.duration > 0
    # re-entry angle equals launch angle plus the sweep
    assert arc.xi1 == pytest.approx(0.4 + shift_f(0.9, fig1), abs=1e-12)
    # the flow stays outside the boundary strictly between the endpoints
    ss = np.linspace(0.0, arc.duration, 300)[1:-1]
    zs, _ = osc_flow(arc.p0, arc.v0, fig1.omega, ss)
    assert np.all(np.abs(zs) > 1.0 - 1e-9)


def test_outer_transit_perturbed_first_return(fig1):
    from refbilliard import PerturbationProfile
    prof = PerturbationProfile.cos_profile(2, 0.02)
    arc = outer_transit(0.3, 0.7, prof, fig1)
    g_r = prof.radius(math.atan2(arc.p1.imag, arc.p1.real))
    assert abs(arc.p1) == pytest.approx(g_r, abs=1e-9)
    ss = np.linspace(0.0, arc.duration, 400)[1:-1]
    zs, _ = osc_flow(arc.p0, arc.v0, fig1.omega, ss)
    heights = np.abs(zs) - prof.radius(np.angle(zs))
    assert np.all(heights > -1e-8)


def test_outer_transit_rejects_tangential_launch(fig1, circle):
    with pytest.raises(TangentialCrossing):
        outer_transit(0.0, math.pi / 2, circle, fig1)


def test_outer_arc_fixed_ends_hits_target(fig1, circle):
    xi0, xi1 = 0.5, 1.7
    arc = outer_arc_fixed_ends(xi0, xi1, circle, fig1)
    assert arc.xi1 == pytest.approx(xi1, abs=1e-12)
    # the lifted endpoint fixes the signed advance
    arc2 = outer_arc_fixed_ends(0.0, -2.0, circle, fig1)
    assert arc2.sweep == pytest.approx(-2.0, abs=1e-12)
    # no exterior arc advances the polar angle by pi
    with pytest.raises(DomainError):
        outer_arc_fixed_ends(0.0, math.pi, circle, fig1)


def test_outer_arc_fixed_ends_perturbed(fig1):
    from refbilliard import PerturbationProfile
    prof = PerturbationProfile.cos_profile(3, 0.01)
    arc = outer_arc_fixed_ends(0.2, 1.4, prof, fig1)
    assert arc.xi1 == pytest.approx(1.4, abs=1e-9)
    assert abs(arc.p1) == pytest.approx(prof.radius(1.4), abs=1e-9)
