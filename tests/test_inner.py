"""Interior Kepler arcs: elements, regularized propagation, transit maps."""

import cmath
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from refbilliard import (circular_shift, inner_arc_fixed_ends,
                         kepler_elements, levi_civita_propagate, potential)
from refbilliard.errors import (DomainError, EnergyMismatch,
                                SingularityError)


def entry_state(xi, beta, params):
    """Unit-circle point and zero-energy interior velocity entering at beta."""
    n = cmath.exp(1j * xi)
    t = 1j * n
    speed = math.sqrt(2.0 * potential(n, "inner", params))
    return n, speed * (-math.cos(beta) * n + math.sin(beta) * t)


def test_kepler_elements_invariants(fig1):
    z0, v0 = entry_state(0.8, 0.6, fig1)
    conic = kepler_elements(z0, v0, fig1)
    k = z0.real * v0.imag - z0.imag * v0.real
    assert conic.ang_momentum_k == pytest.approx(k, abs=1e-14)
    assert conic.semilatus_p == pytest.approx(k * k / fig1.mass_mu, abs=1e-13)
    # positive two-body energy E + h forces a hyperbola branch
    assert conic.eccentricity_e > 1.0
    assert conic.pericenter_r == pytest.approx(
        conic.semilatus_p / (1.0 + conic.eccentricity_e), abs=1e-14)
    assert not conic.is_collision
    # vis-viva check of the eccentricity: e^2 = 1 + 2 (E+h) k^2 / mu^2
    e_sq = 1.0 + 2.0 * fig1.kepler_energy * k * k / fig1.mass_mu ** 2
    assert conic.eccentricity_e ** 2 == pytest.approx(e_sq, abs=1e-12)


def test_kepler_elements_focal_equation_along_flow(fig1):
    z0, v0 = entry_state(0.0, 0.75, fig1)
    conic = kepler_elements(z0, v0, fig1)
    mu = fig1.mass_mu

    def rhs(_, y):
        r3 = (y[0] ** 2 + y[1] ** 2) ** 1.5
        return [y[2], y[3], -mu * y[0] / r3, -mu * y[1] / r3]

    sol = solve_ivp(rhs, (0.0, 0.35), [z0.real, z0.imag, v0.real, v0.imag],
                    rtol=1e-12, atol=1e-14, dense_output=True)
    for t in np.linspace(0.0, 0.35, 20):
        x, y = sol.sol(t)[:2]
        r = math.hypot(x, y)
        th = math.atan2(y, x)
        focal = conic.semilatus_p / (
            1.0 + conic.eccentricity_e * math.cos(th - conic.pericenter_angle))
        assert r == pytest.approx(focal, abs=1e-8)


def test_kepler_elements_flags_radial_ray(fig1):
    z0 = 1.0 + 0.0j
    v0 = -math.sqrt(2.0 * potential(z0, "inner", fig1)) + 0.0j
    conic = kepler_elements(z0, v0, fig1)
    assert conic.is_collision
    assert conic.eccentricity_e == 1.0
    assert conic.pericenter_r == 0.0
    assert abs(conic.pericenter_angle) == pytest.approx(math.pi, abs=1e-14)
    with pytest.raises(SingularityError):
        kepler_elements(0.0 + 0.0j, v0, fig1)
    with pytest.raises(EnergyMismatch):
        kepler_elements(z0, 1.0 + 0.0j, fig1)


def test_interior_transit_checks_its_entry_state(fig1, circle):
    # the transit validates its entry as kepler_elements does
    z0, v0 = entry_state(0.3, 0.4, fig1)
    for z, v in ((z0.real, v0), (z0, abs(v0))):
        with pytest.raises(DomainError):
            levi_civita_propagate(z, v, fig1, circle)
    with pytest.raises(SingularityError):
        levi_civita_propagate(0j, v0, fig1, circle)
    with pytest.raises(EnergyMismatch):
        levi_civita_propagate(z0, 1.01 * v0, fig1, circle)


def test_inner_transit_matches_ode_integration(fig1, circle):
    z0, v0 = entry_state(0.9, 0.65, fig1)
    arc = levi_civita_propagate(z0, v0, fig1, circle)
    mu = fig1.mass_mu

    def rhs(_, y):
        r3 = (y[0] ** 2 + y[1] ** 2) ** 1.5
        return [y[2], y[3], -mu * y[0] / r3, -mu * y[1] / r3]

    sol = solve_ivp(rhs, (0.0, arc.duration),
                    [z0.real, z0.imag, v0.real, v0.imag],
                    rtol=1e-12, atol=1e-14)
    xf, yf, vxf, vyf = sol.y[:, -1]
    assert arc.p1.real == pytest.approx(xf, abs=1e-8)
    assert arc.p1.imag == pytest.approx(yf, abs=1e-8)
    assert arc.v1.real == pytest.approx(vxf, abs=1e-7)
    assert arc.v1.imag == pytest.approx(vyf, abs=1e-7)
    # exit on the boundary with the zero-energy speed
    assert abs(arc.p1) == pytest.approx(1.0, abs=1e-12)
    assert 0.5 * abs(arc.v1) ** 2 == pytest.approx(
        potential(arc.p1, "inner", fig1), abs=1e-10)


def test_near_radial_transit_switches_to_regularized_chart(fig1, circle):
    z0, v0 = entry_state(0.4, 1e-5, fig1)
    arc = levi_civita_propagate(z0, v0, fig1, circle)
    assert arc.chart == "lc"
    assert kepler_elements(arc.p0, arc.v0, fig1).pericenter_r < 1e-3


def test_collision_ray_reflects_through_centre(fig1, circle):
    z0, v0 = entry_state(1.3, 0.0, fig1)
    arc = levi_civita_propagate(z0, v0, fig1, circle)
    assert arc.chart == "lc"
    assert kepler_elements(arc.p0, arc.v0, fig1).is_collision
    assert arc.sweep == 0.0
    # the regularized flow re-emerges along the same ray, moving outward
    assert arc.p1 == pytest.approx(z0, abs=1e-10)
    assert arc.v1 == pytest.approx(-v0, abs=1e-9)


def shift_g(beta, params):
    """The circle's interior shift g at the action I = sqrt(V_I(1))
    sin(beta) of an entry at ``beta``; refraction reaches |I| < I_c only."""
    speed = math.sqrt(potential(1.0 + 0.0j, "inner", params))
    return circular_shift(speed * math.sin(beta), params).g_val


def test_inner_shift_is_odd_and_decreasing(fig1):
    # entries up to the critical angle, where I reaches I_c
    beta_c = math.asin(fig1.action_bound_Ic /
                       math.sqrt(potential(1.0 + 0.0j, "inner", fig1)))
    betas = np.linspace(0.05, beta_c - 1e-6, 40)
    vals = np.array([shift_g(b, fig1) for b in betas])
    negs = np.array([shift_g(-b, fig1) for b in betas])
    assert np.allclose(vals, -negs, atol=1e-14)
    assert np.all(np.diff(vals) < 0)
    assert shift_g(0.0, fig1) == 0.0
    assert abs(shift_g(1e-8, fig1)) < 1e-6


def test_inner_shift_matches_transit_sweep(fig1, circle):
    # geometric polar advance of the arc = shift + 2*pi*sign(beta), at
    # entries refraction can produce (|beta| below 0.588 here)
    for beta in (0.25, 0.5, 0.58, -0.4, -0.55):
        _, v0 = entry_state(0.0, beta, fig1)
        arc = levi_civita_propagate(1.0 + 0.0j, v0, fig1, circle)
        expected = shift_g(beta, fig1) + math.copysign(2.0 * math.pi, beta)
        assert arc.sweep == pytest.approx(expected, abs=1e-11)
    # entries past the critical angle, which only the fixed-end solvers
    # launch: the arc is symmetric about its pericenter line, so it turns
    # by twice the angle from the entry to the pericenter, in the sense of k
    for beta in (0.7, 1.2, -1.05):
        _, v0 = entry_state(0.0, beta, fig1)
        arc = levi_civita_propagate(1.0 + 0.0j, v0, fig1, circle)
        conic = kepler_elements(1.0 + 0.0j, v0, fig1)
        sense = math.copysign(1.0, conic.ang_momentum_k)
        half = (sense * conic.pericenter_angle) % (2.0 * math.pi)
        assert arc.sweep == pytest.approx(2.0 * sense * half, abs=1e-11)


def test_inner_shift_anchor_half_turn(fig1, circle):
    # the unit action on the unit circle enters at sin(beta) = 1/sqrt(V_I)
    # and turns by g(1) + 2 pi = pi
    _, v0 = entry_state(0.0, math.asin(1.0 / math.sqrt(6.5)), fig1)
    arc = levi_civita_propagate(1.0 + 0.0j, v0, fig1, circle)
    assert arc.sweep == pytest.approx(math.pi, abs=1e-12)


def test_inner_arc_fixed_ends_branches(fig1, circle):
    xi0, xi1 = 0.3, 1.5
    direct = inner_arc_fixed_ends(xi0, xi1, circle, fig1)
    # one turn less: the long way round the centre
    winding = inner_arc_fixed_ends(xi0, xi1 - 2.0 * math.pi, circle, fig1)
    for arc in (direct, winding):
        assert arc.xi1 == pytest.approx(xi1, abs=1e-10)
        assert abs(arc.p1) == pytest.approx(1.0, abs=1e-12)
    assert direct.sweep == pytest.approx(1.2, abs=1e-10)
    assert winding.sweep == pytest.approx(1.2 - 2.0 * math.pi, abs=1e-10)
    assert (kepler_elements(winding.p0, winding.v0, fig1).ang_momentum_k
            < 0 < kepler_elements(direct.p0, direct.v0, fig1).ang_momentum_k)


def test_inner_arc_fixed_ends_half_turn_sign_picks_the_arc(fig1, circle):
    # +-pi reach the same antipodal point, one on each side of the centre
    for sweep in (math.pi, -math.pi):
        arc = inner_arc_fixed_ends(0.0, sweep, circle, fig1)
        assert arc.sweep == pytest.approx(sweep, abs=1e-10)
        assert abs(arc.xi1) == pytest.approx(math.pi, abs=1e-10)
        k = kepler_elements(arc.p0, arc.v0, fig1).ang_momentum_k
        assert math.copysign(1.0, k) == math.copysign(1.0, sweep)
    # a full turn or more is no interior arc
    for xi1 in (2.0 * math.pi, -2.0 * math.pi, 7.0):
        with pytest.raises(DomainError):
            inner_arc_fixed_ends(0.0, xi1, circle, fig1)


def test_inner_arc_coinciding_endpoints_is_collision_ray(fig1, circle):
    arc = inner_arc_fixed_ends(0.7, 0.7, circle, fig1)
    assert kepler_elements(arc.p0, arc.v0, fig1).is_collision
    assert arc.p1 == pytest.approx(cmath.exp(0.7j), abs=1e-10)


def test_inner_arc_fixed_ends_perturbed(fig1):
    from refbilliard import PerturbationProfile
    prof = PerturbationProfile.cos_profile(2, 0.015)
    arc = inner_arc_fixed_ends(0.25, 1.9 - 2.0 * math.pi, prof, fig1)
    assert arc.xi1 == pytest.approx(1.9, abs=1e-8)
    assert abs(arc.p1) == pytest.approx(prof.radius(1.9), abs=1e-8)
    # the long way round: one turn less than the wrapped advance
    assert arc.sweep == pytest.approx(1.9 - 0.25 - 2.0 * math.pi, abs=1e-8)

