"""Tangent circles of the integrable orbits and their perturbed envelopes."""

import cmath
import dataclasses
import math

import numpy as np
import pytest

from refbilliard import (CurveProbe, PerturbationProfile,
                         circular_caustic_radii, envelope_equations, iterate,
                         levi_civita_propagate, outer_propagate,
                         outer_transit, outgoing_state, outgoing_velocity,
                         perturbed_caustic, potential, tangency_check)
from refbilliard.arcs import lc_flow
from refbilliard.errors import DegenerateEnvelope, OutOfActionRange


def test_circular_radii_match_sampled_trajectory(fig1, circle):
    I0 = 1.0
    R_E, R_I = circular_caustic_radii(I0, fig1)
    tr = iterate(outgoing_state(0.0, I0, circle, fig1), 3, circle, fig1,
                 keep_arcs=True)
    outer = next(a for a in tr.arcs if a.region == "outer")
    inner = next(a for a in tr.arcs if a.region == "inner")
    # oracle: extremal radius by dense sampling of the flows themselves
    ts = np.linspace(0.0, outer.duration, 20001)
    zs, _ = outer_propagate(outer.p0, outer.v0, ts, fig1)
    assert np.max(np.abs(zs)) == pytest.approx(R_E, abs=1e-6)
    us = np.linspace(0.0, 1.0, 20001)
    r_in = np.array([abs(inner.point(u)) for u in us])
    assert np.min(r_in) == pytest.approx(R_I, abs=1e-6)


def _extremal_arcs(params):
    """An outer and an inner arc on a perturbed interface, and cuts of them
    that end before their extremum or start after it."""
    profile = PerturbationProfile.cos_profile(2, 0.02)
    outer = outer_transit(0.4, 0.7, profile, params)
    z0 = profile.radius(1.1) * cmath.exp(1.1j)
    speed = math.sqrt(2.0 * potential(z0, "inner", params))
    v0 = speed * cmath.exp(1j * (1.1 + math.pi + 0.6))
    inner = levi_civita_propagate(z0, v0, params, profile)
    w, T = outer.par
    w0, wd0, Om, tau1 = inner.par
    # the pericenter lies at tau with tanh(2 Om tau) = -B/A, inside the arc
    A = 0.5 * (abs(w0) ** 2 + abs(wd0) ** 2 / Om ** 2)
    B = (w0.conjugate() * wd0).real / Om
    t_peri = -math.atanh(B / A) / (2.0 * Om)
    assert 0.0 < t_peri < tau1
    w_mid, wd_mid = lc_flow(w0, wd0, Om, 1.5 * t_peri)
    return [
        (outer, None), (inner, None),
        (dataclasses.replace(outer, par=(w, 0.3 * T)), 1.0),
        (dataclasses.replace(inner, par=(w0, wd0, Om, 0.5 * t_peri)), 1.0),
        (dataclasses.replace(inner, par=(w_mid, wd_mid, Om,
                                         tau1 - 1.5 * t_peri)), 0.0),
    ]


def test_extremal_radius_matches_dense_sampling(fig1):
    # the closed-form apocenter (outer) / pericenter (inner) of each chart
    # against the extreme of 20001 samples of the arc's own parametrization
    us = np.linspace(0.0, 1.0, 20001)
    for arc, end in _extremal_arcs(fig1):
        rad, ang = arc.extremal_radius()
        zs = arc.point(us)
        sign = 1.0 if arc.region == "outer" else -1.0
        i = int(np.argmax(sign * np.abs(zs)))
        assert sign * (rad - abs(zs[i])) >= -1e-15
        assert sign * (rad - abs(zs[i])) < 1e-8
        assert abs(ang - np.angle(zs[i])) < 1e-3
        if end is None:
            assert 0 < i < len(us) - 1
        else:
            assert rad == abs(arc.point(end))


def test_circular_radii_closed_forms(fig1):
    R_E, R_I = circular_caustic_radii(1.0, fig1)
    assert R_E == pytest.approx(math.sqrt(2.5 + math.sqrt(4.25)), abs=1e-12)
    # p = 2/mu = 1, e = sqrt(1 + 4*4.5/4) = sqrt(5.5)
    assert R_I == pytest.approx(1.0 / (1.0 + math.sqrt(5.5)), abs=1e-12)


def test_circular_radii_reject_radial_and_bound(fig1):
    with pytest.raises(OutOfActionRange):
        circular_caustic_radii(0.0, fig1)
    with pytest.raises(OutOfActionRange):
        circular_caustic_radii(fig1.action_bound_Ic, fig1)


def test_envelope_equations_vanish_on_circular_caustics(fig1, circle):
    I0 = 0.9
    R_E, R_I = circular_caustic_radii(I0, fig1)
    state = outgoing_state(0.3, I0, circle, fig1)
    v0 = outgoing_velocity(state, circle, fig1)
    from refbilliard import outer_conic_of
    conic = outer_conic_of(complex(math.cos(0.3), math.sin(0.3)), v0, fig1)
    # the outer ellipse touches the circle of radius R_E on its major axis
    pt = (R_E * math.cos(conic.tilt_angle), R_E * math.sin(conic.tilt_angle))
    G, dG = envelope_equations(0.3, pt, I0, "outer", circle, fig1)
    assert abs(G) < 1e-10
    assert abs(dG) < 1e-7


def test_envelope_equations_reject_radial_family(fig1, circle):
    with pytest.raises(DegenerateEnvelope):
        envelope_equations(0.0, (1.0, 0.0), 0.0, "outer", circle, fig1)
    with pytest.raises(ValueError):
        envelope_equations(0.0, (1.0, 0.0), 0.5, "sideways", circle, fig1)


def test_unperturbed_envelopes_recover_tangent_circles(fig1, circle):
    I0 = 1.0
    R_E, R_I = circular_caustic_radii(I0, fig1)
    for kind, R in (("outer", R_E), ("inner", R_I)):
        c = perturbed_caustic(I0, kind, circle, fig1, n_base=128)
        radii = np.hypot(c.samples[:, 1], c.samples[:, 2])
        assert np.max(np.abs(radii - R)) < 1e-9
        assert c.circular_radius == pytest.approx(R, abs=1e-12)
        assert c.max_envelope_residual < 1e-8
        # closed grid: endpoints at zeta = 0 and 2 pi, same point
        assert c.samples[0, 0] == 0.0
        assert c.samples[-1, 0] == pytest.approx(2.0 * math.pi, abs=1e-12)
        gap = math.hypot(c.samples[-1, 1] - c.samples[0, 1],
                         c.samples[-1, 2] - c.samples[0, 2])
        assert gap < 1e-6


def test_perturbed_envelope_stays_near_circle(fig1):
    prof = PerturbationProfile.cos_profile(2, 1e-3)
    I0 = 1.0
    R_E, R_I = circular_caustic_radii(I0, fig1)
    for kind, R in (("outer", R_E), ("inner", R_I)):
        c = perturbed_caustic(I0, kind, prof, fig1, n_base=128)
        radii = np.hypot(c.samples[:, 1], c.samples[:, 2])
        # deformation is of the order of the boundary perturbation
        assert np.max(np.abs(radii - R)) < 0.05 * R
        assert np.max(np.abs(radii - R)) > 1e-6
        assert c.max_envelope_residual < 1e-8
        gap = math.hypot(c.samples[-1, 1] - c.samples[0, 1],
                         c.samples[-1, 2] - c.samples[0, 2])
        assert gap < 1e-6


def test_perturbed_caustic_follows_a_curve_probe(fig1):
    prof = PerturbationProfile.cos_profile(2, 1e-3)

    def probe(coefficients):
        return CurveProbe(target_rho=0.0, seed_action=coefficients[0],
                          measured_rho=0.0, rho_error=0.0, max_residual=0.0,
                          coefficients=np.array(coefficients), n_iter=0,
                          status="fitted")

    flat = probe([1.0, 0.0, 0.0])
    wavy = probe([1.0, 0.01, -0.02])
    for kind in ("outer", "inner"):
        # a constant fitted curve carries the constant-action conic family
        c = perturbed_caustic(flat, kind, prof, fig1, n_base=32)
        ref = perturbed_caustic(1.0, kind, prof, fig1, n_base=32)
        assert np.array_equal(c.samples, ref.samples)
        # a varying one moves the envelope with the action at each zeta
        c = perturbed_caustic(wavy, kind, prof, fig1, n_base=32)
        assert c.max_envelope_residual < 1e-8
        radii = np.hypot(c.samples[:, 1], c.samples[:, 2])
        ref_radii = np.hypot(ref.samples[:, 1], ref.samples[:, 2])
        assert abs(np.max(radii) - np.max(ref_radii)) > 1e-4


def test_perturbed_caustic_reports_a_lost_envelope(fig1):
    # at eps = 0.05 the interior envelope at I_c/2 leaves the branch near
    # its tangent circle: the solution nearest the circular tangency point
    # lies more than a quarter radius away
    prof = PerturbationProfile.cos_profile(2, 0.05)
    with pytest.raises(DegenerateEnvelope, match="left the tangent-circle"):
        perturbed_caustic(0.5 * fig1.action_bound_Ic, "inner", prof, fig1,
                          n_base=32)


def test_perturbed_caustic_reports_a_missing_envelope(fig1):
    # at eps = 0.1 and I0 = 1 the envelope line of the interior family at
    # zeta = 0 meets the squared conic only where p - k.z < 0, that is on
    # the other branch: the envelope system has no real solution
    prof = PerturbationProfile.cos_profile(2, 0.1)
    with pytest.raises(DegenerateEnvelope,
                       match="no real envelope point at zeta = 0.000000"):
        perturbed_caustic(1.0, "inner", prof, fig1, n_base=32)


def test_tangency_of_integrable_orbits(fig1, circle):
    I0 = 1.0
    tr = iterate(outgoing_state(0.2, I0, circle, fig1), 40, circle, fig1,
                 keep_arcs=True)
    for kind in ("outer", "inner"):
        c = perturbed_caustic(I0, kind, circle, fig1, n_base=128)
        assert tangency_check(tr, c) < 1e-9


def test_tangency_check_requires_geometric_arcs(fig1, circle):
    c = perturbed_caustic(1.0, "outer", circle, fig1, n_base=64)
    tr = iterate(outgoing_state(0.2, 1.0, circle, fig1), 5, circle, fig1)
    with pytest.raises(ValueError):
        tangency_check(tr, c)
