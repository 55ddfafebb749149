"""End-to-end acceptance checks of the library's headline guarantees.

One test per criterion, each asserting its stated tolerance, so the verbose
test report reads as one pass/fail line per criterion.  Reference constants
come from closed forms written next to them, not from program output.
Criterion 07 checks the tangent circles of the circular map at I0 = 1 against
the turning points of the exterior ellipse and the interior hyperbola
(R_E from r^4 - 5 r^2 + 2 = 0, R_I = 1/(1 + sqrt(5.5))).  Criterion 12 checks
that every twist-critical action is a sign change of d(xi_1)/dI, and confirms
the fold of the stiff-well parameter set with the independent ODE oracle.
"""

import math
import time

import numpy as np
import pytest

from refbilliard import (PerturbationProfile, boundary, circular_caustic_radii,
                         circular_shift, cycle_distance, find_periodic,
                         fixed_point_thresholds, generating_function,
                         golden_target, invariant_curve_probe, iterate,
                         linear_stability, ode_return_map, outgoing_state,
                         potential, return_map, tangent_map, twist_at_zero,
                         twist_critical_set)
from refbilliard._util import wrap_pi
from reference import is_diophantine_surrogate


def test_criterion_01_fixed_point_threshold_value_and_speed(fig4):
    mu_bar, _ = fixed_point_thresholds(fig4)  # warm-up
    t0 = time.perf_counter()
    mu_bar, h_bar = fixed_point_thresholds(fig4)
    dt = time.perf_counter() - t0
    assert mu_bar == pytest.approx(41.6287, abs=5e-4)
    assert dt < 1e-3


def test_criterion_02_closed_form_map_matches_ode_oracle(fig1, circle):
    t0 = time.perf_counter()
    xi0 = 0.0
    geom = boundary(xi0, circle)
    ve = potential(geom.point_c, "outer", fig1)
    worst_xi = worst_I = 0.0
    for alpha in np.linspace(-math.pi / 2 + 0.05, math.pi / 2 - 0.05, 200):
        I0 = math.sqrt(ve) * math.sin(float(alpha)) * geom.metric
        res = return_map(outgoing_state(xi0, I0, circle, fig1), circle, fig1)
        orc = ode_return_map(xi0, float(alpha), circle, fig1)
        worst_xi = max(worst_xi, abs(wrap_pi(res.state.xi - orc.xi1)))
        worst_I = max(worst_I, abs(orc.action_I1 - I0))
    dt = time.perf_counter() - t0
    assert worst_xi < 1e-6, f"max |xi1(ode) - xi1(closed)| = {worst_xi:.3e}"
    assert worst_I < 1e-9, f"max |I1 - I0| = {worst_I:.3e}"
    assert dt < 30.0, f"oracle sweep took {dt:.1f} s"


def test_criterion_03_twist_at_zero_reference_values(fig2_mu44, fig2_mu55):
    assert twist_at_zero(fig2_mu44) == pytest.approx(-0.0699068, abs=1e-4)
    assert twist_at_zero(fig2_mu55) == pytest.approx(+0.0167172, abs=1e-4)


def test_criterion_04_stability_swap_across_mass_values(fig2_mu44, fig2_mu55):
    t0 = time.perf_counter()
    prof = PerturbationProfile.ellipse_like(0.1)

    def classify(params):
        orbits = find_periodic(0, 1, prof, params)
        out = {}
        for target, key in ((0.0, "major"), (math.pi / 2, "minor")):
            orb = min((o for o in orbits if abs(float(o.actions[0])) < 0.1),
                      key=lambda o: abs(wrap_pi(float(o.xis[0]) - target)))
            assert abs(wrap_pi(float(orb.xis[0]) - target)) < 0.1
            out[key] = linear_stability(orb, prof, params).classification
        return out

    c44 = classify(fig2_mu44)
    c55 = classify(fig2_mu55)
    dt = time.perf_counter() - t0
    for c in (c44, c55):
        assert {c["major"], c["minor"]} == {"elliptic", "hyperbolic"}, \
            f"axis fixed points not an elliptic/hyperbolic pair: {c}"
    assert c44["major"] != c55["major"], \
        f"no swap on the major axis: {c44} vs {c55}"
    assert c44["minor"] != c55["minor"], \
        f"no swap on the minor axis: {c44} vs {c55}"
    assert dt < 60.0, f"classification took {dt:.1f} s"


def test_criterion_05_shift_anchor_values(fig1):
    prof = circular_shift(1.0, fig1)
    assert prof.f_val == pytest.approx(math.atan(4.0), abs=1e-10)
    assert prof.f_val == pytest.approx(1.3258177, abs=1e-7)
    assert prof.g_val == pytest.approx(-math.pi, abs=1e-12)


def test_criterion_06_nonhomothetic_fixed_points(fig4, circle):
    orbits = find_periodic(0, 1, circle, fig4)
    acts = sorted(float(o.actions[0]) for o in orbits if o.actions[0] != 0.0)
    assert len(acts) == 2, f"expected the +-I pair, got actions {acts}"
    I_bar = acts[1]
    assert acts[0] == pytest.approx(-I_bar, abs=1e-12)
    assert abs(circular_shift(I_bar, fig4).total) < 1e-10
    res = return_map(outgoing_state(0.3, I_bar, circle, fig4), circle, fig4)
    assert abs(wrap_pi(res.state.xi - 0.3)) < 1e-6


def test_criterion_07_tangent_circle_radii_and_tangency(fig1, circle):
    # Both targets follow from energy and angular momentum (L^2 = 2 I0^2) at
    # the turning point of each arc, with I0 = 1 at the fig1 parameters:
    # exterior apocenter  2/r^2 = 2E - om r^2      ->  r^4 - 5 r^2 + 2 = 0;
    # interior pericenter 2/r^2 = 2(E+h) + 2mu/r   ->  r = 1/(1 + sqrt(5.5)).
    # Each is rounded to 7 digits.
    R_E_target, R_I_target = 2.1357792, 0.2989351
    R_E, R_I = circular_caustic_radii(1.0, fig1)

    trace = iterate(outgoing_state(0.1, 1.0, circle, fig1), 200, circle,
                    fig1, keep_arcs=True)
    assert trace.status == "running"
    apo = [a.extremal_radius()[0] for a in trace.arcs if a.region == "outer"]
    peri = [a.extremal_radius()[0] for a in trace.arcs if a.region == "inner"]
    assert len(apo) == len(peri) == 200

    assert R_E == pytest.approx(R_E_target, abs=1e-6)
    assert np.max(np.abs(np.array(apo) - R_E_target)) < 1e-6

    # the computed interior radius is self-consistent with the orbit and
    # equals the focal closed form p/(1 + e), p = 2 I0^2/mu = 1,
    # e = sqrt(1 + 4 I0^2 (E+h)/mu^2) = sqrt(5.5)
    assert np.max(np.abs(np.array(peri) - R_I)) < 1e-9
    closed = 1.0 / (1.0 + math.sqrt(5.5))
    assert R_I == pytest.approx(closed, abs=1e-15)
    assert R_I == pytest.approx(R_I_target, abs=1e-6)
    assert np.max(np.abs(np.array(peri) - R_I_target)) < 1e-6


def _lifted_return(xi, I, profile, params):
    res = return_map(outgoing_state(xi, I, profile, params), profile, params)
    return np.array([xi + res.delta_xi, res.state.action_I])


@pytest.mark.parametrize("epsilon", [0.0, 0.02])
def test_criterion_08_return_map_jacobian_determinant(fig1, epsilon):
    prof = PerturbationProfile.cos_profile(2, epsilon) if epsilon \
        else PerturbationProfile.circle()
    Ic = fig1.action_bound_Ic
    h = 1e-6
    worst = worst_exact = 0.0
    for xi0 in np.linspace(0.0, 2.0 * math.pi, 20, endpoint=False):
        for I0 in np.linspace(-0.8 * Ic, 0.8 * Ic, 20):
            fpx = _lifted_return(xi0 + h, I0, prof, fig1)
            fmx = _lifted_return(xi0 - h, I0, prof, fig1)
            fpI = _lifted_return(xi0, I0 + h, prof, fig1)
            fmI = _lifted_return(xi0, I0 - h, prof, fig1)
            J = np.column_stack([(fpx - fmx) / (2 * h), (fpI - fmI) / (2 * h)])
            worst = max(worst, abs(float(np.linalg.det(J)) - 1.0))
            st = outgoing_state(xi0, I0, prof, fig1)
            D = tangent_map(st, return_map(st, prof, fig1),
                            prof, fig1)
            worst_exact = max(worst_exact, abs(float(np.linalg.det(D)) - 1.0))
    assert worst < 1e-5, f"max |det J - 1| = {worst:.3e} on the 20x20 grid"
    assert worst_exact < 1e-11, \
        f"max |det DF - 1| = {worst_exact:.3e} for the exact tangent map"


@pytest.mark.parametrize("epsilon", [0.0, 0.01])
def test_criterion_09_generating_function_momenta(fig1, epsilon):
    prof = PerturbationProfile.cos_profile(2, epsilon) if epsilon \
        else PerturbationProfile.circle()
    rng = np.random.default_rng(7)
    h = 1e-6
    worst0 = worst1 = 0.0
    for _ in range(50):
        xi0 = float(rng.uniform(-math.pi, math.pi))
        delta = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 1.7))
        xi1 = xi0 + delta
        # evaluate on the small-action family: the near-wall family is
        # grazing-stiff and would dominate the difference quotients
        ev = generating_function(xi0, xi1, prof, fig1, action_hint=0.0)
        hint = ev.action_I0

        def S(a, b):
            return generating_function(a, b, prof, fig1,
                                       action_hint=hint).S_value

        dS0 = (S(xi0 + h, xi1) - S(xi0 - h, xi1)) / (2 * h)
        dS1 = (S(xi0, xi1 + h) - S(xi0, xi1 - h)) / (2 * h)
        worst0 = max(worst0, abs(ev.action_I0 + dS0))
        worst1 = max(worst1, abs(ev.action_I1 - dS1))
    assert worst0 < 1e-6, f"max |I0 + dS/dxi0| = {worst0:.3e}"
    assert worst1 < 1e-6, f"max |I1 - dS/dxi1| = {worst1:.3e}"


def test_criterion_10_periodic_pair_survives_perturbation(light_mass):
    t0 = time.perf_counter()
    prof = PerturbationProfile.cos_profile(2, 0.01)
    orbits = find_periodic(-1, 3, prof, light_mass)
    dt = time.perf_counter() - t0
    assert len(orbits) >= 2, f"found {len(orbits)} orbit(s) in {dt:.1f} s"
    for orb in orbits:
        assert orb.residual < 1e-8, \
            f"{orb.kind} residual {orb.residual:.3e}"
    sep = cycle_distance(orbits[0], orbits[1])
    assert sep > 1e-4, f"cycles separated by only {sep:.3e}"


def test_criterion_11_invariant_curve_survives_small_perturbation(fig1):
    prof = PerturbationProfile.cos_profile(2, 1e-3)
    target = golden_target(fig1)
    assert is_diophantine_surrogate(target)
    probe = invariant_curve_probe(target, prof, fig1, n_iter=5000)
    assert probe.status == "running"
    assert probe.max_residual < 5e-3, \
        f"curve fit residual {probe.max_residual:.3e}"
    assert abs(probe.measured_rho - target) < 1e-4, \
        f"rotation number off target by {abs(probe.measured_rho - target):.3e}"


def test_criterion_12_twist_critical_sets(fig1, fig2_mu44, fig2_mu55, fig4,
                                          light_mass, stiff_well, circle):
    all_params = (fig1, fig2_mu44, fig2_mu55, fig4, light_mass, stiff_well)
    for params in all_params:
        roots = twist_critical_set(params)
        assert len(roots) <= 10
        # every reported root is confirmed by a centered-difference sign
        # change of the shift derivative within 1e-6 of the root
        for r in roots:
            if r == 0.0:
                continue
            h = 1e-7

            def fd_twist(I):
                return (circular_shift(I + h, params).total -
                        circular_shift(I - h, params).total) / (2 * h)

            assert fd_twist(r - 1e-6) * fd_twist(r + 1e-6) < 0, \
                f"no sign change within 1e-6 of root {r:.8f}"

    # stiff_well: the twist folds once in (0, I_c), at a symmetric pair +-I*.
    # Confirm the fold with the code-disjoint ODE oracle rather than the
    # circular_shift closed form used above: the centered difference of the
    # oracle's xi_1(I) on the circle changes sign across I*.
    roots = twist_critical_set(stiff_well)
    assert len(roots) == 2, f"expected one pair +-I*, got {roots}"
    I_star = roots[1]
    assert roots[0] == -I_star
    assert 0.0 < I_star < stiff_well.action_bound_Ic

    geom = boundary(0.0, circle)
    ve = potential(geom.point_c, "outer", stiff_well)

    def oracle_xi1(I):
        alpha = math.asin(I / (math.sqrt(ve) * geom.metric))
        return ode_return_map(0.0, alpha, circle, stiff_well).xi1

    def oracle_twist(I, h=1e-5):
        return wrap_pi(oracle_xi1(I + h) - oracle_xi1(I - h)) / (2 * h)

    below, above = oracle_twist(I_star - 1e-3), oracle_twist(I_star + 1e-3)
    assert below * above < 0, (
        f"oracle twist does not change sign across I* = {I_star:.7f}: "
        f"{below:.3e} at I* - 1e-3, {above:.3e} at I* + 1e-3")
