"""Jacobi lengths, the generating function, and discrete actions of cycles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad, solve_ivp

from refbilliard import (PerturbationProfile, PhysParams, action_of_velocity,
                         circular_shift, discrete_action, generating_function,
                         inner_arc_fixed_ends, jacobi_length,
                         outer_arc_fixed_ends, outer_propagate, outer_transit,
                         outgoing_state, potential, return_map,
                         shift_inverse_all, twist_critical_set, variational)
from refbilliard._util import wrap_pi
from refbilliard.errors import (BilliardError, DegenerateStationarity,
                                RangeEmpty, ShootingDiverged,
                                TotalReflectionTermination)
from refbilliard.returnmap import _action_bound
from refbilliard.variational import _polish, _seed_action
from reference import (inner_distance, maupertuis_product, outer_distance,
                       quadrature_length)

FIG1 = PhysParams(energy_E=2.5, offset_h=2.0, mass_mu=2.0, stiffness_om=1.0)
LIGHT_MASS = PhysParams(energy_E=2.5, offset_h=2.0, mass_mu=0.5,
                        stiffness_om=1.0)


def test_jacobi_length_outer_against_time_quadrature(fig1, circle):
    arc = outer_transit(0.3, 0.8, circle, fig1)

    def integrand(t):
        z, v = outer_propagate(arc.p0, arc.v0, t, fig1)
        return abs(v) * math.sqrt(potential(z, "outer", fig1))

    oracle = quad(integrand, 0.0, arc.duration, epsabs=1e-13,
                  epsrel=1e-13, limit=200)[0]
    assert jacobi_length(arc, fig1) == pytest.approx(oracle, abs=1e-9)


def test_jacobi_length_inner_against_ode_quadrature(fig1, circle):
    arc = inner_arc_fixed_ends(0.0, 2.2, circle, fig1, branch="direct")
    mu = fig1.mass_mu

    def rhs(_, y):
        r3 = (y[0] ** 2 + y[1] ** 2) ** 1.5
        return [y[2], y[3], -mu * y[0] / r3, -mu * y[1] / r3]

    sol = solve_ivp(rhs, (0.0, arc.duration),
                    [arc.p0.real, arc.p0.imag, arc.v0.real, arc.v0.imag],
                    rtol=1e-12, atol=1e-14, dense_output=True)

    def integrand(t):
        x, y, vx, vy = sol.sol(t)
        return math.hypot(vx, vy) * math.sqrt(
            fig1.kepler_energy + mu / math.hypot(x, y))

    oracle = quad(integrand, 0.0, arc.duration, epsabs=1e-13,
                  epsrel=1e-13, limit=200)[0]
    assert jacobi_length(arc, fig1) == pytest.approx(oracle, abs=1e-8)


def test_length_squared_equals_twice_maupertuis(fig1, circle):
    # zero-energy arcs attain the Cauchy-Schwarz bound L^2 = 2 M
    outer = outer_transit(0.5, 0.6, circle, fig1)
    inner = inner_arc_fixed_ends(0.1, 1.8, circle, fig1, branch="winding")
    collision = inner_arc_fixed_ends(0.4, 0.4, circle, fig1)
    for arc in (outer, inner, collision):
        L = jacobi_length(arc, fig1)
        M = maupertuis_product(arc, fig1)
        assert L * L == pytest.approx(2.0 * M, rel=1e-9)


def test_jacobi_length_closed_form_on_special_arcs(fig1, circle):
    # the collision ray and a generic entry on a perturbed interface
    prof = PerturbationProfile.cos_profile(2, 0.01)
    collision = inner_arc_fixed_ends(0.4, 0.4, circle, fig1)
    assert collision.conic.is_collision and collision.chart == "lc"
    res = return_map(outgoing_state(0.3, 0.5, prof, fig1), prof, fig1)
    inner = res.arcs[1]
    for arc in (collision, inner):
        assert jacobi_length(arc, fig1) == pytest.approx(
            quadrature_length(arc, fig1), abs=1e-11)


def test_distances_are_symmetric_and_positive(fig1, circle):
    dE = outer_distance(0.2, 1.1, circle, fig1)
    dI = inner_distance(0.2, 1.1, circle, fig1)
    assert dE > 0 and dI > 0
    assert outer_distance(1.1, 0.2, circle, fig1) == pytest.approx(
        dE, abs=1e-11)
    assert inner_distance(1.1, 0.2, circle, fig1) == pytest.approx(
        dI, abs=1e-11)


def test_shift_inverse_all_finds_every_family(fig1, light_mass):
    # fig1 twist folds, so one shift value is reached by two action families
    delta = circular_shift(1.2, fig1).total
    roots = shift_inverse_all(delta, fig1)
    assert len(roots) == 2
    assert any(abs(r - 1.2) < 1e-10 for r in roots)
    for r in roots:
        assert circular_shift(r, fig1).total == pytest.approx(delta, abs=1e-11)
    # the one-third-turn retrograde families of the light-mass well
    pair = shift_inverse_all(-2.0 * math.pi / 3.0, light_mass)
    assert len(pair) == 2
    assert pair[0] == pytest.approx(0.2157091846599272, abs=1e-9)
    assert pair[1] == pytest.approx(1.3080960254174632, abs=1e-9)


def test_shift_inverse_all_finds_the_fold_root(fig1):
    # at a twist fold the shift touches its extreme value: a double root no
    # sign-change scan can bracket
    folds = twist_critical_set(fig1)
    assert folds == pytest.approx([-0.9511883, 0.9511883], abs=1e-7)
    for I in folds:
        assert I in shift_inverse_all(circular_shift(I, fig1).total, fig1)


def test_shift_inverse_all_splits_the_fold_cell(fig1):
    # just inside a fold's extreme shift its two roots share one cell of
    # the scan, whose ends have the same sign; just outside there is none
    for I in twist_critical_set(fig1):
        theta = circular_shift(I, fig1).total
        inside = math.copysign(1.0, I)  # +I* is a minimum of the shift
        for gap in (1e-12, 1e-9, 1e-7):
            delta = theta + inside * gap
            near = [r for r in shift_inverse_all(delta, fig1)
                    if abs(r - I) < 1e-3]
            assert len(near) == 2 and near[0] < I < near[1]
            for r in near:
                assert circular_shift(r, fig1).total == pytest.approx(
                    delta, abs=1e-14)
            assert not [r for r in shift_inverse_all(theta - inside * gap,
                                                     fig1)
                        if abs(r - I) < 1e-3]


def test_generating_function_at_the_twist_fold(fig1, circle):
    # on the circle the fold's fiber is stationary in the launch action; off
    # it the fold has moved and the shooting from the circular fold fails
    wavy = PerturbationProfile.cos_profile(2, 0.01)
    for I in twist_critical_set(fig1):
        delta = circular_shift(I, fig1).total
        with pytest.raises(DegenerateStationarity):
            generating_function(0.0, delta, circle, fig1)
        with pytest.raises(ShootingDiverged):
            generating_function(0.0, delta, wavy, fig1)


def _seed_from_all_roots(delta, params, hint):
    """The seed rule of generating_function over every polished root."""
    roots = shift_inverse_all(delta, params)
    if abs(delta) < 1e-12:
        roots.append(0.0)
    if not roots:
        return None
    if hint is not None:
        pick = min(roots, key=lambda r: abs(r - hint))
    else:
        pick = max(roots, key=abs)
    return 0.0 if abs(pick) < 1e-9 * params.action_bound_Ic else pick


@pytest.mark.parametrize("params", [FIG1, LIGHT_MASS, PhysParams(
    energy_E=7.0, offset_h=2.0, mass_mu=15.0, stiffness_om=3.0)])
def test_seed_action_picks_as_if_every_root_were_polished(params,
                                                         monkeypatch):
    # the seed polishes only brackets that can hold its pick; the pick must
    # be the one the full root list gives, also on folds (up to three roots
    # on the third set), at roots and between two roots; just inside a fold
    # two roots sit in neighbouring brackets of the scan
    polished = []

    def counted(bracket, delta, params):
        polished.append(bracket)
        return _polish(bracket, delta, params)

    monkeypatch.setattr(variational, "_polish", counted)
    Ic = params.action_bound_Ic
    deltas = np.concatenate([np.linspace(-4.0, 1.0, 41),
                             np.linspace(-0.8, 0.8, 33)]).tolist()
    deltas += [circular_shift(I, params).total + d
               for I in twist_critical_set(params)
               for d in (-1e-5, -1e-6, -1e-7, 1e-7, 1e-6, 1e-5)]
    for delta in deltas + [1e-13, circular_shift(1.2, FIG1).total]:
        roots = shift_inverse_all(delta, params)
        hints = [None, 0.0, Ic, -Ic, 0.3 * Ic, -0.7 * Ic] + roots
        hints += [r + d for r in roots for d in (-1e-4, 1e-4)]
        hints += [a + t * (b - a) for a, b in zip(roots, roots[1:])
                  for t in (0.3, 0.45, 0.5, 0.55, 0.7)]
        for hint in hints:
            want = _seed_from_all_roots(delta, params, hint)
            polished.clear()
            if want is None:
                with pytest.raises(RangeEmpty):
                    _seed_action(delta, params, hint)
            else:
                assert _seed_action(delta, params, hint) == want
            assert len(polished) <= min(len(roots), 2)


def test_generating_function_exact_on_circle(fig1, circle):
    I = 0.8
    shift = circular_shift(I, fig1)
    ev = generating_function(0.0, shift.total, circle, fig1, action_hint=I)
    assert ev.action_I0 == pytest.approx(I, abs=1e-10)
    assert ev.action_I1 == pytest.approx(I, abs=1e-10)
    # the stationary intermediate angle is the exterior landing point
    assert ev.xi_mid == pytest.approx(shift.f_val, abs=1e-10)
    # S equals the sum of the two link lengths through that point
    total_len = (outer_distance(0.0, shift.f_val, circle, fig1) +
                 inner_distance(shift.f_val, shift.total, circle, fig1,
                                lifted_sweep=shift.g_val + 2.0 * math.pi))
    assert ev.S_value == pytest.approx(total_len, abs=1e-9)


def test_generating_function_derivative_identities(fig1, circle):
    I = 0.8
    delta = circular_shift(I, fig1).total
    h = 1e-6

    def S(x0, x1):
        return generating_function(x0, x1, circle, fig1,
                                   action_hint=I).S_value

    ev = generating_function(0.0, delta, circle, fig1, action_hint=I)
    dS0 = (S(h, delta) - S(-h, delta)) / (2 * h)
    dS1 = (S(0.0, delta + h) - S(0.0, delta - h)) / (2 * h)
    assert dS0 == pytest.approx(-ev.action_I0, abs=1e-7)
    assert dS1 == pytest.approx(ev.action_I1, abs=1e-7)


def test_generating_function_nondegeneracy_diagnostics(fig1, circle):
    I = 0.8
    delta = circular_shift(I, fig1).total
    ev = generating_function(0.0, delta, circle, fig1, action_hint=I)
    prof = circular_shift(ev.action_I0, fig1)
    # mixed derivative -dI0/dxi1 = -1/(f' + g')
    assert ev.nondeg_twist == pytest.approx(
        -1.0 / prof.total_prime, abs=1e-6)


def test_generating_function_default_picks_largest_family(fig1, circle):
    delta = circular_shift(0.8, fig1).total
    ev = generating_function(0.0, delta, circle, fig1)
    others = shift_inverse_all(delta, fig1)
    assert ev.action_I0 == pytest.approx(max(others, key=abs), abs=1e-9)


def test_generating_function_unreachable_shift(fig1, circle):
    with pytest.raises(RangeEmpty):
        generating_function(0.0, -7.0, circle, fig1)


@pytest.mark.parametrize("params, xi0, delta, hint", [
    ("fig1", 0.3, 1.1, 0.0),
    ("fig1", -1.0, -0.8, 0.0),
    ("fig1", 2.0, -1.5, None),
    ("light_mass", 0.4, -2.0 * math.pi / 3.0, None),
    ("light_mass", 0.4, -2.0 * math.pi / 3.0, 0.2),
    ("light_mass", 1.0, -0.7, 0.0),
])
def test_generating_function_matches_fixed_end_links(request, params, xi0,
                                                     delta, hint):
    # the fixed-end solvers are an independent construction of the same
    # two links through the refraction point
    par = request.getfixturevalue(params)
    prof = PerturbationProfile.cos_profile(2, 0.01)
    xi1 = xi0 + delta
    ev = generating_function(xi0, xi1, prof, par, action_hint=hint)
    mid = xi0 + wrap_pi(ev.xi_mid - xi0)
    sweep = xi1 - mid + 2.0 * math.pi * math.copysign(1.0, ev.action_I0)
    S = (outer_distance(xi0, mid, prof, par, lifted_delta=mid - xi0) +
         inner_distance(mid, xi1, prof, par, lifted_sweep=sweep))
    assert ev.S_value == pytest.approx(S, abs=1e-9)
    outer = outer_arc_fixed_ends(xi0, mid, prof, par, lifted_delta=mid - xi0)
    inner = inner_arc_fixed_ends(mid, xi1, prof, par, lifted_sweep=sweep)
    # Snell's law at the refraction point: equal actions on both sides
    assert action_of_velocity(mid, outer.v1, prof, par) == pytest.approx(
        action_of_velocity(mid, inner.v0, prof, par), abs=1e-9)
    assert action_of_velocity(xi0, outer.v0, prof, par) == pytest.approx(
        ev.action_I0, abs=1e-9)
    assert action_of_velocity(xi1, inner.v1, prof, par) == pytest.approx(
        ev.action_I1, abs=1e-9)
    # the mixed derivative, as -dI0/dxi1 over two re-solves
    h = 1e-6
    I0p = generating_function(xi0, xi1 + h, prof, par,
                              action_hint=ev.action_I0).action_I0
    I0m = generating_function(xi0, xi1 - h, prof, par,
                              action_hint=ev.action_I0).action_I0
    assert ev.nondeg_twist == pytest.approx(-(I0p - I0m) / (2 * h), abs=1e-6)


def test_generating_function_rejects_links_off_the_section(fig1):
    # this link pair is no orbit of the map: its end action 1.4655 would
    # exceed the local bound 1.4046 at xi1, and the map from its start
    # action stops at the critical angle
    prof = PerturbationProfile.cos_profile(2, 0.01)
    xi0 = -0.34509574789418096
    with pytest.raises(TotalReflectionTermination):
        generating_function(xi0, xi0 - 1.0063675625411346, prof, fig1)


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


@settings(max_examples=40)
@given(profile=_profiles(), params=st.sampled_from((FIG1, LIGHT_MASS)),
       xi0=st.floats(-math.pi, math.pi), delta=st.floats(0.2, 2.5),
       sign=st.sampled_from((-1.0, 1.0)),
       hint=st.one_of(st.none(), st.floats(-1.4, 1.4)))
def test_generating_function_links_are_map_orbits(profile, params, xi0,
                                                  delta, sign, hint):
    xi1 = xi0 + sign * delta
    try:
        ev = generating_function(xi0, xi1, profile, params,
                                 action_hint=hint)
    except BilliardError:
        return
    res = return_map(outgoing_state(xi0, ev.action_I0, profile, params),
                     profile, params)
    assert abs(res.delta_xi - (xi1 - xi0)) < 1e-10
    assert abs(wrap_pi(res.state.xi - xi1)) < 1e-10
    assert abs(res.state.action_I - ev.action_I1) < 1e-10


@settings(max_examples=40)
@given(profile=_profiles(), params=st.sampled_from((FIG1, LIGHT_MASS)),
       xi0=st.floats(-math.pi, math.pi),
       share=st.one_of(st.floats(-0.95, 0.95), st.floats(-3e-3, 3e-3)))
def test_jacobi_length_matches_quadrature(profile, params, xi0, share):
    # small shares enter near-radially, in the Levi-Civita chart
    try:
        I0 = share * _action_bound(xi0, profile, params)
        res = return_map(outgoing_state(xi0, I0, profile, params), profile,
                         params)
    except BilliardError:
        return
    for arc in res.arcs:
        assert abs(jacobi_length(arc, params) -
                   quadrature_length(arc, params)) < 1e-11


def test_discrete_action_gradient_vanishes_on_periodic_orbit(fig1, circle):
    roots = shift_inverse_all(2.0 * math.pi / 4.0, fig1)
    I_star = max(roots, key=abs)
    xs = [0.25 + k * math.pi / 2.0 for k in range(4)]
    W, grad = discrete_action(xs, 1, 4, circle, fig1, action_hint=I_star)
    assert W > 0
    assert np.max(np.abs(grad)) < 1e-11


def test_discrete_action_gradient_matches_finite_differences(fig1, circle):
    roots = shift_inverse_all(2.0 * math.pi / 4.0, fig1)
    I_star = max(roots, key=abs)
    xs = np.array([0.05, -0.03 + math.pi / 2, 0.02 + math.pi,
                   3 * math.pi / 2])
    W, grad = discrete_action(xs, 1, 4, circle, fig1, action_hint=I_star)
    h = 1e-6
    for k in range(4):
        xp = xs.copy()
        xp[k] += h
        xm = xs.copy()
        xm[k] -= h
        Wp, _ = discrete_action(xp, 1, 4, circle, fig1, action_hint=I_star)
        Wm, _ = discrete_action(xm, 1, 4, circle, fig1, action_hint=I_star)
        assert grad[k] == pytest.approx((Wp - Wm) / (2 * h), abs=1e-6)


def test_discrete_action_collision_cycle(fig1, circle):
    # (0, 1): radial bounce through the centre, stationary by symmetry
    W, grad = discrete_action([0.3], 0, 1, circle, fig1)
    assert W > 0
    assert abs(grad[0]) < 1e-12


def test_discrete_action_on_perturbed_boundary(fig1):
    prof = PerturbationProfile.cos_profile(2, 0.01)
    roots = shift_inverse_all(2.0 * math.pi / 4.0, fig1)
    I_star = max(roots, key=abs)
    xs = np.array([0.0, math.pi / 2, math.pi, 3 * math.pi / 2])
    W, grad = discrete_action(xs, 1, 4, prof, fig1, action_hint=I_star)
    h = 1e-6
    xp = xs.copy()
    xp[2] += h
    xm = xs.copy()
    xm[2] -= h
    Wp, _ = discrete_action(xp, 1, 4, prof, fig1, action_hint=I_star)
    Wm, _ = discrete_action(xm, 1, 4, prof, fig1, action_hint=I_star)
    assert grad[2] == pytest.approx((Wp - Wm) / (2 * h), abs=1e-6)


@pytest.mark.parametrize("params, m, n", [(LIGHT_MASS, -1, 3), (FIG1, 1, 4)])
def test_action_hessian_matches_differences_of_the_gradient(params, m, n):
    prof = PerturbationProfile.cos_profile(2, 0.01)
    hint = max(shift_inverse_all(2.0 * math.pi * m / n, params), key=abs)
    k = np.arange(n)
    xs = 2.0 * math.pi * m / n * k + 0.3 + 0.02 * np.cos(k)
    W, grad, H, _, _ = variational._action_terms(xs, m, n, prof, params,
                                                 hint)
    W0, grad0 = discrete_action(xs, m, n, prof, params, action_hint=hint)
    assert W == W0 and np.array_equal(grad, grad0)
    assert np.max(np.abs(grad)) > 1e-3  # off every critical cycle
    h = 1e-6
    fd = np.empty((n, n))
    for j in range(n):
        e = h * np.eye(n)[j]
        fd[:, j] = (discrete_action(xs + e, m, n, prof, params, hint)[1] -
                    discrete_action(xs - e, m, n, prof, params, hint)[1]) / (
                        2 * h)
    assert np.max(np.abs(H - fd)) < 1e-7
