"""Property tests of the crossing finder over random Fourier profiles.

Profiles carry harmonics 1-4 in cos and sin with |eps f| <= 0.05; launches
include ones within 1e-3 of tangency.  The geometric return map must agree
with the ODE oracle, or both must stop with a typed reason; the certified
crossing finders outside and inside must agree with the grid search they
replaced, except where it steps over a brief dip.  Interior arcs are checked
against the polar Kepler formulas, and the interior march's bound on the
clearance's second derivative against difference quotients.
"""

import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from refbilliard import (PerturbationProfile, PhysParams, boundary,
                         critical_angle, levi_civita_propagate,
                         ode_return_map, outgoing_state, potential,
                         return_map)
from refbilliard._util import (extend_and_find, first_crossing,
                               march_to_zero, wrap_pi)
from refbilliard.errors import (BilliardError, EventDetectionFailed,
                                TangentialCrossing,
                                TotalReflectionTermination)
from refbilliard.inner import _march_bound, kepler_elements
from refbilliard.outer import _exit_time, outer_transit

FIG1 = PhysParams(energy_E=2.5, offset_h=2.0, mass_mu=2.0, stiffness_om=1.0)
LIGHT_MASS = PhysParams(energy_E=2.5, offset_h=2.0, mass_mu=0.5,
                        stiffness_om=1.0)

#: the reasons a return may stop on; anything else is a defect
TYPED_STOPS = (TotalReflectionTermination, TangentialCrossing,
               EventDetectionFailed)


@st.composite
def profiles(draw, max_amplitude=0.05):
    """Random profile with harmonics 1-4 and sup |eps f| <= max_amplitude."""
    harmonics = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4,
                              unique=True))
    coefficient = st.one_of(st.just(0.0), st.floats(0.05, 1.0),
                            st.floats(-1.0, -0.05))
    cos, sin = [0.0] * 5, [0.0] * 5
    for k in harmonics:
        cos[k] = draw(coefficient)
        sin[k] = draw(coefficient)
    norm = sum(map(abs, cos)) + sum(map(abs, sin))
    if norm == 0.0:
        cos[harmonics[0]] = norm = 1.0
    amplitude = draw(st.floats(1e-4, max_amplitude))
    return PerturbationProfile(tuple(cos), tuple(sin), amplitude / norm)


def launch_angles(min_abs):
    """Signed angles from the normal: generic ones with |angle| >= min_abs,
    and ones within 1e-3 of tangency.

    The floor stays at 3e-4 from tangency.  Widened to 1e-6 (and run for
    3000 examples), the oracle agreement test fails on two launches 1.03e-4
    from tangency on r = 1 + eps sin 4 xi.  At eps = 0.046875, xi0 =
    -1.9375 the oracle steps over the departure dip that
    :func:`test_exterior_exit_after_a_departure_dip_matches_an_exact_root`
    holds the map to, and lands 3.04 away in xi.  At eps = 0.0461775,
    xi0 = -1.96679 both find the same crossing but their actions differ by
    1.0097e-9, above the 1e-9 tolerance; which side is off there has not
    been checked.
    """
    generic = st.floats(min_abs, math.pi / 2 - 1e-3)
    grazing = st.floats(3e-4, 1e-3).map(lambda d: math.pi / 2 - d)
    return st.tuples(st.one_of(generic, grazing),
                     st.sampled_from((-1.0, 1.0))).map(lambda t: t[0] * t[1])


def _outcome(fn):
    try:
        return fn(), None
    except BilliardError as exc:
        assert isinstance(exc, TYPED_STOPS), f"untyped stop: {exc!r}"
        return None, exc


def _near_critical(exc, profile, margin=1e-6):
    point = boundary(exc.xi, profile).point_c
    return abs(abs(exc.beta) - critical_angle(point, FIG1)) < margin


def _agrees_with_grid(root, clearance, grid, inside_sign, window=None):
    """The certified crossing ``root`` equals the grid search's, or the grid
    search passed over it: the clearance dips across the boundary at
    ``root`` and is back on the start side within two grid steps, so no
    grid point need fall inside the dip.  When the grid finds no crossing
    and a ``window`` is given, the search goes on over it with
    :func:`extend_and_find`."""
    def signed(t):
        return inside_sign * clearance(t)

    found = first_crossing(signed, grid, +1.0)
    if found is None and window is not None:
        found = extend_and_find(signed, *window, 4096, +1.0)
    if found is not None and abs(found - root) <= 1e-12:
        return True
    event("grid search skipped a brief dip")
    step = grid[1] - grid[0]
    after = inside_sign * clearance(np.linspace(root, root + 2 * step, 65))
    return (found is None or found > root) and np.any(after > 0) and \
        after[1] < 0


COS_2XI = PerturbationProfile((0.0, 0.0, 1.0), (), 0.03125)
COS_XI = PerturbationProfile((0.0, 1.0), (), 0.03125)


# launches nearer the normal than 0.2 rad pass close to the Kepler centre,
# where the unregularized oracle loses accuracy
@settings(max_examples=60)
@given(profile=profiles(), xi0=st.floats(-math.pi, math.pi),
       alpha=launch_angles(0.2))
# grazing launches the 4097-point grid search got wrong: a re-entry 1.4e-3
# before the half period, inside for less than one grid step (the grid went
# on for three periods), and one 1.4e-7 before the full period (the grid
# took the full period, where the ray points outward)
@example(profile=COS_2XI, xi0=1.0, alpha=math.pi / 2 - 1e-3)
@example(profile=COS_XI, xi0=0.0, alpha=-(math.pi / 2 - 1e-7))
def test_geometric_map_matches_oracle(profile, xi0, alpha):
    geom = boundary(xi0, profile)
    I0 = math.sqrt(potential(geom.point_c, "outer", FIG1)) * \
        math.sin(alpha) * geom.metric
    res, err = _outcome(lambda: return_map(
        outgoing_state(xi0, I0, profile, FIG1), profile, FIG1))
    orc, err_orc = _outcome(lambda: ode_return_map(xi0, alpha, profile,
                                                   FIG1))
    event(f"map: {type(err).__name__}, oracle: {type(err_orc).__name__}")
    if err is None and err_orc is None:
        assert abs(wrap_pi(res.state.xi - orc.xi1)) < 1e-8
        assert abs(res.state.action_I - orc.action_I1) < 1e-9
    elif type(err) is not type(err_orc):
        # the two may part only on a ray at the critical angle
        stop = err or err_orc
        assert isinstance(stop, TotalReflectionTermination), repr(stop)
        assert _near_critical(stop, profile), repr(stop)


@settings(max_examples=150)
@given(profile=profiles(), xi0=st.floats(-math.pi, math.pi),
       alpha=launch_angles(0.0))
def test_exterior_exit_matches_grid_search(profile, xi0, alpha):
    geom = boundary(xi0, profile)
    speed = math.sqrt(2.0 * potential(geom.point_c, "outer", FIG1))
    p0 = geom.point_c
    v0 = speed * (math.cos(alpha) * geom.normal_c +
                  math.sin(alpha) * geom.tangent_c)
    w = FIG1.omega
    s1 = _exit_time(p0, v0, w, profile)
    assert outer_transit(xi0, alpha, profile, FIG1).duration == s1

    def height(s):
        z = p0 * np.cos(w * s) + v0 * np.sin(w * s) / w
        return np.abs(z) - profile.radius(np.angle(z))

    grid = np.linspace(0.0, 2 * math.pi / w * (1 + 1e-6), 4097)
    assert _agrees_with_grid(s1, height, grid, +1.0)


def _check_interior_exit(arc, profile):
    """The interior march's exit agrees with the grid search it replaced:
    a 2048-point grid over the time |w|^2 needs to rise past the outer
    radius, then a doubling window."""
    w0, wd0, Om, tau1 = arc.par

    def lc_gap(tau):
        w = w0 * np.cosh(Om * tau) + wd0 * np.sinh(Om * tau) / Om
        return np.abs(w) ** 2 - profile.radius(2.0 * np.angle(w))

    A = 0.5 * (abs(w0) ** 2 + abs(wd0) ** 2 / Om ** 2)
    B = (w0.conjugate() * wd0).real / Om
    C = 0.5 * (abs(w0) ** 2 - abs(wd0) ** 2 / Om ** 2)
    x_max = (math.acosh(max((profile.radius_bounds[1] - C) /
                            math.sqrt(A * A - B * B), 1.0)) +
             abs(math.atanh(B / A)) + 0.5)
    grid = np.linspace(0.0, x_max / (2.0 * Om), 2048)
    assert _agrees_with_grid(tau1, lc_gap, grid, -1.0,
                             window=(0.0, x_max / Om))


@settings(max_examples=150)
@given(profile=profiles(), xi0=st.floats(-math.pi, math.pi),
       fraction=st.floats(-1.0, 1.0))
def test_interior_exit_matches_grid_search(profile, xi0, fraction):
    # every entry angle refraction can produce: up to the critical angle
    geom = boundary(xi0, profile)
    beta = fraction * critical_angle(geom.point_c, FIG1)
    speed = math.sqrt(2.0 * potential(geom.point_c, "inner", FIG1))
    v_in = speed * (-math.cos(beta) * geom.normal_c +
                    math.sin(beta) * geom.tangent_c)
    arc = levi_civita_propagate(geom.point_c, v_in, FIG1, profile)
    _check_interior_exit(arc, profile)


@settings(max_examples=150)
@given(profile=profiles(), xi0=st.floats(-math.pi, math.pi),
       beta=st.one_of(st.just(0.0), st.floats(-1e-3, 1e-3),
                      st.floats(-1.2, 1.2)),
       radial=st.booleans())
def test_levi_civita_exit_matches_grid_search(profile, xi0, beta, radial):
    # entries at beta = 0 and |beta| <= 1e-3 from the inward normal or from
    # the inward radial direction (through the centre), and generic ones
    geom = boundary(xi0, profile)
    speed = math.sqrt(2.0 * potential(geom.point_c, "inner", FIG1))
    inward = -geom.point_c / abs(geom.point_c) if radial else -geom.normal_c
    v_in = speed * (math.cos(beta) * inward + math.sin(beta) * 1j * inward)
    arc = levi_civita_propagate(geom.point_c, v_in, FIG1, profile)
    conic = kepler_elements(arc.p0, arc.v0, FIG1)
    event("collision ray" if conic.is_collision else
          f"pericenter {'below' if conic.pericenter_r < 1e-3 else 'above'}"
          " 1e-3")
    _check_interior_exit(arc, profile)


def _interior_entry(profile, xi0, fraction, params):
    """Boundary point at ``xi0`` and an interior velocity entering at
    ``fraction`` of the critical angle from the inward normal."""
    geom = boundary(xi0, profile)
    beta = fraction * critical_angle(geom.point_c, params)
    speed = math.sqrt(2.0 * potential(geom.point_c, "inner", params))
    return geom.point_c, speed * (-math.cos(beta) * geom.normal_c +
                                  math.sin(beta) * geom.tangent_c)


def _check_against_kepler(arc, params):
    """The polar Kepler chart as an independent reference: the exit lies on
    the entry's conic r (1 + e cos(theta - theta_p)) = p, the duration is
    the Kepler-equation time and the sweep the true-anomaly difference."""
    z0, v0, z1, v1 = arc.p0, arc.v0, arc.p1, arc.v1
    conic = kepler_elements(z0, v0, params)
    k, p, e = conic.ang_momentum_k, conic.semilatus_p, conic.eccentricity_e
    mu = params.mass_mu
    r1 = abs(z1)
    on_conic = r1 * (1.0 + e * math.cos(cmath.phase(z1) -
                                        conic.pericenter_angle))
    assert abs(on_conic - p) <= 1e-12 * (r1 * e + p)

    # hyperbolic anomaly from the state: e sinh H = z.v/sqrt(mu a), with
    # a = mu/(2 E_K), and Kepler's equation n t = e sinh H - H
    a = mu / (2.0 * params.kepler_energy)
    n_mean = math.sqrt(mu / a ** 3)

    def kepler_time(z, v):
        esh = (z.real * v.real + z.imag * v.imag) / math.sqrt(mu * a)
        return (esh - math.asinh(esh / e)) / n_mean

    assert arc.duration == pytest.approx(
        kepler_time(z1, v1) - kepler_time(z0, v0), rel=1e-11, abs=1e-12)

    # true anomaly: e sin f = p rdot/|k|, e cos f = p/r - 1
    def anomaly(z, v):
        r = abs(z)
        rdot = (z.real * v.real + z.imag * v.imag) / r
        return math.atan2(p * rdot / abs(k), p / r - 1.0)

    sweep = math.copysign(1.0, k) * (anomaly(z1, v1) - anomaly(z0, v0))
    assert arc.sweep == pytest.approx(sweep, abs=1e-11)


@settings(max_examples=200)
@given(profile=profiles(0.99), xi0=st.floats(-math.pi, math.pi),
       fraction=st.floats(-1.0, 1.0),
       params=st.sampled_from((FIG1, LIGHT_MASS)))
def test_interior_arc_obeys_kepler_formulas(profile, xi0, fraction, params):
    z0, v0 = _interior_entry(profile, xi0, fraction, params)
    arc = levi_civita_propagate(z0, v0, params, profile)
    assume(not kepler_elements(arc.p0, arc.v0, params).is_collision)
    _check_against_kepler(arc, params)


@pytest.mark.parametrize("beta", [1e-10, -1e-8, 1e-6, -1e-3])
def test_near_radial_sweep_keeps_the_sign_of_k(beta):
    # just off a collision ray arg w turns by almost pi, next to the branch
    # cut of atan2: the sweep must still carry the sign of the angular
    # momentum and match the Kepler formulas
    profile = PerturbationProfile.cos_profile(3, 0.3)
    z0 = profile.radius(0.7) * cmath.exp(0.7j)
    speed = math.sqrt(2.0 * potential(z0, "inner", FIG1))
    v0 = -speed * z0 / abs(z0) * cmath.exp(1j * beta)
    arc = levi_civita_propagate(z0, v0, FIG1, profile)
    conic = kepler_elements(arc.p0, arc.v0, FIG1)
    assert not conic.is_collision
    assert arc.sweep * conic.ang_momentum_k > 0.0
    assert abs(arc.sweep) > 1.5 * math.pi
    _check_against_kepler(arc, FIG1)


@settings(max_examples=150)
@given(profile=profiles(0.99), xi0=st.floats(-math.pi, math.pi),
       fraction=st.floats(-1.0, 1.0),
       params=st.sampled_from((FIG1, LIGHT_MASS)))
def test_levi_civita_march_bound_holds(profile, xi0, fraction, params):
    # |g''| of the clearance g = rho(2 arg w) - |w|^2, by central
    # differences along the arc out to |w|^2 = rhi, never exceeds the bound
    # the march uses wherever rlo <= |w|^2 <= rhi (outside the dip)
    z0, v0 = _interior_entry(profile, xi0, fraction, params)
    Om = math.sqrt(params.lc_Omega_sq)
    w0 = cmath.sqrt(z0)
    wd0 = v0 * w0.conjugate()
    L = w0.real * wd0.imag - w0.imag * wd0.real
    A = 0.5 * (abs(w0) ** 2 + abs(wd0) ** 2 / Om ** 2)
    B = (w0.conjugate() * wd0).real / Om
    C = 0.5 * (abs(w0) ** 2 - abs(wd0) ** 2 / Om ** 2)
    D = math.sqrt(A * A - B * B)
    bound = _march_bound(Om, C, L, D, profile, params)
    rlo, rhi = profile.radius_bounds
    t_end = (math.acosh((rhi - C) / D) - math.atanh(B / A)) / (2.0 * Om)

    def w_at(tau):
        return w0 * np.cosh(Om * tau) + wd0 * np.sinh(Om * tau) / Om

    def clearance(tau):
        w = w_at(tau)
        return profile.radius(2.0 * np.angle(w)) - np.abs(w) ** 2

    # step 1e-5: the quotient's rounding error is below 16 eps rhi/h^2 <
    # 1e-4, and its truncation error, relative (h k theta')^2/12 with
    # theta' = 2L/|w|^2, below 1e-3 for harmonics k <= 4 and |w|^2 >= 0.01
    taus = np.linspace(0.0, t_end, 4001)
    h = 1e-5
    g2 = (clearance(taus + h) - 2.0 * clearance(taus) +
          clearance(taus - h)) / (h * h)
    r2 = np.abs(w_at(taus)) ** 2
    outside_dip = (r2 >= rlo) & (r2 <= rhi)
    assert np.all(np.abs(g2[outside_dip]) <= bound * (1.0 + 1e-3) + 1e-4)


@pytest.mark.parametrize("k, eps, xi0", [
    (1, 0.3, math.pi),      # enters where rho is the certified lower radius
    (2, 0.2, math.pi / 2),  # the same on an even harmonic
    (1, 0.999, math.pi),    # the interface passes 1e-3 from the centre
    (3, 0.5, 0.4),
    (4, 0.05, -2.0),
])
def test_radial_ray_returns_along_itself(k, eps, xi0):
    # the Levi-Civita flow carries a ray through the centre back out along
    # itself: it exits where it entered, at |z1| = rho(xi0), after the
    # fictitious time at which |w|^2 = A cosh(2 Om tau) + B sinh(2 Om tau)
    # + C returns to its start, tau1 = -atanh(B/A)/Om
    profile = PerturbationProfile.cos_profile(k, eps)
    z0 = profile.radius(xi0) * cmath.exp(1j * xi0)
    v0 = -math.sqrt(2.0 * potential(z0, "inner", FIG1)) * z0 / abs(z0)
    arc = levi_civita_propagate(z0, v0, FIG1, profile)
    assert arc.chart == "lc"
    assert kepler_elements(arc.p0, arc.v0, FIG1).is_collision
    w0, wd0, Om, tau1 = arc.par
    A = 0.5 * (abs(w0) ** 2 + abs(wd0) ** 2 / Om ** 2)
    B = (w0.conjugate() * wd0).real / Om
    assert tau1 == pytest.approx(-math.atanh(B / A) / Om, rel=1e-12)
    assert abs(arc.p1) == pytest.approx(profile.radius(xi0), abs=1e-12)
    assert abs(wrap_pi(arc.xi1 - xi0)) < 1e-12


def test_wide_profile_map_matches_oracle():
    # |eps| (|a_1| + |b_1|) = 1.2, so 1 - |eps| sum |a_k| + |b_k| is no
    # lower bound on rho; the crossing search must use the certified one
    profile = PerturbationProfile((0.0, 1.0), (0.0, 1.0), 0.6)
    assert 0.0 < profile.radius_bounds[0] <= 1.0 - 0.6 * math.sqrt(2.0)
    for xi0 in (-2.5, 0.0, 0.8, 3.0):
        for alpha in (-1.4, -0.7, -0.3, 0.3, 0.7, 1.4):
            geom = boundary(xi0, profile)
            I0 = math.sqrt(potential(geom.point_c, "outer", FIG1)) * \
                math.sin(alpha) * geom.metric
            res, err = _outcome(lambda: return_map(
                outgoing_state(xi0, I0, profile, FIG1), profile, FIG1))
            orc, err_orc = _outcome(lambda: ode_return_map(
                xi0, alpha, profile, FIG1))
            assert type(err) is type(err_orc)
            if err is None:
                assert abs(wrap_pi(res.state.xi - orc.xi1)) < 1e-8
                assert abs(res.state.action_I - orc.action_I1) < 1e-9


def test_exterior_exit_after_a_departure_dip_matches_an_exact_root():
    # a launch 1.03e-4 from tangency on r = 1 + 0.046875 sin 4 xi: the ray
    # rises at most 8.8e-7 above the boundary, re-enters at s = 0.014526 and
    # stays inside until s = 0.056011, at most 1.2e-5 deep.  The ODE oracle
    # misses this re-entry (both extrema of the clearance come before its
    # first sample, and it returns the crossing at s = 3.1202), so the
    # reference is a 40-digit root of the clearance of the transit's own
    # launch state, evaluated in mpmath from the flow's closed form
    profile = PerturbationProfile((), (0.0, 0.0, 0.0, 0.0, 1.0), 0.046875)
    arc = outer_transit(-1.9375, -1.570693543784139, profile, FIG1)
    with mpmath.workdps(50):
        w = mpmath.sqrt(mpmath.mpf(FIG1.stiffness_om))
        p0 = mpmath.mpc(arc.p0.real, arc.p0.imag)
        v0 = mpmath.mpc(arc.v0.real, arc.v0.imag)
        eps = mpmath.mpf(profile.epsilon)

        def clearance(s):
            z = p0 * mpmath.cos(w * s) + v0 * mpmath.sin(w * s) / w
            return abs(z) - (1 + eps * mpmath.sin(4 * mpmath.arg(z)))

        lo, hi = mpmath.mpf("0.0145"), mpmath.mpf("0.0146")
        assert clearance(lo) > 0 > clearance(hi)
        assert clearance(mpmath.mpf("0.035")) < 0
        root = mpmath.findroot(clearance, (lo, hi), solver="anderson")
        assert abs(root - mpmath.mpf("0.01452598637451758896572")) < 1e-22
    assert abs(arc.duration - float(root)) < 1e-12


# -- march_to_zero on synthetic clearances -------------------------------------


def _no_skip(t):
    return t


def test_march_finds_the_entry_of_a_narrow_dip():
    # g = u^2 - delta - (1 - delta) u^3 with u = 1 - t: g(0) = 0, g'(0) > 0,
    # |g''| <= 4 on [0, 1.3], and g < 0 only on a dip about 2e-7 wide
    # around t = 1; a step that jumps it would land where g > 0 again
    delta = 1e-14

    def clearance(t):
        u = 1.0 - t
        return (u * u - delta - (1.0 - delta) * u ** 3,
                -2.0 * u + 3.0 * (1.0 - delta) * u * u)

    # the dip's entry, u^2 (1 - (1 - delta) u) = delta, by fixed point
    u_in = math.sqrt(delta)
    for _ in range(5):
        u_in = math.sqrt(delta / (1.0 - (1.0 - delta) * u_in))
    t_in = 1.0 - u_in
    t_out = 1.0 + math.sqrt(delta)
    assert t_out - t_in < 1e-6 and clearance(t_out + 1e-9)[0] > 0.0
    t = march_to_zero(clearance, 0.0, clearance(0.0)[1], 4.0, _no_skip,
                      t_end=1.3)
    assert t == pytest.approx(t_in, abs=1e-12)


def test_march_stops_at_a_short_dip_before_a_later_zero():
    # g = p q with the narrow-dip cubic p of the test above and q = 2 - t:
    # g < 0 on a dip about 2e-7 wide around t = 1, positive again after it,
    # and zero again, transversally, at t = 2.  |g''| = |p'' q - 2 p'| <= 25
    # on [0, 2.5].  A march that stepped over the dip would return the
    # later zero instead of the dip's entry.
    delta = 1e-14

    def clearance(t):
        u = 1.0 - t
        p = u * u - delta - (1.0 - delta) * u ** 3
        dp = -2.0 * u + 3.0 * (1.0 - delta) * u * u
        return p * (2.0 - t), dp * (2.0 - t) - p

    u_in = math.sqrt(delta)
    for _ in range(5):
        u_in = math.sqrt(delta / (1.0 - (1.0 - delta) * u_in))
    t_in = 1.0 - u_in
    t_out = 1.0 + math.sqrt(delta)
    assert clearance(t_out + 1e-9)[0] > 0.0
    assert clearance(2.0 - 1e-3)[0] > 0.0 > clearance(2.0 + 1e-3)[0]
    t = march_to_zero(clearance, 0.0, clearance(0.0)[1], 25.0, _no_skip,
                      t_end=2.5)
    assert t == pytest.approx(t_in, abs=1e-12)


def test_march_resumes_where_skip_sends_it_back():
    # the bound 1 holds except on [0.5, 0.6], where g stays positive but
    # turns down with no bound on g'' (as in the Levi-Civita chart's dip,
    # where theta' has none); the zero is at 0.7.  From t = 0 the first
    # step ends at 2, past the zero; skip sends it back to 0.6 once, as
    # the Levi-Civita dip rule does
    def clearance(t):
        if t <= 0.5:
            return t, 1.0
        if t <= 0.6:
            return 2.5 - 4.0 * t, -4.0
        return 0.7 - t, -1.0

    resumed = []

    def skip(t):
        if t > 0.5 and not resumed:
            resumed.append(t)
            return 0.6
        return t

    t = march_to_zero(clearance, 0.0, 1.0, 1.0, skip, t_end=3.0)
    assert resumed and resumed[0] > 0.7
    assert t == pytest.approx(0.7, abs=1e-12)


@pytest.mark.parametrize("clearance, max_steps", [
    (lambda t: (math.nan, math.nan), 100_000),
    (lambda t: (t, 1.0), 5),
])
def test_march_raises_on_nan_or_exhausted_steps(clearance, max_steps):
    with pytest.raises(EventDetectionFailed):
        march_to_zero(clearance, 0.0, 1.0, 1.0, _no_skip, t_end=math.inf,
                      max_steps=max_steps)
