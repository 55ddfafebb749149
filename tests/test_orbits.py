"""Orbit iteration, rotation numbers, periodic orbits, stability, probes."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from refbilliard import (BoundaryState, PerturbationProfile, PeriodicOrbit,
                         boundary, circular_shift, curve_eval, cycle_distance,
                         discrete_action, find_periodic, golden_target,
                         invariant_curve_probe, is_diophantine_surrogate,
                         iterate, linear_stability,
                         outgoing_state, potential, return_map,
                         rotation_number, shift_inverse_all, twist_at_zero)
from refbilliard import orbits as orbits_module
from refbilliard._util import wrap_pi
from refbilliard.errors import (BilliardError, DescentStalled,
                                InsufficientLength, OrbitTerminated,
                                OutOfActionRange, RangeEmpty,
                                ResidualTooLarge, TotalReflectionTermination)
from refbilliard.orbits import (_critical_cycle, _curve_fit,
                                _rotation_with_error)


def test_iterate_records_constant_shift_on_circle(fig1, circle):
    I = 0.8
    st = outgoing_state(0.1, I, circle, fig1)
    tr = iterate(st, 60, circle, fig1)
    assert tr.status == "running"
    assert len(tr.states) == 61
    steps = np.diff(tr.xis_lifted)
    assert np.allclose(steps, circular_shift(I, fig1).total, atol=1e-12)
    assert all(s.action_I == I for s in tr.states)
    assert rotation_number(tr) == pytest.approx(
        circular_shift(I, fig1).total, abs=1e-12)


def _iterate_by_hand(state, n, profile, params, between=None):
    """One return_map call per return: the reference for iterate.
    ``between()``, when given, runs after every return."""
    states, lifted, status = [state], [float(state.xi)], "running"
    for _ in range(n):
        try:
            res = return_map(states[-1], profile, params)
        except TotalReflectionTermination:
            status = "total_reflection"
            break
        except BilliardError:
            status = "failed"
            break
        states.append(res.state)
        lifted.append(lifted[-1] + res.delta_xi)
        if between is not None:
            between()
    return states, lifted, status


def _closed_form_by_hand(state, n, params):
    """The closed-form shift f + g added to xi, wrapped, once per return:
    the reference for iterate on the circle without arcs."""
    states, lifted = [state], [float(state.xi)]
    for _ in range(n):
        s = states[-1]
        try:
            theta = circular_shift(s.action_I, params).total
        except OutOfActionRange:
            return states, lifted, "failed"
        states.append(BoundaryState(wrap_pi(s.xi + theta), s.action_I,
                                    s.alpha))
        lifted.append(lifted[-1] + theta)
    return states, lifted, "running"


def _fields(states):
    return [(s.xi, s.action_I, s.alpha) for s in states]


# the reference is a loop of wrap_pi(xi + theta): "fast" evaluates the
# shift theta = f + g at every return, "auto" once, at the launch action
@pytest.mark.parametrize("method", ["fast", "auto"])
@pytest.mark.parametrize("n", [0, 1, 4000])
@pytest.mark.parametrize("share", [0.0, 0.5, -0.5, 0.9, -0.9])
def test_iterate_on_circle_equals_a_loop_of_return_map(fig1, circle, method,
                                                       n, share):
    st = outgoing_state(0.3, share * fig1.action_bound_Ic, circle, fig1)
    tr = iterate(st, n, circle, fig1)
    if method == "fast":
        states, lifted, status = _closed_form_by_hand(st, n, fig1)
    else:
        states, lifted, status = [st], [st.xi], "running"
        theta = circular_shift(st.action_I, fig1).total
        for _ in range(n):
            states.append(st._replace(xi=wrap_pi(states[-1].xi + theta)))
            lifted.append(lifted[-1] + theta)
    assert _fields(tr.states) == _fields(states)
    assert tr.xis_lifted.tolist() == lifted
    assert tr.status == status == "running"
    assert tr.arcs == []
    if n:
        assert tr.rotation_estimate == _rotation_with_error(np.array(lifted))
    else:
        assert math.isnan(tr.rotation_estimate[0])
        assert tr.rotation_estimate[1] == math.inf


@pytest.mark.parametrize("theta", [math.pi, -math.pi,
                                   math.nextafter(-math.pi, -math.inf)])
def test_closed_form_trace_wraps_like_wrap_pi_at_the_seam(fig1, circle,
                                                          monkeypatch, theta):
    # a shift of +-pi lands on the seam every return; just below -pi the
    # remainder rounds up to 2 pi and the wrap must still give -pi
    monkeypatch.setattr(orbits_module, "circular_shift",
                        lambda I, params: SimpleNamespace(total=theta))
    tr = iterate(outgoing_state(0.0, 0.5, circle, fig1), 40, circle, fig1)
    xis = [0.0]
    for _ in range(40):
        xis.append(wrap_pi(xis[-1] + theta))
    got = [st.xi for st in tr.states]
    assert all(-math.pi <= xi < math.pi for xi in got)
    assert [x.hex() for x in got] == [x.hex() for x in xis]
    assert -math.pi in got


def test_iterate_on_circle_evaluates_the_shift_once(fig1, circle,
                                                    monkeypatch):
    calls = []

    def counted(I, params):
        calls.append(I)
        return circular_shift(I, params)

    monkeypatch.setattr(orbits_module, "circular_shift", counted)
    st = outgoing_state(0.3, 0.5, circle, fig1)
    iterate(st, 0, circle, fig1)
    assert calls == []
    iterate(st, 4000, circle, fig1)
    assert calls == [0.5]


@pytest.mark.parametrize("interleave", [False, True])
@pytest.mark.parametrize("xi0, share", [(0.0, 0.0), (0.0, 0.5), (-0.0, -0.5),
                                        (2.0, 0.8), (-1.0, -0.85)])
def test_iterate_on_a_perturbed_profile_equals_a_loop_of_return_map(
        fig1, xi0, share, interleave):
    """Bit for bit, also when work on another profile runs between the
    returns of the hand loop: nothing one call leaves behind changes the
    next one's result."""
    wavy = PerturbationProfile.cos_profile(2, 0.01)
    other = PerturbationProfile(fourier_cos=(0.0, 0.0, 0.6),
                                fourier_sin=(0.0, 0.0, 0.8), epsilon=0.01)
    side = [outgoing_state(0.4, 0.3, other, fig1)]

    def elsewhere():
        boundary(side[-1].xi, other)
        side.append(return_map(side[-1], other, fig1).state)
        boundary(side[-1].xi, wavy)

    st = outgoing_state(xi0, share * fig1.action_bound_Ic, wavy, fig1)
    tr = iterate(st, 60, wavy, fig1, keep_arcs=True)
    states, lifted, status = _iterate_by_hand(
        st, 60, wavy, fig1, elsewhere if interleave else None)
    assert tr.status == status
    assert repr(_fields(tr.states)) == repr(_fields(states))
    assert tr.xis_lifted.tolist() == lifted
    assert len(tr.arcs) == 2 * (len(states) - 1)


@pytest.mark.parametrize("share", [1.0, -1.0, 1.5])
def test_iterate_on_circle_fails_beyond_the_action_bound(fig1, circle,
                                                         share):
    st = BoundaryState(xi=0.3, action_I=share * fig1.action_bound_Ic,
                       alpha=0.0)
    tr = iterate(st, 10, circle, fig1)
    states, lifted, status = _closed_form_by_hand(st, 10, fig1)
    assert tr.status == status == "failed"
    assert _fields(tr.states) == _fields(states) == _fields([st])
    assert tr.xis_lifted.tolist() == lifted == [0.3]


def test_iterate_with_no_returns_evaluates_nothing(fig1, circle):
    # a state beyond the action bound fails on the first return, on either
    # path, so zero returns never see it
    wavy = PerturbationProfile.cos_profile(2, 0.01)
    beyond = BoundaryState(xi=0.3, action_I=2.0 * fig1.action_bound_Ic,
                           alpha=0.1)
    for profile, keep_arcs in [(circle, False), (circle, True),
                               (wavy, False)]:
        tr = iterate(beyond, 0, profile, fig1, keep_arcs=keep_arcs)
        assert tr.states == [beyond]
        assert tr.status == "running"


def test_rotation_number_needs_two_states(fig1, circle):
    st = outgoing_state(0.0, 0.5, circle, fig1)
    tr = iterate(st, 0, circle, fig1)
    with pytest.raises(InsufficientLength):
        rotation_number(tr)


@pytest.mark.parametrize("n", [1, 2, 3, 10, 4000])
def test_birkhoff_rotation_on_circle_is_the_shift(fig1, circle, n):
    I = 0.8
    tr = iterate(outgoing_state(0.1, I, circle, fig1), n, circle, fig1)
    assert tr.rotation_estimate[0] == pytest.approx(
        circular_shift(I, fig1).total, abs=1e-12)


def test_rotation_error_is_infinite_without_two_halves(fig1, circle):
    """One return has no two halves to compare: no error bound, not a tiny
    one.  From two returns on, a perturbed orbit reports a finite gap."""
    wavy = PerturbationProfile.cos_profile(2, 0.01)
    for profile in (circle, wavy):
        st = outgoing_state(0.0, 0.5, profile, fig1)
        rho, err = iterate(st, 0, profile, fig1).rotation_estimate
        assert math.isnan(rho) and err == math.inf
        rho, err = iterate(st, 1, profile, fig1).rotation_estimate
        assert math.isfinite(rho) and err == math.inf
    for n in range(2, 8):
        tr = iterate(outgoing_state(0.0, 0.5, wavy, fig1), n, wavy, fig1)
        assert 1e-3 < tr.rotation_estimate[1] < 0.1


@pytest.mark.parametrize("profile", [
    PerturbationProfile(), PerturbationProfile.cos_profile(2, 0.01),
    PerturbationProfile(fourier_cos=(0.0, 0.0, 0.6),
                        fourier_sin=(0.0, 0.0, 0.8), epsilon=0.01)])
def test_iterate_without_arcs_changes_nothing_else(fig1, profile):
    """With arcs every return is the geometric map's, on the circle too.
    Off the circle the trace without arcs is the same orbit, bit for bit;
    on the circle it is the loop of the closed form, within 1e-11 of the
    march."""
    st = outgoing_state(0.3, 0.5, profile, fig1)
    full = iterate(st, 40, profile, fig1, keep_arcs=True)
    bare = iterate(st, 40, profile, fig1)
    states, lifted, status = _iterate_by_hand(st, 40, profile, fig1)
    assert repr(_fields(full.states)) == repr(_fields(states))
    assert full.xis_lifted.tolist() == lifted
    assert len(full.arcs) == 80
    assert bare.arcs == []
    assert bare.status == full.status == status == "running"
    if profile.is_circle:
        states, lifted, status = _closed_form_by_hand(st, 40, fig1)
        assert _fields(bare.states) == _fields(states)
        assert bare.xis_lifted.tolist() == lifted
        assert np.max(np.abs(bare.xis_lifted - full.xis_lifted)) < 1e-11
        return
    assert repr(_fields(bare.states)) == repr(_fields(full.states))
    assert bare.xis_lifted.tolist() == full.xis_lifted.tolist()
    assert bare.rotation_estimate == full.rotation_estimate


def _probe_with_its_orbit(monkeypatch, *args, **kwargs):
    """Run the probe; return it and the last trace it built, the orbit it
    fitted."""
    built = []

    def recorded(*a):
        built.append(trace_of(*a))
        return built[-1]

    trace_of = orbits_module._trace
    monkeypatch.setattr(orbits_module, "_trace", recorded)
    probe = invariant_curve_probe(*args, **kwargs)
    return probe, built[-1]


def _assert_fits_a_fresh_orbit(probe, orbit, profile, params):
    fresh = iterate(outgoing_state(0.0, probe.seed_action, profile, params),
                    probe.n_iter, profile, params)
    assert repr(_fields(orbit.states)) == repr(_fields(fresh.states))
    assert orbit.xis_lifted.tolist() == fresh.xis_lifted.tolist()
    coef, resid = _curve_fit(fresh.states, 32)
    assert (probe.measured_rho, probe.rho_error) == fresh.rotation_estimate
    assert probe.max_residual == resid
    assert probe.coefficients.tolist() == coef.tolist()


# 200 returns cut the 300-return secant orbit, 800 continue it; on the
# circle the secant stops at the seed and the closed form continues
@pytest.mark.parametrize("profile, n_iter", [
    pytest.param(PerturbationProfile.cos_profile(2, 1e-3), 200, id="200"),
    pytest.param(PerturbationProfile.cos_profile(2, 1e-3), 800, id="800"),
    pytest.param(PerturbationProfile(), 800, id="circle")])
def test_probe_fits_a_fresh_orbit_bit_for_bit(fig1, monkeypatch, profile,
                                              n_iter):
    probe, orbit = _probe_with_its_orbit(monkeypatch, golden_target(fig1),
                                         profile, fig1, n_iter=n_iter)
    assert probe.n_iter == n_iter
    _assert_fits_a_fresh_orbit(probe, orbit, profile, fig1)


def test_probe_keeps_the_older_orbit_when_the_secant_stalls(fig1,
                                                            monkeypatch):
    """A secant step that leaves the rotation number unchanged adopts the
    older action, and the probe fits that action's orbit."""
    wavy = PerturbationProfile.cos_profile(2, 1e-3)
    target = golden_target(fig1)
    seed = max(shift_inverse_all(target, fig1),
               key=lambda r: abs(circular_shift(r, fig1).total_prime))
    monkeypatch.setattr(orbits_module, "_birkhoff_mean", lambda steps: 0.0)
    probe, orbit = _probe_with_its_orbit(monkeypatch, target, wavy, fig1,
                                         n_iter=400)
    assert probe.seed_action == seed
    _assert_fits_a_fresh_orbit(probe, orbit, wavy, fig1)


def test_birkhoff_rotation_converges_on_the_golden_orbit(fig1):
    """On the probe's golden orbit the weighted average over 300 returns is
    within 1e-9 of that over 5000."""
    wavy = PerturbationProfile.cos_profile(2, 1e-3)
    probe = invariant_curve_probe(golden_target(fig1), wavy, fig1,
                                  n_iter=300)
    xis = iterate(outgoing_state(0.0, probe.seed_action, wavy, fig1), 5000,
                  wavy, fig1, keep_arcs=False).xis_lifted
    rho_300 = _rotation_with_error(xis[:301])[0]
    rho_5000, err_5000 = _rotation_with_error(xis)
    assert rho_300 == probe.measured_rho
    assert abs(rho_300 - rho_5000) < 1e-9
    assert err_5000 < 1e-11


def test_iterate_stops_on_total_reflection(fig1):
    # launch with action just under the local bound at its maximum; the next
    # section point has a smaller bound and the exit ray cannot refract
    prof = PerturbationProfile.cos_profile(2, 0.05)
    g = boundary(0.0, prof)
    bound = math.sqrt(potential(g.point_c, "outer", fig1)) * g.metric
    st = outgoing_state(0.0, bound - 1e-3, prof, fig1)
    tr = iterate(st, 50, prof, fig1)
    assert tr.status == "total_reflection"
    assert len(tr.states) < 51


def test_find_periodic_circle_families(fig1, circle):
    orbits = find_periodic(1, 4, circle, fig1)
    assert len(orbits) == 2
    for orb in orbits:
        assert orb.kind == "circular"
        assert orb.residual < 1e-10
        assert np.allclose(np.diff(orb.xis), math.pi / 2, atol=1e-12)
        assert np.ptp(orb.actions) == 0.0
        assert circular_shift(float(orb.actions[0]), fig1).total == \
            pytest.approx(math.pi / 2, abs=1e-10)
    # distinct action families
    assert cycle_distance(orbits[0], orbits[1]) > 0.1


def test_cycle_distance_rejects_different_periods(light_mass, circle):
    # a 3-cycle against a 1-cycle used to broadcast to a number, and
    # against a 2-cycle to fail inside numpy
    three = find_periodic(-1, 3, circle, light_mass)[0]
    one = find_periodic(0, 1, circle, light_mass)[0]
    two = PeriodicOrbit(m=1, n=2, xis=np.array([0.0, math.pi]),
                        actions=np.zeros(2), residual=0.0, kind="circular")
    assert (three.n, one.n) == (3, 1)
    assert cycle_distance(three, three) == 0.0
    for other in (one, two):
        with pytest.raises(ValueError, match=f"periods 3 and {other.n}"):
            cycle_distance(three, other)
        with pytest.raises(ValueError, match=f"periods {other.n} and 3"):
            cycle_distance(other, three)


def test_find_periodic_includes_collision_line(fig1, circle):
    orbits = find_periodic(0, 1, circle, fig1)
    assert len(orbits) == 1
    assert orbits[0].actions[0] == 0.0


def test_find_periodic_input_validation(fig1, circle):
    with pytest.raises(ValueError):
        find_periodic(2, 4, circle, fig1)
    with pytest.raises(ValueError):
        find_periodic(1, 0, circle, fig1)
    with pytest.raises(RangeEmpty):
        find_periodic(1, 2, circle, fig1)


def test_find_periodic_nonhomothetic_pair(fig4, circle):
    orbits = find_periodic(0, 1, circle, fig4)
    acts = sorted(float(o.actions[0]) for o in orbits)
    assert len(orbits) == 3
    assert acts[1] == 0.0
    assert acts[2] == pytest.approx(-acts[0], abs=1e-10)
    assert circular_shift(acts[2], fig4).total == pytest.approx(
        0.0, abs=1e-11)


def test_find_periodic_newton_on_perturbed_section(fig4):
    prof = PerturbationProfile.cos_profile(2, 1e-3)
    orbits = find_periodic(0, 1, prof, fig4)
    assert len(orbits) >= 2
    acts = [float(o.actions[0]) for o in orbits]
    assert any(a > 1.0 for a in acts) and any(a < -1.0 for a in acts)
    for orb in orbits:
        assert orb.residual < 1e-8
        assert orb.n == 1


def test_find_periodic_finds_every_collision_fixed_point(light_mass):
    # on 1 + 0.02 cos 3 xi each of the six symmetry axes carries an
    # ejection-collision fixed point at I = 0; they come sorted by xi
    prof = PerturbationProfile.cos_profile(3, 0.02)
    orbits = find_periodic(0, 1, prof, light_mass)
    assert len(orbits) == 6
    for k, orb in enumerate(orbits):
        assert orb.residual < 1e-8
        assert abs(wrap_pi(float(orb.xis[0]) - (k - 3) * math.pi / 3)) < 1e-8
        assert abs(float(orb.actions[0])) < 1e-9


def _seed_hint(m, n, params):
    """The seed action find_periodic shoots every link from."""
    return max(shift_inverse_all(2.0 * math.pi * m / n, params), key=abs)


@pytest.mark.parametrize("m", [2, -2])
def test_find_periodic_two_fifths_pair_at_light_mass(light_mass, m):
    prof = PerturbationProfile.cos_profile(2, 0.01)
    orbits = find_periodic(m, 5, prof, light_mass)
    assert [o.kind for o in orbits] == ["action-minimizer", "action-minimax"]
    for orb in orbits:
        assert orb.residual < 1e-8
    assert cycle_distance(orbits[0], orbits[1]) > 1e-4


def test_find_periodic_mirror_classes_at_light_mass(light_mass):
    # cos 2 xi is even, so (xi, I) -> (-xi, -I) maps (1, 3) cycles to
    # (-1, 3) cycles of the same action
    prof = PerturbationProfile.cos_profile(2, 0.01)
    plus = find_periodic(1, 3, prof, light_mass)
    minus = find_periodic(-1, 3, prof, light_mass)
    assert [o.kind for o in plus] == [o.kind for o in minus]
    for p_orb, m_orb in zip(plus, minus):
        W_plus, _ = discrete_action(p_orb.xis, 1, 3, prof, light_mass,
                                    _seed_hint(1, 3, light_mass))
        W_minus, _ = discrete_action(m_orb.xis, -1, 3, prof, light_mass,
                                     _seed_hint(-1, 3, light_mass))
        assert W_plus == pytest.approx(W_minus, abs=1e-10)
        start = outgoing_state(-float(p_orb.xis[0]),
                               -float(p_orb.actions[0]), prof, light_mass)
        trace = iterate(start, 3, prof, light_mass)
        assert trace.status == "running"
        lifted = trace.xis_lifted
        assert abs(lifted[3] - lifted[0] + 2.0 * math.pi) < 1e-8
        assert abs(trace.states[3].action_I - start.action_I) < 1e-8


def test_action_hessian_determinant_gives_the_monodromy_trace(fig1,
                                                              light_mass):
    # MacKay & Meiss (1983): 2 - tr M = -det(H) prod b_k, with the Hessian
    # H of the discrete action taken by central differences of its gradient
    # and b_k = -1/H_{k,k+1}, so no tangent map enters that side
    prof = PerturbationProfile.cos_profile(2, 0.01)
    for params, m, n in ((light_mass, 1, 3), (light_mass, -1, 3),
                         (fig1, 1, 4)):
        hint = _seed_hint(m, n, params)
        orbits = find_periodic(m, n, prof, params)
        assert len(orbits) == 2
        for index, orb in enumerate(orbits):
            h = 1e-6
            H = np.empty((n, n))
            for j in range(n):
                e = h * np.eye(n)[j]
                H[:, j] = (discrete_action(orb.xis + e, m, n, prof, params,
                                           hint)[1] -
                           discrete_action(orb.xis - e, m, n, prof, params,
                                           hint)[1]) / (2 * h)
            b = np.array([-1.0 / H[k, (k + 1) % n] for k in range(n)])
            rep = linear_stability(orb, prof, params)
            assert 2.0 - rep.trace == pytest.approx(
                -np.linalg.det(H) * np.prod(b), abs=1e-6)
            # Greene's residue is that determinant over 4
            assert rep.residue == (2.0 - rep.trace) / 4.0
            assert rep.residue == pytest.approx(
                -np.linalg.det(H) * np.prod(b) / 4.0, abs=2.5e-7)
            lam = np.linalg.eigvalsh(np.sign(b[0]) * H)
            assert np.count_nonzero(lam < 0.0) == index
            assert rep.classification == ("hyperbolic", "elliptic")[index]


def test_residue_sign_agrees_with_the_classification(fig1, light_mass,
                                                     circle):
    wavy = PerturbationProfile.cos_profile(2, 0.01)
    seen = set()
    for params, m, n, prof in ((light_mass, 1, 3, wavy),
                               (light_mass, -1, 3, wavy),
                               (fig1, 1, 4, wavy), (fig1, 0, 1, wavy),
                               (light_mass, 1, 3, circle)):
        for orb in find_periodic(m, n, prof, params):
            rep = linear_stability(orb, prof, params)
            R = rep.residue
            seen.add(rep.classification)
            if rep.classification == "hyperbolic":
                assert R < 0.0 or R > 1.0
            elif rep.classification == "elliptic":
                assert 0.0 < R < 1.0
            else:
                # the integrable shear: trace 2 to within the parabolic band
                assert abs(R) <= 1e-7 * max(1.0, abs(rep.trace)) / 4.0
    assert seen == {"hyperbolic", "elliptic", "parabolic"}


def test_critical_cycle_rejects_a_cycle_of_another_index(light_mass):
    prof = PerturbationProfile.cos_profile(2, 0.01)
    hint = _seed_hint(-1, 3, light_mass)
    seed = -2.0 * math.pi / 3.0 * np.arange(3) + math.pi / 6.0
    saddle, _, _ = _critical_cycle(seed, 1, -1, 3, prof, light_mass, hint)
    with pytest.raises(DescentStalled, match="index 1, not 0"):
        _critical_cycle(saddle, 0, -1, 3, prof, light_mass, hint)


def test_find_periodic_raises_when_newton_stalls(light_mass, monkeypatch):
    # a stand-in action whose gradient never vanishes
    def sloped(cycle, m, n, profile, params, action_hint):
        return 0.0, np.full(n, 1e-3), np.eye(n), np.ones(n), 0.5

    monkeypatch.setattr("refbilliard.orbits._action_terms", sloped)
    prof = PerturbationProfile.cos_profile(2, 0.01)
    with pytest.raises(DescentStalled, match="after 40 Newton steps"):
        find_periodic(-1, 3, prof, light_mass)


def test_linear_stability_matches_differences_on_perturbed_cycle(light_mass):
    prof = PerturbationProfile.cos_profile(3, 0.02)
    orb = find_periodic(0, 1, prof, light_mass)[1]
    rep = linear_stability(orb, prof, light_mass)
    assert rep.det == pytest.approx(1.0, abs=1e-11)
    xi0, I0, h = float(orb.xis[0]), float(orb.actions[0]), 1e-6

    def step(xi, I):
        res = return_map(outgoing_state(xi, I, prof, light_mass), prof,
                         light_mass)
        return np.array([xi + res.delta_xi, res.state.action_I])

    fd = np.column_stack([(step(xi0 + h, I0) - step(xi0 - h, I0)) / (2 * h),
                          (step(xi0, I0 + h) - step(xi0, I0 - h)) / (2 * h)])
    assert np.max(np.abs(rep.matrix - fd)) < 1e-6 * np.max(np.abs(fd))


def test_linear_stability_integrable_shear(fig1, circle):
    orbits = find_periodic(1, 4, circle, fig1)
    for orb in orbits:
        rep = linear_stability(orb, circle, fig1)
        assert rep.classification == "parabolic"
        assert rep.trace == pytest.approx(2.0, abs=1e-7)
        assert rep.det == pytest.approx(1.0, abs=1e-7)
        # the only off-diagonal term of the shear is n * d(shift)/dI
        expected = 4.0 * circular_shift(float(orb.actions[0]),
                                        fig1).total_prime
        assert rep.matrix[0, 1] == pytest.approx(expected, abs=1e-4)


def test_linear_stability_collision_line_shear(fig4, circle):
    orbits = find_periodic(0, 1, circle, fig4)
    center = next(o for o in orbits if o.actions[0] == 0.0)
    rep = linear_stability(center, circle, fig4)
    assert rep.classification == "parabolic"
    assert rep.matrix[0, 1] == pytest.approx(twist_at_zero(fig4), abs=1e-5)


def test_linear_stability_rejects_sloppy_orbit(fig1, circle):
    fake = PeriodicOrbit(m=1, n=4, xis=np.zeros(4), actions=np.zeros(4),
                         residual=1.0, kind="circular")
    with pytest.raises(ResidualTooLarge):
        linear_stability(fake, circle, fig1)


def test_golden_target_and_surrogate(fig1):
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    rho = golden_target(fig1)
    assert rho == pytest.approx(-2.0 * math.pi / (2.0 + phi), abs=1e-14)
    assert is_diophantine_surrogate(rho)
    assert not is_diophantine_surrogate(2.0 * math.pi / 3.0)
    assert not is_diophantine_surrogate(2.0 * math.pi * (1.0 / 3.0 + 5e-4))
    assert is_diophantine_surrogate(2.0 * math.pi * 0.3551)


def test_invariant_curve_probe_on_circle(fig1, circle):
    target = golden_target(fig1)
    probe = invariant_curve_probe(target, circle, fig1, n_iter=400)
    assert probe.status == "running"
    assert probe.n_iter == 400
    # the integrable curve is flat: I(xi) = seed action
    assert probe.max_residual < 1e-12
    assert probe.measured_rho == pytest.approx(target, abs=1e-12)
    assert circular_shift(probe.seed_action, fig1).total == pytest.approx(
        target, abs=1e-10)
    flat = curve_eval(probe, np.linspace(-math.pi, math.pi, 50))
    assert np.allclose(flat, probe.seed_action, atol=1e-12)


def test_invariant_curve_probe_rejects_unreachable_target(fig1, circle):
    with pytest.raises(RangeEmpty):
        invariant_curve_probe(-5.0, circle, fig1, n_iter=50)


def test_invariant_curve_probe_raises_when_its_orbit_stops(fig1):
    # at eps = 0.05 the golden orbit meets total reflection within 200
    # returns
    with pytest.raises(OrbitTerminated, match="total_reflection"):
        invariant_curve_probe(golden_target(fig1),
                              PerturbationProfile.cos_profile(2, 0.05), fig1,
                              n_iter=200)
