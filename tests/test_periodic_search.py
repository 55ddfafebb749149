"""The periodic search: multiple shooting on the section map for every class.

Each cycle that :func:`find_periodic` reports is checked against the map
(its residual), against the discrete action (MacKay–Meiss: the Hessian
built from its tangent maps gives the monodromy's trace, and its Morse
index gives the kind) and against the search it replaced
(:func:`reference.search_before`): every cycle that search certified is
among the new ones.
"""

import logging
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from refbilliard import (PerturbationProfile, PhysParams, cycle_distance,
                         find_periodic, linear_stability, outgoing_state,
                         return_map, tangent_map, variational)
from refbilliard import orbits as orbits_module
from refbilliard._util import wrap_pi
from refbilliard.errors import (BilliardError, DegenerateStationarity,
                                DescentStalled, OrbitTerminated)
from refbilliard.variational import _action_hessian
from reference import search_before

FIG1 = PhysParams(energy_E=2.5, offset_h=2.0, mass_mu=2.0, stiffness_om=1.0)
LIGHT_MASS = PhysParams(energy_E=2.5, offset_h=2.0, mass_mu=0.5,
                        stiffness_om=1.0)
INDEX = {"action-minimizer": 0, "action-minimax": 1}


def _index(orb):
    """The Morse index that the kind of ``orb`` names."""
    if orb.kind in INDEX:
        return INDEX[orb.kind]
    return int(orb.kind.rsplit("-", 1)[1])


def _tangents(orb, profile, params):
    """The tangent maps of the n returns of ``orb`` from its first state."""
    state = outgoing_state(float(orb.xis[0]), float(orb.actions[0]),
                           profile, params)
    out = []
    for _ in range(orb.n):
        res = return_map(state, profile, params)
        out.append(tangent_map(state, res, profile, params))
        state = res.state
    return out


def _check_mackay_meiss(orb, profile, params):
    """2 - tr M = -det(H) prod b_k (MacKay & Meiss, Phys. Lett. A 98, 1983)
    and the kind's Morse index, with H from :func:`_action_hessian` on the
    cycle's tangent maps and M from :func:`linear_stability`.

    Both sides are polynomials in the entries of the n tangent maps, equal
    when every det DF_k is 1.  So they differ by the area residuals
    |det DF_k - 1| and the rounding of a product of n maps, each scaled by
    the product of the maps' norms."""
    tangents = _tangents(orb, profile, params)
    H = _action_hessian([t.tolist() for t in tangents])
    b = np.array([t[0, 1] for t in tangents])
    trace = linear_stability(orb, profile, params).trace
    scale = math.prod(max(1.0, float(np.abs(t).sum(axis=1).max()))
                      for t in tangents) * float(np.prod(np.abs(b) + 1.0))
    area = sum(abs(float(np.linalg.det(t)) - 1.0) for t in tangents)
    tol = scale * (area + 8 * orb.n * np.finfo(float).eps)
    assert abs(2.0 - trace + np.linalg.det(H) * np.prod(b)) <= tol, (
        orb.kind, 2.0 - trace, -np.linalg.det(H) * np.prod(b), tol)
    lam = np.linalg.eigvalsh(np.sign(b[0]) * H)
    assert np.count_nonzero(lam < 0.0) == _index(orb)


# ROADMAP item 17's table: class, parameters, profile r = 1 + eps cos k xi,
# and the count of cycles per Morse index
TABLE = [
    (-1, 3, LIGHT_MASS, 2, 0.01, {0: 4, 1: 4}),
    (2, 5, LIGHT_MASS, 2, 0.01, {0: 4, 1: 4}),
    (1, 4, FIG1, 2, 0.01, {0: 2, 1: 2}),
    # the search before met total reflection here
    (1, 4, FIG1, 2, 0.02, {0: 1, 1: 2}),
    # ... and RangeEmpty from a link's seed here
    (-3, 11, FIG1, 2, 0.02, {0: 4, 1: 2}),
    # ... and stalled here
    (1, 3, LIGHT_MASS, 6, 1e-3, {0: 4, 1: 4}),
    (-1, 3, LIGHT_MASS, 6, 1e-3, {0: 4, 1: 4}),
    (-1, 3, LIGHT_MASS, 6, 0.01, {0: 4, 1: 2, 3: 2}),
    (-1, 3, LIGHT_MASS, 9, 0.003, {0: 6, 1: 6}),
    # ... and dropped the minimax here
    (1, 3, LIGHT_MASS, 3, 0.01, {0: 2, 1: 2}),
    # ... and missed radial fixed points here
    (0, 1, FIG1, 6, 0.01, {0: 6, 1: 6}),
    (0, 1, LIGHT_MASS, 6, 0.01, {0: 6, 1: 6}),
    (0, 1, LIGHT_MASS, 9, 0.003, {0: 9, 1: 9}),
]


@pytest.mark.parametrize(
    "m, n, params, k, eps, counts", TABLE,
    ids=[f"{m}_{n}-mu{p.mass_mu:g}-cos{k}-{eps:g}"
         for m, n, p, k, eps, _ in TABLE])
def test_search_finds_every_cycle_of_the_table(m, n, params, k, eps,
                                               counts):
    prof = PerturbationProfile.cos_profile(k, eps)
    orbits = find_periodic(m, n, prof, params)
    assert Counter(_index(o) for o in orbits) == counts
    for orb in orbits:
        assert (orb.m, orb.n) == (m, n)
        assert orb.residual <= 1e-8
        _check_mackay_meiss(orb, prof, params)
    # distinct cycles, sorted by wrapped xi_0, then I_0
    for i, a in enumerate(orbits):
        for b in orbits[:i]:
            assert cycle_distance(a, b) > a.error_bound + b.error_bound
    keys = [(wrap_pi(float(o.xis[0])), float(o.actions[0])) for o in orbits]
    assert keys == sorted(keys)
    if n == 1:
        # the radial fixed points on the 2k symmetry axes of cos k xi
        axes = sorted(wrap_pi(j * math.pi / k) for j in range(2 * k))
        assert np.allclose([key[0] for key in keys], axes, atol=1e-8)
        assert all(abs(key[1]) < 1e-9 for key in keys)
    try:
        before = search_before(m, n, prof, params)
    except BilliardError:
        return
    for old in before:
        assert min(cycle_distance(old, new) for new in orbits) <= 1e-8


@pytest.mark.parametrize("m", [1, -1])
def test_light_mass_quarter_classes_have_cycles(m):
    # the (+-1, 4) family of largest |I| lies 0.012 below I_c, where links
    # leave the section: the search before reported total reflection.  6 of
    # the 16 starts still do; the family |I| = 0.12 gives the rest
    prof = PerturbationProfile.cos_profile(2, 0.01)
    orbits = find_periodic(m, 4, prof, LIGHT_MASS)
    assert sorted(map(_index, orbits)) == [0, 1, 1]
    for orb in orbits:
        assert orb.residual <= 1e-8


def test_light_mass_quarter_classes_mirror_each_other():
    # cos 2 xi is even, so (xi, I) -> (-xi, -I) maps each (1, 4) cycle to a
    # (-1, 4) cycle of the same kind
    prof = PerturbationProfile.cos_profile(2, 0.01)
    plus = find_periodic(1, 4, prof, LIGHT_MASS)
    minus = find_periodic(-1, 4, prof, LIGHT_MASS)
    assert len(plus) == len(minus)
    for orb in plus:
        mirror = orbits_module.PeriodicOrbit(
            m=-1, n=4, xis=-orb.xis, actions=-orb.actions,
            residual=orb.residual, kind=orb.kind)
        twin = min(minus, key=lambda o: cycle_distance(o, mirror))
        assert cycle_distance(twin, mirror) <= 1e-8
        assert twin.kind == orb.kind


def test_search_never_evaluates_the_generating_function(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("find_periodic called generating_function")

    monkeypatch.setattr(variational, "generating_function", refused)
    prof = PerturbationProfile.cos_profile(2, 0.01)
    assert len(find_periodic(-1, 3, prof, LIGHT_MASS)) == 8


def test_period_one_search_makes_as_many_map_calls_as_before(monkeypatch):
    # 16 angles on the one family I = 0: 60 Newton evaluations and one
    # closing return for each of the 16 converged starts
    calls = []
    real = orbits_module.return_map

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(orbits_module, "return_map", counted)
    prof = PerturbationProfile.cos_profile(2, 0.01)
    assert len(find_periodic(0, 1, prof, LIGHT_MASS)) == 4
    assert len(calls) == 76


# -- typed failures -----------------------------------------------------------


def test_cyclic_solve_raises_on_a_singular_system():
    # identity tangents: the monodromy M is Id, and M - Id is singular
    eye = [[1.0, 0.0], [0.0, 1.0]]
    with pytest.raises(DescentStalled, match="singular"):
        orbits_module._cyclic_solve([eye] * 3, [(1e-3, 0.0)] * 3)


def test_kind_and_bound_raises_on_a_link_without_twist():
    twist, flat = [[1.0, 1.0], [0.0, 1.0]], [[1.0, 0.0], [0.5, 1.0]]
    with pytest.raises(DegenerateStationarity, match="zero twist"):
        orbits_module._kind_and_bound([twist, flat])


def test_orbit_from_cycle_raises_where_the_orbit_reflects_totally():
    # light mass, cos 2 xi: the (1, 4) family of largest |I| lies 0.012
    # below I_c, and from 36 of 64 phases its orbit stops at a total
    # reflection before closing
    prof = PerturbationProfile.cos_profile(2, 0.01)
    I_star = min(variational.shift_inverse_all(math.pi / 2, LIGHT_MASS))
    assert I_star == pytest.approx(-1.40219, abs=1e-5)
    stopped = 0
    for j in range(64):
        try:
            orbits_module._orbit_from_cycle(-math.pi + math.pi * j / 32,
                                            I_star, 1, 4, prof, LIGHT_MASS,
                                            "action-minimizer")
        except OrbitTerminated as exc:
            assert "'total_reflection'" in str(exc)
            stopped += 1
    assert stopped == 36


def test_search_counts_starts_that_do_not_close(monkeypatch, caplog):
    # every cycle Newton returns is moved by 1e-6 in action, so none closes
    # within 1e-8: each start fails by ResidualTooLarge
    real = orbits_module._shoot_cycle

    def moved(*args):
        xs, Is, tangents = real(*args)
        return xs, [I + 1e-6 for I in Is], tangents

    monkeypatch.setattr(orbits_module, "_shoot_cycle", moved)
    prof = PerturbationProfile.cos_profile(2, 0.01)
    with caplog.at_level(logging.INFO, logger="refbilliard.orbits"):
        with pytest.raises(DescentStalled, match=(
                r"^no \(0, 1\) cycle converged from 16 starts; failed: "
                r"ResidualTooLarge 16$")):
            find_periodic(0, 1, prof, LIGHT_MASS)
    assert [r.getMessage() for r in caplog.records] == [
        "find_periodic(0, 1): 16 starts, 0 converged, 0 merged; failed: "
        "ResidualTooLarge 16"]


@st.composite
def _profiles(draw):
    """Random profile with harmonics 1-4 and sup |eps f| <= 0.01."""
    cos = [0.0] + [draw(st.floats(-1.0, 1.0)) for _ in range(4)]
    sin = [0.0] + [draw(st.floats(-1.0, 1.0)) for _ in range(4)]
    norm = sum(map(abs, cos)) + sum(map(abs, sin))
    if norm == 0.0:
        cos[1] = norm = 1.0
    return PerturbationProfile(tuple(cos), tuple(sin),
                               draw(st.floats(1e-4, 0.01)) / norm)


@settings(max_examples=20)
@given(profile=_profiles(),
       case=st.sampled_from(((0, 1, LIGHT_MASS), (-1, 3, LIGHT_MASS),
                             (1, 4, FIG1))))
def test_search_keeps_every_cycle_of_the_search_before(profile, case):
    m, n, params = case
    try:
        before = search_before(m, n, profile, params)
    except BilliardError:
        return
    orbits = find_periodic(m, n, profile, params)
    for old in before:
        assert min(cycle_distance(old, new) for new in orbits) <= 1e-8
    for orb in orbits:
        _check_mackay_meiss(orb, profile, params)
