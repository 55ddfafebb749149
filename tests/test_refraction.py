"""Interface refraction law and total-reflection handling."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from refbilliard import (CRITICAL_TOL, PhysParams, critical_angle, potential,
                         refract_in, refract_out)
from refbilliard.errors import DomainError


def test_snell_invariant_is_conserved(fig1):
    point = complex(math.cos(0.4), math.sin(0.4))
    ve = potential(point, "outer", fig1)
    vi = potential(point, "inner", fig1)
    for alpha in np.linspace(-1.5, 1.5, 25):
        res = refract_in(alpha, point, fig1)
        assert res.refracted
        assert math.sqrt(ve) * math.sin(alpha) == pytest.approx(
            math.sqrt(vi) * math.sin(res.out_angle), abs=1e-14)


def test_normal_incidence_passes_straight(fig1):
    point = 1.0 + 0.0j
    assert refract_in(0.0, point, fig1).out_angle == 0.0
    assert refract_out(0.0, point, fig1).out_angle == 0.0


def test_refraction_bends_toward_normal_entering(fig1):
    # V_I > V_E on the unit circle, so the interior ray is steeper in speed
    # and shallower in angle: |beta| < |alpha|.
    point = 1.0 + 0.0j
    for alpha in (0.3, 1.0, -0.7):
        beta = refract_in(alpha, point, fig1).out_angle
        assert abs(beta) < abs(alpha)
        assert math.copysign(1.0, beta) == math.copysign(1.0, alpha)


def test_round_trip_recovers_incidence_angle(fig1):
    point = complex(math.cos(2.0), math.sin(2.0))
    for alpha in np.linspace(-1.4, 1.4, 15):
        beta = refract_in(alpha, point, fig1).out_angle
        back = refract_out(beta, point, fig1)
        assert back.refracted
        assert back.out_angle == pytest.approx(alpha, abs=1e-12)


def test_critical_angle_value(fig1):
    # at |z| = 1: V_E = E - om/2 = 2, V_I = E + h + mu = 6.5
    point = 0.0 + 1.0j
    expected = math.asin(math.sqrt(2.0 / 6.5))
    assert critical_angle(point, fig1) == pytest.approx(expected, abs=1e-15)


def test_total_reflection_beyond_critical_angle(fig1):
    point = 1.0 + 0.0j
    crit = critical_angle(point, fig1)
    res = refract_out(crit + 1e-6, point, fig1)
    assert res.out_angle is None
    assert not res.refracted
    # within CRITICAL_TOL of the critical angle counts as reflected too
    assert not refract_out(crit - CRITICAL_TOL / 2, point, fig1).refracted
    # comfortably below it the ray passes
    assert refract_out(crit - 1e-6, point, fig1).refracted


def test_grazing_entry_is_total_reflection(fig1):
    point = 1.0 + 0.0j
    res = refract_in(math.pi / 2, point, fig1)
    # sin(beta) = sqrt(V_E/V_I) < 1, so grazing entry still refracts
    assert res.refracted
    assert res.out_angle == pytest.approx(critical_angle(point, fig1), abs=1e-12)


def test_angle_domain_is_validated(fig1):
    point = 1.0 + 0.0j
    with pytest.raises(DomainError):
        refract_in(2.0, point, fig1)
    with pytest.raises(DomainError):
        refract_out(-2.0, point, fig1)


def test_interface_beyond_brake_radius_rejected(fig1):
    # V_E < 0 outside the braking circle sqrt(2E/om) = sqrt(5)
    with pytest.raises(DomainError):
        refract_in(0.1, complex(3.0, 0.0), fig1)


# fig1 (V_I > V_E on every interface point) and a shallow interior well where
# V_E > V_I near the unit circle, so that entering rays can reflect too
_WELLS = [PhysParams(energy_E=2.5, offset_h=2.0, mass_mu=2.0,
                     stiffness_om=1.0),
          PhysParams(energy_E=10.0, offset_h=-9.0, mass_mu=0.5,
                     stiffness_om=1.0)]


@given(well=st.sampled_from([0, 1]), r=st.floats(0.05, 2.2),
       theta=st.floats(-math.pi, math.pi),
       angle=st.floats(-math.pi / 2, math.pi / 2))
@example(well=0, r=1.0, theta=0.0, angle=1.5)  # reflects outgoing
@example(well=1, r=1.0, theta=0.4, angle=1.4)  # reflects entering
@example(well=1, r=1.0, theta=0.4, angle=0.1)  # reflects neither
def test_refractions_carry_the_potentials_of_their_point(well, r, theta,
                                                         angle):
    params = _WELLS[well]
    point = r * cmath.exp(1j * theta)
    ve = potential(point, "outer", params)
    vi = potential(point, "inner", params)
    reflects = (
        abs(math.sqrt(ve / vi) * math.sin(angle)) >= 1.0 - CRITICAL_TOL,
        math.sqrt(ve / vi) < 1.0 and
        abs(angle) >= critical_angle(point, params) - CRITICAL_TOL or
        abs(math.sqrt(vi / ve) * math.sin(angle)) >= 1.0 - CRITICAL_TOL)
    for res, reflected in zip((refract_in(angle, point, params),
                               refract_out(angle, point, params)), reflects):
        assert (res.ve.hex(), res.vi.hex()) == (ve.hex(), vi.hex())
        assert res.refracted is (not reflected)
        assert (res.out_angle is None) is reflected
