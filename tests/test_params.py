"""Parameter validation and the two potentials."""

import dataclasses
import math
import pickle

import numpy as np
import pytest

from refbilliard import PhysParams, kepler_elements, potential
from refbilliard.errors import DomainError, SingularityError


@pytest.mark.parametrize("kwargs", [
    dict(energy_E=2.5, offset_h=-3.0, mass_mu=2.0, stiffness_om=1.0),  # E+h<=0
    dict(energy_E=2.5, offset_h=2.0, mass_mu=0.0, stiffness_om=1.0),   # mu<=0
    dict(energy_E=2.5, offset_h=2.0, mass_mu=2.0, stiffness_om=0.0),   # om<=0
    dict(energy_E=1.0, offset_h=2.0, mass_mu=2.0, stiffness_om=1.5),   # E<=om
])
def test_invalid_params_rejected(kwargs):
    with pytest.raises(DomainError):
        PhysParams(**kwargs)


def test_potentials_at_unit_circle(fig1):
    """V_E = E - om|z|^2/2 and V_I = E + h + mu/|z| at |z| = 1."""
    z = complex(math.cos(0.7), math.sin(0.7))
    assert potential(z, "outer", fig1) == pytest.approx(2.5 - 0.5, abs=1e-14)
    assert potential(z, "inner", fig1) == pytest.approx(2.5 + 2.0 + 2.0,
                                                        abs=1e-14)


def test_action_bound_is_sqrt_outer_potential(fig1):
    """I_c = sqrt(E - om/2): the largest tangential action on the circle."""
    assert fig1.action_bound_Ic == pytest.approx(math.sqrt(2.0), abs=1e-15)


def test_brake_radius_is_outer_turning_point(fig1):
    """V_E vanishes exactly at |z| = sqrt(2E/om)."""
    R = fig1.brake_radius
    assert R == pytest.approx(math.sqrt(5.0), abs=1e-15)
    assert potential(R + 0.0j, "outer", fig1) == pytest.approx(0.0, abs=1e-14)


def test_oscillator_frequency_is_sqrt_stiffness():
    p = PhysParams(energy_E=7.0, offset_h=2.0, mass_mu=15.0, stiffness_om=3.0)
    assert p.omega == pytest.approx(math.sqrt(3.0), abs=1e-15)


def test_levi_civita_constants(fig1):
    """The squared LC frequency is 2(E+h) and the LC energy is mu."""
    assert fig1.lc_Omega_sq == pytest.approx(9.0, abs=1e-15)
    assert fig1.kepler_energy == pytest.approx(4.5, abs=1e-15)


def test_a_real_scalar_point_is_a_domain_error(fig1):
    # a point is a complex number; floats and arrays are not read as points
    with pytest.raises(DomainError, match="got float"):
        potential(1.0, "outer", fig1)
    with pytest.raises(DomainError, match="got float"):
        kepler_elements(1.0, 1j, fig1)
    with pytest.raises(DomainError, match="got ndarray"):
        potential(np.array([1.0]), "outer", fig1)


def test_inner_potential_singular_at_origin(fig1):
    with pytest.raises(SingularityError):
        potential(0.0 + 0.0j, "inner", fig1)


# -- derived constants, computed once per instance -----------------------------


def _formulas(p):
    E, h, mu, om = p.energy_E, p.offset_h, p.mass_mu, p.stiffness_om
    return {"action_bound_Ic": math.sqrt(E - om / 2),
            "omega": math.sqrt(om),
            "kepler_energy": E + h,
            "lc_Omega_sq": 2 * (E + h),
            "brake_radius": math.sqrt(2 * E / om)}


def test_derived_constants_equal_their_formulas(fig1, fig4):
    for p in (fig1, fig4):
        for _ in range(2):  # computed, then cached
            assert {name: getattr(p, name) for name in _formulas(p)} == \
                _formulas(p)


def test_cached_constants_leave_equality_hash_and_pickle_alone(fig1):
    fresh = PhysParams(2.5, 2.0, 2.0, 1.0)
    used = PhysParams(2.5, 2.0, 2.0, 1.0)
    assert used.omega == 1.0 and used.kepler_energy == 4.5
    assert used == fresh and hash(used) == hash(fresh)
    assert len({used, fresh, fig1}) == 1
    for p in (fresh, used):
        back = pickle.loads(pickle.dumps(p))
        assert back == p and hash(back) == hash(p)
        assert {name: getattr(back, name) for name in _formulas(p)} == \
            _formulas(p)
    with pytest.raises(dataclasses.FrozenInstanceError):
        used.energy_E = 3.0


def test_replace_gives_fresh_derived_constants(fig1):
    assert fig1.kepler_energy == 4.5 and fig1.omega == 1.0
    q = dataclasses.replace(fig1, offset_h=3.0, stiffness_om=2.0)
    assert q.kepler_energy == 5.5 and q.omega == math.sqrt(2.0)
    assert {name: getattr(q, name) for name in _formulas(q)} == _formulas(q)
    assert fig1.kepler_energy == 4.5
