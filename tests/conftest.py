"""Shared parameter sets for the refraction-billiard test suite.

The four recurring regimes: the trajectory-example set (moderate well depth),
the stability-shift set at its two masses, the non-homothetic fixed-point
set, and two light-mass variants used by the periodic-orbit and twist tests.
"""

import pytest
from hypothesis import settings

from refbilliard import PerturbationProfile, PhysParams

# property tests draw the same examples on every run and have no per-example
# time limit (an ODE oracle call takes tens of milliseconds)
settings.register_profile("deterministic", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("deterministic")


@pytest.fixture
def fig1():
    return PhysParams(energy_E=2.5, offset_h=2.0, mass_mu=2.0,
                      stiffness_om=1.0)


@pytest.fixture
def fig2_mu44():
    return PhysParams(energy_E=10.0, offset_h=3.0, mass_mu=44.0,
                      stiffness_om=1.0)


@pytest.fixture
def fig2_mu55():
    return PhysParams(energy_E=10.0, offset_h=3.0, mass_mu=55.0,
                      stiffness_om=1.0)


@pytest.fixture
def fig4():
    return PhysParams(energy_E=7.0, offset_h=2.0, mass_mu=15.0,
                      stiffness_om=3.0)


@pytest.fixture
def light_mass():
    # light Kepler mass: the circular shift reaches -2pi/3, so (m,n) = (-1,3)
    # families exist (they do not at the fig1 mass)
    return PhysParams(energy_E=2.5, offset_h=2.0, mass_mu=0.5,
                      stiffness_om=1.0)


@pytest.fixture
def stiff_well():
    # stiffer exterior well: the twist profile still changes sign inside
    # the action interval
    return PhysParams(energy_E=2.5, offset_h=2.0, mass_mu=2.0,
                      stiffness_om=2.0)


@pytest.fixture
def circle():
    return PerturbationProfile.circle()
