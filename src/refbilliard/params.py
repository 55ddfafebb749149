"""Physical parameters and the two potential wells.

The model couples a planar harmonic oscillator outside a star-shaped domain D
with an attractive Kepler problem inside it.  A zero-energy particle moves in

    outer region (|z| outside D):  V_E(z) = E - om/2 * |z|^2,
    inner region (z inside D):     V_I(z) = E + h + mu / |z|,

where ``om`` is the harmonic stiffness (the outer equation of motion is
z'' = -om z, with angular frequency sqrt(om)), ``mu`` the Kepler mass
parameter and ``h`` the depth offset of the inner well.  Orbits live on the
zero-energy shell 1/2 |z'|^2 = V(z).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .errors import DomainError, SingularityError

__all__ = ["PhysParams", "potential"]


@dataclass(frozen=True)
class PhysParams:
    """Parameter record for the two-well system.

    Attributes
    ----------
    energy_E : float
        Energy offset E of both wells; bounds the outer motion.
    offset_h : float
        Inner well offset; the Kepler energy of every inner arc is E + h.
    mass_mu : float
        Kepler mass parameter mu > 0.
    stiffness_om : float
        Harmonic stiffness om > 0 of the outer well (om = omega^2).
    """

    energy_E: float
    offset_h: float
    mass_mu: float
    stiffness_om: float

    def __post_init__(self):
        E, h, mu, om = (self.energy_E, self.offset_h, self.mass_mu,
                        self.stiffness_om)
        for name, val in (("energy_E", E), ("offset_h", h),
                          ("mass_mu", mu), ("stiffness_om", om)):
            if not math.isfinite(val):
                raise DomainError(f"{name} must be finite, got {val!r}")
        if E + h <= 0:
            raise DomainError(f"requires energy_E + offset_h > 0, got {E + h}")
        if mu <= 0:
            raise DomainError(f"requires mass_mu > 0, got {mu}")
        if om <= 0:
            raise DomainError(f"requires stiffness_om > 0, got {om}")
        if E <= om:
            raise DomainError(
                f"requires energy_E > stiffness_om, got E={E}, om={om}")

    # -- derived quantities -------------------------------------------------
    #
    # Each is computed on first use and kept in the instance ``__dict__``;
    # equality, hashing and ``dataclasses.replace`` see the four fields only.

    @cached_property
    def action_bound_Ic(self) -> float:
        """Critical action I_c = sqrt(E - om/2); |I| = I_c is total reflection."""
        return math.sqrt(self.energy_E - self.stiffness_om / 2)

    @cached_property
    def omega(self) -> float:
        """Angular frequency sqrt(om) of the outer oscillator."""
        return math.sqrt(self.stiffness_om)

    @cached_property
    def kepler_energy(self) -> float:
        """Energy E + h of every inner Kepler arc (always hyperbolic)."""
        return self.energy_E + self.offset_h

    @cached_property
    def lc_Omega_sq(self) -> float:
        """Stiffness Omega^2 = 2(E + h) of the Levi-Civita linear oscillator."""
        return 2 * (self.energy_E + self.offset_h)

    @cached_property
    def brake_radius(self) -> float:
        """Outer turning radius sqrt(2E/om) of the radial (brake) orbit."""
        return math.sqrt(2 * self.energy_E / self.stiffness_om)


def _point(z):
    """``z`` if it is a complex number (NumPy's are), else DomainError."""
    if isinstance(z, complex):
        return z
    raise DomainError(f"a point is a complex number, got {type(z).__name__}")


def potential(z: complex, region: str, params: PhysParams) -> float:
    """Evaluate V_E or V_I at the point ``z``.

    Parameters
    ----------
    z : complex
        Evaluation point; any other type raises :class:`DomainError`.
    region : {"outer", "inner"}
        Which well to evaluate.
    """
    return _well(abs(_point(z)), region, params)


def _well(r: float, region: str, params: PhysParams) -> float:
    """V_E or V_I at the radius ``r``: the two formulas of the package."""
    if region == "outer":
        return params.energy_E - params.stiffness_om / 2 * r ** 2
    if region == "inner":
        if r == 0.0:
            raise SingularityError("inner potential is singular at z = 0")
        return params.kepler_energy + params.mass_mu / r
    raise DomainError(f"region must be 'outer' or 'inner', got {region!r}")


def _exterior_well(r: float, params: PhysParams) -> float:
    """V_E at a boundary point of radius ``r``; :class:`DomainError` at or
    beyond the braking radius."""
    ve = _well(r, "outer", params)
    if ve <= 0.0:
        raise DomainError(f"boundary radius {r:.6g} exceeds the braking "
                          f"radius {params.brake_radius:.6g}")
    return ve
