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
from typing import Mapping

import numpy as np

from .errors import DomainError, SingularityError

__all__ = ["PhysParams", "validate_params", "potential"]


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
    def outer_speed_unit(self) -> float:
        """Speed sqrt(2 V_E) = sqrt(2E - om) on the unit circle, outer side."""
        return math.sqrt(2 * self.energy_E - self.stiffness_om)

    @cached_property
    def inner_speed_unit(self) -> float:
        """Speed sqrt(2 V_I) = sqrt(2(E + h + mu)) on the unit circle, inner side."""
        return math.sqrt(2 * (self.energy_E + self.offset_h + self.mass_mu))

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


def validate_params(energy_E=None, offset_h=None, mass_mu=None,
                    stiffness_om=None) -> PhysParams:
    """Build a validated :class:`PhysParams` from raw values or a mapping.

    Accepts either four keyword/positional floats or a single mapping with the
    field names as keys.  Raises :class:`DomainError` when the constraints
    E + h > 0, mu > 0, om > 0, E > om are violated.
    """
    if isinstance(energy_E, Mapping):
        m = energy_E
        return PhysParams(float(m["energy_E"]), float(m["offset_h"]),
                          float(m["mass_mu"]), float(m["stiffness_om"]))
    return PhysParams(float(energy_E), float(offset_h), float(mass_mu),
                      float(stiffness_om))


def _as_complex(z):
    """Map a point given as complex, (2,) array, or (n,2) array to complex."""
    if isinstance(z, complex):
        return z
    arr = np.asarray(z)
    if arr.dtype.kind == "c":
        return arr if np.ndim(arr) else complex(arr)
    if arr.shape[-1] == 2:
        out = arr[..., 0] + 1j * arr[..., 1]
        return out if np.ndim(out) else complex(out)
    raise DomainError(f"cannot interpret point of shape {arr.shape}")


def potential(z, region: str, params: PhysParams):
    """Evaluate V_E or V_I at the point(s) ``z``.

    Parameters
    ----------
    z : complex, (2,) array, or (n, 2)/(n,) complex array
        Evaluation point(s).
    region : {"outer", "inner"}
        Which well to evaluate.
    """
    zc = z if type(z) is complex else _as_complex(z)
    if isinstance(zc, complex):
        r = abs(zc)
        singular = r == 0.0
    else:
        r = np.abs(zc)
        singular = np.any(r == 0)
    if region == "outer":
        return params.energy_E - params.stiffness_om / 2 * r ** 2
    if region == "inner":
        if singular:
            raise SingularityError("inner potential is singular at z = 0")
        return params.kepler_energy + params.mass_mu / r
    raise DomainError(f"region must be 'outer' or 'inner', got {region!r}")
