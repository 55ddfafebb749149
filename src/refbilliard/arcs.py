"""Conic records and the common arc-segment representation.

Every piece of a billiard orbit is one conic arc: an origin-centered ellipse
arc outside the domain, a Kepler hyperbola arc inside, or the degenerate
radial ejection-collision segment.  :class:`ArcSegment` stores the closed-form
parametrization so that sampling, quadrature, and extremal radii never require
re-integration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from scipy.optimize import minimize_scalar

from .params import PhysParams

__all__ = ["OuterConic", "InnerConic", "ArcSegment"]


@dataclass(frozen=True)
class OuterConic:
    """Origin-centered ellipse swept by an outer harmonic arc.

    ``semi_major_sq``/``semi_minor_sq`` are a^2 >= b^2 with
    a^2 + b^2 = 2E/om and a^2 b^2 = k^2/om (k the angular momentum);
    ``tilt_angle`` is the polar angle of the major axis (mod pi).  A radial
    (zero angular momentum) arc collapses to a segment: ``degenerate`` is set
    and the tilt is the line direction.
    """

    semi_major_sq: float
    semi_minor_sq: float
    tilt_angle: float
    duration_T: Optional[float] = None
    endpoints: Optional[Tuple[complex, complex]] = None
    degenerate: bool = False


@dataclass(frozen=True)
class InnerConic:
    """Kepler hyperbola branch of an inner arc.

    ``ang_momentum_k`` is signed (positive = counterclockwise);
    ``semilatus_p`` = k^2/mu, ``eccentricity_e`` = sqrt(1 + 2(E+h)k^2/mu^2) > 1,
    ``pericenter_r`` = p/(1+e), ``pericenter_angle`` the polar angle of the
    pericenter direction.  ``winding`` is the index of the closed curve formed
    by the arc plus the shortest boundary chord; ``is_collision`` marks the
    k = 0 ejection-collision ray.
    """

    ang_momentum_k: float
    semilatus_p: float
    eccentricity_e: float
    pericenter_r: float
    pericenter_angle: float
    winding: int = 0
    is_collision: bool = False


@dataclass
class ArcSegment:
    """One conic arc with its closed-form parametrization.

    ``region`` is "outer" or "inner"; ``chart`` records how the arc was
    produced ("closed" conic propagation or "lc" Levi-Civita).  ``duration``
    is the kinetic (physical) time of traversal, ``sweep`` the lifted polar
    angle advance from start to end, and ``xi0``/``xi1`` the wrapped boundary
    angles of the endpoints (equal for brake/collision arcs).

    The parametrization payload ``par`` depends on the region/chart:

    - outer:          (omega, T)                     u in [0,1] -> s = u T
    - inner "closed": (e, p, th_peri, sgn, f0, f1)   u -> f = f0 + u (f1-f0)
    - inner "lc":     (w0, wd0, Omega, tau1)         u -> tau = u tau1
    """

    region: str
    chart: str
    p0: complex
    v0: complex
    p1: complex
    v1: complex
    duration: float
    sweep: float
    xi0: float
    xi1: float
    conic: object
    par: tuple
    params: PhysParams

    # -- closed-form geometry along the arc -----------------------------------

    def point(self, u):
        """Position z(u) for u in [0, 1] (scalar or array), as complex."""
        u = np.asarray(u, dtype=float)
        if self.region == "outer":
            w, T = self.par
            s = u * T
            z = self.p0 * np.cos(w * s) + self.v0 * np.sin(w * s) / w
        elif self.chart == "closed":
            e, p, thp, sgn, f0, f1 = self.par
            f = f0 + u * (f1 - f0)
            r = p / (1 + e * np.cos(f))
            z = r * np.exp(1j * (thp + sgn * f))
        else:
            w0, wd0, Om, tau1 = self.par
            tau = u * tau1
            w = w0 * np.cosh(Om * tau) + wd0 * np.sinh(Om * tau) / Om
            z = w * w
        return z if np.ndim(z) else complex(z)

    def dpoint_du(self, u):
        """dz/du along the arc (for arclength/quadrature work)."""
        u = np.asarray(u, dtype=float)
        if self.region == "outer":
            w, T = self.par
            s = u * T
            dz = (-self.p0 * w * np.sin(w * s) + self.v0 * np.cos(w * s)) * T
        elif self.chart == "closed":
            e, p, thp, sgn, f0, f1 = self.par
            df = f1 - f0
            f = f0 + u * df
            den = 1 + e * np.cos(f)
            r = p / den
            drdf = p * e * np.sin(f) / den ** 2
            dz = (drdf + 1j * sgn * r) * np.exp(1j * (thp + sgn * f)) * df
        else:
            w0, wd0, Om, tau1 = self.par
            tau = u * tau1
            w = w0 * np.cosh(Om * tau) + wd0 * np.sinh(Om * tau) / Om
            wd = w0 * Om * np.sinh(Om * tau) + wd0 * np.cosh(Om * tau)
            dz = 2 * w * wd * tau1
        return dz if np.ndim(dz) else complex(dz)

    def ds_du(self, u):
        """Kinetic-time derivative ds/du along the arc."""
        u = np.asarray(u, dtype=float)
        if self.region == "outer":
            _, T = self.par
            out = np.full_like(u, T)
        elif self.chart == "closed":
            e, p, thp, sgn, f0, f1 = self.par
            f = f0 + u * (f1 - f0)
            r = p / (1 + e * np.cos(f))
            k = abs(self.conic.ang_momentum_k)
            out = r ** 2 / k * abs(f1 - f0)
        else:
            w0, wd0, Om, tau1 = self.par
            tau = u * tau1
            w = w0 * np.cosh(Om * tau) + wd0 * np.sinh(Om * tau) / Om
            out = 2 * np.abs(w) ** 2 * tau1
        return out if np.ndim(out) else float(out)

    def velocity(self, u):
        """Physical velocity z'(s) at parameter u."""
        u = np.asarray(u, dtype=float)
        if self.region == "outer":
            w, T = self.par
            s = u * T
            v = -self.p0 * w * np.sin(w * s) + self.v0 * np.cos(w * s)
        elif self.chart == "closed":
            dz = self.dpoint_du(u)
            v = np.asarray(dz) / self.ds_du(u)
        else:
            w0, wd0, Om, tau1 = self.par
            tau = u * tau1
            w = w0 * np.cosh(Om * tau) + wd0 * np.sinh(Om * tau) / Om
            wd = w0 * Om * np.sinh(Om * tau) + wd0 * np.cosh(Om * tau)
            v = wd * w / np.abs(w) ** 2
        v = np.asarray(v)
        return v if np.ndim(v) else complex(v)

    def sample(self, n: int) -> np.ndarray:
        """(n, 2) array of positions at n uniform parameter values."""
        z = self.point(np.linspace(0.0, 1.0, int(n)))
        return np.column_stack([np.real(z), np.imag(z)])

    def extremal_radius(self) -> Tuple[float, float]:
        """(radius, polar angle) of the arc's apocenter (outer) / pericenter (inner).

        Located numerically on the parametrized arc (coarse scan plus bounded
        scalar minimization), independently of any caustic formula.
        """
        sign = -1.0 if self.region == "outer" else 1.0

        def rad(u):
            return sign * abs(self.point(float(np.clip(u, 0.0, 1.0))))

        us = np.linspace(0.0, 1.0, 129)
        rs = sign * np.abs(self.point(us))
        i = int(np.argmin(rs))
        lo, hi = us[max(i - 1, 0)], us[min(i + 1, len(us) - 1)]
        if hi - lo < 1e-12:
            u_star = us[i]
        else:
            res = minimize_scalar(rad, bounds=(lo, hi), method="bounded",
                                  options={"xatol": 1e-13})
            u_star = float(res.x)
        z = self.point(u_star)
        return abs(z), math.atan2(z.imag, z.real)
