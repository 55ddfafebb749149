"""Conic records and the common arc-segment representation.

Every piece of a billiard orbit is one conic arc: an origin-centered ellipse
arc outside the domain, a Kepler hyperbola arc inside, or the degenerate
radial ejection-collision segment.  :class:`ArcSegment` stores the closed-form
parametrization so that sampling and extremal radii never require
re-integration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Tuple

import numpy as np

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
    degenerate: bool = False


class InnerConic(NamedTuple):
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

    ``region`` is "outer" or "inner"; ``chart`` records the coordinates the
    arc was propagated in: "global" (Cartesian) outside, "lc" (Levi-Civita)
    inside.  ``duration`` is the kinetic (physical) time of traversal,
    ``sweep`` the lifted polar angle advance from start to end, and
    ``xi0``/``xi1`` the wrapped boundary angles of the endpoints (equal for
    brake/collision arcs).  ``conic`` is the :class:`InnerConic` of an inner
    arc and None on an outer one (:func:`refbilliard.outer.outer_conic_of`
    gives its ellipse).

    The parametrization payload ``par`` depends on the region:

    - outer: (omega, T)               u in [0,1] -> s = u T
    - inner: (w0, wd0, Omega, tau1)   u -> tau = u tau1, w^2 = z
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
        """Position z(u) for u in [0, 1] (scalar or array), as complex, from
        the region's closed-form flow."""
        u = np.asarray(u, dtype=float)
        if self.region == "outer":
            w, T = self.par
            s = u * T
            z = self.p0 * np.cos(w * s) + self.v0 * np.sin(w * s) / w
        else:
            w0, wd0, Om, tau1 = self.par
            w = lc_flow(w0, wd0, Om, u * tau1)[0]
            z = w * w
        return z if np.ndim(z) else complex(z)

    def sample(self, n: int) -> np.ndarray:
        """(n, 2) array of positions at n uniform parameter values."""
        z = self.point(np.linspace(0.0, 1.0, int(n)))
        return np.column_stack([np.real(z), np.imag(z)])

    def extremal_radius(self) -> Tuple[float, float]:
        """(radius, polar angle) of the arc's apocenter (outer) / pericenter (inner).

        In closed form: the outer ellipse z = p0 cos(ws) + (v0/w) sin(ws)
        has |z|^2 = m + R cos(2ws - phi), largest at 2ws = phi; inside,
        |w|^2 = A cosh 2 Om tau + B sinh 2 Om tau + C is least at
        tanh 2 Om tau = -B/A.
        When that parameter is off the arc, the extremum is an endpoint.
        """
        us = [0.0, 1.0]
        if self.region == "outer":
            w, T = self.par
            p0, q0 = self.p0, self.v0 / w
            dot = p0.real * q0.real + p0.imag * q0.imag
            phi = math.atan2(dot, 0.5 * (abs(p0) ** 2 - abs(q0) ** 2))
            us.append(phi % (2.0 * math.pi) / (2.0 * w * T))
        else:
            w0, wd0, Om, tau1 = self.par
            A = 0.5 * (abs(w0) ** 2 + abs(wd0) ** 2 / Om ** 2)
            B = (w0.conjugate() * wd0).real / Om
            us.append(-math.atanh(B / A) / (2.0 * Om * tau1))
        sign = 1.0 if self.region == "outer" else -1.0
        z = max((self.point(u) for u in us if 0.0 <= u <= 1.0),
                key=lambda z: sign * abs(z))
        return abs(z), math.atan2(z.imag, z.real)


def lc_flow(w0, wd0, Om, tau):
    """Levi-Civita flow (w, dw/dtau) at fictitious time(s) ``tau``.

    In the chart w^2 = z the interior motion is the linear oscillator
    w'' = Om^2 w, so w = w0 cosh(Om tau) + wd0 sinh(Om tau)/Om.  A float
    ``tau`` takes a math-only path; anything else is treated as an array.
    """
    if type(tau) is float:
        ch, sh = math.cosh(Om * tau), math.sinh(Om * tau)
    else:
        x = Om * np.asarray(tau, dtype=float)
        ch, sh = np.cosh(x), np.sinh(x)
    return w0 * ch + wd0 * sh / Om, w0 * Om * sh + wd0 * ch
