"""Snell's law at the interface between the two force fields.

Angles are measured from the normal of the interface toward the tangent, and
carry the sign of the tangential velocity component, which is conserved in
magnitude-scaled form: sqrt(V_E) sin(alpha) = sqrt(V_I) sin(beta).  Since the
interior potential dominates at the boundary, outgoing rays steeper than the
critical angle are totally reflected and the transit terminates.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

from .errors import DomainError
from .params import PhysParams, _as_complex, potential

#: margin around the critical angle treated as total reflection
CRITICAL_TOL = 1e-10


class RefractionResult(NamedTuple):
    """Outcome of one interface crossing.

    ``outcome`` is "refracted" or "total_reflection"; ``out_angle`` is the
    transmitted angle (None on total reflection).
    """

    outcome: str
    out_angle: Optional[float]

    @property
    def refracted(self) -> bool:
        return self.outcome == "refracted"


def _speeds(point, params: PhysParams):
    z = point if type(point) is complex else _as_complex(point)
    ve = potential(z, "outer", params)
    vi = potential(z, "inner", params)
    if ve <= 0.0:
        raise DomainError(
            f"interface point at radius {abs(z):.6g} lies beyond the "
            f"braking radius {params.brake_radius:.6g}")
    return ve, vi


def critical_angle(point, params: PhysParams) -> float:
    """Interior angle beyond which outgoing rays are totally reflected.

    Equals arcsin(sqrt(V_E/V_I)) at the given interface point (pi/2 if the
    exterior potential dominates there and every ray passes).
    """
    ve, vi = _speeds(point, params)
    ratio = math.sqrt(ve / vi)
    return math.asin(ratio) if ratio < 1.0 else math.pi / 2


def refract_in(alpha: float, point, params: PhysParams) -> RefractionResult:
    """Refract an incoming exterior ray (angle ``alpha``) into the interior."""
    if abs(alpha) > math.pi / 2 + 1e-15:
        raise DomainError("incidence angle must lie in [-pi/2, pi/2]")
    ve, vi = _speeds(point, params)
    s = math.sqrt(ve / vi) * math.sin(alpha)
    if abs(s) >= 1.0 - CRITICAL_TOL:
        return RefractionResult("total_reflection", None)
    return RefractionResult("refracted", math.asin(s))


def refract_out(beta: float, point, params: PhysParams) -> RefractionResult:
    """Refract an outgoing interior ray (angle ``beta``) into the exterior.

    Rays within ``CRITICAL_TOL`` of the critical angle (or beyond) are
    reported as total reflection.
    """
    if abs(beta) > math.pi / 2 + 1e-15:
        raise DomainError("incidence angle must lie in [-pi/2, pi/2]")
    ve, vi = _speeds(point, params)
    ratio = math.sqrt(ve / vi)
    if ratio < 1.0 and abs(beta) >= math.asin(ratio) - CRITICAL_TOL:
        return RefractionResult("total_reflection", None)
    s = math.sqrt(vi / ve) * math.sin(beta)
    if abs(s) >= 1.0 - CRITICAL_TOL:
        return RefractionResult("total_reflection", None)
    return RefractionResult("refracted", math.asin(s))
