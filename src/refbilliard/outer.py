"""Harmonic-oscillator arcs outside the domain.

Outside the boundary the zero-energy motion follows z'' = -om z with
om = stiffness_om, i.e. an elliptic arc centred at the origin, traversed in
closed form.  This module provides the ellipse of an arc, the launch angle
of a unit-circle arc with a given polar-angle shift, the transit map from a
boundary point, and the two-point boundary problem for an exterior arc with
prescribed endpoints.
"""

from __future__ import annotations

import math

from ._util import difference_slope, march_to_zero, shoot, wrap_pi
from .arcs import ArcSegment, OuterConic, is_radial, osc_flow
from .boundary import PerturbationProfile, boundary
from .errors import DomainError, EnergyMismatch, TangentialCrossing
from .params import PhysParams, _exterior_well, _point


def _check_outer_energy(p0: complex, v0: complex, params: PhysParams) -> None:
    ve = _exterior_well(abs(p0), params)
    err = abs(0.5 * abs(v0) ** 2 - ve)
    if err > 1e-9 * max(ve, 1.0):
        raise EnergyMismatch(
            f"|v|^2/2 differs from the exterior potential by {err:.3g}")


def outer_shift_inverse(theta: float, params: PhysParams) -> float:
    """Launch angle whose exterior arc advances the polar angle by ``theta``.

    On the unit circle the arc launched at alpha advances the polar angle
    by f(I_c sin alpha), f the shift of :func:`circular_shift`: an odd,
    strictly increasing bijection (-pi/2, pi/2) ->
    (-pi, pi), so the inverse exists for |theta| < pi.  cot theta =
    (om/K + cos 2 alpha)/sin 2 alpha with K = 2E - om gives
    sin(2 alpha - theta) = (om/K) sin theta.
    """
    if abs(theta) >= math.pi:
        raise DomainError("exterior arcs advance the angle by less than pi")
    t = abs(theta)
    om = params.stiffness_om
    a = 0.5 * (t + math.asin(om / (2.0 * params.energy_E - om) *
                             math.sin(t)))
    return math.copysign(a, theta)


def outer_conic_of(p0: complex, v0: complex, params: PhysParams) -> OuterConic:
    """Oscillator ellipse through ``(p0, v0)`` (axes, tilt, degeneracy).

    The squared semi-axes are (E +- sqrt((E - om |p0|^2)^2 + om (p0.v0)^2))/om
    and the tilt is the major-axis direction, obtained from the rank-2 moment
    matrix p0 p0^T + q0 q0^T with q0 = v0/omega.  Radial arcs (zero angular
    momentum) collapse to a segment; they are flagged ``degenerate`` and keep
    the ray direction as tilt.  A point or velocity that is not a complex
    number raises :class:`DomainError`.
    """
    p0, v0 = _point(p0), _point(v0)
    _check_outer_energy(p0, v0, params)
    E, om = params.energy_E, params.stiffness_om
    w = params.omega
    r2 = abs(p0) ** 2
    dot = p0.real * v0.real + p0.imag * v0.imag
    disc = math.hypot(E - om * r2, math.sqrt(om) * dot)
    a_sq = (E + disc) / om
    b_sq = max((E - disc) / om, 0.0)
    if is_radial(p0, v0):
        return OuterConic(semi_major_sq=a_sq, semi_minor_sq=0.0,
                          tilt_angle=math.atan2(p0.imag, p0.real) % math.pi,
                          degenerate=True)
    # major-axis direction of the moment matrix p0 p0^T + q0 q0^T
    q0 = v0 / w
    sxx = p0.real ** 2 + q0.real ** 2
    syy = p0.imag ** 2 + q0.imag ** 2
    sxy = p0.real * p0.imag + q0.real * q0.imag
    tilt = (0.5 * math.atan2(2.0 * sxy, sxx - syy)) % math.pi
    return OuterConic(semi_major_sq=a_sq, semi_minor_sq=b_sq,
                      tilt_angle=tilt, degenerate=False)


def outer_transit(xi0: float, alpha: float, profile: PerturbationProfile,
                  params: PhysParams) -> ArcSegment:
    """Exterior arc from boundary angle ``xi0`` back to its first re-entry.

    ``alpha`` is the launch angle from the outward unit normal toward the
    unit tangent.  Returns the :class:`ArcSegment` carrying endpoints,
    kinetic duration and lifted polar sweep; :func:`outer_conic_of` gives
    its ellipse.
    """
    if abs(alpha) > math.pi / 2 - 1e-9:
        raise TangentialCrossing(
            "exterior launch is tangential; the transit is not defined")
    geom = boundary(xi0, profile)
    p0 = geom.point_c
    speed = math.sqrt(2.0 * _exterior_well(abs(p0), params))
    v0 = speed * (math.cos(alpha) * geom.normal_c +
                  math.sin(alpha) * geom.tangent_c)
    w = params.omega
    s1 = _exit_time(p0, v0, w, profile)
    z1, v1 = osc_flow(p0, v0, w, s1)
    xi1 = wrap_pi(math.atan2(z1.imag, z1.real))
    # positional, as every record of the map: keywords make it 2.5x as slow
    return ArcSegment("outer", p0, v0, z1, v1, s1,
                      _exterior_sweep(p0, v0, z1, w, s1), xi1, (w, s1))


def _exit_time(p0: complex, v0: complex, w: float,
               profile: PerturbationProfile):
    """Re-entry time of the exterior arc from ``(p0, v0)``.

    Marches the clearance h(s) = |z(s)| - rho(arg z(s)) from its zero at
    s = 0 with :func:`march_to_zero`.  While h > 0 the radius r = |z| lies
    between r_min, the larger of rlo and the semi-minor axis, and the
    apocenter radius, so the second derivative is
    bounded: r'' = (|v|^2 - r'^2)/r - w^2 r with |v|^2 = w^2 (2m - r^2),
    and (rho o arg z)'' = rho'' theta'^2 + rho' theta'' with theta' = w k/r^2
    (k = p0 x q0) and theta'' = -2 r' theta'/r.  On z(s) = p0 cos(ws) +
    q0 sin(ws), q0 = v0/w, the squared radius is m + R cos(2ws - phi); a
    step that ends above the annulus (|z| > rhi >= rho) moves on to the next
    time |z| falls back to rhi.  Raises :class:`TangentialCrossing` for a
    launch that does not leave the boundary, and
    :class:`EventDetectionFailed` when the march does not end within one
    period (it must: the arc is back at p0, moving outward, after one).
    """
    rlo, rhi = profile.radius_bounds
    d1, d2 = profile.derivative_bounds
    q0 = v0 / w
    pp = p0.real ** 2 + p0.imag ** 2
    qq = q0.real ** 2 + q0.imag ** 2
    dot = p0.real * q0.real + p0.imag * q0.imag
    k = p0.real * q0.imag - p0.imag * q0.real
    m = 0.5 * (pp + qq)
    R = math.hypot(0.5 * (pp - qq), dot)
    phi = math.atan2(dot, 0.5 * (pp - qq))
    # the ellipse never comes nearer the origin than its semi-minor axis
    r_min = max(rlo, math.sqrt(max(m - R, 0.0)))
    v_max = w * math.sqrt(max(2.0 * m - r_min * r_min, 0.0))
    th_max = w * abs(k) / (r_min * r_min)
    bound = (max(v_max * v_max / r_min, w * w * math.sqrt(m + R)) +
             d2 * th_max * th_max + 2.0 * d1 * v_max * th_max / r_min)
    c_hi = (rhi * rhi - m) / R if R > 0.0 else 1.0
    radius_jet, atan2 = profile.radius_jet, math.atan2

    def clearance(s):
        z, v = osc_flow(p0, v0, w, s)
        r = abs(z)
        rho, rhop, _ = radius_jet(atan2(z.imag, z.real))
        r_dot = (z.real * v.real + z.imag * v.imag) / r
        return r - rho, r_dot - rhop * w * k / (r * r)

    def skip(s):
        psi = 2.0 * w * s - phi
        if c_hi >= 1.0 or math.cos(psi) <= c_hi:
            return s
        a = math.acos(c_hi)
        n = math.ceil((psi - a) / (2.0 * math.pi))
        return (a + 2.0 * math.pi * n + phi) / (2.0 * w)

    slope = clearance(0.0)[1]
    if slope <= 0.0:
        raise TangentialCrossing(
            "exterior launch does not leave the boundary")
    return march_to_zero(clearance, 0.0, slope, bound, skip,
                         t_end=2.0 * math.pi / w)


def _exterior_sweep(p0: complex, v0: complex, z1: complex, w: float,
                    s1: float) -> float:
    """Lifted polar advance from ``p0`` to ``z1`` = z(s1) on the exterior arc.

    The ellipse is centred at the origin, so z(s + pi/w) = -z(s): every
    half period adds pi in the direction of the angular momentum, and the
    remainder is the angle from (-1)^n p0 to z1, which lies in [0, pi].
    """
    n = math.floor(s1 * w / math.pi)
    base = -p0 if n % 2 else p0
    sgn = 1.0 if p0.real * v0.imag - p0.imag * v0.real >= 0.0 else -1.0
    d = sgn * math.atan2(base.real * z1.imag - base.imag * z1.real,
                         base.real * z1.real + base.imag * z1.imag)
    if d < -math.pi / 2:
        d += 2.0 * math.pi
    return sgn * (n * math.pi + d)


def outer_arc_fixed_ends(xi0: float, xi1: float,
                         profile: PerturbationProfile,
                         params: PhysParams) -> ArcSegment:
    """Exterior arc from boundary angle ``xi0`` to the lifted angle ``xi1``.

    The arc advances the polar angle by exactly xi1 - xi0; an advance of
    pi - 1e-9 or more either way raises :class:`DomainError`.  The launch
    angle is shot (:func:`shoot`) on the transit's sweep from the circle's
    closed-form inverse.
    """
    delta = xi1 - xi0
    if abs(delta) >= math.pi - 1e-9:
        raise DomainError("exterior arcs advance the angle by less than pi")

    def resid(a):
        return outer_transit(xi0, a, profile, params).sweep - delta

    lim = math.pi / 2 - 1e-9
    alpha = shoot(difference_slope(resid, lim),
                  outer_shift_inverse(delta, params), -lim, lim, 1e-12,
                  "exterior arc")
    return outer_transit(xi0, alpha, profile, params)
