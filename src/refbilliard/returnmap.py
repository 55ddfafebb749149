"""The first return map on the interface in (xi, action) coordinates.

The map is composed geometrically on every profile: an exterior oscillator
arc, Snell refraction inward, an interior Kepler arc, and Snell refraction
outward.  The action I = (1/sqrt(2)) v . gamma'(xi) is conserved by
refraction and makes the map area preserving.  On the circle the map is the
integrable shift (xi, I) -> (xi + f(I) + g(I), I), with explicit f
(exterior) and g (interior) contributions and closed-form derivatives
(:func:`circular_shift`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Tuple

import numpy as np

from ._util import brentq, sign_change_brackets, wrap_pi
from .arcs import ArcSegment, lc_flow, osc_flow
from .boundary import BoundaryGeometry, PerturbationProfile, boundary
from .errors import DomainError, OutOfActionRange, TotalReflectionTermination
from .inner import levi_civita_propagate
from .outer import outer_transit
from .params import PhysParams, potential
from .refraction import refract_in, refract_out


class BoundaryState(NamedTuple):
    """Point of the section: boundary angle, canonical action, launch angle.

    Every state is outgoing: ``alpha`` is the exterior angle of the launch,
    from the outward normal toward the unit tangent.
    """

    xi: float
    action_I: float
    alpha: float


@dataclass(frozen=True)
class ShiftProfile:
    """Exterior/interior shift split of the circular map, at one action or
    elementwise over an array of them."""

    f_val: float
    g_val: float
    total: float
    f_prime: float
    g_prime: float
    total_prime: float


class MapResult(NamedTuple):
    """One application of the return map.

    ``delta_xi`` is the lifted angular advance (continuation of the circular
    shift f + g), and ``arcs`` holds the traversed (outer, inner) segments.
    """

    state: BoundaryState
    delta_xi: float
    arcs: Tuple[ArcSegment, ArcSegment]


def outgoing_state(xi: float, action_I: float, profile: PerturbationProfile,
                   params: PhysParams) -> BoundaryState:
    """Outgoing :class:`BoundaryState` at ``(xi, I)``; validates the action bound.

    Raises :class:`DomainError` for a non-finite ``xi`` and
    :class:`OutOfActionRange` unless |I| lies below the local bound (a NaN
    action does not).
    """
    if not math.isfinite(xi):
        raise DomainError(f"boundary angle must be finite, got {xi!r}")
    bound = _action_bound(xi, profile, params)
    s = action_I / bound
    if not abs(s) < 1.0:
        raise OutOfActionRange(
            f"|I| = {abs(action_I):.6g} exceeds the local bound {bound:.6g}")
    return BoundaryState(xi=wrap_pi(xi), action_I=action_I,
                         alpha=math.asin(s))


def _action_bound(xi: float, profile: PerturbationProfile,
                  params: PhysParams) -> float:
    """Local action bound sqrt(V_E) |gamma'(xi)|: the action of a tangential
    launch at ``xi``."""
    geom = boundary(xi, profile)
    return math.sqrt(potential(geom.point_c, "outer", params)) * geom.metric


def outgoing_velocity(state: BoundaryState, profile: PerturbationProfile,
                      params: PhysParams) -> complex:
    """Exterior velocity realizing ``state`` at its boundary point."""
    geom = boundary(state.xi, profile)
    speed = math.sqrt(2.0 * potential(geom.point_c, "outer", params))
    return speed * (math.cos(state.alpha) * geom.normal_c +
                    math.sin(state.alpha) * geom.tangent_c)


# -- circular closed form ------------------------------------------------------


def circular_shift(action_I, params: PhysParams) -> ShiftProfile:
    """Closed-form shift split f, g and derivatives on the unit circle, by
    ``math`` at a float or int, else elementwise by numpy over a float array
    (every field then has its shape; f and g may differ by an ulp, f' and g'
    do not).  Raises :class:`OutOfActionRange` unless every |I| < I_c (a NaN
    action is not)."""
    Ic = params.action_bound_Ic
    E, om = params.energy_E, params.stiffness_om
    Eh, mu = params.kepler_energy, params.mass_mu
    if isinstance(action_I, (int, float)):
        if not abs(action_I) < Ic:
            raise OutOfActionRange(
                f"|I| = {abs(action_I):.6g} is not below I_c = {Ic:.6g}")
        sqrt, atan2, asin, least = math.sqrt, math.atan2, math.asin, min
    else:
        action_I = np.asarray(action_I, dtype=float)
        if not np.all(np.abs(action_I) < Ic):
            raise OutOfActionRange("an action reaches the bound I_c")
        sqrt, atan2, asin, least = np.sqrt, np.arctan2, np.arcsin, np.minimum
    x = action_I * action_I
    f = atan2(2 * abs(action_I) * sqrt(Ic * Ic - x), E - 2 * x)
    # g = 2 acos(w) - 2 pi with w = (mu - 2x)/sqrt(4 Eh x + mu^2); the
    # half-angle form below stays accurate at w -> 1 (I -> 0)
    sA = sqrt(4 * Eh * x + mu * mu)
    half = x * (2 * Eh / (sA + mu) + 1.0) / sA
    g = -4.0 * asin(least(sqrt(half), 1.0))
    # f and g are odd, 0.0 at I = 0 (-0.0 where only I * I underflows)
    if isinstance(action_I, np.ndarray):
        s = np.sign(action_I)
        g = np.where(action_I == 0.0, 0.0, g)
        f, g, total = s * f, s * g, s * (f + g)
    else:
        if action_I == 0.0:
            g = 0.0
        elif action_I < 0:
            f, g = -f, -g
        total = f + g
    fp = _SQRT2 * (2 * E * E - (E + 2 * x) * om) / (
        sqrt(2 * E - om - 2 * x) * (E * E - 2 * om * x))
    gp = -(8 * Eh * x + 4 * Eh * mu + 4 * mu * mu) / (
        (4 * Eh * x + mu * mu) * sqrt(Eh + mu - x))
    return ShiftProfile(f_val=f, g_val=g, total=total, f_prime=fp,
                        g_prime=gp, total_prime=fp + gp)


def total_shift_grid(actions, params: PhysParams) -> np.ndarray:
    """The total circular shift f + g over an array of actions."""
    return circular_shift(np.asarray(actions, dtype=float), params).total


def twist_at_zero(params: PhysParams) -> float:
    """d(xi_1)/dI at I = 0: 2 sqrt(E - om/2)/E - 4 sqrt(E + h + mu)/mu."""
    return circular_shift(0.0, params).total_prime


def twist_critical_set(params: PhysParams) -> list:
    """Actions in (-I_c, I_c) where the twist d(xi_1)/dI changes sign.

    Works on the degree-5 polynomial p(x) = A^2 D^2 - B^2 C^2 in x = I^2,
    whose sign equals that of f' + g' on [0, I_c^2); roots are isolated by
    sign-change bracketing over 2^12 cells and polished by Brent's method,
    then mirrored to +-sqrt(x).  May be empty.
    """
    E, om = params.energy_E, params.stiffness_om
    Eh, mu = params.kepler_energy, params.mass_mu
    Ic2 = E - om / 2.0

    def p(x):
        A2 = 2.0 * (2 * E * E - (E + 2 * x) * om) ** 2
        B2 = (2 * E - om - 2 * x) * (E * E - 2 * om * x) ** 2
        C2 = (8 * Eh * x + 4 * Eh * mu + 4 * mu * mu) ** 2
        D2 = (4 * Eh * x + mu * mu) ** 2 * (Eh + mu - x)
        return A2 * D2 - B2 * C2

    xs = np.linspace(0.0, Ic2 * (1.0 - 1e-12), 4097)
    roots_x = [a if a == b else brentq(p, a, b, xtol=1e-13, rtol=8.9e-16)
               for a, b in sign_change_brackets(xs, p(xs))]
    rs = [math.sqrt(max(x, 0.0)) for x in roots_x]
    return sorted(rs + [-r for r in rs if r])


def fixed_point_thresholds(params: PhysParams) -> Tuple[float, float]:
    """(mu_bar, h_bar): parameter thresholds for non-homothetic fixed points.

    mu_bar is the positive root of (2E-om) mu^2/(8E^2) = E + mu, and h_bar
    evaluates that expression's excess at the actual mu, so h < h_bar (with
    the proposition's other hypotheses) guarantees a root of the total shift.
    """
    E, om = params.energy_E, params.stiffness_om
    mu = params.mass_mu
    mu_bar = (4 * E * E + math.sqrt(8 * E ** 3 * (4 * E - om))) / (2 * E - om)
    h_bar = (2 * E - om) * mu * mu / (8 * E * E) - (E + mu)
    return mu_bar, h_bar


# -- the map itself ------------------------------------------------------------


def return_map(state: BoundaryState, profile: PerturbationProfile,
               params: PhysParams) -> MapResult:
    """Apply the first return map to an outgoing boundary state.

    Composes the exterior arc, the refractions and the interior arc on
    every profile, the circle included.  Raises
    :class:`TotalReflectionTermination` when the interior ray exceeds the
    critical angle at its exit point, and :class:`TangentialCrossing` (from
    :func:`outer_transit`) on a launch within 1e-9 of the tangent.
    """
    outer_arc = outer_transit(state.xi, state.alpha, profile, params)
    z_in, v_in = _refract_entry(outer_arc, profile, params)
    inner_arc = levi_civita_propagate(z_in, v_in, params, profile)

    geom2 = boundary(inner_arc.xi1, profile)
    b_out = _angle_from_normal(inner_arc.v1, geom2, entering=False)
    res_out = refract_out(b_out, geom2.point_c, params)
    if not res_out.refracted:
        raise TotalReflectionTermination(
            "interior ray exceeds the critical angle", xi=inner_arc.xi1,
            beta=b_out)
    alpha1 = res_out.out_angle

    ve1 = potential(geom2.point_c, "outer", params)
    I1 = math.sqrt(ve1) * math.sin(alpha1) * geom2.metric
    k = inner_arc.conic.ang_momentum_k
    sigma = math.copysign(1.0, k) if k else 0.0
    delta = outer_arc.sweep + inner_arc.sweep - 2.0 * math.pi * sigma
    new = BoundaryState(xi=inner_arc.xi1, action_I=I1, alpha=alpha1)
    return MapResult(state=new, delta_xi=delta, arcs=(outer_arc, inner_arc))


def _refract_entry(outer_arc: ArcSegment, profile: PerturbationProfile,
                   params: PhysParams) -> Tuple[complex, complex]:
    """(point, interior velocity) where the exterior arc crosses inward.

    Raises :class:`TotalReflectionTermination` when Snell's law reflects the
    arc off the interface instead.
    """
    geom = boundary(outer_arc.xi1, profile)
    a_in = _angle_from_normal(outer_arc.v1, geom, entering=True)
    res = refract_in(a_in, geom.point_c, params)
    if not res.refracted:
        raise TotalReflectionTermination(
            "exterior ray reflects off the interface", xi=outer_arc.xi1,
            beta=a_in)
    beta = res.out_angle
    speed = math.sqrt(2.0 * potential(geom.point_c, "inner", params))
    return geom.point_c, speed * (-math.cos(beta) * geom.normal_c +
                                  math.sin(beta) * geom.tangent_c)


def tangent_map(state: BoundaryState, result: MapResult,
                profile: PerturbationProfile,
                params: PhysParams) -> np.ndarray:
    """Exact derivative DF = d(xi_1 lifted, I_1)/d(xi_0, I_0) of one return.

    ``result`` is ``return_map(state, ...)``; DF is built from its arcs
    alone, with no further map call (on the circle it is the shear
    [[1, f' + g'], [0, 1]] to rounding).  The two tangent vectors (dz, dv)
    of the launch are pushed through the linear exterior flow, Snell
    refraction (tangential velocity kept, normal part from energy) and the
    linear interior flow in Levi-Civita coordinates.  Each
    exit time moves by the implicit-function correction -grad(clearance).dx
    / (d clearance/dt), defined because the crossing finder certified a
    transversal exit.  Finally I_1 = v . gamma'(xi_1)/sqrt(2).  det DF = 1:
    the map preserves area.
    """
    outer, inner = result.arcs
    om, w, mu = params.stiffness_om, params.omega, params.mass_mu

    # launch: v0 = a t + b n, a = sqrt(2) I0/|gamma'|, b^2 = 2 V_E - a^2
    _, g1, g2 = _boundary_jet(state.xi, profile)
    m = abs(g1)
    t = g1 / m
    dm = _dot(t, g2)
    dt = (g2 - t * dm) / m
    a = _SQRT2 * state.action_I / m
    b = _dot(outer.v0, -1j * t)
    da_x, da_I = -a * dm / m, _SQRT2 / m
    db_x = (-om * _dot(outer.p0, g1) - a * da_x) / b
    db_I = -a * da_I / b
    launch = ((g1, (da_x - 1j * db_x) * t + (a - 1j * b) * dt),
              (0j, (da_I - 1j * db_I) * t))

    # exterior exit: clearance h = |z| - rho(arg z)
    s1 = outer.duration
    z1, v1 = outer.p1, outer.v1
    r1sq = _dot(z1, z1)
    rp, gm1, gm2 = _boundary_jet(math.atan2(z1.imag, z1.real), profile)
    grad_h = z1 / math.sqrt(r1sq) - rp * 1j * z1 / r1sq
    h_dot = _dot(grad_h, v1)
    # Snell at the interface, on the inner side: v = T t + N n, N < 0
    mm = abs(gm1)
    tm = gm1 / mm
    dtm = (gm2 - tm * _dot(tm, gm2)) / mm
    T = _dot(v1, tm)
    N = _dot(inner.v0, -1j * tm)
    # interior flow in Levi-Civita coordinates: clearance rho(2 arg w) - |w|^2
    w0, wd0, Om, tau1 = inner.par
    w1, wd1 = lc_flow(w0, wd0, Om, tau1)
    q1 = _dot(w1, w1)
    z2, v2 = w1 * w1, wd1 / w1.conjugate()
    rp, ge1, ge2 = _boundary_jet(math.atan2(z2.imag, z2.real), profile)
    grad_g = rp * 2j * w1 / q1 - 2.0 * w1
    g_dot = _dot(grad_g, wd1)
    z2sq = _dot(z2, z2)

    cols = []
    for dz, dv in launch:
        dz, dv = osc_flow(dz, dv, w, s1)
        ds = -_dot(grad_h, dz) / h_dot
        dz, dv = dz + v1 * ds, dv - om * z1 * ds
        dxm = _dot(1j * z1, dz) / r1sq
        dT = _dot(dv, tm) + _dot(v1, dtm) * dxm
        dN = (-mu * _dot(z1, dz) / r1sq ** 1.5 - T * dT) / N
        dv = (dT - 1j * dN) * tm + (T - 1j * N) * dtm * dxm
        dw = dz / (2.0 * w0)
        dw, dwd = lc_flow(dw, dv * w0.conjugate() + inner.v0 * dw.conjugate(),
                          Om, tau1)
        dtau = -_dot(grad_g, dw) / g_dot
        dw, dwd = dw + wd1 * dtau, dwd + Om * Om * w1 * dtau
        dz = 2.0 * w1 * dw
        dv = (dwd - v2 * dw.conjugate()) / w1.conjugate()
        dx2 = _dot(1j * z2, dz) / z2sq
        cols.append((dx2, (_dot(dv, ge1) + _dot(v2, ge2) * dx2) / _SQRT2))
    return np.array([[cols[0][0], cols[1][0]], [cols[0][1], cols[1][1]]])


_SQRT2 = math.sqrt(2.0)


def _dot(a: complex, b: complex) -> float:
    """Euclidean inner product of two plane vectors given as complex."""
    return a.real * b.real + a.imag * b.imag


def _boundary_jet(xi: float, profile: PerturbationProfile):
    """(rho', gamma'(xi), gamma''(xi)) of gamma = rho e^{i xi}."""
    rho, rp, rpp = profile.radius_jet(xi)
    e = complex(math.cos(xi), math.sin(xi))
    return rp, (rp + 1j * rho) * e, (rpp - rho + 2j * rp) * e


def _angle_from_normal(v: complex, geom: BoundaryGeometry,
                       entering: bool) -> float:
    tau = v.real * geom.tangent_c.real + v.imag * geom.tangent_c.imag
    nu = v.real * geom.normal_c.real + v.imag * geom.normal_c.imag
    return math.atan2(tau, -nu if entering else nu)
