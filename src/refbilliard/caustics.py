"""Caustics of the two-medium billiard.

In the integrable round-boundary case every orbit of fixed action is tangent
to two circles: an exterior one at the apocenters of the oscillator arcs and
an interior one at the pericenters of the Kepler arcs.  Under a boundary
perturbation the tangent circles deform into the envelopes of the one-
parameter conic families attached to an invariant curve I(xi); this module
computes the circular radii in closed form, and the perturbed envelopes
from the envelope system {G = 0, dG/dzeta = 0}, with dG/dzeta a centred
difference across the family, also in closed form (Bruce & Giblin, *Curves
and Singularities*, 1992): for the centred exterior ellipses the difference
is a homogeneous quadratic form, two lines through the centre that meet the
middle ellipse; for the interior focal conics r + e.u = p it is a line
that meets the middle conic at the roots of one quadratic.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Tuple, Union

import numpy as np

from .arcs import InnerConic, OuterConic, is_radial
from .boundary import PerturbationProfile, boundary
from .errors import DegenerateEnvelope, OutOfActionRange
from .inner import kepler_elements
from .orbits import OrbitTrace
from .outer import outer_conic_of, outer_transit
from .params import PhysParams
from .returnmap import (_refract_entry, circular_shift, outgoing_state,
                        outgoing_velocity)

ActionCurve = Union[float, Callable[[float], float]]


@dataclass(frozen=True)
class CausticCurve:
    """Sampled envelope of the conic family attached to an invariant curve.

    ``samples`` has one row ``(zeta, x, y)`` per node of a uniform grid of
    the boundary parameter ``zeta``, closed (the last row sits at
    ``zeta = 2 pi``).
    """

    kind: str
    samples: np.ndarray
    max_envelope_residual: float


def circular_caustic_radii(I0: float, params: PhysParams
                           ) -> Tuple[float, float]:
    """Radii ``(R_E, R_I)`` of the exterior/interior tangent circles.

    The exterior arc of action ``I0`` is an origin-centered ellipse of
    semi-major axis ``R_E`` with ``R_E^2 = (E + sqrt(E^2 - 2 I0^2 om))/om``;
    the interior hyperbola has pericenter ``R_I = p/(1 + e)`` with
    ``p = 2 I0^2/mu`` and ``e = sqrt(1 + 4 I0^2 (E + h)/mu^2)``.  Radial
    orbits (``I0 = 0``) touch no circle and are rejected.
    """
    E, om = params.energy_E, params.stiffness_om
    mu, Eh = params.mass_mu, params.kepler_energy
    Ic = params.action_bound_Ic
    if not 0.0 < abs(I0) < Ic:
        raise OutOfActionRange(
            f"tangent circles require 0 < |I0| < {Ic:.6g}, got {I0:.6g}")
    x = I0 * I0
    R_E = math.sqrt((E + math.sqrt(E * E - 2.0 * x * om)) / om)
    p = 2.0 * x / mu
    e = math.sqrt(1.0 + 4.0 * x * Eh / (mu * mu))
    return R_E, p / (1.0 + e)


# -- conic families along an invariant curve -------------------------------------


def _as_action_function(invariant_curve: ActionCurve) -> Callable[[float], float]:
    if callable(invariant_curve):
        return lambda z: float(invariant_curve(z))
    value = float(invariant_curve)
    return lambda z: value


def _outer_conic_at(zeta: float, action_I: float,
                    profile: PerturbationProfile,
                    params: PhysParams) -> OuterConic:
    state = outgoing_state(zeta, action_I, profile, params)
    geom = boundary(zeta, profile)
    v0 = outgoing_velocity(state, profile, params)
    return outer_conic_of(geom.point_c, v0, params)


def _inner_conic_at(zeta: float, action_I: float,
                    profile: PerturbationProfile,
                    params: PhysParams) -> InnerConic:
    state = outgoing_state(zeta, action_I, profile, params)
    arc = outer_transit(zeta, state.alpha, profile, params)
    z_in, v_in = _refract_entry(arc, profile, params)
    return kepler_elements(z_in, v_in, params)


def _outer_axes(conic: OuterConic) -> Tuple[float, float, float, float]:
    """(1/a^2, 1/b^2, cos, sin of the tilt) of an exterior ellipse."""
    if conic.degenerate or conic.semi_minor_sq <= 1e-14:
        raise DegenerateEnvelope(
            "a radial exterior arc supports no envelope")
    return (1.0 / conic.semi_major_sq, 1.0 / conic.semi_minor_sq,
            math.cos(conic.tilt_angle), math.sin(conic.tilt_angle))


def _eval_outer(conic: OuterConic, x: float, y: float) -> float:
    # in the principal frame: near the tangency point the (A, B, C) form
    # sums terms of size a^2/b^2 that cancel
    ia, ib, ct, st = _outer_axes(conic)
    u = x * ct + y * st
    w = -x * st + y * ct
    return u * u * ia + w * w * ib - 1.0


def _outer_form(conic: OuterConic) -> Tuple[float, float, float]:
    """(A, B, C) of the exterior ellipse A x^2 + 2 B xy + C y^2 = 1."""
    ia, ib, ct, st = _outer_axes(conic)
    return (ct * ct * ia + st * st * ib, ct * st * (ia - ib),
            st * st * ia + ct * ct * ib)


def _outer_points(stencil) -> list:
    """Solutions of the discrete envelope system of the exterior family.

    The level functions differ across the stencil by the homogeneous form
    dA x^2 + 2 dB xy + dC y^2, which vanishes on (at most) two lines through
    the centre; each meets the middle ellipse at two opposite points.
    """
    (Am, Bm, Cm), (A, B, C), (Ap, Bp, Cp) = map(_outer_form, stencil)
    dA, dB, dC = Ap - Am, Bp - Bm, Cp - Cm
    disc = dB * dB - dA * dC
    if disc < 0.0:
        return []
    # the null directions (u, v), by the stable quadratic formula
    q = -(dB + math.copysign(math.sqrt(disc), dB))
    points = []
    for u, v in ((q, dA), (dC, q)):
        Q = A * u * u + 2.0 * B * u * v + C * v * v
        if Q > 0.0:
            s = 1.0 / math.sqrt(Q)
            points += [(s * u, s * v), (-s * u, -s * v)]
    return points


def _inner_form(conic: InnerConic) -> Tuple[complex, float]:
    """(k, p) of the interior focal conic |z| + k.z = p, k = e exp(i w)."""
    if conic.is_collision:
        raise DegenerateEnvelope(
            "a collision ray supports no envelope")
    return (conic.eccentricity_e * cmath.exp(1j * conic.pericenter_angle),
            conic.semilatus_p)


def _eval_inner(conic: InnerConic, x: float, y: float) -> float:
    k, p = _inner_form(conic)
    return math.hypot(x, y) + k.real * x + k.imag * y - p


def _inner_points(stencil) -> list:
    """Solutions of the discrete envelope system of the interior family.

    The level function |z| + k.z - p differs across the stencil by the
    line dk.z = dp.  On it, z = z0 + t n with z0 the foot of the centre and
    n the unit direction, and squaring |z| = p - k.z gives a quadratic in t;
    roots with p - k.z < 0 come from the squaring and are dropped.
    """
    (km, pm), (k, p), (kp, pp) = map(_inner_form, stencil)
    dk, dp = kp - km, pp - pm
    if dk == 0.0:
        return []
    z0, n = dp / dk.conjugate(), 1j * dk / abs(dk)
    P = p - (k.conjugate() * z0).real
    c = (k.conjugate() * n).real
    # (1 - c^2) t^2 + 2 P c t + |z0|^2 - P^2 = 0
    alpha, beta, gamma = 1.0 - c * c, P * c, abs(z0) ** 2 - P * P
    disc = beta * beta - alpha * gamma
    if disc < 0.0:
        return []
    Q = -(beta + math.copysign(math.sqrt(disc), beta))
    ts = ([Q / alpha] if alpha else []) + ([gamma / Q] if Q else [])
    zs = [z0 + t * n for t in ts if P - c * t >= 0.0]
    return [(z.real, z.imag) for z in zs]


#: step of the centred difference of G across the conic family
_FD_STEP = 1e-5


def envelope_equations(zeta: float, xy: Tuple[float, float],
                       invariant_curve: ActionCurve, kind: str,
                       profile: PerturbationProfile, params: PhysParams
                       ) -> Tuple[float, float]:
    """Envelope system ``(G, dG/dzeta)`` at a candidate point.

    ``G`` is the level function of the conic attached to boundary parameter
    ``zeta`` (exterior ellipse or interior focal hyperbola) and the second
    component is the centered difference of ``G`` across the family, of
    step 1e-5 (the one :func:`perturbed_caustic` solves).  Both vanish, to
    rounding, on a :class:`CausticCurve`.
    """
    I_of = _as_action_function(invariant_curve)
    conic_at, evaluate, _ = _family(kind)
    return _system(_stencil(zeta, I_of, conic_at, profile, params), evaluate,
                   float(xy[0]), float(xy[1]))


def _stencil(zeta: float, I_of, conic_at, profile: PerturbationProfile,
             params: PhysParams) -> tuple:
    """The conics at zeta - h, zeta and zeta + h, h = 1e-5: the centred
    difference of G across the family."""
    return (conic_at(zeta - _FD_STEP, I_of(zeta - _FD_STEP), profile, params),
            conic_at(zeta, I_of(zeta), profile, params),
            conic_at(zeta + _FD_STEP, I_of(zeta + _FD_STEP), profile, params))


def _system(stencil, evaluate, x: float, y: float) -> Tuple[float, float]:
    Gm, G0, Gp = (evaluate(conic, x, y) for conic in stencil)
    return G0, (Gp - Gm) / (2.0 * _FD_STEP)


def _family(kind: str):
    if kind == "outer":
        return _outer_conic_at, _eval_outer, _outer_points
    if kind == "inner":
        return _inner_conic_at, _eval_inner, _inner_points
    raise ValueError(f"kind must be 'outer' or 'inner', got {kind!r}")


# -- the envelope, node by node -------------------------------------------------


def _circular_seed(zeta: float, action_I: float, kind: str, conic,
                   params: PhysParams) -> Tuple[float, float]:
    if kind == "inner":
        r = conic.pericenter_r
        th = conic.pericenter_angle
        return r * math.cos(th), r * math.sin(th)
    a = math.sqrt(conic.semi_major_sq)
    want = zeta + 0.5 * circular_shift(action_I, params).f_val
    th = conic.tilt_angle
    if math.cos(th - want) < 0.0:
        th += math.pi
    return a * math.cos(th), a * math.sin(th)


def perturbed_caustic(invariant_curve: ActionCurve, kind: str,
                      profile: PerturbationProfile, params: PhysParams,
                      n_base: int = 512) -> CausticCurve:
    """Envelope of the conic family carried by an invariant curve.

    For each boundary parameter ``zeta`` on a closed grid of ``n_base``
    intervals the arc launched at ``(zeta, I(zeta))`` supports a conic; the
    envelope point solves {G = 0, dG/dzeta = 0} in closed form, and of its
    solutions the one nearest the circular tangency point of that conic is
    kept.  Raises :class:`DegenerateEnvelope` when a node has no real
    solution, or when the kept one lies more than a quarter of the tangent
    circle's radius off that circle.  The interior family refracts the
    exterior arc's arrival state, so its parameter is the launch angle of
    the preceding arc.
    """
    I_of = _as_action_function(invariant_curve)
    conic_at, evaluate, solve = _family(kind)
    zetas = np.linspace(0.0, 2.0 * math.pi, n_base + 1)
    samples = np.empty((len(zetas), 3))
    worst = 0.0
    for j, z in enumerate(zetas.tolist()):
        stencil = _stencil(z, I_of, conic_at, profile, params)
        R_E, R_I = circular_caustic_radii(I_of(z), params)
        r_ref = R_E if kind == "outer" else R_I
        points = solve(stencil)
        if not points:
            raise DegenerateEnvelope(
                f"no real envelope point at zeta = {z:.6f}")
        sx, sy = _circular_seed(z, I_of(z), kind, stencil[1], params)
        x, y = min(points, key=lambda pt: math.hypot(pt[0] - sx, pt[1] - sy))
        if abs(math.hypot(x, y) - r_ref) > 0.25 * r_ref:
            raise DegenerateEnvelope(
                f"envelope left the tangent-circle branch at zeta = {z:.6f}")
        G, dG = _system(stencil, evaluate, x, y)
        worst = max(worst, abs(G), abs(dG))
        samples[j] = z, x, y
    return CausticCurve(kind=kind, samples=samples,
                        max_envelope_residual=worst)


# -- tangency of computed orbits --------------------------------------------------


def tangency_check(trace: OrbitTrace, caustic: CausticCurve) -> float:
    """Worst distance between arc extremal radii and the caustic.

    Every arc of the matching region contributes the extremal radius of its
    parametrized path (apocenter outside, pericenter inside) compared against
    the caustic radius interpolated at the extremum's polar angle.
    """
    region = caustic.kind
    th = np.arctan2(caustic.samples[:, 2], caustic.samples[:, 1])
    rr = np.hypot(caustic.samples[:, 1], caustic.samples[:, 2])
    order = np.argsort(th)
    th_s, rr_s = th[order], rr[order]
    th_ext = np.r_[th_s[-1] - 2.0 * math.pi, th_s, th_s[0] + 2.0 * math.pi]
    rr_ext = np.r_[rr_s[-1], rr_s, rr_s[0]]
    worst = None
    for arc in trace.arcs:
        if arc.region != region:
            continue
        if region == "inner" and is_radial(arc.p0, arc.v0):
            continue
        rad, ang = arc.extremal_radius()
        r_c = float(np.interp(ang, th_ext, rr_ext))
        err = abs(rad - r_c)
        if worst is None or err > worst:
            worst = err
    if worst is None:
        raise ValueError(f"the trace has no {region} arcs to check")
    return worst
