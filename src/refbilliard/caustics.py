"""Caustics of the two-medium billiard.

In the integrable round-boundary case every orbit of fixed action is tangent
to two circles: an exterior one at the apocenters of the oscillator arcs and
an interior one at the pericenters of the Kepler arcs.  Under a boundary
perturbation the tangent circles deform into the envelopes of the one-
parameter conic families attached to an invariant curve I(xi); this module
computes the circular radii in closed form and the perturbed envelopes by a
Newton continuation on the envelope system {G = 0, dG/dzeta = 0}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple, Union

import numpy as np

from .arcs import InnerConic, OuterConic
from .boundary import PerturbationProfile, boundary
from .errors import DegenerateEnvelope, NewtonDiverged, OutOfActionRange
from .inner import kepler_elements
from .orbits import CurveProbe, OrbitTrace, curve_eval
from .outer import outer_conic_of, outer_transit
from .params import PhysParams
from .returnmap import (_refract_entry, circular_shift, outgoing_state,
                        outgoing_velocity)

ActionCurve = Union[float, Callable[[float], float], CurveProbe]


@dataclass(frozen=True)
class CausticCurve:
    """Sampled envelope of the conic family attached to an invariant curve.

    ``samples`` has one row ``(zeta, x, y)`` per converged envelope point,
    ordered by the boundary parameter ``zeta`` and closed (the last row sits
    at ``zeta = 2 pi``).  ``circular_radius`` is the tangent-circle radius of
    the comparison circular orbit at the mean action, when defined.
    """

    kind: str
    samples: np.ndarray
    circular_radius: Optional[float]
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
    mu, Eh = params.mass_mu, params.energy_E + params.offset_h
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
    if isinstance(invariant_curve, CurveProbe):
        return lambda z: float(curve_eval(invariant_curve, z)[0])
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


def _eval_outer(conic: OuterConic, x: float, y: float
                ) -> Tuple[float, float, float]:
    if conic.degenerate or conic.semi_minor_sq <= 1e-14:
        raise DegenerateEnvelope(
            "a radial exterior arc supports no envelope")
    a2, b2 = conic.semi_major_sq, conic.semi_minor_sq
    ct, st = math.cos(conic.tilt_angle), math.sin(conic.tilt_angle)
    u = x * ct + y * st
    w = -x * st + y * ct
    G = u * u / a2 + w * w / b2 - 1.0
    gx = 2.0 * (u * ct / a2 - w * st / b2)
    gy = 2.0 * (u * st / a2 + w * ct / b2)
    return G, gx, gy


def _eval_inner(conic: InnerConic, x: float, y: float
                ) -> Tuple[float, float, float]:
    if conic.is_collision:
        raise DegenerateEnvelope(
            "a collision ray supports no envelope")
    r = math.hypot(x, y)
    if r < 1e-12:
        raise DegenerateEnvelope("the envelope iterate reached the centre")
    c = math.cos(conic.pericenter_angle)
    s = math.sin(conic.pericenter_angle)
    e, p = conic.eccentricity_e, conic.semilatus_p
    G = r + e * (x * c + y * s) - p
    return G, x / r + e * c, y / r + e * s


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
    step 1e-5 (the one :func:`perturbed_caustic` solves with).  Both
    vanish, to solver tolerance, on a :class:`CausticCurve`.
    """
    I_of = _as_action_function(invariant_curve)
    conic_at, evaluate = _family(kind)
    x, y = float(xy[0]), float(xy[1])
    G0 = evaluate(conic_at(zeta, I_of(zeta), profile, params), x, y)[0]
    Gp = evaluate(conic_at(zeta + _FD_STEP, I_of(zeta + _FD_STEP),
                           profile, params), x, y)[0]
    Gm = evaluate(conic_at(zeta - _FD_STEP, I_of(zeta - _FD_STEP),
                           profile, params), x, y)[0]
    return G0, (Gp - Gm) / (2.0 * _FD_STEP)


def _family(kind: str):
    if kind == "outer":
        return _outer_conic_at, _eval_outer
    if kind == "inner":
        return _inner_conic_at, _eval_inner
    raise ValueError(f"kind must be 'outer' or 'inner', got {kind!r}")


# -- Newton on the envelope system ------------------------------------------------


def _solve_node(zeta: float, seed: Tuple[float, float], conics, evaluate,
                r_ref: float) -> Tuple[float, float, int, float]:
    """Newton iterate of {G=0, dG/dzeta=0} at fixed ``zeta``.

    The three conics of the centered stencil are built once; every iteration
    is then closed-form algebra.  The iteration stops below a residual of
    1e-12, or after 25 steps.  Returns ``(x, y, iterations, residual)``.
    """
    cm, c0, cp = conics
    x, y = float(seed[0]), float(seed[1])
    h2 = 2.0 * _FD_STEP
    prev_resid = math.inf
    it = 0
    while True:
        G0, g0x, g0y = evaluate(c0, x, y)
        Gp, gpx, gpy = evaluate(cp, x, y)
        Gm, gmx, gmy = evaluate(cm, x, y)
        F1 = (Gp - Gm) / h2
        resid = max(abs(G0), abs(F1))
        # done once below tolerance, once the finite-difference noise floor
        # stops the residual from contracting, or out of budget
        if resid < 1e-12 or (it >= 2 and resid > 0.5 * prev_resid) or \
                it >= 25:
            break
        prev_resid = resid
        j10, j11 = (gpx - gmx) / h2, (gpy - gmy) / h2
        det = g0x * j11 - g0y * j10
        if not math.isfinite(det) or abs(det) < 1e-14:
            raise NewtonDiverged(
                f"singular envelope Jacobian at zeta = {zeta:.6f}")
        x += (-G0 * j11 + F1 * g0y) / det
        y += (-F1 * g0x + G0 * j10) / det
        it += 1
        if not (math.isfinite(x) and math.isfinite(y)) or \
                math.hypot(x, y) > 4.0 * r_ref:
            raise NewtonDiverged(
                f"envelope iterate escaped at zeta = {zeta:.6f}")
    if resid > 1e-8:
        raise NewtonDiverged(
            f"envelope residual stalled at {resid:.3g} for zeta = {zeta:.6f}")
    cross = g0x * (gpy - gmy) / h2 - g0y * (gpx - gmx) / h2
    if abs(cross) < 1e-10:
        raise DegenerateEnvelope(
            f"tangent envelope gradients at zeta = {zeta:.6f}")
    if abs(math.hypot(x, y) - r_ref) > 0.25 * r_ref:
        raise NewtonDiverged(
            f"envelope left the tangent-circle branch at zeta = {zeta:.6f}")
    return x, y, it, resid


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
    envelope point solves {G = 0, dG/dzeta = 0} by a Newton continuation
    seeded from the previous node (circular tangency geometry at the first).
    Intervals whose endpoints needed more than five Newton steps are bisected
    recursively.  The interior family refracts the exterior arc's arrival
    state, so its parameter is the launch angle of the preceding arc.
    """
    I_of = _as_action_function(invariant_curve)
    conic_at, evaluate = _family(kind)

    def conics_at(z: float):
        return (conic_at(z - _FD_STEP, I_of(z - _FD_STEP), profile, params),
                conic_at(z, I_of(z), profile, params),
                conic_at(z + _FD_STEP, I_of(z + _FD_STEP), profile, params))

    def r_ref_at(z: float) -> float:
        R_E, R_I = circular_caustic_radii(I_of(z), params)
        return R_E if kind == "outer" else R_I

    def solve(z: float, seed) -> Tuple[float, float, int, float]:
        stencil = conics_at(z)
        r_ref = r_ref_at(z)
        if seed is None:
            seed = _circular_seed(z, I_of(z), kind, stencil[1], params)
            return _solve_node(z, seed, stencil, evaluate, r_ref)
        try:
            return _solve_node(z, seed, stencil, evaluate, r_ref)
        except NewtonDiverged:
            seed = _circular_seed(z, I_of(z), kind, stencil[1], params)
            return _solve_node(z, seed, stencil, evaluate, r_ref)

    zetas = np.linspace(0.0, 2.0 * math.pi, n_base + 1)
    records = []
    prev = None
    dz = zetas[1] - zetas[0]
    rot = complex(math.cos(dz), math.sin(dz))
    for z in zetas:
        x, y, it, resid = solve(float(z), prev)
        records.append((float(z), x, y, it, resid))
        carried = complex(x, y) * rot
        prev = (carried.real, carried.imag)

    # bisect intervals whose endpoints worked hard, up to four levels deep
    stack = [(records[j], records[j + 1], 0)
             for j in range(len(records) - 1)
             if records[j][3] > 5 or records[j + 1][3] > 5]
    extra = []
    while stack:
        left, right, depth = stack.pop()
        if depth >= 4:
            continue
        zm = 0.5 * (left[0] + right[0])
        seed = (0.5 * (left[1] + right[1]), 0.5 * (left[2] + right[2]))
        x, y, it, resid = solve(zm, seed)
        rec = (zm, x, y, it, resid)
        extra.append(rec)
        if it > 5:
            stack.append((left, rec, depth + 1))
            stack.append((rec, right, depth + 1))
    records = sorted(records + extra, key=lambda r: r[0])

    samples = np.array([(z, x, y) for z, x, y, _, _ in records])
    worst = max(r[4] for r in records)
    I_mean = float(np.mean([I_of(z) for z in zetas[:-1]]))
    try:
        R_E, R_I = circular_caustic_radii(I_mean, params)
        r_circ: Optional[float] = R_E if kind == "outer" else R_I
    except OutOfActionRange:
        r_circ = None
    return CausticCurve(kind=kind, samples=samples, circular_radius=r_circ,
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
        if region == "inner" and arc.conic.is_collision:
            continue
        rad, ang = arc.extremal_radius()
        r_c = float(np.interp(ang, th_ext, rr_ext))
        err = abs(rad - r_c)
        if worst is None or err > worst:
            worst = err
    if worst is None:
        raise ValueError(f"the trace has no {region} arcs to check")
    return worst
