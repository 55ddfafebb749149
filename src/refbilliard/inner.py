"""Keplerian arcs inside the domain.

Inside the boundary the zero-energy motion is a Kepler hyperbola branch with
(positive) two-body energy E + h.  Arcs are propagated in closed form in the
Levi-Civita chart w^2 = z, where the flow is a linear hyperbolic oscillator
and passes smoothly through the origin.
"""

from __future__ import annotations

import cmath
import math

from ._util import difference_slope, march_to_zero, shoot, wrap_pi
from .arcs import ArcSegment, InnerConic, is_radial, lc_flow
from .boundary import PerturbationProfile, boundary
from .errors import DomainError, EnergyMismatch, TangentialCrossing
from .params import PhysParams, _point, potential


def kepler_elements(z0: complex, v0: complex,
                    params: PhysParams) -> InnerConic:
    """Orbital elements of the interior hyperbola through ``(z0, v0)``.

    Uses the Laplace-Runge-Lenz vector, so the eccentricity and pericenter
    direction stay accurate down to zero angular momentum (radial rays have
    e = 1 exactly and are flagged ``is_collision``).  A point or velocity
    that is not a complex number raises :class:`DomainError`.
    """
    z0, v0 = _point(z0), _point(v0)
    _check_inner_energy(z0, v0, params)
    mu, r = params.mass_mu, abs(z0)
    k = z0.real * v0.imag - z0.imag * v0.real
    # e_vec = ((|v|^2 - mu/r) z - (z.v) v) / mu
    dot = z0.real * v0.real + z0.imag * v0.imag
    evec = ((abs(v0) ** 2 - mu / r) * z0 - dot * v0) / mu
    e = abs(evec)
    p = k * k / mu
    collision = is_radial(z0, v0)
    if collision:
        th_peri = cmath.phase(-z0)
        e = 1.0
        p = 0.0
    else:
        th_peri = cmath.phase(evec)
    return InnerConic(k, p, e, p / (1.0 + e), th_peri, collision)


def _check_inner_energy(z0: complex, v0: complex, params: PhysParams) -> None:
    vi = potential(z0, "inner", params)
    err = abs(0.5 * abs(v0) ** 2 - vi)
    if err > 1e-9 * max(vi, 1.0):
        raise EnergyMismatch(
            f"|v|^2/2 differs from the interior potential by {err:.3g}")


def levi_civita_propagate(z0: complex, v0: complex, params: PhysParams,
                          profile: PerturbationProfile) -> ArcSegment:
    """Interior transit from boundary state ``(z0, v0)`` to its first exit.

    Runs in the Levi-Civita chart w^2 = z, where the flow is the linear
    oscillator w'' = Om^2 w in the fictitious time tau (ds = |w|^2 dtau)
    and passes smoothly through the centre, so collision rays need no
    special case.  Returns the :class:`ArcSegment` with endpoints, kinetic
    duration and lifted polar sweep; :func:`kepler_elements` gives its
    conic.  Raises as :func:`kepler_elements` does on a bad entry state.
    """
    z0, v0 = _point(z0), _point(v0)
    _check_inner_energy(z0, v0, params)
    k = z0.real * v0.imag - z0.imag * v0.real
    Om = math.sqrt(params.lc_Omega_sq)
    w0 = cmath.sqrt(z0)
    wd0 = v0 * w0.conjugate()
    # |w(tau)|^2 = A cosh(2 Om tau) + B sinh(2 Om tau) + C
    ww, dd = abs(w0) ** 2, abs(wd0) ** 2 / Om ** 2
    A = 0.5 * (ww + dd)
    B = (w0.conjugate() * wd0).real / Om
    C = 0.5 * (ww - dd)
    tau1 = _exit_tau(w0, wd0, Om, A, B, C, profile, params)
    w1, wd1 = lc_flow(w0, wd0, Om, tau1)
    z1 = w1 * w1
    v1 = wd1 * w1 / abs(w1) ** 2
    x = 2.0 * Om * tau1
    dur = (A * math.sinh(x) + B * (math.cosh(x) - 1.0)) / Om + 2.0 * C * tau1

    xi1 = wrap_pi(cmath.phase(z1))
    # theta = 2 arg w, and arg w turns by less than pi along a hyperbola
    # branch, so one atan2 gives the lifted sweep, which has the sign of k;
    # near a collision the turn is close to pi, and a rounded atan2 that
    # lands on the other side of the cut is moved back by 4 pi.  A ray with
    # k = 0 passes w = 0 and leaves along its entry ray
    sweep = 0.0
    if k:
        sweep = 2.0 * math.atan2(w0.real * w1.imag - w0.imag * w1.real,
                                 w0.real * w1.real + w0.imag * w1.imag)
        if sweep * k < 0.0:
            sweep += math.copysign(4.0 * math.pi, k)
    return ArcSegment("inner", z0, v0, z1, v1, dur, sweep, xi1,
                      (w0, wd0, Om, tau1))


def _march_bound(Om: float, C: float, L: float, D: float,
                 profile: PerturbationProfile, params: PhysParams) -> float:
    """The bound on |g''| that :func:`_exit_tau` marches under, valid where
    max(rlo, D + C) <= |w|^2 <= rhi."""
    rlo, rhi = profile.radius_bounds
    r_m = max(rlo, D + C)
    d1, d2 = profile.derivative_bounds
    Ek, mu = params.kepler_energy, params.mass_mu
    return (4.0 * Om * Om * (rhi + abs(C)) + d2 * (2.0 * L / r_m) ** 2 +
            4.0 * d1 * abs(L) * math.sqrt(rhi) *
            math.sqrt(2.0 * (Ek * rhi + mu)) / (r_m * r_m))


def _exit_tau(w0: complex, wd0: complex, Om: float, A: float, B: float,
              C: float, profile: PerturbationProfile,
              params: PhysParams) -> float:
    """Fictitious time of the Levi-Civita arc's exit.

    Marches the clearance g(tau) = rho(2 arg w) - |w|^2 from its zero at
    tau = 0 with :func:`march_to_zero`.  L = Im(conj(w) w') is conserved,
    so theta' = 2L/|w|^2; |w|^2 = D cosh(2 Om tau + x) + C with D^2 = A^2 -
    B^2, tanh x = B/A, never below D + C; and |w'|^2 = 2(E_K |w|^2 + mu).
    So where r_m <= |w|^2 <= rhi, with r_m = max(rlo, D + C), |g''| <=
    4 Om^2 (rhi + |C|) + |rho''| (2L/r_m)^2 + 4 |rho'| |L| sqrt(rhi)
    sqrt(2(E_K rhi + mu))/r_m^2.  In the dip below rlo the clearance is
    positive but theta' unbounded, so no step is trusted across it: a step
    that ends past the dip's start resumes at its end, even when that moves
    the march back.  Raises :class:`TangentialCrossing` for an entry that
    does not go inside.
    """
    rlo, rhi = profile.radius_bounds
    L = w0.real * wd0.imag - w0.imag * wd0.real
    # A^2 - B^2 = C^2 + L^2/Om^2, free of cancellation in this form
    D = math.hypot(C, L / Om)
    x = math.atanh(B / A)
    bound = _march_bound(Om, C, L, D, profile, params)
    t_end = (math.acosh((rhi - C) / D) - x) / (2.0 * Om)
    dip_start = dip_end = math.inf
    if D + C < rlo:
        a = math.acosh((rlo - C) / D)
        if a > x:
            dip_start, dip_end = -(a + x) / (2.0 * Om), (a - x) / (2.0 * Om)

    radius_jet, atan2, cosh, sinh = (profile.radius_jet, math.atan2,
                                     math.cosh, math.sinh)

    def clearance(tau):
        ch, sh = cosh(Om * tau), sinh(Om * tau)
        w = w0 * ch + wd0 * sh / Om
        r2 = w.real * w.real + w.imag * w.imag
        rho, rhop, _ = radius_jet(2.0 * atan2(w.imag, w.real))
        # d|w|^2/dtau = 2 Om (A sinh 2 Om tau + B cosh 2 Om tau)
        return rho - r2, 2.0 * (L * rhop / r2 - Om * (
            2.0 * A * ch * sh + B * (ch * ch + sh * sh)))

    def skip(tau):
        nonlocal dip_start
        if tau > dip_start:
            dip_start = math.inf
            return dip_end
        return tau

    slope = clearance(0.0)[1]
    if slope <= 0.0:
        raise TangentialCrossing("interior entry does not go inside")
    return march_to_zero(clearance, 0.0, slope, bound, skip, t_end)


def inner_arc_fixed_ends(xi0: float, xi1: float,
                         profile: PerturbationProfile,
                         params: PhysParams) -> ArcSegment:
    """Interior arc from boundary angle ``xi0`` to the lifted angle ``xi1``.

    The arc advances the polar angle by exactly sw = xi1 - xi0, so the sign
    of sw picks the way round the centre; |sw| >= 2 pi raises
    :class:`DomainError`.  |sw| < 1e-12 gives the radial collision ray.
    Otherwise the entry angle is shot (:func:`shoot`) on the transit's
    sweep from the unit-circle chord's.
    """
    sw = xi1 - xi0
    if abs(sw) >= 2.0 * math.pi:
        raise DomainError("interior arcs advance the angle by less than 2 pi")

    geom = boundary(xi0, profile)
    speed = math.sqrt(2.0 * potential(geom.point_c, "inner", params))
    if abs(sw) < 1e-12:
        vin = -speed * geom.point_c / abs(geom.point_c)
        return levi_civita_propagate(geom.point_c, vin, params, profile)

    lim = math.pi / 2 - 1e-9

    def resid(b):
        return _launch(geom, b, speed, profile, params).sweep - sw

    beta = shoot(difference_slope(resid, lim), _chord_entry_angle(sw, params),
                 -lim, lim, 1e-11, "interior arc")
    return _launch(geom, beta, speed, profile, params)


def _launch(geom, beta: float, speed: float, profile: PerturbationProfile,
            params: PhysParams) -> ArcSegment:
    vin = speed * (-math.cos(beta) * geom.normal_c +
                   math.sin(beta) * geom.tangent_c)
    return levi_civita_propagate(geom.point_c, vin, params, profile)


def _chord_entry_angle(sweep: float, params: PhysParams) -> float:
    """Entry angle (from the inward normal) of the unit-circle chord whose
    interior arc advances the polar angle by ``sweep``."""
    mu = params.mass_mu
    a = mu / (2.0 * params.kepler_energy)
    c = math.cos(abs(sweep) / 2.0)
    e = (c + math.sqrt(c * c + 4.0 * a * (1.0 + a))) / (2.0 * a)
    k = math.copysign(math.sqrt((e * e - 1.0) * mu * mu /
                                (2.0 * params.kepler_energy)), sweep)
    vi = params.energy_E + params.offset_h + params.mass_mu  # V_I at r = 1
    sinb = k / math.sqrt(2 * vi)
    if abs(sinb) > 1.0:
        raise DomainError("requested sweep is not reachable at this energy")
    return math.asin(sinb)
