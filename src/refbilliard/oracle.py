"""Return map by direct ODE integration (reference implementation).

Integrates the actual equations of motion — z'' = -om z outside, Kepler
z'' = -mu z/|z|^3 inside — with event-located boundary crossings, composing
them with the same Snell refractions as the production map.  Serves as an
independent cross-check of the closed-form propagation and event geometry;
it lives apart from the production path on purpose and shares none of its
flows or solvers.

Each leg is integrated by a fixed-order Taylor method (Jorba & Zou, "A
software package for the numerical integration of ODEs by means of
high-order Taylor methods", *Exp. Math.* 14, 2005), in numpy only:

- **Series.** Each step expands z(t) to degree ``ORDER`` = 20 about its
  start.  Outside, z_{k+2} = -om z_k / ((k+1)(k+2)).  Inside, with
  s = |z|^2 and u = s^{-3/2}, the power rule
  k s_0 u_k = sum_{j<k} (-(3/2)(k-j) - j) s_{k-j} u_j gives u, and
  z'' = -mu z u gives z_{k+2}.
- **Step.** h = min over j in (ORDER - 1, ORDER) of (tol / |z_j|)^{1/j},
  with tol = ``STEP_TOL`` |z_0|.  The tolerance is relative to |z_0| so
  that a Kepler leg passing near the centre resolves its pericentre: with
  tol = 1e-18 max(1, |z_0|) the normal launch from xi = 0.3 on
  r = 1 + 0.01 cos 2 xi (E = 2.5, h = 2, mu = 2, om = 1) missed the map
  by 9.5e-10, and with this rule by 1.4e-13.
- **Crossings.** The step's polynomial is its dense output.  The clearance
  |z| - radius(arg z) and its rate are sampled at ``SAMPLES`` points of
  each step.  A sign change of the clearance brackets a crossing; a rate
  that turns from approach to retreat brackets an extremum, which is found
  by bisection and, if it lies on the far side, brackets the crossing of a
  brief graze.  Each crossing is polished by Newton's method on the step
  polynomial, safeguarded by bisection.
- **Stops.** The zero at the departure point is skipped by arming the
  checks only after ``t_guard``.  A leg whose steps fall below a floor
  relative to its time scale (a Kepler arc running into the centre), or
  that takes more than ``MAX_STEPS`` steps, raises
  :class:`EventDetectionFailed` with that reason.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul

import numpy as np

from ._util import wrap_pi
from .boundary import PerturbationProfile, boundary
from .errors import EventDetectionFailed, TotalReflectionTermination
from .params import PhysParams, potential
from .refraction import refract_in, refract_out

#: degree of each step's Taylor polynomial
ORDER = 20
#: truncation target of a step, relative to |z| at its start
STEP_TOL = 1e-18
#: points per step at which the clearance and its rate are checked
SAMPLES = 8
#: smallest step, relative to the leg's time scale (a few ulp of the leg's
#: clock), and most steps per leg
STEP_FLOOR = 1e-15
MAX_STEPS = 20000

_EPS = float(np.finfo(float).eps)
_K = np.arange(ORDER + 1)
_THETA = np.arange(1, SAMPLES + 1) / SAMPLES
#: theta^k and k theta^(k-1) at the sample points, for z and z' there
_POW = _THETA[:, None] ** _K
_DPOW = _K * _THETA[:, None] ** (_K - 1)
#: weights -(3/2)(k - j) - j of the power rule for u = s^(-3/2)
_POWER_RULE = [[-1.5 * (k - j) - j for j in range(k)] for k in range(ORDER)]


@dataclass(frozen=True)
class OracleReturn:
    """One return-map application computed by numerical integration."""

    xi1: float
    action_I1: float
    alpha1: float
    t_outer: float
    t_inner: float


def _harmonic_series(z0: complex, v0: complex, om_sq: float) -> list:
    """Taylor coefficients of z'' = -om z through degree ORDER."""
    z = [z0, v0]
    for k in range(ORDER - 1):
        z.append(-om_sq * z[k] / ((k + 1) * (k + 2)))
    return z


def _kepler_series(z0: complex, v0: complex, mu: float) -> list:
    """Taylor coefficients of z'' = -mu z |z|^-3 through degree ORDER."""
    z, zc = [z0, v0], [z0.conjugate(), v0.conjugate()]
    s = [(z0 * zc[0]).real]
    u = [s[0] ** -1.5]
    for k in range(ORDER - 1):
        if k:
            s.append(sum(map(mul, z[:k + 1], zc[k::-1])).real)
            u.append(sum(map(mul, _POWER_RULE[k],
                             map(mul, s[k:0:-1], u))) / (k * s[0]))
        zk = -mu * sum(map(mul, z[:k + 1], u[::-1])) / ((k + 1) * (k + 2))
        z.append(zk)
        zc.append(zk.conjugate())
    return z


def _step_size(c: list) -> float:
    """Step from the last two coefficients of the series ``c``."""
    tol = STEP_TOL * abs(c[0])
    h = math.inf
    for j in (ORDER - 1, ORDER):
        a = abs(c[j])
        if a:
            h = min(h, (tol / a) ** (1.0 / j))
    return h


def _clearance(z, v, profile: PerturbationProfile):
    """Clearance |z| - radius(arg z) and its time derivative, at a point or
    at an array of points moving with velocity ``v``."""
    r = np.abs(z)
    theta = np.angle(z)
    zv = np.conj(z) * v
    rate = zv.real / r - profile.radius_prime(theta) * zv.imag / (r * r)
    return r - profile.radius(theta), rate


def _horner(c: list, tau: float) -> tuple:
    """z and z' of the series ``c`` at time ``tau`` into the step."""
    z = c[-1]
    v = 0j
    for a in reversed(c[:-1]):
        v = v * tau + z
        z = z * tau + a
    return z, v


def _polish(g, lo: float, hi: float) -> float:
    """The zero of ``g`` in [lo, hi], where g(lo) > 0 >= g(hi); ``g``
    returns its value and slope.  Newton's method from ``hi``, with a
    bisection wherever a step leaves the bracket."""
    t = hi
    val, slope = g(t)
    for _ in range(200):
        if val == 0.0:
            return t
        nxt = t - val / slope if slope else math.nan
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
            if not lo < nxt < hi:
                return hi
        if abs(nxt - t) <= 2.0 * _EPS * abs(nxt):
            return nxt
        t = nxt
        val, slope = g(t)
        if val > 0.0:
            lo = t
        else:
            hi = t
    return hi


def _turning_point(g, lo: float, hi: float) -> float:
    """The time in [lo, hi] where the slope of ``g`` turns from negative to
    non-negative, by bisection; stops early where ``g`` reaches zero."""
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return hi
        val, slope = g(mid)
        if val <= 0.0:
            return mid
        if slope < 0.0:
            lo = mid
        else:
            hi = mid


def _integrate_leg(series, z, v, t_max, profile, inside_sign, t_guard,
                   t_unit, leg):
    """Integrate one leg and return (crossing time, z, z' at crossing).

    ``series(z, v)`` gives the Taylor coefficients about a state.
    ``inside_sign`` is the sign of the clearance on the leg (+1 outside,
    -1 inside); the leg ends where it first turns, after ``t_guard``.
    """
    t = 0.0
    # the last checked time, with the signed clearance and its rate there
    last = None
    for _ in range(MAX_STEPS):
        c = series(z, v)
        h = _step_size(c)
        if h < STEP_FLOOR * t_unit:
            raise EventDetectionFailed(
                f"oracle: the {leg} leg's step fell to {h:.3g} at t = "
                f"{t:.6g}, |z| = {abs(z):.3g} (a collision with the centre)")
        h = min(h, t_max - t)

        def signed(tau):
            zt, vt = _horner(c, tau)
            g, rate = _clearance(zt, vt, profile)
            return inside_sign * g, inside_sign * rate

        ch = np.asarray(c) * h ** _K
        zs = _POW @ ch
        vs = (_DPOW @ ch) / h
        if last is None and t + h > t_guard:
            last = (t_guard - t, *signed(t_guard - t))
            if last[1] <= 0.0:
                raise EventDetectionFailed(
                    f"oracle: the {leg} leg does not leave the interface")
        if last is not None:
            g, rate = _clearance(zs, vs, profile)
            taus = h * _THETA
            keep = taus > last[0]
            taus = np.concatenate(([last[0]], taus[keep]))
            g = np.concatenate(([last[1]], inside_sign * g[keep]))
            rate = np.concatenate(([last[2]], inside_sign * rate[keep]))
            # a crossing at a sample, or an extremum facing the interface
            for i in np.flatnonzero((g[1:] <= 0.0) |
                                    ((rate[:-1] < 0.0) & (rate[1:] >= 0.0))):
                lo, hi = float(taus[i]), float(taus[i + 1])
                if g[i + 1] > 0.0:
                    hi = _turning_point(signed, lo, hi)
                    if signed(hi)[0] > 0.0:
                        continue
                tau = float(_polish(signed, lo, hi))
                return (t + tau, *_horner(c, tau))
            last = (0.0, float(g[-1]), float(rate[-1]))
        z, v = complex(zs[-1]), complex(vs[-1])
        t += h
        if t >= t_max:
            raise EventDetectionFailed(f"oracle: no crossing on the {leg} "
                                       "leg")
    raise EventDetectionFailed(f"oracle: the {leg} leg took more than "
                               f"{MAX_STEPS} steps")


def _outer_leg(xi0: float, alpha: float, profile: PerturbationProfile,
               params: PhysParams) -> tuple:
    """Launch at ``(xi0, alpha)`` and integrate z'' = -om z to the next
    crossing; returns (travel time, z, z') there."""
    geom0 = boundary(xi0, profile)
    z0 = geom0.point_c
    speed0 = math.sqrt(2.0 * potential(z0, "outer", params))
    v0 = speed0 * (math.cos(alpha) * geom0.normal_c +
                   math.sin(alpha) * geom0.tangent_c)
    om_sq = params.stiffness_om
    period = 2.0 * math.pi / params.omega
    return _integrate_leg(
        lambda z, v: _harmonic_series(z, v, om_sq), complex(z0), complex(v0),
        3.0 * period, profile, +1.0, 1e-8 * period, period, "outer")


def ode_return_map(xi0: float, alpha: float, profile: PerturbationProfile,
                   params: PhysParams) -> OracleReturn:
    """Apply the return map to ``(xi0, alpha)`` by integrating the flow.

    Returns the next outgoing crossing's boundary angle, canonical action
    and launch angle, along with the two legs' travel times.
    """
    t_out, z1, v1 = _outer_leg(xi0, alpha, profile, params)

    geom1 = boundary(math.atan2(z1.imag, z1.real), profile)
    tau = v1.real * geom1.tangent_c.real + v1.imag * geom1.tangent_c.imag
    nu = v1.real * geom1.normal_c.real + v1.imag * geom1.normal_c.imag
    a_in = math.atan2(tau, -nu)
    res_in = refract_in(a_in, z1, params)
    if not res_in.refracted:
        raise TotalReflectionTermination("oracle: reflected at entry",
                                         xi=geom1.xi, beta=a_in)
    beta = res_in.out_angle
    speed_in = math.sqrt(2.0 * potential(z1, "inner", params))
    v_in = speed_in * (-math.cos(beta) * geom1.normal_c +
                       math.sin(beta) * geom1.tangent_c)

    mu = params.mass_mu
    a_semi = mu / (2.0 * params.kepler_energy)
    t_scale = 2.0 * math.pi / math.sqrt(mu / a_semi ** 3)
    t_in, z2, v2 = _integrate_leg(
        lambda z, v: _kepler_series(z, v, mu), z1, complex(v_in),
        20.0 * t_scale, profile, -1.0, 1e-9 * t_scale, t_scale, "inner")

    xi1 = math.atan2(z2.imag, z2.real)
    geom2 = boundary(xi1, profile)
    tau2 = v2.real * geom2.tangent_c.real + v2.imag * geom2.tangent_c.imag
    nu2 = v2.real * geom2.normal_c.real + v2.imag * geom2.normal_c.imag
    b_out = math.atan2(tau2, nu2)
    res_out = refract_out(b_out, z2, params)
    if not res_out.refracted:
        raise TotalReflectionTermination("oracle: total internal reflection",
                                         xi=xi1, beta=b_out)
    alpha1 = res_out.out_angle
    I1 = math.sqrt(potential(z2, "outer", params)) * math.sin(alpha1) * \
        geom2.metric
    return OracleReturn(xi1=wrap_pi(xi1), action_I1=I1, alpha1=alpha1,
                        t_outer=t_out, t_inner=t_in)
