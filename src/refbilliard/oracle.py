"""Return map by direct ODE integration (reference implementation).

Integrates the actual equations of motion — z'' = -om z outside, Kepler
z'' = -mu z/|z|^3 inside — with event-located boundary crossings, composing
them with the same Snell refractions as the production map.  Serves as an
independent cross-check of the closed-form propagation and event geometry;
it is slow and lives apart from the production path on purpose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._util import solve_ivp, wrap_pi
from .boundary import PerturbationProfile, boundary
from .errors import EventDetectionFailed, TotalReflectionTermination
from .params import PhysParams, potential
from .refraction import refract_in, refract_out


@dataclass(frozen=True)
class OracleReturn:
    """One return-map application computed by numerical integration."""

    xi1: float
    action_I1: float
    alpha1: float
    t_outer: float
    t_inner: float


def _crossing_event(profile: PerturbationProfile, inside_sign: float,
                    t_guard: float):
    """Terminal event |z| = radius(arg z), armed only after ``t_guard``.

    ``inside_sign`` is the sign of |z| - radius on the segment being
    integrated (+1 outside, -1 inside); the event fires when the sign
    flips back, i.e. on the re-crossing, not the departure point.
    """

    def ev(t, y):
        if t < t_guard:
            return inside_sign
        r = math.hypot(y[0], y[1])
        return r - float(profile.radius(math.atan2(y[1], y[0])))

    ev.terminal = True
    ev.direction = -inside_sign
    return ev


def _clearance_rate_event(profile: PerturbationProfile):
    """Non-terminal event at extrema of the boundary clearance |z| - radius.

    Near-tangential passes put the trajectory on the far side of the
    interface for a time interval shorter than an integration step, which
    the terminal event (a sign check at step ends) cannot see.  The
    clearance rate, by contrast, changes sign across any such pass no
    matter how brief, so its roots flag every candidate miss.
    """

    def ev(t, y):
        x, yy, vx, vy = y
        r = math.hypot(x, yy)
        r_dot = (x * vx + yy * vy) / r
        th_dot = (x * vy - yy * vx) / (r * r)
        return r_dot - float(profile.radius_prime(math.atan2(yy, x))) * th_dot

    ev.terminal = False
    ev.direction = 0.0
    return ev


def _integrate_leg(rhs, y0, t_max, profile, params, inside_sign, t_guard,
                   max_step, rtol, atol, leg):
    """Integrate one leg and return (crossing time, state at crossing).

    The terminal event locates the generic transversal crossing; clearance
    extrema found on the wrong side of the interface before it reveal a
    crossing the stepper jumped over, which is then bracketed between
    consecutive extrema (clearance is monotone there) and refined on the
    dense output.
    """
    sol = solve_ivp(rhs, (0.0, t_max), y0, method="DOP853", rtol=rtol,
                    atol=atol, max_step=max_step, dense_output=True,
                    events=[_crossing_event(profile, inside_sign, t_guard),
                            _clearance_rate_event(profile)])

    def clearance(t):
        x, yy = sol.sol(t)[:2]
        return math.hypot(x, yy) - float(profile.radius(math.atan2(yy, x)))

    t_term = float(sol.t_events[0][0]) if sol.t_events[0].size else math.inf
    t_prev = t_guard
    for t_ext in sol.t_events[1]:
        t_ext = float(t_ext)
        if t_ext >= t_term or t_ext <= t_prev:
            continue
        if inside_sign * clearance(t_ext) < 0.0:
            # scipy's own Brent, not the production port: the oracle shares
            # no solver code with the map it checks
            from scipy.optimize import brentq
            t_cross = brentq(clearance, t_prev, t_ext, xtol=1e-14)
            return t_cross, np.asarray(sol.sol(t_cross), dtype=float)
        t_prev = t_ext
    if math.isinf(t_term):
        raise EventDetectionFailed(f"oracle: no crossing on the {leg} leg")
    return t_term, np.asarray(sol.y_events[0][0], dtype=float)


def ode_return_map(xi0: float, alpha: float, profile: PerturbationProfile,
                   params: PhysParams, rtol: float = 1e-12,
                   atol: float = 1e-12) -> OracleReturn:
    """Apply the return map to ``(xi0, alpha)`` by integrating the flow.

    Returns the next outgoing crossing's boundary angle, canonical action
    and launch angle, along with the two legs' travel times.
    """
    om_sq = params.stiffness_om
    mu = params.mass_mu

    geom0 = boundary(xi0, profile)
    z0 = geom0.point_c
    speed0 = math.sqrt(2.0 * potential(z0, "outer", params))
    v0 = speed0 * (math.cos(alpha) * geom0.normal_c +
                   math.sin(alpha) * geom0.tangent_c)

    def rhs_outer(t, y):
        return (y[2], y[3], -om_sq * y[0], -om_sq * y[1])

    period = 2.0 * math.pi / params.omega
    t_out, y1 = _integrate_leg(rhs_outer, [z0.real, z0.imag, v0.real,
                                           v0.imag], 3.0 * period, profile,
                               params, +1.0, 1e-8 * period, period / 50.0,
                               rtol, atol, "outer")
    z1 = complex(y1[0], y1[1])
    v1 = complex(y1[2], y1[3])

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

    def rhs_inner(t, y):
        r3 = math.hypot(y[0], y[1]) ** 3
        return (y[2], y[3], -mu * y[0] / r3, -mu * y[1] / r3)

    a_semi = mu / (2.0 * params.kepler_energy)
    t_scale = 2.0 * math.pi / math.sqrt(mu / a_semi ** 3)
    t_in, y2 = _integrate_leg(rhs_inner, [z1.real, z1.imag, v_in.real,
                                          v_in.imag], 20.0 * t_scale,
                              profile, params, -1.0, 1e-9 * t_scale,
                              t_scale / 100.0, rtol, atol, "inner")
    z2 = complex(y2[0], y2[1])
    v2 = complex(y2[2], y2[3])

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
