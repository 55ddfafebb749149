"""Slow, independent references the tests check the package against.

:func:`refbilliard.variational.jacobi_length` is closed-form.  This module
keeps the constructions it replaced: the Jacobi length by adaptive
quadrature of sqrt(V)|dz|, the Maupertuis product (whose Cauchy-Schwarz
identity L^2 = 2M ties the two together), and the distances d_E and d_I of
arcs with prescribed boundary endpoints, built by the fixed-end shooting
solvers rather than the return map.  It also gives the boundary point
gamma(xi) = rho(xi) e^{i xi} directly from the radius profile, as a
reference for :func:`refbilliard.boundary`, the rational-distance test
that the invariant-curve criterion applies to its target rotation number,
and the twist folds of the circle as the roots of a radical-free polynomial.

Every integral goes through :func:`scipy.integrate.quad`.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from refbilliard import (ArcSegment, PerturbationProfile, PhysParams,
                         inner_arc_fixed_ends, outer_arc_fixed_ends,
                         potential)
from refbilliard.arcs import lc_flow
from refbilliard.errors import BilliardError


class QuadratureTolUnmet(BilliardError):
    """Adaptive quadrature could not reach the requested tolerance."""


def gamma_point(xi, profile: PerturbationProfile):
    """Boundary point(s) as complex rho(xi) e^{i xi}."""
    xi = np.asarray(xi, dtype=float)
    out = profile.radius(xi) * np.exp(1j * xi)
    return out if np.ndim(out) else complex(out)


def is_diophantine_surrogate(rho: float) -> bool:
    """Whether rho/2pi keeps distance 1e-3 from all p/q with q <= 20."""
    x = rho / (2.0 * math.pi)
    for q in range(1, 21):
        p = round(x * q)
        if abs(x - p / q) < 1e-3:
            return False
    return True


def twist_polynomial_roots(params: PhysParams) -> list:
    """Actions, ascending, where the twist f' + g' of the circle changes
    sign, for parameters with E + h + mu > I_c^2.

    With x = I^2, f' = A/B and g' = -C/D, where
    A = sqrt(2)(2E^2 - (E + 2x) om), B = sqrt(2E - om - 2x)(E^2 - 2 om x),
    C = 8 Eh x + 4 Eh mu + 4 mu^2 and D = (4 Eh x + mu^2) sqrt(Eh + mu - x),
    Eh = E + h.  On [0, I_c^2) A, B, C and D are positive (E > om), so the
    twist has the sign of the degree-5 polynomial p(x) = A^2 D^2 - B^2 C^2.
    Its roots are bracketed over 2^12 cells in x, polished by Brent's
    method and mirrored to +-sqrt(x).
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
    ps = p(xs)
    cells = np.nonzero(ps[1:] * ps[:-1] < 0.0)[0]
    rs = [math.sqrt(brentq(p, xs[i], xs[i + 1], xtol=1e-30, rtol=8.9e-16))
          for i in cells]
    return [-r for r in reversed(rs)] + rs


def _outer_flow(arc: ArcSegment, u):
    """(z, dz/du, ds/du) at u in [0, 1] on an exterior arc, whose payload is
    (omega, T): z = p0 cos(omega s) + (v0/omega) sin(omega s), s = u T."""
    w, T = arc.par
    s = np.asarray(u, dtype=float) * T
    c, sn = np.cos(w * s), np.sin(w * s)
    z = arc.p0 * c + arc.v0 * sn / w
    return complex(z), complex((-arc.p0 * w * sn + arc.v0 * c) * T), T


def _length_integrand(arc: ArcSegment, params: PhysParams):
    """sqrt(V(z)) |dz/du| along the arc, collision-safe in the LC chart."""
    if arc.region == "inner":
        w0, wd0, Om, tau1 = arc.par
        Eh, mu = params.kepler_energy, params.mass_mu

        def f(u):
            w, wd = lc_flow(w0, wd0, Om, u * tau1)
            # |dz/du| sqrt(V) = 2|w||wd| tau1 sqrt(Eh + mu/|w|^2)
            return 2.0 * abs(wd) * abs(tau1) * \
                math.sqrt(Eh * abs(w) ** 2 + mu)
        return f

    def f(u):
        z, dz, _ = _outer_flow(arc, u)
        v = max(potential(z, arc.region, params), 0.0)
        return abs(dz) * math.sqrt(v)
    return f


def quadrature_length(arc: ArcSegment, params: PhysParams,
                      tol: float = 1e-10) -> float:
    """Jacobi length of the arc by adaptive quadrature of sqrt(V)|dz|.

    Raises :class:`QuadratureTolUnmet` when the error estimate exceeds
    100 ``tol`` (relative to the length when that is above one).
    """
    if arc.duration == 0.0:
        return 0.0
    val, err = quad(_length_integrand(arc, params), 0.0, 1.0,
                    epsabs=1e-12, epsrel=1e-12, limit=200)
    if err > max(tol, tol * abs(val)) * 100.0:
        raise QuadratureTolUnmet(
            f"Jacobi length error estimate {err:.3g} exceeds tolerance")
    return val


def maupertuis_product(arc: ArcSegment, params: PhysParams) -> float:
    """M = (1/2 int |dz/dt|^2 dt) * (int V dt) in geodesic time t = s/T.

    On zero-energy arcs the Cauchy-Schwarz bound L^2 <= 2M is attained, so
    this provides an independent check of the Jacobi length.
    """
    T = arc.duration
    if T == 0.0:
        return 0.0
    if arc.region == "inner":
        w0, wd0, Om, tau1 = arc.par
        Eh, mu = params.kepler_energy, params.mass_mu

        # |v|^2 ds = 2|wd|^2 dtau ; V ds = 2(Eh |w|^2 + mu) dtau
        def kin(u):
            _, wd = lc_flow(w0, wd0, Om, u * tau1)
            return 2.0 * abs(wd) ** 2 * abs(tau1)

        def pot(u):
            w, _ = lc_flow(w0, wd0, Om, u * tau1)
            return 2.0 * (Eh * abs(w) ** 2 + mu) * abs(tau1)
    else:
        # |v|^2 ds/du = |dz/du|^2 / (ds/du)
        def kin(u):
            _, dz, ds = _outer_flow(arc, u)
            return abs(dz / ds) ** 2 * ds

        def pot(u):
            z, _, ds = _outer_flow(arc, u)
            return max(potential(z, arc.region, params), 0.0) * ds

    A = 0.5 * T * quad(kin, 0.0, 1.0, epsabs=1e-12, epsrel=1e-12,
                       limit=200)[0]
    B = quad(pot, 0.0, 1.0, epsabs=1e-12, epsrel=1e-12, limit=200)[0] / T
    return A * B


def outer_distance(xi0: float, xi1: float, profile: PerturbationProfile,
                   params: PhysParams) -> float:
    """Jacobi length d_E of the exterior arc from boundary angle ``xi0`` to
    the lifted angle ``xi1``."""
    arc = outer_arc_fixed_ends(xi0, xi1, profile, params)
    return quadrature_length(arc, params)


def inner_distance(xi0: float, xi1: float, profile: PerturbationProfile,
                   params: PhysParams) -> float:
    """Jacobi length d_I of the interior arc from boundary angle ``xi0`` to
    the lifted angle ``xi1``."""
    arc = inner_arc_fixed_ends(xi0, xi1, profile, params)
    return quadrature_length(arc, params)
