"""Slow, independent references the tests check the package against.

:func:`refbilliard.variational.jacobi_length` is closed-form.  This module
keeps the constructions it replaced: the Jacobi length by adaptive
quadrature of sqrt(V)|dz|, the Maupertuis product (whose Cauchy-Schwarz
identity L^2 = 2M ties the two together), and the distances d_E and d_I of
arcs with prescribed boundary endpoints, built by the fixed-end shooting
solvers rather than the return map.  It also gives the boundary point
gamma(xi) = rho(xi) e^{i xi} directly from the radius profile, as a
reference for :func:`refbilliard.boundary`.

Every integral goes through :func:`scipy.integrate.quad`.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np
from scipy.integrate import quad

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
                   params: PhysParams,
                   lifted_delta: Optional[float] = None) -> float:
    """Jacobi length d_E of the exterior arc joining two boundary angles."""
    arc = outer_arc_fixed_ends(xi0, xi1, profile, params,
                               lifted_delta=lifted_delta)
    return quadrature_length(arc, params)


def inner_distance(xi0: float, xi1: float, profile: PerturbationProfile,
                   params: PhysParams, branch: str = "winding",
                   lifted_sweep: Optional[float] = None) -> float:
    """Jacobi length d_I of the interior arc joining two boundary angles."""
    arc = inner_arc_fixed_ends(xi0, xi1, profile, params, branch=branch,
                               lifted_sweep=lifted_sweep)
    return quadrature_length(arc, params)
