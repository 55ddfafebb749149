"""Quadrature references for the Jacobi lengths and the geodesic distances.

:func:`refbilliard.variational.jacobi_length` is closed-form.  This module
keeps the slower constructions it replaced, as independent checks for the
tests: the Jacobi length by adaptive quadrature of sqrt(V)|dz|, the
Maupertuis product (whose Cauchy-Schwarz identity L^2 = 2M ties the two
together), and the distances d_E and d_I of arcs with prescribed boundary
endpoints, built by the fixed-end shooting solvers rather than the return
map.  Nothing on the production path calls it.
"""

from __future__ import annotations

import math
from typing import Optional

from ._util import quad
from .arcs import ArcSegment, lc_flow
from .boundary import PerturbationProfile
from .errors import QuadratureTolUnmet
from .inner import inner_arc_fixed_ends
from .outer import outer_arc_fixed_ends
from .params import PhysParams, potential


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
        z, dz, _ = arc._flow(u)
        v = max(potential(complex(z), arc.region, params), 0.0)
        return abs(complex(dz)) * math.sqrt(v)
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
        def kin(u):
            return abs(arc.velocity(u)) ** 2 * arc.ds_du(u)

        def pot(u):
            return max(potential(arc.point(u), arc.region, params), 0.0) * \
                arc.ds_du(u)

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
