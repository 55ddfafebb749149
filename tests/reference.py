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
Last, it keeps the perturbed periodic search that multiple shooting
replaced, so that the tests can check that none of its cycles is lost.

Every integral goes through :func:`scipy.integrate.quad`.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from refbilliard import (ArcSegment, PerturbationProfile, PhysParams,
                         cycle_distance, generating_function,
                         inner_arc_fixed_ends, outer_arc_fixed_ends,
                         outgoing_state, potential, return_map,
                         shift_inverse_all, tangent_map)
from refbilliard.arcs import lc_flow
from refbilliard.errors import BilliardError, DescentStalled, RangeEmpty
from refbilliard.orbits import _orbit_from_cycle
from refbilliard.variational import _action_hessian


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


# -- the periodic search before multiple shooting ------------------------------


def search_before(m: int, n: int, profile: PerturbationProfile,
                  params: PhysParams) -> list:
    """The perturbed (m, n) cycles of the search that multiple shooting
    replaced, or its error: for n = 1, Newton on the map from 16 angles on
    every circular family (kind "map-newton"); for n >= 2, the minimizer and
    a minimax of the discrete action, by eigenvector-following Newton from
    the uniform cycle and that cycle turned by pi/(2n), on the family of
    largest |I|, each link shot by :func:`generating_function`."""
    roots = []
    for r in shift_inverse_all(2.0 * math.pi * m / n, params):
        if not roots or abs(r - roots[-1]) > 1e-9:
            roots.append(r)
    if not roots:
        raise RangeEmpty(f"the circular shift never equals 2 pi {m}/{n}")
    if n == 1:
        orbits = []
        for I_seed in roots:
            for xi_seed in np.linspace(-math.pi, math.pi, 16,
                                       endpoint=False):
                sol = _newton_fixed_point(float(xi_seed), I_seed, m, profile,
                                          params)
                if sol is None or \
                        abs(sol[1]) >= params.action_bound_Ic * (1 - 1e-9):
                    continue
                try:
                    orb = _orbit_from_cycle(*sol, m, 1, profile, params,
                                            "map-newton")
                except BilliardError:
                    continue
                if orb.residual <= 1e-8 and all(
                        cycle_distance(orb, o) > 1e-6 for o in orbits):
                    orbits.append(orb)
        if not orbits:
            raise DescentStalled("no period-1 orbit converged on the section")
        return orbits
    I_seed = max(roots, key=abs)
    base = 2.0 * math.pi * m / n * np.arange(n)
    orbits = []
    for index, kind in enumerate(("action-minimizer", "action-minimax")):
        try:
            x, I0 = _critical_cycle(base + index * math.pi / (2 * n), index,
                                    m, n, profile, params, I_seed)
            orb = _orbit_from_cycle(float(x[0]), I0, m, n, profile, params,
                                    kind)
        except BilliardError:
            if index == 0:
                raise
            continue
        if not orb.residual <= 1e-8:
            if index == 0:
                raise DescentStalled("the minimizing cycle misses the map")
        elif all(cycle_distance(orb, o) > 1e-4 for o in orbits):
            orbits.append(orb)
    return orbits


def _newton_fixed_point(xi, I, m, profile, params):
    """Newton on (lifted advance - 2 pi m, I1 - I0) with the Jacobian
    DF - Id, steps capped at 0.5; the iterate with max |G| < 1e-12, or None
    after 30 steps, on a singular Jacobian or a map error."""
    for _ in range(30):
        try:
            state = outgoing_state(xi, I, profile, params)
            res = return_map(state, profile, params)
        except BilliardError:
            return None
        gx = res.delta_xi - 2.0 * math.pi * m
        gI = res.state.action_I - I
        if max(abs(gx), abs(gI)) < 1e-12:
            return xi, I
        (a, b), (c, d) = tangent_map(state, res, profile, params).tolist()
        a -= 1.0
        d -= 1.0
        det = a * d - b * c
        if det == 0.0 or not math.isfinite(det):
            return None
        dxi = (d * gx - b * gI) / det
        dI = (a * gI - c * gx) / det
        cap = max(abs(dxi), abs(dI)) / 0.5
        if cap > 1.0:
            dxi, dI = dxi / cap, dI / cap
        xi, I = xi - dxi, I - dI
    return None


def _critical_cycle(x, index, m, n, profile, params, action_hint):
    """A critical cycle of the discrete action of Morse index ``index`` and
    the launch action of its link 0, by eigenvector-following Newton from
    ``x``: each step is -sum v_i (v_i . s g)/|l_i| over the eigenpairs of
    s H (s the sign of the twist), reversed along the ``index`` lowest
    modes, capped at 0.5.  Raises :class:`DescentStalled` after 40 steps or
    at a cycle of another index."""
    for _ in range(40):
        ends = list(map(float, x)) + [float(x[0]) + 2.0 * math.pi * m]
        links = [generating_function(ends[k], ends[k + 1], profile, params,
                                     action_hint=action_hint)
                 for k in range(n)]
        g = np.array([links[k - 1].action_I1 - links[k].action_I0
                      for k in range(n)])
        H = _action_hessian([link.tangent.tolist() for link in links])
        s = math.copysign(1.0, float(links[0].tangent[0, 1]))
        lam, V = np.linalg.eigh(s * H)
        if np.max(np.abs(g)) < 1e-12:
            if np.count_nonzero(lam < 0.0) != index:
                raise DescentStalled("a critical cycle of another index")
            return x, links[0].action_I0
        c = (V.T @ (s * g)) / np.abs(lam)
        c[:index] = -c[:index]
        step = V @ c
        cap = float(np.max(np.abs(step))) / 0.5
        if cap > 1.0:
            step = step / cap
        x = x - step
    raise DescentStalled(f"no critical cycle of index {index}")
