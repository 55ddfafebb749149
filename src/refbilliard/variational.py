"""Jacobi lengths, geodesic distances, and the generating function.

Zero-energy trajectories are geodesics of the Jacobi metric sqrt(V)|dz|, so
each arc carries a length d(., .); the generating function of the return map
is S(xi0, xi1) = d_E(xi0, xi_mid) + d_I(xi_mid, xi1), taken along the orbit
of the return map that joins xi0 to xi1.  Its refraction point xi_mid is
stationary for d_E + d_I, because Snell's law there matches the canonical
action on both sides.  Canonical actions are the conjugate boundary momenta:
I0 = -dS/dxi0, I1 = +dS/dxi1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from ._util import brentq, quad, shoot
from .arcs import ArcSegment, lc_flow
from .boundary import PerturbationProfile
from .errors import DegenerateStationarity, QuadratureTolUnmet, RangeEmpty
from .inner import inner_arc_fixed_ends
from .outer import outer_arc_fixed_ends
from .params import PhysParams, potential
from .returnmap import (_action_bound, circular_shift, outgoing_state,
                        return_map, total_shift_grid)


# -- Jacobi metric functionals -------------------------------------------------


def _length_integrand(arc: ArcSegment, params: PhysParams):
    """sqrt(V(z)) |dz/du| along the arc, collision-safe in the LC chart."""
    if arc.chart == "lc":
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


def jacobi_length(arc: ArcSegment, params: PhysParams,
                  tol: float = 1e-10) -> float:
    """Length of the arc in the Jacobi metric sqrt(V)|dz| (adaptive quadrature)."""
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
    if arc.chart == "lc":
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
    return jacobi_length(arc, params)


def inner_distance(xi0: float, xi1: float, profile: PerturbationProfile,
                   params: PhysParams, branch: str = "winding",
                   lifted_sweep: Optional[float] = None) -> float:
    """Jacobi length d_I of the interior arc joining two boundary angles."""
    arc = inner_arc_fixed_ends(xi0, xi1, profile, params, branch=branch,
                               lifted_sweep=lifted_sweep)
    return jacobi_length(arc, params)


# -- circular shift inversion (seeding) ----------------------------------------


def shift_inverse_all(delta: float, params: PhysParams,
                      n_scan: int = 8192) -> list:
    """All actions I in (-I_c, I_c) whose circular total shift equals ``delta``.

    The shift can fold (twist sign changes), so several roots may exist;
    they are bracketed on a scan grid and polished by Brent's method.
    """
    Ic = params.action_bound_Ic
    grid = np.linspace(-Ic * (1 - 1e-9), Ic * (1 - 1e-9), n_scan)
    vals = total_shift_grid(grid, params) - delta
    roots = []
    for i in np.nonzero(vals[1:] * vals[:-1] <= 0.0)[0]:
        if vals[i] == 0.0:
            roots.append(float(grid[i]))
        elif vals[i + 1] != 0.0:
            roots.append(brentq(
                lambda I: circular_shift(I, params).total - delta,
                grid[i], grid[i + 1], xtol=1e-14, rtol=8.9e-16))
    if vals[-1] == 0.0:
        roots.append(float(grid[-1]))
    return roots


def _seed_action(delta: float, params: PhysParams,
                 action_hint: Optional[float]) -> float:
    roots = shift_inverse_all(delta, params)
    if abs(delta) < 1e-12:
        roots.append(0.0)
    if not roots:
        raise RangeEmpty(
            f"no circular arc family realizes a lifted shift of {delta:.6g}")
    if action_hint is not None:
        pick = min(roots, key=lambda r: abs(r - action_hint))
    else:
        pick = max(roots, key=abs)
    if abs(pick) < 1e-9 * params.action_bound_Ic:
        pick = 0.0
    return pick


# -- the generating function ---------------------------------------------------


@dataclass(frozen=True)
class GeneratingEval:
    """Generating function of one return step and its diagnostics.

    ``xi_mid`` is the refraction point where the exterior arc lands;
    ``nondeg_twist`` is the mixed second derivative
    d^2 S/dxi0 dxi1 = -dI0/dxi1 = -1/(d delta/d I0).
    """

    S_value: float
    xi_mid: float
    action_I0: float
    action_I1: float
    nondeg_twist: float


def generating_function(xi0: float, xi1: float,
                        profile: PerturbationProfile, params: PhysParams,
                        action_hint: Optional[float] = None
                        ) -> GeneratingEval:
    """Evaluate S(xi0, xi1) on the return-map orbit from ``xi0`` to ``xi1``.

    ``xi0``/``xi1`` are lifted (real) boundary angles; their difference
    delta selects the arc family.  Where the circular shift folds, several
    families realize the same difference — the largest-|I| family is chosen
    unless ``action_hint`` picks another.  The launch action I0 is shot,
    within the seed's sign and the local action bound at ``xi0``, until the
    geometric return map from (xi0, I0) advances the lifted angle by delta;
    S is the Jacobi length of the two arcs that step traverses.
    """
    delta = xi1 - xi0
    I_seed = _seed_action(delta, params, action_hint)
    lim = _action_bound(xi0, profile, params) * (1.0 - 1e-9)
    lo = -lim if I_seed <= 0.0 else 0.0
    hi = lim if I_seed >= 0.0 else 0.0

    def step(I0):
        return return_map(outgoing_state(xi0, I0, profile, params), profile,
                          params, method="geometric")

    I0 = shoot(lambda I: step(I).delta_xi - delta,
               min(max(I_seed, lo), hi), lo, hi, 1e-12, "generating function")
    h = 1e-6
    slope = (step(I0 + h).delta_xi - step(I0 - h).delta_xi) / (2.0 * h)
    if abs(slope) < 1e-8:
        raise DegenerateStationarity(
            "the lifted advance is stationary in the launch action "
            "(twist-critical fiber); S is not a valid local generating "
            "function here")
    res = step(I0)
    S = sum(jacobi_length(arc, params) for arc in res.arcs)
    return GeneratingEval(S_value=S, xi_mid=res.arcs[0].xi1,
                          action_I0=I0, action_I1=res.state.action_I,
                          nondeg_twist=-1.0 / slope)


# -- discrete action of periodic cycles ----------------------------------------


def discrete_action(cycle: Sequence[float], m: int, n: int,
                    profile: PerturbationProfile, params: PhysParams,
                    action_hint: Optional[float] = None
                    ) -> Tuple[float, np.ndarray]:
    """Total action W = sum S(xi_k, xi_{k+1}) of an (m, n) cycle, with gradient.

    ``cycle`` holds n lifted angles; the closing link wraps to xi_0 + 2*pi*m.
    The gradient uses the canonical-action identities: dW/dxi_k equals the
    incoming minus the outgoing action at vertex k; it vanishes exactly on
    orbits of the return map.
    """
    xs = list(map(float, cycle))
    if len(xs) != n:
        raise ValueError(f"cycle length {len(xs)} != n = {n}")
    ends = xs + [xs[0] + 2.0 * math.pi * m]
    links = [generating_function(ends[k], ends[k + 1], profile, params,
                                 action_hint=action_hint)
             for k in range(n)]
    W = sum(l.S_value for l in links)
    grad = np.array([links[k - 1].action_I1 - links[k].action_I0
                     for k in range(n)])
    return W, grad
