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

from ._util import brentq, shoot, sign_change_brackets, wrap_pi
from .arcs import ArcSegment
from .boundary import PerturbationProfile
from .errors import DegenerateStationarity, NoFixedPoint, RangeEmpty
from .params import PhysParams
from .returnmap import (BoundaryState, _action_bound, _circle_scan,
                        circular_shift, return_map, tangent_map)


# -- Jacobi lengths ------------------------------------------------------------


def jacobi_length(arc: ArcSegment, params: PhysParams) -> float:
    """Length of the arc in the Jacobi metric sqrt(V)|dz|, in closed form.

    On a zero-energy arc |v|^2 = 2V, so sqrt(V)|dz| = sqrt(2) V ds and the
    length is sqrt(2) int V ds over the kinetic time T:

    - exterior: V = E - (om/2)|z|^2, and on z = p0 cos(ws) + q0 sin(ws),
      q0 = v0/w, |z|^2 = (|p0|^2 + |q0|^2)/2 + (|p0|^2 - |q0|^2)/2 cos(2ws)
      + p0.q0 sin(2ws);
    - interior: V ds = (E_K + mu/|z|) ds and ds = 2|z| dtau in the
      Levi-Civita chart, so int V ds = E_K T + 2 mu tau1.
    """
    T = arc.duration
    if T == 0.0:
        return 0.0
    if arc.region == "outer":
        w = arc.par[0]
        p0, q0 = arc.p0, arc.v0 / w
        pp = p0.real * p0.real + p0.imag * p0.imag
        qq = q0.real * q0.real + q0.imag * q0.imag
        dot = p0.real * q0.real + p0.imag * q0.imag
        sn = math.sin(w * T)
        zz = (0.5 * (pp + qq) * T +
              (0.5 * (pp - qq) * math.sin(2.0 * w * T) +
               2.0 * dot * sn * sn) / (2.0 * w))
        V = params.energy_E * T - 0.5 * params.stiffness_om * zz
    else:
        V = params.kepler_energy * T + 2.0 * params.mass_mu * arc.par[3]
    return math.sqrt(2.0) * V


# -- circular shift inversion (seeding) ----------------------------------------


def shift_inverse_all(delta: float, params: PhysParams) -> list:
    """All actions I, ascending, whose circular total shift equals ``delta``
    (on the band of :func:`returnmap.circular_shift`).

    The shift can fold (twist sign changes), so several roots may exist;
    they are bracketed on the grid of :func:`returnmap._circle_scan` (8192
    actions and the folds) and polished by Brent's method.  A root within
    1e-9 I_c of the collision line I = 0 is returned as 0.0.
    """
    return [_polish(b, delta, params) for b in _shift_brackets(delta, params)]


def find_nonhomothetic_fixed_point(params: PhysParams) -> float:
    """The smallest positive root of the total shift, off the collision
    line (which :func:`shift_inverse_all` returns as 0.0): a period-1 orbit.
    Raises :class:`NoFixedPoint` when the shift has no such zero."""
    for root in shift_inverse_all(0.0, params):
        if root > 0.0:
            return root
    raise NoFixedPoint("the total shift has no zero on (0, I_c) off the "
                       "collision line: no non-homothetic fixed point")


def _shift_brackets(delta: float, params: PhysParams) -> list:
    """Brackets (a, b) of the roots of :func:`shift_inverse_all`, one per
    root, disjoint and ascending; a == b marks an exact root."""
    grid, shifts, _ = _circle_scan(params)
    return sign_change_brackets(grid, shifts - delta)


def _polish(bracket: Tuple[float, float], delta: float,
            params: PhysParams) -> float:
    """The root of the total circular shift minus ``delta`` in ``bracket``;
    0.0 when it lies within 1e-9 I_c of the collision line."""
    a, b = bracket
    root = a if a == b else brentq(
        lambda I: circular_shift(I, params).total - delta, a, b,
        xtol=1e-14, rtol=8.9e-16)
    return 0.0 if abs(root) < 1e-9 * params.action_bound_Ic else root


def _seed_action(delta: float, params: PhysParams,
                 action_hint: Optional[float]) -> float:
    """The root of :func:`shift_inverse_all` nearest ``action_hint``, else
    the one of largest |I| (first on ties); 0 on the collision family.

    ``near`` bounds the key from below over each root bracket, so brackets
    are polished best bound first until none left can beat the best root
    found: the roots left out are strictly worse, and ties are settled on
    polished values.  Usually one bracket is polished, two near a fold.
    """
    brackets = _shift_brackets(delta, params)
    if action_hint is None:
        def key(r):
            return -abs(r)
        near = [-max(abs(a), abs(b)) for a, b in brackets]
    else:
        def key(r):
            return abs(r - action_hint)
        near = [0.0 if a <= action_hint <= b else
                min(abs(a - action_hint), abs(b - action_hint))
                for a, b in brackets]
    found = {}
    best = math.inf
    for k in sorted(range(len(brackets)), key=near.__getitem__):
        if near[k] > best:
            break
        found[k] = _polish(brackets[k], delta, params)
        best = min(best, key(found[k]))
    if not found:
        raise RangeEmpty(
            f"no circular arc family realizes a lifted shift of {delta:.6g}")
    return min((found[k] for k in sorted(found)), key=key)


# -- the generating function ---------------------------------------------------


@dataclass(frozen=True)
class GeneratingEval:
    """Generating function of one return step and its diagnostics.

    ``xi_mid`` is the refraction point where the exterior arc lands;
    ``nondeg_twist`` is the mixed second derivative
    d^2 S/dxi0 dxi1 = -dI0/dxi1 = -1/(d delta/d I0); ``tangent`` is the
    step's tangent map DF = d(xi1, I1)/d(xi0, I0).
    """

    S_value: float
    xi_mid: float
    action_I0: float
    action_I1: float
    nondeg_twist: float
    tangent: np.ndarray


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
    S is the Jacobi length of the two arcs that step traverses, carried to
    xi1 across the shot's last miss (below 1e-12) by dS/dxi1 = I1.  The
    shooting slope is the exact d delta/d I0 of :func:`tangent_map`, and the
    last shot supplies S, xi_mid, I1, the twist and the tangent map without
    further map calls.
    """
    delta = xi1 - xi0
    I_seed = _seed_action(delta, params, action_hint)
    bound = _action_bound(xi0, profile, params)
    lim = bound * (1.0 - 1e-9)
    lo = -lim if I_seed <= 0.0 else 0.0
    hi = lim if I_seed >= 0.0 else 0.0
    xi_start = wrap_pi(xi0)

    last = []

    def resid(I0):
        # |I0| <= lim < bound: the state outgoing_state would build
        state = BoundaryState(xi=xi_start, action_I=I0,
                              alpha=math.asin(I0 / bound))
        res = return_map(state, profile, params)
        tangent = tangent_map(state, res, profile, params)
        last[:] = res, tangent
        return res.delta_xi - delta, float(tangent[0, 1])

    I0 = shoot(resid, min(max(I_seed, lo), hi), lo, hi, 1e-12,
               "generating function")
    res, tangent = last
    slope = float(tangent[0, 1])
    if abs(slope) < 1e-8:
        raise DegenerateStationarity(
            "the lifted advance is stationary in the launch action "
            "(twist-critical fiber); S is not a valid local generating "
            "function here")
    S = sum(jacobi_length(arc, params) for arc in res.arcs) - \
        res.state.action_I * (res.delta_xi - delta)
    return GeneratingEval(S_value=S, xi_mid=res.arcs[0].xi1,
                          action_I0=I0, action_I1=res.state.action_I,
                          nondeg_twist=-1.0 / slope, tangent=tangent)


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
    return _action_terms(cycle, m, n, profile, params, action_hint)[:2]


def _action_terms(cycle: Sequence[float], m: int, n: int,
                  profile: PerturbationProfile, params: PhysParams,
                  action_hint: Optional[float]):
    """W, its gradient and its exact Hessian (:func:`_action_hessian`) of an
    (m, n) cycle, from one pass over its links."""
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
    return W, grad, _action_hessian([l.tangent.tolist() for l in links])


def _action_hessian(tangents: Sequence) -> np.ndarray:
    """The exact Hessian of the discrete action of a cycle whose link k has
    the tangent map ``tangents[k]`` = [[a, b], [c, d]].  With S_00 = a/b,
    S_01 = -1/b and S_11 = d/b it is cyclic tridiagonal: H_kk =
    d_{k-1}/b_{k-1} + a_k/b_k, H_{k,k+1} = -1/b_k (Meiss, Rev. Mod. Phys. 64,
    1992); for n <= 2 the links that join the same vertices add up."""
    n = len(tangents)
    H = np.zeros((n, n))
    for k, ((a, b), (_, d)) in enumerate(tangents):
        j = (k + 1) % n
        H[k, k] += a / b
        H[j, j] += d / b
        H[k, j] -= 1.0 / b
        H[j, k] -= 1.0 / b
    return H
