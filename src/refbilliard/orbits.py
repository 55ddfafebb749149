"""Orbit iteration, rotation numbers, periodic orbits, stability, curve probes.

The return map is iterated on the lifted section (xi real, I bounded);
rotation numbers are tail averages of the angular advance.  Periodic orbits
come from root isolation of the circular shift (integrable case), from
Newton on the section map (period 1), or from critical points of the
discrete action W — its minimizer and a minimax cycle (the twist-map pair,
of Morse index 0 and 1), each found by Newton on the exact gradient and
Hessian of W.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

# minimize and root go uncalled; the benchmark's traced runs count by name
from ._util import minimize, root, wrap_pi  # noqa: F401
from .arcs import ArcSegment
from .boundary import PerturbationProfile
from .errors import (BilliardError, DescentStalled, InsufficientLength,
                     OrbitTerminated, RangeEmpty, ResidualTooLarge,
                     TotalReflectionTermination)
from .params import PhysParams
from .returnmap import (BoundaryState, circular_shift, outgoing_state,
                        return_map, tangent_map)
from .variational import (_action_terms, generating_function,
                          shift_inverse_all)


@dataclass
class OrbitTrace:
    """Iterated section states with their lifted angles and connecting arcs."""

    states: List[BoundaryState]
    arcs: List[ArcSegment]
    status: str
    xis_lifted: np.ndarray
    rotation_estimate: Tuple[float, float]


@dataclass(frozen=True)
class PeriodicOrbit:
    """An (m, n)-cycle of the return map: lifted angles, actions, residual."""

    m: int
    n: int
    xis: np.ndarray
    actions: np.ndarray
    residual: float
    kind: str
    grad_norm: float = math.nan


@dataclass(frozen=True)
class StabilityReport:
    """Exact monodromy of an n-step return and its classification."""

    matrix: np.ndarray
    trace: float
    det: float
    multipliers: np.ndarray
    classification: str


@dataclass(frozen=True)
class CurveProbe:
    """Fit of a long orbit by a single-valued curve I(xi) (invariant-curve test)."""

    target_rho: float
    seed_action: float
    measured_rho: float
    rho_error: float
    max_residual: float
    coefficients: np.ndarray
    n_iter: int
    status: str


# -- iteration and rotation numbers ---------------------------------------------


def iterate(initial: BoundaryState, n: int, profile: PerturbationProfile,
            params: PhysParams, method: str = "auto") -> OrbitTrace:
    """Apply the return map up to ``n`` times, recording the lifted angles.

    Termination (total reflection, failed event detection) truncates the
    trace; the outcome is encoded in ``status`` rather than raised.  On the
    closed-form circle path the first return fixes the shift f + g, and the
    remaining returns repeat it.
    """
    states = [initial]
    arcs: List[ArcSegment] = []
    lifted = [float(initial.xi)]
    status = "running"
    s = initial
    for _ in range(n):
        try:
            res = return_map(s, profile, params, method=method)
        except TotalReflectionTermination:
            status = "total_reflection"
            break
        except BilliardError:
            status = "failed"
            break
        s = res.state
        lifted.append(lifted[-1] + res.delta_xi)
        states.append(s)
        if not res.arcs:
            # closed form: the action is conserved, so is the shift
            _repeat_shift(states, lifted, res.delta_xi, n - 1)
            break
        arcs.extend(res.arcs)
    xis = np.array(lifted)
    est = (math.nan, math.inf)
    if len(xis) >= 2:
        est = _rotation_with_error(xis)
    return OrbitTrace(states=states, arcs=arcs, status=status,
                      xis_lifted=xis, rotation_estimate=est)


def _repeat_shift(states: List[BoundaryState], lifted: List[float],
                  theta: float, count: int) -> None:
    """Append ``count`` closed-form returns of ``states[-1]`` by the shift
    ``theta``: the float steps of :func:`return_map` without recomputing it."""
    last = states[-1]
    xi, lift = last.xi, lifted[-1]
    I, alpha = last.action_I, last.alpha
    for _ in range(count):
        xi = wrap_pi(xi + theta)
        lift += theta
        states.append(BoundaryState(xi, I, alpha))
        lifted.append(lift)


def _rotation_with_error(xis: np.ndarray) -> Tuple[float, float]:
    N = len(xis) - 1
    K = max(N // 2, 1)
    vals = (xis[K:] - xis[:-K]) / K
    est = float(np.mean(vals))
    q = max(len(vals) // 4, 1)
    tail = vals[-q:]
    err = float(max(tail.max() - tail.min(), 1e-14))
    return est, err


def rotation_number(trace: OrbitTrace) -> float:
    """Average angular advance per return of the trace, on the lift."""
    if len(trace.states) < 2:
        raise InsufficientLength(
            "rotation number requires at least two section states")
    return _rotation_with_error(trace.xis_lifted)[0]


# -- periodic orbits -------------------------------------------------------------


def _dedup_sorted(vals: Sequence[float]) -> List[float]:
    """``vals`` sorted, without values within 1e-9 of the one before."""
    out: List[float] = []
    for v in sorted(vals):
        if not out or abs(v - out[-1]) > 1e-9:
            out.append(v)
    return out


def _map_residual(xi0: float, I0: float, m: int, n: int,
                  profile: PerturbationProfile, params: PhysParams):
    """Lifted n-step return from (xi0, I0) and its periodicity defect."""
    s = outgoing_state(xi0, I0, profile, params)
    lift = float(xi0)
    xis = [lift]
    acts = [I0]
    for _ in range(n):
        res = return_map(s, profile, params)
        lift += res.delta_xi
        s = res.state
        xis.append(lift)
        acts.append(s.action_I)
    res_xi = lift - (xi0 + 2.0 * math.pi * m)
    res_I = s.action_I - I0
    return res_xi, res_I, np.array(xis), np.array(acts)


def _circular_orbits(m: int, n: int, roots: Sequence[float],
                     params: PhysParams,
                     profile: PerturbationProfile) -> List[PeriodicOrbit]:
    """The (m, n) orbit of each action in ``roots`` on the circle."""
    orbits = []
    for r in roots:
        res_xi, res_I, xis, acts = _map_residual(0.0, r, m, n, profile,
                                                 params)
        orbits.append(PeriodicOrbit(
            m=m, n=n, xis=xis[:-1], actions=acts[:-1],
            residual=max(abs(res_xi), abs(res_I)),
            kind="circular", grad_norm=0.0))
    return orbits


def _orbit_from_cycle(cycle: np.ndarray, m: int, n: int,
                      profile: PerturbationProfile, params: PhysParams,
                      action_hint: float, kind: str,
                      grad_norm: float) -> PeriodicOrbit:
    ev = generating_function(float(cycle[0]), float(cycle[1]), profile,
                             params, action_hint=action_hint)
    res_xi, res_I, xis, acts = _map_residual(float(cycle[0]), ev.action_I0,
                                             m, n, profile, params)
    return PeriodicOrbit(m=m, n=n, xis=xis[:-1], actions=acts[:-1],
                         residual=max(abs(res_xi), abs(res_I)), kind=kind,
                         grad_norm=grad_norm)


def cycle_distance(a: PeriodicOrbit, b: PeriodicOrbit) -> float:
    """Minimal state separation of two cycles over cyclic relabelings.

    Raises :class:`ValueError` unless the two cycles have the same period.
    """
    n = a.n
    if b.n != n:
        raise ValueError(
            f"cannot compare cycles of periods {a.n} and {b.n}")
    best = math.inf
    for j in range(n):
        dx = np.abs(wrap_pi(a.xis - np.roll(b.xis, -j)))
        dI = np.abs(a.actions - np.roll(b.actions, -j))
        best = min(best, float(np.maximum(dx, dI).max()))
    return best


def _newton_fixed_points(m: int, profile: PerturbationProfile,
                         params: PhysParams, seeds_I: Sequence[float]
                         ) -> List[PeriodicOrbit]:
    """Period-1 orbits by Newton on the map itself, sorted by wrapped xi,
    then by I.

    Collision cycles make the discrete action's interior branch
    discontinuous, so fixed points (including the ejection–collision ones on
    symmetry axes) are located directly on the section, from every seed
    action at 16 angles.
    """
    orbits: List[PeriodicOrbit] = []
    found: List[Tuple[float, float]] = []
    Ic = params.action_bound_Ic
    for I_seed in seeds_I:
        for xi_seed in np.linspace(-math.pi, math.pi, 16, endpoint=False):
            sol = _newton_fixed_point(float(xi_seed), I_seed, m, profile,
                                      params)
            if sol is None:
                continue
            xi_s, I_s = sol
            if abs(I_s) >= Ic * (1 - 1e-9):
                continue
            try:
                rx, rI, xis, acts = _map_residual(xi_s, I_s, m, 1, profile,
                                                  params)
            except BilliardError:
                continue
            resid = max(abs(rx), abs(rI))
            if resid > 1e-8:
                continue
            # the cycle distance of two period-1 orbits, in floats
            if all(max(abs(wrap_pi(xi_s - x)), abs(I_s - a)) > 1e-6
                   for x, a in found):
                found.append((xi_s, I_s))
                orbits.append(PeriodicOrbit(
                    m=m, n=1, xis=xis[:-1], actions=acts[:-1],
                    residual=resid, kind="map-newton"))
    return sorted(orbits, key=lambda o: (wrap_pi(float(o.xis[0])),
                                         float(o.actions[0])))


def _newton_fixed_point(xi: float, I: float, m: int,
                        profile: PerturbationProfile,
                        params: PhysParams) -> Optional[Tuple[float, float]]:
    """Newton's method on G = (lifted advance - 2 pi m, I1 - I0) from
    ``(xi, I)``, with the exact Jacobian DF - Id of :func:`tangent_map`.

    Steps are capped at 0.5 in max-norm.  Returns the first iterate with
    max |G| < 1e-12, or None after 30 steps, on a singular Jacobian or when
    the map fails.
    """
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


def find_periodic(m: int, n: int, profile: PerturbationProfile,
                  params: PhysParams) -> List[PeriodicOrbit]:
    """All (m, n)-periodic orbits the search can certify.

    Integrable case: every action with total shift 2 pi m/n (one orbit per
    root, the I = 0 ejection–collision line included for m = 0).  Perturbed
    case: period-1 cycles by Newton on the section map; for n >= 2 the
    minimizer of the discrete action (Morse index 0), from the uniform
    cycle 2 pi m k/n, and a minimax cycle (index 1), from that cycle turned
    by pi/(2n), both on the circular family of largest |I|.  A cycle is
    reported when its map residual is at most 1e-8, the minimax only when
    it lies more than 1e-4 from the minimizer.  Raises
    :class:`DescentStalled` when no minimizer is found.
    """
    if n < 1:
        raise ValueError("the period n must be a positive integer")
    if math.gcd(abs(m), n) != 1:
        raise ValueError("m and n must be coprime")
    target = 2.0 * math.pi * m / n
    roots = shift_inverse_all(target, params)
    Ic = params.action_bound_Ic
    roots = _dedup_sorted([0.0 if abs(r) < 1e-9 * Ic else r for r in roots])
    if not roots:
        raise RangeEmpty(f"the circular shift never equals 2 pi {m}/{n}")
    if profile.is_circle:
        return _circular_orbits(m, n, roots, params, profile)
    if n == 1:
        orbits = _newton_fixed_points(m, profile, params, roots)
        if not orbits:
            raise DescentStalled("no period-1 orbit converged on the section")
        return orbits
    I_seed = max(roots, key=abs)
    base = target * np.arange(n)
    orbits: List[PeriodicOrbit] = []
    for index, kind in enumerate(("action-minimizer", "action-minimax")):
        try:
            x, g_max = _critical_cycle(base + index * math.pi / (2 * n),
                                       index, m, n, profile, params, I_seed)
            orb = _orbit_from_cycle(x, m, n, profile, params, I_seed, kind,
                                    g_max)
        except BilliardError:
            if index == 0:
                raise
            continue
        if orb.residual <= 1e-8 and all(cycle_distance(orb, o) > 1e-4
                                        for o in orbits):
            orbits.append(orb)
        elif index == 0:
            raise DescentStalled(
                f"the minimizing cycle misses the map by {orb.residual:.3g}")
    return orbits


def _critical_cycle(x: np.ndarray, index: int, m: int, n: int,
                    profile: PerturbationProfile, params: PhysParams,
                    action_hint: float) -> Tuple[np.ndarray, float]:
    """A critical cycle of the discrete action of Morse index ``index``,
    by eigenvector-following Newton from ``x``; returns it and max |grad W|.

    Over the eigenpairs (l_i, v_i) of s H, with H the exact Hessian and s
    the sign of the twist b, each step is -sum v_i (v_i . s g)/|l_i|,
    reversed along the ``index`` lowest modes so that it climbs them, and
    capped at 0.5 in max-norm.  Stops at max |g| < 1e-12.  Raises
    :class:`DescentStalled` after 40 steps, or when the cycle reached has
    another index.
    """
    for _ in range(40):
        _, g, H, b = _action_terms(x, m, n, profile, params, action_hint)
        s = math.copysign(1.0, b[0])
        lam, V = np.linalg.eigh(s * H)
        g_max = float(np.max(np.abs(g)))
        if g_max < 1e-12:
            found = int(np.count_nonzero(lam < 0.0))
            if found != index:
                raise DescentStalled(
                    f"Newton reached a critical cycle of index {found}, "
                    f"not {index}")
            return x, g_max
        c = (V.T @ (s * g)) / np.abs(lam)
        c[:index] = -c[:index]
        step = V @ c
        cap = float(np.max(np.abs(step))) / 0.5
        if cap > 1.0:
            step = step / cap
        x = x - step
    raise DescentStalled(
        f"no critical cycle of index {index} after 40 Newton steps "
        f"(gradient {g_max:.3g})")


# -- linear stability ------------------------------------------------------------


def linear_stability(orbit: PeriodicOrbit, profile: PerturbationProfile,
                     params: PhysParams) -> StabilityReport:
    """Monodromy of the n-step return about a periodic orbit: the product of
    the n exact one-step derivatives of :func:`tangent_map` along it.

    |trace| below 2 is elliptic, above 2 hyperbolic, and within
    1e-7 max(1, |trace|) of 2 parabolic (the integrable shear).
    """
    if not (orbit.residual < 1e-8):
        raise ResidualTooLarge(
            f"periodicity residual {orbit.residual:.3g} too large for a "
            "meaningful monodromy")
    state = outgoing_state(float(orbit.xis[0]), float(orbit.actions[0]),
                           profile, params)
    M = np.eye(2)
    for _ in range(orbit.n):
        res = return_map(state, profile, params)
        M = tangent_map(state, res, profile, params) @ M
        state = res.state
    tr = float(M[0, 0] + M[1, 1])
    det = float(M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0])
    mult = np.linalg.eigvals(M)
    band = 1e-7 * max(1.0, abs(tr))
    if abs(abs(tr) - 2.0) <= band:
        cls = "parabolic"
    elif abs(tr) < 2.0:
        cls = "elliptic"
    else:
        cls = "hyperbolic"
    return StabilityReport(matrix=M, trace=tr, det=det, multipliers=mult,
                           classification=cls)


# -- invariant-curve probe -------------------------------------------------------


def is_diophantine_surrogate(rho: float) -> bool:
    """Whether rho/2pi keeps distance 1e-3 from all p/q with q <= 20."""
    x = rho / (2.0 * math.pi)
    for q in range(1, 21):
        p = round(x * q)
        if abs(x - p / q) < 1e-3:
            return False
    return True


def golden_target(params: PhysParams) -> float:
    """A noble rotation-number target inside the circular shift range.

    -2 pi/(2 + golden mean) lands in the Fig-1-like range and passes the
    rational-distance surrogate.
    """
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    return -2.0 * math.pi / (2.0 + phi)


def invariant_curve_probe(target_rho: float, profile: PerturbationProfile,
                          params: PhysParams, n_iter: int = 5000,
                          harmonics: int = 32) -> CurveProbe:
    """Probe for an invariant curve with the given rotation number.

    Seeds the action from the circular inverse of the shift (the root of
    largest twist |f' + g'|), refines it off the circle by a secant on the
    rotation number measured over 1500 returns, iterates ``n_iter`` returns
    and fits I as a truncated trigonometric polynomial of xi.  The fit
    residual is the numeric evidence for (or against) a surviving curve.
    """
    roots = shift_inverse_all(target_rho, params)
    if not roots:
        raise RangeEmpty(
            f"target rotation number {target_rho:.6g} is outside the "
            "circular shift range")
    I0 = max(roots, key=lambda r: abs(circular_shift(r, params)
                                      .total_prime))

    def measured(I, N):
        tr = iterate(outgoing_state(0.0, I, profile, params), N, profile,
                     params)
        if tr.status != "running":
            raise OrbitTerminated(
                f"probe orbit terminated with status {tr.status!r}")
        return tr, tr.rotation_estimate[0]

    if not profile.is_circle:
        Ia, N_ref = I0, 1500
        _, ra = measured(Ia, N_ref)
        slope = circular_shift(I0, params).total_prime
        Ib = Ia + (target_rho - ra) / slope
        for _ in range(6):
            if abs(ra - target_rho) < 3e-5:
                break
            _, rb = measured(Ib, N_ref)
            if abs(rb - ra) < 1e-15:
                break
            Ia, ra, Ib = Ib, rb, Ib + (target_rho - rb) * (Ib - Ia) / (rb - ra)
        I0 = Ia

    trace, rho = measured(I0, n_iter)
    xs = np.array([s.xi for s in trace.states])
    ys = np.array([s.action_I for s in trace.states])
    cols = [np.ones_like(xs)]
    for j in range(1, harmonics + 1):
        cols.extend([np.cos(j * xs), np.sin(j * xs)])
    A = np.column_stack(cols)
    coef, *_ = np.linalg.lstsq(A, ys, rcond=None)
    resid = float(np.max(np.abs(A @ coef - ys)))
    return CurveProbe(target_rho=target_rho, seed_action=float(I0),
                      measured_rho=float(rho),
                      rho_error=float(trace.rotation_estimate[1]),
                      max_residual=resid, coefficients=coef,
                      n_iter=len(trace.states) - 1, status=trace.status)


def curve_eval(probe: CurveProbe, xi) -> np.ndarray:
    """Evaluate the probe's fitted curve I(xi)."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    out = np.full_like(xi, probe.coefficients[0])
    H = (len(probe.coefficients) - 1) // 2
    for j in range(1, H + 1):
        out += probe.coefficients[2 * j - 1] * np.cos(j * xi)
        out += probe.coefficients[2 * j] * np.sin(j * xi)
    return out
