"""Orbit iteration, rotation numbers, periodic orbits, stability, curve probes.

The return map is iterated on the lifted section (xi real, I bounded);
rotation numbers are weighted Birkhoff averages of the angular advance per
return, with the gap between the averages over N and N/2 returns as their
error.  Periodic orbits come from root isolation of the circular shift
(integrable case), from Newton on the section map (period 1), or from
critical points of the discrete action W — its minimizer and a minimax
cycle (the twist-map pair, of Morse index 0 and 1), each found by Newton on
the exact gradient and Hessian of W.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

# minimize and root go uncalled; the benchmark's traced runs count by name
from ._util import TWO_PI, minimize, root, wrap_pi  # noqa: F401
from .arcs import ArcSegment
from .boundary import PerturbationProfile
from .errors import (BilliardError, DescentStalled, InsufficientLength,
                     OrbitTerminated, OutOfActionRange, RangeEmpty,
                     ResidualTooLarge, TotalReflectionTermination)
from .params import PhysParams
from .returnmap import (BoundaryState, circular_shift, outgoing_state,
                        return_map, tangent_map)
from .variational import _action_terms, shift_inverse_all

_LOG = logging.getLogger("refbilliard.orbits")


@dataclass
class OrbitTrace:
    """Iterated section states with their lifted angles and connecting arcs.

    ``arcs`` is empty unless the orbit was iterated with ``keep_arcs=True``.
    ``rotation_estimate`` is (rotation number, error): the weighted
    Birkhoff average of the advances per return and its gap to the average
    over the first half of them; (nan, inf) with no return, an infinite
    error with one.
    """

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
    """Exact monodromy of an n-step return and its classification.

    ``residue`` is Greene's residue (2 - trace)/4 (J. Math. Phys. 20,
    1979): negative or above 1 on a hyperbolic orbit, between 0 and 1 on an
    elliptic one.
    """

    matrix: np.ndarray
    trace: float
    det: float
    multipliers: np.ndarray
    classification: str
    residue: float


@dataclass(frozen=True)
class CurveProbe:
    """Fit of a long orbit by a single-valued curve I(xi) (invariant-curve test).

    ``rho_error`` is the orbit's rotation-number error (see
    :class:`OrbitTrace`); it stays small on an invariant curve and stalls
    on a chaotic orbit.
    """

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
            params: PhysParams, keep_arcs: bool = False) -> OrbitTrace:
    """Apply the return map up to ``n`` times, recording the lifted angles.

    Termination (total reflection, failed event detection) truncates the
    trace; the outcome is encoded in ``status`` rather than raised.  With
    ``keep_arcs`` every return is :func:`return_map`, on the circle too, and
    the trace keeps its two arcs.  Without, the trace holds no arcs
    (``arcs == []``), and on the circle the closed-form shift f + g of the
    launch action is evaluated once and repeated ``n`` times.
    """
    states, arcs, lifted = [initial], [], [float(initial.xi)]
    status = _advance(states, arcs, lifted, n, profile, params, keep_arcs)
    return _trace(states, arcs, status, lifted)


def _advance(states: List[BoundaryState], arcs: List[ArcSegment],
             lifted: List[float], n: int, profile: PerturbationProfile,
             params: PhysParams, keep_arcs: bool) -> str:
    """Apply the return map up to ``n`` more times from ``states[-1]``,
    appending to ``states``, ``lifted`` and (with ``keep_arcs``) ``arcs``;
    the status the orbit ends in."""
    if profile.is_circle and not keep_arcs:
        # closed form: the action is conserved, so is the shift
        if n > 0:
            try:
                theta = circular_shift(states[-1].action_I, params).total
            except OutOfActionRange:
                return "failed"
            _repeat_shift(states, lifted, theta, n)
        return "running"
    for _ in range(n):
        try:
            res = return_map(states[-1], profile, params)
        except TotalReflectionTermination:
            return "total_reflection"
        except BilliardError:
            return "failed"
        lifted.append(lifted[-1] + res.delta_xi)
        states.append(res.state)
        if keep_arcs:
            arcs.extend(res.arcs)
    return "running"


def _trace(states: List[BoundaryState], arcs: List[ArcSegment], status: str,
           lifted: List[float]) -> OrbitTrace:
    xis = np.array(lifted)
    est = _rotation_with_error(xis)
    return OrbitTrace(states=states, arcs=arcs, status=status,
                      xis_lifted=xis, rotation_estimate=est)


def _repeat_shift(states: List[BoundaryState], lifted: List[float],
                  theta: float, count: int) -> None:
    """Append ``count`` closed-form returns of ``states[-1]`` by the shift
    ``theta``: xi goes to ``wrap_pi(xi + theta)``, the lift to lift + theta.

    ``wrap_pi`` is inlined: the same operations in the same order, with
    -pi where the sum lands on +pi."""
    last = states[-1]
    xi, lift = last.xi, lifted[-1]
    I, alpha = last.action_I, last.alpha
    pi, two_pi = math.pi, TWO_PI
    for _ in range(count):
        xi = (xi + theta + pi) % two_pi - pi
        if xi == pi:
            xi = -pi
        lift += theta
        states.append(BoundaryState(xi, I, alpha))
        lifted.append(lift)


def _birkhoff_mean(steps: np.ndarray) -> float:
    """Weighted Birkhoff average of ``steps``: weights exp(-1/(t(1 - t)))
    at t = (k + 1/2)/N, normalised (Das, Saiki, Sander & Yorke,
    Nonlinearity 30, 2017).  On a quasi-periodic orbit it converges faster
    than any power of 1/N."""
    t = (np.arange(len(steps)) + 0.5) / len(steps)
    w = np.exp(-1.0 / (t * (1.0 - t)))
    return float(w @ steps / w.sum())


def _rotation_with_error(xis: np.ndarray) -> Tuple[float, float]:
    """(rotation number, error) of the lifted angles ``xis``.

    The rotation number is the weighted Birkhoff average of the N advances
    per return; the error is its gap to the same average over the first N/2.
    The gap stalls on a chaotic orbit.  (nan, inf) for no return, and an
    infinite error for one return, which has no two halves.
    """
    steps = np.diff(xis)
    N = len(steps)
    if N == 0:
        return math.nan, math.inf
    est = _birkhoff_mean(steps)
    if N < 2:
        return est, math.inf
    return est, abs(est - _birkhoff_mean(steps[:N // 2]))


def rotation_number(trace: OrbitTrace) -> float:
    """Average angular advance per return of the trace, on the lift."""
    if len(trace.states) < 2:
        raise InsufficientLength(
            "rotation number requires at least two section states")
    return trace.rotation_estimate[0]


# -- periodic orbits -------------------------------------------------------------


def _dedup_sorted(vals: Sequence[float]) -> List[float]:
    """``vals`` sorted, without values within 1e-9 of the one before."""
    out: List[float] = []
    for v in sorted(vals):
        if not out or abs(v - out[-1]) > 1e-9:
            out.append(v)
    return out


def _orbit_from_cycle(xi0: float, action_I0: float, m: int, n: int,
                      profile: PerturbationProfile, params: PhysParams,
                      kind: str, grad_norm: float = math.nan
                      ) -> PeriodicOrbit:
    """The (m, n) orbit of the map from ``(xi0, action_I0)``, with its
    periodicity residual: the n returns of :func:`_advance` (the closed
    form on the circle).  Raises :class:`OrbitTerminated` when the orbit
    stops before them."""
    states = [outgoing_state(xi0, action_I0, profile, params)]
    lifted = [float(xi0)]
    status = _advance(states, [], lifted, n, profile, params, False)
    if status != "running":
        raise OrbitTerminated(f"the ({m}, {n}) cycle ended in {status!r}")
    res_xi = lifted[-1] - (xi0 + 2.0 * math.pi * m)
    res_I = states[-1].action_I - action_I0
    return PeriodicOrbit(m=m, n=n, xis=np.array(lifted[:-1]),
                         actions=np.array([s.action_I for s in states[:-1]]),
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
    # in floats: cycles are short, and the period-1 search calls this for
    # every converged seed
    xa, Ia = a.xis.tolist(), a.actions.tolist()
    xb, Ib = b.xis.tolist(), b.actions.tolist()
    return min(max(max(abs(wrap_pi(xa[k] - xb[(k + j) % n])),
                       abs(Ia[k] - Ib[(k + j) % n])) for k in range(n))
               for j in range(n))


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
                orb = _orbit_from_cycle(xi_s, I_s, m, 1, profile, params,
                                        "map-newton")
            except BilliardError:
                continue
            if orb.residual > 1e-8:
                continue
            if all(cycle_distance(orb, o) > 1e-6 for o in orbits):
                orbits.append(orb)
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
    root, the I = 0 ejection–collision line included for m = 0), each
    iterated from xi = 0 in closed form.  Perturbed
    case: period-1 cycles by Newton on the section map; for n >= 2 the
    minimizer of the discrete action (Morse index 0), from the uniform
    cycle 2 pi m k/n, and a minimax cycle (index 1), from that cycle turned
    by pi/(2n), both on the circular family of largest |I|.  A cycle is
    reported when its map residual is at most 1e-8, the minimax only when
    it lies more than 1e-4 from the minimizer (``refbilliard.orbits`` logs
    at INFO why a minimax is left out).  Raises :class:`DescentStalled`
    when no minimizer is found.
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
        return [_orbit_from_cycle(0.0, r, m, n, profile, params, "circular",
                                  0.0) for r in roots]
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
            x, I0, g_max = _critical_cycle(base + index * math.pi / (2 * n),
                                           index, m, n, profile, params,
                                           I_seed)
            orb = _orbit_from_cycle(float(x[0]), I0, m, n, profile, params,
                                    kind, g_max)
        except BilliardError as exc:
            if index == 0:
                raise
            why = f"{type(exc).__name__}: {exc}"
        else:
            if not orb.residual <= 1e-8:
                if index == 0:
                    raise DescentStalled(f"the minimizing cycle misses the "
                                         f"map by {orb.residual:.3g}")
                why = f"its map residual {orb.residual:.3g} exceeds 1e-8"
            elif all(cycle_distance(orb, o) > 1e-4 for o in orbits):
                orbits.append(orb)
                continue
            else:
                why = "it lies within 1e-4 of the minimizer"
        _LOG.info("find_periodic(%d, %d) drops the %s: %s", m, n, kind, why)
    return orbits


def _critical_cycle(x: np.ndarray, index: int, m: int, n: int,
                    profile: PerturbationProfile, params: PhysParams,
                    action_hint: float) -> Tuple[np.ndarray, float, float]:
    """A critical cycle of the discrete action of Morse index ``index``,
    by eigenvector-following Newton from ``x``; returns it, the launch
    action of its link 0 and max |grad W|.

    Over the eigenpairs (l_i, v_i) of s H, with H the exact Hessian and s
    the sign of the twist b, each step is -sum v_i (v_i . s g)/|l_i|,
    reversed along the ``index`` lowest modes so that it climbs them, and
    capped at 0.5 in max-norm.  Stops at max |g| < 1e-12.  Raises
    :class:`DescentStalled` after 40 steps, or when the cycle reached has
    another index.
    """
    for _ in range(40):
        _, g, H, b, I0 = _action_terms(x, m, n, profile, params,
                                       action_hint)
        s = math.copysign(1.0, b[0])
        lam, V = np.linalg.eigh(s * H)
        g_max = float(np.max(np.abs(g)))
        if g_max < 1e-12:
            found = int(np.count_nonzero(lam < 0.0))
            if found != index:
                raise DescentStalled(
                    f"Newton reached a critical cycle of index {found}, "
                    f"not {index}")
            return x, I0, g_max
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
                           classification=cls, residue=(2.0 - tr) / 4.0)


# -- invariant-curve probe -------------------------------------------------------


def golden_target(params: PhysParams) -> float:
    """A noble rotation-number target inside the circular shift range.

    -2 pi/(2 + golden mean) lands in the Fig-1-like range, and its
    rho/2pi keeps distance 1e-3 from every p/q with q <= 20.
    """
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    return -2.0 * math.pi / (2.0 + phi)


def invariant_curve_probe(target_rho: float, profile: PerturbationProfile,
                          params: PhysParams, n_iter: int = 5000
                          ) -> CurveProbe:
    """Probe for an invariant curve with the given rotation number.

    Seeds the action from the circular inverse of the shift (the root of
    largest twist |f' + g'|), refines it by a secant on the rotation number
    measured over 300 returns (on the circle the seed is exact and the
    secant stops at its first test), extends the secant's orbit at the
    action it settles on to ``n_iter`` returns (or cuts it there), and fits
    I as a trigonometric polynomial of xi of degree 32.  The fitted
    orbit is bit for bit the fresh ``n_iter``-return orbit from that
    action, and its arcs are not kept.  The fit residual is the numeric
    evidence for (or against) a surviving curve; ``rho_error`` is the
    N-versus-N/2 gap of the weighted Birkhoff average, which stalls on a
    chaotic orbit.
    """
    roots = shift_inverse_all(target_rho, params)
    if not roots:
        raise RangeEmpty(
            f"target rotation number {target_rho:.6g} is outside the "
            "circular shift range")
    I0 = max(roots, key=lambda r: abs(circular_shift(r, params)
                                      .total_prime))

    def running(trace):
        if trace.status != "running":
            raise OrbitTerminated(
                f"probe orbit terminated with status {trace.status!r}")
        return trace

    def measured(I, N):
        return running(iterate(outgoing_state(0.0, I, profile, params), N,
                               profile, params))

    # on the circle the seed's shift is the target: the secant stops at once
    orbit = measured(I0, 300)
    Ia, ra = I0, orbit.rotation_estimate[0]
    slope = circular_shift(I0, params).total_prime
    Ib = Ia + (target_rho - ra) / slope
    for _ in range(6):
        if abs(ra - target_rho) < 3e-5:
            break
        orbit_b = measured(Ib, 300)
        rb = orbit_b.rotation_estimate[0]
        if abs(rb - ra) < 1e-15:
            break
        Ia, ra, Ib = Ib, rb, Ib + (target_rho - rb) * (Ib - Ia) / (rb - ra)
        orbit = orbit_b
    I0 = Ia

    # the orbit at the adopted action, cut or continued to n_iter returns
    states = orbit.states[:n_iter + 1]
    lifted = orbit.xis_lifted[:n_iter + 1].tolist()
    status = _advance(states, [], lifted, n_iter + 1 - len(states), profile,
                      params, False)
    trace = running(_trace(states, [], status, lifted))
    coef, resid = _curve_fit(trace.states, 32)
    rho, rho_error = trace.rotation_estimate
    return CurveProbe(target_rho=target_rho, seed_action=float(I0),
                      measured_rho=rho, rho_error=rho_error,
                      max_residual=resid, coefficients=coef,
                      n_iter=len(trace.states) - 1, status=trace.status)


def _curve_fit(states: Sequence[BoundaryState],
               harmonics: int) -> Tuple[np.ndarray, float]:
    """Least-squares fit of I by a trigonometric polynomial of xi of degree
    ``harmonics`` over the states: (coefficients, max |residual|)."""
    xs = np.array([s.xi for s in states])
    ys = np.array([s.action_I for s in states])
    cols = [np.ones_like(xs)]
    for j in range(1, harmonics + 1):
        cols.extend([np.cos(j * xs), np.sin(j * xs)])
    A = np.column_stack(cols)
    coef, *_ = np.linalg.lstsq(A, ys, rcond=None)
    return coef, float(np.max(np.abs(A @ coef - ys)))


def curve_eval(probe: CurveProbe, xi) -> np.ndarray:
    """Evaluate the probe's fitted curve I(xi)."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    out = np.full_like(xi, probe.coefficients[0])
    H = (len(probe.coefficients) - 1) // 2
    for j in range(1, H + 1):
        out += probe.coefficients[2 * j - 1] * np.cos(j * xi)
        out += probe.coefficients[2 * j] * np.sin(j * xi)
    return out
