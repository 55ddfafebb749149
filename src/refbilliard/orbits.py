"""Orbit iteration, rotation numbers, periodic orbits, stability, curve probes.

The return map is iterated on the lifted section (xi real, I bounded);
rotation numbers are weighted Birkhoff averages of the angular advance per
return, with the gap between the averages over N and N/2 returns as their
error.  Periodic orbits come from root isolation of the circular shift
(integrable case) or, on a perturbed interface, from one Newton on the n
states of a cycle for every period n: multiple shooting on the section map,
from every circular family.  Each cycle is labelled by its Morse index as a
critical cycle of the discrete action W (minimizer, minimax, higher), read
from the Hessian of W that its own tangent maps give.
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

# minimize and root go uncalled; the benchmark's traced runs count by name
from ._util import TWO_PI, minimize, root, wrap_pi  # noqa: F401
from .arcs import ArcSegment
from .boundary import PerturbationProfile
from .errors import (BilliardError, CyclesUnresolved, DegenerateStationarity,
                     DescentStalled, InsufficientLength, OrbitTerminated,
                     OutOfActionRange, RangeEmpty, ResidualTooLarge,
                     TotalReflectionTermination)
from .params import PhysParams
from .returnmap import (BoundaryState, circular_shift, outgoing_state,
                        return_map, tangent_map)
from .variational import _action_hessian, shift_inverse_all

_LOG = logging.getLogger("refbilliard.orbits")

#: the periodic search stops at max |G| below this (see _shoot_cycle)
_NEWTON_TOL = 1e-12

#: a cycle closes when its periodicity residual is at most this: the search
#: keeps it and :func:`linear_stability` accepts it
_CLOSE_TOL = 1e-8


@dataclass
class OrbitTrace:
    """Iterated section states as float columns, with their lifted angles
    and connecting arcs.

    ``xis`` (wrapped angles), ``actions`` and ``alphas`` are float64 arrays
    of one entry per state, launch included; ``states`` builds the
    :class:`BoundaryState` list from them anew on each access.  ``arcs`` is
    empty unless the orbit was iterated with ``keep_arcs=True``.
    ``rotation_estimate`` is (rotation number, error): the weighted
    Birkhoff average of the advances per return and its gap to the average
    over the first half of them; (nan, inf) with no return, an infinite
    error with one.
    """

    xis: np.ndarray
    actions: np.ndarray
    alphas: np.ndarray
    arcs: List[ArcSegment]
    status: str
    xis_lifted: np.ndarray
    rotation_estimate: Tuple[float, float]

    @property
    def states(self) -> List[BoundaryState]:
        """The section states, one :class:`BoundaryState` per entry of the
        columns, built on each access."""
        return [BoundaryState(xi, I, alpha) for xi, I, alpha in
                zip(self.xis.tolist(), self.actions.tolist(),
                    self.alphas.tolist())]


@dataclass(frozen=True)
class PeriodicOrbit:
    """An (m, n)-cycle of the return map: lifted angles, actions, residual,
    and the radius ``error_bound`` about it that holds the true cycle (0 on
    the circle, whose cycles are closed form)."""

    m: int
    n: int
    xis: np.ndarray
    actions: np.ndarray
    residual: float
    kind: str
    error_bound: float = math.nan


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
    classification: str
    residue: float


@dataclass(frozen=True)
class CurveProbe:
    """Fit of a long orbit by a single-valued curve I(xi) (invariant-curve test).

    ``rho_error`` is the orbit's rotation-number error (see
    :class:`OrbitTrace`); it stays small on an invariant curve and stalls
    on a chaotic orbit.
    """

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
    """Apply the return map up to ``n`` times, recording the section states
    as the trace's float columns ``xis``, ``actions`` and ``alphas`` and
    the lifted angles.

    Termination (total reflection, failed event detection) truncates the
    trace; the outcome is encoded in ``status`` rather than raised.  With
    ``keep_arcs`` every return is :func:`return_map`, on the circle too, and
    the trace keeps its two arcs.  Without, the trace holds no arcs
    (``arcs == []``), and on the circle the closed-form shift f + g of the
    launch action is evaluated once and repeated ``n`` times, building no
    :class:`BoundaryState` (``OrbitTrace.states`` builds them when read).
    """
    cols = ([float(initial.xi)], [float(initial.action_I)],
            [float(initial.alpha)])
    arcs, lifted = [], [float(initial.xi)]
    status = _advance(cols, arcs, lifted, n, profile, params, keep_arcs)
    return _trace(cols, arcs, status, lifted)


#: the section columns of a trace being built: xi, action_I and alpha lists
_Columns = Tuple[List[float], List[float], List[float]]


def _advance(cols: _Columns, arcs: List[ArcSegment], lifted: List[float],
             n: int, profile: PerturbationProfile, params: PhysParams,
             keep_arcs: bool) -> str:
    """Apply the return map up to ``n`` more times from the last entries of
    the columns ``cols``, appending to them, to ``lifted`` and (with
    ``keep_arcs``) to ``arcs``; the status the orbit ends in."""
    xis, actions, alphas = cols
    if profile.is_circle and not keep_arcs:
        # closed form: the action is conserved, so is the shift
        if n > 0:
            try:
                theta = circular_shift(actions[-1], params).total
            except OutOfActionRange:
                return "failed"
            _repeat_shift(xis, lifted, theta, n)
            actions.extend([actions[-1]] * n)
            alphas.extend([alphas[-1]] * n)
        return "running"
    state = BoundaryState(xis[-1], actions[-1], alphas[-1])
    for _ in range(n):
        try:
            res = return_map(state, profile, params)
        except TotalReflectionTermination:
            return "total_reflection"
        except BilliardError:
            return "failed"
        state = res.state
        lifted.append(lifted[-1] + res.delta_xi)
        xis.append(state.xi)
        actions.append(state.action_I)
        alphas.append(state.alpha)
        if keep_arcs:
            arcs.extend(res.arcs)
    return "running"


def _trace(cols: _Columns, arcs: List[ArcSegment], status: str,
           lifted: List[float]) -> OrbitTrace:
    xis_lifted = np.array(lifted)
    est = _rotation_with_error(xis_lifted)
    xis, actions, alphas = (np.array(c, dtype=np.float64) for c in cols)
    return OrbitTrace(xis=xis, actions=actions, alphas=alphas, arcs=arcs,
                      status=status, xis_lifted=xis_lifted,
                      rotation_estimate=est)


def _repeat_shift(xis: List[float], lifted: List[float], theta: float,
                  count: int) -> None:
    """Append ``count`` closed-form returns of the last entries by the
    shift ``theta``: xi goes to ``wrap_pi(xi + theta)``, the lift to
    lift + theta.

    ``wrap_pi`` is inlined: the same operations in the same order, with
    -pi where the sum lands on +pi."""
    xi, lift = xis[-1], lifted[-1]
    pi, two_pi = math.pi, TWO_PI
    for _ in range(count):
        xi = (xi + theta + pi) % two_pi - pi
        if xi == pi:
            xi = -pi
        lift += theta
        xis.append(xi)
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
    if len(trace.xis) < 2:
        raise InsufficientLength(
            "rotation number requires at least two section states")
    return trace.rotation_estimate[0]


# -- periodic orbits -------------------------------------------------------------


def _orbit_from_cycle(xi0: float, action_I0: float, m: int, n: int,
                      profile: PerturbationProfile, params: PhysParams,
                      kind: str, error_bound: float = math.nan
                      ) -> PeriodicOrbit:
    """The (m, n) orbit of the map from ``(xi0, action_I0)``, with its
    periodicity residual: the n returns of :func:`_advance` (the closed
    form on the circle).  Raises :class:`OrbitTerminated` when the orbit
    stops before them."""
    state = outgoing_state(xi0, action_I0, profile, params)
    actions, lifted = [state.action_I], [float(xi0)]
    status = _advance(([state.xi], actions, [state.alpha]), [], lifted, n,
                      profile, params, False)
    if status != "running":
        raise OrbitTerminated(f"the ({m}, {n}) cycle ended in {status!r}")
    res_xi = lifted[-1] - (xi0 + 2.0 * math.pi * m)
    res_I = actions[-1] - action_I0
    return PeriodicOrbit(m=m, n=n, xis=np.array(lifted[:-1]),
                         actions=np.array(actions[:-1]),
                         residual=max(abs(res_xi), abs(res_I)), kind=kind,
                         error_bound=error_bound)


def _check_closed(orbit: PeriodicOrbit) -> None:
    """Raises :class:`ResidualTooLarge` unless ``orbit`` closes within
    :data:`_CLOSE_TOL`."""
    if not orbit.residual <= _CLOSE_TOL:
        raise ResidualTooLarge(
            f"periodicity residual {orbit.residual:.3g} above {_CLOSE_TOL:g}")


def cycle_distance(a: PeriodicOrbit, b: PeriodicOrbit) -> float:
    """Minimal state separation of two cycles over cyclic relabelings.

    Raises :class:`ValueError` unless the two cycles have the same period.
    """
    n = a.n
    if b.n != n:
        raise ValueError(
            f"cannot compare cycles of periods {a.n} and {b.n}")
    # in floats: cycles are short, and the periodic search calls this for
    # every converged start
    xa, Ia = a.xis.tolist(), a.actions.tolist()
    xb, Ib = b.xis.tolist(), b.actions.tolist()
    return min(max(max(abs(wrap_pi(xa[k] - xb[(k + j) % n])),
                       abs(Ia[k] - Ib[(k + j) % n])) for k in range(n))
               for j in range(n))


def find_periodic(m: int, n: int, profile: PerturbationProfile,
                  params: PhysParams) -> List[PeriodicOrbit]:
    """All (m, n)-periodic orbits the search can certify.

    The circular families are the roots of :func:`shift_inverse_all` at
    2 pi m/n, less those within 1e-9 of the one before (two roots astride a
    fold); for m = 0 they include the I = 0 ejection–collision line.
    Raises :class:`RangeEmpty` when there is none.  Integrable case: one
    orbit per family, iterated from xi = 0 in closed form.  Perturbed case:
    :func:`_shoot_cycle` from xi_k = phi + 2 pi m k/n, I_k = I* on every
    family I*, ascending, at the P = max(8, ceil(max(16, 4K)/n)) phases
    phi = -pi + 2 pi j/(nP), K the profile's highest harmonic.  A start
    counts when the orbit from its (xi_0, I_0) closes within
    :data:`_CLOSE_TOL` (its ``residual``); starts whose ``error_bound``
    balls overlap in :func:`cycle_distance` are one cycle, the first found.  The kind names
    the Morse index (:func:`_kind_and_bound`).  Cycles come sorted by
    wrapped xi_0, then I_0.  ``refbilliard.orbits`` logs at INFO the starts
    tried, converged and merged, and the failed ones by exception class.
    Raises :class:`DescentStalled` when none converges and
    :class:`CyclesUnresolved` when one ball holds two Morse indices.
    """
    if n < 1:
        raise ValueError("the period n must be a positive integer")
    if math.gcd(abs(m), n) != 1:
        raise ValueError("m and n must be coprime")
    target = 2.0 * math.pi * m / n
    roots: List[float] = []
    for r in shift_inverse_all(target, params):  # ascending
        if not roots or abs(r - roots[-1]) > 1e-9:
            roots.append(r)
    if not roots:
        raise RangeEmpty(f"the circular shift never equals 2 pi {m}/{n}")
    if profile.is_circle:
        return [_orbit_from_cycle(0.0, r, m, n, profile, params, "circular",
                                  0.0) for r in roots]
    K = max([k for k, a in enumerate(profile.fourier_cos) if a] +
            [k for k, b in enumerate(profile.fourier_sin) if k and b])
    P = max(8, math.ceil(max(16, 4 * K) / n))
    phases = np.linspace(-math.pi, -math.pi + TWO_PI / n, P, endpoint=False)
    Ic = params.action_bound_Ic
    orbits: List[PeriodicOrbit] = []
    failed: Counter = Counter()
    merged, mixed = 0, []
    for I_seed in roots:
        for phi in phases:
            try:
                xs, Is, tangents = _shoot_cycle(
                    (phi + target * np.arange(n)).tolist(), [I_seed] * n, m,
                    n, profile, params)
                if max(map(abs, Is)) >= Ic * (1 - 1e-9):
                    raise OutOfActionRange("the cycle grazes the action band")
                kind, bound = _kind_and_bound(tangents)
                orb = _orbit_from_cycle(xs[0], Is[0], m, n, profile, params,
                                        kind, bound)
                _check_closed(orb)
            except BilliardError as exc:
                failed[type(exc).__name__] += 1
                continue
            same = next((o for o in orbits if cycle_distance(orb, o) <=
                         orb.error_bound + o.error_bound), None)
            if same is None:
                orbits.append(orb)
            elif same.kind != kind:
                mixed.append(f"an {same.kind} and an {kind}")
            merged += same is not None
    tried = len(roots) * P
    why = ", ".join(f"{k} {v}" for k, v in sorted(failed.items())) or "none"
    _LOG.info("find_periodic(%d, %d): %d starts, %d converged, %d merged; "
              "failed: %s", m, n, tried, tried - sum(failed.values()),
              merged, why)
    if mixed:
        raise CyclesUnresolved(f"({m}, {n}): {mixed[0]} lie within their "
                               "error bounds")
    if not orbits:
        raise DescentStalled(f"no ({m}, {n}) cycle converged from {tried} "
                             f"starts; failed: {why}")
    return sorted(orbits, key=lambda o: (wrap_pi(float(o.xis[0])),
                                         float(o.actions[0])))


def _shoot_cycle(xs: List[float], Is: List[float], m: int, n: int,
                 profile: PerturbationProfile, params: PhysParams):
    """An (m, n) cycle by Newton's method on its n states from ``xs``,
    ``Is`` (multiple shooting: Stoer & Bulirsch, Introduction to Numerical
    Analysis): the states and their tangent maps at the first iterate with
    max |G| < :data:`_NEWTON_TOL`.  Link k has the residual G_k =
    F(xi_k, I_k) - (xi_{k+1}, I_{k+1}) on the lift, xi_n = xi_0 + 2 pi m and
    I_n = I_0, and :func:`_cyclic_solve` gives the step, capped at 0.5 in
    max-norm.  Map errors pass through; raises :class:`DescentStalled` on a
    singular system or after 30 steps.
    """
    lift = 2.0 * math.pi * m
    for _ in range(30):
        tangents, G = [], []
        for k in range(n):
            state = outgoing_state(xs[k], Is[k], profile, params)
            res = return_map(state, profile, params)
            j = (k + 1) % n
            G.append((res.delta_xi - (xs[j] - xs[k]) - (0.0 if j else lift),
                      res.state.action_I - Is[j]))
            tangents.append(tangent_map(state, res, profile, params).tolist())
        g_max = max(max(abs(gx), abs(gI)) for gx, gI in G)
        if g_max < _NEWTON_TOL:
            return xs, Is, tangents
        steps = _cyclic_solve(tangents, G)
        cap = max(max(abs(x), abs(y)) for x, y in steps) / 0.5
        if cap > 1.0:
            steps = [(x / cap, y / cap) for x, y in steps]
        xs = [x - dx for x, (dx, _) in zip(xs, steps)]
        Is = [I - dI for I, (_, dI) in zip(Is, steps)]
    raise DescentStalled(f"no ({m}, {n}) cycle after 30 Newton steps "
                         f"(residual {g_max:.3g})")


def _cyclic_solve(tangents: list, G: list) -> List[Tuple[float, float]]:
    """The d_k with DF_k d_k - d_{k+1} = G_k, d_n = d_0, DF_k =
    ``tangents[k]``, in floats: the sweep d_{k+1} = DF_k d_k - G_k condenses
    the system to (M - Id) d_0 = R, M the monodromy, solved by Cramer's
    rule; the same sweep from d_0 gives every d_k.  Raises
    :class:`DescentStalled` when M - Id is singular.
    """
    (p, q), (r, s) = tangents[0]
    u, v = G[0]
    for ((a, b), (c, d)), (gx, gI) in zip(tangents[1:], G[1:]):
        p, q, r, s = a * p + b * r, a * q + b * s, c * p + d * r, \
            c * q + d * s
        u, v = a * u + b * v + gx, c * u + d * v + gI
    p -= 1.0
    s -= 1.0
    det = p * s - q * r
    if det == 0.0 or not math.isfinite(det):
        raise DescentStalled("the multiple-shooting system is singular")
    steps = [((s * u - q * v) / det, (p * v - r * u) / det)]
    for ((a, b), (c, d)), (gx, gI) in zip(tangents, G[:-1]):
        x, y = steps[-1]
        steps.append((a * x + b * y - gx, c * x + d * y - gI))
    return steps


def _kind_and_bound(tangents: list) -> Tuple[str, float]:
    """The kind and error bound of a cycle with the tangent maps
    ``tangents``.  The bound ||J^-1||_inf :data:`_NEWTON_TOL`, J the
    Jacobian of :func:`_shoot_cycle`, holds to first order every iterate
    that passes its stopping test (||J^-1|| max |G| does not: two such
    starts on (-1, 3), cos 6 xi, lie 7e-15 apart, their bounds 6e-15).  The
    kind names the Morse index, the count of negative eigenvalues of
    sgn(b_0) H (:func:`_action_hessian`): "action-minimizer" (0),
    "action-minimax" (1), "action-index-k".  Raises
    :class:`DegenerateStationarity` where a link has no twist b."""
    n = len(tangents)
    if not all(b for (_, b), _ in tangents):
        raise DegenerateStationarity("a link of the cycle has zero twist")
    H = math.copysign(1.0, tangents[0][0][1]) * _action_hessian(tangents)
    index = int(np.count_nonzero(np.linalg.eigvalsh(H) < 0.0))
    cols = [_cyclic_solve(tangents, [(float(i == 2 * k), float(i == 2 * k + 1))
                                     for k in range(n)]) for i in range(2 * n)]
    norm = max(sum(abs(col[k][r]) for col in cols)
               for k in range(n) for r in (0, 1))
    kinds = ("action-minimizer", "action-minimax")
    return (kinds[index] if index < 2 else f"action-index-{index}",
            norm * _NEWTON_TOL)


# -- linear stability ------------------------------------------------------------


def linear_stability(orbit: PeriodicOrbit, profile: PerturbationProfile,
                     params: PhysParams) -> StabilityReport:
    """Monodromy of the n-step return about a periodic orbit: the product of
    the n exact one-step derivatives of :func:`tangent_map` along it.

    |trace| below 2 is elliptic, above 2 hyperbolic, and within
    1e-7 max(1, |trace|) of 2 parabolic (the integrable shear).  Raises
    :class:`ResidualTooLarge` on an orbit that :func:`find_periodic` would
    not keep (:func:`_check_closed`).
    """
    _check_closed(orbit)
    state = outgoing_state(float(orbit.xis[0]), float(orbit.actions[0]),
                           profile, params)
    M = np.eye(2)
    for _ in range(orbit.n):
        res = return_map(state, profile, params)
        M = tangent_map(state, res, profile, params) @ M
        state = res.state
    tr = float(M[0, 0] + M[1, 1])
    det = float(M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0])
    band = 1e-7 * max(1.0, abs(tr))
    if abs(abs(tr) - 2.0) <= band:
        cls = "parabolic"
    elif abs(tr) < 2.0:
        cls = "elliptic"
    else:
        cls = "hyperbolic"
    return StabilityReport(matrix=M, trace=tr, det=det, classification=cls,
                           residue=(2.0 - tr) / 4.0)


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
    cols = tuple(c[:n_iter + 1].tolist()
                 for c in (orbit.xis, orbit.actions, orbit.alphas))
    lifted = orbit.xis_lifted[:n_iter + 1].tolist()
    status = _advance(cols, [], lifted, n_iter + 1 - len(lifted), profile,
                      params, False)
    trace = running(_trace(cols, [], status, lifted))
    coef, resid = _curve_fit(trace.xis, trace.actions, 32)
    rho, rho_error = trace.rotation_estimate
    return CurveProbe(seed_action=float(I0), measured_rho=rho,
                      rho_error=rho_error, max_residual=resid,
                      coefficients=coef, n_iter=len(trace.xis) - 1,
                      status=trace.status)


def _curve_fit(xis: np.ndarray, actions: np.ndarray,
               harmonics: int) -> Tuple[np.ndarray, float]:
    """Least-squares fit of ``actions`` by a trigonometric polynomial of
    degree ``harmonics`` in the angles ``xis``: (coefficients,
    max |residual|)."""
    cols = [np.ones_like(xis)]
    for j in range(1, harmonics + 1):
        cols.extend([np.cos(j * xis), np.sin(j * xis)])
    A = np.column_stack(cols)
    coef, *_ = np.linalg.lstsq(A, actions, rcond=None)
    return coef, float(np.max(np.abs(A @ coef - actions)))


def curve_eval(probe: CurveProbe, xi) -> np.ndarray:
    """Evaluate the probe's fitted curve I(xi)."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    out = np.full_like(xi, probe.coefficients[0])
    H = (len(probe.coefficients) - 1) // 2
    for j in range(1, H + 1):
        out += probe.coefficients[2 * j - 1] * np.cos(j * xi)
        out += probe.coefficients[2 * j] * np.sin(j * xi)
    return out
