"""Small shared numerical helpers, one per job: angle wrapping, the
sign-change scan that brackets the roots of a tabulated closed form,
Brent's root finder, event location by a certified march (or, as the
tests' reference, by grid search) and Newton shooting.

Importing scipy.optimize takes longer than most CLI runs, and every
one-variable root of the package (the circular shift inverse, the twist
critical set, the fixed point) is a bracketed root of a closed form.  So
:func:`brentq` is a port of scipy's, bit for bit, and no part of the
package loads scipy: the ODE oracle integrates by Taylor series in numpy
and polishes its crossings itself, on purpose using none of these helpers
but :func:`wrap_pi`.  The forwarders ``root`` and ``minimize`` below
import scipy's solvers on first call; nothing in the package calls them,
and they stay only because the benchmark's traced runs resolve them by
name.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (EventDetectionFailed, ShootingDiverged,
                     TangentialCrossing)

TWO_PI = 2.0 * math.pi
EPS = float(np.finfo(float).eps)


def brentq(f, a: float, b: float, xtol: float = 2e-12,
           rtol: float = 4.0 * EPS, maxiter: int = 100) -> float:
    """Root of ``f`` in the bracket [a, b] by Brent's method.

    A port of :func:`scipy.optimize.brentq` (``Zeros/brentq.c``): the same
    steps in the same floating-point order, so it returns the same bits,
    and the same contract.  The root x0 meets |x - x0| <= xtol + rtol |x0|
    for the exact root x; an endpoint where ``f`` is zero is returned as
    is.  Raises :class:`ValueError` on a same-sign bracket, on a NaN value
    of ``f`` or on xtol <= 0 or rtol < 4 eps, and :class:`RuntimeError`
    after ``maxiter`` steps.  Brent, *Algorithms for Minimization Without
    Derivatives* (1973), ch. 4.
    """
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < 4.0 * EPS:
        raise ValueError(f"rtol too small ({rtol:g} < {4.0 * EPS:g})")
    if maxiter < 0:
        raise ValueError("maxiter should be > 0")

    def fun(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; "
                             "solver cannot continue.")
        return fx

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre = fun(xpre)
    fcur = fun(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            # only underflow can zero a divisor here; in brentq.c that
            # makes the step infinite or NaN, which fails the test for a
            # good short step below
            try:
                if xpre == xblk:
                    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = (-fcur * (fblk * dblk - fpre * dpre) /
                            (dblk * dpre * (fblk - fpre)))
            except ZeroDivisionError:
                stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = fun(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


def sign_change_brackets(grid, vals) -> list:
    """Cells (a, b) of ``grid`` where ``vals`` changes sign, disjoint,
    ascending and one per root, for :func:`brentq` to polish; a == b marks
    an exact zero at a grid point."""
    brackets = []
    for i in np.nonzero(vals[1:] * vals[:-1] <= 0.0)[0]:
        if vals[i] == 0.0:
            brackets.append((float(grid[i]), float(grid[i])))
        elif vals[i + 1] != 0.0:
            brackets.append((float(grid[i]), float(grid[i + 1])))
    if vals[-1] == 0.0:
        brackets.append((float(grid[-1]), float(grid[-1])))
    return brackets


def root(*args, **kwargs):
    """:func:`scipy.optimize.root`, imported on first call."""
    from scipy.optimize import root
    return root(*args, **kwargs)


def minimize(*args, **kwargs):
    """:func:`scipy.optimize.minimize`, imported on first call."""
    from scipy.optimize import minimize
    return minimize(*args, **kwargs)


def wrap_pi(x):
    """Wrap angle(s) to [-pi, pi).

    Just below -pi the sum x + pi is a tiny negative number whose remainder
    rounds up to 2 pi, which would give +pi; that result is mapped to -pi,
    so the range holds and wrapping a wrapped angle changes nothing.
    """
    if type(x) is float:
        w = (x + math.pi) % TWO_PI - math.pi
        return -math.pi if w == math.pi else w
    w = np.mod(np.asarray(x, dtype=float) + np.pi, TWO_PI) - np.pi
    w = np.where(w == np.pi, -np.pi, w)
    return w if np.ndim(w) else float(w)


def shoot(resid, x: float, lo: float, hi: float, tol: float,
          what: str) -> float:
    """Root of a scalar residual near ``x`` by Newton's method.

    ``resid(x)`` returns the residual and its slope at ``x``; every iterate
    is clipped to [lo, hi].  Returns the first iterate with |residual| <
    ``tol``, so the last call of ``resid`` was at the returned point.
    Raises :class:`ShootingDiverged`, naming ``what``, on a flat or
    non-finite slope or after 40 steps.
    """
    r, slope = resid(x)
    for _ in range(40):
        if abs(r) < tol:
            return x
        if slope == 0.0 or not math.isfinite(slope):
            raise ShootingDiverged(f"flat residual in {what} shooting")
        x = min(max(x - r / slope, lo), hi)
        r, slope = resid(x)
    raise ShootingDiverged(
        f"{what} shooting did not converge (residual {r:.3g})")


def difference_slope(fun, hi: float):
    """``fun`` as a residual for :func:`shoot`, with a forward-difference
    slope of step 1e-7 (a backward one where the forward step would pass
    ``hi``)."""
    def resid(x):
        r = fun(x)
        xh = x + 1e-7 if x + 1e-7 <= hi else x - 1e-7
        return r, (fun(xh) - r) / (xh - x)
    return resid


def first_crossing(fun, grid, inside_sign: float, refine: int = 3):
    """First zero of ``fun`` along ``grid`` after it leaves zero.

    ``fun`` maps an array of parameters to an array of values; the trajectory
    starts at fun(grid[0]) ~= 0, moves to values of sign ``inside_sign`` and
    exits at the first crossing back through zero.  Returns the crossing
    parameter (float) located by Brent's method, or raises.

    ``refine`` controls how many times the initial portion is subdivided if
    the grid never shows the interior sign (near-tangential starts).
    """
    g = np.asarray(grid, dtype=float)
    for _ in range(refine + 1):
        vals = np.asarray(fun(g), dtype=float)
        s = inside_sign * vals
        # first index where the arc is clearly on the interior side
        inside = np.nonzero(s[1:] > 0)[0]
        if inside.size == 0:
            # never left the boundary at this resolution: refine near start
            g = np.linspace(g[0], g[0] + (g[1] - g[0]) * (len(g) - 1) / 8,
                            len(g))
            continue
        i0 = inside[0] + 1
        # first index after i0 where the sign flips back (exit)
        out = np.nonzero(s[i0:] <= 0)[0]
        if out.size == 0:
            return None  # caller may extend the window
        j = out[0] + i0
        a, b = g[j - 1], g[j]
        return brentq(lambda t: float(np.asarray(fun(np.array([t])))[0]),
                      a, b, xtol=1e-14, rtol=8.9e-16, maxiter=200)
    raise TangentialCrossing(
        "trajectory never separates from the boundary (tangential start)")


def march_to_zero(fun, t: float, slope: float, bound: float, skip,
                  t_end: float, max_steps: int = 100_000):
    """First zero after ``t`` of a clearance that vanishes at ``t`` and
    grows there with ``slope`` > 0.

    ``fun(t)`` returns the clearance and its derivative; ``bound`` bounds
    the second derivative wherever the clearance is positive.  Each step
    goes as far as the lower bound g + g' d - bound d^2 / 2 stays positive,
    so no zero is passed, however briefly the clearance dips; near a
    transversal zero the steps become Newton steps.  ``skip(t)`` returns the
    step's end, or a later parameter when the clearance is known to stay
    positive up to there.  Raises :class:`EventDetectionFailed` when
    ``max_steps`` steps do not reach the zero or the march passes ``t_end``.
    The step count grows as the bound does: a few tens of steps on mild
    profiles, up to tens of thousands on boundaries that pass within 1e-3
    of the origin.
    """
    g, dg, sqrt = 0.0, slope, math.sqrt
    for _ in range(max_steps):
        root = sqrt(dg * dg + 2.0 * bound * g)
        # the positive root of g + dg d - bound d^2/2, in a form free of
        # cancellation for either sign of dg
        d = (dg + root) / bound if dg >= 0.0 else 2.0 * g / (root - dg)
        if d <= 4e-16 * (1.0 + abs(t)):
            return t + d
        t = skip(t + d)
        if not t <= t_end:  # also stops a march gone NaN
            break
        g, dg = fun(t)
        if g <= 0.0:
            return t
    raise EventDetectionFailed(
        f"no boundary crossing located before parameter {min(t, t_end)!r}")


def extend_and_find(fun, t0, t1, n, inside_sign, max_doublings=6):
    """Run :func:`first_crossing` on [t0, t1], doubling the window as needed."""
    lo, hi = t0, t1
    for _ in range(max_doublings + 1):
        res = first_crossing(fun, np.linspace(lo, hi, n), inside_sign)
        if res is not None:
            return res
        lo, hi = hi - (hi - lo) / 8, hi + (hi - lo) * 2
    raise EventDetectionFailed(
        f"no boundary crossing located in parameter window [{t0}, {hi}]")
