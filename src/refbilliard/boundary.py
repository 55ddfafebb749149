"""Star-shaped boundary curves gamma_eps(xi) = (1 + eps f(xi)) e^{i xi}.

The refraction interface is a radial perturbation of the unit circle with a
finite trigonometric profile f(xi) = sum_k a_k cos(k xi) + b_k sin(k xi).
Everything downstream needs the curve point, its unit tangent/outward normal
and the metric factor |gamma'(xi)| = sqrt(rho^2 + rho'^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError

__all__ = ["PerturbationProfile", "BoundaryGeometry", "boundary"]


@dataclass(frozen=True)
class PerturbationProfile:
    """Radial perturbation rho(xi) = 1 + eps * f(xi) of the unit circle.

    ``fourier_cos[k]`` multiplies cos(k xi) and ``fourier_sin[k]`` multiplies
    sin(k xi) (index = harmonic; the sin constant slot is ignored).
    """

    fourier_cos: tuple = ()
    fourier_sin: tuple = ()
    epsilon: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "fourier_cos",
                           tuple(float(c) for c in self.fourier_cos))
        object.__setattr__(self, "fourier_sin",
                           tuple(float(c) for c in self.fourier_sin))
        if not all(map(math.isfinite, (self.epsilon,) + self.fourier_cos +
                       self.fourier_sin)):
            raise DomainError("epsilon and Fourier coefficients must be finite")
        # the nonzero harmonics, and the bounds |eps f^(j)| <= |eps| sum
        # k^j (|a_k| + |b_k|) on the profile and its first two derivatives
        cos_terms = tuple((k, a) for k, a in enumerate(self.fourier_cos) if a)
        sin_terms = tuple((k, b) for k, b in enumerate(self.fourier_sin)
                          if k and b)
        terms = cos_terms + sin_terms
        object.__setattr__(self, "_cos_terms", cos_terms)
        object.__setattr__(self, "_sin_terms", sin_terms)
        # the scalar evaluations: k a and k^2 a are formed here (the same
        # products, so the same bits), and a sin term whose harmonic has a
        # cos term too reuses that term's cos/sin pair (its position j)
        cos_harmonics = [k for k, _ in cos_terms]
        object.__setattr__(self, "_cos_jet", tuple(
            (k, a, k * a, k * k * a) for k, a in cos_terms))
        object.__setattr__(self, "_sin_jet", tuple(
            (cos_harmonics.index(k) if k in cos_harmonics else -1,
             k, b, k * b, k * k * b) for k, b in sin_terms))
        object.__setattr__(self, "_bounds", tuple(
            abs(self.epsilon) * sum(k ** j * abs(c) for k, c in terms)
            for j in range(3)))
        # rho >= 1 - |eps| sum (|a_k| + |b_k|); where that is weak, a grid of
        # step h gives min rho >= min(grid) - sup|rho''| h^2/8, the error
        # bound of linear interpolation.  The crossing search needs the
        # lower bound positive, so a profile without one is rejected.
        b0, _, b2 = self._bounds
        lower = 1.0 - b0
        if b0 >= 0.5:
            n = 4096
            grid = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
            lower = max(lower, float(np.min(self.radius(grid))) -
                        b2 * (2 * np.pi / n) ** 2 / 8)
        # widened by 1e-12 so that rho stays strictly inside despite rounding
        bounds = (lower - 1e-12, 1.0 + b0 + 1e-12)
        if bounds[0] <= 0.0:
            raise DomainError("radius 1 + eps*f(xi) must stay positive")
        object.__setattr__(self, "_radius_bounds", bounds)

    # -- profile evaluations --------------------------------------------------
    #
    # ``radius`` and ``radius_prime`` take a Python float on the math-only
    # path of ``radius_jet``, and anything else as an array.

    def shape(self, xi):
        """f(xi)."""
        xi = np.asarray(xi, dtype=float)
        out = np.zeros_like(xi)
        for k, a in self._cos_terms:
            out = out + a * np.cos(k * xi)
        for k, b in self._sin_terms:
            out = out + b * np.sin(k * xi)
        return out if np.ndim(out) else float(out)

    def shape_prime(self, xi):
        """f'(xi)."""
        xi = np.asarray(xi, dtype=float)
        out = np.zeros_like(xi)
        for k, a in self._cos_terms:
            if k:
                out = out - k * a * np.sin(k * xi)
        for k, b in self._sin_terms:
            out = out + k * b * np.cos(k * xi)
        return out if np.ndim(out) else float(out)

    def radius(self, xi):
        """rho(xi) = 1 + eps f(xi)."""
        if isinstance(xi, (float, int)):
            return self.radius_jet(xi)[0]
        if self.epsilon == 0.0:
            out = np.ones_like(np.asarray(xi, dtype=float))
            return out if np.ndim(out) else 1.0
        return 1.0 + self.epsilon * self.shape(xi)

    def radius_prime(self, xi):
        """rho'(xi) = eps f'(xi)."""
        if isinstance(xi, (float, int)):
            return self.radius_jet(xi)[1]
        if self.epsilon == 0.0:
            out = np.zeros_like(np.asarray(xi, dtype=float))
            return out if np.ndim(out) else 0.0
        return self.epsilon * self.shape_prime(xi)

    def radius_jet(self, xi: float):
        """(rho, rho', rho'') at a scalar angle, from one cos/sin pair per
        harmonic; the cos terms are summed first, then the sin terms."""
        if self.epsilon == 0.0:
            return 1.0, 0.0, 0.0
        f = fp = fpp = 0.0
        pairs = []
        for k, a, ka, kka in self._cos_jet:
            c, s = math.cos(k * xi), math.sin(k * xi)
            pairs.append((c, s))
            f += a * c
            fp -= ka * s
            fpp -= kka * c
        for j, k, b, kb, kkb in self._sin_jet:
            c, s = pairs[j] if j >= 0 else (math.cos(k * xi),
                                            math.sin(k * xi))
            f += b * s
            fp += kb * c
            fpp -= kkb * s
        eps = self.epsilon
        return 1.0 + eps * f, eps * fp, eps * fpp

    @property
    def radius_bounds(self):
        """Certified (lower, upper) bounds on rho, the lower one positive:
        1 -+ |eps| sum (|a_k| + |b_k|), the lower one sharpened on a grid
        when |eps| sum (|a_k| + |b_k|) >= 1/2, both widened by 1e-12."""
        return self._radius_bounds

    @property
    def derivative_bounds(self):
        """Upper bounds (on |rho'|, on |rho''|), |eps| sum k^j (|a_k| + |b_k|)
        for j = 1, 2."""
        return self._bounds[1], self._bounds[2]

    @property
    def is_circle(self) -> bool:
        """rho = 1: eps = 0, or no nonzero term (sin 0 xi is no term)."""
        return self.epsilon == 0.0 or not (self._cos_terms or
                                           self._sin_terms)

    # -- presets --------------------------------------------------------------

    @classmethod
    def circle(cls) -> "PerturbationProfile":
        """The unperturbed unit circle."""
        return cls()

    @classmethod
    def ellipse_like(cls, ecc: float) -> "PerturbationProfile":
        """Small-eccentricity ellipse r(xi) = 1 + eps (cos 2xi - 1), eps = ecc^2/4.

        First-order polar expansion about the center of an ellipse with unit
        major semi-axis and eccentricity ``ecc``.
        """
        if not 0 <= ecc < 1:
            raise DomainError("eccentricity must lie in [0, 1)")
        return cls(fourier_cos=(-1.0, 0.0, 1.0), fourier_sin=(),
                   epsilon=ecc ** 2 / 4)

    @classmethod
    def cos_profile(cls, harmonic: int, epsilon: float) -> "PerturbationProfile":
        """Pure cosine profile f(xi) = cos(harmonic * xi)."""
        coeffs = [0.0] * (harmonic + 1)
        coeffs[harmonic] = 1.0
        return cls(fourier_cos=tuple(coeffs), fourier_sin=(), epsilon=epsilon)


class BoundaryGeometry(NamedTuple):
    """Local boundary data at gamma(xi) = rho(xi) e^{i xi}.

    Points and directions are complex numbers.  ``metric`` is
    |gamma'(xi)| = sqrt(rho^2 + rho'^2), the factor converting d xi to
    arclength; it equals 1 on the unit circle.
    """

    xi: float
    point_c: complex
    tangent_c: complex
    normal_c: complex
    radius: float
    radius_prime: float
    metric: float


#: (profile, xi, record) of the last :func:`boundary` evaluation; one tuple,
#: read and replaced whole, so a reader always sees a key with its record
_last_frame = (None, math.nan, None)


def boundary(xi: float, profile: PerturbationProfile) -> BoundaryGeometry:
    """Full local geometry record of the boundary at angle ``xi``.

    gamma'(xi) = (rho' + i rho) e^{i xi}; the unit tangent points
    counterclockwise and the outward normal is the tangent rotated by -pi/2.

    The last record is kept and returned again for the same profile object
    and the same bits of ``xi`` (0.0 and -0.0 differ): a return of the map
    starts where the previous one ended.
    """
    global _last_frame
    xi = float(xi)
    last_profile, last_xi, last = _last_frame
    if last_profile is profile and last_xi == xi and \
            math.copysign(1.0, last_xi) == math.copysign(1.0, xi):
        return last
    rho, rhop, _ = profile.radius_jet(xi)
    e = complex(math.cos(xi), math.sin(xi))
    dgamma = (rhop + 1j * rho) * e
    m = abs(dgamma)
    t = dgamma / m
    geom = BoundaryGeometry(xi=xi, point_c=rho * e, tangent_c=t,
                            normal_c=-1j * t, radius=rho, radius_prime=rhop,
                            metric=m)
    _last_frame = (profile, xi, geom)
    return geom
