"""Boundary curve geometry: radius profile, tangent/normal frame, metric."""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from refbilliard import BoundaryGeometry, PerturbationProfile, boundary
from refbilliard.errors import DomainError
from reference import gamma_point


def central_diff(fun, x, h=1e-6):
    return (fun(x + h) - fun(x - h)) / (2 * h)


def test_circle_profile_is_trivial(circle):
    xi = np.linspace(0.0, 2 * np.pi, 17)
    assert circle.is_circle
    assert np.all(circle.radius(xi) == 1.0)
    assert np.all(circle.radius_prime(xi) == 0.0)
    assert circle.radius(0.3) == 1.0


def test_shape_evaluates_fourier_sum():
    prof = PerturbationProfile(fourier_cos=(0.5, 0.0, 1.0),
                               fourier_sin=(0.0, 0.25),
                               epsilon=0.1)
    xi = 0.7
    expected = 0.5 + math.cos(2 * xi) + 0.25 * math.sin(xi)
    assert prof.shape(xi) == pytest.approx(expected, abs=1e-15)
    assert prof.radius(xi) == pytest.approx(1.0 + 0.1 * expected, abs=1e-15)


def test_shape_prime_matches_finite_differences():
    prof = PerturbationProfile(fourier_cos=(0.0, 0.3, -0.2, 0.1),
                               fourier_sin=(0.0, -0.4, 0.0, 0.2),
                               epsilon=0.05)
    for xi in np.linspace(0.0, 2 * np.pi, 11):
        fd = central_diff(prof.shape, xi)
        assert prof.shape_prime(xi) == pytest.approx(fd, abs=5e-9)
        fd_r = central_diff(prof.radius, xi)
        assert prof.radius_prime(xi) == pytest.approx(fd_r, abs=5e-9)


def test_boundary_frame_is_orthonormal_and_consistent():
    prof = PerturbationProfile.cos_profile(3, 0.08)
    for xi in np.linspace(0.0, 2 * np.pi, 13):
        g = boundary(xi, prof)
        assert np.dot(g.tangent_unit, g.tangent_unit) == pytest.approx(1.0, abs=1e-14)
        assert np.dot(g.normal_out_unit, g.normal_out_unit) == pytest.approx(1.0, abs=1e-14)
        assert np.dot(g.tangent_unit, g.normal_out_unit) == pytest.approx(0.0, abs=1e-14)
        # outward normal has positive radial component on a star-shaped curve
        assert np.dot(g.normal_out_unit, g.point) > 0
        # the outward normal is the tangent rotated clockwise by pi/2
        rotated = np.array([g.tangent_unit[1], -g.tangent_unit[0]])
        assert np.allclose(g.normal_out_unit, rotated, atol=1e-15)


def test_metric_is_speed_of_parametrization():
    prof = PerturbationProfile(fourier_cos=(0.0, 0.0, 0.6), epsilon=0.12)

    def gamma_xy(xi):
        z = gamma_point(xi, prof)
        return np.array([z.real, z.imag])

    for xi in (0.0, 0.5, 1.3, 2.9, 4.4):
        g = boundary(xi, prof)
        fd = central_diff(gamma_xy, xi)
        assert g.metric == pytest.approx(np.linalg.norm(fd), abs=1e-8)
        assert g.metric == pytest.approx(
            math.hypot(g.radius, g.radius_prime), abs=1e-14)
        assert np.allclose(fd / np.linalg.norm(fd), g.tangent_unit, atol=1e-8)


def test_circle_metric_is_one(circle):
    for xi in np.linspace(0.0, 2 * np.pi, 9):
        g = boundary(xi, circle)
        assert g.metric == 1.0
        assert g.radius == 1.0
        assert np.allclose(g.point, [math.cos(xi), math.sin(xi)], atol=1e-15)


def test_ellipse_like_expansion():
    ecc = 0.3
    prof = PerturbationProfile.ellipse_like(ecc)
    assert prof.epsilon == pytest.approx(ecc ** 2 / 4, abs=1e-16)
    # r(xi) = 1 + eps(cos 2xi - 1): max radius 1 on the major axis,
    # 1 - 2 eps on the minor axis
    assert prof.radius(0.0) == pytest.approx(1.0, abs=1e-15)
    assert prof.radius(math.pi / 2) == pytest.approx(1.0 - ecc ** 2 / 2, abs=1e-15)
    with pytest.raises(DomainError):
        PerturbationProfile.ellipse_like(1.0)
    with pytest.raises(DomainError):
        PerturbationProfile.ellipse_like(-0.1)


def test_cos_profile_places_single_harmonic():
    prof = PerturbationProfile.cos_profile(4, 0.02)
    assert prof.fourier_cos == (0.0, 0.0, 0.0, 0.0, 1.0)
    assert prof.shape(0.5) == pytest.approx(math.cos(2.0), abs=1e-15)
    assert not prof.is_circle


def test_positivity_and_finiteness_validation():
    with pytest.raises(DomainError):
        # radius 1 + 2 cos(xi) vanishes
        PerturbationProfile(fourier_cos=(0.0, 1.0), epsilon=2.0)
    with pytest.raises(DomainError):
        PerturbationProfile(fourier_sin=(0.0, 1e-300), epsilon=math.inf)


def test_radius_bounds_are_certified():
    xi = np.linspace(0.0, 2 * np.pi, 100_003)
    for prof in (PerturbationProfile(fourier_cos=(0.0, 0.3, -0.2, 0.1),
                                     fourier_sin=(0.0, 0.0, 0.4),
                                     epsilon=0.05),
                 PerturbationProfile(fourier_cos=(0.0, 1.0),
                                     fourier_sin=(0.0, 1.0), epsilon=0.6)):
        lower, upper = prof.radius_bounds
        rho = prof.radius(xi)
        assert 0.0 < lower < rho.min() and rho.max() < upper
    # the grid sharpens the lower bound of the wide profile to its minimum
    assert rho.min() - lower < 1e-6
    with pytest.raises(DomainError):
        # rho = 1 + eps (cos xi + sin xi) dips to 1e-9 at xi = 5 pi/4: too
        # close to zero to certify with the bound on rho''
        PerturbationProfile(fourier_cos=(0.0, 1.0), fourier_sin=(0.0, 1.0),
                            epsilon=(1.0 - 1e-9) / math.sqrt(2.0))


def test_boundary_returns_geometry_record(circle):
    g = boundary(1.2, circle)
    assert isinstance(g, BoundaryGeometry)
    assert g.point_c == pytest.approx(complex(math.cos(1.2), math.sin(1.2)))
    assert g.tangent_c == pytest.approx(1j * g.point_c)
    assert g.normal_c == pytest.approx(g.point_c)


# -- the scalar evaluations against a per-term reference -----------------------


def _per_term_jet(prof, xi):
    """(rho, rho', rho''): one cos/sin pair per nonzero term, every cos term
    summed before every sin term, the sin constant slot skipped."""
    if prof.epsilon == 0.0:
        return 1.0, 0.0, 0.0
    f = fp = fpp = 0.0
    for k, a in enumerate(prof.fourier_cos):
        if a:
            c, s = math.cos(k * xi), math.sin(k * xi)
            f += a * c
            fp -= k * a * s
            fpp -= k * k * a * c
    for k, b in enumerate(prof.fourier_sin):
        if k and b:
            c, s = math.cos(k * xi), math.sin(k * xi)
            f += b * s
            fp += k * b * c
            fpp -= k * k * b * s
    eps = prof.epsilon
    return 1.0 + eps * f, eps * fp, eps * fpp


_coeff = st.one_of(st.just(0.0), st.floats(-1.0, 1.0))
_coeffs = st.lists(_coeff, max_size=6)


@given(cos=_coeffs, sin=_coeffs, eps=st.floats(-0.04, 0.04),
       xi=st.floats(-50.0, 50.0))
@example(cos=[0.0, 0.0, 0.6], sin=[0.0, 0.0, 0.8], eps=0.01, xi=0.7)
@example(cos=[0.3, 0.0, -0.5, 0.2], sin=[0.9, 0.4, 0.0, 0.7, 0.1], eps=-0.03,
         xi=-2.1)
@example(cos=[0.0, 1.0], sin=[0.0, 0.0, 1.0], eps=0.0, xi=1.0)
def test_scalar_evaluations_equal_the_per_term_sums(cos, sin, eps, xi):
    prof = PerturbationProfile(fourier_cos=cos, fourier_sin=sin,
                               epsilon=eps)
    ref = _per_term_jet(prof, xi)
    assert prof.radius_jet(xi) == ref
    assert prof.radius_and_slope(xi) == ref[:2]


# -- the last-frame memo of boundary() -----------------------------------------


def _copy(prof):
    return PerturbationProfile(prof.fourier_cos, prof.fourier_sin,
                               prof.epsilon)


def test_boundary_memo_returns_what_a_fresh_evaluation_does():
    a = PerturbationProfile.cos_profile(2, 0.01)
    b = PerturbationProfile(fourier_cos=(0.0, 0.0, 0.6),
                            fourier_sin=(0.0, 0.0, 0.8), epsilon=0.02)
    calls = [(0.3, a), (0.3, b), (0.3, a), (0.3, a), (0.3, _copy(a)),
             (1.1, b), (0.3, b), (0.0, a), (-0.0, a), (0.0, a), (-0.0, a),
             (-0.0, a), (0.0, b), (-0.0, b), (math.pi, a), (-math.pi, a)]
    # each expected record comes from a new profile object, which the memo
    # has never seen; all are made before the calls under test
    expected = [boundary(xi, _copy(prof)) for xi, prof in calls]
    got = [boundary(xi, prof) for xi, prof in calls]
    for (xi, _), rec, exp in zip(calls, got, expected):
        # repr tells 0.0 from -0.0, in xi and in the complex parts
        assert rec == exp and repr(rec) == repr(exp)
        assert math.copysign(1.0, rec.xi) == math.copysign(1.0, xi)
    # the repeated call is served by the memo
    assert got[3] is got[2]
    assert got[10] is not got[9] and got[11] is got[10]
