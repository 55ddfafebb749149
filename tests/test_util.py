"""Angle wrapping: the range [-pi, pi) and idempotence, on both branches."""

import math

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from refbilliard._util import wrap_pi

#: the largest float below -pi: x + pi is -ulp(pi), whose remainder modulo
#: 2 pi rounds up to 2 pi
BELOW_MINUS_PI = float(np.nextafter(-math.pi, -4.0))


def test_wrap_pi_maps_just_below_minus_pi_to_minus_pi():
    assert wrap_pi(BELOW_MINUS_PI) == -math.pi
    assert wrap_pi(np.array([BELOW_MINUS_PI]))[0] == -math.pi
    assert wrap_pi(np.float64(BELOW_MINUS_PI)) == -math.pi
    assert wrap_pi(math.pi) == -math.pi


@given(x=st.floats(-1e12, 1e12) | st.floats(-1e300, 1e300))
@example(x=BELOW_MINUS_PI)
@example(x=math.pi)
@example(x=-math.pi)
@example(x=float(np.nextafter(math.pi, 0.0)))
@example(x=-0.0)
def test_wrap_pi_range_and_idempotence(x):
    w = wrap_pi(x)
    assert type(w) is float
    assert -math.pi <= w < math.pi
    assert wrap_pi(w) == w
    # the array branch gives the same bits
    arr = wrap_pi(np.array([x, w]))
    assert arr[0] == w and arr[1] == w
    assert math.copysign(1.0, arr[0]) == math.copysign(1.0, w)
