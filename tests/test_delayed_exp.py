"""The delayed exponential, the delay kernel K at a = 0: values, knots,
derivative law.

With a = 0, K solves x'(t) = b x(t - tau) with x = 1 on [-tau, 0) and x = 0
below -tau; on (k-1) tau <= t < k tau it is

    sum_{j=0}^{k}  b^j (t - (j-1) tau)^j / j!.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delayheat.delay_ode import DelayOdeParams, kernel
from delayheat.errors import InputError


def delayed_exp(rate, delay, t):
    """The delayed exponential of rate ``rate`` and delay ``delay`` at t."""
    return kernel(DelayOdeParams(a=0.0, b=rate, tau=delay), t)


def test_frozen_values_unit_parameters():
    assert delayed_exp(1.0, 1.0, 1.5) == pytest.approx(2.625, abs=1e-15)
    assert delayed_exp(1.0, 1.0, 0.5) == pytest.approx(1.5, abs=1e-15)
    assert delayed_exp(1.0, 1.0, -0.5) == 1.0
    assert delayed_exp(1.0, 1.0, -1.0) == 1.0
    assert delayed_exp(1.0, 1.0, -1.5) == 0.0
    # knot t = 2: 1 + 2 + 1/2 + 0 = 3.5
    assert delayed_exp(1.0, 1.0, 2.0) == pytest.approx(3.5, abs=1e-15)


def test_frozen_values_scaled_parameters():
    # 1 + 2*0.75 + 4*(0.25)^2/2 = 2.625
    assert delayed_exp(2.0, 0.5, 0.75) == pytest.approx(2.625, abs=1e-15)


def test_linear_on_first_interval():
    for t in np.linspace(0.0, 0.7, 13)[:-1]:
        assert delayed_exp(-3.0, 0.7, t) == pytest.approx(1.0 - 3.0 * t, rel=1e-14)


def test_zero_below_history_start():
    assert delayed_exp(1.0, 1.0, -1.0 - 1e-9) == 0.0
    assert delayed_exp(1.0, 1.0, -100.0) == 0.0


def test_continuity_at_knots():
    for rate in (-3.0, -1.0, 1.0, 3.0):
        for delay in (0.5, 1.0):
            for k in range(1, 8):
                left = delayed_exp(rate, delay, k * delay - 1e-12)
                right = delayed_exp(rate, delay, k * delay)
                assert right == pytest.approx(left, rel=1e-9, abs=1e-9)


def test_derivative_law_spot_checks():
    # d/dt x(t) = rate * x(t - delay), checked with central differences.
    h = 1e-6
    for rate in (-2.0, 0.7):
        for t in (0.3, 1.4, 2.6, 3.1):
            fd = (delayed_exp(rate, 1.0, t + h)
                  - delayed_exp(rate, 1.0, t - h)) / (2 * h)
            ref = rate * delayed_exp(rate, 1.0, t - 1.0)
            assert fd == pytest.approx(ref, rel=1e-8, abs=1e-8)


def test_validation():
    with pytest.raises(InputError):
        DelayOdeParams(a=0.0, b=1.0, tau=0.0)
    with pytest.raises(InputError):
        DelayOdeParams(a=0.0, b=math.inf, tau=1.0)


@settings(max_examples=100, deadline=None)
@given(
    rate=st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
    delay=st.floats(min_value=0.2, max_value=2.0, allow_nan=False),
    t=st.floats(min_value=0.0, max_value=6.0, allow_nan=False),
)
def test_property_matches_direct_series(rate, delay, t):
    """Independent evaluation of the defining sum, term by term, at 50
    digits: in float the sum itself cancels by more than the tolerance."""
    with mpmath.workdps(50):
        b, tau, s = mpmath.mpf(rate), mpmath.mpf(delay), mpmath.mpf(t)
        k = int(mpmath.floor(s / tau)) + 1
        total = float(sum(b**j * (s - (j - 1) * tau) ** j / mpmath.factorial(j)
                          for j in range(k + 1)))
    assert delayed_exp(rate, delay, t) == pytest.approx(total, rel=1e-11, abs=1e-11)
