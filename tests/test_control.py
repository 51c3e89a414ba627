import pytest
from hypothesis import given
from hypothesis import strategies as st

from gridfreq.control import ControllerGains, default_kf, optimal_kc


def _gains(**over):
    base = dict(gamma=1.0, k_f=1.0, k_c=1.0, k_d=1.0, q=1.0)
    base.update(over)
    return ControllerGains(**base)


def test_gains_require_positive_entries():
    with pytest.raises(ValueError):
        _gains(gamma=0.0)
    with pytest.raises(ValueError):
        _gains(k_c=-1.0)
    with pytest.raises(ValueError):
        _gains(q=0.0)


def test_optimal_kc_identity():
    # with k_c = 1/(qK) a settled block delivers p = K k_c p_c, whose
    # marginal cost q p is the command p_c itself
    for q, k_gain in [(1.0, 1.0), (2.0, 1.25), (0.5, 3.0)]:
        p_c = 0.37
        assert q * k_gain * optimal_kc(q, k_gain) * p_c == pytest.approx(p_c)


def test_optimal_kc_examples():
    assert optimal_kc(1.0, 1.0) == 1.0
    assert optimal_kc(2.0, 1.25) == pytest.approx(0.4)
    with pytest.raises(ValueError):
        optimal_kc(0.0, 1.0)
    with pytest.raises(ValueError):
        optimal_kc(1.0, -1.0)


def test_default_kf_examples():
    assert default_kf(1.0, 1.0, 1.0) == 1.0
    assert default_kf(2.0, 0.5, 0.3) == pytest.approx(0.8)


@given(st.floats(0.1, 5.0), st.floats(0.1, 5.0), st.floats(0.1, 5.0))
def test_default_kf_scales_with_gain(k_gain, k_c, k_d):
    assert default_kf(2 * k_gain, k_c, k_d) == pytest.approx(
        2 * default_kf(k_gain, k_c, k_d), rel=1e-12)
