import math

import pytest

from gridfreq.control import ControllerGains, optimal_kc


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


@pytest.mark.parametrize("name", ["gamma", "k_f", "k_c", "k_d", "q"])
def test_gains_must_be_finite(name):
    with pytest.raises(ValueError, match=f"^{name} must be finite$"):
        _gains(**{name: math.inf})
    # NaN fails the sign test first, with its message unchanged
    with pytest.raises(ValueError, match=f"^{name} must be strictly positive$"):
        _gains(**{name: math.nan})


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
