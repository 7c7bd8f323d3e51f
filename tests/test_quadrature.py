import numpy as np
import pytest

from posgeom.quadrature import QuadConfig, QuadratureError, _lane_quad, adaptive_quad

# smooth integrands of different magnitudes; several need bisection rounds
LANES = [
    lambda x: np.exp(-x),
    lambda x: np.exp(-30 * x),
    lambda x: np.cos(40 * x),
    lambda x: 1 / (1 + 400 * (x - 0.3) ** 2),
    lambda x: 1e3 * x**5,
    lambda x: np.sin(3 * x),
]


def test_lanes_match_separate_calls():
    batch = _lane_quad(lambda x, lane: np.choose(lane, [g(x) for g in LANES]), len(LANES), 0.0, 1.0, QuadConfig())
    separate = np.array([adaptive_quad(g, 0.0, 1.0) for g in LANES])
    assert np.abs(batch / separate - 1).max() < 1e-12


def test_lane_values_gathered_by_lane_index():
    # lane k integrates (k + 1) x^k over (0, 2): 2^(k + 1)
    powers = np.arange(8.0)
    batch = _lane_quad(lambda x, lane: (powers[lane] + 1) * x ** powers[lane], 8, 0.0, 2.0, QuadConfig())
    assert np.allclose(batch, 2.0 ** (powers + 1), rtol=1e-12)


def test_one_failing_lane_raises():
    # lane 1 is the non-integrable 1/x; the other lanes converge at once
    with pytest.raises(QuadratureError):
        _lane_quad(lambda x, lane: np.where(lane == 1, 1 / x, x), 3, 0.0, 1.0, QuadConfig())


def test_non_finite_integrand_raises():
    with pytest.raises(QuadratureError):
        adaptive_quad(lambda x: np.full_like(x, np.nan), 0.0, 1.0)
