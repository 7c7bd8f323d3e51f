import numpy as np
import pytest

from posgeom.quadrature import _NODES, _WEIGHTS, QuadConfig, QuadratureError, _lane_quad, adaptive_quad

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


def test_kronrod_nodes_contain_the_gauss_nodes_exactly():
    g10 = np.polynomial.legendre.leggauss(10)[0]
    assert len(_NODES) == 21
    assert set(g10.tolist()) <= set(_NODES.tolist())


def test_kronrod_weights_positive_and_sum_to_two():
    assert (_WEIGHTS[:, 0] > 0).all()
    assert abs(_WEIGHTS[:, 0].sum() - 2) < 1e-14
    assert abs(_WEIGHTS[:, 1].sum() - 2) < 1e-14


def test_kronrod_rule_exact_through_degree_31():
    def moment_error(k):
        return abs(_NODES**k @ _WEIGHTS[:, 0] - (2 / (k + 1) if k % 2 == 0 else 0))

    assert max(moment_error(k) for k in range(32)) < 1e-14
    assert moment_error(32) > 1e-14


def test_kronrod_rule_matches_published_qk21_values():
    # QUADPACK qk21: nodes xgk and weights wgk on [0, 1)
    published = [
        (0.995657163025808080735527280689003, 0.011694638867371874278064396062192),
        (0.930157491355708226001207180059508, 0.054755896574351996031381300244580),
        (0.433395394129247190799265943165784, 0.134709217311473325928054001771707),
        (0.0, 0.149445554002916905664936468389821),
    ]
    for x, w in published:
        i = np.abs(_NODES - x).argmin()
        assert abs(_NODES[i] - x) < 1e-14 and abs(_WEIGHTS[i, 0] - w) < 1e-14
        j = np.abs(_NODES + x).argmin()
        assert abs(_NODES[j] + x) < 1e-14 and abs(_WEIGHTS[j, 0] - w) < 1e-14


def test_one_panel_costs_21_evaluations():
    calls = []

    def f(x):
        calls.append(len(x))
        return x**2

    assert adaptive_quad(f, 0.0, 1.0) == pytest.approx(1 / 3, rel=1e-14)
    assert calls == [21]


@pytest.mark.parametrize(
    "config",
    [dict(rel_tol=float("nan")), dict(rel_tol=0.0), dict(rel_tol=-1.0), dict(rel_tol=float("inf")),
     dict(max_depth=-1), dict(max_intervals=0)],
)
def test_config_rejects_values_it_cannot_honour(config):
    with pytest.raises(ValueError):
        QuadConfig(**config)


def test_doubled_config_is_valid():
    assert QuadConfig().doubled() == QuadConfig(1e-10, 96, 80000)
    assert adaptive_quad(np.exp, 0.0, 1.0, QuadConfig(max_depth=0)) == pytest.approx(np.e - 1, rel=1e-14)


def _recording_panels(monkeypatch):
    """Replace _panels by a wrapper; returns the list of (lo, hi, lane) of
    every round it sees."""
    import posgeom.quadrature as quadrature

    rounds = []
    panels = quadrature._panels

    def record(f, lo, hi, lane):
        rounds.append((lo.copy(), hi.copy(), lane.copy()))
        return panels(f, lo, hi, lane)

    monkeypatch.setattr(quadrature, "_panels", record)
    return rounds


def test_graded_lanes_reach_both_endpoints_in_few_rounds(monkeypatch):
    # x^-1/2 at 0 and (1 - x)^-0.3 at 1; plain bisection takes 44 rounds
    rounds = _recording_panels(monkeypatch)
    values = _lane_quad(
        lambda x, lane: np.where(lane == 0, x**-0.5, (1 - x) ** -0.3), 2, 0.0, 1.0, QuadConfig(), graded=True
    )
    assert np.abs(values / [2.0, 1 / 0.7] - 1).max() < 1e-8
    assert len(rounds) <= 22


@pytest.mark.parametrize("a, b", [(0.0, 1.0), (1.0, 3.0)])
@pytest.mark.parametrize("graded", [False, True])
@pytest.mark.parametrize("max_depth", [20, 48])
def test_panels_never_finer_than_max_depth_nor_below_resolution(monkeypatch, a, b, graded, max_depth):
    # lane 0 is not integrable at a, so it refines there to max_depth unless
    # the nodes of its halves would round onto their ends first, as they do
    # near x = 1 at depth 48; lane 1 refines toward b until they would
    rounds = _recording_panels(monkeypatch)
    with pytest.raises(QuadratureError):
        _lane_quad(
            lambda x, lane: np.where(lane == 0, 1 / (x - a), (b - x) ** -0.9), 2, a, b,
            QuadConfig(max_depth=max_depth), graded=graded,
        )
    finest = (b - a) * 2.0**-max_depth
    lo, hi, _ = (np.concatenate(column) for column in zip(*rounds))
    assert (hi - lo >= finest).all()
    assert (hi - lo == finest).any() == (max_depth == 20 or a == 0.0)
    x = (0.5 * (lo + hi))[:, None] + (0.5 * (hi - lo))[:, None] * _NODES
    assert ((x > lo[:, None]) & (x < hi[:, None])).all()


def test_interval_budget_counts_graded_pieces(monkeypatch):
    # a lane singular at both ends splits each end panel into four pieces
    def f(x, lane):
        return (x * (1 - x)) ** -0.5

    rounds = _recording_panels(monkeypatch)
    value = _lane_quad(f, 1, 0.0, 1.0, QuadConfig(), graded=True)[0]
    assert value == pytest.approx(np.pi, rel=1e-8)
    most = max(len(lo) for lo, _, _ in rounds)
    assert _lane_quad(f, 1, 0.0, 1.0, QuadConfig(max_intervals=most), graded=True)[0] == value
    with pytest.raises(QuadratureError, match="budget"):
        _lane_quad(f, 1, 0.0, 1.0, QuadConfig(max_intervals=most - 1), graded=True)


def test_reversed_interval_negates():
    assert adaptive_quad(lambda x: x**-0.5, 1.0, 0.0) == pytest.approx(-2.0, rel=1e-8)
