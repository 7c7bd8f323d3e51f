"""Adaptive quadrature of lanes of integrals over one interval, vectorized.

Each panel is estimated by the 21-point Gauss-Kronrod rule K21, the Kronrod
extension of the 10-point Gauss-Legendre rule G10: its 21 nodes include the
10 G10 nodes, so a panel costs 21 evaluations and both rule sums come from
one product with a (21, 2) weight matrix.  A panel's value is K21 and its
error estimate |K21 - G10|.  All pending panels are evaluated each round in
integrand calls of at most _MAX_POINTS abscissae.  Endpoints are never
evaluated, which lets integrable endpoint singularities through.

Panels whose error exceeds their share of the tolerance are split.  Every
panel has an integer level, its width being (b - a) 2^-level.  A failing
whole interval goes to its four quarters (level 2) and a failing panel
inside (a, b) is bisected.  With graded splitting, which the inner lanes of
nested integrals use, a failing panel touching a or b splits into widths
w/2, w/4, w/8, w/8 halving toward that endpoint, so that a lane reaches its
endpoint depth in a third of the rounds.  A panel stops refining at level
max_depth, or earlier where the outermost nodes of its halves would round
onto their ends; its error then counts against the tolerance as it stands.

Nodes and weights are built at import, so there are no hard-coded tables:
G10 comes from numpy's leggauss, and K21 from Laurie's algorithm (Math.
Comp. 66, 1997), which extends the Legendre recurrence coefficients to the
Jacobi matrix of the Kronrod rule, whose eigenvalues are the nodes and whose
first eigenvector components give the weights.  The G10 nodes are then
taken from leggauss, so they are among the K21 nodes to the last bit.

Lane contract of _lane_quad: f(x, lane) receives flat abscissae and the lane
index of each, and returns values of the same shape.  Each lane refines its
own panels; all lanes share one absolute tolerance, rel_tol times the
largest |lane total|.  adaptive_quad is the one-lane case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def _kronrod(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (ascending) and weights of the (2n + 1)-point Gauss-Kronrod rule
    on [-1, 1] by Laurie's algorithm; a and b hold the recurrence coefficients
    alpha_k, beta_k at 1-based positions, as in the paper."""
    a, b = np.zeros(2 * n + 3), np.zeros(2 * n + 3)
    known = np.arange(1.0, 3 * n // 2 + 1)
    b[1] = 2.0  # beta_0 is the total mass of the Legendre weight
    b[2 : 3 * n // 2 + 2] = known**2 / (4 * known**2 - 1)
    s, t = np.zeros(n // 2 + 3), np.zeros(n // 2 + 3)
    t[2] = b[n + 2]
    for m in range(n - 1):
        u = 0.0
        for k in range((m + 1) // 2, -1, -1):
            l = m - k
            u += (a[k + n + 2] - a[l + 1]) * t[k + 2] + b[k + n + 2] * s[k + 1] - b[l + 1] * s[k + 2]
            s[k + 2] = u
        s, t = t, s
    s[2 : n // 2 + 3] = s[1 : n // 2 + 2].copy()
    for m in range(n - 1, 2 * n - 2):
        u = 0.0
        for k in range(m + 1 - n, (m - 1) // 2 + 1):
            l = m - k
            j = n - 1 - l
            u -= (a[k + n + 2] - a[l + 1]) * t[j + 2] + b[k + n + 2] * s[j + 2] - b[l + 1] * s[j + 3]
            s[j + 2] = u
        if m % 2 == 0:
            k = m // 2
            a[k + n + 2] = a[k + 1] + (s[j + 2] - b[k + n + 2] * s[j + 3]) / t[j + 3]
        else:
            k = (m + 1) // 2
            b[k + n + 2] = s[j + 2] / s[j + 3]
        s, t = t, s
    a[2 * n + 1] = a[n] - b[2 * n + 1] * s[2] / t[2]
    off = np.sqrt(b[2 : 2 * n + 2])
    nodes, vecs = np.linalg.eigh(np.diag(a[1 : 2 * n + 2]) + np.diag(off, 1) + np.diag(off, -1))
    return nodes, b[1] * vecs[0] ** 2


_XG10, _WG10 = np.polynomial.legendre.leggauss(10)
_NODES, _WK21 = _kronrod(10)
# the Kronrod nodes interlace the Gauss nodes; make the rule exactly symmetric
_NODES[0::2] = 0.5 * (_NODES[0::2] - _NODES[-1::-2])
_NODES[1::2] = _XG10
_WK21 = 0.5 * (_WK21 + _WK21[::-1])
# columns: K21 weights, G10 weights (zero at the Kronrod-only nodes)
_WEIGHTS = np.zeros((len(_NODES), 2))
_WEIGHTS[:, 0] = _WK21
_WEIGHTS[1::2, 1] = _WG10
_ABS_TOL = 1e-300
# abscissae per integrand call: bounds the working set of nested integrands
_MAX_POINTS = 4096
_PANELS_PER_CALL = _MAX_POINTS // len(_NODES)


class QuadratureError(RuntimeError):
    """Requested tolerance not reached within the refinement budget."""


@dataclass(frozen=True)
class QuadConfig:
    """rel_tol: relative tolerance on the largest |lane total|; max_depth:
    the finest panel level, so no panel is narrower than (b - a) 2^-max_depth;
    max_intervals: the most pending panels one lane may have in a round."""

    rel_tol: float = 1e-8
    max_depth: int = 48
    max_intervals: int = 20000

    def __post_init__(self):
        if not (math.isfinite(self.rel_tol) and self.rel_tol > 0):
            raise ValueError(f"rel_tol must be finite and positive, got {self.rel_tol}")
        if self.max_depth < 0:
            raise ValueError(f"max_depth must be >= 0, got {self.max_depth}")
        if self.max_intervals < 1:
            raise ValueError(f"max_intervals must be >= 1, got {self.max_intervals}")

    def doubled(self) -> "QuadConfig":
        """Config for self-convergence checks: twice the depth, tighter tol."""
        return QuadConfig(self.rel_tol * 1e-2, self.max_depth * 2, self.max_intervals * 4)


def adaptive_quad(f, a: float, b: float, config: QuadConfig = QuadConfig()) -> float:
    """Integrate a vectorized callable over (a, b).

    f receives a flat numpy array of abscissae and must return values of the
    same shape.  Raises QuadratureError when the error estimate stalls above
    tolerance.
    """
    return float(_lane_quad(lambda x, lane: f(x), 1, a, b, config)[0])


def _panels(f, lo: np.ndarray, hi: np.ndarray, lane: np.ndarray):
    """K21 value and |K21 - G10| of every panel."""
    sums = np.empty((len(lo), 2))
    for start in range(0, len(lo), _PANELS_PER_CALL):
        part = slice(start, start + _PANELS_PER_CALL)
        half = 0.5 * (hi[part] - lo[part])
        x = (0.5 * (lo[part] + hi[part]))[:, None] + half[:, None] * _NODES
        vals = f(x.ravel(), np.repeat(lane[part], len(_NODES))).reshape(x.shape)
        if not np.isfinite(vals).all():
            raise QuadratureError("integrand produced non-finite values")
        sums[part] = vals @ _WEIGHTS * half[:, None]
    return sums[:, 0], np.abs(sums[:, 0] - sums[:, 1])


def _resolved(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Whether the K21 nodes of each panel (lo, hi), rounded as _panels
    rounds them, fall strictly inside it."""
    mid, reach = 0.5 * (lo + hi), 0.5 * (hi - lo) * _NODES[-1]
    return (mid - reach > lo) & (mid + reach < hi)


def _safe_levels(a: float, b: float, max_depth: int) -> int:
    """A level below which every panel of (a, b) may be bisected without a
    node check: a half's outermost node lies (b - a) 2^-(level + 2) (1 - x21)
    inside it, which then exceeds 16 ulps of the largest |x|, far more than
    the rounding of its midpoint and node."""
    room = (b - a) * (1.0 - _NODES[-1]) / 4 / (16 * np.spacing(max(abs(a), abs(b))))
    return min(max_depth, max(0, math.ceil(math.log2(room)))) if room > 0 else 0


# the splits of a failing panel: its cut points as fractions of the way from
# its lower to its upper end (repeats pad the halves to five), and the level
# each piece adds; halves, quarters, and the graded splits toward each end
_HALVES, _QUARTERS, _TOWARD_LO, _TOWARD_HI = range(4)
_CUTS = np.array([[0, 1 / 2, 1 / 2, 1 / 2, 1], [0, 1 / 4, 1 / 2, 3 / 4, 1],
                  [0, 1 / 8, 1 / 4, 1 / 2, 1], [0, 1 / 2, 3 / 4, 7 / 8, 1]])
_DEEPER = np.array([[1, 1, 1, 1], [2, 2, 2, 2], [3, 3, 2, 1], [1, 2, 3, 3]])


def _split(lo, hi, lane, level, kind):
    """(lo, hi, lane, level) of the pieces of each panel split by its kind,
    one kind for all or one per panel.  A cut at fraction c is
    lo (1 - c) + hi c, so that the ends are kept exactly and a midpoint is
    0.5 (lo + hi) to the last bit."""
    cuts = lo[:, None] * (1 - _CUTS[kind]) + hi[:, None] * _CUTS[kind]
    lo, hi = cuts[:, :-1].ravel(), cuts[:, 1:].ravel()
    level = (level[:, None] + _DEEPER[kind]).ravel()
    piece = hi > lo
    return lo[piece], hi[piece], np.repeat(lane, 4)[piece], level[piece]


def _fits(lo, hi, level, kind, max_depth: int) -> np.ndarray:
    """Whether every piece of each panel split by its kind is at most
    max_depth deep and resolves its nodes."""
    count = len(lo)
    lo, hi, panel, level = _split(lo, hi, np.arange(count), level, kind)
    misfit = (level > max_depth) | ~_resolved(lo, hi)
    return np.bincount(panel, misfit, count) == 0


def _divisible(lo, hi, level, safe: int, max_depth: int) -> np.ndarray:
    """Whether each panel's halves fit, checked only beyond the safe levels."""
    div = level < safe
    check = ~div
    if check.any():
        div[check] = _fits(lo[check], hi[check], level[check], _HALVES, max_depth)
    return div


def _lane_quad(f, nlanes: int, a: float, b: float, config: QuadConfig, *, graded: bool = False) -> np.ndarray:
    """Integrals over (a, b) of the nlanes integrands of f(x, lane).

    A failing whole interval splits into quarters and any other failing
    panel into halves.  With graded set, a failing panel that touches a or b
    splits into pieces of widths w/2, w/4, w/8, w/8 toward that endpoint.
    Raises QuadratureError when any lane's error estimate stays above the
    shared tolerance; no partial result is returned.
    """
    a, b = float(a), float(b)
    if b < a:
        return -_lane_quad(f, nlanes, b, a, config, graded=graded)
    depth = config.max_depth
    safe = _safe_levels(a, b, depth)
    lo, hi, lane = np.full(nlanes, a), np.full(nlanes, b), np.arange(nlanes)
    level = np.zeros(nlanes, dtype=int)
    done_val, done_err = np.zeros(nlanes), np.zeros(nlanes)
    first = True
    while True:
        vals, errs = _panels(f, lo, hi, lane)
        total = done_val + np.bincount(lane, vals, nlanes)
        err = done_err + np.bincount(lane, errs, nlanes)
        tol = max(_ABS_TOL, config.rel_tol * np.abs(total).max())
        # keep converged panels, every panel of a converged lane and every
        # panel that cannot be split further, whose error counts as it stands
        share = tol / np.maximum(1, 2 * np.bincount(lane, minlength=nlanes))
        settled = (err <= tol)[lane] | (errs <= share[lane]) | ~_divisible(lo, hi, level, safe, depth)
        if settled.all():
            break
        done_val += np.bincount(lane[settled], vals[settled], nlanes)
        done_err += np.bincount(lane[settled], errs[settled], nlanes)
        keep = ~settled
        lo, hi, lane, level = lo[keep], hi[keep], lane[keep], level[keep]
        # the whole interval goes to quarters, and with graded set a panel
        # touching a or b (never both after the first round) goes three
        # levels deep where all of its pieces fit; kind 0 is halves
        if first:
            kind = _QUARTERS if safe > 1 else _HALVES
        elif graded:
            kind = _TOWARD_LO * (lo == a) + _TOWARD_HI * (hi == b)
            deep = (kind > 0) & (level + 2 >= safe)
            if deep.any():
                kind[deep] *= _fits(lo[deep], hi[deep], level[deep], kind[deep], depth)
        else:
            kind = _HALVES
        first = False
        lo, hi, lane, level = _split(lo, hi, lane, level, kind)
        if np.bincount(lane).max() > config.max_intervals:
            raise QuadratureError("interval budget exhausted")
    failed = err > 10 * tol
    if failed.any():
        raise QuadratureError(f"error estimate {err.max():.2e} above tolerance in {failed.sum()} of {nlanes} lanes")
    return total
