"""Adaptive quadrature of lanes of integrals over one interval, vectorized.

Each panel is estimated by a Gauss-Legendre 21-point rule with the 10-point
rule for the error estimate; G10 nodes are not a subset of G21 nodes, so a
panel costs 31 evaluations.  Panels whose error exceeds their share of the
tolerance are bisected, all pending panels being evaluated each round in
integrand calls of at most _MAX_POINTS abscissae.  Nodes come from numpy at
import time, so there are no hard-coded tables.  Endpoints are never
evaluated, which lets integrable endpoint singularities through.

Lane contract of _lane_quad: f(x, lane) receives flat abscissae and the lane
index of each, and returns values of the same shape.  Each lane refines its
own panels; all lanes share one absolute tolerance, rel_tol times the
largest |lane total|.  adaptive_quad is the one-lane case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_XG10, _WG10 = np.polynomial.legendre.leggauss(10)
_XG21, _WG21 = np.polynomial.legendre.leggauss(21)
_NODES = np.concatenate([_XG10, _XG21])
_ABS_TOL = 1e-300
# abscissae per integrand call: bounds the working set of nested integrands
_MAX_POINTS = 4096
_PANELS_PER_CALL = _MAX_POINTS // len(_NODES)


class QuadratureError(RuntimeError):
    """Requested tolerance not reached within the refinement budget."""


@dataclass(frozen=True)
class QuadConfig:
    rel_tol: float = 1e-8
    max_depth: int = 48
    max_intervals: int = 20000

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
    """G21 value and |G21 - G10| of every panel."""
    g10 = np.empty(len(lo))
    g21 = np.empty(len(lo))
    for start in range(0, len(lo), _PANELS_PER_CALL):
        part = slice(start, start + _PANELS_PER_CALL)
        half = 0.5 * (hi[part] - lo[part])
        x = (0.5 * (lo[part] + hi[part]))[:, None] + half[:, None] * _NODES
        vals = f(x.ravel(), np.repeat(lane[part], len(_NODES))).reshape(x.shape)
        if not np.isfinite(vals).all():
            raise QuadratureError("integrand produced non-finite values")
        g10[part] = vals[:, : len(_XG10)] @ _WG10 * half
        g21[part] = vals[:, len(_XG10) :] @ _WG21 * half
    return g21, np.abs(g21 - g10)


def _lane_quad(f, nlanes: int, a: float, b: float, config: QuadConfig) -> np.ndarray:
    """Integrals over (a, b) of the nlanes integrands of f(x, lane).

    Raises QuadratureError when any lane's error estimate stalls above the
    shared tolerance; no partial result is returned.
    """
    lo, hi, lane = np.full(nlanes, float(a)), np.full(nlanes, float(b)), np.arange(nlanes)
    done_val, done_err = np.zeros(nlanes), np.zeros(nlanes)
    for depth in range(config.max_depth + 1):
        vals, errs = _panels(f, lo, hi, lane)
        total = done_val + np.bincount(lane, vals, nlanes)
        err = done_err + np.bincount(lane, errs, nlanes)
        tol = max(_ABS_TOL, config.rel_tol * np.abs(total).max())
        # keep converged panels and every panel of a converged lane, bisect the rest
        share = tol / np.maximum(1, 2 * np.bincount(lane, minlength=nlanes))
        settled = (err <= tol)[lane] | (errs <= share[lane])
        if settled.all() or depth == config.max_depth:
            break
        done_val += np.bincount(lane[settled], vals[settled], nlanes)
        done_err += np.bincount(lane[settled], errs[settled], nlanes)
        lo, hi, lane = lo[~settled], hi[~settled], lane[~settled]
        if 2 * np.bincount(lane).max() > config.max_intervals:
            raise QuadratureError("interval budget exhausted")
        mid = 0.5 * (lo + hi)
        lo, hi, lane = np.concatenate([lo, mid]), np.concatenate([mid, hi]), np.concatenate([lane, lane])
    failed = err > 10 * tol
    if failed.any():
        raise QuadratureError(f"error estimate {err.max():.2e} above tolerance in {failed.sum()} of {nlanes} lanes")
    return total
