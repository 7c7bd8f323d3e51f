"""Scattering equations on the moduli space of n marked points on the line.

The moduli space is charted by the complement of a hyperplane arrangement:
punctures sit at 0, 1, 1+x1, 1+x1+x2, ..., infinity, and the pairwise
differences p_ij are the 2x2 minors of the corresponding 2 x n matrix (all
affine-linear in the chart coordinates, with p_in = 1).  The logarithmic
potential L = sum s_ij log p_ij has exactly (n-3)! complex critical points
for generic kinematics; the amplitude is recovered from the inverse
determinants of the theta-Hessian (theta_a = x_a d/dx_a) summed over them.

Four points are linear and five reduce to a closed-form quadratic.  Six and
beyond run one parameter homotopy (Sturmfels-Telen, arXiv:2012.05041).  For
positive weights s0 on every chart minor, L is strictly concave on each of
the (n-3)! bounded chambers {0 < sigma_pi(3) < ... < sigma_pi(n-1) < 1} and
has exactly one critical point there (Varchenko); damped Newton finds it,
and all of them are tracked along s(t) = (1-t) gamma s0 + t s to the target
kinematics, gamma a random phase that keeps the paths off the discriminant.
Every endpoint is Newton-polished and re-verified against the raw gradient,
so a failed or jumped path can lose a root but never add a wrong one.  The
(n-3)-dependent global sign of the Hessian-determinant sum is fixed
empirically against the tree amplitude and pinned by the test suite.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import permutations

import numpy as np

from .exact import Polynomial
from .kinematics import KinematicData

# letters must sort alphabetically in chart order, since polynomials keep
# their variables name-sorted; beyond three moduli, indexed names are used
_LETTERS = ("x", "y", "z")


class WrongCountError(RuntimeError):
    """Root count differs from (n-3)!: degenerate kinematics or lost paths."""

    def __init__(self, expected: int, found: int, message: str = ""):
        self.expected = expected
        self.found = found
        super().__init__(
            f"expected {expected} critical points, found {found}"
            + (f": {message}" if message else "")
        )


def moduli_coordinates(n: int) -> tuple[str, ...]:
    m = n - 3
    if m <= len(_LETTERS):
        return _LETTERS[:m]
    return tuple(f"x{i + 1}" for i in range(m))


def minors(n: int) -> dict[tuple[int, int], Polynomial]:
    """All p_ij, i < j, as polynomials in the chart coordinates."""
    if n < 4:
        raise ValueError("need n >= 4")
    coords = moduli_coordinates(n)
    m = len(coords)

    def sigma(idx: int) -> Polynomial:
        # sigma_1 = 0, sigma_2 = 1, sigma_t = 1 + x_1 + ... + x_{t-2}
        if idx == 1:
            return Polynomial.zero(coords)
        poly = Polynomial.const(1, coords)
        for t in range(idx - 2):
            poly = poly + Polynomial(coords, {tuple(1 if q == t else 0 for q in range(m)): 1})
        return poly

    out = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if j == n:
                out[(i, j)] = Polynomial.const(1, coords)
            else:
                out[(i, j)] = sigma(j) - sigma(i)
    return out


def _derivatives(s: np.ndarray, k: np.ndarray, c: np.ndarray, x: np.ndarray):
    """Minors p = k + c.x, gradient and Jacobian of sum_t s_t log p_t at the
    chart points x of shape (..., m); the weights s broadcast against p."""
    p = k + x @ c.T
    g = (s / p) @ c
    j = -np.einsum("...t,ta,tc->...ac", s / p**2, c, c)
    return p, g, j


@dataclass(frozen=True)
class PotentialTerm:
    i: int
    j: int
    s: Fraction
    const: Fraction
    coeffs: tuple[int, ...]  # d p_ij / d x_a, each 0 or 1


@dataclass(frozen=True)
class ScatteringPotential:
    """L = sum s_ij log p_ij over the non-constant chart minors.

    Terms with s_ij = 0 are kept: they add nothing to L, but the homotopy's
    start system puts a positive weight on every minor."""

    n: int
    coords: tuple[str, ...]
    terms: tuple[PotentialTerm, ...]

    @cached_property
    def _arrays(self):
        out = (
            np.array([float(t.s) for t in self.terms]),
            np.array([float(t.const) for t in self.terms]),
            np.array([t.coeffs for t in self.terms], dtype=float),
        )
        for a in out:
            a.flags.writeable = False  # shared by every caller
        return out

    def arrays(self):
        """(s, k, c): weights, constants and coefficient rows of the minors."""
        return self._arrays

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return _derivatives(*self.arrays(), x)[1]

    def hessian(self, x: np.ndarray) -> np.ndarray:
        return _derivatives(*self.arrays(), x)[2]

    def theta_hessian(self, x: np.ndarray) -> np.ndarray:
        _, g, h = _derivatives(*self.arrays(), x)
        return np.diag(x * g) + np.outer(x, x) * h


def scattering_potential(k: KinematicData) -> ScatteringPotential:
    coords = moduli_coordinates(k.n)
    m = len(coords)
    ps = minors(k.n)
    terms = []
    for (i, j), p in sorted(ps.items()):
        if j == k.n:
            continue
        # read linear coefficients by variable NAME: polynomials store their
        # variables name-sorted, which need not match the chart order
        coeffs = tuple(
            int(
                p.terms.get(
                    tuple(1 if q == p.vars.index(coords[t]) else 0 for q in range(m)), 0
                )
            )
            for t in range(m)
        )
        if not any(coeffs):
            continue  # constant minor contributes nothing
        const = p.terms.get((0,) * m, Fraction(0))
        terms.append(PotentialTerm(i, j, k.s[i - 1][j - 1], Fraction(const), coeffs))
    return ScatteringPotential(k.n, coords, tuple(terms))


@dataclass(frozen=True)
class CriticalPoint:
    """A verified solution of the scattering equations."""

    coords: tuple[complex, ...]
    residual: float
    hessian: tuple[tuple[complex, ...], ...]


# --------------------------------------------------------------------------
# solvers
# --------------------------------------------------------------------------


def _solve_n4(k: KinematicData) -> list[np.ndarray]:
    s13 = k.s[0][2]
    s23 = k.s[1][2]
    if s13 + s23 == 0 or s23 == 0:
        raise WrongCountError(1, 0, "degenerate four-point kinematics")
    x = -Fraction(s23) / (s13 + s23)
    return [np.array([complex(x)])]


def _solve_n5(k: KinematicData) -> list[np.ndarray]:
    """Closed form: eliminating one puncture leaves a quadratic in the other."""
    a, b, c = k.s[0][2], k.s[1][2], k.s[2][3]  # s13, s23, s34
    d, e = k.s[0][3], k.s[1][3]  # s14, s24
    a2 = (a + b + c) * (a + b + c + d + e)
    a1 = -(d * (2 * a + b + c) + e * (a + c) + (a + b + c) * (2 * a + c))
    a0 = a * (a + c + d)
    if a2 == 0:
        raise WrongCountError(2, 0, "leading coefficient of the critical quadratic vanishes")
    disc = a1 * a1 - 4 * a2 * a0
    sq = cmath.sqrt(complex(disc))
    roots = []
    for sgn in (1, -1):
        sigma3 = (complex(-a1) + sgn * sq) / complex(2 * a2)
        denom = complex(a) * (sigma3 - 1) + complex(b) * sigma3
        if abs(denom) < 1e-300:
            raise WrongCountError(2, len(roots), "puncture elimination degenerates")
        sigma4 = sigma3 * (complex(a + b + c) * sigma3 - complex(a + c)) / denom
        roots.append(np.array([sigma3 - 1, sigma4 - sigma3]))
    return roots


def _solve(j: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Batched solution of j y = b; a singular matrix gives a nan row
    instead of an exception, so one bad path never stops the others."""
    try:
        return np.linalg.solve(j, b[..., None])[..., 0]
    except np.linalg.LinAlgError:
        if j.ndim == 2:
            return np.full_like(b, np.nan)
        return np.stack([_solve(jj, bb) for jj, bb in zip(j, b)])


def _newton_polish(pot: ScatteringPotential, x: np.ndarray, iterations: int = 8) -> np.ndarray:
    with np.errstate(all="ignore"):
        for _ in range(iterations):
            _, g, j = _derivatives(*pot.arrays(), x)
            step = _solve(j, -g)
            if not np.all(np.isfinite(step)):
                return x
            x = x + step
            if np.max(np.abs(step)) < 1e-16 * (1 + np.max(np.abs(x))):
                break
    return x


def _raw_residual(pot: ScatteringPotential, x: np.ndarray) -> float:
    with np.errstate(all="ignore"):
        residual = float(np.max(np.abs(_derivatives(*pot.arrays(), x)[1])))
    return residual if math.isfinite(residual) else float("inf")


def _sort_key(x: np.ndarray):
    return tuple(v for xi in x for v in (xi.real, xi.imag))


def _root_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Max-norm distance relative to the root scale: double precision cannot
    pin a root of magnitude L more tightly than ~L*eps, so absolute
    thresholds would mistake one large root for two."""
    scale = 1.0 + max(np.abs(a).max(), np.abs(b).max())
    return float(np.abs(a - b).max() / scale)


# -- six points and beyond: the positive-chamber homotopy --------------------

_GAMMAS = 3  # fresh gamma draws before a short root count is final
_MAX_STEPS = 2000  # predictor-corrector rounds over all live paths
_MIN_STEP = 1e-12  # a path whose step shrinks below this has failed
_MAX_STEP = 0.2  # largest step in t
_ETA = 0.01  # aimed-for first correction, relative to the smallest minor
_FAR = 1e8  # no root is accepted beyond this chart radius
_NEAR = 1e-9  # relative distance to a boundary divisor that ends a path


def _chamber_maxima(pot: ScatteringPotential, s0: np.ndarray) -> np.ndarray:
    """The critical point of sum s0_t log|p_t| in each bounded chamber.

    Chamber pi orders the free punctures inside (0, 1); Newton starts at its
    barycenter sigma_pi(r) = r/(m+1), and each step halves until every
    minor keeps its sign.  The potential is strictly concave on the chamber
    and tends to -inf on its walls, so the iteration converges to the
    unique maximum."""
    _, k, c = pot.arrays()
    m = c.shape[1]
    perms = np.array(list(permutations(range(m))))
    sig = np.ones((len(perms), m + 1))  # sigma_2 = 1, then sigma_3..sigma_{n-1}
    np.put_along_axis(sig[:, 1:], perms, np.arange(1, m + 1) / (m + 1), axis=1)
    x = np.diff(sig, axis=1)
    sign = np.sign(k + x @ c.T)
    with np.errstate(all="ignore"):
        for _ in range(100):
            _, g, j = _derivatives(s0, k, c, x)
            step = _solve(j, -g)
            lam = np.ones(len(x))
            for _ in range(60):
                outside = np.any(np.sign(k + (x + lam[:, None] * step) @ c.T) != sign, axis=1)
                if not outside.any():
                    break
                lam[outside] /= 2
            x = x + lam[:, None] * step
            if np.all(np.abs(step) <= 1e-15 * (1 + np.abs(x))):
                break
    return x


def _track(pot: ScatteringPotential, s0: np.ndarray, gamma: complex, x: np.ndarray) -> np.ndarray:
    """Follow the critical points x of gamma*s0 to those of the target
    weights along s(t) = (1-t) gamma s0 + t s, all paths at once.

    RK4 predictor on the Davidenko equation J dx/dt = -dH/dt, where dH/dt
    is the gradient taken with the weights s - gamma s0 (the gradient is
    linear in s); three Newton corrector steps.  A step is accepted when
    the first correction is small against the nearest minor (the predictor
    stayed on its path) and the last one has converged; each path sizes its
    next step from its first correction, which scales as h^5.  Failed
    paths return nan rows."""
    s, k, c = pot.arrays()
    start = gamma * s0
    ds = s - start
    x = x.astype(complex)
    t = np.zeros(len(x))
    h = np.full(len(x), 0.02)
    live = np.ones(len(x), dtype=bool)
    failed = np.zeros(len(x), dtype=bool)

    def velocity(y, tau):
        p, _, j = _derivatives(start + tau[:, None] * ds, k, c, y)
        return _solve(j, -(ds / p) @ c)

    with np.errstate(all="ignore"):
        for _ in range(_MAX_STEPS):
            idx = np.flatnonzero(live)
            if not len(idx):
                break
            y, tau = x[idx], t[idx]
            step = np.minimum(h[idx], 1.0 - tau)
            hc = step[:, None]
            k1 = velocity(y, tau)
            k2 = velocity(y + hc / 2 * k1, tau + step / 2)
            k3 = velocity(y + hc / 2 * k2, tau + step / 2)
            k4 = velocity(y + hc * k3, tau + step)
            y = y + hc / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            target = start + (tau + step)[:, None] * ds
            corrections = []
            for _ in range(3):
                p, g, j = _derivatives(target, k, c, y)
                d = _solve(j, -g)
                corrections.append(np.abs(d).max(axis=1))
                y = y + d
            scale = 1.0 + np.abs(y).max(axis=1)
            nearest = np.abs(p).min(axis=1)
            err = corrections[0] / nearest
            ok = np.isfinite(y).all(axis=1) & (err < 0.1) & (corrections[-1] < 1e-6 * scale)
            accepted = idx[ok]
            x[accepted] = y[ok]
            t[accepted] = np.where(step[ok] >= 1.0 - tau[ok], 1.0, tau[ok] + step[ok])
            grow = np.where(np.isfinite(err), np.clip(0.9 * (_ETA / err) ** 0.2, 0.25, 3.0), 0.25)
            h[idx] = np.where(ok, np.minimum(step * grow, _MAX_STEP), step * np.minimum(grow, 0.5))
            # a path running off to infinity or into a boundary divisor ends
            # on no critical point that the solver could verify
            failed[idx[ok & ((scale > _FAR) | (nearest < _NEAR * scale))]] = True
            live &= (t < 1.0) & (h >= _MIN_STEP) & ~failed
    x[(t < 1.0) | failed] = np.nan
    return x


def _homotopy(pot: ScatteringPotential, rng: np.random.Generator):
    """Endpoints of the chamber paths, tracked once per fresh gamma; a jumped
    or failed path under one gamma is repaired by the union with the next."""
    s = pot.arrays()[0]
    s0 = rng.uniform(0.5, 1.5, len(s)) * max(float(np.abs(s).mean()), 1e-300)
    starts = _chamber_maxima(pot, s0)
    for _ in range(_GAMMAS):
        yield _track(pot, s0, cmath.exp(2j * math.pi * rng.random()), starts)


def solve_scattering(k: KinematicData, tol: float = 1e-12, seed: int = 0) -> list[CriticalPoint]:
    """All (n-3)! critical points, each re-verified to residual < tol.

    Four points solve linearly and five in closed form.  Six and beyond
    track one homotopy path from each bounded chamber of a positive start
    system; seed selects the start weights s0 and the phases gamma, drawn
    from np.random.default_rng(seed), and a short count is re-tracked with
    up to two fresh gammas.  Endpoints are polished, verified on the raw
    gradient, deduplicated at 1e-9 and completed by complex conjugation.
    Raises WrongCountError when the verified root count is off (degenerate
    kinematics near the logarithmic discriminant, or lost paths) and when
    two roots approach within 1e-6.
    """
    pot = scattering_potential(k)
    expected = math.factorial(k.n - 3)
    roots: list[np.ndarray] = []

    def try_add(cand: np.ndarray):
        if not np.all(np.isfinite(cand)):
            return
        cand = _newton_polish(pot, np.asarray(cand, dtype=complex), iterations=30)
        if _raw_residual(pot, cand) >= tol or np.abs(cand).max() > _FAR:
            return
        if 0 < np.abs(cand.imag).max() < 1e-4 * (1 + np.abs(cand.real).max()):
            # kinematics are real: a root this close to the real axis is
            # real, and real-projected Newton stays exactly real
            projected = _newton_polish(pot, cand.real.astype(complex), iterations=30)
            if _raw_residual(pot, projected) < tol:
                cand = projected
        for cc in (cand, cand.conj()):
            if _raw_residual(pot, cc) < tol and all(_root_distance(cc, r) > 1e-9 for r in roots):
                roots.append(cc.copy())

    if k.n == 4:
        batches = [_solve_n4(k)]
    elif k.n == 5:
        batches = [_solve_n5(k)]
    else:
        batches = _homotopy(pot, np.random.default_rng(seed))
    for batch in batches:
        for cand in batch:
            try_add(cand)
        if len(roots) >= expected:
            break

    roots.sort(key=_sort_key)
    for p in range(len(roots)):
        for q in range(p + 1, len(roots)):
            if _root_distance(roots[p], roots[q]) < 1e-6:
                raise WrongCountError(expected, len(roots), "two roots nearly collide (discriminant)")
    if len(roots) != expected:
        raise WrongCountError(expected, len(roots))

    points = []
    for r in roots:
        h = pot.theta_hessian(r)
        points.append(
            CriticalPoint(
                coords=tuple(complex(v) for v in r),
                residual=_raw_residual(pot, r),
                hessian=tuple(tuple(complex(v) for v in row) for row in h),
            )
        )
    return points


def chy_amplitude(k: KinematicData, points: list[CriticalPoint]) -> complex:
    """Sum of inverse theta-Hessian determinants over the critical points,
    with the empirically pinned global sign (-1)^(n-3)."""
    total = 0j
    for pt in points:
        h = np.array(pt.hessian)
        d = np.linalg.det(h)
        if not np.isfinite(d) or abs(d) < 1e-250:
            raise ArithmeticError("singular theta-Hessian at a critical point")
        total += 1.0 / d
    return (-1) ** (k.n - 3) * total
