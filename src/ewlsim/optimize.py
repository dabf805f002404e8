"""Deterministic bounded maximizers for smooth trigonometric payoff surfaces.

Two entry points: a 1D maximizer over an interval, and a 3D maximizer over
the gate-parameter box [0, pi] x [0, 2pi) x [0, 2pi) with the two phase axes
treated as periodic.  No randomness anywhere: identical inputs give
bit-identical results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

TWO_PI = 2.0 * math.pi
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

GRID_1D = 257
LINE_SAMPLES = 65
MAX_CYCLES = 60
# most points one grid^3 scan scores: maximize_3d's seed grid, `landscape`'s rows
GRID_BUDGET = 1_000_000


@dataclass(frozen=True)
class OptResult:
    argmax: tuple[float, ...]
    value: float
    evaluations: int
    grid_best: float


class _Counter:
    """Calls f and counts the points it is evaluated at."""

    __slots__ = ("f", "count")

    def __init__(self, f):
        self.f = f
        self.count = 0

    def __call__(self, *args):
        self.count += 1
        return self.f(*args)

    def many(self, *args) -> np.ndarray:
        """f at every point of the broadcast argument arrays, in one call."""
        self.count += np.broadcast(*args).size
        return self.f(*args)


def _golden_max(f, a: float, b: float, tol: float) -> tuple[float, float]:
    """Golden-section maximization of f on [a, b] down to interval width tol, or
    until float resolution stops a step from narrowing the bracket."""
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    width = b - a
    while width > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
        if b - a >= width:
            break
        width = b - a
    x = 0.5 * (a + b)
    return x, f(x)


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")


def _grid_then_golden(f, lo: float, hi: float, n: int, tol: float, periodic: bool = False,
                      score=None) -> tuple[float, float, float]:
    """Best of n points spanning [lo, hi] ([lo, hi) and wrapped by f if periodic),
    then golden-section on its bracket: (argmax, value >= grid max, grid max).

    ``score`` maps the array of grid points to their values in one call; without
    it f is called at each point.
    """
    step = (hi - lo) / (n if periodic else n - 1)
    points = lo + np.arange(n) * step
    values = score(points) if score is not None else [f(x) for x in points.tolist()]
    best_i = int(np.argmax(values))
    grid_best = float(values[best_i])
    center = lo + best_i * step
    if periodic:
        a, b = center - step, center + step
    else:
        a = lo + max(best_i - 1, 0) * step
        b = lo + min(best_i + 1, n - 1) * step
    x, v = _golden_max(f, a, b, tol)
    if v < grid_best:
        return center, grid_best, grid_best
    return x, v, grid_best


def maximize_1d(f: Callable[[float], float], lo: float, hi: float, tol: float = 1e-8) -> OptResult:
    """Maximize f on [lo, hi]: best of a 257-point grid, then golden-section.

    Accurate to tol in the argument for functions unimodal near their
    maximum; the returned value never falls below the grid maximum.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)) or hi <= lo:
        raise ValueError(f"invalid interval [{lo}, {hi}]")
    _check_tol(tol)
    g = _Counter(f)
    x, v, grid_best = _grid_then_golden(g, lo, hi, GRID_1D, tol)
    return OptResult((x,), v, g.count, grid_best)


def wrap_phase(x: float) -> float:
    """x reduced to the phase interval [0, 2pi)."""
    w = x % TWO_PI
    return 0.0 if w >= TWO_PI else w


def _line_max(g: _Counter, x: list[float], coord: int, tol: float) -> float:
    """Argmax of g along one coordinate of x: theta on [0, pi], a phase on [0, 2pi)."""
    periodic = coord > 0

    def slice_f(raw):
        probe = list(x)
        probe[coord] = wrap_phase(raw) if periodic else raw
        return g(*probe)

    def score(points):  # grid points lie inside [0, hi], so need no wrap
        probe = list(x)
        probe[coord] = points
        return g.many(*probe)

    hi = TWO_PI if periodic else math.pi
    best = _grid_then_golden(slice_f, 0.0, hi, LINE_SAMPLES, tol, periodic, score)[0]
    return wrap_phase(best) if periodic else best


def maximize_3d(
    f: Callable,
    grid_per_dim: int = 33,
    starts: int = 8,
    tol: float = 1e-8,
) -> OptResult:
    """Maximize f(theta, alpha, beta) over [0, pi] x [0, 2pi)^2.

    A grid_per_dim^3 scan seeds `starts` cyclic coordinate-descent refinements
    (golden-section line searches; alpha and beta wrap around).  Results merge
    by value with the lexicographically smallest argmax breaking exact ties.

    f must take floats, and also numpy arrays that broadcast together, for which
    it returns the array of values at the broadcast points: the scan and the
    samples of each line search are one array call each, the golden steps are
    float calls.  `evaluations` counts points, not calls.  Scans over
    GRID_BUDGET points are refused.
    """
    if grid_per_dim < 2:
        raise ValueError("grid_per_dim must be >= 2")
    if grid_per_dim ** 3 > GRID_BUDGET:
        raise ValueError(f"grid_per_dim={grid_per_dim} gives {grid_per_dim ** 3:,} grid points, "
                         f"over the budget of {GRID_BUDGET:,} (GRID_BUDGET)")
    if starts < 1:
        raise ValueError("starts must be >= 1")
    _check_tol(tol)
    g = _Counter(f)

    index = np.arange(grid_per_dim)
    thetas = index * math.pi / (grid_per_dim - 1)
    phases = index * TWO_PI / grid_per_dim
    values = g.many(thetas[:, None, None], phases[None, :, None], phases[None, None, :]).ravel()
    # a stable sort keeps the lowest flat index first among equal values
    top = np.argsort(-values, kind="stable")[:starts].tolist()
    grid_best = float(values[top[0]])

    def grid_point(flat: int) -> tuple[float, float, float]:
        i, rest = divmod(flat, grid_per_dim * grid_per_dim)
        j, k = divmod(rest, grid_per_dim)
        return float(thetas[i]), float(phases[j]), float(phases[k])

    candidates: list[tuple[float, tuple[float, float, float]]] = []
    for flat in top:
        x = list(grid_point(flat))
        value = g(*x)
        for _ in range(MAX_CYCLES):
            for coord in range(3):
                x[coord] = _line_max(g, x, coord, tol)
            new_value = g(*x)
            if new_value - value <= 1e-13 * (1.0 + abs(value)):
                value = max(value, new_value)
                break
            value = new_value
        candidates.append((value, tuple(x)))

    best_value = max(v for v, _ in candidates)
    best_arg = min(arg for v, arg in candidates if v == best_value)
    if best_value < grid_best:
        best_value, best_arg = grid_best, grid_point(top[0])
    return OptResult(best_arg, best_value, g.count, grid_best)
