"""Deterministic bounded maximizers for payoff surfaces and distances.

A 1D maximizer over an interval, and a maximizer over a box of intervals and
periodic phase axes.  The 3D maximizer over the gate-parameter box
[0, pi] x [0, 2pi) x [0, 2pi) and decision.behavioral_gap both run on the box
maximizer.  No randomness anywhere: identical inputs give bit-identical
results.
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
# most points one grid scan or sweep scores: maximize_box's seed grid
# (maximize_3d, behavioral_gap), `landscape`'s rows, and the samples of
# `verify prop1` and `verify formulas`
GRID_BUDGET = 1_000_000


@dataclass(frozen=True)
class OptResult:
    argmax: tuple[float, ...]
    value: float
    evaluations: int
    grid_best: float


def _golden_max(f, a: float, b: float, tol: float) -> tuple[float, float, int]:
    """Golden-section maximization of f on [a, b] down to interval width tol, or
    until float resolution stops a step from narrowing the bracket:
    (argmax, value, points evaluated)."""
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    evaluations = 3  # c, d and the final midpoint
    width = b - a
    while width > tol:
        evaluations += 1
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
    return x, f(x), evaluations


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")


def _grid_then_golden(f, lo: float, hi: float, n: int, tol: float, periodic: bool = False,
                      vectorized: bool = False) -> tuple[float, float, float, int]:
    """Best of n points spanning [lo, hi] ([lo, hi) and wrapped by f if periodic),
    then golden-section on its bracket: (argmax, value >= grid max, grid max,
    points evaluated).

    A vectorized f scores the array of grid points in one call; otherwise f is
    called at each point.
    """
    step = (hi - lo) / (n if periodic else n - 1)
    points = lo + np.arange(n) * step
    values = f(points) if vectorized else [f(x) for x in points.tolist()]
    best_i = int(np.argmax(values))
    grid_best = float(values[best_i])
    center = lo + best_i * step
    if periodic:
        a, b = center - step, center + step
    else:
        a = lo + max(best_i - 1, 0) * step
        b = lo + min(best_i + 1, n - 1) * step
    x, v, evaluations = _golden_max(f, a, b, tol)
    if v < grid_best:
        return center, grid_best, grid_best, n + evaluations
    return x, v, grid_best, n + evaluations


def maximize_1d(f: Callable[[float], float], lo: float, hi: float, tol: float = 1e-8) -> OptResult:
    """Maximize f on [lo, hi]: best of a 257-point grid, then golden-section.

    Accurate to tol in the argument for functions unimodal near their
    maximum; the returned value never falls below the grid maximum.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)) or hi <= lo:
        raise ValueError(f"invalid interval [{lo}, {hi}]")
    _check_tol(tol)
    x, v, grid_best, evaluations = _grid_then_golden(f, lo, hi, GRID_1D, tol)
    return OptResult((x,), v, evaluations, grid_best)


def wrap_phase(x):
    """x reduced to the phase interval [0, 2pi): a float, or an array elementwise."""
    w = x % TWO_PI
    if isinstance(w, np.ndarray):
        return np.where(w >= TWO_PI, 0.0, w)
    return 0.0 if w >= TWO_PI else w


def _slice(f, x: list[float], coord: int, periodic: bool) -> Callable:
    """f along one coordinate of x, with a phase first reduced to [0, 2pi)."""
    head, tail = x[:coord], x[coord + 1:]
    if periodic:
        return lambda t: f(*head, wrap_phase(t), *tail)
    return lambda t: f(*head, t, *tail)


def _line_max(f, x: list[float], coord: int, hi: float, periodic: bool,
              tol: float) -> tuple[float, int]:
    """Argmax of f along one coordinate of x, on [0, hi] or on a phase's [0, 2pi),
    and the number of points evaluated.

    The 1-D function is built once per line: f.line(coord, x) when f has one,
    else a slice of f.
    """
    line = getattr(f, "line", None)
    h = line(coord, x) if line is not None else _slice(f, x, coord, periodic)
    best, _, _, evaluations = _grid_then_golden(h, 0.0, hi, LINE_SAMPLES, tol, periodic,
                                              vectorized=True)
    return (wrap_phase(best) if periodic else best), evaluations


def maximize_box(f: Callable, axes: tuple[tuple[float, bool], ...], grid_per_dim: int,
                 starts: int, tol: float) -> OptResult:
    """Maximize f(x_1, ..., x_k) over a box with one (hi, periodic) axis per argument.

    An axis spans [0, hi]; a periodic one is a phase, hi = 2pi, and wraps
    around on [0, 2pi).  A grid_per_dim**k scan seeds `starts` cyclic
    coordinate-descent refinements (golden-section line searches).  Results
    merge by value with the lexicographically smallest argmax breaking exact
    ties.

    f must take floats, and also numpy arrays that broadcast together, for which
    it returns the array of values at the broadcast points.  The scan is one
    array call.  Each line search builds its 1-D function h once: f.line(coord,
    x) when f has that method, which must return h with h(t) equal to f at x
    with coordinate coord set to t (a phase t reduced to [0, 2pi) first), for
    float and array t; otherwise a slice that calls f.  The line's samples are
    one array call of h and its golden steps float calls of h.  `evaluations`
    counts points, not calls.  Scans over GRID_BUDGET points are refused.
    """
    k = len(axes)
    if grid_per_dim < 2:
        raise ValueError("grid_per_dim must be >= 2")
    if grid_per_dim ** k > GRID_BUDGET:
        raise ValueError(f"grid_per_dim={grid_per_dim} gives {grid_per_dim ** k:,} grid points, "
                         f"over the budget of {GRID_BUDGET:,} (GRID_BUDGET)")
    if starts < 1:
        raise ValueError("starts must be >= 1")
    _check_tol(tol)

    index = np.arange(grid_per_dim)
    grids = [index * hi / (grid_per_dim if periodic else grid_per_dim - 1) for hi, periodic in axes]
    values = f(*np.ix_(*grids)).ravel()
    evaluations = grid_per_dim ** k
    # a stable sort keeps the lowest flat index first among equal values
    top = np.argsort(-values, kind="stable")[:starts].tolist()
    grid_best = float(values[top[0]])

    def grid_point(flat: int) -> tuple[float, ...]:
        indices = np.unravel_index(flat, (grid_per_dim,) * k)
        return tuple(float(grid[i]) for grid, i in zip(grids, indices))

    candidates: list[tuple[float, tuple[float, ...]]] = []
    for flat in top:
        x = list(grid_point(flat))
        value = f(*x)
        evaluations += 1
        for _ in range(MAX_CYCLES):
            for coord, (hi, periodic) in enumerate(axes):
                x[coord], line_evaluations = _line_max(f, x, coord, hi, periodic, tol)
                evaluations += line_evaluations
            new_value = f(*x)
            evaluations += 1
            if new_value - value <= 1e-13 * (1.0 + abs(value)):
                value = max(value, new_value)
                break
            value = new_value
        candidates.append((value, tuple(x)))

    best_value = max(v for v, _ in candidates)
    best_arg = min(arg for v, arg in candidates if v == best_value)
    if best_value < grid_best:
        best_value, best_arg = grid_best, grid_point(top[0])
    return OptResult(best_arg, best_value, evaluations, grid_best)


def maximize_3d(
    f: Callable,
    grid_per_dim: int = 33,
    starts: int = 8,
    tol: float = 1e-8,
) -> OptResult:
    """Maximize f(theta, alpha, beta) over [0, pi] x [0, 2pi)^2 with maximize_box:
    the two phase axes alpha and beta wrap around."""
    return maximize_box(f, ((math.pi, False), (TWO_PI, True), (TWO_PI, True)),
                        grid_per_dim, starts, tol)
