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

TWO_PI = 2.0 * math.pi
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

GRID_1D = 257
LINE_SAMPLES = 65
MAX_CYCLES = 60


@dataclass(frozen=True)
class OptResult:
    argmax: tuple[float, ...]
    value: float
    evaluations: int
    grid_best: float


class _Counter:
    __slots__ = ("f", "count")

    def __init__(self, f):
        self.f = f
        self.count = 0

    def __call__(self, *args):
        self.count += 1
        return self.f(*args)


def _golden_max(f, a: float, b: float, tol: float) -> tuple[float, float]:
    """Golden-section maximization of f on [a, b] down to interval width tol."""
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def _grid_then_golden(f, lo: float, hi: float, n: int, tol: float,
                      periodic: bool = False) -> tuple[float, float, float]:
    """Best of n points spanning [lo, hi] ([lo, hi) and wrapped by f if periodic),
    then golden-section on its bracket: (argmax, value >= grid max, grid max)."""
    step = (hi - lo) / (n if periodic else n - 1)
    best_i, grid_best = 0, -math.inf
    for i in range(n):
        v = f(lo + i * step)
        if v > grid_best:
            best_i, grid_best = i, v
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
    if tol <= 0:
        raise ValueError("tol must be positive")
    g = _Counter(f)
    x, v, grid_best = _grid_then_golden(g, lo, hi, GRID_1D, tol)
    return OptResult((x,), v, g.count, grid_best)


def wrap_phase(x: float) -> float:
    """x reduced to the phase interval [0, 2pi)."""
    w = x % TWO_PI
    return 0.0 if w >= TWO_PI else w


def _line_max(g, x: list[float], coord: int, tol: float) -> float:
    """Argmax of g along one coordinate of x: theta on [0, pi], a phase on [0, 2pi)."""
    periodic = coord > 0

    def slice_f(raw):
        probe = list(x)
        probe[coord] = wrap_phase(raw) if periodic else raw
        return g(*probe)

    hi = TWO_PI if periodic else math.pi
    best = _grid_then_golden(slice_f, 0.0, hi, LINE_SAMPLES, tol, periodic)[0]
    return wrap_phase(best) if periodic else best


def maximize_3d(
    f: Callable[[float, float, float], float],
    grid_per_dim: int = 33,
    starts: int = 8,
    tol: float = 1e-8,
) -> OptResult:
    """Maximize f(theta, alpha, beta) over [0, pi] x [0, 2pi)^2.

    A grid_per_dim^3 scan seeds `starts` cyclic coordinate-descent refinements
    (golden-section line searches; alpha and beta wrap around).  Results merge
    by value with the lexicographically smallest argmax breaking exact ties.
    """
    if grid_per_dim < 2:
        raise ValueError("grid_per_dim must be >= 2")
    if starts < 1:
        raise ValueError("starts must be >= 1")
    if tol <= 0:
        raise ValueError("tol must be positive")
    g = _Counter(f)

    thetas = [i * math.pi / (grid_per_dim - 1) for i in range(grid_per_dim)]
    phases = [k * TWO_PI / grid_per_dim for k in range(grid_per_dim)]
    scored: list[tuple[float, int, tuple[float, float, float]]] = []
    flat = 0
    for t in thetas:
        for a in phases:
            for b in phases:
                scored.append((g(t, a, b), flat, (t, a, b)))
                flat += 1
    scored.sort(key=lambda item: (-item[0], item[1]))
    grid_best = scored[0][0]

    candidates: list[tuple[float, tuple[float, float, float]]] = []
    for _, _, start in scored[:starts]:
        x = list(start)
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
        best_value, best_arg = grid_best, scored[0][2]
    return OptResult(best_arg, best_value, g.count, grid_best)
