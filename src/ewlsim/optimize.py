"""Deterministic bounded maximizers for payoff surfaces and distances.

A 1D maximizer over an interval, and a maximizer over a box of intervals and
periodic phase axes.  The 3D maximizer over the gate-parameter box
[0, pi] x [0, 2pi) x [0, 2pi) and decision.behavioral_gap both run on the box
maximizer.  No randomness anywhere: identical inputs give bit-identical
results.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

TWO_PI = 2.0 * math.pi
_CGOLD = (3.0 - math.sqrt(5.0)) / 2.0  # golden-section step, 1 - 1/phi
_EPS = sys.float_info.epsilon

GRID_1D = 257
LINE_SAMPLES = 65
_SAMPLE_INDEX = np.arange(LINE_SAMPLES)
MAX_CYCLES = 60
# a cycle of maximize_box that moves the point within this cosine of the
# previous cycle's move is followed by a line search along its move
PATTERN_COSINE = 0.9
# most points one grid scan or sweep scores: maximize_box's seed grid
# (maximize_3d, behavioral_gap), `landscape`'s rows, the samples of `verify
# prop1` and `verify formulas`, and the pure strategies that
# DecisionProblem.pure_strategies (so mixed_from_behavioral) enumerates.  The
# seed grid is scored in blocks of _SEED_CHUNK points, so there the budget
# bounds work, not memory
GRID_BUDGET = 1_000_000
# most grid points one call of f scores in maximize_box's seed scan: its
# float64 arrays stay at 96 KiB, small enough for a core's cache and below the
# 128 KiB from which glibc's malloc maps fresh pages for each array, and a
# 100 x 100 plane (the grid-100 scan's) fits in one block
_SEED_CHUNK = 12_288


@dataclass(frozen=True)
class OptResult:
    argmax: tuple[float, ...]
    value: float
    evaluations: int


def _brent_max(f, a: float, b: float, x: float, fx: float,
               tol: float) -> tuple[float, float, int]:
    """Brent's method (Algorithms for Minimization without Derivatives, 1973,
    ch. 5) for the maximum of f on [a, b], from x in [a, b] with fx = f(x):
    golden-section steps, and parabolic steps through the three best points
    where they fall inside the bracket and shrink.  Stops when x lies within
    2 tol1 of both ends, tol1 = tol/4 + eps|x|, so at bracket width tol, or
    when float resolution rounds a step away: (argmax, value >= fx, points
    evaluated)."""
    v = w = x
    fv = fw = fx
    d = e = 0.0  # the last step, and the one before it
    evaluations = 0
    tol4 = 0.25 * tol
    while True:
        tol1 = tol4 + _EPS * abs(x)
        tol2 = 2.0 * tol1
        if x - a <= tol2 and b - x <= tol2:
            break
        m = 0.5 * (a + b)
        golden = True
        if abs(e) > tol1:
            # the vertex x + p/q of the parabola through (v, fv), (w, fw), (x, fx)
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            else:
                q = -q
            if abs(p) < 0.5 * q * abs(e) and q * (a - x) < p < q * (b - x):
                e, d = d, p / q
                golden = False
                if x + d - a < tol2 or b - (x + d) < tol2:
                    d = math.copysign(tol1, m - x)
        if golden:
            e = (a - x) if x >= m else (b - x)
            d = _CGOLD * e
        u = x + (d if abs(d) >= tol1 else math.copysign(tol1, d))
        if u == x:
            break
        fu = f(u)
        evaluations += 1
        if fu >= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu >= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu >= fv or v == x or v == w:
                v, fv = u, fu
    return x, fx, evaluations


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")


def _values_on(points_shape: tuple[int, ...], values):
    """f's values at an array of points, in the points' shape: a smaller result
    (a scalar, or one that lacks an axis) stands for every point it broadcasts to."""
    if np.size(values) < math.prod(points_shape):
        return np.broadcast_to(values, points_shape)
    return np.reshape(values, points_shape)  # a float too, where there is one point


def closed_grid(lo: float, hi: float, n: int) -> np.ndarray:
    """n >= 2 points spanning [lo, hi]: lo + i (hi - lo)/(n - 1), the last one
    hi itself, where the formula may round one ulp past it."""
    points = lo + np.arange(n) * (hi - lo) / (n - 1)
    points[-1] = hi
    return points


def _brent_on_scan(f, points: np.ndarray, values: np.ndarray, tol: float,
                   period_step: float | None) -> tuple[float, float, int]:
    """Brent's method from the best of the samples at points, whose values f
    already gave: (argmax, value >= the samples' max, points evaluated, the
    samples included).  Its bracket ends at the best sample's neighbours, or on
    a periodic line period_step either side of it, where f must repeat itself."""
    best_i = int(values.argmax())
    center = float(points[best_i])
    if period_step is not None:
        a, b = center - period_step, center + period_step
    else:
        a, b = float(points[max(best_i - 1, 0)]), float(points[min(best_i + 1, values.size - 1)])
    x, v, evaluations = _brent_max(f, a, b, center, float(values[best_i]), tol)
    return x, v, values.size + evaluations


def _grid_then_brent(f, lo: float, hi: float, n: int, tol: float) -> tuple[float, float, int]:
    """Best of closed_grid(lo, hi, n), scored in one array call of f, then _brent_on_scan."""
    points = closed_grid(lo, hi, n)
    return _brent_on_scan(f, points, _values_on(points.shape, f(points)), tol, None)


def maximize_1d(f: Callable, lo: float, hi: float, tol: float = 1e-8) -> OptResult:
    """Maximize f on [lo, hi]: best of a 257-point grid, scored in one array
    call of f (maximize_box's objective contract), then Brent's method in float
    calls.  Accurate to tol in the argument for functions unimodal near their
    maximum; the returned value never falls below the grid maximum."""
    if not (math.isfinite(lo) and math.isfinite(hi)) or hi <= lo:
        raise ValueError(f"invalid interval [{lo}, {hi}]")
    _check_tol(tol)
    x, v, evaluations = _grid_then_brent(f, lo, hi, GRID_1D, tol)
    return OptResult((x,), v, evaluations)


def wrap_phase(x):
    """x reduced to the phase interval [0, 2pi): a float, or an array elementwise."""
    w = x % TWO_PI
    if isinstance(w, np.ndarray):
        return np.where(w >= TWO_PI, 0.0, w)
    return 0.0 if w >= TWO_PI else w


def _slice(f, x: list[float], coord: int) -> Callable:
    """f along one coordinate of x."""
    head, tail = x[:coord], x[coord + 1:]
    return lambda t: f(*head, t, *tail)


def _scan_lines(f, xs: list[list[float]], coord: int, hi: float,
                periodic: bool) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """The LINE_SAMPLES samples of coordinate coord's line through each point of
    xs, scored in one call of f: (points, values, steps), row s of values f at
    row s of points, lo + i step.  A line spans [0, hi] from lo = 0, or a
    phase's period from the point's phase lo.  f gets the samples as a
    (len(xs), 65) array and each held coordinate as a (len(xs), 1) column."""
    los = [x[coord] for x in xs] if periodic else [0.0] * len(xs)
    steps = [((lo + hi) - lo) / (LINE_SAMPLES if periodic else LINE_SAMPLES - 1) for lo in los]
    columns = list(np.array(xs).T[:, :, None])
    columns[coord] = points = np.array(los)[:, None] + np.multiply.outer(steps, _SAMPLE_INDEX)
    values = _values_on((len(xs), LINE_SAMPLES), f(*columns))
    return points, values, steps


def _displacement(start: list[float], x: list[float],
                  axes: tuple[tuple[float, bool], ...]) -> list[float]:
    """x - start per axis; on a phase axis the signed shortest difference."""
    return [math.remainder(b - a, TWO_PI) if periodic else b - a
            for a, b, (_, periodic) in zip(start, x, axes)]


def _cosine(u: list[float], v: list[float]) -> float:
    norms = math.hypot(*u) * math.hypot(*v)
    return sum(a * b for a, b in zip(u, v)) / norms if norms > 0.0 else 0.0


def _clamp(v, hi: float):
    """v clamped into [0, hi]: a float stays a float, an array is clipped elementwise."""
    return np.clip(v, 0.0, hi) if isinstance(v, np.ndarray) else min(max(v, 0.0), hi)


def _pattern_max(f, x: list[float], d: list[float], axes: tuple[tuple[float, bool], ...],
                 tol: float) -> tuple[list[float], float, int]:
    """Argmax of f along x + t d over t in [0, T], its value, and the points
    evaluated.  T keeps each non-periodic coordinate in [0, hi] and moves no
    phase by more than pi; a reach of 0 evaluates nothing.  x + T d may round
    past hi or below 0, so every probe clamps its bounded coordinates into
    [0, hi]: f sees only points of the box, and the argmax is the point probed."""
    reach = math.inf
    for xi, di, (hi, periodic) in zip(x, d, axes):
        if di != 0.0:
            room = math.pi if periodic else (hi - xi if di > 0.0 else xi)
            reach = min(reach, room / abs(di))
    if not reach > 0.0:
        return x, -math.inf, 0

    def along(t):  # a float t gives floats, an array t arrays
        return [xi + t * di if periodic else _clamp(xi + t * di, hi)
                for xi, di, (hi, periodic) in zip(x, d, axes)]

    t, value, evaluations = _grid_then_brent(lambda t: f(*along(t)), 0.0, reach, LINE_SAMPLES,
                                             tol / max(map(abs, d)))
    point = [wrap_phase(xi) if periodic else xi for xi, (_, periodic) in zip(along(t), axes)]
    return point, value, evaluations


def _top_indices(values: np.ndarray, k: int) -> list[int]:
    """The first k of np.argsort(-values, kind="stable"): the k largest values,
    the lowest index first among equal values and NaN last.  Only the values at
    or above the k-th largest are sorted; when fewer than k values are not NaN,
    all of them are."""
    keys = -values
    if k < keys.size:
        kth = np.partition(keys, k - 1)[k - 1]  # NaN sorts last
        if not math.isnan(kth):
            tied = np.flatnonzero(keys <= kth)  # in index order
            return tied[np.argsort(keys[tied], kind="stable")[:k]].tolist()
    return np.argsort(keys, kind="stable")[:k].tolist()


def _seed_indices(f, grids: list[np.ndarray], starts: int) -> list[int]:
    """The flat indices of the best `starts` points of the open mesh
    np.ix_(*grids) under f, as _top_indices of all the mesh's values gives them.

    f scores the mesh in blocks of at most _SEED_CHUNK points, one array call
    each.  A block takes every point of the leading axes, a run of the next
    axis and one index of each axis after that, so a term of f over trailing
    axes alone (the phase terms of the three-parameter payoff) is scored once
    per point, not once per block.  Each block keeps its own best `starts`.  A
    point among the mesh's best `starts` is among its block's, so _top_indices
    over these candidates, put in flat-index order, picks the mesh's: the
    lowest index first among equal values, NaN last.
    """
    shape = tuple(map(len, grids))
    axis, lead = len(shape) - 1, math.prod(shape[:-1])  # lead: the points of the axes before axis
    while lead > _SEED_CHUNK and axis > 0:
        axis -= 1
        lead //= shape[axis]
    run = max(_SEED_CHUNK // lead, 1)
    stride = math.prod(shape[axis + 1:])
    flats: list[int] = []
    candidate_values = []
    for trail_flat, trail in enumerate(itertools.product(*map(range, shape[axis + 1:]))):
        for lo in range(0, shape[axis], run):
            block = np.ix_(*grids[:axis], grids[axis][lo:lo + run],
                           *(grid[i:i + 1] for grid, i in zip(grids[axis + 1:], trail)))
            width = block[axis].size
            values = _values_on(tuple(map(np.size, block)), f(*block)).ravel()
            top = _top_indices(values, starts)
            for i in top:  # i = o width + j: point o of the leading axes, lo + j of axis
                o, j = divmod(i, width)
                flats.append((o * shape[axis] + lo + j) * stride + trail_flat)
            candidate_values.append(values[top])
    order = np.argsort(flats)
    picks = _top_indices(np.concatenate(candidate_values)[order], starts)
    return np.array(flats)[order][picks].tolist()


def maximize_box(f: Callable, axes: tuple[tuple[float, bool], ...], grid_per_dim: int,
                 starts: int, tol: float) -> OptResult:
    """Maximize f(x_1, ..., x_k) over a box with one (hi, periodic) axis per argument.

    An axis spans [0, hi]; a periodic one is a phase, hi = 2pi, and wraps
    around on [0, 2pi).  Every argmax lies in the box: bounded coordinates in
    [0, hi], phases in [0, 2pi).  A grid_per_dim**k scan of closed_grid axes
    (a phase's without 2pi) seeds `starts` refinements from its best points,
    the lowest flat index first among equal values.
    Each refinement runs cycles of line searches (65 samples, then Brent's
    method on the best one's bracket), one per coordinate in turn; a phase
    line's samples start at the current phase, so a narrow peak holding the
    point is never lost between two samples.
    After a cycle whose displacement d (on a phase axis the signed shortest
    difference) lies within cosine PATTERN_COSINE of the previous cycle's, a
    pattern step searches the line x + t d over t in [0, T], T as far as keeps
    every non-periodic coordinate in [0, hi] and moves no phase by more than
    pi: on a ridge the cycles zig-zag along it, and this step follows it.  No
    step is taken unless it raises the value, a refinement keeps its best
    (value, x) pair, and stops when a cycle raises the value by no more than
    1e-13 relative or after MAX_CYCLES cycles.  So the value reported is f at
    the argmax reported, a float call, and at least f at the best grid point.
    The refinements run in lockstep, and one whose (x, value, d) at the end of
    a cycle equals the state another reached in that cycle stops and adds no
    candidate: its future is the other's.  Results merge by value with the
    lexicographically smallest argmax breaking exact ties.

    The objective contract, shared with maximize_1d: f takes floats, and numpy
    arrays that broadcast together, for which it returns the array of values (a
    scalar result broadcasts); f is periodic on a periodic axis, so a line
    search probes phases off [0, hi) unwrapped and wraps only its argmax.  The
    seed scan is one array call per block of at most _SEED_CHUNK grid points
    (see _seed_indices), so its memory does not grow with the grid.  Each
    coordinate's scan of every live refinement's line is one array call: f
    gets the samples as a (live, 65) array and each held coordinate as a
    (live, 1) column.  Brent's steps are float calls of h, built once per line
    search: f.line(coord, x) when f has that method, which must return f at x
    with coordinate coord set to the float t; otherwise a slice of f.  A
    pattern step is one array call and float calls of a slice of f.  `evaluations`
    counts points, not calls.  Scans over GRID_BUDGET points are refused.
    """
    k = len(axes)
    if k == 0:
        raise ValueError("maximize_box needs at least one axis")
    if grid_per_dim < 2:
        raise ValueError("grid_per_dim must be >= 2")
    if grid_per_dim ** k > GRID_BUDGET:
        raise ValueError(f"grid_per_dim={grid_per_dim} gives {grid_per_dim ** k:,} grid points, "
                         f"over the budget of {GRID_BUDGET:,} (GRID_BUDGET)")
    if starts < 1:
        raise ValueError("starts must be >= 1")
    _check_tol(tol)

    grids = [closed_grid(0.0, hi, grid_per_dim + periodic)[:grid_per_dim] for hi, periodic in axes]
    evaluations = grid_per_dim ** k
    top = _seed_indices(f, grids, starts)

    line = getattr(f, "line", None)
    seeds = np.unravel_index(top, (grid_per_dim,) * k)
    xs = np.transpose([grid[i] for grid, i in zip(grids, seeds)]).tolist()
    fxs = [f(*x) for x in xs]  # the value at each refinement's x
    evaluations += len(xs)
    previous = [[0.0] * k for _ in xs]  # each refinement's last cycle's displacement
    candidates: list = [None] * len(xs)
    live = list(range(len(xs)))
    for _ in range(MAX_CYCLES):
        cycle_starts = [(list(xs[s]), fxs[s]) for s in live]
        for coord, (hi, periodic) in enumerate(axes):
            points, scan, steps = _scan_lines(f, [xs[s] for s in live], coord, hi, periodic)
            for s, row_points, row, step in zip(live, points, scan, steps):
                x = xs[s]
                h = line(coord, x) if line is not None else _slice(f, x, coord)
                t, line_value, line_evaluations = _brent_on_scan(h, row_points, row, tol,
                                                                 step if periodic else None)
                evaluations += line_evaluations
                if line_value > fxs[s]:
                    x[coord], fxs[s] = (wrap_phase(t) if periodic else t), line_value
        reached = set()  # the states of this cycle's refinements that go on
        going_on = []
        for s, (start, start_value) in zip(live, cycle_starts):
            x = xs[s]
            d = _displacement(start, x, axes)
            if _cosine(d, previous[s]) > PATTERN_COSINE:
                point, pattern_value, pattern_evaluations = _pattern_max(f, x, d, axes, tol)
                evaluations += pattern_evaluations
                if pattern_value > fxs[s]:
                    xs[s] = x = point
            previous[s] = d
            # the steps' values come from slices at unwrapped phases; the
            # (value, x) pairs kept are f at x itself
            value = fxs[s] = f(*x)
            evaluations += 1
            if value - start_value <= 1e-13 * (1.0 + abs(start_value)):
                if value < start_value:
                    xs[s], fxs[s] = start, start_value
                candidates[s] = (fxs[s], tuple(xs[s]))
            # one in a state another reached this cycle has that one's future:
            # it stops and adds no candidate
            elif (state := (*x, value, *d)) not in reached:
                reached.add(state)
                going_on.append(s)
        live = going_on
        if not live:
            break
    for s in live:  # the refinements MAX_CYCLES cycles did not settle
        candidates[s] = (fxs[s], tuple(xs[s]))
    candidates = [c for c in candidates if c is not None]

    best_value = max(v for v, _ in candidates)
    best_arg = min(arg for v, arg in candidates if v == best_value)
    return OptResult(best_arg, best_value, evaluations)


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
