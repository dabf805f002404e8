import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ewlsim import optimize
from ewlsim.analysis import perfect_recall_control, prop3_params
from ewlsim.decision import MixedStrategy, PureStrategy, behavioral_gap, outcome_of
from ewlsim.ewl import payoff_one_param, payoff_three_param_fn
from ewlsim.optimize import (GRID_1D, GRID_BUDGET, TWO_PI, _top_indices, closed_grid, maximize_1d,
                             maximize_3d, maximize_box, wrap_phase)

# analytic optimum of the n=3, lam=20 classical payoff: exit probability 4/19
THETA_STAR_N3 = 2.0 * math.acos(math.sqrt(4.0 / 19.0))
VALUE_N3 = 16875.0 / 6859.0


def test_1d_recovers_driver_optimum():
    res = maximize_1d(lambda t: payoff_one_param(1, 4.0, t), 0.0, math.pi, tol=1e-10)
    assert res.value == pytest.approx(4.0 / 3.0, abs=1e-6)
    p = math.cos(res.argmax[0] / 2.0) ** 2
    assert p == pytest.approx(1.0 / 3.0, abs=1e-6)


def test_1d_recovers_n3_optimum():
    res = maximize_1d(lambda t: payoff_one_param(3, 20.0, t), 0.0, math.pi, tol=1e-10)
    assert res.value == pytest.approx(VALUE_N3, abs=1e-6)
    assert res.argmax[0] == pytest.approx(THETA_STAR_N3, abs=1e-5)
    assert res.argmax[0] / math.pi == pytest.approx(0.696, abs=1e-3)


def test_1d_constant_function():
    res = maximize_1d(lambda t: 2.5, 0.0, 1.0)
    assert res.value == 2.5
    assert 0.0 <= res.argmax[0] <= 1.0


def test_1d_invalid_interval():
    with pytest.raises(ValueError):
        maximize_1d(lambda t: t, 1.0, 1.0)
    with pytest.raises(ValueError):
        maximize_1d(lambda t: t, 0.0, 1.0, tol=0.0)


def test_1d_value_never_below_grid_best():
    def jagged(t):
        return np.sin(37.0 * t) + 0.3 * np.cos(11.0 * t)

    res = maximize_1d(jagged, 0.0, math.pi)
    grid = np.arange(GRID_1D) * (math.pi / (GRID_1D - 1))  # the points maximize_1d scores
    assert res.value >= jagged(grid).max()


def test_1d_scores_its_grid_in_one_call():
    calls = []

    def f(t):
        calls.append(t)
        return payoff_one_param(2, 5.0, t)

    res = maximize_1d(f, 0.0, math.pi, tol=1e-10)
    grid, steps = calls[0], calls[1:]
    assert isinstance(grid, np.ndarray) and grid.shape == (257,)
    assert all(type(t) is float for t in steps)
    assert res.evaluations == len(grid) + len(steps)


@pytest.mark.parametrize("hi", [math.pi, TWO_PI])
def test_closed_grids_end_exactly_at_hi_and_never_decrease(hi):
    # i hi/(n - 1) rounds one ulp past hi at i = n - 1 for some n, 14 among them
    overshoots = [n for n in range(2, 1001) if (n - 1) * hi / (n - 1) > hi]
    assert overshoots
    for n in range(2, 1001):
        grid = closed_grid(0.0, hi, n)
        assert grid.shape == (n,) and grid[0] == 0.0 and grid[-1] == hi
        assert (np.diff(grid) >= 0.0).all()
        # every other point is the formula's, bit for bit
        assert np.array_equal(grid[:-1], np.arange(n - 1) * hi / (n - 1))


# an interval on which lo + 256 ((hi - lo)/256) rounds one ulp past hi
_OVERSHOT = (-2.1676199894367754, 7.805487040095848)


def test_1d_argmax_of_an_increasing_function_is_hi_itself():
    lo, hi = _OVERSHOT
    assert lo + (GRID_1D - 1) * ((hi - lo) / (GRID_1D - 1)) > hi
    res = maximize_1d(lambda x: x, lo, hi)
    assert res.argmax == (hi,) and res.value == hi


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_1d_argmax_stays_in_its_interval(seed):
    # on about 1 in 40 of these intervals lo + 256 ((hi - lo)/256) rounds past hi
    for lo, hi in np.sort(np.random.default_rng(seed).uniform(-10.0, 10.0, (20, 2))).tolist():
        assert maximize_1d(lambda x: x, lo, hi).argmax == (hi,)
        assert maximize_1d(lambda x: -x, lo, hi).argmax == (lo,)


@pytest.mark.parametrize("grid", [14, 27, 48, 53])
@pytest.mark.parametrize("lam", [-5.0, 0.5])
def test_3d_argmax_lies_in_the_box_on_grids_whose_formula_overshoots(grid, lam):
    assert (grid - 1) * math.pi / (grid - 1) > math.pi
    for n in (1, 2, 3):
        theta, alpha, beta = maximize_3d(payoff_three_param_fn(n, lam), grid, 3).argmax
        assert 0.0 <= theta <= math.pi
        assert 0.0 <= alpha < TWO_PI and 0.0 <= beta < TWO_PI


def test_3d_probes_phases_past_the_box_and_reports_them_wrapped():
    # the maximum sits at the phases' seam 0 = 2pi, so the line searches probe
    # both sides of it with phases the objective is trusted to repeat on
    probed = []

    def f(theta, alpha, beta):
        probed.extend(np.ravel(alpha).tolist() + np.ravel(beta).tolist())
        return np.cos(alpha) + np.cos(beta) - (theta - 1.0) ** 2

    res = maximize_3d(f, grid_per_dim=9, starts=2, tol=1e-10)
    assert min(probed) < 0.0
    assert res.value == pytest.approx(2.0, abs=1e-12)
    theta, alpha, beta = res.argmax
    assert 0.0 <= theta <= math.pi and theta == pytest.approx(1.0, abs=1e-6)
    for phase in (alpha, beta):
        assert 0.0 <= phase < TWO_PI
        assert min(phase, TWO_PI - phase) == pytest.approx(0.0, abs=1e-6)


@pytest.mark.parametrize("lam, grid", [(50.0, 17), (3.0, 33)])
def test_3d_probes_theta_only_inside_its_bounds(lam, grid):
    # a pattern step's reach puts one coordinate on its bound only up to
    # rounding: unclamped, both runs probed theta = -2.220446049250313e-16
    payoff = payoff_three_param_fn(1, lam)
    probed, kinds = [], set()

    def f(theta, alpha, beta):  # hides payoff.line, so every probe passes here
        probed.extend(np.ravel(theta).tolist())
        kinds.add(type(theta))
        return payoff(theta, alpha, beta)

    res = maximize_3d(f, grid_per_dim=grid, starts=3, tol=1e-9)
    assert 0.0 <= min(probed) and max(probed) <= math.pi
    assert kinds == {float, np.ndarray}  # float probes keep the payoff's math path
    assert payoff(*res.argmax) == res.value


@pytest.mark.parametrize("f", [lambda t, a, b: 1.5, lambda t, a, b: np.cos(a) + np.cos(b)],
                         ids=["constant", "theta_free"])
def test_3d_broadcasts_objectives_that_omit_a_coordinate(f):
    # a result that is a scalar, or that lacks the theta axis, stands for the grid
    res = maximize_3d(f, grid_per_dim=9, starts=2)
    assert res.value == f(0.0, 0.0, 0.0)
    assert res.evaluations > 9 ** 3


def test_3d_recovers_example_optimum():
    res = maximize_3d(payoff_three_param_fn(3, 20.0), grid_per_dim=17, starts=8, tol=1e-9)
    assert res.value == pytest.approx(5.0, abs=1e-6)


@pytest.mark.parametrize("lam", [4.0, 1.5])
def test_3d_recovers_driver_cap(lam):
    res = maximize_3d(payoff_three_param_fn(1, lam), grid_per_dim=17, starts=8, tol=1e-9)
    assert res.value == pytest.approx(max(1.0, lam / 2.0), abs=1e-6)


def test_3d_deterministic_bit_identical():
    f = payoff_three_param_fn(2, 7.0)
    r1 = maximize_3d(f, grid_per_dim=9, starts=4, tol=1e-8)
    r2 = maximize_3d(f, grid_per_dim=9, starts=4, tol=1e-8)
    assert r1 == r2


def test_3d_evaluation_counts_are_pinned():
    assert maximize_3d(payoff_three_param_fn(3, 20.0)).evaluations == 45291
    res = maximize_3d(payoff_three_param_fn(1, 10.0), grid_per_dim=17, starts=6, tol=1e-9)
    assert res.evaluations == 10967
    assert maximize_3d(payoff_three_param_fn(6, 100.0)).evaluations == 47026


def test_3d_ridge_search_stays_within_its_budget():
    # the payoff's ridge alpha - 6 beta = const: coordinate steps alone crawl
    # along it for all MAX_CYCLES cycles from five of the eight starts, 131,117
    # points in all
    assert maximize_3d(payoff_three_param_fn(6, 100.0)).evaluations <= 65_000


@pytest.mark.parametrize("delta", [1.1, 1.5, 3.0])
@pytest.mark.parametrize("n", range(2, 15))
def test_3d_reaches_prop3_point_and_reports_its_argmax_value(n, delta):
    theta, alpha, beta, lam0 = prop3_params(n)
    f = payoff_three_param_fn(n, delta * lam0)
    res = maximize_3d(f)
    assert res.value == f(*res.argmax)
    known = f(theta, alpha, beta)
    assert res.value >= known - 1e-9 * abs(known)
    if delta == 1.5 and n in (6, 8, 9, 11):
        # ridges on which coordinate steps alone stall below the known point
        assert res.value >= known


REPRODUCE_SETTINGS = {"grid_per_dim": 17, "starts": 6, "tol": 1e-9}


# the benchmark's optimization cases and the optima the scalar-loop search found
@pytest.mark.parametrize("n,lam,settings,value", [
    (1, 3.0, REPRODUCE_SETTINGS, 1.4999999999999998),
    (1, 4.0, REPRODUCE_SETTINGS, 2.0),
    (1, 10.0, REPRODUCE_SETTINGS, 5.0),
    (3, 20.0, {}, 4.999999999999984),
    (6, 100.0, {}, 6.017416251515939),
])
def test_3d_optima_are_pinned(n, lam, settings, value):
    assert abs(maximize_3d(payoff_three_param_fn(n, lam), **settings).value - value) <= 1e-12


# the benchmark's optimization cases and the CI's `optimize` cases: the
# results of the search that refined each start on its own, bit for bit
@pytest.mark.parametrize("n,lam,settings,value,argmax", [
    (1, 3.0, REPRODUCE_SETTINGS, 1.5000000000000002,
     (1.5707963149364823, 1.7095027491360006, 4.065697218080357)),
    (1, 4.0, REPRODUCE_SETTINGS, 2.0000000000000004,
     (1.5707963247572496, 4.666185432134645, 0.7391946154236599)),
    (1, 10.0, REPRODUCE_SETTINGS, 5.000000000000001,
     (1.5707963249285413, 4.666188970253458, 0.7391981546114915)),
    (3, 20.0, {}, 5.0, (1.5707963182904605, 5.694136687022979, 6.086835767616304)),
    (6, 100.0, {}, 6.0174162515159395, (2.391464829858663, 2.692793708628017, 3.5903916039111845)),
    (6, 205885.75, {}, 11665.8103189345,
     (2.3661467151486164, 1.1646197098286497, 2.288496687372624)),
    (6, -1e300, {}, 1.0, (math.pi, 0.0, 0.0)),
    (2, 5.0, {"grid_per_dim": 9, "tol": 1e-300}, 1.294331053951818,
     (1.5707963341039033, 1.786655242138807, 5.451846668141526)),
    (5, 50.0, {"grid_per_dim": 21, "starts": 12}, 3.928791917816621,
     (0.890859559278794, 4.504759691111563, 2.1345879920127993)),
])
def test_3d_results_are_pinned_bit_for_bit(n, lam, settings, value, argmax):
    res = maximize_3d(payoff_three_param_fn(n, lam), **settings)
    assert (res.value, res.argmax) == (value, argmax)


@pytest.mark.parametrize("n,lam", [(1, 4.0), (2, 7.0), (3, 20.0), (5, 3.0)])
def test_3d_line_and_slice_searches_agree(n, lam):
    # a wrapper hides f.line, so maximize_box searches slices of the full call
    f = payoff_three_param_fn(n, lam)
    assert maximize_3d(f, grid_per_dim=9, starts=4) == maximize_3d(lambda *a: f(*a),
                                                                   grid_per_dim=9, starts=4)


def test_wrap_phase_reduces_floats_and_arrays_alike():
    phases = [0.0, 1.0, math.nextafter(TWO_PI, 0.0), TWO_PI, TWO_PI + 1.0, -1.0, -1e-300, 1e300]
    wrapped = [wrap_phase(x) for x in phases]
    assert all(type(w) is float and 0.0 <= w < TWO_PI for w in wrapped)
    assert wrapped[:4] == [0.0, 1.0, math.nextafter(TWO_PI, 0.0), 0.0]
    assert wrapped[6] == 0.0  # -1e-300 % 2pi rounds to 2pi
    assert wrap_phase(np.array(phases)).tolist() == wrapped


def test_3d_beats_its_own_coarse_grid():
    f = payoff_three_param_fn(2, 7.0)
    res = maximize_3d(f, grid_per_dim=9, starts=4, tol=1e-8)
    two_pi = 2.0 * math.pi
    exhaustive = max(
        f(i * math.pi / 8, j * two_pi / 9, k * two_pi / 9)
        for i in range(9) for j in range(9) for k in range(9))
    assert res.value >= exhaustive
    assert 0.0 <= res.argmax[0] <= math.pi
    assert 0.0 <= res.argmax[1] < two_pi
    assert 0.0 <= res.argmax[2] < two_pi


def test_3d_invalid_configuration():
    f = payoff_three_param_fn(1, 4.0)
    with pytest.raises(ValueError):
        maximize_3d(f, grid_per_dim=1)
    with pytest.raises(ValueError):
        maximize_3d(f, starts=0)
    with pytest.raises(ValueError):
        maximize_3d(f, tol=-1.0)


def test_3d_refuses_grids_over_budget():
    def refused(*args):
        raise AssertionError("an oversized scan was evaluated")

    assert 100 ** 3 <= GRID_BUDGET < 101 ** 3
    with pytest.raises(ValueError, match="GRID_BUDGET"):
        maximize_3d(refused, grid_per_dim=101)


def test_a_box_without_axes_is_refused():
    with pytest.raises(ValueError, match="at least one axis"):
        maximize_box(lambda: 1.0, (), 2, 1, 1e-8)


@pytest.mark.parametrize("tol", [math.nan, math.inf])
def test_maximizers_refuse_tolerances_that_are_not_finite(tol):
    f = payoff_three_param_fn(1, 4.0)
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        maximize_1d(lambda t: f(t, 0.0, 0.0), 0.0, math.pi, tol=tol)
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        maximize_3d(f, tol=tol)


def test_golden_search_stops_at_float_resolution():
    calls = 0

    def payoff(t):
        nonlocal calls
        calls += 1
        if calls > 10_000:
            raise AssertionError("the golden-section search did not stop")
        return payoff_one_param(2, 5.0, t)

    for tol in (1e-16, 1e-300):
        calls = 0
        res = maximize_1d(payoff, 0.0, math.pi, tol=tol)
        assert res.value == pytest.approx(125.0 / 108.0, abs=1e-15)


# at 5e-324, the least positive float, tol / 4 is 0: the steps from x = 0
# round away to nothing, and only that stop ends the search
@pytest.mark.parametrize("tol", [1e-300, 5e-324])
@pytest.mark.parametrize("f, lo, hi, argmax, value", [
    (lambda t: -(t * t), 0.0, 1.0, 0.0, 0.0),  # the maximum at an end of the interval
    (lambda t: -abs(t), -1.0, 1.0, 0.0, 0.0),  # a kink at 0, where Brent's tol1 is tol / 4
    (lambda t: 2.5 + 0.0 * t, 0.0, 1.0, None, 2.5),
], ids=["end", "kink", "constant"])
def test_brent_search_stops_at_float_resolution(f, lo, hi, argmax, value, tol):
    calls = 0

    def counted(t):
        nonlocal calls
        if type(t) is float:
            calls += 1
            if calls > 2_000:
                raise AssertionError("the line search did not stop")
        return f(t)

    res = maximize_1d(counted, lo, hi, tol=tol)
    assert res.value == value and res.evaluations == GRID_1D + calls
    if argmax is not None:
        assert abs(res.argmax[0] - argmax) <= 1e-300


@pytest.mark.parametrize("n, lam", [(3, 20.0), (6, 100.0)])
def test_line_searches_take_about_ten_float_calls(n, lam):
    # each line search is one row of a scan that scores every live start's
    # line, and its Brent steps' float calls (the seeds' and cycles' own float
    # calls ride along); golden section took 38
    f = payoff_three_param_fn(n, lam)
    calls = {"rows": 0, "float": 0}

    def counted(*args):
        shape = np.broadcast_shapes(*map(np.shape, args))
        if not shape:
            calls["float"] += 1
        elif len(shape) < 3:  # the seed grid is the one 3-D call
            calls["rows"] += shape[0] if len(shape) == 2 else 1
        return f(*args)

    maximize_3d(counted)
    assert calls["float"] / calls["rows"] <= 12.0


def test_a_start_that_reaches_another_starts_state_stops(monkeypatch):
    # the default 33^3 scan at n = 3, lam = 20 seeds these two grid points, which
    # differ only in theta; the theta samples are the same for every start, so
    # both reach one point in their first cycle, and one (x, value,
    # displacement) state at the end of their second
    f = payoff_three_param_fn(3, 20.0)
    grid = 33 ** 3
    seeds = [int(np.ravel_multi_index(i, (33, 33, 33))) for i in ((16, 1, 28), (17, 1, 28))]

    def run(flats):
        monkeypatch.setattr(optimize, "_seed_indices", lambda f, grids, k: flats)
        return maximize_3d(f, starts=len(flats))

    first, second, both = run(seeds[:1]), run(seeds[1:]), run(seeds)
    assert (both.argmax, both.value) == (first.argmax, first.value) == (second.argmax, second.value)
    assert both.evaluations - grid < (first.evaluations - grid) + (second.evaluations - grid)


def test_starts_whose_states_differ_in_the_last_bit_do_not_merge():
    # the value ignores coordinate 0, so no line step moves it and each start
    # keeps its seed's: 0 and the least float above it
    tiny = math.nextafter(0.0, 1.0)
    axes = ((2.0 * tiny, False), (TWO_PI, True))

    def f(p, q):
        return np.cos(q - 1.0)

    one, two = (maximize_box(f, axes, 3, starts, 1e-10) for starts in (1, 2))
    assert two.value == one.value and two.argmax == one.argmax and one.argmax[0] == 0.0
    assert two.evaluations - 3 ** 2 == 2 * (one.evaluations - 3 ** 2)


_SEED_CASES = {
    "ties": np.array([1.0, 3.0, 3.0, 2.0, 3.0, 1.0, 2.0, 2.0, 0.0]),
    "nans": np.array([np.nan, 1.0, np.nan, 4.0, 4.0, -np.inf, 0.0, np.nan, 4.0]),
    "mostly_nan": np.array([np.nan, 2.0, np.nan, np.nan, 2.0, np.nan]),
    "signed_zeros": np.array([0.0, -0.0, 1.0, -0.0, 0.0, -1.0, 0.0]),
    "constant": np.full(40, 1.5),
    "random_ties": np.random.default_rng(3).integers(0, 6, size=500).astype(float),
}


# each case also laid out as a mesh of more than one axis
_SEED_SHAPES = {"ties": (3, 3), "nans": (3, 3), "mostly_nan": (2, 3), "signed_zeros": (7,),
                "constant": (2, 4, 5), "random_ties": (5, 10, 10)}


def _seed_ks(size):
    return sorted({1, 2, 3, 5, 8, size - 1, size, size + 4})


def _assert_streamed_seeds_match(monkeypatch, f, shape, expected):
    """_seed_indices on the mesh of index grids of shape, in blocks of every
    size from one point to the whole mesh, against expected(k); every point is
    scored once, in blocks of at most the chunk size."""
    grids = [np.arange(n, dtype=float) for n in shape]
    blocks = []

    def recorded(*block):
        blocks.append(math.prod(np.broadcast_shapes(*map(np.shape, block))))
        return f(*block)

    for chunk in range(1, math.prod(shape) + 1):
        monkeypatch.setattr(optimize, "_SEED_CHUNK", chunk)
        for k in _seed_ks(math.prod(shape)):
            blocks.clear()
            assert optimize._seed_indices(recorded, grids, k) == expected(k), (chunk, k)
            assert max(blocks) <= chunk and sum(blocks) == math.prod(shape), (chunk, k)


@pytest.mark.parametrize("name", sorted(_SEED_CASES))
def test_seed_selection_equals_the_full_stable_sort(name, monkeypatch):
    values = _SEED_CASES[name]
    full = np.argsort(-values, kind="stable").tolist()
    for k in _seed_ks(values.size):
        assert _top_indices(values, k) == full[:k], k
    # the scan in blocks picks what whole-array selection picks, wherever the
    # block boundaries fall among ties, NaNs and signed zeros
    for shape in {values.shape, _SEED_SHAPES[name]}:
        table = values.reshape(shape)
        _assert_streamed_seeds_match(
            monkeypatch, lambda *idx: table[tuple(i.astype(int) for i in idx)], shape,
            lambda k: _top_indices(values, k))


@pytest.mark.parametrize("f", [lambda *x: 1.5, lambda *x: np.floor(x[-1] / 2)],
                         ids=["scalar", "last_axis_only"])
def test_seed_selection_broadcasts_a_smaller_result(f, monkeypatch):
    # a result that is a scalar, or lacks axes, stands for every point it
    # broadcasts to, in each block as in the whole mesh
    shape = (3, 2, 4)
    whole = np.broadcast_to(f(*np.ix_(*(np.arange(n, dtype=float) for n in shape))), shape).ravel()
    _assert_streamed_seeds_match(monkeypatch, f, shape, lambda k: _top_indices(whole, k))


def test_seed_scans_stream_in_bounded_memory():
    # scored in one array call, the grid-100 scan's temporaries peaked at 45.9
    # MiB and the three-set gap's at 22.9 MiB; the search's result is unchanged
    f = payoff_three_param_fn(3, 20.0)
    prob = perfect_recall_control()
    target = outcome_of(prob, MixedStrategy({PureStrategy((0, 0, 0)): 0.5,
                                             PureStrategy((1, 1, 1)): 0.5}))
    tracemalloc.start()
    try:
        res = maximize_3d(f, grid_per_dim=100)
        grid_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        gap = behavioral_gap(prob, target)
        gap_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert grid_peak <= 2 * 2**20 and gap_peak <= 2 * 2**20, (grid_peak, gap_peak)
    assert res.value == float.fromhex("0x1.4p+2") and res.evaluations == 1_013_812
    assert res.argmax == tuple(map(float.fromhex, ("0x1.921fb5503367fp+0", "0x1.c463abebca092p+0",
                                                   "0x1.2d97c7dc98a1cp-1")))
    assert gap == 0.0
