import math

import numpy as np
import pytest

from ewlsim.ewl import payoff_one_param, payoff_three_param_fn
from ewlsim.optimize import GRID_BUDGET, TWO_PI, maximize_1d, maximize_3d, wrap_phase

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
    assert res.value >= res.grid_best


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


@pytest.mark.parametrize("f", [lambda t, a, b: 1.5, lambda t, a, b: np.cos(a) + np.cos(b)],
                         ids=["constant", "theta_free"])
def test_3d_broadcasts_objectives_that_omit_a_coordinate(f):
    # a result that is a scalar, or that lacks the theta axis, stands for the grid
    res = maximize_3d(f, grid_per_dim=9, starts=2)
    assert res.value == res.grid_best == f(0.0, 0.0, 0.0)
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
    assert maximize_3d(payoff_three_param_fn(3, 20.0)).evaluations == 67772
    res = maximize_3d(payoff_three_param_fn(1, 10.0), grid_per_dim=17, starts=6, tol=1e-9)
    assert res.evaluations == 12371
    assert maximize_3d(payoff_three_param_fn(6, 100.0)).evaluations == 131117


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
    assert res.value >= res.grid_best == pytest.approx(exhaustive, abs=0)
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
