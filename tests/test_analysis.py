import json
import math
import sys
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ewlsim.analysis import (
    classical_max_closed_form,
    formulas_verify,
    perfect_recall_control,
    prop1_outcome,
    prop1_solve,
    prop1_verify,
    prop2_verify,
    prop3_params,
    prop3_sweep,
    prop3_verify,
    recall_verify,
)
from ewlsim import analysis, decision, ewl
from ewlsim.ewl import payoff_one_param
from ewlsim.optimize import maximize_1d
from oracles import I2, dense_final_state, dense_gate

# frozen from an independent dense-matrix simulation plus the closed-form
# classical maximum (quantum - classical at lam = delta * lambda0)
DOMINANCE_MARGINS = {
    (2, 1.1): 0.770841533188233,
    (2, 1.5): 1.1802158880080937,
    (2, 3.0): 2.6923569940714582,
    (3, 1.1): 7.501730495879331,
    (3, 1.5): 10.303584766618346,
    (3, 3.0): 20.806105638102977,
    (4, 1.1): 1.0173645260899775,
    (4, 1.5): 1.4176197545028089,
    (4, 3.0): 2.9179701761821946,
    (5, 1.1): 56.046302064146175,
    (5, 1.5): 76.44632817634579,
    (5, 3.0): 152.94636407545022,
    (6, 1.1): 1.0675340640955255,
    (6, 1.5): 1.4675361654281005,
    (6, 3.0): 2.967539054716326,
}


# ------------------------------------------------------------------- prop1


def test_prop1_diagonal_half_half():
    sol = prop1_solve(0.5, 0.0, 0.0, 0.5)
    assert sol.alpha == pytest.approx(math.pi / 4, abs=1e-12)
    dist = prop1_outcome(sol)
    assert dist["o00"] == pytest.approx(0.5, abs=1e-12)
    assert dist["o11"] == pytest.approx(0.5, abs=1e-12)


def test_prop1_uniform_mixture():
    sol = prop1_solve(0.25, 0.25, 0.25, 0.25)
    assert sol.theta == pytest.approx(math.pi / 2, abs=1e-12)
    assert sol.alpha == pytest.approx(math.pi / 4, abs=1e-12)
    assert sol.beta == pytest.approx(math.pi / 4, abs=1e-12)


def test_prop1_point_mass():
    sol = prop1_solve(1.0, 0.0, 0.0, 0.0)
    dist = prop1_outcome(sol)
    assert dist["o00"] == pytest.approx(1.0, abs=1e-12)


def test_prop1_antidiagonal():
    sol = prop1_solve(0.0, 0.3, 0.7, 0.0)
    dist = prop1_outcome(sol)
    assert dist["o01"] == pytest.approx(0.3, abs=1e-12)
    assert dist["o10"] == pytest.approx(0.7, abs=1e-12)


def test_prop1_solution_always_acts_on_first_qubit_only():
    # the solved gate on qubit 1 and the identity on qubit 2 reach the mixture
    params = prop1_solve(0.1, 0.2, 0.3, 0.4)
    state = dense_final_state([dense_gate(params.theta, params.alpha, params.beta), I2])
    np.testing.assert_allclose(np.abs(state) ** 2, [0.1, 0.2, 0.3, 0.4], atol=1e-12)


def test_prop1_rejects_bad_vectors():
    with pytest.raises(ValueError):
        prop1_solve(0.5, 0.5, 0.5, -0.5)
    with pytest.raises(ValueError):
        prop1_solve(0.5, 0.2, 0.2, 0.2)


# the 23 simplex points with coordinates in {0, 1/4, 1/2, 1}: vertices, edge
# midpoints and face points
QUARTER_MIXTURES = [p for p in product((0.0, 0.25, 0.5, 1.0), repeat=4) if sum(p) == 1.0]


def _check_prop1_solution(p):
    sol = prop1_solve(*p)
    t, a, b = sol.theta, sol.alpha, sol.beta
    assert 0.0 <= t <= math.pi and 0.0 <= a <= math.pi / 2 and 0.0 <= b <= math.pi / 2
    # the angle of a pair that sums to 0 is unused, and 0
    p00, p01, p10, p11 = p
    assert p01 + p10 > 0.0 or b == 0.0
    assert p00 + p11 > 0.0 or a == 0.0
    dist = prop1_outcome(sol)
    assert max(abs(dist[lab] - x) for lab, x in zip(("o00", "o01", "o10", "o11"), p)) <= 1e-12


# a -0.0 coordinate must not turn an unused angle into atan2(0, -0) = pi
@pytest.mark.parametrize("p", QUARTER_MIXTURES + [(1.0, 0.0, -0.0, 0.0), (-0.0, 0.5, 0.5, 0.0)])
def test_prop1_reaches_the_quarter_mixtures(p):
    _check_prop1_solution(p)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
       st.sets(st.integers(0, 3), max_size=3))
def test_prop1_reaches_mixtures_with_zero_coordinates(weights, zeros):
    weights = [0.0 if i in zeros else w for i, w in enumerate(weights)]
    total = sum(weights)
    assume(total > 1e-6)
    _check_prop1_solution([w / total for w in weights])


def test_prop1_angles_on_arrays_agree_with_float_calls():
    rng = np.random.default_rng(18)
    rows = np.concatenate([rng.dirichlet((1.0,) * 4, size=2000),
                           rng.dirichlet((0.2,) * 4, size=2000), QUARTER_MIXTURES])
    rows[rng.random(rows.shape) < 0.2] = 0.0  # zero pairs too; only the kernel reads the rows
    stacked = np.stack(analysis._prop1_angles(*rows.T), axis=1)
    assert stacked.shape == (len(rows), 3)
    for row, angles in zip(rows.tolist(), stacked.tolist()):
        assert tuple(angles) == analysis._prop1_angles(*row)


def test_prop1_verify_makes_no_per_row_solve(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("the sweep solved a row on its own")

    monkeypatch.setattr(analysis, "prop1_solve", refused)
    report = prop1_verify(500, seed=7)
    assert report["pass"] and len(report["checks"]) == 3


def test_prop1_verify_sweep():
    report = prop1_verify(300, seed=7)
    assert report["pass"]
    assert all(c["deviation"] <= 1e-9 for c in report["checks"])
    json.dumps(report)  # report must be serializable as emitted by the CLI


def test_prop1_verify_takes_one_sample_and_refuses_none():
    report = prop1_verify(1)
    assert report["pass"] and report["checks"][0]["inputs"]["samples"] == 1
    with pytest.raises(ValueError, match="samples must be >= 1, got 0"):
        prop1_verify(0)


# ------------------------------------------------------------------- prop2


def test_prop2_half_probabilities():
    # theta = pi/2, where the exit probability cos^2(theta/2) is 1/2, is a
    # point of the shared 101-point axis (np.linspace's lands one ulp above it)
    thetas, _, ((exits, stays),) = analysis._one_param_sweep()
    assert thetas.tolist().count(math.pi / 2) == 1
    mid = thetas.tolist().index(math.pi / 2)
    assert exits[mid] == stays[mid] == pytest.approx(0.5, abs=1e-15)
    report = prop2_verify(n_max=2)
    assert report["pass"]
    assert {c["inputs"]["theta_grid"] for c in report["checks"]} == {len(thetas)}


def test_prop2_verify_runs_from_n_max_1_and_refuses_0():
    report = prop2_verify(1)
    assert report["pass"]
    assert [c["check"] for c in report["checks"]] == ["prop2_amplitudes_n1",
                                                       "prop2_outcome_masses_n1"]
    with pytest.raises(ValueError, match="n_max must be >= 1"):
        prop2_verify(0)


def test_prop2_sweep_small():
    report = prop2_verify(n_max=3)
    assert report["pass"]
    amp_devs = [c["deviation"] for c in report["checks"] if "amplitudes" in c["check"]]
    mass_devs = [c["deviation"] for c in report["checks"] if "masses" in c["check"]]
    assert max(amp_devs) <= 1e-12
    assert max(mass_devs) <= 1e-9


@pytest.mark.parametrize("sweep", [lambda: prop1_verify(60, 3), lambda: prop2_verify(3),
                                   lambda: formulas_verify(3, 80, 5)],
                         ids=["prop1", "prop2", "formulas"])
def test_sweeps_report_the_same_in_small_chunks(sweep, monkeypatch):
    whole = sweep()
    monkeypatch.setattr(ewl, "MASS_CHUNK", 64)
    assert sweep() == whole and whole["pass"]


def test_prop2_refuses_its_largest_stack_before_n1_runs(monkeypatch):
    # the 101 thetas run on n_max + 1 qubits: 101 * 2^4 entries fit n_max = 3, not 4
    monkeypatch.setattr(ewl, "STACK_BUDGET", 101 * 2 ** 4)
    assert prop2_verify(3)["pass"]

    def refused(*args, **kwargs):
        raise AssertionError("prop2_verify started a run")

    monkeypatch.setattr(analysis, "final_states", refused)
    monkeypatch.setattr(ewl, "block_masses", refused)
    with pytest.raises(ValueError, match=r"101 runs on 5 qubits .* \(STACK_BUDGET\)"):
        prop2_verify(4)


def test_tree_references_take_one_array_call_per_tree(monkeypatch):
    # the behavioral outcomes at all angles come from one behavioral_masses call,
    # not from a strategy object and an outcome or payoff call per angle
    def refuse(*args, **kwargs):
        raise AssertionError("per-angle tree reference")

    for name in ("outcome_of", "expected_payoff_classical", "BehavioralStrategy"):
        monkeypatch.setattr(analysis, name, refuse, raising=False)
        monkeypatch.setattr(decision, name, refuse)
    assert prop2_verify()["pass"]
    assert formulas_verify()["pass"]


# ------------------------------------------------------------------- prop3


def test_prop3_params_n3_exact():
    theta, alpha, beta, lam0 = prop3_params(3)
    assert theta == pytest.approx(2 * math.pi / 3, abs=1e-12)
    assert alpha == pytest.approx(9 * math.pi / 16, abs=1e-12)
    assert beta == pytest.approx(3 * math.pi / 16, abs=1e-12)
    assert lam0 == pytest.approx(256.0 / 3.0, rel=1e-12)


def test_prop3_params_n2():
    theta, alpha, beta, lam0 = prop3_params(2)
    assert alpha == pytest.approx(math.pi / 3, abs=1e-12)
    assert beta == pytest.approx(math.pi / 6, abs=1e-12)
    assert lam0 == pytest.approx(13.5, rel=1e-12)


def test_prop3_theta_maximizes_exit_mass():
    # theta' maximizes cos^2(t/2) sin^2n(t/2), the weight of the payoff-lam state
    for n in (2, 3, 5):
        theta, _, _, _ = prop3_params(n)
        res = maximize_1d(
            lambda t: np.cos(t / 2) ** 2 * np.sin(t / 2) ** (2 * n), 0.0, math.pi,
            tol=1e-10)
        assert res.argmax[0] == pytest.approx(theta, abs=1e-5)


def test_prop3_threshold_matches_direct_formula_up_to_n142():
    for n in range(2, 143):
        theta = 2.0 * math.acos(1.0 / math.sqrt(n + 1.0))
        direct = 1.0 / (math.cos(theta / 2.0) ** (2 * n) * math.sin(theta / 2.0) ** 2)
        assert prop3_params(n)[3] == pytest.approx(direct, rel=1e-12)


def test_prop3_threshold_is_the_correctly_rounded_quotient():
    for n in range(2, 143):
        assert prop3_params(n)[3] == (n + 1) ** (n + 1) / n


@pytest.mark.parametrize("n", [143, 150])
def test_prop3_params_refuses_thresholds_beyond_float(n):
    with pytest.raises(ValueError, match="n <= 142"):
        prop3_params(n)


def test_prop3_params_refuses_before_building_the_power():
    # (n + 1) ** (n + 1) at n = 10**9 would take about 3.7 GB
    with pytest.raises(ValueError, match="n <= 142"):
        prop3_params(10**9)


def test_prop3_params_rejects_n1():
    with pytest.raises(ValueError):
        prop3_params(1)


def test_prop3_verify_refuses_n1():
    with pytest.raises(ValueError, match="n must be >= 2, got 1"):
        prop3_verify(1, 1.5)


def test_prop3_margins_match_frozen_constants():
    for (n, delta), frozen in DOMINANCE_MARGINS.items():
        cert = prop3_verify(n, delta)
        assert cert.margin > 0, (n, delta)
        assert cert.margin == pytest.approx(frozen, abs=1e-6 * max(1.0, frozen))


def test_prop3_sweep_report():
    report = prop3_sweep(n_values=(2, 3))
    assert report["pass"]
    assert [c["inputs"]["delta"] for c in report["checks"]] == [1.1, 1.5, 3.0] * 2
    json.dumps(report)


def test_prop3_classical_side_is_the_closed_form():
    # the classical maximum is classical_max_closed_form at lam = delta * lambda0, and
    # the maximizing search agrees with it to float resolution
    for n in range(2, 15):
        for delta in (1.1, 1.5, 3.0):
            cert = prop3_verify(n, delta)
            lam = delta * prop3_params(n)[3]
            assert cert.lam == lam
            assert cert.classical_max == classical_max_closed_form(n, lam)[1]
            search = maximize_1d(lambda t: payoff_one_param(n, lam, t), 0.0, math.pi, tol=1e-10)
            assert search.value == pytest.approx(cert.classical_max, rel=1e-14)
            # the margin comes from the exact structure, and prop3_verify
            # cross-checks it against the simulated difference
            gap = cert.quantum_payoff - cert.classical_max - cert.margin
            assert abs(gap) <= (n + 1) * lam * sys.float_info.epsilon


def test_prop3_certificates_hold_up_to_n23():
    # the payoffs reach 1e30 at n = 23: a float difference of the two lost the
    # O(1) margin from n = 16 on, and checks failed on a true claim
    report = prop3_sweep(n_values=tuple(range(2, 24)))
    assert report["pass"], [c["check"] for c in report["checks"] if not c["pass"]]


@pytest.mark.parametrize("n, margin", [(14, 1.4948383315881975), (16, 1.496101682809869),
                                       (23, 2858429273741782.4)])
def test_prop3_margin_matches_the_exact_margin(n, margin):
    # the exact margins at delta = 1.5, from mpmath at Prop. 3's exact angles;
    # the float difference of the payoffs gave 2.5, -5120 and -3.1e15
    assert prop3_verify(n, 1.5).margin == pytest.approx(margin, rel=1e-12)


def test_prop3_raises_when_the_simulation_misses_the_margin(monkeypatch):
    original = analysis.expected_payoff
    monkeypatch.setattr(analysis, "expected_payoff",
                        lambda game, gates: original(game, gates) + 1e-6)
    with pytest.raises(analysis.CrossCheckError, match="prop3 margin mismatch at n=3"):
        prop3_verify(3, 1.5)


@pytest.mark.parametrize("n", range(2, 7))
def test_prop3_cross_check_bound_is_n_plus_1_lambda_eps(monkeypatch, n):
    # the simulation misses the exact margin by at most 0.98 lam eps here, so a
    # shift of n lam eps stays within (n+1) lam eps and one of (n+2) lam eps
    # does not; a bound of (n-1) lam eps would refuse the first
    lam = 1.5 * prop3_params(n)[3]
    original = analysis.expected_payoff
    for ulps, passes in ((n, True), (n + 2, False)):
        shift = ulps * lam * sys.float_info.epsilon
        monkeypatch.setattr(analysis, "expected_payoff",
                            lambda game, gates, shift=shift: original(game, gates) + shift)
        if passes:
            assert prop3_verify(n, 1.5).margin > 0
        else:
            with pytest.raises(analysis.CrossCheckError, match=f"prop3 margin mismatch at n={n}"):
                prop3_verify(n, 1.5)


@pytest.mark.parametrize("deviation, tol, passed", [
    (1e-9, analysis.SIM_TOL, True),
    (math.nextafter(1e-9, 1.0), analysis.SIM_TOL, False),
    (math.nan, analysis.SIM_TOL, False),
    (0.0, analysis.EXACT_TOL, True),
    (1.0, analysis.EXACT_TOL, False),
    # Prop. 3's rows pass deviation -margin, so STRICT_TOL passes exactly margin > 0
    (-5e-324, analysis.STRICT_TOL, True),
    (0.0, analysis.STRICT_TOL, False),
    (-0.0, analysis.STRICT_TOL, False),
])
def test_a_check_passes_iff_its_deviation_is_at_most_its_tolerance(deviation, tol, passed):
    check = analysis.make_check("row", {}, 0.0, deviation, deviation, tol)
    assert check["pass"] is passed


def test_an_empty_report_does_not_pass():
    with pytest.raises(ValueError, match="at least one check"):
        analysis.make_report([])
    with pytest.raises(ValueError, match="at least one check"):
        prop3_sweep(())


def test_prop3_delta_validation():
    with pytest.raises(ValueError):
        prop3_verify(2, delta=1.0)


# ----------------------------------------------------- classical closed form


@pytest.mark.parametrize("n,lam,p_star,value", [
    (1, 4.0, 1.0 / 3.0, 4.0 / 3.0),
    (3, 20.0, 4.0 / 19.0, 16875.0 / 6859.0),
    (1, 2.0, 0.0, 1.0),
    (2, 1.0, 0.0, 1.0),
    (1, 0.5, 0.0, 1.0),
])
def test_classical_closed_form_values(n, lam, p_star, value):
    got_p, got_v = classical_max_closed_form(n, lam)
    assert got_p == pytest.approx(p_star, abs=1e-12)
    assert got_v == pytest.approx(value, abs=1e-12)


def test_closed_form_stays_finite_at_the_largest_lambdas():
    # (lam - 1) * (n + 1) overflows at lam = 1e308, so the closed form divides first
    p_star, value = classical_max_closed_form(1, 1e308)
    assert p_star == 0.5 and value == pytest.approx(2.5e307, rel=1e-12)
    p_star, value = classical_max_closed_form(3, 1e308)
    assert p_star == pytest.approx(0.25, rel=1e-12)
    assert value == pytest.approx(0.75 ** 3 * 0.25e308, rel=1e-12)


def test_closed_form_n1_equals_quadratic_formula():
    for lam in (2.5, 3.0, 4.0, 10.0):
        _, value = classical_max_closed_form(1, lam)
        assert value == pytest.approx(lam * lam / (4.0 * (lam - 1.0)), rel=1e-12)


def test_closed_form_dominates_grid():
    for n in (1, 2, 4):
        for lam in (1.5, 4.0, 20.0):
            _, value = classical_max_closed_form(n, lam)
            grid_max = max(payoff_one_param(n, lam, t)
                           for t in np.linspace(0.0, math.pi, 201))
            assert value >= grid_max - 1e-9


def test_closed_form_matches_numeric_max():
    for n in (1, 2, 3, 5):
        for lam in (1.2, 4.0, 50.0):
            res = maximize_1d(lambda t: payoff_one_param(n, lam, t), 0.0, math.pi,
                              tol=1e-10)
            _, value = classical_max_closed_form(n, lam)
            assert res.value == pytest.approx(value, abs=1e-9 * max(1.0, value))


# ------------------------------------------------------------------ formulas


def test_formulas_report():
    report = formulas_verify(n_max=3, samples=120, seed=11)
    assert report["pass"]
    by_name = {c["check"]: c for c in report["checks"]}
    disc = by_name["two_param_form_known_discrepancy"]
    assert disc["pass"]
    assert "known discrepancy" in disc["note"]
    assert disc["actual"]["sine_linear_deviation"] > 0.01
    assert disc["actual"]["beta0_reduction_deviation"] <= 1e-9
    json.dumps(report)


@pytest.mark.parametrize("samples", [0, -5])
def test_formulas_refuse_sweeps_without_samples(samples):
    with pytest.raises(ValueError, match="samples must be >= 1"):
        formulas_verify(samples=samples)


@pytest.mark.parametrize("sweep", [lambda k: prop1_verify(k), lambda k: formulas_verify(samples=k)],
                         ids=["prop1", "formulas"])
@pytest.mark.parametrize("samples", [10 ** 6 + 1, 10 ** 9])
def test_sweeps_refuse_samples_over_budget_before_drawing(sweep, samples, monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("an oversized sweep made its random generator")

    monkeypatch.setattr(np.random, "default_rng", refused)
    with pytest.raises(ValueError, match=r"over the budget of 1,000,000 \(GRID_BUDGET\)"):
        sweep(samples)


# -------------------------------------------------------------------- recall


def test_recall_report():
    report = recall_verify()
    assert report["pass"]
    by_name = {c["check"]: c for c in report["checks"]}
    assert by_name["two_stage_imperfect_recall"]["actual"] is True
    assert by_name["driver_imperfect_recall"]["actual"] is True
    assert by_name["perfect_recall_control"]["actual"] is False


def test_recall_report_with_user_problem():
    report = recall_verify(perfect_recall_control())
    assert report["pass"]
    extra = report["checks"][-1]
    assert extra["check"] == "user_problem_imperfect_recall"
    assert extra["actual"] is False
