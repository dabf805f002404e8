"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all).
"""

import math
from contextlib import contextmanager

import numpy as np

import ewlsim as ez
from test_analysis import DOMINANCE_MARGINS

SEED = 7


@contextmanager
def criterion(num, description):
    try:
        yield
    except Exception:
        print(f"FAIL  criterion {num:2d}: {description}")
        raise
    print(f"PASS  criterion {num:2d}: {description}")


def test_criterion_01_driver_classical_optimum():
    with criterion(1, "driver n=1 lam=4 classical optimum 4/3 at p=1/3"):
        res = ez.maximize_1d(lambda t: ez.payoff_one_param(1, 4.0, t), 0.0, math.pi,
                             tol=1e-10)
        assert abs(res.value - 4.0 / 3.0) <= 1e-6
        assert abs(math.cos(res.argmax[0] / 2.0) ** 2 - 1.0 / 3.0) <= 1e-6
        lam = 4.0
        _, closed = ez.classical_max_closed_form(1, lam)
        assert abs(closed - lam * lam / (4.0 * (lam - 1.0))) <= 1e-12  # float-exact


def test_criterion_02_driver_quantum_cap():
    with criterion(2, "driver n=1: payoff 2 at (pi/2,pi/4,0); 3D optimum = max(1, lam/2)"):
        gate = ez.build_gate(ez.UnitaryParams(math.pi / 2, math.pi / 4, 0.0))
        sim = ez.expected_payoff(ez.driver_game(4.0), [gate] * 2)
        assert abs(sim - 2.0) <= 1e-9
        for lam in (1.0, 1.5, 2.0, 3.0, 4.0, 10.0):
            res = ez.maximize_3d(ez.payoff_three_param_fn(1, lam))
            assert abs(res.value - max(1.0, lam / 2.0)) <= 1e-6, lam


def test_criterion_03_example_n3_lam20():
    with criterion(3, "n=3 lam=20: classical 16875/6859 at p=4/19, quantum 5"):
        p_star, value = ez.classical_max_closed_form(3, 20.0)
        assert abs(value - 16875.0 / 6859.0) <= 1e-6
        assert abs(p_star - 4.0 / 19.0) <= 1e-6
        res1 = ez.maximize_1d(lambda t: ez.payoff_one_param(3, 20.0, t), 0.0, math.pi,
                              tol=1e-10)
        assert abs(res1.value - 16875.0 / 6859.0) <= 1e-6
        params = ez.UnitaryParams(math.pi / 2, 9 * math.pi / 16, 3 * math.pi / 16)
        sim = ez.expected_payoff(ez.n_tuple_driver_game(3, 20.0),
                                 [ez.build_gate(params)] * 4)
        assert abs(sim - 5.0) <= 1e-9
        assert abs(ez.payoff_three_param(3, 20.0, params) - 5.0) <= 1e-9
        res3 = ez.maximize_3d(ez.payoff_three_param_fn(3, 20.0))
        assert res3.value >= 5.0 - 1e-6


def test_criterion_04_prop1_property_suite():
    with criterion(4, "prop1: 1000 random + boundary mixtures reachable within 1e-9"):
        report = ez.prop1_verify(1000, seed=SEED)
        assert report["pass"]
        assert all(c["deviation"] <= 1e-9 for c in report["checks"])


def test_criterion_05_prop2_suite():
    with criterion(5, "prop2: n<=5, 101-point grid, amplitudes 1e-12, masses 1e-9"):
        report = ez.prop2_verify(n_max=5)
        assert report["pass"]
        for check in report["checks"]:
            bound = 1e-12 if "amplitudes" in check["check"] else 1e-9
            assert check["deviation"] <= bound, check["check"]


def test_criterion_06_prop3_dominance():
    with criterion(6, "prop3: strict dominance for n in 2..6, delta in {1.1,1.5,3}"):
        for (n, delta), frozen in DOMINANCE_MARGINS.items():
            cert = ez.prop3_verify(n, delta)
            assert cert.quantum_payoff > cert.classical_max, (n, delta)
            assert abs(cert.margin - frozen) <= 1e-6 * max(1.0, frozen), (n, delta)


def test_criterion_07_formula_cross_check_ledger():
    with criterion(7, "three-param form matches simulation on 500 samples; "
                      "two-param variant documented as discrepancy"):
        report = ez.formulas_verify(n_max=5, samples=500, seed=11)
        assert report["pass"]
        by_name = {c["check"]: c for c in report["checks"]}
        assert by_name["three_param_closed_form_vs_simulation"]["deviation"] <= 1e-9
        disc = by_name["two_param_form_known_discrepancy"]
        assert "known discrepancy" in disc["note"]
        assert disc["actual"]["beta0_reduction_deviation"] <= 1e-9
        assert disc["actual"]["sine_linear_deviation"] > 0.01


def test_criterion_08_classical_embedding():
    with criterion(8, "payoff_one_param = simulation = tree model for n<=6 (1e-9)"):
        lam = 4.0
        for n in range(1, 7):
            problem = ez.n_tuple_driver(n, lam)
            game = ez.n_tuple_driver_game(n, lam)
            for theta in np.linspace(0.0, math.pi, 101):
                theta = float(theta)
                closed = ez.payoff_one_param(n, lam, theta)
                gate = ez.build_gate(ez.UnitaryParams(theta))
                sim = ez.expected_payoff(game, [gate] * (n + 1))
                p = math.cos(theta / 2.0) ** 2
                tree = ez.expected_payoff_classical(
                    problem, ez.BehavioralStrategy(((p, 1.0 - p),)))
                assert abs(closed - sim) <= 1e-9
                assert abs(closed - tree) <= 1e-9
                assert abs(sim - tree) <= 1e-9


def test_criterion_09_mixed_behavioral_nonequivalence():
    with criterion(9, "two-stage: gap for (o00+o11)/2 exceeds 0.1; behavioral "
                      "outcomes matched by mixed within 1e-9"):
        prob = ez.two_stage_problem()
        target = ez.OutcomeDistribution({"o00": 0.5, "o01": 0.0, "o10": 0.0, "o11": 0.5})
        gap = ez.behavioral_gap(prob, target)
        assert gap > 0.1
        assert abs(gap - 0.25) <= 1e-6  # frozen independent-grid minimum
        rng = np.random.default_rng(SEED)
        points = [(float(p), float(q)) for p, q in rng.uniform(size=(50, 2))]
        points += [(0.0, 0.0), (1.0, 1.0), (1.0, 0.0), (0.0, 1.0), (0.5, 0.5)]
        for p, q in points:
            beh = ez.BehavioralStrategy(((p, 1 - p), (q, 1 - q)))
            mixed = ez.mixed_from_behavioral(prob, beh)
            assert ez.outcome_equivalent(ez.outcome_of(prob, beh),
                                         ez.outcome_of(prob, mixed), 1e-9)


def test_criterion_10_eta_symmetry():
    with criterion(10, "<01|psi_f> = <10|psi_f> within 1e-12 on 100 seeded triples"):
        rng = np.random.default_rng(SEED)
        for _ in range(100):
            params = ez.UnitaryParams(float(rng.uniform(0.0, math.pi)),
                                      float(rng.uniform(0.0, 2.0 * math.pi)),
                                      float(rng.uniform(0.0, 2.0 * math.pi)))
            assert ez.eta_symmetry_check(params) <= 1e-12
