import json
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ewlsim import decision, optimize
from ewlsim.analysis import perfect_recall_control, prop1_solve
from ewlsim.decision import (
    BehavioralStrategy,
    DecisionProblem,
    MixedStrategy,
    OutcomeDistribution,
    PureStrategy,
    absentminded_driver,
    behavioral_from_mixed,
    _neg_distance_fn,
    behavioral_gap,
    behavioral_masses,
    expected_payoff_classical,
    has_imperfect_recall,
    mixed_from_behavioral,
    n_tuple_driver,
    n_tuple_outcomes,
    outcome_equivalent,
    outcome_of,
    problem_from_json,
    problem_to_json,
    two_stage_problem,
)
from ewlsim.ewl import payoff_one_param
from oracles import (
    json_dumps_problem,
    per_call_behavioral_from_mixed,
    per_call_mixed_from_behavioral,
    per_call_outcome,
    tuple_walk_masses,
    tuple_walk_recall,
)

# frozen from an independent 2001^2 grid + pattern-search minimization of
# max(|pq-1/2|, p(1-q), (1-p)q, |(1-p)(1-q)-1/2|): minimum 0.25 at p=q=1/2
TWO_STAGE_GAP = 0.25

HALF_HALF = OutcomeDistribution({"o00": 0.5, "o01": 0.0, "o10": 0.0, "o11": 0.5})


# ------------------------------------------------------------- construction


def test_two_stage_structure():
    prob = two_stage_problem()
    assert len(prob.info_partition) == 2
    assert len(prob.terminals) == 4
    assert len(prob.pure_strategies()) == 4
    assert has_imperfect_recall(prob)


def test_driver_structure():
    prob = absentminded_driver(4.0)
    assert len(prob.pure_strategies()) == 2
    assert has_imperfect_recall(prob)
    assert prob.payoffs == {"o1": 0.0, "o2": 4.0, "o3": 1.0}


def test_driver_pure_strategy_payoffs():
    prob = absentminded_driver(4.0)
    exit_now, motorway = prob.pure_strategies()
    assert expected_payoff_classical(prob, exit_now) == 0.0
    assert expected_payoff_classical(prob, motorway) == 1.0


def test_n_tuple_matches_driver_for_n1():
    a = absentminded_driver(3.5)
    b = n_tuple_driver(1, 3.5)
    assert a == b


def test_n_tuple_terminal_count():
    for n in (1, 2, 5):
        assert len(n_tuple_driver(n, 2.0).terminals) == n + 2


def test_n_tuple_rejects_bad_n():
    with pytest.raises(ValueError):
        n_tuple_driver(0, 2.0)
    with pytest.raises(ValueError):
        n_tuple_outcomes(0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_trees_refuse_non_finite_payoffs(bad):
    with pytest.raises(ValueError, match="payoffs must be finite"):
        n_tuple_driver(1, bad)
    with pytest.raises(ValueError, match="payoffs must be finite"):
        DecisionProblem(histories=((), (0,), (1,)), terminal_labels={(0,): "a", (1,): "b"},
                        info_partition=(((),),), payoffs={"a": 1.0, "b": bad})
    doc = json.loads(problem_to_json(absentminded_driver(4.0)))
    with pytest.raises(ValueError, match="payoffs must be finite"):
        problem_from_json(json.dumps({**doc, "payoffs": {**doc["payoffs"], "o2": bad}}))


def test_n_tuple_outcomes_labels():
    prob = n_tuple_outcomes(2)
    assert sorted(set(prob.terminal_labels.values())) == ["o1", "o2", "o3", "o4"]
    assert prob.payoffs is None


@pytest.mark.parametrize("n", range(1, 6))
def test_n_tuple_outcomes_is_the_driver_without_payoffs(n):
    driver, outcomes = n_tuple_driver(n, 20.0), n_tuple_outcomes(n)
    assert outcomes.histories == driver.histories
    assert outcomes.info_partition == driver.info_partition
    assert outcomes.terminal_labels == driver.terminal_labels
    assert outcomes.payoffs is None
    # exiting at intersection t ends in o{t}, staying on the motorway in o{n+2}
    assert outcomes.terminal_labels[(1,) * (n + 1)] == f"o{n + 2}"
    for t in range(1, n + 2):
        assert outcomes.terminal_labels[(1,) * (t - 1) + (0,)] == f"o{t}"
    assert driver.payoffs == {**{f"o{t}": 0.0 for t in range(1, n + 1)},
                              f"o{n + 1}": 20.0, f"o{n + 2}": 1.0}


def test_prefix_closure_enforced():
    with pytest.raises(ValueError):
        DecisionProblem(
            histories=((), (0, 0)),
            terminal_labels={(0, 0): "x"},
            info_partition=(((),),),
        )


def test_partition_must_cover_nonterminals():
    with pytest.raises(ValueError):
        DecisionProblem(
            histories=((), (0,), (1,)),
            terminal_labels={(0,): "a", (1,): "b"},
            info_partition=(),
        )


@pytest.mark.parametrize("h", [(0, 1), (2,), (0, 1, 0)])
def test_lookups_reject_terminal_and_absent_histories(h):
    prob = two_stage_problem()
    with pytest.raises(ValueError):
        prob.actions(h)
    with pytest.raises(ValueError):
        prob.info_set_index(h)


def test_unequal_action_sets_in_one_cell_rejected():
    histories = ((), (0,), (1,), (0, 0), (0, 1), (1, 0))
    labels = {(0, 0): "a", (0, 1): "b", (1, 0): "c"}
    with pytest.raises(ValueError):
        DecisionProblem(histories=histories, terminal_labels=labels,
                        info_partition=(((),), ((0,), (1,))))


@pytest.mark.parametrize("change, message", [
    ({"histories": ((), (0,), (1,), (0,))}, "'histories' lists a history twice"),
    ({"info_partition": (((), ()),)}, "an information set lists a history twice"),
    ({"payoffs": {"a": 1.0, "b": 0.0, "zzz": 3.0}},
     r"payoffs name labels that no terminal carries: \['zzz'\]"),
], ids=["repeated_history", "repeated_set_member", "unknown_payoff_label"])
def test_constructor_refuses_what_it_would_otherwise_drop_or_ignore(change, message):
    fields = {"histories": ((), (0,), (1,)), "terminal_labels": {(0,): "a", (1,): "b"},
              "info_partition": (((),),), "payoffs": {"a": 1.0, "b": 0.0}}
    assert DecisionProblem(**fields).histories == ((), (0,), (1,))
    with pytest.raises(ValueError, match=message):
        DecisionProblem(**{**fields, **change})


# ------------------------------------------------------------------ outcomes


def test_two_stage_mixed_half_half():
    prob = two_stage_problem()
    pure = prob.pure_strategies()
    mixed = MixedStrategy({pure[0]: 0.5, pure[3]: 0.5})
    dist = outcome_of(prob, mixed)
    assert dist.probs == pytest.approx({"o00": 0.5, "o01": 0.0, "o10": 0.0, "o11": 0.5})


def test_driver_behavioral_third():
    prob = absentminded_driver(4.0)
    dist = outcome_of(prob, BehavioralStrategy(((1 / 3, 2 / 3),)))
    assert dist["o1"] == pytest.approx(1 / 3, abs=1e-12)
    assert dist["o2"] == pytest.approx(2 / 9, abs=1e-12)
    assert dist["o3"] == pytest.approx(4 / 9, abs=1e-12)
    assert expected_payoff_classical(prob, BehavioralStrategy(((1 / 3, 2 / 3),))) == \
        pytest.approx(4 / 3, abs=1e-12)


def test_driver_expected_payoff_endpoints():
    prob = absentminded_driver(4.0)
    assert expected_payoff_classical(prob, BehavioralStrategy(((0.0, 1.0),))) == \
        pytest.approx(1.0, abs=1e-12)
    assert expected_payoff_classical(prob, BehavioralStrategy(((1.0, 0.0),))) == \
        pytest.approx(0.0, abs=1e-12)


def test_n3_behavioral_payoff_closed_form():
    lam = 20.0
    prob = n_tuple_driver(3, lam)
    for p in np.linspace(0.0, 1.0, 21):
        expected = (1 - p) ** 3 * ((lam - 1) * p + 1)
        actual = expected_payoff_classical(prob, BehavioralStrategy(((p, 1 - p),)))
        assert actual == pytest.approx(expected, abs=1e-12)
    p_star = 4.0 / 19.0
    assert expected_payoff_classical(prob, BehavioralStrategy(((p_star, 1 - p_star),))) == \
        pytest.approx(16875.0 / 6859.0, abs=1e-12)


def test_n_tuple_outcomes_geometric_masses():
    # chain rule along the tree, cross-checked by exhaustive path enumeration
    n = 3
    prob = n_tuple_outcomes(n)
    p = 0.37
    dist = outcome_of(prob, BehavioralStrategy(((p, 1 - p),)))
    for t in range(n + 1):
        assert dist[f"o{t + 1}"] == pytest.approx((1 - p) ** t * p, abs=1e-12)
    assert dist[f"o{n + 2}"] == pytest.approx((1 - p) ** (n + 1), abs=1e-12)


def test_all_mass_on_o1_when_always_exit():
    dist = outcome_of(n_tuple_outcomes(2), BehavioralStrategy(((1.0, 0.0),)))
    assert dist["o1"] == pytest.approx(1.0, abs=1e-12)


def test_degenerate_behavioral_matches_pure():
    prob = two_stage_problem()
    for pure in prob.pure_strategies():
        local = tuple((1.0, 0.0) if a == 0 else (0.0, 1.0) for a in pure.choices)
        assert outcome_equivalent(outcome_of(prob, BehavioralStrategy(local)),
                                  outcome_of(prob, pure), 1e-12)


def test_outcome_affine_in_mixed_weights():
    prob = two_stage_problem()
    pure = prob.pure_strategies()
    m1 = MixedStrategy({pure[0]: 0.2, pure[1]: 0.8})
    m2 = MixedStrategy({pure[2]: 0.6, pure[3]: 0.4})
    t = 0.3
    combo = MixedStrategy({pure[0]: t * 0.2, pure[1]: t * 0.8,
                           pure[2]: (1 - t) * 0.6, pure[3]: (1 - t) * 0.4})
    d1, d2, dc = (outcome_of(prob, s) for s in (m1, m2, combo))
    for lab in dc.probs:
        assert dc[lab] == pytest.approx(t * d1[lab] + (1 - t) * d2[lab], abs=1e-12)


def test_outcome_distributions_sum_to_one():
    rng = np.random.default_rng(5)
    prob = two_stage_problem()
    for _ in range(50):
        p, q = rng.uniform(size=2)
        dist = outcome_of(prob, BehavioralStrategy(((p, 1 - p), (q, 1 - q))))
        assert sum(dist.probs.values()) == pytest.approx(1.0, abs=1e-12)


def test_strategy_problem_mismatch():
    prob = absentminded_driver(4.0)
    with pytest.raises(ValueError):
        outcome_of(prob, BehavioralStrategy(((0.5, 0.5), (0.5, 0.5))))
    with pytest.raises(ValueError):
        outcome_of(prob, PureStrategy((0, 1)))


_HASH_PROBE = """
import numpy as np
from ewlsim.decision import (BehavioralStrategy, DecisionProblem, expected_payoff_classical,
                             n_tuple_driver)
base = n_tuple_driver(30, 3.0)
pay = np.random.default_rng(0).uniform(-5.0, 5.0, size=len(base.labels))
prob = DecisionProblem(base.histories, base.terminal_labels, base.info_partition,
                       dict(zip(base.labels, pay.tolist())))
print(repr(expected_payoff_classical(prob, BehavioralStrategy(((0.1, 0.9),)))))
"""


def test_classical_payoff_does_not_depend_on_the_hash_seed():
    outputs = set()
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
        out = subprocess.run([sys.executable, "-c", _HASH_PROBE], env=env, capture_output=True,
                             text=True, timeout=60, check=True)
        outputs.add(out.stdout)
    assert len(outputs) == 1


@pytest.mark.parametrize("translate, strategy, message", [
    (mixed_from_behavioral, BehavioralStrategy(((0.5, 0.5),)),
     "does not cover every information set"),
    (mixed_from_behavioral, BehavioralStrategy(((1.0,), (0.5, 0.5))),
     "row 0 has 1 entries for 2 actions"),
    (mixed_from_behavioral, BehavioralStrategy(((0.5, 0.5), (0.5, 0.25, 0.25))),
     "row 1 has 3 entries for 2 actions"),
    (behavioral_from_mixed, MixedStrategy({PureStrategy((0,)): 1.0}),
     "does not cover every information set"),
    (behavioral_from_mixed, MixedStrategy({PureStrategy((0, 5)): 1.0}),
     "action 5 unavailable"),
], ids=["short_behavioral", "one_entry_row", "three_entry_row", "short_pure",
        "unavailable_action"])
def test_translations_refuse_malformed_strategies_like_outcome_of(translate, strategy, message):
    prob = two_stage_problem()
    with pytest.raises(ValueError, match=message):
        outcome_of(prob, strategy)
    with pytest.raises(ValueError, match=message):
        translate(prob, strategy)


def test_payoff_requires_payoffs():
    with pytest.raises(ValueError):
        expected_payoff_classical(n_tuple_outcomes(1), BehavioralStrategy(((0.5, 0.5),)))


# --------------------------------------------------------------- equivalence


def test_outcome_equivalent_basics():
    d = OutcomeDistribution({"a": 0.5, "b": 0.5})
    assert outcome_equivalent(d, d, 0.0)
    e = OutcomeDistribution({"a": 0.5 + 5e-4, "b": 0.5 - 5e-4})
    assert outcome_equivalent(d, e, 1e-3)
    assert not outcome_equivalent(d, e, 1e-4)
    with pytest.raises(ValueError):
        outcome_equivalent(d, OutcomeDistribution({"a": 1.0}), 1e-3)


def test_best_behavioral_approximation_is_not_equivalent():
    # the closest behavioral outcome to (o00+o11)/2 sits at p=q=1/2, a
    # max-norm 0.25 away, so equivalence fails at any tolerance below that
    prob = two_stage_problem()
    best = outcome_of(prob, BehavioralStrategy(((0.5, 0.5), (0.5, 0.5))))
    assert not outcome_equivalent(best, HALF_HALF, 1e-3)
    assert not outcome_equivalent(best, HALF_HALF, 0.2)
    assert outcome_equivalent(best, HALF_HALF, 0.25 + 1e-12)


def test_invalid_distributions_rejected():
    with pytest.raises(ValueError):
        OutcomeDistribution({"a": 0.7, "b": 0.7})
    with pytest.raises(ValueError):
        OutcomeDistribution({"a": -0.2, "b": 1.2})
    with pytest.raises(ValueError):
        MixedStrategy({PureStrategy((0,)): 0.5})
    with pytest.raises(ValueError):
        BehavioralStrategy(((0.5, 0.6),))


@pytest.mark.parametrize("build, what", [
    (lambda p: MixedStrategy({PureStrategy((0,)): p[0], PureStrategy((1,)): p[1]}),
     "mixed weights"),
    (lambda p: BehavioralStrategy(((0.5, 0.5), p)), "local probabilities"),
    (lambda p: OutcomeDistribution({"a": p[0], "b": p[1]}), "outcome probabilities"),
    (lambda p: prop1_solve(p[0], 0.0, 0.0, p[1]), "probabilities"),
], ids=["mixed", "behavioral", "outcome", "prop1_solve"])
@pytest.mark.parametrize("probs, message", [
    ((-0.2, 1.2), "must be nonnegative"),
    ((0.7, 0.7), r"sum to 1\.4, not 1"),
    ((math.nan, 1.0), "sum to nan, not 1"),
], ids=["negative", "sum", "nan"])
def test_probability_vectors_are_refused_in_their_own_words(build, what, probs, message):
    with pytest.raises(ValueError, match=f"^{what} {message}$"):
        build(probs)
    assert build((-1e-13, 1.0 + 1e-13)) is not None  # within PROB_TOL: clamped, not refused


# ------------------------------------------------------------ recall checks


def test_recall_flags():
    assert has_imperfect_recall(two_stage_problem())
    assert has_imperfect_recall(absentminded_driver(4.0))
    assert has_imperfect_recall(n_tuple_driver(4, 2.0))


def test_perfect_recall_two_stage_variant():
    histories = [(), (0,), (1,)] + [(k, l) for k in (0, 1) for l in (0, 1)]
    labels = {(k, l): f"o{k}{l}" for k in (0, 1) for l in (0, 1)}
    prob = DecisionProblem(histories=tuple(histories), terminal_labels=labels,
                           info_partition=(((),), ((0,),), ((1,),)))
    assert not has_imperfect_recall(prob)


def test_recall_flag_is_linear_in_depth():
    # the driver's one set, and the same chain with one set per intersection,
    # which has perfect recall, so every history is visited
    driver = n_tuple_driver(800, 3.0)
    chain = DecisionProblem(driver.histories, driver.terminal_labels,
                            tuple((h,) for h in driver.info_partition[0]))
    start = time.perf_counter()
    assert has_imperfect_recall(driver)
    assert not has_imperfect_recall(chain)
    assert time.perf_counter() - start < 0.5


@st.composite
def _partitioned_trees(draw):
    """Trees of depth <= 4 with 2-3 actions per nonterminal, a random partition
    of the nonterminals into cells with equal action sets, and labels shared at
    random among the terminals."""
    histories, frontier, width = [()], [()], {}
    for depth in range(4):
        nxt = []
        for h in frontier:
            if depth > 0 and draw(st.booleans()):
                continue  # leave h terminal
            width[h] = draw(st.integers(2, 3))
            nxt += [h + (a,) for a in range(width[h])]
        histories += nxt
        frontier = nxt
    cells = {}
    for h, k in width.items():
        cells.setdefault((k, draw(st.integers(0, 2))), []).append(h)
    labels = {h: draw(st.sampled_from("abcd")) for h in histories if h not in width}
    return DecisionProblem(tuple(histories), labels, tuple(map(tuple, cells.values())))


@settings(max_examples=60, deadline=None)
@given(_partitioned_trees(), st.integers(0, 2**32 - 1))
def test_id_walks_match_the_tuple_walks(prob, seed):
    assert has_imperfect_recall(prob) == tuple_walk_recall(prob)
    rng = np.random.default_rng(seed)
    raw = [rng.uniform(size=(len(prob.actions(cell[0])), 5)) for cell in prob.info_partition]
    arrays = [tuple(r / r.sum(axis=0)) for r in raw]
    floats = [tuple(float(x[0]) for x in row) for row in arrays]
    for local, bits in ((floats, float.hex), (arrays, np.ndarray.tobytes)):
        got, want = list(behavioral_masses(prob, local)), list(tuple_walk_masses(prob, local))
        assert [(lab, bits(m)) for lab, m in got] == [(lab, bits(m)) for lab, m in want]


# ------------------------------------------- mixed <-> behavioral relations


def _random_tree(rng, max_depth=3, label_count=None):
    """Random perfect-recall tree with singleton information sets; with a
    label_count, the terminals share that many labels round robin."""
    histories = [()]
    frontier = [()]
    for depth in range(max_depth):
        nxt = []
        for h in frontier:
            if depth > 0 and rng.uniform() < 0.4:
                continue  # leave h terminal
            for a in range(int(rng.integers(2, 4))):
                child = h + (a,)
                histories.append(child)
                nxt.append(child)
        frontier = nxt
    hset = set(histories)
    terminals = [h for h in hset if not any(g[:-1] == h for g in hset if g)]
    label_count = label_count or len(terminals)
    labels = {h: f"z{i % label_count}" for i, h in enumerate(sorted(terminals))}
    partition = tuple((h,) for h in sorted(hset - set(terminals), key=lambda x: (len(x), x)))
    return DecisionProblem(histories=tuple(histories), terminal_labels=labels,
                           info_partition=partition)


def _path_product_outcome(problem, strategy):
    """Reference: one root-to-leaf product per terminal, summed per label."""
    probs = dict.fromkeys(problem.terminal_labels.values(), 0.0)
    for z in problem.terminals:
        prob = 1.0
        for depth, a in enumerate(z):
            h = z[:depth]
            prob *= strategy.local[problem.info_set_index(h)][problem.actions(h).index(a)]
        probs[problem.terminal_labels[z]] += prob
    return probs


def test_behavioral_outcome_equals_path_products():
    rng = np.random.default_rng(17)
    problems = ([_random_tree(rng) for _ in range(10)]
                + [n_tuple_driver(n, 3.0) for n in (1, 5, 30)]
                + [_random_tree(rng, label_count=c) for c in (1, 2, 3, 3)])
    for prob in problems:
        for _ in range(3):
            rows = []
            for cell in prob.info_partition:
                raw = rng.uniform(size=len(prob.actions(cell[0])))
                rows.append(tuple(raw / raw.sum()))
            beh = BehavioralStrategy(tuple(rows))
            assert outcome_of(prob, beh).probs == _path_product_outcome(prob, beh)

            # five points at once: one array per action, one element per point
            points = []
            for cell in prob.info_partition:
                raw = rng.uniform(size=(5, len(prob.actions(cell[0]))))
                points.append(raw / raw.sum(axis=1, keepdims=True))
            masses = dict(behavioral_masses(prob, [tuple(pt.T) for pt in points]))
            assert set(masses) == set(prob.labels)
            for j in range(5):
                local = tuple(tuple(pt[j].tolist()) for pt in points)
                at_j = {lab: float(mass[j]) for lab, mass in masses.items()}
                assert at_j == _path_product_outcome(prob, BehavioralStrategy(local))
                assert at_j == dict(behavioral_masses(prob, local))


def test_tree_without_moves_has_one_certain_outcome():
    prob = DecisionProblem(histories=((),), terminal_labels={(): "z"}, info_partition=())
    assert outcome_of(prob, BehavioralStrategy(())).probs == {"z": 1.0}
    assert outcome_of(prob, PureStrategy(())).probs == {"z": 1.0}


def test_gap_on_a_tree_without_moves_is_its_one_outcome_distance():
    # no information set leaves no axis to search: the gap is the distance of
    # the one certain outcome, without a call of maximize_box
    prob = DecisionProblem(histories=((),), terminal_labels={(): "z"}, info_partition=())
    assert behavioral_gap(prob, OutcomeDistribution({"z": 1.0})) == 0.0


def test_n200_classical_payoff_matches_closed_form():
    lam = 7.5
    prob = n_tuple_driver(200, lam)
    for p in (0.001, 0.005, 0.02, 0.5):
        theta = 2.0 * math.acos(math.sqrt(p))
        assert expected_payoff_classical(prob, BehavioralStrategy(((p, 1 - p),))) == \
            pytest.approx(payoff_one_param(200, lam, theta), abs=1e-9)


def test_kuhn_equivalence_on_perfect_recall_trees():
    rng = np.random.default_rng(42)
    for _ in range(10):
        prob = _random_tree(rng)
        pure = prob.pure_strategies()
        chosen = [pure[int(i)] for i in rng.choice(len(pure), size=min(4, len(pure)),
                                                   replace=False)]
        raw = rng.uniform(size=len(chosen))
        weights = raw / raw.sum()
        mixed = MixedStrategy({s: float(w) for s, w in zip(chosen, weights)})
        beh = behavioral_from_mixed(prob, mixed)
        assert outcome_equivalent(outcome_of(prob, mixed), outcome_of(prob, beh), 1e-9)


def test_behavioral_outcomes_match_product_mixed_on_two_stage():
    prob = two_stage_problem()
    rng = np.random.default_rng(9)
    for _ in range(25):
        p, q = rng.uniform(size=2)
        beh = BehavioralStrategy(((p, 1 - p), (q, 1 - q)))
        mixed = mixed_from_behavioral(prob, beh)
        assert outcome_equivalent(outcome_of(prob, beh), outcome_of(prob, mixed), 1e-9)


def _mixed_bits(mixed):
    return [(pure.choices, w.hex()) for pure, w in mixed.weights.items()]


def _dist_bits(probs):
    return [(label, p.hex()) for label, p in probs.items()]


def _rows_bits(beh):
    return [tuple(map(float.hex, row)) for row in beh.local]


def _fresh_copy(prob):
    return DecisionProblem(prob.histories, prob.terminal_labels, prob.info_partition,
                           prob.payoffs)


def _assert_plan_matches_per_call(prob, rng):
    """Translations and outcomes equal the per-call oracles bit for bit: with a
    fresh problem for every call, then twice on one problem, which the first
    round warms (its plan and path memo) and the second reads."""
    per_call_pure = [PureStrategy(c) for c in
                     product(*(prob.actions(cell[0]) for cell in prob.info_partition))]
    behaviorals = []
    for _ in range(4):  # some entries zero, so some product weights are dropped
        rows = []
        for cell in prob.info_partition:
            k = len(prob.actions(cell[0]))
            r = rng.uniform(size=k) * (rng.uniform(size=k) > 0.25)
            r[0] += r.sum() == 0.0
            rows.append(tuple(r / r.sum()))
        behaviorals.append(BehavioralStrategy(tuple(rows)))
    pures = [per_call_pure[int(i)] for i in rng.integers(0, len(per_call_pure), size=6)]
    mixeds = [per_call_mixed_from_behavioral(prob, b) for b in behaviorals]
    for _ in range(3):
        chosen = sorted({int(i) for i in rng.integers(0, len(per_call_pure), size=5)})
        raw = rng.uniform(size=len(chosen))
        mixeds.append(MixedStrategy({per_call_pure[i]: float(w)
                                     for i, w in zip(chosen, raw / raw.sum())}))
    want = ([_mixed_bits(m) for m in mixeds[:len(behaviorals)]],
            [_dist_bits(per_call_outcome(prob, s)) for s in pures + mixeds],
            [_rows_bits(per_call_behavioral_from_mixed(prob, m)) for m in mixeds])

    def calls(problem):
        return ([_mixed_bits(mixed_from_behavioral(problem(), b)) for b in behaviorals],
                [_dist_bits(outcome_of(problem(), s).probs) for s in pures + mixeds],
                [_rows_bits(behavioral_from_mixed(problem(), m)) for m in mixeds])

    assert calls(lambda: _fresh_copy(prob)) == want
    warm = _fresh_copy(prob)
    assert "_pure_plan" not in vars(warm) and "_paths" not in vars(warm)
    assert calls(lambda: warm) == want
    assert len(vars(warm)["_pure_plan"]) == len(per_call_pure)
    assert calls(lambda: warm) == want


@settings(max_examples=40, deadline=None)
@given(_partitioned_trees(), st.integers(0, 2**32 - 1))
def test_plan_and_memo_match_the_per_call_oracles_on_partitioned_trees(prob, seed):
    _assert_plan_matches_per_call(prob, np.random.default_rng(seed))


def test_plan_and_memo_match_the_per_call_oracles_on_random_trees():
    rng = np.random.default_rng(17)
    for prob in ([_random_tree(rng) for _ in range(10)]
                 + [two_stage_problem(), perfect_recall_control(), n_tuple_driver(5, 3.0)]):
        _assert_plan_matches_per_call(prob, rng)


def test_equal_pure_strategies_hash_equal_and_find_each_others_weights():
    a, b = PureStrategy((0, 1, 1)), PureStrategy((np.int64(0), True, 1.0))
    assert a == b and a is not b and hash(a) == hash(b) == hash((0, 1, 1))
    mixed = MixedStrategy({a: 0.25, PureStrategy((1, 1, 1)): 0.75})
    assert mixed.weights[PureStrategy((0, 1, 1))] == 0.25
    assert mixed.weights[b] == 0.25 and PureStrategy((1, 0, 1)) not in mixed.weights


# ------------------------------------------------------------ behavioral gap


def test_gap_achievable_target_is_tiny():
    prob = two_stage_problem()
    target = outcome_of(prob, BehavioralStrategy(((0.3, 0.7), (0.6, 0.4))))
    assert behavioral_gap(prob, target) <= 1e-6


def test_gap_point_mass_reachable():
    prob = two_stage_problem()
    target = OutcomeDistribution({"o00": 1.0, "o01": 0.0, "o10": 0.0, "o11": 0.0})
    assert behavioral_gap(prob, target) <= 1e-6


def test_gap_for_half_half_diagonal_target():
    gap = behavioral_gap(two_stage_problem(), HALF_HALF)
    assert gap >= 0.1
    assert gap == pytest.approx(TWO_STAGE_GAP, abs=1e-6)


def test_gap_search_work_is_pinned(monkeypatch):
    # no two cycles of the box search move the same way here, so no pattern
    # step fires and the two-stage gap's work is its line searches' alone
    results = []
    maximize_box = optimize.maximize_box

    def recording(*args):
        results.append(maximize_box(*args))
        return results[-1]

    monkeypatch.setattr(optimize, "maximize_box", recording)
    assert behavioral_gap(two_stage_problem(), HALF_HALF) == 0.25
    assert [res.evaluations for res in results] == [40567]


def _grids_used(monkeypatch):
    """The grid_per_dim of every maximize_box call from here on."""
    grids = []
    maximize_box = optimize.maximize_box

    def recording(f, axes, grid_per_dim, *rest):
        grids.append(grid_per_dim)
        return maximize_box(f, axes, grid_per_dim, *rest)

    monkeypatch.setattr(optimize, "maximize_box", recording)
    return grids


def test_default_gap_grid_fits_the_budget(monkeypatch):
    # 201 points per set while 201**k fits in GRID_BUDGET (k <= 2), then the
    # largest g with g**k within it: 100**3 is exactly 1,000,000
    grids = _grids_used(monkeypatch)
    behavioral_gap(two_stage_problem(), HALF_HALF)
    prob = perfect_recall_control()
    target = outcome_of(prob, BehavioralStrategy(((0.3, 0.7), (0.8, 0.2), (0.4, 0.6))))
    assert behavioral_gap(prob, target) <= 1e-6
    assert grids == [201, 100]


def test_default_gap_grid_past_19_sets_is_refused():
    # a chain of 20 sets, each its own: even 2**20 points are over the budget
    motorway = [(1,) * t for t in range(20)]
    terminals = [h + (0,) for h in motorway] + [(1,) * 20]
    prob = DecisionProblem(tuple(motorway + terminals), {h: str(h) for h in terminals},
                           tuple((h,) for h in motorway))
    target = OutcomeDistribution(dict.fromkeys(prob.labels, 1.0 / len(prob.labels)))
    with pytest.raises(ValueError, match="grid_per_dim=2 gives 1,048,576 grid points"):
        behavioral_gap(prob, target)


def test_pure_strategies_past_the_budget_are_refused_before_any_is_built(monkeypatch):
    # a chain of 43 histories, 21 singleton binary sets: 2**21 pure strategies
    motorway = [(1,) * t for t in range(21)]
    terminals = [h + (0,) for h in motorway] + [(1,) * 21]
    prob = DecisionProblem(tuple(motorway + terminals), {h: str(h) for h in terminals},
                           tuple((h,) for h in motorway))

    def refused(*args, **kwargs):
        raise AssertionError("a pure strategy was built")

    monkeypatch.setattr(decision, "PureStrategy", refused)
    with pytest.raises(ValueError, match="2,097,152 pure strategies, over the budget"):
        prob.pure_strategies()
    with pytest.raises(ValueError, match="GRID_BUDGET"):
        mixed_from_behavioral(prob, BehavioralStrategy(((0.5, 0.5),) * 21))


def _ternary_pair():
    """Two information sets of three actions each: 9 pure strategies."""
    histories = [()] + [(a,) for a in range(3)] + [(a, b) for a in range(3) for b in range(3)]
    return DecisionProblem(tuple(histories), {h: f"o{h[0]}{h[1]}" for h in histories[4:]},
                           (((),), ((0,), (1,), (2,))))


def test_pure_strategies_at_the_budget_enumerate_and_one_more_is_refused(monkeypatch):
    beh = BehavioralStrategy(((0.5, 0.25, 0.25), (0.2, 0.3, 0.5)))
    monkeypatch.setattr(optimize, "GRID_BUDGET", 9)
    prob = _ternary_pair()
    assert [s.choices for s in prob.pure_strategies()] == list(product(range(3), range(3)))
    assert len(mixed_from_behavioral(prob, beh).weights) == 9

    def refused(*args, **kwargs):
        raise AssertionError("a pure strategy was built")

    monkeypatch.setattr(optimize, "GRID_BUDGET", 8)
    monkeypatch.setattr(decision, "PureStrategy", refused)
    prob = _ternary_pair()
    for _ in range(2):  # a refusal is not cached: it is made again
        with pytest.raises(ValueError, match=r"has 9 pure strategies, over the budget of 8 "
                                             r"\(GRID_BUDGET\)"):
            prob.pure_strategies()
        with pytest.raises(ValueError, match="has 9 pure strategies, over the budget of 8"):
            mixed_from_behavioral(prob, beh)
    assert "_pure_plan" not in vars(prob)


def test_a_pure_outcome_past_the_budget_walks_one_path_and_builds_no_plan(monkeypatch):
    motorway = [(1,) * t for t in range(21)]  # 21 binary sets: 2**21 pure strategies
    terminals = [h + (0,) for h in motorway] + [(1,) * 21]
    prob = DecisionProblem(tuple(motorway + terminals), {h: str(h) for h in terminals},
                           tuple((h,) for h in motorway))
    pure = PureStrategy((1,) * 10 + (0,) * 11)
    assert outcome_of(prob, pure)[str((1,) * 10 + (0,))] == 1.0
    assert "_pure_plan" not in vars(prob)
    assert list(prob._paths) == [pure.choices]

    def walked(*args):
        raise AssertionError("a memoized strategy was checked and walked again")

    monkeypatch.setattr(decision, "_check_pure", walked)
    assert outcome_of(prob, PureStrategy(pure.choices))[str((1,) * 10 + (0,))] == 1.0


def test_an_invalid_pure_strategy_is_refused_on_every_call():
    prob = two_stage_problem()
    bad = {PureStrategy((0, 5)): "action 5 unavailable",
           PureStrategy((0,)): "does not cover every information set"}
    for rnd in range(2):  # the second round runs on a warm plan and memo
        for pure, message in bad.items():
            with pytest.raises(ValueError, match=message):
                outcome_of(prob, pure)
            with pytest.raises(ValueError, match=message):
                outcome_of(prob, MixedStrategy({PureStrategy((1, 1)): 0.5, pure: 0.5}))
            with pytest.raises(ValueError, match=message):
                behavioral_from_mixed(prob, MixedStrategy({pure: 1.0}))
        mixed = mixed_from_behavioral(prob, BehavioralStrategy(((0.5, 0.5), (0.5, 0.5))))
        assert behavioral_from_mixed(prob, mixed).local == ((0.5, 0.5), (0.5, 0.5))
        assert outcome_of(prob, mixed).probs == dict.fromkeys(prob.labels, 0.25)
    assert sorted(prob._paths) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_a_replaced_problem_gets_a_plan_and_memo_of_its_own():
    prob = two_stage_problem()
    mixed = mixed_from_behavioral(prob, BehavioralStrategy(((0.5, 0.5), (0.25, 0.75))))
    outcome_of(prob, mixed)
    control = perfect_recall_control()  # replace(two_stage_problem(), info_partition=...)
    assert "_pure_plan" not in vars(control) and "_paths" not in vars(control)
    assert [s.choices for s in control.pure_strategies()] == list(product((0, 1), repeat=3))
    with pytest.raises(ValueError, match="does not cover every information set"):
        outcome_of(control, PureStrategy((0, 1)))
    assert outcome_of(control, PureStrategy((1, 0, 1)))["o11"] == 1.0
    assert len(prob.pure_strategies()) == 4 and sorted(prob._paths) == sorted(
        s.choices for s in prob.pure_strategies())


def test_threads_sharing_one_problem_get_the_single_threaded_results():
    rng = np.random.default_rng(5)
    behaviorals = [BehavioralStrategy(tuple((p, 1.0 - p) for p in rng.uniform(size=3)))
                   for _ in range(40)]

    def work(prob):
        out = []
        for beh in behaviorals:
            mixed = mixed_from_behavioral(prob, beh)
            back = behavioral_from_mixed(prob, mixed)
            out.append((_mixed_bits(mixed), _rows_bits(back),
                        _dist_bits(outcome_of(prob, mixed).probs),
                        [_dist_bits(outcome_of(prob, pure).probs) for pure in mixed.weights]))
        return out

    want = work(perfect_recall_control())
    shared = perfect_recall_control()
    results = [None] * 8
    barrier = threading.Barrier(len(results))

    def run(i):
        barrier.wait()
        results[i] = work(shared)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(results))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert results == [want] * len(results)


def test_gap_rejects_foreign_labels():
    with pytest.raises(ValueError):
        behavioral_gap(two_stage_problem(), OutcomeDistribution({"x": 1.0}))


def test_gap_with_one_information_set():
    # outcome (p, (1-p)p, (1-p)^2): the distance to (1/2, 0, 1/2) is least at
    # p = 1 - 1/sqrt(2), where (1-p)^2 = 1/2 and |p - 1/2| = (1-p)p = (sqrt(2)-1)/2
    target = OutcomeDistribution({"o1": 0.5, "o2": 0.0, "o3": 0.5})
    assert abs(behavioral_gap(n_tuple_outcomes(1), target) - (math.sqrt(2.0) - 1.0) / 2.0) <= 1e-9


def test_gap_with_three_information_sets_obeys_kuhn():
    # perfect recall: the mixed target that no two-stage behavioral strategy
    # reaches within TWO_STAGE_GAP is reached here, by (1/2, 1, 0)
    prob = perfect_recall_control()
    mixed = MixedStrategy({PureStrategy((0, 0, 0)): 0.5, PureStrategy((1, 1, 1)): 0.5})
    target = outcome_of(prob, mixed)
    assert outcome_equivalent(target, HALF_HALF, 0.0)
    assert behavioral_gap(prob, target) <= 1e-6


def test_gap_reaches_random_behavioral_targets_on_three_sets():
    # by Kuhn's theorem every target here has gap 0.  With Brent's line steps
    # on the default 100**3 grid the median gap is 6e-12, and one of the 40 is
    # above 1e-6 (4.6e-6); golden-section steps from a 21**3 grid gave a
    # median of 4.4e-4, with 38 of the 40 above 1e-6
    prob = perfect_recall_control()
    rng = np.random.default_rng(1)
    gaps = []
    for _ in range(40):
        probs = rng.uniform(size=3).tolist()
        target = outcome_of(prob, BehavioralStrategy(tuple((p, 1.0 - p) for p in probs)))
        gaps.append(behavioral_gap(prob, target))
    assert np.median(gaps) <= 1e-9


@pytest.mark.parametrize("prob", [n_tuple_outcomes(2), two_stage_problem(),
                                  perfect_recall_control()],
                         ids=["one_set", "two_sets", "three_sets"])
def test_gap_objective_float_and_array_calls_agree_with_path_products(prob):
    k = len(prob.info_partition)
    target = outcome_of(prob, BehavioralStrategy(((0.3, 0.7),) * k))
    f = _neg_distance_fn(prob, target)
    axis = np.linspace(0.0, 1.0, 7)
    values = f(*np.ix_(*[axis] * k))
    assert values.shape == (7,) * k
    for idx in np.ndindex(values.shape):
        point = [float(axis[i]) for i in idx]
        value = f(*point)
        assert type(value) is float and value == values[idx]
        beh = BehavioralStrategy(tuple((p, 1.0 - p) for p in point))
        reached = _path_product_outcome(prob, beh)
        distance = max(abs(reached[lab] - target[lab]) for lab in prob.labels)
        assert value == pytest.approx(-distance, abs=1e-15)


def _grid_calls(k):
    """Array calls on k = 2 or 3 sets: a 201**2 grid over two sets and, at
    k = 3, a float for the third, once per choice of that set (maximize_box's
    line scans mix floats and arrays so)."""
    axis = np.linspace(0.0, 1.0, 201)
    rows, cols = np.ix_(axis, axis)
    if k == 2:
        return [(rows, cols)]
    return [(0.3, rows, cols), (rows, 0.3, cols), (rows, cols, 0.3)]


@pytest.mark.parametrize("prob", [two_stage_problem(), perfect_recall_control()],
                         ids=["two_sets", "three_sets"])
def test_gap_objective_grid_values_equal_the_float_calls_exactly(prob):
    k = len(prob.info_partition)
    f = _neg_distance_fn(prob, outcome_of(prob, BehavioralStrategy(((0.3, 0.7),) * k)))
    for params in _grid_calls(k):
        values = f(*params)
        grid = np.broadcast_arrays(*params)
        floats = [f(*(float(p[idx]) for p in grid)) for idx in np.ndindex(values.shape)]
        assert np.array_equal(values.ravel(), floats)


@pytest.mark.parametrize("prob", [n_tuple_outcomes(2), two_stage_problem(),
                                  perfect_recall_control()],
                         ids=["one_set", "two_sets", "three_sets"])
def test_gap_objective_array_call_leaves_the_callers_arrays_unchanged(prob):
    k = len(prob.info_partition)
    f = _neg_distance_fn(prob, outcome_of(prob, BehavioralStrategy(((0.3, 0.7),) * k)))
    calls = [(np.linspace(0.0, 1.0, 201),)] if k == 1 else _grid_calls(k)
    for params in calls:
        kept = [np.copy(p) for p in params]
        values = f(*params)
        assert all(values is not p and np.array_equal(p, c) for p, c in zip(params, kept))


def test_gap_objective_returns_a_scalar_for_scalar_arguments():
    f = _neg_distance_fn(two_stage_problem(), HALF_HALF)
    value = f(0.3, 0.4)
    assert type(value) is float
    for params in ((np.float64(0.3), 0.4), (np.array(0.3), np.array(0.4))):
        result = f(*params)
        assert type(result) is np.float64 and result == value


def test_gap_objective_grid_scan_of_two_sets_peaks_within_3_75_grids():
    # the 201**2 scan held 4.02 grids at its peak when each label's distance
    # took three temporaries; reusing each mass in place holds 3.43
    prob = two_stage_problem()
    f = _neg_distance_fn(prob, HALF_HALF)
    params = _grid_calls(2)[0]
    f(*params)
    tracemalloc.start()
    try:
        f(*params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.75 * 201**2 * 8


def test_gap_objective_array_call_keeps_few_arrays_alive():
    # 32 labels of 100,000 points each would be 24.4 MiB if all were held at once
    prob = n_tuple_outcomes(30)
    f = _neg_distance_fn(prob, outcome_of(prob, BehavioralStrategy(((0.3, 0.7),))))
    points = np.linspace(0.0, 1.0, 100_000)
    f(points)
    tracemalloc.start()
    try:
        f(points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20


# -------------------------------------------------------------------- JSON


def test_json_roundtrip():
    for prob in (two_stage_problem(), absentminded_driver(4.0), n_tuple_outcomes(3)):
        again = problem_from_json(problem_to_json(prob))
        assert again == prob


def test_json_document_shape():
    doc = json.loads(problem_to_json(absentminded_driver(4.0)))
    assert set(doc) == {"histories", "partition", "labels", "payoffs"}
    assert [] in doc["histories"]
    assert doc["payoffs"]["o2"] == 4.0
    assert all(isinstance(i, int) for cell in doc["partition"] for i in cell)


_TWO_STAGE_DOC = {"histories": [[], [0], [1], [0, 0], [0, 1], [1, 0], [1, 1]],
                  "partition": [[0], [1, 2]],
                  "labels": {"3": "o00", "4": "o01", "5": "o10", "6": "o11"}, "payoffs": None}


@pytest.mark.parametrize("prob, doc", [
    (absentminded_driver(4.0),
     {"histories": [[], [0], [1], [1, 0], [1, 1]], "partition": [[0, 2]],
      "labels": {"1": "o1", "3": "o2", "4": "o3"},
      "payoffs": {"o1": 0.0, "o2": 4.0, "o3": 1.0}}),
    (two_stage_problem(), _TWO_STAGE_DOC),
    (perfect_recall_control(), {**_TWO_STAGE_DOC, "partition": [[0], [1], [2]]}),
], ids=["driver", "two_stage", "perfect_recall_control"])
def test_json_documents_keep_their_value_compact_and_indented(prob, doc):
    compact = problem_to_json(prob)
    assert "\n" not in compact and json.loads(compact) == doc
    assert json.loads(problem_to_json(prob, indent=2)) == doc


_INDENTS = (None, 0, 2, 4)


def _assert_writer_matches_json_dumps(prob):
    # no assert: pytest's diff of two texts of megabytes would take minutes
    for indent in _INDENTS:
        got, want = problem_to_json(prob, indent), json_dumps_problem(prob, indent)
        if got != want:
            at = len(os.path.commonprefix([got, want]))
            pytest.fail(f"indent={indent!r}: {got[at - 20:at + 20]!r} where json.dumps writes "
                        f"{want[at - 20:at + 20]!r}")


@settings(max_examples=60, deadline=None)
@given(_partitioned_trees())
def test_json_writer_matches_json_dumps_on_partitioned_trees(prob):
    _assert_writer_matches_json_dumps(prob)


def test_json_writer_matches_json_dumps_on_random_and_named_trees():
    rng = np.random.default_rng(30)
    moveless = DecisionProblem(((),), {(): "a"}, ())
    for prob in ([_random_tree(rng, max_depth=4) for _ in range(10)]
                 + [two_stage_problem(), perfect_recall_control(), moveless]):
        _assert_writer_matches_json_dumps(prob)


@pytest.mark.parametrize("n", [1, 5, 100, 800])
def test_json_writer_matches_json_dumps_on_driver_trees(n):
    _assert_writer_matches_json_dumps(n_tuple_driver(n, 3.0))


@pytest.mark.parametrize("actions", [(False, True), (np.int64(0), np.int64(1)), ("a", "b\"c"),
                                     (0.5, 1.5)], ids=["bool", "int64", "str", "float"])
def test_json_writer_leaves_actions_that_are_not_ints_to_json_dumps(actions):
    # the driver tree of n = 1 on these actions: the second action continues
    a, b = actions
    prob = DecisionProblem(((), (a,), (b,), (b, a), (b, b)), {(a,): "x", (b, a): "y", (b, b): "z"},
                           (((), (b,)),))
    for indent in _INDENTS:
        try:
            want = json_dumps_problem(prob, indent)
        except TypeError as error:
            with pytest.raises(type(error)):
                problem_to_json(prob, indent)
        else:
            assert problem_to_json(prob, indent) == want


@pytest.mark.parametrize("histories", [
    [[], [0], [True]], [[], [0], [1.0]], [[], [0], ["1"]], [[], [0], 1], {"0": []},
], ids=["bool_action", "float_action", "string_action", "int_history", "object_histories"])
def test_json_refuses_actions_that_are_not_integers(histories):
    doc = {"histories": [[], [0], [1]], "partition": [[0]], "labels": {"1": "a", "2": "b"}}
    assert problem_from_json(json.dumps(doc)).terminal_labels == {(0,): "a", (1,): "b"}
    with pytest.raises(ValueError, match="integer actions"):
        problem_from_json(json.dumps({**doc, "histories": histories}))


@pytest.mark.parametrize("change, message", [
    ({"labels": {"1": "a", "01": "b"}}, "two label keys name the same history"),
    ({"payoffs": {"a": True, "b": 0.0}}, r"'payoffs' objects \(payoffs numbers\)"),
    ({"histories": [[], [0], [0]], "labels": {"1": "a"}}, "'histories' lists a history twice"),
    ({"partition": [[0, 0]]}, "an information set lists a history twice"),
    ({"labels": {"1": ["a"], "2": None}}, "labels must be strings"),
    ({"partition": [["0"]]}, "history index '0' is not an integer"),
    ({"payoffs": {"a": 1, "b": 2, "zzz": 3}},
     r"payoffs name labels that no terminal carries: \['zzz'\]"),
], ids=["duplicate_label_key", "boolean_payoff", "repeated_history", "repeated_set_member",
        "non_string_labels", "string_partition_member", "unknown_payoff_label"])
def test_json_refuses_duplicate_label_keys_and_boolean_payoffs(change, message):
    doc = {"histories": [[], [0], [1]], "partition": [[0]], "labels": {"1": "a", "2": "b"},
           "payoffs": {"a": 1, "b": 0.0}}
    assert problem_from_json(json.dumps(doc)).payoffs == {"a": 1.0, "b": 0.0}
    with pytest.raises(ValueError, match=message):
        problem_from_json(json.dumps({**doc, **change}))


def test_json_refuses_documents_nested_too_deeply():
    with pytest.raises(ValueError, match="the JSON document nests too deeply"):
        problem_from_json("[" * 100_000 + "]" * 100_000)
