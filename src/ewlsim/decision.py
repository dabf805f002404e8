"""One-player extensive-form decision problems.

A problem is a prefix-closed tree of action-index sequences, an information
partition over the nonterminal histories, outcome labels on the terminal
histories and (optionally) finite real payoffs per label.  Strategies come in
the three classical flavors: pure, mixed, behavioral.  Outcome distributions
over terminal labels are the common currency for every equivalence check.

Each problem numbers its histories once, in (length, lexicographic) order, so
a parent's id is below its children's; every walk over the tree (outcomes,
pure paths, the recall flag, the protocol compiler in ewl) runs on those ids
and costs O(1) per history, where a history tuple would cost O(depth) per
hash.  A behavioral strategy's outcome is one top-down pass over the ids,
behavioral_masses, which takes rows of floats or of numpy arrays (one
strategy per element).  outcome_of, behavioral_gap's objective and the tree
references of the analysis sweeps all run on it.  A problem also keeps its
pure strategies, built on first use, and the path of every pure strategy
walked, so the mixed <-> behavioral translations and a mixed outcome neither
rebuild strategies nor walk a path twice.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain, product
from operator import contains
from typing import Iterable, Iterator, Mapping, Union

import numpy as np

from . import optimize

PROB_TOL = 1e-12

History = tuple[int, ...]


@dataclass(frozen=True)
class DecisionProblem:
    """Finite history tree with an information partition and terminal labels.

    The history tuples are for input, output and messages; the constructor
    also keeps the integer plan the walks read: _ids (history -> id), and per
    id _kids (child ids in action order), _set (information set id, None at
    terminals) and _label (label, None at nonterminals), plus _set_actions.
    A repeated history or set member, or a payoff no label takes, is refused.
    """

    histories: tuple[History, ...]
    terminal_labels: Mapping[History, str]
    info_partition: tuple[tuple[History, ...], ...]
    payoffs: Mapping[str, float] | None = None

    def __post_init__(self):
        ids: dict[History, int] = {}  # sorted, so ids[h] is h's position
        given = sorted(map(tuple, self.histories), key=lambda h: (len(h), h))
        for h in given:
            ids.setdefault(h, len(ids))
        hist = tuple(ids)
        object.__setattr__(self, "histories", hist)
        if not hist or hist[0] != ():
            raise ValueError("the empty history must be present")
        if len(hist) < len(given):
            raise ValueError("'histories' lists a history twice")
        kids: list[tuple[int, ...]] = [()] * len(hist)
        for i, h in enumerate(hist[1:], 1):
            parent = ids.get(h[:-1])
            if parent is None:
                raise ValueError(f"history {h} lacks its prefix {h[:-1]}")
            kids[parent] += (i,)

        label: list[str | None] = [None] * len(hist)
        labels = {}
        for h, lab in self.terminal_labels.items():
            h = tuple(h)
            i = ids.get(h)
            if i is None or kids[i]:
                raise ValueError("terminal labels must cover exactly the terminal histories")
            label[i] = labels[h] = str(lab)
        if len(labels) != kids.count(()):
            raise ValueError("terminal labels must cover exactly the terminal histories")
        object.__setattr__(self, "terminal_labels", labels)

        sets: list[int | None] = [None] * len(hist)
        cells = []
        covered = True
        for s, cell in enumerate(self.info_partition):
            members = {ids.get(tuple(h)) for h in cell}
            if not members:
                raise ValueError("information sets must be nonempty")
            if None in members:  # a history outside the tree
                covered = False
                members.discard(None)
            for i in members:
                if not kids[i]:
                    covered = False
                elif sets[i] is not None:
                    raise ValueError("information sets must be disjoint")
                else:
                    sets[i] = s
            cells.append(sorted(members))
        if not covered or sets.count(None) != len(labels):
            raise ValueError("information partition must cover exactly the nonterminal histories")
        if sum(map(len, cells)) < sum(map(len, self.info_partition)):
            raise ValueError("an information set lists a history twice")
        set_actions = []
        for members in cells:
            acts = [tuple(hist[k][-1] for k in kids[i]) for i in members]
            if acts.count(acts[0]) != len(acts):
                raise ValueError("histories in one information set need equal action sets: "
                                 f"{tuple(hist[i] for i in members)}")
            set_actions.append(acts[0])
        object.__setattr__(self, "info_partition",
                           tuple(tuple(hist[i] for i in members) for members in cells))
        object.__setattr__(self, "_ids", ids)
        object.__setattr__(self, "_kids", tuple(kids))
        object.__setattr__(self, "_set", tuple(sets))
        object.__setattr__(self, "_label", tuple(label))
        object.__setattr__(self, "_set_actions", tuple(set_actions))

        if self.payoffs is not None:
            pay = {str(k): float(v) for k, v in self.payoffs.items()}
            if not all(map(math.isfinite, pay.values())):
                raise ValueError("payoffs must be finite")
            missing = set(labels.values()) - set(pay)
            if missing:
                raise ValueError(f"payoffs missing for labels {sorted(missing)}")
            unknown = set(pay) - set(labels.values())
            if unknown:
                raise ValueError(f"payoffs name labels that no terminal carries: {sorted(unknown)}")
            object.__setattr__(self, "payoffs", pay)

    @cached_property
    def terminals(self) -> tuple[History, ...]:
        return tuple(h for h, lab in zip(self.histories, self._label) if lab is not None)

    @cached_property
    def labels(self) -> tuple[str, ...]:
        return tuple(sorted(set(self.terminal_labels.values())))

    @cached_property
    def _label_closers(self) -> frozenset[int]:
        """The id of the last terminal of each label, in the top-down order of histories."""
        return frozenset({lab: i for i, lab in enumerate(self._label) if lab is not None}.values())

    def _nonterminal_id(self, h: History) -> int:
        i = self._ids.get(h)
        if i is None or self._set[i] is None:
            raise ValueError(f"{h} is not a nonterminal history")
        return i

    def actions(self, h: History) -> tuple[int, ...]:
        """Sorted action indices available after nonterminal history h."""
        return self._set_actions[self._set[self._nonterminal_id(h)]]

    def info_set_index(self, h: History) -> int:
        return self._set[self._nonterminal_id(h)]

    @cached_property
    def _pure_plan(self) -> tuple["PureStrategy", ...]:
        """Every pure strategy, built once, in the order of itertools.product over
        the action sets; product over the behavioral rows runs in the same order,
        so it gives each strategy's factors row[action index].  More than
        GRID_BUDGET of them are refused before the first is built."""
        count = math.prod(map(len, self._set_actions))
        if count > optimize.GRID_BUDGET:
            raise ValueError(f"the problem has {count:,} pure strategies, over the budget of "
                             f"{optimize.GRID_BUDGET:,} (GRID_BUDGET)")
        return tuple(map(PureStrategy, product(*self._set_actions)))

    @cached_property
    def _paths(self) -> dict[tuple[int, ...], tuple[int, ...]]:
        """_pure_walk's memo: the path ids of each valid pure strategy walked so
        far, keyed by its choices."""
        return {}

    def pure_strategies(self) -> list["PureStrategy"]:
        """All pure strategies, in lexicographic order over the partition.  More
        than GRID_BUDGET of them are refused before the first is built."""
        return list(self._pure_plan)


def checked_probabilities(values: Iterable, what: str) -> tuple[float, ...]:
    """``values`` as floats, refused unless each is nonnegative within PROB_TOL
    and they sum to 1 within PROB_TOL (a nan refuses the sum); entries within
    PROB_TOL below 0 become 0.  ``what`` names the values in the messages."""
    probs = tuple(map(float, values))
    low = min(probs, default=0.0)
    if low < -PROB_TOL:
        raise ValueError(f"{what} must be nonnegative")
    total = sum(probs)
    if not abs(total - 1.0) <= PROB_TOL:
        raise ValueError(f"{what} sum to {total!r}, not 1")
    return tuple(max(p, 0.0) for p in probs) if low < 0.0 else probs


@dataclass(frozen=True)
class PureStrategy:
    """One action index per information set, in partition order."""

    choices: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "choices", tuple(int(a) for a in self.choices))

    def __hash__(self):  # kept by the dataclass; its own would hash (choices,)
        return hash(self.choices)


@dataclass(frozen=True)
class MixedStrategy:
    """Probability weights over pure strategies."""

    weights: Mapping[PureStrategy, float]

    def __post_init__(self):
        weights = checked_probabilities(self.weights.values(), "mixed weights")
        object.__setattr__(self, "weights", dict(zip(self.weights, weights)))


@dataclass(frozen=True)
class BehavioralStrategy:
    """One probability vector per information set, over its sorted action set."""

    local: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "local", tuple(checked_probabilities(row, "local probabilities")
                                                for row in self.local))


Strategy = Union[PureStrategy, MixedStrategy, BehavioralStrategy]


@dataclass(frozen=True)
class OutcomeDistribution:
    """Probability distribution over terminal-history labels."""

    probs: Mapping[str, float]

    def __post_init__(self):
        probs = checked_probabilities(self.probs.values(), "outcome probabilities")
        object.__setattr__(self, "probs", dict(zip(map(str, self.probs), probs)))

    @classmethod
    def _trusted(cls, probs: dict[str, float]) -> "OutcomeDistribution":
        """A distribution over probs as they are, unchecked: for masses that are
        sums of products of weights or rows that were checked already."""
        dist = object.__new__(cls)
        object.__setattr__(dist, "probs", probs)
        return dist

    def __getitem__(self, label: str) -> float:
        return self.probs.get(label, 0.0)


def outcome_equivalent(d1: OutcomeDistribution, d2: OutcomeDistribution, tol: float) -> bool:
    """True when the two distributions differ by at most tol on every label."""
    if set(d1.probs) != set(d2.probs):
        raise ValueError("outcome distributions are over different label sets")
    return max(abs(d1.probs[k] - d2.probs[k]) for k in d1.probs) <= tol


# --------------------------------------------------------------------------
# constructors for the concrete problems


def two_stage_problem() -> DecisionProblem:
    """Two choices in a row; the first move is forgotten before the second.

    One information set holds the root, the other holds both length-1
    histories, so the second move cannot depend on the first.  Choosing k
    and then l ends in outcome o{k}{l}.
    """
    histories = [(), (0,), (1,)] + [(k, l) for k in (0, 1) for l in (0, 1)]
    terminal_labels = {(k, l): f"o{k}{l}" for k in (0, 1) for l in (0, 1)}
    return DecisionProblem(
        histories=tuple(histories),
        terminal_labels=terminal_labels,
        info_partition=(((),), ((0,), (1,))),
    )


def _check_n(n) -> None:
    """Refuse a driver size n that is not an integer >= 1."""
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n}")


def n_tuple_driver(n: int, lam: float) -> DecisionProblem:
    """Chain of n+1 indistinguishable intersections.

    Exiting at intersection t ends in outcome o{t}, staying on the motorway
    throughout ends in o{n+2}.  Exiting at intersections 1..n pays 0, exiting
    at intersection n+1 (o{n+1}) pays lam and o{n+2} pays 1.  A single
    information set holds every decision node, so the same rule must apply at
    all of them.
    """
    _check_n(n)
    exits = {(1,) * t + (0,): f"o{t + 1}" for t in range(n + 1)}
    motorway = tuple((1,) * t for t in range(n + 2))
    return DecisionProblem(
        histories=motorway + tuple(exits),
        terminal_labels={**exits, motorway[-1]: f"o{n + 2}"},
        info_partition=(motorway[:-1],),
        payoffs={**dict.fromkeys(exits.values(), 0.0), f"o{n + 1}": lam, f"o{n + 2}": 1.0},
    )


def absentminded_driver(lam: float) -> DecisionProblem:
    """The two-intersection driver problem (n_tuple_driver with n = 1)."""
    return n_tuple_driver(1, lam)


def n_tuple_outcomes(n: int) -> DecisionProblem:
    """The n_tuple_driver tree as a label-valued problem: outcomes o1..o{n+2},
    no payoffs."""
    return replace(n_tuple_driver(n, 0.0), payoffs=None)


# --------------------------------------------------------------------------
# outcomes


def outcome_of(problem: DecisionProblem, strategy: Strategy) -> OutcomeDistribution:
    """Exact outcome distribution of a pure, mixed or behavioral strategy."""
    probs = dict.fromkeys(problem.labels, 0.0)
    if isinstance(strategy, PureStrategy):
        probs[problem._label[_pure_walk(problem, strategy)[-1]]] = 1.0
    elif isinstance(strategy, MixedStrategy):
        for pure, w in strategy.weights.items():
            probs[problem._label[_pure_walk(problem, pure)[-1]]] += w
    elif isinstance(strategy, BehavioralStrategy):
        _check_behavioral(problem, strategy)
        probs.update(behavioral_masses(problem, strategy.local))
    else:
        raise TypeError(f"unsupported strategy type {type(strategy).__name__}")
    return OutcomeDistribution._trusted(probs)


def behavioral_masses(problem: DecisionProblem,
                      local) -> Iterator[tuple[str, float | np.ndarray]]:
    """Yield (label, mass) for every label under the behavioral rows local.

    local[i][a] is information set i's probability of its a-th action.  The
    entries are Python floats, through builtins, or numpy arrays that broadcast
    together, through the same * and +, so a float call and an array call agree
    bit for bit.  One top-down pass multiplies each history's reach into its
    children and then drops it; a label is yielded as soon as its last terminal
    is reached, so an array call keeps only a few arrays of the broadcast shape
    alive.  A yielded array is a fresh sum or product that the pass does not
    read again, so the caller may overwrite it.  The rows are not checked.
    """
    labels, kids, closers = problem._label, problem._kids, problem._label_closers
    if labels[0] is not None:  # a tree without moves
        yield labels[0], 1.0
    partial = {}
    reach = {0: 1.0}
    for h, s in enumerate(problem._set):
        if s is None:
            continue
        here = reach.pop(h)
        for child, p in zip(kids[h], local[s]):
            label = labels[child]
            if label is None:
                reach[child] = here * p
                continue
            mass = here * p
            if label in partial:
                mass = partial.pop(label) + mass
            if child in closers:
                yield label, mass
            else:
                partial[label] = mass


def _check_behavioral(problem: DecisionProblem, strategy: BehavioralStrategy) -> None:
    if len(strategy.local) != len(problem.info_partition):
        raise ValueError("behavioral strategy does not cover every information set")
    for idx, (row, acts) in enumerate(zip(strategy.local, problem._set_actions)):
        if len(row) != len(acts):
            raise ValueError(f"behavioral row {idx} has {len(row)} entries for {len(acts)} actions")


def _check_pure(problem: DecisionProblem, strategy: PureStrategy) -> None:
    if len(strategy.choices) != len(problem.info_partition):
        raise ValueError("pure strategy does not cover every information set")
    if not all(map(contains, problem._set_actions, strategy.choices)):
        for a, acts, cell in zip(strategy.choices, problem._set_actions, problem.info_partition):
            if a not in acts:
                raise ValueError(f"action {a} unavailable after history {cell[0]}")


def _pure_walk(problem: DecisionProblem, strategy: PureStrategy) -> tuple[int, ...]:
    """Ids of the histories the pure strategy passes, from the root to its
    terminal.  A strategy is checked and walked on its first call only; its path
    then stays in problem._paths.  Threads that miss together store equal paths."""
    path = problem._paths.get(strategy.choices)
    if path is None:
        _check_pure(problem, strategy)
        steps = [acts.index(a) for acts, a in zip(problem._set_actions, strategy.choices)]
        sets, kids = problem._set, problem._kids
        walk = [0]
        while sets[walk[-1]] is not None:
            walk.append(kids[walk[-1]][steps[sets[walk[-1]]]])
        path = problem._paths[strategy.choices] = tuple(walk)
    return path


def expected_payoff_classical(problem: DecisionProblem, strategy: Strategy) -> float:
    """Expected utility of a strategy; the problem must carry payoffs."""
    if problem.payoffs is None:
        raise ValueError("problem has outcome labels only, no payoffs")
    dist = outcome_of(problem, strategy)
    return sum(problem.payoffs[lab] * p for lab, p in dist.probs.items())


# --------------------------------------------------------------------------
# recall structure


def has_imperfect_recall(problem: DecisionProblem) -> bool:
    """True iff some information set holds histories with different experiences.

    A history's experience is the alternating sequence of information sets and
    actions along it, ending at its own set.  Each nonterminal's experience is
    interned top-down as (its parent's experience id, its last action, its own
    set), so two histories share an id exactly when their experiences are equal.
    """
    sets, kids, hist = problem._set, problem._kids, problem.histories
    interned: dict[tuple[int, int, int], int] = {}
    experience = {0: -1}  # the root's experience is the only one of length 1
    first: dict[int, int] = {}  # set id -> experience id of its first history
    for h, s in enumerate(sets):
        if s is None:
            continue
        e = experience.pop(h)
        if first.setdefault(s, e) != e:
            return True
        for child in kids[h]:
            if sets[child] is not None:
                experience[child] = interned.setdefault((e, hist[child][-1], sets[child]),
                                                        len(interned))
    return False


# --------------------------------------------------------------------------
# mixed <-> behavioral translations


def mixed_from_behavioral(problem: DecisionProblem, strategy: BehavioralStrategy) -> MixedStrategy:
    """Product-weight mixed strategy of a behavioral one.

    Outcome-equivalent whenever no history passes through the same
    information set twice (which fails, deliberately, for the driver).
    """
    _check_behavioral(problem, strategy)
    # product over the rows yields each plan strategy's factors in plan order;
    # math.prod multiplies them left to right, as w *= factor would from 1.0
    weights = zip(problem.pure_strategies(), map(math.prod, product(*strategy.local)))
    return MixedStrategy({pure: w for pure, w in weights if w > 0.0})


def behavioral_from_mixed(problem: DecisionProblem, strategy: MixedStrategy) -> BehavioralStrategy:
    """Behavioral strategy from conditional choice probabilities given reach.

    Outcome-equivalent to the mixed strategy on perfect-recall problems.
    """
    masses = [dict.fromkeys(acts, 0.0) for acts in problem._set_actions]
    reach_totals = [0.0] * len(masses)
    sets = problem._set
    for pure, w in strategy.weights.items():
        # a pure strategy reaches exactly the histories on its path
        choices = pure.choices
        for h in _pure_walk(problem, pure)[:-1]:
            s = sets[h]
            reach_totals[s] += w
            masses[s][choices[s]] += w
    rows = []
    for mass, reach_total in zip(masses, reach_totals):
        if reach_total > 0.0:
            rows.append(tuple(m / reach_total for m in mass.values()))
        else:
            rows.append(tuple(1.0 / len(mass) for _ in mass))
    return BehavioralStrategy(tuple(rows))


# --------------------------------------------------------------------------
# behavioral reachability gap


def behavioral_gap(problem: DecisionProblem, target: OutcomeDistribution) -> float:
    """Smallest max-norm distance from any behavioral outcome to the target.

    The distance is minimized with optimize.maximize_box, the search of
    maximize_3d: a g**k scan of the box [0, 1]**k of first-action
    probabilities of the k information sets, then maximize_box's refinement
    (cyclic line searches in Brent steps, and pattern steps) from the best grid
    point.  The distance comes from behavioral_masses, so the scan is one
    array call per block of maximize_box's seed grid, and its memory does not
    grow with g**k.  Information sets must be binary (every problem built in
    this module is).  The grid has g = 201 points per set when 201**k fits in
    GRID_BUDGET, else the largest g >= 2 with g**k within it (100 at k = 3);
    past k = 19 even 2**k points are over GRID_BUDGET, and the scan is refused.
    A tree without moves (k = 0) has one certain outcome, whose distance it is.
    """
    if set(target.probs) != set(problem.terminal_labels.values()):
        raise ValueError("target distribution is not over the problem's labels")
    for cell in problem.info_partition:
        if len(problem.actions(cell[0])) != 2:
            raise ValueError("behavioral_gap supports binary action sets only")
    objective = _neg_distance_fn(problem, target)
    k = len(problem.info_partition)
    if k == 0:
        return -objective()
    grid_points = 201
    while grid_points > 2 and grid_points ** k > optimize.GRID_BUDGET:
        grid_points -= 1
    return -optimize.maximize_box(objective, ((1.0, False),) * k, grid_points, 1, 1e-10).value


def _neg_distance_fn(problem: DecisionProblem, target: OutcomeDistribution):
    """Minus the max-norm distance from the behavioral outcome to the target, as
    f(p_1, ..., p_k) with p_i the probability of set i's first action.

    f takes Python floats or numpy arrays that broadcast together; both run
    through behavioral_masses, so a float call and an array call agree bit for
    bit.  An array call keeps one worst-so-far array of the broadcast shape and
    turns each mass into its distance in place, so it keeps only a few arrays of
    that shape alive.
    """
    probs = target.probs

    def neg_distance(*params):
        masses = behavioral_masses(problem, [(p, 1.0 - p) for p in params])
        if all(type(p) is float for p in params):
            worst = 0.0
            for label, mass in masses:
                worst = max(worst, abs(mass - probs[label]))
            return -worst
        worst = np.zeros(np.broadcast(*params).shape)
        for label, mass in masses:
            if type(mass) is np.ndarray:  # a fresh product: measure it in place
                mass = np.abs(np.subtract(mass, probs[label], out=mass), out=mass)
            else:  # a label that only float parameters reach
                mass = abs(mass - probs[label])
            np.maximum(worst, mass, out=worst)
        return np.negative(worst, out=worst)[()]  # [()] makes a 0-d result a scalar, as -worst did

    return neg_distance


# --------------------------------------------------------------------------
# JSON serialization (histories as arrays of action indices, partition as
# arrays of history indices, labels keyed by history index)


def problem_to_json(problem: DecisionProblem, indent: int | None = None) -> str:
    """The problem as compact JSON; indent=2 gives the readable, one-number-per-line form.

    The text is json.dumps's, byte for byte.  Each history's text is its
    parent's with one more action, so a history costs O(1) Python work and one
    string copy; an action that is not exactly an int is written, or refused,
    by json.dumps itself.
    """
    cells: list[list[int]] = [[] for _ in problem.info_partition]
    for i, s in enumerate(problem._set):  # ids ascend within a cell, as in info_partition
        if s is not None:
            cells[s].append(i)
    rest = json.dumps({
        "histories": 0,
        "partition": cells,
        "labels": {str(i): lab for i, lab in enumerate(problem._label) if lab is not None},
        "payoffs": dict(problem.payoffs) if problem.payoffs is not None else None,
    }, indent=indent)
    if indent is None:
        outer = inner = ("[", ", ", "]")
    else:  # json.dumps's layout: one item a line, indented by nesting level
        step = indent if isinstance(indent, str) else " " * indent
        outer = ("[\n" + step * 2, ",\n" + step * 2, "\n" + step + "]")
        inner = ("[\n" + step * 3, ",\n" + step * 3, "\n" + step * 2 + "]")
    first, sep, close = inner
    hist = problem.histories
    texts = ["[]"] * len(hist)
    for parent, kids in enumerate(problem._kids):
        if not kids:
            continue
        head = first if parent == 0 else texts[parent][:-len(close)] + sep
        for child in kids:
            a = hist[child][-1]
            texts[child] = head + (str(a) if type(a) is int else json.dumps(a)) + close
    before, _, after = rest.partition('"histories": 0')  # the first key
    return before + '"histories": ' + outer[0] + outer[1].join(texts) + outer[2] + after


def _is_int_type(t: type) -> bool:
    return issubclass(t, int) and not issubclass(t, bool)


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """json's object_pairs_hook: an object, refused when it names a key twice."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError(f"a JSON object names the key {key!r} twice")
        doc[key] = value
    return doc


def problem_from_json(text: str) -> DecisionProblem:
    """Inverse of problem_to_json, for a document in which no object repeats a
    key; a malformed document raises ValueError."""
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except RecursionError:
        raise ValueError("the JSON document nests too deeply to parse") from None
    if not (isinstance(doc, Mapping) and isinstance(doc.get("histories"), list)
            and isinstance(doc.get("partition"), list) and isinstance(doc.get("labels"), Mapping)
            and all(isinstance(x, list) for x in doc["histories"] + doc["partition"])
            and all(map(_is_int_type, set(map(type, chain.from_iterable(doc["histories"])))))
            and (doc.get("payoffs") is None or isinstance(doc["payoffs"], Mapping)
                 and all(isinstance(v, (int, float)) and not isinstance(v, bool)
                         for v in doc["payoffs"].values()))):
        raise ValueError("a problem is a JSON object: 'histories' lists of integer actions, "
                         "'partition' lists of history indices, 'labels' and 'payoffs' objects "
                         "(payoffs numbers)")
    histories = [tuple(h) for h in doc["histories"]]

    def history(i) -> History:
        if not (_is_int_type(type(i)) and 0 <= i < len(histories)):
            raise ValueError(f"history index {i!r} is not an integer in 0..{len(histories) - 1}")
        return histories[i]

    if not all(isinstance(lab, str) for lab in doc["labels"].values()):
        raise ValueError("labels must be strings")
    # label keys are strings (JSON object keys); partition members are integers
    labels = {history(int(i) if isinstance(i, str) and i.isdecimal() else i): lab
              for i, lab in doc["labels"].items()}
    if len(labels) < len(doc["labels"]):
        raise ValueError("two label keys name the same history (as \"1\" and \"01\" do)")
    return DecisionProblem(
        histories=tuple(histories),
        terminal_labels=labels,
        info_partition=tuple(tuple(history(i) for i in cell) for cell in doc["partition"]),
        payoffs=doc.get("payoffs"),
    )
