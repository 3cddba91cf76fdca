"""Structural comparison of two machines.

Produces a diff machine whose states and transitions are annotated
unchanged, added or removed. Three phases: similarity scoring with an
attenuation-damped fixed point, landmark-seeded state matching, and diff
construction from the matching.

The local score of a state pair is the mean of the Jaccard overlaps of
their outgoing and incoming label sets (Jaccard of two empty sets is 1).
Global scores iterate

    S'(p, q) = (1 - k) * S0(p, q) + k/2 * (succ_avg(p, q) + pred_avg(p, q))

where succ_avg averages, over each outgoing event both states share, the
best current score among pairs of successors on that event (and is S0(p, q)
when they share none); pred_avg mirrors this on predecessors; k is the
attenuation. The map is a contraction for k < 1, so the iteration converges
and is cut off at a max-norm change of convergence_epsilon.

The iteration runs on a flat list of floats. A pair whose states share no
outgoing and no incoming event is constant after the first step and is
computed once. Every other pair has one term per event its states share, on
each side: the score of a neighbour pair, or the maximum of a group of
several. Each side reads one slot: its single term's, a derived slot that
holds the mean of two or more terms, or, for a side with no terms, the
pair's own S0 from a parallel list. A step first refreshes the derived
slots, the group maxima and then the means, folding their terms column by
column, left to right, column i holding term i of every row. Then it
computes the changing pairs, one comprehension per side pattern: both
sides, successors only, predecessors only. Each product and sum is
evaluated in the formula's order, so the scores equal the dense n x m
iteration's on every Python version. The stopping test first reads a
witness, the pair that changed most in the last full pass: while its change
exceeds the epsilon, so does the max-norm. Only otherwise does a full pass
read every change, which also picks the next witness, so the iteration
stops at the dense iteration's step.
"""

from __future__ import annotations

import enum
import heapq
import math
from collections import Counter
from dataclasses import dataclass
from operator import add, indexOf, sub, truediv
from typing import Iterator, NamedTuple

from .automata import Nfa

__all__ = [
    "Change",
    "DiffMachine",
    "DiffParams",
    "DiffState",
    "DiffStats",
    "DiffTransition",
    "Matching",
    "ScoreTable",
    "build_diff",
    "compute_matching",
    "diff",
    "diff_stats",
    "global_scores",
    "select_landmarks",
]


@dataclass(frozen=True)
class DiffParams:
    """Tuning knobs for structural comparison; all have sensible defaults."""

    attenuation: float = 0.5
    convergence_epsilon: float = 1e-9
    max_iterations: int = 1000
    landmark_fraction: float = 0.25
    landmark_ratio: float = 1.5

    def __post_init__(self) -> None:
        if not 0.0 < self.attenuation < 1.0:
            raise ValueError("attenuation must be in (0, 1)")
        # Written as "not (x >= bound)" so that NaN, which fails every
        # comparison, is rejected too.
        if not self.convergence_epsilon >= 0.0:
            raise ValueError("convergence_epsilon must be non-negative")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if not 0.0 < self.landmark_fraction <= 1.0:
            raise ValueError("landmark_fraction must be in (0, 1]")
        if not 1.0 <= self.landmark_ratio < math.inf:
            raise ValueError("landmark_ratio must be finite and at least 1")


@dataclass(frozen=True)
class ScoreTable:
    """Dense similarity scores for all state pairs of two machines.

    ``left`` and ``right`` list each machine's states sorted, so index order
    is name order: the ranking of pairs relies on it and refuses other tables.
    """

    left: tuple[str, ...]
    right: tuple[str, ...]
    values: tuple[tuple[float, ...], ...]

    def transposed(self) -> "ScoreTable":
        cols = tuple(
            tuple(self.values[i][j] for i in range(len(self.left))) for j in range(len(self.right))
        )
        return ScoreTable(self.right, self.left, cols)


Matching = frozenset[tuple[str, str]]


class Change(str, enum.Enum):
    UNCHANGED = "unchanged"
    ADDED = "added"
    REMOVED = "removed"


@dataclass(frozen=True)
class DiffState:
    """A diff-machine state with provenance.

    Unchanged states carry both source names, removed ones only the left
    (first machine) name, added ones only the right name. ``initial`` and
    ``accepting`` record how membership in the respective sets changed
    (None when the state is in neither machine's set).
    """

    left: str | None
    right: str | None
    change: Change
    initial: Change | None
    accepting: Change | None

    @property
    def key(self) -> tuple[str | None, str | None]:
        return (self.left, self.right)


@dataclass(frozen=True)
class DiffTransition:
    source: tuple[str | None, str | None]
    event: str
    target: tuple[str | None, str | None]
    change: Change


@dataclass(frozen=True)
class DiffMachine:
    """Annotated structural difference between two machines.

    Restricting to unchanged+removed elements reproduces the first input,
    restricting to unchanged+added the second.
    """

    states: tuple[DiffState, ...]
    transitions: tuple[DiffTransition, ...]


class DiffStats(NamedTuple):
    added_transitions: int
    removed_transitions: int
    added_states: int
    removed_states: int


def _neighbours(
    machine: Nfa, states: tuple[str, ...]
) -> tuple[list[dict[str, list[int]]], list[dict[str, list[int]]]]:
    """Per state index: event -> successor indices, and event -> predecessor indices."""
    idx = {s: i for i, s in enumerate(states)}
    succ: list[dict[str, list[int]]] = [{} for _ in states]
    pred: list[dict[str, list[int]]] = [{} for _ in states]
    for src, event, dst in sorted(machine.transitions):
        succ[idx[src]].setdefault(event, []).append(idx[dst])
        pred[idx[dst]].setdefault(event, []).append(idx[src])
    return succ, pred


def _pair_groups(x: list[dict[str, list[int]]], y: list[dict[str, list[int]]]) -> list:
    """Neighbour groups of the pairs of states of x and y, by flat index.

    Pair (i, j) has flat index i * len(y) + j. Its entry lists, per event
    that both states have, in event order, the flat index of the pair of
    their neighbours on that event, or a tuple of them if there are several.
    Pairs that share no event have None.
    """
    m = len(y)

    def by_event(adjacency):
        states: dict[str, list[tuple[int, list[int]]]] = {}
        for i, neighbours in enumerate(adjacency):
            for event, targets in neighbours.items():
                states.setdefault(event, []).append((i, targets))
        return states

    x_by_event, y_by_event = by_event(x), by_event(y)
    groups: list = [None] * (len(x) * m)
    for event in sorted(x_by_event.keys() & y_by_event.keys()):
        ys = y_by_event[event]
        for i, ti in x_by_event[event]:
            for j, tj in ys:
                if len(ti) == len(tj) == 1:
                    group = ti[0] * m + tj[0]
                else:
                    group = tuple(pi * m + qi for pi in ti for qi in tj)
                f = i * m + j
                if groups[f] is None:
                    groups[f] = [group]
                else:
                    groups[f].append(group)
    return groups


def _jaccard(shared: int, na: int, nb: int) -> float:
    """Jaccard overlap of two label sets of sizes na and nb with `shared` in common."""
    if not na and not nb:
        return 1.0
    return shared / (na + nb - shared)


def _pair_tables(
    a: Nfa, b: Nfa
) -> tuple[tuple[str, ...], tuple[str, ...], list[float], list, list]:
    """State orders, flat local scores and flat successor and predecessor groups."""
    left = tuple(sorted(a.states))
    right = tuple(sorted(b.states))
    succ_a, pred_a = _neighbours(a, left)
    succ_b, pred_b = _neighbours(b, right)
    succ_groups = _pair_groups(succ_a, succ_b)
    pred_groups = _pair_groups(pred_a, pred_b)
    labels_b = [(len(sb), len(pb)) for sb, pb in zip(succ_b, pred_b)]
    s0 = []
    f = 0
    for sa, pa in zip(succ_a, pred_a):
        na_out, na_in = len(sa), len(pa)
        for nb_out, nb_in in labels_b:
            shared_out = len(succ_groups[f] or ())
            shared_in = len(pred_groups[f] or ())
            s0.append(
                0.5 * (_jaccard(shared_out, na_out, nb_out) + _jaccard(shared_in, na_in, nb_in))
            )
            f += 1
    return left, right, s0, succ_groups, pred_groups


def _rows(flat: list[float], n: int, m: int) -> tuple[tuple[float, ...], ...]:
    return tuple(tuple(flat[i * m : (i + 1) * m]) for i in range(n))


class _Rows:
    """Derived slots, one per row of terms, numbered from ``start`` longest row first.

    ``columns[i]`` holds term i of every row of more than i terms. Those rows
    come first, so each column covers a prefix of the rows, and ``sizes``
    holds each row's number of terms.
    """

    def __init__(self, lengths: Counter, start: int) -> None:
        self.start = start
        self.next_slot: dict[int, int] = {}
        self.sizes: list[int] = []
        for n in sorted(lengths, reverse=True):
            self.next_slot[n] = start + len(self.sizes)
            self.sizes += [n] * lengths[n]
        self.columns = [
            [0] * sum(count for n, count in lengths.items() if n > i)
            for i in range(max(lengths, default=0))
        ]

    def add(self, row: list[int]) -> int:
        slot = self.next_slot[len(row)]
        self.next_slot[len(row)] = slot + 1
        for column, entry in zip(self.columns, row):
            column[slot - self.start] = entry
        return slot


def global_scores(a: Nfa, b: Nfa, params: DiffParams) -> ScoreTable:
    """Fixed point of the damped neighborhood recurrence seeded by local scores."""
    left, right, s0, succ_groups, pred_groups = _pair_tables(a, b)

    # The value list holds the pairs that change, those with terms on both sides,
    # then successor terms only, then predecessor terms only; then the pairs that
    # share no event (constant after the first step); then the derived slots,
    # refreshed at the start of each step: the maximum of every group of several
    # pairs, then the mean of every side of two or more terms.
    both: list[int] = []
    succ_only: list[int] = []
    pred_only: list[int] = []
    constant: list[int] = []
    for f, (sg, pg) in enumerate(zip(succ_groups, pred_groups)):
        if sg:
            (both if pg else succ_only).append(f)
        else:
            (pred_only if pg else constant).append(f)
    order = both + succ_only + pred_only + constant
    pos = [0] * len(s0)
    for p, f in enumerate(order):
        pos[f] = p

    sides = [side for groups in (succ_groups, pred_groups) for side in groups if side]
    groups = Counter(len(g) for side in sides for g in side if type(g) is tuple)
    maxima = _Rows(groups, len(s0))
    means = _Rows(Counter(len(side) for side in sides if len(side) > 1), len(s0) + groups.total())
    del sides

    def slot(side: list) -> int:
        terms = [pos[g] if type(g) is int else maxima.add([pos[h] for h in g]) for g in side]
        return terms[0] if len(terms) == 1 else means.add(terms)

    # k * 0.5 * x evaluates as (k * 0.5) * x, so hoisting both constants
    # keeps every float of the recurrence in the module docstring.
    k = params.attenuation
    half = k * 0.5
    eps = params.convergence_epsilon
    static = [(1.0 - k) * s0[f] + half * (s0[f] + s0[f]) for f in constant]
    static_delta = max((abs(v - s0[f]) for v, f in zip(static, constant)), default=0.0)
    # Per side pattern: each pair's (1 - k) * S0, and each side's slot, or the
    # pair's own S0 for a side with no terms.
    both_c = [(1.0 - k) * s0[f] for f in both]
    both_x = [slot(succ_groups[f]) for f in both]
    both_y = [slot(pred_groups[f]) for f in both]
    succ_y = [s0[f] for f in succ_only]
    succ_c = [(1.0 - k) * x for x in succ_y]
    succ_x = [slot(succ_groups[f]) for f in succ_only]
    pred_x = [s0[f] for f in pred_only]
    pred_c = [(1.0 - k) * x for x in pred_x]
    pred_y = [slot(pred_groups[f]) for f in pred_only]
    current = [s0[f] for f in order]
    max_columns, mean_columns, sizes = maxima.columns, means.columns, means.sizes
    # Free the setup tables before the steps allocate their lists.
    del succ_groups, pred_groups, both, succ_only, pred_only, constant, order, maxima, means
    witness = None
    for _ in range(params.max_iterations):
        get = current.__getitem__
        # Each column folds into the prefix of the rows it covers, left to
        # right. max() keeps the first of equal maxima, and so does y > x;
        # not sum(), which compensates float rounding from Python 3.12.
        if max_columns:
            best = list(map(get, max_columns[0]))
            for column in max_columns[1:]:
                best[: len(column)] = [y if y > x else x for x, y in zip(best, map(get, column))]
            current += best
        if mean_columns:
            total = list(map(get, mean_columns[0]))
            for column in mean_columns[1:]:
                total[: len(column)] = map(add, total, map(get, column))
            current += map(truediv, total, sizes)
        nxt = [c + half * (x + y) for c, x, y in zip(both_c, map(get, both_x), map(get, both_y))]
        nxt += [c + half * (x + y) for c, x, y in zip(succ_c, map(get, succ_x), succ_y)]
        nxt += [c + half * (x + y) for c, x, y in zip(pred_c, pred_x, map(get, pred_y))]
        # The witness is the pair that changed most in the last full pass: while
        # its change exceeds eps, so does the max-norm, and no full pass is run.
        if witness is not None and abs(nxt[witness] - current[witness]) > eps:
            current = nxt + static
            continue
        delta = max(map(abs, map(sub, nxt, current)), default=0.0)
        if delta > eps:
            witness = indexOf(map(abs, map(sub, nxt, current)), delta)
        current = nxt + static
        if max(static_delta, delta) <= eps:
            break
        static_delta = 0.0
    flat = list(map(current.__getitem__, pos))
    return ScoreTable(left, right, _rows(flat, len(left), len(right)))


def _flat_scores(scores: ScoreTable, a: Nfa, b: Nfa) -> list[float]:
    """The scores by flat index i * len(right) + j, whose order is name order."""
    if scores.left != tuple(sorted(a.states)) or scores.right != tuple(sorted(b.states)):
        raise ValueError("score table must list each machine's states, sorted")
    return [v for row in scores.values for v in row]


def select_landmarks(scores: ScoreTable, a: Nfa, b: Nfa, params: DiffParams) -> Matching:
    """High-confidence seed pairs: top scorers that dominate their row and column.

    Falls back to the pair of (lexicographically smallest) initial states
    when no pair qualifies.
    """
    flat = _flat_scores(scores, a, b)
    values = scores.values
    m = len(scores.right)
    n_top = math.ceil(params.landmark_fraction * min(len(scores.left), m))
    selected: list[tuple[int, int]] = []
    used_left: set[int] = set()
    used_right: set[int] = set()
    # nlargest keeps equal scores in index order, which is name order.
    for f in heapq.nlargest(n_top, range(len(flat)), key=flat.__getitem__):
        i, j = divmod(f, m)
        score = flat[f]
        if score <= 0.0:
            continue
        row_ok = all(score >= params.landmark_ratio * values[i][j2] for j2 in range(m) if j2 != j)
        col_ok = all(
            score >= params.landmark_ratio * values[i2][j]
            for i2 in range(len(scores.left))
            if i2 != i
        )
        if not (row_ok and col_ok):
            continue
        if i in used_left or j in used_right:
            continue
        selected.append((i, j))
        used_left.add(i)
        used_right.add(j)
    if selected:
        return frozenset((scores.left[i], scores.right[j]) for i, j in selected)
    if a.initial and b.initial:
        return frozenset({(min(a.initial), min(b.initial))})
    return frozenset()


def _check_matching(matching: Matching, a: Nfa, b: Nfa) -> None:
    """Refuse a matching that is not injective or that names a state its machine lacks."""
    lefts = [p for p, _ in matching]
    rights = [q for _, q in matching]
    if len(set(lefts)) != len(lefts) or len(set(rights)) != len(rights):
        raise ValueError("matching must be injective in both coordinates")
    for p, q in matching:
        if p not in a.states or q not in b.states:
            raise ValueError(f"matching pair ({p!r}, {q!r}) references unknown states")


def compute_matching(a: Nfa, b: Nfa, scores: ScoreTable, landmarks: Matching) -> Matching:
    """Grow the landmark matching outward along shared events.

    Neighbor pairs of already-matched pairs are preferred; when none remain
    addable, the best unmatched pair with a positive score anywhere in the
    table is taken, and growth resumes from there. "Best" is the higher
    score, then the pair's flat index in the table, which is name order.
    """
    _check_matching(landmarks, a, b)
    flat = _flat_scores(scores, a, b)
    left, right = scores.left, scores.right
    m = len(right)
    lidx = {s: i for i, s in enumerate(left)}
    ridx = {s: j for j, s in enumerate(right)}
    succ_a, pred_a = _neighbours(a, left)
    succ_b, pred_b = _neighbours(b, right)

    matched: list[tuple[int, int]] = sorted((lidx[p], ridx[q]) for p, q in landmarks)
    used_left = {i for i, _ in matched}
    used_right = {j for _, j in matched}
    # A used state stays used, so a pair that is not free now never will
    # be: the pool heap of (-score, flat index) drops such pairs when they
    # surface, and the ranking of all pairs is walked once.
    pool: list[tuple[float, int]] = []

    def free(i: int, j: int) -> bool:
        return i not in used_left and j not in used_right

    def expand(i: int, j: int) -> None:
        for x, y in ((succ_a[i], succ_b[j]), (pred_a[i], pred_b[j])):
            for event in x.keys() & y.keys():
                for pi in x[event]:
                    for qi in y[event]:
                        if free(pi, qi):
                            f = pi * m + qi
                            heapq.heappush(pool, (-flat[f], f))

    for i, j in matched:
        expand(i, j)

    ranking: Iterator[int] | None = None
    while True:
        while pool and not free(*divmod(pool[0][1], m)):
            heapq.heappop(pool)
        if pool:
            i, j = divmod(heapq.heappop(pool)[1], m)
        else:
            # No pair is free once one side is fully matched; stopping here
            # spares the sort in the common case.
            if len(used_left) == len(left) or len(used_right) == len(right):
                break
            if ranking is None:
                # A stable reverse sort keeps equal scores in name order.
                ranking = iter(sorted(range(len(flat)), key=flat.__getitem__, reverse=True))
            f = next((f for f in ranking if free(*divmod(f, m))), None)
            if f is None or flat[f] <= 0.0:  # no free pair with a positive score
                break
            i, j = divmod(f, m)
        matched.append((i, j))
        used_left.add(i)
        used_right.add(j)
        expand(i, j)

    return frozenset((left[i], right[j]) for i, j in matched)


def _membership_change(in_a: bool, in_b: bool) -> Change | None:
    if in_a and in_b:
        return Change.UNCHANGED
    if in_a:
        return Change.REMOVED
    if in_b:
        return Change.ADDED
    return None


def _key_order(key: tuple[str | None, str | None]) -> tuple:
    """Sort key of a diff-state key: by left name, then right, a missing name last."""
    left, right = key
    return (left is None, left or "", right is None, right or "")


def build_diff(a: Nfa, b: Nfa, matching: Matching) -> DiffMachine:
    """Assemble the annotated diff machine for a given state matching.

    A diff state is a matched pair, an unmatched state of ``a`` with ``None``
    on the right, or ``None`` with an unmatched state of ``b``. ``None`` is
    in no state set, so one membership rule marks each state's presence and
    its initial and accepting flags.
    """
    _check_matching(matching, a, b)
    to_b = dict(matching)
    to_a = {q: p for p, q in matching}
    keys = [
        *matching,
        *((p, None) for p in a.states - to_b.keys()),
        *((None, q) for q in b.states - to_a.keys()),
    ]
    states = [
        DiffState(
            p,
            q,
            _membership_change(p is not None, q is not None),
            _membership_change(p in a.initial, q in b.initial),
            _membership_change(p in a.accepting, q in b.accepting),
        )
        for p, q in keys
    ]

    transitions: list[DiffTransition] = []
    for p, event, pt in a.transitions:
        q, qt = to_b.get(p), to_b.get(pt)
        change = Change.UNCHANGED if (q, event, qt) in b.transitions else Change.REMOVED
        transitions.append(DiffTransition((p, q), event, (pt, qt), change))
    for q, event, qt in b.transitions:
        p, pt = to_a.get(q), to_a.get(qt)
        if (p, event, pt) not in a.transitions:
            transitions.append(DiffTransition((p, q), event, (pt, qt), Change.ADDED))

    return DiffMachine(
        tuple(sorted(states, key=lambda s: _key_order(s.key))),
        tuple(
            sorted(
                transitions,
                key=lambda t: (_key_order(t.source), t.event, _key_order(t.target), t.change.value),
            )
        ),
    )


def diff(a: Nfa, b: Nfa, params: DiffParams | None = None) -> DiffMachine:
    """Full structural comparison pipeline: score, match, build."""
    params = params or DiffParams()
    scores = global_scores(a, b, params)
    landmarks = select_landmarks(scores, a, b, params)
    matching = compute_matching(a, b, scores, landmarks)
    return build_diff(a, b, matching)


def diff_stats(machine: DiffMachine) -> DiffStats:
    """Counts of annotated elements (unchanged ones are not counted)."""
    return DiffStats(
        added_transitions=sum(t.change is Change.ADDED for t in machine.transitions),
        removed_transitions=sum(t.change is Change.REMOVED for t in machine.transitions),
        added_states=sum(s.change is Change.ADDED for s in machine.states),
        removed_states=sum(s.change is Change.REMOVED for s in machine.states),
    )
