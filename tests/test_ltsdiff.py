"""Structural comparison tests: scores, landmarks, matching, diff machines."""

import hashlib
import math
import random
from collections import Counter

import pytest

from fsmcompare import (
    Change,
    DiffParams,
    Nfa,
    ScoreTable,
    build_bundle,
    build_diff,
    compute_matching,
    diff,
    diff_stats,
    global_scores,
    parse_nfa,
    select_landmarks,
)
from fsmcompare.ltsdiff import _pair_tables

from conftest import (
    DATA_DIR,
    build_nfa,
    fig2_machines,
    local_scores,
    oracle_build_diff,
    oracle_compute_matching,
    oracle_global_scores,
    oracle_score_steps,
    oracle_select_landmarks,
    random_nfa,
    running_example_machines,
    score,
)

MACHINES = running_example_machines()
E1 = MACHINES["S1"]["E1"]
E2_B = MACHINES["S3"]["E2"]
E2_C = MACHINES["S4"]["E2"]


def restrict(machine, keep):
    """Project a diff machine onto one input via provenance (left or right)."""
    side = 0 if Change.REMOVED in keep else 1
    states = [s for s in machine.states if s.change in keep]
    names = frozenset((s.left, s.right)[side] for s in states)
    transitions = frozenset(
        (t.source[side], t.event, t.target[side])
        for t in machine.transitions
        if t.change in keep
    )
    initial = frozenset((s.left, s.right)[side] for s in states if s.initial in keep)
    accepting = frozenset((s.left, s.right)[side] for s in states if s.accepting in keep)
    return names, transitions, initial, accepting


def assert_projections(machine, a, b):
    names, trans, initial, accepting = restrict(machine, {Change.UNCHANGED, Change.REMOVED})
    assert names == a.states
    assert trans == a.transitions
    assert initial == a.initial
    assert accepting == a.accepting
    names, trans, initial, accepting = restrict(machine, {Change.UNCHANGED, Change.ADDED})
    assert names == b.states
    assert trans == b.transitions
    assert initial == b.initial
    assert accepting == b.accepting


class TestLocalScores:
    def test_identical_label_sets_score_one(self):
        scores = local_scores(E1, E1)
        assert score(scores, "s1", "s1") == 1.0

    def test_disjoint_out_vacuous_in(self):
        a = build_nfa(transitions=[("p", "a", "q")], initial=["p"])
        b = build_nfa(transitions=[("x", "b", "y")], initial=["x"])
        assert score(local_scores(a, b), "p", "x") == 0.5

    def test_fig2_initial_states(self):
        # out {a} vs {a} is 1, in {d} vs {e} is 0, mean 0.5
        source, target = fig2_machines()
        assert score(local_scores(source, target), "s1", "s1") == 0.5


class TestGlobalScores:
    def test_tiny_attenuation_collapses_to_local(self):
        source, target = fig2_machines()
        local = local_scores(source, target)
        tiny = global_scores(source, target, DiffParams(attenuation=1e-12))
        for i in range(len(local.left)):
            for j in range(len(local.right)):
                assert abs(local.values[i][j] - tiny.values[i][j]) < 1e-9

    def test_diagonal_is_strict_row_maximum_on_self_comparison(self):
        scores = global_scores(E1, E1, DiffParams())
        for i, row in enumerate(scores.values):
            assert row[i] == max(row)
            assert sum(1 for v in row if v == row[i]) == 1

    def test_fig2_shared_cycle_outscores_removed_state(self):
        source, target = fig2_machines()
        scores = global_scores(source, target, DiffParams())
        shared = [score(scores, p, q) for p, q in [("s1", "s1"), ("s2", "s2"), ("s3", "s3")]]
        cross = [score(scores, "s4", q) for q in sorted(target.states)]
        assert min(shared) > max(cross)

    def test_symmetry_is_exact(self):
        rng = random.Random(23)
        for _ in range(30):
            a = random_nfa(rng, max_states=5)
            b = random_nfa(rng, max_states=5)
            forward = global_scores(a, b, DiffParams())
            backward = global_scores(b, a, DiffParams())
            assert forward.values == backward.transposed().values

    def test_max_norm_change_is_non_increasing(self):
        source, target = fig2_machines()
        tables = [
            global_scores(source, target, DiffParams(convergence_epsilon=0.0, max_iterations=t))
            for t in range(1, 8)
        ]

        def norm(x, y):
            return max(
                abs(a - b) for ra, rb in zip(x.values, y.values) for a, b in zip(ra, rb)
            )

        deltas = [norm(tables[t], tables[t + 1]) for t in range(len(tables) - 1)]
        assert all(d2 <= d1 + 1e-12 for d1, d2 in zip(deltas, deltas[1:]))

    def test_scores_stay_in_unit_interval(self):
        rng = random.Random(29)
        for _ in range(20):
            a = random_nfa(rng, max_states=6)
            b = random_nfa(rng, max_states=6)
            scores = global_scores(a, b, DiffParams())
            assert all(0.0 <= v <= 1.0 for row in scores.values for v in row)


def event_rich_nfa(rng: random.Random, max_states: int = 8, targets=(1, 1, 1, 2)) -> Nfa:
    """Most states have most of eight events, each with a number of targets
    drawn from ``targets`` (a few with two by default), so pairs share
    several events and summation order shows in the low bits. About a third
    of the states have no outgoing transitions."""
    states = [f"s{i}" for i in range(rng.randint(1, max_states))]
    transitions = set()
    for state in states:
        density = rng.choice([0.0, 0.6, 0.6])
        for event in "abcdefgh":
            if rng.random() < density:
                for _ in range(rng.choice(targets)):
                    transitions.add((state, event, rng.choice(states)))
    return build_nfa(
        transitions=transitions,
        initial=states[:1],
        accepting=states[: len(states) // 3],
        states=states,
    )


def oracle_pairs(seed: int, count: int):
    """Seeded pairs, alternately from random_nfa and event_rich_nfa; every
    third pair compares a machine with itself, where scores tie."""
    rng = random.Random(seed)
    for n in range(count):
        make = event_rich_nfa if n % 2 else random_nfa
        a, b = make(rng), make(rng)
        yield (a, a) if n % 3 == 0 else (a, b)


def stepping_sample():
    """Three pairs of small machines with up to three targets per event, in
    both argument orders: their groups hold 2, 3, 4 and more pairs."""
    rng = random.Random(64)
    pairs = [
        (event_rich_nfa(rng, 6, (1, 2, 3)), event_rich_nfa(rng, 6, (1, 2, 3))) for _ in range(3)
    ]
    return [pair for a, b in pairs for pair in ((a, b), (b, a))]


def converged_sample():
    """``oracle_pairs(41, 60)``, ten pairs of event-rich machines of up to 16
    states and ``stepping_sample()``, each pair in both argument orders."""
    rng = random.Random(47)
    larger = [(event_rich_nfa(rng, 16), event_rich_nfa(rng, 16)) for _ in range(10)]
    pairs = [*oracle_pairs(41, 60), *larger]
    return [*pairs, *((b, a) for a, b in pairs), *stepping_sample()]


def has_lone_state(machine):
    touched = {s for src, _, dst in machine.transitions for s in (src, dst)}
    return bool(machine.states - touched)


def has_multi_target(machine):
    targets = {}
    for src, event, dst in machine.transitions:
        targets.setdefault((src, event), set()).add(dst)
    return any(len(t) > 1 for t in targets.values())


class TestScoresAgainstDenseOracle:
    """The sparse iteration must give exactly the dense iteration's floats."""

    def test_pair_sample_covers_lone_states_and_multi_member_groups(self):
        machines = [m for pair in oracle_pairs(41, 60) for m in pair]
        assert any(has_lone_state(m) for m in machines)
        assert any(has_multi_target(m) for m in machines)

    def test_pair_sample_covers_every_kind_of_shape(self):
        """A changing pair has terms on both sides, on its successor side
        only or on its predecessor side only; each sample has pairs of every
        such pattern, sides of three or more terms, and terms that read the
        maximum of 2, 3, and 4 or more neighbour pairs."""
        for sample in (converged_sample(), stepping_sample()):
            patterns, long_sides, group_sizes = Counter(), 0, set()
            for a, b in sample:
                _, _, _, succ_groups, pred_groups = _pair_tables(a, b)
                for sg, pg in zip(succ_groups, pred_groups):
                    patterns[bool(sg), bool(pg)] += 1
                    for side in (sg or [], pg or []):
                        long_sides += len(side) >= 3
                        group_sizes |= {len(g) for g in side if isinstance(g, tuple)}
            assert all(patterns[p] > 1 for p in [(True, True), (True, False), (False, True)])
            assert long_sides > 1
            assert {2, 3} <= group_sizes and max(group_sizes) >= 4

    @pytest.mark.parametrize("attenuation", [1e-12, 0.1, 0.3, 0.5, 0.9])
    def test_converged_tables_are_equal(self, attenuation):
        params = DiffParams(attenuation=attenuation)
        for a, b in converged_sample():
            assert global_scores(a, b, params) == oracle_global_scores(a, b, params)
        # Every step up to convergence, so the step at which the iteration
        # stops is the oracle's: each max_iterations up to it, and an epsilon
        # equal to the exact max-norm change of each step, which must stop
        # the iteration at the first step that changed no more. One walk of
        # the oracle's steps gives every expected table.
        for a, b in stepping_sample():
            oracle = oracle_score_steps(a, b, attenuation)
            next(oracle)  # S0
            walked = []  # each step's table and change so far
            for steps, (expected, change) in enumerate(oracle, start=1):
                capped = DiffParams(attenuation, max_iterations=steps)
                assert global_scores(a, b, capped) == expected
                walked.append((expected, change))
                exact = DiffParams(attenuation, convergence_epsilon=change, max_iterations=steps + 1)
                assert global_scores(a, b, exact) == next(t for t, c in walked if c <= change)
                if change <= params.convergence_epsilon:
                    break

    @pytest.mark.parametrize("steps", [1, 2, 3, 4, 5])
    def test_truncated_iterations_are_equal(self, steps):
        for attenuation in (0.3, 0.5):
            params = DiffParams(attenuation, convergence_epsilon=0.0, max_iterations=steps)
            for a, b in oracle_pairs(43, 30):
                assert global_scores(a, b, params) == oracle_global_scores(a, b, params)

    def test_empty_machine(self):
        params = DiffParams(attenuation=0.3)
        for a, b in [(Nfa.empty(), E1), (E1, Nfa.empty()), (Nfa.empty(), Nfa.empty())]:
            assert global_scores(a, b, params) == oracle_global_scores(a, b, params)

    def test_running_example_pairs(self):
        machines = [m for models in MACHINES.values() for m in models.values()]
        for a in machines:
            for b in machines:
                assert global_scores(a, b, DiffParams()) == oracle_global_scores(a, b, DiffParams())

    def test_sums_fold_left_to_right_on_every_python(self):
        # The digest was recorded with sides summed left to right. Since Python
        # 3.12, sum() of floats compensates its rounding, which changes the low
        # bits of these event-rich pairs' scores.
        rng = random.Random(53)
        pairs = [(event_rich_nfa(rng), event_rich_nfa(rng)) for _ in range(20)]
        params = DiffParams(attenuation=0.5)
        tables = [global_scores(a, b, params) for a, b in pairs]
        assert tables == [oracle_global_scores(a, b, params) for a, b in pairs]
        digest = hashlib.sha256(repr([t.values for t in tables]).encode()).hexdigest()
        assert digest == "e0b8dc730558046490e849a7f05f00b9e7acc0e364952a1230f35c6e4aeca2f0"


class TestMatchingAgainstScanOracle:
    def test_grown_from_selected_landmarks(self):
        params = DiffParams()
        for a, b in oracle_pairs(47, 80):
            scores = global_scores(a, b, params)
            landmarks = select_landmarks(scores, a, b, params)
            assert compute_matching(a, b, scores, landmarks) == oracle_compute_matching(
                a, b, scores, landmarks
            )

    def test_grown_from_arbitrary_landmarks(self):
        # No landmarks starts on the fallback; random ones start anywhere.
        rng = random.Random(53)
        params = DiffParams(attenuation=0.9)
        for a, b in oracle_pairs(53, 80):
            scores = global_scores(a, b, params)
            rights = rng.sample(sorted(b.states), rng.randint(0, min(len(a.states), len(b.states))))
            landmarks = frozenset(zip(rng.sample(sorted(a.states), len(rights)), rights))
            for seeds in (frozenset(), landmarks):
                assert compute_matching(a, b, scores, seeds) == oracle_compute_matching(
                    a, b, scores, seeds
                )


def tied_score_table(rng: random.Random) -> ScoreTable:
    """Few distinct values, so most ranks are decided by names; the names are
    a sorted sample, so ``p10`` comes before ``p2``."""
    n, m = rng.randint(0, 9), rng.randint(0, 9)
    left = tuple(sorted(rng.sample([f"p{i}" for i in range(20)], n)))
    right = tuple(sorted(rng.sample([f"q{i}" for i in range(20)], m)))
    levels = (0.0, 0.25, 0.5, 1.0, rng.random())
    return ScoreTable(left, right, tuple(tuple(rng.choice(levels) for _ in right) for _ in left))


def bare_machine(rng: random.Random, states) -> Nfa:
    """A machine with the given states, no transitions and up to two initial states."""
    return build_nfa(initial=rng.sample(states, min(len(states), rng.randint(0, 2))), states=states)


class TestSelectLandmarks:
    def test_ranked_pairs_and_their_prefixes_follow_score_then_names(self):
        # The oracles rank by (-score, left name, right name). The machines
        # of a tied table have no transitions, so every matching pick after
        # the landmarks is a fallback pick that the ranking decides.
        rng = random.Random(59)
        cases = []
        for _ in range(200):
            scores = tied_score_table(rng)
            cases.append((scores, bare_machine(rng, scores.left), bare_machine(rng, scores.right)))
        for a, b in oracle_pairs(59, 40):
            cases.append((global_scores(a, b, DiffParams()), a, b))
        for fraction, ratio in ((0.25, 1.5), (1.0, 1.5), (0.25, 1.0), (1.0, 1.0)):
            params = DiffParams(landmark_fraction=fraction, landmark_ratio=ratio)
            for scores, a, b in cases:
                landmarks = select_landmarks(scores, a, b, params)
                assert landmarks == oracle_select_landmarks(scores, a, b, params)
                assert compute_matching(a, b, scores, landmarks) == oracle_compute_matching(
                    a, b, scores, landmarks
                )

    def test_refuses_a_table_that_is_not_its_machines_sorted(self):
        # The first table lists q, which b lacks, and used to yield the pair
        # (q, q); the second lists a's states out of order.
        a = build_nfa(transitions=[("p", "x", "q")])
        b = build_nfa(states=["p"])
        other_machines = (global_scores(a, a, DiffParams()), a, b)
        unsorted = (ScoreTable(("q", "p"), ("q", "p"), ((1.0, 0.0), (0.0, 1.0))), a, a)
        for scores, x, y in (other_machines, unsorted):
            with pytest.raises(ValueError, match="score table"):
                select_landmarks(scores, x, y, DiffParams())
            with pytest.raises(ValueError, match="score table"):
                compute_matching(x, y, scores, frozenset())

    def test_identical_two_state_line_selects_both_diagonal_pairs(self):
        line = build_nfa(transitions=[("p", "x", "q")], initial=["p"], accepting=["q"])
        scores = global_scores(line, line, DiffParams(landmark_fraction=1.0))
        landmarks = select_landmarks(scores, line, line, DiffParams(landmark_fraction=1.0))
        assert landmarks == frozenset({("p", "p"), ("q", "q")})

    def test_all_equal_scores_fall_back_to_initial_pair(self):
        # Two disconnected initial+accepting states give an all-ones table.
        twin = build_nfa(initial=["p", "q"], accepting=["p", "q"], states=["p", "q"])
        scores = global_scores(twin, twin, DiffParams())
        assert {v for row in scores.values for v in row} == {1.0}
        landmarks = select_landmarks(scores, twin, twin, DiffParams())
        assert landmarks == frozenset({("p", "p")})

    def test_a_dominant_pair_whose_row_is_taken_is_skipped(self):
        # With ratio 1 a tie dominates: (p, q) and then (p, r) both qualify.
        scores = ScoreTable(("p", "s"), ("q", "r"), ((1.0, 1.0), (0.0, 0.0)))
        params = DiffParams(landmark_fraction=1.0, landmark_ratio=1.0)
        a, b = build_nfa(states=["p", "s"]), build_nfa(states=["q", "r"])
        assert select_landmarks(scores, a, b, params) == frozenset({("p", "q")})

    def test_empty_machine_yields_empty_matching(self):
        scores = global_scores(Nfa.empty(), E1, DiffParams())
        assert select_landmarks(scores, Nfa.empty(), E1, DiffParams()) == frozenset()

    def test_fig2_landmark_is_the_b_cycle_pair(self):
        source, target = fig2_machines()
        scores = global_scores(source, target, DiffParams())
        assert select_landmarks(scores, source, target, DiffParams()) == frozenset(
            {("s2", "s2")}
        )


class TestComputeMatching:
    def test_self_matching_is_identity(self):
        scores = global_scores(E1, E1, DiffParams())
        landmarks = select_landmarks(scores, E1, E1, DiffParams())
        matching = compute_matching(E1, E1, scores, landmarks)
        assert matching == frozenset((s, s) for s in E1.states)

    def test_fig2_leaves_removed_state_unmatched(self):
        source, target = fig2_machines()
        scores = global_scores(source, target, DiffParams())
        landmarks = select_landmarks(scores, source, target, DiffParams())
        matching = compute_matching(source, target, scores, landmarks)
        assert matching == frozenset({("s1", "s1"), ("s2", "s2"), ("s3", "s3")})

    def test_landmark_only_when_nothing_else_scores(self):
        # Disjoint-alphabet cycles: every state has in and out labels, so
        # every cross pair scores 0 and only the initial-pair fallback holds.
        a = build_nfa(
            transitions=[("p", "x1", "q"), ("q", "x2", "p")], initial=["p"], accepting=["p"]
        )
        b = build_nfa(
            transitions=[("u", "y1", "v"), ("v", "y2", "u")], initial=["u"], accepting=["u"]
        )
        scores = global_scores(a, b, DiffParams())
        assert {v for row in scores.values for v in row} == {0.0}
        landmarks = select_landmarks(scores, a, b, DiffParams())
        assert landmarks == frozenset({("p", "u")})
        assert compute_matching(a, b, scores, landmarks) == landmarks

    def test_rejects_non_injective_landmarks(self):
        scores = global_scores(E1, E1, DiffParams())
        with pytest.raises(ValueError):
            compute_matching(E1, E1, scores, frozenset({("s1", "s1"), ("s1", "s2")}))

    def test_rejects_landmarks_with_an_unknown_state(self):
        scores = global_scores(E1, E1, DiffParams())
        with pytest.raises(ValueError, match=r"pair \('zz', 's1'\) references unknown states"):
            compute_matching(E1, E1, scores, frozenset({("zz", "s1")}))


class TestBuildDiff:
    def test_fig2_counts(self):
        source, target = fig2_machines()
        matching = frozenset({("s1", "s1"), ("s2", "s2"), ("s3", "s3")})
        machine = build_diff(source, target, matching)
        stats = diff_stats(machine)
        assert stats == (1, 2, 0, 1)
        removed_events = {t.event for t in machine.transitions if t.change is Change.REMOVED}
        added_events = {t.event for t in machine.transitions if t.change is Change.ADDED}
        assert removed_events == {"c", "d"}
        assert added_events == {"e"}

    def test_identity_matching_marks_everything_unchanged(self):
        matching = frozenset((s, s) for s in E1.states)
        machine = build_diff(E1, E1, matching)
        assert all(s.change is Change.UNCHANGED for s in machine.states)
        assert all(t.change is Change.UNCHANGED for t in machine.transitions)

    def test_empty_matching_removes_everything(self):
        machine = build_diff(E1, Nfa.empty(), frozenset())
        stats = diff_stats(machine)
        assert stats == (0, len(E1.transitions), 0, len(E1.states))

    def test_rejects_non_injective_matching(self):
        with pytest.raises(ValueError):
            build_diff(E1, E1, frozenset({("s1", "s1"), ("s2", "s1")}))

    def test_rejects_a_pair_with_an_unknown_state(self):
        with pytest.raises(ValueError, match=r"pair \('s1', 'nope'\) references unknown states"):
            build_diff(E1, E1, frozenset({("s1", "nope")}))

    def test_projections_for_partial_matching(self):
        source, target = fig2_machines()
        machine = build_diff(source, target, frozenset({("s1", "s1")}))
        assert_projections(machine, source, target)

    def test_equals_the_oracle_on_the_running_example_level6_pairs(self, running_example):
        bundle = build_bundle(running_example, levels=(5, 6))
        assert bundle.level6
        for entry in bundle.level6:
            payloads = bundle.level5[entry.entity].payloads
            a, b = payloads[entry.from_variant], payloads[entry.to_variant]
            scores = global_scores(a, b, DiffParams())
            landmarks = select_landmarks(scores, a, b, DiffParams())
            matching = compute_matching(a, b, scores, landmarks)
            assert build_diff(a, b, matching) == oracle_build_diff(a, b, matching) == entry.machine

    def test_equals_the_oracle_on_random_matchings(self):
        # Empty, partial and full matchings, in turn; a full one uses every
        # state of the smaller machine.
        rng = random.Random(43)
        for n in range(240):
            a = random_nfa(rng, max_states=6)
            b = random_nfa(rng, max_states=6)
            full = min(len(a.states), len(b.states))
            size = (0, rng.randint(1, max(1, full - 1)), full)[n % 3]
            left = rng.sample(sorted(a.states), size)
            right = rng.sample(sorted(b.states), size)
            matching = frozenset(zip(left, right))
            assert build_diff(a, b, matching) == oracle_build_diff(a, b, matching)


def ring(n: int, labels: str, chord=()) -> Nfa:
    """States s0 .. s<n-1> in a ring whose i-th transition carries
    ``labels[i % len(labels)]``, plus the ``chord`` transitions given as
    (i, event, j); s0 is initial, every third state accepting."""
    names = [f"s{i}" for i in range(n)]
    edges = [(i, labels[i % len(labels)], (i + 1) % n) for i in range(n)] + list(chord)
    return build_nfa(
        transitions=[(names[i], event, names[j]) for i, event, j in edges],
        initial=names[:1],
        accepting=names[::3],
    )


def symmetric_pairs():
    """Rings with the same labels, where many scores tie, and the tied pair
    of ``tests/data/ties``, whose every score is 1.0."""
    pairs = [
        (ring(4, "a"), ring(4, "a")),
        (ring(6, "ab"), ring(6, "ab", [(0, "a", 3)])),
        (ring(6, "a", [(1, "a", 4)]), ring(6, "a", [(2, "a", 5)])),
        (ring(9, "aab"), ring(6, "aab")),
        (ring(8, "ab", [(0, "c", 4)]), ring(8, "ab", [(3, "c", 7)])),
    ]
    ties = DATA_DIR / "ties"
    pairs.append(tuple(parse_nfa((ties / name).read_text()) for name in ("left.nfa", "right.nfa")))
    return pairs


class TestDiffPipeline:
    def test_e2_variant_b_to_c(self):
        stats = diff_stats(diff(E2_B, E2_C))
        assert stats == (2, 0, 1, 0)

    def test_self_diff_is_all_unchanged(self):
        for machine in (E1, E2_C, MACHINES["S2"]["E4"]):
            stats = diff_stats(diff(machine, machine))
            assert stats == (0, 0, 0, 0)

    def test_diff_from_empty_adds_everything(self):
        stats = diff_stats(diff(Nfa.empty(), E1))
        assert stats == (len(E1.transitions), 0, len(E1.states), 0)

    def test_disjoint_alphabets_keep_only_fallback_pair(self):
        a = build_nfa(
            transitions=[("p", "x1", "q"), ("q", "x2", "p")], initial=["p"], accepting=["p"]
        )
        b = build_nfa(
            transitions=[("u", "y1", "v"), ("v", "y2", "u")], initial=["u"], accepting=["u"]
        )
        machine = diff(a, b)
        unchanged = [s for s in machine.states if s.change is Change.UNCHANGED]
        assert [(s.left, s.right) for s in unchanged] == [("p", "u")]
        assert diff_stats(machine) == (2, 2, 1, 1)

    def test_works_with_unreachable_and_nondeterministic_states(self):
        messy = build_nfa(
            transitions=[("a", "x", "b"), ("a", "x", "c"), ("d", "y", "d")],
            initial=["a"],
            accepting=["b"],
            states=["a", "b", "c", "d", "lonely"],
        )
        stats = diff_stats(diff(messy, messy))
        assert stats == (0, 0, 0, 0)

    def test_determinism(self):
        rng = random.Random(31)
        a = random_nfa(rng)
        b = random_nfa(rng)
        assert diff(a, b) == diff(a, b)

    def test_projection_invariant_on_random_pairs(self):
        rng = random.Random(37)
        for _ in range(60):
            a = random_nfa(rng, max_states=6)
            b = random_nfa(rng, max_states=6)
            assert_projections(diff(a, b), a, b)

    @pytest.mark.parametrize("attenuation", [0.5, 0.9])
    def test_equals_the_pipeline_composed_from_oracles(self, attenuation):
        # Scoring feeds the ranking, so a tie order that only shows after
        # scoring is caught here, not by the per-stage oracles.
        pairs = [*oracle_pairs(67, 24), *symmetric_pairs()]
        for ratio in (1.5, 1.0):
            params = DiffParams(attenuation=attenuation, landmark_ratio=ratio)
            for a, b in pairs:
                scores = oracle_global_scores(a, b, params)
                landmarks = oracle_select_landmarks(scores, a, b, params)
                matching = oracle_compute_matching(a, b, scores, landmarks)
                assert diff(a, b, params) == oracle_build_diff(a, b, matching)

    def test_diff_params_validation(self):
        with pytest.raises(ValueError):
            DiffParams(attenuation=0.0)
        with pytest.raises(ValueError):
            DiffParams(attenuation=1.0)
        with pytest.raises(ValueError):
            DiffParams(landmark_ratio=0.9)
        with pytest.raises(ValueError):
            DiffParams(landmark_fraction=0.0)
        with pytest.raises(ValueError):
            DiffParams(max_iterations=0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("convergence_epsilon", math.nan),
            ("landmark_ratio", math.nan),
            ("landmark_ratio", math.inf),
            ("attenuation", math.nan),
            ("landmark_fraction", math.nan),
        ],
    )
    def test_diff_params_reject_nan_and_infinite_values(self, field, value):
        with pytest.raises(ValueError):
            DiffParams(**{field: value})

    def test_diff_params_accept_boundary_values(self):
        assert DiffParams(convergence_epsilon=0.0, landmark_ratio=1.0).landmark_ratio == 1.0
