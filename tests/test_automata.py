"""Language-level algorithm tests against brute-force enumeration oracles."""

import functools
import operator
import os
import random
import subprocess
import sys
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from fsmcompare import (
    CanonicalDfa,
    Nfa,
    build_pta,
    hide_events,
    minimal_pta,
    minimize,
    with_alphabet,
)
from fsmcompare import automata
from fsmcompare.automata import _canonical, _subset_table

from conftest import (
    OracleBudgetExceeded,
    build_nfa,
    canonical_product,
    complete_table,
    determinize,
    fig2_machines,
    has_behavior,
    intersection,
    language_equivalent,
    language_included,
    oracle_accepts_with_insertions,
    oracle_canonical,
    oracle_compare,
    oracle_hide_events,
    oracle_language,
    oracle_product_table,
    oracle_subset_table,
    random_nfa,
    running_example_machines,
    union,
)

MACHINES = running_example_machines()
E1 = MACHINES["S1"]["E1"]
E2_A = MACHINES["S1"]["E2"]
E2_B = MACHINES["S3"]["E2"]
E2_C = MACHINES["S4"]["E2"]
E3_A = MACHINES["S1"]["E3"]
E4_A = MACHINES["S1"]["E4"]
E4_B = MACHINES["S2"]["E4"]


def accepted(machine: Nfa, trace) -> bool:
    """Does the canonical DFA of the machine accept the trace?"""
    return trace in oracle_language(minimize(machine).to_nfa(), len(trace))


def product(a: Nfa, b: Nfa, accept) -> CanonicalDfa:
    """The pipeline's boolean operation: both machines minimized over the union alphabet."""
    sigma = a.alphabet | b.alphabet
    dfa_a, dfa_b = minimize(with_alphabet(a, sigma)), minimize(with_alphabet(b, sigma))
    return canonical_product(dfa_a, dfa_b, accept)


@st.composite
def nfas(draw, max_states=6, max_events=3):
    n = draw(st.integers(1, max_states))
    events = ["a", "b", "c", "d"][: draw(st.integers(1, max_events))]
    states = [f"s{i}" for i in range(n)]
    transitions = draw(
        st.sets(
            st.tuples(st.sampled_from(states), st.sampled_from(events), st.sampled_from(states)),
            max_size=2 * n,
        )
    )
    initial = draw(st.sets(st.sampled_from(states), max_size=n))
    accepting = draw(st.sets(st.sampled_from(states), max_size=n))
    return build_nfa(
        transitions=transitions,
        initial=initial,
        accepting=accepting,
        states=states,
        alphabet=events,
    )


class TestNfaConstruction:
    def test_empty_machine_is_valid(self):
        machine = Nfa.empty()
        assert not machine.states and not machine.alphabet

    def test_rejects_transition_with_undeclared_state(self):
        with pytest.raises(ValueError):
            Nfa(
                frozenset({"a"}),
                frozenset({"x"}),
                frozenset({("a", "x", "b")}),
                frozenset(),
                frozenset(),
            )

    def test_names_the_smallest_bad_transition_under_every_hash_seed(self):
        # Set order follows PYTHONHASHSEED, so each seed needs its own interpreter.
        code = (
            "from fsmcompare import Nfa\n"
            "steps = frozenset({('a', 'x', 'd'), ('a', 'x', 'c'), ('a', 'x', 'b')})\n"
            "try:\n"
            "    Nfa(frozenset('a'), frozenset('x'), steps, frozenset(), frozenset())\n"
            "except ValueError as exc:\n"
            "    print(exc)\n"
        )
        src = str(Path(automata.__file__).resolve().parents[1])
        for seed in range(6):
            env = dict(os.environ, PYTHONHASHSEED=str(seed))
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            result = subprocess.run(
                [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
            )
            assert result.stdout == "transition target 'b' is not a declared state\n"

    @pytest.mark.parametrize(
        "steps, message",
        [
            ({("b", "x", "a"), ("a", "x", "z")}, "transition target 'z' is not a declared"),
            ({("a", "y", "a"), ("b", "x", "a")}, "transition event 'y' is not in the alphabet"),
            ({("a", "y", "z"), ("c", "x", "a")}, "transition target 'z' is not a declared"),
        ],
    )
    def test_the_first_fault_of_the_smallest_transition_is_named(self, steps, message):
        with pytest.raises(ValueError, match=message):
            Nfa(frozenset("a"), frozenset("x"), frozenset(steps), frozenset(), frozenset())

    def test_rejects_initial_outside_states(self):
        with pytest.raises(ValueError):
            Nfa(frozenset({"a"}), frozenset(), frozenset(), frozenset({"b"}), frozenset())

    def test_names_an_undeclared_transition_source(self):
        steps = frozenset({("b", "x", "a")})
        with pytest.raises(ValueError, match="^transition source 'b' is not a declared state$"):
            Nfa(frozenset("a"), frozenset("x"), steps, frozenset(), frozenset())

    def test_rejects_accepting_outside_states(self):
        with pytest.raises(ValueError, match="^accepting states must be a subset of states$"):
            Nfa(frozenset({"a"}), frozenset(), frozenset(), frozenset(), frozenset({"b"}))

    def test_rejects_whitespace_in_event_names(self):
        with pytest.raises(ValueError):
            build_nfa(transitions=[("a", "x y", "a")])

    @pytest.mark.parametrize("name", ["a b", "c#d", "", "x\x01"])
    def test_rejects_state_names_a_nfa_file_cannot_hold(self, name):
        with pytest.raises(ValueError, match="state name"):
            build_nfa(states=[name])


class TestAccepts:
    def test_fig3_e1_cycle(self):
        assert accepted(E1, ("a", "b", "c", "d"))

    def test_empty_trace_accepted_when_initial_is_accepting(self):
        assert accepted(E1, ())

    def test_partial_cycle_rejected(self):
        assert not accepted(E1, ("a", "b"))

    def test_unknown_events_reject_via_stuck_runs(self):
        assert not accepted(E1, ("z",))


class TestHasBehavior:
    """Emptiness as level 4 reads it: a canonical DFA without accepting states."""

    def test_empty_machine_has_none(self):
        assert not minimize(Nfa.empty()).accepting

    def test_initial_accepting_state(self):
        assert minimize(E1).accepting

    def test_unreachable_accepting_state(self):
        machine = build_nfa(
            transitions=[("a", "x", "a")], initial=["a"], accepting=["b"], states=["a", "b"]
        )
        assert not minimize(machine).accepting


class TestMinimize:
    def test_empty_machine_becomes_lone_sink(self):
        canonical = minimize(Nfa.empty())
        assert canonical.num_states == 1
        assert not canonical.accepting
        assert canonical.sink == 0

    def test_fig3_e4_structural_variants_share_canonical_form(self):
        sigma = E4_A.alphabet | E4_B.alphabet
        assert minimize(with_alphabet(E4_A, sigma)) == minimize(with_alphabet(E4_B, sigma))

    def test_duplicated_states_shrink(self):
        doubled = union(E1, E1)
        canonical = minimize(doubled)
        assert canonical.num_states < len(doubled.states)
        assert oracle_language(canonical.to_nfa(), 8) == oracle_language(E1, 8)

    def test_canonical_iff_equivalent(self):
        rng = random.Random(3)
        for _ in range(60):
            a = random_nfa(rng, max_states=5, max_events=2)
            b = random_nfa(rng, max_states=5, max_events=2)
            sigma = a.alphabet | b.alphabet
            same = minimize(with_alphabet(a, sigma)) == minimize(with_alphabet(b, sigma))
            a_only, b_only = oracle_compare(a, b, 12)
            assert same == (not a_only and not b_only)

    def test_pumping_bound_for_behavior(self):
        rng = random.Random(5)
        for _ in range(60):
            machine = random_nfa(rng, max_states=6, max_events=3)
            bound = minimize(machine).num_states
            assert bool(minimize(machine).accepting) == bool(oracle_language(machine, bound))


def random_table(
    rng: random.Random, max_rows: int = 12, max_events: int = 3, presence=1.0, loops=0.0
):
    """(events, sparse rows) of a random DFA table, every row reachable from row 0.

    Each event of each row is present with probability ``presence``; with
    ``loops`` > 0, that share of rows keeps only self-loops on its present events.
    """
    k = rng.randint(0, max_events)
    n = rng.randint(1, max_rows)
    raw = [
        [(e, rng.randrange(n)) for e in range(k) if presence == 1.0 or rng.random() < presence]
        for _ in range(n)
    ]
    for r in range(n):
        if loops and rng.random() < loops:
            raw[r] = [(e, r) for e, _ in raw[r]]
    return [f"e{i}" for i in range(k)], breadth_first(raw)


def random_dag(rng: random.Random, max_rows: int = 12, max_events: int = 3):
    """(events, sparse rows) of a random acyclic table, every row reachable from row 0.

    Raw row ``r`` leads only to the next three raw rows, so no walk meets a
    cycle, paths are long and a raw row often has several parents.
    """
    k = rng.randint(0, max_events)
    n = rng.randint(1, max_rows)
    presence = rng.choice([0.4, 0.7, 1.0])
    raw = [
        [
            (e, rng.randrange(r + 1, min(n, r + 4)))
            for e in range(k)
            if r + 1 < n and rng.random() < presence
        ]
        for r in range(n)
    ]
    return [f"e{i}" for i in range(k)], breadth_first(raw)


def breadth_first(raw):
    """The raw sparse rows reachable from row 0, renumbered breadth-first from it."""
    index = {0: 0}
    order = [0]
    for r in order:  # grows while it is walked
        for _, t in raw[r]:
            if t not in index:
                index[t] = len(order)
                order.append(t)
    return [[(e, index[t]) for e, t in raw[r]] for r in order]


def dead_rows(rows, accepting) -> int:
    """How many rows of a complete table reach no accepting row, by a forward search."""
    count = 0
    for start in range(len(rows)):
        seen = {start}
        stack = [start]
        while stack:
            for t in rows[stack.pop()]:
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        count += not seen & set(accepting)
    return count


def with_trap(rng: random.Random, machine: Nfa) -> Nfa:
    """Add a non-accepting state that loops on every event and some edges into it."""
    events = sorted(machine.alphabet)
    trap = {("trap", e, "trap") for e in events}
    trap |= {(s, rng.choice(events), "trap") for s in sorted(machine.states) if rng.random() < 0.5}
    return replace(
        machine,
        states=machine.states | {"trap"},
        transitions=machine.transitions | trap,
    )


def seeded_nfas(seed: int, count: int):
    """Random NFAs, some with a trap state, no initial state or no events, then Nfa.empty()."""
    rng = random.Random(seed)
    for i in range(count):
        machine = random_nfa(rng, max_states=8, max_events=4)
        if i % 3 == 0:
            machine = with_trap(rng, machine)
        if i % 7 == 0:
            machine = replace(machine, initial=frozenset())
        if i % 11 == 0:
            machine = build_nfa(
                initial=machine.initial, accepting=machine.accepting, states=machine.states
            )
        yield machine
    yield Nfa.empty()


def complete_product(a, b, accept):
    """The complete product table of two canonical DFAs, every pair reachable from (0, 0)."""
    index = {(0, 0): 0}
    order = [(0, 0)]
    rows = []
    for p, q in order:  # grows while it is walked
        row = []
        for pair in zip(a.transitions[p], b.transitions[q]):
            if pair not in index:
                index[pair] = len(order)
                order.append(pair)
            row.append(index[pair])
        rows.append(row)
    accepting = {i for i, (p, q) in enumerate(order) if accept(p in a.accepting, q in b.accepting)}
    return list(a.alphabet), rows, accepting


#: Product operands a product of minimal DFAs never met: an NFA whose
#: subset construction keeps non-empty dead subsets, on a cycle and not, the
#: empty model, whose table has one row and no transitions, and the output
#: of ``hide_events``; each over the alphabet abcd.
PRODUCT_OPERANDS = [
    build_nfa(
        [("s", "a", "t"), ("s", "b", "dead"), ("s", "c", "loop"), ("loop", "d", "loop")],
        ["s"],
        ["s", "t"],
        alphabet="abcd",
    ),
    with_alphabet(Nfa.empty(), "abcd"),
    with_alphabet(
        hide_events(
            build_nfa(
                [("s", "a", "t"), ("t", "b", "s"), ("t", "c", "u"), ("u", "a", "u")],
                ["s"],
                ["u"],
            ),
            "a",
        ),
        "abcd",
    ),
]


def assert_same_regions_as_minimized_product(machines, rng):
    """The product of the machines' subset tables against that of their minimal DFAs.

    Both walks must reach the same regions, the non-zero patterns, in the same
    order, and reduce to ``==`` DFAs for every set of regions: all of them
    up to 8 regions, 200 random sets past that.
    """
    rows, patterns = automata._product_table([_subset_table(m) for m in machines])
    oracle_rows, oracle_patterns = oracle_product_table([minimize(m) for m in machines])
    regions = list(dict.fromkeys(filter(None, patterns)))
    assert regions == list(dict.fromkeys(filter(None, oracle_patterns)))
    events = sorted(machines[0].alphabet)
    if len(regions) <= 8:
        bitsets = range(1 << len(regions))
    else:
        bitsets = [rng.getrandbits(len(regions)) for _ in range(200)]
    for u in bitsets:
        chosen = {p for i, p in enumerate(regions) if u >> i & 1}
        got = _canonical(events, rows, {s for s, p in enumerate(patterns) if p in chosen})
        want = {s for s, p in enumerate(oracle_patterns) if p in chosen}
        assert got == _canonical(events, oracle_rows, want)


def without_empty_subset(machine: Nfa):
    """``oracle_subset_table`` less the empty subset, and the empty subset's oracle row.

    The empty subset's row goes unless it is the initial row, moves into it
    are dropped and the later rows are renumbered. Its row is None when the
    empty subset is never reached.
    """
    events, rows, accepting = oracle_subset_table(machine)
    # With every state accepting the numbering stays, and only the empty subset rejects.
    _, _, nonempty = oracle_subset_table(replace(machine, accepting=machine.states))
    empty = next((i for i in range(len(rows)) if i not in nonempty), None)

    def renumber(j):
        return j - (empty is not None and 0 < empty < j)

    sparse = [
        [(k, renumber(t)) for k, t in enumerate(row) if t != empty]
        for i, row in enumerate(rows)
        if i != empty or i == 0
    ]
    return (events, sparse, {renumber(i) for i in accepting}), empty


class TestSubsetTableAgainstOracle:
    """The sparse subset table is the complete one without the empty subset."""

    def test_is_the_oracle_table_without_the_empty_subset(self):
        numbered_mid_row = 0
        for machine in seeded_nfas(83, 400):
            expected, empty = without_empty_subset(machine)
            assert _subset_table(machine) == expected
            # Does the row that first reaches the empty subset discover more after it?
            rows = oracle_subset_table(machine)[1]
            first = next((row for row in rows if empty in row), [])
            numbered_mid_row += empty + 1 in first[first.index(empty) :] if first else 0
        assert numbered_mid_row > 50


    def test_hidden_machines_with_several_states_per_subset(self):
        rng = random.Random(139)
        several = 0
        for _ in range(300):
            machine = random_nfa(rng, max_states=8, max_events=4, density=rng.choice([1.0, 2.0]))
            hidden = {e for e in machine.alphabet if rng.random() < 0.5}
            machine = hide_events(machine, hidden)
            assert _subset_table(machine) == without_empty_subset(machine)[0]
            several += largest_subset(machine) > 1
        assert several > 150


def largest_subset(machine: Nfa) -> int:
    """The size of the largest subset that subset construction reaches."""
    succ: dict = {}
    for src, event, dst in machine.transitions:
        succ.setdefault((src, event), set()).add(dst)
    start = frozenset(machine.initial)
    seen = {start}
    stack = [start]
    while stack:
        subset = stack.pop()
        for event in machine.alphabet:
            nxt = frozenset().union(*(succ.get((s, event), ()) for s in subset))
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return max(map(len, seen))


class TestCanonicalAgainstMoore:
    """Both reductions, children first and Hopcroft, must give exactly the Moore oracle's DFA."""

    def test_random_acyclic_tables_take_the_children_first_path(self):
        rng = random.Random(163)
        seen: Counter = Counter()
        for _ in range(600):
            events, rows = random_dag(rng)
            parents: Counter = Counter(t for row in rows for t in {t for _, t in row})
            some = {i for i in range(len(rows)) if rng.random() < 0.3}
            for accepting in (set(), some, set(range(len(rows)))):
                table = (events, rows, accepting)
                complete = complete_table(*table)
                assert automata._acyclic_classes(rows, accepting) is not None
                got = _canonical(*table)
                assert got == oracle_canonical(*complete)
                # Dead rows of the table, less the one complete_table may add.
                dead = dead_rows(*complete[1:]) - (len(complete[1]) > len(rows))
                seen["shared child"] += any(count > 1 for count in parents.values())
                seen["dead start"] += got.num_states == 1 and not got.accepting
                seen["dead rows beside live ones"] += bool(accepting) and dead > 0
                seen["single row"] += len(rows) == 1
                seen["empty alphabet"] += not events
        assert len(seen) == 5 and min(seen.values()) > 50

    def test_a_cycle_among_dead_rows_takes_the_hopcroft_path(self):
        rng = random.Random(167)
        seen: Counter = Counter()
        for _ in range(300):
            events, rows = random_dag(rng, max_events=rng.randint(1, 3))
            missing = [
                (r, e)
                for r, row in enumerate(rows)
                for e in range(len(events))
                if e not in dict(row)
            ]
            if not missing:
                continue
            # A rejecting cycle of 1-3 rows, entered on one missing event.
            length = rng.randint(1, 3)
            cycle = list(range(len(rows), len(rows) + length))
            rows = [list(row) for row in rows]
            rows += [[(0, cycle[(i + 1) % length])] for i in range(length)]
            r, e = rng.choice(missing)
            rows[r] = sorted(rows[r] + [(e, cycle[0])])
            some = {i for i in range(cycle[0]) if rng.random() < 0.3}
            for accepting in (set(), some, set(range(cycle[0]))):
                table = (events, rows, accepting)
                assert automata._acyclic_classes(rows, accepting) is None
                assert _canonical(*table) == oracle_canonical(*complete_table(*table))
                seen["self-loop" if length == 1 else "longer cycle"] += 1
                seen["entered from a live row"] += r in accepting
        assert len(seen) == 3 and min(seen.values()) > 100

    def test_random_nfas_with_dead_nonempty_subsets(self):
        rng = random.Random(61)
        with_dead_subsets = 0
        for _ in range(300):
            machine = with_trap(rng, random_nfa(rng, max_states=8, max_events=4))
            events, rows, accepting = table = _subset_table(machine)
            complete = complete_table(*table)
            with_dead_subsets += dead_rows(*complete[1:]) > 1
            assert _canonical(events, rows, accepting) == oracle_canonical(*complete)
        assert with_dead_subsets > 100

    def test_random_tables_with_none_some_or_all_rows_accepting(self):
        rng = random.Random(67)
        for _ in range(300):
            events, rows = random_table(rng)
            some = {i for i in range(len(rows)) if rng.random() < 0.3}
            for accepting in (set(), some, set(range(len(rows)))):
                table = (events, rows, accepting)
                assert _canonical(*table) == oracle_canonical(*complete_table(*table))

    def test_random_partial_tables_with_self_loop_rows(self):
        rng = random.Random(97)
        rejecting_loops = accepting_loops = 0
        for _ in range(400):
            events, rows = random_table(rng, presence=rng.choice([0.3, 0.6, 0.9]), loops=0.25)
            loops = {r for r, row in enumerate(rows) if row and all(t == r for _, t in row)}
            some = {i for i in range(len(rows)) if rng.random() < 0.3}
            for accepting in (set(), some, set(range(len(rows)))):
                rejecting_loops += bool(loops - accepting)
                accepting_loops += bool(loops & accepting)
                table = (events, rows, accepting)
                assert _canonical(*table) == oracle_canonical(*complete_table(*table))
        assert rejecting_loops > 100 and accepting_loops > 100

    def test_dead_block_reached_first_last_or_never(self):
        rng = random.Random(149)
        where: Counter = Counter()
        for _ in range(1500):
            events, rows = random_table(rng, presence=rng.choice([0.5, 0.8, 1.0]))
            accepting = {i for i in range(len(rows)) if rng.random() < 0.5}
            got = _canonical(events, rows, accepting)
            assert got == oracle_canonical(*complete_table(events, rows, accepting))
            if got.sink is None:
                where["never"] += 1
            elif got.sink == 1:
                # Numbered by a missing event ahead of a present one in row 0?
                where["first"] += 1
                where["first, ahead of a present event"] += bool(rows[0]) and rows[0][0][0] > 0
            elif got.sink == got.num_states - 1 > 1:
                where["last"] += 1
        assert len(where) == 4 and min(where.values()) > 50

    def test_empty_alphabet_and_empty_machine(self):
        events, rows, accepting = _subset_table(Nfa.empty())
        assert rows == [[]]
        for table in (([], [[]], set()), ([], [[]], {0}), (events, rows, accepting)):
            assert _canonical(*table) == oracle_canonical(*complete_table(*table))

    def test_prefix_trees_of_random_logs(self):
        rng = random.Random(71)
        for _ in range(100):
            events = "abcdef"[: rng.randint(1, 6)]
            traces = [
                tuple(rng.choice(events) for _ in range(rng.randint(0, 12)))
                for _ in range(rng.randint(1, 30))
            ]
            expected = oracle_canonical(*oracle_subset_table(build_pta(traces)))
            assert _canonical(*_subset_table(build_pta(traces))) == expected
            assert minimal_pta(traces) == expected.to_nfa()

    def test_product_tables_of_random_canonical_dfas(self, monkeypatch):
        checked = []

        def checked_canonical(events, rows, accepting):
            got = _canonical(events, rows, accepting)
            assert got == oracle_canonical(*complete_table(events, rows, accepting))
            checked.append(got)
            return got

        rng = random.Random(73)
        operands = [minimize(with_alphabet(random_nfa(rng), "abcd")) for _ in range(30)]
        monkeypatch.setattr(automata, "_canonical", checked_canonical)
        for a, b in zip(operands, operands[1:] + operands[:1]):
            for accept in (operator.and_, operator.or_, lambda x, y: x and not y):
                canonical_product(a, b, accept)
        assert len(checked) == 90

    def test_d_way_product_tables(self):
        rng = random.Random(107)
        for _ in range(40):
            count = rng.randint(1, 4)
            machines = [with_alphabet(random_nfa(rng), "abcd") for _ in range(count)]
            machines += rng.sample(PRODUCT_OPERANDS, rng.randint(0, 2))
            tables = [_subset_table(m) for m in machines]
            rows, patterns = automata._product_table(tables)
            assert len(rows) == len(patterns)
            events = tables[0][0]
            dfas = [minimize(m) for m in machines]
            for i, dfa in enumerate(dfas):
                own = {s for s, pattern in enumerate(patterns) if pattern >> i & 1}
                assert _canonical(events, rows, own) == dfa
            union = functools.reduce(lambda a, b: canonical_product(a, b, operator.or_), dfas)
            meet = functools.reduce(lambda a, b: canonical_product(a, b, operator.and_), dfas)
            every = (1 << len(dfas)) - 1
            anywhere = {s for s, p in enumerate(patterns) if p}
            everywhere = {s for s, p in enumerate(patterns) if p == every}
            assert _canonical(events, rows, anywhere) == union
            assert _canonical(events, rows, everywhere) == meet
            chosen = {p for p in set(patterns) if rng.random() < 0.5}
            accepting = {s for s, p in enumerate(patterns) if p in chosen}
            expected = oracle_canonical(*complete_table(events, rows, accepting))
            assert _canonical(events, rows, accepting) == expected
            assert_same_regions_as_minimized_product(machines, rng)

    def test_d_way_product_needs_aligned_alphabets(self):
        with pytest.raises(ValueError):
            automata._product_table([_subset_table(E2_A), _subset_table(E2_C)])

    def test_products_equal_the_complete_product_table(self):
        rng = random.Random(103)
        operands = [with_alphabet(random_nfa(rng), "abcd") for _ in range(40)]
        operands += [with_alphabet(Nfa.empty(), "abcd")]
        operands += [build_nfa([("s", e, "s") for e in "abcd"], ["s"], ["s"])]
        operands += PRODUCT_OPERANDS
        dfas = [minimize(m) for m in operands]
        accepts_by_name = {
            "and": operator.and_,
            "or": operator.or_,
            "difference": lambda x, y: x and not y,
            "not x": lambda x, y: not x,
            "xor": operator.ne,
            "true": lambda x, y: True,
            "false": lambda x, y: False,
        }
        for i, a in enumerate(dfas):
            for j in range(i, len(dfas)):
                b = dfas[j]
                rows, patterns = automata._product_table(
                    [_subset_table(operands[i]), _subset_table(operands[j])]
                )
                for accept in accepts_by_name.values():
                    expected = oracle_canonical(*complete_product(a, b, accept))
                    assert canonical_product(a, b, accept) == expected
                    if not accept(False, False):  # the left-out dead tuple rejects
                        accepting = {
                            s for s, p in enumerate(patterns) if accept(bool(p & 1), bool(p & 2))
                        }
                        assert _canonical(list(a.alphabet), rows, accepting) == expected

    def test_products_of_subset_tables_against_the_minimized_route(self):
        dead_subsets, empty, hidden = PRODUCT_OPERANDS
        # Rows 2 and 3, {dead} and {loop}, are non-empty and accept no word.
        rows = [[(0, 1), (1, 2), (2, 3)], [], [], [(3, 3)]]
        assert _subset_table(dead_subsets)[1:] == (rows, {0, 1})
        assert _subset_table(empty)[1:] == ([[]], set())
        assert hidden.alphabet == frozenset("abcd") and has_behavior(hidden)
        rng = random.Random(109)
        for _ in range(60):
            machines = [with_alphabet(random_nfa(rng), "abcd") for _ in range(rng.randint(1, 3))]
            machines.append(rng.choice(PRODUCT_OPERANDS))
            machines.append(with_alphabet(hide_events(rng.choice(machines), "a"), "abcd"))
            rng.shuffle(machines)
            assert_same_regions_as_minimized_product(machines, rng)

    def test_long_trace_prefix_tree_minimizes_in_well_under_a_second(self):
        # Moore refinement would take one round per event of the trace here;
        # the children-first walk, 5,001 rows deep, classes each row once.
        rng = random.Random(79)
        pta = build_pta([tuple(rng.choice("abcdefgh") for _ in range(5000))])
        start = time.process_time()
        canonical = minimize(pta)
        elapsed = time.process_time() - start
        assert canonical.num_states == 5002  # 5,001 tree nodes and the sink
        assert canonical.sink is not None and len(canonical.accepting) == 1
        assert elapsed < 1.0

    def test_long_ring_minimizes_in_well_under_a_second(self):
        # Cyclic, but the walk meets its one back edge only at its last row,
        # and then Hopcroft reduces the ring.
        n = 5000
        ring = build_nfa([(f"r{i}", "a", f"r{(i + 1) % n}") for i in range(n)], ["r0"], ["r7"])
        start = time.process_time()
        canonical = minimize(ring)
        elapsed = time.process_time() - start
        assert automata._acyclic_classes(*_subset_table(ring)[1:]) is None
        assert canonical.num_states == n and canonical.sink is None
        assert canonical.accepting == {7}
        assert elapsed < 1.0


class TestBooleanOperations:
    """Union and intersection as the lattices compute them: canonical products."""

    def test_union_with_self_is_identity(self):
        assert product(E1, E1, operator.or_) == minimize(E1)

    def test_union_with_empty_is_identity(self):
        assert product(Nfa.empty(), E1, operator.or_) == minimize(E1)

    def test_intersection_with_empty_has_no_behavior(self):
        assert not product(E1, Nfa.empty(), operator.and_).accepting

    def test_intersection_with_self_is_identity(self):
        assert product(E1, E1, operator.and_) == minimize(E1)

    def test_union_alphabet_combines(self):
        combined = product(E2_A, E2_C, operator.or_)
        assert combined.to_nfa().alphabet == E2_A.alphabet | E2_C.alphabet
        with pytest.raises(ValueError):
            canonical_product(minimize(E2_A), minimize(E2_C), operator.or_)

    def test_random_pairs_match_set_operations(self):
        rng = random.Random(13)
        for _ in range(40):
            a = random_nfa(rng, max_states=5, max_events=3)
            b = random_nfa(rng, max_states=5, max_events=3)
            sigma = a.alphabet | b.alphabet
            la = oracle_language(a, 10, alphabet=sigma)
            lb = oracle_language(b, 10, alphabet=sigma)
            assert oracle_language(product(a, b, operator.or_).to_nfa(), 10) == la | lb
            assert oracle_language(product(a, b, operator.and_).to_nfa(), 10) == la & lb


class TestEquivalenceAndInclusion:
    def test_fig3_e4_variants_equivalent(self):
        assert language_equivalent(E4_A, E4_B)

    def test_fig3_e2_variants_differ(self):
        assert not language_equivalent(E2_A, E2_B)

    def test_reflexive(self):
        for machine in (E1, E2_C, Nfa.empty()):
            assert language_equivalent(machine, machine)

    def test_e2_variant_b_included_in_c(self):
        assert language_included(E2_B, E2_C)

    def test_e2_inclusion_is_strict(self):
        assert not language_included(E2_C, E2_B)

    def test_empty_included_in_anything(self):
        assert language_included(Nfa.empty(), E1)
        assert language_included(Nfa.empty(), Nfa.empty())

    def test_inclusion_matches_complement_construction(self):
        # The reference decides a <= b as emptiness of a intersected with the
        # complement of b's complete subset automaton, over the union alphabet.
        def complement_included(a, b):
            sigma = a.alphabet | b.alphabet
            det_b = determinize(with_alphabet(b, sigma))
            complement = replace(det_b, accepting=det_b.states - det_b.accepting)
            return not has_behavior(intersection(with_alphabet(a, sigma), complement))

        rng = random.Random(83)
        renamed = {"a": "a", "b": "x", "c": "y", "d": "d"}
        outcomes = set()
        for _ in range(200):
            a = random_nfa(rng, max_states=6, max_events=4)
            b = random_nfa(rng, max_states=6, max_events=4)
            if rng.random() < 0.3:
                b = build_nfa(
                    transitions=[(s, renamed[e], t) for s, e, t in b.transitions],
                    initial=b.initial,
                    accepting=b.accepting,
                    states=b.states,
                    alphabet=[renamed[e] for e in b.alphabet],
                )
            for x, y in ((a, b), (b, a), (a, Nfa.empty()), (Nfa.empty(), a), (a, union(a, b))):
                included = language_included(x, y)
                assert included == complement_included(x, y)
                outcomes.add(included)
        assert outcomes == {False, True}

    def test_partial_order_laws_on_samples(self):
        machines = [E1, E2_A, E2_B, E2_C, E3_A, E4_A, Nfa.empty(), union(E2_A, E2_B)]
        for a in machines:
            for b in machines:
                both = language_included(a, b) and language_included(b, a)
                assert both == language_equivalent(a, b)
                for c in machines:
                    if language_included(a, b) and language_included(b, c):
                        assert language_included(a, c)

    def test_lattice_laws_up_to_equivalence(self):
        machines = [E1, E2_A, E2_B, E2_C, Nfa.empty()]
        sigma = frozenset().union(*(m.alphabet for m in machines))
        dfas = [minimize(with_alphabet(m, sigma)) for m in machines]

        def join(a, b):
            return canonical_product(a, b, operator.or_)

        def meet(a, b):
            return canonical_product(a, b, operator.and_)

        for a in dfas:
            for b in dfas:
                assert join(a, b) == join(b, a)
                assert meet(a, b) == meet(b, a)
                assert join(a, meet(a, b)) == a
                for c in dfas:
                    assert join(a, join(b, c)) == join(join(a, b), c)


def same_language(a: Nfa, b: Nfa) -> bool:
    """``automata._same_language`` of two machines."""
    return automata._same_language((a, automata._successors(a)), (b, automata._successors(b)))


def nonempty(machine: Nfa) -> bool:
    return automata._nonempty(machine, automata._successors(machine))


def oracle_dfa(machine: Nfa, sigma) -> CanonicalDfa:
    return oracle_canonical(*oracle_subset_table(with_alphabet(machine, sigma)))


def log_derived(rng: random.Random, traces) -> Nfa:
    """The minimal prefix tree of the traces with random log* noise inserted, the noise hidden."""
    noisy = []
    for trace in traces:
        trace = list(trace)
        for _ in range(rng.randint(0, 3)):
            trace.insert(rng.randint(0, len(trace)), rng.choice(["log0", "log1"]))
        noisy.append(tuple(trace))
    machine = minimal_pta(noisy)
    return hide_events(machine, {e for e in machine.alphabet if e.startswith("log")})


class TestSameLanguageAgainstOracle:
    """The on-the-fly equality check and emptiness against canonical oracle DFAs."""

    @staticmethod
    def check(a: Nfa, b: Nfa, outcomes: Counter) -> None:
        sigma = a.alphabet | b.alphabet
        expected = oracle_dfa(a, sigma) == oracle_dfa(b, sigma)
        assert same_language(a, b) == same_language(b, a) == expected
        for machine in (a, b):
            assert nonempty(machine) == bool(oracle_dfa(machine, machine.alphabet).accepting)
        outcomes[expected] += 1

    def test_random_nondeterministic_and_deterministic_pairs(self):
        rng = random.Random(191)
        outcomes: Counter = Counter()
        for _ in range(300):
            a = random_nfa(rng, max_states=6, max_events=3, density=rng.choice([1.0, 2.5]))
            b = random_nfa(rng, max_states=6, max_events=3, density=rng.choice([1.0, 2.5]))
            for x, y in ((a, b), (determinize(a), determinize(b)), (a, determinize(a))):
                self.check(x, y, outcomes)
        assert outcomes[True] > 300 and outcomes[False] > 300

    def test_empty_machines_and_unreachable_or_dead_states(self):
        # seeded_nfas gives machines with traps, without initial states or
        # events, and the empty machine; with_trap adds a dead state to each.
        rng = random.Random(193)
        machines = list(seeded_nfas(197, 60))
        unreachable = build_nfa([("s0", "a", "s0"), ("s1", "a", "s2")], ["s0"], ["s2"])
        dead = build_nfa([("s0", "a", "s1"), ("s1", "b", "s1")], ["s0"], [])
        machines += [unreachable, dead, Nfa.empty(), build_nfa([], ["s0"], ["s0"])]
        outcomes: Counter = Counter()
        for a in machines:
            trapped = with_trap(rng, a) if a.alphabet else a
            for b in (Nfa.empty(), unreachable, dead, trapped, rng.choice(machines)):
                self.check(a, b, outcomes)
        assert outcomes[True] > 60 and outcomes[False] > 60

    def test_pairs_over_different_events(self):
        rng = random.Random(199)
        renamed = {"a": "a", "b": "x", "c": "y", "d": "d"}
        outcomes: Counter = Counter()
        for _ in range(200):
            a = random_nfa(rng, max_states=6, max_events=4)
            b = build_nfa(
                transitions=[(s, renamed[e], t) for s, e, t in a.transitions],
                initial=a.initial,
                accepting=a.accepting,
                states=a.states,
                alphabet=[renamed[e] for e in a.alphabet],
            )
            for x, y in ((a, b), (a, with_alphabet(a, "xyz")), (with_alphabet(a, "x"), b)):
                self.check(x, y, outcomes)
        assert outcomes[True] > 300 and outcomes[False] > 50

    def test_hidden_log_derived_machines(self):
        # Machines of one trace set with different noise have one language once
        # the noise is hidden; another trace set seldom has the same.
        rng = random.Random(211)
        outcomes: Counter = Counter()
        for _ in range(80):
            traces = [
                tuple(rng.choice("abc") for _ in range(rng.randint(0, 6)))
                for _ in range(rng.randint(1, 8))
            ]
            other = traces[: rng.randint(0, len(traces))] + [tuple(rng.choice("abc") for _ in "ab")]
            first = log_derived(rng, traces)
            for b in (log_derived(rng, traces), log_derived(rng, other), Nfa.empty()):
                self.check(first, b, outcomes)
        assert outcomes[True] > 60 and outcomes[False] > 60

    def test_a_model_and_its_minimal_machine(self):
        # The one path on which two different machines share a language; the
        # walk then joins every pair it reaches.
        rng = random.Random(223)
        outcomes: Counter = Counter()
        for machine in list(seeded_nfas(227, 150)):
            for sigma in (machine.alphabet, "xy"):
                self.check(machine, minimize(with_alphabet(machine, sigma)).to_nfa(), outcomes)
            self.check(log_derived(rng, [("a", "b"), ("b",)]), minimize(machine).to_nfa(), outcomes)
        assert outcomes[True] == 302 and outcomes[False] > 50

    def test_deep_prefix_tree_and_its_minimal_machine_in_well_under_a_second(self):
        # 5,001 pairs deep, far past the default recursion limit: the walk
        # keeps its pairs in a list and its union-find in a loop.
        rng = random.Random(229)
        trace = tuple(rng.choice("abcdefgh") for _ in range(5000))
        pta, minimal = build_pta([trace]), minimal_pta([trace])
        assert pta != minimal
        start = time.process_time()
        assert same_language(pta, minimal)
        assert not same_language(pta, minimal_pta([trace[:-1]]))
        elapsed = time.process_time() - start
        assert elapsed < 1.0


class TestHideEvents:
    def test_hide_nothing_is_identity(self):
        assert language_equivalent(hide_events(E1, set()), E1)

    def test_interior_call_chain_hidden(self):
        # Wrapper loop with an instrumented interior; hiding the interior
        # leaves the bare wrapper loop.
        noisy = build_nfa(
            transitions=[
                ("s1", "a_start", "s2"),
                ("s2", "log_start", "s3"),
                ("s3", "log_end", "s4"),
                ("s4", "int1", "s5"),
                ("s5", "int2", "s6"),
                ("s6", "log_start", "s7"),
                ("s7", "log_end", "s8"),
                ("s8", "a_end", "s1"),
            ],
            initial=["s1"],
            accepting=["s1"],
        )
        clean = build_nfa(
            transitions=[("s1", "a_start", "s2"), ("s2", "a_end", "s1")],
            initial=["s1"],
            accepting=["s1"],
        )
        hidden = {"log_start", "log_end", "int1", "int2"}
        assert language_equivalent(hide_events(noisy, hidden), clean)

    def test_result_has_no_hidden_events(self):
        result = hide_events(E1, {"b", "c"})
        assert result.alphabet == frozenset({"a", "d"})
        assert all(event not in {"b", "c"} for _, event, _ in result.transitions)

    def test_random_projection_oracle(self):
        rng = random.Random(17)
        for _ in range(40):
            machine = random_nfa(rng, max_states=5, max_events=3)
            hidden = {e for e in machine.alphabet if rng.random() < 0.4}
            result = hide_events(machine, hidden)
            visible = oracle_language(result, 6)
            # Soundness: everything the result accepts is a projection.
            for trace in visible:
                assert oracle_accepts_with_insertions(machine, hidden, trace)
            # Completeness: projections of short original traces are accepted.
            for trace in oracle_language(machine, 6):
                projected = tuple(e for e in trace if e not in hidden)
                assert projected in visible


class TestHideEventsAgainstOracle:
    """Closing only the states with a silent step gives the all-states oracle's machine.

    ``Nfa`` equality compares all five fields.
    """

    def test_random_machines(self):
        rng = random.Random(137)
        seen: Counter = Counter()
        for _ in range(600):
            machine = random_nfa(rng, max_states=8, max_events=4, density=rng.choice([1.0, 2.5]))
            some = {e for e in machine.alphabet if rng.random() < 0.5}
            for hidden in (some, machine.alphabet):
                assert hide_events(machine, hidden) == oracle_hide_events(machine, hidden)
                silent = [(s, t) for s, e, t in machine.transitions if e in hidden]
                cycles = [s for s, t in silent if s != t and s in silent_reach(silent, t)]
                seen["silent cycle"] += bool(cycles)
                seen["self-loop"] += any(s == t for s, t in silent)
                seen["out of initial"] += any(s in machine.initial for s, _ in silent)
                seen["out of accepting"] += any(s in machine.accepting for s, _ in silent)
            assert not hide_events(machine, machine.alphabet).alphabet
        assert len(seen) == 4 and min(seen.values()) > 100

    def test_log_derived_machines(self):
        # The logs path: a minimal prefix tree, its log* noise hidden, then minimized.
        rng = random.Random(173)
        seen: Counter = Counter()
        for _ in range(150):
            traces = []
            for _ in range(rng.randint(1, 30)):
                trace = []
                for _ in range(rng.randint(0, 10)):
                    while rng.random() < 0.3:
                        trace.append(rng.choice(["log0", "log1"]))
                    trace.append(rng.choice("abcd"))
                while rng.random() < 0.3:
                    trace.append(rng.choice(["log0", "log1"]))
                traces.append(tuple(trace))
                noise = [e.startswith("log") for e in trace]
                seen["consecutive noise"] += any(map(operator.and_, noise, noise[1:]))
                seen["noise first"] += noise[:1] == [True]
                seen["noise last"] += noise[-1:] == [True]
            machine = minimal_pta(traces)
            hidden = {e for e in machine.alphabet if e.startswith("log")}
            result = hide_events(machine, hidden)
            assert result == oracle_hide_events(machine, hidden)
            assert minimize(result) == oracle_canonical(*oracle_subset_table(result))
            seen["several states per subset"] += largest_subset(result) > 1
        assert len(seen) == 4 and min(seen.values()) > 100

    def test_nothing_hidden_returns_the_same_machine(self):
        rng = random.Random(151)
        for _ in range(50):
            machine = random_nfa(rng)
            for hidden in (set(), {"z"}, ["z", "y"]):
                assert hide_events(machine, hidden) is machine
                assert oracle_hide_events(machine, hidden) is machine


class TestDerivedMachines:
    """Machines built from a checked machine's parts skip ``Nfa``'s checks.

    Each must equal, and hash like, the machine ``Nfa(...)`` builds and checks
    from the same five fields.
    """

    @staticmethod
    def assert_checked_equal(machine):
        checked = Nfa(
            machine.states,
            machine.alphabet,
            machine.transitions,
            machine.initial,
            machine.accepting,
        )
        assert type(machine) is Nfa and machine == checked and hash(machine) == hash(checked)

    def test_hidden_widened_and_converted_machines(self):
        rng = random.Random(157)
        for _ in range(300):
            machine = random_nfa(rng, max_states=8, max_events=4, density=rng.choice([1.0, 2.5]))
            hidden = {e for e in machine.alphabet if rng.random() < 0.5} or {"a"}
            derived = [
                hide_events(machine, hidden),
                hide_events(machine, machine.alphabet),
                with_alphabet(machine, "abcdxy"),
                minimize(machine).to_nfa(),
                minimize(with_alphabet(machine, "abcdxy")).to_nfa(),
            ]
            for result in derived:
                self.assert_checked_equal(result)
        self.assert_checked_equal(minimize(Nfa.empty()).to_nfa())

    def test_outside_names_are_still_checked(self):
        with pytest.raises(ValueError, match="event name 'b#c'"):
            with_alphabet(E1, ["b#c"])
        with pytest.raises(ValueError, match="event name must be non-empty"):
            with_alphabet(E1, [""])
        dfa = minimize(E1)
        with pytest.raises(ValueError, match="contains whitespace, a control character"):
            replace(dfa, alphabet=("a", "b\x01c", "c", "d")).to_nfa()


def silent_reach(silent, state):
    """The states reachable from ``state`` along the given (source, target) steps."""
    seen = {state}
    stack = [state]
    while stack:
        cur = stack.pop()
        for s, t in silent:
            if s == cur and t not in seen:
                seen.add(t)
                stack.append(t)
    return seen


@settings(max_examples=60, deadline=None)
@given(nfas(), nfas())
def test_union_bounded_language_property(a, b):
    sigma = a.alphabet | b.alphabet
    la = oracle_language(a, 6, alphabet=sigma)
    lb = oracle_language(b, 6, alphabet=sigma)
    assert oracle_language(product(a, b, operator.or_).to_nfa(), 6) == la | lb


@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much]
)
@given(nfas(), nfas())
def test_equivalence_matches_bounded_oracle_property(a, b):
    bound = minimize(with_alphabet(a, a.alphabet | b.alphabet)).num_states * minimize(
        with_alphabet(b, a.alphabet | b.alphabet)
    ).num_states
    try:
        # Dense machines can make the brute-force walk intractable; skip
        # those examples rather than truncate the (complete) bound.
        a_only, b_only = oracle_compare(a, b, bound, budget=100_000)
    except OracleBudgetExceeded:
        assume(False)
    assert language_equivalent(a, b) == (not a_only and not b_only)
    assert language_included(a, b) == (not a_only)


@settings(max_examples=60, deadline=None)
@given(nfas())
def test_minimize_preserves_language_property(machine):
    assert oracle_language(minimize(machine).to_nfa(), 7) == oracle_language(
        machine, 7, alphabet=machine.alphabet
    )


def test_fig2_machines_are_inequivalent():
    source, target = fig2_machines()
    assert not language_equivalent(source, target)
