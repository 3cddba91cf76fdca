"""Six-level pipeline tests: golden values from the running example plus
cross-level consistency on random workspaces."""

import operator
import pickle
import random
import sys
import threading

import pytest

from fsmcompare import (
    Change,
    DiffParams,
    LatticeCapExceeded,
    ModelSet,
    Nfa,
    Workspace,
    build_bundle,
    diff_stats,
    level1,
    level2,
    level3,
    level4,
    level5,
    level6,
    minimize,
    variant_letters,
    with_alphabet,
)
import fsmcompare.automata
import fsmcompare.levels
from fsmcompare.levels import DEFAULT_NODE_CAP, _complete, _cover_edges, _Languages

from conftest import (
    OracleLanguages,
    build_nfa,
    canonical_product,
    dense_workspace,
    diff_entity_counts,
    eager_level2_payloads,
    has_behavior,
    interned,
    intersection,
    language_equivalent,
    language_included,
    model_set_equivalent,
    model_set_included,
    model_set_intersection,
    model_set_union,
    oracle_close,
    oracle_cover_edges,
    random_nfa,
    random_workspace,
    union,
)


class TestVariantLetters:
    def test_sequence(self):
        assert [variant_letters(i) for i in (0, 1, 25, 26, 27, 51, 52)] == [
            "A",
            "B",
            "Z",
            "AA",
            "AB",
            "AZ",
            "BA",
        ]


class TestLevel1:
    def test_running_example_letters(self, running_example):
        partition = level1(running_example)
        labels = {m: c.variant for c in partition.classes for m in c.members}
        assert labels == {"S1": "A", "S2": "A", "S3": "B", "S4": "C"}

    def test_single_model_set(self, running_example):
        ws = Workspace(running_example.entities, running_example.model_sets[:1])
        partition = level1(ws)
        assert [c.variant for c in partition.classes] == ["A"]

    def test_disjoint_behaviors_get_distinct_letters(self):
        a = build_nfa(transitions=[("s", "x", "s")], initial=["s"], accepting=["s"])
        b = build_nfa(transitions=[("s", "y", "s")], initial=["s"], accepting=["s"])
        ws = Workspace(("e",), (ModelSet("m0", {"e": a}), ModelSet("m1", {"e": b})))
        partition = level1(ws)
        assert [c.variant for c in partition.classes] == ["A", "B"]

    def test_representative_is_first_member(self, running_example):
        partition = level1(running_example)
        assert partition.classes[0].representative.name == "S1"


class TestLabelOf:
    def test_unknown_member(self, running_example):
        with pytest.raises(KeyError):
            level1(running_example).label_of("S9")
        with pytest.raises(KeyError):
            level4(running_example)["E2"].label_of("S9")


class TestLevel2:
    def test_running_example_node_count(self, running_example):
        lattice = level2(level1(running_example))
        kinds = [n.kind for n in lattice.nodes]
        assert len(lattice.nodes) == 9
        assert kinds.count("observed") == 3
        assert kinds.count("computed") == 6

    def test_running_example_behavior_counts(self, running_example):
        lattice = level2(level1(running_example))
        sizes = {n.variant: n.size for n in lattice.nodes}
        assert sizes == {
            "A": 4, "B": 4, "C": 3, "D": 4, "E": 4, "F": 3, "G": 4, "H": 3, "I": 4,
        }

    def test_running_example_cover_relation(self, running_example):
        lattice = level2(level1(running_example))
        edges = {(e.lower, e.upper): (e.changed, e.newly_present) for e in lattice.edges}
        assert edges == {
            ("A", "E"): (2, 0),
            ("B", "E"): (1, 0),
            ("B", "I"): (1, 0),
            ("C", "I"): (0, 1),
            ("D", "A"): (1, 0),
            ("D", "B"): (2, 0),
            ("E", "G"): (1, 0),
            ("F", "D"): (0, 1),
            ("F", "H"): (2, 0),
            ("H", "B"): (0, 1),
            ("H", "C"): (1, 0),
            ("I", "G"): (1, 0),
        }

    def test_single_variant_gives_one_node_no_edges(self, running_example):
        ws = Workspace(running_example.entities, running_example.model_sets[:1])
        lattice = level2(level1(ws))
        assert len(lattice.nodes) == 1
        assert lattice.edges == ()

    def test_node_cap(self, running_example):
        with pytest.raises(LatticeCapExceeded):
            level2(level1(running_example), node_cap=4)

    def test_refuses_an_entity_scope_partition(self, running_example):
        with pytest.raises(ValueError, match="expects the model-set scope partition"):
            level2(level4(running_example)["E2"])


class TestLevel3:
    def test_running_example_matrix(self, running_example):
        matrix = level3(running_example)
        assert matrix.names == ("S1", "S2", "S3", "S4")
        assert matrix.cells == ((0, 2, 3), (2, 3), (2,), ())

    def test_identical_sets_are_all_zero(self, running_example):
        ws = Workspace(running_example.entities, running_example.model_sets[:2])
        assert level3(ws).cells == ((0,), ())

    def test_heat_classes(self, running_example):
        matrix = level3(running_example)
        assert matrix.heat == ((0, 3, 4), (3, 4), (3,), ())

    def test_value_accessor_symmetry(self, running_example):
        matrix = level3(running_example)
        assert matrix.value(0, 3) == matrix.value(3, 0) == 3

    def test_diagonal_cells_hold_no_count(self, running_example):
        with pytest.raises(ValueError, match="diagonal"):
            level3(running_example).value(1, 1)


class TestLevel4:
    def test_running_example_table(self, running_example):
        partitions = level4(running_example)
        table = {
            e: [partitions[e].label_of(s) for s in ("S1", "S2", "S3", "S4")]
            for e in running_example.entities
        }
        assert table == {
            "E1": ["A", "A", "A", "A"],
            "E2": ["A", "A", "B", "C"],
            "E3": ["A", "A", "B", "B"],
            "E4": ["A", "A", "A", "absent"],
        }

    def test_entity_empty_everywhere(self):
        from fsmcompare import Nfa

        ws = Workspace(
            ("e",),
            (ModelSet("m0", {"e": Nfa.empty()}), ModelSet("m1", {"e": Nfa.empty()})),
        )
        partition = level4(ws)["e"]
        assert partition.classes == ()
        assert partition.absent == ("m0", "m1")


class TestLevel5:
    def test_running_example_e2_shape(self, running_example):
        lattice = level5(running_example, "E2")
        assert [(n.variant, n.kind) for n in lattice.nodes] == [
            ("A", "observed"),
            ("B", "observed"),
            ("C", "observed"),
            ("D", "computed"),
            ("E", "computed"),
            ("F", "computed"),
        ]
        edges = {(e.lower, e.upper) for e in lattice.edges}
        assert edges == {
            ("D", "A"), ("D", "B"), ("A", "E"), ("B", "E"), ("B", "C"), ("E", "F"), ("C", "F"),
        }

    def test_running_example_e2_b_covered_by_c(self, running_example):
        lattice = level5(running_example, "E2")
        edge = next(e for e in lattice.edges if (e.lower, e.upper) == ("B", "C"))
        assert (edge.added_transitions, edge.removed_transitions) == (2, 0)

    def test_observed_transition_counts_use_original_machines(self, running_example):
        lattice = level5(running_example, "E2")
        sizes = {n.variant: n.size for n in lattice.nodes if n.kind == "observed"}
        assert sizes == {"A": 3, "B": 3, "C": 5}

    def test_empty_language_intersection_node_kept_with_zero_count(self, running_example):
        lattice = level5(running_example, "E2")
        assert next(n for n in lattice.nodes if n.variant == "D").size == 0

    def test_single_variant_entity(self, running_example):
        lattice = level5(running_example, "E1")
        assert len(lattice.nodes) == 1
        assert lattice.edges == ()

    def test_two_comparable_variants_form_chain(self, running_example):
        # E3 has exactly two variants and A's loop-free cycle is included
        # in B's, so the lattice is already complete as a chain.
        lattice = level5(running_example, "E3")
        assert [(n.variant, n.kind) for n in lattice.nodes] == [
            ("A", "observed"),
            ("B", "observed"),
        ]
        assert [(e.lower, e.upper) for e in lattice.edges] == [("A", "B")]

    def test_single_observed_variant_with_absent_members(self, running_example):
        lattice = level5(running_example, "E4")
        assert len(lattice.nodes) == 1  # only one variant with behavior

    def test_nodes_closed_under_union_and_intersection(self, running_example):
        lattice = level5(running_example, "E2")
        sigma = entity_alphabet(running_example, "E2")
        nodes = {minimize(with_alphabet(p, sigma)) for p in lattice.payloads.values()}
        for a in nodes:
            for b in nodes:
                for accept in (operator.or_, operator.and_):
                    assert canonical_product(a, b, accept) in nodes

    def test_unknown_entity(self, running_example):
        with pytest.raises(KeyError):
            level5(running_example, "E9")

    def test_cover_edges_sound_against_inclusion(self, running_example):
        lattice = level5(running_example, "E2")
        payloads = lattice.payloads
        labels = [n.variant for n in lattice.nodes]
        for edge in lattice.edges:
            assert language_included(payloads[edge.lower], payloads[edge.upper])
            assert not language_equivalent(payloads[edge.lower], payloads[edge.upper])
            for mid in labels:
                if mid in (edge.lower, edge.upper):
                    continue
                between = (
                    language_included(payloads[edge.lower], payloads[mid])
                    and not language_equivalent(payloads[edge.lower], payloads[mid])
                    and language_included(payloads[mid], payloads[edge.upper])
                    and not language_equivalent(payloads[mid], payloads[edge.upper])
                )
                assert not between


class TestLevel6:
    def test_running_example_b_to_c(self, running_example):
        machine = level6(running_example, "E2", "B", "C")
        assert diff_stats(machine) == (2, 0, 1, 0)

    def test_self_diff(self, running_example):
        machine = level6(running_example, "E2", "B", "B")
        assert diff_stats(machine) == (0, 0, 0, 0)

    def test_computed_variants_are_addressable(self, running_example):
        machine = level6(running_example, "E2", "D", "A")
        counts = diff_stats(machine)
        assert counts.removed_transitions == 0
        assert counts.added_transitions > 0

    def test_unknown_variant(self, running_example):
        with pytest.raises(KeyError):
            level6(running_example, "E2", "B", "Z")


class TestRandomWorkspaceConsistency:
    def test_cross_level_invariants(self):
        rng = random.Random(43)
        for _ in range(30):
            ws = random_workspace(rng)
            partitions = level4(ws)
            matrix = level3(ws)
            names = [ms.name for ms in ws.model_sets]
            # Level 3 cells equal the number of entities with differing
            # level-4 labels, counting absent as its own label.
            for i in range(len(names)):
                for j in range(i + 1, len(names)):
                    mismatch = sum(
                        1
                        for e in ws.entities
                        if partitions[e].label_of(names[i]) != partitions[e].label_of(names[j])
                    )
                    assert matrix.value(i, j) == mismatch
            # Level 1 classes match equality of level-4 label vectors.
            p1 = level1(ws)
            vectors = {
                name: tuple(partitions[e].label_of(name) for e in ws.entities) for name in names
            }
            for a in names:
                for b in names:
                    same_class = p1.label_of(a) == p1.label_of(b)
                    assert same_class == (vectors[a] == vectors[b])

    def test_lattice_closure_and_cover_soundness(self):
        rng = random.Random(47)
        params = DiffParams()
        for _ in range(12):
            ws = random_workspace(rng, n_sets=3, n_entities=2, max_states=4)
            lattice = level2(level1(ws))
            payloads = lattice.payloads
            for edge in lattice.edges:
                assert model_set_included(payloads[edge.lower], payloads[edge.upper])
                assert not model_set_equivalent(payloads[edge.lower], payloads[edge.upper])
            for entity in ws.entities:
                entity_lattice = level5(ws, entity, params)
                for edge in entity_lattice.edges:
                    assert language_included(
                        entity_lattice.payloads[edge.lower], entity_lattice.payloads[edge.upper]
                    )

    def test_letter_determinism(self):
        rng = random.Random(53)
        ws = random_workspace(rng)
        first = level1(ws)
        second = level1(ws)
        assert first == second
        assert level3(ws) == level3(ws)


def naive_lattice(observed, meet, join, included, node_cap):
    """Textbook closure over raw payloads, for checking the library's.

    Payloads are combined with the public NFA or model-set operations and
    never normalized; a combination is new unless mutual inclusion matches it
    to an existing node. Pairs go first-in-first-out, meet before join.
    Returns (kinds, payloads, cover edges as index pairs).
    """
    kinds = ["observed"] * len(observed)
    payloads = list(observed)
    pairs = [(i, j) for i in range(len(payloads)) for j in range(i + 1, len(payloads))]
    qi = 0
    while qi < len(pairs):
        i, j = pairs[qi]
        qi += 1
        for op in (meet, join):
            combined = op(payloads[i], payloads[j])
            if any(included(combined, p) and included(p, combined) for p in payloads):
                continue
            if len(payloads) >= node_cap:
                raise LatticeCapExceeded(node_cap)
            kinds.append("computed")
            payloads.append(combined)
            pairs.extend((k, len(payloads) - 1) for k in range(len(payloads) - 1))
    n = len(payloads)
    below = [[i != j and included(payloads[i], payloads[j]) for j in range(n)] for i in range(n)]
    edges = [
        (i, j)
        for i in range(n)
        for j in range(n)
        if below[i][j] and not any(below[i][k] and below[k][j] for k in range(n))
    ]
    return kinds, payloads, edges


def entity_alphabet(ws, entity):
    return frozenset().union(*(ms.models[entity].alphabet for ms in ws.model_sets))


def unused_event_workspace():
    """m0 and m1 have the same languages, but m1's e0 declares the unused event z.

    Level 1 puts them in one class with m0 as its representative, so the
    representatives' alphabets leave z out while the workspace's has it.
    """
    ab = [("s0", "a", "s1"), ("s1", "b", "s0")]
    e0 = build_nfa(ab, initial=["s0"], accepting=["s0"])
    e0_z = build_nfa(ab, initial=["s0"], accepting=["s0"], alphabet=["a", "b", "z"])
    a_star = build_nfa([("s0", "a", "s0")], initial=["s0"], accepting=["s0"])
    e1 = build_nfa([("s0", "c", "s0")], initial=["s0"], accepting=["s0"])
    models = [{"e0": e0, "e1": e1}, {"e0": e0_z, "e1": e1}, {"e0": a_star, "e1": e1}]
    return Workspace(("e0", "e1"), tuple(ModelSet(f"m{i}", m) for i, m in enumerate(models)))


def dense_level2_workspaces():
    """The 15 two-entity workspaces level 2 is checked on against the naive closure."""
    rng = random.Random(59)
    return [dense_workspace(rng, n_sets=4, n_entities=2) for _ in range(15)]


def level2_case(ws):
    """Level 2's input on ``ws``: the entity alphabets and the class representatives' models."""
    partition = level1(ws)
    alphabets = [entity_alphabet(ws, e) for e in ws.entities]
    observed = [[cls.representative.models[e] for e in ws.entities] for cls in partition.classes]
    return alphabets, observed


def level5_cases(ws):
    """Level 5's inputs on ``ws``, one per entity: its alphabet and its variants' machines."""
    return [
        ([entity_alphabet(ws, e)], [[cls.representative] for cls in partition.classes])
        for e, partition in level4(ws).items()
    ]


def tables_of(case):
    """One language table per component of a case, as ``levels._table`` builds them."""
    alphabets, machines = case
    return [
        _Languages(alphabet, [node[k] for node in machines]) for k, alphabet in enumerate(alphabets)
    ]


def closure(case, node_cap=DEFAULT_NODE_CAP):
    """The region closure of a case: nodes as machines and as bitsets.

    The machines are read from each component's table after the closure, as
    a read of a computed payload reads them.
    """
    tables = tables_of(case)
    bitsets = _complete(interned(tables, case[1]), tables, node_cap)
    vectors = [tuple(t.machine(u) for t, u in zip(tables, node)) for node in bitsets]
    return vectors, bitsets


def product_closure(case, node_cap=DEFAULT_NODE_CAP):
    """The same case closed by the pairwise product closure ``oracle_close``."""
    alphabets, machines = case
    tables = [OracleLanguages(alphabet) for alphabet in alphabets]
    observed = [tuple(lang.intern(m) for lang, m in zip(tables, node)) for node in machines]
    return oracle_close(observed, tables, node_cap), tables


def many_entity_cases():
    """Six seeded level-2 cases of 30-200 nodes over 4-8 entities, some absent."""
    rng = random.Random(71)
    cases = []
    while len(cases) < 6:
        ws = dense_workspace(rng, n_sets=5, n_entities=rng.randint(4, 8), absent=0.15)
        if Nfa.empty() not in (m for ms in ws.model_sets for m in ms.models.values()):
            continue
        case = level2_case(ws)
        try:
            vectors, _ = closure(case, node_cap=200)
        except LatticeCapExceeded:
            continue
        if len(vectors) >= 30:
            cases.append(case)
    return cases


def assert_same_cap(build, naive, observed_count, node_count):
    """Both closures raise for a cap below the node count and not at it."""
    if node_count == observed_count:
        return
    for run in (build, naive):
        with pytest.raises(LatticeCapExceeded):
            run(node_count - 1)
        run(node_count)


class TestClosureAgainstNaiveOracle:
    def test_level2_matches_naive_closure(self):
        for ws in dense_level2_workspaces() + [unused_event_workspace()]:
            partition = level1(ws)
            reps = [cls.representative for cls in partition.classes]

            def naive(cap):
                return naive_lattice(
                    reps, model_set_intersection, model_set_union, model_set_included, cap
                )

            lattice = level2(partition)
            kinds, payloads, edges = naive(10_000)
            assert [(n.variant, n.kind) for n in lattice.nodes] == [
                (variant_letters(i), kind) for i, kind in enumerate(kinds)
            ]
            assert [n.size for n in lattice.nodes] == [
                sum(has_behavior(m) for m in p.models.values()) for p in payloads
            ]
            for node, payload in zip(lattice.nodes, payloads):
                assert model_set_equivalent(lattice.payloads[node.variant], payload)
            assert [(e.lower, e.upper, e.changed, e.newly_present) for e in lattice.edges] == [
                (variant_letters(i), variant_letters(j))
                + diff_entity_counts(payloads[i], payloads[j])
                for i, j in edges
            ]
            assert_same_cap(
                lambda cap: level2(partition, node_cap=cap), naive, len(reps), len(payloads)
            )
            # Computed payloads are over each entity's workspace alphabet.
            for node in lattice.nodes[len(reps) :]:
                for e, machine in lattice.payloads[node.variant].models.items():
                    assert machine.alphabet == entity_alphabet(ws, e)

    def test_level5_matches_naive_closure(self):
        rng = random.Random(61)
        for _ in range(15):
            ws = dense_workspace(rng, n_sets=5, n_entities=2)
            for entity in ws.entities:
                sigma = entity_alphabet(ws, entity)
                reps = [cls.representative for cls in level4(ws)[entity].classes]

                def naive(cap):
                    return naive_lattice(reps, intersection, union, language_included, cap)

                lattice = level5(ws, entity)
                kinds, payloads, edges = naive(10_000)
                assert [(n.variant, n.kind) for n in lattice.nodes] == [
                    (variant_letters(i), kind) for i, kind in enumerate(kinds)
                ]
                assert [n.size for n in lattice.nodes] == [
                    len(p.transitions)
                    if kind == "observed"
                    else len(minimize(with_alphabet(p, sigma)).to_nfa().transitions)
                    for kind, p in zip(kinds, payloads)
                ]
                for node, payload in zip(lattice.nodes, payloads):
                    assert language_equivalent(lattice.payloads[node.variant], payload)
                assert [(e.lower, e.upper) for e in lattice.edges] == [
                    (variant_letters(i), variant_letters(j)) for i, j in edges
                ]
                assert_same_cap(
                    lambda cap: level5(ws, entity, node_cap=cap), naive, len(reps), len(payloads)
                )


class TestCoverEdges:
    """Up-set cover edges against the all-pairs product oracle, and the work the closure takes."""

    def test_matches_all_pairs_oracle(self, running_example):
        cases = [level2_case(ws) for ws in dense_level2_workspaces()]
        cases += many_entity_cases() + level5_cases(running_example)
        assert [len(closure(c)[0]) for c in level5_cases(running_example)] == [1, 6, 2, 1]
        for case in cases:
            bitsets = closure(case)[1]
            assert _cover_edges(bitsets) == oracle_cover_edges(*product_closure(case))

    def test_included_at_most_once_per_pair_of_distinct_languages(self):
        calls = []

        class CountingBits(int):
            def __and__(self, other):
                calls.append((self, other))
                return int(self) & int(other)

        for case in many_entity_cases():
            bitsets = closure(case)[1]
            nodes = [tuple(map(CountingBits, node)) for node in bitsets]
            calls.clear()
            edges = _cover_edges(nodes)
            distinct = [len(set(column)) for column in zip(*bitsets)]
            assert edges == _cover_edges(bitsets)
            assert edges and len(calls) <= sum(d * d for d in distinct)

    def test_no_product_after_the_closure(self, running_example, monkeypatch):
        calls = []

        def counting(name, function):
            def counted(*args):
                calls.append(name)
                return function(*args)

            return counted

        closures = [closure(c)[1] for c in many_entity_cases() + level5_cases(running_example)]
        canonical, product_table = fsmcompare.automata._canonical, fsmcompare.levels._product_table
        monkeypatch.setattr(fsmcompare.automata, "_canonical", counting("_canonical", canonical))
        monkeypatch.setattr(fsmcompare.levels, "_canonical", counting("_canonical", canonical))
        monkeypatch.setattr(
            fsmcompare.levels, "_product_table", counting("_product_table", product_table)
        )
        for bitsets in closures:
            _cover_edges(bitsets)
        assert calls == []

    def test_canonical_once_per_language_and_no_pairwise_product(
        self, running_example, monkeypatch
    ):
        canonical, product_table = fsmcompare.automata._canonical, fsmcompare.levels._product_table
        reductions, products = [], []

        def counting_canonical(*args):
            reductions.append(args)
            return canonical(*args)

        def counting_product_table(tables):
            products.append(tables)
            return product_table(tables)

        monkeypatch.setattr(fsmcompare.automata, "_canonical", counting_canonical)
        monkeypatch.setattr(fsmcompare.levels, "_canonical", counting_canonical)
        monkeypatch.setattr(fsmcompare.levels, "_product_table", counting_product_table)
        for case in many_entity_cases() + level5_cases(running_example):
            reductions.clear()
            products.clear()
            tables = tables_of(case)
            observed = interned(tables, case[1])
            bitsets = _complete(observed, tables, DEFAULT_NODE_CAP)
            assert reductions == []  # neither interning nor the closure reduces; reading does
            read = [{node[k] for node in bitsets} for k in range(len(tables))]
            for _ in range(2):  # a second read reduces nothing more
                for node in bitsets:
                    for t, u in zip(tables, node):
                        t.machine(u)
                assert len(reductions) == sum(map(len, read))
            # One product per component, of its distinct non-empty languages
            # only; a component with none walks no product.
            live = [{x for x in ids if not t.empty[x]} for t, ids in zip(tables, zip(*observed))]
            assert [len(t) for t in products] == [len(xs) for xs in live if xs]


def assert_matches_product_closure(case):
    """The region closure of ``case`` against the product closure, component by component.

    Same node order and per-component equality, ``==`` DFAs for every node,
    the same cover edges and the same cap point.
    """
    vectors, bitsets = closure(case)
    nodes, oracle_tables = product_closure(case)
    assert [list(v) for v in vectors] == [
        [t.dfas[x].to_nfa() for t, x in zip(oracle_tables, v)] for v in nodes
    ]
    for k in range(len(oracle_tables)):
        pairs = {(b[k], x[k]) for b, x in zip(bitsets, nodes)}
        assert len(pairs) == len({b for b, _ in pairs}) == len({x for _, x in pairs})
    assert _cover_edges(bitsets) == oracle_cover_edges(nodes, oracle_tables)
    if len(nodes) > len(case[1]):
        for run in (closure, product_closure):
            with pytest.raises(LatticeCapExceeded):
                run(case, len(nodes) - 1)
            run(case, len(nodes))
    return len(nodes)


def single_entity_case(machines):
    """One entity observed as ``machines``, each language kept once, in order."""
    ws = Workspace(("e",), tuple(ModelSet(f"m{i}", {"e": m}) for i, m in enumerate(machines)))
    return level2_case(ws)


class TestClosureAgainstProductOracle:
    """The region closure against the pairwise product closure it replaced."""

    def test_level2_and_level5_of_dense_workspaces(self):
        for ws in dense_level2_workspaces() + [unused_event_workspace()]:
            assert_matches_product_closure(level2_case(ws))
            for case in level5_cases(ws):
                assert_matches_product_closure(case)

    def test_many_entities_some_absent(self):
        for case in many_entity_cases():
            assert assert_matches_product_closure(case) >= 30

    def test_unrelated_variants(self):
        rng = random.Random(83)
        sizes = []
        for _ in range(8):
            count = rng.randint(4, 5)
            machines = [random_nfa(rng, max_states=6, max_events=3) for _ in range(count)]
            sizes.append(assert_matches_product_closure(single_entity_case(machines)))
        assert max(sizes) > 8

    def test_empty_language_variants(self):
        rng = random.Random(89)
        for _ in range(8):
            ws = dense_workspace(rng, n_sets=5, n_entities=3, absent=0.3)
            assert_matches_product_closure(level2_case(ws))
            for case in level5_cases(ws):
                assert_matches_product_closure(case)
        empty_only = single_entity_case([Nfa.empty()])
        assert assert_matches_product_closure(empty_only) == 1

    def test_an_entity_with_one_distinct_language(self):
        rng = random.Random(97)
        for _ in range(8):
            ws = dense_workspace(rng, n_sets=4, n_entities=2)
            same = ws.model_sets[0].models["e0"]
            ws = Workspace(
                ws.entities,
                tuple(ModelSet(ms.name, {**ms.models, "e0": same}) for ms in ws.model_sets),
            )
            assert_matches_product_closure(level2_case(ws))
            for case in level5_cases(ws):
                assert_matches_product_closure(case)

    def test_an_entity_with_an_empty_alphabet(self):
        rng = random.Random(101)
        epsilon = build_nfa(initial=["s"], accepting=["s"])
        silent = build_nfa(states=["s", "t"], initial=["s"], accepting=["t"])
        for _ in range(8):
            sets = [
                ModelSet(f"m{i}", {"e0": rng.choice([epsilon, silent]), "e1": random_nfa(rng)})
                for i in range(4)
            ]
            ws = Workspace(("e0", "e1"), tuple(sets))
            assert entity_alphabet(ws, "e0") == frozenset()
            assert_matches_product_closure(level2_case(ws))
            for case in level5_cases(ws):
                assert_matches_product_closure(case)


class TestComputedLevel2Payloads:
    """Computed level-2 payloads, reduced when read, against building them up front."""

    def test_payloads_equal_the_eager_construction(self, running_example):
        rng = random.Random(103)
        workspaces = [running_example, unused_event_workspace()]
        workspaces += [
            dense_workspace(rng, n_sets=5, n_entities=rng.randint(2, 6), absent=0.15)
            for _ in range(12)
        ]
        computed = empty = 0
        for ws in workspaces:
            partition = level1(ws)
            lattice = level2(partition)
            eager = eager_level2_payloads(partition)
            payloads = [lattice.payloads[node.variant] for node in lattice.nodes]
            assert payloads == eager
            assert pickle.loads(pickle.dumps(lattice)) == lattice
            # Equal languages share one machine, as they did when built up front.
            machines: dict = {}
            observed = len(partition.classes)
            for node, payload in zip(lattice.nodes[observed:], eager[observed:]):
                computed += 1
                for e, machine in lattice.payloads[node.variant].models.items():
                    assert machine == payload.models[e]
                    assert machines.setdefault((e, machine), machine) is machine
                    empty += not has_behavior(machine)
        assert computed > 100 and empty > 10

    def test_membership_and_repr(self, running_example, monkeypatch):
        lattice = level2(level1(running_example))
        computed = [n.variant for n in lattice.nodes if n.kind == "computed"]
        models = lattice.payloads[computed[0]].models

        def refuse(*args):
            raise AssertionError("a membership test reduced a language")

        monkeypatch.setattr(fsmcompare.levels, "_canonical", refuse)
        assert "E1" in models and "S1" not in models
        monkeypatch.undo()
        assert repr(models) == repr(dict(models))

    def test_threads_reading_one_payload_get_the_same_machines(self):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, inside the reads
        try:
            for seed in range(4):
                ws = dense_workspace(random.Random(seed), n_sets=5, n_entities=6, absent=0.15)
                partition = level1(ws)
                lattice = level2(partition)
                reads: list[list] = [[] for _ in range(4)]

                def read(out):
                    for node in lattice.nodes:
                        models = lattice.payloads[node.variant].models
                        out.extend(models[e] for e in ws.entities)

                threads = [threading.Thread(target=read, args=(out,)) for out in reads]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                    assert not thread.is_alive()
                eager = eager_level2_payloads(partition)
                assert reads[0] == [p.models[e] for p in eager for e in ws.entities]
                for out in reads[1:]:
                    assert len(out) == len(reads[0])
                    assert all(a is b for a, b in zip(out, reads[0]))
        finally:
            sys.setswitchinterval(interval)


def test_a_caller_shares_a_plain_dict_of_tables_across_every_level(running_example):
    # Levels 1 and 3 fill tables that levels 2 and 5 read, with the results
    # of levels called alone.
    rng = random.Random(239)
    workspaces = [running_example] + [dense_workspace(rng, 5, 4, absent=0.15) for _ in range(8)]
    for ws in workspaces:
        tables: dict = {}
        partition, matrix = level1(ws, languages=tables), level3(ws, languages=tables)
        assert level2(partition, languages=tables) == level2(level1(ws))
        assert (partition, matrix) == (level1(ws), level3(ws))
        for e in ws.entities:
            assert level5(ws, e, languages=tables) == level5(ws, e)


def test_a_full_bundle_walks_at_most_one_product_per_entity(monkeypatch):
    # Level 2 closes an entity's column with its empty language in it, level 5
    # its variants without; both read one product of the non-empty languages.
    x_star = build_nfa([("s", "x", "s")], initial=["s"], accepting=["s"])
    y_star = build_nfa([("s", "y", "s")], initial=["s"], accepting=["s"])
    models = [Nfa.empty(), x_star, y_star]
    hand_made = Workspace(("e",), tuple(ModelSet(f"m{i}", {"e": m}) for i, m in enumerate(models)))
    rng = random.Random(5)
    workspaces = [hand_made] + [dense_workspace(rng, 5, 3, absent=0.2) for _ in range(20)]
    product_table = fsmcompare.levels._product_table
    walks = []

    def counting_product_table(tables):
        walks.append(len(tables))
        return product_table(tables)

    monkeypatch.setattr(fsmcompare.levels, "_product_table", counting_product_table)
    computed = 0
    for ws in workspaces:
        walks.clear()
        bundle = build_bundle(ws)
        assert len(walks) <= len(ws.entities)
        computed += sum(n.kind == "computed" for n in bundle.level2.nodes)
    assert computed > 20
    walks.clear()
    lattice = build_bundle(hand_made).level5["e"]
    assert walks == [2]
    assert [n.kind for n in lattice.nodes] == ["observed"] * 2 + ["computed"] * 2
