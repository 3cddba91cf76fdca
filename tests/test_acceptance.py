"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Random-input criteria use fixed seeds; pairs whose brute-force oracle
would overrun its node budget are resampled (the oracle stays exact on every
pair actually tested).
"""

import functools
import json
import operator
import random
import time

from click.testing import CliRunner

from fsmcompare import (
    Change,
    DiffParams,
    ModelSet,
    Workspace,
    diff,
    diff_stats,
    global_scores,
    hide_events,
    level1,
    level2,
    level3,
    level4,
    level5,
    minimize,
    with_alphabet,
)
from fsmcompare.cli import main

from conftest import (
    OracleBudgetExceeded,
    canonical_product,
    determinize,
    language_equivalent,
    language_included,
    oracle_accepts_with_insertions,
    oracle_compare,
    oracle_language,
    random_nfa,
    union,
)
from test_cli import tree_bytes
from test_ltsdiff import assert_projections


def criterion(number, description):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number}: FAIL - {description}")
                raise
            print(f"ACCEPTANCE {number}: PASS - {description}")

        return run

    return wrap


def cli(*args):
    return CliRunner().invoke(main, [str(a) for a in args])


@criterion(1, "running-example level 1 variants match, under one second")
def test_acceptance_1_level1(running_example_dir, tmp_path):
    out = tmp_path / "out"
    started = time.perf_counter()
    result = cli("compare", "--input", running_example_dir, "--output", out, "--levels", "1")
    elapsed = time.perf_counter() - started
    assert result.exit_code == 0, result.output
    doc = json.loads((out / "report.json").read_text())
    assert doc["level1"]["variants"] == {"S1": "A", "S2": "A", "S3": "B", "S4": "C"}
    assert elapsed < 1.0, f"level 1 took {elapsed:.2f}s"


@criterion(2, "running-example level 3 difference matrix matches")
def test_acceptance_2_level3(running_example):
    matrix = level3(running_example)
    expected = {(0, 1): 0, (0, 2): 2, (1, 2): 2, (0, 3): 3, (1, 3): 3, (2, 3): 2}
    for (i, j), value in expected.items():
        assert matrix.value(i, j) == value


@criterion(3, "running-example level 4 table matches, including the absent cell")
def test_acceptance_3_level4(running_example):
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


@criterion(4, "running-example level 2 lattice: 9 nodes, cover shape, edge labels")
def test_acceptance_4_level2(running_example):
    lattice = level2(level1(running_example))
    kinds = [n.kind for n in lattice.nodes]
    assert len(lattice.nodes) == 9
    assert kinds.count("observed") == 3 and kinds.count("computed") == 6

    # The cover relation over observed nodes A, B, C must be isomorphic to
    # the published lattice. Identify computed nodes structurally: the node
    # covered by A and B is their infimum, the node covering them is their
    # supremum, and so on; labels of computed nodes are not asserted.
    above = {n.variant: set() for n in lattice.nodes}
    below = {n.variant: set() for n in lattice.nodes}
    labels = {}
    for edge in lattice.edges:
        above[edge.lower].add(edge.upper)
        below[edge.upper].add(edge.lower)
        labels[(edge.lower, edge.upper)] = (edge.changed, edge.newly_present)

    def the(candidates):
        assert len(candidates) == 1, candidates
        return next(iter(candidates))

    sup_ab = the(above["A"] & above["B"])
    sup_bc = the(above["B"] & above["C"])
    inf_ab = the(below["A"] & below["B"])
    inf_bc = the(below["B"] & below["C"])
    top = the(above[sup_ab] & above[sup_bc])
    bottom = the(below[inf_ab] & below[inf_bc])
    computed = {sup_ab, sup_bc, inf_ab, inf_bc, top, bottom}
    assert len(computed) == 6
    assert set(labels) == {
        ("A", sup_ab), ("B", sup_ab), ("B", sup_bc), ("C", sup_bc),
        (inf_ab, "A"), (inf_ab, "B"), (inf_bc, "B"), (inf_bc, "C"),
        (sup_ab, top), (sup_bc, top), (bottom, inf_ab), (bottom, inf_bc),
    }
    assert labels[("C", sup_bc)] == (0, 1)
    assert labels[("A", sup_ab)] == (2, 0)


@criterion(5, "running-example level 6 diff B to C at E2 matches")
def test_acceptance_5_level6(running_example):
    from fsmcompare import level6

    stats = diff_stats(level6(running_example, "E2", "B", "C"))
    assert stats == (2, 0, 1, 0)


@criterion(6, "published two-machine diff example reports the exact stats")
def test_acceptance_6_cmd_diff(fig2_dir):
    result = cli("diff", fig2_dir / "source.nfa", fig2_dir / "target.nfa")
    assert result.exit_code == 0
    assert result.output.splitlines()[0] == (
        "added=1 removed=2 added_states=0 removed_states=1"
    )


@criterion(7, "500 random pairs: equivalence/inclusion/boolean ops agree with the oracle")
def test_acceptance_7_oracle_equivalence():
    rng = random.Random(2024)
    started = time.perf_counter()
    tested = resampled = 0
    while tested < 500:
        a = random_nfa(rng, max_states=8, max_events=4)
        # A quarter of the pairs are language-preserving rewrites of ``a``
        # (duplicated states or a determinized twin), so the equivalent
        # branch is exercised on structurally different machines too.
        style = rng.random()
        if style < 0.125:
            b = union(a, a)
        elif style < 0.25:
            b = determinize(a)
        else:
            b = random_nfa(rng, max_states=8, max_events=4)
        sigma = a.alphabet | b.alphabet
        dfa_a = minimize(with_alphabet(a, sigma))
        dfa_b = minimize(with_alphabet(b, sigma))
        bound = dfa_a.num_states * dfa_b.num_states
        # The pipeline's boolean operations: canonical products under or/and.
        joined = canonical_product(dfa_a, dfa_b, operator.or_).to_nfa()
        met = canonical_product(dfa_a, dfa_b, operator.and_).to_nfa()
        try:
            a_only, b_only = oracle_compare(a, b, bound, budget=300_000)
            la = oracle_language(a, 10, alphabet=sigma, budget=300_000)
            lb = oracle_language(b, 10, alphabet=sigma, budget=300_000)
            l_union = oracle_language(joined, 10, budget=300_000)
            l_inter = oracle_language(met, 10, budget=300_000)
            hidden = {e for e in sigma if rng.random() < 0.3}
            projected = hide_events(a, hidden)
            l_proj = oracle_language(projected, 6, budget=300_000)
            short_a = oracle_language(a, 6, budget=300_000)
        except OracleBudgetExceeded:
            resampled += 1
            continue
        tested += 1
        # Equivalence and inclusion at the pumping bound (complete) ...
        assert language_equivalent(a, b) == (not a_only and not b_only)
        assert language_included(a, b) == (not a_only)
        assert language_included(b, a) == (not b_only)
        # ... and the fixed-bound smoke check.
        smoke_a, smoke_b = oracle_compare(a, b, 10, budget=300_000)
        if language_equivalent(a, b):
            assert not smoke_a and not smoke_b
        if language_included(a, b):
            assert not smoke_a
        # Boolean operations against set operations on bounded languages.
        assert l_union == la | lb
        assert l_inter == la & lb
        # Hiding against the projection oracle, both directions.
        for trace in l_proj:
            assert oracle_accepts_with_insertions(a, hidden, trace)
        for trace in short_a:
            shortened = tuple(e for e in trace if e not in hidden)
            assert shortened in l_proj
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"oracle suite took {elapsed:.1f}s"
    assert tested == 500


@criterion(8, "200 random pairs: diff projection invariant, identity diff, score symmetry")
def test_acceptance_8_ltsdiff_invariants():
    rng = random.Random(4096)
    params = DiffParams()
    for _ in range(200):
        a = random_nfa(rng, max_states=6, max_events=4)
        b = random_nfa(rng, max_states=6, max_events=4)
        machine = diff(a, b, params)
        assert_projections(machine, a, b)
        identity = diff(a, a, params)
        assert all(s.change is Change.UNCHANGED for s in identity.states)
        assert all(t.change is Change.UNCHANGED for t in identity.transitions)
        forward = global_scores(a, b, params)
        backward = global_scores(b, a, params)
        assert forward.values == backward.transposed().values


@criterion(9, "100 random workspaces: closures terminate, covers sound, levels consistent")
def test_acceptance_9_lattice_properties():
    rng = random.Random(777)
    params = DiffParams()
    for _ in range(100):
        entities = tuple(f"e{i}" for i in range(rng.randint(1, 4)))
        sets = tuple(
            ModelSet(
                f"m{i}",
                {e: random_nfa(rng, max_states=5, max_events=2) for e in entities},
            )
            for i in range(rng.randint(1, 4))
        )
        ws = Workspace(entities, sets)

        partition = level1(ws)
        lattice = level2(partition)  # must terminate under the default cap
        for edge in lattice.edges:
            lower, upper = lattice.payloads[edge.lower], lattice.payloads[edge.upper]
            for e in entities:
                try:
                    a_only, _ = oracle_compare(lower.models[e], upper.models[e], 8)
                    assert not a_only
                except OracleBudgetExceeded:
                    assert language_included(lower.models[e], upper.models[e])

        picked = rng.choice(entities)
        entity_lattice = level5(ws, picked, params)
        for edge in entity_lattice.edges:
            lower = entity_lattice.payloads[edge.lower]
            upper = entity_lattice.payloads[edge.upper]
            try:
                a_only, _ = oracle_compare(lower, upper, 8)
                assert not a_only
            except OracleBudgetExceeded:
                assert language_included(lower, upper)

        # Cross-level consistency: level 3 counts equal level-4 label
        # mismatches; level-1 classes equal level-4 label vectors.
        partitions = level4(ws)
        matrix = level3(ws)
        names = [ms.name for ms in ws.model_sets]
        for i in range(len(names)):
            for j in range(i + 1, len(names)):
                mismatch = sum(
                    1
                    for e in entities
                    if partitions[e].label_of(names[i]) != partitions[e].label_of(names[j])
                )
                assert matrix.value(i, j) == mismatch
        vectors = {
            name: tuple(partitions[e].label_of(name) for e in entities) for name in names
        }
        for x in names:
            for y in names:
                assert (partition.label_of(x) == partition.label_of(y)) == (
                    vectors[x] == vectors[y]
                )


@criterion(10, "two consecutive full runs produce byte-identical output trees")
def test_acceptance_10_determinism(running_example_dir, tmp_path):
    first, second = tmp_path / "run1", tmp_path / "run2"
    for out in (first, second):
        result = cli("compare", "--input", running_example_dir, "--output", out)
        assert result.exit_code == 0
    assert tree_bytes(first) == tree_bytes(second)
