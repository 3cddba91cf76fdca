"""Workspace invariants, and the lifted operators of the reference closure.

The lifted operators live in conftest: ``test_levels`` closes model sets
with them as the oracle for level 2, so these tests check that oracle.
"""

import random

import pytest

from fsmcompare import ModelSet, Nfa, Workspace

from conftest import (
    diff_entity_counts,
    has_behavior,
    model_set_equivalent,
    model_set_included,
    model_set_intersection,
    model_set_union,
    random_nfa,
    running_example_machines,
)

MACHINES = running_example_machines()


def model_set(name):
    return ModelSet(name, MACHINES[name])


class TestLiftedComparisons:
    def test_s1_equivalent_to_s2(self):
        assert model_set_equivalent(model_set("S1"), model_set("S2"))

    def test_s1_differs_from_s3(self):
        assert not model_set_equivalent(model_set("S1"), model_set("S3"))

    def test_reflexive(self):
        assert model_set_equivalent(model_set("S4"), model_set("S4"))

    def test_inclusion_reflexive(self):
        assert model_set_included(model_set("S1"), model_set("S1"))

    def test_s1_s3_incomparable(self):
        assert not model_set_included(model_set("S1"), model_set("S3"))
        assert not model_set_included(model_set("S3"), model_set("S1"))

    def test_intersection_below_both_operands(self):
        lower = model_set_intersection(model_set("S1"), model_set("S3"))
        assert model_set_included(lower, model_set("S1"))
        assert model_set_included(lower, model_set("S3"))

    def test_entity_mismatch_raises(self):
        small = ModelSet("X", {"E1": MACHINES["S1"]["E1"]})
        with pytest.raises(ValueError):
            model_set_equivalent(small, model_set("S1"))


class TestUnionIntersection:
    def test_union_with_self(self):
        assert model_set_equivalent(
            model_set_union(model_set("S1"), model_set("S1")), model_set("S1")
        )

    def test_intersection_with_all_empty(self):
        entities = ("E1", "E2", "E3", "E4")
        bottom = ModelSet("none", {e: Nfa.empty() for e in entities})
        result = model_set_intersection(model_set("S1"), bottom)
        assert model_set_equivalent(result, bottom)

    def test_e4_forces_empty_infimum(self):
        # S4 has no E4 behavior, so any intersection with it loses E4.
        result = model_set_intersection(model_set("S3"), model_set("S4"))
        assert not has_behavior(result.models["E4"])

    def test_supremum_and_infimum_laws_on_random_workspaces(self):
        rng = random.Random(41)
        entities = ("e0", "e1")
        for _ in range(25):
            s1 = ModelSet("a", {e: random_nfa(rng, max_states=4, max_events=2) for e in entities})
            s2 = ModelSet("b", {e: random_nfa(rng, max_states=4, max_events=2) for e in entities})
            top = model_set_union(s1, s2)
            bottom = model_set_intersection(s1, s2)
            assert model_set_included(s1, top)
            assert model_set_included(s2, top)
            assert model_set_included(bottom, s1)
            assert model_set_included(bottom, s2)


class TestDiffEntityCounts:
    def test_self_comparison_is_zero(self):
        assert diff_entity_counts(model_set("S1"), model_set("S1")) == (0, 0)

    def test_newly_present_entity(self):
        # S4 to union(S3, S4) only gains presence of E4.
        upper = model_set_union(model_set("S3"), model_set("S4"))
        assert diff_entity_counts(model_set("S4"), upper) == (0, 1)

    def test_changed_entities(self):
        # S1 to union(S1, S3) changes E2 and E3.
        upper = model_set_union(model_set("S1"), model_set("S3"))
        assert diff_entity_counts(model_set("S1"), upper) == (2, 0)


class TestWorkspace:
    def test_duplicate_names_rejected(self):
        ms = model_set("S1")
        with pytest.raises(ValueError):
            Workspace(("E1", "E2", "E3", "E4"), (ms, ms))

    def test_partial_model_set_rejected(self):
        bad = ModelSet("S9", {"E1": MACHINES["S1"]["E1"]})
        with pytest.raises(ValueError):
            Workspace(("E1", "E2"), (bad,))
