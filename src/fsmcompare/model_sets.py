"""Entities, model sets, and the comparison operators lifted over them.

A model set maps every entity of the workspace to one machine; entities an
input did not cover are bound to the empty machine so mappings are total.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .automata import (
    Nfa,
    has_behavior,
    intersection,
    language_equivalent,
    language_included,
    union,
)


@dataclass(frozen=True)
class ModelSet:
    """A named, total mapping from entity names to machines."""

    name: str
    models: Mapping[str, Nfa]

    def entities(self) -> tuple[str, ...]:
        return tuple(sorted(self.models))


@dataclass(frozen=True)
class Workspace:
    """All model sets under comparison, over one shared entity set."""

    entities: tuple[str, ...]
    model_sets: tuple[ModelSet, ...]

    def __post_init__(self) -> None:
        names = [ms.name for ms in self.model_sets]
        if len(set(names)) != len(names):
            raise ValueError("model set names must be unique")
        for ms in self.model_sets:
            if tuple(sorted(ms.models)) != tuple(sorted(self.entities)):
                raise ValueError(f"model set {ms.name!r} is not total over the entity set")

    def model_set(self, name: str) -> ModelSet:
        for ms in self.model_sets:
            if ms.name == name:
                return ms
        raise KeyError(name)


def _check_same_entities(s1: ModelSet, s2: ModelSet) -> tuple[str, ...]:
    e1, e2 = s1.entities(), s2.entities()
    if e1 != e2:
        raise ValueError(f"entity sets differ: {e1} vs {e2}")
    return e1


def model_set_equivalent(s1: ModelSet, s2: ModelSet) -> bool:
    """True iff the two sets' models are language-equivalent at every entity."""
    entities = _check_same_entities(s1, s2)
    return all(language_equivalent(s1.models[e], s2.models[e]) for e in entities)


def model_set_included(s1: ModelSet, s2: ModelSet) -> bool:
    """True iff language inclusion holds entity-wise."""
    entities = _check_same_entities(s1, s2)
    return all(language_included(s1.models[e], s2.models[e]) for e in entities)


def model_set_union(s1: ModelSet, s2: ModelSet) -> ModelSet:
    entities = _check_same_entities(s1, s2)
    models = {e: union(s1.models[e], s2.models[e]) for e in entities}
    return ModelSet(f"union({s1.name},{s2.name})", models)


def model_set_intersection(s1: ModelSet, s2: ModelSet) -> ModelSet:
    entities = _check_same_entities(s1, s2)
    models = {e: intersection(s1.models[e], s2.models[e]) for e in entities}
    return ModelSet(f"intersection({s1.name},{s2.name})", models)


def diff_entity_counts(s1: ModelSet, s2: ModelSet) -> tuple[int, int]:
    """(changed, newly_present) entity counts from ``s1`` to ``s2``.

    ``changed`` counts entities where both sides have behavior but the
    languages differ; ``newly_present`` counts entities with behavior only
    on the ``s2`` side. Meant for inclusion-ordered pairs but defined for any.
    """
    entities = _check_same_entities(s1, s2)
    changed = 0
    newly_present = 0
    for e in entities:
        b1 = has_behavior(s1.models[e])
        b2 = has_behavior(s2.models[e])
        if b1 and b2 and not language_equivalent(s1.models[e], s2.models[e]):
            changed += 1
        elif not b1 and b2:
            newly_present += 1
    return changed, newly_present
