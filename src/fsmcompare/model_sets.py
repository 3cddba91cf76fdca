"""Entities and model sets.

A model set maps every entity of the workspace to one machine; entities an
input did not cover are bound to the empty machine so mappings are total.
The levels compare model sets entity by entity over canonical DFAs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .automata import Nfa


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
