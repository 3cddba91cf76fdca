"""Serialization of comparison results to JSON, CSV and DOT.

All emitters are deterministic: node orderings are creation order, object
keys are sorted, and CSV uses RFC-4180 line endings, so outputs are stable
across runs and platforms.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from dataclasses import asdict, dataclass, field
from functools import partial
from json.encoder import encode_basestring_ascii as _string

from . import __version__
from .ingest import Workspace
from .levels import (
    DEFAULT_NODE_CAP,
    DiffMatrix,
    Lattice,
    VariantPartition,
    _OnTheFly,
    heat_class,
    level1,
    level2,
    level3,
    level4,
    level5,
    level6,
)
from .ltsdiff import Change, DiffMachine, DiffParams

__all__ = ["ReportBundle", "build_bundle", "to_json"]


@dataclass(frozen=True)
class Level6Entry:
    entity: str
    from_variant: str
    to_variant: str
    machine: DiffMachine


@dataclass(frozen=True)
class ReportBundle:
    """Everything one comparison run produced, ready for serialization."""

    meta: dict = field(default_factory=dict)
    model_set_names: tuple[str, ...] = ()
    level1: VariantPartition | None = None
    level2: Lattice | None = None
    level3: DiffMatrix | None = None
    level4: dict[str, VariantPartition] | None = None
    level5: dict[str, Lattice] | None = None
    level6: tuple[Level6Entry, ...] | None = None


def build_bundle(
    workspace: Workspace,
    *,
    levels: tuple[int, ...] = (1, 2, 3, 4, 5, 6),
    params: DiffParams | None = None,
    node_cap: int = DEFAULT_NODE_CAP,
    entity: str | None = None,
    from_variant: str | None = None,
    to_variant: str | None = None,
    meta: dict | None = None,
) -> ReportBundle:
    """Run the requested levels over a workspace.

    Levels 5 and 6 cover the selected entity, or every entity with at least
    two variants when none is selected. Level 6 emits the diff for each
    level-5 cover edge unless a specific variant pair is requested; a
    requested cover edge reuses level 5's diff when level 5 runs too. All
    levels share one dict of language tables, so each distinct model of an
    entity is interned once in the run: minimized when the run includes
    level 2, 5 or 6, which read every DFA of the entities they touch, and
    otherwise, for an entity with few distinct models, only checked for
    equality and emptiness on the fly.
    """
    params = params or DiffParams()
    wanted = set(levels)
    languages = {} if wanted & {2, 5, 6} else _OnTheFly()

    partition = level1(workspace, languages=languages) if wanted & {1, 2} else None
    lattice2 = level2(partition, node_cap=node_cap, languages=languages) if 2 in wanted else None
    matrix = level3(workspace, languages=languages) if 3 in wanted else None

    targeted = entity is not None and from_variant is not None and to_variant is not None
    # A targeted level-6 query needs neither level 4 nor the edge diffs.
    per_entity = None
    if 4 in wanted or (entity is None and wanted & {5, 6}):
        per_entity = level4(workspace, languages=languages)
    lattices: dict = {}
    entries: list[Level6Entry] = []
    if wanted & {5, 6}:
        if entity is not None:
            selected = [entity]
        else:
            selected = [e for e in workspace.entities if len(per_entity[e].classes) >= 2]
        if 5 in wanted or not targeted:
            lattices = {
                e: level5(workspace, e, params, node_cap=node_cap, languages=languages)
                for e in selected
            }
        if 6 in wanted and targeted:
            # A cover edge's diff was made by level 5 when it ran.
            machine = lattices[entity].diffs.get((from_variant, to_variant)) if lattices else None
            if machine is None:
                machine = level6(
                    workspace,
                    entity,
                    from_variant,
                    to_variant,
                    params,
                    node_cap=node_cap,
                    languages=languages,
                )
            entries.append(Level6Entry(entity, from_variant, to_variant, machine))
        elif 6 in wanted:
            # One entry per cover edge, reusing the diffs behind its label.
            for e in selected:
                for edge in lattices[e].edges:
                    machine = lattices[e].diffs[(edge.lower, edge.upper)]
                    entries.append(Level6Entry(e, edge.lower, edge.upper, machine))
    return ReportBundle(
        meta=dict(meta or {}),
        model_set_names=tuple(ms.name for ms in workspace.model_sets),
        level1=partition if 1 in wanted else None,
        level2=lattice2,
        level3=matrix,
        level4=per_entity if 4 in wanted else None,
        level5=lattices if 5 in wanted else None,
        level6=tuple(entries) if 6 in wanted else None,
    )


def default_meta(
    *,
    input_path: str,
    levels: tuple[int, ...],
    params: DiffParams,
    hide: tuple[str, ...] = (),
    node_cap: int = DEFAULT_NODE_CAP,
) -> dict:
    return {
        "tool": "fsmcompare",
        "version": __version__,
        "input": input_path,
        "levels": sorted(levels),
        "hide": list(hide),
        "node_cap": node_cap,
        "params": asdict(params),
    }


def _partition_doc(partition: VariantPartition) -> dict:
    variants = {}
    for cls in partition.classes:
        for member in cls.members:
            variants[member] = cls.variant
    return {
        "variants": variants,
        "classes": [
            {"variant": cls.variant, "members": list(cls.members)} for cls in partition.classes
        ],
    }


def _edge_counts(lattice: Lattice) -> tuple[tuple[str, str], ...]:
    """The (DOT sign, ``LatticeEdge`` field) of each count on the lattice's edges."""
    if lattice.entity is None:
        return (("~", "changed"), ("+", "newly_present"))
    return (("+", "added_transitions"), ("-", "removed_transitions"))


def _lattice_doc(lattice: Lattice) -> dict:
    size_key = "behavior_count" if lattice.entity is None else "transition_count"
    nodes = [
        {
            "variant": node.variant,
            "kind": node.kind,
            "members": list(node.members),
            size_key: node.size,
        }
        for node in lattice.nodes
    ]
    counts = _edge_counts(lattice)
    edges = [
        {"lower": edge.lower, "upper": edge.upper, **{f: getattr(edge, f) for _, f in counts}}
        for edge in lattice.edges
    ]
    return {"nodes": nodes, "edges": edges}


def _matrix_doc(matrix: DiffMatrix) -> dict:
    return {
        "model_sets": list(matrix.names),
        "cells": [list(row) for row in matrix.cells],
        "heat": [list(row) for row in matrix.heat],
    }


def _level4_doc(partitions: dict[str, VariantPartition], model_sets: tuple[str, ...]) -> dict:
    table: dict[str, dict[str, str]] = {}
    heat: dict[str, dict[str, int]] = {}
    for entity in sorted(partitions):
        partition = partitions[entity]
        labels = {name: partition.label_of(name) for name in model_sets}
        max_index = len(partition.classes) - 1
        index = {cls.variant: i for i, cls in enumerate(partition.classes)}
        table[entity] = labels
        heat[entity] = {
            name: 4 if label == "absent" else heat_class(index[label], max_index)
            for name, label in labels.items()
        }
    return {"table": table, "heat": heat, "model_sets": list(model_sets)}


def _diff_machine_doc(machine: DiffMachine) -> dict:
    return {
        "states": [
            {
                "left": s.left,
                "right": s.right,
                "change": s.change.value,
                "initial": s.initial.value if s.initial else None,
                "accepting": s.accepting.value if s.accepting else None,
            }
            for s in machine.states
        ],
        "transitions": [
            {
                "source": list(t.source),
                "event": t.event,
                "target": list(t.target),
                "change": t.change.value,
            }
            for t in machine.transitions
        ],
    }


def bundle_doc(bundle: ReportBundle) -> dict:
    doc: dict = {"meta": bundle.meta}
    if bundle.level1 is not None:
        doc["level1"] = _partition_doc(bundle.level1)
    if bundle.level2 is not None:
        doc["level2"] = _lattice_doc(bundle.level2)
    if bundle.level3 is not None:
        doc["level3"] = _matrix_doc(bundle.level3)
    if bundle.level4 is not None:
        doc["level4"] = _level4_doc(bundle.level4, bundle.model_set_names)
    if bundle.level5 is not None:
        doc["level5"] = {e: _lattice_doc(lat) for e, lat in bundle.level5.items()}
    if bundle.level6 is not None:
        doc["level6"] = [
            {
                "entity": entry.entity,
                "from": entry.from_variant,
                "to": entry.to_variant,
                "machine": _diff_machine_doc(entry.machine),
            }
            for entry in bundle.level6
        ]
    return doc


def _dumps(value, indent: str = "") -> str:
    """``json.dumps(value, sort_keys=True, indent=2)``, built by joining each
    container's encoded members; object keys must be strings.

    Before Python 3.13, ``json`` encodes indented output in pure Python,
    one small string at a time, which this writer outruns.
    """
    if isinstance(value, str):
        return _string(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == math.inf:
            return "Infinity"
        if value == -math.inf:
            return "-Infinity"
        return float.__repr__(value)
    inner = indent + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        members = [_string(v) if type(v) is str else _dumps(v, inner) for v in value]
        return "[\n" + inner + (",\n" + inner).join(members) + "\n" + indent + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        members = [
            _string(k) + ": " + (_string(v) if type(v) is str else _dumps(v, inner))
            for k, v in sorted(value.items())
        ]
        return "{\n" + inner + (",\n" + inner).join(members) + "\n" + indent + "}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


# From Python 3.13 on, json encodes indented output in C, faster than _dumps.
_encode = _dumps if sys.version_info < (3, 13) else partial(json.dumps, sort_keys=True, indent=2)


def to_json(bundle: ReportBundle) -> str:
    """Single JSON document with stable key order."""
    return _encode(bundle_doc(bundle)) + "\n"


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def lattice_to_dot(lattice: Lattice) -> str:
    """Hasse diagram; observed variants as ellipses, computed ones as diamonds."""
    lines = ["digraph lattice {", "  rankdir=BT;"]
    for node in lattice.nodes:
        shape = "ellipse" if node.kind == "observed" else "diamond"
        label = f"{node.variant} ({node.size})"
        lines.append(f"  {_quote(node.variant)} [label={_quote(label)}, shape={shape}];")
    counts = _edge_counts(lattice)
    for edge in lattice.edges:
        values = [(sign, getattr(edge, f)) for sign, f in counts]
        label = " ".join(f"{sign}{value}" for sign, value in values if value)
        lines.append(f"  {_quote(edge.lower)} -> {_quote(edge.upper)} [label={_quote(label)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


_COLORS = {Change.UNCHANGED: "black", Change.ADDED: "green", Change.REMOVED: "red"}


def diff_to_dot(machine: DiffMachine) -> str:
    """Annotated diff machine with color plus a literal ``diff`` attribute."""
    lines = ["digraph diff {", "  rankdir=LR;"]
    ids = {state.key: f"n{i}" for i, state in enumerate(machine.states)}
    for state in machine.states:
        name = ids[state.key]
        label = state.left if state.left is not None else state.right
        attrs = [
            f"label={_quote(label or '')}",
            f"color={_COLORS[state.change]}",
            f"diff={_quote(state.change.value)}",
        ]
        if state.accepting is not None:
            attrs.append("peripheries=2")
            attrs.append(f"accepting={_quote(state.accepting.value)}")
        lines.append(f"  {_quote(name)} [{', '.join(attrs)}];")
    for state in machine.states:
        if state.initial is None:
            continue
        name = ids[state.key]
        color = _COLORS[state.initial]
        lines.append(f"  {_quote('__start_' + name)} [shape=point, color={color}];")
        lines.append(
            f"  {_quote('__start_' + name)} -> {_quote(name)}"
            f" [color={color}, diff={_quote(state.initial.value)}];"
        )
    for t in machine.transitions:
        lines.append(
            f"  {_quote(ids[t.source])} -> {_quote(ids[t.target])}"
            f" [label={_quote(t.event)}, color={_COLORS[t.change]}, diff={_quote(t.change.value)}];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def matrix_to_csv(matrix: DiffMatrix) -> str:
    """Header of model-set names; diagonal ``=``; lower triangle left empty."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\r\n")
    writer.writerow(matrix.names)
    n = len(matrix.names)
    for i in range(n):
        row: list[str] = [""] * i + ["="]
        row.extend(str(v) for v in matrix.cells[i])
        writer.writerow(row)
    return buffer.getvalue()


def level4_to_csv(partitions: dict[str, VariantPartition], model_sets: tuple[str, ...]) -> str:
    """Entity rows of variant letters, with ``absent`` for missing behavior."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\r\n")
    writer.writerow(model_sets)
    for entity in sorted(partitions):
        partition = partitions[entity]
        writer.writerow([partition.label_of(name) for name in model_sets])
    return buffer.getvalue()
