"""The six-level comparison pipeline.

Levels 1-3 compare whole model sets: behavior variants, the variant lattice
completed under union/intersection, and the pairwise difference matrix.
Levels 4-6 do the same per entity, ending in annotated structural diffs.

Both lattices are completed by one closure over interned languages: each
distinct language of an entity is a small int with memoized meet
(intersection) and join (union). A level-2 node is a vector of such ints,
one per entity; a level-5 node is a vector of length one.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field, replace

from .automata import (
    CanonicalDfa,
    Nfa,
    canonical_product,
    minimize,
    with_alphabet,
)
from .ltsdiff import DiffMachine, DiffParams, diff, diff_stats
from .model_sets import ModelSet, Workspace

DEFAULT_NODE_CAP = 10_000


class LatticeCapExceeded(RuntimeError):
    """Lattice completion produced more nodes than the configured cap."""


def variant_letters(index: int) -> str:
    """0 -> A, 25 -> Z, 26 -> AA, spreadsheet style."""
    index += 1
    label = ""
    while index:
        index, rem = divmod(index - 1, 26)
        label = chr(ord("A") + rem) + label
    return label


@dataclass(frozen=True)
class VariantClass:
    """One behavioral equivalence class with its observed members."""

    variant: str
    members: tuple[str, ...]
    representative: object  # ModelSet at model-set scope, Nfa at entity scope


@dataclass(frozen=True)
class VariantPartition:
    """Equivalence classes under language equality, in first-occurrence order.

    ``entity`` is None for the model-set scope. ``absent`` lists members whose
    model has no behavior (entity scope only); they receive no letter.
    """

    entity: str | None
    classes: tuple[VariantClass, ...]
    absent: tuple[str, ...] = ()

    def label_of(self, member: str) -> str:
        for cls in self.classes:
            if member in cls.members:
                return cls.variant
        if member in self.absent:
            return "absent"
        raise KeyError(member)


@dataclass(frozen=True)
class LatticeNode:
    variant: str
    kind: str  # "observed" | "computed"
    members: tuple[str, ...]
    size: int  # behavior count (model-set scope) or transition count (entity scope)


@dataclass(frozen=True)
class LatticeEdge:
    """Cover edge lower -> upper of the inclusion order.

    Model-set lattices label edges with entity counts (changed,
    newly_present); entity lattices with structural counts
    (added_transitions, removed_transitions). Unused fields stay None.
    """

    lower: str
    upper: str
    changed: int | None = None
    newly_present: int | None = None
    added_transitions: int | None = None
    removed_transitions: int | None = None


@dataclass
class Lattice:
    """Variant nodes closed under union/intersection, with cover edges.

    ``diffs`` keeps the structural diff behind each level-5 edge label,
    keyed by (lower, upper); it stays empty at model-set scope.
    """

    entity: str | None
    nodes: tuple[LatticeNode, ...]
    edges: tuple[LatticeEdge, ...]
    payloads: dict[str, object]  # variant label -> ModelSet or Nfa
    diffs: dict[tuple[str, str], DiffMachine] = field(default_factory=dict)

    def node(self, variant: str) -> LatticeNode:
        for n in self.nodes:
            if n.variant == variant:
                return n
        raise KeyError(variant)


@dataclass(frozen=True)
class DiffMatrix:
    """Upper-triangular counts of entities with differing behavior."""

    names: tuple[str, ...]
    cells: tuple[tuple[int, ...], ...]  # cells[i][j - i - 1] for j > i
    heat: tuple[tuple[int, ...], ...]

    def value(self, i: int, j: int) -> int:
        if i == j:
            raise ValueError("diagonal cells hold no count")
        if i > j:
            i, j = j, i
        return self.cells[i][j - i - 1]


def heat_class(value: int, max_value: int) -> int:
    """Quantize value/max into the buckets 0..4."""
    if max_value <= 0:
        return 0
    return min(4, (5 * value) // max_value)


def _entity_alphabet(workspace: Workspace, entity: str) -> frozenset[str]:
    return frozenset().union(*(ms.models[entity].alphabet for ms in workspace.model_sets))


def _entity_keys(workspace: Workspace) -> dict[str, dict[str, CanonicalDfa]]:
    """Canonical per-entity language keys, aligned on the entity's alphabet."""
    ctx = {e: _entity_alphabet(workspace, e) for e in workspace.entities}
    keys: dict[str, dict[str, CanonicalDfa]] = {}
    for ms in workspace.model_sets:
        keys[ms.name] = {
            e: minimize(with_alphabet(ms.models[e], ctx[e])) for e in workspace.entities
        }
    return keys


def level1(workspace: Workspace) -> VariantPartition:
    """Model set behavior variants, lettered by first occurrence."""
    keys = _entity_keys(workspace)
    classes: list[tuple[tuple, list[str]]] = []
    for ms in workspace.model_sets:
        key = tuple(keys[ms.name][e] for e in workspace.entities)
        for existing, members in classes:
            if existing == key:
                members.append(ms.name)
                break
        else:
            classes.append((key, [ms.name]))
    return VariantPartition(
        entity=None,
        classes=tuple(
            VariantClass(
                variant_letters(i),
                tuple(members),
                workspace.model_set(members[0]),
            )
            for i, (_, members) in enumerate(classes)
        ),
    )


_MEET, _JOIN = operator.and_, operator.or_


class _Languages:
    """The distinct languages of one entity, interned as small ints.

    Each int holds its canonical DFA over the entity's alphabet, so equal
    ints mean equal languages. Meet and join are canonical DFA products,
    computed once per unordered pair; ``x <= y`` iff ``meet(x, y) == x``.
    """

    def __init__(self, alphabet: frozenset[str]) -> None:
        self.alphabet = alphabet
        self.dfas: list[CanonicalDfa] = []
        self._ids: dict[CanonicalDfa, int] = {}
        self._memo: dict[tuple, int] = {}

    def intern(self, machine: Nfa) -> int:
        return self._intern(minimize(with_alphabet(machine, self.alphabet)))

    def _intern(self, dfa: CanonicalDfa) -> int:
        x = self._ids.get(dfa)
        if x is None:
            x = self._ids[dfa] = len(self.dfas)
            self.dfas.append(dfa)
        return x

    def combine(self, accept, x: int, y: int) -> int:
        """``accept`` is ``_MEET`` or ``_JOIN``."""
        if x == y:
            return x
        key = (accept, x, y) if x < y else (accept, y, x)
        z = self._memo.get(key)
        if z is None:
            z = self._memo[key] = self._intern(
                canonical_product(self.dfas[x], self.dfas[y], accept)
            )
        return z

    def included(self, x: int, y: int) -> bool:
        return self.combine(_MEET, x, y) == x

    def nonempty(self, x: int) -> bool:
        return bool(self.dfas[x].accepting)


def _fifo_pairs(nodes: list):
    """The closure's first-in-first-out pair queue, produced as ``nodes`` grows.

    First every pair of the initial nodes; then, for each node added, in
    order, its pairs with all earlier nodes.
    """
    n = len(nodes)
    yield from itertools.combinations(range(n), 2)
    while n < len(nodes):
        yield from ((k, n) for k in range(n))
        n += 1


def _close(
    observed: list[tuple[int, ...]], languages: list[_Languages], node_cap: int
) -> list[tuple[int, ...]]:
    """Close vectors of interned languages under componentwise meet and join.

    Pairs are processed first-in-first-out, intersection before union, so
    computed nodes continue the letter sequence deterministically. Returns
    the node vectors in creation order, observed ones first.
    """
    nodes = list(observed)
    seen = set(nodes)
    for i, j in _fifo_pairs(nodes):
        for accept in (_MEET, _JOIN):
            node = tuple(
                lang.combine(accept, x, y) for lang, x, y in zip(languages, nodes[i], nodes[j])
            )
            if node in seen:
                continue
            if len(nodes) >= node_cap:
                raise LatticeCapExceeded(
                    f"lattice completion exceeded the node cap of {node_cap}"
                )
            nodes.append(node)
            seen.add(node)
    return nodes


def _cover_edges(
    nodes: list[tuple[int, ...]], languages: list[_Languages]
) -> list[tuple[int, int]]:
    """Transitive reduction of the strict componentwise inclusion order.

    ``above[i]`` and ``below[j]`` are bitsets of node indices; ``i -> j`` is
    a cover edge when no node lies strictly between them.
    """
    n = len(nodes)
    above = [0] * n
    below = [0] * n
    for i, x in enumerate(nodes):
        for j, y in enumerate(nodes):
            if i != j and all(lang.included(a, b) for lang, a, b in zip(languages, x, y)):
                above[i] |= 1 << j
                below[j] |= 1 << i
    return [
        (i, j)
        for i in range(n)
        for j in range(n)
        if above[i] >> j & 1 and not above[i] & below[j]
    ]


def _nodes(partition: VariantPartition, payloads: list, sizes: list[int]) -> tuple[list, dict]:
    """Lattice nodes and the payload of each label, in closure order.

    Observed classes come first and keep their letters; computed nodes
    continue the letter sequence.
    """
    observed = len(partition.classes)
    labels = [cls.variant for cls in partition.classes]
    labels += [variant_letters(i) for i in range(observed, len(payloads))]
    members = {cls.variant: cls.members for cls in partition.classes}
    nodes = [
        LatticeNode(label, "observed" if i < observed else "computed", members.get(label, ()), size)
        for i, (label, size) in enumerate(zip(labels, sizes))
    ]
    return nodes, dict(zip(labels, payloads))


def level2(partition: VariantPartition, *, node_cap: int = DEFAULT_NODE_CAP) -> Lattice:
    """Complete the model-set variant order into a lattice.

    Nodes are labeled with the number of entities that have behavior; cover
    edges with (changed, newly_present) entity counts.
    """
    if partition.entity is not None:
        raise ValueError("level2 expects the model-set scope partition of level1")
    reps: list[ModelSet] = [cls.representative for cls in partition.classes]
    entities = reps[0].entities() if reps else ()
    languages = [
        _Languages(frozenset().union(*(rep.models[e].alphabet for rep in reps)))
        for e in entities
    ]
    observed = [
        tuple(lang.intern(rep.models[e]) for lang, e in zip(languages, entities)) for rep in reps
    ]
    vectors = _close(observed, languages, node_cap)

    payloads = reps + [
        ModelSet(
            variant_letters(i),
            {e: lang.dfas[x].to_nfa() for e, lang, x in zip(entities, languages, vectors[i])},
        )
        for i in range(len(reps), len(vectors))
    ]
    sizes = [sum(lang.nonempty(x) for lang, x in zip(languages, v)) for v in vectors]
    nodes, payloads_by_label = _nodes(partition, payloads, sizes)
    edges = []
    for i, j in _cover_edges(vectors, languages):
        changed = newly_present = 0
        for lang, x, y in zip(languages, vectors[i], vectors[j]):
            if lang.nonempty(y) and not lang.nonempty(x):
                newly_present += 1
            elif lang.nonempty(y) and x != y:
                changed += 1
        edges.append(
            LatticeEdge(
                nodes[i].variant, nodes[j].variant, changed=changed, newly_present=newly_present
            )
        )
    return Lattice(None, tuple(nodes), tuple(edges), payloads_by_label)


def level3(workspace: Workspace) -> DiffMatrix:
    """Counts of entities with different behavior, for every model-set pair."""
    keys = _entity_keys(workspace)
    names = tuple(ms.name for ms in workspace.model_sets)
    cells = []
    for i, si in enumerate(names):
        row = []
        for sj in names[i + 1 :]:
            row.append(sum(1 for e in workspace.entities if keys[si][e] != keys[sj][e]))
        cells.append(tuple(row))
    max_value = max((v for row in cells for v in row), default=0)
    heat = tuple(tuple(heat_class(v, max_value) for v in row) for row in cells)
    return DiffMatrix(names, tuple(cells), heat)


def _entity_partition(
    workspace: Workspace, entity: str, sigma: frozenset[str]
) -> VariantPartition:
    """One entity's level-4 partition; ``sigma`` is the entity's alphabet."""
    classes: list[tuple[CanonicalDfa, list[str]]] = []
    absent: list[str] = []
    for ms in workspace.model_sets:
        key = minimize(with_alphabet(ms.models[entity], sigma))
        if not key.accepting:
            absent.append(ms.name)
            continue
        for existing, group in classes:
            if existing == key:
                group.append(ms.name)
                break
        else:
            classes.append((key, [ms.name]))
    return VariantPartition(
        entity=entity,
        classes=tuple(
            VariantClass(
                variant_letters(i),
                tuple(group),
                workspace.model_set(group[0]).models[entity],
            )
            for i, (_, group) in enumerate(classes)
        ),
        absent=tuple(absent),
    )


def level4(workspace: Workspace) -> dict[str, VariantPartition]:
    """Per-entity model variants; models without behavior are marked absent."""
    return {
        e: _entity_partition(workspace, e, _entity_alphabet(workspace, e))
        for e in workspace.entities
    }


def _entity_lattice(
    workspace: Workspace, entity: str, partition: VariantPartition | None, node_cap: int
) -> Lattice:
    """The entity's level-5 nodes, payloads and cover edges; edges unlabeled."""
    if entity not in workspace.entities:
        raise KeyError(entity)
    sigma = _entity_alphabet(workspace, entity)
    if partition is None:
        partition = _entity_partition(workspace, entity, sigma)
    lang = _Languages(sigma)
    observed = [(lang.intern(cls.representative),) for cls in partition.classes]
    vectors = _close(observed, [lang], node_cap)
    payloads = [cls.representative for cls in partition.classes]
    payloads += [lang.dfas[x].to_nfa() for (x,) in vectors[len(payloads) :]]
    nodes, payloads_by_label = _nodes(partition, payloads, [len(p.transitions) for p in payloads])
    edges = [
        LatticeEdge(nodes[i].variant, nodes[j].variant) for i, j in _cover_edges(vectors, [lang])
    ]
    return Lattice(entity, tuple(nodes), tuple(edges), payloads_by_label)


def level5(
    workspace: Workspace,
    entity: str,
    params: DiffParams | None = None,
    *,
    node_cap: int = DEFAULT_NODE_CAP,
    partition: VariantPartition | None = None,
) -> Lattice:
    """Entity model variant lattice with structural edge labels.

    Nodes are labeled with the transition count of their representative;
    edges with the added/removed transition counts of the structural diff
    between the lower and upper representatives, which ``diffs`` keeps.
    ``partition`` is the entity's level-4 partition when the caller has it.
    """
    params = params or DiffParams()
    lattice = _entity_lattice(workspace, entity, partition, node_cap)
    edges = []
    for edge in lattice.edges:
        machine = diff(lattice.payloads[edge.lower], lattice.payloads[edge.upper], params)
        lattice.diffs[(edge.lower, edge.upper)] = machine
        stats = diff_stats(machine)
        edges.append(
            replace(
                edge,
                added_transitions=stats.added_transitions,
                removed_transitions=stats.removed_transitions,
            )
        )
    lattice.edges = tuple(edges)
    return lattice


def level6(
    workspace: Workspace,
    entity: str,
    from_variant: str,
    to_variant: str,
    params: DiffParams | None = None,
    *,
    node_cap: int = DEFAULT_NODE_CAP,
    lattice: Lattice | None = None,
) -> DiffMachine:
    """Structural diff between two level-5 variants of one entity.

    ``lattice`` is the entity's level-5 lattice, built with the same
    ``params``, when the caller has it; a cover edge's diff is then reused.
    """
    params = params or DiffParams()
    if lattice is None:
        lattice = _entity_lattice(workspace, entity, None, node_cap)
    try:
        source = lattice.payloads[from_variant]
        target = lattice.payloads[to_variant]
    except KeyError as exc:
        raise KeyError(f"variant {exc.args[0]!r} does not exist at entity {entity!r}") from exc
    machine = lattice.diffs.get((from_variant, to_variant))
    return machine if machine is not None else diff(source, target, params)
