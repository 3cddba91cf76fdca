"""The six-level comparison pipeline.

Levels 1-3 compare whole model sets: behavior variants, the variant lattice
completed under union/intersection, and the pairwise difference matrix.
Levels 4-6 do the same per entity, ending in annotated structural diffs.

Every level reads the per-entity models through one language table per
entity, built from all the entity's models, over its workspace alphabet,
when the entity is first used: each distinct model becomes a small int, so
equal ints mean equal languages. The table decides which models are equal
and which are empty on the fly, by Hopcroft and Karp's union-find check over
the subsets the two machines reach, as Bonchi and Pous run it
(``automata._same_language``), and by reachability, and builds no DFA. That
check compares each model with every language before it, so an entity with
many distinct models minimizes each one instead, only to key its languages
by (see ``_ON_THE_FLY_MODELS``). ``build_bundle`` shares one dict of these
tables across the levels of a run (the ``languages`` keyword); a level
called alone builds its own, and a caller may pass any dict, empty at
first, to share tables across levels of one workspace.
Both lattices are completed by one closure over the Boolean regions of an
entity's languages, where meet, join and inclusion are bitset operations
(see ``_Languages``). The regions come from one product per entity and run,
of its non-empty languages' subset tables, determinized but not minimized,
and no observed model is ever minimized for them; the empty language is the
bitset 0, so levels 2 and 5 share the product. A bitset is reduced from
it only when a caller reads its language, at most once per run. The product
can reach the product of the tables' sizes: only the node cap bounds the
closure. A level-2 node is a vector, one component per entity; a level-5
node is a vector of length one. Node sizes and cover edges read the
bitsets alone, so level 2 reduces a component only when its payload's model
is read (see ``_ComputedModels``); level 5 reduces every computed node,
since its sizes and diffs read the machines. Each language becomes one
machine per run, shared by every payload holding it; cover edges read
inclusion from per-component up-sets.
"""

from __future__ import annotations

import itertools
import operator
import threading
from collections.abc import Mapping
from dataclasses import dataclass, field

from .automata import (
    CanonicalDfa,
    Nfa,
    _canonical,
    _nonempty,
    _product_table,
    _same_language,
    _subset_table,
    _successors,
    minimize,
    with_alphabet,
)
from .ingest import ModelSet, Workspace
from .ltsdiff import DiffMachine, DiffParams, diff, diff_stats

__all__ = [
    "DiffMatrix",
    "Lattice",
    "LatticeCapExceeded",
    "LatticeEdge",
    "LatticeNode",
    "VariantClass",
    "VariantPartition",
    "level1",
    "level2",
    "level3",
    "level4",
    "level5",
    "level6",
    "variant_letters",
]

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
    ``workspace`` is the workspace level 1 read the classes from, whose
    entity alphabets ``level2`` closes over; it takes no part in equality.
    """

    entity: str | None
    classes: tuple[VariantClass, ...]
    absent: tuple[str, ...] = ()
    workspace: Workspace | None = field(default=None, compare=False, repr=False)

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


@dataclass(frozen=True)
class Lattice:
    """Variant nodes closed under union/intersection, with cover edges.

    ``diffs`` keeps the structural diff behind each level-5 edge label,
    keyed by (lower, upper); it stays empty at model-set scope.
    """

    entity: str | None
    nodes: tuple[LatticeNode, ...]
    edges: tuple[LatticeEdge, ...]
    # variant label -> ModelSet or Nfa; computed payloads of equal languages share one Nfa
    payloads: dict[str, object]
    diffs: dict[tuple[str, str], DiffMachine] = field(default_factory=dict)


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


class _Languages:
    """The distinct languages of one entity, interned as small ints.

    The table is built from all the entity's models at once, in model-set
    order: ``id`` maps each distinct model to its language, equal ints mean
    equal languages, numbered by first occurrence, and each language keeps
    its first model and whether it is empty. Both are decided on the fly
    (``_same_language`` and ``_nonempty``), a model checked only against the
    languages of its own emptiness, unless the entity has more than
    ``_ON_THE_FLY_MODELS`` distinct models: then each distinct model is
    minimized over the entity's alphabet, and its DFA serves only as the key
    its language is found by.

    Both closures of the entity read its languages as bitsets over one set
    of Boolean regions (``bitset``). Each reachable state of the product of
    the non-empty languages' deterministic tables (the subset tables of
    their first models over the entity's alphabet, not their minimal DFAs)
    has a pattern, the set of the languages that accept there; each non-zero
    pattern is one region. Regions are disjoint and non-empty, so every
    Boolean combination of the languages is one bitset over them, the empty
    language is 0, meet is ``&``, join is ``|``, ``u`` is included in ``v``
    iff ``u & v == u``, and equal bitsets are equal languages. The product is
    walked once per run, when a bitset is first read; each bitset is reduced
    from it and converted to one machine when a caller first reads its
    language (``machine``).
    """

    def __init__(self, alphabet: frozenset[str], models: list[Nfa]) -> None:
        self.alphabet = alphabet
        self.models: list[Nfa] = []  # each language's first model
        self.empty: list[bool] = []  # whether each language is empty
        self.id: dict[Nfa, int] = {}  # each distinct model's language
        distinct = list(dict.fromkeys(models))
        if len(distinct) > _ON_THE_FLY_MODELS:
            keys: dict[CanonicalDfa, int] = {}  # each language by its minimal DFA
            for machine in distinct:
                dfa = minimize(with_alphabet(machine, alphabet))
                self._add(machine, keys.setdefault(dfa, len(self.models)), not dfa.accepting)
        else:
            tables = {machine: (machine, _successors(machine)) for machine in distinct}
            for machine in distinct:
                a = tables[machine]
                empty = not _nonempty(*a)
                for x, model in enumerate(self.models):
                    if self.empty[x] == empty and (empty or _same_language(a, tables[model])):
                        break
                else:
                    x = len(self.models)
                self._add(machine, x, empty)
        self._bitsets: list[int] | None = None  # each language's regions, once walked
        self._machines: dict[int, Nfa] = {}
        self.lattices: dict[int, tuple] = {}  # _entity_lattice's result by node cap
        self.lock = threading.Lock()  # held by reads of computed level-2 payloads

    def _add(self, machine: Nfa, x: int, empty: bool) -> None:
        if x == len(self.models):
            self.models.append(machine)
            self.empty.append(empty)
        self.id[machine] = x

    def bitset(self, x: int) -> int:
        """Language ``x``'s regions as a bitset, the product walked on first read."""
        if self._bitsets is None:
            live = [y for y, empty in enumerate(self.empty) if not empty]
            tables = [_subset_table(with_alphabet(self.models[y], self.alphabet)) for y in live]
            self._rows, patterns = _product_table(tables) if tables else ([[]], [0])
            # Regions are numbered in the order the walk first reaches them.
            region = {p: 1 << i for i, p in enumerate(dict.fromkeys(filter(None, patterns)))}
            self._bits = [region.get(pattern, 0) for pattern in patterns]  # each row's region
            self._bitsets = [0] * len(self.models)
            for i, y in enumerate(live):
                self._bitsets[y] = sum(bit for p, bit in region.items() if p >> i & 1)
        return self._bitsets[x]

    def machine(self, u: int) -> Nfa:
        """Bitset ``u``'s language as a machine, reduced on first read and shared after that."""
        nfa = self._machines.get(u)
        if nfa is None:
            accepting = {s for s, bit in enumerate(self._bits) if bit & u}
            dfa = _canonical(sorted(self.alphabet), self._rows, accepting)
            nfa = self._machines[u] = dfa.to_nfa()
        return nfa


#: Deciding on the fly checks each distinct model against every language
#: interned before it, so its work grows with the square of an entity's
#: distinct models, where minimizing each grows with their number. Over
#: log-derived models of one hidden machine, whose languages first differ on
#: long words, it took at most 0.6 of minimizing's time up to 8 models with
#: two or more languages among them, and 1.3 to 1.6 times as long from 24;
#: with one language in all, about as long at any count (Python 3.11, 2
#: vCPUs). Past this many distinct models, an entity keys its languages by
#: their minimal DFAs instead.
_ON_THE_FLY_MODELS = 8


def _table(workspace: Workspace, languages: dict, entity: str) -> _Languages:
    """The entity's table in ``languages``, added on first use over its workspace alphabet."""
    if entity not in languages:
        models = [ms.models[entity] for ms in workspace.model_sets]
        alphabet = frozenset().union(*(m.alphabet for m in models))
        languages[entity] = _Languages(alphabet, models)
    return languages[entity]


def _ids(workspace: Workspace, languages: dict, entity: str) -> list[int]:
    """The language of each model set's model of ``entity``, in model-set order."""
    lang = _table(workspace, languages, entity)
    return [lang.id[ms.models[entity]] for ms in workspace.model_sets]


def _classes(workspace: Workspace, keys: list, representatives: list) -> tuple[VariantClass, ...]:
    """Model sets grouped by equal key in first-occurrence order; None keys are left out.

    Keys and representatives are given per model set; a class is represented
    by its first member's.
    """
    groups: dict[object, list[int]] = {}
    for i, key in enumerate(keys):
        if key is not None:
            groups.setdefault(key, []).append(i)
    names = [ms.name for ms in workspace.model_sets]
    return tuple(
        VariantClass(variant_letters(n), tuple(names[i] for i in group), representatives[group[0]])
        for n, group in enumerate(groups.values())
    )


def level1(workspace: Workspace, *, languages: dict | None = None) -> VariantPartition:
    """Model set behavior variants, lettered by first occurrence.

    ``languages``, here and at the other levels, is a dict of language
    tables shared across the levels of a run, empty at first (see the
    module docstring).
    """
    languages = {} if languages is None else languages
    columns = [_ids(workspace, languages, e) for e in workspace.entities]
    keys = [tuple(column[i] for column in columns) for i in range(len(workspace.model_sets))]
    classes = _classes(workspace, keys, workspace.model_sets)
    return VariantPartition(None, classes, workspace=workspace)


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


def _close(observed: list[tuple[int, ...]], node_cap: int) -> list[tuple[int, ...]]:
    """Close vectors of region bitsets under componentwise meet and join.

    Pairs are processed first-in-first-out, intersection before union, so
    computed nodes continue the letter sequence deterministically. Returns
    the node vectors in creation order, observed ones first.
    """
    nodes = list(observed)
    seen = set(nodes)
    for i, j in _fifo_pairs(nodes):
        x, y = nodes[i], nodes[j]
        for node in (tuple(map(operator.and_, x, y)), tuple(map(operator.or_, x, y))):
            if node in seen:
                continue
            if len(nodes) >= node_cap:
                raise LatticeCapExceeded(f"lattice completion exceeded the node cap of {node_cap}")
            nodes.append(node)
            seen.add(node)
    return nodes


def _complete(
    observed: list[tuple[int, ...]], languages: list[_Languages], node_cap: int
) -> list[tuple[int, ...]]:
    """The closure of vectors of interned languages, one component per table.

    Returns the nodes in creation order as region bitsets; no language is
    reduced here, ``machine`` of a component's table does that when a caller
    reads it.
    """
    bitsets = [tuple(lang.bitset(x) for lang, x in zip(languages, node)) for node in observed]
    return _close(bitsets, node_cap)


def _cover_edges(nodes: list[tuple[int, ...]]) -> list[tuple[int, int]]:
    """Transitive reduction of the strict componentwise inclusion order of region bitsets.

    ``above[i]`` and ``below[j]`` are bitsets of node indices; ``i -> j`` is a
    cover edge when no node lies strictly between them. Per component, the
    up-set (down-set) of bitset ``x`` is the nodes whose component includes
    (is included in) ``x``, read as ``x & y == x`` once per pair of distinct
    bitsets; ``above[i]`` (``below[i]``) ANDs them over node ``i``'s components.
    """
    n = len(nodes)
    above = [((1 << n) - 1) ^ (1 << i) for i in range(n)]
    below = list(above)
    for column in zip(*nodes):
        holders: dict[int, int] = {}
        for i, x in enumerate(column):
            holders[x] = holders.get(x, 0) | 1 << i
        up = dict.fromkeys(holders, 0)
        down = dict.fromkeys(holders, 0)
        for x, holds_x in holders.items():
            for y, holds_y in holders.items():
                if x & y == x:
                    up[x] |= holds_y
                    down[y] |= holds_x
        for i, x in enumerate(column):
            above[i] &= up[x]
            below[i] &= down[x]
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


class _ComputedModels(Mapping):
    """A computed level-2 node's models, entity -> machine, read-only.

    Entity ``e``'s machine is ``lang.machine(u)`` for its component's table
    and bitset ``u``: reduced and converted on first read, and shared after
    that through the table's cache, so reading gives the machines, and the
    sharing, that building them up front gave.
    """

    def __init__(self, index: dict[str, int], languages: list[_Languages], node: tuple[int, ...]):
        self._index = index  # entity -> component
        self._languages = languages
        self._node = node

    def __getitem__(self, entity: str) -> Nfa:
        k = self._index[entity]
        lang = self._languages[k]
        with lang.lock:  # the table's cache is shared by every payload
            return lang.machine(self._node[k])

    def __contains__(self, entity: object) -> bool:
        return entity in self._index

    def __iter__(self):
        return iter(self._index)

    def __len__(self) -> int:
        return len(self._index)

    def __repr__(self) -> str:
        return repr(dict(self))

    def __reduce__(self):
        return dict, (dict(self),)  # pickled and copied as the machines, not the tables


def level2(
    partition: VariantPartition, *, node_cap: int = DEFAULT_NODE_CAP, languages: dict | None = None
) -> Lattice:
    """Complete the model-set variant order into a lattice.

    Nodes are labeled with the number of entities that have behavior; cover
    edges with (changed, newly_present) entity counts. Computed nodes are
    over the entity alphabets of the workspace the partition was read from.
    """
    if partition.entity is not None or partition.workspace is None:
        raise ValueError("level2 expects the model-set scope partition of level1")
    reps: list[ModelSet] = [cls.representative for cls in partition.classes]
    entities = reps[0].entities() if reps else ()
    shared = {} if languages is None else languages
    languages = [_table(partition.workspace, shared, e) for e in entities]
    observed = [tuple(lang.id[r.models[e]] for lang, e in zip(languages, entities)) for r in reps]
    bitsets = _complete(observed, languages, node_cap)

    index = {e: k for k, e in enumerate(entities)}
    payloads = reps + [
        ModelSet(variant_letters(i), _ComputedModels(index, languages, bitsets[i]))
        for i in range(len(reps), len(bitsets))
    ]
    sizes = [sum(map(bool, v)) for v in bitsets]  # an empty language has no regions
    nodes, payloads_by_label = _nodes(partition, payloads, sizes)
    edges = []
    for i, j in _cover_edges(bitsets):
        changed = newly_present = 0
        for x, y in zip(bitsets[i], bitsets[j]):
            if y and not x:
                newly_present += 1
            elif y and x != y:
                changed += 1
        edges.append(
            LatticeEdge(
                nodes[i].variant, nodes[j].variant, changed=changed, newly_present=newly_present
            )
        )
    return Lattice(None, tuple(nodes), tuple(edges), payloads_by_label)


def level3(workspace: Workspace, *, languages: dict | None = None) -> DiffMatrix:
    """Counts of entities with different behavior, for every model-set pair."""
    languages = {} if languages is None else languages
    columns = [_ids(workspace, languages, e) for e in workspace.entities]
    names = tuple(ms.name for ms in workspace.model_sets)
    cells = tuple(
        tuple(sum(column[i] != column[j] for column in columns) for j in range(i + 1, len(names)))
        for i in range(len(names))
    )
    max_value = max((v for row in cells for v in row), default=0)
    heat = tuple(tuple(heat_class(v, max_value) for v in row) for row in cells)
    return DiffMatrix(names, cells, heat)


def _entity_partition(workspace: Workspace, entity: str, languages: dict) -> VariantPartition:
    """One entity's level-4 partition, read from its table in ``languages``."""
    ids = _ids(workspace, languages, entity)
    keys = [None if languages[entity].empty[x] else x for x in ids]
    absent = tuple(ms.name for ms, key in zip(workspace.model_sets, keys) if key is None)
    models = [ms.models[entity] for ms in workspace.model_sets]
    return VariantPartition(entity, _classes(workspace, keys, models), absent)


def level4(workspace: Workspace, *, languages: dict | None = None) -> dict[str, VariantPartition]:
    """Per-entity model variants; models without behavior are marked absent."""
    languages = {} if languages is None else languages
    return {e: _entity_partition(workspace, e, languages) for e in workspace.entities}


def _entity_lattice(
    workspace: Workspace, entity: str, node_cap: int, languages: dict | None
) -> tuple[list[LatticeNode], dict[str, Nfa], list[tuple[str, str]]]:
    """The entity's level-5 nodes, payloads by label, and cover edges as label pairs."""
    if entity not in workspace.entities:
        raise KeyError(f"entity {entity!r} does not exist")
    languages = {} if languages is None else languages
    lang = _table(workspace, languages, entity)
    if node_cap in lang.lattices:
        return lang.lattices[node_cap]
    partition = _entity_partition(workspace, entity, languages)
    payloads = [cls.representative for cls in partition.classes]
    bitsets = _complete([(lang.id[p],) for p in payloads], [lang], node_cap)
    payloads += [lang.machine(u) for (u,) in bitsets[len(payloads) :]]
    nodes, payloads_by_label = _nodes(partition, payloads, [len(p.transitions) for p in payloads])
    covers = [(nodes[i].variant, nodes[j].variant) for i, j in _cover_edges(bitsets)]
    lang.lattices[node_cap] = nodes, payloads_by_label, covers
    return nodes, payloads_by_label, covers


def level5(
    workspace: Workspace,
    entity: str,
    params: DiffParams | None = None,
    *,
    node_cap: int = DEFAULT_NODE_CAP,
    languages: dict | None = None,
) -> Lattice:
    """Entity model variant lattice with structural edge labels.

    Nodes are labeled with the transition count of their representative;
    edges with the added/removed transition counts of the structural diff
    between the lower and upper representatives, which ``diffs`` keeps.
    """
    params = params or DiffParams()
    nodes, payloads, covers = _entity_lattice(workspace, entity, node_cap, languages)
    diffs = {(a, b): diff(payloads[a], payloads[b], params) for a, b in covers}
    edges = []
    for (lower, upper), machine in diffs.items():
        stats = diff_stats(machine)
        edges.append(
            LatticeEdge(
                lower,
                upper,
                added_transitions=stats.added_transitions,
                removed_transitions=stats.removed_transitions,
            )
        )
    return Lattice(entity, tuple(nodes), tuple(edges), payloads, diffs)


def level6(
    workspace: Workspace,
    entity: str,
    from_variant: str,
    to_variant: str,
    params: DiffParams | None = None,
    *,
    node_cap: int = DEFAULT_NODE_CAP,
    languages: dict | None = None,
) -> DiffMachine:
    """Structural diff between two level-5 variants of one entity.

    The variants are read from the entity's lattice, completed over its table
    in ``languages``, and compared by one diff. ``build_bundle`` reuses the
    level-5 diffs instead when no variant pair is requested.
    """
    payloads = _entity_lattice(workspace, entity, node_cap, languages)[1]
    try:
        source = payloads[from_variant]
        target = payloads[to_variant]
    except KeyError as exc:
        raise KeyError(f"variant {exc.args[0]!r} does not exist at entity {entity!r}") from exc
    return diff(source, target, params or DiffParams())
