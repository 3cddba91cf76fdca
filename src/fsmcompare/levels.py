"""The six-level comparison pipeline.

Levels 1-3 compare whole model sets: behavior variants, the variant lattice
completed under union/intersection, and the pairwise difference matrix.
Levels 4-6 do the same per entity, ending in annotated structural diffs.

Every level reads the per-entity models through one language table per
entity, built over the entity's workspace alphabet when the entity is first
used: each distinct model becomes a small int, so equal ints mean equal
languages. Levels 1, 3 and 4 ask only which models are equal and which are
empty, so a run of those levels alone decides both on the fly, by Hopcroft
and Karp's union-find check over the subsets the two machines reach, as
Bonchi and Pous run it (``automata._same_language``), and by reachability,
and builds no DFA. That check compares each model with every language
before it, so an entity with many distinct models minimizes instead (see
``_OnTheFly``). A run that includes level 2, 5 or 6 reads every DFA of the
entities it touches, so its tables minimize each distinct model once as
they intern it. ``build_bundle`` shares one dict of these tables across the
levels of a run (the ``languages`` keyword); a level called alone builds its
own. A caller may pass any dict, empty at first, to share tables across
levels; its tables minimize, so every level can read them. Both lattices
are completed by one closure over the Boolean regions of the observed
languages, where meet, join and inclusion are bitset operations (see
``_Regions``); a distinct computed language is reduced at most once from
the regions' product table, which can reach the product of the DFAs'
sizes: only the node cap bounds the closure. A level-2 node is a vector,
one component per entity; a level-5 node is a vector of length one. Node
sizes and cover edges read the bitsets alone, so level 2 reduces a
computed component only when its payload's model is read (see
``_ComputedModels``); level 5 reduces every node, since its sizes and diffs
read the machines. Each language becomes one machine per run, shared by
every payload holding it; cover edges read inclusion from per-component
up-sets.
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

    Equal ints mean equal languages, numbered by first occurrence. A table
    that minimizes (``minimizes``) interns each distinct model's canonical
    DFA over the entity's alphabet, and the closures add their computed
    languages through ``_Regions``, which the table keeps for the run, one
    per tuple of distinct observed languages: levels 2 and 5 of one entity
    share it, so each computed language is reduced at most once per run and
    region table, when it is first read. A table that does not minimize
    decides, for each distinct model, whether its language is empty and
    which interned language it equals, on the fly (``_same_language``), and
    holds no DFA, so no closure may read it.
    """

    def __init__(self, alphabet: frozenset[str], minimize: bool) -> None:
        self.alphabet = alphabet
        self.minimizes = minimize
        self.dfas: list[CanonicalDfa] = []
        self.empty: list[bool] = []  # whether each language is empty
        self._ids: dict[CanonicalDfa, int] = {}
        self._machines: dict[Nfa, int] = {}
        self._models: list[Nfa] = []  # each language's first model, deciding on the fly
        self._nfas: dict[int, Nfa] = {}
        self.lattices: dict[int, tuple] = {}  # _entity_lattice's result by node cap
        self._regions: dict[tuple[int, ...], _Regions] = {}
        self.lock = threading.Lock()  # held by reads of computed level-2 payloads

    def ids(self, models: list[Nfa]) -> list[int]:
        """The language of each model: the first interned language it equals, else a new one.

        Deciding on the fly, a model is checked only against the languages
        of its own emptiness; the successor tables the checks read are built
        once per distinct model of this call and dropped when it returns.
        """
        tables: dict = {}

        def table(machine: Nfa) -> tuple:
            t = tables.get(machine)
            if t is None:
                t = tables[machine] = machine, _successors(machine)
            return t

        ids = []
        for machine in models:
            x = self._machines.get(machine)
            if x is None and self.minimizes:
                x = self.intern_dfa(minimize(with_alphabet(machine, self.alphabet)))
            elif x is None:
                a = table(machine)
                empty = not _nonempty(*a)
                for x, model in enumerate(self._models):
                    if self.empty[x] == empty and (empty or _same_language(a, table(model))):
                        break
                else:
                    x = len(self._models)
                    self._models.append(machine)
                    self.empty.append(empty)
            self._machines[machine] = x
            ids.append(x)
        return ids

    def intern_dfa(self, dfa: CanonicalDfa) -> int:
        assert self.minimizes, "a table deciding on the fly holds no DFA"
        x = self._ids.get(dfa)
        if x is None:
            x = self._ids[dfa] = len(self.dfas)
            self.dfas.append(dfa)
            self.empty.append(not dfa.accepting)
        return x

    def regions(self, column: tuple[int, ...]) -> _Regions:
        """The regions of the distinct languages in ``column``, built on first use."""
        assert self.minimizes, "a table deciding on the fly holds no DFA"
        xs = tuple(dict.fromkeys(column))
        regions = self._regions.get(xs)
        if regions is None:
            regions = self._regions[xs] = _Regions(self, xs)
        return regions

    def machine(self, x: int) -> Nfa:
        """Language ``x`` as a machine, converted on first use and shared after that."""
        assert self.minimizes, "a table deciding on the fly holds no DFA"
        nfa = self._nfas.get(x)
        if nfa is None:
            nfa = self._nfas[x] = self.dfas[x].to_nfa()
        return nfa


class _Regions:
    """The Venn cells ("regions") of the distinct languages ``xs`` of one table.

    Each reachable state of the product of the languages' DFAs has a
    pattern, the set of the languages that accept there; each non-zero
    pattern is one region. Regions are disjoint and non-empty, so every
    Boolean combination of the languages is one bitset over them: meet is
    ``&``, join is ``|``, ``u`` is included in ``v`` iff ``u & v == u``, and
    equal bitsets are equal languages.
    """

    def __init__(self, lang: _Languages, xs: tuple[int, ...]) -> None:
        self.lang = lang
        dfas = [lang.dfas[x] for x in xs]
        self.events = list(dfas[0].alphabet) if dfas else []
        self.rows, patterns = _product_table(dfas)
        # Regions are numbered in the order the walk first reaches them.
        region = {p: 1 << i for i, p in enumerate(dict.fromkeys(filter(None, patterns)))}
        self.bits = [region.get(pattern, 0) for pattern in patterns]  # each row's region
        self.bitset = {
            x: sum(bit for pattern, bit in region.items() if pattern >> i & 1)
            for i, x in enumerate(xs)
        }
        self._ids = {u: x for x, u in self.bitset.items()}

    def language(self, u: int) -> int:
        """The interned language of bitset ``u``, whose DFA is reduced from the product once."""
        x = self._ids.get(u)
        if x is None:
            accepting = {s for s, bit in enumerate(self.bits) if bit & u}
            x = self._ids[u] = self.lang.intern_dfa(_canonical(self.events, self.rows, accepting))
        return x


#: Deciding on the fly checks each distinct model against every language
#: interned before it, so its work grows with the square of an entity's
#: distinct models, where minimizing each grows with their number. Over
#: log-derived models of one hidden machine, whose languages first differ on
#: long words, it took at most 0.6 of minimizing's time up to 8 models with
#: two or more languages among them, and 1.3 to 1.6 times as long from 24;
#: with one language in all, about as long at any count (Python 3.11, 2
#: vCPUs). Past this many distinct models, an entity minimizes.
_ON_THE_FLY_MODELS = 8


class _OnTheFly(dict):
    """A run's language tables, entity -> ``_Languages``, for levels that read no DFA.

    Levels 1, 3 and 4 ask only which models are equal and which are empty,
    so the tables of this dict decide both on the fly, unless the entity
    has more than ``_ON_THE_FLY_MODELS`` distinct models. Any other dict of
    tables minimizes every model, as levels 2, 5 and 6 need.
    """


def _table(workspace: Workspace, languages: dict, entity: str) -> _Languages:
    """The entity's table in ``languages``, added on first use over its workspace alphabet."""
    if entity not in languages:
        models = {ms.models[entity] for ms in workspace.model_sets}
        alphabet = frozenset().union(*(m.alphabet for m in models))
        on_the_fly = isinstance(languages, _OnTheFly) and len(models) <= _ON_THE_FLY_MODELS
        languages[entity] = _Languages(alphabet, minimize=not on_the_fly)
    return languages[entity]


def _ids(workspace: Workspace, languages: dict, entity: str) -> list[int]:
    """The language of each model set's model of ``entity``, in model-set order."""
    lang = _table(workspace, languages, entity)
    return lang.ids([ms.models[entity] for ms in workspace.model_sets])


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
    languages = _OnTheFly() if languages is None else languages
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
) -> tuple[list[_Regions], list[tuple[int, ...]]]:
    """The closure of vectors of interned languages, one component per table.

    Returns each component's regions and the nodes in creation order as
    region bitsets; no computed language is reduced here, ``language`` of
    a component's regions does that when a caller reads it. The regions and
    their product tables stay on the tables for the run, so another closure
    over the same observed languages reuses them.
    """
    regions = [lang.regions(column) for lang, column in zip(languages, zip(*observed))]
    observed_bitsets = [tuple(r.bitset[x] for r, x in zip(regions, node)) for node in observed]
    return regions, _close(observed_bitsets, node_cap)


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

    Entity ``e``'s machine is ``lang.machine(regions.language(u))`` for its
    component's regions and bitset ``u``: reduced and converted on first
    read, and shared after that through the table's caches, so reading
    gives the machines, and the sharing, that building them up front gave.
    """

    def __init__(self, index: dict[str, int], regions: list[_Regions], node: tuple[int, ...]):
        self._index = index  # entity -> component
        self._regions = regions
        self._node = node

    def __getitem__(self, entity: str) -> Nfa:
        k = self._index[entity]
        regions = self._regions[k]
        with regions.lang.lock:  # the table's caches are shared by every payload
            return regions.lang.machine(regions.language(self._node[k]))

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
    columns = [lang.ids([rep.models[e] for rep in reps]) for lang, e in zip(languages, entities)]
    observed = [tuple(column[i] for column in columns) for i in range(len(reps))]
    regions, bitsets = _complete(observed, languages, node_cap)

    index = {e: k for k, e in enumerate(entities)}
    payloads = reps + [
        ModelSet(variant_letters(i), _ComputedModels(index, regions, bitsets[i]))
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
    languages = _OnTheFly() if languages is None else languages
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
    languages = _OnTheFly() if languages is None else languages
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
    observed = [(x,) for x in lang.ids([cls.representative for cls in partition.classes])]
    regions, bitsets = _complete(observed, [lang], node_cap)
    payloads = [cls.representative for cls in partition.classes]
    payloads += [lang.machine(regions[0].language(u)) for (u,) in bitsets[len(payloads) :]]
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
