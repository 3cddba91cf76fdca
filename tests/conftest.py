"""Shared fixtures: the running example, fig-2 pair, and brute-force oracles.

The oracles deliberately re-implement trace enumeration on the raw
transition relation so they stay independent of the library's
minimize/product code paths. The NFA and model-set operations here
(``union``, ``intersection``, ``determinize``, ``has_behavior`` and the
lifted ``model_set_*`` operators), the pairwise ``canonical_product`` with
``language_equivalent`` and ``language_included``, ``local_scores`` and
``build_nfa`` are not part of the library: tests use them as references for
the pipeline's canonical-DFA algebra or to build inputs.
"""

from __future__ import annotations

import functools
import itertools
import operator
import random
from pathlib import Path
from typing import Callable, Iterable, Iterator

import pytest

from fsmcompare import (
    CanonicalDfa,
    Change,
    DiffMachine,
    DiffParams,
    DiffState,
    DiffTransition,
    HidingConfig,
    LatticeCapExceeded,
    Matching,
    ModelSet,
    Nfa,
    NfaParseError,
    ScoreTable,
    VariantPartition,
    Workspace,
    WorkspaceLoadError,
    automata,
    minimize,
    parse_nfa,
    variant_letters,
    with_alphabet,
)
from fsmcompare.levels import DEFAULT_NODE_CAP, _complete, _table
from fsmcompare.ltsdiff import _pair_tables, _rows

DATA_DIR = Path(__file__).parent / "data"


class OracleBudgetExceeded(Exception):
    """The brute-force walk grew past its node budget; caller should resample."""


def _adjacency(machine: Nfa):
    succ: dict[tuple[str, str], set[str]] = {}
    for src, event, dst in machine.transitions:
        succ.setdefault((src, event), set()).add(dst)
    return succ


def oracle_language(machine: Nfa, max_len: int, alphabet=None, budget: int = 500_000):
    """All accepted traces up to max_len by explicit prefix-tree search."""
    events = sorted(alphabet if alphabet is not None else machine.alphabet)
    succ = _adjacency(machine)
    accepting = set(machine.accepting)
    result: set[tuple[str, ...]] = set()
    nodes = 0
    stack = [((), set(machine.initial))]
    while stack:
        prefix, current = stack.pop()
        nodes += 1
        if nodes > budget:
            raise OracleBudgetExceeded
        if current & accepting:
            result.add(prefix)
        if len(prefix) == max_len:
            continue
        for event in events:
            nxt: set[str] = set()
            for state in current:
                nxt |= succ.get((state, event), set())
            if nxt:
                stack.append((prefix + (event,), nxt))
    return frozenset(result)


def oracle_compare(a: Nfa, b: Nfa, bound: int, budget: int = 500_000):
    """(a_accepts_something_b_rejects, vice versa) up to the given length.

    Walks the joint prefix tree once, comparing the acceptance bit of both
    machines at every prefix; no determinization or product machinery.
    """
    events = sorted(set(a.alphabet) | set(b.alphabet))
    succ_a = _adjacency(a)
    succ_b = _adjacency(b)
    acc_a = set(a.accepting)
    acc_b = set(b.accepting)
    a_only = b_only = False
    nodes = 0
    stack = [(0, set(a.initial), set(b.initial))]
    while stack:
        depth, sa, sb = stack.pop()
        nodes += 1
        if nodes > budget:
            raise OracleBudgetExceeded
        in_a = bool(sa & acc_a)
        in_b = bool(sb & acc_b)
        a_only = a_only or (in_a and not in_b)
        b_only = b_only or (in_b and not in_a)
        if a_only and b_only:
            break
        if depth == bound:
            continue
        for event in events:
            na: set[str] = set()
            for state in sa:
                na |= succ_a.get((state, event), set())
            nb: set[str] = set()
            for state in sb:
                nb |= succ_b.get((state, event), set())
            if na or nb:
                stack.append((depth + 1, na, nb))
    return a_only, b_only


def oracle_accepts_with_insertions(machine: Nfa, fillers, trace) -> bool:
    """Does the machine accept the trace with arbitrary filler events inserted?

    Direct reachability over (state, position) pairs; used as the projection
    oracle for event hiding.
    """
    fillers = set(fillers)
    succ = _adjacency(machine)
    seen = {(s, 0) for s in machine.initial}
    stack = list(seen)
    while stack:
        state, pos = stack.pop()
        if pos == len(trace) and state in machine.accepting:
            return True
        moves = []
        for event in fillers & set(machine.alphabet):
            for nxt in succ.get((state, event), ()):
                moves.append((nxt, pos))
        if pos < len(trace):
            for nxt in succ.get((state, trace[pos]), ()):
                moves.append((nxt, pos + 1))
        for move in moves:
            if move not in seen:
                seen.add(move)
                stack.append(move)
    return False


def oracle_subset_table(machine: Nfa) -> tuple[list[str], list[list[int]], set[int]]:
    """Complete subset construction: (events, rows, accepting ids).

    Rows are numbered in breadth-first discovery order from the initial
    subset, events in lexicographic order, and every event of every row has
    a target: the empty subset is a row like any other.
    """
    events = sorted(machine.alphabet)
    succ = _adjacency(machine)
    start = frozenset(machine.initial)
    index: dict[frozenset[str], int] = {start: 0}
    order: list[frozenset[str]] = [start]
    rows: list[list[int]] = []
    for subset in order:  # grows while it is walked
        row = []
        for event in events:
            nxt: set[str] = set()
            for state in subset:
                nxt |= succ.get((state, event), set())
            frozen = frozenset(nxt)
            j = index.get(frozen)
            if j is None:
                j = index[frozen] = len(order)
                order.append(frozen)
            row.append(j)
        rows.append(row)
    accepting = {i for i, subset in enumerate(order) if subset & machine.accepting}
    return events, rows, accepting


def _significant_lines(text: str):
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield number, line.split()


def oracle_parse_nfa(text: str, path: str | None = None) -> Nfa:
    """The .nfa parser as two passes: tokenize every line, then read the tokens.

    ``ingest.parse_nfa`` reads the text in one loop; on valid text both give
    ``==`` machines, and on invalid text both raise with the same message,
    line and path.
    """
    lines = list(_significant_lines(text))
    if not lines:
        raise NfaParseError("missing 'nfa v1' header", path=path)
    number, tokens = lines[0]
    if tuple(tokens) != ("nfa", "v1"):
        raise NfaParseError(f"expected 'nfa v1' header, got {' '.join(tokens)!r}", number, path)

    states: dict[str, tuple[bool, bool]] = {}
    alphabet: set[str] = set()
    transitions: list[tuple[str, str, str, int]] = []
    for number, tokens in lines[1:]:
        kind, args = tokens[0], tokens[1:]
        if kind == "state":
            if not args:
                raise NfaParseError("state line needs a name", number, path)
            name, flags = args[0], args[1:]
            if name in states:
                raise NfaParseError(f"duplicate declaration of state {name!r}", number, path)
            initial = accepting = False
            for flag in flags:
                if flag == "initial" and not initial:
                    initial = True
                elif flag == "accepting" and not accepting:
                    accepting = True
                else:
                    raise NfaParseError(f"unexpected state flag {flag!r}", number, path)
            states[name] = (initial, accepting)
        elif kind == "trans":
            if len(args) != 3:
                raise NfaParseError("trans line needs source, event and target", number, path)
            src, event, dst = args
            alphabet.add(event)
            transitions.append((src, event, dst, number))
        elif kind == "alphabet":
            alphabet.update(args)
        else:
            raise NfaParseError(f"unknown directive {kind!r}", number, path)

    for src, _, dst, number in transitions:
        for name in (src, dst):
            if name not in states:
                raise NfaParseError(f"undeclared state {name!r} in transition", number, path)

    try:
        return Nfa(
            frozenset(states),
            frozenset(alphabet),
            frozenset((s, e, t) for s, e, t, _ in transitions),
            frozenset(name for name, (initial, _) in states.items() if initial),
            frozenset(name for name, (_, accepting) in states.items() if accepting),
        )
    except ValueError as exc:
        raise NfaParseError(str(exc), path=path) from exc


def oracle_write_nfa(machine: Nfa) -> str:
    """The .nfa writer that sorts the name tuples, then formats each line.

    ``ingest.write_nfa`` formats first and sorts the lines as strings; both
    give the same text for every valid machine.
    """
    lines = ["nfa v1"]
    used = {e for _, e, _ in machine.transitions}
    extra = sorted(machine.alphabet - used)
    if extra:
        lines.append("alphabet " + " ".join(extra))
    for state in sorted(machine.states):
        flags = ""
        if state in machine.initial:
            flags += " initial"
        if state in machine.accepting:
            flags += " accepting"
        lines.append(f"state {state}{flags}")
    for src, event, dst in sorted(machine.transitions):
        lines.append(f"trans {src} {event} {dst}")
    return "\n".join(lines) + "\n"


def oracle_hide_events(machine: Nfa, hidden) -> Nfa:
    """Hiding with a silent closure for every state, closed on both sides of each step.

    ``automata.hide_events`` closes only the states that have a silent step
    and must return an ``==`` machine.
    """
    hidden_set = frozenset(hidden) & machine.alphabet
    if not hidden_set:
        return machine

    silent: dict[str, set[str]] = {}
    visible: dict[str, set[tuple[str, str]]] = {}
    for src, event, dst in machine.transitions:
        if event in hidden_set:
            silent.setdefault(src, set()).add(dst)
        else:
            visible.setdefault(src, set()).add((event, dst))

    closure: dict[str, set[str]] = {}
    for state in machine.states:
        seen = {state}
        stack = [state]
        while stack:
            cur = stack.pop()
            for nxt in silent.get(cur, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        closure[state] = seen

    trans: set[tuple[str, str, str]] = set()
    for state in machine.states:
        for reached in closure[state]:
            for event, dst in visible.get(reached, ()):
                for target in closure[dst]:
                    trans.add((state, event, target))
    accepting = frozenset(s for s in machine.states if closure[s] & machine.accepting)
    return Nfa(
        machine.states,
        machine.alphabet - hidden_set,
        frozenset(trans),
        machine.initial,
        accepting,
    )


def determinize(machine: Nfa) -> Nfa:
    """The deterministic, complete machine of ``oracle_subset_table``; row i is state d<i>."""
    events, rows, accepting = oracle_subset_table(machine)
    names = [f"d{i}" for i in range(len(rows))]
    return Nfa(
        frozenset(names),
        machine.alphabet,
        frozenset(
            (names[i], event, names[t]) for i, row in enumerate(rows) for event, t in zip(events, row)
        ),
        frozenset({"d0"}),
        frozenset(names[i] for i in accepting),
    )


def has_behavior(machine: Nfa) -> bool:
    """True iff some accepting state is reachable from an initial one."""
    succ: dict[str, set[str]] = {}
    for src, _, dst in machine.transitions:
        succ.setdefault(src, set()).add(dst)
    seen = set(machine.initial)
    stack = list(machine.initial)
    while stack:
        state = stack.pop()
        if state in machine.accepting:
            return True
        for nxt in succ.get(state, ()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return False


def union(a: Nfa, b: Nfa) -> Nfa:
    """Disjoint union; accepts exactly the traces accepted by either machine."""
    trans = {(f"l:{s}", e, f"l:{t}") for s, e, t in a.transitions}
    trans |= {(f"r:{s}", e, f"r:{t}") for s, e, t in b.transitions}
    states = {f"l:{s}" for s in a.states} | {f"r:{s}" for s in b.states}
    initial = {f"l:{s}" for s in a.initial} | {f"r:{s}" for s in b.initial}
    accepting = {f"l:{s}" for s in a.accepting} | {f"r:{s}" for s in b.accepting}
    return Nfa(
        frozenset(states),
        a.alphabet | b.alphabet,
        frozenset(trans),
        frozenset(initial),
        frozenset(accepting),
    )


def intersection(a: Nfa, b: Nfa) -> Nfa:
    """Reachable product construction over the union alphabet."""
    succ_a = _adjacency(a)
    succ_b = _adjacency(b)
    shared = sorted(a.alphabet & b.alphabet)
    start_pairs = [(p, q) for p in sorted(a.initial) for q in sorted(b.initial)]
    index = {pair: f"p{i}" for i, pair in enumerate(start_pairs)}
    order = list(index)
    trans: set[tuple[str, str, str]] = set()
    for p, q in order:  # grows while it is walked
        for event in shared:
            for pair in sorted(
                (pt, qt) for pt in succ_a.get((p, event), ()) for qt in succ_b.get((q, event), ())
            ):
                if pair not in index:
                    index[pair] = f"p{len(order)}"
                    order.append(pair)
                trans.add((index[(p, q)], event, index[pair]))
    accepting = frozenset(
        name for (p, q), name in index.items() if p in a.accepting and q in b.accepting
    )
    return Nfa(
        frozenset(index.values()),
        a.alphabet | b.alphabet,
        frozenset(trans),
        frozenset(index[pair] for pair in start_pairs),
        accepting,
    )


def _same_entities(s1: ModelSet, s2: ModelSet) -> tuple[str, ...]:
    if s1.entities() != s2.entities():
        raise ValueError(f"entity sets differ: {s1.entities()} vs {s2.entities()}")
    return s1.entities()


def model_set_equivalent(s1: ModelSet, s2: ModelSet) -> bool:
    """Language equivalence at every entity."""
    return all(language_equivalent(s1.models[e], s2.models[e]) for e in _same_entities(s1, s2))


def model_set_included(s1: ModelSet, s2: ModelSet) -> bool:
    """Language inclusion at every entity."""
    return all(language_included(s1.models[e], s2.models[e]) for e in _same_entities(s1, s2))


def model_set_union(s1: ModelSet, s2: ModelSet) -> ModelSet:
    models = {e: union(s1.models[e], s2.models[e]) for e in _same_entities(s1, s2)}
    return ModelSet(f"union({s1.name},{s2.name})", models)


def model_set_intersection(s1: ModelSet, s2: ModelSet) -> ModelSet:
    models = {e: intersection(s1.models[e], s2.models[e]) for e in _same_entities(s1, s2)}
    return ModelSet(f"intersection({s1.name},{s2.name})", models)


def diff_entity_counts(s1: ModelSet, s2: ModelSet) -> tuple[int, int]:
    """(changed, newly_present): entities whose non-empty languages differ,
    and entities with behavior only in ``s2``."""
    changed = newly_present = 0
    for e in _same_entities(s1, s2):
        b1, b2 = has_behavior(s1.models[e]), has_behavior(s2.models[e])
        if b1 and b2 and not language_equivalent(s1.models[e], s2.models[e]):
            changed += 1
        elif not b1 and b2:
            newly_present += 1
    return changed, newly_present


def canonical_product(
    a: CanonicalDfa, b: CanonicalDfa, accept: Callable[[bool, bool], bool]
) -> CanonicalDfa:
    """Canonical DFA of the product of two canonical DFAs over one alphabet.

    ``accept`` decides a product state from the acceptance of its two
    components: ``operator.and_`` gives the intersection of the languages,
    ``operator.or_`` their union. The table handed to ``automata._canonical``
    is sparse: a transition to a pair known to be dead is left out.
    """
    if a.alphabet != b.alphabet:
        raise ValueError("canonical product needs aligned alphabets")
    # A pair is known dead when one component is its machine's sink and no
    # acceptance of the other component makes it accept, or when both are.
    dead_a = a.sink if not (accept(False, False) or accept(False, True)) else None
    dead_b = b.sink if not (accept(False, False) or accept(True, False)) else None
    dead_both = (a.sink, b.sink) if not accept(False, False) else None
    index: dict[tuple[int, int], int] = {(0, 0): 0}
    order = [(0, 0)]
    rows: list[list[tuple[int, int]]] = []
    for p, q in order:  # grows while it is walked
        row = []
        for k, pair in enumerate(zip(a.transitions[p], b.transitions[q])):
            if pair[0] == dead_a or pair[1] == dead_b or pair == dead_both:
                continue
            j = index.get(pair)
            if j is None:
                j = index[pair] = len(order)
                order.append(pair)
            row.append((k, j))
        rows.append(row)
    accepting = {
        i for i, (p, q) in enumerate(order) if accept(p in a.accepting, q in b.accepting)
    }
    return automata._canonical(list(a.alphabet), rows, accepting)


def language_equivalent(a: Nfa, b: Nfa) -> bool:
    """True iff both machines accept the same language over the union of their alphabets."""
    sigma = a.alphabet | b.alphabet
    return minimize(with_alphabet(a, sigma)) == minimize(with_alphabet(b, sigma))


def language_included(a: Nfa, b: Nfa) -> bool:
    """True iff every trace ``a`` accepts is accepted by ``b``, over the union alphabet.

    ``a`` is included in ``b`` iff intersecting it with ``b`` leaves it as is.
    """
    sigma = a.alphabet | b.alphabet
    min_a = minimize(with_alphabet(a, sigma))
    return canonical_product(min_a, minimize(with_alphabet(b, sigma)), operator.and_) == min_a


def local_scores(a: Nfa, b: Nfa) -> ScoreTable:
    """Similarity from directly connected transition labels only: the seed of ``global_scores``."""
    left, right, s0, _, _ = _pair_tables(a, b)
    return ScoreTable(left, right, _rows(s0, len(left), len(right)))


class OracleLanguages:
    """The product closure's language table: one entity's languages as small ints.

    Each distinct machine is minimized over ``alphabet``; meet and join are
    pairwise canonical products, computed once per unordered pair, and
    ``x <= y`` iff ``meet(x, y) == x``. ``levels._Regions`` must give the
    same languages without any product of two DFAs.
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
        """``accept`` is ``operator.and_`` (meet) or ``operator.or_`` (join)."""
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
        return self.combine(operator.and_, x, y) == x


def oracle_close(observed, tables, node_cap: int) -> list[tuple[int, ...]]:
    """The product closure: vectors of ``OracleLanguages`` ints under meet and join.

    Pairs go first-in-first-out, meet before join; a node is new unless an
    equal vector exists, and one node past ``node_cap`` raises.
    """
    nodes = list(observed)
    seen = set(nodes)
    qi = 0
    pairs = [(i, j) for i in range(len(nodes)) for j in range(i + 1, len(nodes))]
    while qi < len(pairs):
        i, j = pairs[qi]
        qi += 1
        for accept in (operator.and_, operator.or_):
            node = tuple(
                lang.combine(accept, x, y) for lang, x, y in zip(tables, nodes[i], nodes[j])
            )
            if node in seen:
                continue
            if len(nodes) >= node_cap:
                raise LatticeCapExceeded(f"lattice completion exceeded the node cap of {node_cap}")
            pairs.extend((k, len(nodes)) for k in range(len(nodes)))
            nodes.append(node)
            seen.add(node)
    return nodes


def interned(tables, nodes) -> list[tuple[int, ...]]:
    """Each node, one machine per table, as the vector of its machines' ids in ``tables``."""
    columns = [table.ids([node[k] for node in nodes]) for k, table in enumerate(tables)]
    return [tuple(column[i] for column in columns) for i in range(len(nodes))]


def eager_level2_payloads(
    partition: VariantPartition, node_cap: int = DEFAULT_NODE_CAP
) -> list[ModelSet]:
    """Level 2's payloads in closure order, every computed machine built up front.

    This is how ``level2`` built them before it reduced a computed component
    only when read: each computed node's models are a dict of
    ``lang.machine(x)`` for the interned language ``x`` of each component.
    """
    reps = [cls.representative for cls in partition.classes]
    entities = reps[0].entities() if reps else ()
    shared: dict = {}
    languages = [_table(partition.workspace, shared, e) for e in entities]
    observed = interned(languages, [[rep.models[e] for e in entities] for rep in reps])
    regions, bitsets = _complete(observed, languages, node_cap)
    vectors = [tuple(r.language(u) for r, u in zip(regions, node)) for node in bitsets]
    return reps + [
        ModelSet(
            variant_letters(i),
            {e: lang.machine(x) for e, lang, x in zip(entities, languages, vectors[i])},
        )
        for i in range(len(reps), len(vectors))
    ]


def oracle_load_workspace(root: Path | str, hiding: HidingConfig | None = None) -> Workspace:
    """``load_workspace`` through ``pathlib``: ``glob`` each model set, then stat every file.

    ``ingest.load_workspace`` lists each directory once and opens only the
    files its listings returned; both read the same files, in the same order,
    and fail with the same texts. Both skip names that start with ".".
    """
    hiding = hiding or HidingConfig()
    root = Path(root)
    if not root.is_dir():
        raise WorkspaceLoadError([f"input directory {root} does not exist"])
    set_dirs = sorted(p for p in root.iterdir() if p.is_dir() and not p.name.startswith("."))
    if not set_dirs:
        raise WorkspaceLoadError([f"no model sets found under {root}"])
    files = [p for d in set_dirs for p in d.glob("*.nfa") if not p.name.startswith(".")]
    entities = sorted({p.stem for p in files if p.is_file()})
    errors: list[str] = []
    model_sets: list[ModelSet] = []
    for directory in set_dirs:
        models: dict[str, Nfa] = {}
        for entity in entities:
            path = directory / f"{entity}.nfa"
            if not path.is_file():
                models[entity] = Nfa.empty()
                continue
            try:
                text = path.read_text(encoding="utf-8")
            except (OSError, UnicodeDecodeError) as exc:
                errors.append(f"{path}: {exc}")
                continue
            try:
                models[entity] = hiding.apply(parse_nfa(text, path=str(path)))
            except NfaParseError as exc:
                errors.append(str(exc))
        model_sets.append(ModelSet(directory.name, models))
    if errors:
        raise WorkspaceLoadError(errors)
    return Workspace(tuple(entities), tuple(model_sets))


def oracle_cover_edges(nodes, languages) -> list[tuple[int, int]]:
    """Cover edges ``(i, j)`` of closure ``nodes`` by asking every ordered node pair.

    ``nodes`` are vectors of interned languages, one per ``OracleLanguages``
    table in ``languages``; ``i`` lies below ``j`` when every component of
    ``i`` is included in ``j``'s. A cover edge has no node strictly between its ends.
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


def complete_table(events, rows, accepting, dead=None):
    """A sparse table (``automata.Rows``) as the complete table ``oracle_canonical`` takes.

    Missing events lead to row ``dead``. Without one, they lead to a new
    rejecting last row that loops on every event, added only when some
    event is missing.
    """
    width = len(events)
    if dead is None and any(len(row) < width for row in rows):
        dead = len(rows)
        rows = [*rows, []]
    complete = []
    for row in rows:
        targets = dict(row)
        complete.append([targets.get(k, dead) for k in range(width)])
    return list(events), complete, set(accepting)


def oracle_canonical(events: list[str], rows: list[list[int]], accepting: set[int]) -> CanonicalDfa:
    """Moore refinement: re-signature every row over every event until stable.

    Takes the same complete, reachable table as ``automata._canonical`` and
    renumbers the same way, so results must compare equal with ``==``.
    """
    n = len(rows)
    block = [1 if i in accepting else 0 for i in range(n)]
    while True:
        signatures: dict[tuple, int] = {}
        refined = [0] * n
        for i in range(n):
            key = (block[i], tuple(block[t] for t in rows[i]))
            if key not in signatures:
                signatures[key] = len(signatures)
            refined[i] = signatures[key]
        if refined == block:
            break
        block = refined

    representative: dict[int, int] = {}
    for i, b in enumerate(block):
        representative.setdefault(b, i)

    number: dict[int, int] = {block[0]: 0}
    bfs = [block[0]]
    qi = 0
    while qi < len(bfs):
        b = bfs[qi]
        qi += 1
        for k in range(len(events)):
            nb = block[rows[representative[b]][k]]
            if nb not in number:
                number[nb] = len(bfs)
                bfs.append(nb)
    trans = tuple(
        tuple(number[block[rows[representative[b]][k]]] for k in range(len(events))) for b in bfs
    )
    acc = frozenset(number[block[i]] for i in accepting)
    sink = next(
        (i for i in range(len(bfs)) if i not in acc and all(t == i for t in trans[i])),
        None,
    )
    return CanonicalDfa(tuple(events), trans, acc, sink)


def score(table: ScoreTable, p: str, q: str) -> float:
    """The score of state pair (p, q), looked up by name."""
    return table.values[table.left.index(p)][table.right.index(q)]


def _oracle_label_maps(machine: Nfa):
    out: dict[str, set[str]] = {s: set() for s in machine.states}
    inc: dict[str, set[str]] = {s: set() for s in machine.states}
    for src, event, dst in machine.transitions:
        out[src].add(event)
        inc[dst].add(event)
    return out, inc


def _oracle_edge_maps(machine: Nfa, states: tuple[str, ...]):
    idx = {s: i for i, s in enumerate(states)}
    succ: dict[tuple[int, str], list[int]] = {}
    pred: dict[tuple[int, str], list[int]] = {}
    for src, event, dst in sorted(machine.transitions):
        succ.setdefault((idx[src], event), []).append(idx[dst])
        pred.setdefault((idx[dst], event), []).append(idx[src])
    return succ, pred


def _oracle_jaccard(a: set[str], b: set[str]) -> float:
    if not a and not b:
        return 1.0
    return len(a & b) / len(a | b)


def oracle_score_steps(a: Nfa, b: Nfa, attenuation: float) -> Iterator[tuple[ScoreTable, float]]:
    """Dense score iteration: every pair, every step, nested-list tables.

    Yields each step's table with its max-norm change from the step before,
    without end; ``oracle_global_scores`` stops it as the library does.
    """
    left = tuple(sorted(a.states))
    right = tuple(sorted(b.states))
    out_a, in_a = _oracle_label_maps(a)
    out_b, in_b = _oracle_label_maps(b)
    succ_a, pred_a = _oracle_edge_maps(a, left)
    succ_b, pred_b = _oracle_edge_maps(b, right)
    s0 = [
        [
            0.5 * (_oracle_jaccard(out_a[p], out_b[q]) + _oracle_jaccard(in_a[p], in_b[q]))
            for q in right
        ]
        for p in left
    ]

    def groups(i, j, edges_p, edges_q, labels):
        """Per shared event, the neighbour pairs whose best score counts; None if none."""
        return [
            [(pi, qi) for pi in edges_p[(i, e)] for qi in edges_q[(j, e)]] for e in sorted(labels)
        ] or None

    succ_groups = [
        [groups(i, j, succ_a, succ_b, out_a[p] & out_b[q]) for j, q in enumerate(right)]
        for i, p in enumerate(left)
    ]
    pred_groups = [
        [groups(i, j, pred_a, pred_b, in_a[p] & in_b[q]) for j, q in enumerate(right)]
        for i, p in enumerate(left)
    ]
    k = attenuation
    current = [row[:] for row in s0]
    yield ScoreTable(left, right, tuple(tuple(row) for row in current)), 0.0
    while True:
        delta = 0.0
        nxt = []
        for i in range(len(left)):
            row = []
            for j in range(len(right)):
                averages = []
                for side in (succ_groups[i][j], pred_groups[i][j]):
                    if side is None:
                        averages.append(s0[i][j])
                    else:
                        best = [max(current[pi][qi] for pi, qi in g) for g in side]
                        averages.append(functools.reduce(operator.add, best) / len(side))
                value = (1.0 - k) * s0[i][j] + k * 0.5 * (averages[0] + averages[1])
                delta = max(delta, abs(value - current[i][j]))
                row.append(value)
            nxt.append(row)
        current = nxt
        yield ScoreTable(left, right, tuple(tuple(row) for row in current)), delta


def oracle_global_scores(a: Nfa, b: Nfa, params: DiffParams) -> ScoreTable:
    """The table of ``oracle_score_steps`` at which the library's iteration stops.

    The float expressions and their evaluation order are the library's
    contract, so results must compare equal with ``==``, not approximately.
    """
    steps = oracle_score_steps(a, b, params.attenuation)
    table, _ = next(steps)  # S0, the table after zero steps
    for table, delta in itertools.islice(steps, params.max_iterations):
        if delta <= params.convergence_epsilon:
            break
    return table


def oracle_compute_matching(a: Nfa, b: Nfa, scores: ScoreTable, landmarks: Matching) -> Matching:
    """Landmark growth that rescans the whole pool, and every pair on fallback."""
    left, right = scores.left, scores.right
    lidx = {s: i for i, s in enumerate(left)}
    ridx = {s: j for j, s in enumerate(right)}
    out_a, in_a = _oracle_label_maps(a)
    out_b, in_b = _oracle_label_maps(b)
    succ_a, pred_a = _oracle_edge_maps(a, left)
    succ_b, pred_b = _oracle_edge_maps(b, right)
    values = scores.values
    matched = sorted((lidx[p], ridx[q]) for p, q in landmarks)
    used_left = {i for i, _ in matched}
    used_right = {j for _, j in matched}
    pool: set[tuple[int, int]] = set()

    def expand(i: int, j: int) -> None:
        p, q = left[i], right[j]
        for event in out_a[p] & out_b[q]:
            pool.update((pi, qi) for pi in succ_a[(i, event)] for qi in succ_b[(j, event)])
        for event in in_a[p] & in_b[q]:
            pool.update((pi, qi) for pi in pred_a[(i, event)] for qi in pred_b[(j, event)])

    def rank(ij):
        return (-values[ij[0]][ij[1]], left[ij[0]], right[ij[1]])

    def best(candidates):
        free = [(i, j) for i, j in candidates if i not in used_left and j not in used_right]
        return min(free, key=rank, default=None)

    for i, j in matched:
        expand(i, j)
    all_pairs = [(i, j) for i in range(len(left)) for j in range(len(right))]
    while True:
        pick = best(pool)
        if pick is None:
            pick = best(all_pairs)
            if pick is None or values[pick[0]][pick[1]] <= 0.0:
                break
        i, j = pick
        matched.append((i, j))
        used_left.add(i)
        used_right.add(j)
        pool.discard((i, j))
        expand(i, j)
    return frozenset((left[i], right[j]) for i, j in matched)


def oracle_build_diff(a: Nfa, b: Nfa, matching: Matching) -> DiffMachine:
    """Diff machine assembly with one loop per kind of state and of transition."""
    to_b = dict(matching)
    to_a = {q: p for p, q in matching}

    def a_key(p: str) -> tuple[str | None, str | None]:
        return (p, to_b.get(p))

    def b_key(q: str) -> tuple[str | None, str | None]:
        return (to_a.get(q), q)

    def both(in_a: bool, in_b: bool) -> Change | None:
        if in_a and in_b:
            return Change.UNCHANGED
        if in_a:
            return Change.REMOVED
        if in_b:
            return Change.ADDED
        return None

    states: list[DiffState] = []
    for p, q in matching:
        states.append(
            DiffState(
                p,
                q,
                Change.UNCHANGED,
                both(p in a.initial, q in b.initial),
                both(p in a.accepting, q in b.accepting),
            )
        )
    for p in a.states - to_b.keys():
        states.append(
            DiffState(
                p,
                None,
                Change.REMOVED,
                Change.REMOVED if p in a.initial else None,
                Change.REMOVED if p in a.accepting else None,
            )
        )
    for q in b.states - to_a.keys():
        states.append(
            DiffState(
                None,
                q,
                Change.ADDED,
                Change.ADDED if q in b.initial else None,
                Change.ADDED if q in b.accepting else None,
            )
        )

    transitions: list[DiffTransition] = []
    for p, event, pt in a.transitions:
        shared = p in to_b and pt in to_b and (to_b[p], event, to_b[pt]) in b.transitions
        change = Change.UNCHANGED if shared else Change.REMOVED
        transitions.append(DiffTransition(a_key(p), event, a_key(pt), change))
    for q, event, qt in b.transitions:
        shared = q in to_a and qt in to_a and (to_a[q], event, to_a[qt]) in a.transitions
        if not shared:
            transitions.append(DiffTransition(b_key(q), event, b_key(qt), Change.ADDED))

    def state_key(state: DiffState):
        return (state.left is None, state.left or "", state.right is None, state.right or "")

    def transition_key(t: DiffTransition):
        def k(pair):
            l, r = pair
            return (l is None, l or "", r is None, r or "")

        return (k(t.source), t.event, k(t.target), t.change.value)

    return DiffMachine(
        tuple(sorted(states, key=state_key)), tuple(sorted(transitions, key=transition_key))
    )


def build_nfa(
    transitions: Iterable[tuple[str, str, str]] = (),
    initial: Iterable[str] = (),
    accepting: Iterable[str] = (),
    states: Iterable[str] = (),
    alphabet: Iterable[str] = (),
) -> Nfa:
    """A machine whose states and alphabet are the given ones plus those its transitions use."""
    trans = frozenset(tuple(t) for t in transitions)
    sts = frozenset(states) | frozenset(initial) | frozenset(accepting)
    sts |= {s for s, _, _ in trans} | {t for _, _, t in trans}
    alpha = frozenset(alphabet) | {e for _, e, _ in trans}
    return Nfa(sts, alpha, trans, frozenset(initial), frozenset(accepting))


def random_nfa(
    rng: random.Random,
    max_states: int = 8,
    max_events: int = 4,
    density: float = 1.3,
) -> Nfa:
    """A sparse random machine; sparsity keeps the oracles tractable."""
    n = rng.randint(1, max_states)
    k = rng.randint(1, max_events)
    states = [f"s{i}" for i in range(n)]
    events = ["a", "b", "c", "d"][:k]
    count = min(rng.randint(0, max(1, int(density * n))), n * k * n)
    transitions = set()
    for _ in range(count):
        transitions.add((rng.choice(states), rng.choice(events), rng.choice(states)))
    initial = {s for s in states if rng.random() < 0.4} or {rng.choice(states)}
    accepting = {s for s in states if rng.random() < 0.4}
    return build_nfa(
        transitions=transitions,
        initial=initial,
        accepting=accepting,
        states=states,
        alphabet=events,
    )


def random_workspace(rng, n_sets=4, n_entities=4, max_states=5):
    """Random sets of small sparse machines; alphabets differ between sets."""
    entities = tuple(f"e{i}" for i in range(rng.randint(1, n_entities)))
    sets = []
    for i in range(rng.randint(1, n_sets)):
        models = {e: random_nfa(rng, max_states=max_states, max_events=2) for e in entities}
        sets.append(ModelSet(f"m{i}", models))
    return Workspace(entities, tuple(sets))


def dense_workspace(rng, n_sets, n_entities, absent=0.0):
    """Denser machines than random_workspace, so closures compute nodes.

    Each model is absent (the empty machine) with probability ``absent``.
    """
    entities = tuple(f"e{i}" for i in range(n_entities))
    sets = []
    for i in range(n_sets):
        models = {
            e: Nfa.empty()
            if absent and rng.random() < absent
            else random_nfa(rng, max_states=4, max_events=2, density=2.0)
            for e in entities
        }
        sets.append(ModelSet(f"m{i}", models))
    return Workspace(entities, tuple(sets))


def _cycle(*steps):
    return build_nfa(transitions=list(steps), initial=["s1"], accepting=["s1"])


def running_example_machines() -> dict[str, dict[str, Nfa]]:
    e1 = _cycle(("s1", "a", "s2"), ("s2", "b", "s3"), ("s3", "c", "s4"), ("s4", "d", "s1"))
    e2_a = _cycle(("s1", "b", "s2"), ("s2", "d", "s4"), ("s4", "c", "s1"))
    e2_b = _cycle(("s1", "b", "s2"), ("s2", "c", "s4"), ("s4", "d", "s1"))
    e2_c = _cycle(
        ("s1", "b", "s2"),
        ("s2", "e", "s3"),
        ("s2", "c", "s4"),
        ("s3", "c", "s4"),
        ("s4", "d", "s1"),
    )
    e3_a = _cycle(("s1", "b", "s2"), ("s2", "f", "s1"))
    e3_b = _cycle(("s1", "b", "s2"), ("s2", "f", "s1"), ("s2", "a", "s2"))
    e4_a = _cycle(("s1", "e", "s2"), ("s2", "f", "s1"))
    e4_b = build_nfa(
        transitions=[
            ("s1", "e", "s2"),
            ("s1", "e", "s4"),
            ("s2", "f", "s3"),
            ("s3", "e", "s4"),
            ("s4", "f", "s3"),
        ],
        initial=["s1"],
        accepting=["s1", "s3"],
    )
    return {
        "S1": {"E1": e1, "E2": e2_a, "E3": e3_a, "E4": e4_a},
        "S2": {"E1": e1, "E2": e2_a, "E3": e3_a, "E4": e4_b},
        "S3": {"E1": e1, "E2": e2_b, "E3": e3_b, "E4": e4_a},
        "S4": {"E1": e1, "E2": e2_c, "E3": e3_b, "E4": Nfa.empty()},
    }


def fig2_machines() -> tuple[Nfa, Nfa]:
    source = _cycle(("s1", "a", "s2"), ("s2", "b", "s3"), ("s3", "c", "s4"), ("s4", "d", "s1"))
    target = _cycle(("s1", "a", "s2"), ("s2", "b", "s3"), ("s3", "e", "s1"))
    return source, target


@pytest.fixture(scope="session")
def running_example() -> Workspace:
    machines = running_example_machines()
    return Workspace(
        ("E1", "E2", "E3", "E4"),
        tuple(ModelSet(name, models) for name, models in machines.items()),
    )


@pytest.fixture(scope="session")
def running_example_dir() -> Path:
    return DATA_DIR / "running_example"


@pytest.fixture(scope="session")
def fig2_pair() -> tuple[Nfa, Nfa]:
    return fig2_machines()


@pytest.fixture(scope="session")
def fig2_dir() -> Path:
    return DATA_DIR / "fig2"
