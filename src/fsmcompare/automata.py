"""Finite automata and the language-level algorithms everything else builds on.

Machines are immutable NFAs over named events. ``minimize`` reduces one to
its canonical minimal DFA, so equal languages give equal DFAs.
``_same_language`` decides equality on the fly without building either
DFA, and ``_product_table`` walks the product of several machines' subset
tables, whose reductions are the Boolean combinations of their languages.
The levels first widen every machine of an entity to one alphabet
(``with_alphabet``), so machines observed with different event sets
compare the way one would expect. Acyclic tables, which include every
log-derived machine and the products of their languages, are reduced
children first in one pass; cyclic ones by Hopcroft's partition
refinement. ``build_pta`` and ``minimal_pta`` turn a
log's traces into its prefix tree and into that tree's minimal machine.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Sequence

__all__ = [
    "CanonicalDfa",
    "Nfa",
    "Trace",
    "build_pta",
    "hide_events",
    "minimal_pta",
    "minimize",
    "with_alphabet",
]

Trace = tuple[str, ...]

# Names must survive a .nfa round trip, where tokens are split at whitespace
# and "#" starts a comment. The control characters (category Cc) are
# U+0000-U+001F and U+007F-U+009F; ``\s`` is exactly ``str.isspace``.
_UNWRITABLE = re.compile(r"[\s#\x00-\x1f\x7f-\x9f]")


def _check_names(kind: str, names: frozenset[str]) -> None:
    # One search covers every name; the culprit is looked for only on failure.
    if "" in names:
        raise ValueError(f"{kind} name must be non-empty")
    if _UNWRITABLE.search("".join(names)):
        name = min(n for n in names if _UNWRITABLE.search(n))
        raise ValueError(f"{kind} name {name!r} contains whitespace, a control character or '#'")


@dataclass(frozen=True)
class Nfa:
    """A nondeterministic finite automaton.

    The empty machine (all five components empty) is a valid value and is
    used to stand in for entities without observed behavior.
    """

    states: frozenset[str]
    alphabet: frozenset[str]
    transitions: frozenset[tuple[str, str, str]]
    initial: frozenset[str]
    accepting: frozenset[str]

    def __post_init__(self) -> None:
        _check_names("state", self.states)
        _check_names("event", self.alphabet)
        states, alphabet = self.states, self.alphabet
        bad = [
            (src, event, dst)
            for src, event, dst in self.transitions
            if src not in states or dst not in states or event not in alphabet
        ]
        if bad:  # the smallest bad transition is named, whatever the set order
            src, event, dst = min(bad)
            if src not in states:
                raise ValueError(f"transition source {src!r} is not a declared state")
            if dst not in states:
                raise ValueError(f"transition target {dst!r} is not a declared state")
            raise ValueError(f"transition event {event!r} is not in the alphabet")
        if not self.initial <= self.states:
            raise ValueError("initial states must be a subset of states")
        if not self.accepting <= self.states:
            raise ValueError("accepting states must be a subset of states")

    @classmethod
    def empty(cls) -> "Nfa":
        return cls(frozenset(), frozenset(), frozenset(), frozenset(), frozenset())


@dataclass(frozen=True)
class CanonicalDfa:
    """Complete minimal DFA in canonical numbering.

    State 0 is initial; states are numbered breadth-first following events in
    lexicographic order, so two values are structurally identical exactly when
    the underlying languages (over the same alphabet) are equal. ``sink`` marks
    the unique non-accepting trap state when one exists; it is an artifact of
    completion and is dropped again by :meth:`to_nfa`.
    """

    alphabet: tuple[str, ...]
    transitions: tuple[tuple[int, ...], ...]
    accepting: frozenset[int]
    sink: int | None

    @property
    def num_states(self) -> int:
        return len(self.transitions)

    def to_nfa(self) -> Nfa:
        """Convert back to an Nfa, dropping the completion sink."""
        sink = self.sink
        names = [f"q{i}" for i in range(self.num_states)]
        trans = frozenset(
            (names[i], event, names[j])
            for i, row in enumerate(self.transitions)
            if i != sink
            for event, j in zip(self.alphabet, row)
            if j != sink
        )
        states = frozenset(name for i, name in enumerate(names) if i != sink)
        initial = frozenset() if sink == 0 else frozenset({"q0"})
        accepting = frozenset(names[i] for i in self.accepting)
        alphabet = frozenset(self.alphabet)
        _check_names("event", alphabet)  # a value may be built from outside
        return _derived(states, alphabet, trans, initial, accepting)


def _derived(*fields: frozenset) -> Nfa:
    """An ``Nfa`` of the given fields, in order, without ``__post_init__``'s checks.

    Only for machines whose fields already hold what those checks assert:
    every transition's states are states and its event is in the alphabet,
    the initial and accepting states are states, and every name passes
    ``_check_names``. That holds for machines derived from a checked machine
    or a canonical DFA, and for ``ingest.parse_nfa``'s, which looks up each
    transition's states among the declared ones, adds its event to the
    alphabet and checks the names itself. Public ``Nfa(...)`` keeps every check.
    """
    machine = object.__new__(Nfa)
    vars(machine).update(zip(Nfa.__dataclass_fields__, fields))
    return machine


def with_alphabet(machine: Nfa, events: Iterable[str]) -> Nfa:
    """Widen the alphabet; the language is unchanged."""
    extended = machine.alphabet | frozenset(events)
    if extended == machine.alphabet:
        return machine
    _check_names("event", extended - machine.alphabet)
    parts = machine.states, extended, machine.transitions, machine.initial, machine.accepting
    return _derived(*parts)


#: A sparse DFA table: row ``i`` lists its ``(event index, row)`` pairs in
#: event order. An event missing from a row leads to a dead state, one from
#: which no accepting row can be reached.
Rows = list[Sequence[tuple[int, int]]]


#: Each state's transitions out, the machine's own (source, event, target)
#: triples; a state without a transition out has no entry.
Successors = dict[str, list[tuple[str, str, str]]]


def _successors(machine: Nfa) -> Successors:
    """The machine's transitions, indexed by source."""
    succ: Successors = {}
    for step in machine.transitions:
        steps = succ.get(step[0])
        if steps is None:
            succ[step[0]] = [step]
        else:
            steps.append(step)
    return succ


def _step(subset: frozenset[str], succ: Successors) -> dict[str, set[str]]:
    """The targets of a subset of states, by event."""
    by_event: dict[str, set[str]] = {}
    for state in subset:
        for _, event, target in succ.get(state, ()):
            targets = by_event.get(event)
            if targets is None:
                by_event[event] = {target}
            else:
                targets.add(target)
    return by_event


def _subset_table(machine: Nfa) -> tuple[list[str], Rows, set[int]]:
    """Subset construction; returns (events, sparse rows, accepting ids).

    Rows are numbered breadth-first from the initial subset with events in
    lexicographic order. Transitions to the empty subset are left out, so
    it has a row only when it is the initial subset.
    """
    events = sorted(machine.alphabet)
    column = {event: k for k, event in enumerate(events)}
    succ = _successors(machine)
    start = frozenset(machine.initial)
    index: dict[frozenset[str], int] = {start: 0}
    order: list[frozenset[str]] = [start]
    rows: Rows = []
    for subset in order:  # grows while it is walked
        row = []
        for event, targets in sorted(_step(subset, succ).items()):
            target = frozenset(targets)
            j = index.get(target)
            if j is None:
                j = index[target] = len(order)
                order.append(target)
            row.append((column[event], j))
        rows.append(row)
    accepting = {i for i, subset in enumerate(order) if not subset.isdisjoint(machine.accepting)}
    return events, rows, accepting


def _nonempty(machine: Nfa, succ: Successors) -> bool:
    """Whether the machine accepts some word: an accepting state is reachable."""
    seen = set(machine.initial)
    stack = list(seen)
    while stack:
        state = stack.pop()
        if state in machine.accepting:
            return True
        for _, _, target in succ.get(state, ()):
            if target not in seen:
                seen.add(target)
                stack.append(target)
    return False


def _same_language(a: tuple[Nfa, Successors], b: tuple[Nfa, Successors]) -> bool:
    """Whether two machines accept the same words.

    Each machine comes with its successor table (``_successors``). This is
    Hopcroft and Karp's check (1971), run on the fly as Bonchi and Pous run
    it (2013): it walks, breadth first, the pairs of subsets the two
    machines reach on the same word. A union-find of the subsets skips any
    pair already joined, so equal languages cost at most one walk of each
    determinized machine. The walk stops at the first pair where exactly
    one side accepts, reached on a shortest word that one language has and
    the other lacks.
    """
    (machine_a, succ_a), (machine_b, succ_b) = a, b
    accepting_a, accepting_b = machine_a.accepting, machine_b.accepting
    start = frozenset(machine_a.initial), frozenset(machine_b.initial)
    if accepting_a.isdisjoint(start[0]) != accepting_b.isdisjoint(start[1]):
        return False
    ids_a, ids_b = {start[0]: 0}, {start[1]: 1}  # each side's subsets, in one union-find
    parent = [1, 1]
    pairs = [start]
    for subset_a, subset_b in pairs:  # grows while it is walked
        by_a, by_b = _step(subset_a, succ_a), _step(subset_b, succ_b)
        for k in by_a.keys() | by_b.keys():
            target_a, target_b = frozenset(by_a.get(k, ())), frozenset(by_b.get(k, ()))
            i = ids_a.get(target_a)
            if i is None:
                i = ids_a[target_a] = len(parent)
                parent.append(i)
            j = ids_b.get(target_b)
            if j is None:
                j = ids_b[target_b] = len(parent)
                parent.append(j)
            while parent[i] != i:  # path halving
                parent[i] = parent[parent[i]]
                i = parent[i]
            while parent[j] != j:
                parent[j] = parent[parent[j]]
                j = parent[j]
            if i != j:
                if accepting_a.isdisjoint(target_a) != accepting_b.isdisjoint(target_b):
                    return False
                parent[i] = j
                pairs.append((target_a, target_b))
    return True


def _canonical(events: list[str], rows: Rows, accepting: set[int]) -> CanonicalDfa:
    """Minimal canonical form of a sparse DFA table (see ``Rows``).

    Precondition: a missing event leads to a dead state, and every row is
    reachable from row 0 once each missing event is read as a transition
    to every dead row. An acyclic table, which every log-derived machine and
    every product of their languages gives, is reduced children first in one
    pass (``_acyclic_classes``). A cyclic one goes to Hopcroft's algorithm:
    rows from which no accepting row can be reached form one dead block, and
    the live rows are refined over live-to-live transitions only, so the dead
    block is never a splitter and the work follows the transitions present,
    not rows times events. ``_numbering`` then numbers the classes.
    """
    block, members = _acyclic_classes(rows, accepting) or _hopcroft_classes(rows, accepting)
    number, order = _numbering(members, block, block[0], len(events))
    sink = number[-1]
    trans = []
    for c in order:
        line = [sink] * len(events)
        for k, t in members[c] if c >= 0 else ():  # the dead class's row is all sink
            line[k] = number[block[t]]
        trans.append(tuple(line))
    acc = frozenset(number[block[s]] for s in accepting)
    return CanonicalDfa(tuple(events), tuple(trans), acc, sink if sink >= 0 else None)


def _acyclic_classes(rows: Rows, accepting: set[int]) -> tuple[list[int], Rows] | None:
    """Each row's class and each class's row, or None if a cycle is reachable from row 0.

    A depth-first walk from row 0, with an explicit stack since a prefix tree
    is as deep as its longest trace, gives each row, children first, the class
    of its signature (Revuz 1992): whether it accepts and its (event, child
    class) pairs, dead children left out. A rejecting row without a live child
    is dead (-1), as is every row the walk does not reach. The walk gives up
    at its first back edge, even one among dead rows.
    """
    class_of = [-1] * len(rows)
    state = [0] * len(rows)  # 1 while on the walk's path, 2 once classed
    index: dict[tuple, int] = {}
    members: Rows = []
    stack = [0]
    while stack:
        s = stack.pop()
        if s >= 0:
            if state[s]:  # pushed again by another parent and classed since
                continue
            state[s] = 1
            stack.append(~s)  # classed once everything pushed after it is
            for _, t in rows[s]:
                if not state[t]:
                    stack.append(t)
                elif state[t] == 1:
                    return None
        else:
            s = ~s
            state[s] = 2
            row = rows[s]
            signature = (s in accepting, *[(k, class_of[t]) for k, t in row if class_of[t] >= 0])
            if len(signature) > 1 or signature[0]:
                c = class_of[s] = index.setdefault(signature, len(members))
                if c == len(members):  # a new signature
                    members.append(row)
    return class_of, members


def _hopcroft_classes(rows: Rows, accepting: set[int]) -> tuple[list[int], Rows]:
    """Each row's block and each block's row, by Hopcroft's partition refinement."""
    n = len(rows)
    into: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for s, row in enumerate(rows):
        for k, t in row:
            into[t].append((k, s))
    # Co-reachability. Every source of a transition into a live row is live,
    # so the reverse lists of live rows hold live-to-live transitions only.
    live = [False] * n
    stack = list(accepting)
    for s in stack:
        live[s] = True
    while stack:
        for _, s in into[stack.pop()]:
            if not live[s]:
                live[s] = True
                stack.append(s)

    # Refinable partition of the live rows: block b holds elems[first[b]:end[b]],
    # and elems[first[b]:mid[b]] are its rows marked by the current splitter.
    block = [-1] * n  # -1 is the dead block
    elems: list[int] = []
    first: list[int] = []
    end: list[int] = []
    for members in (
        [s for s in range(n) if live[s] and s in accepting],
        [s for s in range(n) if live[s] and s not in accepting],
    ):
        if members:
            for s in members:
                block[s] = len(first)
            first.append(len(elems))
            elems += members
            end.append(len(elems))
    mid = first[:]
    where = [0] * n
    for p, s in enumerate(elems):
        where[s] = p

    # Each split makes the smaller half a new block and queues it. The larger
    # half keeps the parent's id, so it stays queued when the parent was.
    pending = list(range(len(first)))
    while pending:
        c = pending.pop()
        sources: dict[int, list[int]] = {}
        for t in elems[first[c] : end[c]]:
            for k, s in into[t]:
                sources.setdefault(k, []).append(s)
        for hit in sources.values():
            touched = []
            for s in hit:
                b = block[s]
                m = mid[b]
                if m == first[b]:
                    touched.append(b)
                p = where[s]
                other = elems[m]
                elems[p] = other
                where[other] = p
                elems[m] = s
                where[s] = m
                mid[b] = m + 1
            for b in touched:
                f, m, e = first[b], mid[b], end[b]
                mid[b] = f
                if m == e:
                    continue
                new = len(first)
                if m - f <= e - m:
                    first.append(f)
                    end.append(m)
                    first[b] = mid[b] = m
                else:
                    first.append(m)
                    end.append(e)
                    end[b] = m
                mid.append(first[new])
                for s in elems[first[new] : end[new]]:
                    block[s] = new
                pending.append(new)

    return block, [rows[elems[f]] for f in first]


def _numbering(rows: Rows, class_of: Sequence[int], start: int, width: int) -> tuple[list, list]:
    """Canonical breadth-first numbering of a table's classes of equivalent states.

    ``rows[c]`` is the sparse row (see ``Rows``) over ``width`` events of a
    member of class ``c``, and ``class_of`` maps its targets to classes.
    Classes are numbered breadth-first from ``start`` over the events in
    order; the dead class (-1, where missing events lead) where a missing
    event or a transition first reaches it, a number ``minimal_pta`` skips.
    Returns ``number``, each class's number (-1 if unreached, the dead
    class's last), and ``order``, the reached classes by number.
    """
    number = [-1] * (len(rows) + 1)
    number[start] = 0
    order = [start]
    for c in order:  # grows while it is walked
        row = rows[c] if c >= 0 else ()
        targets = [class_of[t] for _, t in row]
        if number[-1] < 0 and len(row) < width:
            # The first missing event numbers the dead class in its place.
            targets.insert(next((i for i, (k, _) in enumerate(row) if k != i), len(row)), -1)
        for t in targets:
            if number[t] < 0:
                number[t] = len(order)
                order.append(t)
    return number, order


def minimize(machine: Nfa) -> CanonicalDfa:
    """Canonical minimal complete DFA for the machine's language.

    Determinizes into a sparse table (see ``Rows``), merges
    language-equivalent states, children first in one pass when the table is
    acyclic and with Hopcroft's algorithm over the live transitions when it is
    not, and renumbers breadth-first over lexicographically sorted events.
    The result is a canonical form: equal values exactly for equal
    languages over the machine's alphabet. Nothing is cached. The levels
    call it only to key the languages of an entity with many distinct
    models; their lattices reduce products of subset tables instead.
    """
    return _canonical(*_subset_table(machine))


def _trie(traces: Iterable[Trace]) -> tuple[list[str], list[dict[str, int]], set[int]]:
    """The prefix tree of the traces, read once: (events, children, ends).

    ``events`` are sorted and checked once. Nodes are numbered from the root 0,
    every child after its parent; ``children[node]`` maps an event to a child,
    and ``ends`` holds the nodes where a trace ends.
    """
    children: list[dict[str, int]] = [{}]
    ends: set[int] = set()
    for trace in traces:
        node = 0
        for event in trace:
            nxt = children[node].get(event)
            if nxt is None:
                nxt = children[node][event] = len(children)
                children.append({})
            node = nxt
        ends.add(node)
    events = sorted({e for kids in children for e in kids})
    _check_names("event", frozenset(events))  # a trace set's events come from outside
    return events, children, ends


def build_pta(traces: list[Trace]) -> Nfa:
    """Prefix-tree acceptor accepting exactly the given trace set.

    State ``s<i>`` is the ``i``-th tree node ``_numbering`` walks at width 0 (no
    dead class): breadth-first with events in lexicographic order, so the
    result does not depend on input order.
    """
    if not traces:
        return Nfa.empty()
    events, rows, ends = _trie(traces)
    for node, kids in enumerate(rows):  # in place, so one copy of the tree lives
        rows[node] = sorted(kids.items())  # (event, child) pairs; width 0 reads only children
    number = _numbering(rows, range(len(rows)), 0, 0)[0]
    s = [f"s{i}" for i in number[:-1]]  # each tree node's state
    steps = frozenset((s[node], e, s[t]) for node, row in enumerate(rows) for e, t in row)
    del rows, number  # the machine needs only the names
    accept = frozenset(s[node] for node in ends)
    return _derived(frozenset(s), frozenset(events), steps, frozenset({"s0"}), accept)


def minimal_pta(traces: list[Trace]) -> Nfa:
    """The minimal machine of the trace set, ``minimize(build_pta(traces)).to_nfa()``.

    The prefix tree is acyclic, so one pass minimizes it without partition refinement
    (Revuz 1992): walked children first, each node gets the class of its signature,
    whether a trace ends there and its sorted (event, child class) pairs; every node lies
    on a trace, so no class is dead. State ``q<i>`` is the class ``_numbering`` numbers
    ``i``; the number it gives the dead class, where missing events lead, names no state.
    """
    if not traces:
        return Nfa.empty()
    events, children, ends = _trie(traces)
    column = {event: k for k, event in enumerate(events)}
    class_of = [0] * len(children)
    index: dict[tuple, int] = {}
    classes: Rows = []  # each class's (event index, class) pairs
    for node in range(len(children) - 1, -1, -1):  # children before parents
        kids = children[node]
        if len(kids) == 1:  # most nodes; nothing to sort
            for e, child in kids.items():
                signature = (node in ends, (column[e], class_of[child]))
        else:
            signature = (node in ends, *sorted([(column[e], class_of[x]) for e, x in kids.items()]))
        c = class_of[node] = index.setdefault(signature, len(classes))
        if c == len(classes):  # a new signature
            classes.append(signature[1:])
    accepting = [c for signature, c in index.items() if signature[0]]
    del children, ends, index  # the output needs only the classes
    number, _ = _numbering(classes, range(len(classes)), class_of[0], len(events))
    q = [f"q{i}" for i in number[:-1]]  # each class's state
    steps = frozenset((q[c], events[k], q[t]) for c, row in enumerate(classes) for k, t in row)
    accept = frozenset(q[c] for c in accepting)
    return _derived(frozenset(q), frozenset(events), steps, frozenset({"q0"}), accept)


def _product_table(tables: list[tuple[list[str], Rows, set[int]]]) -> tuple[Rows, list[int]]:
    """The reachable product of sparse tables over one alphabet, walked once.

    Each table is ``_subset_table``'s (events, rows, accepting). Returns
    sparse rows (see ``Rows``) and each row's pattern: bit ``i`` is set when
    ``tables[i]`` accepts there. A component that reads an event its row
    lacks is dead (-1) from then on. Transitions into the tuple of all dead
    components are left out: it has pattern 0 and loops to itself, so it is
    dead whichever patterns ``_canonical`` is given as accepting.
    """
    events = tables[0][0]
    if any(other != events for other, _, _ in tables):
        raise ValueError("a product needs aligned alphabets")
    width = len(events)
    dense = []  # each table's rows in full, then its dead row -1 that loops
    for _, rows, _ in tables:
        full = [[-1] * width for _ in range(len(rows) + 1)]
        for line, row in zip(full, rows):
            for k, t in row:
                line[k] = t
        dense.append(full)
    dead = (-1,) * len(tables)
    start = (0,) * len(tables)
    index = {start: 0}
    order = [start]
    product: Rows = []
    for state in order:  # grows while it is walked
        row = []
        for k, target in enumerate(zip(*[full[s] for full, s in zip(dense, state)])):
            if target == dead:
                continue
            j = index.get(target)
            if j is None:
                j = index[target] = len(order)
                order.append(target)
            row.append((k, j))
        product.append(row)
    accepting = [acc for _, _, acc in tables]
    patterns = [
        sum(1 << i for i, (acc, s) in enumerate(zip(accepting, state)) if s in acc)
        for state in order
    ]
    return product, patterns


def hide_events(machine: Nfa, hidden: Iterable[str]) -> Nfa:
    """Delete the given events from the machine's language.

    Transitions on hidden events become silent and are immediately eliminated
    again by closure, so the result contains no silent transitions and its
    alphabet no longer mentions the hidden events.
    """
    hidden_set = frozenset(hidden) & machine.alphabet
    if not hidden_set:
        return machine

    silent: dict[str, list[str]] = {}
    visible: list[tuple[str, str, str]] = []
    for step in machine.transitions:
        if step[1] in hidden_set:
            silent.setdefault(step[0], []).append(step[2])
        else:
            visible.append(step)

    # Only states with a silent step need a closure; any other state is its own.
    closure: dict[str, set[str]] = {}
    for state in silent:
        seen = {state}
        stack = [state]
        while stack:
            for nxt in silent.get(stack.pop(), ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        closure[state] = seen
    # back[r]: every state whose closure holds r, for each r some closure holds.
    # A state without a silent step is in its own closure, though not in ``closure``.
    back: dict[str, list[str]] = {}
    for state, reached in closure.items():
        for r in reached:
            back.setdefault(r, [] if r in closure else [r]).append(state)

    # A visible step r -e-> d gives s -e-> t for every s whose closure holds r
    # and every t in the closure of d.
    trans: set[tuple[str, str, str]] = set()
    for step in visible:
        src, event, dst = step
        sources = back.get(src)
        targets = closure.get(dst)
        if sources is None and targets is None:
            trans.add(step)
        else:
            for state in sources or (src,):
                for target in targets or (dst,):
                    trans.add((state, event, target))
    accepting = machine.accepting.union(
        s for s, reached in closure.items() if not machine.accepting.isdisjoint(reached)
    )
    return _derived(
        machine.states, machine.alphabet - hidden_set, frozenset(trans), machine.initial, accepting
    )
