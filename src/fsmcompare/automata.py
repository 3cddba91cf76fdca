"""Finite automata and the language-level algorithms everything else builds on.

Machines are immutable NFAs over named events. All binary comparisons
(equivalence, inclusion) are decided over the union of the two machines'
alphabets, so machines observed with different event sets compare the way
one would expect.
"""

from __future__ import annotations

import functools
import operator
import unicodedata
from dataclasses import dataclass, replace
from typing import Callable, Iterable

Trace = tuple[str, ...]

#: Default search-tree cap for bounded_language.
DEFAULT_ENUMERATION_CAP = 100_000

#: Results kept by minimize's least-recently-used cache, so that a long-lived
#: process does not keep every machine it has seen.
MINIMIZE_CACHE_SIZE = 1024


class EnumerationCapExceeded(ValueError):
    """Raised when bounded_language would explore more prefixes than allowed."""


def _check_event_name(name: str) -> None:
    if not name:
        raise ValueError("event name must be non-empty")
    for ch in name:
        if ch.isspace() or unicodedata.category(ch) == "Cc":
            raise ValueError(f"event name {name!r} contains whitespace or control characters")


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
        for event in self.alphabet:
            _check_event_name(event)
        for src, event, dst in self.transitions:
            if src not in self.states:
                raise ValueError(f"transition source {src!r} is not a declared state")
            if dst not in self.states:
                raise ValueError(f"transition target {dst!r} is not a declared state")
            if event not in self.alphabet:
                raise ValueError(f"transition event {event!r} is not in the alphabet")
        if not self.initial <= self.states:
            raise ValueError("initial states must be a subset of states")
        if not self.accepting <= self.states:
            raise ValueError("accepting states must be a subset of states")

    @classmethod
    def build(
        cls,
        transitions: Iterable[tuple[str, str, str]] = (),
        initial: Iterable[str] = (),
        accepting: Iterable[str] = (),
        states: Iterable[str] = (),
        alphabet: Iterable[str] = (),
    ) -> "Nfa":
        """Construct a machine, inferring states and alphabet from transitions."""
        trans = frozenset(tuple(t) for t in transitions)
        sts = frozenset(states) | frozenset(initial) | frozenset(accepting)
        sts |= {s for s, _, _ in trans} | {t for _, _, t in trans}
        alpha = frozenset(alphabet) | {e for _, e, _ in trans}
        return cls(sts, alpha, trans, frozenset(initial), frozenset(accepting))

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
        keep = [i for i in range(self.num_states) if i != self.sink]
        trans = frozenset(
            (f"q{i}", event, f"q{j}")
            for i in keep
            for event, j in zip(self.alphabet, self.transitions[i])
            if j != self.sink
        )
        states = frozenset(f"q{i}" for i in keep)
        initial = frozenset() if self.sink == 0 else frozenset({"q0"})
        accepting = frozenset(f"q{i}" for i in self.accepting)
        return Nfa(states, frozenset(self.alphabet), trans, initial, accepting)


def with_alphabet(machine: Nfa, events: Iterable[str]) -> Nfa:
    """Widen the alphabet; the language is unchanged."""
    extended = machine.alphabet | frozenset(events)
    if extended == machine.alphabet:
        return machine
    return replace(machine, alphabet=extended)


def _successors(machine: Nfa) -> dict[tuple[str, str], set[str]]:
    succ: dict[tuple[str, str], set[str]] = {}
    for src, event, dst in machine.transitions:
        succ.setdefault((src, event), set()).add(dst)
    return succ


def accepts(machine: Nfa, trace: Trace) -> bool:
    """True iff some run over the trace starts initial and ends accepting.

    Events absent from the alphabet simply have no transitions, so traces
    mentioning unknown events are rejected via stuck runs.
    """
    succ = _successors(machine)
    current = set(machine.initial)
    for event in trace:
        nxt: set[str] = set()
        for state in current:
            nxt |= succ.get((state, event), set())
        current = nxt
        if not current:
            return False
    return bool(current & machine.accepting)


def has_behavior(machine: Nfa) -> bool:
    """True iff the machine's language is non-empty."""
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


def _subset_table(machine: Nfa) -> tuple[list[str], list[list[int]], set[int]]:
    """Subset construction; returns (events, transition rows, accepting ids).

    Row order is breadth-first discovery from the initial subset with events
    in lexicographic order; the empty subset doubles as the completion sink.
    """
    events = sorted(machine.alphabet)
    succ = _successors(machine)
    start = frozenset(machine.initial)
    index: dict[frozenset[str], int] = {start: 0}
    order: list[frozenset[str]] = [start]
    rows: list[list[int]] = []
    qi = 0
    while qi < len(order):
        subset = order[qi]
        qi += 1
        row = []
        for event in events:
            nxt: set[str] = set()
            for state in subset:
                nxt |= succ.get((state, event), set())
            frozen = frozenset(nxt)
            j = index.get(frozen)
            if j is None:
                j = len(order)
                index[frozen] = j
                order.append(frozen)
            row.append(j)
        rows.append(row)
    accepting = {i for i, subset in enumerate(order) if subset & machine.accepting}
    return events, rows, accepting


def determinize(machine: Nfa) -> Nfa:
    """Deterministic, complete machine with the same language.

    Only subset states reachable from the initial subset are materialized;
    the empty subset serves as the sink when some transition is missing.
    """
    events, rows, accepting = _subset_table(machine)
    trans = frozenset(
        (f"d{i}", event, f"d{row[k]}") for i, row in enumerate(rows) for k, event in enumerate(events)
    )
    states = frozenset(f"d{i}" for i in range(len(rows)))
    return Nfa(
        states,
        machine.alphabet,
        trans,
        frozenset({"d0"}),
        frozenset(f"d{i}" for i in accepting),
    )


def _canonical(events: list[str], rows: list[list[int]], accepting: set[int]) -> CanonicalDfa:
    """Minimal canonical form of a complete DFA table, every row reachable from row 0.

    Rows from which no accepting row can be reached form one dead block.
    Hopcroft's algorithm refines the live rows over live-to-live transitions
    only: the dead block is never a splitter, so the completion sink's large
    preimage is never scanned. The blocks are then renumbered breadth-first
    over the (lexicographically sorted) events.
    """
    n = len(rows)
    width = len(events)
    # A rejecting row that loops on every event, such as the completion sink,
    # is dead, so transitions into it are left out of the reverse lists.
    trap = [s not in accepting and row.count(s) == width for s, row in enumerate(rows)]
    into: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for s, row in enumerate(rows):
        for k, t in enumerate(row):
            if not trap[t]:
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


@functools.lru_cache(maxsize=MINIMIZE_CACHE_SIZE)
def minimize(machine: Nfa) -> CanonicalDfa:
    """Canonical minimal complete DFA for the machine's language.

    Determinizes, merges language-equivalent states with Hopcroft's algorithm
    over the live transitions, and renumbers breadth-first over
    lexicographically sorted events. The result is a canonical form: equal
    values exactly for equal languages over the machine's alphabet. The most
    recent ``MINIMIZE_CACHE_SIZE`` results are cached.
    """
    return _canonical(*_subset_table(machine))


def canonical_product(
    a: CanonicalDfa, b: CanonicalDfa, accept: Callable[[bool, bool], bool]
) -> CanonicalDfa:
    """Canonical DFA of the product of two canonical DFAs over one alphabet.

    ``accept`` decides a product state from the acceptance of its two
    components: ``operator.and_`` gives the intersection of the languages,
    ``operator.or_`` their union.
    """
    if a.alphabet != b.alphabet:
        raise ValueError("canonical product needs aligned alphabets")
    index: dict[tuple[int, int], int] = {(0, 0): 0}
    order = [(0, 0)]
    rows: list[list[int]] = []
    for p, q in order:  # grows while it is walked
        row = []
        for pair in zip(a.transitions[p], b.transitions[q]):
            j = index.get(pair)
            if j is None:
                j = index[pair] = len(order)
                order.append(pair)
            row.append(j)
        rows.append(row)
    accepting = {
        i for i, (p, q) in enumerate(order) if accept(p in a.accepting, q in b.accepting)
    }
    return _canonical(list(a.alphabet), rows, accepting)


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
    succ_a = _successors(a)
    succ_b = _successors(b)
    shared = sorted(a.alphabet & b.alphabet)
    start_pairs = [(p, q) for p in sorted(a.initial) for q in sorted(b.initial)]
    index: dict[tuple[str, str], str] = {}
    order: list[tuple[str, str]] = []
    for pair in start_pairs:
        if pair not in index:
            index[pair] = f"p{len(order)}"
            order.append(pair)
    trans: set[tuple[str, str, str]] = set()
    qi = 0
    while qi < len(order):
        p, q = order[qi]
        qi += 1
        for event in shared:
            targets = sorted(
                (pt, qt)
                for pt in succ_a.get((p, event), ())
                for qt in succ_b.get((q, event), ())
            )
            for pair in targets:
                if pair not in index:
                    index[pair] = f"p{len(order)}"
                    order.append(pair)
                trans.add((index[(p, q)], event, index[pair]))
    states = frozenset(index.values())
    initial = frozenset(index[pair] for pair in start_pairs)
    accepting = frozenset(
        name for (p, q), name in index.items() if p in a.accepting and q in b.accepting
    )
    return Nfa(states, a.alphabet | b.alphabet, frozenset(trans), initial, accepting)


def language_equivalent(a: Nfa, b: Nfa) -> bool:
    """True iff both machines accept exactly the same language.

    Decided over the union of the two alphabets via canonical minimal DFAs.
    """
    sigma = a.alphabet | b.alphabet
    return minimize(with_alphabet(a, sigma)) == minimize(with_alphabet(b, sigma))


def language_included(a: Nfa, b: Nfa) -> bool:
    """True iff every trace accepted by ``a`` is accepted by ``b``.

    Decided over the union of the two alphabets via canonical minimal DFAs:
    ``a`` is included in ``b`` iff intersecting it with ``b`` leaves it as is.
    """
    sigma = a.alphabet | b.alphabet
    min_a = minimize(with_alphabet(a, sigma))
    return canonical_product(min_a, minimize(with_alphabet(b, sigma)), operator.and_) == min_a


def hide_events(machine: Nfa, hidden: Iterable[str]) -> Nfa:
    """Delete the given events from the machine's language.

    Transitions on hidden events become silent and are immediately eliminated
    again by closure, so the result contains no silent transitions and its
    alphabet no longer mentions the hidden events.
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


def bounded_language(
    machine: Nfa, max_len: int, *, cap: int = DEFAULT_ENUMERATION_CAP
) -> frozenset[Trace]:
    """All accepted traces of length at most ``max_len``, by exhaustive search.

    The search tree is pruned at prefixes no run survives; if it still grows
    past ``cap`` nodes the enumeration is rejected instead of blowing up.
    """
    if max_len < 0:
        raise ValueError("max_len must be non-negative")
    events = sorted(machine.alphabet)
    succ = _successors(machine)
    out: set[Trace] = set()
    explored = 0
    stack: list[tuple[Trace, frozenset[str]]] = [((), frozenset(machine.initial))]
    while stack:
        trace, subset = stack.pop()
        explored += 1
        if explored > cap:
            raise EnumerationCapExceeded(
                f"bounded language enumeration exceeds cap of {cap} prefixes"
            )
        if subset & machine.accepting:
            out.add(trace)
        if len(trace) == max_len:
            continue
        for event in reversed(events):
            nxt: set[str] = set()
            for state in subset:
                nxt |= succ.get((state, event), set())
            if nxt:
                stack.append((trace + (event,), frozenset(nxt)))
    return frozenset(out)
