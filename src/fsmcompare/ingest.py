"""File formats and workspace loading.

The ``.nfa`` text format is line based UTF-8. ``#`` starts a comment that
runs to the end of the line; blank lines are ignored. The first significant
line must be ``nfa v1``. After that, in any order:

    alphabet <event> ...            declare events beyond those on transitions
    state <name> [initial] [accepting]
    trans <src> <event> <dst>

Canonical output separates tokens with single spaces, sorts states and
transitions, and only emits an ``alphabet`` line when the alphabet holds
events no transition uses.

A workspace directory holds one subdirectory per model set, each containing
``<entity>.nfa`` files; the entity set is the union of the file names and
missing files are completed with the empty machine.

Execution logs hold one trace per line, events separated by whitespace; an
empty line is the empty trace.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

from .automata import CanonicalDfa, Nfa, Rows, Trace, _canonical, hide_events
from .model_sets import ModelSet, Workspace

_HEADER = ("nfa", "v1")


class NfaParseError(ValueError):
    """A syntax or consistency error in a .nfa file."""

    def __init__(self, message: str, line: int | None = None, path: str | None = None):
        self.line = line
        self.path = path
        where = f"{path or '<input>'}" + (f":{line}" if line is not None else "")
        super().__init__(f"{where}: {message}")


class WorkspaceLoadError(ValueError):
    """One or more files of a workspace failed to load."""

    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("; ".join(errors))


@dataclass(frozen=True)
class HidingConfig:
    """Event-name glob patterns to hide at load time; only ``*`` is special."""

    patterns: tuple[str, ...] = ()

    def hidden_events(self, alphabet) -> frozenset[str]:
        if not self.patterns:
            return frozenset()
        alternatives = [
            "".join(".*" if ch == "*" else re.escape(ch) for ch in pattern)
            for pattern in self.patterns
        ]
        rx = re.compile("|".join(f"(?:{alt})" for alt in alternatives))
        return frozenset(e for e in alphabet if rx.fullmatch(e))

    def apply(self, machine: Nfa) -> Nfa:
        return hide_events(machine, self.hidden_events(machine.alphabet))


def parse_nfa(text: str, path: str | None = None) -> Nfa:
    """Parse the .nfa text format; errors carry the offending line number."""
    # Transitions reuse the declared states' and events' name objects: one copy per name.
    header = False
    states: dict[str, tuple[str, bool, bool]] = {}
    events: dict[str, str] = {}
    transitions: list[tuple[str, str, str, int]] = []
    for number, line in enumerate(text.splitlines(), start=1):
        tokens = (line.split("#", 1)[0] if "#" in line else line).split()
        if not tokens:
            continue
        if not header:
            if tuple(tokens) != _HEADER:
                got = " ".join(tokens)
                raise NfaParseError(f"expected 'nfa v1' header, got {got!r}", number, path)
            header = True
        elif tokens[0] == "trans":
            if len(tokens) != 4:
                raise NfaParseError("trans line needs source, event and target", number, path)
            _, src, event, dst = tokens
            transitions.append((src, events.setdefault(event, event), dst, number))
        elif tokens[0] == "state":
            if len(tokens) < 2:
                raise NfaParseError("state line needs a name", number, path)
            name = tokens[1]
            if name in states:
                raise NfaParseError(f"duplicate declaration of state {name!r}", number, path)
            initial = accepting = False
            for flag in tokens[2:]:
                if flag == "initial" and not initial:
                    initial = True
                elif flag == "accepting" and not accepting:
                    accepting = True
                else:
                    raise NfaParseError(f"unexpected state flag {flag!r}", number, path)
            states[name] = (name, initial, accepting)
        elif tokens[0] == "alphabet":
            for event in tokens[1:]:
                events.setdefault(event, event)
        else:
            raise NfaParseError(f"unknown directive {tokens[0]!r}", number, path)
    if not header:
        raise NfaParseError("missing 'nfa v1' header", path=path)

    steps = []
    for src, event, dst, number in transitions:
        source, target = states.get(src), states.get(dst)
        if source is None or target is None:
            name = dst if source else src
            raise NfaParseError(f"undeclared state {name!r} in transition", number, path)
        steps.append((source[0], event, target[0]))
    try:
        return Nfa(
            frozenset(states),
            frozenset(events),
            frozenset(steps),
            frozenset(name for name, initial, _ in states.values() if initial),
            frozenset(name for name, _, accepting in states.values() if accepting),
        )
    except ValueError as exc:
        raise NfaParseError(str(exc), path=path) from exc


def write_nfa(machine: Nfa) -> str:
    """Canonical serialization; parsing it back reproduces the machine."""
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


def parse_log(text: str) -> list[Trace]:
    """One trace per line; an empty line is the empty trace."""
    return [tuple(line.split()) for line in text.splitlines()]


def _prefix_tree(traces: list[Trace]) -> tuple[list[str], Rows, set[int]]:
    """The prefix tree of the traces as a sparse table (see ``automata.Rows``).

    Returns (sorted events, rows, accepting rows). Rows are numbered by a
    breadth-first walk of the tree with events in lexicographic order, so
    the table does not depend on input order. Row 0 is the root, present
    even when there are no traces.
    """
    # Tree nodes are ints in insertion order; children[node] maps event -> node.
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
    column = {event: k for k, event in enumerate(events)}
    order = [0]  # the tree node of each row
    row_of = [0] * len(children)
    rows: Rows = []
    for node in order:  # grows while it is walked
        row = []
        for event, child in sorted(children[node].items()):
            row_of[child] = len(order)
            row.append((column[event], len(order)))
            order.append(child)
        rows.append(row)
    return events, rows, {row_of[node] for node in ends}


def build_pta(traces: list[Trace]) -> Nfa:
    """Prefix-tree acceptor accepting exactly the given trace set.

    State ``s<i>`` is row ``i`` of the prefix tree's breadth-first table, with
    events in lexicographic order, so the result does not depend on input order.
    """
    if not traces:
        return Nfa.empty()
    events, rows, accepting = _prefix_tree(traces)
    names = [f"s{i}" for i in range(len(rows))]
    return Nfa(
        frozenset(names),
        frozenset(events),
        frozenset((names[i], events[k], names[j]) for i, row in enumerate(rows) for k, j in row),
        frozenset({"s0"}),
        frozenset(names[i] for i in accepting),
    )


def minimal_pta(traces: list[Trace]) -> CanonicalDfa:
    """Canonical minimal DFA of the trace set; equal to ``minimize(build_pta(traces))``.

    Reduces the prefix tree's table directly, with no named machine and no
    subset construction in between.
    """
    return _canonical(*_prefix_tree(traces))


def load_workspace(root: Path | str, hiding: HidingConfig | None = None) -> Workspace:
    """Load ``<root>/<model-set>/<entity>.nfa`` into a complete workspace.

    Missing entity files become empty machines; hiding is applied to every
    machine before any comparison. Read and parse errors are aggregated per file.
    """
    hiding = hiding or HidingConfig()
    root = Path(root)
    if not root.is_dir():
        raise WorkspaceLoadError([f"input directory {root} does not exist"])
    set_dirs = sorted(p for p in root.iterdir() if p.is_dir())
    if not set_dirs:
        raise WorkspaceLoadError([f"no model sets found under {root}"])

    entities = sorted({p.stem for d in set_dirs for p in d.glob("*.nfa") if p.is_file()})
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
