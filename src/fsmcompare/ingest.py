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
``<entity>.nfa`` files; the entity set is the union of the file names. A
loaded ``Workspace`` holds one ``ModelSet`` per subdirectory, and each model
set maps every entity to one machine: an entity without a file is bound to
the empty machine, so the mappings are total.

Execution logs hold one trace per line, events separated by whitespace; an
empty line is the empty trace.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Mapping

from .automata import Nfa, Trace, _check_names, _derived, hide_events

__all__ = [
    "HidingConfig",
    "ModelSet",
    "NfaParseError",
    "Workspace",
    "WorkspaceLoadError",
    "load_workspace",
    "parse_log",
    "parse_nfa",
    "write_nfa",
]

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
        return frozenset(filter(self._fullmatch, alphabet)) if self.patterns else frozenset()

    @cached_property
    def _fullmatch(self):  # one regex of every pattern, compiled once per config
        alternatives = [
            "".join(".*" if ch == "*" else re.escape(ch) for ch in pattern)
            for pattern in self.patterns
        ]
        return re.compile("|".join(f"(?:{alt})" for alt in alternatives)).fullmatch

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
    # Every transition's states are declared and its event is in ``events``, so
    # of ``Nfa``'s checks only the names' can fail (see ``_derived``).
    names, alphabet = frozenset(states), frozenset(events)
    try:
        _check_names("state", names)
        _check_names("event", alphabet)
    except ValueError as exc:
        raise NfaParseError(str(exc), path=path) from exc
    return _derived(
        names,
        alphabet,
        frozenset(steps),
        frozenset(name for name, initial, _ in states.values() if initial),
        frozenset(name for name, _, accepting in states.values() if accepting),
    )


def write_nfa(machine: Nfa) -> str:
    """Canonical serialization; parsing it back reproduces the machine.

    The ``state`` lines and the ``trans`` lines are each sorted as strings: no
    name holds a character at or below U+0020, so a name's trailing space sorts
    before any extension of it, and lines fall in the order of their tuples.
    """
    lines = ["nfa v1"]
    extra = sorted(machine.alphabet - {e for _, e, _ in machine.transitions})
    if extra:
        lines.append("alphabet " + " ".join(extra))
    init, acc = machine.initial, machine.accepting
    lines += sorted(
        f"state {s}" + " initial" * (s in init) + " accepting" * (s in acc) for s in machine.states
    )
    lines += sorted([f"trans {src} {event} {dst}" for src, event, dst in machine.transitions])
    return "\n".join(lines) + "\n"


def parse_log(text: str) -> list[Trace]:
    """One trace per line; an empty line is the empty trace."""
    return [tuple(line.split()) for line in text.splitlines()]


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


def load_workspace(root: Path | str, hiding: HidingConfig | None = None) -> Workspace:
    """Load ``<root>/<model-set>/<entity>.nfa`` into a complete workspace.

    Missing entity files become empty machines; hiding is applied to every
    machine before any comparison. Read and parse errors are aggregated per file.
    Directories and files whose names start with "." are ignored.
    """
    hiding = hiding or HidingConfig()
    root = Path(root)
    if not root.is_dir():
        raise WorkspaceLoadError([f"input directory {root} does not exist"])
    with os.scandir(root) as listing:
        set_dirs = sorted(root / e.name for e in listing if e.is_dir() and e.name[0] != ".")
    if not set_dirs:
        raise WorkspaceLoadError([f"no model sets found under {root}"])

    # Each model set's directory is listed once; its regular *.nfa files are the
    # only ones opened, and a hidden one is never looked up.
    files: list[set[str]] = []
    for directory in set_dirs:
        with os.scandir(directory) as listing:
            files.append({e.name for e in listing if e.name.endswith(".nfa") and e.is_file()})
    entities = sorted({Path(name).stem for names in files for name in names if name[0] != "."})
    errors: list[str] = []
    model_sets: list[ModelSet] = []
    for directory, names in zip(set_dirs, files):
        models: dict[str, Nfa] = {}
        for entity in entities:
            name = f"{entity}.nfa"
            if name not in names:
                models[entity] = Nfa.empty()
                continue
            path = directory / name
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
