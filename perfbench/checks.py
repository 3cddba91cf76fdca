"""Output checks, run after the timed region.

Digests identify output trees so runs and commits can be compared. Shapes
are the facts about an output that do not depend on the names a seed picks,
so they can be checked against a reference for every seed. The projection
and trace-set checks recompute what an output must be with a small automaton
oracle of their own, independent of the program.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

# -- digests and byte comparison ---------------------------------------------


def tree_files(root: Path) -> dict[str, bytes]:
    """Relative path -> bytes for a file or every file under a directory."""
    if root.is_file():
        return {root.name: root.read_bytes()}
    if not root.is_dir():
        return {}
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def digest(root: Path) -> str:
    sha = hashlib.sha256()
    for name, data in sorted(tree_files(root).items()):
        sha.update(f"{name}\0{len(data)}\0".encode())
        sha.update(data)
    return sha.hexdigest()


def same_tree(actual: Path, expected: Path) -> str | None:
    """None when both trees hold the same files byte for byte."""
    got, want = tree_files(actual), tree_files(expected)
    if not want:
        return f"no reference files under {expected}"
    if sorted(got) != sorted(want):
        return f"files differ: {sorted(set(got) ^ set(want))}"
    for name in sorted(want):
        if got[name] != want[name]:
            return f"{name} differs from {expected / name}"
    return None


# -- .nfa text (read independently of the program) ---------------------------


class Machine:
    """States, transitions, initial and accepting sets, all by name."""

    def __init__(self, states, transitions, initial, accepting, alphabet=()):
        self.states = frozenset(states)
        self.transitions = frozenset(transitions)
        self.initial = frozenset(initial)
        self.accepting = frozenset(accepting)
        self.alphabet = frozenset(alphabet) | {e for _, e, _ in self.transitions}

    def key(self) -> tuple:
        return (self.states, self.transitions, self.initial, self.accepting)


def read_nfa(text: str) -> Machine:
    states, trans, initial, accepting, alphabet = set(), set(), set(), set(), set()
    for raw in text.splitlines():
        tokens = raw.split("#", 1)[0].split()
        if not tokens or tokens == ["nfa", "v1"]:
            continue
        kind, args = tokens[0], tokens[1:]
        if kind == "state":
            states.add(args[0])
            if "initial" in args[1:]:
                initial.add(args[0])
            if "accepting" in args[1:]:
                accepting.add(args[0])
        elif kind == "trans":
            trans.add(tuple(args))
        elif kind == "alphabet":
            alphabet.update(args)
        else:
            raise ValueError(f"unexpected line {raw!r}")
    return Machine(states, trans, initial, accepting, alphabet)


# -- a small DFA oracle --------------------------------------------------------


def canonical(machine: Machine, alphabet: tuple[str, ...]) -> tuple:
    """Minimal complete DFA in breadth-first numbering: equal iff same language."""
    succ: dict[tuple[str, str], set[str]] = {}
    for src, event, dst in machine.transitions:
        succ.setdefault((src, event), set()).add(dst)
    start = frozenset(machine.initial)
    index, order, rows = {start: 0}, [start], []
    for subset in order:
        row = []
        for event in alphabet:
            nxt = frozenset(t for s in subset for t in succ.get((s, event), ()))
            if nxt not in index:
                index[nxt] = len(order)
                order.append(nxt)
            row.append(index[nxt])
        rows.append(row)
    return _minimal(rows, [bool(subset & machine.accepting) for subset in order])


def _minimal(rows: list[list[int]], accepting: list[bool]) -> tuple:
    block = [int(a) for a in accepting]
    while True:
        signatures: dict[tuple, int] = {}
        refined = [
            signatures.setdefault((block[i], *(block[t] for t in row)), len(signatures))
            for i, row in enumerate(rows)
        ]
        if len(signatures) == len(set(block)):
            break
        block = refined
    number, bfs = {block[0]: 0}, [0]
    for i in bfs:
        for t in rows[i]:
            if block[t] not in number:
                number[block[t]] = len(bfs)
                bfs.append(t)
    trans = tuple(tuple(number[block[t]] for t in rows[i]) for i in bfs)
    return trans, frozenset(number[block[i]] for i in bfs if accepting[i])


def _product(a: tuple, b: tuple, accept) -> tuple:
    index, order, rows = {(0, 0): 0}, [(0, 0)], []
    for p, q in order:
        row = []
        for k in range(len(a[0][p])):
            pair = (a[0][p][k], b[0][q][k])
            if pair not in index:
                index[pair] = len(order)
                order.append(pair)
            row.append(index[pair])
        rows.append(row)
    return _minimal(rows, [accept(p in a[1], q in b[1]) for p, q in order])


def meet(a: tuple, b: tuple) -> tuple:
    return _product(a, b, lambda x, y: x and y)


def join(a: tuple, b: tuple) -> tuple:
    return _product(a, b, lambda x, y: x or y)


def included(a: tuple, b: tuple) -> bool:
    return meet(a, b) == a


def closure(languages) -> set:
    """Close canonical languages under meet and join."""
    nodes = set(languages)
    frontier = list(nodes)
    while frontier:
        new = set()
        for x in frontier:
            for y in list(nodes):
                for z in (meet(x, y), join(x, y)):
                    if z not in nodes:
                        new.add(z)
        nodes |= new
        frontier = list(new)
    return nodes


# -- shapes: facts that no renaming changes ----------------------------------


def _projection_sizes(machine_doc: dict) -> list[int]:
    sizes = []
    for keep in (("unchanged", "removed"), ("unchanged", "added")):
        sizes.append(sum(s["change"] in keep for s in machine_doc["states"]))
        sizes.append(sum(t["change"] in keep for t in machine_doc["transitions"]))
    return sizes


def report_shape(doc: dict) -> dict:
    shape = {}
    if "level1" in doc:
        shape["level1"] = sorted(len(c["members"]) for c in doc["level1"]["classes"])
    if "level2" in doc:
        lattice = doc["level2"]
        shape["level2"] = [
            sorted(n["behavior_count"] for n in lattice["nodes"]),
            sorted([e["changed"], e["newly_present"]] for e in lattice["edges"]),
        ]
    if "level3" in doc:
        shape["level3"] = sorted(v for row in doc["level3"]["cells"] for v in row)
    if "level4" in doc:
        table = doc["level4"]["table"]
        shape["level4"] = sorted(
            [len(set(row.values()) - {"absent"}), list(row.values()).count("absent")]
            for row in table.values()
        )
    if "level5" in doc:
        shape["level5"] = sorted(
            [sorted(n["transition_count"] for n in lat["nodes"]), len(lat["edges"])]
            for lat in doc["level5"].values()
        )
    if "level6" in doc:
        shape["level6"] = sorted(_projection_sizes(entry["machine"]) for entry in doc["level6"])
    return shape


def nfa_shape(machine: Machine) -> dict:
    return {
        "nfa": [
            len(machine.states),
            len(machine.transitions),
            len(machine.initial),
            len(machine.accepting),
        ]
    }


def output_shape(root: Path) -> dict:
    if root.is_file():
        return nfa_shape(read_nfa(root.read_text(encoding="utf-8")))
    return report_shape(json.loads((root / "report.json").read_text(encoding="utf-8")))


# -- structural diffs: the projection check ----------------------------------


def _project(machine_doc: dict, keep: tuple[str, str], side: int) -> Machine:
    """Keep the elements whose change is in ``keep``, named on one side."""
    names = {}
    initial, accepting = set(), set()
    for s in machine_doc["states"]:
        if s["change"] not in keep:
            continue
        name = (s["left"], s["right"])[side]
        if name is None:
            raise ValueError(f"kept state {s} has no name on side {side}")
        names[(s["left"], s["right"])] = name
        if s["initial"] in keep:
            initial.add(name)
        if s["accepting"] in keep:
            accepting.add(name)
    trans = set()
    for t in machine_doc["transitions"]:
        if t["change"] in keep:
            src, dst = tuple(t["source"]), tuple(t["target"])
            if src not in names or dst not in names:
                raise ValueError(f"kept transition {t} leaves the kept states")
            trans.add((names[src], t["event"], names[dst]))
    return Machine(names.values(), trans, initial, accepting)


def check_structural(report: dict, workspace: Path) -> list[str]:
    """Projection check of every level-6 diff in a full ``compare --levels 4,5,6``.

    Deleting the added elements must give the source variant, and deleting
    the removed ones the target. An observed variant must come back exactly
    as its representative's input file; a computed one must be a language
    of the closure of the observed ones, the same in every diff that uses
    it, with the transition count level 5 reports. Each edge must go up in
    language inclusion, and its level-5 labels must count the diff.
    """
    problems = []
    sets = sorted(p.name for p in workspace.iterdir() if p.is_dir())
    payloads: dict[tuple[str, str], Machine] = {}
    entities: dict[str, tuple] = {}
    for entry in report["level6"]:
        entity, lattice = entry["entity"], report["level5"][entry["entity"]]
        if entity not in entities:
            files = {s: workspace / s / f"{entity}.nfa" for s in sets}
            inputs = {
                s: read_nfa(f.read_text(encoding="utf-8")) for s, f in files.items() if f.is_file()
            }
            alphabet = tuple(sorted(set().union(*(m.alphabet for m in inputs.values()))))
            languages = {canonical(m, alphabet) for m in inputs.values()}
            nonempty = {lang for lang in languages if lang[1]}  # has an accepting state
            entities[entity] = (inputs, alphabet, closure(nonempty))
        inputs, alphabet, lattice_languages = entities[entity]
        nodes = {n["variant"]: n for n in lattice["nodes"]}
        where = f"{entity} {entry['from']}-{entry['to']}"
        try:
            sides = (
                _project(entry["machine"], ("unchanged", "removed"), 0),
                _project(entry["machine"], ("unchanged", "added"), 1),
            )
        except ValueError as exc:
            problems.append(f"{where}: {exc}")
            continue
        for variant, machine in zip((entry["from"], entry["to"]), sides):
            node = nodes[variant]
            previous = payloads.setdefault((entity, variant), machine)
            if previous.key() != machine.key():
                problems.append(f"{where}: {variant} projects differently in another diff")
            if node["members"]:
                if machine.key() != inputs[node["members"][0]].key():
                    problems.append(f"{where}: {variant} is not its input machine")
            elif canonical(machine, alphabet) not in lattice_languages:
                problems.append(f"{where}: {variant} is no meet or join of observed variants")
            if len(machine.transitions) != node["transition_count"]:
                problems.append(f"{where}: {variant} has a different transition count")
        if not included(canonical(sides[0], alphabet), canonical(sides[1], alphabet)):
            problems.append(f"{where}: source language is not included in the target's")
        pair = (entry["from"], entry["to"])
        edge = next((e for e in lattice["edges"] if (e["lower"], e["upper"]) == pair), None)
        counts = [
            sum(t["change"] == change for t in entry["machine"]["transitions"])
            for change in ("added", "removed")
        ]
        if edge is None or counts != [edge["added_transitions"], edge["removed_transitions"]]:
            problems.append(f"{where}: level-5 edge labels do not count the diff")
    return problems


def check_query(query: dict, full: dict) -> list[str]:
    """A targeted level-6 query must repeat the full run's diff of that edge."""
    (entry,) = query["level6"]
    key = (entry["entity"], entry["from"], entry["to"])
    match = [e for e in full["level6"] if (e["entity"], e["from"], e["to"]) == key]
    if not match or match[0]["machine"] != entry["machine"]:
        return [f"{entry['entity']} {entry['from']}-{entry['to']}: differs from the full compare"]
    return []


# -- logs2nfa: the machine accepts exactly the log's traces ------------------


def check_trace_set(machine: Machine, log_text: str) -> list[str]:
    traces = {tuple(line.split()) for line in log_text.splitlines()}
    succ: dict[tuple[str, str], str] = {}
    for src, event, dst in machine.transitions:
        if (src, event) in succ:
            return [f"not deterministic at {src} on {event}"]
        succ[(src, event)] = dst
    if len(machine.initial) != 1:
        return ["needs exactly one initial state"]
    (start,) = machine.initial
    for trace in traces:
        state = start
        for event in trace:
            state = succ.get((state, event))
            if state is None:
                break
        if state not in machine.accepting:
            return [f"rejects the logged trace {' '.join(trace)!r}"]
    # Every accepted word is a logged trace iff the accepted words number
    # exactly as many as the distinct traces; a cycle would make them infinite.
    out: dict[str, list[str]] = {}
    for (src, _), dst in succ.items():
        out.setdefault(src, []).append(dst)
    words: dict[str, int] = {}
    visiting: set[str] = set()

    def count(state: str) -> int:
        if state in visiting:
            raise ValueError("accepts infinitely many traces")
        if state not in words:
            visiting.add(state)
            words[state] = int(state in machine.accepting) + sum(map(count, out.get(state, ())))
            visiting.discard(state)
        return words[state]

    try:
        accepted = count(start)
    except ValueError as exc:
        return [str(exc)]
    if accepted != len(traces):
        return [f"accepts {accepted} traces, the log has {len(traces)}"]
    return []
