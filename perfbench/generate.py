"""Seeded synthetic inputs for the benchmark workloads.

Every workload has a fixed *shape*: the machines, mutations and execution
walks are drawn from ``random.Random(SHAPE_SEED)``, so every run does the
same amount of work and timings from different seeds can be pooled. The
``--seed`` of a run then draws an isomorphic copy of that shape: it renames
states, events, entities and model sets, and shuffles line and trace order.
The program must be insensitive to all of these, so every seed checks that
too, while the cost of a run stays the same.

The text is written here, not through ``fsmcompare.write_nfa``, so that the
program under test does not shape its own inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

SHAPE_SEED = 0
EVENTS = tuple(f"e{i}" for i in range(8))
NOISE = ("log0", "log1", "log2")


@dataclass(frozen=True)
class Shape:
    """Sizes of one workload; see ``WORKLOADS`` for why each exists."""

    sets: int
    entities: int
    states: int
    mutation: float
    absence: float = 0.0
    traces: int = 0  # > 0 makes it a log workload


WORKLOADS = {
    # Model-set scope, compare --levels 1,2,3,4. The level-2 closure and
    # inclusion matrix do nearly all the work (model_sets combinations,
    # automata products, minimize); ltsdiff does none, so this workload is
    # the bypass for structural-scoring changes. 41 nodes, 96 cover edges.
    "lattice": Shape(sets=6, entities=8, states=16, mutation=0.3, absence=0.05),
    # Entity scope: two sets, larger machines, 11 level-5 cover edges.
    # ltsdiff.global_scores dominates; the full compare diffs every edge
    # twice and each targeted level-6 query rebuilds its entity lattice.
    # Level 2 does not run here. With three sets, entities whose variants
    # are incomparable close into 8-node cubes whose 12 queries each redo
    # 13 diffs; a pass then took 18 s, too long to repeat within one run.
    "structural": Shape(sets=2, entities=10, states=18, mutation=0.5, absence=0.05),
    # Execution logs of a hidden 10-state machine per entity, with log*
    # noise. Ingest dominates: the quadratic build_pta, hide_events and
    # minimize on single machines of about a thousand states. There are no
    # products and no ltsdiff; automata is used for a few large subset
    # constructions instead of thousands of small products.
    "logs": Shape(sets=3, entities=4, states=10, mutation=0.5, traces=300),
}


def _random_machine(rng: random.Random, n: int) -> tuple[list[tuple[int, int, int]], set[int]]:
    """Ring ``i -> i+1`` plus n random chords over 8 events; n//5 accepting."""
    trans = [(i, rng.randrange(len(EVENTS)), (i + 1) % n) for i in range(n)]
    trans += [(rng.randrange(n), rng.randrange(len(EVENTS)), rng.randrange(n)) for _ in range(n)]
    return trans, set(rng.sample(range(n), n // 5))


def _chord(rng: random.Random, n: int) -> tuple[int, int, int]:
    return (rng.randrange(n), rng.randrange(len(EVENTS)), rng.randrange(n))


def _shuffled(rng: random.Random, items) -> list:
    items = list(items)
    rng.shuffle(items)
    return items


class _Names:
    """The seed's renaming of one shape."""

    def __init__(self, rng: random.Random, shape: Shape):
        self.events = _shuffled(rng, EVENTS)
        self.noise = _shuffled(rng, NOISE)
        self.entities = _shuffled(rng, (f"E{i}" for i in range(shape.entities)))
        self.sets = _shuffled(rng, (f"S{i}" for i in range(shape.sets)))
        self.states = [
            _shuffled(rng, (f"s{i}" for i in range(shape.states))) for _ in range(shape.entities)
        ]


def _nfa_text(rng, names: _Names, entity: int, trans, accepting, label: str) -> str:
    state_names = names.states[entity]
    body = []
    for i in range(len(state_names)):
        flags = (" initial" if i == 0 else "") + (" accepting" if i in accepting else "")
        body.append(f"state {state_names[i]}{flags}")
    for src, event, dst in sorted(set(trans)):
        body.append(f"trans {state_names[src]} {names.events[event]} {state_names[dst]}")
    return "\n".join([f"# {label}", "nfa v1", *_shuffled(rng, body)]) + "\n"


def write_workspace(root: Path, workload: str, seed: int) -> None:
    """``<root>/<set>/<entity>.nfa`` for a model-set or entity workload."""
    shape = WORKLOADS[workload]
    rng = random.Random(SHAPE_SEED)
    base = [_random_machine(rng, shape.states) for _ in range(shape.entities)]
    variants = {}
    for s in range(shape.sets):
        for e in range(shape.entities):
            if rng.random() < shape.absence:
                continue
            trans, accepting = base[e]
            if rng.random() < shape.mutation:
                trans = trans + [_chord(rng, shape.states)]
            variants[s, e] = (trans, accepting)

    order = random.Random(seed)
    names = _Names(order, shape)
    for (s, e), (trans, accepting) in variants.items():
        path = root / names.sets[s] / f"{names.entities[e]}.nfa"
        path.parent.mkdir(parents=True, exist_ok=True)
        label = f"perfbench {workload} seed {seed}"
        path.write_text(_nfa_text(order, names, e, trans, accepting, label), encoding="utf-8")
    for s in range(shape.sets):
        (root / names.sets[s]).mkdir(parents=True, exist_ok=True)


def write_logs(root: Path, workload: str, seed: int) -> list[tuple[str, str]]:
    """``<root>/<set>/<entity>.log``; returns the (set, entity) pairs in order.

    Each log holds random walks of its entity's hidden machine, mutated per
    model set, with ``log*`` noise events between steps.
    """
    shape = WORKLOADS[workload]
    rng = random.Random(SHAPE_SEED)
    hidden = [_random_machine(rng, shape.states)[0] for _ in range(shape.entities)]
    logs = {}
    for s in range(shape.sets):
        for e in range(shape.entities):
            trans = hidden[e]
            if rng.random() < shape.mutation:
                trans = trans + [_chord(rng, shape.states)]
            succ: dict[int, list[tuple[int, int]]] = {}
            for src, event, dst in trans:
                succ.setdefault(src, []).append((event, dst))
            walks = []
            for _ in range(shape.traces):
                state, walk = 0, []
                for _ in range(rng.randint(4, 16)):
                    if rng.random() < 0.1:
                        walk.append(("noise", rng.randrange(len(NOISE))))
                    event, state = rng.choice(succ[state])
                    walk.append(("event", event))
                walks.append(walk)
            logs[s, e] = walks

    order = random.Random(seed)
    names = _Names(order, shape)
    pairs = []
    for (s, e), walks in logs.items():
        lines = [
            " ".join(names.events[i] if kind == "event" else names.noise[i] for kind, i in walk)
            for walk in walks
        ]
        path = root / names.sets[s] / f"{names.entities[e]}.log"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("\n".join(_shuffled(order, lines)) + "\n", encoding="utf-8")
        pairs.append((names.sets[s], names.entities[e]))
    return sorted(pairs)
