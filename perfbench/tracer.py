"""Spans around the public functions of the program's modules.

``install`` wraps, from outside, every public function defined in one of the
modules below and rebinds every module attribute that refers to it, so a
function imported by name elsewhere (``minimize`` in ``levels`` and ``cli``)
is traced at every call site. Click command callbacks in ``cli`` are traced
as ``cli.<command>``. Spans stay in memory with their parent's id and are
written once at the end; ``summarize`` turns them into additive counters.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

MODULES = ("ingest", "automata", "model_sets", "levels", "ltsdiff", "report", "cli")


def _lattice(result) -> dict:
    return {
        "nodes": len(result.nodes),
        "edges": len(result.edges),
        "computed": sum(node.kind == "computed" for node in result.nodes),
    }


# Sizes read from a call's result, by span name.
PROBES = {
    "automata.intersection": lambda r: {"states": len(r.states)},
    "automata.union": lambda r: {"states": len(r.states)},
    "ingest.build_pta": lambda r: {"states": len(r.states)},
    "ltsdiff.global_scores": lambda r: {"pairs": len(r.left) * len(r.right)},
    "levels.level2": _lattice,
    "levels.level5": _lattice,
}


class Tracer:
    """Span records ``[id, parent_id, name, start, end, info]``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[list] = []

    def wrap(self, name: str, fn):
        probe = PROBES.get(name)
        # An lru_cache'd function tells its misses apart from hits; without
        # a cache every call is a miss.
        cache_info = getattr(fn, "cache_info", None) if name == "automata.minimize" else None
        spans, open_spans, clock = self.spans, self._open, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = open_spans[-1][0] if open_spans else None
            span = [len(spans), parent, name, 0.0, 0.0, None]
            spans.append(span)
            open_spans.append(span)
            misses = cache_info().misses if cache_info else 0
            span[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                open_spans.pop()
            if probe is not None:
                span[5] = probe(result)
            elif name == "automata.minimize":
                missed = cache_info is None or cache_info().misses > misses
                span[5] = {"miss": int(missed), "states": result.num_states if missed else 0}
            return result

        return traced

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            json.dump(self.spans, out, separators=(",", ":"))


def _is_public_function(module, attr: str, value) -> bool:
    return (
        not attr.startswith("_")
        and callable(value)
        and not isinstance(value, type)
        and getattr(value, "__module__", None) == module.__name__
        and (hasattr(value, "__code__") or hasattr(value, "__wrapped__"))
    )


def install() -> Tracer:
    tracer = Tracer()
    modules = []
    for short in MODULES:
        try:
            modules.append(importlib.import_module(f"fsmcompare.{short}"))
        except ImportError:  # a module a later version removed
            continue
    wrapped: dict[int, object] = {}
    for module in modules:
        short = module.__name__.rsplit(".", 1)[1]
        for attr, value in list(vars(module).items()):
            if _is_public_function(module, attr, value) and id(value) not in wrapped:
                wrapped[id(value)] = tracer.wrap(f"{short}.{attr}", value)
    for module in [importlib.import_module("fsmcompare"), *modules]:
        for attr, value in list(vars(module).items()):
            if id(value) in wrapped:
                setattr(module, attr, wrapped[id(value)])
    cli = next((m for m in modules if m.__name__ == "fsmcompare.cli"), None)
    group = getattr(cli, "main", None)
    for command in getattr(group, "commands", {}).values():
        if command.callback is not None:
            command.callback = tracer.wrap(f"cli.{command.name}", command.callback)
    return tracer


def _span_time(spans, names: set[str]) -> float:
    """Time inside spans of ``names``, not counting one nested in another.

    A span's id is its index in ``spans``.
    """
    total = 0.0
    for span in spans:
        if span[2] not in names:
            continue
        parent = span[1]
        while parent is not None and spans[parent][2] not in names:
            parent = spans[parent][1]
        if parent is None:
            total += span[4] - span[3]
    return total


def _self_time(spans, name: str) -> float:
    child_time: dict[int, float] = {}
    for span in spans:
        if span[1] is not None:
            child_time[span[1]] = child_time.get(span[1], 0.0) + span[4] - span[3]
    return sum(
        span[4] - span[3] - child_time.get(span[0], 0.0) for span in spans if span[2] == name
    )


def _count(spans, names: set[str]) -> int:
    return sum(span[2] in names for span in spans)


def _info(spans, names: set[str], key: str) -> int:
    return sum((span[5] or {}).get(key, 0) for span in spans if span[2] in names)


COMBINE = {"model_sets.model_set_intersection", "model_sets.model_set_union"}
PRODUCT = {"automata.intersection", "automata.union"}
LATTICE = {"levels.level2", "levels.level5"}
MATCHING = {"ltsdiff.select_landmarks", "ltsdiff.compute_matching"}
EMIT = {
    "report.to_json",
    "report.to_dot",
    "report.to_csv",
    "report.lattice_to_dot",
    "report.diff_to_dot",
    "report.matrix_to_csv",
    "report.level4_to_csv",
}


def summarize(spans) -> dict[str, float]:
    """Additive per-layer counters of one command; absent spans count 0."""
    out = {f"levels.level{n}_s": _span_time(spans, {f"levels.level{n}"}) for n in range(1, 7)}
    minimize = {"automata.minimize"}
    out.update(
        {
            "levels.level2_self_s": _self_time(spans, "levels.level2"),
            "levels.lattice_nodes": _info(spans, LATTICE, "nodes"),
            "levels.cover_edges": _info(spans, LATTICE, "edges"),
            "levels.computed_nodes": _info(spans, {"levels.level2"}, "computed"),
            "model_sets.combine_calls": _count(spans, COMBINE),
            "model_sets.combine_s": _span_time(spans, COMBINE),
            "model_sets.entity_counts_s": _span_time(spans, {"model_sets.diff_entity_counts"}),
            "automata.product_calls": _count(spans, PRODUCT),
            "automata.product_s": _span_time(spans, PRODUCT),
            "automata.product_states": _info(spans, PRODUCT, "states"),
            "automata.minimize_calls": _count(spans, minimize),
            "automata.minimize_misses": _info(spans, minimize, "miss"),
            "automata.minimize_s": _span_time(spans, minimize),
            "automata.dfa_states": _info(spans, minimize, "states"),
            "ltsdiff.diff_calls": _count(spans, {"ltsdiff.diff"}),
            "ltsdiff.global_scores_s": _span_time(spans, {"ltsdiff.global_scores"}),
            "ltsdiff.scored_pairs": _info(spans, {"ltsdiff.global_scores"}, "pairs"),
            "ltsdiff.matching_s": _span_time(spans, MATCHING),
            "ltsdiff.build_diff_s": _span_time(spans, {"ltsdiff.build_diff"}),
            "ingest.build_pta_s": _span_time(spans, {"ingest.build_pta"}),
            "ingest.pta_states": _info(spans, {"ingest.build_pta"}, "states"),
            "ingest.load_workspace_s": _span_time(spans, {"ingest.load_workspace"}),
            "ingest.parse_nfa_calls": _count(spans, {"ingest.parse_nfa"}),
            "ingest.hide_s": _span_time(spans, {"automata.hide_events"}),
            "ingest.write_nfa_s": _span_time(spans, {"ingest.write_nfa"}),
            "report.build_bundle_s": _span_time(spans, {"report.build_bundle"}),
            "report.emit_s": _span_time(spans, EMIT),
        }
    )
    return out
