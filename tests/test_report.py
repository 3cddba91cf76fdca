"""Serialization tests: JSON stability, DOT structure and grammar, CSV layout."""

import functools
import importlib.util
import json
import math
import random
import re
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from fsmcompare import (
    CanonicalDfa,
    Change,
    DiffParams,
    HidingConfig,
    ModelSet,
    Workspace,
    build_bundle,
    diff,
    level1,
    level2,
    level3,
    level4,
    level5,
    level6,
    load_workspace,
    minimal_pta,
    minimize,
    parse_log,
    to_json,
    with_alphabet,
    write_nfa,
)
from fsmcompare.report import (
    _dumps,
    bundle_doc,
    default_meta,
    diff_to_dot,
    lattice_to_dot,
    level4_to_csv,
    matrix_to_csv,
)

from conftest import dense_workspace, fig2_machines, random_workspace, running_example_machines

_TOKEN = re.compile(
    r'\s*(?:("(?:[^"\\]|\\.)*")|(->)|([{}\[\]=,;])|([A-Za-z0-9_.]+))'
)


def check_dot(text):
    """Validate the emitted DOT subset: digraph NAME { node/edge statements }."""
    tokens = []
    pos = 0
    while pos < len(text.rstrip()):
        match = _TOKEN.match(text, pos)
        assert match, f"unparseable DOT at offset {pos}: {text[pos:pos+20]!r}"
        tokens.append(next(g for g in match.groups() if g is not None))
        pos = match.end()

    def expect(token):
        assert tokens and tokens.pop(0) == token

    def identifier():
        token = tokens.pop(0)
        assert token not in "{}[]=,;" and token != "->", f"expected id, got {token!r}"
        return token

    def attrs():
        if not tokens or tokens[0] != "[":
            return {}
        expect("[")
        found = {}
        while True:
            key = identifier()
            expect("=")
            found[key] = identifier()
            if tokens[0] == ",":
                expect(",")
                continue
            break
        expect("]")
        return found

    expect("digraph")
    identifier()
    expect("{")
    statements = []
    while tokens[0] != "}":
        token = tokens.pop(0)
        if token == "rankdir":
            expect("=")
            identifier()
            expect(";")
            continue
        source = token
        if tokens[0] == "->":
            expect("->")
            target = identifier()
            statements.append(("edge", source, target, attrs()))
        else:
            statements.append(("node", source, None, attrs()))
        expect(";")
    expect("}")
    assert not tokens
    return statements


class TestDiffDot:
    def test_fig2_color_counts(self, fig2_pair):
        source, target = fig2_pair
        text = diff_to_dot(diff(source, target))
        statements = check_dot(text)
        edge_colors = [s[3].get("color") for s in statements if s[0] == "edge" and "label" in s[3]]
        node_colors = [s[3].get("color") for s in statements if s[0] == "node" and "diff" in s[3]]
        assert edge_colors.count("red") == 2
        assert edge_colors.count("green") == 1
        assert node_colors.count("red") == 1
        assert node_colors.count("green") == 0

    def test_diff_attribute_carries_literal_annotation(self, fig2_pair):
        source, target = fig2_pair
        text = diff_to_dot(diff(source, target))
        assert 'diff="removed"' in text
        assert 'diff="added"' in text
        assert 'diff="unchanged"' in text

    def test_self_diff_is_all_black(self, fig2_pair):
        source, _ = fig2_pair
        text = diff_to_dot(diff(source, source))
        assert "red" not in text and "green" not in text


class TestLatticeDot:
    def test_running_example_level2_shapes(self, running_example):
        from fsmcompare import level1, level2

        lattice = level2(level1(running_example))
        text = lattice_to_dot(lattice)
        statements = check_dot(text)
        shapes = [s[3]["shape"] for s in statements if s[0] == "node"]
        assert shapes.count("ellipse") == 3
        assert shapes.count("diamond") == 6
        assert sum(1 for s in statements if s[0] == "edge") == 12

    def test_single_node_lattice(self, running_example):
        from fsmcompare import level5

        lattice = level5(running_example, "E1")
        statements = check_dot(lattice_to_dot(lattice))
        assert len([s for s in statements if s[0] == "node"]) == 1

    def test_edge_label_format(self, running_example):
        from fsmcompare import level1, level2

        text = lattice_to_dot(level2(level1(running_example)))
        assert '"C" -> "I" [label="+1"]' in text
        assert '"A" -> "E" [label="~2"]' in text


class TestCsv:
    def test_running_example_level3(self, running_example):
        text = matrix_to_csv(level3(running_example))
        lines = text.split("\r\n")
        assert lines[0] == "S1,S2,S3,S4"
        assert lines[1] == "=,0,2,3"
        assert lines[2] == ",=,2,3"
        assert lines[3] == ",,=,2"
        assert lines[4] == ",,,="

    def test_running_example_level4(self, running_example):
        names = tuple(ms.name for ms in running_example.model_sets)
        text = level4_to_csv(level4(running_example), names)
        lines = text.split("\r\n")
        assert lines[0] == "S1,S2,S3,S4"
        assert lines[1] == "A,A,A,A"
        assert lines[2] == "A,A,B,C"
        assert lines[3] == "A,A,B,B"
        assert lines[4] == "A,A,A,absent"

    def test_one_by_one_matrix(self, running_example):
        from fsmcompare import Workspace

        ws = Workspace(running_example.entities, running_example.model_sets[:1])
        text = matrix_to_csv(level3(ws))
        assert text == "S1\r\n=\r\n"


class TestJson:
    def _bundle(self, running_example):
        params = DiffParams()
        meta = default_meta(
            input_path="example", levels=(1, 2, 3, 4, 5, 6), params=params
        )
        return build_bundle(running_example, params=params, meta=meta)

    def test_level1_mapping(self, running_example):
        doc = json.loads(to_json(self._bundle(running_example)))
        assert doc["level1"]["variants"]["S1"] == "A"
        assert doc["level1"]["variants"]["S4"] == "C"

    def test_reserialization_is_byte_identical(self, running_example):
        text = to_json(self._bundle(running_example))
        again = json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"
        assert again == text

    def test_absent_serializes_as_literal_token(self, running_example):
        doc = json.loads(to_json(self._bundle(running_example)))
        assert doc["level4"]["table"]["E4"]["S4"] == "absent"
        assert doc["level4"]["heat"]["E4"]["S4"] == 4

    def test_level6_entries_reference_existing_variants(self, running_example):
        doc = json.loads(to_json(self._bundle(running_example)))
        for entry in doc["level6"]:
            lattice = doc["level5"][entry["entity"]]
            variants = {node["variant"] for node in lattice["nodes"]}
            assert entry["from"] in variants and entry["to"] in variants

    def test_requested_levels_only(self, running_example):
        bundle = build_bundle(running_example, levels=(1,), meta={"tool": "fsmcompare"})
        doc = json.loads(to_json(bundle))
        assert set(doc) == {"meta", "level1"}

    def test_diff_machine_document(self, fig2_pair):
        source, target = fig2_pair
        from fsmcompare.report import _diff_machine_doc

        doc = _diff_machine_doc(diff(source, target))
        changes = [s["change"] for s in doc["states"]]
        assert changes.count("removed") == 1
        removed = next(s for s in doc["states"] if s["change"] == "removed")
        assert removed["left"] == "s4" and removed["right"] is None


@functools.cache
def _generator():
    """The benchmark's workload generator, ``perfbench/generate.py``."""
    path = Path(__file__).parents[1] / "perfbench" / "generate.py"
    spec = importlib.util.spec_from_file_location("perfbench_generate", path)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up by name.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def shaped_bundle(root: Path, workload: str, seed: int):
    """The bundle of the benchmark's full compare of one workload shape."""
    generate = _generator()
    if workload == "logs":
        logs = root / "logs"
        for model_set, entity in generate.write_logs(logs, workload, seed):
            text = (logs / model_set / f"{entity}.log").read_text(encoding="utf-8")
            machine = minimal_pta(parse_log(text))
            (root / "ws" / model_set).mkdir(parents=True, exist_ok=True)
            (root / "ws" / model_set / f"{entity}.nfa").write_text(write_nfa(machine))
        return build_bundle(
            load_workspace(root / "ws", HidingConfig(("log*",))), levels=(1, 3, 4)
        )
    generate.write_workspace(root / "ws", workload, seed)
    levels = (1, 2, 3, 4) if workload == "lattice" else (4, 5, 6)
    return build_bundle(load_workspace(root / "ws", HidingConfig(())), levels=levels)


# Every kind of value json spells in its own way.
SYNTHETIC = {
    "empty": [[], {}, [[], {}], {"a": [], "b": {"c": {}}}],
    "strings": [
        "",
        'say "hi"',
        "back\\slash",
        "\x00\x01\x1f\x7f\b\f\n\r\t",
        "line\u2028separator\u2029",
        "caf\u00e9 \u00fc \u4e2d",
        "\U0001f600 \U00010000",
    ],
    "numbers": [True, 1, False, 0, None, -1, 2**63, -(2**64) - 1, 10**40],
    "floats": [0.1, 1e-9, 1e16, 5e-324, -0.0, 0.0, 1.0, math.inf, -math.inf, math.nan],
    "tuple": (1, ("a", [])),
    "keys": {"b": 1, "a": {"\u00e9": 2, "A": 3, "": 4, '"': 5, "\\": 6, "\u2028": 7}},
}


class TestJsonWriter:
    """``_dumps`` writes exactly ``json.dumps(doc, sort_keys=True, indent=2)``."""

    def test_golden_report(self):
        golden = Path(__file__).parent / "data" / "golden" / "report.json"
        text = golden.read_text(encoding="utf-8")
        doc = json.loads(text)
        assert _dumps(doc) + "\n" == json.dumps(doc, sort_keys=True, indent=2) + "\n" == text

    @pytest.mark.parametrize("workload", ["lattice", "structural", "logs"])
    def test_seeded_bundles_of_every_workload_shape(self, tmp_path, workload):
        bundle = shaped_bundle(tmp_path, workload, seed=3)
        expected = json.dumps(bundle_doc(bundle), sort_keys=True, indent=2)
        assert _dumps(bundle_doc(bundle)) == expected
        assert to_json(bundle) == expected + "\n"

    def test_synthetic_document(self):
        assert _dumps(SYNTHETIC) == json.dumps(SYNTHETIC, sort_keys=True, indent=2)
        for value in [*SYNTHETIC.values(), *SYNTHETIC["floats"], "", 0, None]:
            assert _dumps(value) == json.dumps(value, sort_keys=True, indent=2)

    def test_refuses_what_json_refuses(self):
        with pytest.raises(TypeError):
            _dumps({"a": [object()]})


class TestBuildBundle:
    def test_each_structural_diff_is_computed_once(self, running_example, monkeypatch):
        import fsmcompare.levels

        calls = []

        def counting_diff(*args):
            calls.append(args)
            return diff(*args)

        monkeypatch.setattr(fsmcompare.levels, "diff", counting_diff)
        bundle = build_bundle(running_example, levels=(5, 6))
        assert len(calls) == len(bundle.level6) == sum(
            len(lattice.edges) for lattice in bundle.level5.values()
        )
        for entry in bundle.level6:
            key = (entry.from_variant, entry.to_variant)
            assert entry.machine is bundle.level5[entry.entity].diffs[key]

        calls.clear()
        build_bundle(running_example, levels=(6,), entity="E2", from_variant="D", to_variant="A")
        assert len(calls) == 1

    def test_requested_pair_diff_equals_the_level5_edge_diff(self, running_example):
        bundle = build_bundle(
            running_example, levels=(5, 6), entity="E2", from_variant="B", to_variant="C"
        )
        assert bundle.level6[0].machine == bundle.level5["E2"].diffs[("B", "C")]

    def test_a_requested_cover_edge_reuses_the_level5_diff(self, running_example, monkeypatch):
        import fsmcompare.levels

        calls = []

        def counting_diff(*args):
            calls.append(args)
            return diff(*args)

        monkeypatch.setattr(fsmcompare.levels, "diff", counting_diff)
        query = dict(levels=(5, 6), entity="E2", to_variant="C")
        bundle = build_bundle(running_example, from_variant="B", **query)
        edges = bundle.level5["E2"].edges
        assert ("B", "C") in {(edge.lower, edge.upper) for edge in edges}
        assert len(calls) == len(edges) == 7
        assert bundle.level6[0].machine is bundle.level5["E2"].diffs[("B", "C")]

        # D -> C is no cover edge, so level 6 makes its own diff.
        calls.clear()
        bundle = build_bundle(running_example, from_variant="D", **query)
        assert ("D", "C") not in bundle.level5["E2"].diffs
        assert len(calls) == 8

    def test_a_targeted_level5_and_level6_query_closes_the_lattice_once(
        self, running_example, monkeypatch
    ):
        import fsmcompare.levels

        closures = []
        close = fsmcompare.levels._close

        def counting_close(observed, node_cap):
            closures.append(observed)
            return close(observed, node_cap)

        monkeypatch.setattr(fsmcompare.levels, "_close", counting_close)
        query = {"entity": "E2", "from_variant": "B", "to_variant": "C"}
        bundle = build_bundle(running_example, levels=(5, 6), **query)
        assert len(closures) == 1
        assert bundle.level6[0].machine == bundle.level5["E2"].diffs[("B", "C")]

    def test_levels_2_and_5_reduce_a_shared_computed_language_once(
        self, running_example, monkeypatch
    ):
        import fsmcompare.levels

        reductions = []
        canonical = fsmcompare.levels._canonical

        def counting_canonical(*args):
            reductions.append(args)
            return canonical(*args)

        monkeypatch.setattr(fsmcompare.levels, "_canonical", counting_canonical)
        # E2's level-2 and level-5 closures start from the same observed
        # languages and compute the same 3; a run reduces them once, level 2
        # only when its payloads are read. Reading every computed level-2
        # payload reduces each language they hold once, the observed ones
        # among them too: 10 (entity, language) pairs.
        for levels, built in (((1, 2), 0), ((4, 5), 3), ((1, 2, 4, 5), 3), ((1, 2, 3, 4, 5, 6), 3)):
            reductions.clear()
            bundle = build_bundle(running_example, levels=levels)
            assert len(reductions) == built, levels
            if bundle.level2 is not None:
                computed = [
                    bundle.level2.payloads[node.variant].models
                    for node in bundle.level2.nodes
                    if node.kind == "computed"
                ]
                for _ in range(2):
                    held = {(e, models[e]) for models in computed for e in models}
                    assert len(reductions) == len(held) == 10, levels

    def test_levels_1_to_4_reduce_a_computed_component_only_when_read(
        self, running_example, monkeypatch
    ):
        import fsmcompare.levels

        reduced, converted = [], []
        canonical, to_nfa = fsmcompare.levels._canonical, CanonicalDfa.to_nfa

        def counting_canonical(*args):
            reduced.append(canonical(*args))
            return reduced[-1]

        def counting_to_nfa(dfa):
            converted.append(dfa)
            return to_nfa(dfa)

        monkeypatch.setattr(fsmcompare.levels, "_canonical", counting_canonical)
        monkeypatch.setattr(CanonicalDfa, "to_nfa", counting_to_nfa)
        seeded = dense_workspace(random.Random(107), n_sets=5, n_entities=6, absent=0.15)
        for ws in (running_example, seeded):
            reduced.clear()
            converted.clear()
            bundle = build_bundle(ws, levels=(1, 2, 3, 4))
            to_json(bundle)
            lattice_to_dot(bundle.level2)
            assert reduced == [] and converted == []

            def language(ms, e):
                alphabet = frozenset().union(*(m.models[e].alphabet for m in ws.model_sets))
                return e, minimize(with_alphabet(ms.models[e], alphabet))

            observed = {language(ms, e) for ms in ws.model_sets for e in ws.entities}
            computed = [bundle.level2.payloads[n.variant] for n in bundle.level2.nodes]
            computed = computed[len(bundle.level1.classes) :]
            assert len(computed) > 1
            read_before = set()
            for payload in computed:
                for e in ws.entities:
                    before = len(reduced), len(converted)
                    machine = payload.models[e]
                    read = language(payload, e)
                    # Only this component is reduced, from the product, and only if no
                    # read reduced it yet, whether it is an observed language or not.
                    if read in read_before:
                        assert len(reduced) == before[0]
                    else:
                        assert reduced[before[0] :] == [read[1]]
                        read_before.add(read)
                    assert len(converted) <= before[1] + 1
                    after = len(reduced), len(converted)
                    assert payload.models[e] is machine
                    assert (len(reduced), len(converted)) == after
            # Each (entity, language) is converted to a machine once.
            assert read_before - observed and read_before & observed
            assert len(converted) == len(read_before)

    def test_report_is_the_same_whether_payloads_were_read_or_not(self, running_example):
        rng = random.Random(109)
        seeded = [dense_workspace(rng, n_sets=5, n_entities=4, absent=0.15) for _ in range(5)]
        for ws in [running_example] + seeded:
            unread, read = build_bundle(ws), build_bundle(ws)
            for payload in read.level2.payloads.values():
                dict(payload.models)
            text, dot = to_json(unread), lattice_to_dot(unread.level2)
            assert to_json(read) == text and lattice_to_dot(read.level2) == dot
            for payload in unread.level2.payloads.values():
                dict(payload.models)
            assert to_json(unread) == text

    def test_no_model_is_minimized_up_to_the_on_the_fly_count(self, running_example, monkeypatch):
        import fsmcompare.levels

        calls = []

        def counting_minimize(machine):
            calls.append(machine)
            return minimize(machine)

        monkeypatch.setattr(fsmcompare.levels, "minimize", counting_minimize)
        # S5's models are equal to S1's, built anew.
        copy = ModelSet("S5", running_example_machines()["S1"])
        shared = Workspace(running_example.entities, running_example.model_sets + (copy,))
        query = {"entity": "E2", "from_variant": "D", "to_variant": "A"}
        runs = [(ws, (1, 2, 3, 4, 5, 6), {}) for ws in (running_example, shared)]
        runs += [(running_example, levels, query) for levels in ((6,), (1, 4, 6))]
        for ws, levels, selection in runs:
            bundle = build_bundle(ws, levels=levels, **selection)
            for payload in bundle.level2.payloads.values() if bundle.level2 else ():
                dict(payload.models)  # reads every computed component
            assert calls == [], levels

    def test_each_language_becomes_a_machine_once(self, running_example, monkeypatch):
        converted = []
        to_nfa = CanonicalDfa.to_nfa

        def counting_to_nfa(dfa):
            converted.append(dfa)
            return to_nfa(dfa)

        monkeypatch.setattr(CanonicalDfa, "to_nfa", counting_to_nfa)
        seeded = dense_workspace(random.Random(73), n_sets=5, n_entities=6, absent=0.15)
        for ws in (running_example, seeded):
            converted.clear()
            bundle = build_bundle(ws, levels=(1, 2, 3, 4, 5, 6))
            computed = [
                bundle.level2.payloads[n.variant].models
                for n in bundle.level2.nodes
                if n.kind == "computed"
            ]
            computed += [
                {e: lattice.payloads[n.variant]}
                for e, lattice in bundle.level5.items()
                for n in lattice.nodes
                if n.kind == "computed"
            ]
            # Level 5 and the level-2 reads share one machine per (entity, language).
            machines: dict = {}
            for models in computed:
                for e, machine in models.items():
                    language = e, minimize(machine)
                    assert machines.setdefault(language, machine) is machine
            assert len(converted) == len(machines)
            assert sum(n.kind == "computed" for n in bundle.level2.nodes) > 1

    def test_standalone_levels_equal_bundled_levels(self, running_example):
        rng = random.Random(67)
        for ws in [running_example] + [random_workspace(rng) for _ in range(20)]:
            bundle = build_bundle(ws, levels=(1, 2, 3, 4, 5, 6))
            assert level1(ws) == bundle.level1
            assert level2(level1(ws)) == bundle.level2
            assert level3(ws) == bundle.level3
            assert level4(ws) == bundle.level4
            assert {e: level5(ws, e) for e in bundle.level5} == bundle.level5
            for entry in bundle.level6:
                machine = level6(ws, entry.entity, entry.from_variant, entry.to_variant)
                assert machine == entry.machine

    def test_levels_1_3_4_are_the_same_whether_the_run_minimizes_or_not(
        self, running_example, monkeypatch
    ):
        # A run decides equality and emptiness on the fly; with no entity
        # below the on-the-fly count, it keys every model by its minimal DFA.
        # Both give the same levels.
        import fsmcompare.levels

        rng = random.Random(113)
        workspaces = [running_example]
        workspaces += [random_workspace(rng) for _ in range(20)]
        workspaces += [dense_workspace(rng, 5, rng.randint(2, 5), absent=0.2) for _ in range(20)]
        # Entities with more distinct models than deciding on the fly takes.
        workspaces += [dense_workspace(rng, 12, 3, absent=0.1) for _ in range(4)]
        # The same workspaces with "--hide a", and with an entity whose models are
        # different machines of one language, and that language elsewhere.
        hide = HidingConfig(("a",))
        workspaces += [
            Workspace(
                ws.entities,
                tuple(
                    ModelSet(ms.name, {e: hide.apply(m) for e, m in ms.models.items()})
                    for ms in ws.model_sets
                ),
            )
            for ws in workspaces[1:]
        ]
        workspaces += [with_one_language_in_many_machines(ws, rng) for ws in workspaces[1:]]
        seen = {"absent": 0, "one language, several machines": 0, "several variants": 0}
        for ws in workspaces:
            alone = build_bundle(ws, levels=(1, 3, 4))
            with monkeypatch.context() as patch:
                patch.setattr(fsmcompare.levels, "_ON_THE_FLY_MODELS", 0)
                minimized = build_bundle(ws, levels=(1, 3, 4))
            assert alone.level1 == minimized.level1
            assert alone.level3 == minimized.level3
            assert alone.level4 == minimized.level4
            assert bundle_doc(alone) == bundle_doc(minimized)
            models = {ms.name: ms.models for ms in ws.model_sets}
            for e, partition in alone.level4.items():
                seen["absent"] += bool(partition.absent)
                seen["several variants"] += len(partition.classes) > 1
                for cls in partition.classes:
                    machines = {models[name][e] for name in cls.members}
                    seen["one language, several machines"] += len(machines) > 1
        assert min(seen.values()) > 20, seen

    def test_an_entity_with_many_distinct_models_minimizes(self, monkeypatch):
        # Deciding on the fly checks each model against every language before
        # it, so past _ON_THE_FLY_MODELS distinct models an entity minimizes.
        import fsmcompare.levels

        cap = fsmcompare.levels._ON_THE_FLY_MODELS
        calls = []
        minimize = fsmcompare.levels.minimize

        def counted(machine):
            calls.append(machine)
            return minimize(machine)

        rng = random.Random(131)
        outcomes = set()
        # The last workspace's lattice has 3,754 nodes, so its run leaves level 2 out.
        every, without_2 = (1, 2, 3, 4), (1, 3, 4)
        runs = [(cap, every), (cap + 1, every), (2 * cap, every), (2 * cap, without_2)]
        for n_sets, levels in runs:
            ws = dense_workspace(rng, n_sets, 3, absent=0.1)
            monkeypatch.setattr(fsmcompare.levels, "_ON_THE_FLY_MODELS", 4 * cap)
            expected = build_bundle(ws, levels=levels)  # every entity on the fly
            monkeypatch.undo()
            calls.clear()
            monkeypatch.setattr(fsmcompare.levels, "minimize", counted)
            got = build_bundle(ws, levels=levels)
            monkeypatch.undo()
            distinct = [len({ms.models[e] for ms in ws.model_sets}) for e in ws.entities]
            assert len(calls) == sum(n for n in distinct if n > cap)
            outcomes |= {n > cap for n in distinct}
            assert got.level1 == expected.level1
            if got.level2 is not None:  # the closure reads tables keyed by minimal DFAs
                assert got.level2.nodes == expected.level2.nodes
                assert got.level2.edges == expected.level2.edges
            assert got.level3 == expected.level3
            assert got.level4 == expected.level4
        assert outcomes == {False, True}

    def test_levels_1_3_4_alone_build_no_dfa(self, running_example, monkeypatch):
        import fsmcompare.automata
        import fsmcompare.levels

        calls = []

        def refuse(name):
            def refused(*args):
                calls.append(name)
                raise AssertionError(f"{name} ran")

            return refused

        rng = random.Random(127)
        workspaces = [running_example] + [dense_workspace(rng, 5, 4, absent=0.2) for _ in range(5)]
        workspaces += [with_one_language_in_many_machines(ws, rng) for ws in workspaces[1:]]
        expected = [build_bundle(ws, levels=(1, 3, 4)) for ws in workspaces]
        for module in (fsmcompare.automata, fsmcompare.levels):
            monkeypatch.setattr(module, "minimize", refuse("minimize"))
            monkeypatch.setattr(module, "_canonical", refuse("_canonical"))
        for ws, bundle in zip(workspaces, expected):
            for levels in ((1,), (3,), (4,), (1, 3, 4)):
                got = build_bundle(ws, levels=levels)
                for n in (1, 3, 4):
                    want = getattr(bundle, f"level{n}") if n in levels else None
                    assert getattr(got, f"level{n}") == want
            assert level1(ws) == bundle.level1
            assert level3(ws) == bundle.level3
            assert level4(ws) == bundle.level4
        assert calls == []


def with_one_language_in_many_machines(ws: Workspace, rng: random.Random) -> Workspace:
    """``ws`` with a new entity: one model set's language, as a different machine in each set.

    Every other set holds the machine ``minimize`` gives, that machine with an
    unreachable state, or one over a wider alphabet; a random one keeps its own.
    """
    first = ws.model_sets[0].models[ws.entities[0]]
    minimal = minimize(first).to_nfa()
    variants = [
        first,
        minimal,
        replace(minimal, states=minimal.states | {"island"}),
        with_alphabet(first, {"z"}),
    ]
    sets = []
    for i, ms in enumerate(ws.model_sets):
        own = ms.models[ws.entities[-1]]
        model = own if i and rng.random() < 0.25 else variants[i % len(variants)]
        sets.append(ModelSet(ms.name, {**ms.models, "same": model}))
    return Workspace(ws.entities + ("same",), tuple(sets))
