"""File format, prefix-tree, and workspace loading tests."""

import os
import random
from collections import Counter
from pathlib import Path

import pytest

import fsmcompare.automata
import fsmcompare.ingest
from fsmcompare import (
    HidingConfig,
    Nfa,
    NfaParseError,
    WorkspaceLoadError,
    build_pta,
    load_workspace,
    minimal_pta,
    minimize,
    parse_log,
    parse_nfa,
    write_nfa,
)

from conftest import (
    build_nfa,
    language_equivalent,
    oracle_canonical,
    oracle_language,
    oracle_load_workspace,
    oracle_parse_nfa,
    oracle_subset_table,
    oracle_write_nfa,
    random_nfa,
)


class TestParseNfa:
    def test_minimal_accepting_machine(self):
        machine = parse_nfa("nfa v1\nstate s initial accepting\n")
        assert () in oracle_language(machine, 0)
        assert machine.transitions == frozenset()

    def test_fig3_e1_file(self, running_example_dir):
        text = (running_example_dir / "S1" / "E1.nfa").read_text()
        machine = parse_nfa(text)
        assert len(machine.states) == 4
        assert len(machine.transitions) == 4

    def test_undeclared_state_names_state_and_line(self):
        text = "nfa v1\nstate s1\ntrans s1 a s9\n"
        with pytest.raises(NfaParseError) as info:
            parse_nfa(text)
        assert "s9" in str(info.value)
        assert info.value.line == 3

    def test_duplicate_state_declaration(self):
        with pytest.raises(NfaParseError) as info:
            parse_nfa("nfa v1\nstate s1\nstate s1\n")
        assert "duplicate" in str(info.value)

    def test_missing_header(self):
        with pytest.raises(NfaParseError):
            parse_nfa("state s1\n")

    def test_wrong_header(self):
        with pytest.raises(NfaParseError):
            parse_nfa("nfa v2\n")

    def test_empty_input(self):
        with pytest.raises(NfaParseError):
            parse_nfa("")

    def test_comments_and_blank_lines_ignored(self):
        text = "# header comment\n\nnfa v1\nstate s1 initial accepting  # trailing\n"
        machine = parse_nfa(text)
        assert machine.initial == frozenset({"s1"})

    def test_unknown_directive(self):
        with pytest.raises(NfaParseError):
            parse_nfa("nfa v1\nfinal s1\n")

    def test_control_character_in_state_name_names_the_file(self):
        with pytest.raises(NfaParseError, match="m.nfa") as info:
            parse_nfa("nfa v1\nstate a\x01b initial\n", path="m.nfa")
        assert "state name" in str(info.value)

    def test_bad_state_flag(self):
        with pytest.raises(NfaParseError):
            parse_nfa("nfa v1\nstate s1 starting\n")

    def test_malformed_trans(self):
        with pytest.raises(NfaParseError):
            parse_nfa("nfa v1\nstate s1\ntrans s1 a\n")

    def test_alphabet_directive_adds_events(self):
        machine = parse_nfa("nfa v1\nalphabet x y\nstate s1 initial\n")
        assert machine.alphabet == frozenset({"x", "y"})

    def test_any_whitespace_accepted_on_input(self):
        machine = parse_nfa("nfa v1\nstate   s1\tinitial\n")
        assert machine.initial == frozenset({"s1"})


def parse_outcome(parse, text: str):
    """The parsed machine, or the (message, line, path) of the parse error."""
    try:
        return parse(text, path="m.nfa")
    except NfaParseError as exc:
        return str(exc), exc.line, exc.path


INVALID_NFA_TEXTS = [
    "",  # missing header
    "# only a comment\n\n   \t\n",
    "state s1\n",  # wrong header
    "nfa v2\n",
    "nfa v1 extra\n",
    "nfa v1\nfinal s1\n",  # unknown directive
    "nfa v1\nstate s1 starting\n",  # bad flag
    "nfa v1\nstate s1 initial accepting initial\n",  # repeated flag
    "nfa v1\nstate s1 accepting accepting\n",
    "nfa v1\nstate s1\nstate s2\nstate s1 initial\n",  # duplicate state
    "nfa v1\nstate\n",  # short state line
    "nfa v1\nstate s1\ntrans s1 a\n",  # short trans line
    "nfa v1\nstate s1\ntrans s1 a s1 s1\n",
    "nfa v1\nstate s1\ntrans s9 a s1\n",  # undeclared source
    "nfa v1\nstate s1\ntrans s1 a s9\n",  # undeclared target
    "nfa v1\ntrans s8 a s9\nstate s1\n",  # both undeclared: the source is named
    "nfa v1\nstate s1\ntrans s1 a s9\ntrans s8 a s1\n",  # the first transition is named
    "nfa v1\ntrans s8 a s9\nstate\n",  # a line error wins over an earlier undeclared state
    "nfa v1\nstate a\x01b\n",  # unwritable names
    "nfa v1\nstate s\ntrans s e\x01 s\n",
    "nfa v1\nalphabet x\x7fy\nstate a\x01b\nstate c\x02d\n",
]

LINE_BREAKS = ["\r\n", "\x0b", "\x0c", "\x1c", "\u2028"]


def perturbed_text(rng: random.Random, machine: Nfa) -> str:
    """``write_nfa``'s text with shuffled lines, odd spacing, comments and blank lines."""
    header, *body = write_nfa(machine).splitlines()
    rng.shuffle(body)
    lines = ["# leading comment", "", header]
    for line in body:
        gaps = [rng.choice([" ", "\t", "  ", " \t "]) for _ in line.split()]
        line = "".join(gap + token for gap, token in zip(gaps, line.split()))
        if rng.random() < 0.3:
            line += rng.choice(["#glued", " # spaced", "\t#"])
        lines.append(line)
        if rng.random() < 0.2:
            lines.append(rng.choice(["", "   ", "# comment line", "\t# trans s0 a s0"]))
    return "\n".join(lines) + rng.choice(["", "\n"])


def corrupted_text(rng: random.Random, text: str) -> str:
    """The text with one line dropped, repeated, cut short or given an unknown name."""
    lines = text.splitlines()
    i = rng.randrange(len(lines))
    edit = rng.choice(["drop", "repeat", "cut", "rename", "flag"])
    if edit == "drop":
        del lines[i]
    elif edit == "repeat":
        lines.insert(i, lines[i])
    elif edit == "cut":
        lines[i] = " ".join(lines[i].split()[:-1])
    elif edit == "rename" and len(lines[i].split()) > 1:
        tokens = lines[i].split()
        tokens[rng.randrange(1, len(tokens))] = "zz"
        lines[i] = " ".join(tokens)
    else:
        lines[i] += " initial"
    return "\n".join(lines)


class TestParseNfaAgainstOracle:
    """The one-loop parser gives the two-pass oracle's machine or error."""

    @pytest.mark.parametrize("text", INVALID_NFA_TEXTS)
    def test_every_error_kind(self, text):
        expected = parse_outcome(oracle_parse_nfa, text)
        assert isinstance(expected, tuple)
        assert parse_outcome(parse_nfa, text) == expected

    @pytest.mark.parametrize("newline", LINE_BREAKS)
    def test_other_line_breaks(self, newline, running_example_dir):
        texts = [p.read_text() for p in sorted(running_example_dir.glob("*/*.nfa"))]
        texts += INVALID_NFA_TEXTS
        for text in texts:
            text = text.replace("\n", newline)
            assert parse_outcome(parse_nfa, text) == parse_outcome(oracle_parse_nfa, text)

    def test_tabs_glued_comments_and_comments_before_the_header(self):
        text = (
            "# first\n\t# second\n\nnfa\tv1#header\n"
            "state\ts1\tinitial#flags\nstate s2 accepting#\n"
            "alphabet\tb#c d\ntrans\ts1 a\ts2#x\ntrans s2 a s2 # loop\n"
        )
        machine = parse_nfa(text)
        assert machine == oracle_parse_nfa(text)
        assert machine.alphabet == frozenset({"a", "b"})
        assert machine.transitions == frozenset({("s1", "a", "s2"), ("s2", "a", "s2")})

    def test_running_example(self, running_example_dir):
        for path in sorted(running_example_dir.glob("*/*.nfa")):
            text = path.read_text()
            assert parse_nfa(text) == oracle_parse_nfa(text)

    def test_seeded_random_files_and_their_corruptions(self):
        rng = random.Random(131)
        kinds: Counter = Counter()
        for _ in range(300):
            text = perturbed_text(rng, random_nfa(rng, max_states=6))
            assert parse_nfa(text) == oracle_parse_nfa(text)
            broken = corrupted_text(rng, text)
            expected = parse_outcome(oracle_parse_nfa, broken)
            if isinstance(expected, tuple):
                kinds[expected[0].split(":", 2)[2].split(" ")[1]] += 1
            assert parse_outcome(parse_nfa, broken) == expected
        assert len(kinds) >= 6 and sum(kinds.values()) > 100

    def test_transitions_share_the_declared_name_objects(self):
        text = "nfa v1\nstate q10 initial\nstate q11 accepting\n"
        text += "trans q10 go q11\ntrans q11 go q10\ntrans q11 stop q11\n"
        machine = parse_nfa(text)
        states = {name: name for name in machine.states}
        events = {name: name for name in machine.alphabet}
        for src, event, dst in machine.transitions:
            assert src is states[src] and dst is states[dst]
            assert event is events[event]


class TestWriteNfa:
    def test_empty_machine_is_header_only(self):
        assert write_nfa(Nfa.empty()) == "nfa v1\n"

    def test_round_trip_preserves_structure(self, running_example_dir):
        for path in sorted(running_example_dir.rglob("*.nfa")):
            machine = parse_nfa(path.read_text())
            assert parse_nfa(write_nfa(machine)) == machine

    def test_canonical_output_is_sorted(self):
        machine = build_nfa(
            transitions=[("b", "y", "a"), ("a", "x", "b")], initial=["a"], accepting=["b"]
        )
        text = write_nfa(machine)
        assert text == (
            "nfa v1\n"
            "state a initial\n"
            "state b accepting\n"
            "trans a x b\n"
            "trans b y a\n"
        )

    def test_unused_alphabet_events_survive_round_trip(self):
        machine = build_nfa(initial=["s"], accepting=["s"], alphabet=["x", "y"])
        text = write_nfa(machine)
        assert "alphabet x y" in text
        assert parse_nfa(text) == machine

    def test_random_round_trips(self):
        rng = random.Random(59)
        for _ in range(100):
            machine = random_nfa(rng)
            assert parse_nfa(write_nfa(machine)) == machine

    def test_every_machine_with_random_state_names_round_trips(self):
        # Names drawn from letters, punctuation, a format character and
        # characters a file cannot hold: a machine is refused or round-trips.
        rng = random.Random(61)
        good, bad = "ab1_-.:\u00e9\u200d", "# \t\x01\x85\u3000"
        weights = [4] * len(good) + [1] * len(bad)
        written = 0
        for _ in range(300):
            names = [
                "".join(rng.choices(good + bad, weights, k=rng.randint(1, 3))) for _ in range(3)
            ]
            try:
                machine = build_nfa([(names[0], "x", names[1])], [names[0]], [names[2]])
            except ValueError:
                assert set("".join(names)) & set(bad)
                continue
            written += 1
            assert parse_nfa(write_nfa(machine)) == machine
        assert 50 <= written <= 250

    def test_matches_the_tuple_sorting_oracle(self):
        # Names on both sides of the space: "!" (U+0021) sorts right above it,
        # names extend one another, and some are non-ASCII or beyond the BMP.
        names = ["!", "a", "a!", "a0", "a~", "a\u00e9", "\u00e9", "\U0001d538", "a\U0001f600", "~"]
        machines = [
            Nfa.empty(),
            build_nfa([("a", "a!", "a0")], ["a"], ["a!"], alphabet=["!", "a~"]),  # unused events
        ]
        rng = random.Random(163)
        for _ in range(300):
            states = rng.sample(names, rng.randint(1, len(names)))
            events = rng.sample(names, rng.randint(1, 4))
            transitions = [
                (rng.choice(states), rng.choice(events), rng.choice(states))
                for _ in range(rng.randint(0, 12))
            ]
            initial, accepting = rng.sample(states, len(states) // 2), rng.sample(states, 1)
            machines.append(build_nfa(transitions, initial, accepting, states, events))
        for machine in machines:
            assert write_nfa(machine) == oracle_write_nfa(machine)


class TestParseLog:
    def test_traces_and_empty_lines(self):
        assert parse_log("a b\n\nc\n") == [("a", "b"), (), ("c",)]


class TestBuildPta:
    def test_two_traces_share_prefix(self):
        machine = build_pta([("a",), ("a", "b")])
        assert len(machine.states) == 3
        assert oracle_language(machine, 2) == {("a",), ("a", "b")}

    def test_empty_trace_list(self):
        assert build_pta([]) == Nfa.empty()

    def test_empty_trace_only(self):
        machine = build_pta([()])
        assert oracle_language(machine, 0) == {()}
        assert len(machine.states) == 1

    def test_duplicates_collapse(self):
        assert build_pta([("a",), ("a",)]) == build_pta([("a",)])

    def test_language_is_exactly_the_trace_set(self):
        rng = random.Random(61)
        events = ["a", "b", "c"]
        traces = {
            tuple(rng.choice(events) for _ in range(rng.randint(0, 5))) for _ in range(50)
        }
        machine = build_pta(sorted(traces))
        assert oracle_language(machine, 5) == frozenset(traces)

    def test_tree_shaped(self):
        machine = build_pta([("a", "b"), ("a", "c"), ("b",)])
        # Every state except the root has exactly one incoming transition.
        incoming = {}
        for _, _, dst in machine.transitions:
            incoming[dst] = incoming.get(dst, 0) + 1
        assert all(count == 1 for count in incoming.values())
        assert len(machine.transitions) == len(machine.states) - 1

    def test_input_order_does_not_matter(self):
        traces = [("a", "b"), ("c",), ("a",)]
        assert build_pta(traces) == build_pta(list(reversed(traces)))

    def test_event_names_are_checked_once_per_build(self, monkeypatch):
        checks = []
        check = fsmcompare.automata._check_names

        def counting_check(kind, names):
            checks.append((kind, names))
            check(kind, names)

        monkeypatch.setattr(fsmcompare.automata, "_check_names", counting_check)
        traces = [("a", "b"), ("c",), ("a",)]
        for build in (build_pta, minimal_pta):
            checks.clear()
            build(traces)
            assert checks == [("event", frozenset("abc"))]

    def test_traces_are_read_once(self):
        traces = [("a", "b"), ("c",), ("a",)]
        for build in (build_pta, minimal_pta):
            assert build(iter(traces)) == build(traces)


def walk_logs(rng: random.Random) -> list[tuple[str, ...]]:
    """Logs shaped like the benchmark's: walks of a hidden machine with noise and duplicates.

    The event names are drawn so that their sorted order seldom matches the
    order in which the walks first use them; some logs hold the empty trace.
    """
    names = rng.sample([f"{c}{i}" for c in "zyxw" for i in range(3)], rng.randint(1, 8))
    noise = ["log0", "log1"]
    states = rng.randint(1, 6)
    succ = {s: [(rng.choice(names), rng.randrange(states))] for s in range(states)}
    for _ in range(states):
        succ[rng.randrange(states)].append((rng.choice(names), rng.randrange(states)))
    traces = []
    for _ in range(rng.randint(1, 60)):
        state, trace = 0, []
        for _ in range(rng.randint(0, 12)):
            if rng.random() < 0.1:
                trace.append(rng.choice(noise))
            event, state = rng.choice(succ[state])
            trace.append(event)
        traces.append(tuple(trace))
    return traces + rng.sample(traces, len(traces) // 3)


class TestMinimalPta:
    """The children-first merge must match minimize(build_pta(...)).to_nfa() and the Moore oracle."""

    def test_edge_cases(self):
        for traces in (
            [],
            [()],
            [(), ()],
            [("a",), ("a",)],
            [("b", "a"), ("a",), ("b", "a")],
            [(), ("b", "a")],
            [("b",), ("a", "b")],
        ):
            expected = oracle_canonical(*oracle_subset_table(build_pta(traces)))
            assert minimize(build_pta(traces)) == expected
            assert minimal_pta(traces) == minimize(build_pta(traces)).to_nfa() == expected.to_nfa()

    def test_seeded_logs(self):
        rng = random.Random(101)
        for _ in range(200):
            events = "abcdefgh"[: rng.randint(1, 8)]
            traces = [
                tuple(rng.choice(events) for _ in range(rng.randint(0, 10)))
                for _ in range(rng.randint(0, 40))
            ]
            traces += rng.sample(traces, len(traces) // 3)  # duplicates
            assert minimal_pta(traces) == minimize(build_pta(traces)).to_nfa()

    def test_long_trace(self):
        rng = random.Random(79)
        traces = [tuple(rng.choice("abcdefgh") for _ in range(5000))]
        machine = minimal_pta(traces)
        assert len(machine.states) == 5001  # 5,001 tree nodes; the sink is left out
        assert machine == minimize(build_pta(traces)).to_nfa()

    def test_very_long_trace_needs_no_recursion(self):
        rng = random.Random(83)
        machine = minimal_pta([tuple(rng.choice("abcdefgh") for _ in range(200_000))])
        assert len(machine.states) == 200_001  # 200,001 tree nodes; the sink is left out
        # The sink's number, one of the 200,002, names no state.
        assert len({f"q{i}" for i in range(200_002)} - machine.states) == 1
        assert len(machine.accepting) == 1

    def test_benchmark_shaped_logs(self):
        rng = random.Random(89)
        first_use_unsorted = with_empty_trace = 0
        for _ in range(300):
            traces = walk_logs(rng)
            first_use = list(dict.fromkeys(e for trace in traces for e in trace))
            first_use_unsorted += first_use != sorted(first_use)
            with_empty_trace += () in traces
            expected = oracle_canonical(*oracle_subset_table(build_pta(traces)))
            assert minimal_pta(traces) == expected.to_nfa()
        assert first_use_unsorted > 200 and with_empty_trace > 30

    def test_never_refines_a_partition(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("minimal_pta ran Hopcroft refinement")

        monkeypatch.setattr(fsmcompare.automata, "_canonical", refuse)
        rng = random.Random(97)
        for _ in range(20):
            traces = walk_logs(rng)
            assert minimal_pta(traces).states


class TestHidingConfig:
    def test_glob_matches_prefix(self):
        config = HidingConfig(("log*",))
        assert config.hidden_events({"log_start", "log_end", "apply"}) == {
            "log_start",
            "log_end",
        }

    def test_literal_pattern(self):
        config = HidingConfig(("exact",))
        assert config.hidden_events({"exact", "exactly"}) == {"exact"}

    def test_no_patterns_hide_nothing(self):
        config = HidingConfig()
        machine = build_nfa(transitions=[("s", "log", "s")], initial=["s"], accepting=["s"])
        assert config.apply(machine) == machine

    def test_pattern_is_compiled_once_per_config(self, monkeypatch, running_example_dir):
        compile_ = fsmcompare.ingest.re.compile
        patterns = []
        monkeypatch.setattr(
            fsmcompare.ingest.re, "compile", lambda p, *a: patterns.append(p) or compile_(p, *a)
        )
        config = HidingConfig(("S*", "e?"))
        workspace = load_workspace(running_example_dir, config)
        assert len(patterns) == 1 and len(workspace.model_sets) > 1
        # The compiled pattern is no field: equality and hashing ignore it.
        assert config == HidingConfig(("S*", "e?")) and hash(config) == hash(HidingConfig(("S*", "e?")))


class TestLoadWorkspace:
    def test_running_example_layout(self, running_example_dir, running_example):
        ws = load_workspace(running_example_dir)
        assert ws.entities == ("E1", "E2", "E3", "E4")
        assert tuple(ms.name for ms in ws.model_sets) == ("S1", "S2", "S3", "S4")
        loaded = {ms.name: ms.models for ms in ws.model_sets}
        assert not minimize(loaded["S4"]["E4"]).accepting
        for ms in running_example.model_sets:
            for entity, machine in ms.models.items():
                assert language_equivalent(loaded[ms.name][entity], machine)

    def test_empty_root_is_an_error(self, tmp_path):
        with pytest.raises(WorkspaceLoadError, match="no model sets"):
            load_workspace(tmp_path)

    def test_missing_root_is_an_error(self, tmp_path):
        with pytest.raises(WorkspaceLoadError):
            load_workspace(tmp_path / "nope")

    def test_parse_errors_aggregate_with_paths(self, tmp_path):
        (tmp_path / "S1").mkdir()
        (tmp_path / "S2").mkdir()
        (tmp_path / "S1" / "e.nfa").write_text("nfa v1\ntrans a x b\n")
        (tmp_path / "S2" / "e.nfa").write_text("garbage\n")
        with pytest.raises(WorkspaceLoadError) as info:
            load_workspace(tmp_path)
        message = str(info.value)
        assert "S1" in message and "S2" in message
        assert len(info.value.errors) == 2

    def test_hiding_applies_before_comparison(self, tmp_path):
        (tmp_path / "legacy").mkdir()
        (tmp_path / "new").mkdir()
        noisy = build_nfa(
            transitions=[
                ("s1", "a_start", "s2"),
                ("s2", "log_start", "s3"),
                ("s3", "log_end", "s4"),
                ("s4", "a_end", "s1"),
            ],
            initial=["s1"],
            accepting=["s1"],
        )
        clean = build_nfa(
            transitions=[("s1", "a_start", "s2"), ("s2", "a_end", "s1")],
            initial=["s1"],
            accepting=["s1"],
        )
        (tmp_path / "legacy" / "apply.nfa").write_text(write_nfa(noisy))
        (tmp_path / "new" / "apply.nfa").write_text(write_nfa(clean))
        ws = load_workspace(tmp_path, HidingConfig(("log*",)))
        loaded = {ms.name: ms.models["apply"] for ms in ws.model_sets}
        assert language_equivalent(loaded["legacy"], loaded["new"])

    def test_directory_named_like_a_model_is_no_entity(self, tmp_path):
        for name in ("S1", "S2"):
            (tmp_path / name).mkdir()
            (tmp_path / name / "e.nfa").write_text("nfa v1\nstate s initial accepting\n")
        (tmp_path / "S2" / "junk.nfa").mkdir()
        assert load_workspace(tmp_path).entities == ("e",)

    def test_hidden_directories_and_files_are_ignored(self, tmp_path):
        # Each hidden entry would fail to parse if it were read.
        layout = {
            "S1/a.nfa": "nfa v1\nstate s initial accepting\n",
            "S2/a.nfa": "nfa v1\nstate s initial\n",
            "S1/.nfa": "garbage\n",
            "S2/.hidden.nfa": "garbage\n",
            ".git/a.nfa": "garbage\n",
            ".git/HEAD": "ref: refs/heads/main\n",
        }
        for name, text in layout.items():
            (tmp_path / name).parent.mkdir(exist_ok=True)
            (tmp_path / name).write_text(text)
        ws = load_workspace(tmp_path)
        assert ws.entities == ("a",)
        assert [ms.name for ms in ws.model_sets] == ["S1", "S2"]
        (tmp_path / ".git" / ".objects").mkdir()
        with pytest.raises(WorkspaceLoadError, match="no model sets found"):
            load_workspace(tmp_path / ".git")

    def test_deterministic_given_directory_content(self, running_example_dir):
        assert load_workspace(running_example_dir) == load_workspace(running_example_dir)

    def test_listings_match_the_pathlib_loader(self, tmp_path, monkeypatch):
        """Entities, files read and error texts equal those of ``oracle_load_workspace``."""
        root = tmp_path / "ws"
        machine = "nfa v1\nstate s initial accepting\ntrans s a s\n"
        layout = {
            "S1/e.nfa": machine,
            "S1/notes.txt": "not a model\n",
            "S1/.nfa": machine,
            "S1/..nfa": machine,
            "S1/f.NFA": machine,
            "S2/e.nfa": "garbage\n",
            "S2/g.nfa": machine,
            "S2/x.nfa/inner.nfa": machine,
            "S3/.nfa.nfa": machine,
            "S3/h.nfa": b"nfa v1\nstate s\xff\n",
            "S4/readme": "",
        }
        for name, content in layout.items():
            path = root / name
            path.parent.mkdir(parents=True, exist_ok=True)
            if isinstance(content, bytes):
                path.write_bytes(content)
            else:
                path.write_text(content)
        (root / "top.nfa").write_text(machine)

        read = []
        read_text = Path.read_text

        def recording_read_text(path, *args, **kwargs):
            read.append(str(path))
            return read_text(path, *args, **kwargs)

        def outcome(load, where):
            read.clear()
            try:
                result = load(where)
            except WorkspaceLoadError as exc:
                result = exc.errors
            return result, list(read)

        monkeypatch.setattr(Path, "read_text", recording_read_text)
        monkeypatch.chdir(tmp_path)
        for where in (root, "ws", "ws/", "./ws/", "./ws//S2/.."):
            got = outcome(load_workspace, where)
            assert got == outcome(oracle_load_workspace, where)
            errors, files = got
            # ".nfa", "..nfa" and ".nfa.nfa" are hidden: no entity, never read.
            assert len(errors) == 2 and len(files) == 4
        assert outcome(load_workspace, "./ws/")[0][0].startswith("ws/S2/e.nfa:1: ")
        (root / "S2" / "e.nfa").write_text(machine)
        (root / "S3" / "h.nfa").write_text(machine)
        for where in ("./ws/", root):
            ws, files = outcome(load_workspace, where)
            assert (ws, files) == outcome(oracle_load_workspace, where)
            assert ws.entities == ("e", "g", "h")
            assert [ms.name for ms in ws.model_sets] == ["S1", "S2", "S3", "S4"]
        for where in ("nope", "ws/S1/e.nfa", tmp_path / "empty"):
            (tmp_path / "empty").mkdir(exist_ok=True)
            assert outcome(load_workspace, where) == outcome(oracle_load_workspace, where)

    def test_each_directory_is_listed_once(self, running_example_dir, monkeypatch):
        listed = []
        scandir = os.scandir

        def recording_scandir(path):
            listed.append(Path(path).name)
            return scandir(path)

        monkeypatch.setattr(fsmcompare.ingest.os, "scandir", recording_scandir)
        ws = load_workspace(running_example_dir)
        assert listed == [running_example_dir.name] + [ms.name for ms in ws.model_sets]
