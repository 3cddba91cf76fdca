"""End-to-end CLI tests via click's runner."""

import gc
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import fsmcompare
from fsmcompare import DiffParams, build_bundle, parse_log, parse_nfa
from fsmcompare import cli
from fsmcompare.cli import main

from conftest import oracle_language


def run(*args):
    return CliRunner().invoke(main, [str(a) for a in args])


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def cli_process(hash_seed: str, *args) -> subprocess.CompletedProcess:
    """Run the CLI in a fresh interpreter under the given PYTHONHASHSEED.

    String hashing is randomized per interpreter, so only separate processes
    can show set or dict order leaking into the outputs; they also show what
    a user sees of an uncaught exception.
    """
    src = str(Path(fsmcompare.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    command = [sys.executable, "-m", "fsmcompare.cli", *map(str, args)]
    return subprocess.run(command, env=env, capture_output=True)


def run_in_subprocess(hash_seed: str, *args) -> bytes:
    """The CLI's stdout from a fresh interpreter (see ``cli_process``); it must exit 0."""
    result = cli_process(hash_seed, *args)
    result.check_returncode()
    return result.stdout


def log_workspace(root: Path, rng: random.Random) -> Path:
    """A workspace of machines ``logs2nfa --minimize`` builds from logs like ``trace.log``.

    Entity E1 of sets S1 and S2 reads the same traces with different log*
    noise, and of S3 fewer traces; E2 of S1 reads every trace of the log, of
    S2 a shuffled part, and S3 has none.
    """
    lines = (Path(__file__).parent / "data" / "logs" / "trace.log").read_text().splitlines()
    traces = [[e for e in line.split() if not e.startswith("log")] for line in lines]

    def noisy(trace):
        trace = list(trace)
        for _ in range(rng.randint(0, 2)):
            trace.insert(rng.randint(0, len(trace)), rng.choice(["log_start", "log_tick"]))
        return " ".join(trace)

    logs = {
        ("S1", "E1"): [noisy(t) for t in traces],
        ("S2", "E1"): [noisy(t) for t in reversed(traces)],
        ("S3", "E1"): [noisy(t) for t in traces if len(t) != 4],
        ("S1", "E2"): lines,
        ("S2", "E2"): rng.sample(lines, 12),
    }
    for (model_set, entity), log in logs.items():
        (root / "logs" / model_set).mkdir(parents=True, exist_ok=True)
        path = root / "logs" / model_set / f"{entity}.log"
        path.write_text("".join(line + "\n" for line in log), encoding="utf-8")
        target = root / "ws" / model_set / f"{entity}.nfa"
        target.parent.mkdir(parents=True, exist_ok=True)
        assert run("logs2nfa", path, target, "--minimize").exit_code == 0
    return root / "ws"


def assert_refused(path: Path, *args) -> str:
    """The command exits 1 naming ``path``, with no traceback; returns its stderr."""
    result = cli_process("0", *args)
    stdout, stderr = result.stdout.decode(), result.stderr.decode()
    assert result.returncode == 1
    assert f"{path}: " in stderr
    assert "Traceback" not in stdout + stderr
    return stderr


def assert_undecodable_refused(path: Path, *args) -> str:
    stderr = assert_refused(path, *args)
    assert "codec can't decode" in stderr
    return stderr


UNDECODABLE_NFA = b"nfa v1\nstate s\xff\n"


PUBLIC_NAMES = """
    CanonicalDfa Change DiffMachine DiffMatrix DiffParams DiffState DiffStats
    DiffTransition HidingConfig Lattice LatticeCapExceeded LatticeEdge LatticeNode
    Matching ModelSet Nfa NfaParseError ReportBundle ScoreTable Trace VariantClass
    VariantPartition Workspace WorkspaceLoadError build_bundle build_diff build_pta
    compute_matching diff diff_stats global_scores hide_events level1 level2 level3
    level4 level5 level6 load_workspace minimal_pta minimize parse_log parse_nfa
    select_landmarks to_json variant_letters with_alphabet write_nfa
""".split()


def test_public_names_are_declared_once_by_their_modules():
    assert fsmcompare.__all__ == PUBLIC_NAMES
    modules = ("automata", "ingest", "levels", "ltsdiff", "report")
    declared = [name for module in modules for name in getattr(fsmcompare, module).__all__]
    assert sorted(declared) == PUBLIC_NAMES


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from fsmcompare import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC_NAMES


class TestVersion:
    def test_version_option(self):
        result = run("--version")
        assert result.exit_code == 0
        assert result.output.endswith(f"version {fsmcompare.__version__}\n")

    def test_version_from_source_in_a_fresh_interpreter(self):
        # Run from src, with no installed distribution metadata to look up.
        result = cli_process("0", "--version")
        assert result.returncode == 0, result.stderr.decode()
        assert result.stdout.decode().endswith(f"version {fsmcompare.__version__}\n")

    def test_version_matches_pyproject(self):
        pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
        project = re.search(r"^\[project\]$(.*?)^\[", pyproject, re.M | re.S).group(1)
        assert re.search(r'^version = "([^"]+)"$', project, re.M).group(1) == fsmcompare.__version__


@pytest.mark.parametrize("command", ["compare", "diff"])
def test_help_lists_the_diff_options_with_the_diff_params_defaults(command):
    options = re.findall(r"--([a-z-]+) FLOAT +\[default: ([^\]]+)\]", run(command, "--help").output)
    defaults = DiffParams()
    assert options == [
        ("attenuation", str(defaults.attenuation)),
        ("landmark-fraction", str(defaults.landmark_fraction)),
        ("landmark-ratio", str(defaults.landmark_ratio)),
    ]


class TestCompare:
    def test_all_levels_outputs(self, running_example_dir, tmp_path):
        out = tmp_path / "out"
        result = run("compare", "--input", running_example_dir, "--output", out)
        assert result.exit_code == 0, result.output
        assert (out / "report.json").is_file()
        assert (out / "level2.dot").is_file()
        assert (out / "level3.csv").is_file()
        assert (out / "level4.csv").is_file()
        assert (out / "level5" / "E2.dot").is_file()
        assert (out / "level6" / "E2" / "B-C.dot").is_file()

    def test_level_one_only(self, running_example_dir, tmp_path):
        out = tmp_path / "out"
        result = run(
            "compare", "--input", running_example_dir, "--output", out, "--levels", "1"
        )
        assert result.exit_code == 0
        doc = json.loads((out / "report.json").read_text())
        assert set(doc) == {"meta", "level1"}
        assert not (out / "level3.csv").exists()

    def test_missing_input_dir(self, tmp_path):
        missing = tmp_path / "absent"
        result = run("compare", "--input", missing, "--output", tmp_path / "out")
        assert result.exit_code == 1
        assert str(missing) in result.output

    def test_parse_error_exits_one_with_diagnostics(self, tmp_path):
        (tmp_path / "S1").mkdir()
        (tmp_path / "S1" / "e.nfa").write_text("broken\n")
        result = run("compare", "--input", tmp_path, "--output", tmp_path / "out")
        assert result.exit_code == 1
        assert "e.nfa" in result.output

    def test_undecodable_model_exits_one(self, tmp_path):
        root, out = tmp_path / "ws", tmp_path / "out"
        (root / "S1").mkdir(parents=True)
        bad = root / "S1" / "e.nfa"
        bad.write_bytes(UNDECODABLE_NFA)
        (root / "S1" / "f.nfa").write_bytes(b"nfa v1\nbroken\n")
        stderr = assert_undecodable_refused(bad, "compare", "--input", root, "--output", out)
        # The decode error is aggregated with the other files' errors.
        assert "f.nfa" in stderr
        assert not out.exists()

    def test_unwritable_output_exits_one(self, running_example_dir, tmp_path):
        blocker = tmp_path / "out"
        blocker.write_text("a file, not a directory\n")
        assert_refused(
            blocker / "report.json", "compare", "--input", running_example_dir, "--output", blocker
        )
        assert [p.name for p in tmp_path.iterdir()] == ["out"]
        assert blocker.read_text() == "a file, not a directory\n"

    def test_a_failed_run_leaves_no_report(self, running_example_dir, tmp_path):
        # A regular file where an output directory goes: nothing is written.
        out = tmp_path / "file"
        out.mkdir()
        (out / "level5").write_text("a file, not a directory\n")
        args = ("compare", "--input", running_example_dir, "--output", out)
        assert_refused(out / "level5" / "E2.dot", *args)
        assert [p.name for p in out.iterdir()] == ["level5"]
        # A directory where an output file goes: report.json is not written.
        out = tmp_path / "directory"
        (out / "level3.csv").mkdir(parents=True)
        args = ("compare", "--input", running_example_dir, "--output", out)
        assert_refused(out / "level3.csv", *args)
        assert not (out / "report.json").exists()

    def test_node_cap_exits_two(self, running_example_dir, tmp_path):
        result = run(
            "compare",
            "--input",
            running_example_dir,
            "--output",
            tmp_path / "out",
            "--levels",
            "2",
            "--node-cap",
            "4",
        )
        assert result.exit_code == 2
        assert "node cap" in result.output

    def test_node_cap_below_one_is_a_bad_parameter(self, running_example_dir, tmp_path):
        for cap in ("0", "-3"):
            out = tmp_path / f"out{cap}"
            result = run(
                "compare", "--input", running_example_dir, "--output", out, "--node-cap", cap
            )
            assert result.exit_code == 2
            assert "Invalid value for '--node-cap'" in result.output
            assert "node cap of" not in result.output
            assert not out.exists()

    def test_entity_and_variant_selection(self, running_example_dir, tmp_path):
        out = tmp_path / "out"
        result = run(
            "compare",
            "--input",
            running_example_dir,
            "--output",
            out,
            "--levels",
            "5,6",
            "--entity",
            "E2",
            "--from",
            "B",
            "--to",
            "C",
        )
        assert result.exit_code == 0
        assert (out / "level6" / "E2" / "B-C.dot").is_file()
        assert not (out / "level5" / "E1.dot").exists()

    @pytest.mark.parametrize(
        "args, message",
        [
            (("--levels", "1,x"), "cannot parse levels '1,x'"),
            (("--levels", "0"), "levels must be a non-empty subset of 1-6"),
            (("--levels", "7"), "levels must be a non-empty subset of 1-6"),
            (("--levels", ","), "levels must be a non-empty subset of 1-6"),
            (("--from", "B"), "--from and --to must be given together"),
            (("--from", "B", "--to", "C"), "--from/--to require --entity"),
            (("--levels", "1", "--entity", "NOPE"), "--entity requires level 5 or 6"),
            (
                ("--levels", "1,2", "--entity", "E2", "--from", "Z", "--to", "Q"),
                "--entity requires level 5 or 6",
            ),
            (
                ("--levels", "5", "--entity", "E2", "--from", "Z", "--to", "Q"),
                "--from/--to require level 6",
            ),
        ],
    )
    def test_refused_option_values_exit_two(self, running_example_dir, tmp_path, args, message):
        out = tmp_path / "out"
        result = run("compare", "--input", running_example_dir, "--output", out, *args)
        assert result.exit_code == 2
        assert f"Invalid value: {message}" in result.output
        assert not out.exists()

    @pytest.mark.parametrize(
        "args, message",
        [
            (("--levels", "5", "--entity", "NOPE"), "entity 'NOPE' does not exist"),
            (
                ("--levels", "6", "--entity", "E2", "--from", "Z", "--to", "C"),
                "variant 'Z' does not exist at entity 'E2'",
            ),
            (
                ("--levels", "5,6", "--entity", "E2", "--from", "Z", "--to", "C"),
                "variant 'Z' does not exist at entity 'E2'",
            ),
        ],
    )
    def test_unknown_entity_or_variant_exits_one(
        self, running_example_dir, tmp_path, args, message
    ):
        out = tmp_path / "out"
        result = run("compare", "--input", running_example_dir, "--output", out, *args)
        assert result.exit_code == 1
        assert result.output == f"unknown selection: {message}\n"
        assert not out.exists()

    def test_hide_patterns(self, tmp_path):
        for name, lines in {
            "legacy": [
                "nfa v1",
                "state s1 initial accepting",
                "state s2",
                "state s3",
                "trans s1 a s2",
                "trans s2 log s3",
                "trans s3 b s1",
            ],
            "new": [
                "nfa v1",
                "state s1 initial accepting",
                "state s2",
                "trans s1 a s2",
                "trans s2 b s1",
            ],
        }.items():
            (tmp_path / "in" / name).mkdir(parents=True)
            (tmp_path / "in" / name / "f.nfa").write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        result = run(
            "compare",
            "--input",
            tmp_path / "in",
            "--output",
            out,
            "--levels",
            "1",
            "--hide",
            "log*",
        )
        assert result.exit_code == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["level1"]["variants"] == {"legacy": "A", "new": "A"}

    def test_runs_are_byte_identical(self, running_example_dir, tmp_path):
        first, second = tmp_path / "a", tmp_path / "b"
        for out in (first, second):
            result = run("compare", "--input", running_example_dir, "--output", out)
            assert result.exit_code == 0
        trees = [tree_bytes(first), tree_bytes(second)]
        assert trees[0] == trees[1]

    def test_outputs_do_not_depend_on_hash_seed(self, running_example_dir, tmp_path):
        trees = []
        for seed in ("0", "1"):
            out = tmp_path / f"hash{seed}"
            run_in_subprocess(seed, "compare", "--input", running_example_dir, "--output", out)
            trees.append(tree_bytes(out))
        assert trees[0] and trees[0] == trees[1]

        # Levels 1, 3 and 4 alone decide equality on the fly, walking subsets
        # in set order, over machines logs2nfa --minimize builds from logs.
        workspace = log_workspace(tmp_path / "logs", random.Random(233))
        trees = []
        for seed in ("0", "1"):
            out = tmp_path / f"logs{seed}"
            args = ["compare", "--input", workspace, "--output", out, "--levels", "1,3,4"]
            run_in_subprocess(seed, *args, "--hide", "log*")
            trees.append(tree_bytes(out))
        assert trees[0] == trees[1]
        level4 = trees[0]["level4.csv"].decode().split()
        assert level4[1:] == ["A,A,B", "A,B,absent"]


class TestCyclicCollector:
    """A command runs with the cyclic garbage collector off and restores it."""

    def test_off_while_compare_runs(self, running_example_dir, tmp_path, monkeypatch):
        seen = []

        def spy(*args, **kwargs):
            seen.append(gc.isenabled())
            return build_bundle(*args, **kwargs)

        monkeypatch.setattr(cli, "build_bundle", spy)
        assert gc.isenabled()
        result = run("compare", "--input", running_example_dir, "--output", tmp_path / "out")
        assert result.exit_code == 0
        assert seen == [False]
        assert gc.isenabled()

    @pytest.mark.parametrize(
        "args, code",
        [
            (("--levels", "1"), 0),
            (("--levels", "5", "--entity", "NOPE"), 1),
            (("--levels", "9"), 2),
        ],
    )
    def test_on_again_after_every_exit(self, running_example_dir, tmp_path, args, code):
        result = run("compare", "--input", running_example_dir, "--output", tmp_path / "o", *args)
        assert result.exit_code == code
        assert gc.isenabled()

    def test_stays_off_when_the_caller_turned_it_off(self, running_example_dir, tmp_path):
        gc.disable()
        try:
            result = run("compare", "--input", running_example_dir, "--output", tmp_path / "out")
            assert result.exit_code == 0
            assert not gc.isenabled()
        finally:
            gc.enable()


class TestDiff:
    def test_fig2_stats_line(self, fig2_dir):
        result = run("diff", fig2_dir / "source.nfa", fig2_dir / "target.nfa")
        assert result.exit_code == 0
        first_line = result.output.splitlines()[0]
        assert first_line == "added=1 removed=2 added_states=0 removed_states=1"
        assert "digraph diff {" in result.output

    def test_identical_files_all_zero(self, fig2_dir):
        result = run("diff", fig2_dir / "source.nfa", fig2_dir / "source.nfa")
        assert result.output.splitlines()[0] == (
            "added=0 removed=0 added_states=0 removed_states=0"
        )

    def test_empty_left_machine_adds_everything(self, fig2_dir, tmp_path):
        empty = tmp_path / "empty.nfa"
        empty.write_text("nfa v1\n")
        result = run("diff", empty, fig2_dir / "source.nfa")
        assert result.output.splitlines()[0] == (
            "added=4 removed=0 added_states=4 removed_states=0"
        )

    def test_output_does_not_depend_on_hash_seed(self, tmp_path):
        # Two symmetric branches: the branch states' pairs tie on score, so
        # only the name order decides the matching.
        branches = ["nfa v1", "state s0 initial", "state s1", "state s2", "state s3 accepting"]
        branches += ["trans s0 a s1", "trans s0 a s2", "trans s1 b s3", "trans s2 b s3"]
        left, right = tmp_path / "left.nfa", tmp_path / "right.nfa"
        left.write_text("\n".join(branches) + "\n")
        right.write_text("\n".join(branches + ["trans s3 c s0"]) + "\n")
        outputs = [run_in_subprocess(seed, "diff", left, right) for seed in ("0", "1")]
        assert outputs[0].startswith(b"added=1 removed=0") and outputs[0] == outputs[1]

    def test_nan_landmark_ratio_is_a_bad_parameter(self, fig2_dir):
        pair = (fig2_dir / "source.nfa", fig2_dir / "target.nfa")
        result = run("diff", *pair, "--landmark-ratio", "nan")
        assert result.exit_code == 2
        assert "landmark_ratio" in result.output

    def test_parse_failure_exits_one(self, tmp_path, fig2_dir):
        bad = tmp_path / "bad.nfa"
        bad.write_text("nope\n")
        result = run("diff", bad, fig2_dir / "source.nfa")
        assert result.exit_code == 1

    def test_undecodable_file_exits_one(self, tmp_path, fig2_dir):
        bad = tmp_path / "bad.nfa"
        bad.write_bytes(UNDECODABLE_NFA)
        assert_undecodable_refused(bad, "diff", fig2_dir / "source.nfa", bad)


class TestLogs2Nfa:
    def test_two_line_log(self, tmp_path):
        log = tmp_path / "trace.log"
        log.write_text("a\na b\n")
        out = tmp_path / "out.nfa"
        result = run("logs2nfa", log, out)
        assert result.exit_code == 0
        text = out.read_text()
        assert text.count("state ") == 3

    def test_empty_log_gives_empty_machine(self, tmp_path):
        log = tmp_path / "trace.log"
        log.write_text("")
        out = tmp_path / "out.nfa"
        assert run("logs2nfa", log, out).exit_code == 0
        assert out.read_text() == "nfa v1\n"

    def test_minimize_flag_reduces_states(self, tmp_path):
        log = tmp_path / "trace.log"
        # Shared suffix "b" from two branches merges under minimization.
        log.write_text("a b\nc b\n")
        plain, small = tmp_path / "plain.nfa", tmp_path / "small.nfa"
        assert run("logs2nfa", log, plain).exit_code == 0
        assert run("logs2nfa", log, small, "--minimize").exit_code == 0
        full = parse_nfa(plain.read_text())
        reduced = parse_nfa(small.read_text())
        assert len(reduced.states) < len(full.states)
        assert oracle_language(reduced, 4) == oracle_language(full, 4) == {("a", "b"), ("c", "b")}

    def test_minimized_output_does_not_depend_on_hash_seed(self, tmp_path):
        rng = random.Random(7)
        events = [f"ev{i}" for i in range(12)]
        log = tmp_path / "trace.log"
        log.write_text(
            "".join(
                " ".join(rng.choice(events) for _ in range(rng.randint(0, 8))) + "\n"
                for _ in range(60)
            )
        )
        outputs = []
        for seed in ("0", "1"):
            out = tmp_path / f"out{seed}.nfa"
            run_in_subprocess(seed, "logs2nfa", log, out, "--minimize")
            outputs.append(out.read_bytes())
        assert outputs[0].count(b"\ntrans ") > 50 and outputs[0] == outputs[1]

    def test_unreadable_input_exits_one(self, tmp_path):
        result = run("logs2nfa", tmp_path / "missing.log", tmp_path / "out.nfa")
        assert result.exit_code == 1

    def test_undecodable_log_exits_one(self, tmp_path):
        log = tmp_path / "trace.log"
        log.write_bytes(b"a \xff b\n")
        out = tmp_path / "out.nfa"
        assert_undecodable_refused(log, "logs2nfa", log, out)
        assert not out.exists()

    def test_unwritable_output_exits_one(self, tmp_path):
        log, blocker = tmp_path / "trace.log", tmp_path / "out"
        log.write_text("a b\n")
        blocker.write_text("a file, not a directory\n")
        for flags in ((), ("--minimize",)):
            assert_refused(blocker / "x.nfa", "logs2nfa", log, blocker / "x.nfa", *flags)
            assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "trace.log"]
            assert blocker.read_text() == "a file, not a directory\n"

    def test_event_names_the_nfa_format_cannot_hold_exit_one(self, tmp_path):
        # "#" would start a comment in the written file; control characters
        # are refused by the machine itself.
        for event in ("b#c", "b\x01c"):
            log = tmp_path / "trace.log"
            log.write_text(f"a {event} d\n")
            for flags in ((), ("--minimize",)):
                out = tmp_path / "out.nfa"
                result = run("logs2nfa", log, out, *flags)
                assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
                assert result.output.startswith(f"{log}: ") and repr(event) in result.output
                assert not out.exists()

    def test_output_passes_validate(self, tmp_path):
        rng = random.Random(11)
        events = ["open", "read", "write", "close", "a.b", "x-1", "\u00e9v"]
        log = tmp_path / "trace.log"
        log.write_text(
            "".join(
                " ".join(rng.choice(events) for _ in range(rng.randint(0, 6))) + "\n"
                for _ in range(40)
            ),
            encoding="utf-8",
        )
        for flags in ((), ("--minimize",)):
            out = tmp_path / "out.nfa"
            assert run("logs2nfa", log, out, *flags).exit_code == 0
            result = run("validate", out)
            assert result.exit_code == 0, result.output
            assert oracle_language(parse_nfa(out.read_text(encoding="utf-8")), 6) == set(
                parse_log(log.read_text(encoding="utf-8"))
            )


class TestValidate:
    def test_well_formed_file(self, fig2_dir):
        result = run("validate", fig2_dir / "source.nfa")
        assert result.exit_code == 0
        assert "ok" in result.output

    def test_dangling_transition(self, tmp_path):
        path = tmp_path / "bad.nfa"
        path.write_text("nfa v1\nstate s1\ntrans s1 a s9\n")
        result = run("validate", path)
        assert result.exit_code == 1
        assert "s9" in result.output and ":3" in result.output

    def test_duplicate_state(self, tmp_path):
        path = tmp_path / "dup.nfa"
        path.write_text("nfa v1\nstate s1\nstate s1\n")
        assert run("validate", path).exit_code == 1

    def test_undecodable_file_exits_one(self, tmp_path):
        path = tmp_path / "bad.nfa"
        path.write_bytes(UNDECODABLE_NFA)
        assert_undecodable_refused(path, "validate", path)
