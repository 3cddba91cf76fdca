"""Byte-for-byte comparison of a full run against the goldens in the repo."""

from pathlib import Path

import pytest
from click.testing import CliRunner

from fsmcompare.cli import main

from test_cli import tree_bytes

REPO_ROOT = Path(__file__).parent.parent
GOLDEN = Path(__file__).parent / "data" / "golden"
FIG2 = Path(__file__).parent / "data" / "fig2"
LOGS = Path(__file__).parent / "data" / "logs"
TIES = Path(__file__).parent / "data" / "ties"
ABSENT = Path(__file__).parent / "data" / "absent"


def assert_compare_matches(input_dir: str, golden: Path, out: Path) -> None:
    """A full ``compare`` of ``input_dir``, relative to the repo root, writes ``golden`` exactly."""
    result = CliRunner().invoke(main, ["compare", "--input", input_dir, "--output", str(out)])
    assert result.exit_code == 0, result.output
    actual = tree_bytes(out)
    expected = tree_bytes(golden)
    assert sorted(actual) == sorted(expected)
    for name in expected:
        assert actual[name] == expected[name], f"{name} differs from golden"


def test_full_run_matches_goldens(tmp_path, monkeypatch):
    # The golden report embeds the input path, so run with the same
    # relative path the goldens were produced with.
    monkeypatch.chdir(REPO_ROOT)
    assert_compare_matches("tests/data/running_example", GOLDEN, tmp_path / "out")


def test_absent_models_run_matches_its_golden(tmp_path, monkeypatch):
    # E1 is absent from S1 and has two incomparable variants, x* and y*, so
    # both closures read the empty language and level 5 computes nodes. E2
    # of set Sk accepts a^i for every i <= k: nine distinct models, so its
    # languages are keyed by minimal DFAs instead of decided on the fly.
    monkeypatch.chdir(REPO_ROOT)
    assert_compare_matches("tests/data/absent/workspace", ABSENT / "golden", tmp_path / "out")


def test_fig2_diff_matches_its_golden():
    result = CliRunner().invoke(
        main, ["diff", str(FIG2 / "source.nfa"), str(FIG2 / "target.nfa")]
    )
    assert result.exit_code == 0, result.output
    assert result.stdout_bytes == (FIG2 / "diff.txt").read_bytes()


def test_tied_ring_diff_matches_its_golden():
    # Two 24-state rings of a-transitions with one a-chord each: every score
    # is 1.0, so the ranking's tie order alone decides the matching.
    result = CliRunner().invoke(main, ["diff", str(TIES / "left.nfa"), str(TIES / "right.nfa")])
    assert result.exit_code == 0, result.output
    assert result.stdout_bytes == (TIES / "diff.txt").read_bytes()


@pytest.mark.parametrize("flags, golden", [((), "pta.nfa"), (("--minimize",), "minimal.nfa")])
def test_logs2nfa_matches_its_goldens(tmp_path, flags, golden):
    # A seeded log with log* noise, duplicate traces, empty traces and a
    # non-ASCII event name.
    out = tmp_path / golden
    result = CliRunner().invoke(main, ["logs2nfa", str(LOGS / "trace.log"), str(out), *flags])
    assert result.exit_code == 0, result.output
    assert out.read_bytes() == (LOGS / golden).read_bytes()
