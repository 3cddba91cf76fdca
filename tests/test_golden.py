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


def test_full_run_matches_goldens(tmp_path, monkeypatch):
    # The golden report embeds the input path, so run with the same
    # relative path the goldens were produced with.
    monkeypatch.chdir(REPO_ROOT)
    out = tmp_path / "out"
    result = CliRunner().invoke(
        main,
        ["compare", "--input", "tests/data/running_example", "--output", str(out)],
    )
    assert result.exit_code == 0, result.output
    actual = tree_bytes(out)
    expected = tree_bytes(GOLDEN)
    assert sorted(actual) == sorted(expected)
    for name in expected:
        assert actual[name] == expected[name], f"{name} differs from golden"


def test_fig2_diff_matches_its_golden():
    result = CliRunner().invoke(
        main, ["diff", str(FIG2 / "source.nfa"), str(FIG2 / "target.nfa")]
    )
    assert result.exit_code == 0, result.output
    assert result.stdout_bytes == (FIG2 / "diff.txt").read_bytes()


@pytest.mark.parametrize("flags, golden", [((), "pta.nfa"), (("--minimize",), "minimal.nfa")])
def test_logs2nfa_matches_its_goldens(tmp_path, flags, golden):
    # A seeded log with log* noise, duplicate traces, empty traces and a
    # non-ASCII event name.
    out = tmp_path / golden
    result = CliRunner().invoke(main, ["logs2nfa", str(LOGS / "trace.log"), str(out), *flags])
    assert result.exit_code == 0, result.output
    assert out.read_bytes() == (LOGS / golden).read_bytes()
