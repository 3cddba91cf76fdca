"""Command-line front door: compare, diff, logs2nfa, validate.

Exit codes: 0 on success, 1 on input parse or layout errors, an unknown
``--entity`` or variant, or an output that cannot be written, 2 when an
option value is refused or lattice completion hits the node cap. ``--entity``
is refused unless level 5 or 6 runs, and ``--from``/``--to`` unless level 6
runs. ``compare`` renders every output and makes every output directory
before it writes a file, and writes ``report.json`` last, so a failed write
leaves no new one. The cyclic garbage collector is off while a command runs.
"""

from __future__ import annotations

import gc
import sys
from pathlib import Path

import click

from . import __version__
from .automata import build_pta, minimal_pta
from .ingest import (
    HidingConfig,
    NfaParseError,
    WorkspaceLoadError,
    load_workspace,
    parse_log,
    parse_nfa,
    write_nfa,
)
from .levels import DEFAULT_NODE_CAP, LatticeCapExceeded
from .ltsdiff import DiffParams, diff, diff_stats
from .report import (
    build_bundle,
    default_meta,
    diff_to_dot,
    lattice_to_dot,
    level4_to_csv,
    matrix_to_csv,
    to_json,
)


def _write(outputs: list[tuple[Path, str]]) -> None:
    """Write (path, text) pairs: every directory first, then the files, the first one last.

    ``compare`` lists report.json first, so a run that cannot make a directory
    writes nothing, and one that cannot write a file leaves no report.json.
    """
    try:
        for path, _ in outputs:
            path.parent.mkdir(parents=True, exist_ok=True)
        for path, text in outputs[1:] + outputs[:1]:
            path.write_text(text, encoding="utf-8", newline="")
    except OSError as exc:
        click.echo(f"{path}: {exc}", err=True)
        sys.exit(1)


def _parse_levels(spec: str) -> tuple[int, ...]:
    try:
        levels = tuple(sorted({int(part) for part in spec.split(",") if part.strip()}))
    except ValueError:
        raise click.BadParameter(f"cannot parse levels {spec!r}")
    if not levels or not all(1 <= lvl <= 6 for lvl in levels):
        raise click.BadParameter("levels must be a non-empty subset of 1-6")
    return levels


def _diff_options(command):
    """Declare the structural-diff options, with the defaults of ``DiffParams``.

    The command receives them as keyword arguments named like the fields.
    """
    # Click lists stacked options bottom-up, so they are added in reverse.
    for name in ("landmark_ratio", "landmark_fraction", "attenuation"):
        flag = "--" + name.replace("_", "-")
        command = click.option(flag, default=getattr(DiffParams, name), show_default=True)(command)
    return command


def _params(options: dict[str, float]) -> DiffParams:
    try:
        return DiffParams(**options)
    except ValueError as exc:
        raise click.BadParameter(str(exc))


@click.group()
@click.version_option(__version__)
@click.pass_context
def main(ctx: click.Context) -> None:
    """Compare the behavior of systems modeled as sets of finite state machines."""
    # A command builds acyclic data and then the process exits, so collecting
    # cycles would only walk live objects again and again. A caller that had
    # turned the collector off keeps it off.
    if gc.isenabled():
        gc.disable()
        ctx.call_on_close(gc.enable)


@main.command("compare")
@click.option("--input", "input_dir", required=True, help="Workspace root directory.")
@click.option("--output", "output_dir", required=True, help="Directory for result files.")
@click.option("--levels", default="1,2,3,4,5,6", show_default=True, help="Comma-separated levels.")
@click.option("--hide", multiple=True, help="Event glob pattern to hide (repeatable).")
@_diff_options
@click.option(
    "--node-cap", default=DEFAULT_NODE_CAP, show_default=True, type=click.IntRange(min=1)
)
@click.option("--entity", default=None, help="Restrict levels 5/6 to one entity.")
@click.option("--from", "from_variant", default=None, help="Level-6 source variant.")
@click.option("--to", "to_variant", default=None, help="Level-6 target variant.")
def cmd_compare(
    input_dir: str,
    output_dir: str,
    levels: str,
    hide: tuple[str, ...],
    node_cap: int,
    entity: str | None,
    from_variant: str | None,
    to_variant: str | None,
    **diff_options: float,
) -> None:
    """Run the requested comparison levels and write result files."""
    selected = _parse_levels(levels)
    params = _params(diff_options)
    if (from_variant is None) != (to_variant is None):
        raise click.BadParameter("--from and --to must be given together")
    if from_variant is not None and entity is None:
        raise click.BadParameter("--from/--to require --entity")
    if entity is not None and not {5, 6} & set(selected):
        raise click.BadParameter("--entity requires level 5 or 6")
    if from_variant is not None and 6 not in selected:
        raise click.BadParameter("--from/--to require level 6")

    try:
        workspace = load_workspace(Path(input_dir), HidingConfig(tuple(hide)))
    except WorkspaceLoadError as exc:
        for error in exc.errors:
            click.echo(error, err=True)
        sys.exit(1)

    meta = default_meta(
        input_path=input_dir, levels=selected, params=params, hide=tuple(hide), node_cap=node_cap
    )
    try:
        bundle = build_bundle(
            workspace,
            levels=selected,
            params=params,
            node_cap=node_cap,
            entity=entity,
            from_variant=from_variant,
            to_variant=to_variant,
            meta=meta,
        )
    except LatticeCapExceeded as exc:
        click.echo(str(exc), err=True)
        sys.exit(2)
    except KeyError as exc:
        click.echo(f"unknown selection: {exc.args[0]}", err=True)
        sys.exit(1)

    out = Path(output_dir)
    outputs = [(out / "report.json", to_json(bundle))]
    if bundle.level2 is not None:
        outputs.append((out / "level2.dot", lattice_to_dot(bundle.level2)))
    if bundle.level3 is not None:
        outputs.append((out / "level3.csv", matrix_to_csv(bundle.level3)))
    if bundle.level4 is not None:
        outputs.append((out / "level4.csv", level4_to_csv(bundle.level4, bundle.model_set_names)))
    if bundle.level5 is not None:
        for name, lattice in bundle.level5.items():
            outputs.append((out / "level5" / f"{name}.dot", lattice_to_dot(lattice)))
    if bundle.level6 is not None:
        for entry in bundle.level6:
            name = f"{entry.from_variant}-{entry.to_variant}.dot"
            outputs.append((out / "level6" / entry.entity / name, diff_to_dot(entry.machine)))
    _write(outputs)


def _load_machine(path: str):
    try:
        return parse_nfa(Path(path).read_text(encoding="utf-8"), path=path)
    except (OSError, UnicodeDecodeError) as exc:
        click.echo(f"{path}: {exc}", err=True)
        sys.exit(1)
    except NfaParseError as exc:
        click.echo(str(exc), err=True)
        sys.exit(1)


@main.command("diff")
@click.argument("left")
@click.argument("right")
@_diff_options
def cmd_diff(left: str, right: str, **diff_options: float) -> None:
    """Structurally diff two .nfa files; prints stats and DOT."""
    params = _params(diff_options)
    machine = diff(_load_machine(left), _load_machine(right), params)
    stats = diff_stats(machine)
    click.echo(
        f"added={stats.added_transitions} removed={stats.removed_transitions} "
        f"added_states={stats.added_states} removed_states={stats.removed_states}"
    )
    click.echo(diff_to_dot(machine), nl=False)


@main.command("logs2nfa")
@click.argument("log_file")
@click.argument("output")
@click.option("--minimize", "do_minimize", is_flag=True, help="Minimize the prefix tree.")
def cmd_logs2nfa(log_file: str, output: str, do_minimize: bool) -> None:
    """Build a prefix-tree acceptor from an execution log."""
    try:  # an unreadable log, or an event name the .nfa format cannot hold
        traces = parse_log(Path(log_file).read_text(encoding="utf-8"))
        machine = minimal_pta(traces) if do_minimize else build_pta(traces)
    except (OSError, ValueError) as exc:  # UnicodeDecodeError is a ValueError
        click.echo(f"{log_file}: {exc}", err=True)
        sys.exit(1)
    _write([(Path(output), write_nfa(machine))])


@main.command("validate")
@click.argument("file")
def cmd_validate(file: str) -> None:
    """Check that a .nfa file parses and satisfies the machine invariants."""
    _load_machine(file)
    click.echo(f"{file}: ok")


if __name__ == "__main__":  # pragma: no cover
    main()
