"""fsmcompare benchmark: seeded workspaces run through the CLI, end to end.

Usage (from the repository root):

    python3 perfbench/run.py --workload lattice|structural|logs|all \
        --seed N --seconds S --trace 0|1

Each command runs as a user would run it: a fresh interpreter with the
repository's ``src`` on the path, one child at a time, under a time limit.
A run repeats passes over its workload for about ``--seconds`` and then
checks every output. ``--trace 0`` reports the end-to-end metrics; ``--trace
1`` alternates untraced passes with traced ones and reports the per-layer
metrics. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the same metrics with their sample counts, and the digest of every
output so two commits can be compared.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import generate
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"
REFERENCE = HERE / "reference.json"
DEFAULT_SEED = 0
COMMAND_LIMIT_S = 60.0
# Timings are in seconds of a machine on which child._calibrate() takes this
# long, about what it took on an idle 2-vCPU virtual machine; see scale().
CALIBRATION_S = 0.025
RUN_LIMIT_S = 150.0  # every command of a run ends by then, so it exits within 180 s


@dataclass
class Command:
    id: str  # names one command within a pass; stable for a seed
    kind: str  # "compare", "query" or "golden"
    args: list[str]
    out: Path  # output file or directory


@dataclass
class Outcome:
    command: Command
    traced: bool
    problems: list[str] = field(default_factory=list)
    setup_s: float | None = None
    cpu_s: float | None = None
    calibration_s: float | None = None
    peak_rss_kb: int | None = None
    spans: list | None = None
    digest: str | None = None


def rel(path: Path) -> str:
    """Paths are passed relative to the root so report.json stays stable."""
    return path.relative_to(ROOT).as_posix()


class Runner:
    """Runs commands one at a time and keeps every outcome."""

    def __init__(self, seed: int, deadline: float, scratch: Path):
        self.deadline = deadline
        self.scratch = scratch
        self.outcomes: list[Outcome] = []
        src = str(ROOT / "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(
            os.environ,
            PYTHONPATH=src + (os.pathsep + path if path else ""),
            PYTHONHASHSEED=str(seed % 2**32),
        )

    def run(self, command: Command, traced: bool) -> Outcome:
        outcome = Outcome(command, traced)
        self.outcomes.append(outcome)
        limit = min(COMMAND_LIMIT_S, self.deadline - time.monotonic())
        if limit <= 0:
            outcome.problems.append("not started: the run's time limit was reached")
            return outcome
        n = len(self.outcomes)
        result, spans, log = (self.scratch / f"{n}.{ext}" for ext in ("result", "spans", "log"))
        argv = [sys.executable, str(HERE / "child.py"), str(result), str(spans) if traced else "-"]
        with open(log, "wb") as log_file:
            child = subprocess.Popen(
                argv + command.args, cwd=ROOT, env=self.env, stdout=log_file, stderr=log_file
            )
            try:
                child.wait(timeout=limit)
            except subprocess.TimeoutExpired:
                outcome.problems.append(f"killed at the {limit:.0f} s limit")
                return outcome
            finally:  # also when this process is interrupted or terminated
                if child.poll() is None:
                    child.kill()
                    child.wait()
        tail = log.read_text(encoding="utf-8", errors="replace")[-400:].strip()
        if not result.is_file():
            outcome.problems.append(f"exit {child.returncode} before reporting: {tail}")
            return outcome
        report = json.loads(result.read_text(encoding="utf-8"))
        outcome.setup_s = report["setup_cpu_s"]
        outcome.cpu_s = report["cpu_s"]
        outcome.calibration_s = report["calibration_s"]
        outcome.peak_rss_kb = report["peak_rss_kb"]
        if report["exit"] != 0 or child.returncode != 0:
            outcome.problems.append(f"exit {report['exit']}: {tail}")
        elif traced:
            outcome.spans = json.loads(spans.read_text(encoding="utf-8"))
        if command.out.exists():
            outcome.digest = checks.digest(command.out)
        return outcome


# -- workloads -----------------------------------------------------------------


class Workload:
    """Inputs of one workload and the commands of one pass over them."""

    def __init__(self, name: str, seed: int, root: Path):
        self.name, self.seed, self.root = name, seed, root
        self.inputs = root / "inputs"
        self.workspace = root / "ws"

    def prepare(self) -> None:
        generate.write_workspace(self.workspace, self.name, self.seed)

    def run_pass(self, runner: Runner, out: Path, traced: bool) -> list[Outcome]:
        raise NotImplementedError

    def check(self, first: list[Outcome]) -> dict[str, list[str]]:
        """Problems by output digest, for the first pass's outputs."""
        return {}


class Lattice(Workload):
    def run_pass(self, runner, out, traced):
        ws = rel(self.workspace)
        commands = [
            Command(
                "compare",
                "compare",
                ["compare", "--input", ws, "--output", rel(out / "compare"), "--levels", "1,2,3,4"],
                out / "compare",
            )
        ]
        # Model-set questions with one event hidden at a time: the short
        # commands a user repeats on this workspace.
        for event in generate.EVENTS:
            target = out / f"hide-{event}"
            args = ["compare", "--input", ws, "--output", rel(target), "--levels", "1,3"]
            commands.append(Command(f"hide {event}", "query", args + ["--hide", event], target))
        return [runner.run(c, traced) for c in commands]


class Structural(Workload):
    def run_pass(self, runner, out, traced):
        ws = rel(self.workspace)
        full = out / "compare"
        args = ["compare", "--input", ws, "--output", rel(full), "--levels", "4,5,6"]
        outcomes = [runner.run(Command("compare", "compare", args, full), traced)]
        if outcomes[0].problems:
            return outcomes
        report = json.loads((full / "report.json").read_text(encoding="utf-8"))
        for entity, lattice in sorted(report["level5"].items()):
            for edge in lattice["edges"]:
                pair = f"{edge['lower']}-{edge['upper']}"
                target = out / "query" / entity / pair
                args = ["compare", "--input", ws, "--output", rel(target), "--levels", "6"]
                args += ["--entity", entity, "--from", edge["lower"], "--to", edge["upper"]]
                command = Command(f"level6 {entity} {pair}", "query", args, target)
                outcomes.append(runner.run(command, traced))
        if not traced:
            # The full compare again, under the same id: with one sample
            # per pass its median spread most. Traced passes leave it out
            # so that their per-layer totals count it once.
            again = out / "compare-again"
            args = ["compare", "--input", ws, "--output", rel(again), "--levels", "4,5,6"]
            outcomes.append(runner.run(Command("compare", "compare", args, again), traced))
        return outcomes

    def check(self, first):
        compare = first[0]
        full = json.loads((compare.command.out / "report.json").read_text(encoding="utf-8"))
        verdicts = {compare.digest: checks.check_structural(full, self.workspace)}
        for outcome in (o for o in first if o.command.kind == "query"):
            query = json.loads((outcome.command.out / "report.json").read_text(encoding="utf-8"))
            verdicts[outcome.digest] = checks.check_query(query, full)
        return verdicts


class Logs(Workload):
    def prepare(self):
        self.logs = generate.write_logs(self.inputs, self.name, self.seed)

    def run_pass(self, runner, out, traced):
        # The compare's input path is part of report.json, so every pass
        # builds its workspace at the same place.
        shutil.rmtree(self.workspace, ignore_errors=True)
        outcomes = []
        for model_set, entity in self.logs:
            log = self.inputs / model_set / f"{entity}.log"
            target = self.workspace / model_set / f"{entity}.nfa"
            args = ["logs2nfa", rel(log), rel(target), "--minimize"]
            command = Command(f"logs2nfa {model_set}/{entity}", "query", args, target)
            outcomes.append(runner.run(command, traced))
        # Untraced passes run the compare twice, for the reason Structural does.
        for target in [out / "compare"] + ([] if traced else [out / "compare-again"]):
            args = ["compare", "--input", rel(self.workspace), "--output", rel(target)]
            args += ["--levels", "1,3,4", "--hide", "log*"]
            outcomes.append(runner.run(Command("compare", "compare", args, target), traced))
        # Keep this pass's machines with its outputs for the checks.
        shutil.copytree(self.workspace, out / "ws")
        for outcome in (o for o in outcomes if o.command.kind == "query"):
            outcome.command.out = out / "ws" / outcome.command.out.relative_to(self.workspace)
        return outcomes

    def check(self, first):
        verdicts = {}
        for outcome in (o for o in first if o.command.kind == "query"):
            model_set, entity = outcome.command.out.parent.name, outcome.command.out.stem
            log = (self.inputs / model_set / f"{entity}.log").read_text(encoding="utf-8")
            machine = checks.read_nfa(outcome.command.out.read_text(encoding="utf-8"))
            verdicts[outcome.digest] = checks.check_trace_set(machine, log)
        return verdicts


WORKLOADS = {"lattice": Lattice, "structural": Structural, "logs": Logs}


# -- one run -------------------------------------------------------------------


def golden_check(runner: Runner, out: Path) -> None:
    """The running example's compare output must equal the hand-checked goldens."""
    example = ROOT / "tests" / "data" / "running_example"
    args = ["compare", "--input", rel(example), "--output", rel(out)]
    outcome = runner.run(Command("golden", "golden", args, out), traced=False)
    if not outcome.problems:
        problem = checks.same_tree(out, ROOT / "tests" / "data" / "golden")
        if problem:
            outcome.problems.append(problem)


def pass_shapes(outcomes: list[Outcome]) -> dict[str, list]:
    """Shapes of a pass's outputs, one per command id: the compare's, and the
    queries' as a multiset."""
    shapes: dict[str, list] = {"compare": [], "queries": []}
    for outcome in {o.command.id: o for o in outcomes}.values():
        key = "compare" if outcome.command.kind == "compare" else "queries"
        shapes[key].append(checks.output_shape(outcome.command.out))
    shapes["queries"].sort(key=json.dumps)
    return shapes


def check_outputs(workload: Workload, passes: list[list[Outcome]], seed: int) -> list[str]:
    """Mark outcomes whose output fails a check; returns the digest lines."""
    first = passes[0]
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))["workloads"].get(workload.name)
    by_id = {o.command.id: o for o in first}
    for outcomes in passes[1:]:
        for outcome in outcomes:
            base = by_id.get(outcome.command.id)
            if base is None or outcome.digest != base.digest:
                outcome.problems.append("output differs from the first pass")
    verdicts: dict[str | None, list[str]] = {None: ["no output"]}
    if not any(o.problems for o in first):
        try:
            verdicts.update(workload.check(first))
        except (OSError, KeyError, ValueError) as exc:
            for outcome in first:
                outcome.problems.append(f"output check failed: {exc!r}")
        if reference is not None:
            for key, shape in pass_shapes(first).items():
                if shape != reference["shapes"][key]:
                    for outcome in first:
                        if (outcome.command.kind == "compare") == (key == "compare"):
                            outcome.problems.append(f"{key} output shape differs from reference")
            if seed == DEFAULT_SEED:
                for outcome in first:
                    if outcome.digest != reference["digests"].get(outcome.command.id):
                        outcome.problems.append("digest differs from the reference")
    for outcomes in passes:
        for outcome in outcomes:
            outcome.problems.extend(verdicts.get(outcome.digest, []))
    return [f"digest {workload.name} seed {seed} {o.command.id}: {o.digest}" for o in first]


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _percentile(values: list[float], p: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def cpu_samples(passes: list[list[Outcome]], kind: str | None = None) -> dict[str, list[float]]:
    """Each command's CPU times over the passes, by command id.

    On a shared 2-vCPU virtual machine the speed a process gets changes
    from second to second: the host takes the CPU away for a while, or a
    neighbour's load slows it, or it runs up to 1.7x faster for a few
    seconds. CPU time leaves out the time the CPU is taken away, and
    medians and pooled percentiles leave out the passes that hit a burst.
    A command's fastest pass picks such a burst: over five runs of
    ``lattice`` the fastest compare varied by 29 %, the median by 4 %.
    """
    times: dict[str, list[float]] = {}
    for outcomes in passes:
        for o in outcomes:
            if o.cpu_s is not None and (kind is None or o.command.kind == kind):
                times.setdefault(o.command.id, []).append(o.cpu_s)
    return times


def scale(outcomes: list[Outcome]) -> float:
    """The factor that turns a run's CPU times into seconds at the reference speed.

    The machine's speed also drifts between runs, by up to 1.5x over a few
    minutes, alike for every command of a run. Every child times a fixed
    calibration workload before it imports the program; the median over a
    run's commands gives the machine's speed during the run, and every
    timing is scaled by it. A calibration does not depend on the program,
    so the scale does not hide a change in the program's speed.
    """
    calibrations = [o.calibration_s for o in outcomes if o.calibration_s]
    return CALIBRATION_S / statistics.median(calibrations) if calibrations else 1.0


def cpu_times(passes: list[list[Outcome]], kind: str | None = None) -> dict[str, float]:
    """Each command's median CPU time over the passes, by command id."""
    return {key: statistics.median(v) for key, v in cpu_samples(passes, kind).items()}


def end_to_end(runner: Runner, passes: list[list[Outcome]]) -> tuple[dict, dict]:
    """Metric values and, for the summary, their sample counts."""
    untraced = [o for o in runner.outcomes if not o.traced and o.setup_s is not None]
    commands = cpu_times(passes)
    compares = cpu_samples(passes, "compare").get("compare", [])
    queries = [t for times in cpu_samples(passes, "query").values() for t in times]
    rss = [o.peak_rss_kb for o in untraced if o.peak_rss_kb]
    factor = scale(untraced)
    values = {
        "setup_s": _median([o.setup_s for o in untraced]) * factor,
        "pass_s": sum(commands.values()) * factor,
        "compare_s": commands.get("compare", 0.0) * factor,
        "query_p50_s": _percentile(queries, 50) * factor,
        "query_p90_s": _percentile(queries, 90) * factor,
        "peak_rss_mb": max(rss, default=0) / 1024,
    }
    n = len(passes)
    samples = {
        "setup_s": f"median of {len(untraced)} commands",
        "pass_s": f"sum over {len(commands)} commands of the median of {n} passes",
        "compare_s": f"median of {len(compares)} runs over {n} passes",
        "query_p50_s": f"of {len(queries)} query runs pooled over {n} passes",
        "query_p90_s": f"of {len(queries)} query runs pooled over {n} passes",
        "peak_rss_mb": f"max of {len(rss)} processes",
    }
    return values, samples


def per_layer(runner: Runner, traced: list[list[Outcome]], untraced: list[list[Outcome]]) -> dict:
    """Per-layer metrics: the median over traced passes of each pass's sum."""
    rows = []
    for outcomes in traced:
        row: dict[str, float] = {}
        for outcome in outcomes:
            for key, value in tracer.summarize(outcome.spans or []).items():
                row[key] = row.get(key, 0) + value
        requested = set()
        bytes_out = 0
        for outcome in outcomes:
            if outcome.command.kind == "compare" or outcome.command.out.is_dir():
                files = checks.tree_files(outcome.command.out)
                bytes_out += sum(len(data) for data in files.values())
                report = json.loads(files.get("report.json", b"{}"))
                requested |= {(e["entity"], e["from"], e["to"]) for e in report.get("level6", [])}
        computed = row.pop("levels.computed_nodes")
        combined = row["model_sets.combine_calls"]
        row["levels.combine_yield"] = computed / combined if combined else 0.0
        diffs = row["ltsdiff.diff_calls"]
        row["ltsdiff.diff_amplification"] = diffs / len(requested) if requested else 0.0
        row["report.bytes_out"] = bytes_out
        rows.append(row)
    metrics = {key: _median([row[key] for row in rows]) for key in rows[0]}
    overhead = sum(cpu_times(traced).values()) - sum(cpu_times(untraced).values())
    metrics["trace.overhead_s"] = overhead * scale(runner.outcomes)
    return metrics


@dataclass
class Measurement:
    workload: Workload
    runner: Runner
    passes: list[list[Outcome]]
    traced: list[bool]


def measure(name: str, seed: int, seconds: float, trace: bool) -> Measurement:
    """Generate the inputs, check the goldens, then run passes for ``seconds``."""
    root = WORK / name
    shutil.rmtree(root, ignore_errors=True)
    scratch = root / "children"
    scratch.mkdir(parents=True)
    runner = Runner(seed, time.monotonic() + RUN_LIMIT_S, scratch)
    workload = WORKLOADS[name](name, seed, root)
    workload.prepare()
    golden_check(runner, root / "golden")
    result = Measurement(workload, runner, [], [])
    began = time.monotonic()
    while True:
        traced = trace and len(result.passes) % 2 == 1
        out = root / f"pass{len(result.passes)}"
        result.passes.append(workload.run_pass(runner, out, traced))
        result.traced.append(traced)
        done = len(result.passes)
        if trace and done < 2:
            continue
        if (time.monotonic() - began) * (done + 1) / done > seconds:
            return result


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    m = measure(name, seed, seconds, trace)
    lines = check_outputs(m.workload, m.passes, seed)
    outcomes = m.runner.outcomes
    failed = sum(bool(o.problems) for o in outcomes)
    untraced = [p for p, t in zip(m.passes, m.traced) if not t]
    if trace:
        metrics = per_layer(m.runner, [p for p, t in zip(m.passes, m.traced) if t], untraced)
        samples = {}
    else:
        metrics, samples = end_to_end(m.runner, untraced)
    units = metric_units()
    metrics = {key: metrics[key] for key in units if key in metrics}
    for outcome in outcomes:
        for problem in outcome.problems:
            lines.append(f"FAILED {name} {outcome.command.id}: {problem}")
    lines.append(f"{name}: seed {seed}, {len(m.passes)} passes, {len(outcomes)} commands")
    for key, value in metrics.items():
        lines.append(f"  {key:<30} {value:14.6f} {units[key]:<6} {samples.get(key, '')}")
    if not trace:
        factor = scale([o for o in outcomes if not o.traced])
        lines.append(
            f"  {'scale':<30} {factor:14.6f} {'ratio':<6} "
            f"{CALIBRATION_S} s / median calibration; divide by it for CPU seconds"
        )
        lines.append(
            f"  {'error_rate':<30} {failed / len(outcomes):14.6f} {'ratio':<6} "
            f"{failed} failed of {len(outcomes)} commands"
        )
    print("\n".join(lines), flush=True)
    shutil.rmtree(WORK / name, ignore_errors=True)
    return {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }


def metric_units() -> dict[str, str]:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in benchmark["end_to_end"] + benchmark["per_layer"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Turn termination into SystemExit so the running child is killed too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "fsmcompare" / "cli.py").is_file():
        print(f"no fsmcompare sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    shutil.rmtree(WORK, ignore_errors=True)
    if args.workload != "all":
        result = results[args.workload]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {name: r["metrics"] for name, r in results.items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
