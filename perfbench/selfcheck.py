"""Self-checks of the benchmark, run from the repository root:

    python3 perfbench/selfcheck.py           # check; exit 1 on any failure
    python3 perfbench/selfcheck.py --record  # rewrite reference.json first

They cover generator determinism, the presence of every metric that
BENCHMARK.json names, trace consistency against the outputs, and the bypass
predictions: no structural diff on ``lattice`` and ``logs``, no level 2 on
``structural`` and ``logs``, no prefix tree on ``lattice`` and
``structural``. ``--record`` takes the reference digests and shapes from
one pass of every workload at the default seed; do that only at a commit
whose outputs are known to be right.
"""

from __future__ import annotations

import json
import shutil
import sys

import checks
import generate
import run
import tracer

BYPASS = {
    "lattice": ("ltsdiff.diff_calls", "ingest.build_pta_s"),
    "structural": ("levels.level2_s", "ingest.build_pta_s"),
    "logs": ("ltsdiff.diff_calls", "levels.level2_s"),
}


def record() -> None:
    workloads = {}
    for name in run.WORKLOADS:
        first = run.measure(name, run.DEFAULT_SEED, 0, trace=False).passes[0]
        problems = [p for o in first for p in o.problems]
        if problems:
            raise SystemExit(f"{name}: cannot record from failing commands: {problems}")
        workloads[name] = {
            "digests": {o.command.id: o.digest for o in first},
            "shapes": run.pass_shapes(first),
        }
    text = json.dumps({"seed": run.DEFAULT_SEED, "workloads": workloads}, indent=1, sort_keys=True)
    run.REFERENCE.write_text(text + "\n", encoding="utf-8")


def generator_checks(name: str, expect) -> None:
    trees = []
    for label, seed in (("a", 0), ("b", 0), ("c", 1)):
        root = run.WORK / "selfcheck" / name / label
        shutil.rmtree(root, ignore_errors=True)
        if generate.WORKLOADS[name].traces:
            generate.write_logs(root, name, seed)
        else:
            generate.write_workspace(root, name, seed)
        trees.append(checks.tree_files(root))
    expect(trees[0] == trees[1], "the same seed writes the same bytes")
    expect(trees[0] != trees[2], "another seed writes other bytes")


def run_checks(name: str, expect) -> None:
    measured = run.measure(name, run.DEFAULT_SEED, 0, trace=True)
    untraced, traced = measured.passes[:2]
    run.check_outputs(measured.workload, measured.passes, run.DEFAULT_SEED)
    problems = [p for o in measured.runner.outcomes for p in o.problems]
    expect(not problems, f"every command succeeds and passes its checks {problems}")

    units = run.metric_units()
    benchmark = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e, _ = run.end_to_end(measured.runner, [untraced])
    layers = run.per_layer(measured.runner, [traced], [untraced])
    expect(
        sorted(e2e) == sorted(m["name"] for m in benchmark["end_to_end"]),
        "every end-to-end metric is reported",
    )
    expect(
        sorted(layers) == sorted(m["name"] for m in benchmark["per_layer"]),
        "every per-layer metric is reported",
    )
    expect(set(e2e) | set(layers) <= set(units), "every metric has a unit")
    expect(all(v > 0 for v in e2e.values()), f"no end-to-end metric is 0 {e2e}")
    for metric in BYPASS[name]:
        expect(layers[metric] == 0, f"{metric} is 0 (bypass)")

    compare = next(o for o in traced if o.command.kind == "compare")
    counters = tracer.summarize(compare.spans)
    report = json.loads((compare.command.out / "report.json").read_text(encoding="utf-8"))
    lattices = ([report["level2"]] if "level2" in report else []) + list(
        report.get("level5", {}).values()
    )
    expect(
        counters["levels.lattice_nodes"] == sum(len(lat["nodes"]) for lat in lattices),
        "traced lattice nodes equal report.json's",
    )
    expect(
        counters["levels.cover_edges"] == sum(len(lat["edges"]) for lat in lattices),
        "traced cover edges equal report.json's",
    )
    if name == "structural":
        ratio = counters["ltsdiff.diff_calls"] / len(report["level6"])
        expect(ratio == 2.0, f"the full compare diffs every level-6 pair twice ({ratio})")


def main() -> int:
    if "--record" in sys.argv[1:]:
        record()
    failures = []
    for name in run.WORKLOADS:

        def expect(ok: bool, what: str) -> None:
            print(f"{'ok  ' if ok else 'FAIL'} {name}: {what}", flush=True)
            if not ok:
                failures.append(f"{name}: {what}")

        generator_checks(name, expect)
        run_checks(name, expect)
    shutil.rmtree(run.WORK, ignore_errors=True)
    print(f"{len(failures)} failed" if failures else "all self-checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
