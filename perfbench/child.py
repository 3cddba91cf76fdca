"""Run one ``fsmcompare`` CLI command in this fresh interpreter and time it.

Usage: python3 child.py RESULT_JSON SPANS_JSON|- ARGS...

Writes to RESULT_JSON this process's CPU time from its start until
``fsmcompare.cli`` is imported and that of the command, the CPU time of a
fixed calibration workload run before the import, the command's exit code and
the process's peak resident set. CPU time, unlike the wall clock, leaves out
the time a shared host gives the CPU to someone else.
With a SPANS_JSON path, the public functions of the program's modules are
wrapped first and their spans are written there at the end.
"""

import gc
import json
import sys
import time
import traceback


def _peak_rss_kb() -> int:
    # ru_maxrss of a vfork-spawned child starts at its parent's high-water
    # mark; VmHWM covers only this process image.
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _calibrate() -> float:
    """CPU seconds of subset constructions over 60 fixed pseudo-random NFAs.

    It uses no fsmcompare code, only the dict, set, frozenset and tuple
    operations the program spends its time in, so it measures how fast the
    machine runs such code at the moment; ``run.py`` explains the use.
    """
    gc.disable()
    try:
        start = time.process_time()
        x = 1
        for _ in range(60):
            succ: dict[tuple[int, int], set[int]] = {}
            for src in range(64):
                for _ in range(3):
                    x = (x * 1103515245 + 12345) & 0x7FFFFFFF
                    succ.setdefault((src, x % 4), set()).add((x >> 8) % 64)
            first = frozenset({0})
            seen, todo = {first}, [first]
            while todo:
                subset = todo.pop()
                for event in range(4):
                    target = frozenset(t for s in subset for t in succ.get((s, event), ()))
                    if target not in seen:
                        seen.add(target)
                        todo.append(target)
        return time.process_time() - start
    finally:
        gc.enable()


def main() -> None:
    result_path, spans_path, args = sys.argv[1], sys.argv[2], sys.argv[3:]
    calibration = _calibrate()
    import fsmcompare.cli as cli

    setup_cpu = time.process_time() - calibration
    tracer = None
    if spans_path != "-":
        import tracer as tracing

        tracer = tracing.install()
    cpu_start = time.process_time()
    code, error = 0, None
    try:
        cli.main(args=args, prog_name="fsmcompare", standalone_mode=True)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    except Exception:  # the program raised: report it as a failed command
        code, error = 1, traceback.format_exc()
        sys.stderr.write(error)
    cpu_end = time.process_time()
    result = {
        "setup_cpu_s": setup_cpu,
        "calibration_s": calibration,
        "cpu_s": cpu_end - cpu_start,
        "exit": code,
        "error": error,
        "peak_rss_kb": _peak_rss_kb(),
    }
    if tracer is not None:
        tracer.write(spans_path)
    with open(result_path, "w", encoding="utf-8") as out:
        json.dump(result, out)


if __name__ == "__main__":
    main()
