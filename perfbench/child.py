"""Workload process: drive ``covpovm.cli.main`` in a closed loop.

Usage: python child.py PLAN_JSON

The plan names the command rounds, the scenario file, the number of
seconds to measure and whether to trace. Each command starts after the
previous one returns, in this one thread, with stdout and stderr
captured. Without tracing, the process also times set-up (scenario file
to a built CovariantPOVM) between rounds. With tracing it alternates
untraced and traced rounds, so the two can be compared. Commands and
set-up are timed by the ReferenceClock of calibrate.py, in wall time, in
process CPU time and in CPU time at reference speed; the machine-speed
probe runs at both ends of each timed section and, outside traced runs,
every few hundredths of a second inside it. Timings, slowness, exit
codes, output digests, peak memory and spans are written next to the plan
when the loop ends; the unique outputs go to ``outputs/``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from covpovm import cli, iojson

from calibrate import ReferenceClock
from tracer import Tracer

# Set-up is timed between rounds, so that its median covers the same
# stretch of time as the rounds: SETUP_SHARE of the round time goes to
# set-up, at most SETUP_MAX_PER_ROUND batches after any one round. A batch
# repeats set-up until it has lasted SETUP_BATCH_S, so that a set-up much
# shorter than the probe period still spans several probes.
SETUP_SHARE = 0.15
SETUP_MAX_PER_ROUND = 8
SETUP_BATCH_S = 0.1


def time_setup(scenario_path: str, clock: ReferenceClock) -> tuple[dict, int]:
    """Timing of one set-up batch and the number of set-ups in it."""
    reps = 0
    start = time.perf_counter()
    clock.start()
    while True:
        with open(scenario_path, encoding="utf-8") as handle:
            iojson.scenario_from_json(json.load(handle)).build()
        reps += 1
        if time.perf_counter() - start >= SETUP_BATCH_S:
            return clock.stop(), reps


def run_command(argv, tracer: Tracer | None, clock: ReferenceClock) -> tuple[object, dict, str, str]:
    """Exit code (or the exception text), timing, stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        clock.start()
        try:
            code = cli.main(list(argv)) if tracer is None else tracer.call("cli", cli.main, list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = traceback.format_exc()
        timing = clock.stop()
    return code, timing, out.getvalue(), err.getvalue()


def main(plan_path: str) -> int:
    plan_file = Path(plan_path)
    plan = json.loads(plan_file.read_text(encoding="utf-8"))
    workdir = plan_file.parent
    trace = bool(plan["trace"])

    setup_s = []
    setup_owed = 0.0
    tracer = Tracer()
    outputs: dict[str, str] = {}
    commands = []
    deadline = time.perf_counter() + plan["seconds"]
    round_index = 0
    clock = ReferenceClock(sample=not trace)
    while True:
        traced = trace and round_index % 2 == 1
        if traced:
            tracer.install()
        round_seconds = 0.0
        try:
            for name, argv in plan["rounds"]:
                tracer.command = len(commands)
                code, timing, text, errors = run_command(argv, tracer if traced else None, clock)
                digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
                outputs.setdefault(digest, text)
                round_seconds += timing["seconds"]
                if traced:
                    tracer.add("cli.stdout_bytes", len(text.encode("utf-8")))
                commands.append(
                    {
                        "name": name,
                        "round": round_index,
                        "traced": traced,
                        "code": code,
                        **timing,
                        "digest": digest,
                        "stderr": errors[-2000:] if code != 0 else "",
                    }
                )
        finally:
            if traced:
                tracer.uninstall()
        if not trace:
            setup_owed += SETUP_SHARE * round_seconds
            for _ in range(SETUP_MAX_PER_ROUND):
                if setup_owed <= 0.0:
                    break
                timing, reps = time_setup(plan["scenario"], clock)
                setup_s.append(
                    {key: value / reps if key.endswith("seconds") else value for key, value in timing.items()}
                )
                setup_owed -= timing["seconds"]
        round_index += 1
        if time.perf_counter() >= deadline and (not trace or round_index % 2 == 0):
            break

    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out_dir = workdir / "outputs"
    out_dir.mkdir(exist_ok=True)
    for digest, text in outputs.items():
        (out_dir / digest).write_text(text, encoding="utf-8")
    if trace:
        (workdir / "trace.json").write_text(json.dumps(tracer.dump()), encoding="utf-8")
    (workdir / "result.json").write_text(
        json.dumps({"setup_s": setup_s, "commands": commands, "peak_rss_kb": peak_kb}),
        encoding="utf-8",
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
