"""covpovm benchmark: seeded CLI workloads, end-to-end and per layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload verify-position --seed 1 --seconds 30 --trace 0

The runner generates the workload's files from the seed, starts one
workload process (child.py) that drives ``covpovm.cli.main`` in a closed
loop for the given seconds, checks every command's exit code and output,
and prints a report whose last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end metrics of BENCHMARK.json, from untraced
commands, with CPU times scaled to reference machine speed by the probe of
calibrate.py; with ``--trace 1`` they are its per-layer metrics, from spans
recorded around the library's entry points. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

# BLAS threads are part of the benchmark's environment: one thread, so the
# single-threaded closed loop never runs more threads than it asked for.
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD_TIMEOUT_S = 150
OVERHEAD = "trace.overhead_frac"

# Spans and counters each workload must record in its traced rounds.
COMMON_LAYERS = (
    "groups.subgroup_from_generators",
    "groups.annihilator",
    "groups.quotient",
    "groups.pairing.calls",
    "groups.elements_constructed",
    "harmonic.context_build",
    "harmonic.lift_measure",
    "harmonic.image_measure",
    "povm.build",
    "iojson.scenario_from_json",
    "cli",
    "cli.stdout_bytes",
)
EXERCISED = {
    "verify-position": COMMON_LAYERS
    + (
        "harmonic.translated",
        "harmonic.cotransform",
        "induction.transported_matrix",
        "induction.transported_act.calls",
        "povm.apply",
        "povm.assemble",
        "povm.assembled_bytes",
        "povm.verify_axioms",
        "povm.verify_covariance",
        "povm.u_matrix.calls",
        "povm.intertwiner_route",
    ),
    "lattice-build": COMMON_LAYERS
    + ("harmonic.cotransform", "povm.apply", "povm.assemble", "iojson.matrix_to_json"),
    "sample-fibered": COMMON_LAYERS
    + (
        "harmonic.cotransform",
        "povm.apply",
        "povm.assemble",
        "povm.assembled_bytes",
        "observables.born",
        "observables.born.cells",
        "observables.sample",
        "observables.sample.draws",
        "iojson.matrix_to_json",
    ),
}


def machine() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
    }


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples above it (nearest
    rank), or None when the run has fewer than twenty samples."""
    n = len(values)
    if n < 20:
        return None
    p = 100 * (n - 10) // n
    return p, sorted(values)[math.ceil(p * n / 100) - 1]


def timing_line(name: str, values: list[float]) -> str:
    line = f"{name:<14} median {statistics.median(values):.4f} s  n={len(values)}"
    tail = tail_percentile(values)
    if tail:
        line += f"  p{tail[0]} {tail[1]:.4f} s"
    return line


def end_to_end(result: dict, commands: list[dict], rounds: int) -> tuple[dict, list[str]]:
    per_round = [0.0] * rounds
    wall_round = [0.0] * rounds
    by_name: dict[str, list[float]] = {}
    for c in commands:
        per_round[c["round"]] += c["reference_seconds"]
        wall_round[c["round"]] += c["seconds"]
        by_name.setdefault(c["name"], []).append(c["reference_seconds"])
    setups = [s["reference_seconds"] for s in result["setup_s"]]
    slowness = [c["slowness"] for c in commands] + [s["slowness"] for s in result["setup_s"]]
    lines = [timing_line(f"{name}_s", values) for name, values in by_name.items()]
    lines.append(timing_line("setup_s", setups))
    metrics = {
        "setup_s": statistics.median(setups),
        "round_cpu_s": statistics.median(per_round),
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
    }
    lines.append(timing_line("round_cpu_s", per_round))
    lines.append(timing_line("round_wall_s", wall_round))
    lines.append(
        f"{'slowness':<14} median {statistics.median(slowness):.3f}  "
        f"min {min(slowness):.3f}  max {max(slowness):.3f}"
    )
    lines.append(f"{'peak_rss_mb':<14} {metrics['peak_rss_mb']:.1f} MB")
    return metrics, lines


def per_layer(workload, trace: dict, commands: list[dict], names) -> tuple[dict, list[str], list[str]]:
    from tracer import fired, layer_metrics

    traced = {i: c["round"] for i, c in enumerate(commands) if c["traced"]}
    round_times = {True: {}, False: {}}
    for c in commands:
        round_times[c["traced"]][c["round"]] = round_times[c["traced"]].get(c["round"], 0.0) + c["reference_seconds"]
    derived = [n for n in names if not n.startswith(("size.", "trace."))]
    metrics, problems = layer_metrics(trace, traced, derived)
    metrics[OVERHEAD] = (
        statistics.median(round_times[True].values()) / statistics.median(round_times[False].values()) - 1.0
    )
    problems += [
        f"{name} recorded nothing on {workload.name}"
        for name in EXERCISED[workload.name]
        if not fired(trace, name)
    ]
    layers: dict[str, float] = {}
    for name, value in metrics.items():
        if name.endswith(".self_s"):
            layer = name.split(".")[0]
            layers[layer] = layers.get(layer, 0.0) + value
    ranked = sorted(layers.items(), key=lambda kv: -kv[1])
    lines = [
        "layer self time per round: " + ", ".join(f"{k} {v:.4f} s" for k, v in ranked),
        f"traced rounds {len(round_times[True])}, untraced rounds {len(round_times[False])}, "
        f"overhead {metrics[OVERHEAD]:+.3f}",
    ]
    return metrics, lines, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "covpovm" / "__init__.py").is_file():
        print(f"covpovm sources not found under {SRC}", file=sys.stderr)
        return 2
    os.environ.update({var: "1" for var in BLAS_THREAD_VARS})
    sys.path[:0] = [str(SRC), str(HERE)]
    import checks
    import workloads

    if args.workload not in workloads.GENERATORS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.GENERATORS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    workload = workloads.GENERATORS[args.workload](args.seed, workdir)
    plan = {
        "rounds": workload.rounds,
        "scenario": workload.scenario_path,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    plan_path = workdir / "plan.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]), PYTHONHASHSEED="0")
    subprocess.run(
        [sys.executable, str(HERE / "child.py"), str(plan_path)],
        env=env,
        cwd=ROOT,
        check=True,
        timeout=CHILD_TIMEOUT_S,
    )
    result = json.loads((workdir / "result.json").read_text(encoding="utf-8"))
    commands = result["commands"]

    def output(digest: str) -> str:
        return (workdir / "outputs" / digest).read_text(encoding="utf-8")

    ref = checks.Reference(workload)
    verdicts = checks.check_commands(ref, commands, output)
    failed = sum(v is not None for v in verdicts)
    problems = sorted({f"{c['name']}: {v}" for c, v in zip(commands, verdicts) if v})
    recorded = ref.sizes()
    problems += [
        f"{name} is {recorded[name]}, the workload defines {value}"
        for name, value in workload.sizes.items()
        if recorded[name] != value
    ]

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("machine " + json.dumps(machine()))
    if args.trace:
        trace = json.loads((workdir / "trace.json").read_text(encoding="utf-8"))
        metrics, lines, more = per_layer(workload, trace, commands, [m["name"] for m in wanted])
        metrics.update(recorded)
        problems += more
    else:
        rounds = 1 + max(c["round"] for c in commands)
        metrics, lines = end_to_end(result, commands, rounds)
    lines.append(f"{'fail_frac':<14} {failed / len(commands):.4f} ratio  ({failed}/{len(commands)})")
    print("\n".join(lines))
    for problem in problems:
        print("FAIL " + problem)

    missing = {m["name"] for m in wanted} ^ set(metrics)
    if missing:
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(missing)}")
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": len(commands),
                "failed": failed,
                "metrics": {
                    m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
