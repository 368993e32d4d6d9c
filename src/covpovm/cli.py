"""Command-line driver.

Subcommands: group | build | verify | matrix | sample. Machine-readable
output (JSON, CSV) goes to stdout, human messages to stderr. Exit codes:
0 success, 1 verification failed, 2 unreadable or malformed input file,
3 semantic error in the input, 4 build rejection, 5 out of memory (the
problem is too large for the machine; it is never read as a failed
verification).

The default verification tolerance is 1e-9; the COVPOVM_TOLERANCE
environment variable overrides it and the --tolerance flag overrides both.
A tolerance that is not finite, or is negative, exits 3.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import iojson
from .harmonic import QuotientContext
from .observables import born_distribution, sample_outcomes
from .povm import (
    DEFAULT_ATOL,
    CheckResult,
    PovmBuildError,
    VerificationReport,
    intertwiner_compressions,
    verify_axioms,
    verify_covariance,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_SEMANTIC = 3
EXIT_BUILD_REJECTED = 4
EXIT_TOO_LARGE = 5


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _emit(obj) -> None:
    sys.stdout.write(iojson.dumps(obj))
    sys.stdout.write("\n")


def _tolerance(args) -> float:
    """--tolerance, else COVPOVM_TOLERANCE, else ``DEFAULT_ATOL`` (1e-9); it
    must be finite and nonnegative, or the command exits 3."""
    if getattr(args, "tolerance", None) is not None:
        source, value = "--tolerance", float(args.tolerance)
    else:
        env = os.environ.get("COVPOVM_TOLERANCE")
        source, value = "COVPOVM_TOLERANCE", float(env) if env else DEFAULT_ATOL
    if not (math.isfinite(value) and value >= 0.0):
        raise ValueError(f"{source} must be finite and >= 0, got {value}")
    return value


def cmd_group(args) -> int:
    obj = _load_json(args.spec)
    group = iojson.group_from_json(obj["group"] if "group" in obj else obj)
    subgroup = iojson.subgroup_from_json(group, obj.get("subgroup", {}))
    ctx = QuotientContext.build(group, subgroup)
    pairing_table = group.pairing_matrix(
        ctx.annihilator.indices, [group.index_of(h) for h in subgroup.generators]
    )
    _emit(
        {
            "spec_version": iojson.SPEC_VERSION,
            "group": {"factors": list(group.factors), "order": group.order},
            "subgroup": {
                "generators": [list(g.coords) for g in subgroup.generators],
                "elements": group.coords[subgroup.indices],
                "order": subgroup.order,
            },
            "annihilator": {
                "elements": group.coords[ctx.annihilator.indices],
                "order": ctx.annihilator.order,
            },
            "cosets": {
                "count": ctx.n_cosets,
                "representatives": group.coords[ctx.quotient.rep_indices],
                "members": group.coords[ctx.quotient.members],
            },
            "dual_cosets": {
                "count": len(ctx.dual_quotient),
                "representatives": group.coords[ctx.dual_quotient.rep_indices],
            },
            "pairing_table": {
                "rows": "annihilator elements",
                "cols": "subgroup generators",
                "values": iojson.pairs_to_json(pairing_table),
            },
        }
    )
    return EXIT_OK


def cmd_build(args) -> int:
    scenario = iojson.scenario_from_json(_load_json(args.scenario))
    povm = scenario.build(atol=_tolerance(args))
    table = povm.rep.support_table
    points = povm.rep.group.coords[table.indices].tolist()
    densities = [list(row) for row in zip(points, povm.point_densities.tolist())]
    sectors = [
        {"f_dim": f, "support_size": len(rows), "densities": rows}
        for f, rows in zip(table.sector_f_dims.tolist(), table.per_sector(densities))
    ]
    _emit(
        {
            "spec_version": iojson.SPEC_VERSION,
            "dimension": povm.dimension,
            "e_dim": povm.e_dim,
            "n_cosets": povm.ctx.n_cosets,
            "admits": True,
            "sectors": sectors,
            "class_measure": iojson.measure_to_json(povm.quotient_measure),
        }
    )
    return EXIT_OK


def _oracle_report(povm, tolerance: float, extra_omegas) -> VerificationReport:
    """Compare the kernel formula against the intertwiner compression over
    the indicator basis, the constant function, any provided functions and
    ten seeded random ones; both routes run over the whole stack."""
    q = povm.ctx.n_cosets
    rng = np.random.default_rng(2024)
    randoms = [rng.standard_normal(q) + 1j * rng.standard_normal(q) for _ in range(10)]
    omegas = np.vstack((np.eye(q), np.ones(q), *extra_omegas, *randoms))
    # the kernel effects of each block of compressions, stacked alike
    devs, start = [], 0
    for oracle in intertwiner_compressions(povm, omegas):
        kernel = povm.assembled(omegas[start : start + len(oracle)])
        devs.append(np.abs(kernel - oracle).max(initial=0.0))
        start += len(oracle)
    # np.max keeps a NaN deviation, which Python's max may drop
    dev = float(np.max(devs, initial=0.0))
    return VerificationReport(
        (CheckResult("oracle_agreement", dev <= tolerance, dev),)
    )


def cmd_verify(args) -> int:
    scenario = iojson.scenario_from_json(_load_json(args.scenario))
    tolerance = _tolerance(args)
    povm = scenario.build(atol=tolerance)
    omega = None
    extra = []
    if args.omega:
        omega = iojson.quotient_function_from_json(_load_json(args.omega))
        if omega.shape != (povm.ctx.n_cosets,):
            raise ValueError(
                f"omega carries {omega.shape[0]} values, "
                f"the quotient has {povm.ctx.n_cosets} cosets"
            )
        extra.append(omega)
    report = (
        verify_axioms(povm, atol=tolerance)
        .merged(verify_covariance(povm, atol=tolerance))
        .merged(_oracle_report(povm, tolerance, extra))
    )
    if args.dump_matrices:
        dump_dir = Path(args.dump_matrices)
        dump_dir.mkdir(parents=True, exist_ok=True)
        shown = omega if omega is not None else povm.ctx.indicator(
            range(povm.ctx.n_cosets)
        )
        (dump_dir / "m_omega.json").write_text(
            iojson.dumps(iojson.matrix_to_json(povm.assembled(shown)))
        )
        for i in range(povm.ctx.n_cosets):
            (dump_dir / f"effect_{i}.json").write_text(
                iojson.dumps(iojson.matrix_to_json(povm.assembled_effect([i])))
            )
    _emit(iojson.report_to_json(report, tolerance))
    if not report.passed:
        print("verification FAILED", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    print("verification passed", file=sys.stderr)
    return EXIT_OK


def cmd_matrix(args) -> int:
    scenario = iojson.scenario_from_json(_load_json(args.scenario))
    povm = scenario.build(atol=_tolerance(args))
    if args.omega:
        omega = iojson.quotient_function_from_json(_load_json(args.omega))
    else:
        omega = povm.ctx.indicator(range(povm.ctx.n_cosets))
    _emit(iojson.matrix_to_json(povm.assembled(omega)))
    return EXIT_OK


def cmd_sample(args) -> int:
    scenario = iojson.scenario_from_json(_load_json(args.scenario))
    povm = scenario.build(atol=_tolerance(args))
    state = iojson.state_from_json(_load_json(args.state))
    if args.partition:
        partition = iojson.partition_from_json(_load_json(args.partition))
    else:
        partition = [[i] for i in range(povm.ctx.n_cosets)]
    counts = sample_outcomes(state, povm, partition, args.count, args.seed)
    rows = "".join(f"{i},{c}\n" for i, c in enumerate(counts.tolist()))
    sys.stdout.write("outcome,count\n" + rows)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it
    unchanged, so every ``main`` call reuses it."""
    parser = argparse.ArgumentParser(
        prog="covpovm",
        description="Construct, evaluate, and verify covariant POVMs "
        "on finite Abelian groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_group = sub.add_parser("group", help="dual, annihilator, and coset tables")
    p_group.add_argument("spec", help="JSON file with group and subgroup specs")
    p_group.set_defaults(func=cmd_group)

    p_build = sub.add_parser("build", help="build a POVM and report its structure")
    p_build.add_argument("scenario", help="scenario JSON file")
    p_build.add_argument("--tolerance", type=float, default=None)
    p_build.set_defaults(func=cmd_build)

    p_verify = sub.add_parser("verify", help="build and verify a POVM")
    p_verify.add_argument("scenario", help="scenario JSON file")
    p_verify.add_argument("--omega", default=None, help="quotient function JSON file")
    p_verify.add_argument("--tolerance", type=float, default=None)
    p_verify.add_argument("--dump-matrices", default=None, metavar="DIR")
    p_verify.set_defaults(func=cmd_verify)

    p_matrix = sub.add_parser("matrix", help="dump the operator of a quotient function")
    p_matrix.add_argument("scenario", help="scenario JSON file")
    p_matrix.add_argument("--omega", default=None, help="quotient function JSON file")
    p_matrix.add_argument("--tolerance", type=float, default=None)
    p_matrix.set_defaults(func=cmd_matrix)

    p_sample = sub.add_parser("sample", help="sample outcomes from a state")
    p_sample.add_argument("scenario", help="scenario JSON file")
    p_sample.add_argument("--state", required=True, help="state vector JSON file")
    p_sample.add_argument("--partition", default=None, help="partition JSON file")
    p_sample.add_argument("-n", "--count", type=int, required=True)
    p_sample.add_argument("--seed", type=int, required=True)
    p_sample.set_defaults(func=cmd_sample)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PovmBuildError as exc:
        _emit({"spec_version": iojson.SPEC_VERSION, "rejected": exc.details})
        print(f"build rejected: {exc}", file=sys.stderr)
        return EXIT_BUILD_REJECTED
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read input: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except (ValueError, KeyError, TypeError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_SEMANTIC
    except MemoryError as exc:
        reason = str(exc) or type(exc).__name__
        print(f"{args.command}: out of memory (problem too large): {reason}", file=sys.stderr)
        return EXIT_TOO_LARGE


if __name__ == "__main__":
    sys.exit(main())
