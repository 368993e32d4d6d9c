"""Command-line driver.

Subcommands: group | build | verify | matrix | sample. Machine-readable
output (JSON, CSV) goes to stdout, human messages to stderr. Exit codes:
0 success, 1 verification failed, 2 unreadable or malformed input file,
output that cannot be written to stdout (a closed pipe, a full disk), or a
`verify --dump-matrices` directory or file that cannot be written (the
dump is written before the checks run, so nothing goes to stdout), 3
semantic error in the input (a file whose JSON shape is wrong, such as a
`subgroup` that is not an object or an integer beyond int64, is one: it
exits 3 with `invalid input: ...`, never 1), 4 build rejection, 5 out of
memory (the problem is too large for the machine; it is never read as a
failed verification).

The default verification tolerance is 1e-9; the COVPOVM_TOLERANCE
environment variable overrides it and the --tolerance flag overrides both.
A tolerance that is not a finite, nonnegative number exits 3. `build`, `matrix`
and `sample` check the isometries at that tolerance; `verify` checks them
at no less than the default, so a tighter tolerance still reaches the
checks and tightens only them.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
from pathlib import Path

from . import iojson
from .harmonic import QuotientContext
from .observables import born_distribution, sample_outcomes
from .povm import (
    DEFAULT_ATOL,
    CheckResult,
    PovmBuildError,
    VerificationReport,
    _worst,
    dilation_sweep,
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


class OutputError(Exception):
    """A write to stdout failed; the message is the ``OSError``'s text."""


@contextlib.contextmanager
def _writing_stdout():
    """Raise :class:`OutputError` for an ``OSError`` of the writes inside,
    flushed before the block ends, so that it is not read as an unreadable
    input or lost at exit."""
    try:
        yield
        sys.stdout.flush()
    except OSError as exc:
        raise OutputError(str(exc) or type(exc).__name__) from exc


def _emit(obj) -> None:
    with _writing_stdout():
        iojson.dump(obj, sys.stdout)
        sys.stdout.write("\n")


def _dump_file(path: Path, matrix) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        iojson.dump(iojson.matrix_to_json(matrix), handle)


def _dump_matrices(povm, dump_dir: Path, omega) -> bool:
    """Write M(omega) (of the constant function when omega is None) and
    every singleton effect as matrix JSON under ``dump_dir``, made if
    missing. On the first write that fails, name its path on stderr and
    return False."""
    shown = povm.ctx.indicator(range(povm.ctx.n_cosets)) if omega is None else omega
    path = dump_dir
    try:
        dump_dir.mkdir(parents=True, exist_ok=True)
        path = dump_dir / "m_omega.json"
        _dump_file(path, povm.assembled(shown))
        for i in range(povm.ctx.n_cosets):
            path = dump_dir / f"effect_{i}.json"
            _dump_file(path, povm.assembled_effect([i]))
    except OSError as exc:
        print(f"cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
        return False
    return True


def _tolerance(args) -> float:
    """--tolerance, else COVPOVM_TOLERANCE, else ``DEFAULT_ATOL`` (1e-9); it
    must be a finite, nonnegative number, or the command exits 3."""
    if getattr(args, "tolerance", None) is not None:
        source, value = "--tolerance", float(args.tolerance)
    else:
        source, env = "COVPOVM_TOLERANCE", os.environ.get("COVPOVM_TOLERANCE")
        try:
            value = float(env) if env else DEFAULT_ATOL
        except ValueError:
            raise ValueError(f"{source} must be a number, got {env!r}") from None
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
            "class_measure": iojson.measure_to_json(povm.class_data.coset_weights),
        }
    )
    return EXIT_OK


def _oracle_report(povm, tolerance: float, sweep=None) -> VerificationReport:
    """The kernel route against the intertwiner compression: the largest gap
    over the rows of the :class:`~covpovm.povm.DilationSweep` (computed when
    not given), an ``--omega`` row included."""
    sweep = dilation_sweep(povm) if sweep is None else sweep
    dev = _worst(sweep.gaps)
    return VerificationReport((CheckResult("oracle_agreement", dev <= tolerance, dev),))


def cmd_verify(args) -> int:
    scenario = iojson.scenario_from_json(_load_json(args.scenario))
    tolerance = _tolerance(args)
    povm = scenario.build(atol=max(tolerance, DEFAULT_ATOL))
    omega = None
    if args.omega:
        omega = iojson.quotient_function_from_json(_load_json(args.omega))
        if omega.shape != (povm.ctx.n_cosets,):
            raise ValueError(
                f"omega carries {omega.shape[0]} values, "
                f"the quotient has {povm.ctx.n_cosets} cosets"
            )
    if args.dump_matrices and not _dump_matrices(povm, Path(args.dump_matrices), omega):
        return EXIT_BAD_INPUT
    sweep = dilation_sweep(povm, () if omega is None else omega[None])
    report = (
        verify_axioms(povm, atol=tolerance, sweep=sweep)
        .merged(verify_covariance(povm, atol=tolerance, sweep=sweep))
        .merged(_oracle_report(povm, tolerance, sweep))
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
    with _writing_stdout():
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
        return _run(args)
    except OutputError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        with contextlib.suppress(AttributeError, OSError, ValueError):
            stdout = sys.stdout.fileno()  # a stub or capture has none
            # drop what stdout still buffers: flushed at exit it fails again, exit 120
            os.dup2(os.open(os.devnull, os.O_WRONLY), stdout)
        return EXIT_BAD_INPUT


def _run(args) -> int:
    """The command's exit code, with each input or build error reported on
    stderr first; a rejected build then writes its details to stdout."""
    try:
        return args.func(args)
    except PovmBuildError as exc:
        print(f"build rejected: {exc}", file=sys.stderr)
        _emit({"spec_version": iojson.SPEC_VERSION, "rejected": exc.details})
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
