"""The scenario, state and --omega files that CI and the tests use, one
function per file; the seeded ones draw from ``np.random.default_rng`` in a
fixed order, so each file's bytes depend only on its arguments. Run as

    PYTHONPATH=src:tests python3 -m scenarios KIND [N SEED] --out FILE

    position N SEED   Z_N position surrogate, unit vectors in C^2 from default_rng(SEED)
    state N SEED      unit state in C^N, drawn by that rng after the vectors
    fibered           Z_8 x Z_8, H = <(0, 2)>, multiplicities 1, 2, 1 (default_rng(88))
    lattice           Z_64 x Z_64, H = <(4, 0), (0, 4)>, 1024 characters (default_rng(5))
    lattice-state     unit state in C^1024, drawn by the lattice's rng after its vectors
    omega N SEED      N (re, im) pairs from default_rng(SEED)
    omega-zero        64 pairs (-0.0, -0.0)
    fibered-spec      the covpovm group spec of the fibered scenario
    z8-overflow       Z_8, H = <4>, a weight 1e308 whose density overflows
    z8-isometry-overflow  Z_8, H = <4>, an isometry entry 1e308 whose isometry test overflows
    z8-exact          Z_8, H = <4>, isometries of exactly unit modulus
"""

import argparse
import inspect
import json
from pathlib import Path

import numpy as np

from covpovm import (
    DOMAIN_DUAL,
    DiagonalRep,
    FieldTable,
    FiniteAbelianGroup,
    IsometryField,
    SectorSpec,
    WeightedMeasure,
    build_covariant_povm,
    iojson,
    position_povm_zn,
    subgroup_from_generators,
)


def write(directory, name, obj) -> str:
    """Write ``obj`` as JSON to ``directory / name``; return the path."""
    path = Path(directory) / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def scenario_json(povm) -> dict:
    """The scenario file object of a built POVM."""
    return iojson.scenario_to_json(
        iojson.Scenario(povm.rep.group, povm.ctx.subgroup, povm.rep, povm.e_dim, povm.fields)
    )


def state_json(state) -> dict:
    return {"state": [[z.real, z.imag] for z in state.tolist()]}


def spec_json(scenario) -> dict:
    """The ``covpovm group`` spec of a scenario file object."""
    return {"group": scenario["group"], "subgroup": scenario["subgroup"]}


def scalar(factors, generators, support, matrices) -> dict:
    """A scenario with e_dim 1 and one sector of multiplicity 1: its
    (point, weight) support and (point, [re, im]) isometries, each point a
    coordinate list."""
    return {
        "spec_version": 1,
        "group": {"factors": factors},
        "subgroup": {"generators": generators},
        "e_dim": 1,
        "sectors": [{"f_dim": 1, "support": [[x, w] for x, w in support]}],
        "fields": [{"sector": 0, "matrices": [[x, [[pair]]] for x, pair in matrices]}],
    }


def scalar_z12() -> dict:
    """README's scalar Z_12 scenario (H = <4>): one character of weight 1."""
    return scalar([12], [[4]], [([0], 1.0)], [([0], [1.0, 0.0])])


def overflow_z8() -> dict:
    """Z_8 with H = <4>: the lifted class weight is 1/4, so the finite
    weight 1e308 at point 0 has an infinite density and the build fails."""
    support = [([0], 1e308)] + [([x], 1.0) for x in range(1, 5)]
    return scalar([8], [[4]], support, [([x], [1.0, 0.0]) for x in range(5)])


def isometry_overflow_z8() -> dict:
    """Z_8 with H = <4>: the isometry entry 1e308 at point 0 overflows
    the isometry test W^H W - 1, so the build fails."""
    support = [([x], 1.0) for x in range(4)]
    matrices = [([0], [1e308, 0.0])] + [([x], [1.0, 0.0]) for x in range(1, 4)]
    return scalar([8], [[4]], support, matrices)


def exact_z8() -> dict:
    """Z_8 with H = <4> and isometries of exactly unit modulus, so that
    every deviation the checks report is rounding."""
    support = [([0], 1.0), ([1], 3.0), ([2], 0.7), ([5], 1.3)]
    matrices = [([0], [1.0, 0.0]), ([1], [0.0, 1.0]), ([2], [-1.0, 0.0]), ([5], [1.0, 0.0])]
    return scalar([8], [[4]], support, matrices)


def unit_state(rng, dim):
    state = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    state /= np.linalg.norm(state)
    return state


def _unit_vectors(rng, n):
    raw = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
    return [v / np.linalg.norm(v) for v in raw]


def position(n, seed):
    """The Z_n position surrogate, e_dim 2, unit vectors from ``default_rng(seed)``."""
    return position_povm_zn(n, _unit_vectors(np.random.default_rng(seed), n))


def position_qr(n, seed):
    """The Z_n position surrogate, e_dim 2, each unit vector the Q factor of
    a 2 x 1 complex draw from ``default_rng(seed)``."""
    rng = np.random.default_rng(seed)
    draws = [rng.standard_normal((2, 1)) + 1j * rng.standard_normal((2, 1)) for _ in range(n)]
    return position_povm_zn(n, [np.linalg.qr(m)[0][:, 0] for m in draws])


def position_state(n, seed):
    """A unit state in C^n, drawn by ``position(n, seed)``'s rng after its vectors."""
    rng = np.random.default_rng(seed)
    _unit_vectors(rng, n)
    return unit_state(rng, n)


def fibered_z8sq():
    """Z_8 x Z_8 with H = <(0, 2)> (16 cosets): 24 characters in sectors of
    multiplicities 1, 2 and 1 over several dual fibers, e_dim 2."""
    rng = np.random.default_rng(88)
    group = FiniteAbelianGroup((8, 8))
    subgroup = subgroup_from_generators(group, [group.element([0, 2])])
    points = rng.permutation(64)[:24]
    e_dim = 2
    sectors, fields = [], []
    for k, f_dim in enumerate((1, 2, 1)):
        chars = [group.character(divmod(int(p), 8)) for p in points[k::3]]
        weights = {x: rng.uniform(0.5, 2.0) for x in chars}
        sectors.append(SectorSpec(WeightedMeasure(DOMAIN_DUAL, weights), f_dim))
        shape = (len(chars), e_dim, f_dim)
        raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        fields.append(IsometryField(k, {x: np.linalg.qr(m)[0] for x, m in zip(chars, raw)}))
    rep = DiagonalRep(group, tuple(sectors))
    return build_covariant_povm(rep, subgroup, fields, e_dim=e_dim)


def _lattice_draws():
    """The lattice's rng after it drew 1024 sorted distinct indices of
    Z_64 x Z_64 and a unit vector in C^2 for each; then those arrays."""
    rng = np.random.default_rng(5)
    points = np.sort(rng.choice(64 * 64, 1024, replace=False))
    raw = rng.standard_normal((1024, 2)) + 1j * rng.standard_normal((1024, 2))
    return rng, points, raw / np.linalg.norm(raw, axis=1, keepdims=True)


def lattice_z64sq():
    """Z_64 x Z_64 with H = <(4, 0), (0, 4)> (|H| = 256, q = 16): one sector
    of multiplicity 1 on each of 1024 characters, e_dim 2."""
    group = FiniteAbelianGroup((64, 64))
    subgroup = subgroup_from_generators(group, [group.element([4, 0]), group.element([0, 4])])
    _, points, vectors = _lattice_draws()
    n = len(points)
    sectors = np.arange(n)
    rep = DiagonalRep.of_arrays(group, sectors, points, np.ones(n), np.ones(n, dtype=np.int64))
    fields = FieldTable(group, sectors, sectors, points, np.tile([2, 1], (n, 1)), vectors.ravel())
    return build_covariant_povm(rep, subgroup, fields, e_dim=2)


def lattice_state():
    """A unit state in C^1024, drawn by the lattice's rng after its vectors."""
    return unit_state(_lattice_draws()[0], 1024)


def oracle_stack(q):
    """The oracle's (q + 11, q) stack: the q singletons, the constant
    function and ten random complex functions from ``default_rng(2024)``."""
    rng = np.random.default_rng(2024)
    randoms = [rng.standard_normal(q) + 1j * rng.standard_normal(q) for _ in range(10)]
    return np.vstack((np.eye(q), np.ones(q), *randoms))


def omega_json(n, seed) -> dict:
    """An ``--omega`` file object: n (re, im) pairs from ``default_rng(seed)``."""
    return {"values": np.random.default_rng(seed).standard_normal((n, 2)).tolist()}


KINDS = {
    "position": lambda n, seed: scenario_json(position(n, seed)),
    "state": lambda n, seed: state_json(position_state(n, seed)),
    "fibered": lambda: scenario_json(fibered_z8sq()),
    "lattice": lambda: scenario_json(lattice_z64sq()),
    "lattice-state": lambda: state_json(lattice_state()),
    "omega": omega_json,
    "omega-zero": lambda: {"values": [[-0.0, -0.0]] * 64},
    "fibered-spec": lambda: spec_json(scenario_json(fibered_z8sq())),
    "z8-overflow": overflow_z8,
    "z8-isometry-overflow": isometry_overflow_z8,
    "z8-exact": exact_z8,
}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(
        prog="python -m scenarios",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("kind", choices=KINDS)
    parser.add_argument("params", nargs="*", type=int, metavar="N SEED")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    make = KINDS[args.kind]
    wanted = len(inspect.signature(make).parameters)
    if len(args.params) != wanted:
        parser.error(f"{args.kind} takes {wanted} integers, got {len(args.params)}")
    write(".", args.out, make(*args.params))


if __name__ == "__main__":
    main()
