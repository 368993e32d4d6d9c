"""Seeded inputs for the three benchmark workloads.

Each generator draws its scenario, state and omega from the seed with
numpy alone, writes them in the JSON forms of BASIS.md (the forms that
``iojson.scenario_to_json`` writes), and returns the command rounds that
feed those files to the CLI. The expected problem sizes are derived here
with integer arithmetic on the generated coordinates, so they do not
depend on the library being measured.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import product
from pathlib import Path

import numpy as np

SPEC_VERSION = 1
SAMPLE_DRAWS = 2_000_000


@dataclass(frozen=True)
class Workload:
    """Generated files, the closed-loop command round, and what to expect."""

    name: str
    factors: tuple[int, ...]
    generators: tuple[tuple[int, ...], ...]
    scenario_path: str
    scenario: dict
    rounds: tuple[tuple[str, tuple[str, ...]], ...]
    sizes: dict
    state: np.ndarray | None = None
    omega: np.ndarray | None = None
    extra: dict = field(default_factory=dict)


def pairing_exponents(factors, points, generators) -> np.ndarray:
    """t[p, g] with <point_p, generator_g> = exp(2 pi i t / L), L = lcm(factors)."""
    lcm = math.lcm(*factors)
    scale = np.array([lcm // n for n in factors], dtype=np.int64)
    gens = np.asarray(generators, dtype=np.int64).reshape(-1, len(factors))
    pts = np.asarray(points, dtype=np.int64).reshape(-1, len(factors))
    return (pts * scale) @ gens.T % lcm


def all_points(factors) -> np.ndarray:
    return np.array(list(product(*(range(n) for n in factors))), dtype=np.int64)


def expected_sizes(factors, generators, e_dim, sectors) -> dict:
    """Problem sizes of a scenario, from the coordinates alone.

    ``sectors`` lists (f_dim, support coordinates) pairs. H-perp is the set
    of characters pairing trivially with every generator of H, |H| follows
    from |H| |H-perp| = |G|, and two characters share a fiber when their
    difference lies in H-perp.
    """
    group_order = math.prod(factors)
    dual = all_points(factors)
    in_hperp = ~pairing_exponents(factors, dual, generators).any(axis=1)
    hperp_order = int(in_hperp.sum())
    subgroup_order = group_order // hperp_order

    def fiber_mate(x, y) -> bool:
        diff = [(a - b) % n for a, b, n in zip(x, y, factors)]
        return not pairing_exponents(factors, diff, generators).any()

    support = [(f, tuple(x)) for f, pts in sectors for x in pts]
    kernel_nonzeros = sum(
        f * fp for f, x in support for fp, xp in support if fiber_mate(x, xp)
    )
    fibers: list[tuple[int, ...]] = []
    for _, x in support:
        if not any(fiber_mate(x, y) for y in fibers):
            fibers.append(x)
    return {
        "size.group_order": group_order,
        "size.subgroup_order": subgroup_order,
        "size.n_cosets": group_order // subgroup_order,
        "size.hperp_order": hperp_order,
        "size.rep_dim": sum(f * len(pts) for f, pts in sectors),
        "size.kernel_nonzeros": kernel_nonzeros,
        "size.diag_dim": len(fibers) * hperp_order * e_dim,
    }


def _pair(z) -> list[float]:
    return [float(z.real), float(z.imag)]


def _unit(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def _isometry(rng: np.random.Generator, e_dim: int, f_dim: int) -> np.ndarray:
    z = rng.standard_normal((e_dim, f_dim)) + 1j * rng.standard_normal((e_dim, f_dim))
    q, _ = np.linalg.qr(z)
    return q


def _scenario_json(factors, generators, e_dim, sectors) -> dict:
    """``sectors`` lists (f_dim, [(coords, weight, isometry), ...]) with the
    support sorted lexicographically, as scenario_to_json orders it."""
    return {
        "spec_version": SPEC_VERSION,
        "group": {"factors": list(factors)},
        "subgroup": {"generators": [list(g) for g in generators]},
        "e_dim": e_dim,
        "sectors": [
            {"f_dim": f, "support": [[list(x), w] for x, w, _ in pts]}
            for f, pts in sectors
        ],
        "fields": [
            {
                "sector": k,
                "matrices": [
                    [list(x), [[_pair(z) for z in row] for row in m]]
                    for x, _, m in pts
                ],
            }
            for k, (_, pts) in enumerate(sectors)
        ],
    }


def _random_sectors(rng, factors, n_sectors, per_sector, f_dims, e_dim):
    """Disjoint random supports with random weights and isometries."""
    flat = rng.choice(math.prod(factors), size=n_sectors * per_sector, replace=False)
    coords = np.stack(np.unravel_index(flat, factors), axis=1)
    sectors = []
    for k in range(n_sectors):
        f = f_dims[k % len(f_dims)]
        chunk = sorted(tuple(int(c) for c in x) for x in coords[k * per_sector : (k + 1) * per_sector])
        sectors.append(
            (f, [(x, float(rng.uniform(0.5, 2.0)), _isometry(rng, e_dim, f)) for x in chunk])
        )
    return sectors


def _write(path: Path, obj) -> str:
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def _build(factors, generators, e_dim, sectors, workdir: Path):
    scenario = _scenario_json(factors, generators, e_dim, sectors)
    path = _write(workdir / "scenario.json", scenario)
    sizes = expected_sizes(
        factors, generators, e_dim, [(f, [x for x, _, _ in pts]) for f, pts in sectors]
    )
    return scenario, path, sizes


def verify_position(seed: int, workdir: Path) -> Workload:
    """``covpovm verify`` on the Z_16 position surrogate: trivial H, one
    character per sector, e_dim 2, seeded unit vectors."""
    rng = np.random.default_rng([seed, 1])
    n, e_dim = 16, 2
    sectors = [(1, [((x,), 1.0, _unit(rng, e_dim)[:, None])]) for x in range(n)]
    scenario, path, sizes = _build((n,), (), e_dim, sectors, workdir)
    return Workload(
        name="verify-position",
        factors=(n,),
        generators=(),
        scenario_path=path,
        scenario=scenario,
        rounds=(("verify", ("verify", path)),),
        sizes=sizes,
    )


def lattice_build(seed: int, workdir: Path) -> Workload:
    """``covpovm group``, ``build`` and ``matrix`` (constant omega) on
    Z_64 x Z_64 with H = <(4,0),(0,4)>: 4 sectors x 8 random characters."""
    rng = np.random.default_rng([seed, 2])
    factors, generators, e_dim = (64, 64), ((4, 0), (0, 4)), 3
    sectors = _random_sectors(rng, factors, 4, 8, (1, 2), e_dim)
    scenario, path, sizes = _build(factors, generators, e_dim, sectors, workdir)
    spec = _write(
        workdir / "group.json",
        {"group": scenario["group"], "subgroup": scenario["subgroup"]},
    )
    return Workload(
        name="lattice-build",
        factors=factors,
        generators=generators,
        scenario_path=path,
        scenario=scenario,
        rounds=(
            ("group", ("group", spec)),
            ("build", ("build", path)),
            ("matrix", ("matrix", path)),
        ),
        sizes=sizes,
        omega=np.ones(sizes["size.n_cosets"], dtype=complex),
        extra={"weights": [[(x, w) for x, w, _ in pts] for _, pts in sectors]},
    )


def sample_fibered(seed: int, workdir: Path) -> Workload:
    """``covpovm sample`` over the 64 singleton cosets, then ``matrix`` with
    a random omega, on Z_16 x Z_16 with H = <(0,4)>: 48 sectors x 2 random
    characters, so every fiber of the dual carries many support points."""
    rng = np.random.default_rng([seed, 3])
    factors, generators, e_dim = (16, 16), ((0, 4),), 3
    sectors = _random_sectors(rng, factors, 48, 2, (1, 2), e_dim)
    scenario, path, sizes = _build(factors, generators, e_dim, sectors, workdir)
    state = _unit(rng, sizes["size.rep_dim"])
    omega = rng.standard_normal(sizes["size.n_cosets"]) + 1j * rng.standard_normal(
        sizes["size.n_cosets"]
    )
    state_path = _write(workdir / "state.json", {"state": [_pair(z) for z in state]})
    omega_path = _write(workdir / "omega.json", {"values": [_pair(z) for z in omega]})
    return Workload(
        name="sample-fibered",
        factors=factors,
        generators=generators,
        scenario_path=path,
        scenario=scenario,
        rounds=(
            (
                "sample",
                ("sample", path, "--state", state_path, "-n", str(SAMPLE_DRAWS), "--seed", str(seed)),
            ),
            ("matrix", ("matrix", path, "--omega", omega_path)),
        ),
        sizes=sizes,
        state=state,
        omega=omega,
        extra={"draws": SAMPLE_DRAWS},
    )


GENERATORS = {
    "verify-position": verify_position,
    "lattice-build": lattice_build,
    "sample-fibered": sample_fibered,
}
