"""Output checks for the benchmark's CLI commands.

Every check works from the generated inputs and either integer arithmetic
of its own or the library's second evaluation route, the intertwiner
compression (``apply_via_intertwiner``, ``intertwiner_matrix`` and the
transported multiplication operator), which ``povm.apply`` does not use.
They run after the workload process has ended, outside every timed span.
"""

from __future__ import annotations

import json
import math
from functools import cached_property

import numpy as np

from covpovm import iojson
from covpovm.induction import transported_multiplication_act
from covpovm.povm import apply_via_intertwiner, intertwiner_matrix

from workloads import Workload, pairing_exponents

ATOL = 1e-9
VERIFY_CHECKS = ["positivity", "normalization", "covariance", "oracle_agreement"]
SIGMAS = 5.0


class Reference:
    """The POVM of a workload and reference values computed through the
    intertwiner route, each computed once per run."""

    def __init__(self, workload: Workload):
        self.workload = workload

    @cached_property
    def povm(self):
        with open(self.workload.scenario_path, encoding="utf-8") as handle:
            return iojson.scenario_from_json(json.load(handle)).build()

    @cached_property
    def matrix(self) -> np.ndarray:
        return apply_via_intertwiner(self.povm, self.workload.omega).assemble()

    @cached_property
    def born(self) -> np.ndarray:
        """<psi, M(1_i) psi> = <W psi, T(1_i) W psi> over singleton cosets,
        with W the intertwiner and T the transported multiplication."""
        povm = self.povm
        dspace = povm.diagonal_space
        phi = intertwiner_matrix(povm) @ self.workload.state
        values = dspace.from_coords(phi)
        probs = []
        for i in range(povm.ctx.n_cosets):
            moved = transported_multiplication_act(dspace, povm.ctx.indicator([i]), values)
            probs.append(np.vdot(phi, dspace.to_coords(moved)).real)
        return np.array(probs)

    def sizes(self) -> dict:
        """Problem sizes read from the built POVM's public attributes."""
        povm = self.povm
        ctx, rep = povm.ctx, povm.rep
        hperp = {y.coords for y in ctx.hperp_points}
        factors = rep.group.factors
        support = [
            (spec.f_dim, x.coords)
            for spec, points in zip(rep.sectors, rep.sector_points)
            for x in points
        ]
        nonzeros = sum(
            f * fp
            for f, x in support
            for fp, xp in support
            if tuple((a - b) % n for a, b, n in zip(x, xp, factors)) in hperp
        )
        return {
            "size.group_order": ctx.group.order,
            "size.subgroup_order": ctx.subgroup.order,
            "size.n_cosets": ctx.n_cosets,
            "size.hperp_order": len(ctx.hperp_points),
            "size.rep_dim": rep.dimension,
            "size.kernel_nonzeros": nonzeros,
            "size.diag_dim": povm.diagonal_space.dim,
        }


def check_verify(ref: Reference, text: str) -> str | None:
    report = json.loads(text)
    names = [c["check"] for c in report["checks"]]
    if names != VERIFY_CHECKS:
        return f"report lists checks {names}, expected {VERIFY_CHECKS}"
    failing = [c["check"] for c in report["checks"] if c["pass"] is not True]
    if report["pass"] is not True or failing:
        return f"report does not pass: failing checks {failing}"
    return None


def _subgroup_points(factors, generators) -> np.ndarray:
    """All integer combinations of the generators, reduced mod the factors."""
    points = np.zeros((1, len(factors)), dtype=np.int64)
    for g in generators:
        order = math.lcm(*(n // math.gcd(c, n) for c, n in zip(g, factors)))
        steps = np.arange(order)[:, None] * np.asarray(g)[None, :]
        points = (points[:, None, :] + steps[None, :, :]).reshape(-1, len(factors))
        points = np.unique(points % np.asarray(factors), axis=0)
    return points


def check_group(ref: Reference, text: str) -> str | None:
    wl = ref.workload
    sizes = wl.sizes
    obj = json.loads(text)
    factors = np.asarray(wl.factors)
    members = np.asarray(obj["cosets"]["members"], dtype=np.int64)
    reps = np.asarray(obj["cosets"]["representatives"], dtype=np.int64)
    expected_shape = (sizes["size.n_cosets"], sizes["size.subgroup_order"], len(wl.factors))
    if obj["cosets"]["count"] != sizes["size.n_cosets"] or members.shape != expected_shape:
        return f"cosets have shape {members.shape}, expected {expected_shape}"
    flat = np.ravel_multi_index(tuple(members.reshape(-1, len(wl.factors)).T), wl.factors)
    if len(np.unique(flat)) != sizes["size.group_order"]:
        return "cosets do not partition the group"
    offsets = ((members - reps[:, None, :]) % factors).reshape(-1, len(wl.factors))
    subgroup = _subgroup_points(wl.factors, wl.generators)
    if len(subgroup) != sizes["size.subgroup_order"]:
        return f"generators span {len(subgroup)} elements, expected {sizes['size.subgroup_order']}"
    inside = np.isin(
        np.ravel_multi_index(tuple(offsets.T), wl.factors),
        np.ravel_multi_index(tuple(subgroup.T), wl.factors),
    )
    if not inside.all():
        return "a coset member differs from its representative outside H"
    if obj["subgroup"]["order"] != sizes["size.subgroup_order"]:
        return f"subgroup order {obj['subgroup']['order']}"
    annihilator = np.asarray(obj["annihilator"]["elements"], dtype=np.int64)
    order = obj["annihilator"]["order"]
    distinct = len({tuple(y) for y in annihilator.tolist()})
    if order != sizes["size.hperp_order"] or distinct != order:
        return f"annihilator has order {order} with {distinct} distinct elements"
    if pairing_exponents(wl.factors, annihilator, wl.generators).any():
        return "an annihilator element pairs nontrivially with H"
    return None


def check_build(ref: Reference, text: str) -> str | None:
    wl = ref.workload
    obj = json.loads(text)
    n_cosets = wl.sizes["size.n_cosets"]
    got = (obj["dimension"], obj["n_cosets"], obj["e_dim"], obj["admits"])
    want = (wl.sizes["size.rep_dim"], n_cosets, wl.scenario["e_dim"], True)
    if got != want:
        return f"(dimension, n_cosets, e_dim, admits) = {got}, expected {want}"
    if len(obj["sectors"]) != len(wl.extra["weights"]):
        return f"{len(obj['sectors'])} sectors, expected {len(wl.extra['weights'])}"
    # One occupied dual coset carries class weight 1, so the lift puts
    # 1/|G/H| on each character and the density is weight * |G/H|.
    for sector, weights in zip(obj["sectors"], wl.extra["weights"]):
        points = [tuple(p) for p, _ in sector["densities"]]
        if points != [x for x, _ in weights]:
            return f"density points {points} do not match the support"
        for (_, density), (x, w) in zip(sector["densities"], weights):
            if abs(density - w * n_cosets) > ATOL * max(1.0, w * n_cosets):
                return f"density at {x} is {density}, expected {w * n_cosets}"
    return None


def check_matrix(ref: Reference, text: str) -> str | None:
    got = iojson.matrix_from_json(json.loads(text))
    want = ref.matrix
    if got.shape != want.shape:
        return f"matrix has shape {got.shape}, expected {want.shape}"
    dev = float(np.abs(got - want).max())
    if dev > ATOL:
        return f"matrix differs from the intertwiner route by {dev:.3e}"
    if np.all(ref.workload.omega == 1):
        dev = float(np.abs(got - np.eye(got.shape[0])).max())
        if dev > ATOL:
            return f"constant-omega matrix differs from the identity by {dev:.3e}"
    return None


def check_sample(ref: Reference, text: str) -> str | None:
    lines = text.splitlines()
    n_cosets = ref.workload.sizes["size.n_cosets"]
    if lines[0] != "outcome,count" or len(lines) != n_cosets + 1:
        return f"expected a header and {n_cosets} rows, got {len(lines)} lines"
    rows = [tuple(int(v) for v in line.split(",")) for line in lines[1:]]
    if [i for i, _ in rows] != list(range(n_cosets)):
        return "outcomes are not 0..n-1 in order"
    counts = np.array([c for _, c in rows], dtype=float)
    n = ref.workload.extra["draws"]
    if counts.sum() != n:
        return f"counts sum to {counts.sum():.0f}, expected {n}"
    probs = ref.born
    if abs(probs.sum() - 1.0) > ATOL:
        return f"reference probabilities sum to {probs.sum()}"
    sigma = np.sqrt(n * np.clip(probs * (1 - probs), 0.0, None))
    excess = np.abs(counts - n * probs) - (SIGMAS * sigma + 1.0)
    if (excess > 0).any():
        i = int(excess.argmax())
        return f"outcome {i}: count {counts[i]:.0f}, Born mean {n * probs[i]:.1f} +- {sigma[i]:.1f}"
    return None


CHECKS = {
    "verify": check_verify,
    "group": check_group,
    "build": check_build,
    "matrix": check_matrix,
    "sample": check_sample,
}


def check_commands(ref: Reference, commands: list[dict], outputs) -> list[str | None]:
    """One verdict per command: None when its exit code and output are
    right, else the reason. ``outputs`` maps an output digest to its text;
    each distinct output is checked once. Sampling with one seed must
    repeat byte for byte, so all sample commands share one digest."""
    verdicts: dict[tuple[str, str], str | None] = {}
    sample_digests = {c["digest"] for c in commands if c["name"] == "sample"}
    result = []
    for command in commands:
        if command["code"] != 0:
            result.append(f"exit code {command['code']!r}: {command['stderr'].strip()[-300:]}")
            continue
        if command["name"] == "sample" and len(sample_digests) > 1:
            result.append(f"sample output differs between runs of one seed ({len(sample_digests)} variants)")
            continue
        key = (command["name"], command["digest"])
        if key not in verdicts:
            try:
                verdicts[key] = CHECKS[command["name"]](ref, outputs(command["digest"]))
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                verdicts[key] = f"malformed output: {exc!r}"
        result.append(verdicts[key])
    return result
