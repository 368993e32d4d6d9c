"""JSON schemas for groups, measures, scenarios, matrices, and reports.

Complex numbers serialize as [re, im] pairs and matrices row-major, so
emitted files are bit-stable golden data. Every reader validates shapes
and reports offending keys; every writer emits deterministic orderings.
See BASIS.md for the basis conventions behind matrix dumps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .groups import FiniteAbelianGroup, Subgroup, _as_int, _as_real, subgroup_from_generators
from .harmonic import (
    DOMAIN_DUAL,
    DOMAIN_DUAL_QUOTIENT,
    DOMAIN_QUOTIENT,
    WeightedMeasure,
)
from .povm import (
    DEFAULT_ATOL,
    CovariantPOVM,
    DiagonalRep,
    IsometryField,
    SectorSpec,
    VerificationReport,
    build_covariant_povm,
)

SPEC_VERSION = 1


def complex_to_pair(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def pair_to_complex(pair) -> complex:
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise ValueError(f"expected a [re, im] pair, got {pair!r}")
    return complex(_as_real(pair[0], "real part"), _as_real(pair[1], "imaginary part"))


def vector_to_json(vec) -> list:
    return [complex_to_pair(z) for z in np.asarray(vec, dtype=complex).reshape(-1)]


def vector_from_json(obj) -> np.ndarray:
    return np.array([pair_to_complex(p) for p in obj], dtype=complex)


def matrix_to_json(matrix) -> dict:
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {m.shape}")
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "entries": [complex_to_pair(z) for z in m.reshape(-1)],
    }


def matrix_from_json(obj) -> np.ndarray:
    rows, cols = _as_int(obj["rows"], "rows"), _as_int(obj["cols"], "cols")
    entries = obj["entries"]
    if len(entries) != rows * cols:
        raise ValueError(
            f"matrix claims {rows}x{cols} but carries {len(entries)} entries"
        )
    flat = np.array([pair_to_complex(p) for p in entries], dtype=complex)
    return flat.reshape(rows, cols)


def group_to_json(group: FiniteAbelianGroup) -> dict:
    return {"factors": list(group.factors)}


def group_from_json(obj) -> FiniteAbelianGroup:
    if "factors" not in obj:
        raise ValueError("group spec must carry a 'factors' list")
    return FiniteAbelianGroup(tuple(obj["factors"]))


def subgroup_to_json(subgroup: Subgroup) -> dict:
    return {"generators": [list(g.coords) for g in subgroup.generators]}


def subgroup_from_json(group: FiniteAbelianGroup, obj) -> Subgroup:
    gens = obj.get("generators", [])
    return subgroup_from_generators(group, [group.element(c) for c in gens])


def measure_to_json(measure: WeightedMeasure) -> dict:
    if measure.domain == DOMAIN_DUAL:
        weights = [[list(x.coords), w] for x, w in measure.items()]
    elif measure.domain in (DOMAIN_DUAL_QUOTIENT, DOMAIN_QUOTIENT):
        weights = [[int(i), w] for i, w in measure.items()]
    else:
        raise ValueError(f"domain {measure.domain!r} has no JSON form")
    return {"domain": measure.domain, "weights": weights}


def measure_from_json(group: FiniteAbelianGroup, obj) -> WeightedMeasure:
    domain = obj.get("domain")
    weights = {}
    for point, w in obj.get("weights", []):
        if domain == DOMAIN_DUAL:
            key = group.character(point)
        elif domain in (DOMAIN_DUAL_QUOTIENT, DOMAIN_QUOTIENT):
            key = _as_int(point, "coset index")
        else:
            raise ValueError(f"unknown measure domain {domain!r}")
        weights[key] = _as_real(w, "measure weight")
    return WeightedMeasure(domain, weights)


def quotient_function_from_json(obj) -> np.ndarray:
    if "values" not in obj:
        raise ValueError("quotient function file must carry a 'values' list")
    values = vector_from_json(obj["values"])
    if not np.isfinite(values).all():
        raise ValueError("quotient function has non-finite values")
    return values


def trig_polynomial_to_json(poly) -> dict:
    return {
        "coeffs": [[n, complex_to_pair(c)] for n, c in sorted(poly.coeffs.items())]
    }


def trig_polynomial_from_json(obj):
    from .observables import TrigPolynomial

    return TrigPolynomial(
        {_as_int(n, "frequency"): pair_to_complex(c) for n, c in obj.get("coeffs", [])}
    )


def state_from_json(obj) -> np.ndarray:
    if "state" not in obj:
        raise ValueError("state file must carry a 'state' list")
    return vector_from_json(obj["state"])


def partition_from_json(obj) -> list[list[int]]:
    if "partition" not in obj:
        raise ValueError("partition file must carry a 'partition' list")
    return [[_as_int(i, "partition entry") for i in cell] for cell in obj["partition"]]


@dataclass(frozen=True, eq=False)
class Scenario:
    """Parsed build request: group, subgroup, diagonal rep, isometry fields."""

    group: FiniteAbelianGroup
    subgroup: Subgroup
    rep: DiagonalRep
    e_dim: int
    fields: tuple[IsometryField, ...]

    def build(self, atol: float = DEFAULT_ATOL) -> CovariantPOVM:
        return build_covariant_povm(
            self.rep, self.subgroup, self.fields, self.e_dim, atol=atol
        )


def scenario_from_json(obj) -> Scenario:
    version = obj.get("spec_version")
    if version != SPEC_VERSION:
        raise ValueError(
            f"scenario must declare 'spec_version': {SPEC_VERSION}, got {version!r}"
        )
    group = group_from_json(obj["group"])
    subgroup = subgroup_from_json(group, obj.get("subgroup", {}))
    e_dim = _as_int(obj["e_dim"], "e_dim")
    sectors = []
    for entry in obj["sectors"]:
        weights = {group.character(c): _as_real(w, "support weight") for c, w in entry["support"]}
        f_dim = _as_int(entry["f_dim"], "f_dim")
        sectors.append(SectorSpec(WeightedMeasure(DOMAIN_DUAL, weights), f_dim))
    rep = DiagonalRep(group, tuple(sectors))
    fields = []
    for entry in obj["fields"]:
        matrices = {}
        for coords, rows in entry["matrices"]:
            matrices[group.character(coords)] = np.array(
                [[pair_to_complex(p) for p in row] for row in rows], dtype=complex
            )
        fields.append(IsometryField(_as_int(entry["sector"], "field sector"), matrices))
    return Scenario(group, subgroup, rep, e_dim, tuple(fields))


def scenario_to_json(scenario: Scenario) -> dict:
    sectors = []
    for spec in scenario.rep.sectors:
        sectors.append(
            {
                "f_dim": spec.f_dim,
                "support": [[list(x.coords), w] for x, w in spec.rho.items()],
            }
        )
    fields = []
    for field in scenario.fields:
        matrices = []
        for x in sorted(field.matrices):
            rows = [
                [complex_to_pair(z) for z in row]
                for row in np.asarray(field.matrices[x], dtype=complex)
            ]
            matrices.append([list(x.coords), rows])
        fields.append({"sector": field.sector, "matrices": matrices})
    return {
        "spec_version": SPEC_VERSION,
        "group": group_to_json(scenario.group),
        "subgroup": subgroup_to_json(scenario.subgroup),
        "e_dim": scenario.e_dim,
        "sectors": sectors,
        "fields": fields,
    }


def report_to_json(report: VerificationReport, tolerance: float) -> dict:
    return {
        "spec_version": SPEC_VERSION,
        "tolerance": tolerance,
        **report.as_dict(),
    }
