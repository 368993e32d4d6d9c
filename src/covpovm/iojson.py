"""JSON schemas for groups, measures, scenarios, matrices, and reports.

Complex numbers serialize as [re, im] pairs and matrices row-major, so
emitted files are bit-stable golden data. Every reader validates shapes
and reports offending keys; every writer emits deterministic orderings.
See BASIS.md for the basis conventions behind matrix dumps. :func:`dumps`
writes every JSON text the CLI emits.
"""

from __future__ import annotations

import json
import math
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


def pairs_to_json(array) -> list:
    """Nested lists of the array's shape whose innermost entries are [re, im]
    pairs: one stack and one ``tolist``, the same floats as complex_to_pair."""
    a = np.asarray(array, dtype=complex)
    return np.stack((a.real, a.imag), axis=-1).tolist()


def vector_from_json(obj) -> np.ndarray:
    return np.array([pair_to_complex(p) for p in obj], dtype=complex)


def matrix_to_json(matrix) -> dict:
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {m.shape}")
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "entries": pairs_to_json(m.reshape(-1)),
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
            matrices.append([list(x.coords), pairs_to_json(field.matrices[x])])
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


# --- writer ------------------------------------------------------------------
#
# dumps(obj) == json.dumps(obj, indent=2). With an indent set, Python's json
# module encodes in pure Python, one generator step per value. The bulk of
# the CLI's output is lists of numbers (coordinate rows, [re, im] entries),
# so those subtrees go through the C encoder in one compact call and are
# re-indented by string replacement; everything else follows the pure-Python
# encoder's rules, which _encode copies.

_compact = json.JSONEncoder(separators=(",", ":")).encode
_quote = json.encoder.encode_basestring_ascii
_default = json.JSONEncoder().default
_NOT_NUMBER = (str, list, tuple, dict)


def dumps(obj) -> str:
    """JSON text equal to ``json.dumps(obj, indent=2)``, errors included."""
    out: list[str] = []
    _encode(obj, 0, out, {})
    return "".join(out)


def _float_text(x: float) -> str:
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _encode(o, level: int, out: list, markers: dict) -> None:
    if isinstance(o, str):
        out.append(_quote(o))
    elif o is None:
        out.append("null")
    elif o is True:
        out.append("true")
    elif o is False:
        out.append("false")
    elif isinstance(o, int):
        out.append(int.__repr__(o))
    elif isinstance(o, float):
        out.append(_float_text(o))
    elif isinstance(o, (list, tuple)):
        _encode_list(o, level, out, markers)
    elif isinstance(o, dict):
        _encode_dict(o, level, out, markers)
    else:
        _default(o)  # raises the stock TypeError


def _enter(o, markers: dict) -> int:
    key = id(o)
    if key in markers:
        raise ValueError("Circular reference detected")
    markers[key] = o
    return key


def _encode_list(lst, level: int, out: list, markers: dict) -> None:
    if not lst:
        out.append("[]")
        return
    chunks = _numeric_list_chunks(lst, level)
    if chunks is not None:
        out.extend(chunks)
        return
    key = _enter(lst, markers)
    inner = "\n" + "  " * (level + 1)
    sep = "[" + inner
    for value in lst:
        out.append(sep)
        _encode(value, level + 1, out, markers)
        sep = "," + inner
    out.append("\n" + "  " * level + "]")
    del markers[key]


def _encode_dict(dct, level: int, out: list, markers: dict) -> None:
    if not dct:
        out.append("{}")
        return
    marker = _enter(dct, markers)
    inner = "\n" + "  " * (level + 1)
    sep = "{" + inner
    for key, value in dct.items():
        if isinstance(key, str):
            pass
        elif isinstance(key, float):
            key = _float_text(key)
        elif key is True:
            key = "true"
        elif key is False:
            key = "false"
        elif key is None:
            key = "null"
        elif isinstance(key, int):
            key = int.__repr__(key)
        else:
            raise TypeError(
                f"keys must be str, int, float, bool or None, not {key.__class__.__name__}"
            )
        out.append(sep + _quote(key) + ": ")
        _encode(value, level + 1, out, markers)
        sep = "," + inner
    out.append("\n" + "  " * level + "}")
    del markers[marker]


def _numeric_list_chunks(lst, level: int) -> tuple[str, str, str] | None:
    """Indented text, as head, body and tail, of a non-empty list whose
    leaves are all numbers at one depth d, with no empty list (numbers,
    coordinate rows, [re, im] entries, rows of pairs), from one compact
    C-encoder call; None for any other list. Each large intermediate string
    is dropped as soon as the next exists, which keeps peak memory at about
    two copies of the text.

    The first and last items pick d, and the compact text proves it. Without
    a ``"`` it holds no string and no non-empty dict (an empty dict is
    ``{}`` either way), so its brackets are structure only. Inside the
    outer d brackets, each bracket must then sit in a run of k closing
    brackets, a comma and k opening ones (0 < k < d) between two sibling
    lists at depth d - k."""
    depth, first, last = 0, lst, lst
    while isinstance(first, (list, tuple)) and first:
        if not (isinstance(last, (list, tuple)) and last):
            return None
        depth, first, last = depth + 1, first[0], last[-1]
    if isinstance(first, _NOT_NUMBER) or isinstance(last, _NOT_NUMBER):
        return None
    try:
        text = _compact(lst)
    except (TypeError, ValueError):
        return None  # the general path raises the stock error and message
    if '"' in text or "[]" in text:
        return None
    body = text[depth:-depth]
    del text
    rest = body
    for k in range(depth - 1, 0, -1):
        rest = rest.replace("]" * k + "," + "[" * k, ",")
    if "[" in rest:  # brackets left over pair up, so a "]" implies a "["
        return None
    del rest
    pad = ["\n" + "  " * (level + j) for j in range(depth + 1)]
    body = body.replace(",", "," + pad[depth])
    for k in range(depth - 1, 0, -1):
        close = "".join(pad[depth - j] + "]" for j in range(1, k + 1))
        reopen = "".join(pad[depth - j] + "[" for j in range(k, 0, -1))
        body = body.replace(
            "]" * k + "," + pad[depth] + "[" * k, close + "," + reopen + pad[depth]
        )
    head = "".join("[" + pad[j] for j in range(1, depth + 1))
    tail = "".join(pad[j] + "]" for j in range(depth - 1, -1, -1))
    return head, body, tail
