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
from collections.abc import Sequence
from dataclasses import dataclass
from functools import partial
from itertools import chain
from operator import itemgetter

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
    FieldTable,
    IsometryField,
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


def pairs_to_json(array) -> np.ndarray:
    """The float array of the array's shape with a last axis [re, im]: the
    same floats as complex_to_pair. :func:`dumps` writes it as nested
    [re, im] lists; ``tolist()`` gives those lists."""
    a = np.asarray(array, dtype=complex)
    return np.stack((a.real, a.imag), axis=-1)


def matrix_to_json(matrix) -> dict:
    """Rows, cols and the row-major entries as a (rows * cols, 2) float array
    of [re, im] pairs, written by :func:`dumps` (the stock encoder rejects
    the array)."""
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
    return _complex_values(entries).reshape(rows, cols)


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
    values = _complex_values(obj["values"])
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
    return _complex_values(obj["state"])


def partition_from_json(obj) -> list:
    """The cells of a partition file; ``born_distribution`` checks the
    entries."""
    if "partition" not in obj:
        raise ValueError("partition file must carry a 'partition' list")
    return obj["partition"]


@dataclass(frozen=True, eq=False)
class Scenario:
    """Parsed build request: group, subgroup, diagonal rep, isometry fields."""

    group: FiniteAbelianGroup
    subgroup: Subgroup
    rep: DiagonalRep
    e_dim: int
    fields: Sequence[IsometryField]

    def build(self, atol: float = DEFAULT_ATOL) -> CovariantPOVM:
        return build_covariant_povm(
            self.rep, self.subgroup, self.fields, self.e_dim, atol=atol
        )


def scenario_from_json(obj) -> Scenario:
    """Read a scenario into arrays, checking each list in bulk (README lists
    the checks); a failure raises ``ValueError`` naming the sector and the
    point. Whether the fields fit the sectors is checked by the build."""
    version = obj.get("spec_version")
    if version != SPEC_VERSION:
        raise ValueError(
            f"scenario must declare 'spec_version': {SPEC_VERSION}, got {version!r}"
        )
    group = group_from_json(obj["group"])
    subgroup = subgroup_from_json(group, obj.get("subgroup", {}))
    e_dim = _as_int(obj["e_dim"], "e_dim")
    f_dims = [s["f_dim"] for s in obj["sectors"]]
    f_dims = _checked(f_dims, {int}, partial(_as_int, what="f_dim"), lambda k: f" (sector {k})")
    sectors, coords, weights = _pairs([s["support"] for s in obj["sectors"]], "support entry")
    where = _locator(sectors, coords)
    indices = _indices(group, coords, sectors, where)
    weights = _checked(weights, {int, float}, partial(_as_real, what="support weight"), where)
    weights = np.array(weights, dtype=float)
    for bad, what in ((~np.isfinite(weights), "non-finite"), (weights < 0.0, "negative")):
        if bad.any():
            raise ValueError(f"{what} weight {weights[bad][0]}{where(np.argmax(bad))}")
    kept = weights > 0.0
    rep = DiagonalRep.of_arrays(group, sectors[kept], indices[kept], weights[kept], f_dims)

    declared = [f["sector"] for f in obj["fields"]]
    declared = _checked(
        declared, {int}, partial(_as_int, what="field sector"), lambda k: f" (field {k})"
    )
    declared = np.array(declared, dtype=np.int64)
    owners, coords, matrices = _pairs([f["matrices"] for f in obj["fields"]], "matrices entry")
    where = _locator(declared[owners], coords)
    indices = _indices(group, coords, owners, where)
    fields = FieldTable(group, declared, owners, indices, *_matrices(matrices, where))
    return Scenario(group, subgroup, rep, e_dim, fields)


def _locator(sectors, coords: list):
    """where(i): the sector and the listed point of entry i, for messages."""
    return lambda i: f" (sector {sectors[i]}, point {coords[i]!r})"


def _checked(values: list, types: set, coerce, where) -> list:
    """The values if all have one of the types, else each passed through
    ``coerce``; a ``ValueError`` from it gets where(i) appended."""
    if set(map(type, values)) <= types:
        return values
    out = []
    for i, value in enumerate(values):
        try:
            out.append(coerce(value))
        except ValueError as exc:
            raise ValueError(f"{exc}{where(i)}") from None
    return out


def _pairs(lists: list, what: str) -> tuple[np.ndarray, list, list]:
    """Position of the list each [point, value] pair is in, the points and
    the values, over one list per sector or field."""
    flat = list(chain.from_iterable(lists))
    if set(map(len, flat)) - {2}:
        raise ValueError(f"each {what} must be a [point, value] pair")
    owners = np.repeat(np.arange(len(lists)), list(map(len, lists)))
    return owners, list(map(itemgetter(0), flat)), list(map(itemgetter(1), flat))


def _indices(group: FiniteAbelianGroup, coords: list, owners: np.ndarray, where) -> np.ndarray:
    """Group index of each coordinate row (``rank`` integers, bools
    rejected), reduced mod the factors; a point listed twice for one owner
    raises ``ValueError``."""
    if set(map(len, coords)) - {group.rank}:
        i = next(i for i, row in enumerate(coords) if len(row) != group.rank)
        message = f"coordinate tuple {tuple(coords[i])} does not match factors {group.factors}"
        raise ValueError(message + where(i))
    flat = list(chain.from_iterable(coords))
    coerce = partial(_as_int, what="coordinate")
    flat = _checked(flat, {int}, coerce, lambda j: where(j // group.rank))
    try:
        flat = np.array(flat, dtype=np.int64)
    except OverflowError:  # reduce huge integers first
        flat = np.array([c % n for c, n in zip(flat, group.factors * len(coords))], dtype=np.int64)
    indices = group.ravel(flat.reshape(-1, group.rank))
    keys = owners * group.order + indices
    order = np.argsort(keys, kind="stable")
    repeated = order[1:][keys[order[1:]] == keys[order[:-1]]]
    if len(repeated):
        i = repeated.min()
        raise ValueError(f"point {group.coords[indices[i]].tolist()} is listed twice{where(i)}")
    return indices


def _matrices(matrices: list, where) -> tuple[np.ndarray, np.ndarray]:
    """The (rows, cols) shape of each matrix, given as rows of [re, im]
    pairs, and all entries row-major, matrix after matrix, in one complex
    array: a view of the float pairs, exact to the signed zero."""
    n_rows = np.array(list(map(len, matrices)), dtype=np.int64)
    rows = list(chain.from_iterable(matrices))
    n_cols = np.array(list(map(len, rows)), dtype=np.int64)
    cols = np.where(n_rows > 0, np.append(n_cols, 0)[np.cumsum(n_rows) - n_rows], 0)
    matrix_of = np.repeat(np.arange(len(matrices)), n_rows)  # of each row
    ragged = np.flatnonzero(n_cols != np.repeat(cols, n_rows))
    if len(ragged):
        raise ValueError(f"isometry matrix rows differ in length{where(matrix_of[ragged[0]])}")
    data = _complex_values(
        list(chain.from_iterable(rows)), lambda j: where(np.repeat(matrix_of, n_cols)[j])
    )
    return np.stack((n_rows, cols), axis=1), data


def _complex_values(pairs, where=lambda i: "") -> np.ndarray:
    """The complex numbers of a list of [re, im] pairs, or of the (n, 2)
    float64 array :func:`pairs_to_json` returns: a complex view of a fresh
    float copy, exact to the signed zero. Otherwise the first pair that is
    not two real numbers is named by ``pair_to_complex``, with where(i)
    appended."""
    if isinstance(pairs, np.ndarray) and pairs.dtype == np.float64 and pairs.shape[1:] == (2,):
        return np.array(pairs, order="C").view(complex)[:, 0]
    regular = set(map(type, pairs)) <= {list} and set(map(len, pairs)) <= {2}
    leaves = list(chain.from_iterable(pairs)) if regular else []
    if regular and set(map(type, leaves)) <= {int, float}:
        return np.array(leaves, dtype=float).view(complex)
    return np.array(_checked(pairs, set(), pair_to_complex, where), dtype=complex)


def scenario_to_json(scenario: Scenario) -> dict:
    """The JSON form of a scenario, written from its arrays: supports and
    matrices in basis order."""
    group, table = scenario.rep.group, scenario.rep.support_table
    points = group.coords[table.indices].tolist()
    supports = table.per_sector([list(entry) for entry in zip(points, table.weights.tolist())])
    fields = FieldTable.of(group, scenario.fields)
    pairs, matrices = pairs_to_json(fields.data).tolist(), [[] for _ in fields.sectors]
    entries = zip(
        fields.owners.tolist(), group.coords[fields.indices].tolist(),
        fields.starts.tolist(), fields.shapes.tolist(),
    )
    for owner, point, start, (n_rows, n_cols) in sorted(entries):
        rows = [pairs[start + r * n_cols : start + (r + 1) * n_cols] for r in range(n_rows)]
        matrices[owner].append([point, rows])
    return {
        "spec_version": SPEC_VERSION,
        "group": group_to_json(scenario.group),
        "subgroup": subgroup_to_json(scenario.subgroup),
        "e_dim": scenario.e_dim,
        "sectors": [
            {"f_dim": f, "support": support}
            for f, support in zip(table.sector_f_dims.tolist(), supports)
        ],
        "fields": [{"sector": k, "matrices": m} for k, m in zip(fields.sectors.tolist(), matrices)],
    }


def report_to_json(report: VerificationReport, tolerance: float) -> dict:
    return {
        "spec_version": SPEC_VERSION,
        "tolerance": tolerance,
        **report.as_dict(),
    }


# --- writer ------------------------------------------------------------------
#
# dumps(obj) == json.dumps(obj, indent=2, default=f), where f turns a numpy
# array into its tolist() and rejects anything else. With an indent set,
# Python's json module encodes in pure Python, one generator step per value.
# The bulk of the CLI's output is numeric blocks (coordinate tables, [re, im]
# entries), and they reach the writer as arrays: a non-empty int or float
# array is written from its shape, by one "%" template that holds the
# indented text with a %d or %r per leaf, filled by one "%" call. Lists and
# everything else follow the pure-Python encoder's rules, which _encode
# copies; there is no compact encoder.

_quote = json.encoder.encode_basestring_ascii
_default = json.JSONEncoder().default


def dumps(obj) -> str:
    """JSON text equal to ``json.dumps(obj, indent=2)``, errors included;
    a numpy array is written as its ``tolist()``."""
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
    elif isinstance(o, np.ndarray):
        _encode_array(o, level, out, markers)
    else:
        _default(o)  # raises the stock TypeError


def _enter(o, markers: dict) -> int:
    key = id(o)
    if key in markers:
        raise ValueError("Circular reference detected")
    markers[key] = o
    return key


def _encode_array(a: np.ndarray, level: int, out: list, markers: dict) -> None:
    """A non-empty int or float array of one or more dims from its shape;
    any other array (0-d, empty, bool, complex, object, long double, a
    subclass, or holding NaN or inf) as its ``tolist()``."""
    kind = a.dtype.kind
    if type(a) is np.ndarray and a.ndim and a.size and kind in "iuf" and a.dtype.itemsize <= 8:
        leaves = tuple(a.ravel().tolist())
        text = _shaped_text(a.shape, leaves, "%r" if kind == "f" else "%d", level)
        if text is not None:
            out.append(text)
            return
    key = _enter(a, markers)
    _encode(a.tolist(), level, out, markers)
    del markers[key]


def _encode_list(lst, level: int, out: list, markers: dict) -> None:
    if not lst:
        out.append("[]")
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


def _layout(level: int, depth: int) -> tuple[str, str, list[str]]:
    """Head, tail and separators of the indented text, at indent ``level``,
    of a list whose leaves sit ``depth`` deep: ``seps[k]`` goes between two
    leaves where k brackets close and reopen."""
    pad = ["\n" + "  " * (level + j) for j in range(depth + 1)]
    head = "".join("[" + pad[j] for j in range(1, depth + 1))
    tail = "".join(pad[j] + "]" for j in range(depth - 1, -1, -1))
    seps = [
        "".join(pad[depth - j] + "]" for j in range(1, k + 1))
        + ","
        + "".join(pad[depth - j] + "[" for j in range(k, 0, -1))
        + pad[depth]
        for k in range(depth)
    ]
    return head, tail, seps


def _shaped_text(shape: Sequence[int], leaves: tuple, fmt: str, level: int) -> str | None:
    """Indented text of a rectangular block of the given shape, its leaves
    row-major, from one template with ``fmt`` per leaf; None when a float
    leaf is not finite, which %r writes as nan or inf."""
    head, tail, seps = _layout(level, len(shape))
    block = fmt
    for n, sep in zip(reversed(shape), seps):
        block = sep.join([block] * n)
    text = (head + block + tail) % leaves
    return None if fmt == "%r" and "n" in text else text
