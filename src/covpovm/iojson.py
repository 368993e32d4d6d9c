"""JSON schemas for groups, measures, scenarios, matrices, and reports.

Complex numbers serialize as [re, im] pairs and matrices row-major, so
emitted files are bit-stable golden data. Every reader validates shapes
and reports offending keys; every writer emits deterministic orderings.
See BASIS.md for the basis conventions behind matrix dumps. :func:`dump`
writes every JSON text the CLI emits: the stock ``json.dumps(obj,
indent=2)`` text, with the numeric arrays' blocks spliced in from their
shapes, in pieces of bounded size.
"""

from __future__ import annotations

import json
import secrets
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import partial
from itertools import chain
from operator import itemgetter

import numpy as np

from .groups import FiniteAbelianGroup, Subgroup, _as_int, _as_real, subgroup_from_generators
from .harmonic import DOMAIN_DUAL_QUOTIENT
from .povm import (
    DEFAULT_ATOL,
    CovariantPOVM,
    DiagonalRep,
    FieldTable,
    IsometryField,
    VerificationReport,
    _multiplicities,
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
    [re, im] lists; ``tolist()`` gives those lists. For a C-contiguous
    complex128 array of ndim >= 1 it is a view that shares its memory."""
    a = np.asarray(array, dtype=complex)
    if a.ndim and a.flags.c_contiguous:
        return a.view(np.float64).reshape(*a.shape, 2)
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
    if not isinstance(obj, dict):
        raise ValueError(f"subgroup spec must be an object, got {type(obj).__name__}")
    gens = obj.get("generators", [])
    return subgroup_from_generators(group, [group.element(c) for c in gens])


def measure_to_json(weights) -> dict:
    """A measure on the dual quotient, given as its weight at each coset,
    as its nonzero [coset, weight] pairs in coset order."""
    weights = np.asarray(weights, dtype=float)
    support = np.flatnonzero(weights)
    pairs = zip(support.tolist(), weights[support].tolist())
    return {"domain": DOMAIN_DUAL_QUOTIENT, "weights": [list(pair) for pair in pairs]}


def quotient_function_from_json(obj) -> np.ndarray:
    if "values" not in obj:
        raise ValueError("quotient function file must carry a 'values' list")
    values = _complex_values(obj["values"])
    if not np.isfinite(values).all():
        raise ValueError("quotient function has non-finite values")
    return values


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
    if not isinstance(obj, dict):
        raise ValueError(f"scenario must be an object, got {type(obj).__name__}")
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
    indices, order = _indices(group, coords, sectors, where)
    weights = _checked(weights, {int, float}, partial(_as_real, what="support weight"), where)
    weights = np.array(weights, dtype=float)
    for bad, what in ((~np.isfinite(weights), "non-finite"), (weights < 0.0, "negative")):
        if bad.any():
            raise ValueError(f"{what} weight {weights[bad][0]}{where(np.argmax(bad))}")
    kept = order[weights[order] > 0.0]  # in basis order
    f_dims = _multiplicities(_int64(f_dims, "f_dim", lambda k: f" (sector {k})"))
    rep = DiagonalRep.of_sorted(group, sectors[kept], indices[kept], weights[kept], f_dims)

    declared = [f["sector"] for f in obj["fields"]]
    declared = _checked(
        declared, {int}, partial(_as_int, what="field sector"), lambda k: f" (field {k})"
    )
    declared = _int64(declared, "field sector", lambda k: f" (field {k})")
    owners, coords, matrices = _pairs([f["matrices"] for f in obj["fields"]], "matrices entry")
    where = _locator(declared[owners], coords)
    indices, _ = _indices(group, coords, owners, where)
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


def _indices(
    group: FiniteAbelianGroup, coords: list, owners: np.ndarray, where
) -> tuple[np.ndarray, np.ndarray]:
    """Group index of each coordinate row (``rank`` integers, bools
    rejected), reduced mod the factors, and the order that sorts the rows by
    owner, then group index; a point listed twice for one owner raises
    ``ValueError``."""
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
    return indices, order


def _int64(values: list, what: str, where) -> np.ndarray:
    """Integers as one int64 array; the first beyond int64 raises
    ``ValueError`` naming it, with where(i) appended."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        i = next(i for i, v in enumerate(values) if not -(2**63) <= v < 2**63)
        raise ValueError(f"{what} {values[i]} is outside [-2**63, 2**63){where(i)}") from None


def _matrices(matrices: list, where) -> tuple[np.ndarray, np.ndarray]:
    """The (rows, cols) shape of each matrix, given as rows of [re, im]
    pairs, and all entries row-major, matrix after matrix, in one complex
    array: a view of the float pairs, exact to the signed zero."""
    n_rows = np.array(list(map(len, matrices)), dtype=np.int64)
    rows = list(chain.from_iterable(matrices))
    n_cols = np.array(list(map(len, rows)), dtype=np.int64)
    cols = np.where(n_rows > 0, np.append(n_cols, 0)[np.cumsum(n_rows) - n_rows], 0)
    matrix_of = np.repeat(np.arange(len(matrices)), n_rows)  # of each row
    ragged = np.flatnonzero(n_cols != cols[matrix_of])
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
# dump(obj, fp) writes json.dumps(obj, indent=2, default=f), where f turns a
# numpy array into its tolist() and rejects anything else. The stock encoder
# writes everything but the numeric blocks (coordinate tables, [re, im]
# entries), which reach it as arrays: the hook hands it a placeholder string
# for each non-empty, finite int or float array, and the array's text goes
# where the placeholder was, written from its shape in pieces of whole
# axis-0 slices, each filled into a "%" template that holds the indented
# text with a %d or %0r per leaf. A float leaf that is +0.0 (the one float
# whose repr is 0.0) is not formatted: the template is kept as bytes, and
# while a piece is filled the slot of each of its +0.0 leaves, three
# characters like the text, holds 0.0, so the structural zeros of a block
# kernel cost three byte writes, not a repr. The placeholder is a string
# the stock encoder writes as "\u0000<nonce>\u0000" (NULs and a fresh random
# nonce per call); a value or key of obj whose text holds it shows up as one
# placeholder too many, and the skeleton is redone with a new nonce. All of
# this runs before the first piece is written, so a failing dump writes
# nothing.

_nonce = partial(secrets.token_hex, 8)
_default = json.JSONEncoder().default
_PIECE_LEAVES = 1 << 14  # leaves per piece of an array block, at least one slice


def dump(obj, fp) -> None:
    """Write the text of :func:`dumps` to the file object ``fp``, in pieces
    of bounded size; an object the encoder rejects raises before anything
    is written."""
    for piece in _pieces(obj):
        fp.write(piece)


def dumps(obj) -> str:
    """JSON text equal to ``json.dumps(obj, indent=2)``, errors included;
    a numpy array is written as its ``tolist()``."""
    return "".join(_pieces(obj))


def _pieces(obj) -> Iterator[str]:
    """The text of obj in pieces. The stock encoder's skeleton, with its
    errors, is built when this is called, not when the pieces are drawn."""
    marker, arrays = "\0%s\0" % _nonce(), []

    def hook(o):
        if not isinstance(o, np.ndarray):
            return _default(o)  # raises the stock TypeError
        kind = o.dtype.kind
        # A NaN makes the min NaN and an infinity is the min or the max, so
        # two reductions check finiteness with no temporary of the array's size.
        if (
            type(o) is np.ndarray and o.ndim and o.size and kind in "iuf"
            and o.dtype.itemsize <= 8 and (kind != "f" or np.isfinite([o.min(), o.max()]).all())
        ):
            arrays.append(o)
            return marker
        return o.tolist()

    parts = json.dumps(obj, indent=2, default=hook).split(json.dumps(marker))
    if len(parts) != len(arrays) + 1:  # obj itself writes the placeholder's text
        return _pieces(obj)
    return _spliced(parts, arrays)


def _spliced(parts: list[str], arrays: list[np.ndarray]) -> Iterator[str]:
    """The skeleton's parts with each array's block between two of them, at
    the indent of the line its placeholder was on."""
    yield parts[0]
    for before, a, after in zip(parts, arrays, parts[1:]):
        line = before[before.rfind("\n") + 1 :]
        yield from _shaped_pieces(a, (len(line) - len(line.lstrip(" "))) // 2)
        yield after


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


def _shaped_pieces(a: np.ndarray, level: int) -> Iterator[str]:
    """Indented text of a non-empty, finite int or float array at indent
    ``level``, in pieces of whole axis-0 slices, about ``_PIECE_LEAVES``
    leaves each: a bytes template with a %d or %0r (which formats as %r)
    per leaf, filled row-major. A float leaf that is +0.0 is not formatted:
    for its piece, its slot, three characters wide, holds the text 0.0."""
    head, tail, seps = _layout(level, a.ndim)
    floats = a.dtype.kind == "f"
    row = "%0r" if floats else "%d"
    for n, sep in zip(reversed(a.shape[1:]), seps):
        row = sep.join([row] * n)
    row, sep = row.encode(), seps[-1].encode()
    step = min(len(a), max(1, _PIECE_LEAVES * len(a) // a.size))  # slices per piece
    period = len(row) + len(sep)
    template = bytearray(row + sep) * step
    del template[len(template) - len(sep) :]
    # The offset of every slot in the template: those of one slice, repeated;
    # a shorter last piece's template and slots are prefixes of them.
    dtype = np.int32 if len(template) < 2**31 else np.int64
    in_row = np.flatnonzero(np.frombuffer(row, dtype=np.uint8) == ord("%")).astype(dtype)
    slots = np.add.outer(np.arange(step, dtype=dtype) * period, in_row).ravel()
    view = np.frombuffer(template, dtype=np.uint8)
    yield head
    for start in range(0, len(a), step):
        leaves = a[start : start + step].ravel()
        zero = (leaves == 0) & ~np.signbit(leaves) if floats else np.zeros(len(leaves), bool)
        if start:
            yield seps[-1]
        size = min(step, len(a) - start) * period - len(sep)
        yield _filled(template, view, size, slots[: len(zero)][zero], leaves[~zero])
    yield tail


def _filled(template: bytearray, view: np.ndarray, size: int, at: np.ndarray, leaves) -> str:
    """The first ``size`` bytes of the template, ``view`` its byte view,
    filled with the leaves, with the text 0.0 in place of the %0r slot at
    each offset in ``at``; the template is left as it was."""
    view[at], view[at + 1], view[at + 2] = b"0.0"
    filled = (template if size == len(template) else template[:size]) % tuple(leaves.tolist())
    view[at], view[at + 1], view[at + 2] = b"%0r"
    return filled.decode("ascii")
