"""JSON schemas for groups, measures, scenarios, matrices, and reports.

Complex numbers serialize as [re, im] pairs and matrices row-major, so
emitted files are bit-stable golden data. Every reader validates shapes
and reports offending keys; every writer emits deterministic orderings.
See BASIS.md for the basis conventions behind matrix dumps. :func:`dump`
writes every JSON text the CLI emits: the stock ``json.dumps(obj,
indent=2)`` text, with the blocks of numeric arrays and :class:`Records`
tables spliced in from templates, in pieces of bounded size.
"""

from __future__ import annotations

import json
import secrets
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass, field
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
    PovmBuildError,
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
    as its nonzero [coset, weight] pairs in coset order: a :class:`Records`
    table of int cosets and float weights."""
    weights = np.asarray(weights, dtype=float)
    support = np.flatnonzero(weights)
    return {"domain": DOMAIN_DUAL_QUOTIENT, "weights": Records([support, weights[support]])}


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
    """Parsed build request: group, subgroup, diagonal rep, isometry fields,
    and the (sector, group index) keys, sector * |G| + index, of the points
    listed with weight 0, which the rep leaves out."""

    group: FiniteAbelianGroup
    subgroup: Subgroup
    rep: DiagonalRep
    e_dim: int
    fields: Sequence[IsometryField]
    zero_weight: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))

    def build(self, atol: float = DEFAULT_ATOL) -> CovariantPOVM:
        """The POVM; a field matrix at a point listed with weight 0 is
        rejected as such, not as a matrix outside the support."""
        try:
            return build_covariant_povm(
                self.rep, self.subgroup, self.fields, self.e_dim, atol=atol
            )
        except PovmBuildError as exc:
            sector, point = exc.details.get("sector"), exc.details.get("point")
            if exc.details["error"] != _OUTSIDE or self._key(sector, point) not in self.zero_weight:
                raise
            message = "isometry field has a matrix at a point listed with weight 0"
            message += f" (sector {sector}, point {point})"
            raise PovmBuildError(message, sector=sector, point=point, weight=0.0) from None

    def _key(self, sector: int, point: list) -> int:
        return sector * self.group.order + int(self.group.ravel(np.array([point]))[0])


_OUTSIDE = "isometry field has a matrix outside its sector's support"


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
    positive = weights > 0.0
    kept = order[positive[order]]  # in basis order
    zero = (sectors * group.order + indices)[~positive]
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
    return Scenario(group, subgroup, rep, e_dim, fields, zero)


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
# numpy array or a Records table into its tolist() and rejects anything
# else. The stock encoder writes everything but the numeric blocks, which
# reach it as arrays (coordinate tables, [re, im] entries) or as Records
# (build's sector and class-measure tables): the hook hands it a placeholder
# string for each non-empty, finite int or float block, and the block's text
# goes where the placeholder was, at the indent of the placeholder's line,
# in pieces of about _PIECE_LEAVES leaves, each filled into a "%" template
# that holds the indented text with a slot per leaf.
#
# An array is written from its shape, in pieces of whole axis-0 slices. Its
# bytes template is built once per dump for each leaf format, inner shape
# and indent; a block of fewer slices fills a prefix. A float leaf that is
# +0.0 (the one float whose repr is 0.0) is not formatted: while a piece is
# filled, the %0r slot of each of its +0.0 leaves, three characters like the
# text, holds 0.0, so the structural zeros of a block kernel cost three byte
# writes, not a repr. An int block whose values span fewer integers than it
# has leaves formats each integer of the span once and fills %s slots from
# that table, not %d per leaf.
#
# A Records table is written in pieces of whole records, from one str
# template per record layout (per count of its ragged column), with a %d or
# %r per leaf; the leaves of a piece are put in record order by index
# arithmetic on the columns, not by a loop over the records.
#
# The placeholder is a string the stock encoder writes as
# "\u0000<nonce>\u0000" (NULs and a fresh random nonce per call); a value or
# key of obj whose text holds it shows up as one placeholder too many, and
# the skeleton is redone with a new nonce. All of this runs before the first
# piece is written, so a failing dump writes nothing.

_nonce = partial(secrets.token_hex, 8)
_default = json.JSONEncoder().default
_PIECE_LEAVES = 1 << 14  # leaves per piece of a block, at least one slice or record


class Records:
    """A JSON list of records given as columns, which :func:`dump` writes
    from one ``%`` template per record layout. ``columns`` maps keys to
    columns, and each record is an object, or lists the columns, and each
    record is a list. A column is a 1-d array (one number per record), a 2-d
    one (a list of that many numbers per record) or, at most one of them, a
    :class:`Records` without counts, the ragged column: record i holds the
    next ``counts[i]`` of its records. :meth:`tolist` gives the lists that
    ``json.dumps`` writes to the same text."""

    def __init__(self, columns: Mapping | Sequence, counts=None):
        self.keys = list(columns) if isinstance(columns, Mapping) else None
        columns = columns.values() if self.keys is not None else columns
        self.columns = [c if isinstance(c, Records) else np.asarray(c) for c in columns]
        self.counts = None if counts is None else np.asarray(counts, dtype=np.int64)
        ragged = [c for c in self.columns if isinstance(c, Records)]
        nested = any(r.counts is not None for r in ragged)
        if not self.columns or len(ragged) != (counts is not None) or nested:
            raise ValueError("a record table needs columns, and counts for its one ragged column")
        lengths = {len(self)} | {len(c) for c in self.columns if not isinstance(c, Records)}
        if len(lengths) != 1 or ragged and len(ragged[0]) != self.counts.sum():
            raise ValueError("the columns of a record table differ in length")

    def __len__(self) -> int:
        if self.counts is not None:
            return len(self.counts)
        return len(self.columns[0])

    def tolist(self) -> list:
        values = []
        for column in self.columns:
            if isinstance(column, Records):
                rows, ends = column.tolist(), np.cumsum(self.counts).tolist()
                values.append([rows[a:b] for a, b in zip([0, *ends[:-1]], ends)])
            else:
                values.append(column.tolist())
        if self.keys is None:
            return [list(record) for record in zip(*values)]
        return [dict(zip(self.keys, record)) for record in zip(*values)]


def dump(obj, fp) -> None:
    """Write the text of :func:`dumps` to the file object ``fp``, in pieces
    of bounded size; an object the encoder rejects raises before anything
    is written."""
    for piece in _pieces(obj):
        fp.write(piece)


def dumps(obj) -> str:
    """JSON text equal to ``json.dumps(obj, indent=2)``, errors included;
    a numpy array or a :class:`Records` table is written as its
    ``tolist()``."""
    return "".join(_pieces(obj))


def _pieces(obj) -> Iterator[str]:
    """The text of obj in pieces. The stock encoder's skeleton, with its
    errors, is built when this is called, not when the pieces are drawn."""
    marker, blocks = "\0%s\0" % _nonce(), []

    def hook(o):
        if isinstance(o, Records):
            spliced = len(o) and _records_spliced(o)
        elif isinstance(o, np.ndarray):
            spliced = o.ndim and o.size and _numeric(o)
        else:
            return _default(o)  # raises the stock TypeError
        if spliced:
            blocks.append(o)
            return marker
        return o.tolist()

    parts = json.dumps(obj, indent=2, default=hook).split(json.dumps(marker))
    if len(parts) != len(blocks) + 1:  # obj itself writes the placeholder's text
        return _pieces(obj)
    return _spliced(parts, blocks)


def _numeric(a: np.ndarray) -> bool:
    """Whether a is an int or float ndarray, not a subclass, of at most
    8-byte items, all finite. A NaN makes the min NaN and an infinity is
    the min or the max, so two reductions check finiteness with no
    temporary of the array's size."""
    kind = a.dtype.kind
    return (
        type(a) is np.ndarray and kind in "iuf" and a.dtype.itemsize <= 8
        and (kind != "f" or not a.size or np.isfinite([a.min(), a.max()]).all())
    )


def _records_spliced(table: Records) -> bool:
    """Whether the table's keys are strings and its columns, and those of
    its ragged column, are 1-d or 2-d numeric arrays that :func:`_numeric`
    accepts."""
    for t in (table, *(c for c in table.columns if isinstance(c, Records))):
        if t.keys is not None and set(map(type, t.keys)) != {str}:
            return False
        columns = (c for c in t.columns if not isinstance(c, Records))
        if not all(c.ndim in (1, 2) and _numeric(c) for c in columns):
            return False
    return True


def _spliced(parts: list[str], blocks: list) -> Iterator[str]:
    """The skeleton's parts with each block between two of them, at the
    indent of the line its placeholder was on. The array templates are
    shared by the blocks of this one dump."""
    templates = {}
    yield parts[0]
    for before, block, after in zip(parts, blocks, parts[1:]):
        line = before[before.rfind("\n") + 1 :]
        level = (len(line) - len(line.lstrip(" "))) // 2
        if isinstance(block, Records):
            yield from _record_pieces(block, level)
        else:
            yield from _shaped_pieces(block, level, templates)
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


class _Template:
    """The bytes template of ``step`` axis-0 slices of an array of inner
    shape ``inner`` at indent ``level``, with one ``slot`` (%d, %s or %0r,
    which formats as %r) per leaf, and the head, tail and separator of the
    block's text; for %0r also the offset of every slot. The template of
    fewer slices, and its slots, are prefixes of these."""

    def __init__(self, slot: str, inner: tuple, level: int, step: int):
        self.head, self.tail, seps = _layout(level, 1 + len(inner))
        row = slot
        for n, sep in zip(reversed(inner), seps):
            row = sep.join([row] * n)
        self.sep = seps[-1]
        row, sep = row.encode(), self.sep.encode()
        self.step, self.period = step, len(row) + len(sep)
        self.text = bytearray(row + sep) * step
        del self.text[len(self.text) - len(sep) :]
        if slot == "%0r":
            dtype = np.int32 if len(self.text) < 2**31 else np.int64
            in_row = np.flatnonzero(np.frombuffer(row, dtype=np.uint8) == ord("%")).astype(dtype)
            self.slots = np.add.outer(np.arange(step, dtype=dtype) * self.period, in_row).ravel()
            self.view = np.frombuffer(self.text, dtype=np.uint8)

    def filled(self, slices: int, leaves: list) -> str:
        """The template of ``slices`` slices filled with the leaves."""
        size = slices * self.period - len(self.sep)
        text = self.text if size == len(self.text) else self.text[:size]
        return (text % tuple(leaves)).decode("ascii")

    def filled_floats(self, slices: int, leaves: np.ndarray) -> str:
        """The template of ``slices`` slices filled with float leaves, with
        the text 0.0 in the slot of each +0.0 leaf; the template is left as
        it was."""
        zero = (leaves == 0) & ~np.signbit(leaves)
        at, view = self.slots[: len(zero)][zero], self.view
        view[at], view[at + 1], view[at + 2] = b"0.0"
        filled = self.filled(slices, leaves[~zero].tolist())
        view[at], view[at + 1], view[at + 2] = b"%0r"
        return filled


def _shaped_pieces(a: np.ndarray, level: int, templates: dict) -> Iterator[str]:
    """Indented text of a non-empty, finite int or float array at indent
    ``level``, in pieces of whole axis-0 slices, about ``_PIECE_LEAVES``
    leaves each, each filled row-major into a template of ``templates``,
    which holds one per slot, inner shape and indent and gets one that is
    missing or too short."""
    step = min(len(a), max(1, _PIECE_LEAVES * len(a) // a.size))  # slices per piece
    floats, texts = a.dtype.kind == "f", None
    if not floats:
        low, high = int(a.min()), int(a.max())
        if high - low + 1 < a.size:  # a table of the span's texts
            texts = np.array([b"%d" % v for v in range(low, high + 1)], dtype=object)
            if a.dtype.itemsize < 8:  # the offsets from low may overflow
                a = a.astype(np.int64)
    slot = "%0r" if floats else "%d" if texts is None else "%s"
    template = templates.get((slot, a.shape[1:], level))
    if template is None or template.step < step:
        template = templates[slot, a.shape[1:], level] = _Template(slot, a.shape[1:], level, step)
    yield template.head
    for start in range(0, len(a), step):
        if start:
            yield template.sep
        leaves = a[start : start + step].ravel()
        slices = min(step, len(a) - start)
        if floats:
            yield template.filled_floats(slices, leaves)
        elif texts is None:
            yield template.filled(slices, leaves.tolist())
        else:
            yield template.filled(slices, texts[leaves - low].tolist())
    yield template.tail


def _listed(items: list[str], level: int, brackets: str = "[]") -> str:
    """The indented text, at indent ``level``, of a list (or, with brackets
    "{}", an object) whose items, one indent deeper, have these texts."""
    if not items:
        return brackets
    pad = "\n" + "  " * (level + 1)
    return brackets[0] + pad + ("," + pad).join(items) + pad[:-2] + brackets[1]


def _record_text(table: Records, level: int, count: int) -> str:
    """The template of a record of the table at indent ``level`` whose
    ragged column holds ``count`` records: its indented text with a %d or
    %r per leaf, and the stock encoder's text of each key, with % doubled."""
    items = []
    for column in table.columns:
        if isinstance(column, Records):
            items.append(_listed([_record_text(column, level + 2, 0)] * count, level + 1))
        else:
            slot = "%r" if column.dtype.kind == "f" else "%d"
            items.append(slot if column.ndim == 1 else _listed([slot] * column.shape[1], level + 1))
    if table.keys is None:
        return _listed(items, level)
    keys = [json.dumps(key).replace("%", "%%") + ": " for key in table.keys]
    return _listed(list(map(str.__add__, keys, items)), level, "{}")


def _record_pieces(table: Records, level: int) -> Iterator[str]:
    """Indented text of a non-empty table at indent ``level``, in pieces of
    whole records, about ``_PIECE_LEAVES`` leaves each: the records'
    templates, one per count of the ragged column, joined and filled with
    the leaves of the piece in record order."""
    pad = "\n" + "  " * (level + 1)
    columns = [c for c in table.columns if not isinstance(c, Records)]
    split = next((j for j, c in enumerate(table.columns) if isinstance(c, Records)), len(columns))
    rows = table.columns[split] if split < len(table.columns) else None
    counts = np.zeros(len(table), np.int64) if rows is None else table.counts
    # leaves per record outside the ragged column, those before it, and per row
    widths = list(map(_width, columns))
    row_widths = [] if rows is None else list(map(_width, rows.columns))
    fixed, lead, per_row = sum(widths), sum(widths[:split]), sum(row_widths)
    bounds, total = [0, len(table)], fixed * len(table) + per_row * int(counts.sum())
    if total > _PIECE_LEAVES:
        ends = np.cumsum(fixed + counts * per_row)
        cuts = np.searchsorted(ends, np.arange(_PIECE_LEAVES, total, _PIECE_LEAVES)) + 1
        bounds = [0, *np.unique(cuts).tolist()]
        bounds += [len(table)] if bounds[-1] < len(table) else []
    row_bounds = np.concatenate(([0], np.cumsum(counts)))[bounds].tolist()
    texts = {}
    yield "[" + pad
    for k, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        if k:
            yield "," + pad
        leaves = _leaves(columns, widths, lo, hi)
        if row_bounds[k + 1] > row_bounds[k]:  # the rows' leaves go where the others do not
            spans = counts[lo:hi] * per_row
            at = (np.arange(hi - lo) * fixed + np.cumsum(spans) - spans)[:, None] + np.arange(fixed)
            at[:, lead:] += spans[:, None]  # the leaves after the ragged column
            merged = np.empty(leaves.size + int(spans.sum()), dtype=object)
            in_row = np.ones(len(merged), dtype=bool)
            in_row[at], merged[at] = False, leaves
            merged[in_row] = _leaves(rows.columns, row_widths, *row_bounds[k : k + 2]).ravel()
            leaves = merged
        layouts = counts[lo:hi].tolist()
        for count in set(layouts) - texts.keys():
            texts[count] = _record_text(table, level + 1, count)
        yield ("," + pad).join([texts[c] for c in layouts]) % tuple(leaves.ravel().tolist())
    yield pad[:-2] + "]"


def _width(column: np.ndarray) -> int:
    """Leaves per record of an array column."""
    return column.shape[1] if column.ndim == 2 else 1


def _leaves(columns: list, widths: list, lo: int, hi: int) -> np.ndarray:
    """Records lo..hi of the array columns as Python ints and floats in an
    object array, one row of leaves per record, the columns side by side."""
    out = np.empty((hi - lo, sum(widths)), dtype=object)
    at = 0
    for column, width in zip(columns, widths):
        out[:, at : at + width] = column[lo:hi].reshape(hi - lo, width)
        at += width
    return out
