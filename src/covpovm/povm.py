"""Covariant POVMs for diagonal representations of a finite Abelian group.

A representation acting diagonally on weighted character spaces admits,
for every subgroup, a family of covariant POVMs on the quotient: each one
is cut out by a field of isometries over the spectral support, scaled by
the density of the sector measure against the lifted class measure, a
scaling that cancels in orthonormal coordinates (``CovariantPOVM._kernel``).
This module builds those POVMs, evaluates them as one dense matrix in the rep
basis (a :class:`BlockOperator`), and verifies the defining axioms,
covariance, and the equivalence criterion. A rep's support is one
:class:`SupportTable` of index arrays in basis order and its isometry
fields one :class:`FieldTable`; the build, the intertwiner, ``u_matrix``,
``validate_rep`` and the equivalence criterion read them, with the
isometries stacked per multiplicity, and characters and per-character
dicts are built only for callers.

Two independent evaluation routes are provided on purpose:
:meth:`CovariantPOVM.apply` gathers the cotransform of the outcome function
over a cached kernel table, while :func:`apply_via_intertwiner` compresses
the transported multiplication operator of :mod:`covpovm.induction`
through the explicit intertwiner. They must agree to working precision.
The kernel's omega-independent factor is one Gram product of the
isometry column of each basis row (``CovariantPOVM._rows``), and
:meth:`CovariantPOVM.singleton_expectations` reads the Born expectations of
all singleton cosets off the same rows without the table: one FFT
autocorrelation on the dual group and one transposed cotransform.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, groupby
from operator import itemgetter

import numpy as np

from .groups import (
    DualCharacter,
    FiniteAbelianGroup,
    GroupElement,
    Subgroup,
    _isin,
    _unique,
)
from .harmonic import (
    DOMAIN_DUAL,
    QuotientContext,
    WeightedMeasure,
    image_measure,
    lift_measure,
)
from .induction import DiagonalSpace, _shift_values, transported_multiplication_matrix

DEFAULT_ATOL = 1e-9
# entries per block of the verifiers' and the oracle's stacked arrays (4 MB complex)
_BLOCK_ENTRIES = 1 << 18


class PovmBuildError(ValueError):
    """Rejection of a representation or isometry field, with a structured reason."""

    def __init__(self, message: str, **details):
        super().__init__(message)
        self.details = {"error": message, **details}


@dataclass(frozen=True)
class SectorSpec:
    """One diagonal sector: a spectral measure on the dual group and the
    multiplicity it carries."""

    rho: WeightedMeasure
    f_dim: int

    def __post_init__(self):
        if self.rho.domain != DOMAIN_DUAL:
            raise ValueError(
                f"sector measure must live on the dual group, got {self.rho.domain!r}"
            )
        if self.f_dim < 1:
            raise ValueError(f"multiplicity must be >= 1, got {self.f_dim}")


@dataclass(frozen=True, eq=False)
class SupportTable:
    """The support of a diagonal rep as arrays with one entry per support
    point, in basis order (sector-major, group index within a sector): group
    index, sector, multiplicity and sector-measure weight. ``by_f_dim``
    holds the positions of the points of each multiplicity, smallest first;
    ``sector_f_dims`` holds the multiplicity of every sector, one with an
    empty support included."""

    indices: np.ndarray
    sectors: np.ndarray
    f_dims: np.ndarray
    weights: np.ndarray
    by_f_dim: tuple[np.ndarray, ...]
    sector_f_dims: np.ndarray

    @cached_property
    def rows(self) -> np.ndarray:
        """The point of each basis row. Built on first read, so that the
        build compares the multiplicities with e_dim and with the matrices'
        shapes before a table of their sum is allocated."""
        return np.repeat(np.arange(len(self.f_dims)), self.f_dims)

    @cached_property
    def counts(self) -> np.ndarray:
        """Number of support points of each sector."""
        return np.bincount(self.sectors, minlength=len(self.sector_f_dims))

    def per_sector(self, values: Sequence) -> list:
        """One slice per sector of a sequence with one item per point."""
        ends = np.cumsum(self.counts).tolist()
        return [values[a:b] for a, b in zip([0, *ends[:-1]], ends)]

    @cached_property
    def row_starts(self) -> np.ndarray:
        """First basis row of each point."""
        return np.cumsum(self.f_dims) - self.f_dims

    def block_rows(self, points: np.ndarray, f_dim: int) -> np.ndarray:
        """Basis rows of points of one multiplicity, shape (len(points), f_dim)."""
        return self.row_starts[points][:, None] + np.arange(f_dim)


def _multiplicities(f_dims) -> np.ndarray:
    """The multiplicity of each sector as an int64 array; one that is not
    >= 1 raises ``ValueError``."""
    f_dims = np.asarray(f_dims, dtype=np.int64)
    small = f_dims[f_dims < 1]
    if len(small):
        raise ValueError(f"multiplicity must be >= 1, got {small[0]}")
    return f_dims


class DiagonalRep:
    """Representation acting by character multiplication on an orthogonal sum
    of weighted character spaces.

    Basis order: sector (major), support character sorted lexicographically,
    multiplicity coordinate (minor). The inner-product weight of a basis
    entry is the sector measure at its character. ``support_table`` is the
    internal form of the support: ``DiagonalRep(group, sectors)`` converts
    the sector measures to it on first use, and :meth:`of_arrays` and
    :meth:`of_sorted` build it directly, leaving ``sectors`` and
    ``sector_points`` to be built from it for callers that read them.
    """

    def __init__(self, group: FiniteAbelianGroup, sectors: Sequence[SectorSpec]):
        self.group = group
        self.sectors = tuple(sectors)

    @classmethod
    def of_arrays(cls, group, sectors, indices, weights, sector_f_dims) -> "DiagonalRep":
        """The rep with support point ``indices[i]`` (a group index) in sector
        ``sectors[i]`` at weight ``weights[i]`` > 0, in any order, each
        point once per sector, and multiplicities ``sector_f_dims``, each
        >= 1. Arrays of different lengths, an index outside [0, |G|), a sector outside
        [0, len(sector_f_dims)) and a weight that is not finite and > 0
        raise :class:`PovmBuildError` naming the position and the value."""
        sector_f_dims = _multiplicities(sector_f_dims)
        sectors, indices = np.asarray(sectors), np.asarray(indices)
        weights = np.asarray(weights, dtype=float)
        lengths = {"sectors": len(sectors), "indices": len(indices), "weights": len(weights)}
        if len(set(lengths.values())) > 1:
            raise PovmBuildError("support arrays differ in length", **lengths)
        order, n_sectors = group.order, len(sector_f_dims)
        for message, values, bad in (
            ("support index is outside [0, |G|)", indices, (indices < 0) | (indices >= order)),
            ("support sector does not exist", sectors, (sectors < 0) | (sectors >= n_sectors)),
            ("support weight is not finite and > 0", weights, ~(weights > 0) | (weights == np.inf)),
        ):
            if bad.any():
                p = int(np.argmax(bad))
                raise PovmBuildError(message, position=p, value=values[p].item())
        at = np.lexsort((indices, sectors))
        return cls.of_sorted(group, sectors[at], indices[at], weights[at], sector_f_dims)

    @classmethod
    def of_sorted(cls, group, sectors, indices, weights, sector_f_dims) -> "DiagonalRep":
        """The rep of support arrays in basis order that pass the checks of
        :meth:`of_arrays`, taken as they are, with int64 multiplicities."""
        sectors = np.asarray(sectors, dtype=np.int64)
        f_dims = sector_f_dims[sectors]
        by_f_dim = tuple(np.flatnonzero(f_dims == f) for f in _unique(f_dims))
        table = SupportTable(indices, sectors, f_dims, weights, by_f_dim, sector_f_dims)
        rep = cls.__new__(cls)
        rep.group, rep.support_table = group, table
        return rep

    @cached_property
    def sectors(self) -> tuple[SectorSpec, ...]:
        """The sector measures and multiplicities, built from the support table."""
        table = self.support_table
        return tuple(
            SectorSpec(WeightedMeasure(DOMAIN_DUAL, weights), f)
            for weights, f in zip(_sector_dicts(self, table.weights), table.sector_f_dims.tolist())
        )

    @cached_property
    def support_table(self) -> SupportTable:
        """The support as index arrays; a support point that is not a
        character of the group raises :class:`PovmBuildError`."""
        group, points = self.group, [x for s in self.sectors for x in s.rho.weights]
        bad = [x for x in points if x.factors != group.factors or type(x) is not DualCharacter]
        if bad:
            x, foreign = bad[0], bad[0].factors != group.factors
            what = "does not belong to the dual of" if foreign else "is not a character of"
            raise PovmBuildError(f"sector support point {what} the group", point=list(x.coords))
        counts = [len(s.rho.weights) for s in self.sectors]
        sectors = np.repeat(np.arange(len(self.sectors)), counts)
        coords = np.array([x.coords for x in points], dtype=np.int64).reshape(-1, group.rank)
        weights = [w for s in self.sectors for w in s.rho.weights.values()]
        f_dims = [s.f_dim for s in self.sectors]
        return self.of_arrays(group, sectors, group.ravel(coords), weights, f_dims).support_table

    @cached_property
    def sector_points(self) -> tuple[tuple[DualCharacter, ...], ...]:
        """The support characters of each sector, in basis order."""
        table = self.support_table
        return tuple(table.per_sector(self.group.points(DualCharacter, table.indices)))

    @property
    def dimension(self) -> int:
        return len(self.support_table.rows)

    def u_matrix(self, g: GroupElement) -> np.ndarray:
        """The diagonal unitary of the group element, in the documented basis."""
        table = self.support_table
        phases = self.group.pairing_matrix(table.indices, [self.group.index_of(g)])
        return np.diag(phases[table.rows, 0])


def _sector_dicts(rep: DiagonalRep, values: np.ndarray) -> tuple[dict, ...]:
    """One value per support point, as one {character: value} dict per sector."""
    return tuple(
        dict(zip(points, chunk))
        for points, chunk in zip(rep.sector_points, rep.support_table.per_sector(values.tolist()))
    )


def validate_rep(rep: DiagonalRep) -> None:
    """Reject support points that are not characters of the group, and
    sector families whose supports overlap.

    Overlapping supports break the canonical diagonal decomposition: the
    assembled isometry field would no longer be isometric and the POVM
    would fail normalization.
    """
    table = rep.support_table
    order = np.argsort(table.indices, kind="stable")  # by point, then sector: basis order
    points = table.indices[order]
    if not (points[1:] == points[:-1]).any():
        return
    shared = {}  # the points of sectors j < k in both, ascending, by (j, k)
    pairs = zip(points.tolist(), table.sectors[order].tolist())
    for x, memberships in groupby(pairs, itemgetter(0)):
        for (_, j), (_, k) in combinations(memberships, 2):
            shared.setdefault((j, k), []).append(x)
    overlaps = [
        {"sectors": list(pair), "points": rep.group.coords[xs].tolist()}
        for pair, xs in sorted(shared.items())
    ]
    raise PovmBuildError("sector supports are not pairwise disjoint", overlaps=overlaps)


@dataclass(frozen=True, eq=False)
class MeasureClassData:
    """The class measure of a diagonal rep, as its canonical representative.

    ``coset_weights`` is 1.0 on each occupied coset of the dual quotient and
    0.0 elsewhere (any equivalent choice yields the same POVM, see BASIS.md,
    "Densities cancel"; this one matches the Haar normalization so that for
    the trivial subgroup the densities are taken against Haar measure on the
    dual); ``lifted_weights`` is its lift back to the dual group, one weight
    per character index.
    """

    coset_weights: np.ndarray
    lifted_weights: np.ndarray


def class_measure(ctx: QuotientContext, rep: DiagonalRep) -> MeasureClassData:
    """Compute the class measure data of a validated rep."""
    indices = rep.support_table.indices  # a coset is occupied once or more: the same 0/1 weights
    nu = (image_measure(ctx, indices, np.ones(len(indices))) > 0.0).astype(float)
    return MeasureClassData(nu, lift_measure(ctx, nu))


@dataclass(frozen=True, eq=False)
class IsometryField:
    """Per-sector family of isometries from the multiplicity space into C^E,
    one matrix of shape (e_dim, f_dim) per support character."""

    sector: int
    matrices: Mapping[DualCharacter, np.ndarray]


@dataclass(frozen=True, eq=False)
class FieldTable(Sequence):
    """Isometry fields as arrays, one entry per listed (field, point): the
    field's position, the point's group index and the matrix shape, with
    all matrix entries row-major in ``data``; ``sectors`` holds the sector
    each field declares. Points are distinct within a field. As a sequence
    it gives the fields as :class:`IsometryField` mappings, built on first
    read."""

    group: FiniteAbelianGroup
    sectors: np.ndarray
    owners: np.ndarray
    indices: np.ndarray
    shapes: np.ndarray
    data: np.ndarray

    @classmethod
    def of(cls, group: FiniteAbelianGroup, fields: Sequence[IsometryField]) -> "FieldTable":
        """The table of :class:`IsometryField` mappings; a table is returned
        as it is. A key that is not a character of the group, or a matrix
        that is not two-dimensional, raises :class:`PovmBuildError`."""
        if isinstance(fields, FieldTable):
            return fields
        keys, mats = [], []
        for k, field in enumerate(fields):
            for x, w in field.matrices.items():
                w, where = np.asarray(w, dtype=complex), {"sector": k, "point": list(x.coords)}
                if type(x) is not DualCharacter or x.factors != group.factors:
                    message = "isometry field has a matrix outside its sector's support"
                    raise PovmBuildError(message, **where)
                if w.ndim != 2:
                    message = "isometry matrix has the wrong shape"
                    raise PovmBuildError(message, **where, shape=list(w.shape))
                keys.append((k, *x.coords))
                mats.append(w)
        keys = np.array(keys, dtype=np.int64).reshape(-1, 1 + group.rank)
        shapes = np.array([w.shape for w in mats], dtype=np.int64).reshape(-1, 2)
        data = np.concatenate([w.ravel() for w in mats] + [np.empty(0, dtype=complex)])
        sectors = np.array([field.sector for field in fields], dtype=np.int64)
        return cls(group, sectors, keys[:, 0], group.ravel(keys[:, 1:]), shapes, data)

    @cached_property
    def starts(self) -> np.ndarray:
        """Position in ``data`` of the first entry of each matrix."""
        return np.concatenate(([0], np.cumsum(self.shapes.prod(axis=1))[:-1])).astype(np.int64)

    @cached_property
    def _fields(self) -> tuple[IsometryField, ...]:
        matrices = [{} for _ in self.sectors]
        points = self.group.points(DualCharacter, self.indices)
        for owner, x, start, shape in zip(
            self.owners.tolist(), points, self.starts.tolist(), self.shapes.tolist()
        ):
            matrices[owner][x] = self.data[start : start + shape[0] * shape[1]].reshape(shape)
        return tuple(IsometryField(k, m) for k, m in zip(self.sectors.tolist(), matrices))

    def __len__(self) -> int:
        return len(self.sectors)

    def __getitem__(self, k):
        return self._fields[k]


@dataclass(frozen=True, eq=False)
class BlockOperator:
    """Operator on a diagonal rep space: one dense matrix in the documented
    sector-major basis, in orthonormal coordinates, or a (k, dim, dim) stack
    of them."""

    rep: DiagonalRep
    matrix: np.ndarray

    @property
    def dimension(self) -> int:
        return self.matrix.shape[-1]

    def assemble(self) -> np.ndarray:
        """Dense matrix in the documented sector-major basis."""
        return self.matrix


@dataclass(frozen=True, eq=False)
class CovariantPOVM:
    """A covariant POVM in kernel form.

    Immutable after construction; evaluation methods are pure, so instances
    may be shared across threads for reading.
    """

    rep: DiagonalRep
    ctx: QuotientContext
    e_dim: int
    fields: Sequence[IsometryField]
    class_data: MeasureClassData

    @property
    def dimension(self) -> int:
        return self.rep.dimension

    def u_matrix(self, g: GroupElement) -> np.ndarray:
        return self.rep.u_matrix(g)

    @cached_property
    def point_densities(self) -> np.ndarray:
        """Density of each support point against the lifted class measure,
        in support-table order."""
        table = self.rep.support_table
        return table.weights / self.class_data.lifted_weights[table.indices]

    @cached_property
    def _isometry_stacks(self) -> tuple[np.ndarray, ...]:
        """The isometries stacked per multiplicity, aligned with
        ``rep.support_table.by_f_dim``."""
        return _stacked(self.rep, self.fields, self.e_dim)

    @cached_property
    def _rows(self) -> np.ndarray:
        """X, shape (dim, e_dim): row r is the isometry column of basis row
        r, column k of W_x for the k-th row of point x."""
        table = self.rep.support_table
        rows = np.empty((self.dimension, self.e_dim), dtype=complex)
        for points, w in zip(table.by_f_dim, self._isometry_stacks):
            cells = table.block_rows(points, w.shape[2]).ravel()
            rows[cells] = w.transpose(0, 2, 1).reshape(-1, self.e_dim)
        return rows

    @cached_property
    def _kernel(self) -> tuple[np.ndarray, np.ndarray]:
        """(D, K) over the rep basis. D[r, c] is the annihilator index of the
        difference of the characters of basis rows r and c, or -1 (intp, so
        that ``apply`` gathers with it as it is, with no converted copy);
        K = hw conj(X) X^T from ``_rows`` where D >= 0, and 0 elsewhere.

        The paper's factor hw sqrt(d' / d) sqrt(w / w') of rows at points x,
        x' is hw sqrt(nu(x) / nu(x')) = hw where D >= 0, since d = w / nu and
        the lifted class measure nu is constant on each fiber."""
        table, group = self.rep.support_table, self.rep.group
        coords = group.coords[table.indices[table.rows]]
        index = self.ctx.annihilator.position(group.ravel(coords[:, None] - coords[None]))
        kernel = self._rows.conj() @ self._rows.T
        kernel *= self.ctx.hperp_weight
        kernel[index < 0] = 0.0
        return index, kernel

    def apply(self, omega) -> BlockOperator:
        """Evaluate the POVM on a quotient function through the kernel:
        entry (x, x') carries the cotransform of omega at x - x', the square
        root of the density ratio, and the isometry overlap. A (k, q) stack
        of quotient functions gives the (k, dim, dim) stack of effects."""
        index, kernel = self._kernel
        fo = self.ctx.cotransform(omega)
        # D = -1 (across fibers, where K is 0 too) reads the appended zero
        matrix = np.concatenate((fo, np.zeros_like(fo[..., :1])), axis=-1).take(index, axis=-1)
        matrix *= kernel
        return BlockOperator(self.rep, matrix)

    def singleton_expectations(self, state) -> np.ndarray:
        """<psi, M(e_j) psi> for every singleton coset j, on the kernel route
        without the kernel table.

        The expectation is linear in the outcome function, so it is the
        transposed cotransform at j of s[a] = sum of conj(psi_r) K[r, c] psi_c
        over the pairs whose characters differ by the annihilator point a.
        With u_x the sum of X[r] psi_r over the rows of support point x
        (``_rows``), s[a] is hw * sum over x - x' = a of <u_x, u_x'>: one
        autocorrelation of the field u placed on the dual group, read at the
        annihilator, whose spectrum is the power spectrum sum over e of
        |F u_e|^2 (one ``fftn``). No effect and no dim x dim table is formed.
        Returns the real parts, indexed by coset. A state of the wrong shape
        or with non-finite entries raises ``ValueError``.
        """
        state = np.asarray(state, dtype=complex)
        if state.shape != (self.dimension,):
            raise ValueError(f"expected a vector of dimension {self.dimension}, got {state.shape}")
        if not np.isfinite(state).all():
            raise ValueError("state has non-finite entries")
        table, group = self.rep.support_table, self.rep.group
        sums = np.add.reduceat(self._rows * state[:, None], table.row_starts, axis=0)
        # u on the dual group, zero off the support, one plane per embedding
        # coordinate so that the transformed axes are the contiguous ones
        # (about 4x faster than strided ones in pocketfft)
        placed = np.zeros((self.e_dim, group.order), dtype=complex)
        placed[:, table.indices] = sums.T
        axes = tuple(range(1, 1 + group.rank))
        spectra = np.fft.fftn(placed.reshape(self.e_dim, *group.factors), axes=axes)
        # s[y] / hw = sum_x conj(u[x]) u[x - y] is the conjugate of the
        # correlation sum_x u[x] conj(u[x - y]), whose spectrum is |Fu|^2
        correlation = np.fft.ifftn((spectra * spectra.conj()).sum(axis=0)).ravel()
        s = self.ctx.hperp_weight * correlation[self.ctx.annihilator.indices].conj()
        return self.ctx.cotransform_transposed(s).real

    def assembled(self, omega) -> np.ndarray:
        return self.apply(omega).assemble()

    def assembled_effect(self, cosets) -> np.ndarray:
        return self.assembled(self.ctx.indicator(cosets))

    @cached_property
    def diagonal_space(self) -> DiagonalSpace:
        """Target model of the intertwiner, over the class measure."""
        return DiagonalSpace(self.ctx, self.class_data.coset_weights, self.e_dim)

    @cached_property
    def intertwiner(self) -> np.ndarray:
        """:func:`intertwiner_matrix` of this POVM, built once; read-only."""
        w = intertwiner_matrix(self)
        w.flags.writeable = False
        return w


def build_covariant_povm(
    rep: DiagonalRep,
    subgroup: Subgroup,
    fields: Sequence[IsometryField],
    e_dim: int,
    atol: float = DEFAULT_ATOL,
) -> CovariantPOVM:
    """Construct a covariant POVM from a validated rep and isometry fields,
    given as :class:`IsometryField` mappings or as a :class:`FieldTable`;
    either is checked as arrays.

    Rejects overlapping sector supports, an embedding space smaller than
    the largest multiplicity, a field count or order that does not match
    the sectors, and then, in this order, a missing matrix, a matrix
    outside its sector's support, one of the wrong shape, one with
    non-finite entries, one failing the isometry test beyond ``atol``, and
    a point whose density d against the lifted class measure is not finite
    and > 0 (a finite weight can overflow its density), naming the first
    such sector and point in basis order. ``atol`` must itself be finite and
    nonnegative (``ValueError`` otherwise).
    """
    if not (math.isfinite(atol) and atol >= 0.0):
        raise ValueError(f"atol must be finite and >= 0, got {atol}")
    validate_rep(rep)
    table = rep.support_table
    max_f = int(table.sector_f_dims.max(initial=1))
    if e_dim < max_f:
        raise PovmBuildError(
            "embedding dimension is smaller than the largest multiplicity",
            e_dim=e_dim,
            max_f_dim=max_f,
        )
    if len(fields) != len(table.sector_f_dims):
        raise PovmBuildError(
            "one isometry field per sector is required",
            n_fields=len(fields),
            n_sectors=len(table.sector_f_dims),
        )
    fields = fields if isinstance(fields, FieldTable) else tuple(fields)
    ctx = QuotientContext.build(rep.group, subgroup)
    povm = CovariantPOVM(rep, ctx, e_dim, fields, class_measure(ctx, rep))
    nonfinite = np.zeros(len(table.indices), dtype=bool)
    deviation = np.zeros(len(table.indices))
    with np.errstate(all="ignore"):  # an overflow is reported below
        for points, w in zip(table.by_f_dim, povm._isometry_stacks):
            nonfinite[points] = ~np.isfinite(w).all(axis=(1, 2))
            deviation[points] = np.abs(_adjoints(w) @ w - np.eye(w.shape[2])).max(axis=(1, 2))
    _reject(rep, "isometry matrix has non-finite entries", nonfinite)
    # a NaN deviation (an overflow to inf - inf in W^H W) fails the test too
    _reject(rep, "field matrix is not isometric", ~(deviation <= atol), deviation=deviation)
    with np.errstate(all="ignore"):  # an overflow is reported below
        d = povm.point_densities
    _reject(rep, "density is not finite and > 0", ~((d > 0.0) & (d < np.inf)), weight=table.weights)
    return povm


def _reject(rep: DiagonalRep, message: str, bad: np.ndarray, **values) -> None:
    """Raise :class:`PovmBuildError` naming the first support point where
    ``bad`` holds: its sector, its coordinates and each of ``values`` (one
    per point) there."""
    if bad.any():
        p, table = int(np.argmax(bad)), rep.support_table
        point = rep.group.coords[table.indices[p]].tolist()
        details = {name: value[p].tolist() for name, value in values.items()}
        raise PovmBuildError(message, sector=int(table.sectors[p]), point=point, **details)


def _stacked(rep: DiagonalRep, fields, e_dim: int | None) -> tuple[np.ndarray, ...]:
    """The (e_dim, f_dim) matrix of every support point, (f_dim, f_dim) for
    e_dim None, stacked per multiplicity like ``rep.support_table.by_f_dim``.
    Fields out of sector order, a missing matrix, one outside its sector's
    support and one of the wrong shape raise :class:`PovmBuildError`."""
    table, group = rep.support_table, rep.group
    fields = FieldTable.of(group, fields)
    misplaced = np.flatnonzero(fields.sectors != np.arange(len(fields.sectors)))
    if len(misplaced):
        k, message = int(misplaced[0]), "isometry field order does not match sector order"
        raise PovmBuildError(message, position=k, field_sector=int(fields.sectors[k]))
    # (sector, group index) keys of the support, in basis order so sorted, and
    # of the listed matrices; sorting the listed keys aligns them when they match
    wanted = table.sectors * group.order + table.indices
    listed = fields.owners * group.order + fields.indices
    at = np.argsort(listed)
    if len(at) != len(wanted) or (listed[at] != wanted).any():
        _reject(rep, "isometry field is missing a support point", ~_isin(wanted, listed))
        k, index = divmod(int(listed[~_isin(listed, wanted)].min()), group.order)
        message = "isometry field has a matrix outside its sector's support"
        raise PovmBuildError(message, sector=k, point=group.coords[index].tolist())
    shapes, rows = fields.shapes[at], table.f_dims if e_dim is None else e_dim
    wrong = (shapes[:, 0] != rows) | (shapes[:, 1] != table.f_dims)
    if wrong.any():
        expected = np.stack(np.broadcast_arrays(rows, table.f_dims), axis=1)
        _reject(rep, "isometry matrix has the wrong shape", wrong, shape=shapes, expected=expected)
    starts = fields.starts[at]
    f_dims = [int(table.f_dims[points[0]]) for points in table.by_f_dim]
    return tuple(
        fields.data[starts[points, None] + np.arange((e_dim or f) * f)].reshape(len(points), -1, f)
        for points, f in zip(table.by_f_dim, f_dims)
    )


def intertwiner_matrix(povm: CovariantPOVM) -> np.ndarray:
    """Isometry from the rep space into the diagonal model over the class
    measure, embedding each sector component through the isometry field.

    Columns follow the rep basis, rows the diagonal-space basis, both in
    orthonormal coordinates, where the paper's factor sqrt(d) at x is
    sqrt(nu(x) d / w) = 1, nu the lifted class measure: each
    multiplicity's isometries are scattered into place at once, unscaled.
    """
    dspace = povm.diagonal_space
    table, e = povm.rep.support_table, povm.e_dim
    target = np.searchsorted(dspace.point_indices, table.indices)[:, None] * e + np.arange(e)
    out = np.zeros((dspace.dim, povm.dimension), dtype=complex)
    for points, w in zip(table.by_f_dim, povm._isometry_stacks):
        cols = table.block_rows(points, w.shape[2])
        out[target[points, :, None], cols[:, None, :]] = w
    return out


def _one_point_columns(w: np.ndarray, e_dim: int) -> tuple[np.ndarray, np.ndarray]:
    """For each column c of an intertwiner, the E diagonal-space rows of the
    one point p(c) that holds its nonzero entries, and its entries there:
    (E, dim) index and value arrays. NaN counts as nonzero, an all-zero
    column is put at point 0, and a column with entries at two or more
    points raises ``ValueError``, since the compression reads only p(c)."""
    points, dim = w.shape[0] // e_dim, w.shape[1]
    occupied = (w.reshape(points, e_dim, dim) != 0).any(axis=1)
    spread = np.count_nonzero(occupied, axis=0) > 1
    if spread.any():
        c = int(np.argmax(spread))
        raise ValueError(
            f"intertwiner column {c} has entries at "
            f"{np.count_nonzero(occupied[:, c])} diagonal-space points, not one"
        )
    home = occupied.argmax(axis=0) if points else np.zeros(dim, dtype=np.intp)
    rows = home * e_dim + np.arange(e_dim)[:, None]
    return rows, w[rows, np.arange(dim)]


def _home_and_gram(povm_like) -> tuple[np.ndarray, np.ndarray]:
    """The point position p(c) that holds column c of the intertwiner W,
    for every column, and the Gram matrix G of the one-point column values,
    G[r, c] = sum over e of conj(W[(p(r), e), r]) W[(p(c), e), c]
    (:func:`_one_point_columns`)."""
    rows, values = _one_point_columns(povm_like.intertwiner, povm_like.e_dim)
    return rows[0] // povm_like.e_dim, values.conj().T @ values


def _compressions(povm_like, omegas, home, gram, values):
    """Yield W^H T(omega) W over the stack ``omegas`` in blocks, from the
    home points and Gram matrix of :func:`_home_and_gram` and the per-shift
    values of the whole stack (``induction._shift_values``): the home
    points' shift index is built once, and each block is one
    :func:`transported_multiplication_matrix` call times G. A block holds
    as many omegas as keep its dim^2 entries per omega within
    ``_BLOCK_ENTRIES``, and at least one."""
    dspace = povm_like.diagonal_space
    index = dspace._shift_index_at(home, home)
    block = max(1, _BLOCK_ENTRIES // max(povm_like.dimension**2, 1))
    for start in range(0, len(omegas), block):
        stop = start + block
        compressed = transported_multiplication_matrix(
            dspace, omegas[start:stop], points=home, values=values[start:stop], index=index
        )
        compressed *= gram
        yield compressed


def intertwiner_compressions(povm: CovariantPOVM, omegas):
    """Yield W^H T(omega) W for a (k, q) stack of quotient functions, in
    order, as (n, dim, dim) stacks of n omegas at a time; W is the
    intertwiner and T = P (x) I_E the transported multiplication matrix of
    :mod:`covpovm.induction`.

    Column c of W is nonzero only on the E rows of its home point p(c), read
    off W itself (an entry off them raises), so entry (r, c) is
    P[p(r), p(c)] G[r, c] (:func:`_home_and_gram`): the result is W^H T W to
    rounding whatever W holds. P is read at the home points only, and the
    act runs once on the whole stack (:func:`_compressions`), so no array
    has more than dim^2 entries per omega besides the act's response.
    """
    home, gram = _home_and_gram(povm)
    omegas = np.asarray(omegas)
    values = _shift_values(povm.diagonal_space, omegas)
    yield from _compressions(povm, omegas, home, gram, values)


def apply_via_intertwiner(povm: CovariantPOVM, omega) -> BlockOperator:
    """Evaluate the POVM by compressing the transported multiplication
    operator through the intertwiner (:func:`intertwiner_compressions`).

    Independent of :meth:`CovariantPOVM.apply`; the two routes agreeing is
    the core correctness statement of this module.
    """
    return BlockOperator(povm.rep, next(intertwiner_compressions(povm, [omega]))[0])


@dataclass(frozen=True)
class CheckResult:
    check: str
    passed: bool
    max_deviation: float

    def as_dict(self) -> dict:
        return {
            "check": self.check,
            "pass": self.passed,
            "max_deviation": self.max_deviation,
        }


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def max_deviation(self) -> float:
        return _worst([c.max_deviation for c in self.checks])

    def as_dict(self) -> dict:
        return {
            "pass": self.passed,
            "checks": [c.as_dict() for c in self.checks],
        }

    def merged(self, other: "VerificationReport") -> "VerificationReport":
        return VerificationReport(self.checks + other.checks)


def _worst(deviations) -> float:
    """Largest deviation; NaN if any is NaN, which Python's ``max`` may drop."""
    return float(np.asarray(deviations, dtype=float).max(initial=0.0))


def _diagonal_phases(povm_like, g: GroupElement) -> np.ndarray:
    """The diagonal of U(g), as a copy that does not keep U(g) alive; a U(g)
    with a nonzero off-diagonal entry raises ``ValueError``."""
    u = povm_like.u_matrix(g)
    phases = np.diagonal(u).copy()
    if np.count_nonzero(u) != np.count_nonzero(phases):
        raise ValueError(f"U(g) is not diagonal at g = {list(g.coords)}")
    return phases


@dataclass(frozen=True, eq=False)
class DilationSweep:
    """Both evaluation routes over the verifiers' stack, reduced to what the
    checks read (:func:`dilation_sweep`).

    The stack is the q singletons e_0 ... e_{q-1}, the constant function 1,
    the indicator of {0, 1} when q > 1, ten seeded random functions and any
    extra rows. ``gaps`` holds, per row i, delta_i = max |M(omega_i) -
    W^H T(omega_i) W|, M the kernel route (``assembled``) and W^H T W the
    dilation (:func:`intertwiner_compressions`). ``additivity`` is
    max |M(e_0) + M(e_1) - M({0, 1})| (0.0 when q = 1) and ``normalization``
    is max |M(1) - I|. ``shift_values`` holds the dilation's per-shift values
    v_j(a) of each singleton, shape (q, |H-perp|): entry (r, c) of
    W^H T(e_j) W is v_j(a) G[r, c] (0 across fibers), where the home
    characters of columns r and c differ by hperp[a] and G is the Gram
    matrix of W's one-point values, of largest modulus ``gram_max``.
    ``home_characters`` holds each column's home character, as a group index.
    """

    gaps: np.ndarray
    additivity: float
    normalization: float
    shift_values: np.ndarray
    home_characters: np.ndarray
    gram_max: float


def dilation_sweep(povm_like, extra=()) -> DilationSweep:
    """Evaluate both routes once over the verifiers' stack, in blocks of
    ``_BLOCK_ENTRIES`` entries per route, keeping only the per-row gaps, the
    additivity and normalization gaps and the singletons' per-shift values
    (:class:`DilationSweep`): no q * dim^2 array is formed, and M(e_0) and
    M(e_1) are held only until the {0, 1} row. The act of the dilation runs
    once on the whole stack. ``extra``, a (k, q) stack of quotient
    functions, is appended last, so ``gaps[:q]`` stays the singletons'.

    Accepts any object exposing both routes: ``ctx``, ``dimension`` and
    ``assembled(omegas)``, which maps a (k, q) stack of quotient functions
    to the (k, dim, dim) stack of their kernel-route effects, and the
    dilation's ``intertwiner``, ``e_dim`` and ``diagonal_space``. The two
    routes are only compared, never mixed.
    """
    ctx = povm_like.ctx
    q = ctx.n_cosets
    rng = np.random.default_rng(2024)
    parts = rng.standard_normal((10, 2, q))  # real then imaginary part of each, in draw order
    eye = np.eye(q)
    unions = [eye[:2].sum(axis=0, keepdims=True)] if q > 1 else []
    randoms = parts[:, 0] + 1j * parts[:, 1]
    omegas = np.concatenate((eye, np.ones((1, q)), *unions, randoms, np.reshape(extra, (-1, q))))
    home, gram = _home_and_gram(povm_like)
    values = _shift_values(povm_like.diagonal_space, omegas)
    gaps, start, additivity = [], 0, 0.0
    for oracle in _compressions(povm_like, omegas, home, gram, values):
        stop = start + len(oracle)
        kernel = povm_like.assembled(omegas[start:stop])
        row = dict(zip(range(start, stop), kernel))
        if q > 1 and 0 in row:
            first = row[0].copy()
        if q > 1 and 1 in row:
            second = row[1].copy()
        if q in row:
            normalization = _worst(np.abs(row[q] - np.eye(povm_like.dimension)))
        if q > 1 and q + 1 in row:
            additivity = _worst(np.abs(first + second - row[q + 1]))
            first = second = None
        np.subtract(oracle, kernel, out=oracle)
        gaps.append(np.abs(oracle).max(axis=(1, 2), initial=0.0))
        start = stop
    return DilationSweep(
        gaps=np.concatenate(gaps),
        shift_values=values[:q, :-1].copy(),
        home_characters=povm_like.diagonal_space.point_indices[home],
        gram_max=_worst(np.abs(gram)),
        additivity=additivity,
        normalization=normalization,
    )


def _prime_factor_sum(n: int) -> int:
    """The sum of the prime factors of n >= 1, with multiplicity."""
    p = next((p for p in range(2, math.isqrt(n) + 1) if n % p == 0), n)
    return 0 if n == 1 else p + _prime_factor_sum(n // p)


def verify_axioms(povm_like, atol: float = DEFAULT_ATOL, sweep=None) -> VerificationReport:
    """Positivity of the singleton effects and normalization of the whole
    outcome space, read off the :class:`DilationSweep` (``sweep``, computed
    by :func:`dilation_sweep` when not given). No U is read and no
    eigensolver runs. Normalization is exhaustive: M(1) against I, entrywise.

    Positivity from the dilation's spectrum, with u = 2^-53:

    - X: W's one-point values, G_X = X^H X (Hermitian, PSD), G its computed
      form, g = max |G|. Entry (r, c) of W^H T(e_j) W is v_j(a) G_X[r, c],
      y(r) - y(c) = hperp[a] for the home characters y.
    - On each fiber, a coset of H-perp, T(e_j) is the convolution by v_j
      (x) I_E, so its Hermitian part has the eigenvalues Re lambda_j,
      lambda_j = ``ctx.cotransform_transposed(v_j)``, computed within
      eps_j = 8 D u sum_a |v_j(a)|: D, the sum of the prime factors of |G|
      with multiplicity, bounds the additions and twiddle products (each
      within 4u) from an FFT input to an output. With mu_j = max(0,
      -min Re lambda_j), the Hermitian part of W^H T(e_j) W is at least
      -(mu_j + eps_j) W^H W, and W^H W, G_X on the columns sharing a home
      point, is at most m max |G_X| by Gershgorin, m the most such columns.
    - Its hermiticity defect is at most eta_j max |G_X|, with
      eta_j = max_a |v_j(a) - conj v_j(-a)| (the annihilator's negation
      index). max |G_X| <= g + eps_G, eps_G = 2 (e_dim + 2) u g: G's entries
      are e_dim-term dot products, within gamma_{e_dim+2} of the product of
      two column norms.
    - M(e_j) is within Delta_j = delta_j + V_j (3u g + eps_G) of it in every
      entry, V_j = max |v_j|: the sweep's gap, and v_j[I] * G rounds by at
      most sqrt(2) gamma_2 |v| |G|. By Weyl's inequality the positivity
      deviation of M(e_j) (hermiticity defect or most negative eigenvalue)
      is at most b_j = max(eta_j, m (mu_j + eps_j)) (g + eps_G) +
      max(dim, 2) Delta_j.

    The report is max(a, (1 + 64u) max_j b_j): 1 + 64u covers delta_j's
    modulus and the formula's own operations, and a is the additivity probe
    max |M(e_0) + M(e_1) - M({0, 1})|, which fails a family that is not
    linear in omega (for a linear one, positive singletons make every union
    positive).

    Accepts any object :func:`dilation_sweep` accepts. Never raises on
    numerical failure: the report carries the deviations, NaN included.
    """
    sweep = dilation_sweep(povm_like) if sweep is None else sweep
    ctx, dim = povm_like.ctx, povm_like.dimension
    group, hperp, q = ctx.group, ctx.annihilator, ctx.n_cosets
    v = sweep.shift_values
    negated = hperp.position(group.ravel(-group.coords[hperp.indices]))
    # min Re lambda_j, eta_j, sum and max |v_j|, in blocks of _BLOCK_ENTRIES placed entries
    block, rows = max(1, _BLOCK_ENTRIES // group.order), []
    for s in range(0, q, block):
        values = v[s : s + block]
        size, mirror = np.abs(values), values.take(negated, axis=1).conj()
        lowest = ctx.cotransform_transposed(values).real.min(axis=1)
        rows.append((lowest, np.abs(values - mirror).max(axis=1), size.sum(1), size.max(1)))
    lowest, eta, total, largest = map(np.concatenate, zip(*rows))
    u, g = np.finfo(float).eps / 2.0, sweep.gram_max
    eps_gram = 2.0 * (povm_like.e_dim + 2) * u * g
    eps_fft = 8.0 * _prime_factor_sum(group.order) * u * total
    shared = np.bincount(sweep.home_characters).max(initial=0)
    spectral = np.maximum(eta, shared * (np.maximum(0.0, -lowest) + eps_fft))
    weyl = sweep.gaps[:q] + largest * (3.0 * u * g + eps_gram)
    bound = (spectral * (g + eps_gram) + max(dim, 2) * weyl) * (1.0 + 64.0 * u)
    pos_dev, norm_dev = _worst([sweep.additivity, *bound]), sweep.normalization
    return VerificationReport(
        (
            CheckResult("positivity", pos_dev <= atol, pos_dev),
            CheckResult("normalization", norm_dev <= atol, norm_dev),
        )
    )


def verify_covariance(povm_like, atol: float = DEFAULT_ATOL, sweep=None) -> VerificationReport:
    """Check U(g) M(e_j) U(g)* = M(g . e_j) for every g in G and every
    singleton coset j through the dilation, reading U(s) only at the L
    doubling generators s of G (:meth:`FiniteAbelianGroup.doubling_generators`),
    once each, and the :class:`DilationSweep` (``sweep``, computed by
    :func:`dilation_sweep` when not given).

    U(s) must be diagonal, as it is for a :class:`DiagonalRep`; a U(s) with
    a nonzero off-diagonal entry raises ``ValueError``. Per generator, two
    gaps are read in O(dim + q * |H-perp|):

    - rho_s = max over columns c of |U(s)[c, c] - <y(c), s>|, y(c) the
      home character of column c of W (the intertwining W U(s) = C(s) W);
    - sigma_s = max over j and a of |v_{s.j}(a) - <hperp[a], s> v_j(a)|,
      the cotransform's shift theorem on the singletons' per-shift values
      (``ctx.translated`` names the coset s.j).

    With g = max |G| and V = max |v_j(a)|, the per-generator dilation defect
    d_s = g * (sigma_s + 2 * rho_s * V) bounds every entry of
    U(s) W^H T(e_j) W U(s)* - W^H T(e_{s.j}) W. Every g is a sum of at
    most L distinct generators, and U is a unitary homomorphism, so along
    the word the phase gaps and the shift-theorem gaps add, and the
    reported

        2 * max_j delta_j + L * max_s d_s

    bounds the deviation at every g in G, delta_j the sweep's gap of the
    singleton e_j: the kernel route is within delta_j of the dilation on
    both sides, and conjugation by a diagonal unitary keeps the modulus of
    every entry. Linearity carries the singletons to every quotient
    function. Never raises on numerical failure otherwise: the report
    carries the deviation, NaN included.
    """
    sweep = dilation_sweep(povm_like) if sweep is None else sweep
    ctx, dim = povm_like.ctx, povm_like.dimension
    group, q = ctx.group, ctx.n_cosets
    generators = group.doubling_generators()
    at = [group.index_of(s) for s in generators]
    phases = np.array([_diagonal_phases(povm_like, s) for s in generators]).reshape(len(at), dim)
    cosets = np.arange(q)
    # row l: the coset that generator l carries onto each coset
    sources = np.array([ctx.translated(s, cosets).real for s in generators], dtype=np.intp)
    homes = group.pairing_matrix(sweep.home_characters, at).T  # <y(c), s>, one row per s
    rho = np.abs(phases - homes).max(axis=1, initial=0.0)
    v = sweep.shift_values
    shifts = group.pairing_matrix(ctx.annihilator.indices, at).T  # <hperp[a], s>, one row per s
    # one generator at a time, so that no array holds L * q * |H-perp| entries
    sigma = np.array([_worst(np.abs(v - c * v[j])) for c, j in zip(shifts, sources)])
    defects = sweep.gram_max * (sigma + 2.0 * rho * _worst(np.abs(v)))
    dev = 2.0 * _worst(sweep.gaps[:q]) + len(at) * _worst(defects)
    return VerificationReport(
        (CheckResult("covariance", dev <= atol, dev),)
    )


@dataclass(frozen=True)
class EquivalenceResult:
    equivalent: bool
    max_deviation: float


def _adjoints(stack: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each matrix of a stack, as a transposed view
    like ``w.conj().T``: matmul takes the same path for both layouts."""
    return stack.conj().transpose(0, 2, 1)


def sector_pointwise_operator(
    rep: DiagonalRep, sector_maps: Sequence[Mapping[DualCharacter, np.ndarray]]
) -> np.ndarray:
    """Assemble a block-diagonal operator acting within each sector,
    pointwise over its support, in the documented rep basis."""
    table = rep.support_table
    out = np.zeros((rep.dimension, rep.dimension), dtype=complex)
    maps = [IsometryField(k, m) for k, m in enumerate(sector_maps)]
    for points, stack in zip(table.by_f_dim, _stacked(rep, maps, None)):
        rows = table.block_rows(points, stack.shape[1])
        out[rows[:, :, None], rows[:, None, :]] = stack
    return out


def equivalence_check(
    povm_a: CovariantPOVM,
    povm_b: CovariantPOVM,
    sector_maps: Sequence[Mapping[DualCharacter, np.ndarray]],
    atol: float = DEFAULT_ATOL,
) -> EquivalenceResult:
    """Test whether pointwise sector unitaries intertwine the two POVMs.

    The criterion compares, over every pair of support points x, x' in one
    fiber (their characters differ by an annihilator point), the isometry
    overlaps W_x^H W_x' of the first field with (V_x S_x)^H (V_x' S_x') of
    the second, S the sector maps. No density enters: the kernel of a POVM
    is hw times these overlaps (``CovariantPOVM._kernel``), so hw *
    ``max_deviation`` is the entrywise gap between the kernel of ``povm_a``
    and S^H K_b S, hw the annihilator Haar weight. Requires both POVMs to be
    built over the same rep and subgroup, and every sector map to be
    unitary on its support.
    """
    if povm_a.rep is not povm_b.rep and povm_a.rep != povm_b.rep:
        raise ValueError("equivalence is defined over one common rep")
    if povm_a.ctx.subgroup.elements != povm_b.ctx.subgroup.elements:
        raise ValueError("equivalence is defined over one common subgroup")
    rep = povm_a.rep
    table = rep.support_table
    maps = _stacked(rep, [IsometryField(k, m) for k, m in enumerate(sector_maps)], None)
    for points, s in zip(table.by_f_dim, maps):
        unitary = np.abs(_adjoints(s) @ s - np.eye(s.shape[1])).max(axis=(1, 2)) <= atol
        if not unitary.all():
            p = points[np.argmin(unitary)]
            x = rep.group.points(DualCharacter, [table.indices[p]])[0]
            raise ValueError(f"sector map {table.sectors[p]} at {x} is not unitary")
    fiber = povm_a.ctx.dual_quotient.projection[table.indices]
    in_fiber = fiber[:, None] == fiber
    stacks = list(zip(table.by_f_dim, povm_a._isometry_stacks, povm_b._isometry_stacks, maps))
    devs = []
    for pa, wa, va, sa in stacks:
        for pb, wb, vb, sb in stacks:
            a, b = np.nonzero(in_fiber[np.ix_(pa, pb)])
            lhs = _adjoints(wa[a]) @ wb[b]
            rhs = _adjoints(sa[a]) @ _adjoints(va[a]) @ vb[b] @ sb[b]
            devs.append(np.abs(lhs - rhs).max(initial=0.0))
    dev = _worst(devs)
    return EquivalenceResult(equivalent=dev <= atol, max_deviation=dev)
