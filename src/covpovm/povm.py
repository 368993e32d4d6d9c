"""Covariant POVMs for diagonal representations of a finite Abelian group.

A representation acting diagonally on weighted character spaces admits,
for every subgroup, a family of covariant POVMs on the quotient: each one
is cut out by a field of isometries over the spectral support, scaled by
the density of the sector measure against the lifted class measure. This
module builds those POVMs, evaluates them as one dense matrix in the rep
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
The kernel's omega-independent factor is one Gram product of per-row
vectors, the isometry column of each basis row scaled by sqrt(w / d) on one
side and sqrt(d / w) on the other (``CovariantPOVM._row_factors``), and
:meth:`CovariantPOVM.singleton_expectations` reads the Born expectations of
all singleton cosets off the same factors without the table: one FFT
cross-correlation on the dual group and one transposed cotransform.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property

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
    DOMAIN_DUAL_QUOTIENT,
    QuotientContext,
    WeightedMeasure,
    image_measure,
    lift_measure,
)
from .induction import DiagonalSpace, transported_multiplication_matrix

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
    index, sector, multiplicity and sector-measure weight. ``rows`` is the
    point of each basis row; ``by_f_dim`` holds the positions of the points
    of each multiplicity, smallest first; ``sector_f_dims`` holds the
    multiplicity of every sector, one with an empty support included."""

    indices: np.ndarray
    sectors: np.ndarray
    f_dims: np.ndarray
    weights: np.ndarray
    rows: np.ndarray
    by_f_dim: tuple[np.ndarray, ...]
    sector_f_dims: np.ndarray

    @classmethod
    def of(cls, sectors, indices, weights, sector_f_dims) -> "SupportTable":
        """The table of support points given in any order by sector, group
        index and weight, with the multiplicity of each sector."""
        order = np.lexsort((indices, sectors))
        sectors = np.asarray(sectors, dtype=np.int64)[order]
        sector_f_dims = np.asarray(sector_f_dims, dtype=np.int64)
        f_dims = sector_f_dims[sectors]
        rows = np.repeat(np.arange(len(order)), f_dims)
        by_f_dim = tuple(np.flatnonzero(f_dims == f) for f in _unique(f_dims))
        indices, weights = np.asarray(indices)[order], np.asarray(weights, dtype=float)[order]
        return cls(indices, sectors, f_dims, weights, rows, by_f_dim, sector_f_dims)

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


class DiagonalRep:
    """Representation acting by character multiplication on an orthogonal sum
    of weighted character spaces.

    Basis order: sector (major), support character sorted lexicographically,
    multiplicity coordinate (minor). The inner-product weight of a basis
    entry is the sector measure at its character. ``support_table`` is the
    internal form of the support: ``DiagonalRep(group, sectors)`` converts
    the sector measures to it on first use, and :meth:`of_arrays` builds it
    directly, leaving ``sectors`` and ``sector_points`` to be built from it
    for callers that read them.
    """

    def __init__(self, group: FiniteAbelianGroup, sectors: Sequence[SectorSpec]):
        self.group = group
        self.sectors = tuple(sectors)

    @classmethod
    def of_arrays(cls, group, sectors, indices, weights, sector_f_dims) -> "DiagonalRep":
        """The rep with support point ``indices[i]`` (a group index) in sector
        ``sectors[i]`` at weight ``weights[i]`` > 0, each point once per
        sector, and multiplicities ``sector_f_dims``, each >= 1. Arrays of
        different lengths, an index outside [0, |G|), a sector outside
        [0, len(sector_f_dims)) and a weight that is not finite and > 0
        raise :class:`PovmBuildError` naming the position and the value."""
        sector_f_dims = np.asarray(sector_f_dims, dtype=np.int64)
        small = sector_f_dims[sector_f_dims < 1]
        if len(small):
            raise ValueError(f"multiplicity must be >= 1, got {small[0]}")
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
        rep = cls.__new__(cls)
        rep.group = group
        rep.support_table = SupportTable.of(sectors, indices, weights, sector_f_dims)
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
        return SupportTable.of(sectors, group.ravel(coords), weights, f_dims)

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


def recommended_e_dim(rep: DiagonalRep) -> int:
    """Smallest embedding dimension leaving room for isometry fields with
    mutually orthogonal ranges across sectors; anything down to the largest
    single multiplicity is still accepted by the builder."""
    return int(rep.support_table.sector_f_dims.sum()) or 1


def validate_rep(rep: DiagonalRep) -> None:
    """Reject support points that are not characters of the group, and
    sector families whose supports overlap.

    Overlapping supports break the canonical diagonal decomposition: the
    assembled isometry field would no longer be isometric and the POVM
    would fail normalization.
    """
    table = rep.support_table
    points, counts = np.unique(table.indices, return_counts=True)
    if len(points) == len(table.indices):
        return
    shared = _isin(table.indices, points[counts > 1])
    # rows (j, k, point) for two memberships of one shared point, j < k, sorted
    point, sector = table.indices[shared], table.sectors[shared]
    a, b = np.nonzero((point[:, None] == point) & (sector[:, None] < sector))
    rows = np.stack([sector[a], sector[b], point[a]], axis=1)
    # return_index: a plain np.unique imports numpy.ma
    pairs = np.unique(rows, axis=0, return_index=True)[0]
    _, starts = np.unique(pairs[:, :2], axis=0, return_index=True)
    overlaps = [
        {"sectors": chunk[0, :2].tolist(), "points": rep.group.coords[chunk[:, 2]].tolist()}
        for chunk in np.split(pairs, starts[1:])
    ]
    raise PovmBuildError("sector supports are not pairwise disjoint", overlaps=overlaps)


@dataclass(frozen=True, eq=False)
class MeasureClassData:
    """Canonical representatives of the measure class of a diagonal rep.

    ``quotient_measure`` puts weight 1 on each occupied coset of the dual
    quotient (any equivalent choice yields the same POVM, this one matches
    the Haar normalization so that for the trivial subgroup the densities
    are taken against Haar measure on the dual); ``lifted_weights`` is its
    lift back to the dual group, one weight per character index.
    """

    quotient_measure: WeightedMeasure
    lifted_weights: np.ndarray


def class_measure(
    ctx: QuotientContext,
    rep: DiagonalRep,
    quotient_measure: WeightedMeasure | None = None,
) -> MeasureClassData:
    """Compute the class measure data of a validated rep.

    A different representative of the class may be supplied; it must carry
    exactly the occupied cosets of the dual quotient.
    """
    support = _unique(rep.support_table.indices)
    occupied = np.flatnonzero(image_measure(ctx, support, np.ones(len(support))) > 0.0).tolist()
    if quotient_measure is None:
        quotient_measure = WeightedMeasure(DOMAIN_DUAL_QUOTIENT, dict.fromkeys(occupied, 1.0))
    else:
        if quotient_measure.domain != DOMAIN_DUAL_QUOTIENT:
            raise ValueError("class measure must live on the dual quotient")
        if quotient_measure.support != set(occupied):
            raise ValueError(
                "supplied measure is not equivalent to the class measure: "
                f"support {sorted(quotient_measure.support)} != {occupied}"
            )
    nu = np.zeros(len(ctx.dual_quotient))
    nu[list(quotient_measure.weights)] = list(quotient_measure.weights.values())
    return MeasureClassData(quotient_measure, lift_measure(ctx, nu))


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

    @property
    def quotient_measure(self) -> WeightedMeasure:
        return self.class_data.quotient_measure

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
    def _row_factors(self) -> np.ndarray:
        """[A, B], shape (2, dim, e_dim): row r is the isometry column of
        basis row r (column k of W_x for the k-th row of point x), divided by
        beta = sqrt(d / w) at x in A and times beta in B, so that the kernel
        factor of rows r, c is hw * <A[r], B[c]> where D >= 0."""
        table = self.rep.support_table
        factors = np.empty((2, self.dimension, self.e_dim), dtype=complex)
        for points, w in zip(table.by_f_dim, self._isometry_stacks):
            rows = table.block_rows(points, w.shape[2]).ravel()
            factors[1, rows] = w.transpose(0, 2, 1).reshape(-1, self.e_dim)
        beta = np.sqrt(self.point_densities / table.weights)[table.rows, None]
        np.divide(factors[1], beta, out=factors[0])
        factors[1] *= beta
        return factors

    @cached_property
    def _kernel(self) -> tuple[np.ndarray, np.ndarray]:
        """(D, K) over the rep basis. D[r, c] is the annihilator index of the
        difference of the characters of basis rows r and c, or -1 (int32);
        K = hw conj(A) B^T from ``_row_factors`` where D >= 0, and 0
        elsewhere."""
        table, group = self.rep.support_table, self.rep.group
        coords = group.coords[table.indices[table.rows]]
        index = self.ctx.annihilator.position(group.ravel(coords[:, None] - coords[None]))
        a, b = self._row_factors
        kernel = a.conj() @ b.T
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
        With a_x and b_x the sums of A[r] psi_r and B[r] psi_r over the rows
        of support point x (``_row_factors``), s[a] is hw * sum over
        x - x' = a of <a_x, b_x'>: one cross-correlation of the two factor
        fields placed on the dual group, by ``fftn``, read at the
        annihilator. No effect and no dim x dim table is formed. Returns the
        real parts, indexed by coset. A state of the wrong shape or with
        non-finite entries raises ``ValueError``.
        """
        state = np.asarray(state, dtype=complex)
        if state.shape != (self.dimension,):
            raise ValueError(f"expected a vector of dimension {self.dimension}, got {state.shape}")
        if not np.isfinite(state).all():
            raise ValueError("state has non-finite entries")
        table, group = self.rep.support_table, self.rep.group
        sums = np.add.reduceat(self._row_factors * state[:, None], table.row_starts, axis=1)
        # a and b on the dual group, zero off the support, one plane per
        # embedding coordinate so that the transformed axes are the
        # contiguous ones (about 4x faster than strided ones in pocketfft)
        placed = np.zeros((2, self.e_dim, group.order), dtype=complex)
        placed[:, :, table.indices] = sums.transpose(0, 2, 1)
        axes = tuple(range(2, 2 + group.rank))
        spectra = np.fft.fftn(placed.reshape(2, self.e_dim, *group.factors), axes=axes)
        # s[y] / hw = sum_x conj(a[x]) b[x - y] is the conjugate of the
        # correlation sum_x a[x] conj(b[x - y]), whose spectrum is Fa conj(Fb)
        correlation = np.fft.ifftn((spectra[0] * spectra[1].conj()).sum(axis=0)).ravel()
        s = self.ctx.hperp_weight * correlation[self.ctx.annihilator.indices].conj()
        return self.ctx.cotransform_transposed(s).real

    def assembled(self, omega) -> np.ndarray:
        return self.apply(omega).assemble()

    def assembled_effect(self, cosets) -> np.ndarray:
        return self.assembled(self.ctx.indicator(cosets))

    @cached_property
    def diagonal_space(self) -> DiagonalSpace:
        """Target model of the intertwiner, over the class measure."""
        return DiagonalSpace(self.ctx, self.quotient_measure, self.e_dim)

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
    quotient_measure: WeightedMeasure | None = None,
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
    a point whose density d or scale sqrt(d / w) is not finite and > 0
    (a finite weight w can overflow its density), naming the first such
    sector and point in basis order. ``atol`` must itself be finite and
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
    povm = CovariantPOVM(rep, ctx, e_dim, fields, class_measure(ctx, rep, quotient_measure))
    nonfinite = np.zeros(len(table.indices), dtype=bool)
    deviation = np.zeros(len(table.indices))
    for points, w in zip(table.by_f_dim, povm._isometry_stacks):
        nonfinite[points] = ~np.isfinite(w).all(axis=(1, 2))
        deviation[points] = np.abs(_adjoints(w) @ w - np.eye(w.shape[2])).max(axis=(1, 2))
    if nonfinite.any():
        p = int(np.argmax(nonfinite))
        raise PovmBuildError("isometry matrix has non-finite entries", **_where(rep, p))
    if (deviation > atol).any():
        p = int(np.argmax(deviation > atol))
        raise PovmBuildError(
            "field matrix is not isometric", **_where(rep, p), deviation=float(deviation[p])
        )
    # sqrt(d / w) is finite and > 0 exactly when d / w is
    with np.errstate(all="ignore"):  # an overflow is reported below
        d = povm.point_densities
        ratio = d / table.weights
    unusable = ~((d > 0.0) & (d < np.inf) & (ratio > 0.0) & (ratio < np.inf))
    if unusable.any():
        p = int(np.argmax(unusable))
        message = "density or its scale sqrt(density / weight) is not finite and > 0"
        raise PovmBuildError(message, **_where(rep, p), weight=float(table.weights[p]))
    return povm


def _where(rep: DiagonalRep, p: int) -> dict:
    """Sector and point coordinates of support point p, for rejection details."""
    table = rep.support_table
    return {"sector": int(table.sectors[p]), "point": rep.group.coords[table.indices[p]].tolist()}


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
    # (sector, group index) keys of the support, sorted, and of the listed matrices
    wanted = table.sectors * group.order + table.indices
    listed = fields.owners * group.order + fields.indices
    missing = ~_isin(wanted, listed)
    if missing.any():
        p = int(np.argmax(missing))
        raise PovmBuildError("isometry field is missing a support point", **_where(rep, p))
    outside = ~_isin(listed, wanted)
    if outside.any():
        k, index = divmod(int(listed[outside].min()), group.order)
        message = "isometry field has a matrix outside its sector's support"
        raise PovmBuildError(message, sector=k, point=group.coords[index].tolist())
    at = np.argsort(listed)  # the listed keys are now the wanted ones: this aligns them
    rows = table.f_dims if e_dim is None else np.full(len(at), e_dim)
    expected = np.stack((rows, table.f_dims), axis=1)
    wrong = (fields.shapes[at] != expected).any(axis=1)
    if wrong.any():
        p = int(np.argmax(wrong))
        raise PovmBuildError(
            "isometry matrix has the wrong shape",
            **_where(rep, p), shape=fields.shapes[at[p]].tolist(), expected=expected[p].tolist(),
        )
    starts = fields.starts[at]
    return tuple(
        fields.data[starts[points, None] + np.arange((e_dim or f) * f)].reshape(len(points), -1, f)
        for points, f in zip(table.by_f_dim, _unique(table.f_dims).tolist())
    )


def intertwiner_matrix(povm: CovariantPOVM) -> np.ndarray:
    """Isometry from the rep space into the diagonal model over the class
    measure, multiplying each sector component by the square root of its
    density and embedding through the isometry field.

    Columns follow the rep basis, rows the diagonal-space basis, both in
    orthonormal coordinates. Each multiplicity's isometries are scaled and
    scattered into place at once.
    """
    dspace = povm.diagonal_space
    table, e = povm.rep.support_table, povm.e_dim
    lifted = povm.class_data.lifted_weights[table.indices]
    scale = np.sqrt(lifted * povm.point_densities / table.weights)
    target = np.searchsorted(dspace.point_indices, table.indices)[:, None] * e + np.arange(e)
    out = np.zeros((dspace.dim, povm.dimension), dtype=complex)
    for points, w in zip(table.by_f_dim, povm._isometry_stacks):
        cols = table.block_rows(points, w.shape[2])
        out[target[points, :, None], cols[:, None, :]] = scale[points, None, None] * w
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


def _gathered_sum(a: np.ndarray, rows: np.ndarray, factors: np.ndarray, axis: int) -> np.ndarray:
    """Sum over e of ``a`` gathered at ``rows[e]`` along ``axis``, times ``factors[e]``."""
    out = np.take(a, rows[0], axis=axis)
    out *= factors[0]
    for index, factor in zip(rows[1:], factors[1:]):
        term = np.take(a, index, axis=axis)
        term *= factor
        out += term
    return out


def intertwiner_compressions(povm: CovariantPOVM, omegas):
    """Yield W^H T(omega) W for a (k, q) stack of quotient functions, in
    order, as (n, dim, dim) stacks of n omegas at a time; W is the
    intertwiner and T the transported multiplication matrix of
    :mod:`covpovm.induction`.

    Column c of W is nonzero only on the E rows (p(c), e) of one point, read
    off W itself, so entry (r, c) of the compression is the sum over e, e' of
    conj(W[(p(r), e), r]) T[(p(r), e), (p(c), e')] W[(p(c), e'), c]: two
    gathers of T and entrywise products, with no dense product. W is
    checked once for entries off those rows, so the result is W^H T W to
    rounding whatever W holds. A block holds as many omegas as keep its
    arrays within ``_BLOCK_ENTRIES`` entries, and at least one: T, T W and
    one gathered term, dim_T * (dim_T + 2 dim) entries per omega, bound
    every step.
    """
    rows, values = _one_point_columns(povm.intertwiner, povm.e_dim)
    dspace = povm.diagonal_space
    omegas = np.asarray(omegas)
    per_omega = dspace.dim * (dspace.dim + 2 * povm.dimension)
    block = max(1, _BLOCK_ENTRIES // max(per_omega, 1))
    for start in range(0, len(omegas), block):
        # (T W)[:, d, c] = sum over e of T[:, d, rows[e, c]] W[rows[e, c], c], then
        # (W^H T W)[:, r, c] = sum over e of conj(W[rows[e, r], r]) (T W)[:, rows[e, r], c]
        t = transported_multiplication_matrix(dspace, omegas[start : start + block])
        tw = _gathered_sum(t, rows, values, axis=2)
        del t  # T is not needed for the second gather
        yield _gathered_sum(tw, rows, values.conj()[:, :, None], axis=1)


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
    return float(np.max(np.asarray(deviations, dtype=float), initial=0.0))


def _positivity_deviation(matrix: np.ndarray) -> float:
    """How far a matrix is from being positive semidefinite: the larger of
    the hermiticity defect and the most negative eigenvalue; NaN for a
    matrix with non-finite entries."""
    if not matrix.size:
        return 0.0
    if not np.isfinite(matrix).all():
        return math.nan
    herm_defect = float(np.abs(matrix - matrix.conj().T).max())
    eigenvalues = np.linalg.eigvalsh((matrix + matrix.conj().T) / 2.0)
    return max(herm_defect, float(max(0.0, -eigenvalues.min())))


def _diagonal_phases(povm_like, g: GroupElement) -> np.ndarray:
    """The diagonal of U(g); a U(g) with a nonzero off-diagonal entry raises
    ``ValueError``."""
    u = povm_like.u_matrix(g)
    phases = np.diagonal(u)
    if np.count_nonzero(u) != np.count_nonzero(phases):
        raise ValueError(f"U(g) is not diagonal at g = {list(g.coords)}")
    return phases


def verify_axioms(povm_like, atol: float = DEFAULT_ATOL) -> VerificationReport:
    """Positivity of the singleton effects and normalization of the whole
    outcome space.

    Positivity by transitivity: G acts transitively on G/H, so M(e_j)
    should be U(r_j) M(e_0) U(r_j)*, r_j the representative of coset j,
    which has the spectrum of M(e_0). One ``eigvalsh`` reads the positivity
    deviation p_0 of M(e_0) (the larger of its hermiticity defect and its
    most negative eigenvalue); delta is the worst entrywise gap between
    M(e_j) and U(r_j) M(e_0) U(r_j)* over all j. By Weyl's inequality, with
    the spectral norm of the gap at most dim * delta and its hermiticity
    defect at most 2 * delta, the reported

        max(p_0, a) + max(dim, 2) * delta

    bounds the positivity deviation of every singleton effect. a is the
    entrywise gap between M(e_0) + M(e_1) and M({0, 1}), one probe of
    additivity that fails a family which is not linear in omega; for a
    linear family, positive singletons make every union positive.
    Normalization is exhaustive: the effect of the whole quotient against
    the identity, entrywise. The q singletons, the whole quotient and
    {0, 1} are one stack, evaluated in blocks of ``_BLOCK_ENTRIES`` entries.

    Accepts any object with ``ctx``, ``dimension``, ``u_matrix(g)`` and
    ``assembled(omegas)``, which maps a (k, q) stack of quotient functions
    to the (k, dim, dim) stack of their effects; U(g) must be diagonal, as
    it is for a :class:`DiagonalRep`, and a U(r_j) with a nonzero
    off-diagonal entry raises ``ValueError``. Never raises on numerical
    failure otherwise: the report carries the deviations, NaN included.
    """
    ctx = povm_like.ctx
    q = ctx.n_cosets
    # row j < q is the singleton j, row q the whole quotient, row q + 1 {0, 1}
    unions = [ctx.indicator([0, 1])] if q > 1 else []
    omegas = np.vstack((np.eye(q), np.ones(q), *unions))
    block = max(1, _BLOCK_ENTRIES // max(povm_like.dimension**2, 1))
    reps, kept, gaps = ctx.quotient.representatives, {}, []
    for start in range(0, len(omegas), block):
        effects = povm_like.assembled(omegas[start : start + block])
        kept.update((j, effects[j - start]) for j in (0, 1, q, q + 1) if 0 <= j - start < len(effects))
        singles = range(max(start, 1), min(start + len(effects), q))
        if len(singles):
            phases = np.stack([_diagonal_phases(povm_like, reps[j]) for j in singles])
            moved = phases[:, :, None] * kept[0]
            moved *= phases.conj()[:, None, :]
            moved -= effects[singles.start - start : singles.stop - start]
            gaps.append(_worst(np.abs(moved)))
    first = kept[0]
    additivity = _worst(np.abs(first + kept[1] - kept[q + 1])) if q > 1 else 0.0
    delta = _worst(gaps)
    pos_dev = max(_positivity_deviation(first), additivity) + max(first.shape[0], 2) * delta
    norm_dev = _worst(np.abs(kept[q] - np.eye(povm_like.dimension)))
    return VerificationReport(
        (
            CheckResult("positivity", pos_dev <= atol, pos_dev),
            CheckResult("normalization", norm_dev <= atol, norm_dev),
        )
    )


def verify_covariance(povm_like, atol: float = DEFAULT_ATOL) -> VerificationReport:
    """Check U(s) M(e_j) U(s)* = M(s . e_j) for every doubling generator s
    of G (:meth:`FiniteAbelianGroup.doubling_generators`) and every
    singleton coset effect e_j, which covers every quotient function when
    the effects are linear in omega.

    Reports L * eps, L the number of generators and eps the worst entrywise
    deviation over them. That bounds the deviation at every g in G: g is a
    word of at most L generators, U is a homomorphism, and conjugation by
    a diagonal unitary keeps the modulus of every entry, so the per-step
    deviations add along the word. The q singleton effects are one stack,
    evaluated once: ``assembled(omegas)`` maps a (k, q) stack of quotient
    functions to the (k, dim, dim) stack of their effects, each depending
    only on its omega. ``ctx.translated`` applied to the coset indices
    gives, for each coset i, the coset j that s carries onto i. U(s) must
    be diagonal, as it is for a :class:`DiagonalRep`: conjugation is then
    the entrywise product of M with phases[:, None] * conj(phases), phases
    the diagonal of U(s), taken a block of cosets at a time, and a U(s)
    with a nonzero off-diagonal entry raises ``ValueError``.
    """
    ctx = povm_like.ctx
    q = ctx.n_cosets
    effects = povm_like.assembled(np.eye(q))
    cosets = np.arange(q)
    block = max(1, _BLOCK_ENTRIES // max(effects[0].size, 1))
    generators = ctx.group.doubling_generators()
    devs = []
    for s in generators:
        phases = _diagonal_phases(povm_like, s)
        source = ctx.translated(s, cosets).real.astype(int)
        outer = phases[:, None] * phases.conj()
        for start in range(0, q, block):
            conjugated = effects[source[start : start + block]]
            conjugated *= outer
            conjugated -= effects[start : start + block]
            devs.append(_worst(np.abs(conjugated)))
    dev = len(generators) * _worst(devs)
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

    The criterion compares, over every block and every annihilator shift
    within the supports, the density-weighted isometry overlaps of the two
    fields after conjugation by the sector maps. Requires both POVMs to be
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
    # every pair of support points x, x' in one fiber compares
    # sqrt(density(x')) W_x^H W_x' with the same for W'_x S_x
    fiber = povm_a.ctx.dual_quotient.projection[table.indices]
    in_fiber = fiber[:, None] == fiber
    weight = np.sqrt(povm_a.point_densities)
    stacks = list(zip(table.by_f_dim, povm_a._isometry_stacks, povm_b._isometry_stacks, maps))
    devs = []
    for pa, wa, va, sa in stacks:
        for pb, wb, vb, sb in stacks:
            a, b = np.nonzero(in_fiber[np.ix_(pa, pb)])
            w = weight[pb[b], None, None]
            lhs = w * (_adjoints(wa[a]) @ wb[b])
            rhs = w * (_adjoints(sa[a]) @ _adjoints(va[a]) @ vb[b] @ sb[b])
            devs.append(np.abs(lhs - rhs).max(initial=0.0))
    dev = _worst(devs)
    return EquivalenceResult(equivalent=dev <= atol, max_deviation=dev)
