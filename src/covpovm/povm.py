"""Covariant POVMs for diagonal representations of a finite Abelian group.

A representation acting diagonally on weighted character spaces admits,
for every subgroup, a family of covariant POVMs on the quotient: each one
is cut out by a field of isometries over the spectral support, scaled by
the density of the sector measure against the lifted class measure. This
module builds those POVMs, evaluates them as one dense matrix in the rep
basis (a :class:`BlockOperator`, whose sector blocks are slices of it at
the rep's offsets), and verifies the defining axioms, covariance, and the
equivalence criterion.

Two independent evaluation routes are provided on purpose:
:meth:`CovariantPOVM.apply` gathers the cotransform of the outcome function
over a cached kernel table, while :func:`apply_via_intertwiner` compresses
the transported multiplication operator of :mod:`covpovm.induction`
through the explicit intertwiner. They must agree to working precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .groups import (
    DualCharacter,
    FiniteAbelianGroup,
    GroupElement,
    Subgroup,
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
class DiagonalRep:
    """Representation acting by character multiplication on an orthogonal sum
    of weighted character spaces.

    Basis order: sector (major), support character sorted lexicographically,
    multiplicity coordinate (minor). The inner-product weight of a basis
    entry is the sector measure at its character.
    """

    group: FiniteAbelianGroup
    sectors: tuple[SectorSpec, ...]

    @cached_property
    def sector_points(self) -> tuple[tuple[DualCharacter, ...], ...]:
        return tuple(tuple(sorted(s.rho.support)) for s in self.sectors)

    @cached_property
    def sector_dims(self) -> tuple[int, ...]:
        return tuple(
            len(pts) * s.f_dim for pts, s in zip(self.sector_points, self.sectors)
        )

    @cached_property
    def offsets(self) -> tuple[int, ...]:
        out, total = [], 0
        for d in self.sector_dims:
            out.append(total)
            total += d
        return tuple(out)

    @property
    def dimension(self) -> int:
        return sum(self.sector_dims)

    @cached_property
    def point_indices(self) -> list[int]:
        """Group index of each support character, sector-major as in the basis."""
        return [self.group.index_of(x) for points in self.sector_points for x in points]

    def u_matrix(self, g: GroupElement) -> np.ndarray:
        """The diagonal unitary of the group element, in the documented basis."""
        f_dims = [s.f_dim for points, s in zip(self.sector_points, self.sectors) for _ in points]
        phases = self.group.pairing_matrix(self.point_indices, [self.group.index_of(g)])
        return np.diag(np.repeat(phases[:, 0], f_dims))


def recommended_e_dim(rep: DiagonalRep) -> int:
    """Smallest embedding dimension leaving room for isometry fields with
    mutually orthogonal ranges across sectors; anything down to the largest
    single multiplicity is still accepted by the builder."""
    return sum(s.f_dim for s in rep.sectors) or 1


def validate_rep(rep: DiagonalRep) -> None:
    """Reject sector families whose supports overlap.

    Overlapping supports break the canonical diagonal decomposition: the
    assembled isometry field would no longer be isometric and the POVM
    would fail normalization.
    """
    for spec in rep.sectors:
        for x in spec.rho.support:
            if x.factors != rep.group.factors:
                raise PovmBuildError(
                    "sector support point does not belong to the dual of the group",
                    point=list(x.coords),
                )
    overlaps = []
    for j in range(len(rep.sectors)):
        for k in range(j + 1, len(rep.sectors)):
            common = rep.sectors[j].rho.support & rep.sectors[k].rho.support
            if common:
                overlaps.append(
                    {
                        "sectors": [j, k],
                        "points": sorted(list(x.coords) for x in common),
                    }
                )
    if overlaps:
        raise PovmBuildError(
            "sector supports are not pairwise disjoint", overlaps=overlaps
        )


@dataclass(frozen=True)
class MeasureClassData:
    """Canonical representatives of the measure class of a diagonal rep.

    ``support_indicator`` puts weight 1 on the union of sector supports;
    ``quotient_measure`` puts weight 1 on each occupied coset of the dual
    quotient (any equivalent choice yields the same POVM, this one matches
    the Haar normalization so that for the trivial subgroup the densities
    are taken against Haar measure on the dual); ``lifted_measure`` is its
    lift back to the dual group.
    """

    support_indicator: WeightedMeasure
    quotient_measure: WeightedMeasure
    lifted_measure: WeightedMeasure


def class_measure(
    ctx: QuotientContext,
    rep: DiagonalRep,
    quotient_measure: WeightedMeasure | None = None,
) -> MeasureClassData:
    """Compute the class measure data of a validated rep.

    A different representative of the class may be supplied; it must carry
    exactly the occupied cosets of the dual quotient.
    """
    union: set = set()
    for spec in rep.sectors:
        union |= spec.rho.support
    indicator = WeightedMeasure(DOMAIN_DUAL, {x: 1.0 for x in union})
    image = image_measure(ctx, indicator)
    if quotient_measure is None:
        quotient_measure = WeightedMeasure(
            DOMAIN_DUAL_QUOTIENT, {i: 1.0 for i in image.support}
        )
    else:
        if quotient_measure.domain != DOMAIN_DUAL_QUOTIENT:
            raise ValueError("class measure must live on the dual quotient")
        if quotient_measure.support != image.support:
            raise ValueError(
                "supplied measure is not equivalent to the class measure: "
                f"support {sorted(quotient_measure.support)} != "
                f"{sorted(image.support)}"
            )
    return MeasureClassData(
        support_indicator=indicator,
        quotient_measure=quotient_measure,
        lifted_measure=lift_measure(ctx, quotient_measure),
    )


@dataclass(frozen=True)
class AdmissibilityResult:
    """Outcome of the density criterion, with the per-sector densities."""

    admits: bool
    densities: tuple[Mapping[DualCharacter, float], ...]
    support_certificates: tuple[bool, ...]


def admits_covariant_povm(
    ctx: QuotientContext,
    rep: DiagonalRep,
    quotient_measure: WeightedMeasure | None = None,
) -> AdmissibilityResult:
    """Density criterion for the existence of covariant POVMs.

    Each sector measure must have a density against the lifted class
    measure; with atomic measures the support inclusion holds by
    construction, so at this scale the answer is always yes and the value
    of the call is the density table.
    """
    return _admissibility(rep, class_measure(ctx, rep, quotient_measure))


def _admissibility(rep: DiagonalRep, data: MeasureClassData) -> AdmissibilityResult:
    """The density step of the criterion, against class measure data
    already computed."""
    densities = []
    certificates = []
    for spec in rep.sectors:
        certificates.append(spec.rho.support <= data.lifted_measure.support)
        densities.append(
            {x: spec.rho(x) / data.lifted_measure(x) for x in sorted(spec.rho.support)}
        )
    return AdmissibilityResult(
        admits=all(certificates),
        densities=tuple(densities),
        support_certificates=tuple(certificates),
    )


@dataclass(frozen=True, eq=False)
class IsometryField:
    """Per-sector family of isometries from the multiplicity space into C^E,
    one matrix of shape (e_dim, f_dim) per support character."""

    sector: int
    matrices: Mapping[DualCharacter, np.ndarray]


@dataclass(frozen=True, eq=False)
class BlockOperator:
    """Operator on a diagonal rep space: one dense matrix in the documented
    sector-major basis, in orthonormal coordinates. Sector blocks are
    slices of it at the rep's sector offsets."""

    rep: DiagonalRep
    matrix: np.ndarray

    def block(self, j: int, k: int) -> np.ndarray:
        rows = slice(self.rep.offsets[j], self.rep.offsets[j] + self.rep.sector_dims[j])
        cols = slice(self.rep.offsets[k], self.rep.offsets[k] + self.rep.sector_dims[k])
        return self.matrix[rows, cols]

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

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
    fields: tuple[IsometryField, ...]
    class_data: MeasureClassData
    densities: tuple[Mapping[DualCharacter, float], ...]

    @property
    def dimension(self) -> int:
        return self.rep.dimension

    @property
    def quotient_measure(self) -> WeightedMeasure:
        return self.class_data.quotient_measure

    def u_matrix(self, g: GroupElement) -> np.ndarray:
        return self.rep.u_matrix(g)

    def _point_differences(self) -> np.ndarray:
        """Annihilator index of x - x' for every pair of support characters,
        sector-major as ``rep.point_indices``, or -1."""
        group = self.rep.group
        support = group.coords[self.rep.point_indices]
        return self.ctx.annihilator.position(group.ravel(support[:, None] - support[None]))

    @cached_property
    def _kernel(self) -> tuple[np.ndarray, np.ndarray]:
        """(D, K) over the rep basis. D[r, c] is the annihilator index of the
        difference of the characters of basis rows r and c, or -1; K is the
        omega-independent kernel factor of the POVM formula where D >= 0,
        and 0 elsewhere."""
        rep, ctx = self.rep, self.ctx
        points = [(k, x) for k, pts in enumerate(rep.sector_points) for x in pts]
        point_d = self._point_differences()

        f_dims = np.array([rep.sectors[k].f_dim for k, _ in points], dtype=np.int64)
        density = np.array([self.densities[k][x] for k, x in points])
        weight = np.array([rep.sectors[k].rho(x) for k, x in points])
        # square root of the density ratio, then the conversion of function
        # values to orthonormal coordinates
        scale = (
            ctx.hperp_weight
            * np.sqrt(density[None, :] / density[:, None])
            * np.sqrt(weight[:, None] / weight[None, :])
        )

        # Isometry overlaps W_r^H W_c by one batched matmul per pair of
        # multiplicities: each product is then the same small-matrix product
        # as the per-pair formula, bit for bit, which a single GEMM over all
        # rows is not.
        mats = [np.asarray(self.fields[k].matrices[x], dtype=complex) for k, x in points]
        first_row = np.cumsum(f_dims) - f_dims
        by_f_dim = [(f, np.flatnonzero(f_dims == f)) for f in np.unique(f_dims)]
        overlap = np.empty((rep.dimension, rep.dimension), dtype=complex)
        for fa, pa in by_f_dim:
            adjoints = np.stack([mats[p].conj().T for p in pa])
            rows = first_row[pa][:, None, None, None] + np.arange(fa)[:, None]
            for fb, pb in by_f_dim:
                cols = first_row[pb][None, :, None, None] + np.arange(fb)
                overlap[rows, cols] = np.matmul(
                    adjoints[:, None], np.stack([mats[p] for p in pb])[None]
                )

        row_point = np.repeat(np.arange(len(points)), f_dims)
        index = point_d[np.ix_(row_point, row_point)]
        kernel = np.where(index >= 0, scale[np.ix_(row_point, row_point)] * overlap, 0.0)
        return index, kernel

    def apply(self, omega) -> BlockOperator:
        """Evaluate the POVM on a quotient function through the kernel:
        entry (x, x') carries the cotransform of omega at x - x', the square
        root of the density ratio, and the isometry overlap."""
        index, kernel = self._kernel
        fo = self.ctx.cotransform(omega)
        return BlockOperator(self.rep, np.where(index >= 0, fo[index], 0.0) * kernel)

    def effect(self, cosets) -> BlockOperator:
        """The POVM at a subset of quotient cosets."""
        return self.apply(self.ctx.indicator(cosets))

    def assembled(self, omega) -> np.ndarray:
        return self.apply(omega).assemble()

    def assembled_effect(self, cosets) -> np.ndarray:
        return self.effect(cosets).assemble()

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
    """Construct a covariant POVM from a validated rep and isometry fields.

    Rejects overlapping sector supports, an embedding space smaller than
    the largest multiplicity, missing matrices, shape mismatches, non-finite
    entries, and fields that fail the isometry test beyond ``atol``, which
    must itself be finite and nonnegative (``ValueError`` otherwise).
    """
    if not (math.isfinite(atol) and atol >= 0.0):
        raise ValueError(f"atol must be finite and >= 0, got {atol}")
    validate_rep(rep)
    max_f = max((s.f_dim for s in rep.sectors), default=1)
    if e_dim < max_f:
        raise PovmBuildError(
            "embedding dimension is smaller than the largest multiplicity",
            e_dim=e_dim,
            max_f_dim=max_f,
        )
    if len(fields) != len(rep.sectors):
        raise PovmBuildError(
            "one isometry field per sector is required",
            n_fields=len(fields),
            n_sectors=len(rep.sectors),
        )
    fields = tuple(fields)
    for k, (field, spec) in enumerate(zip(fields, rep.sectors)):
        if field.sector != k:
            raise PovmBuildError(
                "isometry field order does not match sector order",
                position=k,
                field_sector=field.sector,
            )
        for x in sorted(spec.rho.support):
            w = field.matrices.get(x)
            if w is None:
                raise PovmBuildError(
                    "isometry field is missing a support point",
                    sector=k,
                    point=list(x.coords),
                )
            w = np.asarray(w, dtype=complex)
            if w.shape != (e_dim, spec.f_dim):
                raise PovmBuildError(
                    "isometry matrix has the wrong shape",
                    sector=k,
                    point=list(x.coords),
                    shape=list(w.shape),
                    expected=[e_dim, spec.f_dim],
                )
            if not np.isfinite(w).all():
                raise PovmBuildError(
                    "isometry matrix has non-finite entries",
                    sector=k,
                    point=list(x.coords),
                )
            dev = float(
                np.abs(w.conj().T @ w - np.eye(spec.f_dim)).max()
            )
            if dev > atol:
                raise PovmBuildError(
                    "field matrix is not isometric",
                    sector=k,
                    point=list(x.coords),
                    deviation=dev,
                )
    ctx = QuotientContext.build(rep.group, subgroup)
    data = class_measure(ctx, rep, quotient_measure)
    return CovariantPOVM(
        rep=rep,
        ctx=ctx,
        e_dim=e_dim,
        fields=fields,
        class_data=data,
        densities=_admissibility(rep, data).densities,
    )


def intertwiner_matrix(povm: CovariantPOVM) -> np.ndarray:
    """Isometry from the rep space into the diagonal model over the class
    measure, multiplying each sector component by the square root of its
    density and embedding through the isometry field.

    Columns follow the rep basis, rows the diagonal-space basis, both in
    orthonormal coordinates.
    """
    dspace = povm.diagonal_space
    out = np.zeros((dspace.dim, povm.dimension), dtype=complex)
    e = povm.e_dim
    lifted = povm.class_data.lifted_measure
    for k, spec in enumerate(povm.rep.sectors):
        f = spec.f_dim
        off = povm.rep.offsets[k]
        for a, x in enumerate(povm.rep.sector_points[k]):
            p = dspace.point_index[x]
            scale = math.sqrt(lifted(x) * povm.densities[k][x] / spec.rho(x))
            out[p * e : (p + 1) * e, off + a * f : off + (a + 1) * f] = (
                scale * np.asarray(povm.fields[k].matrices[x], dtype=complex)
            )
    return out


def apply_via_intertwiner(povm: CovariantPOVM, omega) -> BlockOperator:
    """Evaluate the POVM by compressing the transported multiplication
    operator through the intertwiner.

    Independent of :meth:`CovariantPOVM.apply`; the two routes agreeing is
    the core correctness statement of this module.
    """
    w = povm.intertwiner
    transported = transported_multiplication_matrix(povm.diagonal_space, omega)
    full = w.conj().T @ transported @ w
    return BlockOperator(povm.rep, full)


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


def verify_axioms(povm_like, atol: float = DEFAULT_ATOL) -> VerificationReport:
    """Positivity of effects and normalization of the whole outcome space.

    Positivity is checked on the q singleton effects, which covers every
    union of cosets when the effects are linear in omega, and on a sample
    of 30 random unions drawn from ``default_rng(0)``. Normalization is
    checked on the effect of the whole quotient. Accepts any object with
    ``ctx``, ``dimension``, and ``assembled(omega) -> ndarray``; never
    raises on numerical failure, the report carries the deviations.
    """
    ctx = povm_like.ctx
    q = ctx.n_cosets
    rng = np.random.default_rng(0)
    subsets = [[i] for i in range(q)]
    subsets.extend(np.flatnonzero(rng.integers(0, 2, size=q)) for _ in range(30))
    pos_dev = _worst(
        [_positivity_deviation(povm_like.assembled(ctx.indicator(s))) for s in subsets]
    )
    total = povm_like.assembled(ctx.indicator(range(q)))
    norm_dev = _worst(np.abs(total - np.eye(povm_like.dimension)))
    return VerificationReport(
        (
            CheckResult("positivity", pos_dev <= atol, pos_dev),
            CheckResult("normalization", norm_dev <= atol, norm_dev),
        )
    )


def verify_covariance(povm_like, atol: float = DEFAULT_ATOL) -> VerificationReport:
    """Check U(g) M(e_j) U(g)* = M(g . e_j) for every g in G and every
    singleton coset effect e_j, which covers every quotient function when
    the effects are linear in omega.

    Exhaustive over G. Each of the q singleton effects is evaluated once
    through ``assembled``, so a ``povm_like`` must return an effect that
    depends only on omega; ``ctx.translated`` applied to the coset indices
    gives, for each coset i, the coset j that g carries onto i. U(g) must
    be diagonal, as it is for a :class:`DiagonalRep`: conjugation is then
    the entrywise product phases[:, None] * M * conj(phases) with the
    diagonal of U(g), and a U(g) with a nonzero off-diagonal entry raises
    ``ValueError``.
    """
    ctx = povm_like.ctx
    q = ctx.n_cosets
    effects = np.stack([povm_like.assembled(ctx.indicator([j])) for j in range(q)])
    cosets = np.arange(q)
    devs = []
    for g in ctx.group.elements():
        u = povm_like.u_matrix(g)
        phases = np.diagonal(u)
        if np.count_nonzero(u) != np.count_nonzero(phases):
            raise ValueError(f"U(g) is not diagonal at g = {list(g.coords)}")
        source = ctx.translated(g, cosets).real.astype(int)
        conjugated = phases[:, None] * effects[source] * phases.conj()
        devs.append(_worst(np.abs(conjugated - effects)))
    dev = _worst(devs)
    return VerificationReport(
        (CheckResult("covariance", dev <= atol, dev),)
    )


@dataclass(frozen=True)
class EquivalenceResult:
    equivalent: bool
    max_deviation: float


def sector_pointwise_operator(
    rep: DiagonalRep, sector_maps: Sequence[Mapping[DualCharacter, np.ndarray]]
) -> np.ndarray:
    """Assemble a block-diagonal operator acting within each sector,
    pointwise over its support, in the documented rep basis."""
    out = np.zeros((rep.dimension, rep.dimension), dtype=complex)
    for k, spec in enumerate(rep.sectors):
        f = spec.f_dim
        off = rep.offsets[k]
        for a, x in enumerate(rep.sector_points[k]):
            block = np.asarray(sector_maps[k][x], dtype=complex)
            out[off + a * f : off + (a + 1) * f, off + a * f : off + (a + 1) * f] = block
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
    for k, spec in enumerate(rep.sectors):
        for x in spec.rho.support:
            s = np.asarray(sector_maps[k][x], dtype=complex)
            if s.shape != (spec.f_dim, spec.f_dim):
                raise ValueError(
                    f"sector map {k} at {x} has shape {s.shape}, "
                    f"expected ({spec.f_dim}, {spec.f_dim})"
                )
            if not np.abs(s.conj().T @ s - np.eye(spec.f_dim)).max() <= atol:
                raise ValueError(f"sector map {k} at {x} is not unitary")
    points = [(k, x) for k, pts in enumerate(rep.sector_points) for x in pts]
    devs = []
    for a, b in np.argwhere(povm_a._point_differences() >= 0).tolist():
        (j, x), (k, xp) = points[a], points[b]
        w_j = np.asarray(povm_a.fields[j].matrices[x], dtype=complex)
        wp_j = np.asarray(povm_b.fields[j].matrices[x], dtype=complex)
        s_j = np.asarray(sector_maps[j][x], dtype=complex)
        weight = math.sqrt(povm_a.densities[k][xp])
        w_k = np.asarray(povm_a.fields[k].matrices[xp], dtype=complex)
        wp_k = np.asarray(povm_b.fields[k].matrices[xp], dtype=complex)
        s_k = np.asarray(sector_maps[k][xp], dtype=complex)
        lhs = weight * (w_j.conj().T @ w_k)
        rhs = weight * (s_j.conj().T @ wp_j.conj().T @ wp_k @ s_k)
        devs.append(np.abs(lhs - rhs).max())
    dev = _worst(devs)
    return EquivalenceResult(equivalent=dev <= atol, max_deviation=dev)
