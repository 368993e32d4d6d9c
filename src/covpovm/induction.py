"""Finite model of the induced imprimitivity system and its diagonalization.

Two Hilbert spaces:

* :class:`InducedSpace` holds functions f(g, xdot) valued in C^E that obey
  the phase covariance f(g + h, xdot) = conj(<xdot, h>) f(g, xdot) in the
  subgroup direction. Only the values at coset representatives are stored;
  the covariance rule reconstructs the rest.
* :class:`DiagonalSpace` holds functions on the support of the lifted
  measure on the dual group, valued in C^E, where translation acts by
  plain character multiplication.

The diagonalizer is the unitary identifying the two models. Operator
matrices are always materialized in orthonormal coordinates (function
values scaled by square roots of the basis weights), so adjoints are
conjugate transposes and unitarity is the standard matrix condition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .groups import DualCharacter, GroupElement, pairing
from .harmonic import DOMAIN_DUAL_QUOTIENT, QuotientContext, WeightedMeasure


@dataclass(frozen=True, eq=False)
class _WeightedSpace:
    """Weighted C^E-valued function space over a measure on the dual
    quotient. Subclasses give the value-array ``shape`` and the
    inner-product weight of each entry, ``weight_array``; orthonormal
    coordinates scale values by the square roots of those weights."""

    ctx: QuotientContext
    nu: WeightedMeasure
    e_dim: int

    def __post_init__(self):
        if self.nu.domain != DOMAIN_DUAL_QUOTIENT:
            raise ValueError(
                f"expected a measure on the dual quotient, got {self.nu.domain!r}"
            )
        if self.e_dim < 1:
            raise ValueError(f"e_dim must be >= 1, got {self.e_dim}")

    @property
    def dim(self) -> int:
        return math.prod(self.shape)

    @cached_property
    def support(self) -> tuple[int, ...]:
        """Dual-quotient coset indices carrying positive weight, sorted."""
        return tuple(sorted(self.nu.support))

    @cached_property
    def support_weights(self) -> np.ndarray:
        """Measure weight of each support coset."""
        return np.array([self.nu(s) for s in self.support])

    @cached_property
    def _sqrt_weights(self) -> np.ndarray:
        return np.sqrt(self.weight_array)

    def zero(self) -> np.ndarray:
        return np.zeros(self.shape, dtype=complex)

    def random(self, rng: np.random.Generator) -> np.ndarray:
        return rng.standard_normal(self.shape) + 1j * rng.standard_normal(self.shape)

    def inner(self, f1: np.ndarray, f2: np.ndarray) -> complex:
        """Weighted inner product, linear in the first argument."""
        return complex(np.sum(f1 * f2.conj() * self.weight_array))

    def norm(self, f: np.ndarray) -> float:
        return float(np.sqrt(max(self.inner(f, f).real, 0.0)))

    def to_coords(self, f: np.ndarray) -> np.ndarray:
        """Orthonormal coordinates of a value array (flat, basis order)."""
        return (np.asarray(f, dtype=complex) * self._sqrt_weights).reshape(self.dim)

    def from_coords(self, coords: np.ndarray) -> np.ndarray:
        return np.asarray(coords, dtype=complex).reshape(self.shape) / self._sqrt_weights


class InducedSpace(_WeightedSpace):
    """Stored-representative model of the space induced from a diagonal
    subgroup representation with multiplicity ``e_dim``.

    Basis index order: coset index (major), support point of the dual
    quotient measure, C^E coordinate (minor). Vectors are arrays of shape
    (n_cosets, n_support, e_dim) holding function values at the
    representatives.
    """

    @cached_property
    def support_character_indices(self) -> np.ndarray:
        """Group index of the canonical character representative of each
        support coset."""
        return self.ctx.dual_quotient.rep_indices[list(self.support)]

    @cached_property
    def support_characters(self) -> tuple[DualCharacter, ...]:
        """Canonical character representative of each support coset."""
        return self.ctx.group.points(DualCharacter, self.support_character_indices)

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.ctx.n_cosets, len(self.support), self.e_dim)

    @cached_property
    def weight_array(self) -> np.ndarray:
        """Inner-product weight of each basis entry (counting x nu x counting)."""
        q, s, e = self.shape
        return np.broadcast_to(self.support_weights[None, :, None], (q, s, e)).copy()

    @cached_property
    def diagonal_space(self) -> "DiagonalSpace":
        return DiagonalSpace(self.ctx, self.nu, self.e_dim)

    def value_at(self, f: np.ndarray, g: GroupElement, support_pos: int) -> np.ndarray:
        """Function value at an arbitrary group element, reconstructed from
        the stored representative through the covariance phase."""
        i = self.ctx.quotient.index_of(g)
        h = g - self.ctx.quotient.representatives[i]
        phase = pairing(self.support_characters[support_pos], h).conjugate()
        return phase * f[i, support_pos, :]


class DiagonalSpace(_WeightedSpace):
    """Weighted function space on the dual-group support of the lifted
    measure, with ``e_dim`` coordinates per character.

    Basis order: characters sorted lexicographically (major), C^E
    coordinate (minor). Vectors are arrays of shape (n_points, e_dim).
    """

    @cached_property
    def point_indices(self) -> np.ndarray:
        """Group indices of the characters in the preimage of the measure
        support, sorted (index order is lexicographic order)."""
        return np.flatnonzero(np.isin(self.ctx.dual_quotient.projection, self.support))

    @cached_property
    def points(self) -> tuple[DualCharacter, ...]:
        """Characters in the preimage of the measure support, sorted."""
        return self.ctx.group.points(DualCharacter, self.point_indices)

    @cached_property
    def point_weights(self) -> np.ndarray:
        """Lifted-measure weight of each point."""
        return self.support_weights[self._fiber_position] * self.ctx.hperp_weight

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.point_indices), self.e_dim)

    @cached_property
    def weight_array(self) -> np.ndarray:
        return np.broadcast_to(self.point_weights[:, None], self.shape).copy()

    def _differences(self, indices) -> np.ndarray:
        """Group index of points[p] - y for every point and every group index
        of ``indices``, shape (n_points, len(indices))."""
        coords = self.ctx.group.coords
        diff = coords[self.point_indices][:, None] - coords[indices][None]
        return self.ctx.group.ravel(diff)

    @cached_property
    def _shift_table(self) -> np.ndarray:
        """T[p, a] = index of points[p] - hperp[a]; shifts stay in the fiber."""
        return np.searchsorted(
            self.point_indices, self._differences(self.ctx.annihilator.indices)
        )

    @cached_property
    def _shift_index(self) -> np.ndarray:
        """A[p, j] = a with points[p] - points[j] = hperp[a], or -1 when the
        two points lie in different fibers."""
        return self.ctx.annihilator.position(self._differences(self.point_indices))

    @cached_property
    def _rep_pairing(self) -> np.ndarray:
        """C[p, i] = <points[p], rep_i> over quotient representatives."""
        return self.ctx.group.pairing_matrix(
            self.point_indices, self.ctx.quotient.rep_indices
        )

    @cached_property
    def _fiber_position(self) -> np.ndarray:
        """Position in the induced-space support of each point's coset."""
        cosets = self.ctx.dual_quotient.projection[self.point_indices]
        return np.searchsorted(self.support, cosets)


def translation_act(space: InducedSpace, a: GroupElement, f: np.ndarray) -> np.ndarray:
    """Induced translation: the new value at g is the old value at g - a,
    pulled back to a stored representative through the covariance phase."""
    group, quot = space.ctx.group, space.ctx.quotient
    reps = group.coords[quot.rep_indices]
    shifted = reps - group.coords[group.index_of(a)]
    j = quot.projection[group.ravel(shifted)]
    h = group.ravel(shifted - reps[j])
    phases = group.pairing_matrix(space.support_character_indices, h).conj()
    return phases.T[:, :, None] * f[j]


def multiplication_act(space: InducedSpace, omega, f: np.ndarray) -> np.ndarray:
    """Multiply by a quotient function, blockwise over cosets."""
    omega = np.asarray(omega, dtype=complex)
    return omega[:, None, None] * f


def diagonalizer_apply(space: InducedSpace, f: np.ndarray) -> np.ndarray:
    """Map an induced vector to the diagonal model.

    The value at a character x is the sum over coset representatives g of
    <x, g> f(g, coset of x); any other representative choice gives the
    same value because the covariance phase cancels against the pairing.
    """
    dspace = space.diagonal_space
    # f restricted to each point's fiber, aligned as (points, cosets, e)
    f_sel = np.transpose(f[:, dspace._fiber_position, :], (1, 0, 2))
    return np.einsum("pi,pie->pe", dspace._rep_pairing, f_sel)


def diagonalizer_adjoint_apply(space: InducedSpace, phi: np.ndarray) -> np.ndarray:
    """Adjoint of :func:`diagonalizer_apply`; its inverse, by unitarity.

    The value at (g, xdot) averages conj(<x, g>) phi(x) over the fiber of
    xdot with the annihilator Haar weight.
    """
    dspace = space.diagonal_space
    out = space.zero()
    conj_pairing = dspace._rep_pairing.conj()  # (points, cosets)
    for p in range(len(dspace.points)):
        s = dspace._fiber_position[p]
        out[:, s, :] += (
            space.ctx.hperp_weight * conj_pairing[p][:, None] * phi[p][None, :]
        )
    return out


def transported_multiplication_act(
    dspace: DiagonalSpace, omega, phi: np.ndarray
) -> np.ndarray:
    """Multiplication by a quotient function, conjugated into the diagonal
    model: convolution of phi with the cotransform of omega along each
    fiber, carrying the annihilator Haar weight. A (k, q) stack of quotient
    functions gives the (k, n_points, e_dim) stack of their products."""
    fo = dspace.ctx.cotransform(omega)
    shifted = phi[dspace._shift_table]  # (points, hperp, e)
    return dspace.ctx.hperp_weight * (fo[..., None, None, :] @ shifted)[..., 0, :]


def character_multiplication_act(
    dspace: DiagonalSpace, a: GroupElement, phi: np.ndarray
) -> np.ndarray:
    """Diagonal action of a group element: multiply each point by <x, a>."""
    group = dspace.ctx.group
    phases = group.pairing_matrix(dspace.point_indices, [group.index_of(a)])
    return phases * phi


def _materialize(apply_fn, space_in, space_out) -> np.ndarray:
    """Dense matrix of a linear map in orthonormal coordinates."""
    cols = []
    basis = np.eye(space_in.dim, dtype=complex)
    for j in range(space_in.dim):
        cols.append(space_out.to_coords(apply_fn(space_in.from_coords(basis[j]))))
    return np.stack(cols, axis=1)


def translation_matrix(space: InducedSpace, a: GroupElement) -> np.ndarray:
    return _materialize(lambda f: translation_act(space, a, f), space, space)


def multiplication_matrix(space: InducedSpace, omega) -> np.ndarray:
    return _materialize(lambda f: multiplication_act(space, omega, f), space, space)


def diagonalizer_matrix(space: InducedSpace) -> np.ndarray:
    return _materialize(
        lambda f: diagonalizer_apply(space, f), space, space.diagonal_space
    )


def diagonalizer_adjoint_matrix(space: InducedSpace) -> np.ndarray:
    return _materialize(
        lambda p: diagonalizer_adjoint_apply(space, p), space.diagonal_space, space
    )


def transported_multiplication_matrix(dspace: DiagonalSpace, omega) -> np.ndarray:
    """Matrix of :func:`transported_multiplication_act` in orthonormal
    coordinates, read off its response to one impulse; for a (k, q) stack
    of quotient functions, the (k, dim, dim) stack of their matrices.

    The operator is hw * sum_a fo[a] P_a (x) I_E, with fo the cotransform of
    omega, hw the annihilator Haar weight and P_a the shift by hperp[a], so
    entry (p, j) of its point matrix is hw * fo[a] where points[p] -
    points[j] = hperp[a], and 0 across fibers. Weights are equal within a
    fiber, so these values are the coordinates of the act's response to
    the impulse at points[0] (its fiber holds every shift); one act call
    on the whole stack gives them, the shift-index table spreads them, and
    the point matrix is written onto the C^E diagonal of each point block.
    """
    lead = np.shape(omega)[:-1]  # () for one omega, (k,) for a stack
    n_points, e = dspace.shape
    out = np.zeros((*lead, n_points, e, n_points, e), dtype=complex)
    if dspace.dim:
        impulse = np.zeros(dspace.dim, dtype=complex)
        impulse[0] = 1.0
        impulse = dspace.from_coords(impulse)
        responses = transported_multiplication_act(dspace, omega, impulse)
        # orthonormal coordinates of each point's first C^E coordinate
        firsts = responses[..., 0] * dspace._sqrt_weights[:, 0]
        shifts = dspace._shift_index
        in_fiber = shifts[:, 0] >= 0
        # one slot per annihilator shift and a last one, 0, that -1 reads
        values = np.zeros((*lead, dspace.ctx.annihilator.order + 1), dtype=complex)
        values[..., shifts[in_fiber, 0]] = firsts[..., in_fiber]
        block = values[..., shifts]
        for i in range(e):
            out[..., :, i, :, i] = block
    return out.reshape(*lead, dspace.dim, dspace.dim)


def character_multiplication_matrix(dspace: DiagonalSpace, a: GroupElement) -> np.ndarray:
    return _materialize(
        lambda p: character_multiplication_act(dspace, a, p), dspace, dspace
    )
