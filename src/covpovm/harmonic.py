"""Atomic measures, Haar normalizations, and the quotient Fourier cotransform.

Measures are nonnegative weight functions on finite point sets. The one
normalization with content: the annihilator carries weight 1/|G/H| per
point, the unique choice making the cotransform

    (F omega)(y) = sum over cosets of <y, coset> * omega(coset)

unitary from functions on G/H (counting measure) onto functions on the
annihilator. Everything downstream inherits that convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np

from .groups import (
    DualCharacter,
    FiniteAbelianGroup,
    GroupElement,
    QuotientGroup,
    Subgroup,
    _as_indices,
    annihilator,
    quotient,
)

DOMAIN_DUAL = "dual"
DOMAIN_DUAL_QUOTIENT = "dual_quotient"


@dataclass(frozen=True)
class WeightedMeasure:
    """Finite nonnegative weights on a finite point set; zero weights are
    dropped, non-finite or negative weights rejected.

    Points are group elements, characters, or coset indices depending on
    the domain tag. The support is exactly the stored key set.
    """

    domain: str
    weights: Mapping

    def __post_init__(self):
        cleaned = {}
        for point, w in self.weights.items():
            w = float(w)
            if not math.isfinite(w):
                raise ValueError(f"non-finite weight {w} at {point}")
            if w < 0.0:
                raise ValueError(f"negative weight {w} at {point}")
            if w > 0.0:
                cleaned[point] = w
        object.__setattr__(self, "weights", cleaned)

    @cached_property
    def support(self) -> frozenset:
        return frozenset(self.weights)

    def __call__(self, point) -> float:
        return self.weights.get(point, 0.0)

    def items(self):
        """Deterministic (point, weight) pairs, sorted by point."""
        return sorted(self.weights.items())


@dataclass(frozen=True, eq=False)
class QuotientContext:
    """Bundled data for one subgroup choice: G, H, G/H, the annihilator,
    and the quotient of the dual by the annihilator. :meth:`build` computes
    all of them at once; H arrives with its element indices and its
    annihilator's mask both built, and from :func:`subgroup_from_generators`
    with its annihilator too."""

    group: FiniteAbelianGroup
    subgroup: Subgroup
    quotient: QuotientGroup
    annihilator: Subgroup
    dual_quotient: QuotientGroup

    @classmethod
    def build(cls, group: FiniteAbelianGroup, subgroup: Subgroup) -> "QuotientContext":
        if subgroup.point_type is DualCharacter:
            raise ValueError("expected a subgroup on the element side")
        ann = annihilator(group, subgroup)
        return cls(group, subgroup, quotient(group, subgroup), ann, quotient(group, ann))

    @property
    def n_cosets(self) -> int:
        return len(self.quotient)

    @property
    def hperp_points(self) -> tuple:
        return self.annihilator.elements

    @property
    def hperp_weight(self) -> float:
        """Haar weight per annihilator point, 1/|G/H|."""
        return 1.0 / self.n_cosets

    @cached_property
    def _fourier_matrix(self) -> np.ndarray:
        """F[a, i] = <y_a, rep_i> over annihilator points and coset reps."""
        return self.group.pairing_matrix(self.annihilator.indices, self.quotient.rep_indices)

    def cotransform(self, omega) -> np.ndarray:
        """Values of the Fourier cotransform of a quotient function, indexed
        like ``hperp_points``; for a (k, q) stack of quotient functions, the
        (k, |H-perp|) stack of their cotransforms, each row the same
        matrix-vector product as for that function alone. A cotransform that
        overflows raises ``ValueError`` naming its row, with no warning."""
        omega = self._coset_values(omega, (1, 2))
        with np.errstate(over="ignore", invalid="ignore"):
            fo = (self._fourier_matrix @ omega[..., None])[..., 0]
        finite = np.isfinite(fo).all(axis=-1)
        if not finite.all():
            row = f" {int(np.argmin(finite))} of the stack" if fo.ndim == 2 else ""
            raise ValueError(f"cotransform of quotient function{row} is not finite: it overflows")
        return fo

    def _coset_values(self, omega, ndims) -> np.ndarray:
        """A quotient function (ndim 1), or a stack of them, as a complex
        array; another shape or a non-finite value raises ``ValueError``."""
        omega = np.asarray(omega, dtype=complex)
        if omega.ndim not in ndims or omega.shape[-1] != self.n_cosets:
            raise ValueError(f"expected {self.n_cosets} coset values, got {omega.shape}")
        if not np.isfinite(omega).all():
            raise ValueError("quotient function has non-finite values")
        return omega

    def cotransform_transposed(self, phi) -> np.ndarray:
        """Transpose of :meth:`cotransform`: the coset values
        sum_a phi[a] <y_a, coset>, so that ``phi @ cotransform(omega)``
        equals ``cotransform_transposed(phi) @ omega``. With phi placed on
        the dual group (zero off the annihilator), that sum at every group
        element is one unnormalized ``ifftn`` over the factors, read at the
        coset representatives; no pairing matrix is formed. A (k, |H-perp|)
        stack gives the (k, q) stack, by one ``ifftn`` over trailing axes."""
        phi = np.asarray(phi, dtype=complex)
        lead, order = phi.shape[:-1], self.annihilator.order
        if phi.ndim not in (1, 2) or phi.shape[-1] != order:
            raise ValueError(f"expected {order} annihilator values, got {phi.shape}")
        placed = np.zeros((*lead, self.group.order), dtype=complex)
        # one flat scatter, several times faster than one along the last axis
        starts = np.arange(0, placed.size, self.group.order)[:, None]
        placed.reshape(-1)[(starts + self.annihilator.indices).ravel()] = phi.ravel()
        axes = tuple(range(-self.group.rank, 0))
        summed = np.fft.ifftn(placed.reshape(*lead, *self.group.factors), axes=axes, norm="forward")
        return summed.reshape(placed.shape).take(self.quotient.rep_indices, axis=-1)

    def translated(self, a: GroupElement, omega) -> np.ndarray:
        """The shifted quotient function (a . omega)(coset) = omega(a^-1[coset]).
        Omega must hold one finite value per coset (``ValueError`` otherwise,
        as for :meth:`cotransform`)."""
        omega = self._coset_values(omega, (1,))
        coords = self.group.coords
        shifted = coords[self.quotient.rep_indices] - coords[self.group.index_of(a)]
        return omega[self.quotient.projection[self.group.ravel(shifted)]]

    def indicator(self, cosets) -> np.ndarray:
        """The 0/1 function of a set of coset indices. Each index must be an
        integer (Python or numpy; bools, floats and strings are rejected)
        in range, or ``ValueError`` names it."""
        q = self.n_cosets
        values = np.zeros(q, dtype=complex)
        values[_as_indices(cosets, "coset index", q, "coset index {} out of range")] = 1.0
        return values


def lift_measure(ctx: QuotientContext, nu) -> np.ndarray:
    """Lift a measure on the dual quotient, given as its weight at each
    coset, to the dual group: the weight at every character index.

    The lifted weight at a character x is nu(coset of x) times the Haar
    weight of the annihilator, so integrating any function against the
    lift equals integrating its fiber averages against nu. A wrong shape,
    or a weight that is not real, finite and >= 0, raises ``ValueError``.
    """
    return (dual_coset_weights(ctx, nu) * ctx.hperp_weight)[ctx.dual_quotient.projection]


def dual_coset_weights(ctx: QuotientContext, nu) -> np.ndarray:
    """A measure on the dual quotient, given as its weight at each coset, as
    a float array. A wrong shape, or a weight that is not real, finite and
    >= 0, raises ``ValueError``."""
    nu = _real(nu, "dual coset weight")
    if nu.shape != (len(ctx.dual_quotient),):
        raise ValueError(f"expected {len(ctx.dual_quotient)} dual coset weights, got {nu.shape}")
    _reject_first("dual coset weight is not finite and >= 0", nu, ~(nu >= 0.0) | (nu == np.inf))
    return nu


def image_measure(ctx: QuotientContext, indices, weights) -> np.ndarray:
    """Push a measure on the dual group, given as weights at character
    indices, down to the dual quotient: the fiber sum at each coset. One
    weight per index is required; an index that is not an integer in
    [0, |G|), or a weight that is not real, finite and >= 0, raises
    ``ValueError``."""
    indices, weights = np.asarray(indices), _real(weights, "weight")
    if indices.ndim != 1 or weights.shape != indices.shape:
        shapes = f"{indices.shape} and {weights.shape}"
        raise ValueError(f"expected one weight per character index, got shapes {shapes}")
    if indices.size and indices.dtype.kind not in "iu":
        raise ValueError(f"character indices must be integers, got dtype {indices.dtype}")
    outside = (indices < 0) | (indices >= ctx.group.order)
    _reject_first("character index is outside [0, |G|)", indices, outside)
    _reject_first("weight is not finite and >= 0", weights, ~(weights >= 0.0) | (weights == np.inf))
    cosets = ctx.dual_quotient.projection[indices.astype(np.intp)]
    return np.bincount(cosets, weights, len(ctx.dual_quotient))


def _real(values, what: str) -> np.ndarray:
    """Weights as a float array; a complex entry with a nonzero imaginary
    part raises ``ValueError`` naming the first one."""
    values = np.asarray(values)
    if values.dtype.kind == "c":
        _reject_first(f"{what} is not real", values, values.imag != 0)
        values = values.real
    return values.astype(float)


def _reject_first(message: str, values: np.ndarray, bad: np.ndarray) -> None:
    """``ValueError`` naming the first position where ``bad`` holds, and its value."""
    if bad.any():
        p = int(np.argmax(bad))
        raise ValueError(f"{message}: position {p}, value {values[p].item()!r}")
