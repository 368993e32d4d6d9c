"""Ready-made covariant observables and Born-rule evaluation.

Three constructions: the cyclic surrogate of the covariant position
observable, the phase observable of a torus representation with arbitrary
multiplicities, and the two-mode phase difference observable. The torus
enters in band-limited form: exact coefficients at frequency differences
times a Gram matrix (:func:`_gram_formula`); the cyclic case delegates to the
generic POVM builder.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Mapping, Sequence

import numpy as np

from .groups import FiniteAbelianGroup, _as_indices, _as_int, subgroup_from_generators
from .povm import DEFAULT_ATOL, CovariantPOVM, DiagonalRep, FieldTable, build_covariant_povm

# raw words drawn and sorted at a time by sample_outcomes
SAMPLE_BLOCK = 1 << 16
# position of a 64-bit word's top half among its two 32-bit halves in memory
_HIGH_HALF = 1 if sys.byteorder == "little" else 0
# torus frequencies lie in [-2**61, 2**61), so that the int64 sums and
# differences of two of them, and their offsets in a window's box, never wrap
_FREQUENCY_BOUND = 2**61


def _as_frequency(value) -> int:
    """An integer frequency (not a bool) inside the bound; ``ValueError``
    naming the value otherwise."""
    n = _as_int(value, "frequency")
    if not -_FREQUENCY_BOUND <= n < _FREQUENCY_BOUND:
        raise ValueError(f"frequency {n} is outside [-2**61, 2**61)")
    return n


@dataclass(frozen=True)
class TrigPolynomial:
    """Finite Fourier sum w(e^{i theta}) = sum_n c_n e^{i n theta}.

    Exact zero coefficients are dropped. The cotransform convention is
    (1/2pi) integral of w(e^{i theta}) e^{i n theta}, which picks out the
    coefficient at -n. A frequency that is not an integer in
    [-2**61, 2**61), or a coefficient that is not finite, raises
    ``ValueError`` naming it.
    """

    coeffs: Mapping[int, complex]

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __post_init__(self):
        cleaned = {}
        for n, c in self.coeffs.items():
            n, c = _as_frequency(n), complex(c)
            if not cmath.isfinite(c):
                raise ValueError(f"coefficient at frequency {n} is not finite: {c}")
            if c != 0:
                cleaned[n] = c
        object.__setattr__(self, "coeffs", cleaned)

    @property
    def degree(self) -> int:
        return max((abs(n) for n in self.coeffs), default=0)

    def fourier_coefficient(self, n: int) -> complex:
        """Cotransform value at frequency n, i.e. the coefficient at -n."""
        return self.coeffs.get(-_as_int(n, "frequency"), 0.0 + 0.0j)

    def eval_angle(self, theta) -> np.ndarray:
        """w(e^{i theta}); ``ValueError`` at the first finite angle where it is not."""
        theta = np.asarray(theta, dtype=float)
        out = np.zeros_like(theta, dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):
            for n, c in self.coeffs.items():
                out = out + c * np.exp(1j * n * theta)
        overflow = np.isfinite(theta) & ~np.isfinite(out)
        if overflow.any():
            raise ValueError(f"value at angle {float(theta[overflow][0])!r} is not finite")
        return out

    def rotated(self, z: complex) -> "TrigPolynomial":
        """Precomposition with rotation by z: w_z(w) = w(z^{-1} w), for |z| = 1.
        The 1e-12 slack allowed in |z| grows with the frequency: if z ** (-n)
        would leave [1/2, 2] in modulus at the widest frequency n,
        ``ValueError`` names z and n before any power is taken."""
        if not abs(abs(z) - 1) <= 1e-12:
            raise ValueError(f"rotation {z} is not a finite complex number of modulus 1")
        z, n = complex(z), max(self.coeffs, key=abs, default=0)
        if abs(n * math.log(abs(z))) > math.log(2):
            raise ValueError(
                f"rotation {z} to the power {-n} leaves modulus [1/2, 2] at frequency {n}"
            )
        return TrigPolynomial({n: c * z ** (-n) for n, c in self.coeffs.items()})

    def is_real_valued(self, atol: float = 1e-12) -> bool:
        return all(
            abs(c - self.coeffs.get(-n, 0.0 + 0.0j).conjugate()) <= atol
            for n, c in self.coeffs.items()
        )

    @staticmethod
    def one() -> "TrigPolynomial":
        return TrigPolynomial({0: 1.0})

    @staticmethod
    def cosine() -> "TrigPolynomial":
        return TrigPolynomial({1: 0.5, -1: 0.5})


def _gram_formula(omega: TrigPolynomial, labels, columns, classes) -> np.ndarray:
    """Entry (a, b): omega's coefficient at labels[b] - labels[a] times the Gram
    matrix of the columns; a miss or a pair across classes reads the 0 sentinel."""
    keys, values = map(np.array, zip(*sorted(omega.coeffs.items()), (np.iinfo(np.int64).max, 0j)))
    m = labels[None, :] - labels[:, None]
    at = np.searchsorted(keys, m)
    at[(keys[at] != m) | (classes[:, None] != classes[None, :])] = -1
    return values[at] * (columns.conj().T @ columns)


@dataclass(frozen=True, eq=False)
class PhaseObservable:
    """Covariant observable of a torus representation with finite spectrum.

    One isometry of shape (e_dim, multiplicity) per occupied frequency;
    an optional degree window caps the band limit of admissible outcome
    functions. A frequency that is not an integer in [-2**61, 2**61), a
    matrix that is not two-dimensional with at least one column, and a
    degree window that is not an integer >= 0 raise ``ValueError`` naming
    the value.
    """

    isometries: Mapping[int, np.ndarray]
    degree_window: int | None = None

    def __post_init__(self):
        if not self.isometries:
            raise ValueError("at least one frequency is required")
        if self.degree_window is not None:
            window = _as_int(self.degree_window, "degree window")
            if window < 0:
                raise ValueError(f"degree window must be >= 0, got {window}")
            object.__setattr__(self, "degree_window", window)
        mats = {_as_frequency(k): np.asarray(w, dtype=complex) for k, w in self.isometries.items()}
        for k, w in mats.items():
            if w.ndim != 2 or w.shape[1] < 1:
                raise ValueError(
                    f"isometry at frequency {k} has shape {w.shape}, not "
                    "(e_dim, multiplicity) with multiplicity >= 1"
                )
        e_dims = {w.shape[0] for w in mats.values()}
        if len(e_dims) != 1:
            raise ValueError("all isometries must share the embedding dimension")
        for k, w in mats.items():
            dev = np.abs(w.conj().T @ w - np.eye(w.shape[1])).max()
            if not dev <= DEFAULT_ATOL:
                raise ValueError(f"matrix at frequency {k} is not isometric ({dev:.2e})")
        object.__setattr__(self, "isometries", mats)

    @cached_property
    def indices(self) -> tuple[int, ...]:
        return tuple(sorted(self.isometries))

    @property
    def e_dim(self) -> int:
        return next(iter(self.isometries.values())).shape[0]

    def f_dim(self, k: int) -> int:
        return self.isometries[k].shape[1]

    @property
    def total_dim(self) -> int:
        return sum(self.f_dim(k) for k in self.indices)

    def _check_degree(self, omega: TrigPolynomial) -> None:
        if self.degree_window is not None and omega.degree > self.degree_window:
            window = self.degree_window
            raise ValueError(f"outcome function degree {omega.degree} exceeds the window {window}")


def phase_matrix_element(
    obs: PhaseObservable, omega: TrigPolynomial, j: int, k: int
) -> np.ndarray:
    """Block of the phase observable between two frequencies: the outcome
    function's cotransform at j - k times the isometry overlap."""
    j, k = _as_int(j, "frequency"), _as_int(k, "frequency")
    if j not in obs.isometries or k not in obs.isometries:
        raise ValueError(f"frequencies ({j}, {k}) outside the index set")
    obs._check_degree(omega)
    w_j = obs.isometries[j]
    w_k = obs.isometries[k]
    return omega.fourier_coefficient(j - k) * (w_j.conj().T @ w_k)


def assemble_phase_operator(obs: PhaseObservable, omega: TrigPolynomial) -> np.ndarray:
    """Dense matrix over the multiplicity sum, frequencies in sorted order."""
    obs._check_degree(omega)
    rows = np.repeat(obs.indices, [obs.f_dim(k) for k in obs.indices])
    columns = np.concatenate([obs.isometries[k] for k in obs.indices], axis=1)
    return _gram_formula(omega, rows, columns, np.zeros_like(rows))


@dataclass(frozen=True, eq=False)
class PhaseDifferenceObservable:
    """Two-mode phase difference observable over a finite frequency window,
    specified by one unit vector per occupied frequency pair. A key that is
    not a pair of integers in [-2**61, 2**61), and a vector whose length
    differs from the first one's, raise ``ValueError`` naming it."""

    vectors: Mapping[tuple[int, int], np.ndarray]

    def __post_init__(self):
        if not self.vectors:
            raise ValueError("at least one frequency pair is required")
        vecs = {}
        for key, v in self.vectors.items():
            v = np.asarray(v, dtype=complex).reshape(-1)
            if not abs(np.linalg.norm(v) - 1.0) <= DEFAULT_ATOL:
                raise ValueError(f"vector at {key} is not normalized")
            length = len(next(iter(vecs.values()), v))
            if len(v) != length:
                raise ValueError(f"vector at {key} has length {len(v)}, the first has {length}")
            if not (isinstance(key, tuple) and len(key) == 2):
                raise ValueError(f"key {key!r} is not a frequency pair (i, j)")
            vecs[(_as_frequency(key[0]), _as_frequency(key[1]))] = v
        object.__setattr__(self, "vectors", vecs)

    @cached_property
    def window(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.vectors))


def phase_difference_matrix_element(
    obs: PhaseDifferenceObservable,
    omega: TrigPolynomial,
    source: tuple[int, int],
    target: tuple[int, int],
) -> complex:
    """Matrix element between two frequency pairs.

    Structurally zero unless the pairs have equal index sum; on the
    surviving diagonal it is the cotransform at the frequency mismatch
    times the overlap of the defining unit vectors.
    """
    i, j = (_as_int(n, "frequency") for n in source)
    l, m = (_as_int(n, "frequency") for n in target)
    if (i, j) not in obs.vectors or (l, m) not in obs.vectors:
        raise ValueError(f"frequency pairs {source}, {target} outside the window")
    if i + j != l + m:
        return 0.0 + 0.0j
    h_src = obs.vectors[(i, j)]
    h_tgt = obs.vectors[(l, m)]
    overlap = complex(np.vdot(h_tgt, h_src))  # linear in the source vector
    return omega.fourier_coefficient(j - m) * overlap


def assemble_phase_difference_operator(
    obs: PhaseDifferenceObservable, omega: TrigPolynomial
) -> np.ndarray:
    """Dense matrix over the window, pairs in sorted order; entries between
    index-sum classes (i + j != l + m, the selection rule) are 0."""
    pairs = np.array(obs.window, dtype=np.int64)
    columns = np.array([obs.vectors[pair] for pair in obs.window]).T
    return _gram_formula(omega, -pairs[:, 1], columns, pairs.sum(axis=1))


def window_truncates_selection_rule(obs: PhaseDifferenceObservable) -> bool:
    """Whether the window cuts an index-sum class inside its own bounding box.

    A full rectangle never truncates; the assembled matrix is then the
    whole principal block of each surviving class. A ragged window that
    omits a lattice point of an occupied anti-diagonal inside the box is
    flagged; its assembled effects are still principal submatrices, but
    class blocks are incomplete.
    """
    # an a x b box holds min(t + 1, a, b, a + b - 1 - t) points of offset sum t
    offsets = np.array(obs.window, dtype=np.int64)
    offsets -= offsets.min(axis=0)
    a, b = offsets.max(axis=0) + 1
    sums, held = np.unique(offsets.sum(axis=1), return_counts=True)
    box = np.minimum(np.minimum(sums + 1, a + b - 1 - sums), min(a, b))
    return bool((held < box).any())


def position_povm_zn(n: int, unit_vectors: Sequence[np.ndarray]) -> CovariantPOVM:
    """Cyclic surrogate of the covariant position observable.

    The regular-type representation of Z_n carries every character once;
    a choice of one unit vector per character determines the observable.
    Grid spacing on the line corresponds to 2 pi / n here, and the matrix
    elements carry the same overlap kernel as the continuous construction.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if len(unit_vectors) != n:
        raise ValueError(f"expected {n} unit vectors, got {len(unit_vectors)}")
    vectors = [np.asarray(v, dtype=complex).reshape(-1) for v in unit_vectors]
    e_dim = vectors[0].shape[0]
    if any(v.shape[0] != e_dim for v in vectors):
        raise ValueError("all vectors must share the embedding dimension")
    vectors = np.array(vectors)
    unnormalized = np.flatnonzero(np.abs(np.linalg.norm(vectors, axis=1) - 1.0) > DEFAULT_ATOL)
    if len(unnormalized):
        raise ValueError(f"vector at {unnormalized[0]} is not normalized")
    # sector x carries character x with weight 1 and the column vectors[x]
    group = FiniteAbelianGroup((n,))
    points = np.arange(n)
    rep = DiagonalRep.of_arrays(group, points, points, np.ones(n), np.ones(n, dtype=np.int64))
    shapes = np.tile([e_dim, 1], (n, 1))
    fields = FieldTable(group, points, points, points, shapes, vectors.ravel())
    return build_covariant_povm(rep, subgroup_from_generators(group, ()), fields, e_dim=e_dim)


def born_distribution(state: np.ndarray, povm: CovariantPOVM, partition) -> np.ndarray:
    """Outcome probabilities of a unit state over a partition of the cosets.

    Each cell's probability is the sum of the singleton expectations of
    :meth:`CovariantPOVM.singleton_expectations` (the kernel route without
    the kernel table: one FFT cross-correlation of the per-point factors on
    the dual group and one transposed cotransform, no effect formed) over
    the cell's cosets. Cells are sized collections (lists, tuples, ranges,
    arrays) whose entries must be integers (not bools) naming each coset
    exactly once, checked by one type pass over all of them; an empty cell
    has probability 0.
    """
    state = np.asarray(state, dtype=complex).reshape(-1)
    if state.shape[0] != povm.dimension:
        raise ValueError(
            f"state has dimension {state.shape[0]}, POVM acts on {povm.dimension}"
        )
    if not np.isfinite(state).all():
        raise ValueError("state has non-finite entries")
    if abs(np.linalg.norm(state) - 1.0) > DEFAULT_ATOL:
        raise ValueError("state is not normalized")
    cells, q = list(partition), povm.ctx.n_cosets
    outside = f"partition entry {{}} is not a coset index in [0, {q})"
    cosets = _as_indices(chain.from_iterable(cells), "partition entry", q, outside)
    times = np.bincount(cosets, minlength=q)
    if (times > 1).any():
        raise ValueError(f"partition cells overlap at coset {int(np.argmax(times > 1))}")
    if (times == 0).any():
        raise ValueError(
            f"partition does not cover the quotient: coset {int(np.argmin(times))} is missing"
        )
    owner = np.repeat(np.arange(len(cells)), list(map(len, cells)))
    singletons = povm.singleton_expectations(state)
    return np.bincount(owner, singletons[cosets], len(cells))


def _inverse_transform_counts(probs: np.ndarray, n: int, seed: int) -> np.ndarray:
    """Outcome counts of n inverse-transform draws over ``probs``.

    Draw i takes the i-th Philox uniform u of the seed and lands in the
    first cell whose cumulative edge exceeds u, the last cell if none does.
    The uniform is u = (w >> 11) * 2**-53 for the i-th raw 64-bit word w,
    so u < e exactly when w < ceil(e * 2**53) * 2**11 (every word, for
    e >= 1). The words are drawn in blocks of ``SAMPLE_BLOCK``; each block
    sorts only their top 32 bits, so the words below an edge's threshold are
    one ``searchsorted`` per block, and the few words whose top half equals
    the threshold's are settled on the full word (:func:`_settle_ties`). The
    counts equal the per-draw ones, with memory independent of n.
    """
    scaled = np.ceil(np.cumsum(probs)[:-1] * 2.0**53)
    whole = scaled >= 2.0**53
    # thresholds of the edges below 1 in raw words, and their top halves;
    # an edge >= 1 gets threshold 0 in the loop and every draw at the end
    words = np.where(whole, 0.0, scaled).astype(np.uint64) << np.uint64(11)
    tops = (words >> np.uint64(32)).astype(np.uint32)
    below = np.zeros(len(scaled), dtype=np.int64)
    bits = np.random.Philox(key=seed)
    for start in range(0, n, SAMPLE_BLOCK):
        raw = bits.random_raw(min(SAMPLE_BLOCK, n - start))
        high = raw.view(np.uint32)[_HIGH_HALF::2]
        ranked = np.sort(high)
        first = np.searchsorted(ranked, tops, side="left")
        # at first = len(ranked) every top half is below the threshold's, so
        # the clipped read (the largest) is never equal to it
        tied = np.flatnonzero(ranked.take(first, mode="clip") == tops)
        below += first
        if len(tied):
            below[tied] += _settle_ties(raw, high, tops[tied], words[tied])
    below[whole] = n
    return np.diff(below, prepend=0, append=n)


def _settle_ties(raw, high, tops, words) -> np.ndarray:
    """For each threshold, the raw words with that top half that lie below
    it: the full-word comparison for the draws the top halves cannot settle."""
    candidates = np.sort(raw[np.isin(high, tops)])
    lowest = tops.astype(np.uint64) << np.uint64(32)
    return np.searchsorted(candidates, words, side="left") - np.searchsorted(
        candidates, lowest, side="left"
    )


def sample_outcomes(
    state: np.ndarray,
    povm: CovariantPOVM,
    partition,
    n: int,
    seed: int,
) -> np.ndarray:
    """Draw measurement outcomes by inverse transform over the Born weights.

    The weights come from :func:`born_distribution` on the kernel route,
    clipped at 0; weights that sum to 0 or to a non-finite value raise
    ``ValueError`` naming the sum. Uses the counter-based Philox generator
    keyed by the seed, so draw i is a fixed function of (seed, i) on every
    platform and batches can be generated independently and merged. The
    counts are those of the per-draw inverse transform, computed from
    sorted blocks of raw words (see :func:`_inverse_transform_counts`).
    ``n`` must be an integer >= 0 and ``seed`` an integer in [0, 2**128);
    bools are rejected.
    """
    n, seed = _as_int(n, "sample count"), _as_int(seed, "seed")
    if n < 0:
        raise ValueError(f"sample count must be >= 0, got {n}")
    if not 0 <= seed < 2**128:
        raise ValueError(f"seed must be in [0, 2**128), got {seed}")
    probs = np.clip(born_distribution(state, povm, partition), 0.0, None)
    total = probs.sum()
    if not (np.isfinite(total) and total > 0.0):
        raise ValueError(f"Born weights sum to {total}; no outcome can be drawn")
    return _inverse_transform_counts(probs / total, n, seed)
