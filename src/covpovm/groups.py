"""Finite Abelian groups presented as products of cyclic factors.

A group is Z_{n_1} x ... x Z_{n_r} with componentwise addition mod n_j.
Its dual is presented on the same coordinate tuples through the
root-of-unity pairing, so characters and elements share one arithmetic and
one row-major index map, whose order is the lexicographic one. Subgroups and
coset tables are index arrays; cosets are indexed by smallest representative.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np


def _as_int(value, what: str) -> int:
    """The one integer coercion for factors and coordinates: Python and
    numpy integers pass; bools, floats and anything else are rejected."""
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return operator.index(value)


def _as_indices(values, what: str, bound: int, outside: str) -> np.ndarray:
    """Integers as one int64 array, each in [0, bound). One type pass checks
    them all; only when some entry is not a Python int does each go through
    :func:`_as_int`, which names the first that is not an integer. The
    first entry outside the range, one beyond int64 included, raises
    ``ValueError`` with the message ``outside.format(entry)``."""
    values = list(values)
    if not set(map(type, values)) <= {int}:
        values = [_as_int(v, what) for v in values]
    try:
        out = np.array(values, dtype=np.int64)
    except OverflowError:
        out = None
    if out is None or ((out < 0) | (out >= bound)).any():
        raise ValueError(outside.format(next(i for i in values if not 0 <= i < bound)))
    return out


def _as_real(value, what: str) -> float:
    """The one real-number coercion for JSON numbers: Python and numpy ints
    and floats pass; bools, strings, None and anything else are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{what} must be a real number, got {value!r}")
    return float(value)


def _unique(values) -> np.ndarray:
    """The sorted distinct values of an integer sequence, by sort and mask.
    ``np.unique`` without ``return_index``, ``return_inverse`` or
    ``return_counts`` imports ``numpy.ma``, which costs each CLI process
    about 15 ms."""
    values = np.sort(np.asarray(values).ravel())
    keep = np.ones(len(values), dtype=bool)
    keep[1:] = values[1:] != values[:-1]
    return values[keep]


def _isin(values, of) -> np.ndarray:
    """Whether each value occurs in ``of``, by one sort and a binary search:
    ``np.isin`` on a wide range of values calls a plain ``np.unique``."""
    of = np.sort(np.asarray(of).ravel())
    if not len(of):
        return np.zeros(np.shape(values), dtype=bool)
    return of[np.minimum(np.searchsorted(of, values), len(of) - 1)] == values


def _reduced(coords: tuple[int, ...], factors: tuple[int, ...]) -> tuple[int, ...]:
    if len(coords) != len(factors):
        raise ValueError(
            f"coordinate tuple {coords} does not match factors {factors}"
        )
    return tuple(_as_int(c, "coordinate") % n for c, n in zip(coords, factors))


@dataclass(frozen=True, order=True)
class GroupElement:
    """Element of a product of cyclic groups; coordinates reduced mod factors."""

    coords: tuple[int, ...]
    factors: tuple[int, ...]

    def __post_init__(self):
        factors = tuple(_as_int(n, "factor") for n in self.factors)
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "coords", _reduced(tuple(self.coords), factors))

    def _compatible(self, other):
        if type(other) is not type(self):
            raise TypeError(
                f"cannot combine {type(self).__name__} with {type(other).__name__}"
            )
        if self.factors != other.factors:
            raise ValueError(
                f"operands live in different groups: {self.factors} vs {other.factors}"
            )

    def __add__(self, other):
        self._compatible(other)
        return type(self)(
            tuple(a + b for a, b in zip(self.coords, other.coords)), self.factors
        )

    def __neg__(self):
        return type(self)(tuple(-a for a in self.coords), self.factors)

    def __sub__(self, other):
        self._compatible(other)
        return type(self)(
            tuple(a - b for a, b in zip(self.coords, other.coords)), self.factors
        )

    def __repr__(self):
        return f"{type(self).__name__}{self.coords}"


class DualCharacter(GroupElement):
    """Character of a product of cyclic groups, in the self-dual presentation.

    The tuple (x_1, ..., x_r) stands for the character
    g -> exp(2 pi i sum_j x_j g_j / n_j).
    """


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """The group Z_{n_1} x ... x Z_{n_r}."""

    factors: tuple[int, ...]

    def __post_init__(self):
        factors = tuple(_as_int(n, "factor") for n in self.factors)
        if not factors or any(n < 1 for n in factors):
            raise ValueError(f"factors must be integers >= 1, got {self.factors}")
        object.__setattr__(self, "factors", factors)

    @property
    def order(self) -> int:
        return math.prod(self.factors)

    @property
    def rank(self) -> int:
        return len(self.factors)

    @cached_property
    def exponent(self) -> int:
        return math.lcm(*self.factors)

    def element(self, coords) -> GroupElement:
        return GroupElement(tuple(coords), self.factors)

    def character(self, coords) -> DualCharacter:
        return DualCharacter(tuple(coords), self.factors)

    @property
    def zero(self) -> GroupElement:
        return GroupElement((0,) * self.rank, self.factors)

    @property
    def trivial_character(self) -> DualCharacter:
        return DualCharacter((0,) * self.rank, self.factors)

    def doubling_generators(self) -> tuple[GroupElement, ...]:
        """2^k e_i for every factor i and every k < (n_i - 1).bit_length().

        The binary digits of an element's coordinates name distinct
        generators summing to it, so every element is a word of length at
        most the number of generators.
        """
        return tuple(
            self.element([1 << k if j == i else 0 for j in range(self.rank)])
            for i, n in enumerate(self.factors)
            for k in range((n - 1).bit_length())
        )

    def elements(self) -> list[GroupElement]:
        """All group elements in lexicographic order."""
        return list(self.points(GroupElement, slice(None)))

    def characters(self) -> list[DualCharacter]:
        """All characters in lexicographic order."""
        return list(self.points(DualCharacter, slice(None)))

    @cached_property
    def coords(self) -> np.ndarray:
        """Coordinates of every point, one row per index."""
        return np.indices(self.factors).reshape(self.rank, -1).T

    def ravel(self, coords) -> np.ndarray:
        """Indices of integer coordinates (last axis), reduced mod the factors."""
        return np.ravel_multi_index(np.moveaxis(coords, -1, 0), self.factors, mode="wrap")

    def index_of(self, point) -> int:
        """Index of an element or character of this group."""
        if point.factors != self.factors:
            raise ValueError(f"{point} does not lie in {self}")
        return int(np.ravel_multi_index(point.coords, self.factors))

    def points(self, point_type: type, indices) -> tuple:
        """Point objects (elements or characters) at the given indices."""
        return tuple(point_type(c, self.factors) for c in self.coords[indices].tolist())

    @cached_property
    def _roots(self) -> np.ndarray:
        """exp(2 pi i t / L) for t < L: the pairing <1, t> on Z_L, by :func:`pairing`
        itself, so the pairing matrix equals it bit for bit."""
        cyclic = (self.exponent,)
        one = DualCharacter((1,), cyclic)
        return np.array([pairing(one, GroupElement((t,), cyclic)) for t in range(cyclic[0])])

    def exponents(self, x_indices, g_indices) -> np.ndarray:
        """t[a, b] with <x_a, g_b> = exp(2 pi i t / L), 0 <= t < L, exactly."""
        lcm = self.exponent
        scaled = self.coords[x_indices] * (lcm // np.array(self.factors))
        return scaled @ self.coords[g_indices].T % lcm

    def pairing_matrix(self, x_indices, g_indices) -> np.ndarray:
        """P[a, b] = <x_a, g_b>, equal entry for entry to :func:`pairing`. An
        empty table does not fill the root table."""
        exponents = self.exponents(x_indices, g_indices)
        if exponents.size == 0:
            return np.empty(exponents.shape, dtype=complex)
        return self._roots[exponents]

    def __repr__(self):
        return f"FiniteAbelianGroup{self.factors}"


def pairing_exponent(x: GroupElement, g: GroupElement) -> tuple[int, int]:
    """Exact pairing data (t, L) with <x, g> = exp(2 pi i t / L), 0 <= t < L."""
    if x.factors != g.factors:
        raise ValueError(
            f"pairing arguments live in different groups: {x.factors} vs {g.factors}"
        )
    lcm = math.lcm(*x.factors)
    t = sum(a * b * (lcm // n) for a, b, n in zip(x.coords, g.coords, x.factors))
    return t % lcm, lcm


def pairing(x: DualCharacter, g: GroupElement) -> complex:
    """Canonical pairing exp(2 pi i sum_j x_j g_j / n_j); unit modulus."""
    t, lcm = pairing_exponent(x, g)
    return cmath.exp(2j * cmath.pi * t / lcm)


def pairing_is_one(x: GroupElement, g: GroupElement) -> bool:
    """Exact integer test for <x, g> = 1."""
    t, _ = pairing_exponent(x, g)
    return t == 0


def _trivial_pairing(group: FiniteAbelianGroup, indices) -> np.ndarray:
    """Mask of the points x that pair trivially with every point g at the indices:
    sum_k x_k (L / n_k) g_k = 0 mod L, as one broadcast sum of per-axis terms."""
    lcm, axes = group.exponent, np.ix_(*map(np.arange, group.factors))
    mask = np.ones(group.factors, dtype=bool)
    for g in zip(*np.unravel_index(np.asarray(indices, dtype=np.int64), group.factors)):
        mask &= sum(x * (lcm // n * c) for x, n, c in zip(axes, group.factors, g)) % lcm == 0
    return mask.ravel()


def _triangular_generators(group: FiniteAbelianGroup, indices) -> np.ndarray:
    """Generators of the subgroup with these sorted element indices: for each
    j, its first element with coordinates before j zero and coordinate j not."""
    low = np.array([math.prod(group.factors[j + 1 :]) for j in range(group.rank)])
    first = np.append(indices, group.order)[np.searchsorted(indices, low)]
    return first[first < low * group.factors]


class Subgroup:
    """Subgroup of a group or of its dual (GroupElement or DualCharacter points):
    generators and the sorted indices of the elements. The constructor checks
    that the set holds the identity, is closed under adding each generator and
    has |G| / |ann(generators)| elements, so it is exactly what they generate;
    :func:`subgroup_from_generators` and :func:`annihilator` build correct sets
    and skip the checks."""

    def __init__(self, parent: FiniteAbelianGroup, generators, elements):
        elements, generators = tuple(elements), tuple(generators)
        kinds = {type(p) for p in elements}
        if len(kinds) != 1:
            raise ValueError("a subgroup carries the identity and points of one kind only")
        if any(type(g) not in kinds for g in generators):
            raise ValueError("generators must all be of the elements' kind")
        self.parent, self.generators, self.point_type = parent, generators, kinds.pop()
        self.indices = _unique([parent.index_of(p) for p in elements])
        if self.indices[0] != 0:
            raise ValueError("subgroup does not contain the identity")
        coords = parent.coords[self.indices]
        generator_indices = [parent.index_of(g) for g in generators]
        for g, i in zip(generators, generator_indices):
            if (self.position(parent.ravel(coords + parent.coords[i])) < 0).any():
                raise ValueError(f"element set is not closed under adding {g}")
        self._annihilator_mask = _trivial_pairing(parent, generator_indices)
        if self.order * np.count_nonzero(self._annihilator_mask) != parent.order:
            raise ValueError("generators do not generate the stored element set")

    @classmethod
    def _of_indices(cls, parent, generators, point_type, indices, annihilator_mask):
        """A subgroup the caller built correctly, with its annihilator mask: no checks."""
        subgroup = cls.__new__(cls)
        subgroup.parent, subgroup.generators, subgroup.point_type = parent, generators, point_type
        subgroup.indices, subgroup._annihilator_mask = indices, annihilator_mask
        return subgroup

    @cached_property
    def elements(self) -> tuple:
        return self.parent.points(self.point_type, self.indices)

    @property
    def order(self) -> int:
        return len(self.indices)

    @cached_property
    def _positions(self) -> np.ndarray:
        """Position in ``self.indices`` of every parent index, or -1 (int32)."""
        table = np.full(self.parent.order, -1, dtype=np.int32)
        table[self.indices] = np.arange(len(self.indices))
        return table

    def position(self, indices) -> np.ndarray:
        """Position of each index in ``self.indices``, or -1 for non-members."""
        return self._positions[indices]

    def __contains__(self, point) -> bool:
        same_side = type(point) is self.point_type and point.factors == self.parent.factors
        return same_side and self.position(self.parent.index_of(point)) >= 0

    def __iter__(self):
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.indices)


def subgroup_from_generators(group: FiniteAbelianGroup, generators) -> Subgroup:
    """Closure of the generating set under the group law: its double annihilator.

    Accepts GroupElement or DualCharacter generators (all of one kind);
    an empty set yields the trivial subgroup on the element side.
    """
    gens = tuple(generators)
    kinds = {type(g) for g in gens} or {GroupElement}
    if len(kinds) != 1:
        raise ValueError("generators must all be of one kind")
    dual = _trivial_pairing(group, [group.index_of(g) for g in gens])
    member = _trivial_pairing(group, _triangular_generators(group, np.flatnonzero(dual)))
    return Subgroup._of_indices(group, gens, kinds.pop(), np.flatnonzero(member), dual)


def trivial_subgroup(group: FiniteAbelianGroup) -> Subgroup:
    return subgroup_from_generators(group, ())


def annihilator(group: FiniteAbelianGroup, subgroup: Subgroup) -> Subgroup:
    """Points of the opposite side pairing trivially with the whole subgroup.

    For a subgroup H of G this is the character set
    {y : <y, h> = 1 for all h in H}; applied to a dual-side subgroup it
    returns the element-side annihilator, so double application recovers
    the original subgroup under the self-duality identification.
    """
    if subgroup.parent != group:
        raise ValueError("subgroup does not belong to the given group")
    kept = np.flatnonzero(subgroup._annihilator_mask)
    point_type = GroupElement if subgroup.point_type is DualCharacter else DualCharacter
    generators = group.points(point_type, _triangular_generators(group, kept))
    member = np.zeros(group.order, dtype=bool)
    member[subgroup.indices] = True
    return Subgroup._of_indices(group, generators, point_type, kept, member)


@dataclass(frozen=True, eq=False)
class QuotientGroup:
    """Cosets of a subgroup, indexed by smallest representative.

    Index 0 is always the coset of the identity. ``projection`` maps the
    index of every point of the subgroup's side to its coset index.
    """

    subgroup: Subgroup
    rep_indices: np.ndarray
    projection: np.ndarray

    def __len__(self) -> int:
        return len(self.rep_indices)

    @cached_property
    def representatives(self) -> tuple:
        return self.subgroup.parent.points(self.subgroup.point_type, self.rep_indices)

    @cached_property
    def members(self) -> np.ndarray:
        """members[i] is the sorted index array of coset i."""
        return np.argsort(self.projection, kind="stable").reshape(len(self), -1)

    def index_of(self, point) -> int:
        if type(point) is not self.subgroup.point_type:
            raise ValueError(f"{point} is not a point of the quotiented group")
        return int(self.projection[self.subgroup.parent.index_of(point)])

    def add(self, i: int, j: int) -> int:
        """Induced coset group law."""
        return self.index_of(self.representatives[i] + self.representatives[j])


def quotient(group: FiniteAbelianGroup, subgroup: Subgroup) -> QuotientGroup:
    """Enumerate the cosets of a subgroup, on either side of the duality.

    Cosets are indexed by their lexicographically smallest member. With d_j
    the pivot of the subgroup's triangular generator at coordinate j (n_j
    where there is none), those members are the transversal box
    prod_j [0, d_j), in index order, and the box plus the subgroup covers
    every point once (BASIS.md, "Orderings").
    """
    if subgroup.parent != group:
        raise ValueError("subgroup does not belong to the given group")
    t = np.array(np.unravel_index(_triangular_generators(group, subgroup.indices), group.factors))
    box, pivots = np.array(group.factors), (t != 0).argmax(axis=0)
    box[pivots] = t[pivots, np.arange(len(pivots))]
    axes, h = np.ix_(*map(np.arange, box)), np.unravel_index(subgroup.indices, group.factors)
    sums = np.ravel_multi_index([x[..., None] + y for x, y in zip(axes, h)], group.factors, "wrap")
    projection = np.empty(group.order, dtype=np.int64)
    projection[sums] = np.arange(box.prod()).reshape(*box, 1)
    return QuotientGroup(subgroup, np.ravel_multi_index(axes, group.factors).ravel(), projection)


def quotient_pairing(quot: QuotientGroup, character, coset_index: int) -> complex:
    """Pairing of a character with a coset, via any representative.

    Only defined when the character pairs trivially with the quotiented
    subgroup; then the value does not depend on the representative. For a
    quotient of the dual group the roles are mirrored and ``character`` is
    a plain group element.
    """
    for h in quot.subgroup.generators:
        if not pairing_is_one(character, h):
            raise ValueError(
                f"{character} is not trivial on the subgroup; "
                "the pairing is not constant on cosets"
            )
    if not 0 <= coset_index < len(quot.representatives):
        raise ValueError(f"coset index {coset_index} out of range")
    return pairing(character, quot.representatives[coset_index])
