import cmath
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covpovm import (
    DualCharacter,
    FiniteAbelianGroup,
    Subgroup,
    annihilator,
    pairing,
    pairing_is_one,
    quotient,
    quotient_pairing,
    subgroup_from_generators,
    trivial_subgroup,
)
from covpovm.groups import _isin, _unique
from helpers import brute_closure, brute_cosets

Z12 = FiniteAbelianGroup((12,))
Z2Z2 = FiniteAbelianGroup((2, 2))


def subgroup_zoo():
    z6 = FiniteAbelianGroup((6,))
    z24 = FiniteAbelianGroup((2, 4))
    return [
        (Z12, subgroup_from_generators(Z12, [Z12.element([4])])),
        (Z12, subgroup_from_generators(Z12, [Z12.element([6])])),
        (Z12, subgroup_from_generators(Z12, [Z12.element([1])])),
        (Z12, trivial_subgroup(Z12)),
        (Z2Z2, subgroup_from_generators(Z2Z2, [Z2Z2.element([1, 1])])),
        (z6, subgroup_from_generators(z6, [z6.element([3])])),
        (z24, subgroup_from_generators(z24, [z24.element([1, 2])])),
    ]


class TestPairing:
    def test_trivial_character(self):
        x = Z12.trivial_character
        for g in Z12.elements():
            assert pairing(x, g) == 1

    def test_direct_values(self):
        assert pairing(Z12.character([1]), Z12.element([1])) == pytest.approx(
            cmath.exp(1j * cmath.pi / 6)
        )
        # 6 * 2 = 12 = 0 mod 12
        assert pairing(Z12.character([6]), Z12.element([2])) == pytest.approx(1.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            pairing(Z12.character([1]), Z2Z2.element([1, 0]))

    @given(
        factors=st.lists(st.integers(1, 12), min_size=1, max_size=3),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_bilinear_and_unimodular(self, factors, data):
        group = FiniteAbelianGroup(tuple(factors))
        coords = st.tuples(*(st.integers(0, n - 1) for n in factors))
        x = group.character(data.draw(coords))
        xp = group.character(data.draw(coords))
        g = group.element(data.draw(coords))
        gp = group.element(data.draw(coords))
        assert abs(abs(pairing(x, g)) - 1.0) < 1e-12
        assert abs(pairing(x, g + gp) - pairing(x, g) * pairing(x, gp)) < 1e-12
        assert abs(pairing(x + xp, g) - pairing(x, g) * pairing(xp, g)) < 1e-12


class TestSubgroup:
    def test_closure_z12(self):
        h = subgroup_from_generators(Z12, [Z12.element([4])])
        assert {e.coords for e in h} == {(0,), (4,), (8,)}
        assert set(h.elements) == brute_closure(Z12, [Z12.element([4])])

    def test_empty_generators(self):
        h = subgroup_from_generators(Z12, [])
        assert [e.coords for e in h] == [(0,)]

    def test_z2z2_diagonal(self):
        h = subgroup_from_generators(Z2Z2, [Z2Z2.element([1, 1])])
        assert {e.coords for e in h} == {(0, 0), (1, 1)}
        assert set(h.elements) == brute_closure(Z2Z2, [Z2Z2.element([1, 1])])

    def test_closure_idempotent(self):
        for group, h in subgroup_zoo():
            again = subgroup_from_generators(group, h.elements)
            assert set(again.elements) == set(h.elements)

    def test_generator_outside_group(self):
        with pytest.raises(ValueError):
            subgroup_from_generators(Z12, [Z2Z2.element([1, 0])])

    def test_direct_construction_enforces_invariants(self):
        from covpovm import Subgroup

        four = Z12.element([4])
        with pytest.raises(ValueError):  # not closed
            Subgroup(Z12, (four,), (Z12.element([0]), four))
        with pytest.raises(ValueError):  # generators do not generate
            Subgroup(Z12, (), (Z12.element([0]), four, Z12.element([8])))
        with pytest.raises(ValueError):  # identity missing
            Subgroup(Z12, (four,), (four, Z12.element([8])))


class TestAnnihilator:
    def test_z12_frozen(self):
        h = subgroup_from_generators(Z12, [Z12.element([4])])
        ann = annihilator(Z12, h)
        assert {y.coords for y in ann} == {(0,), (3,), (6,), (9,)}
        # enumeration oracle: x*h = 0 mod 12 for every h in H
        oracle = {
            y.coords
            for y in Z12.characters()
            if all(pairing_is_one(y, e) for e in h.elements)
        }
        assert {y.coords for y in ann} == oracle

    def test_full_subgroup_annihilates_to_trivial(self):
        h = subgroup_from_generators(Z12, [Z12.element([1])])
        ann = annihilator(Z12, h)
        assert [y.coords for y in ann] == [(0,)]

    def test_trivial_subgroup_has_full_annihilator(self):
        ann = annihilator(Z12, trivial_subgroup(Z12))
        assert len(ann) == Z12.order

    def test_order_product(self):
        for group, h in subgroup_zoo():
            ann = annihilator(group, h)
            assert ann.order * h.order == group.order

    def test_double_annihilator(self):
        for group, h in subgroup_zoo():
            double = annihilator(group, annihilator(group, h))
            assert set(double.elements) == set(h.elements)


class TestQuotient:
    def test_z12_cosets(self):
        h = subgroup_from_generators(Z12, [Z12.element([4])])
        q = quotient(Z12, h)
        assert [r.coords for r in q.representatives] == [(0,), (1,), (2,), (3,)]
        oracle = brute_cosets(Z12, h.elements)
        assert len(q) == len(oracle)
        for coset in oracle:
            indices = {q.index_of(g) for g in coset}
            assert len(indices) == 1

    def test_trivial_subgroup(self):
        q = quotient(Z12, trivial_subgroup(Z12))
        assert len(q) == Z12.order

    def test_z2z2(self):
        h = subgroup_from_generators(Z2Z2, [Z2Z2.element([1, 1])])
        q = quotient(Z2Z2, h)
        assert len(q) == 2
        assert len(brute_cosets(Z2Z2, h.elements)) == 2

    def test_projection_constant_on_cosets(self):
        for group, h in subgroup_zoo():
            q = quotient(group, h)
            for g in group.elements():
                for e in h.elements:
                    assert q.index_of(g + e) == q.index_of(g)

    def test_coset_law(self):
        for group, h in subgroup_zoo():
            q = quotient(group, h)
            n = len(q)
            assert q.index_of(group.zero) == 0
            for i in range(n):
                assert q.add(i, 0) == i
                for j in range(n):
                    for k in range(n):
                        assert q.add(q.add(i, j), k) == q.add(i, q.add(j, k))

    def test_size_product(self):
        for group, h in subgroup_zoo():
            assert len(quotient(group, h)) * h.order == group.order


class TestQuotientPairing:
    def setup_method(self):
        self.h = subgroup_from_generators(Z12, [Z12.element([4])])
        self.q = quotient(Z12, self.h)

    def test_trivial_character(self):
        for i in range(len(self.q)):
            assert quotient_pairing(self.q, Z12.trivial_character, i) == 1

    def test_value_and_representative_independence(self):
        y = Z12.character([3])
        coset = self.q.index_of(Z12.element([1]))
        assert quotient_pairing(self.q, y, coset) == pytest.approx(1j)
        # same value from every member of the coset {1, 5, 9}
        for g in (Z12.element([1]), Z12.element([5]), Z12.element([9])):
            assert pairing(y, g) == pytest.approx(1j)

    def test_value_six_two(self):
        coset = self.q.index_of(Z12.element([2]))
        assert quotient_pairing(self.q, Z12.character([6]), coset) == pytest.approx(1.0)

    def test_character_outside_annihilator(self):
        with pytest.raises(ValueError):
            quotient_pairing(self.q, Z12.character([1]), 0)


class TestIntegerBoundary:
    @pytest.mark.parametrize("bad", [12.9, 12.0, True, "12", None])
    def test_non_integral_factor_rejected(self, bad):
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            FiniteAbelianGroup((bad,))

    @pytest.mark.parametrize("bad", [4.7, 4.0, True, np.float64(4.0), np.bool_(True)])
    def test_non_integral_coordinate_rejected(self, bad):
        with pytest.raises(ValueError, match="coordinate must be an integer"):
            Z12.element([bad])
        with pytest.raises(ValueError, match="coordinate must be an integer"):
            Z12.character([bad])

    def test_numpy_integers_accepted(self):
        group = FiniteAbelianGroup((np.int64(12),))
        assert group.factors == (12,) and type(group.factors[0]) is int
        g = group.element([np.int32(16)])
        assert g.coords == (4,) and type(g.coords[0]) is int


@st.composite
def groups_with_generators(draw, max_generators=3):
    """Groups of 1-3 cyclic factors of order <= 12 (at most 96 elements, so
    the brute-force oracles stay fast) with a random generator list."""
    factors = draw(
        st.lists(st.integers(1, 12), min_size=1, max_size=3).filter(
            lambda f: math.prod(f) <= 96
        )
    )
    group = FiniteAbelianGroup(tuple(factors))
    coords = st.tuples(*(st.integers(0, n - 1) for n in factors))
    gens = draw(st.lists(coords, max_size=max_generators))
    return group, [group.element(c) for c in gens]


class TestIndexLayerProperties:
    @given(groups_with_generators())
    @settings(max_examples=60, deadline=None)
    def test_closure_matches_brute_force(self, case):
        group, gens = case
        h = subgroup_from_generators(group, gens)
        assert set(h.elements) == brute_closure(group, gens)
        assert list(h.elements) == sorted(h.elements)
        assert h.generators == tuple(gens)

    @given(groups_with_generators())
    @settings(max_examples=60, deadline=None)
    def test_annihilator_matches_brute_pairing(self, case):
        group, gens = case
        h = subgroup_from_generators(group, gens)
        ann = annihilator(group, h)
        oracle = {
            y for y in group.characters() if all(pairing(y, e) == 1 for e in h.elements)
        }
        assert set(ann.elements) == oracle
        assert ann.point_type is DualCharacter
        assert set(annihilator(group, ann).elements) == set(h.elements)
        respanned = subgroup_from_generators(group, ann.generators)
        assert {y.coords for y in respanned.elements} == {y.coords for y in oracle}

    @given(groups_with_generators())
    @settings(max_examples=60, deadline=None)
    def test_quotient_matches_brute_cosets(self, case):
        group, gens = case
        h = subgroup_from_generators(group, gens)
        q = quotient(group, h)
        oracle = brute_cosets(group, h.elements)
        assert list(q.representatives) == [coset[0] for coset in oracle]
        for i, coset in enumerate(oracle):
            assert q.members[i].tolist() == sorted(group.index_of(g) for g in coset)
            assert {q.index_of(g) for g in coset} == {i}

    @given(groups_with_generators())
    @settings(max_examples=40, deadline=None)
    def test_dual_quotient_matches_brute_cosets(self, case):
        group, gens = case
        ann = annihilator(group, subgroup_from_generators(group, gens))
        dq = quotient(group, ann)
        oracle = []
        for x in group.characters():
            for coset in oracle:
                if x - coset[0] in ann:
                    coset.append(x)
                    break
            else:
                oracle.append([x])
        assert list(dq.representatives) == [coset[0] for coset in oracle]
        for i, coset in enumerate(oracle):
            assert dq.members[i].tolist() == [group.index_of(x) for x in coset]
            assert {dq.index_of(x) for x in coset} == {i}

    @given(groups_with_generators())
    @settings(max_examples=60, deadline=None)
    def test_built_subgroups_pass_the_checked_constructor(self, case):
        # subgroup_from_generators and annihilator skip the constructor's
        # checks; what they build must pass them, with the same annihilator
        group, gens = case
        h = subgroup_from_generators(group, gens)
        ann = annihilator(group, h)
        for built in (h, ann, annihilator(group, ann)):
            checked = Subgroup(group, built.generators, built.elements)
            assert checked.point_type is built.point_type
            assert checked.indices.tolist() == built.indices.tolist()
            assert checked._annihilator_mask.tolist() == built._annihilator_mask.tolist()

    def test_mixed_generator_kinds_rejected(self):
        with pytest.raises(ValueError, match="one kind"):
            subgroup_from_generators(Z12, [Z12.element([4]), Z12.character([3])])

    @given(groups_with_generators(max_generators=0))
    @settings(max_examples=40, deadline=None)
    def test_pairing_matrix_equals_pairing_exactly(self, case):
        group, _ = case
        everything = np.arange(group.order)
        matrix = group.pairing_matrix(everything, everything)
        brute = [[pairing(x, g) for g in group.elements()] for x in group.characters()]
        assert matrix.tolist() == brute

    @pytest.mark.parametrize("rows, cols", [(0, 0), (5, 0), (0, 3)])
    def test_empty_pairing_matrix_leaves_the_root_table_unfilled(self, rows, cols):
        group = FiniteAbelianGroup((4096,))
        matrix = group.pairing_matrix(list(range(rows)), list(range(cols)))
        assert matrix.shape == (rows, cols) and matrix.dtype == complex
        assert "_roots" not in vars(group)
        group.pairing_matrix([1], [1])
        assert "_roots" in vars(group)

    @given(groups_with_generators(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_direct_dual_construction_enforces_invariants(self, case, data):
        group, gens = case
        dual = annihilator(group, subgroup_from_generators(group, gens))
        points = list(dual.elements)
        Subgroup(group, dual.generators, points)  # the valid set is accepted
        if len(points) > 1:
            with pytest.raises(ValueError):  # identity missing
                Subgroup(group, dual.generators, points[1:])
            dropped = data.draw(st.integers(1, len(points) - 1))
            with pytest.raises(ValueError):  # not closed under the generators
                Subgroup(group, dual.generators, points[:dropped] + points[dropped + 1 :])
            with pytest.raises(ValueError):  # generators do not generate
                Subgroup(group, (), points)
        outside = [y for y in group.characters() if y not in dual]
        if outside:
            shift = data.draw(st.sampled_from(outside))
            with pytest.raises(ValueError, match="identity"):  # another coset
                Subgroup(group, dual.generators, [y + shift for y in points])
        if outside and len(points) > 1:
            with pytest.raises(ValueError, match="not closed"):  # right size, not closed
                Subgroup(group, dual.generators, points[:-1] + [shift])


class TestSubgroupValidation:
    def test_each_check_rejects_on_its_own(self):
        four = Z12.element([4])
        with pytest.raises(ValueError, match="identity"):  # a coset of <4>
            Subgroup(Z12, (four,), [Z12.element([c]) for c in (1, 5, 9)])
        with pytest.raises(ValueError, match="not closed"):  # holds 0, right size
            Subgroup(Z12, (four,), [Z12.element([c]) for c in (0, 4, 9)])
        with pytest.raises(ValueError, match="do not generate"):  # closed, too large
            Subgroup(Z12, (four,), [Z12.element([c]) for c in range(0, 12, 2)])


index_arrays = st.lists(
    st.integers(min_value=-(2**40), max_value=2**40) | st.integers(0, 9), max_size=20
)


class TestSetHelpers:
    """groups._unique and groups._isin equal np.unique and np.isin, which
    the CLI avoids because they import numpy.ma."""

    @given(index_arrays)
    @settings(max_examples=200, deadline=None)
    def test_unique(self, values):
        values = np.array(values, dtype=np.int64)
        got, expected = _unique(values), np.unique(values)
        assert got.dtype == expected.dtype and got.tolist() == expected.tolist()

    @given(index_arrays, index_arrays)
    @settings(max_examples=200, deadline=None)
    def test_isin(self, values, of):
        values, of = np.array(values, dtype=np.int64), np.array(of, dtype=np.int64)
        assert _isin(values, of).tolist() == np.isin(values, of).tolist()
