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
    GroupElement,
    Subgroup,
    annihilator,
    pairing,
    quotient,
    subgroup_from_generators,
    trivial_subgroup,
)
from covpovm import groups as groups_module
from covpovm.groups import _isin, _triangular_generators as triangular, _unique
from covpovm.harmonic import QuotientContext
from helpers import brute_closure, brute_cosets, pairing_is_one

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
        x = Z12.character([0])
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
    """A character of the annihilator pairs with a coset through any of its
    members, the representative included; another character does not."""

    def setup_method(self):
        self.h = subgroup_from_generators(Z12, [Z12.element([4])])
        self.q = quotient(Z12, self.h)

    def test_trivial_character(self):
        for rep in self.q.representatives:
            assert pairing(Z12.character([0]), rep) == 1

    def test_value_and_representative_independence(self):
        y = Z12.character([3])
        coset = self.q.index_of(Z12.element([1]))
        assert pairing(y, self.q.representatives[coset]) == pytest.approx(1j)
        # same value from every member of the coset {1, 5, 9}
        for g in (Z12.element([1]), Z12.element([5]), Z12.element([9])):
            assert pairing(y, g) == pytest.approx(1j)

    def test_value_six_two(self):
        coset = self.q.index_of(Z12.element([2]))
        assert pairing(Z12.character([6]), self.q.representatives[coset]) == pytest.approx(1.0)

    def test_character_outside_annihilator(self):
        # its values on the coset H = {0, 4, 8} differ
        assert len({pairing(Z12.character([1]), h) for h in self.h.elements}) == 3


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


def checked_copy(group, built):
    """The checked constructor on the brute-force closure of the built
    subgroup's generators (taken on the element side, whose coordinates the
    dual shares)."""
    closure = brute_closure(group, [group.element(g.coords) for g in built.generators])
    points = [built.point_type(h.coords, group.factors) for h in sorted(closure)]
    return Subgroup(group, built.generators, points)


class TestBuildersMatchTheCheckedConstructor:
    """The unchecked builders (closure, annihilator, double annihilator), on
    either side of the duality, give the same element indices, annihilator
    mask, order, elements and positions as the checked constructor on the
    brute-force closure of their generators."""

    @given(groups_with_generators(), st.booleans())
    @settings(max_examples=120, deadline=None)
    def test_both_descriptions_on_both_sides(self, case, dual_side):
        group, gens = case
        if dual_side:
            gens = [group.character(g.coords) for g in gens]
        h = subgroup_from_generators(group, gens)
        for built in (h, annihilator(group, h), annihilator(group, annihilator(group, h))):
            checked = checked_copy(group, built)
            assert built.point_type is checked.point_type and len(built) == len(checked)
            assert built.order == checked.order and built.elements == checked.elements
            for got, want in (
                (built.indices, checked.indices),
                (built._annihilator_mask, checked._annihilator_mask),
                (built.position(np.arange(group.order)), checked.position(np.arange(group.order))),
            ):
                assert got.dtype == want.dtype and got.tolist() == want.tolist()


class TestTriangularGeneratorsOncePerIndexSet:
    """Set-up (closure, then QuotientContext.build) finds the triangular
    generators of H-perp's index set once, in the closure, and those of H's
    once, for the G/H coset table; the annihilator and the dual coset table
    reuse the first."""

    @given(groups_with_generators())
    @settings(max_examples=60, deadline=None)
    def test_one_call_per_index_set(self, case):
        group, gens = case
        calls = []

        def counted(group, indices):
            calls.append(np.asarray(indices).tolist())
            return triangular(group, indices)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(groups_module, "_triangular_generators", counted)
            h = subgroup_from_generators(group, gens)
            in_closure = len(calls)
            ctx = QuotientContext.build(group, h)
        assert in_closure == 1 and len(calls) == 2
        assert calls == [ctx.annihilator.indices.tolist(), h.indices.tolist()]
        assert ctx.annihilator is annihilator(group, h)


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


@st.composite
def sublattice_indices(draw, group):
    """1-5 indices of points whose coordinates are all multiples of a drawn
    m, so that tables whose exponents share a factor, coarse steps, occur."""
    m = draw(st.integers(1, max(group.factors)))
    on_lattice = np.flatnonzero((group.coords % m == 0).all(axis=1)).tolist()
    return draw(st.lists(st.sampled_from(on_lattice), min_size=1, max_size=5))


def pairing_step(group, x_indices, g_indices) -> int:
    """gcd(L, a b): a the gcd of the scaled character coordinates
    x_j L / n_j, b that of the element coordinates."""
    scales = [group.exponent // n for n in group.factors]
    a = math.gcd(*(c * s for i in x_indices for c, s in zip(group.coords[i].tolist(), scales)))
    b = math.gcd(*(c for i in g_indices for c in group.coords[i].tolist()))
    return math.gcd(group.exponent, a * b)


class TestPairingTables:
    """pairing_matrix reads one root table per step s, each root computed by
    ``groups.pairing`` once for its step; a step that a cached step divides
    is sliced from that table with no new call."""

    @staticmethod
    def counted_roots(mp) -> list:
        """Patch ``groups.pairing`` to record the exponent t of each root it computes."""
        computed = []

        def counted(x, g):
            computed.append(g.coords[0])
            return pairing(x, g)

        mp.setattr(groups_module, "pairing", counted)
        return computed

    @given(st.lists(st.integers(1, 16), min_size=1, max_size=3), st.data())
    @settings(max_examples=200, deadline=None)
    def test_tables_equal_pairing_and_compute_each_step_once(self, factors, data):
        group = FiniteAbelianGroup(tuple(factors))
        cached = set()
        with pytest.MonkeyPatch.context() as mp:
            computed = self.counted_roots(mp)
            # several tables on one group, so that both coarse-then-fine and
            # fine-then-coarse orders occur, and repeated steps
            for _ in range(data.draw(st.integers(1, 4))):
                xs = data.draw(sublattice_indices(group))
                gs = data.draw(sublattice_indices(group))
                step = pairing_step(group, xs, gs)
                computed.clear()
                table = group.pairing_matrix(xs, gs)
                sliced = any(step % s == 0 for s in cached)
                assert computed == ([] if sliced else list(range(0, group.exponent, step)))
                cached.add(step)
                brute = [
                    [pairing(x, g) for g in group.points(GroupElement, gs)]
                    for x in group.points(DualCharacter, xs)
                ]
                assert table.tolist() == brute

    @pytest.mark.parametrize("coarse_first", [True, False])
    def test_call_orders_on_the_lattice_case(self, coarse_first):
        # Z_64 x Z_64 with H = <(4, 0), (0, 4)>: H-perp's scaled coordinates
        # are multiples of 16, so its pairing with G/H reads 4 of the 64 roots
        group = FiniteAbelianGroup((64, 64))
        h = subgroup_from_generators(group, [group.element([4, 0]), group.element([0, 4])])
        coarse = (annihilator(group, h).indices, quotient(group, h).rep_indices)
        fine = (np.arange(group.order), np.arange(group.order))
        order = [(coarse, 4), (fine, 64)] if coarse_first else [(fine, 64), (coarse, 0)]
        with pytest.MonkeyPatch.context() as mp:
            computed = self.counted_roots(mp)
            for (xs, gs), calls in order:
                computed.clear()
                table = group.pairing_matrix(xs, gs)
                assert len(computed) == calls
                assert table[:3, :3].tolist() == [
                    [pairing(x, g) for g in group.points(GroupElement, gs[:3])]
                    for x in group.points(DualCharacter, xs[:3])
                ]
            computed.clear()
            group.pairing_matrix(*coarse)
            group.pairing_matrix(*fine)
            assert computed == []
