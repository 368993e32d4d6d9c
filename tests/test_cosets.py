"""Coset tables as a transversal box against the flood-fill oracle, the
broadcast pairing mask and the `group` command's pairing table against
scalar pairings, and the adjoint cotransform's shape check."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covpovm import (
    FiniteAbelianGroup,
    QuotientContext,
    annihilator,
    iojson,
    pairing,
    quotient,
    subgroup_from_generators,
    trivial_subgroup,
)
from covpovm.cli import main
from covpovm.groups import _triangular_generators, _trivial_pairing
from helpers import brute_quotient, cotransform_adjoint, pairing_is_one


@st.composite
def groups_with_generators(draw):
    """1-3 cyclic factors of order 1-12 and 0-3 random generators."""
    factors = draw(st.lists(st.integers(1, 12), min_size=1, max_size=3))
    group = FiniteAbelianGroup(tuple(factors))
    coords = st.tuples(*(st.integers(0, n - 1) for n in factors))
    gens = draw(st.lists(coords, max_size=3))
    return group, [group.element(c) for c in gens]


def assert_same_cosets(group, subgroup):
    fast, brute = quotient(group, subgroup), brute_quotient(group, subgroup)
    for name in ("rep_indices", "projection"):
        got, want = getattr(fast, name), getattr(brute, name)
        assert np.array_equal(got, want), name
        assert got.dtype == want.dtype, name


class TestReductionMatchesFloodFill:
    @given(groups_with_generators())
    @settings(max_examples=250, deadline=None)
    def test_group_and_dual_quotients(self, case):
        group, gens = case
        h = subgroup_from_generators(group, gens)
        assert_same_cosets(group, h)
        assert_same_cosets(group, annihilator(group, h))

    @given(groups_with_generators())
    @settings(max_examples=100, deadline=None)
    def test_triangular_pivots_divide_their_factor(self, case):
        group, gens = case
        h = subgroup_from_generators(group, gens)
        for t in group.coords[_triangular_generators(group, h.indices)]:
            j = np.flatnonzero(t)[0]
            assert group.factors[j] % t[j] == 0

    @pytest.mark.parametrize(
        "factors, gens",
        [
            ((4096,), []),
            ((64, 64), [(2, 0), (0, 2)]),
            ((64, 64), [(4, 0), (0, 4)]),
            ((1, 5, 1), [(0, 1, 0)]),
            ((12, 18, 30), [(2, 3, 5), (0, 6, 10)]),
            ((256, 256), [(4, 0), (0, 4)]),
        ],
        ids=["Z4096", "Z64^2/<2>", "Z64^2/<4>", "unit-factors", "Z12xZ18xZ30", "Z256^2/<4>"],
    )
    def test_ladder_cases(self, factors, gens):
        group = FiniteAbelianGroup(factors)
        h = subgroup_from_generators(group, [group.element(c) for c in gens])
        assert_same_cosets(group, h)
        assert_same_cosets(group, annihilator(group, h))

    def test_subgroup_of_another_group_is_rejected(self):
        z12, z6 = FiniteAbelianGroup((12,)), FiniteAbelianGroup((6,))
        with pytest.raises(ValueError, match="does not belong"):
            quotient(z12, trivial_subgroup(z6))


@given(
    st.lists(st.integers(1, 30), min_size=1, max_size=3).filter(lambda f: np.prod(f) <= 1200),
    st.data(),
)
@settings(max_examples=150, deadline=None)
def test_trivial_pairing_equals_scalar_pairings(factors, data):
    group = FiniteAbelianGroup(tuple(factors))
    indices = data.draw(st.lists(st.integers(0, group.order - 1), max_size=3))
    gens = group.points(type(group.zero), indices)
    want = [all(pairing_is_one(x, g) for g in gens) for x in group.elements()]
    assert _trivial_pairing(group, indices).tolist() == want


class TestGroupCommandPairingTable:
    @pytest.mark.parametrize(
        "factors, gens",
        [
            ([12], []),
            ([12], [[0]]),
            ([12], [[4]]),
            ([8, 12, 6], [[2, 3, 0], [4, 6, 3]]),
        ],
        ids=["trivial", "trivial-generator", "Z12/<4>", "Z8xZ12xZ6"],
    )
    def test_equals_scalar_pairings(self, tmp_path, capsys, factors, gens):
        spec = tmp_path / "g.json"
        spec.write_text(
            json.dumps({"group": {"factors": factors}, "subgroup": {"generators": gens}})
        )
        assert main(["group", str(spec)]) == 0
        values = json.loads(capsys.readouterr().out)["pairing_table"]["values"]
        group = FiniteAbelianGroup(tuple(factors))
        h = subgroup_from_generators(group, [group.element(c) for c in gens])
        ctx = QuotientContext.build(group, h)
        want = [
            [iojson.complex_to_pair(pairing(y, g)) for g in h.generators]
            for y in ctx.hperp_points
        ]
        assert values == want


class TestAdjointShapeCheck:
    @pytest.fixture
    def ctx(self):
        z12 = FiniteAbelianGroup((12,))
        return QuotientContext.build(z12, subgroup_from_generators(z12, [z12.element([4])]))

    def test_wrong_shape_rejected_without_building_points(self, ctx):
        with pytest.raises(ValueError, match="expected 4 annihilator values"):
            cotransform_adjoint(ctx, np.ones(5))
        cotransform_adjoint(ctx, np.ones(4))
        assert "elements" not in vars(ctx.annihilator)

    def test_equals_conjugate_transpose(self, ctx):
        rng = np.random.default_rng(8)
        phi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        f = ctx.group.pairing_matrix(ctx.annihilator.indices, ctx.quotient.rep_indices)
        np.testing.assert_allclose(
            cotransform_adjoint(ctx, phi), ctx.hperp_weight * (f.conj().T @ phi), atol=1e-12
        )
