import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covpovm import (
    DiagonalSpace,
    DualCharacter,
    FiniteAbelianGroup,
    InducedSpace,
    QuotientContext,
    character_multiplication_matrix,
    diagonalizer_adjoint_apply,
    diagonalizer_adjoint_matrix,
    diagonalizer_apply,
    diagonalizer_matrix,
    multiplication_act,
    multiplication_matrix,
    pairing,
    subgroup_from_generators,
    translation_act,
    translation_matrix,
    transported_multiplication_act,
    transported_multiplication_matrix,
)
from covpovm.induction import _materialize
from helpers import brute_shift_index, brute_shift_table, loop_diagonalizer_adjoint_apply, value_at

Z12 = FiniteAbelianGroup((12,))


def z12_context():
    return QuotientContext.build(
        Z12, subgroup_from_generators(Z12, [Z12.element([4])])
    )


def counting_space(e_dim=1):
    ctx = z12_context()
    return InducedSpace(ctx, np.ones(len(ctx.dual_quotient)), e_dim)


def spaces_under_test():
    ctx = z12_context()
    z22 = FiniteAbelianGroup((2, 2))
    ctx22 = QuotientContext.build(
        z22, subgroup_from_generators(z22, [z22.element([1, 1])])
    )
    return [
        counting_space(1),
        counting_space(2),
        # non-uniform weights and a dropped coset
        InducedSpace(ctx, np.array([2.0, 0.0, 0.5]), 2),
        InducedSpace(ctx22, np.ones(len(ctx22.dual_quotient)), 1),
    ]


class TestTranslation:
    def test_identity_element(self):
        space = counting_space(2)
        rng = np.random.default_rng(0)
        f = space.random(rng)
        np.testing.assert_allclose(
            translation_act(space, space.ctx.group.zero, f), f
        )

    def test_composition(self):
        rng = np.random.default_rng(1)
        for space in spaces_under_test():
            f = space.random(rng)
            elems = space.ctx.group.elements()
            for _ in range(5):
                a = elems[rng.integers(len(elems))]
                b = elems[rng.integers(len(elems))]
                left = translation_act(space, a, translation_act(space, b, f))
                right = translation_act(space, a + b, f)
                np.testing.assert_allclose(left, right, atol=1e-9)

    def test_norm_preserved(self):
        rng = np.random.default_rng(2)
        for space in spaces_under_test():
            f = space.random(rng)
            for a in space.ctx.group.elements():
                assert space.norm(translation_act(space, a, f)) == pytest.approx(
                    space.norm(f)
                )


class TestMultiplication:
    def test_constant_one_is_identity(self):
        space = counting_space(2)
        rng = np.random.default_rng(3)
        f = space.random(rng)
        one = np.ones(space.ctx.n_cosets)
        np.testing.assert_allclose(multiplication_act(space, one, f), f)

    def test_indicator_is_projection(self):
        space = counting_space(1)
        m = multiplication_matrix(space, space.ctx.indicator([0]))
        np.testing.assert_allclose(m @ m, m, atol=1e-12)
        np.testing.assert_allclose(m, m.conj().T, atol=1e-12)

    def test_covariance_with_translation(self):
        rng = np.random.default_rng(4)
        for space in spaces_under_test():
            ctx = space.ctx
            omega = rng.standard_normal(ctx.n_cosets) + 1j * rng.standard_normal(
                ctx.n_cosets
            )
            m = multiplication_matrix(space, omega)
            for a in ctx.group.elements():
                lam = translation_matrix(space, a)
                lhs = lam @ m @ lam.conj().T
                rhs = multiplication_matrix(space, ctx.translated(a, omega))
                np.testing.assert_allclose(lhs, rhs, atol=1e-9)


class TestDiagonalizer:
    def test_zero(self):
        space = counting_space(1)
        np.testing.assert_allclose(
            diagonalizer_apply(space, space.zero()), space.diagonal_space.zero()
        )

    @pytest.mark.parametrize("e_dim", [1, 2])
    def test_unitary_z12(self, e_dim):
        space = counting_space(e_dim)
        assert space.dim == 12 * e_dim
        s = diagonalizer_matrix(space)
        assert s.shape == (space.dim, space.dim)
        eye = np.eye(space.dim)
        assert np.abs(s.conj().T @ s - eye).max() < 1e-9
        assert np.abs(s @ s.conj().T - eye).max() < 1e-9

    def test_unitary_everywhere(self):
        for space in spaces_under_test():
            s = diagonalizer_matrix(space)
            eye = np.eye(space.dim)
            assert np.abs(s.conj().T @ s - eye).max() < 1e-9
            assert np.abs(s @ s.conj().T - eye).max() < 1e-9
            np.testing.assert_allclose(
                diagonalizer_adjoint_matrix(space), s.conj().T, atol=1e-12
            )

    def test_representative_independence(self):
        # evaluate the defining sum over a shifted representative set,
        # reconstructing values through the covariance rule
        rng = np.random.default_rng(5)
        for space in spaces_under_test():
            ctx = space.ctx
            f = space.random(rng)
            expected = diagonalizer_apply(space, f)
            dspace = space.diagonal_space
            shifts = [
                ctx.subgroup.elements[rng.integers(len(ctx.subgroup.elements))]
                for _ in range(ctx.n_cosets)
            ]
            out = dspace.zero()
            for p, x in enumerate(dspace.points):
                s = int(dspace._fiber_position[p])
                for i, rep in enumerate(ctx.quotient.representatives):
                    g = rep + shifts[i]
                    out[p] += pairing(x, g) * value_at(space, f, g, s)
            np.testing.assert_allclose(out, expected, atol=1e-9)

    def test_adjoint_roundtrip(self):
        rng = np.random.default_rng(6)
        for space in spaces_under_test():
            f = space.random(rng)
            np.testing.assert_allclose(
                diagonalizer_adjoint_apply(space, diagonalizer_apply(space, f)),
                f,
                atol=1e-9,
            )

    def test_adjoint_equals_point_loop_bit_for_bit(self):
        # the scatter-add sums each fiber's points in point order, as the loop does
        rng = np.random.default_rng(9)
        for space in spaces_under_test():
            phi = space.diagonal_space.random(rng)
            assert np.array_equal(
                diagonalizer_adjoint_apply(space, phi), loop_diagonalizer_adjoint_apply(space, phi)
            )

    def test_adjoint_output_satisfies_covariance_rule(self):
        rng = np.random.default_rng(7)
        space = counting_space(2)
        ctx = space.ctx
        phi = space.diagonal_space.random(rng)
        f = diagonalizer_adjoint_apply(space, phi)
        for s, x in enumerate(ctx.group.points(DualCharacter, space.support_character_indices)):
            for i, rep in enumerate(ctx.quotient.representatives):
                for h in ctx.subgroup.elements:
                    expected = pairing(x, h).conjugate() * f[i, s, :]
                    actual = value_at(space, f, rep + h, s)
                    np.testing.assert_allclose(actual, expected, atol=1e-12)

    def test_adjoint_norm(self):
        rng = np.random.default_rng(8)
        for space in spaces_under_test():
            phi = space.diagonal_space.random(rng)
            assert space.norm(
                diagonalizer_adjoint_apply(space, phi)
            ) == pytest.approx(space.diagonal_space.norm(phi))

    def test_intertwines_translations(self):
        for space in spaces_under_test():
            s = diagonalizer_matrix(space)
            for a in space.ctx.group.elements():
                lam = translation_matrix(space, a)
                big = character_multiplication_matrix(space.diagonal_space, a)
                assert np.abs(s @ lam - big @ s).max() < 1e-9


class TestTransported:
    def test_constant_one_is_identity(self):
        space = counting_space(2)
        m = transported_multiplication_matrix(
            space.diagonal_space, np.ones(space.ctx.n_cosets)
        )
        np.testing.assert_allclose(m, np.eye(space.dim), atol=1e-12)

    def test_equals_conjugated_multiplication(self):
        rng = np.random.default_rng(9)
        for space in spaces_under_test():
            s = diagonalizer_matrix(space)
            for _ in range(5):
                omega = rng.standard_normal(space.ctx.n_cosets) + 1j * (
                    rng.standard_normal(space.ctx.n_cosets)
                )
                direct = transported_multiplication_matrix(space.diagonal_space, omega)
                conjugated = s @ multiplication_matrix(space, omega) @ s.conj().T
                np.testing.assert_allclose(direct, conjugated, atol=1e-9)

    def test_real_function_gives_selfadjoint(self):
        rng = np.random.default_rng(10)
        space = counting_space(1)
        omega = rng.standard_normal(space.ctx.n_cosets)
        m = transported_multiplication_matrix(space.diagonal_space, omega)
        np.testing.assert_allclose(m, m.conj().T, atol=1e-12)

    def test_partition_projections(self):
        for space in spaces_under_test():
            dspace = space.diagonal_space
            ctx = space.ctx
            projections = [
                transported_multiplication_matrix(dspace, ctx.indicator([i]))
                for i in range(ctx.n_cosets)
            ]
            total = np.zeros((space.dim, space.dim), dtype=complex)
            for i, p in enumerate(projections):
                np.testing.assert_allclose(p @ p, p, atol=1e-9)
                np.testing.assert_allclose(p, p.conj().T, atol=1e-9)
                for j, other in enumerate(projections):
                    if i != j:
                        assert np.abs(p @ other).max() < 1e-9
                total += p
            np.testing.assert_allclose(total, np.eye(space.dim), atol=1e-9)

    def test_imprimitivity_covariance(self):
        rng = np.random.default_rng(11)
        for space in spaces_under_test():
            ctx = space.ctx
            dspace = space.diagonal_space
            omega = rng.standard_normal(ctx.n_cosets) + 1j * rng.standard_normal(
                ctx.n_cosets
            )
            m = transported_multiplication_matrix(dspace, omega)
            for a in ctx.group.elements():
                big = character_multiplication_matrix(dspace, a)
                lhs = big @ m @ big.conj().T
                rhs = transported_multiplication_matrix(
                    dspace, ctx.translated(a, omega)
                )
                np.testing.assert_allclose(lhs, rhs, atol=1e-9)


class TestSpaces:
    def test_dimensions(self):
        space = counting_space(1)
        assert space.dim == 12
        assert space.diagonal_space.dim == 12

    def test_support_restriction(self):
        ctx = z12_context()
        space = InducedSpace(ctx, np.array([1.0, 0.0, 2.0]), 1)
        assert space.support == (0, 2)
        assert space.dim == 8
        assert len(space.diagonal_space.points) == 8

    def test_coords_roundtrip(self):
        rng = np.random.default_rng(12)
        for space in spaces_under_test():
            f = space.random(rng)
            np.testing.assert_allclose(
                space.from_coords(space.to_coords(f)), f, atol=1e-12
            )
            assert np.linalg.norm(space.to_coords(f)) == pytest.approx(space.norm(f))

    def test_rejects_wrong_domain(self):
        # one weight per coset of G/H (4 of them), not of the dual quotient (3)
        ctx = z12_context()
        with pytest.raises(ValueError, match="expected 3 dual coset weights"):
            InducedSpace(ctx, np.ones(ctx.n_cosets), 1)


def column_by_column(dspace, omega):
    """The transported multiplication matrix, one act call per basis vector."""
    return _materialize(
        lambda p: transported_multiplication_act(dspace, omega, p), dspace, dspace
    )


@st.composite
def diagonal_spaces(draw):
    """A group of one or two cyclic factors, a random subgroup, e_dim 1 to 3,
    and a class measure on a random nonempty set of dual cosets, with one
    common weight or with random weights."""
    factors = tuple(draw(st.lists(st.integers(1, 6), min_size=1, max_size=2)))
    group = FiniteAbelianGroup(factors)
    coords = st.tuples(*(st.integers(0, n - 1) for n in factors))
    generators = draw(st.lists(coords, max_size=2))
    subgroup = subgroup_from_generators(group, [group.element(g) for g in generators])
    ctx = QuotientContext.build(group, subgroup)
    n_dual = len(ctx.dual_quotient)
    cosets = draw(st.lists(st.integers(0, n_dual - 1), min_size=1, unique=True))
    uniform = draw(st.booleans())
    weight = st.floats(0.1, 10.0)
    nu = np.zeros(n_dual)
    if uniform:
        nu[cosets] = draw(weight)
    else:
        nu[cosets] = [draw(weight) for _ in cosets]
    dspace = DiagonalSpace(ctx, nu, draw(st.integers(1, 3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q = ctx.n_cosets
    omega = rng.uniform(-1.0, 1.0, q) + 1j * rng.uniform(-1.0, 1.0, q)
    return dspace, omega, uniform


class TestImpulseResponseBuilder:
    @given(diagonal_spaces())
    @settings(max_examples=60, deadline=None)
    def test_matches_column_by_column(self, case):
        dspace, omega, uniform = case
        built = transported_multiplication_matrix(dspace, omega)
        reference = column_by_column(dspace, omega)
        assert built.shape == reference.shape == (dspace.dim, dspace.dim)
        if uniform:
            assert (built == reference).all()
        else:
            assert np.abs(built - reference).max() <= 1e-14

    @given(diagonal_spaces())
    @settings(max_examples=40, deadline=None)
    def test_index_tables_match_brute_force(self, case):
        dspace, _, _ = case
        np.testing.assert_array_equal(dspace._shift_table, brute_shift_table(dspace))
        np.testing.assert_array_equal(dspace._shift_index, brute_shift_index(dspace))
